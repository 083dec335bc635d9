//! CPU interpreter for [`Jaxpr`] graphs with buffer-liveness tracking.
//!
//! The interpreter mirrors the paper's buffer-deletion discipline
//! (§4.2–4.3) on a single device: before execution it computes a
//! last-use table over the graph, drops each intermediate buffer at its
//! last consuming equation, and lets elementwise primitives *steal* a
//! uniquely-owned operand buffer for in-place execution. Buffers that
//! arrived from the caller (or sit in an actor's object store) are
//! always aliased from outside the interpreter, so `Arc::get_mut` fails
//! on them and they are never mutated — only graph-local intermediates
//! are recycled. The same pass finds each `Transpose` whose every
//! consumer is a matmul: it is never written out, only aliased, and the
//! matmul kernels read its source transposed (bit for bit what the
//! materialised transpose would give). An alias holds a reference to
//! its source, so the source cannot be stolen for an in-place write
//! while a matmul still has to read it.
//!
//! [`eval_reference`] preserves the pre-optimization execution model
//! (deep-copied inputs, naive serial kernels, copying yields) as the
//! oracle the parity tests compare [`eval`] against bit for bit. It is
//! only ever called directly: no switch routes [`eval`] through it.

use std::time::Instant;

use crate::error::{IrError, Result};
use crate::graph::{Eqn, Jaxpr};
use crate::kernels::Layout;
use crate::prim::Prim;
use crate::tensor::{gelu, gelu_grad, tanh, Tensor};

/// Buffer-allocator counters for one [`eval_with_stats`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Output buffers freshly allocated.
    pub allocated: u64,
    /// Outputs that reused an operand buffer in place or aliased it
    /// zero-copy (reshape, pipeline yield, a transpose only matmuls
    /// read).
    pub reused: u64,
    /// Intermediate buffers dropped at their last use.
    pub freed: u64,
}

impl EvalStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.allocated += other.allocated;
        self.reused += other.reused;
        self.freed += other.freed;
    }
}

/// Evaluates a single primitive on concrete tensors.
///
/// # Errors
///
/// Returns arity/shape errors when operands are invalid for `prim`.
pub fn eval_prim(prim: &Prim, inputs: &[&Tensor]) -> Result<Tensor> {
    if inputs.len() != prim.arity() {
        return Err(IrError::ArityMismatch {
            context: prim.name().into(),
            expected: prim.arity(),
            found: inputs.len(),
        });
    }
    match prim {
        Prim::Add => inputs[0].zip(inputs[1], |a, b| a + b),
        Prim::Sub => inputs[0].zip(inputs[1], |a, b| a - b),
        Prim::Mul => inputs[0].zip(inputs[1], |a, b| a * b),
        Prim::Div => inputs[0].zip(inputs[1], |a, b| a / b),
        Prim::Neg => Ok(inputs[0].map(|x| -x)),
        Prim::Scale(c) => Ok(inputs[0].map(|x| x * c)),
        Prim::AddScalar(c) => Ok(inputs[0].map(|x| x + c)),
        Prim::MatMul => inputs[0].matmul(inputs[1]),
        Prim::BatchMatMul => inputs[0].batch_matmul(inputs[1]),
        Prim::Transpose => inputs[0].transpose(),
        Prim::Permute { perm } => inputs[0].permute(perm),
        Prim::Relu => Ok(inputs[0].map(|x| x.max(0.0))),
        Prim::Gelu => Ok(inputs[0].map(gelu)),
        Prim::Tanh => Ok(inputs[0].map(tanh)),
        Prim::Exp => Ok(inputs[0].map(f32::exp)),
        Prim::Log => Ok(inputs[0].map(f32::ln)),
        Prim::Sqrt => Ok(inputs[0].map(f32::sqrt)),
        Prim::Rsqrt => Ok(inputs[0].map(|x| 1.0 / x.sqrt())),
        Prim::Step => Ok(inputs[0].map(|x| if x > 0.0 { 1.0 } else { 0.0 })),
        Prim::GeluGrad => Ok(inputs[0].map(gelu_grad)),
        Prim::ReduceSum { axes, keepdims } => inputs[0].reduce_sum(axes, *keepdims),
        Prim::ReduceMax { axes, keepdims } => inputs[0].reduce_max(axes, *keepdims),
        Prim::Broadcast { shape } => inputs[0].broadcast_to(shape.clone()),
        Prim::Reshape { shape } => inputs[0].reshape(shape.clone()),
        Prim::Fill { value, shape } => Ok(Tensor::full(shape.clone(), *value)),
        Prim::SliceLast { start, len } => {
            let r = inputs[0].shape().rank().max(1);
            inputs[0].slice_dim(r - 1, *start, *len)
        }
        Prim::PadLast { start, full } => inputs[0].pad_last(*start, *full),
        Prim::SliceFirst { start, len } => inputs[0].slice_dim(0, *start, *len),
        Prim::PadFirst { start, full } => inputs[0].pad_first(*start, *full),
        // Yields are pure identity markers at run time.
        Prim::PipelineYield { .. } => Ok(inputs[0].clone()),
    }
}

/// Evaluates an equation on *owned* operands, writing in place when an
/// operand buffer is uniquely held and aliasing zero-copy where the op
/// permits it. `read_transposed` is [`last_use_table`]'s second table:
/// a `Transpose` output marked there aliases its source, and a matmul
/// reads such an operand as [`Layout::Transposed`]. Numerically
/// bit-identical to [`eval_prim`].
fn eval_prim_owned(
    eqn: &Eqn,
    mut inputs: Vec<Tensor>,
    read_transposed: &[bool],
    stats: &mut EvalStats,
) -> Result<Tensor> {
    let prim = &eqn.prim;
    if inputs.len() != prim.arity() {
        return Err(IrError::ArityMismatch {
            context: prim.name().into(),
            expected: prim.arity(),
            found: inputs.len(),
        });
    }
    macro_rules! unary {
        ($f:expr) => {{
            let (t, reused) = inputs.pop().expect("arity checked").map_into($f);
            if reused {
                stats.reused += 1;
            } else {
                stats.allocated += 1;
            }
            Ok(t)
        }};
    }
    macro_rules! binary {
        ($f:expr) => {{
            let b = inputs.pop().expect("arity checked");
            let a = inputs.pop().expect("arity checked");
            let (t, reused) = a.zip_into(b, $f)?;
            if reused {
                stats.reused += 1;
            } else {
                stats.allocated += 1;
            }
            Ok(t)
        }};
    }
    match prim {
        Prim::Add => binary!(|a, b| a + b),
        Prim::Sub => binary!(|a, b| a - b),
        Prim::Mul => binary!(|a, b| a * b),
        Prim::Div => binary!(|a, b| a / b),
        Prim::Neg => unary!(|x| -x),
        Prim::Scale(c) => {
            let c = *c;
            unary!(move |x| x * c)
        }
        Prim::AddScalar(c) => {
            let c = *c;
            unary!(move |x| x + c)
        }
        Prim::Relu => unary!(|x: f32| x.max(0.0)),
        Prim::Gelu => unary!(gelu),
        Prim::Tanh => unary!(tanh),
        Prim::Exp => unary!(f32::exp),
        Prim::Log => unary!(f32::ln),
        Prim::Sqrt => unary!(f32::sqrt),
        Prim::Rsqrt => unary!(|x: f32| 1.0 / x.sqrt()),
        Prim::Step => unary!(|x| if x > 0.0 { 1.0 } else { 0.0 }),
        Prim::GeluGrad => unary!(gelu_grad),
        // Zero-copy aliases: no buffer traffic at all.
        Prim::Reshape { shape } => {
            stats.reused += 1;
            inputs[0].reshape(shape.clone())
        }
        Prim::PipelineYield { .. } => {
            stats.reused += 1;
            Ok(inputs.pop().expect("arity checked"))
        }
        Prim::Transpose if read_transposed[eqn.output.index()] => {
            stats.reused += 1;
            Ok(inputs.pop().expect("arity checked"))
        }
        Prim::MatMul | Prim::BatchMatMul => {
            stats.allocated += 1;
            let layout = |j: usize| {
                if read_transposed[eqn.inputs[j].index()] {
                    Layout::Transposed
                } else {
                    Layout::Plain
                }
            };
            let (a, b) = (&inputs[0], &inputs[1]);
            match prim {
                Prim::MatMul => a.matmul_as(layout(0), b, layout(1)),
                _ => a.batch_matmul_as(layout(0), b, layout(1)),
            }
        }
        // Layout- and shape-changing ops allocate a fresh output.
        _ => {
            stats.allocated += 1;
            let refs: Vec<&Tensor> = inputs.iter().collect();
            eval_prim(prim, &refs)
        }
    }
}

/// Two per-variable tables from one pass over the graph:
///
/// - the 1-based index of the equation that consumes the variable last;
///   `usize::MAX` for graph outputs (never dropped), 0 for variables
///   that are never consumed;
/// - whether it is a `Transpose` output read in place: every consumer
///   uses it as a `MatMul` or `BatchMatMul` operand, and it is not a
///   graph output. Such an output is never written out — it aliases
///   its source and each consuming matmul reads it transposed. Only the
///   matmul kernels know that layout, hence both conditions.
fn last_use_table(jaxpr: &Jaxpr) -> (Vec<usize>, Vec<bool>) {
    let mut last_use = vec![0usize; jaxpr.num_vars()];
    let mut read_transposed = vec![false; jaxpr.num_vars()];
    for (i, eqn) in jaxpr.eqns().iter().enumerate() {
        let matmul = matches!(eqn.prim, Prim::MatMul | Prim::BatchMatMul);
        for v in &eqn.inputs {
            last_use[v.index()] = i + 1;
            read_transposed[v.index()] &= matmul;
        }
        read_transposed[eqn.output.index()] = matches!(eqn.prim, Prim::Transpose);
    }
    for v in jaxpr.outvars() {
        last_use[v.index()] = usize::MAX;
        read_transposed[v.index()] = false;
    }
    (last_use, read_transposed)
}

/// A per-equation observer for [`eval_with_stats_hooked`]: called after
/// each equation with `(equation_index, primitive_name, start, end)`.
///
/// Used by the runtime's step tracer to record op-level sub-spans.
/// Timestamps are taken only when a hook is installed, so hookless
/// evaluation pays nothing.
pub type EvalHook<'a> = &'a mut dyn FnMut(usize, &'static str, Instant, Instant);

/// Evaluates a graph on concrete inputs, returning outputs and
/// buffer-allocator statistics.
///
/// Intermediates are dropped at their last use and elementwise ops run
/// in place on uniquely-owned buffers; results are bit-identical to the
/// allocate-everything path because only buffer *lifetimes*, never
/// reduction orders, change.
///
/// # Errors
///
/// Returns an arity error when `inputs.len()` differs from the graph's
/// input count, a shape error when an input tensor's shape differs from
/// the declared one, or any primitive evaluation error.
pub fn eval_with_stats(jaxpr: &Jaxpr, inputs: &[Tensor]) -> Result<(Vec<Tensor>, EvalStats)> {
    eval_with_stats_hooked(jaxpr, inputs, None)
}

/// [`eval_with_stats`] with an optional per-equation observer hook.
///
/// The hook only *observes* (indices, primitive names, timestamps); it
/// cannot change which kernels run or in what order, so tracing cannot
/// perturb the bit-compatibility contract.
///
/// # Errors
///
/// See [`eval_with_stats`].
pub fn eval_with_stats_hooked(
    jaxpr: &Jaxpr,
    inputs: &[Tensor],
    mut hook: Option<EvalHook<'_>>,
) -> Result<(Vec<Tensor>, EvalStats)> {
    if inputs.len() != jaxpr.invars().len() {
        return Err(IrError::ArityMismatch {
            context: "eval".into(),
            expected: jaxpr.invars().len(),
            found: inputs.len(),
        });
    }
    let mut stats = EvalStats::default();
    let (last_use, read_transposed) = last_use_table(jaxpr);
    let mut env: Vec<Option<Tensor>> = vec![None; jaxpr.num_vars()];
    for (&v, t) in jaxpr.invars().iter().zip(inputs) {
        if t.shape() != jaxpr.shape(v) {
            return Err(IrError::ShapeMismatch {
                context: format!("eval input {v}"),
                expected: jaxpr.shape(v).clone(),
                found: t.shape().clone(),
            });
        }
        // O(1) handle copy; the caller keeps its reference, so this
        // buffer can never be stolen for in-place writes.
        env[v.index()] = Some(t.clone());
    }
    for (i, eqn) in jaxpr.eqns().iter().enumerate() {
        let idx = i + 1;
        let mut operands: Vec<Tensor> = Vec::with_capacity(eqn.inputs.len());
        for (j, v) in eqn.inputs.iter().enumerate() {
            let vi = v.index();
            // Take (move out of the environment) at the variable's last
            // use — and, within this equation, only at its last
            // occurrence so duplicate operands stay consistent.
            let recurs_later = eqn.inputs[j + 1..].iter().any(|w| w.index() == vi);
            let t = if last_use[vi] == idx && !recurs_later {
                stats.freed += 1;
                env[vi].take()
            } else {
                env[vi].clone()
            };
            operands.push(t.ok_or(IrError::InvalidVar {
                context: "eval".into(),
                var: v.0,
            })?);
        }
        let t0 = hook.as_ref().map(|_| Instant::now());
        let out = eval_prim_owned(eqn, operands, &read_transposed, &mut stats)?;
        if let (Some(h), Some(t0)) = (hook.as_mut(), t0) {
            h(i, eqn.prim.name(), t0, Instant::now());
        }
        let oi = eqn.output.index();
        if last_use[oi] == 0 {
            // Dead output: drop immediately instead of holding it until
            // the end of the run.
            stats.freed += 1;
        } else {
            env[oi] = Some(out);
        }
    }
    let outputs = jaxpr
        .outvars()
        .iter()
        .map(|v| {
            env[v.index()].clone().ok_or(IrError::InvalidVar {
                context: "eval output".into(),
                var: v.0,
            })
        })
        .collect::<Result<_>>()?;
    Ok((outputs, stats))
}

/// Evaluates a graph on concrete inputs, returning its outputs in order.
///
/// # Errors
///
/// See [`eval_with_stats`].
pub fn eval(jaxpr: &Jaxpr, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
    eval_with_stats(jaxpr, inputs).map(|(o, _)| o)
}

fn eval_prim_reference(prim: &Prim, inputs: &[&Tensor]) -> Result<Tensor> {
    if inputs.len() != prim.arity() {
        return Err(IrError::ArityMismatch {
            context: prim.name().into(),
            expected: prim.arity(),
            found: inputs.len(),
        });
    }
    match prim {
        Prim::MatMul => inputs[0].matmul_naive(inputs[1]),
        Prim::BatchMatMul => inputs[0].batch_matmul_naive(inputs[1]),
        Prim::Transpose => inputs[0].transpose_naive(),
        // Pre-optimization clones were deep copies.
        Prim::PipelineYield { .. } => Ok(inputs[0].deep_copy()),
        Prim::Reshape { shape } => Ok(inputs[0].reshape(shape.clone())?.deep_copy()),
        _ => eval_prim(prim, inputs),
    }
}

/// Evaluates a graph with the pre-optimization execution model: inputs
/// are deep-copied on entry, every equation allocates its output, and
/// matmul/transpose run on the naive serial kernels. Numerically
/// bit-identical to [`eval`]: the oracle `tests/kernel_parity.rs`
/// compares it against.
///
/// # Errors
///
/// Same contract as [`eval`].
pub fn eval_reference(jaxpr: &Jaxpr, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
    if inputs.len() != jaxpr.invars().len() {
        return Err(IrError::ArityMismatch {
            context: "eval".into(),
            expected: jaxpr.invars().len(),
            found: inputs.len(),
        });
    }
    let mut env: Vec<Option<Tensor>> = vec![None; jaxpr.num_vars()];
    for (&v, t) in jaxpr.invars().iter().zip(inputs) {
        if t.shape() != jaxpr.shape(v) {
            return Err(IrError::ShapeMismatch {
                context: format!("eval input {v}"),
                expected: jaxpr.shape(v).clone(),
                found: t.shape().clone(),
            });
        }
        env[v.index()] = Some(t.deep_copy());
    }
    for eqn in jaxpr.eqns() {
        let operands: Vec<&Tensor> = eqn
            .inputs
            .iter()
            .map(|v| {
                env[v.index()].as_ref().ok_or(IrError::InvalidVar {
                    context: "eval".into(),
                    var: v.0,
                })
            })
            .collect::<Result<_>>()?;
        let out = eval_prim_reference(&eqn.prim, &operands)?;
        env[eqn.output.index()] = Some(out);
    }
    jaxpr
        .outvars()
        .iter()
        .map(|v| {
            env[v.index()]
                .as_ref()
                .map(Tensor::deep_copy)
                .ok_or(IrError::InvalidVar {
                    context: "eval output".into(),
                    var: v.0,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::rng::{Rng, SeedableRng, StdRng};
    use crate::shape::Shape;

    #[test]
    fn eval_mlp_forward() {
        let mut b = GraphBuilder::new();
        let x = b.input([1, 2]);
        let w = b.input([2, 2]);
        let h = b.emit(Prim::MatMul, &[x, w]).unwrap();
        let y = b.emit(Prim::Relu, &[h]).unwrap();
        let s = b
            .emit(
                Prim::ReduceSum {
                    axes: vec![0, 1],
                    keepdims: false,
                },
                &[y],
            )
            .unwrap();
        let j = b.finish(vec![s]).unwrap();
        let out = eval(
            &j,
            &[
                Tensor::from_vec([1, 2], vec![1.0, -2.0]).unwrap(),
                Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
            ],
        )
        .unwrap();
        // relu([1, -2]) = [1, 0]; sum = 1.
        assert_eq!(out[0].item().unwrap(), 1.0);
    }

    #[test]
    fn eval_checks_input_shapes() {
        let mut b = GraphBuilder::new();
        let x = b.input([2, 2]);
        let j = b.finish(vec![x]).unwrap();
        assert!(eval(&j, &[Tensor::zeros([3, 3])]).is_err());
        assert!(eval(&j, &[]).is_err());
    }

    #[test]
    fn fill_has_no_operands() {
        let p = Prim::Fill {
            value: 2.5,
            shape: Shape::new([2]),
        };
        let t = eval_prim(&p, &[]).unwrap();
        assert_eq!(t.data(), &[2.5, 2.5]);
    }

    #[test]
    fn yield_is_identity() {
        use crate::prim::YieldId;
        let p = Prim::PipelineYield {
            id: YieldId(0),
            backward: false,
        };
        let x = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let y = eval_prim(&p, &[&x]).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn step_matches_relu_derivative() {
        let p = Prim::Step;
        let x = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]).unwrap();
        let y = eval_prim(&p, &[&x]).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 1.0]);
    }

    fn mlp_graph() -> Jaxpr {
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8]);
        let w1 = b.input([8, 8]);
        let w2 = b.input([8, 8]);
        let h = b.emit(Prim::MatMul, &[x, w1]).unwrap();
        let a = b.emit(Prim::Tanh, &[h]).unwrap();
        let h2 = b.emit(Prim::MatMul, &[a, w2]).unwrap();
        let a2 = b.emit(Prim::Gelu, &[h2]).unwrap();
        let s = b
            .emit(
                Prim::ReduceSum {
                    axes: vec![0, 1],
                    keepdims: false,
                },
                &[a2],
            )
            .unwrap();

        b.finish(vec![s]).unwrap()
    }

    fn mlp_inputs() -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            Tensor::randn([4, 8], 1.0, &mut rng),
            Tensor::randn([8, 8], 0.5, &mut rng),
            Tensor::randn([8, 8], 0.5, &mut rng),
        ]
    }

    #[test]
    fn stats_count_inplace_reuse_and_frees() {
        let j = mlp_graph();
        let (_, stats) = eval_with_stats(&j, &mlp_inputs()).unwrap();
        // tanh steals matmul's fresh output; gelu steals the second
        // matmul's output.
        assert_eq!(stats.reused, 2, "{stats:?}");
        // Two matmuls + reduce allocate.
        assert_eq!(stats.allocated, 3, "{stats:?}");
        // Every intermediate (and each input at its last use) is dropped.
        assert!(stats.freed >= 4, "{stats:?}");
    }

    #[test]
    fn inplace_eval_never_mutates_caller_inputs() {
        let j = mlp_graph();
        let inputs = mlp_inputs();
        let snapshot: Vec<Tensor> = inputs.iter().map(Tensor::deep_copy).collect();
        let _ = eval_with_stats(&j, &inputs).unwrap();
        for (a, b) in inputs.iter().zip(&snapshot) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn eval_matches_reference_bitwise() {
        let j = mlp_graph();
        let inputs = mlp_inputs();
        let fast = eval(&j, &inputs).unwrap();
        let slow = eval_reference(&j, &inputs).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn duplicate_operands_in_one_eqn() {
        // y = x * x where the multiply is x's last use: the second
        // occurrence is taken, the first cloned; result must be exact.
        let mut b = GraphBuilder::new();
        let x = b.input([8]);
        let sq = b.emit(Prim::Mul, &[x, x]).unwrap();
        let j = b.finish(vec![sq]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let t = Tensor::randn([8], 1.0, &mut rng);
        let want: Vec<f32> = t.data().iter().map(|&v| v * v).collect();
        let out = eval(&j, std::slice::from_ref(&t)).unwrap();
        assert_eq!(out[0].data(), &want[..]);
        // x itself is untouched.
        let _ = rng.next_u64();
        assert_eq!(t.numel(), 8);
    }

    #[test]
    fn outputs_survive_liveness_drops() {
        // A graph output consumed mid-graph must not be freed.
        let mut b = GraphBuilder::new();
        let x = b.input([4]);
        let y = b.emit(Prim::Scale(2.0), &[x]).unwrap();
        let z = b.emit(Prim::AddScalar(1.0), &[y]).unwrap();
        let j = b.finish(vec![y, z]).unwrap();
        let out = eval(&j, &[Tensor::ones([4])]).unwrap();
        assert_eq!(out[0].data(), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(out[1].data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    /// Evaluates `j` on random inputs, asserts every output equals
    /// `eval_reference` bit for bit, and returns the allocator counters.
    fn eval_bitwise_vs_reference(j: &Jaxpr, seed: u64) -> EvalStats {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Tensor> = j
            .invars()
            .iter()
            .map(|&v| Tensor::randn(j.shape(v).clone(), 1.0, &mut rng))
            .collect();
        let (got, stats) = eval_with_stats(j, &inputs).unwrap();
        let want = eval_reference(j, &inputs).unwrap();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), w.shape(), "output {i}");
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "output {i}");
        }
        stats
    }

    #[test]
    fn transpose_read_by_matmuls_only_is_an_alias() {
        // One transpose, read as the lhs of one matmul and the rhs of
        // another; the shapes cover full AVX tiles and ragged edges.
        let mut b = GraphBuilder::new();
        let x = b.input([16, 70]);
        let w1 = b.input([16, 66]);
        let w2 = b.input([9, 70]);
        let t = b.emit(Prim::Transpose, &[x]).unwrap();
        let z1 = b.emit(Prim::MatMul, &[t, w1]).unwrap();
        let z2 = b.emit(Prim::MatMul, &[w2, t]).unwrap();
        let j = b.finish(vec![z1, z2]).unwrap();
        let stats = eval_bitwise_vs_reference(&j, 1);
        assert_eq!((stats.allocated, stats.reused), (2, 1), "{stats:?}");
    }

    #[test]
    fn transpose_with_a_non_matmul_consumer_is_materialised() {
        let mut b = GraphBuilder::new();
        let x = b.input([12, 12]);
        let w = b.input([12, 5]);
        let y = b.input([12, 12]);
        let t = b.emit(Prim::Transpose, &[x]).unwrap();
        let z = b.emit(Prim::MatMul, &[t, w]).unwrap();
        let s = b.emit(Prim::Add, &[t, y]).unwrap();
        let j = b.finish(vec![z, s]).unwrap();
        let stats = eval_bitwise_vs_reference(&j, 2);
        // transpose and matmul allocate; the add steals the transpose.
        assert_eq!((stats.allocated, stats.reused), (2, 1), "{stats:?}");
    }

    #[test]
    fn transpose_that_is_a_graph_output_is_materialised() {
        let mut b = GraphBuilder::new();
        let x = b.input([10, 7]);
        let w = b.input([10, 3]);
        let t = b.emit(Prim::Transpose, &[x]).unwrap();
        let z = b.emit(Prim::MatMul, &[t, w]).unwrap();
        let j = b.finish(vec![t, z]).unwrap();
        let stats = eval_bitwise_vs_reference(&j, 3);
        assert_eq!((stats.allocated, stats.reused), (2, 0), "{stats:?}");
    }

    #[test]
    fn transpose_of_a_transpose_feeding_a_batched_matmul() {
        // The inner transpose feeds a transpose, so it is written out;
        // the outer one feeds only the matmul and is read in place.
        let mut b = GraphBuilder::new();
        let x = b.input([3, 9, 11]);
        let w = b.input([3, 11, 4]);
        let t1 = b.emit(Prim::Transpose, &[x]).unwrap();
        let t2 = b.emit(Prim::Transpose, &[t1]).unwrap();
        let z = b.emit(Prim::BatchMatMul, &[t2, w]).unwrap();
        let j = b.finish(vec![z]).unwrap();
        let stats = eval_bitwise_vs_reference(&j, 4);
        assert_eq!((stats.allocated, stats.reused), (2, 1), "{stats:?}");
    }

    #[test]
    fn alias_source_is_never_stolen_while_the_alias_is_pending() {
        // `x` is an intermediate whose last use is `neg`, between the
        // transpose that aliases it and the matmul that reads the alias:
        // `neg` must not write over `x` in place.
        let mut b = GraphBuilder::new();
        let x0 = b.input([8, 8]);
        let w = b.input([8, 8]);
        let x = b.emit(Prim::Tanh, &[x0]).unwrap();
        let t = b.emit(Prim::Transpose, &[x]).unwrap();
        let y = b.emit(Prim::Neg, &[x]).unwrap();
        let z = b.emit(Prim::MatMul, &[t, w]).unwrap();
        let j = b.finish(vec![y, z]).unwrap();
        let stats = eval_bitwise_vs_reference(&j, 5);
        // tanh, neg and matmul allocate; only the transpose is reused.
        assert_eq!((stats.allocated, stats.reused), (3, 1), "{stats:?}");
    }

    #[test]
    fn reshape_and_yield_are_zero_copy() {
        use crate::prim::YieldId;
        let mut b = GraphBuilder::new();
        let x = b.input([2, 6]);
        let r = b
            .emit(
                Prim::Reshape {
                    shape: Shape::new([3, 4]),
                },
                &[x],
            )
            .unwrap();
        let y = b
            .emit(
                Prim::PipelineYield {
                    id: YieldId(0),
                    backward: false,
                },
                &[r],
            )
            .unwrap();
        let j = b.finish(vec![y]).unwrap();
        let t = Tensor::ones([2, 6]);
        let (out, stats) = eval_with_stats(&j, std::slice::from_ref(&t)).unwrap();
        assert!(std::ptr::eq(t.data().as_ptr(), out[0].data().as_ptr()));
        assert_eq!(stats.allocated, 0);
        assert_eq!(stats.reused, 2);
    }
}
