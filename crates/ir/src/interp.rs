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
//! are recycled.
//!
//! [`eval_reference`] preserves the pre-optimization execution model
//! (deep-copied inputs, naive serial kernels, copying yields) as the
//! oracle the parity tests compare [`eval`] against bit for bit. It is
//! only ever called directly: no switch routes [`eval`] through it.

use std::collections::HashMap;
use std::time::Instant;

use crate::error::{IrError, Result};
use crate::graph::Jaxpr;
use crate::kernels;
use crate::prim::Prim;
use crate::shape::Shape;
use crate::tensor::{gelu, gelu_grad, Tensor};

/// Buffer-allocator counters for one [`eval_with_stats`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Output buffers freshly allocated.
    pub allocated: u64,
    /// Outputs that reused an operand buffer in place or aliased it
    /// zero-copy (reshape, pipeline yield).
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
        Prim::Tanh => Ok(inputs[0].map(f32::tanh)),
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
        Prim::PadLast { start, full, value } => inputs[0].pad_last(*start, *full, *value),
        Prim::SliceFirst { start, len } => inputs[0].slice_dim(0, *start, *len),
        Prim::PadFirst { start, full, value } => inputs[0].pad_first(*start, *full, *value),
        // Yields are pure identity markers at run time.
        Prim::PipelineYield { .. } => Ok(inputs[0].clone()),
    }
}

/// Evaluates a primitive on *owned* operands, writing in place when an
/// operand buffer is uniquely held and aliasing zero-copy where the op
/// permits it. Numerically bit-identical to [`eval_prim`].
fn eval_prim_owned(prim: &Prim, mut inputs: Vec<Tensor>, stats: &mut EvalStats) -> Result<Tensor> {
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
        Prim::Tanh => unary!(f32::tanh),
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
        // Layout- and shape-changing ops allocate a fresh output.
        _ => {
            stats.allocated += 1;
            let refs: Vec<&Tensor> = inputs.iter().collect();
            eval_prim(prim, &refs)
        }
    }
}

/// For each variable, the 1-based index of the equation that consumes it
/// last; `usize::MAX` for graph outputs (never dropped), 0 for variables
/// that are never consumed.
fn last_use_table(jaxpr: &Jaxpr) -> Vec<usize> {
    let mut last_use = vec![0usize; jaxpr.num_vars()];
    for (i, eqn) in jaxpr.eqns().iter().enumerate() {
        for v in &eqn.inputs {
            last_use[v.index()] = i + 1;
        }
    }
    for v in jaxpr.outvars() {
        last_use[v.index()] = usize::MAX;
    }
    last_use
}

/// A per-equation observer for [`eval_with_stats_hooked`]: called after
/// each equation with `(equation_index, primitive_name, start, end)`.
///
/// Used by the runtime's step tracer to record op-level sub-spans.
/// Timestamps are taken only when a hook is installed, so hookless
/// evaluation pays nothing.
pub type EvalHook<'a> = &'a mut dyn FnMut(usize, &'static str, Instant, Instant);

/// A consumer of completed output-row panels for
/// [`eval_with_stats_observed`]: selected graph outputs are *streamed*
/// to the observer panel-by-panel while their producing matmul is still
/// multiplying later rows.
///
/// This is the compute side of tensor-parallel compute/communication
/// overlap — the runtime hands finished rows to the collective
/// rendezvous early. Streaming never changes *what* is computed: each
/// published panel holds exactly the bytes the final output tensor
/// holds at those rows (see [`kernels::matmul_streamed`]), so
/// observation cannot perturb the bit-compatibility contract.
pub trait PanelObserver {
    /// Whether graph output `out_idx` should be streamed if its
    /// producer supports it. Consulted once per output during planning.
    fn wants(&mut self, out_idx: usize) -> bool;
    /// Announces the full shape of output `out_idx` before its first
    /// panel publishes.
    fn begin(&mut self, out_idx: usize, shape: &Shape);
    /// Rows `row0 .. row0 + data.len()/row_len` of output `out_idx` are
    /// final; `data` holds them row-major. Panels arrive in ascending
    /// row order and exactly cover the output.
    fn publish(&mut self, out_idx: usize, row0: usize, row_len: usize, data: &[f32]);
}

/// How one matmul equation streams its panels to the observer.
enum StreamPlan {
    /// The graph output *is* the matmul result: publish raw row panels.
    Direct { out_idx: usize },
    /// The graph output is `PadLast(matmul)` and the matmul result has
    /// no other consumer (the sharded backward weight-gradient shape):
    /// pad each completed panel into the full-width buffer and publish
    /// padded rows, then reuse the assembled padded tensor when the pad
    /// equation executes.
    FusedPad {
        out_idx: usize,
        pad_eqn: usize,
        start: usize,
        full: usize,
        value: f32,
    },
}

/// Matmul equations eligible for panel streaming: for each graph output
/// the observer wants, its defining equation if that is a `MatMul` (or
/// a `PadLast` over a single-use `MatMul`, which streams fused).
fn stream_plans(jaxpr: &Jaxpr, obs: &mut dyn PanelObserver) -> HashMap<usize, StreamPlan> {
    let eqns = jaxpr.eqns();
    let mut def_eqn: Vec<Option<usize>> = vec![None; jaxpr.num_vars()];
    let mut use_count = vec![0usize; jaxpr.num_vars()];
    for (i, e) in eqns.iter().enumerate() {
        def_eqn[e.output.index()] = Some(i);
        for v in &e.inputs {
            use_count[v.index()] += 1;
        }
    }
    let mut out_uses = vec![0usize; jaxpr.num_vars()];
    for v in jaxpr.outvars() {
        out_uses[v.index()] += 1;
    }
    let mut plans = HashMap::new();
    for (oi, &v) in jaxpr.outvars().iter().enumerate() {
        if !obs.wants(oi) {
            continue;
        }
        let Some(d) = def_eqn[v.index()] else {
            continue;
        };
        match &eqns[d].prim {
            Prim::MatMul => {
                plans.entry(d).or_insert(StreamPlan::Direct { out_idx: oi });
            }
            Prim::PadLast { start, full, value } => {
                let u = eqns[d].inputs[0];
                let Some(mm) = def_eqn[u.index()] else {
                    continue;
                };
                // Fuse only when the pad is the matmul's sole consumer
                // and the raw result is not itself a graph output, and
                // the pad parameters are valid for the matmul's width
                // (invalid ones fall through to pad_last's own error).
                if matches!(eqns[mm].prim, Prim::MatMul)
                    && use_count[u.index()] == 1
                    && out_uses[u.index()] == 0
                    && jaxpr.shape(u).rank() == 2
                    && start + jaxpr.shape(u).dim(1) <= *full
                {
                    plans.entry(mm).or_insert(StreamPlan::FusedPad {
                        out_idx: oi,
                        pad_eqn: d,
                        start: *start,
                        full: *full,
                        value: *value,
                    });
                }
            }
            _ => {}
        }
    }
    plans
}

/// Executes one planned matmul equation, streaming completed panels to
/// `obs`. Returns the matmul result tensor; for [`StreamPlan::FusedPad`]
/// additionally deposits the assembled padded tensor in `prepared`
/// under the pad equation's index.
fn stream_matmul(
    plan: &StreamPlan,
    operands: &[Tensor],
    obs: &mut dyn PanelObserver,
    prepared: &mut HashMap<usize, Tensor>,
) -> Result<Tensor> {
    let (a, b) = (&operands[0], &operands[1]);
    let out_shape = a.shape().matmul(b.shape())?;
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    match plan {
        StreamPlan::Direct { out_idx } => {
            obs.begin(*out_idx, &out_shape);
            let data = kernels::matmul_streamed(a.data(), b.data(), m, k, n, &mut |row0, panel| {
                obs.publish(*out_idx, row0, n, panel);
            });
            Tensor::from_vec(out_shape, data)
        }
        StreamPlan::FusedPad {
            out_idx,
            pad_eqn,
            start,
            full,
            value,
        } => {
            // Build the padded output exactly as `Tensor::pad_last`
            // does — a `value`-filled buffer with each row's block
            // copied in at `start` — but row panel by row panel, so
            // padded rows publish while the multiply continues.
            let pad_shape = Shape::new([m, *full]);
            obs.begin(*out_idx, &pad_shape);
            let mut padded = vec![*value; m * *full];
            let data = kernels::matmul_streamed(a.data(), b.data(), m, k, n, &mut |row0, panel| {
                let rows = panel.len().checked_div(n).unwrap_or(0);
                for r in 0..rows {
                    let dst = (row0 + r) * *full + *start;
                    padded[dst..dst + n].copy_from_slice(&panel[r * n..(r + 1) * n]);
                }
                obs.publish(
                    *out_idx,
                    row0,
                    *full,
                    &padded[row0 * *full..(row0 + rows) * *full],
                );
            });
            prepared.insert(*pad_eqn, Tensor::from_vec(pad_shape, padded)?);
            Tensor::from_vec(out_shape, data)
        }
    }
}

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
    hook: Option<EvalHook<'_>>,
) -> Result<(Vec<Tensor>, EvalStats)> {
    eval_with_stats_observed(jaxpr, inputs, hook, None)
}

/// [`eval_with_stats_hooked`] with an optional [`PanelObserver`]: graph
/// outputs the observer wants, whose producer is a streamable matmul
/// (see `stream_plans`), publish completed row panels to the observer
/// *during* the multiply. Outputs, statistics, and buffer lifetimes are
/// identical to the unobserved path.
///
/// # Errors
///
/// See [`eval_with_stats`].
pub fn eval_with_stats_observed(
    jaxpr: &Jaxpr,
    inputs: &[Tensor],
    mut hook: Option<EvalHook<'_>>,
    mut observer: Option<&mut dyn PanelObserver>,
) -> Result<(Vec<Tensor>, EvalStats)> {
    if inputs.len() != jaxpr.invars().len() {
        return Err(IrError::ArityMismatch {
            context: "eval".into(),
            expected: jaxpr.invars().len(),
            found: inputs.len(),
        });
    }
    let mut stats = EvalStats::default();
    let last_use = last_use_table(jaxpr);
    let plans = match observer.as_deref_mut() {
        Some(obs) => stream_plans(jaxpr, obs),
        None => HashMap::new(),
    };
    let mut prepared: HashMap<usize, Tensor> = HashMap::new();
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
        let out = if let Some(plan) = plans.get(&i) {
            // Streamed matmul: same kernel order and output bytes as
            // eval_prim_owned's MatMul arm, plus panel publication.
            stats.allocated += 1;
            stream_matmul(
                plan,
                &operands,
                observer.as_deref_mut().expect("plans imply observer"),
                &mut prepared,
            )?
        } else if let Some(t) = prepared.remove(&i) {
            // Pad equation fused into its producing matmul: the padded
            // tensor was assembled (bit-identically) during streaming;
            // operand take/free bookkeeping above already ran.
            stats.allocated += 1;
            t
        } else {
            eval_prim_owned(&eqn.prim, operands, &mut stats)?
        };
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

    /// Records every panel a [`PanelObserver`] sees, reassembling each
    /// streamed output for comparison against the unobserved run.
    struct Recorder {
        wants: Vec<usize>,
        begun: Vec<(usize, Shape)>,
        bufs: std::collections::HashMap<usize, Vec<f32>>,
    }

    impl PanelObserver for Recorder {
        fn wants(&mut self, out_idx: usize) -> bool {
            self.wants.contains(&out_idx)
        }
        fn begin(&mut self, out_idx: usize, shape: &Shape) {
            self.begun.push((out_idx, shape.clone()));
            self.bufs.insert(out_idx, vec![f32::NAN; shape.numel()]);
        }
        fn publish(&mut self, out_idx: usize, row0: usize, row_len: usize, data: &[f32]) {
            let buf = self.bufs.get_mut(&out_idx).unwrap();
            buf[row0 * row_len..row0 * row_len + data.len()].copy_from_slice(data);
        }
    }

    #[test]
    fn observed_eval_streams_matmul_outputs_bitwise() {
        // y1 = x @ w (direct matmul output), y2 = pad_last(a @ w2)
        // with the matmul consumed only by the pad (the fused case).
        let mut b = GraphBuilder::new();
        let x = b.input([70, 8]);
        let w = b.input([8, 4]);
        let w2 = b.input([4, 6]);
        let y1 = b.emit(Prim::MatMul, &[x, w]).unwrap();
        let a = b.emit(Prim::Tanh, &[y1]).unwrap();
        let h = b.emit(Prim::MatMul, &[a, w2]).unwrap();
        let y2 = b
            .emit(
                Prim::PadLast {
                    start: 6,
                    full: 12,
                    value: -0.0,
                },
                &[h],
            )
            .unwrap();
        let j = b.finish(vec![y1, y2]).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let inputs = vec![
            Tensor::randn([70, 8], 1.0, &mut rng),
            Tensor::randn([8, 4], 0.5, &mut rng),
            Tensor::randn([4, 6], 0.5, &mut rng),
        ];
        let (want, want_stats) = eval_with_stats(&j, &inputs).unwrap();
        let mut rec = Recorder {
            wants: vec![0, 1],
            begun: Vec::new(),
            bufs: Default::default(),
        };
        let (got, got_stats) = eval_with_stats_observed(&j, &inputs, None, Some(&mut rec)).unwrap();
        assert_eq!(got_stats, want_stats, "observation changed allocator stats");
        for (o, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.data(), b.data(), "output {o} not bit-identical");
        }
        // Both outputs streamed: the direct matmul and the fused pad.
        assert_eq!(rec.begun.len(), 2, "{:?}", rec.begun);
        for (oi, shape) in &rec.begun {
            assert_eq!(shape, want[*oi].shape());
            assert_eq!(rec.bufs[oi], want[*oi].data(), "streamed output {oi}");
        }
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
