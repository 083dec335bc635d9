//! Reverse-mode automatic differentiation on [`Jaxpr`] graphs.
//!
//! Two entry points:
//!
//! * [`linearize`] — splits a graph into an augmented *forward* graph (the
//!   original outputs plus the residual intermediates the backward pass
//!   needs) and a *backward* graph consuming residuals and output
//!   cotangents. This split is exactly what pipeline parallelism needs:
//!   the forward task of a stage saves residuals, and the backward task of
//!   the same stage (scheduled on the same actor, paper §3.3) consumes
//!   them later.
//! * [`value_and_grad`] — a single fused graph computing outputs and
//!   gradients, used as the single-device *reference* that the MPMD
//!   runtime is validated against.

use std::collections::HashMap;

use crate::error::{IrError, Result};
use crate::graph::{GraphBuilder, Jaxpr, VarId};
use crate::prim::Prim;
use crate::shape::Shape;

/// Which primal values a primitive's VJP rule needs at backward time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Needs {
    /// Operand indices required (as a bitmask over arity ≤ 2).
    in0: bool,
    in1: bool,
    /// Whether the primal output is required.
    out: bool,
}

const NONE: Needs = Needs {
    in0: false,
    in1: false,
    out: false,
};

fn vjp_needs(prim: &Prim) -> Needs {
    match prim {
        Prim::Mul | Prim::Div | Prim::MatMul | Prim::BatchMatMul => Needs {
            in0: true,
            in1: true,
            out: false,
        },
        Prim::Relu | Prim::Gelu | Prim::Log => Needs {
            in0: true,
            in1: false,
            out: false,
        },
        Prim::Tanh | Prim::Exp | Prim::Sqrt | Prim::Rsqrt => Needs {
            in0: false,
            in1: false,
            out: true,
        },
        _ => NONE,
    }
}

/// The result of [`linearize`].
#[derive(Debug, Clone)]
pub struct Linearized {
    /// Forward graph. Inputs are the original inputs; outputs are the
    /// original outputs followed by `n_residuals` residual values.
    pub fwd: Jaxpr,
    /// Backward graph. Inputs are the `n_residuals` residuals followed by
    /// one cotangent per original output; outputs are the cotangents of
    /// the original inputs, in input order.
    pub bwd: Jaxpr,
    /// Number of primal outputs of the original graph.
    pub n_primal_outputs: usize,
    /// Number of residual values passed from forward to backward.
    pub n_residuals: usize,
}

/// Linearizes a graph into forward + backward halves.
///
/// # Errors
///
/// Returns [`IrError::NonDifferentiable`] if the graph contains a
/// gradient-helper primitive ([`Prim::Step`], [`Prim::GeluGrad`]) on a
/// path that requires differentiation, or propagates graph-construction
/// errors.
pub fn linearize(jaxpr: &Jaxpr) -> Result<Linearized> {
    // 1. Collect residuals: every primal value some VJP rule needs.
    let mut residuals: Vec<VarId> = Vec::new();
    let mut seen: HashMap<VarId, usize> = HashMap::new();
    let record = |v: VarId, residuals: &mut Vec<VarId>, seen: &mut HashMap<VarId, usize>| {
        seen.entry(v).or_insert_with(|| {
            residuals.push(v);
            residuals.len() - 1
        });
    };
    for eqn in jaxpr.eqns() {
        let needs = vjp_needs(&eqn.prim);
        if needs.in0 {
            record(eqn.inputs[0], &mut residuals, &mut seen);
        }
        if needs.in1 {
            record(eqn.inputs[1], &mut residuals, &mut seen);
        }
        if needs.out {
            record(eqn.output, &mut residuals, &mut seen);
        }
    }

    // 2. Forward graph: original outputs + residuals.
    let mut out = jaxpr.outvars().to_vec();
    out.extend(residuals.iter().copied());
    let fwd = jaxpr.with_outputs(out)?;

    // 3. Backward graph.
    let mut b = GraphBuilder::new();
    // Residual inputs, in residual order.
    let mut primal: HashMap<VarId, VarId> = HashMap::new();
    for &r in &residuals {
        let v = b.input(jaxpr.shape(r).clone());
        primal.insert(r, v);
    }
    // One cotangent input per primal output.
    let mut ct: HashMap<VarId, VarId> = HashMap::new();
    for &o in jaxpr.outvars() {
        let g = b.input(jaxpr.shape(o).clone());
        accumulate(&mut b, &mut ct, o, g)?;
    }
    // Reverse sweep.
    for eqn in jaxpr.eqns().iter().rev() {
        let Some(&g) = ct.get(&eqn.output) else {
            continue;
        };
        emit_vjp(
            &mut b,
            jaxpr,
            eqn.prim.clone(),
            &eqn.inputs,
            eqn.output,
            g,
            &primal,
            &mut ct,
        )?;
    }
    // Input cotangents (zero-filled when the input does not influence any
    // output).
    let mut outs = Vec::with_capacity(jaxpr.invars().len());
    for &iv in jaxpr.invars() {
        let v = match ct.get(&iv) {
            Some(&v) => v,
            None => b.emit(
                Prim::Fill {
                    value: 0.0,
                    shape: jaxpr.shape(iv).clone(),
                },
                &[],
            )?,
        };
        outs.push(v);
    }
    let bwd = b.finish(outs)?;

    Ok(Linearized {
        fwd,
        bwd,
        n_primal_outputs: jaxpr.outvars().len(),
        n_residuals: residuals.len(),
    })
}

fn accumulate(
    b: &mut GraphBuilder,
    ct: &mut HashMap<VarId, VarId>,
    primal_var: VarId,
    new: VarId,
) -> Result<()> {
    match ct.get(&primal_var) {
        Some(&existing) => {
            let sum = b.emit(Prim::Add, &[existing, new])?;
            ct.insert(primal_var, sum);
        }
        None => {
            ct.insert(primal_var, new);
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_vjp(
    b: &mut GraphBuilder,
    jaxpr: &Jaxpr,
    prim: Prim,
    inputs: &[VarId],
    output: VarId,
    g: VarId,
    primal: &HashMap<VarId, VarId>,
    ct: &mut HashMap<VarId, VarId>,
) -> Result<()> {
    // Fetches the backward-graph variable holding a saved primal value.
    let res = |v: VarId| -> Result<VarId> {
        primal.get(&v).copied().ok_or(IrError::InvalidVar {
            context: "missing residual".into(),
            var: v.0,
        })
    };
    match prim {
        Prim::Add => {
            accumulate(b, ct, inputs[0], g)?;
            accumulate(b, ct, inputs[1], g)?;
        }
        Prim::Sub => {
            accumulate(b, ct, inputs[0], g)?;
            let ng = b.emit(Prim::Neg, &[g])?;
            accumulate(b, ct, inputs[1], ng)?;
        }
        Prim::Mul => {
            let (a, c) = (res(inputs[0])?, res(inputs[1])?);
            let da = b.emit(Prim::Mul, &[g, c])?;
            let dc = b.emit(Prim::Mul, &[g, a])?;
            accumulate(b, ct, inputs[0], da)?;
            accumulate(b, ct, inputs[1], dc)?;
        }
        Prim::Div => {
            let (a, c) = (res(inputs[0])?, res(inputs[1])?);
            let da = b.emit(Prim::Div, &[g, c])?;
            let ga = b.emit(Prim::Mul, &[g, a])?;
            let cc = b.emit(Prim::Mul, &[c, c])?;
            let q = b.emit(Prim::Div, &[ga, cc])?;
            let dc = b.emit(Prim::Neg, &[q])?;
            accumulate(b, ct, inputs[0], da)?;
            accumulate(b, ct, inputs[1], dc)?;
        }
        Prim::Neg => {
            let da = b.emit(Prim::Neg, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Scale(c) => {
            let da = b.emit(Prim::Scale(c), &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::AddScalar(_) => {
            accumulate(b, ct, inputs[0], g)?;
        }
        Prim::MatMul => {
            let (a, w) = (res(inputs[0])?, res(inputs[1])?);
            let wt = b.emit(Prim::Transpose, &[w])?;
            let da = b.emit(Prim::MatMul, &[g, wt])?;
            let at = b.emit(Prim::Transpose, &[a])?;
            let dw = b.emit(Prim::MatMul, &[at, g])?;
            accumulate(b, ct, inputs[0], da)?;
            accumulate(b, ct, inputs[1], dw)?;
        }
        Prim::BatchMatMul => {
            let (a, w) = (res(inputs[0])?, res(inputs[1])?);
            let wt = b.emit(Prim::Transpose, &[w])?;
            let da = b.emit(Prim::BatchMatMul, &[g, wt])?;
            let at = b.emit(Prim::Transpose, &[a])?;
            let dw = b.emit(Prim::BatchMatMul, &[at, g])?;
            accumulate(b, ct, inputs[0], da)?;
            accumulate(b, ct, inputs[1], dw)?;
        }
        Prim::Transpose => {
            let da = b.emit(Prim::Transpose, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Permute { ref perm } => {
            // The VJP of a permutation is the inverse permutation.
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            let da = b.emit(Prim::Permute { perm: inverse }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Relu => {
            let x = res(inputs[0])?;
            let mask = b.emit(Prim::Step, &[x])?;
            let da = b.emit(Prim::Mul, &[g, mask])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Gelu => {
            let x = res(inputs[0])?;
            let d = b.emit(Prim::GeluGrad, &[x])?;
            let da = b.emit(Prim::Mul, &[g, d])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Tanh => {
            let y = res(output)?;
            let yy = b.emit(Prim::Mul, &[y, y])?;
            let n = b.emit(Prim::Neg, &[yy])?;
            let one_minus = b.emit(Prim::AddScalar(1.0), &[n])?;
            let da = b.emit(Prim::Mul, &[g, one_minus])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Exp => {
            let y = res(output)?;
            let da = b.emit(Prim::Mul, &[g, y])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Log => {
            let x = res(inputs[0])?;
            let da = b.emit(Prim::Div, &[g, x])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Sqrt => {
            let y = res(output)?;
            let gs = b.emit(Prim::Scale(0.5), &[g])?;
            let da = b.emit(Prim::Div, &[gs, y])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Rsqrt => {
            // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/2 y^3.
            let y = res(output)?;
            let y2 = b.emit(Prim::Mul, &[y, y])?;
            let y3 = b.emit(Prim::Mul, &[y2, y])?;
            let gy = b.emit(Prim::Mul, &[g, y3])?;
            let da = b.emit(Prim::Scale(-0.5), &[gy])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::ReduceSum { ref axes, keepdims } => {
            let in_shape = jaxpr.shape(inputs[0]).clone();
            let gk = if keepdims {
                g
            } else {
                let kept = in_shape.reduced(axes, true)?;
                b.emit(Prim::Reshape { shape: kept }, &[g])?
            };
            let da = b.emit(Prim::Broadcast { shape: in_shape }, &[gk])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        // Stop-gradient: the max-shift in stable softmax contributes no
        // gradient (the standard treatment).
        Prim::ReduceMax { .. } => {}
        Prim::Broadcast { ref shape } => {
            let in_shape = jaxpr.shape(inputs[0]).clone();
            let axes = in_shape.broadcast_axes(shape)?;
            let summed = b.emit(
                Prim::ReduceSum {
                    axes,
                    keepdims: true,
                },
                &[g],
            )?;
            let da = b.emit(Prim::Reshape { shape: in_shape }, &[summed])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Reshape { .. } => {
            let in_shape = jaxpr.shape(inputs[0]).clone();
            let da = b.emit(Prim::Reshape { shape: in_shape }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Fill { .. } => {}
        Prim::SliceLast { start, .. } => {
            // Scatter the block's cotangent back into a zero-filled
            // full-width tensor.
            let in_shape = jaxpr.shape(inputs[0]);
            let full = in_shape.dim(in_shape.rank() - 1);
            let da = b.emit(Prim::PadLast { start, full }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::PadLast { start, .. } => {
            let in_shape = jaxpr.shape(inputs[0]);
            let len = in_shape.dim(in_shape.rank() - 1);
            let da = b.emit(Prim::SliceLast { start, len }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::SliceFirst { start, .. } => {
            let in_shape = jaxpr.shape(inputs[0]);
            let full = in_shape.dim(0);
            let da = b.emit(Prim::PadFirst { start, full }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::PadFirst { start, .. } => {
            let in_shape = jaxpr.shape(inputs[0]);
            let len = in_shape.dim(0);
            let da = b.emit(Prim::SliceFirst { start, len }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::PipelineYield { id, .. } => {
            // The backward of a stage boundary is a stage boundary of the
            // reverse pass (paper §3: autodiff produces the backward
            // stages).
            let da = b.emit(Prim::PipelineYield { id, backward: true }, &[g])?;
            accumulate(b, ct, inputs[0], da)?;
        }
        Prim::Step | Prim::GeluGrad => {
            return Err(IrError::NonDifferentiable {
                prim: prim.name().into(),
            });
        }
    }
    Ok(())
}

/// Builds a graph computing `(outputs..., grads of the `wrt` inputs...)`.
///
/// The first output of `jaxpr` must be a scalar; it is the value
/// differentiated (cotangent seed 1.0). Cotangents of any further outputs
/// are seeded with zeros, so they flow through unchanged as auxiliary
/// outputs — the `(loss, aux)` convention of `jax.value_and_grad`.
///
/// # Errors
///
/// Returns [`IrError::RankMismatch`] if output 0 is not scalar,
/// [`IrError::Invalid`] for an out-of-range `wrt` index, or any
/// linearization error.
pub fn value_and_grad(jaxpr: &Jaxpr, wrt: &[usize]) -> Result<Jaxpr> {
    let out_shapes = jaxpr.out_shapes();
    if out_shapes.is_empty() || !out_shapes[0].is_scalar() {
        return Err(IrError::RankMismatch {
            context: "value_and_grad output 0".into(),
            expected: 0,
            found: out_shapes.first().map_or(0, Shape::rank),
        });
    }
    for &w in wrt {
        if w >= jaxpr.invars().len() {
            return Err(IrError::Invalid(format!(
                "wrt index {w} out of range for {} inputs",
                jaxpr.invars().len()
            )));
        }
    }
    let lin = linearize(jaxpr)?;
    let mut b = GraphBuilder::new();
    let args: Vec<VarId> = jaxpr
        .invars()
        .iter()
        .map(|&v| b.input(jaxpr.shape(v).clone()))
        .collect();
    let fwd_outs = b.inline(&lin.fwd, &args)?;
    let (primal_outs, res_outs) = fwd_outs.split_at(lin.n_primal_outputs);

    let mut bwd_args: Vec<VarId> = res_outs.to_vec();
    for (i, shape) in out_shapes.iter().enumerate() {
        let seed = if i == 0 { 1.0 } else { 0.0 };
        let s = b.emit(
            Prim::Fill {
                value: seed,
                shape: shape.clone(),
            },
            &[],
        )?;
        bwd_args.push(s);
    }
    let in_cts = b.inline(&lin.bwd, &bwd_args)?;

    let mut outs = primal_outs.to_vec();
    outs.extend(wrt.iter().map(|&w| in_cts[w]));
    let mut combined = b.finish(outs)?;
    combined.dce();
    Ok(combined)
}

/// Gradient with respect to *all* inputs: `(outputs..., grads...)`.
///
/// # Errors
///
/// Same as [`value_and_grad`].
pub fn grad(jaxpr: &Jaxpr) -> Result<Jaxpr> {
    let wrt: Vec<usize> = (0..jaxpr.invars().len()).collect();
    value_and_grad(jaxpr, &wrt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::eval;
    use crate::tensor::Tensor;
    use crate::trace::TraceCtx;

    /// Central finite differences of `f: R^n -> R` at `inputs[idx]`.
    fn finite_diff(jaxpr: &Jaxpr, inputs: &[Tensor], idx: usize) -> Tensor {
        let h = 1e-3f32;
        let base = inputs.to_vec();
        let n = base[idx].numel();
        let mut out = vec![0.0f32; n];
        for i in 0..n {
            let mut plus = base.clone();
            let mut pd = plus[idx].data().to_vec();
            pd[i] += h;
            plus[idx] = Tensor::from_vec(plus[idx].shape().clone(), pd).unwrap();
            let mut minus = base.clone();
            let mut md = minus[idx].data().to_vec();
            md[i] -= h;
            minus[idx] = Tensor::from_vec(minus[idx].shape().clone(), md).unwrap();
            let fp = eval(jaxpr, &plus).unwrap()[0].item().unwrap();
            let fm = eval(jaxpr, &minus).unwrap()[0].item().unwrap();
            out[i] = (fp - fm) / (2.0 * h);
        }
        Tensor::from_vec(base[idx].shape().clone(), out).unwrap()
    }

    fn check_grads(jaxpr: &Jaxpr, inputs: &[Tensor], tol: f32) {
        let g = grad(jaxpr).unwrap();
        let outs = eval(&g, inputs).unwrap();
        let n_primal = jaxpr.outvars().len();
        for (i, _) in inputs.iter().enumerate() {
            let analytic = &outs[n_primal + i];
            let numeric = finite_diff(jaxpr, inputs, i);
            assert!(
                analytic.allclose(&numeric, tol),
                "grad {i} mismatch: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_of_square_sum() {
        // f(x) = sum(x*x); df/dx = 2x.
        let ctx = TraceCtx::new();
        let x = ctx.input([3]);
        let y = x.mul(&x).unwrap().sum();
        let j = ctx.finish(&[y]).unwrap();
        let g = grad(&j).unwrap();
        let out = eval(&g, &[Tensor::from_vec([3], vec![1., 2., 3.]).unwrap()]).unwrap();
        assert_eq!(out[0].item().unwrap(), 14.0);
        assert_eq!(out[1].data(), &[2., 4., 6.]);
    }

    #[test]
    fn grad_of_matmul_mlp() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 3]);
        let w1 = ctx.input([3, 4]);
        let w2 = ctx.input([4, 1]);
        let h = x.matmul(&w1).unwrap().tanh();
        let y = h.matmul(&w2).unwrap().sum();
        let j = ctx.finish(&[y]).unwrap();
        let mut rng = crate::rng::StdRng::seed_from_u64(7);
        use crate::rng::SeedableRng;
        let inputs = vec![
            Tensor::randn([2, 3], 0.5, &mut rng),
            Tensor::randn([3, 4], 0.5, &mut rng),
            Tensor::randn([4, 1], 0.5, &mut rng),
        ];
        check_grads(&j, &inputs, 2e-2);
    }

    #[test]
    fn grad_through_broadcast_bias() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 3]);
        let b = ctx.input([3]);
        let y = x.add(&b.broadcast_to([2, 3]).unwrap()).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let j = ctx.finish(&[loss]).unwrap();
        use crate::rng::SeedableRng;
        let mut rng = crate::rng::StdRng::seed_from_u64(8);
        let inputs = vec![
            Tensor::randn([2, 3], 1.0, &mut rng),
            Tensor::randn([3], 1.0, &mut rng),
        ];
        check_grads(&j, &inputs, 2e-2);
    }

    #[test]
    fn grad_of_softmax_cross_entropy() {
        let ctx = TraceCtx::new();
        let logits = ctx.input([2, 4]);
        let onehot = ctx.input([2, 4]);
        let ls = logits.log_softmax(1).unwrap();
        let loss = onehot.mul(&ls).unwrap().sum().neg().scale(0.5);
        let j = ctx.finish(&[loss]).unwrap();
        let logits_t =
            Tensor::from_vec([2, 4], vec![0.1, 2.0, -1.0, 0.3, 1.2, 0.0, 0.4, -0.7]).unwrap();
        let onehot_t = Tensor::from_vec([2, 4], vec![0., 1., 0., 0., 0., 0., 1., 0.]).unwrap();
        let g = value_and_grad(&j, &[0]).unwrap();
        let outs = eval(&g, &[logits_t.clone(), onehot_t.clone()]).unwrap();
        let numeric = finite_diff(&j, &[logits_t, onehot_t], 0);
        assert!(
            outs[1].allclose(&numeric, 2e-2),
            "{} vs {}",
            outs[1],
            numeric
        );
    }

    #[test]
    fn grad_through_layer_norm() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 4]);
        let gm = ctx.input([4]);
        let bt = ctx.input([4]);
        let y = x.layer_norm(&gm, &bt, 1e-5).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let j = ctx.finish(&[loss]).unwrap();
        use crate::rng::SeedableRng;
        let mut rng = crate::rng::StdRng::seed_from_u64(9);
        let inputs = vec![
            Tensor::randn([2, 4], 1.0, &mut rng),
            Tensor::randn([4], 0.3, &mut rng).map(|v| v + 1.0),
            Tensor::randn([4], 0.3, &mut rng),
        ];
        check_grads(&j, &inputs, 3e-2);
    }

    #[test]
    fn grad_with_aux_output() {
        // Second output is auxiliary; gradient only flows from output 0.
        let ctx = TraceCtx::new();
        let x = ctx.input([2]);
        let loss = x.mul(&x).unwrap().sum();
        let aux = x.scale(3.0);
        let j = ctx.finish(&[loss, aux]).unwrap();
        let g = grad(&j).unwrap();
        let out = eval(&g, &[Tensor::from_vec([2], vec![1., 2.]).unwrap()]).unwrap();
        assert_eq!(out.len(), 3); // loss, aux, grad
        assert_eq!(out[1].data(), &[3., 6.]);
        assert_eq!(out[2].data(), &[2., 4.]);
    }

    #[test]
    fn unused_input_gets_zero_grad() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2]);
        let unused = ctx.input([3]);
        let _ = &unused;
        let loss = x.sum();
        let j = ctx.finish(&[loss]).unwrap();
        let g = grad(&j).unwrap();
        let out = eval(&g, &[Tensor::ones([2]), Tensor::ones([3])]).unwrap();
        assert_eq!(out[2].data(), &[0., 0., 0.]);
    }

    #[test]
    fn value_and_grad_requires_scalar_loss() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2]);
        let y = x.scale(2.0);
        let j = ctx.finish(&[y]).unwrap();
        assert!(value_and_grad(&j, &[0]).is_err());
    }

    #[test]
    fn yield_markers_survive_differentiation() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 2]);
        let w = ctx.input([2, 2]);
        let h = x.matmul(&w).unwrap();
        let h = ctx.pipeline_yield(&h);
        let loss = h.mul(&h).unwrap().sum();
        let j = ctx.finish(&[loss]).unwrap();
        let lin = linearize(&j).unwrap();
        let bwd_yields: Vec<bool> = lin
            .bwd
            .eqns()
            .iter()
            .filter_map(|e| match e.prim {
                Prim::PipelineYield { backward, .. } => Some(backward),
                _ => None,
            })
            .collect();
        assert_eq!(bwd_yields, vec![true]);
    }

    #[test]
    fn grad_of_batch_matmul() {
        // loss = sum(bmm(A, B)); check both operand gradients against
        // finite differences.
        let ctx = TraceCtx::new();
        let a = ctx.input([2, 2, 3]);
        let b = ctx.input([2, 3, 2]);
        let loss = a.bmm(&b).unwrap().sum();
        let j = ctx.finish(&[loss]).unwrap();
        use crate::rng::SeedableRng;
        let mut rng = crate::rng::StdRng::seed_from_u64(31);
        let inputs = vec![
            Tensor::randn([2, 2, 3], 0.5, &mut rng),
            Tensor::randn([2, 3, 2], 0.5, &mut rng),
        ];
        check_grads(&j, &inputs, 2e-2);
    }

    #[test]
    fn grad_of_permute() {
        // loss = sum((permute(x, [2,0,1]) * w)^2)-ish composition.
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 3, 4]);
        let p = x.permute(&[2, 0, 1]).unwrap();
        let loss = p.mul(&p).unwrap().sum().scale(0.5);
        let j = ctx.finish(&[loss]).unwrap();
        use crate::rng::SeedableRng;
        let mut rng = crate::rng::StdRng::seed_from_u64(32);
        let inputs = vec![Tensor::randn([2, 3, 4], 1.0, &mut rng)];
        check_grads(&j, &inputs, 2e-2);
    }

    #[test]
    fn linearized_fwd_matches_original() {
        let ctx = TraceCtx::new();
        let x = ctx.input([2, 2]);
        let y = x.gelu().sum();
        let j = ctx.finish(&[y]).unwrap();
        let lin = linearize(&j).unwrap();
        let t = Tensor::from_vec([2, 2], vec![0.5, -1.0, 2.0, 0.0]).unwrap();
        let orig = eval(&j, std::slice::from_ref(&t)).unwrap();
        let aug = eval(&lin.fwd, &[t]).unwrap();
        assert_eq!(orig[0], aug[0]);
        assert_eq!(aug.len(), 1 + lin.n_residuals);
    }
}
