//! IR primitives and their shape rules.

use std::fmt;

use crate::error::{IrError, Result};
use crate::shape::Shape;

/// Identifier of a pipeline stage boundary, assigned in trace order.
///
/// The `k`-th `pipeline_yield` in a program separates logical stage `k`
/// from stage `k + 1` (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct YieldId(pub u32);

impl fmt::Display for YieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "yield{}", self.0)
    }
}

/// A primitive operation of the IR.
///
/// Broadcasting is *explicit* ([`Prim::Broadcast`]): elementwise binary
/// primitives require identical operand shapes. This keeps every gradient
/// rule local and makes activation sizes visible to the compiler, which the
/// pipeline partitioner relies on when computing communication volumes.
#[derive(Debug, Clone, PartialEq)]
pub enum Prim {
    /// Elementwise addition of two same-shaped tensors.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise negation.
    Neg,
    /// Multiply by a compile-time scalar.
    Scale(f32),
    /// Add a compile-time scalar.
    AddScalar(f32),
    /// 2-D matrix multiply `[m, k] × [k, n] → [m, n]`.
    MatMul,
    /// Batched matrix multiply `[b…, m, k] × [b…, k, n] → [b…, m, n]`
    /// (multi-head attention's workhorse).
    BatchMatMul,
    /// Transpose of the last two dimensions (rank ≥ 2).
    Transpose,
    /// General axis permutation.
    Permute {
        /// The permutation (`output axis i` reads `input axis perm[i]`).
        perm: Vec<usize>,
    },
    /// Rectified linear unit.
    Relu,
    /// GELU activation (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Elementwise natural logarithm.
    Log,
    /// Elementwise square root.
    Sqrt,
    /// Elementwise reciprocal square root.
    Rsqrt,
    /// Heaviside step (1 where x > 0). Gradient helper; not differentiable.
    Step,
    /// Derivative of GELU. Gradient helper; not differentiable.
    GeluGrad,
    /// Sum over the given axes.
    ReduceSum {
        /// Axes to reduce over (must be sorted, unique).
        axes: Vec<usize>,
        /// Whether reduced axes are kept with size 1.
        keepdims: bool,
    },
    /// Maximum over the given axes. Treated as a stop-gradient (its VJP is
    /// zero), which is the standard treatment for the softmax max-shift.
    ReduceMax {
        /// Axes to reduce over (must be sorted, unique).
        axes: Vec<usize>,
        /// Whether reduced axes are kept with size 1.
        keepdims: bool,
    },
    /// Broadcast to a target shape under NumPy alignment rules.
    Broadcast {
        /// The target shape.
        shape: Shape,
    },
    /// Reshape preserving element count.
    Reshape {
        /// The target shape.
        shape: Shape,
    },
    /// Materialize a constant-filled tensor (no operands).
    Fill {
        /// Fill value.
        value: f32,
        /// Output shape.
        shape: Shape,
    },
    /// Slice a contiguous block along the last axis (tensor-parallel
    /// shard extraction).
    SliceLast {
        /// First element of the block along the last axis.
        start: usize,
        /// Block length along the last axis.
        len: usize,
    },
    /// Embed a tensor as a block along the last axis of a larger
    /// zero-filled output (the VJP of [`Prim::SliceLast`]).
    PadLast {
        /// Offset of the block along the last axis of the output.
        start: usize,
        /// Size of the output's last axis.
        full: usize,
    },
    /// Slice a contiguous block along the *first* axis (ZeRO-1
    /// optimizer-state shard extraction: the first dim is the one axis
    /// column-parallel tensor sharding never touches, so first-dim
    /// slices are uniform across tensor-parallel ranks).
    SliceFirst {
        /// First element of the block along the first axis.
        start: usize,
        /// Block length along the first axis.
        len: usize,
    },
    /// Embed a tensor as a block along the first axis of a larger
    /// zero-filled output (the VJP of [`Prim::SliceFirst`]).
    PadFirst {
        /// Offset of the block along the first axis of the output.
        start: usize,
        /// Size of the output's first axis.
        full: usize,
    },
    /// Identity marker closing the current pipeline stage (paper §3.2).
    ///
    /// `id` records trace order; `backward` distinguishes markers emitted
    /// by autodiff for the reverse pass from user-written forward markers.
    PipelineYield {
        /// Which yield (in trace order) this is.
        id: YieldId,
        /// True for markers produced by differentiation.
        backward: bool,
    },
}

impl Prim {
    /// Number of operands the primitive consumes.
    pub fn arity(&self) -> usize {
        match self {
            Prim::Add | Prim::Sub | Prim::Mul | Prim::Div | Prim::MatMul | Prim::BatchMatMul => 2,
            Prim::Fill { .. } => 0,
            _ => 1,
        }
    }

    /// Short lowercase name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Prim::Add => "add",
            Prim::Sub => "sub",
            Prim::Mul => "mul",
            Prim::Div => "div",
            Prim::Neg => "neg",
            Prim::Scale(_) => "scale",
            Prim::AddScalar(_) => "add_scalar",
            Prim::MatMul => "matmul",
            Prim::BatchMatMul => "batch_matmul",
            Prim::Transpose => "transpose",
            Prim::Permute { .. } => "permute",
            Prim::Relu => "relu",
            Prim::Gelu => "gelu",
            Prim::Tanh => "tanh",
            Prim::Exp => "exp",
            Prim::Log => "log",
            Prim::Sqrt => "sqrt",
            Prim::Rsqrt => "rsqrt",
            Prim::Step => "step",
            Prim::GeluGrad => "gelu_grad",
            Prim::ReduceSum { .. } => "reduce_sum",
            Prim::ReduceMax { .. } => "reduce_max",
            Prim::Broadcast { .. } => "broadcast",
            Prim::Reshape { .. } => "reshape",
            Prim::Fill { .. } => "fill",
            Prim::SliceLast { .. } => "slice_last",
            Prim::PadLast { .. } => "pad_last",
            Prim::SliceFirst { .. } => "slice_first",
            Prim::PadFirst { .. } => "pad_first",
            Prim::PipelineYield { .. } => "pipeline_yield",
        }
    }

    /// Infers the output shape from operand shapes.
    ///
    /// # Errors
    ///
    /// Returns an arity or shape error when operands are invalid for the
    /// primitive.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let arity = self.arity();
        if inputs.len() != arity {
            return Err(IrError::ArityMismatch {
                context: self.name().into(),
                expected: arity,
                found: inputs.len(),
            });
        }
        match self {
            Prim::Add | Prim::Sub | Prim::Mul | Prim::Div => {
                if inputs[0] != inputs[1] {
                    return Err(IrError::ShapeMismatch {
                        context: self.name().into(),
                        expected: inputs[0].clone(),
                        found: inputs[1].clone(),
                    });
                }
                Ok(inputs[0].clone())
            }
            Prim::Neg
            | Prim::Scale(_)
            | Prim::AddScalar(_)
            | Prim::Relu
            | Prim::Gelu
            | Prim::Tanh
            | Prim::Exp
            | Prim::Log
            | Prim::Sqrt
            | Prim::Rsqrt
            | Prim::Step
            | Prim::GeluGrad
            | Prim::PipelineYield { .. } => Ok(inputs[0].clone()),
            Prim::MatMul => inputs[0].matmul(inputs[1]),
            Prim::BatchMatMul => inputs[0].batch_matmul(inputs[1]),
            Prim::Transpose => inputs[0].transposed(),
            Prim::Permute { perm } => inputs[0].permuted(perm),
            Prim::ReduceSum { axes, keepdims } | Prim::ReduceMax { axes, keepdims } => {
                inputs[0].reduced(axes, *keepdims)
            }
            Prim::Broadcast { shape } => {
                if !inputs[0].broadcastable_to(shape) {
                    return Err(IrError::BroadcastError {
                        from: inputs[0].clone(),
                        to: shape.clone(),
                    });
                }
                Ok(shape.clone())
            }
            Prim::Reshape { shape } => {
                if inputs[0].numel() != shape.numel() {
                    return Err(IrError::ReshapeError {
                        from: inputs[0].clone(),
                        to: shape.clone(),
                    });
                }
                Ok(shape.clone())
            }
            Prim::Fill { shape, .. } => Ok(shape.clone()),
            Prim::SliceLast { start, len } => {
                let r = inputs[0].rank();
                if r == 0 {
                    return Err(IrError::RankMismatch {
                        context: "slice_last".into(),
                        expected: 1,
                        found: 0,
                    });
                }
                let last = inputs[0].dim(r - 1);
                if start + len > last {
                    return Err(IrError::Invalid(format!(
                        "slice_last[{start}, {len}] out of bounds for last dim {last}"
                    )));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[r - 1] = *len;
                Ok(Shape::new(dims))
            }
            Prim::PadLast { start, full, .. } => {
                let r = inputs[0].rank();
                if r == 0 {
                    return Err(IrError::RankMismatch {
                        context: "pad_last".into(),
                        expected: 1,
                        found: 0,
                    });
                }
                let last = inputs[0].dim(r - 1);
                if start + last > *full {
                    return Err(IrError::Invalid(format!(
                        "pad_last[{start}, {full}] cannot hold a block of {last}"
                    )));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[r - 1] = *full;
                Ok(Shape::new(dims))
            }
            Prim::SliceFirst { start, len } => {
                if inputs[0].rank() == 0 {
                    return Err(IrError::RankMismatch {
                        context: "slice_first".into(),
                        expected: 1,
                        found: 0,
                    });
                }
                let first = inputs[0].dim(0);
                if start + len > first {
                    return Err(IrError::Invalid(format!(
                        "slice_first[{start}, {len}] out of bounds for first dim {first}"
                    )));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[0] = *len;
                Ok(Shape::new(dims))
            }
            Prim::PadFirst { start, full, .. } => {
                if inputs[0].rank() == 0 {
                    return Err(IrError::RankMismatch {
                        context: "pad_first".into(),
                        expected: 1,
                        found: 0,
                    });
                }
                let first = inputs[0].dim(0);
                if start + first > *full {
                    return Err(IrError::Invalid(format!(
                        "pad_first[{start}, {full}] cannot hold a block of {first}"
                    )));
                }
                let mut dims = inputs[0].dims().to_vec();
                dims[0] = *full;
                Ok(Shape::new(dims))
            }
        }
    }

    /// Approximate floating-point operation count, used by cost models.
    ///
    /// `in_numels` are operand element counts, `out_numel` the result's.
    pub fn flops(&self, in_numels: &[usize], out_numel: usize, in_shapes: &[&Shape]) -> u64 {
        match self {
            // 2mnk flops for an [m,k]x[k,n] matmul.
            Prim::MatMul => {
                let m = in_shapes[0].dim(0) as u64;
                let k = in_shapes[0].dim(1) as u64;
                let n = in_shapes[1].dim(1) as u64;
                2 * m * n * k
            }
            // 2·batch·m·n·k = 2·(lhs numel)·n.
            Prim::BatchMatMul => {
                let r = in_shapes[1].rank();
                let n = in_shapes[1].dim(r - 1) as u64;
                2 * in_shapes[0].numel() as u64 * n
            }
            Prim::Fill { .. } | Prim::Reshape { .. } | Prim::PipelineYield { .. } => 0,
            Prim::ReduceSum { .. } | Prim::ReduceMax { .. } => {
                in_numels.first().copied().unwrap_or(0) as u64
            }
            // Transcendentals: charge a few flops per element.
            Prim::Gelu | Prim::GeluGrad | Prim::Tanh | Prim::Exp | Prim::Log => {
                10 * out_numel as u64
            }
            _ => out_numel as u64,
        }
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prim::Scale(c) => write!(f, "scale[{c}]"),
            Prim::AddScalar(c) => write!(f, "add_scalar[{c}]"),
            Prim::ReduceSum { axes, keepdims } => {
                write!(f, "reduce_sum[axes={axes:?}, keepdims={keepdims}]")
            }
            Prim::ReduceMax { axes, keepdims } => {
                write!(f, "reduce_max[axes={axes:?}, keepdims={keepdims}]")
            }
            Prim::Permute { perm } => write!(f, "permute[{perm:?}]"),
            Prim::Broadcast { shape } => write!(f, "broadcast[{shape}]"),
            Prim::Reshape { shape } => write!(f, "reshape[{shape}]"),
            Prim::Fill { value, shape } => write!(f, "fill[{value}, {shape}]"),
            Prim::SliceLast { start, len } => write!(f, "slice_last[{start}, {len}]"),
            Prim::PadLast { start, full } => write!(f, "pad_last[{start}, {full}]"),
            Prim::SliceFirst { start, len } => write!(f, "slice_first[{start}, {len}]"),
            Prim::PadFirst { start, full } => write!(f, "pad_first[{start}, {full}]"),
            Prim::PipelineYield { id, backward } => {
                write!(
                    f,
                    "pipeline_yield[{id}{}]",
                    if *backward { ", bwd" } else { "" }
                )
            }
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity() {
        assert_eq!(Prim::Add.arity(), 2);
        assert_eq!(Prim::Neg.arity(), 1);
        assert_eq!(
            Prim::Fill {
                value: 0.0,
                shape: Shape::scalar()
            }
            .arity(),
            0
        );
    }

    #[test]
    fn elementwise_requires_equal_shapes() {
        let a = Shape::new([2, 3]);
        let b = Shape::new([3, 2]);
        assert!(Prim::Add.infer_shape(&[&a, &a]).is_ok());
        assert!(Prim::Add.infer_shape(&[&a, &b]).is_err());
        assert!(Prim::Add.infer_shape(&[&a]).is_err());
    }

    #[test]
    fn matmul_shape_rule() {
        let a = Shape::new([2, 3]);
        let b = Shape::new([3, 5]);
        assert_eq!(
            Prim::MatMul.infer_shape(&[&a, &b]).unwrap(),
            Shape::new([2, 5])
        );
    }

    #[test]
    fn matmul_flops() {
        let a = Shape::new([2, 3]);
        let b = Shape::new([3, 5]);
        assert_eq!(Prim::MatMul.flops(&[6, 15], 10, &[&a, &b]), 2 * 2 * 3 * 5);
    }

    #[test]
    fn broadcast_shape_rule() {
        let from = Shape::new([1, 3]);
        let to = Shape::new([4, 3]);
        let p = Prim::Broadcast { shape: to.clone() };
        assert_eq!(p.infer_shape(&[&from]).unwrap(), to);
        let bad = Shape::new([2, 3]);
        assert!(p.infer_shape(&[&bad]).is_err());
    }

    #[test]
    fn yield_display() {
        let p = Prim::PipelineYield {
            id: YieldId(3),
            backward: true,
        };
        assert_eq!(p.to_string(), "pipeline_yield[yield3, bwd]");
    }
}
