//! Dense row-major `f32` tensors backed by shared, immutable buffers.
//!
//! `Tensor` data lives in an `Arc<[f32]>`: cloning a tensor, reshaping
//! it, yielding it across a pipeline boundary, or sending it to another
//! actor are all O(1) handle copies — the executable analogue of passing
//! device-buffer references between the paper's Ray actors. Compute
//! kernels (matmul, batched matmul, transpose) are cache-blocked and
//! multi-threaded (see [`crate::kernels`]), with reduction orders that
//! are bit-compatible with the naive seed kernels at any thread count.
//! The layout and reduction kernels (broadcast, permute, `reduce_sum`,
//! `reduce_max`) share one stride walker that moves a whole innermost
//! row per step and does no index division; a reduction still folds
//! each output element's inputs in ascending flat input index, so its
//! bits are those of a per-element loop.
//! `tanh`, [`gelu`] and [`gelu_grad`] rest on one pinned rational `tanh`
//! in plain `*`, `+`, `/` and selects (no libm call, no branch), so their
//! bits depend on neither the C library nor the vector width, and
//! [`Tensor::map`] over them vectorises; `exp` and `ln` are still libm.
//! The interpreter additionally runs elementwise ops in place when it
//! holds the only reference to a buffer ([`Tensor::map_into`],
//! [`Tensor::zip_into`]).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::error::{IrError, Result};
use crate::kernels::{self, Layout};
use crate::rng::Rng;
use crate::shape::Shape;

/// A dense row-major tensor of `f32` values with shared storage.
///
/// # Examples
///
/// ```
/// use raxpp_ir::Tensor;
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok::<(), raxpp_ir::IrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<[f32]>,
}

impl Tensor {
    fn from_parts(shape: Shape, data: Vec<f32>) -> Tensor {
        debug_assert_eq!(shape.numel(), data.len());
        Tensor {
            shape,
            data: data.into(),
        }
    }

    /// Builds a tensor from a shape and a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] when `data.len()` does not equal the
    /// shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(IrError::Invalid(format!(
                "tensor data length {} does not match shape {} ({} elements)",
                data.len(),
                shape,
                shape.numel()
            )));
        }
        Ok(Tensor::from_parts(shape, data))
    }

    /// A scalar tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_parts(Shape::scalar(), vec![value])
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::from_parts(shape, vec![value; n])
    }

    /// An all-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// An all-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_parts(Shape::new([n, n]), data)
    }

    /// A tensor of i.i.d. standard normal samples drawn from `rng`, scaled
    /// by `std`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        // Box-Muller keeps us independent of any distributions crate.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor::from_parts(shape, data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Whether this handle is the sole owner of its buffer (no other
    /// tensor, store, or in-flight send aliases it).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// A tensor with the same shape whose buffer is freshly allocated
    /// (never shared). Used by the reference interpreter to reproduce
    /// the pre-optimization deep-copy cost model.
    pub fn deep_copy(&self) -> Tensor {
        Tensor::from_parts(self.shape.clone(), self.data.to_vec())
    }

    /// The single value of a scalar tensor.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::RankMismatch`] for non-scalars.
    pub fn item(&self) -> Result<f32> {
        if !self.shape.is_scalar() {
            return Err(IrError::RankMismatch {
                context: "item".into(),
                expected: 0,
                found: self.shape.rank(),
            });
        }
        Ok(self.data[0])
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise, stealing this tensor's buffer when it is
    /// uniquely owned (no allocation) and falling back to [`Tensor::map`]
    /// otherwise. Returns the result and whether the buffer was reused.
    pub fn map_into(mut self, f: impl Fn(f32) -> f32) -> (Tensor, bool) {
        match Arc::get_mut(&mut self.data) {
            Some(buf) => {
                for x in buf.iter_mut() {
                    *x = f(*x);
                }
                (self, true)
            }
            None => (self.map(f), false),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ShapeMismatch`] when shapes differ. Broadcasting
    /// is intentionally *not* implicit — the IR represents it as an explicit
    /// broadcast operation so its gradient is explicit too.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(IrError::ShapeMismatch {
                context: "elementwise op".into(),
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise combine that steals a uniquely-owned operand buffer
    /// (preferring `self`, then `other`) and writes the result in place;
    /// allocates only when both operands are shared. Returns the result
    /// and whether a buffer was reused.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ShapeMismatch`] when shapes differ.
    pub fn zip_into(
        mut self,
        mut other: Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(Tensor, bool)> {
        if self.shape != other.shape {
            return Err(IrError::ShapeMismatch {
                context: "elementwise op".into(),
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        if let Some(buf) = Arc::get_mut(&mut self.data) {
            for (x, &y) in buf.iter_mut().zip(other.data.iter()) {
                *x = f(*x, y);
            }
            return Ok((self, true));
        }
        if let Some(buf) = Arc::get_mut(&mut other.data) {
            for (y, &x) in buf.iter_mut().zip(self.data.iter()) {
                *y = f(x, *y);
            }
            return Ok((other, true));
        }
        self.zip(&other, f).map(|t| (t, false))
    }

    /// 2-D matrix multiply (cache-blocked, multi-threaded).
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank 2 with a matching
    /// contraction dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_as(Layout::Plain, rhs, Layout::Plain)
    }

    /// [`Tensor::matmul`] of operands each stored in a [`Layout`]: a
    /// `Transposed` operand's buffer holds the transpose of the matrix
    /// it stands for, and the kernel reads it in place. Bitwise equal to
    /// materialising that transpose and calling [`Tensor::matmul`].
    pub(crate) fn matmul_as(&self, la: Layout, rhs: &Tensor, lb: Layout) -> Result<Tensor> {
        let (ls, rs) = (self.logical_shape(la)?, rhs.logical_shape(lb)?);
        let out_shape = ls.matmul(&rs)?;
        let (m, k, n) = (ls.dim(0), ls.dim(1), rs.dim(1));
        let out = kernels::batch_matmul((&self.data, la), (&rhs.data, lb), 1, m, k, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// The shape of the matrix this buffer stands for in `layout`.
    fn logical_shape(&self, layout: Layout) -> Result<Cow<'_, Shape>> {
        Ok(match layout {
            Layout::Plain => Cow::Borrowed(&self.shape),
            Layout::Transposed => Cow::Owned(self.shape.transposed()?),
        })
    }

    /// 2-D matrix multiply using the seed repo's naive serial kernel.
    /// Kept for kernel-parity tests and pre-optimization baselines.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`].
    pub fn matmul_naive(&self, rhs: &Tensor) -> Result<Tensor> {
        let out_shape = self.shape.matmul(&rhs.shape)?;
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let n = rhs.shape.dim(1);
        let out = kernels::matmul_naive(&self.data, &rhs.data, m, k, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// Transpose of the last two dimensions (rank ≥ 2; leading batch
    /// dimensions are preserved). Tile-blocked and multi-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::RankMismatch`] for rank < 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let r = self.shape.rank();
        if r < 2 {
            return Err(IrError::RankMismatch {
                context: "transpose".into(),
                expected: 2,
                found: r,
            });
        }
        let out_shape = self.shape.transposed()?;
        let (m, n) = (self.shape.dim(r - 2), self.shape.dim(r - 1));
        let batch = self.numel().checked_div(m * n).unwrap_or(0);
        let out = kernels::transpose(&self.data, batch, m, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// Transpose using the seed repo's naive serial kernel.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::transpose`].
    pub fn transpose_naive(&self) -> Result<Tensor> {
        let r = self.shape.rank();
        if r < 2 {
            return Err(IrError::RankMismatch {
                context: "transpose".into(),
                expected: 2,
                found: r,
            });
        }
        let out_shape = self.shape.transposed()?;
        let (m, n) = (self.shape.dim(r - 2), self.shape.dim(r - 1));
        let batch = self.numel().checked_div(m * n).unwrap_or(0);
        let out = kernels::transpose_naive(&self.data, batch, m, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// Batched matrix multiply `[b…, m, k] @ [b…, k, n]` (blocked,
    /// multi-threaded).
    ///
    /// # Errors
    ///
    /// See [`Shape::batch_matmul`].
    pub fn batch_matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.batch_matmul_as(Layout::Plain, rhs, Layout::Plain)
    }

    /// [`Tensor::batch_matmul`] of operands each stored in a [`Layout`]
    /// (per batch slice), as [`Tensor::matmul_as`].
    pub(crate) fn batch_matmul_as(&self, la: Layout, rhs: &Tensor, lb: Layout) -> Result<Tensor> {
        let (ls, rs) = (self.logical_shape(la)?, rhs.logical_shape(lb)?);
        let out_shape = ls.batch_matmul(&rs)?;
        let r = ls.rank();
        let (m, k, n) = (ls.dim(r - 2), ls.dim(r - 1), rs.dim(r - 1));
        let batch = ls.dims()[..r - 2].iter().product();
        let out = kernels::batch_matmul((&self.data, la), (&rhs.data, lb), batch, m, k, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// Batched matmul using the seed repo's naive serial kernel.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::batch_matmul`].
    pub fn batch_matmul_naive(&self, rhs: &Tensor) -> Result<Tensor> {
        let out_shape = self.shape.batch_matmul(&rhs.shape)?;
        let r = self.shape.rank();
        let (m, k) = (self.shape.dim(r - 2), self.shape.dim(r - 1));
        let n = rhs.shape.dim(r - 1);
        let batch = self.shape.dims()[..r - 2].iter().product();
        let out = kernels::batch_matmul_naive(&self.data, &rhs.data, batch, m, k, n);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// General axis permutation.
    ///
    /// # Errors
    ///
    /// See [`Shape::permuted`].
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let out_shape = self.shape.permuted(perm)?;
        let in_strides = self.shape.strides();
        let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let out = gather(&self.data, out_shape.dims(), &strides);
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// Reshape preserving element count. O(1): the result shares this
    /// tensor's buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ReshapeError`] when counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(IrError::ReshapeError {
                from: self.shape.clone(),
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::clone(&self.data),
        })
    }

    /// Broadcast to `target` under NumPy alignment rules.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::BroadcastError`] for incompatible shapes.
    pub fn broadcast_to(&self, target: impl Into<Shape>) -> Result<Tensor> {
        let target = target.into();
        if !self.shape.broadcastable_to(&target) {
            return Err(IrError::BroadcastError {
                from: self.shape.clone(),
                to: target,
            });
        }
        // Stride 0 on every expanded axis: prepended, or size 1 here.
        let lead = target.rank() - self.shape.rank();
        let strides: Vec<usize> = std::iter::repeat_n(0, lead)
            .chain(
                self.shape
                    .dims()
                    .iter()
                    .zip(self.shape.strides())
                    .map(|(&d, s)| if d == 1 { 0 } else { s }),
            )
            .collect();
        let out = gather(&self.data, target.dims(), &strides);
        Ok(Tensor::from_parts(target, out))
    }

    /// Sum over `axes`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::AxisOutOfRange`] for invalid axes.
    pub fn reduce_sum(&self, axes: &[usize], keepdims: bool) -> Result<Tensor> {
        self.reduce(axes, keepdims, 0.0, |acc, x| acc + x)
    }

    /// Maximum over `axes`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::AxisOutOfRange`] for invalid axes.
    pub fn reduce_max(&self, axes: &[usize], keepdims: bool) -> Result<Tensor> {
        self.reduce(axes, keepdims, f32::NEG_INFINITY, f32::max)
    }

    fn reduce(
        &self,
        axes: &[usize],
        keepdims: bool,
        init: f32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        let out_shape = self.shape.reduced(axes, keepdims)?;
        // The output laid out with kept dims (size 1 on reduced axes),
        // addressed from the input's axes: stride 0 on a reduced axis.
        let kept = self.shape.reduced(axes, true)?;
        let mut strides = kept.strides();
        for &a in axes {
            strides[a] = 0;
        }
        let mut out = vec![init; kept.numel()];
        // The input is walked in flat order, so every output element
        // folds its inputs in ascending flat input index — the order of a
        // per-element loop, so the result is the same bits.
        let len = self.shape.dims().last().map_or(1, |&d| d);
        let last_reduced = strides.last().is_none_or(|&s| s == 0);
        let mut start = 0;
        for_each_row(self.shape.dims(), &strides, 0, &mut |o| {
            let row = &self.data[start..start + len];
            start += len;
            if last_reduced {
                out[o] = row.iter().fold(out[o], |acc, &x| f(acc, x));
            } else {
                for (y, &x) in out[o..o + len].iter_mut().zip(row) {
                    *y = f(*y, x);
                }
            }
        });
        let t = Tensor::from_parts(kept, out);
        if keepdims {
            Ok(t)
        } else {
            t.reshape(out_shape)
        }
    }

    /// Concatenates same-rank tensors along `dim`.
    ///
    /// All dimensions other than `dim` must match across operands. The
    /// result is a pure byte reordering of the operands' blocks — no
    /// arithmetic is performed — so gathering tensor-parallel shards and
    /// concatenating them is bitwise-exact.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] for an empty operand list or
    /// mismatched ranks/dimensions, [`IrError::AxisOutOfRange`] when
    /// `dim` exceeds the rank.
    pub fn concat(parts: &[&Tensor], dim: usize) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| IrError::Invalid("concat requires at least one operand".into()))?;
        let rank = first.shape.rank();
        if dim >= rank {
            return Err(IrError::AxisOutOfRange {
                context: "concat".into(),
                axis: dim,
                rank,
            });
        }
        let mut cat_dim = 0;
        for p in parts {
            if p.shape.rank() != rank {
                return Err(IrError::Invalid(format!(
                    "concat rank mismatch: {} vs {}",
                    first.shape, p.shape
                )));
            }
            for d in 0..rank {
                if d != dim && p.shape.dim(d) != first.shape.dim(d) {
                    return Err(IrError::Invalid(format!(
                        "concat dim {d} mismatch: {} vs {}",
                        first.shape, p.shape
                    )));
                }
            }
            cat_dim += p.shape.dim(dim);
        }
        let mut dims = first.shape.dims().to_vec();
        dims[dim] = cat_dim;
        let out_shape = Shape::new(dims);
        let outer: usize = first.shape.dims()[..dim].iter().product();
        let mut out = Vec::with_capacity(out_shape.numel());
        for o in 0..outer {
            for p in parts {
                let block = p.numel() / outer.max(1);
                out.extend_from_slice(&p.data[o * block..(o + 1) * block]);
            }
        }
        Ok(Tensor::from_parts(out_shape, out))
    }

    /// The contiguous block `[start, start + len)` along dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::AxisOutOfRange`] when `dim` exceeds the rank,
    /// [`IrError::Invalid`] when the block exceeds the dimension.
    pub fn slice_dim(&self, dim: usize, start: usize, len: usize) -> Result<Tensor> {
        let rank = self.shape.rank();
        if dim >= rank {
            return Err(IrError::AxisOutOfRange {
                context: "slice".into(),
                axis: dim,
                rank,
            });
        }
        let mid = self.shape.dim(dim);
        if start + len > mid {
            return Err(IrError::Invalid(format!(
                "slice [{start}, {}) out of bounds for dim {dim} of {}",
                start + len,
                self.shape
            )));
        }
        let inner: usize = self.shape.dims()[dim + 1..].iter().product();
        let outer: usize = self.shape.dims()[..dim].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[dim] = len;
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let row = (o * mid + start) * inner;
            out.extend_from_slice(&self.data[row..row + len * inner]);
        }
        Ok(Tensor::from_parts(Shape::new(dims), out))
    }

    /// Embeds this tensor as the block starting at `start` along the last
    /// axis of an output whose last axis has size `full`, filling the
    /// remainder with zeros (the VJP of a last-axis slice).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::RankMismatch`] for scalars and
    /// [`IrError::Invalid`] when the block does not fit.
    pub fn pad_last(&self, start: usize, full: usize) -> Result<Tensor> {
        let rank = self.shape.rank();
        if rank == 0 {
            return Err(IrError::RankMismatch {
                context: "pad_last".into(),
                expected: 1,
                found: 0,
            });
        }
        let last = self.shape.dim(rank - 1);
        if start + last > full {
            return Err(IrError::Invalid(format!(
                "pad_last block [{start}, {}) does not fit in {full}",
                start + last
            )));
        }
        let rows = self.numel() / last.max(1);
        let mut dims = self.shape.dims().to_vec();
        dims[rank - 1] = full;
        let mut out = vec![0.0; rows * full];
        if last > 0 {
            for r in 0..rows {
                out[r * full + start..r * full + start + last]
                    .copy_from_slice(&self.data[r * last..(r + 1) * last]);
            }
        }
        Ok(Tensor::from_parts(Shape::new(dims), out))
    }

    /// Embeds this tensor as the block starting at `start` along the
    /// *first* axis of an output whose first axis has size `full`,
    /// filling the remainder with zeros (the VJP of a first-axis slice).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::RankMismatch`] for scalars and
    /// [`IrError::Invalid`] when the block does not fit.
    pub fn pad_first(&self, start: usize, full: usize) -> Result<Tensor> {
        let rank = self.shape.rank();
        if rank == 0 {
            return Err(IrError::RankMismatch {
                context: "pad_first".into(),
                expected: 1,
                found: 0,
            });
        }
        let first = self.shape.dim(0);
        if start + first > full {
            return Err(IrError::Invalid(format!(
                "pad_first block [{start}, {}) does not fit in {full}",
                start + first
            )));
        }
        let inner = self.numel() / first.max(1);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = full;
        let mut out = vec![0.0; full * inner];
        out[start * inner..start * inner + first * inner].copy_from_slice(&self.data);
        Ok(Tensor::from_parts(Shape::new(dims), out))
    }

    /// Maximum absolute difference with `other`, or `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f32::max),
        )
    }

    /// Whether every element is within `tol` of `other` (relative to
    /// magnitude for large values).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(&a, &b)| {
            let scale = 1.0f32.max(a.abs()).max(b.abs());
            (a - b).abs() <= tol * scale
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

/// The stride walker behind the layout and reduction kernels: calls
/// `row(offset)` once per innermost row of a row-major walk over `dims`,
/// in flat order, where `offset` is the row's start under `strides`
/// (Σ coordᵢ·stridesᵢ over the outer axes) plus the `offset` passed in.
/// Each outer axis steps the offset by its stride once per row — no
/// division, no modulo. The row itself (the last axis's length and
/// stride) is the caller's: a scalar or a rank-1 shape is one row.
fn for_each_row(dims: &[usize], strides: &[usize], mut offset: usize, row: &mut impl FnMut(usize)) {
    if dims.len() <= 1 {
        return row(offset);
    }
    for _ in 0..dims[0] {
        for_each_row(&dims[1..], &strides[1..], offset, row);
        offset += strides[0];
    }
}

/// The row-major buffer of shape `dims` whose element at `coord` is
/// `src[Σ coordᵢ·stridesᵢ]`: a broadcast (stride 0 on expanded axes) or
/// a permutation. Each row is a copy (stride 1), a fill (stride 0) or a
/// strided loop.
fn gather(src: &[f32], dims: &[usize], strides: &[usize]) -> Vec<f32> {
    let mut out = Vec::with_capacity(dims.iter().product());
    let (len, step) = dims
        .last()
        .zip(strides.last())
        .map_or((1, 0), |(&l, &s)| (l, s));
    for_each_row(dims, strides, 0, &mut |o| match step {
        0 => out.resize(out.len() + len, src[o]),
        1 => out.extend_from_slice(&src[o..o + len]),
        _ => out.extend((0..len).map(|j| src[o + j * step])),
    });
    out
}

/// `|x|` from which [`tanh`] returns exactly `±1.0`. The f32 nearest to
/// the true `tanh` is `1.0` from `13·ln 2 ≈ 9.011` on, so this costs at
/// most one ulp on `[9, 9.011)`.
const TANH_SAT: f32 = 9.0;

/// `tanh` in plain `*`, `+`, `/` and selects — no libm call, no branch —
/// so its bits depend on neither the C library nor the vector width, and
/// [`Tensor::map`] over it vectorises. The odd rational `x·P(x²)/Q(x²)`
/// on `[-7.99881, 7.99881]` is Eigen's and XLA's fast `tanh`; evaluated
/// without FMA (Rust never contracts) it is within 7 ulp of the true
/// `tanh` (libm's `tanhf`: 2). `|x| < 4e-4` returns `x` (exact to the
/// ulp there, and keeps `-0.0` and subnormals), `|x| ≥ TANH_SAT` returns
/// `±1.0` (the rational stops just short of 1), and NaN propagates
/// through `clamp`.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    const CLAMP: f32 = 7.998_811_7;
    const TINY: f32 = 4e-4;
    const P: [f32; 7] = [
        4.893_524_6e-3,
        6.372_619_3e-4,
        1.485_722_4e-5,
        5.122_297e-8,
        -8.604_672e-11,
        2.000_188e-13,
        -2.760_768_5e-16,
    ];
    const Q: [f32; 4] = [4.893_525e-3, 2.268_434_6e-3, 1.185_347_1e-4, 1.198_258_4e-6];
    let c = x.clamp(-CLAMP, CLAMP);
    let c2 = c * c;
    let p = P[0] + c2 * (P[1] + c2 * (P[2] + c2 * (P[3] + c2 * (P[4] + c2 * (P[5] + c2 * P[6])))));
    let q = Q[0] + c2 * (Q[1] + c2 * (Q[2] + c2 * Q[3]));
    let r = if x.abs() < TINY { x } else { c * p / q };
    if x.abs() >= TANH_SAT {
        1.0f32.copysign(x)
    } else {
        r
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// GELU activation (tanh approximation), matching the transformer models in
/// the paper's workloads. Where `tanh` saturates to `-1` the result is
/// selected as `-0.0`, so `gelu(-∞)` is a zero rather than `-∞ · 0`.
pub fn gelu(x: f32) -> f32 {
    let s = GELU_C * (x + 0.044715 * x * x * x);
    let y = 0.5 * x * (1.0 + tanh(s));
    if s <= -TANH_SAT {
        -0.0
    } else {
        y
    }
}

/// Derivative of [`gelu`] with respect to its input. Where `tanh`
/// saturates the result is exactly `1` or `0`: the slope term is
/// selected away, since past `|x| ≈ 5·10¹⁹` it is `0 · ∞`.
pub fn gelu_grad(x: f32) -> f32 {
    let s = GELU_C * (x + 0.044715 * x * x * x);
    let t = tanh(s);
    let sech2 = 1.0 - t * t;
    let slope = 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + if s.abs() >= TANH_SAT { 0.0 } else { slope }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    #[test]
    fn construction_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_reference() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Tensor::randn([4, 4], 1.0, &mut rng);
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        assert!(a.allclose(&c, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn([3, 5], 1.0, &mut rng);
        let b = a.transpose().unwrap().transpose().unwrap();
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn batched_transpose() {
        let a = Tensor::from_vec([2, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.data(), &[1., 3., 2., 4., 5., 7., 6., 8.]);
    }

    #[test]
    fn batch_matmul_matches_per_slice_matmul() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn([3, 2, 4], 1.0, &mut rng);
        let b = Tensor::randn([3, 4, 5], 1.0, &mut rng);
        let c = a.batch_matmul(&b).unwrap();
        for s in 0..3 {
            let a2 = Tensor::from_vec([2, 4], a.data()[s * 8..(s + 1) * 8].to_vec()).unwrap();
            let b2 = Tensor::from_vec([4, 5], b.data()[s * 20..(s + 1) * 20].to_vec()).unwrap();
            let c2 = a2.matmul(&b2).unwrap();
            assert_eq!(&c.data()[s * 10..(s + 1) * 10], c2.data());
        }
    }

    #[test]
    fn permute_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        let p = a.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &Shape::new([4, 2, 3]));
        // Inverse of [2,0,1] is [1,2,0].
        let back = p.permute(&[1, 2, 0]).unwrap();
        assert_eq!(back.data(), a.data());
        assert!(a.permute(&[0, 0, 1]).is_err());
    }

    #[test]
    fn broadcast_row() {
        let row = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = row.broadcast_to([2, 3]).unwrap();
        assert_eq!(b.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn broadcast_col() {
        let col = Tensor::from_vec([2, 1], vec![1., 2.]).unwrap();
        let b = col.broadcast_to([2, 3]).unwrap();
        assert_eq!(b.data(), &[1., 1., 1., 2., 2., 2.]);
    }

    #[test]
    fn broadcast_scalar() {
        let s = Tensor::scalar(5.0);
        let b = s.broadcast_to([2, 2]).unwrap();
        assert_eq!(b.data(), &[5., 5., 5., 5.]);
    }

    #[test]
    fn reduce_sum_axes() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r0 = a.reduce_sum(&[0], false).unwrap();
        assert_eq!(r0.data(), &[5., 7., 9.]);
        let r1 = a.reduce_sum(&[1], false).unwrap();
        assert_eq!(r1.data(), &[6., 15.]);
        let rall = a.reduce_sum(&[0, 1], false).unwrap();
        assert_eq!(rall.item().unwrap(), 21.0);
        let rk = a.reduce_sum(&[1], true).unwrap();
        assert_eq!(rk.shape(), &Shape::new([2, 1]));
    }

    #[test]
    fn reduce_max_axes() {
        let a = Tensor::from_vec([2, 3], vec![1., 9., 3., 4., 5., 6.]).unwrap();
        let r = a.reduce_max(&[1], false).unwrap();
        assert_eq!(r.data(), &[9., 6.]);
    }

    #[test]
    fn reduce_then_broadcast_roundtrip() {
        // sum with keepdims then broadcast restores the original shape.
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let r = a.reduce_sum(&[1], true).unwrap();
        let b = r.broadcast_to([4, 6]).unwrap();
        assert_eq!(b.shape(), a.shape());
    }

    #[test]
    fn gelu_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(100.0) - 100.0).abs() < 1e-3);
        assert!(gelu(-100.0).abs() < 1e-3);
        // Numerical derivative check.
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let num = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (num - gelu_grad(x)).abs() < 1e-3,
                "x={x}: {num} vs {}",
                gelu_grad(x)
            );
        }
    }

    /// Distance in ulps, counting across zero (`±0.0` are one point).
    fn ulps(a: f32, b: f32) -> u64 {
        let ordered = |x: f32| {
            let i = x.to_bits() as i32;
            if i < 0 {
                i64::from(i32::MIN) - i64::from(i)
            } else {
                i64::from(i)
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// Every `stride`-th non-negative f32 bit pattern in `[from, to]`.
    fn sweep(from: f32, to: f32, stride: usize) -> impl Iterator<Item = f32> {
        (from.to_bits()..=to.to_bits())
            .step_by(stride)
            .map(f32::from_bits)
    }

    #[test]
    fn pinned_tanh_is_within_8_ulp_of_f64_tanh() {
        // ≈ 1.07 M points: every binade from the least subnormal to 10,
        // ≈ 8 000 points in each.
        let mut worst = (0, 0.0);
        for x in sweep(0.0, 10.0, 1021) {
            let want = f64::from(x).tanh() as f32;
            let e = ulps(tanh(x), want);
            if e > worst.0 {
                worst = (e, x);
            }
        }
        assert!(worst.0 <= 8, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn pinned_tanh_saturates_to_exactly_one() {
        let big = sweep(9.1, f32::MAX, 4099).chain([f32::MAX, f32::INFINITY]);
        for x in big {
            assert_eq!(tanh(x).to_bits(), 1.0f32.to_bits(), "x = {x:e}");
            assert_eq!(tanh(-x).to_bits(), (-1.0f32).to_bits(), "x = {:e}", -x);
        }
    }

    #[test]
    fn pinned_tanh_keeps_nan_and_signed_zero() {
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_1234)] {
            assert!(tanh(nan).is_nan());
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn pinned_tanh_is_odd_in_bits() {
        for x in sweep(0.0, f32::INFINITY, 1021) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
        }
    }

    /// The bits themselves: a hash of `tanh`, `gelu` and `gelu_grad` over
    /// every binade, both signs. They are in-tree arithmetic, so the hash
    /// is the same on every machine and C library, and it moves only when
    /// the arithmetic does — a coefficient, the order of an operation, a
    /// fused multiply-add. Change it only on purpose.
    #[test]
    fn activation_bits_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in sweep(0.0, f32::INFINITY, 4099).flat_map(|x| [x, -x]) {
            for y in [tanh(x), gelu(x), gelu_grad(x)] {
                h = (h ^ u64::from(y.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x83c1_6238_f973_fbd4, "activation bits moved: {h:#018x}");
    }

    #[test]
    fn gelu_grad_is_within_1e_5_of_the_f64_derivative() {
        // Against the f64 derivative (libm's f64 tanh). Measured worst:
        // 5.7e-6 at x ≈ 4.86 over every f32 of [2, 8], where `1 - t²`
        // cancels next to tanh's clamp; 5.6e-7 with libm's f32 tanh.
        let exact = |x: f32| {
            let x = f64::from(x);
            let c = (2.0 / std::f64::consts::PI).sqrt();
            let t = (c * (x + 0.044715 * x * x * x)).tanh();
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
        };
        // Every finite input, both signs: the slope term is selected away
        // once tanh saturates, so no input overflows into 0 · ∞.
        for x in sweep(0.0, f32::MAX, 1021).flat_map(|x| [x, -x]) {
            let (g, y) = (gelu_grad(x), gelu(x));
            assert!(g.is_finite() && y.is_finite(), "x = {x:e}: {g}, {y}");
            let e = (f64::from(g) - exact(x)).abs();
            assert!(e <= 1e-5, "x = {x:e}: {g} vs {} ({e:e})", exact(x));
        }
    }

    #[test]
    fn gelu_saturates_instead_of_returning_nan() {
        for x in [1e20, f32::MAX, f32::INFINITY] {
            assert_eq!(gelu_grad(x), 1.0, "x = {x:e}");
            assert_eq!(gelu_grad(-x), 0.0, "x = {:e}", -x);
            assert_eq!(gelu(x), x, "x = {x:e}");
            assert_eq!(gelu(-x), 0.0, "x = {:e}", -x);
        }
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
    }

    /// `map` and `map_into` over an activation's fn item are the loops
    /// the interpreter runs and LLVM vectorises in a release build; a
    /// per-element call through `black_box` is never vectorised. Lengths
    /// 0..=70 put every element count into both the vector body and the
    /// scalar tail, so an instruction that differs between the two (a
    /// fused multiply-add, an intrinsic) shows up here.
    #[test]
    fn activation_lanes_agree_with_scalar_calls() {
        fn check(name: &str, f: impl Fn(f32) -> f32 + Copy, data: &[f32]) {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let scalar: Vec<u32> = data
                .iter()
                .map(|&x| std::hint::black_box(f(std::hint::black_box(x))).to_bits())
                .collect();
            let t = Tensor::from_vec([data.len()], data.to_vec()).unwrap();
            assert_eq!(bits(&t.map(f)), scalar, "{name}: map, n = {}", data.len());
            let (t, reused) = t.map_into(f);
            assert!(reused);
            assert_eq!(bits(&t), scalar, "{name}: map_into, n = {}", data.len());
        }
        let specials = [
            0.0,
            -0.0,
            1e-30,
            3e-4,
            -0.5,
            1.0,
            4.0,
            -7.999,
            8.5,
            9.0,
            -20.0,
            1e20,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(28);
        let pool = Tensor::randn([70], 4.0, &mut rng);
        for n in 0..=70usize {
            let data: Vec<f32> = (0..n)
                .map(|i| match i % 3 {
                    0 => specials[i / 3 % specials.len()],
                    _ => pool.data()[i],
                })
                .collect();
            check("tanh", tanh, &data);
            check("gelu", gelu, &data);
            check("gelu_grad", gelu_grad, &data);
        }
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn([10_000], 1.0, &mut rng);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn clone_and_reshape_share_storage() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = a.clone();
        let r = a.reshape([3, 2]).unwrap();
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        assert!(std::ptr::eq(a.data().as_ptr(), r.data().as_ptr()));
        assert!(!a.is_unique());
    }

    #[test]
    fn map_into_steals_unique_buffers() {
        let a = Tensor::from_vec([4], vec![1., 2., 3., 4.]).unwrap();
        let ptr = a.data().as_ptr();
        let (b, reused) = a.map_into(|x| x * 2.0);
        assert!(reused);
        assert!(std::ptr::eq(ptr, b.data().as_ptr()));
        assert_eq!(b.data(), &[2., 4., 6., 8.]);

        // A shared buffer must not be mutated.
        let keep = b.clone();
        let (c, reused) = b.map_into(|x| x + 1.0);
        assert!(!reused);
        assert_eq!(keep.data(), &[2., 4., 6., 8.]);
        assert_eq!(c.data(), &[3., 5., 7., 9.]);
    }

    #[test]
    fn zip_into_steals_either_operand() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![10., 20., 30.]).unwrap();
        let a_ptr = a.data().as_ptr();
        let (c, reused) = a.zip_into(b, |x, y| x + y).unwrap();
        assert!(reused);
        assert!(std::ptr::eq(a_ptr, c.data().as_ptr()));
        assert_eq!(c.data(), &[11., 22., 33.]);

        // self shared, other unique → other's buffer is stolen, with the
        // non-commutative argument order preserved.
        let a = Tensor::from_vec([3], vec![8., 8., 8.]).unwrap();
        let a_alias = a.clone();
        let b = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b_ptr = b.data().as_ptr();
        let (c, reused) = a.zip_into(b, |x, y| x - y).unwrap();
        assert!(reused);
        assert!(std::ptr::eq(b_ptr, c.data().as_ptr()));
        assert_eq!(c.data(), &[7., 6., 5.]);
        assert_eq!(a_alias.data(), &[8., 8., 8.]);

        // Both shared → allocate.
        let a = Tensor::from_vec([2], vec![1., 1.]).unwrap();
        let b = Tensor::from_vec([2], vec![2., 2.]).unwrap();
        let (_a2, _b2) = (a.clone(), b.clone());
        let (c, reused) = a.zip_into(b, |x, y| x * y).unwrap();
        assert!(!reused);
        assert_eq!(c.data(), &[2., 2.]);
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(m, k, n) in &[(1, 1, 1), (7, 5, 3), (64, 64, 64), (33, 17, 65)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            assert_eq!(
                a.matmul(&b).unwrap().data(),
                a.matmul_naive(&b).unwrap().data(),
                "({m},{k},{n})"
            );
        }
    }
}
