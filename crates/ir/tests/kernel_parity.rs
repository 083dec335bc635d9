//! Kernel-parity suite: the blocked matmul, batched matmul, and
//! transpose kernels must be **bit-identical** to the serial reference
//! loops of `raxpp_ir::testing` on every shape — including edge tiles,
//! unit dimensions and empty tensors. Bit-identity (not `allclose`) is
//! the contract that makes pipelined training reproducible against the
//! single-device reference. Broadcast, permute
//! and the reductions must likewise equal the per-element index loops
//! their stride walker replaced. A matmul that reads an operand in
//! place from its stored transpose must equal materialising the
//! transpose first. The same holds one level up: the liveness
//! interpreter (`eval`) must equal the allocate-everything reference
//! evaluator (`testing::reference_eval`) on a whole training graph.
//!
//! A kernel writes its result into a buffer that may be a spare still
//! holding a dead tensor's values, so every kernel that makes a new
//! result runs each case twice: once as it is, and once handed a
//! NaN-filled spare of its output's length ([`plain_and_on_a_stale_spare`]).
//! An element the kernel leaves unwritten reads NaN and fails the
//! comparison.

use raxpp_ir::bytes::{Reader, Writer};
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::testing::{in_layouts, reference, reference_eval, seed_spares, spares};
use raxpp_ir::{
    eval, eval_with_stats, value_and_grad, EvalStats, GraphBuilder, Prim, Shape, Tensor,
};

/// `kernel`'s result, then its result once more with this thread's
/// spare list holding just one NaN-filled buffer of that length, which
/// the kernel must take.
fn plain_and_on_a_stale_spare(kernel: impl Fn() -> Tensor) -> [Tensor; 2] {
    let plain = kernel();
    seed_spares(plain.numel(), 1, f32::NAN);
    let stale = kernel();
    assert!(spares().is_empty(), "the kernel took the stale spare");
    [plain, stale]
}

/// A tensor with a mix of magnitudes, exact zeros, and negatives —
/// zeros exercise the reference's zero-skip, whose only effect may be
/// `-0.0` vs `0.0` (equal under f32 `==`).
fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let numel: usize = shape.iter().product();
    let data: Vec<f32> = (0..numel)
        .map(|_| match rng.gen_range(0u64..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Shapes chosen to hit every code path of the blocked kernels: full
/// MRxNR register tiles, ragged edge tiles in both dimensions, unit
/// dims, one row panel and many.
const MATMUL_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (1, 1, 17),
    (4, 16, 16),   // exactly one full register tile per row-panel
    (5, 3, 17),    // ragged in m and n
    (7, 13, 31),   // all-odd
    (8, 32, 64),   // whole tiles only
    (3, 1, 5),     // k = 1: single-term reductions
    (33, 29, 47),  // edge tiles on every boundary
    (128, 64, 96), // multi-panel
    (0, 4, 4),     // empty m
    (4, 0, 4),     // empty k: output must be all zeros
    (4, 4, 0),     // empty n
];

#[test]
fn matmul_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for &(m, k, n) in MATMUL_SHAPES {
        let a = rand_tensor(&[m, k], &mut rng);
        let b = rand_tensor(&[k, n], &mut rng);
        let want = reference(&Prim::MatMul, &[&a, &b]).unwrap();
        for got in plain_and_on_a_stale_spare(|| a.matmul(&b).unwrap()) {
            assert_eq!(got.shape(), want.shape(), "({m},{k},{n})");
            assert_eq!(got.data(), want.data(), "matmul ({m},{k},{n})");
        }
    }
}

#[test]
fn batch_matmul_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xB47C4);
    let cases: &[(usize, usize, usize, usize)] = &[
        (1, 1, 1, 1),
        (2, 3, 5, 7),
        (3, 4, 16, 16),
        (5, 7, 13, 11),
        (0, 4, 4, 4), // empty batch
        (4, 0, 3, 3), // empty m inside each batch
        (2, 3, 0, 3), // empty k
        (8, 16, 8, 24),
    ];
    for &(batch, m, k, n) in cases {
        let a = rand_tensor(&[batch, m, k], &mut rng);
        let b = rand_tensor(&[batch, k, n], &mut rng);
        let want = reference(&Prim::BatchMatMul, &[&a, &b]).unwrap();
        for got in plain_and_on_a_stale_spare(|| a.batch_matmul(&b).unwrap()) {
            assert_eq!(got.shape(), want.shape());
            assert_eq!(
                got.data(),
                want.data(),
                "batch_matmul ({batch},{m},{k},{n})"
            );
        }
    }
}

#[test]
fn transpose_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x7A2A);
    let cases: &[&[usize]] = &[
        &[1, 1],
        &[1, 9],
        &[9, 1],
        &[32, 32], // exactly one tile
        &[33, 31], // ragged tiles
        &[7, 129],
        &[2, 3, 5],    // batched
        &[4, 33, 17],  // batched ragged
        &[0, 3],       // empty
        &[3, 0],       // empty columns
        &[2, 0, 5],    // empty inside batch
        &[6, 512, 96], // batched, many tiles
    ];
    for &shape in cases {
        let t = rand_tensor(shape, &mut rng);
        let want = reference(&Prim::Transpose, &[&t]).unwrap();
        for got in plain_and_on_a_stale_spare(|| t.transpose().unwrap()) {
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.data(), want.data(), "transpose {shape:?}");
        }
    }
}

/// Double-transpose is the identity, bit-for-bit, regardless of tiling.
#[test]
fn transpose_roundtrip_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x1D);
    let transpose = |t: &Tensor| t.transpose().unwrap();
    for &shape in &[[37usize, 53], [64, 64], [1, 200]] {
        let t = rand_tensor(&shape, &mut rng);
        let back = transpose(&transpose(&t));
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
    }
}

/// The product of `stored` (each operand paired with whether it holds
/// the transpose of the matrix it stands for) through the interpreter:
/// a flagged operand is read through a `Transpose` equation, plus the
/// allocator counters. Only the matmul reads those transposes, so the
/// interpreter never writes them out.
fn product_of_transposes(prim: &Prim, stored: [(&Tensor, bool); 2]) -> (Tensor, EvalStats) {
    let mut g = GraphBuilder::new();
    let operands = stored.map(|(t, transposed)| {
        let v = g.input(t.shape().clone());
        if transposed {
            g.emit(Prim::Transpose, &[v]).unwrap()
        } else {
            v
        }
    });
    let z = g.emit(prim.clone(), &operands).unwrap();
    let inputs = stored.map(|(t, _)| t.clone());
    let (mut out, stats) = eval_with_stats(&g.finish(vec![z]).unwrap(), &inputs).unwrap();
    (out.pop().unwrap(), stats)
}

/// The gate for transposed operands: a matmul or batched matmul that
/// reads one or both operands in place from a stored transpose equals,
/// bit for bit, materialising that transpose and running the blocked
/// kernel on it, and equals (`==`) the reference — for random shapes
/// and the edges (`k ∈ {0, 1}`, `m` below the 8-row tile, `n` not a
/// multiple of the 64-column panel, an empty batch), through the
/// interpreter and through `testing::in_layouts`.
#[test]
fn transposed_operands_match_the_materialised_transpose_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x70A_11A5);
    let edges: &[(usize, usize, usize, usize)] = &[
        (1, 5, 0, 7),      // k = 0: all zeros
        (1, 9, 1, 70),     // k = 1
        (1, 3, 17, 130),   // m < MR, n not a multiple of NR
        (1, 8, 33, 64),    // one full tile
        (1, 130, 97, 100), // many row panels
        (0, 4, 5, 6),      // empty batch
        (3, 7, 1, 65),
        (2, 16, 0, 9),
    ];
    let mut cases = edges.to_vec();
    for _ in 0..40 {
        cases.push((
            rng.gen_range(0usize..4),
            rng.gen_range(1usize..40),
            rng.gen_range(0usize..80),
            rng.gen_range(1usize..150),
        ));
    }
    for &(batch, m, k, n) in &cases {
        for batched in [false, true] {
            if !batched && batch != 1 {
                continue;
            }
            let lead: &[usize] = if batched { &[batch] } else { &[] };
            let dims = |r: usize, c: usize| [lead, &[r, c]].concat();
            let a = rand_tensor(&dims(m, k), &mut rng);
            let b = rand_tensor(&dims(k, n), &mut rng);
            let (prim, blocked) = if batched {
                (Prim::BatchMatMul, a.batch_matmul(&b).unwrap())
            } else {
                (Prim::MatMul, a.matmul(&b).unwrap())
            };
            let naive = reference(&prim, &[&a, &b]).unwrap();
            let stored = |t: &Tensor, transposed: bool| match transposed {
                true => t.transpose().unwrap(),
                false => t.clone(),
            };
            for (ta, tb) in [(true, false), (false, true), (true, true)] {
                let (sa, sb) = (stored(&a, ta), stored(&b, tb));
                let what = format!(
                    "{} batch {batch} ({m},{k},{n}) lhsᵀ {ta} rhsᵀ {tb}",
                    prim.name()
                );
                let (_, stats) = product_of_transposes(&prim, [(&sa, ta), (&sb, tb)]);
                let transposes = u64::from(ta) + u64::from(tb);
                assert_eq!(stats.reused, transposes, "{what}: read in place");
                let through_eval = || product_of_transposes(&prim, [(&sa, ta), (&sb, tb)]).0;
                let through_layouts = || in_layouts(&prim, [(&sa, ta), (&sb, tb)]).unwrap();
                for got in plain_and_on_a_stale_spare(through_eval)
                    .into_iter()
                    .chain(plain_and_on_a_stale_spare(through_layouts))
                {
                    assert_bits_eq(&got, &blocked, &what);
                    assert_eq!(got.data(), naive.data(), "{what}");
                }
            }
        }
    }
}

// The per-element loops the stride walker replaced, kept here as its
// oracle: one `(flat / stride) % dim` per output element and axis.

fn permute_oracle(t: &Tensor, perm: &[usize]) -> Tensor {
    let out_shape = t.shape().permuted(perm).unwrap();
    let in_strides = t.shape().strides();
    let out_strides = out_shape.strides();
    let mut out = vec![0.0f32; t.numel()];
    for (flat, slot) in out.iter_mut().enumerate() {
        let mut src = 0;
        for (axis, &p) in perm.iter().enumerate() {
            let coord = (flat / out_strides[axis]) % out_shape.dim(axis);
            src += coord * in_strides[p];
        }
        *slot = t.data()[src];
    }
    Tensor::from_vec(out_shape, out).unwrap()
}

fn broadcast_oracle(t: &Tensor, target: &Shape) -> Tensor {
    let offset = target.rank() - t.shape().rank();
    let src_strides = t.shape().strides();
    let tgt_strides = target.strides();
    let mut out = vec![0.0f32; target.numel()];
    for (flat, slot) in out.iter_mut().enumerate() {
        let mut src_index = 0;
        for axis in 0..target.rank() {
            let coord = (flat / tgt_strides[axis]) % target.dim(axis);
            if axis >= offset && t.shape().dim(axis - offset) != 1 {
                src_index += coord * src_strides[axis - offset];
            }
        }
        *slot = t.data()[src_index];
    }
    Tensor::from_vec(target.clone(), out).unwrap()
}

fn reduce_oracle(
    t: &Tensor,
    axes: &[usize],
    keepdims: bool,
    init: f32,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    let shape = t.shape();
    let kept = shape.reduced(axes, true).unwrap();
    let kept_strides = kept.strides();
    let src_strides = shape.strides();
    let mut out = vec![init; kept.numel()];
    for (flat, &v) in t.data().iter().enumerate() {
        let mut idx = 0;
        for axis in 0..shape.rank() {
            let coord = (flat / src_strides[axis]) % shape.dim(axis);
            if !axes.contains(&axis) {
                idx += coord * kept_strides[axis];
            }
        }
        out[idx] = f(out[idx], v);
    }
    Tensor::from_vec(shape.reduced(axes, keepdims).unwrap(), out).unwrap()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}");
}

/// Dimensions of rank 0–4, each 0–5 long; zero-size and size-1 axes
/// come up often.
fn rand_dims(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(0usize..5);
    (0..rank)
        .map(|_| match rng.gen_range(0u64..10) {
            0 => 0,
            1..=3 => 1,
            _ => rng.gen_range(2usize..6),
        })
        .collect()
}

/// A random ordering of `0..n` (Fisher–Yates).
fn rand_perm(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    perm
}

/// The gate for the stride walker: `broadcast_to`, `permute`,
/// `reduce_sum` and `reduce_max` are bit for bit the per-element loops
/// above on random shapes. `reference_eval` runs these ops through the
/// same kernels, so no whole-graph parity check can see a reordered
/// reduction here — only this test.
#[test]
fn layout_and_reduction_kernels_match_per_element_loops_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x57_1DE);
    for case in 0..4000 {
        let dims = rand_dims(&mut rng);
        let rank = dims.len();
        let mut t = rand_tensor(&dims, &mut rng);

        let perm = rand_perm(rank, &mut rng);
        let what = format!("case {case}: permute {dims:?} by {perm:?}");
        let want = permute_oracle(&t, &perm);
        for got in plain_and_on_a_stale_spare(|| t.permute(&perm).unwrap()) {
            assert_bits_eq(&got, &want, &what);
        }

        // A broadcast source: a suffix of `dims`, some axes cut to 1.
        let keep = rng.gen_range(0..rank + 1);
        let src_dims: Vec<usize> = dims[rank - keep..]
            .iter()
            .map(|&d| if rng.gen_range(0u64..3) == 0 { 1 } else { d })
            .collect();
        let src = rand_tensor(&src_dims, &mut rng);
        let target = Shape::new(dims.clone());
        let what = format!("case {case}: broadcast {src_dims:?} to {dims:?}");
        let want = broadcast_oracle(&src, &target);
        for got in plain_and_on_a_stale_spare(|| src.broadcast_to(target.clone()).unwrap()) {
            assert_bits_eq(&got, &want, &what);
        }

        let mut axes: Vec<usize> = rand_perm(rank, &mut rng);
        axes.truncate(rng.gen_range(0..rank + 1));
        let keepdims = rng.gen_range(0u64..2) == 1;
        let what = format!("case {case}: reduce_sum {dims:?} over {axes:?} (keepdims {keepdims})");
        let want = reduce_oracle(&t, &axes, keepdims, 0.0, |a, x| a + x);
        for got in plain_and_on_a_stale_spare(|| t.reduce_sum(&axes, keepdims).unwrap()) {
            assert_bits_eq(&got, &want, &what);
        }

        // NaN sprinkle: `f32::max` must drop a NaN operand wherever it
        // falls in the fold; which of ±0.0 survives depends on the order.
        let data: Vec<f32> = t
            .data()
            .iter()
            .map(|&x| {
                if rng.gen_range(0u64..6) == 0 {
                    f32::NAN
                } else {
                    x
                }
            })
            .collect();
        t = Tensor::from_vec(dims.clone(), data).unwrap();
        let what = format!("case {case}: reduce_max {dims:?} over {axes:?} (keepdims {keepdims})");
        let want = reduce_oracle(&t, &axes, keepdims, f32::NEG_INFINITY, f32::max);
        for got in plain_and_on_a_stale_spare(|| t.reduce_max(&axes, keepdims).unwrap()) {
            assert_bits_eq(&got, &want, &what);
        }
    }
}

/// The per-element meaning of the block kernels: output element
/// `(o, i, r)` of a slice along `dim` is input element
/// `(o, start + i, r)`, and a pad is its inverse with zeros around.
/// `outer`, `mid` and `inner` are the products of the axes before, at
/// and after `dim`.
fn slice_oracle(t: &Tensor, dim: usize, start: usize, len: usize) -> Tensor {
    let dims = t.shape().dims();
    let (outer, mid) = (dims[..dim].iter().product(), dims[dim]);
    let inner: usize = dims[dim + 1..].iter().product();
    let mut out = Vec::new();
    for o in 0..outer {
        for i in start..start + len {
            for r in 0..inner {
                out.push(t.data()[(o * mid + i) * inner + r]);
            }
        }
    }
    let mut shape = dims.to_vec();
    shape[dim] = len;
    Tensor::from_vec(shape, out).unwrap()
}

fn pad_oracle(t: &Tensor, dim: usize, start: usize, full: usize) -> Tensor {
    let dims = t.shape().dims();
    let (outer, mid) = (dims[..dim].iter().product(), dims[dim]);
    let inner: usize = dims[dim + 1..].iter().product();
    let mut out = Vec::new();
    for o in 0..outer {
        for i in 0..full {
            for r in 0..inner {
                out.push(match i.checked_sub(start).filter(|&i| i < mid) {
                    Some(i) => t.data()[(o * mid + i) * inner + r],
                    None => 0.0,
                });
            }
        }
    }
    let mut shape = dims.to_vec();
    shape[dim] = full;
    Tensor::from_vec(shape, out).unwrap()
}

/// The rest of the kernels that write a new result: slices along the
/// first and the last axis, the pads that are their VJPs, concat,
/// `full`, `eye` and the wire decoder, each on random shapes against
/// its per-element meaning, as it is and on a stale spare.
#[test]
fn block_fill_and_decode_kernels_write_every_element() {
    let mut rng = StdRng::seed_from_u64(0x5_1A7E);
    for case in 0..1000 {
        let mut dims = rand_dims(&mut rng);
        if dims.is_empty() {
            dims.push(rng.gen_range(0usize..6));
        }
        let t = rand_tensor(&dims, &mut rng);
        for dim in [0, dims.len() - 1] {
            let mid = dims[dim];
            let start = rng.gen_range(0..mid + 1);
            let len = rng.gen_range(0..mid - start + 1);
            let what = format!("case {case}: slice {dims:?} dim {dim} [{start}, +{len})");
            let want = slice_oracle(&t, dim, start, len);
            for got in plain_and_on_a_stale_spare(|| t.slice_dim(dim, start, len).unwrap()) {
                assert_bits_eq(&got, &want, &what);
            }
            let full = mid + rng.gen_range(0usize..4);
            let start = rng.gen_range(0..full - mid + 1);
            let what = format!("case {case}: pad {dims:?} dim {dim} at {start} to {full}");
            let want = pad_oracle(&t, dim, start, full);
            let pad = || match dim {
                0 => t.pad_first(start, full).unwrap(),
                _ => t.pad_last(start, full).unwrap(),
            };
            for got in plain_and_on_a_stale_spare(pad) {
                assert_bits_eq(&got, &want, &what);
            }
        }
        let head = t.slice_dim(0, 0, dims[0] / 2).unwrap();
        let tail = t.slice_dim(0, dims[0] / 2, dims[0] - dims[0] / 2).unwrap();
        let what = format!("case {case}: concat halves of {dims:?}");
        for got in plain_and_on_a_stale_spare(|| Tensor::concat(&[&head, &tail], 0).unwrap()) {
            assert_bits_eq(&got, &t, &what);
        }
        let value = rng.gen_range(-3.0f32..3.0);
        let want = Tensor::from_vec(dims.clone(), vec![value; t.numel()]).unwrap();
        for got in plain_and_on_a_stale_spare(|| Tensor::full(dims.clone(), value)) {
            assert_bits_eq(&got, &want, &format!("case {case}: full {dims:?}"));
        }
        let mut w = Writer::default();
        w.tensor(&t);
        let bytes = w.into_bytes();
        let decode = || {
            let mut r = Reader::new(&bytes);
            let (got, _) = r.tensor(dims.len()).unwrap();
            r.finish().unwrap();
            got
        };
        for got in plain_and_on_a_stale_spare(decode) {
            assert_bits_eq(&got, &t, &format!("case {case}: decode {dims:?}"));
        }
    }
    for n in 0..40 {
        let data = (0..n * n)
            .map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 })
            .collect();
        let want = Tensor::from_vec([n, n], data).unwrap();
        for got in plain_and_on_a_stale_spare(|| Tensor::eye(n)) {
            assert_bits_eq(&got, &want, &format!("eye {n}"));
        }
    }
}

/// The whole-graph gate: forward + backward of a tanh/gelu MLP —
/// matmuls, the transposes autodiff puts in front of every backward
/// matmul, elementwise ops, reductions — through the buffer-reusing
/// interpreter equals the reference evaluator bit for bit, loss and
/// every gradient.
#[test]
fn eval_matches_eval_reference_bitwise_on_a_training_graph() {
    let (rows, width) = (33, 47); // ragged edge tiles on every matmul
    let mut b = GraphBuilder::new();
    let x = b.input([rows, width]);
    let w1 = b.input([width, width]);
    let w2 = b.input([width, width]);
    let h = b.emit(Prim::MatMul, &[x, w1]).unwrap();
    let a = b.emit(Prim::Tanh, &[h]).unwrap();
    let h2 = b.emit(Prim::MatMul, &[a, w2]).unwrap();
    let a2 = b.emit(Prim::Gelu, &[h2]).unwrap();
    let sum = Prim::ReduceSum {
        axes: vec![0, 1],
        keepdims: false,
    };
    let loss = b.emit(sum, &[a2]).unwrap();
    let step = value_and_grad(&b.finish(vec![loss]).unwrap(), &[1, 2]).unwrap();

    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let inputs = vec![
        rand_tensor(&[rows, width], &mut rng),
        rand_tensor(&[width, width], &mut rng),
        rand_tensor(&[width, width], &mut rng),
    ];
    let want = reference_eval(&step, &inputs).unwrap();
    assert_eq!(want.len(), 3, "loss + two gradients");
    let got = eval(&step, &inputs).unwrap();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.shape(), w.shape());
        assert_eq!(
            g.data(),
            w.data(),
            "output {i} diverges from reference_eval"
        );
    }
}
