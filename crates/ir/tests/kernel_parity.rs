//! Kernel-parity suite: the blocked/parallel matmul, batched matmul,
//! and transpose kernels must be **bit-identical** to the seed repo's
//! naive serial kernels on every shape — including edge tiles, unit
//! dimensions, empty tensors, and any thread count. Bit-identity (not
//! `allclose`) is the contract that makes pipelined training
//! reproducible against the single-device reference. The same holds one
//! level up: the liveness interpreter (`eval`) must equal the deep-copy
//! + naive-kernel oracle (`eval_reference`) on a whole training graph.

use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{eval, eval_reference, set_num_threads, value_and_grad, GraphBuilder, Prim, Tensor};

/// A tensor with a mix of magnitudes, exact zeros, and negatives —
/// zeros exercise the naive kernel's zero-skip fast path, whose only
/// effect may be `-0.0` vs `0.0` (equal under f32 `==`).
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
/// dims, shapes under and over the parallelization thresholds.
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
    (128, 64, 96), // multi-panel, above thread-split sizes
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
        let want = a.matmul_naive(&b).unwrap();
        for threads in [1, 2, 3, 4, 7] {
            set_num_threads(threads);
            let got = a.matmul(&b).unwrap();
            assert_eq!(got.shape(), want.shape(), "({m},{k},{n}) x{threads}");
            assert_eq!(
                got.data(),
                want.data(),
                "matmul ({m},{k},{n}) diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
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
        let want = a.batch_matmul_naive(&b).unwrap();
        for threads in [1, 3, 4] {
            set_num_threads(threads);
            let got = a.batch_matmul(&b).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(
                got.data(),
                want.data(),
                "batch_matmul ({batch},{m},{k},{n}) diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
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
        &[6, 512, 96], // above the parallel threshold
    ];
    for &shape in cases {
        let t = rand_tensor(shape, &mut rng);
        let want = t.transpose_naive().unwrap();
        for threads in [1, 2, 5] {
            set_num_threads(threads);
            let got = t.transpose().unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(
                got.data(),
                want.data(),
                "transpose {shape:?} diverges at {threads} threads"
            );
        }
    }
    set_num_threads(1);
}

/// Double-transpose is the identity, bit-for-bit, regardless of tiling.
#[test]
fn transpose_roundtrip_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x1D);
    set_num_threads(4);
    for &shape in &[[37usize, 53], [64, 64], [1, 200]] {
        let t = rand_tensor(&shape, &mut rng);
        let back = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
    }
    set_num_threads(1);
}

/// The whole-graph gate (formerly a process-global "reference mode" the
/// step bench flipped): forward + backward of a tanh/gelu MLP — matmuls,
/// the transposes autodiff puts in front of every backward matmul,
/// elementwise ops, reductions — through the buffer-reusing interpreter
/// at several thread counts equals the oracle bit for bit, loss and
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
    let want = eval_reference(&step, &inputs).unwrap();
    assert_eq!(want.len(), 3, "loss + two gradients");
    for threads in [1, 2, 5] {
        set_num_threads(threads);
        let got = eval(&step, &inputs).unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), w.shape());
            assert_eq!(
                g.data(),
                w.data(),
                "output {i} diverges from eval_reference at {threads} threads"
            );
        }
    }
    set_num_threads(1);
}
