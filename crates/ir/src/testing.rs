//! Test support. For the kernels and the interpreter: the serial oracle
//! they must equal bit for bit ([`reference()`], [`reference_eval`]), an
//! entry that runs the blocked matmuls on operands stored transposed
//! ([`in_layouts`]), and a handle on the calling thread's spare list
//! ([`seed_spares`], [`spares`] and its three bounds), so a test can
//! hand a kernel a stale buffer and see what a drop keeps. For the
//! decoders of untrusted bytes: one mutator that derives damaged inputs
//! from well-formed ones. Two allocation probes observe (rather than
//! argue) a memory bound: [`largest_allocation`] and
//! [`allocations_at_least`].
//!
//! The probes see only what [`NoteLargest`] notes, so a test binary that
//! uses them declares the allocator once:
//!
//! ```
//! #[global_allocator]
//! static ALLOCATOR: raxpp_ir::testing::NoteLargest = raxpp_ir::testing::NoteLargest;
//!
//! fn main() {
//!     let allocate = || drop(std::hint::black_box(vec![0u8; 100]));
//!     let largest = raxpp_ir::testing::largest_allocation(allocate);
//!     assert_eq!(largest, 100);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub use crate::buffer::{MAX_SPARES, MAX_SPARE_BYTES, MIN_SPARE_FLOATS};
use crate::error::{IrError, Result};
use crate::graph::Jaxpr;
use crate::interp::eval_prim;
use crate::kernels;
use crate::prim::Prim;
use crate::rng::{Rng, SeedableRng, StdRng};
use crate::tensor::Tensor;

/// `prim` on concrete tensors, with the matmul, batched matmul and
/// transpose computed by serial reference loops and every other
/// primitive by [`eval_prim`]. The matmul loops run `i`, then `p`
/// ascending, then `j`, and skip a zero lhs entry, which can only turn a
/// `-0.0` into `0.0`: the blocked kernels, which reduce over `p` in the
/// same order, equal it under `f32 ==`.
///
/// # Errors
///
/// As [`eval_prim`].
pub fn reference(prim: &Prim, inputs: &[&Tensor]) -> Result<Tensor> {
    let (shape, data) = match (prim, inputs) {
        (Prim::MatMul | Prim::BatchMatMul, [a, b]) => {
            let shape = match prim {
                Prim::MatMul => a.shape().matmul(b.shape())?,
                _ => a.shape().batch_matmul(b.shape())?,
            };
            let r = a.shape().rank();
            let batch: usize = a.shape().dims()[..r - 2].iter().product();
            let (m, k, n) = (
                a.shape().dim(r - 2),
                a.shape().dim(r - 1),
                b.shape().dim(r - 1),
            );
            let mut out = vec![0.0f32; batch * m * n];
            for (row, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
                let bi = row / m;
                for p in 0..k {
                    let av = a.data()[row * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b.data()[(bi * k + p) * n..(bi * k + p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            (shape, out)
        }
        (Prim::Transpose, [t]) => {
            let shape = t.shape().transposed()?;
            let r = shape.rank();
            let (m, n) = (t.shape().dim(r - 2), t.shape().dim(r - 1));
            let mut out = vec![0.0f32; t.numel()];
            for (flat, &v) in t.data().iter().enumerate() {
                let (slice, i, j) = (flat / (m * n), flat / n % m, flat % n);
                out[slice * m * n + j * m + i] = v;
            }
            (shape, out)
        }
        _ => return eval_prim(prim, inputs),
    };
    Ok(Tensor::from_parts(shape, data))
}

/// Evaluates `jaxpr` equation by equation through [`reference()`], each
/// equation allocating its output and every value kept to the end: no
/// buffer reuse, no in-place write, no transpose read in place. The
/// oracle [`crate::eval`] must equal bit for bit.
///
/// # Errors
///
/// An input count or shape that differs from the graph's, or any
/// primitive's error.
pub fn reference_eval(jaxpr: &Jaxpr, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
    let declared: Vec<_> = jaxpr.invars().iter().map(|&v| jaxpr.shape(v)).collect();
    let given: Vec<_> = inputs.iter().map(Tensor::shape).collect();
    if declared != given {
        return Err(IrError::Invalid(format!(
            "reference_eval: inputs {given:?}, graph takes {declared:?}"
        )));
    }
    let mut env: Vec<Option<Tensor>> = vec![None; jaxpr.num_vars()];
    for (&v, t) in jaxpr.invars().iter().zip(inputs) {
        env[v.index()] = Some(t.clone());
    }
    let get = |env: &[Option<Tensor>], v: crate::VarId| {
        env[v.index()].clone().ok_or(IrError::InvalidVar {
            context: "reference_eval".into(),
            var: v.0,
        })
    };
    for eqn in jaxpr.eqns() {
        let operands = eqn
            .inputs
            .iter()
            .map(|&v| get(&env, v))
            .collect::<Result<Vec<_>>>()?;
        let operands: Vec<&Tensor> = operands.iter().collect();
        env[eqn.output.index()] = Some(reference(&eqn.prim, &operands)?);
    }
    jaxpr.outvars().iter().map(|&v| get(&env, v)).collect()
}

/// `prim` — `MatMul` or `BatchMatMul` — on the blocked kernels, each
/// operand paired with whether its buffer holds the transpose of the
/// matrix it stands for; such an operand is read in place, as the
/// interpreter reads a transpose only matmuls consume.
///
/// # Errors
///
/// The shape errors of [`Tensor::matmul`] and [`Tensor::batch_matmul`].
///
/// # Panics
///
/// Panics on any other primitive.
pub fn in_layouts(prim: &Prim, [(a, ta), (b, tb)]: [(&Tensor, bool); 2]) -> Result<Tensor> {
    let layout = |transposed| match transposed {
        true => kernels::Layout::Transposed,
        false => kernels::Layout::Plain,
    };
    let batched = match prim {
        Prim::MatMul => false,
        Prim::BatchMatMul => true,
        _ => panic!("in_layouts runs a matmul, not {}", prim.name()),
    };
    a.product((layout(ta), b, layout(tb)), batched)
}

/// Replaces the calling thread's spare list with `count` buffers of
/// `len` floats, each filled with `value` — NaN makes any element a
/// kernel leaves unwritten show. The list's caps still bound it; its
/// size threshold does not, so a kernel of any output length can be
/// handed a stale buffer.
pub fn seed_spares(len: usize, count: usize, value: f32) {
    crate::buffer::seed(len, count, value);
}

/// The lengths (in floats) of the buffers on the calling thread's spare
/// list, oldest first.
pub fn spares() -> Vec<usize> {
    crate::buffer::lens()
}

/// How many sizes [`allocations_at_least`] records.
const NOTED: usize = 16;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// `(least size noted, requests noted, their sizes)`.
    static AT_LEAST: Cell<(usize, usize, [usize; NOTED])> =
        const { Cell::new((usize::MAX, 0, [0; NOTED])) };
}

/// The system allocator, noting each thread's largest request and, while
/// [`allocations_at_least`] runs, the size of every request it asked
/// about.
#[derive(Debug)]
pub struct NoteLargest;

fn note(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    let _ = AT_LEAST.try_with(|c| {
        let (least, n, mut sizes) = c.get();
        if size >= least {
            if let Some(slot) = sizes.get_mut(n) {
                *slot = size;
            }
            c.set((least, n + 1, sizes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` keeps the allocator contract; `note` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note(size);
        // SAFETY: `p` came from `System` (every block here does), and the
        // caller's `realloc` contract is passed on.
        unsafe { System.realloc(p, layout, size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

/// Panics unless [`NoteLargest`] is the global allocator (nothing would
/// be noted, and every bound would pass).
fn assert_noting() {
    LARGEST.with(|l| l.set(0));
    drop(std::hint::black_box(vec![0u8; 1]));
    assert!(
        LARGEST.with(Cell::get) > 0,
        "NoteLargest must be the global allocator"
    );
}

/// The largest single allocation the calling thread made while `f` ran.
///
/// # Panics
///
/// [`NoteLargest`] is not the global allocator.
pub fn largest_allocation(f: impl FnOnce()) -> usize {
    assert_noting();
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// The sizes in bytes, in order, of the calling thread's allocations of
/// at least `bytes` bytes while `f` ran.
///
/// # Panics
///
/// [`NoteLargest`] is not the global allocator, or `f` made more than
/// 16 such allocations.
pub fn allocations_at_least(bytes: usize, f: impl FnOnce()) -> Vec<usize> {
    assert_noting();
    AT_LEAST.set((bytes, 0, [0; NOTED]));
    f();
    let (_, n, sizes) = AT_LEAST.replace((usize::MAX, 0, [0; NOTED]));
    assert!(n <= NOTED, "{n} allocations of >= {bytes} B, {NOTED} noted");
    sizes[..n].to_vec()
}

/// Damaged variants of the well-formed inputs `seeds`, drawn from
/// `seed`: for every seed, a random non-zero byte flip at every offset
/// and `0xFF…` over every 4- and 8-byte window (which covers each
/// `u32` / `u64` count and length field wherever it sits); then, for
/// every ordered pair of seeds, the two back to back and eight random
/// splices of a head of the first onto a tail of the second.
pub fn mutants(seeds: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for s in seeds {
        for at in 0..s.len() {
            let mut flipped = s.clone();
            flipped[at] ^= rng.gen_range(1..256u16) as u8;
            out.push(flipped);
            for width in [4, 8] {
                if at + width <= s.len() {
                    let mut edited = s.clone();
                    edited[at..at + width].fill(0xFF);
                    out.push(edited);
                }
            }
        }
    }
    for a in seeds {
        for b in seeds {
            out.push([a.as_slice(), b].concat());
            for _ in 0..8 {
                let head = &a[..rng.gen_range(0..a.len() + 1)];
                let tail = &b[rng.gen_range(0..b.len() + 1)..];
                out.push([head, tail].concat());
            }
        }
    }
    out
}
