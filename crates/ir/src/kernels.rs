//! Blocked, multi-threaded CPU kernels for the executable MPMD path.
//!
//! The seed repo shipped naive single-threaded reference loops; these
//! kernels are the "real" backend standing in for per-device SPMD
//! compute (paper §4.1's XLA executables). Two invariants:
//!
//! 1. **Bit-compatibility.** For every output element the reduction
//!    order over the contraction axis is `p = 0, 1, …, k-1`, identical
//!    to the reference kernels, and row partitions never split a
//!    reduction. Results are therefore equal (`==` on `f32`, which
//!    treats `-0.0 == 0.0`) to the naive loops for all finite inputs,
//!    independent of the thread count.
//! 2. **Graceful degradation.** Small problems fall back to the serial
//!    path; `RAXPP_THREADS` (or [`set_num_threads`]) caps the worker
//!    count, defaulting to the machine's available parallelism.
//!
//! The blocking strategy is register-level (GEBP): the matmul
//! micro-kernel accumulates an MR×NR output tile over the whole
//! contraction axis in registers, eliminating the naive `ikj` loop's
//! per-step output-row traffic and amortizing each `rhs` panel load
//! across MR·NR multiply-accumulates, with branch-free constant-bound
//! inner loops that auto-vectorize.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Unset sentinel for the global thread-count cell.
const UNSET: usize = 0;

static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Minimum multiply-accumulate count before threads are worth spawning.
const PAR_MIN_MACS: usize = 1 << 20;

/// Minimum element count before a parallel transpose is worth it.
const PAR_MIN_ELEMS: usize = 1 << 18;

/// Output rows per micro-kernel tile (register blocking factor).
const MR: usize = 8;

/// Output columns per micro-kernel tile. 32 f32 = two 512-bit (or four
/// 256-bit) vectors; the MR×NR accumulator block maps onto the vector
/// register file.
const NR: usize = 64;

/// Hand-vectorized AVX-512 micro-kernel, selected at runtime when the
/// host supports it. Uses separate `vmulps`/`vaddps` (never FMA), so
/// every output element sees the exact mul-then-add sequence of the
/// scalar tile — bit-identical results on every code path.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Whether the host can run [`tile`].
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Accumulates one full MR×NR output tile over `p = 0..k` in zmm
    /// registers and stores it to `out` (row stride `ldo`).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, `a` valid for `MR` rows of stride `lda` and
    /// length `k`, `b` valid for `k` rows of stride `ldb` and width
    /// `NR`, and `out` valid for `MR` rows of stride `ldo` and width
    /// `NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile(
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        k: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        const COLS: usize = NR / 16;
        const { assert!(NR.is_multiple_of(16), "NR must be whole zmm vectors") };
        let mut acc = [[_mm512_setzero_ps(); COLS]; MR];
        for p in 0..k {
            let mut bv = [_mm512_setzero_ps(); COLS];
            for (c, slot) in bv.iter_mut().enumerate() {
                *slot = _mm512_loadu_ps(b.add(p * ldb + 16 * c));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * lda + p));
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = _mm512_add_ps(*slot, _mm512_mul_ps(av, bv[c]));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                _mm512_storeu_ps(out.add(r * ldo + 16 * c), v);
            }
        }
    }
}

/// Returns the kernel worker-thread budget.
///
/// Resolution order: [`set_num_threads`] override, then the
/// `RAXPP_THREADS` environment variable, then
/// `std::thread::available_parallelism()`.
///
/// # Panics
///
/// Panics when `RAXPP_THREADS` is set to anything but a positive whole
/// number.
pub fn num_threads() -> usize {
    let cached = THREADS.load(Ordering::Relaxed);
    if cached != UNSET {
        return cached;
    }
    let n = threads_from(std::env::var("RAXPP_THREADS").ok().as_deref());
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// The thread budget a `RAXPP_THREADS` value selects: every core when
/// unset or blank, the number when it is a positive whole number.
///
/// # Panics
///
/// Panics on any other value, naming the variable and the value — a
/// mistyped knob must not quietly select the default (the rule
/// `raxpp-runtime`'s `env.rs` applies to its knobs).
fn threads_from(raw: Option<&str>) -> usize {
    match raw.map(str::trim).filter(|v| !v.is_empty()) {
        None => cores(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("RAXPP_THREADS={v:?} is not a positive whole number"),
        },
    }
}

/// Overrides the kernel worker-thread budget for this process
/// (takes precedence over `RAXPP_THREADS`).
///
/// # Panics
///
/// Panics when `n` is zero.
pub fn set_num_threads(n: usize) {
    assert!(n > 0, "thread count must be positive");
    THREADS.store(n, Ordering::Relaxed);
}

/// The machine's core budget (cached; 1 when detection fails).
fn cores() -> usize {
    static CORES: AtomicUsize = AtomicUsize::new(UNSET);
    let cached = CORES.load(Ordering::Relaxed);
    if cached != UNSET {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    CORES.store(n, Ordering::Relaxed);
    n
}

/// Threads to use for a problem with `macs` multiply-accumulates and
/// `rows` independent row partitions. The configured budget is capped
/// at the core count — oversubscribing cores only adds spawn and
/// scheduling overhead, it cannot speed up a compute-bound kernel.
fn plan_threads(macs: usize, rows: usize) -> usize {
    if macs < PAR_MIN_MACS {
        return 1;
    }
    num_threads().min(cores()).min(rows.div_ceil(MR)).max(1)
}

/// Runs `work(index, chunk)` over the `size`-element chunks of `out` in
/// parallel: one scoped worker per chunk after the first, and the first
/// chunk on the calling thread — which would otherwise sit parked in
/// `thread::scope` while one more worker than needed competes with the
/// other actors' kernels for the cores.
fn par_chunks(out: &mut [f32], size: usize, work: impl Fn(usize, &mut [f32]) + Sync) {
    let work = &work;
    let mut chunks = out.chunks_mut(size).enumerate();
    let first = chunks.next();
    std::thread::scope(|s| {
        for (ci, chunk) in chunks {
            s.spawn(move || work(ci, chunk));
        }
        if let Some((ci, chunk)) = first {
            work(ci, chunk);
        }
    });
}

/// Packs `b` (`[k,n]` row-major) into column panels of width [`NR`]:
/// panel `j0 = i·NR` (width `w = min(NR, n-j0)`) lives at offset
/// `j0·k`, with its row `p` stored contiguously at `j0·k + p·w`. The
/// micro-kernel then streams each panel sequentially (one cache line
/// every few `p` steps) instead of striding `n` floats — a page per
/// step for large `n`, which defeats the TLB and the prefetchers.
/// Pure data movement: values are untouched, so reduction order and
/// bit-compatibility are unaffected.
fn pack_b(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(NR);
        let panel = &mut packed[j0 * k..j0 * k + w * k];
        for p in 0..k {
            panel[p * w..(p + 1) * w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
        j0 += w;
    }
    packed
}

/// `out[i][j] = Σ_p a[i][p] · b[p][j]` for global rows `row0..row0+rows`
/// of `a`, writing into `out` (which holds exactly those rows, zeroed).
/// `bp` is `b` packed by [`pack_b`].
///
/// GEBP-style micro-kernel: each MR×NR output tile accumulates over the
/// whole contraction axis in registers, so `out` is touched once per
/// tile and each packed `b` panel load feeds MR·NR multiply-accumulates.
/// The hot tile is hand-vectorized AVX-512 where available and a
/// constant-bound auto-vectorized loop elsewhere; edge tiles run the
/// same loops with runtime bounds. Reduction order per output element
/// is `p` ascending — bit-compatible with the naive kernel (zero `a`
/// entries contribute `±0.0`, which `f32::eq` treats as equal to
/// skipping them).
fn matmul_rows(a: &[f32], bp: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let wide = avx512::available();
    let rows = out.len() / n;
    let mut r0 = 0;
    while r0 < rows {
        let mr = (rows - r0).min(MR);
        let mut j0 = 0;
        while j0 < n {
            let nr = (n - j0).min(NR);
            let panel = &bp[j0 * k..j0 * k + nr * k];
            if mr == MR && nr == NR {
                #[cfg(target_arch = "x86_64")]
                if wide {
                    // Bounds: `panel` holds k rows of NR floats and
                    // `out` holds `rows ≥ r0+MR` rows of width n with
                    // columns j0..j0+NR in range.
                    unsafe {
                        avx512::tile(
                            a.as_ptr().add((row0 + r0) * k),
                            k,
                            panel.as_ptr(),
                            NR,
                            k,
                            out.as_mut_ptr().add(r0 * n + j0),
                            n,
                        );
                    }
                    j0 += nr;
                    continue;
                }
                // Hot path: constant bounds, accumulators in registers.
                let ar: [&[f32]; MR] =
                    core::array::from_fn(|r| &a[(row0 + r0 + r) * k..(row0 + r0 + r + 1) * k]);
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &panel[p * NR..(p + 1) * NR];
                    for r in 0..MR {
                        let av = ar[r][p];
                        for j in 0..NR {
                            acc[r][j] += av * brow[j];
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    let o = (r0 + r) * n + j0;
                    out[o..o + NR].copy_from_slice(row);
                }
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &panel[p * nr..(p + 1) * nr];
                    for r in 0..mr {
                        let av = a[(row0 + r0 + r) * k + p];
                        for (j, &bv) in brow.iter().enumerate() {
                            acc[r][j] += av * bv;
                        }
                    }
                }
                for (r, row) in acc.iter().take(mr).enumerate() {
                    let o = (r0 + r) * n + j0;
                    out[o..o + nr].copy_from_slice(&row[..nr]);
                }
            }
            j0 += nr;
        }
        r0 += mr;
    }
}

/// Blocked, parallel 2-D matmul: `[m,k] @ [k,n]` into a fresh buffer.
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if n == 0 || k == 0 || m == 0 {
        return out;
    }
    let bp = pack_b(b, k, n);
    let nt = plan_threads(m * k * n, m);
    if nt <= 1 {
        matmul_rows(a, &bp, &mut out, 0, k, n);
        return out;
    }
    let rows_per = m.div_ceil(nt);
    par_chunks(&mut out, rows_per * n, |ci, chunk| {
        matmul_rows(a, &bp, chunk, ci * rows_per, k, n)
    });
    out
}

/// One batch slice's rows for the batched matmul (`bp` holds each
/// batch's `b` slice packed by [`pack_b`], concatenated).
fn batch_rows(a: &[f32], bp: &[f32], out: &mut [f32], grow0: usize, m: usize, k: usize, n: usize) {
    // Global rows grow0..grow0+rows index into [batch, m] jointly.
    let rows = out.len() / n.max(1);
    let mut done = 0;
    while done < rows {
        let grow = grow0 + done;
        let (bi, i) = (grow / m, grow % m);
        let span = (m - i).min(rows - done);
        let a_slice = &a[bi * m * k..(bi + 1) * m * k];
        let b_slice = &bp[bi * k * n..(bi + 1) * k * n];
        matmul_rows(
            a_slice,
            b_slice,
            &mut out[done * n..(done + span) * n],
            i,
            k,
            n,
        );
        done += span;
    }
}

/// Blocked, parallel batched matmul: `[batch,m,k] @ [batch,k,n]`.
pub(crate) fn batch_matmul(
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    if n == 0 || k == 0 || m == 0 {
        return out;
    }
    let mut packed = vec![0.0f32; batch * k * n];
    for bi in 0..batch {
        packed[bi * k * n..(bi + 1) * k * n].copy_from_slice(&pack_b(
            &b[bi * k * n..(bi + 1) * k * n],
            k,
            n,
        ));
    }
    let total_rows = batch * m;
    let nt = plan_threads(batch * m * k * n, total_rows);
    if nt <= 1 {
        batch_rows(a, &packed, &mut out, 0, m, k, n);
        return out;
    }
    let rows_per = total_rows.div_ceil(nt);
    par_chunks(&mut out, rows_per * n, |ci, chunk| {
        batch_rows(a, &packed, chunk, ci * rows_per, m, k, n)
    });
    out
}

/// Cache-tile edge for the blocked transpose.
const TS: usize = 32;

/// Transposes one `[m,n]` slice into `dst` rows `j0..j0+jrows` of the
/// `[n,m]` output (tile-blocked so both sides stream through cache).
fn transpose_tile(src: &[f32], dst: &mut [f32], j0: usize, jrows: usize, m: usize, n: usize) {
    for jb in (0..jrows).step_by(TS) {
        let jhi = (jb + TS).min(jrows);
        for ib in (0..m).step_by(TS) {
            let ihi = (ib + TS).min(m);
            for j in jb..jhi {
                let drow = &mut dst[j * m..(j + 1) * m];
                for i in ib..ihi {
                    drow[i] = src[i * n + (j0 + j)];
                }
            }
        }
    }
}

/// Blocked, parallel batched transpose of the last two dims:
/// `[batch…, m, n] → [batch…, n, m]`.
pub(crate) fn transpose(src: &[f32], batch: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let nt = if batch * m * n < PAR_MIN_ELEMS {
        1
    } else {
        num_threads().min(cores())
    };
    if nt <= 1 || batch > 1 {
        // Batched case: parallelize over batch slices instead of rows.
        if nt > 1 {
            let per = batch.div_ceil(nt);
            par_chunks(&mut out, per * m * n, |ci, chunk| {
                for (bi, slot) in chunk.chunks_mut(m * n).enumerate() {
                    let b = ci * per + bi;
                    transpose_tile(&src[b * m * n..(b + 1) * m * n], slot, 0, n, m, n);
                }
            });
        } else {
            for b in 0..batch {
                transpose_tile(
                    &src[b * m * n..(b + 1) * m * n],
                    &mut out[b * m * n..(b + 1) * m * n],
                    0,
                    n,
                    m,
                    n,
                );
            }
        }
        return out;
    }
    // Single large matrix: parallelize over output row ranges.
    let jrows_per = n.div_ceil(nt);
    par_chunks(&mut out, jrows_per * m, |ci, chunk| {
        transpose_tile(src, chunk, ci * jrows_per, chunk.len() / m, m, n)
    });
    out
}

/// Naive reference matmul (the seed repo's kernel, kept verbatim as
/// the oracle of the parity tests).
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
    out
}

/// Naive reference batched matmul (seed kernel).
pub fn batch_matmul_naive(
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        let slice = matmul_naive(
            &a[bi * m * k..(bi + 1) * m * k],
            &b[bi * k * n..(bi + 1) * k * n],
            m,
            k,
            n,
        );
        out[bi * m * n..(bi + 1) * m * n].copy_from_slice(&slice);
    }
    out
}

/// Naive reference batched transpose (seed kernel).
pub fn transpose_naive(src: &[f32], batch: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; batch * m * n];
    for b in 0..batch {
        let s = &src[b * m * n..(b + 1) * m * n];
        let d = &mut out[b * m * n..(b + 1) * m * n];
        for i in 0..m {
            for j in 0..n {
                d[j * m + i] = s[i * n + j];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.37 - 3.0).collect()
    }

    #[test]
    fn thread_knob_never_quietly_selects_the_default() {
        for raw in [None, Some(""), Some("  ")] {
            assert_eq!(threads_from(raw), cores(), "{raw:?}");
        }
        assert_eq!(threads_from(Some(" 3 ")), 3);
        for raw in ["two", "0", "-1", "1.5"] {
            let message = *std::panic::catch_unwind(|| threads_from(Some(raw)))
                .expect_err("a mistyped value must be refused")
                .downcast::<String>()
                .expect("panic carries a String");
            for part in ["RAXPP_THREADS", raw, "a positive whole number"] {
                assert!(message.contains(part), "{message:?} does not name {part:?}");
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 3, 7),
            (4, 4, 4),
            (9, 1, 2),
            (2, 17, 33),
            (65, 33, 17),
        ] {
            let a = seq(m * k);
            let b = seq(k * n);
            assert_eq!(
                matmul(&a, &b, m, k, n),
                matmul_naive(&a, &b, m, k, n),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn parallel_partition_is_thread_count_invariant() {
        let (m, k, n) = (130, 64, 48);
        let a = seq(m * k);
        let b = seq(k * n);
        let want = matmul_naive(&a, &b, m, k, n);
        // Force the parallel path by making the size check irrelevant:
        // run matmul_rows chunked by hand for several partition widths.
        let bp = pack_b(&b, k, n);
        for nt in [1usize, 2, 3, 5, 8] {
            let rows_per = m.div_ceil(nt);
            let mut out = vec![0.0f32; m * n];
            for (ci, chunk) in out.chunks_mut(rows_per * n).enumerate() {
                matmul_rows(&a, &bp, chunk, ci * rows_per, k, n);
            }
            assert_eq!(out, want, "nt={nt}");
        }
    }

    #[test]
    fn transpose_tiles_match_naive() {
        for &(batch, m, n) in &[(1, 1, 1), (1, 33, 65), (3, 5, 7), (2, 32, 32), (1, 100, 3)] {
            let src = seq(batch * m * n);
            assert_eq!(
                transpose(&src, batch, m, n),
                transpose_naive(&src, batch, m, n),
                "({batch},{m},{n})"
            );
        }
    }

    #[test]
    fn batch_matmul_matches_naive() {
        for &(batch, m, k, n) in &[(1, 3, 4, 5), (4, 2, 3, 2), (2, 7, 5, 3), (0, 2, 2, 2)] {
            let a = seq(batch * m * k);
            let b = seq(batch * k * n);
            assert_eq!(
                batch_matmul(&a, &b, batch, m, k, n),
                batch_matmul_naive(&a, &b, batch, m, k, n),
                "({batch},{m},{k},{n})"
            );
        }
    }

    #[test]
    fn thread_knob_roundtrips() {
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
    }
}
