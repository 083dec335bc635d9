//! Blocked CPU kernels for the executable MPMD path.
//!
//! These kernels are the backend standing in for per-device SPMD
//! compute (paper §4.1's XLA executables). Two invariants:
//!
//! 1. **Bit-compatibility.** For every output element the reduction
//!    order over the contraction axis is `p = 0, 1, …, k-1`, identical
//!    to the serial reference loops of [`crate::testing`]. Results are
//!    therefore equal (`==` on `f32`, which treats `-0.0 == 0.0`) to
//!    those loops for all finite inputs.
//! 2. **A kernel runs on its caller's thread.** Nothing here spawns a
//!    thread or reads the core count: an actor's kernels run on the
//!    actor's thread, and a stage that needs more cores gets them as
//!    `tp` rank actors (`shard_program`), whose time the trace, the
//!    ledger and the collective counters account for.
//!
//! The blocking strategy is register-level (GEBP): the matmul
//! micro-kernel accumulates an MR×NR output tile over the whole
//! contraction axis in registers, eliminating the naive `ikj` loop's
//! per-step output-row traffic and amortizing each `rhs` panel load
//! across MR·NR multiply-accumulates, with branch-free constant-bound
//! inner loops that auto-vectorize. Either operand may be stored
//! transposed (`Layout`): a transposed `rhs` is read by the packing,
//! a transposed `lhs` through the micro-kernel's stride pair, so the
//! interpreter never has to write out a transpose only matmuls read.
//!
//! A kernel writes its result into the `out` slice it is handed — the
//! buffer the result tensor keeps ([`crate::buffer`]), which may be a
//! spare holding stale values, so every output element is written — and
//! the matmul packs `rhs` into one panel per thread (`PANEL`), grown to
//! the largest `k·n` that thread has seen, never allocated per call.

use std::cell::RefCell;

/// Output rows per micro-kernel tile (register blocking factor).
const MR: usize = 8;

/// Output columns per micro-kernel tile. 64 f32 = four 512-bit (zmm)
/// vectors; the MR×NR accumulator block is 32 zmm, the whole vector
/// register file.
const NR: usize = 64;

/// How a matmul operand's buffer holds its logical `[rows, cols]`
/// matrix: row-major as is, or as its stored transpose `[cols, rows]` —
/// the layout the interpreter hands over when a `Transpose` feeds only
/// matmuls and is read in place instead of materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Row-major in the logical shape.
    Plain,
    /// Row-major in the transposed shape.
    Transposed,
}

/// Hand-vectorized AVX-512 micro-kernel, selected at runtime when the
/// host supports it. Uses separate `vmulps`/`vaddps` (never FMA), so
/// every output element sees the exact mul-then-add sequence of the
/// scalar tile — bit-identical results on every code path.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Whether the host can run [`tile`] and [`transpose8x8`].
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    /// Writes the transpose of the 8×8 block at `src` (row stride
    /// `lds`) to `dst` (row stride `ldd`): unpack, shuffle and lane
    /// permutes, pure data movement.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F (for its AVX subset), `src` valid for 8 rows
    /// of stride `lds` and width 8, and `dst` likewise with `ldd`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn transpose8x8(src: *const f32, lds: usize, dst: *mut f32, ldd: usize) {
        let r: [__m256; 8] = core::array::from_fn(|i| _mm256_loadu_ps(src.add(i * lds)));
        // Interleave row pairs, then pairs of pairs, then 128-bit lanes.
        let t = [
            _mm256_unpacklo_ps(r[0], r[1]),
            _mm256_unpackhi_ps(r[0], r[1]),
            _mm256_unpacklo_ps(r[2], r[3]),
            _mm256_unpackhi_ps(r[2], r[3]),
            _mm256_unpacklo_ps(r[4], r[5]),
            _mm256_unpackhi_ps(r[4], r[5]),
            _mm256_unpacklo_ps(r[6], r[7]),
            _mm256_unpackhi_ps(r[6], r[7]),
        ];
        let u = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        for i in 0..4 {
            let (a, b) = (u[i], u[i + 4]);
            _mm256_storeu_ps(dst.add(i * ldd), _mm256_permute2f128_ps::<0x20>(a, b));
            _mm256_storeu_ps(dst.add((i + 4) * ldd), _mm256_permute2f128_ps::<0x31>(a, b));
        }
    }

    /// Accumulates one full MR×NR output tile over `p = 0..k` in zmm
    /// registers and stores it to `out` (row stride `ldo`). Element
    /// `(r, p)` of the lhs block is `a[r·lda + p]`, or `a[p·lda + r]`
    /// when `COL_MAJOR` (a transposed lhs). The layout is a constant so
    /// each variant's broadcasts address with a fixed unit stride.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, `a` valid at every `(r, p)` for `r < MR`,
    /// `p < k`, `b` valid for `k` rows of stride `ldb` and width `NR`,
    /// and `out` valid for `MR` rows of stride `ldo` and width `NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile<const COL_MAJOR: bool>(
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
                let at = if COL_MAJOR { p * lda + r } else { r * lda + p };
                let av = _mm512_set1_ps(*a.add(at));
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

/// Block edge for packing a transposed `b`: one cache line of `f32`.
const PB: usize = 16;

/// `dst[p·ldd + j] = src[j·lds + p]` for `j < rows`, `p < cols`: one
/// block of a transposed `b` into its panel, eight-by-eight in vector
/// registers where the host has them and the block is eight rows tall.
fn transpose_block(
    src: &[f32],
    lds: usize,
    dst: &mut [f32],
    ldd: usize,
    (rows, cols): (usize, usize),
) {
    // Columns done in vector registers: every whole 8×8 block.
    #[cfg(target_arch = "x86_64")]
    let p0 = if rows == 8 && cols >= 8 && avx512::available() {
        // Rows 0..8 of `src` hold columns 0..cols, rows 0..cols of
        // `dst` hold columns 0..8: every block below is in bounds.
        assert!(7 * lds + cols <= src.len() && (cols - 1) * ldd + 8 <= dst.len());
        for p in (0..cols - 7).step_by(8) {
            // SAFETY: AVX-512F is present, and the assert above covers
            // block p..p+8 on both sides.
            unsafe {
                avx512::transpose8x8(src.as_ptr().add(p), lds, dst.as_mut_ptr().add(p * ldd), ldd);
            }
        }
        cols - cols % 8
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let p0 = 0;
    for p in p0..cols {
        for j in 0..rows {
            dst[p * ldd + j] = src[j * lds + p];
        }
    }
}

/// Packs the logical `[k,n]` matrix `b`, stored in `layout`, into
/// `packed` (`k·n` floats) as column panels of width [`NR`]: panel
/// `j0 = i·NR` (width `w = min(NR, n-j0)`) lives at offset `j0·k`, with
/// its row `p` stored contiguously at `j0·k + p·w`. The micro-kernel
/// then streams each panel sequentially (one cache line every few `p`
/// steps) instead of striding `n` floats — a page per step for large
/// `n`, which defeats the TLB and the prefetchers. A transposed `b`
/// (stored `[n,k]`) is transposed block by block into the panels — its
/// row `j` is panel column `j` — so no transposed copy of it is ever
/// written. Pure data
/// movement: values are untouched, so reduction order and
/// bit-compatibility are unaffected.
fn pack_b(b: &[f32], layout: Layout, k: usize, n: usize, packed: &mut [f32]) {
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(NR);
        let panel = &mut packed[j0 * k..(j0 + w) * k];
        match layout {
            Layout::Plain => {
                for p in 0..k {
                    panel[p * w..(p + 1) * w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                }
            }
            Layout::Transposed => {
                // PB values of `p` at a time: one cache line of each of
                // the `w` source rows, read once, while the PB panel
                // rows being written stay in L1 — even when `k` is a
                // power of two and the source rows share a cache set.
                for pb in (0..k).step_by(PB) {
                    let ph = (k - pb).min(PB);
                    for jb in (0..w).step_by(8) {
                        transpose_block(
                            &b[(j0 + jb) * k + pb..],
                            k,
                            &mut panel[pb * w + jb..],
                            w,
                            ((w - jb).min(8), ph),
                        );
                    }
                }
            }
        }
        j0 += w;
    }
}

/// `out[i][j] = Σ_p a(i,p) · b[p][j]` for every row `i` of `out`.
/// Element `(i, p)` of the lhs is `a[i·rs + p·cs]` — `(k, 1)` for a
/// plain lhs, `(1, m)` for a transposed one, whose `MR` values for one
/// `p` are then contiguous. `bp` is `b` packed by [`pack_b`].
///
/// GEBP-style micro-kernel: each MR×NR output tile accumulates over the
/// whole contraction axis in registers, so `out` is touched once per
/// tile and each packed `b` panel load feeds MR·NR multiply-accumulates.
/// The hot tile is hand-vectorized AVX-512 where available and a
/// constant-bound auto-vectorized loop elsewhere; edge tiles run the
/// same loops with runtime bounds. Reduction order per output element
/// is `p` ascending in either layout — bit-compatible with the naive
/// kernel (zero `a` entries contribute `±0.0`, which `f32::eq` treats
/// as equal to skipping them).
fn matmul_rows(
    (a, (rs, cs)): (&[f32], (usize, usize)),
    bp: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let wide = avx512::available();
    let rows = out.len() / n;
    let mut r0 = 0;
    while r0 < rows {
        let mr = (rows - r0).min(MR);
        let a0 = r0 * rs;
        let mut j0 = 0;
        while j0 < n {
            let nr = (n - j0).min(NR);
            let panel = &bp[j0 * k..j0 * k + nr * k];
            if mr == MR && nr == NR {
                #[cfg(target_arch = "x86_64")]
                if wide {
                    // SAFETY: AVX-512F is present (`wide`); the lhs
                    // holds rows r0..r0+MR at every p < k,
                    // `panel` holds k rows of NR floats, and `out` holds
                    // `rows ≥ r0+MR` rows of width n with columns
                    // j0..j0+NR in range. One of `rs`, `cs` is 1, so the
                    // two variants cover every stride pair.
                    unsafe {
                        let (ap, op) = (a.as_ptr().add(a0), out.as_mut_ptr().add(r0 * n + j0));
                        if cs == 1 {
                            avx512::tile::<false>(ap, rs, panel.as_ptr(), NR, k, op, n);
                        } else {
                            avx512::tile::<true>(ap, cs, panel.as_ptr(), NR, k, op, n);
                        }
                    }
                    j0 += nr;
                    continue;
                }
                // Hot path: constant bounds, accumulators in registers.
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &panel[p * NR..(p + 1) * NR];
                    for r in 0..MR {
                        let av = a[a0 + r * rs + p * cs];
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
                        let av = a[a0 + r * rs + p * cs];
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

thread_local! {
    /// This thread's pack panel for [`pack_b`], grown to the largest
    /// `k·n` the thread has multiplied and reused by every matmul after.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Blocked batched matmul `[batch,m,k] @ [batch,k,n]` into `out`
/// (`batch·m·n` floats, every one of them written), each operand stored
/// in its [`Layout`]; a 2-D matmul is `batch = 1`. Every output element
/// is the same `p`-ascending mul-then-add sequence in every layout, so a
/// transposed operand gives the bits of materialising its transpose
/// first.
pub(crate) fn batch_matmul(
    a: (&[f32], Layout),
    (b, b_layout): (&[f32], Layout),
    (batch, m, k, n): (usize, usize, usize, usize),
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), batch * m * n);
    if out.is_empty() || k == 0 {
        out.fill(0.0);
        return;
    }
    // The lhs's `(row, p)` element strides.
    let (a, strides) = match a {
        (a, Layout::Plain) => (a, (k, 1)),
        (a, Layout::Transposed) => (a, (1, m)),
    };
    PANEL.with_borrow_mut(|panel| {
        if panel.len() < k * n {
            *panel = vec![0.0; k * n];
        }
        let packed = &mut panel[..k * n];
        for ((a, b), out) in a
            .chunks_exact(m * k)
            .zip(b.chunks_exact(k * n))
            .zip(out.chunks_exact_mut(m * n))
        {
            pack_b(b, b_layout, k, n, packed);
            matmul_rows((a, strides), packed, out, k, n);
        }
    });
}

/// Cache-tile edge for the blocked transpose.
const TS: usize = 32;

/// Transposes one `[m,n]` slice into the `[n,m]` slice `dst`
/// (tile-blocked so both sides stream through cache).
fn transpose_tile(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    for jb in (0..n).step_by(TS) {
        let jhi = (jb + TS).min(n);
        for ib in (0..m).step_by(TS) {
            let ihi = (ib + TS).min(m);
            for j in jb..jhi {
                let drow = &mut dst[j * m..(j + 1) * m];
                for i in ib..ihi {
                    drow[i] = src[i * n + j];
                }
            }
        }
    }
}

/// Blocked batched transpose of the last two dims into `out`:
/// `[batch…, m, n] → [batch…, n, m]`, one slice after another.
pub(crate) fn transpose(src: &[f32], (batch, m, n): (usize, usize, usize), out: &mut [f32]) {
    debug_assert_eq!(out.len(), batch * m * n);
    if out.is_empty() {
        return;
    }
    for (src, dst) in src.chunks_exact(m * n).zip(out.chunks_exact_mut(m * n)) {
        transpose_tile(src, dst, m, n);
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::reference;
    use crate::{Prim, Tensor};

    fn seq(dims: &[usize]) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|i| (i as f32) * 0.37 - 3.0).collect()).unwrap()
    }

    /// The blocked kernel vs the reference.
    fn check(prim: Prim, dims: &[&[usize]]) {
        let inputs: Vec<Tensor> = dims.iter().map(|d| seq(d)).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let got = match prim {
            Prim::Transpose => inputs[0].transpose(),
            Prim::MatMul => inputs[0].matmul(&inputs[1]),
            _ => inputs[0].batch_matmul(&inputs[1]),
        };
        assert_eq!(got.unwrap(), reference(&prim, &refs).unwrap(), "{dims:?}");
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
            (130, 64, 48),
        ] {
            check(Prim::MatMul, &[&[m, k], &[k, n]]);
        }
    }

    #[test]
    fn transpose_tiles_match_naive() {
        for &(batch, m, n) in &[(1, 1, 1), (1, 33, 65), (3, 5, 7), (2, 32, 32), (1, 100, 3)] {
            check(Prim::Transpose, &[&[batch, m, n]]);
        }
    }

    #[test]
    fn batch_matmul_matches_naive() {
        for &(batch, m, k, n) in &[(1, 3, 4, 5), (4, 2, 3, 2), (2, 7, 5, 3), (0, 2, 2, 2)] {
            check(Prim::BatchMatMul, &[&[batch, m, k], &[batch, k, n]]);
        }
    }
}
