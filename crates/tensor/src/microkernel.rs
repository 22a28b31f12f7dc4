//! The register microkernel at the center of the packed GEMM path.
//!
//! One call computes an `MR × nr` tile of `C = A·B` from an A panel and a
//! B panel (layouts in [`crate::pack`]), walking the **entire** `k` extent
//! with one register accumulator per output element. `k` is deliberately
//! never split into cache tiles: a split would need either partial-sum
//! merging (a different rounding order than the scalar oracle) or
//! accumulation through memory (the pre-packing design this replaces, and
//! the reason it plateaued at a third of machine peak). With full-`k`
//! accumulation each output element is exactly the chain
//!
//! ```text
//! acc = 0; for p in 0..k { acc = b[p][j].mul_add(a[i][p], acc) }
//! ```
//!
//! — the same single ascending-`k` chain, with the same fused
//! multiply-add rounding, as the scalar bodies behind
//! [`crate::backend::ScalarBackend`]. That is what
//! makes the packed routines bitwise identical to the scalar oracle (and
//! therefore to themselves at any thread count or block size; see
//! `DESIGN.md` §12). The working set per call is `(MR + nr) * k` floats of
//! panel — at the shapes this workspace runs (`k ≤ a few thousand`) that
//! lives comfortably in L1/L2, which is why dropping the `KC` loop costs
//! nothing.
//!
//! `mul_add` compiles to a hardware FMA on every target this workspace
//! builds for (`.cargo/config.toml` sets `target-cpu=native`); on a
//! target without FMA it would fall back to a correctly rounded soft
//! implementation — same bits, much slower.
//!
//! The kernel is written as plain safe Rust over fixed-size arrays; with
//! the 512-bit-vector flag in `.cargo/config.toml` LLVM keeps the
//! `MR × NR` accumulator block (16 vector registers at the default
//! `4 × 64`) in registers and emits broadcast-FMA streams, reaching
//! ~120 GFLOP/s single-threaded on the reference AVX-512 host — against
//! ~31 for the pre-packing kernels (see `BENCH_kernels.json`).

/// Rows of `C` produced per microkernel call (the A-panel interleave).
pub const MR: usize = 4;

/// Columns of `C` produced per wide microkernel call (the B-panel
/// interleave). The wide kernel's accumulator block is `MR × NR` floats =
/// 16 AVX-512 registers.
pub const NR: usize = 64;

/// Narrow panel width for small-`n` problems where a 64-wide panel would
/// mostly compute zero-padding (see [`fn@crate::select`]).
pub const NR_NARROW: usize = 16;

/// Computes the `mr_eff × nr_eff` valid corner of one `MR × W` tile.
///
/// `apanel` is `k * MR` floats, `bpanel` is `k * W` floats (layouts in
/// [`crate::pack`]); the tile is **stored** (not accumulated) into `c`,
/// whose rows are `ldc` apart starting at `c[0]`. Padded panel lanes feed
/// accumulators that are dropped on store.
// BLAS-convention flat argument list: a geometry struct would be rebuilt
// per tile call in the driver's hot loop for no readability gain.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tile<const W: usize>(
    k: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; W]; MR];
    for (av, bv) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(W)).take(k) {
        // One rank-1 update step: broadcast each of the MR row operands
        // against the W-wide column vector. LLVM turns each inner line
        // into W/16 broadcast-FMAs with `acc` resident in registers.
        for (accrow, &a) in acc.iter_mut().zip(av) {
            for (dst, &b) in accrow.iter_mut().zip(bv) {
                *dst = b.mul_add(a, *dst);
            }
        }
    }
    for (r, accrow) in acc.iter().enumerate().take(mr_eff) {
        // pv-analyze: allow(hotpath-slice-index) -- strided store of the valid corner; bounds guaranteed by the driver's tile geometry
        c[r * ldc..r * ldc + nr_eff].copy_from_slice(&accrow[..nr_eff]);
    }
}

/// The wide ([`NR`]-column) microkernel.
#[allow(clippy::too_many_arguments)]
pub fn tile_wide(
    k: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    tile::<NR>(k, apanel, bpanel, c, ldc, mr_eff, nr_eff);
}

/// The `n == 1` dot microkernel: `mr_eff` rows of `y = A·x` from one
/// `MR`-row A panel.
///
/// `apanel` is `k * MR` floats in the [`crate::pack`] interleave, `x` the
/// single operand column (`x[..k]` is read); the `mr_eff ≤ MR` valid rows
/// are **stored** into `y`. Each output element is the chain
/// `acc = x[p].mul_add(a[i][p], acc)` over ascending `p` — the same
/// single-accumulator chain as the scalar oracle and the B-panel tiles,
/// so the packed dot routine stays bitwise identical to both. LLVM keeps
/// the `MR` accumulators in one vector register and emits a
/// gather-free FMA stream over the interleaved panel.
pub fn dot_mr(k: usize, apanel: &[f32], x: &[f32], y: &mut [f32]) {
    let mut acc = [0.0f32; MR];
    for (av, &xv) in apanel.chunks_exact(MR).zip(x).take(k) {
        for (dst, &a) in acc.iter_mut().zip(av) {
            *dst = xv.mul_add(a, *dst);
        }
    }
    for (dst, &a) in y.iter_mut().zip(&acc) {
        *dst = a;
    }
}

/// The narrow ([`NR_NARROW`]-column) microkernel.
#[allow(clippy::too_many_arguments)]
pub fn tile_narrow(
    k: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    tile::<NR_NARROW>(k, apanel, bpanel, c, ldc, mr_eff, nr_eff);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_matches_scalar_chain_bitwise() {
        let (k, ldc) = (23, NR + 3);
        let apanel: Vec<f32> = (0..k * MR)
            .map(|i| ((i * 7 % 13) as f32) * 0.37 - 1.7)
            .collect();
        let bpanel: Vec<f32> = (0..k * NR)
            .map(|i| ((i * 5 % 17) as f32) * 0.21 - 0.9)
            .collect();
        let mut c = vec![0.0f32; MR * ldc];
        tile_wide(k, &apanel, &bpanel, &mut c, ldc, MR, NR);
        for r in 0..MR {
            for j in 0..NR {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = bpanel[p * NR + j].mul_add(apanel[p * MR + r], acc);
                }
                assert_eq!(c[r * ldc + j].to_bits(), acc.to_bits(), "({r},{j})");
            }
        }
        // cells past nr_eff / mr_eff untouched
        assert_eq!(c[NR], 0.0);
    }

    #[test]
    fn partial_tile_stores_only_valid_corner() {
        let k = 5;
        let apanel = vec![1.0f32; k * MR];
        let bpanel = vec![1.0f32; k * NR_NARROW];
        let mut c = vec![-3.0f32; MR * NR_NARROW];
        tile_narrow(k, &apanel, &bpanel, &mut c, NR_NARROW, 2, 3);
        for r in 0..MR {
            for j in 0..NR_NARROW {
                let expect = if r < 2 && j < 3 { k as f32 } else { -3.0 };
                assert_eq!(c[r * NR_NARROW + j], expect, "({r},{j})");
            }
        }
    }

    #[test]
    fn zero_k_stores_zeros() {
        let mut c = vec![7.0f32; MR * NR];
        tile_wide(0, &[], &[], &mut c, NR, MR, NR);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dot_kernel_matches_scalar_chain_bitwise() {
        let k = 37;
        let apanel: Vec<f32> = (0..k * MR)
            .map(|i| ((i * 11 % 19) as f32) * 0.43 - 2.1)
            .collect();
        let x: Vec<f32> = (0..k).map(|i| ((i * 3 % 7) as f32) * 0.59 - 1.3).collect();
        let mut y = vec![0.0f32; MR];
        dot_mr(k, &apanel, &x, &mut y);
        for r in 0..MR {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = x[p].mul_add(apanel[p * MR + r], acc);
            }
            assert_eq!(y[r].to_bits(), acc.to_bits(), "row {r}");
        }
    }

    #[test]
    fn dot_kernel_partial_rows_and_zero_k() {
        let k = 4;
        let apanel = vec![2.0f32; k * MR];
        let x = vec![0.5f32; k];
        let mut y = vec![-9.0f32; 2];
        dot_mr(k, &apanel, &x, &mut y);
        assert_eq!(y, vec![4.0, 4.0]);
        let mut y0 = vec![-9.0f32; MR];
        dot_mr(0, &[], &[], &mut y0);
        assert!(y0.iter().all(|&v| v == 0.0));
    }
}
