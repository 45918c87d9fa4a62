//! Cache-blocked, bit-exact parallel matrix multiplication.
//!
//! The kernel underneath every Dense layer, every im2col convolution and
//! every kernel-matrix in `ml`. The seed kernel was a row-parallel ikj
//! loop: for each output row, ascending-`kk` saxpy passes over the full
//! width of `B`, skipping exact structural zeros of `A`. These kernels
//! keep *that accumulation order per output element* — ascending `kk`,
//! zero-skip included, one accumulator per element — while reorganising
//! the loops for cache reuse and wider parallelism:
//!
//! * **i-blocking**: rows are distributed over the persistent pool in
//!   blocks (each element's history is untouched — rows are independent).
//! * **sequential in-order k-blocking**: `kk` is processed in `KC`-sized
//!   blocks, *in order*, so for every `(i, j)` the contributions still
//!   arrive in ascending `kk` — this is the determinism argument: f32
//!   addition is not associative, but we never reassociate, we only
//!   re-nest loops around an order-preserving chain.
//! * **j-tiling**: within a k-block, columns are walked in `NC`-sized
//!   panels so the `KC×NC` slab of `B` stays cache-resident across all
//!   rows of the block. Elements of a row are independent, so j-order is
//!   irrelevant to the result.
//! * **4-way unrolled saxpy bundles**: four consecutive `kk` taps are
//!   fused into one pass over the panel, written left-associatively
//!   (`((((o + a0·b0) + a1·b1) + a2·b2) + a3·b3)`) — the exact same
//!   per-element chain as four sequential passes. A bundle is only taken
//!   when all four `a` taps are nonzero; otherwise the scalar zero-skip
//!   path runs, preserving the seed's sparsity semantics bit for bit
//!   (skipping a tap is *not* the same as adding `0.0·b` when the
//!   accumulator is `-0.0` or `b` is non-finite).
//! * the `m == 1` row-vector case — every batch-1 Dense — parallelises
//!   over column blocks instead of staying serial.
//!
//! `A·Bᵀ` ([`gemm_nt_into`]: conv `dW`, Dense `dx`, the GRU/LSTM `dx`
//! and `dh` products) keeps a different seed chain: one dot product per
//! element, `s = -0.0; for kk ascending { s += a[i,kk]·b[j,kk] }`, with
//! no zero-skip. The kernel computes exactly that chain, many elements
//! at a time:
//!
//! * **pack the smaller operand** k-major into `NT_W`-lane tiles of a
//!   reused panel, and run each `NT_R × NT_W` register tile over the
//!   whole `k` range as rank-1 updates — one broadcast tap of the other
//!   operand times `NT_W` contiguous lanes per `kk`, in ascending `kk`.
//!   Each lane is one element's chain, so SIMD width buys throughput
//!   without reassociating anything.
//! * **orientation**: when `A` is the smaller operand (`m < n`, e.g. conv
//!   `dW` with few filters, Dense `dx` at small batch) it is the one
//!   packed, the kernel computes `outᵀ = B·Aᵀ` and transposes it back.
//!   IEEE multiplication is commutative, so `b·a` is the same bits as
//!   `a·b` and every element keeps its chain. Packing `B` instead would
//!   transpose the whole weight matrix of a Dense layer on every step.
//! * **seed `-0.0`**: `-0.0` is the additive identity (`x + -0.0 == x`
//!   for every `x`), which is what `f32::sum` folds from; a `+0.0` seed
//!   would turn an all-`-0.0` chain into `+0.0`, and `k == 0` must yield
//!   `-0.0`.
//! * **no zero-skip**: unlike the nn chain, this one adds every tap.
//!   Skipping a zero tap is not the same as adding it: `-0.0 + 0.0` is
//!   `+0.0` and `0·∞` is NaN. ReLU backward fills gradients with exact
//!   zeros, so a skip would change bits in training.
//!
//! [`reference`] keeps the seed kernels verbatim as the bit-exactness
//! oracle for tests and the baseline for `BENCH_pr4.json`.

use crate::{Tensor, PAR_THRESHOLD};
use rayon::prelude::*;
use std::cell::RefCell;

/// Cache-blocking parameters. Public (and accepted by [`matmul_with`])
/// so property tests can vary them and assert the result is invariant —
/// the executable form of the in-order k-blocking argument above.
#[derive(Debug, Clone, Copy)]
pub struct Blocking {
    /// k-block depth: rows of `B` per panel (processed in order).
    pub kc: usize,
    /// j-panel width: columns of `B` per panel.
    pub nc: usize,
}

impl Default for Blocking {
    fn default() -> Self {
        // KC×NC panel of B = 128·512·4 B = 256 KiB: L2-resident across
        // every row of an i-block on any recent core.
        Blocking { kc: 128, nc: 512 }
    }
}

impl Blocking {
    fn kc(&self) -> usize {
        self.kc.max(1)
    }
    fn nc(&self) -> usize {
        self.nc.max(1)
    }
}

// ---------------------------------------------------------------------------
// Inner kernels (serial building blocks).
// ---------------------------------------------------------------------------

/// One saxpy tap: `o += a · b_row`, skipping structural zeros exactly
/// like the seed kernel.
#[inline]
fn saxpy1(a: f32, b_row: &[f32], o: &mut [f32]) {
    // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
    if a == 0.0 {
        return;
    }
    for (oo, &bb) in o.iter_mut().zip(b_row) {
        *oo += a * bb;
    }
}

/// Ascending-`kk` saxpy over one `[j0, j0+o.len())` panel of one output
/// row, taps `k0..k1`. Four-tap bundles when all four `a` values are
/// nonzero; scalar zero-skip otherwise. Per-element accumulation order
/// is identical to the seed ikj kernel restricted to this tap range.
#[inline]
fn saxpy_panel(a_row: &[f32], b: &[f32], n: usize, k0: usize, k1: usize, j0: usize, o: &mut [f32]) {
    let w = o.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        // lint: allow(float-eq) -- bundle only when no tap needs the zero-skip path
        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            for ((((oo, &v0), &v1), &v2), &v3) in
                o.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                // Left-associative: the same chain as four sequential taps.
                *oo = (((*oo + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
            }
        } else {
            for t in kk..kk + 4 {
                saxpy1(a_row[t], &b[t * n + j0..t * n + j0 + w], o);
            }
        }
        kk += 4;
    }
    while kk < k1 {
        saxpy1(a_row[kk], &b[kk * n + j0..kk * n + j0 + w], o);
        kk += 1;
    }
}

/// Four-row register-tiled variant of [`saxpy_panel`]: the same tap
/// range applied to four independent output rows in one pass, so every
/// `B` panel value is loaded once per four rows instead of once per row.
/// Each row's element keeps its own ascending-`kk` left-associative
/// chain — the rows never mix, so this is bit-identical to four
/// [`saxpy_panel`] calls. The fused 4×4 pass is only taken when all 16
/// `a` taps are nonzero; any zero drops the affected bundle back to the
/// per-row zero-skip path.
#[inline]
#[allow(clippy::too_many_arguments)]
fn saxpy_panel4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
    n: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    o0: &mut [f32],
    o1: &mut [f32],
    o2: &mut [f32],
    o3: &mut [f32],
) {
    let w = o0.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let t0 = [a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]];
        let t1 = [a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]];
        let t2 = [a2[kk], a2[kk + 1], a2[kk + 2], a2[kk + 3]];
        let t3 = [a3[kk], a3[kk + 1], a3[kk + 2], a3[kk + 3]];
        let dense = t0
            .iter()
            .chain(&t1)
            .chain(&t2)
            .chain(&t3)
            // lint: allow(float-eq) -- fused pass only when no tap needs the zero-skip path
            .all(|&t| t != 0.0);
        if dense {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            let (o0, o1, o2, o3) = (
                &mut o0[..w],
                &mut o1[..w],
                &mut o2[..w],
                &mut o3[..w],
            );
            for jj in 0..w {
                let (v0, v1, v2, v3) = (b0[jj], b1[jj], b2[jj], b3[jj]);
                o0[jj] = (((o0[jj] + t0[0] * v0) + t0[1] * v1) + t0[2] * v2) + t0[3] * v3;
                o1[jj] = (((o1[jj] + t1[0] * v0) + t1[1] * v1) + t1[2] * v2) + t1[3] * v3;
                o2[jj] = (((o2[jj] + t2[0] * v0) + t2[1] * v1) + t2[2] * v2) + t2[3] * v3;
                o3[jj] = (((o3[jj] + t3[0] * v0) + t3[1] * v1) + t3[2] * v2) + t3[3] * v3;
            }
        } else {
            saxpy_panel(a0, b, n, kk, kk + 4, j0, o0);
            saxpy_panel(a1, b, n, kk, kk + 4, j0, o1);
            saxpy_panel(a2, b, n, kk, kk + 4, j0, o2);
            saxpy_panel(a3, b, n, kk, kk + 4, j0, o3);
        }
        kk += 4;
    }
    if kk < k1 {
        saxpy_panel(a0, b, n, kk, k1, j0, o0);
        saxpy_panel(a1, b, n, kk, k1, j0, o1);
        saxpy_panel(a2, b, n, kk, k1, j0, o2);
        saxpy_panel(a3, b, n, kk, k1, j0, o3);
    }
}

/// Eight-row register tile: two [`saxpy_panel4`] row groups fused into
/// one pass over the `B` panel, halving `B` traffic again. Rows stay
/// independent — bit-identical to eight [`saxpy_panel`] calls. The fused
/// pass requires all 32 `a` taps nonzero; otherwise the two 4-row groups
/// fall back independently (which themselves fall back per row).
#[inline]
#[allow(clippy::too_many_arguments)]
fn saxpy_panel8(
    a: [&[f32]; 8],
    b: &[f32],
    n: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    o: [&mut [f32]; 8],
) {
    let [o0, o1, o2, o3, o4, o5, o6, o7] = o;
    let w = o0.len();
    let mut kk = k0;
    while kk + 4 <= k1 {
        let t0 = [a[0][kk], a[0][kk + 1], a[0][kk + 2], a[0][kk + 3]];
        let t1 = [a[1][kk], a[1][kk + 1], a[1][kk + 2], a[1][kk + 3]];
        let t2 = [a[2][kk], a[2][kk + 1], a[2][kk + 2], a[2][kk + 3]];
        let t3 = [a[3][kk], a[3][kk + 1], a[3][kk + 2], a[3][kk + 3]];
        let t4 = [a[4][kk], a[4][kk + 1], a[4][kk + 2], a[4][kk + 3]];
        let t5 = [a[5][kk], a[5][kk + 1], a[5][kk + 2], a[5][kk + 3]];
        let t6 = [a[6][kk], a[6][kk + 1], a[6][kk + 2], a[6][kk + 3]];
        let t7 = [a[7][kk], a[7][kk + 1], a[7][kk + 2], a[7][kk + 3]];
        let dense = t0
            .iter()
            .chain(&t1)
            .chain(&t2)
            .chain(&t3)
            .chain(&t4)
            .chain(&t5)
            .chain(&t6)
            .chain(&t7)
            // lint: allow(float-eq) -- fused pass only when no tap needs the zero-skip path
            .all(|&t| t != 0.0);
        if dense {
            let b0 = &b[kk * n + j0..kk * n + j0 + w];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + w];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + w];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + w];
            let (o0, o1, o2, o3) = (&mut o0[..w], &mut o1[..w], &mut o2[..w], &mut o3[..w]);
            let (o4, o5, o6, o7) = (&mut o4[..w], &mut o5[..w], &mut o6[..w], &mut o7[..w]);
            for jj in 0..w {
                let (v0, v1, v2, v3) = (b0[jj], b1[jj], b2[jj], b3[jj]);
                o0[jj] = (((o0[jj] + t0[0] * v0) + t0[1] * v1) + t0[2] * v2) + t0[3] * v3;
                o1[jj] = (((o1[jj] + t1[0] * v0) + t1[1] * v1) + t1[2] * v2) + t1[3] * v3;
                o2[jj] = (((o2[jj] + t2[0] * v0) + t2[1] * v1) + t2[2] * v2) + t2[3] * v3;
                o3[jj] = (((o3[jj] + t3[0] * v0) + t3[1] * v1) + t3[2] * v2) + t3[3] * v3;
                o4[jj] = (((o4[jj] + t4[0] * v0) + t4[1] * v1) + t4[2] * v2) + t4[3] * v3;
                o5[jj] = (((o5[jj] + t5[0] * v0) + t5[1] * v1) + t5[2] * v2) + t5[3] * v3;
                o6[jj] = (((o6[jj] + t6[0] * v0) + t6[1] * v1) + t6[2] * v2) + t6[3] * v3;
                o7[jj] = (((o7[jj] + t7[0] * v0) + t7[1] * v1) + t7[2] * v2) + t7[3] * v3;
            }
        } else {
            saxpy_panel4(a[0], a[1], a[2], a[3], b, n, kk, kk + 4, j0, o0, o1, o2, o3);
            saxpy_panel4(a[4], a[5], a[6], a[7], b, n, kk, kk + 4, j0, o4, o5, o6, o7);
        }
        kk += 4;
    }
    if kk < k1 {
        saxpy_panel4(a[0], a[1], a[2], a[3], b, n, kk, k1, j0, o0, o1, o2, o3);
        saxpy_panel4(a[4], a[5], a[6], a[7], b, n, kk, k1, j0, o4, o5, o6, o7);
    }
}

/// Blocked `out_blk += A_blk · B` for a contiguous block of output rows.
/// `a_blk` holds the matching rows of `A` (row-major, width `k`). Rows
/// are walked in register tiles of eight, then four, then singly.
fn block_nn(a_blk: &[f32], b: &[f32], out_blk: &mut [f32], k: usize, n: usize, bl: Blocking) {
    let rows = out_blk.len() / n;
    let (kc, nc) = (bl.kc(), bl.nc());
    let mut k0 = 0;
    while k0 < k {
        // In-order k-blocks: ascending kk per element across blocks.
        let k1 = (k0 + kc).min(k);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + nc).min(n);
            let mut r = 0;
            while r + 8 <= rows {
                let (q0, rest) = out_blk[r * n..(r + 8) * n].split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, rest) = rest.split_at_mut(n);
                let (q3, rest) = rest.split_at_mut(n);
                let (q4, rest) = rest.split_at_mut(n);
                let (q5, rest) = rest.split_at_mut(n);
                let (q6, q7) = rest.split_at_mut(n);
                saxpy_panel8(
                    [
                        &a_blk[r * k..(r + 1) * k],
                        &a_blk[(r + 1) * k..(r + 2) * k],
                        &a_blk[(r + 2) * k..(r + 3) * k],
                        &a_blk[(r + 3) * k..(r + 4) * k],
                        &a_blk[(r + 4) * k..(r + 5) * k],
                        &a_blk[(r + 5) * k..(r + 6) * k],
                        &a_blk[(r + 6) * k..(r + 7) * k],
                        &a_blk[(r + 7) * k..(r + 8) * k],
                    ],
                    b,
                    n,
                    k0,
                    k1,
                    j0,
                    [
                        &mut q0[j0..j1],
                        &mut q1[j0..j1],
                        &mut q2[j0..j1],
                        &mut q3[j0..j1],
                        &mut q4[j0..j1],
                        &mut q5[j0..j1],
                        &mut q6[j0..j1],
                        &mut q7[j0..j1],
                    ],
                );
                r += 8;
            }
            if r + 4 <= rows {
                let (q0, rest) = out_blk[r * n..(r + 4) * n].split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, q3) = rest.split_at_mut(n);
                saxpy_panel4(
                    &a_blk[r * k..(r + 1) * k],
                    &a_blk[(r + 1) * k..(r + 2) * k],
                    &a_blk[(r + 2) * k..(r + 3) * k],
                    &a_blk[(r + 3) * k..(r + 4) * k],
                    b,
                    n,
                    k0,
                    k1,
                    j0,
                    &mut q0[j0..j1],
                    &mut q1[j0..j1],
                    &mut q2[j0..j1],
                    &mut q3[j0..j1],
                );
                r += 4;
            }
            while r < rows {
                let a_row = &a_blk[r * k..(r + 1) * k];
                let o = &mut out_blk[r * n + j0..r * n + j1];
                saxpy_panel(a_row, b, n, k0, k1, j0, o);
                r += 1;
            }
            j0 = j1;
        }
        k0 = k1;
    }
}

/// Register-tile height of the nt kernel: rows of the unpacked operand
/// whose chains advance together, so each packed tap is loaded once per
/// `NT_R` rows.
const NT_R: usize = 4;
/// Register-tile width of the nt kernel: lanes of the packed operand,
/// one SIMD-contiguous run of independent chains per row.
const NT_W: usize = 16;

/// Floats of packed panel for `lanes` rows of width `k`: whole
/// `NT_W`-lane tiles.
fn nt_panel_len(lanes: usize, k: usize) -> usize {
    lanes.div_ceil(NT_W) * NT_W * k
}

/// Packs `y` (`lanes×k`, row-major) k-major in `NT_W`-lane tiles:
/// `panel[t·k·W + kk·W + w] = y[(t·W + w)·k + kk]`. Lanes past the last
/// row of `y` are zeroed; their results are computed and discarded.
fn pack_nt_panel(k: usize, y: &[f32], panel: &mut [f32]) {
    for (t, tile) in panel.chunks_exact_mut(NT_W * k).enumerate() {
        for w in 0..NT_W {
            let l = t * NT_W + w;
            let src = y.get(l * k..(l + 1) * k);
            for kk in 0..k {
                tile[kk * NT_W + w] = src.map_or(0.0, |row| row[kk]);
            }
        }
    }
}

/// `R` unpacked rows against one packed `NT_W`-lane tile:
/// `acc[r][w] = Σ_kk x[r, kk] · y[w, kk]` as rank-1 updates in ascending
/// `kk`. Every chain is seeded with `-0.0` and takes every tap, zeros
/// included — per element the exact chain of `reference::matmul_nt_dot`.
#[inline(always)]
fn nt_tile<const R: usize>(x: &[f32], k: usize, tile: &[f32]) -> [[f32; NT_W]; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * k..][..k]);
    let mut acc = [[-0.0f32; NT_W]; R];
    for (kk, taps) in tile[..k * NT_W].chunks_exact(NT_W).enumerate() {
        for (acc_r, row) in acc.iter_mut().zip(&rows) {
            let xv = row[kk];
            for (s, &yv) in acc_r.iter_mut().zip(taps) {
                *s += xv * yv;
            }
        }
    }
    acc
}

/// `c[r, l]` for `R` unpacked rows against every lane tile of the panel;
/// the row tile stays cache-resident while the lane tiles stream past.
fn nt_rows<const R: usize>(x: &[f32], panel: &[f32], k: usize, lanes: usize, c: &mut [f32]) {
    for (t, tile) in panel.chunks_exact(NT_W * k).enumerate() {
        let acc = nt_tile::<R>(x, k, tile);
        let l0 = t * NT_W;
        let w = NT_W.min(lanes - l0);
        for (r, sums) in acc.iter().enumerate() {
            c[r * lanes + l0..][..w].copy_from_slice(&sums[..w]);
        }
    }
}

/// `c_blk = x_blk · Yᵀ` for a contiguous block of unpacked rows, walked
/// in `NT_R`-row register tiles, then singly.
fn nt_block(x_blk: &[f32], panel: &[f32], k: usize, lanes: usize, c_blk: &mut [f32]) {
    let rows = c_blk.len() / lanes;
    let mut r = 0;
    while r + NT_R <= rows {
        nt_rows::<NT_R>(&x_blk[r * k..], panel, k, lanes, &mut c_blk[r * lanes..]);
        r += NT_R;
    }
    while r < rows {
        nt_rows::<1>(&x_blk[r * k..], panel, k, lanes, &mut c_blk[r * lanes..]);
        r += 1;
    }
}

/// Column-block width for the `m == 1` split.
fn cols_per_block(n: usize) -> usize {
    rayon::block_len(n).max(16).min(n)
}

// ---------------------------------------------------------------------------
// Slice-level GEMM entry points (caller-owned outputs; no allocation).
// ---------------------------------------------------------------------------

/// `out += A · B` for row-major slices: `(m×k) · (k×n)` accumulated into
/// `out` (length `m·n`; pass zeroed scratch for a plain product).
/// Bit-identical to the seed ikj kernel for every element.
pub fn gemm_nn_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    bl: Blocking,
) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m == 1 {
        if k * n >= PAR_THRESHOLD && n > 1 {
            let cb = cols_per_block(n);
            out.par_chunks_mut(cb).enumerate().for_each(|(ci, o)| {
                let j0 = ci * cb;
                let (kc, _) = (bl.kc(), ());
                let mut k0 = 0;
                while k0 < k {
                    let k1 = (k0 + kc).min(k);
                    saxpy_panel(a, b, n, k0, k1, j0, o);
                    k0 = k1;
                }
            });
        } else {
            block_nn(a, b, out, k, n, bl);
        }
        return;
    }
    if m * n >= PAR_THRESHOLD {
        // The pool's own partition (4× its width): uneven sparsity
        // self-balances through the atomic index.
        let rb = rayon::block_len(m);
        out.par_chunks_mut(rb * n)
            .zip(a.par_chunks(rb * k))
            .for_each(|(oc, ac)| block_nn(ac, b, oc, k, n, bl));
    } else {
        block_nn(a, b, out, k, n, bl);
    }
}

/// `out = A · Bᵀ` for row-major slices: `(m×k) · (n×k)ᵀ`, overwriting
/// `out`. The packed panel lives in a thread-local buffer reused across
/// calls; see [`gemm_nt_with_scratch`] for the kernel.
pub fn gemm_nt_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let len = nt_scratch_len(m, k, n);
    NT_PACK.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        gemm_nt_with_scratch(m, k, n, a, b, out, &mut buf[..len]);
    });
}

/// Scratch floats [`gemm_nt_with_scratch`] needs for an `(m, k, n)`
/// product: the packed panel of the smaller operand, plus `outᵀ` when
/// `A` is the one packed.
pub fn nt_scratch_len(m: usize, k: usize, n: usize) -> usize {
    if m < n {
        nt_panel_len(m, k) + m * n
    } else {
        nt_panel_len(n, k)
    }
}

/// [`gemm_nt_into`] with caller-owned scratch of at least
/// [`nt_scratch_len`] floats (contents ignored).
///
/// The smaller operand is packed k-major into `NT_W`-lane tiles, and
/// each `NT_R × NT_W` register tile runs the whole `k` range as rank-1
/// updates. When `A` is the smaller one the kernel computes
/// `outᵀ = B · Aᵀ` and transposes it back: IEEE `a·b == b·a`, so every
/// element keeps the seed's chain either way. Packing `B` only when it
/// is the smaller operand keeps a large weight matrix (Dense `dx`) from
/// being transposed on every step.
pub fn gemm_nt_with_scratch(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), n * k, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    assert!(
        scratch.len() >= nt_scratch_len(m, k, n),
        "nt scratch too small"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Every chain is empty: the seed value.
        out.fill(-0.0);
        return;
    }
    if m < n {
        let (panel, out_t) = scratch.split_at_mut(nt_panel_len(m, k));
        let out_t = &mut out_t[..m * n];
        pack_nt_panel(k, a, panel);
        nt_par(b, panel, n, k, m, out_t);
        pack_transpose(n, m, out_t, out);
    } else {
        let panel = &mut scratch[..nt_panel_len(n, k)];
        pack_nt_panel(k, b, panel);
        nt_par(a, panel, m, k, n, out);
    }
}

/// `c = X · Yᵀ` (`rows×lanes`) from the unpacked `x` (`rows×k`) and the
/// packed panel of `Y`, split over the pool in row blocks of whole tiles.
fn nt_par(x: &[f32], panel: &[f32], rows: usize, k: usize, lanes: usize, c: &mut [f32]) {
    if rows * lanes >= PAR_THRESHOLD {
        let rb = rayon::block_len(rows).next_multiple_of(NT_R);
        c.par_chunks_mut(rb * lanes)
            .zip(x.par_chunks(rb * k))
            .for_each(|(cb, xb)| nt_block(xb, panel, k, lanes, cb));
    } else {
        nt_block(x, panel, k, lanes, c);
    }
}

thread_local! {
    /// Packing scratch for the Aᵀ panel of ad-hoc `matmul_tn` calls.
    /// Thread-local so the buffer is reused across calls (allocation
    /// traffic is bounded by the pool width, not the step count);
    /// batch-reusable packing goes through [`PackedT`] instead.
    static TN_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Packed-panel (and `outᵀ`) scratch of [`gemm_nt_into`], reused the
    /// same way.
    static NT_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Transposes `a` (`k×m`, row-major) into `at` (`m×k`).
fn pack_transpose(k: usize, m: usize, a: &[f32], at: &mut [f32]) {
    for kk in 0..k {
        let src = &a[kk * m..(kk + 1) * m];
        for (i, &v) in src.iter().enumerate() {
            at[i * k + kk] = v;
        }
    }
}

/// `out += Aᵀ · B` for row-major slices: `(k×m)ᵀ · (k×n)` accumulated
/// into `out`. For `m > 1` the transpose is materialised into a
/// thread-local panel (values are copied, not recombined, so every
/// element's accumulation chain is unchanged); `m == 1` is already
/// contiguous and runs the nn kernel directly.
pub fn gemm_tn_into(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    bl: Blocking,
) {
    assert_eq!(a.len(), k * m, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m == 1 {
        // (k×1)ᵀ is the same bytes as (1×k).
        gemm_nn_into(1, k, n, a, b, out, bl);
        return;
    }
    TN_PACK.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < m * k {
            buf.resize(m * k, 0.0);
        }
        let at = &mut buf[..m * k];
        pack_transpose(k, m, a, at);
        gemm_nn_into(m, k, n, at, b, out, bl);
    });
}

/// A lhs-transposed operand packed once and reused across many products
/// — e.g. the conv weight matrix `Wᵀ` shared by every sample of a batch.
/// Packing copies values without recombining them, so products through
/// a `PackedT` are bit-identical to [`matmul_tn`] on the original.
#[derive(Debug, Default)]
pub struct PackedT {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedT {
    pub fn new() -> PackedT {
        PackedT::default()
    }

    /// Packs `a` (`k×m`) as `Aᵀ` (`m×k`), reusing the existing buffer
    /// when large enough.
    pub fn pack(&mut self, a: &Tensor) {
        assert_eq!(a.ndim(), 2, "PackedT packs 2-D operands");
        self.pack_from(a.shape()[0], a.shape()[1], a.data());
    }

    /// [`PackedT::pack`] from a raw row-major `k×m` slice.
    pub fn pack_from(&mut self, k: usize, m: usize, a: &[f32]) {
        assert_eq!(a.len(), k * m, "operand length mismatch");
        if self.data.len() < m * k {
            self.data.resize(m * k, 0.0);
        }
        pack_transpose(k, m, a, &mut self.data[..m * k]);
        self.m = m;
        self.k = k;
    }

    /// `out += Aᵀ · B` with the packed operand: `(m×k) · (k×n)`.
    pub fn gemm_into(&self, b: &[f32], n: usize, out: &mut [f32], bl: Blocking) {
        gemm_nn_into(
            self.m,
            self.k,
            n,
            &self.data[..self.m * self.k],
            b,
            out,
            bl,
        );
    }
}

// ---------------------------------------------------------------------------
// Tensor-level API (unchanged signatures).
// ---------------------------------------------------------------------------

/// `C = A · B` for 2-D tensors: `(m×k) · (k×n) → (m×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(a, b, Blocking::default())
}

/// [`matmul`] with explicit blocking parameters. The result is invariant
/// under `bl` — asserted by the property tests — because k-blocks are
/// processed sequentially in order.
pub fn matmul_with(a: &Tensor, b: &Tensor, bl: Blocking) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nn_into(m, k, n, a.data(), b.data(), &mut out, bl);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` without materialising the transpose at the call site:
/// `(k×m)ᵀ · (k×n)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_tn_into(k, m, n, a.data(), b.data(), &mut out, Blocking::default());
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` without materialising the transpose: `(m×k) · (n×k)ᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2);
    assert_eq!(b.ndim(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    gemm_nt_into(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Matrix-vector product `y = A · x` for `(m×k) · (k)`.
pub fn matvec(a: &Tensor, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.ndim(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(x.len(), k, "vector length must equal columns");
    let a_data = a.data();
    if m * k >= PAR_THRESHOLD {
        (0..m)
            .into_par_iter()
            .map(|i| {
                a_data[i * k..(i + 1) * k]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    } else {
        (0..m)
            .map(|i| {
                a_data[i * k..(i + 1) * k]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }
}

pub mod reference {
    //! The seed ikj kernels, kept verbatim (serial form) as the
    //! bit-exactness oracle for the blocked kernels and the baseline the
    //! `BENCH_pr4.json` speedups are measured against. The
    //! `*_spawn_per_call` variants additionally reproduce the seed
    //! *shim*'s cost model — fresh scoped threads and per-batch item
    //! `Vec`s on every call — for pool-on-vs-seed comparisons.

    use crate::Tensor;

    /// Seed `matmul`: row-major ikj with structural-zero skip.
    pub fn matmul_ikj(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let (a_data, b_data) = (a.data(), b.data());
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            row_ikj(&a_data[i * k..(i + 1) * k], b_data, out_row, n);
        }
        Tensor::from_vec(out, &[m, n])
    }

    fn row_ikj(a_row: &[f32], b_data: &[f32], out_row: &mut [f32], n: usize) {
        for (kk, &a_ik) in a_row.iter().enumerate() {
            // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[kk * n..(kk + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }

    /// Seed `matmul_tn`: strided-lhs ikj with structural-zero skip.
    pub fn matmul_tn_ikj(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            for kk in 0..k {
                let a_ki = a_data[kk * m + i];
                // lint: allow(float-eq) -- sparsity fast path: skip exact structural zeros
                if a_ki == 0.0 {
                    continue;
                }
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ki * b_kj;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Seed `matmul_nt`: sequential row dots.
    pub fn matmul_nt_dot(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (n, k2) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            let a_row = &a_data[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b_data[j * k..(j + 1) * k];
                *o = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Seed-shim cost model: one fresh scoped OS thread per row batch
    /// and per-batch index `Vec`s, exactly like the pre-pool rayon shim
    /// scheduled the seed kernel. Benchmark baseline only.
    pub fn matmul_ikj_spawn_per_call(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let (a_data, b_data) = (a.data(), b.data());
        let mut out = vec![0.0f32; m * n];
        let threads = threads.clamp(1, m.max(1));
        let batch = m.div_ceil(threads).max(1);
        // The seed shim materialised the item list, then cloned one Vec
        // per batch; reproduce that allocation pattern.
        let rows: Vec<usize> = (0..m).collect();
        let batches: Vec<Vec<usize>> = rows.chunks(batch).map(|c| c.to_vec()).collect();
        std::thread::scope(|scope| {
            // Split the output into per-batch slices first, then spawn.
            let mut rest: &mut [f32] = &mut out;
            let mut joins = Vec::new();
            for rows in &batches {
                let (head, tail) = rest.split_at_mut(rows.len() * n);
                rest = tail;
                let h = scope.spawn(move || {
                    for (r, out_row) in rows.iter().zip(head.chunks_mut(n.max(1))) {
                        row_ikj(&a_data[r * k..(r + 1) * k], b_data, out_row, n);
                    }
                });
                joins.push(h);
            }
            for h in joins {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                *out.at_mut(&[i, j]) = s;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: element {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// Random tensor with exact structural zeros sprinkled in, to
    /// exercise the sparsity fast path (and signed zeros to catch a
    /// `+ 0.0·b` shortcut that the zero-skip must not take).
    fn sparse_tensor(r: &mut Rng, shape: &[usize]) -> Tensor {
        let mut t = r.normal_tensor(shape, 1.0);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            } else if i % 7 == 0 {
                *v = -0.0;
            }
        }
        t
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut r = Rng::seed(1);
        let a = r.normal_tensor(&[7, 7], 1.0);
        assert_close(&matmul(&a, &Tensor::eye(7)), &a, 1e-6);
        assert_close(&matmul(&Tensor::eye(7), &a), &a, 1e-6);
    }

    #[test]
    fn matches_naive_on_random_rectangles() {
        let mut r = Rng::seed(2);
        for (m, k, n) in [(3, 5, 4), (1, 8, 1), (16, 3, 9), (70, 70, 70)] {
            let a = r.normal_tensor(&[m, k], 1.0);
            let b = r.normal_tensor(&[k, n], 1.0);
            assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        let mut r = Rng::seed(3);
        let a = r.normal_tensor(&[80, 90], 1.0);
        let b = r.normal_tensor(&[90, 100], 1.0); // 8000 elements > threshold
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn tn_and_nt_match_explicit_transposes() {
        let mut r = Rng::seed(4);
        let a = r.normal_tensor(&[6, 9], 1.0);
        let b = r.normal_tensor(&[6, 5], 1.0);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-5);
        let c = r.normal_tensor(&[9, 6], 1.0);
        let d = r.normal_tensor(&[5, 6], 1.0);
        assert_close(&matmul_nt(&c, &d), &matmul(&c, &d.transpose()), 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut r = Rng::seed(5);
        let a = r.normal_tensor(&[7, 4], 1.0);
        let x = r.normal_tensor(&[4], 1.0);
        let y = matvec(&a, x.data());
        let y2 = matmul(&a, &x.clone().reshape(&[4, 1]));
        for (u, v) in y.iter().zip(y2.data()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_rejected() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// The headline contract: blocked/unrolled kernels are bit-identical
    /// to the seed ikj kernels, at shapes that are not multiples of the
    /// block sizes, at m∈{1,2}, at k=0, and with structural zeros (±0.0)
    /// exercising the sparsity fast path.
    #[test]
    fn blocked_kernels_match_seed_bit_exactly() {
        let mut r = Rng::seed(77);
        for (m, k, n) in [
            (1, 1, 1),
            (1, 7, 130),
            (1, 300, 257),
            (2, 5, 129),
            (2, 150, 300),
            (3, 0, 4),
            (5, 130, 1),
            (33, 17, 65),
            (64, 64, 64),
            (70, 129, 131),
        ] {
            let a = sparse_tensor(&mut r, &[m, k]);
            let b = sparse_tensor(&mut r, &[k, n]);
            let ctx = format!("nn {m}x{k}x{n}");
            assert_bits_equal(&matmul(&a, &b), &reference::matmul_ikj(&a, &b), &ctx);

            let at = sparse_tensor(&mut r, &[k, m]);
            let ctx = format!("tn {k}x{m}x{n}");
            assert_bits_equal(&matmul_tn(&at, &b), &reference::matmul_tn_ikj(&at, &b), &ctx);

            let bt = sparse_tensor(&mut r, &[n, k]);
            let ctx = format!("nt {m}x{k}x{n}");
            assert_bits_equal(&matmul_nt(&a, &bt), &reference::matmul_nt_dot(&a, &bt), &ctx);
        }
    }

    /// Blocking parameters must not change a single bit: k-blocks are
    /// sequential and in order, so any (kc, nc) yields the same chains.
    #[test]
    fn blocking_params_are_bit_invariant() {
        let mut r = Rng::seed(78);
        let a = sparse_tensor(&mut r, &[37, 91]);
        let b = sparse_tensor(&mut r, &[91, 53]);
        let baseline = matmul_with(&a, &b, Blocking { kc: 1, nc: 1 });
        for (kc, nc) in [(2, 3), (4, 16), (7, 19), (128, 512), (1000, 1000)] {
            let c = matmul_with(&a, &b, Blocking { kc, nc });
            assert_bits_equal(&c, &baseline, &format!("kc={kc} nc={nc}"));
        }
        assert_bits_equal(&baseline, &reference::matmul_ikj(&a, &b), "vs seed");
    }

    #[test]
    fn packed_tn_matches_unpacked_bit_exactly() {
        let mut r = Rng::seed(79);
        for (k, m, n) in [(8, 5, 9), (64, 33, 70), (3, 1, 40)] {
            let a = sparse_tensor(&mut r, &[k, m]);
            let b = sparse_tensor(&mut r, &[k, n]);
            let mut p = PackedT::new();
            p.pack(&a);
            let mut out = vec![0.0f32; m * n];
            p.gemm_into(b.data(), n, &mut out, Blocking::default());
            let packed = Tensor::from_vec(out, &[m, n]);
            assert_bits_equal(&packed, &matmul_tn(&a, &b), &format!("packed {k}x{m}x{n}"));
        }
    }

    /// Random operand exercising every case the seed's scalar chain
    /// handled implicitly: exact ±0.0 taps everywhere, one all-`-0.0`
    /// row (`neg_zero_row`, so a chain of `-0.0` products must stay
    /// `-0.0` — a `+0.0` seed or a zero-skip would flip it), and ±∞ / NaN
    /// in every fifth row only, so most outputs stay finite.
    fn special_tensor(r: &mut Rng, shape: &[usize], neg_zero_row: bool) -> Tensor {
        let mut t = sparse_tensor(r, shape);
        let k = shape[1];
        for (row, vals) in t.data_mut().chunks_mut(k.max(1)).enumerate() {
            if row % 6 == 3 {
                for v in vals.iter_mut() {
                    *v = if neg_zero_row { -0.0 } else { v.abs() + 0.5 };
                }
            } else if row % 5 == 2 && k > 0 {
                vals[row % k] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][row % 3];
                vals[k - 1] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][row % 3];
            }
        }
        t
    }

    /// Bit equality, except that any NaN matches any NaN: IEEE 754 does
    /// not fix which NaN payload an operation propagates, and LLVM treats
    /// `fadd`/`fmul` as commutative, so payloads are no kernel's
    /// contract. Signed zeros and infinities are compared bit for bit.
    fn assert_bits_equal_nan_class(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(same, "{ctx}: element {i}: {x:?} vs {y:?}");
        }
    }

    /// The packed nt kernel against the seed's scalar dot chain, in both
    /// orientations (A packed when m < n, B packed otherwise), at m = 1,
    /// n = 1, k = 0, k = 1, tile-ragged shapes, the three training hot
    /// shapes (conv `dW` at stages 1 and 2, `Dense(4096→1024)` `dx`),
    /// pool on and inside `serial_scope`, and with dirty caller scratch.
    #[test]
    fn packed_nt_matches_seed_chain_with_signed_zeros_and_non_finites() {
        let mut r = Rng::seed(81);
        for (m, k, n) in [
            (1, 1, 1),
            (1, 9, 40),
            (40, 9, 1),
            (3, 0, 5),
            (5, 0, 3),
            (7, 1, 19),
            (19, 1, 7),
            (5, 23, 37),
            (37, 23, 5),
            (17, 31, 17),
            (70, 33, 90),
            (90, 33, 70),
            (16, 1024, 144),
            (32, 256, 288),
            (32, 1024, 4096),
        ] {
            let a = special_tensor(&mut r, &[m, k], true);
            let b = special_tensor(&mut r, &[n, k], false);
            let seed = reference::matmul_nt_dot(&a, &b);
            let ctx = format!("nt {m}x{k}x{n}");
            assert_bits_equal_nan_class(matmul_nt(&a, &b).data(), seed.data(), &ctx);
            let off = rayon::serial_scope(|| matmul_nt(&a, &b));
            assert_bits_equal_nan_class(off.data(), seed.data(), &format!("{ctx} pool off"));
            let mut scratch = vec![f32::NAN; nt_scratch_len(m, k, n)];
            let mut out = vec![f32::NAN; m * n];
            gemm_nt_with_scratch(m, k, n, a.data(), b.data(), &mut out, &mut scratch);
            assert_bits_equal_nan_class(&out, seed.data(), &format!("{ctx} dirty scratch"));
        }
    }

    #[test]
    fn spawn_per_call_baseline_matches_seed() {
        let mut r = Rng::seed(80);
        let a = sparse_tensor(&mut r, &[19, 23]);
        let b = sparse_tensor(&mut r, &[23, 31]);
        for threads in [1, 3, 8] {
            assert_bits_equal(
                &reference::matmul_ikj_spawn_per_call(&a, &b, threads),
                &reference::matmul_ikj(&a, &b),
                &format!("spawn t={threads}"),
            );
        }
    }
}
