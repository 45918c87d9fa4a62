//! im2col/col2im convolution lowering.
//!
//! Convolutions are lowered to matrix multiplication exactly the way
//! cuDNN's GEMM algorithm does it: the input patches are unrolled into a
//! `(C·KH·KW) × (OH·OW)` column matrix, so the convolution becomes
//! `weights(F, C·KH·KW) · cols`, and the backward pass w.r.t. the input
//! is the transposed product folded back with [`col2im_into`]. Callers
//! own every buffer (see [`crate::scratch::Arena`]).

/// Output spatial size for one axis.
#[inline]
pub fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {input}+2*{pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Unrolls one `(C, H, W)` image into a caller-owned `(C·KH·KW) ×
/// (OH·OW)` column matrix of length `(c·kh·kw) · (oh·ow)` — no
/// allocation. Every element of `out` is
/// written (image values at valid taps, `0.0` at padding), so stale
/// scratch contents are harmless.
///
/// Works a tap row `(ch, ky, kx)` at a time: the valid output range on
/// each axis is computed once (`tap_range`), padding runs are
/// zero-filled, and each valid `oy` segment is one slice copy (stride 1)
/// or one strided gather (stride > 1) with no per-element bounds test.
/// Only values move, so the result is bit-identical to
/// [`reference::im2col_into`].
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    out: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "image length mismatch");
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    let rows = c * kh * kw;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "cols buffer length mismatch");

    for (row, out_row) in out.chunks_exact_mut(cols).enumerate() {
        let (ch, ky, kx) = (row / (kh * kw), row / kw % kh, row % kw);
        let (oy_lo, oy_hi) = tap_range(oh, ky, pad_h, h, stride);
        let (ox_lo, ox_hi) = tap_range(ow, kx, pad_w, w, stride);
        if oy_lo == oy_hi || ox_lo == ox_hi {
            out_row.fill(0.0); // the tap sees only padding
            continue;
        }
        let img_c = &image[ch * h * w..(ch + 1) * h * w];
        let ix_lo = ox_lo * stride + kx - pad_w;
        out_row[..oy_lo * ow].fill(0.0);
        out_row[oy_hi * ow..].fill(0.0);
        for oy in oy_lo..oy_hi {
            let iy = oy * stride + ky - pad_h;
            let seg = &mut out_row[oy * ow..(oy + 1) * ow];
            seg[..ox_lo].fill(0.0);
            seg[ox_hi..].fill(0.0);
            let src = &img_c[iy * w + ix_lo..(iy + 1) * w];
            let dst = &mut seg[ox_lo..ox_hi];
            if stride == 1 {
                dst.copy_from_slice(&src[..dst.len()]);
            } else {
                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// Valid output range `[lo, hi)` along one axis for kernel offset `k`:
/// exactly the `o < n_out` with `0 <= o·stride + k - pad < n_in`.
/// Empty ranges come back as `lo == hi`.
#[inline]
fn tap_range(n_out: usize, k: usize, pad: usize, n_in: usize, stride: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = (n_in + pad).saturating_sub(k).div_ceil(stride).min(n_out);
    (lo.min(hi), hi)
}

/// Folds a `(C·KH·KW) × (OH·OW)` column-gradient matrix back into a
/// caller-owned image gradient of length `c·h·w` (accumulating
/// overlapping patches) — the adjoint of [`im2col_into`]. No
/// allocation: `img` is overwritten (zeroed, then accumulated into).
///
/// Same tap-row walk as [`im2col_into`]: each valid `oy` segment is one
/// elementwise `+=` over a contiguous (stride 1) or strided image row.
/// The loop nest `ch → ky → kx → oy → ox` is the seed's, and within one
/// tap row every pixel is hit at most once, so each pixel still receives
/// its contributions in ascending `(ky, kx)` order: the sums are
/// bit-identical to [`reference::col2im_into`].
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    img: &mut [f32],
) {
    let oh = out_dim(h, kh, stride, pad_h);
    let ow = out_dim(w, kw, stride, pad_w);
    let ncols = oh * ow;
    assert_eq!(data.len(), c * kh * kw * ncols, "cols length mismatch");
    assert_eq!(img.len(), c * h * w, "image buffer length mismatch");
    img.fill(0.0);

    for (row, col_row) in data.chunks_exact(ncols).enumerate() {
        let (ch, ky, kx) = (row / (kh * kw), row / kw % kh, row % kw);
        let (oy_lo, oy_hi) = tap_range(oh, ky, pad_h, h, stride);
        let (ox_lo, ox_hi) = tap_range(ow, kx, pad_w, w, stride);
        if ox_lo == ox_hi {
            continue;
        }
        let img_c = &mut img[ch * h * w..(ch + 1) * h * w];
        let ix_lo = ox_lo * stride + kx - pad_w;
        for oy in oy_lo..oy_hi {
            let iy = oy * stride + ky - pad_h;
            let src = &col_row[oy * ow + ox_lo..oy * ow + ox_hi];
            let dst = &mut img_c[iy * w + ix_lo..(iy + 1) * w];
            if stride == 1 {
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                    *d += v;
                }
            }
        }
    }
}

/// 2×2 (or general) max-pool of one `(C, H, W)` image. Returns the pooled
/// image and the flat argmax indices (into the input image) for backprop.
pub fn maxpool(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
) -> (Vec<f32>, Vec<usize>) {
    let oh = out_dim(h, k, stride, 0);
    let ow = out_dim(w, k, stride, 0);
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    let mut arg = vec![0usize; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let o = (ch * oh + oy) * ow + ox;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        let idx = (ch * h + iy) * w + ix;
                        if image[idx] > out[o] {
                            out[o] = image[idx];
                            arg[o] = idx;
                        }
                    }
                }
            }
        }
    }
    (out, arg)
}

pub mod reference {
    //! The seed lowering loops, kept verbatim as the bit-exactness oracle
    //! for [`super::im2col_into`] / [`super::col2im_into`] and as the
    //! baseline the kernels bench's seed Conv2d runs. One scalar,
    //! bounds-tested element at a time.

    use super::out_dim;

    /// Seed `im2col_into`: zero-fill, then copy each valid tap.
    #[allow(clippy::too_many_arguments)]
    pub fn im2col_into(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
        out: &mut [f32],
    ) {
        assert_eq!(image.len(), c * h * w, "image length mismatch");
        let oh = out_dim(h, kh, stride, pad_h);
        let ow = out_dim(w, kw, stride, pad_w);
        let rows = c * kh * kw;
        let cols = oh * ow;
        assert_eq!(out.len(), rows * cols, "cols buffer length mismatch");
        out.fill(0.0);

        for ch in 0..c {
            let img_c = &image[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let out_row = &mut out[row * cols..(row + 1) * cols];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue; // zero padding
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[oy * ow + ox] = img_c[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
    }

    /// Seed `col2im_into`: zero-fill, then accumulate each valid tap.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im_into(
        data: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
        img: &mut [f32],
    ) {
        let oh = out_dim(h, kh, stride, pad_h);
        let ow = out_dim(w, kw, stride, pad_w);
        let ncols = oh * ow;
        assert_eq!(data.len(), c * kh * kw * ncols, "cols length mismatch");
        assert_eq!(img.len(), c * h * w, "image buffer length mismatch");
        img.fill(0.0);

        for ch in 0..c {
            let img_c = &mut img[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let col_row = &data[row * ncols..(row + 1) * ncols];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img_c[iy * w + ix as usize] += col_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul;
    use crate::{Rng, Tensor};

    /// Square-kernel [`im2col_into`] into a fresh `(C·K·K, OH·OW)` tensor.
    fn lowered(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (oh, ow) = (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad));
        let mut cols = vec![f32::NAN; c * k * k * oh * ow];
        im2col_into(image, c, h, w, k, k, stride, pad, pad, &mut cols);
        Tensor::from_vec(cols, &[c * k * k, oh * ow])
    }

    /// Direct (definition-level) convolution for cross-checking.
    #[allow(clippy::too_many_arguments)]
    fn conv_direct(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        weight: &Tensor, // (F, C, KH, KW)
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let (f, _, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let oh = out_dim(h, kh, stride, pad);
        let ow = out_dim(w, kw, stride, pad);
        let mut out = vec![0.0; f * oh * ow];
        for ff in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut s = 0.0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                s += image[(ch * h + iy as usize) * w + ix as usize]
                                    * weight.at(&[ff, ch, ky, kx]);
                            }
                        }
                    }
                    out[(ff * oh + oy) * ow + ox] = s;
                }
            }
        }
        out
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(8, 3, 1, 0), 6);
        assert_eq!(out_dim(8, 3, 1, 1), 8);
        assert_eq!(out_dim(8, 3, 2, 1), 4);
        assert_eq!(out_dim(1, 1, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        let _ = out_dim(2, 5, 1, 0);
    }

    #[test]
    fn im2col_matmul_equals_direct_convolution() {
        let mut r = Rng::seed(11);
        for (c, h, w, f, k, stride, pad) in [
            (1, 5, 5, 2, 3, 1, 0),
            (3, 8, 8, 4, 3, 1, 1),
            (2, 7, 9, 3, 3, 2, 1),
            (1, 4, 4, 1, 1, 1, 0),
        ] {
            let img = r.normal_tensor(&[c * h * w], 1.0);
            let weight = r.normal_tensor(&[f, c, k, k], 0.5);
            let cols = lowered(img.data(), c, h, w, k, stride, pad);
            let wmat = weight.clone().reshape(&[f, c * k * k]);
            let out = matmul(&wmat, &cols);
            let direct = conv_direct(img.data(), c, h, w, &weight, stride, pad);
            for (a, b) in out.data().iter().zip(&direct) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "c={c} h={h} k={k} s={stride} p={pad}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which is what backprop relies on.
        let mut r = Rng::seed(12);
        let (c, h, w, k, stride, pad) = (2, 6, 5, 3, 2, 1);
        let x = r.normal_tensor(&[c * h * w], 1.0);
        let cols = lowered(x.data(), c, h, w, k, stride, pad);
        let y = r.normal_tensor(cols.shape(), 1.0);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut folded = vec![f32::NAN; c * h * w];
        col2im_into(y.data(), c, h, w, k, k, stride, pad, pad, &mut folded);
        let rhs: f32 = x.data().iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// `to_bits` equality, except that NaN matches any NaN: which NaN an
    /// addition returns is outside the contract (DESIGN.md §10).
    fn same_bits_nan_by_class(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Normal values salted with `-0.0`, `±∞` and NaN.
    fn salted(r: &mut Rng, len: usize) -> Vec<f32> {
        let mut v = r.normal_tensor(&[len], 1.0).data().to_vec();
        let specials = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0];
        for (i, x) in v.iter_mut().enumerate() {
            if i % 7 == 3 {
                *x = specials[(i / 7) % specials.len()];
            }
        }
        v
    }

    #[test]
    fn row_slice_lowering_matches_seed_loops_bit_for_bit() {
        let mut r = Rng::seed(13);
        // (c, h, w, kh, kw, pad_h, pad_w) for square 2-D kernels over
        // h ≠ w images, then the Conv1d lowering (h = 1, kh = 1, pad_h = 0).
        let mut cases = Vec::new();
        for c in [1, 3, 16] {
            for (h, w) in [(5, 7), (2, 3), (1, 4)] {
                for k in [1, 2, 3, 5] {
                    for pad in [0, 1, 2] {
                        cases.push((c, h, w, k, k, pad, pad));
                    }
                }
            }
        }
        for c in [1, 3] {
            for k in [1, 2, 3, 5] {
                for pad in [0, 1, 2] {
                    cases.push((c, 1, 9, 1, k, 0, pad));
                }
            }
        }
        let mut checked = 0;
        for (c, h, w, kh, kw, pad_h, pad_w) in cases {
            for stride in [1, 2, 3] {
                if h + 2 * pad_h < kh || w + 2 * pad_w < kw {
                    continue;
                }
                let ctx = format!("c={c} h={h} w={w} k={kh}x{kw} s={stride} p={pad_h},{pad_w}");
                let oh = out_dim(h, kh, stride, pad_h);
                let ow = out_dim(w, kw, stride, pad_w);
                let n_cols = c * kh * kw * oh * ow;

                let img = salted(&mut r, c * h * w);
                let mut got = vec![f32::NAN; n_cols];
                let mut want = vec![f32::NAN; n_cols];
                im2col_into(&img, c, h, w, kh, kw, stride, pad_h, pad_w, &mut got);
                reference::im2col_into(&img, c, h, w, kh, kw, stride, pad_h, pad_w, &mut want);
                // im2col only moves values: NaN payloads included.
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "im2col {ctx} at {i}: {a} vs {b}");
                }

                let cols = salted(&mut r, n_cols);
                let mut got = vec![f32::NAN; c * h * w];
                let mut want = vec![f32::NAN; c * h * w];
                col2im_into(&cols, c, h, w, kh, kw, stride, pad_h, pad_w, &mut got);
                reference::col2im_into(&cols, c, h, w, kh, kw, stride, pad_h, pad_w, &mut want);
                for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        same_bits_nan_by_class(a, b),
                        "col2im {ctx} at {i}: {a} vs {b}"
                    );
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 333, "grid size");
    }

    #[test]
    fn maxpool_picks_maxima_and_indices() {
        // 1 channel, 4x4
        #[rustfmt::skip]
        let img = vec![
            1.0, 2.0, 5.0, 0.0,
            3.0, 4.0, 1.0, 1.0,
            0.0, 0.0, 9.0, 8.0,
            0.0, 7.0, 6.0, 9.5,
        ];
        let (out, arg) = maxpool(&img, 1, 4, 4, 2, 2);
        assert_eq!(out, vec![4.0, 5.0, 7.0, 9.5]);
        assert_eq!(arg, vec![5, 2, 13, 15]);
    }

    #[test]
    fn padding_zero_regions_stay_zero_in_cols() {
        let img = vec![1.0; 4]; // 1×2×2
        let cols = lowered(&img, 1, 2, 2, 3, 1, 1);
        // center tap row (ky=1,kx=1) has all ones, corner taps have zeros
        assert_eq!(cols.shape(), &[9, 4]);
        let center = cols.row(4);
        assert_eq!(center, &[1.0, 1.0, 1.0, 1.0]);
        let corner = cols.row(0); // (0,0) tap sees padding for output (0,0)
        assert_eq!(corner[0], 0.0);
    }
}
