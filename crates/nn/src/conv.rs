//! Convolution layers lowered to GEMM via im2col, parallel over the
//! batch with rayon — the same strategy cuDNN's GEMM algorithm uses.
//!
//! Hot-path memory discipline: no step builds the whole batch's column
//! matrix. The batch is split into worker groups, at most
//! `4 × pool width` contiguous sample ranges (the pool's own block
//! partition, `rayon::block_len`), and each group owns one lane
//! [`Arena`]: one sample's
//! `(C·KH·KW) × (OH·OW)` columns plus the packed panel of its `dW`
//! product. Forward lowers each sample into its group's lane and runs
//! the GEMM while the columns are still in cache. The layer keeps a
//! reused copy of its input (at 3×3 nine times smaller than the
//! columns), and backward re-lowers each sample into the same lane
//! before `dW`, then writes that sample's `dcols` over it. Column
//! scratch therefore scales with the pool, not the batch; after warm-up
//! a step performs no scratch allocation, which tests assert through
//! [`Conv2d::scratch_grows`]. Weights are read in place (a
//! `(F, C, KH, KW)` tensor is already the `(F, C·KH·KW)` GEMM operand,
//! row-major); the transposed weight panel used by the backward `dcols`
//! product is packed once per backward call ([`PackedT`]) and shared by
//! the whole batch.
//!
//! None of this moves a bit: im2col only copies values, so the
//! re-lowered columns are the forward's; each sample runs the same GEMM
//! calls whichever group it lands in; and `dW`/`db` are staged per
//! sample and folded sequentially in ascending sample order, so results
//! are bit-identical regardless of pool size.

use crate::layer::Layer;
use crate::param::Param;
use rayon::prelude::*;
use tensor::conv::{col2im_into, im2col_into, out_dim};
use tensor::matmul::{gemm_nn_into, gemm_nt_with_scratch, nt_scratch_len, Blocking, PackedT};
use tensor::scratch::Arena;
use tensor::{Rng, Tensor};

/// 2-D convolution over `(N, C, H, W)` inputs with `(F, C, KH, KW)`
/// weights, stride and zero padding.
pub struct Conv2d {
    w: Param,
    b: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<ConvCache>,
    /// Copy of the last forward's input, re-lowered by backward. Reused
    /// across steps.
    input: Vec<f32>,
    /// One lowering lane per worker group: a sample's columns (then its
    /// `dcols`) and the packed panel of its `dW` product.
    lanes: Vec<Arena>,
    /// Backward staging: per-sample `dW` and `db` slabs.
    bwd_arena: Arena,
    /// `Wᵀ` panel packed once per backward, shared by every sample.
    packed_w: PackedT,
}

/// Batch size and lowering of the last forward (its input lives in
/// [`Conv2d::input`]).
struct ConvCache {
    n: usize,
    dims: ForwardDims,
}

#[derive(Clone, Copy)]
struct ForwardDims {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    f: usize,
    ohow: usize,
}

impl ForwardDims {
    /// Floats in one lane: `(a sample's columns, its `dW` panel)`.
    fn lane_lens(&self) -> (usize, usize) {
        let ckk = self.c * self.kh * self.kw;
        (ckk * self.ohow, nt_scratch_len(self.f, self.ohow, ckk))
    }
}

impl Conv2d {
    /// He-initialised square-kernel convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            w: Param::new(rng.he_init(&[out_channels, in_channels, kernel, kernel], fan_in)),
            b: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cache: None,
            input: Vec::new(),
            lanes: Vec::new(),
            bwd_arena: Arena::new(),
            packed_w: PackedT::new(),
        }
    }

    /// Scratch-growth counters `(lowering lanes, backward staging)`:
    /// each grows on warm-up and must then stay flat across steps of the
    /// same or a smaller batch — the "no per-step allocation" assertion
    /// used by tests and benches.
    pub fn scratch_grows(&self) -> (u64, u64) {
        (
            self.lanes.iter().map(Arena::grows).sum(),
            self.bwd_arena.grows(),
        )
    }

    fn dims(&self, c: usize, h: usize, w: usize) -> ForwardDims {
        let oh = out_dim(h, self.kernel, self.stride, self.pad);
        let ow = out_dim(w, self.kernel, self.stride, self.pad);
        ForwardDims {
            c,
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad_h: self.pad,
            pad_w: self.pad,
            f: self.out_channels,
            ohow: oh * ow,
        }
    }

    /// Batch size and lowering of the last forward.
    fn cached(&self) -> (usize, ForwardDims) {
        // lint: allow(unwrap) -- layer API contract: backward requires a prior forward
        let cache = self.cache.as_ref().expect("backward before forward");
        (cache.n, cache.dims)
    }

    /// The first `groups` lanes, adding empty ones on warm-up.
    fn group_lanes(lanes: &mut Vec<Arena>, groups: usize) -> &mut [Arena] {
        if lanes.len() < groups {
            lanes.resize_with(groups, Arena::new);
        }
        &mut lanes[..groups]
    }

    /// Forward shared by [`Conv2d`] and [`Conv1d`]: keeps the input for
    /// backward and writes `W·cols + b` for `n` samples, one worker
    /// group per lane, each sample lowered just before its GEMM.
    fn forward_lowered(&mut self, input: &[f32], n: usize, dims: ForwardDims) -> Vec<f32> {
        let ForwardDims {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad_h,
            pad_w,
            f,
            ohow,
        } = dims;
        let per_img = c * h * w;
        let ckk = c * kh * kw;
        let (cols_len, nt_len) = dims.lane_lens();
        let per_group = rayon::block_len(n);
        let lanes = Conv2d::group_lanes(&mut self.lanes, n.div_ceil(per_group));
        let (w_mat, bias) = (self.w.value.data(), self.b.value.data());
        // `resize` writes only the growth; every kept float is copied below.
        self.input.resize(n * per_img, 0.0);

        let mut out = vec![0.0f32; n * f * ohow];
        out.par_chunks_mut(per_group * f * ohow)
            .zip(input.par_chunks(per_group * per_img))
            .zip(self.input.par_chunks_mut(per_group * per_img))
            .zip(lanes.par_iter_mut())
            .for_each(|(((ys, xs), kept), lane)| {
                kept.copy_from_slice(xs);
                let mut frame = lane.frame(cols_len + nt_len);
                let cols = frame.take(cols_len);
                for (y, img) in ys.chunks_exact_mut(f * ohow).zip(xs.chunks_exact(per_img)) {
                    im2col_into(img, c, h, w, kh, kw, stride, pad_h, pad_w, cols);
                    gemm_nn_into(f, ckk, ohow, w_mat, cols, y, Blocking::default());
                    for (ff, &bf) in bias.iter().enumerate() {
                        for v in &mut y[ff * ohow..(ff + 1) * ohow] {
                            *v += bf;
                        }
                    }
                }
            });
        self.cache = Some(ConvCache { n, dims });
        out
    }

    /// Backward shared by [`Conv2d`] and [`Conv1d`]: per sample, re-lower
    /// the kept input into the group's lane, then `dW = g·colsᵀ`, `db`,
    /// `dcols = Wᵀ·g` over the spent columns and `dx = col2im(dcols)`.
    /// `dW`/`db` are staged per sample and folded into the parameter
    /// gradients sequentially in sample order (bit-stable under any pool
    /// size).
    fn backward_lowered(&mut self, grad_out: &[f32], n: usize, dims: ForwardDims) -> Vec<f32> {
        let ForwardDims {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad_h,
            pad_w,
            f,
            ohow,
        } = dims;
        let per_img = c * h * w;
        let ckk = c * kh * kw;
        let per_g = f * ohow;
        assert_eq!(grad_out.len(), n * per_g, "grad_out length mismatch");
        let (cols_len, nt_len) = dims.lane_lens();
        let per_group = rayon::block_len(n);
        let lanes = Conv2d::group_lanes(&mut self.lanes, n.div_ceil(per_group));
        // Pack Wᵀ once for the whole batch. The weight tensor is the
        // (F, CKK) operand in place; tn packing wants (k=F, m=CKK)ᵀ,
        // i.e. the (CKK, F) layout, which is exactly W viewed (F, CKK)
        // transposed — PackedT materialises that.
        self.packed_w.pack_from(f, ckk, self.w.value.data());
        let packed_w = &self.packed_w;

        let mut dx_all = vec![0.0f32; n * per_img];
        let mut frame = self.bwd_arena.frame(n * (f * ckk + f));
        let dw_all = frame.take(n * f * ckk);
        let db_all = frame.take(n * f);

        dx_all
            .par_chunks_mut(per_group * per_img)
            .zip(dw_all.par_chunks_mut(per_group * f * ckk))
            .zip(db_all.par_chunks_mut(per_group * f))
            .zip(grad_out.par_chunks(per_group * per_g))
            .zip(self.input.par_chunks(per_group * per_img))
            .zip(lanes.par_iter_mut())
            .for_each(|(((((dxs, dws), dbs), gs), xs), lane)| {
                let mut frame = lane.frame(cols_len + nt_len);
                let cols = frame.take(cols_len);
                let nt = frame.take(nt_len);
                let samples = dxs
                    .chunks_exact_mut(per_img)
                    .zip(dws.chunks_exact_mut(f * ckk))
                    .zip(dbs.chunks_exact_mut(f))
                    .zip(gs.chunks_exact(per_g))
                    .zip(xs.chunks_exact(per_img));
                for ((((dx, dw), db), g), img) in samples {
                    // im2col only copies: these are the forward's columns.
                    im2col_into(img, c, h, w, kh, kw, stride, pad_h, pad_w, cols);
                    // dW = g (F×OHOW) · colsᵀ (CKK×OHOW)ᵀ, packed panel in `nt`.
                    gemm_nt_with_scratch(f, ohow, ckk, g, cols, dw, nt);
                    for (ff, d) in db.iter_mut().enumerate() {
                        *d = g[ff * ohow..(ff + 1) * ohow].iter().sum();
                    }
                    // dcols = Wᵀ (CKK×F) · g (F×OHOW), accumulated from +0.0.
                    cols.fill(0.0);
                    packed_w.gemm_into(g, ohow, cols, Blocking::default());
                    col2im_into(cols, c, h, w, kh, kw, stride, pad_h, pad_w, dx);
                }
            });

        // Deterministic accumulation: ascending sample order, elementwise —
        // the same chain as the seed's sequential per-sample zip_inplace.
        let (w_grad, b_grad) = (self.w.grad.data_mut(), self.b.grad.data_mut());
        for (dw, db) in dw_all.chunks_exact(f * ckk).zip(db_all.chunks_exact(f)) {
            for (acc, d) in w_grad.iter_mut().zip(dw) {
                *acc += d;
            }
            for (acc, d) in b_grad.iter_mut().zip(db) {
                *acc += d;
            }
        }
        dx_all
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4, "Conv2d expects (N, C, H, W)");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "channel mismatch");
        let oh = out_dim(h, self.kernel, self.stride, self.pad);
        let ow = out_dim(w, self.kernel, self.stride, self.pad);
        let out = self.forward_lowered(input.data(), n, self.dims(c, h, w));
        Tensor::from_vec(out, &[n, self.out_channels, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, dims) = self.cached();
        let ForwardDims { c, h, w, .. } = dims;
        let oh = out_dim(h, self.kernel, self.stride, self.pad);
        let ow = out_dim(w, self.kernel, self.stride, self.pad);
        assert_eq!(grad_out.shape(), &[n, self.out_channels, oh, ow]);
        let dx_all = self.backward_lowered(grad_out.data(), n, dims);
        Tensor::from_vec(dx_all, &[n, c, h, w])
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// 1-D convolution over `(N, C, L)` sequences: a thin adapter over the
/// 2-D machinery with a 1×K kernel (the §IV-B "1D-CNN" imputer baseline).
pub struct Conv1d {
    inner: Conv2d,
}

impl Conv1d {
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        // Build the inner layer, then reshape its weights to 1×K kernels.
        let mut inner = Conv2d::new(in_channels, out_channels, kernel, stride, pad, rng);
        let fan_in = in_channels * kernel;
        inner.w = Param::new(rng.he_init(&[out_channels, in_channels, 1, kernel], fan_in));
        inner.kernel = kernel;
        Conv1d { inner }
    }

    /// Lowering of `(N, C, L)` to the 2-D machinery: a `(C, 1, L)` image
    /// with a 1×K kernel, padded only along the sequence axis.
    fn dims(&self, c: usize, l: usize) -> ForwardDims {
        ForwardDims {
            c,
            h: 1,
            w: l,
            kh: 1,
            kw: self.inner.kernel,
            stride: self.inner.stride,
            pad_h: 0,
            pad_w: self.inner.pad,
            f: self.inner.out_channels,
            ohow: out_dim(l, self.inner.kernel, self.inner.stride, self.inner.pad),
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 3, "Conv1d expects (N, C, L)");
        let (n, c, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let dims = self.dims(c, l);
        let out = self.inner.forward_lowered(input.data(), n, dims);
        Tensor::from_vec(out, &[n, dims.f, dims.ohow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.ndim(), 3);
        let (n, dims) = self.inner.cached();
        let ForwardDims {
            c, w: l, f, ohow, ..
        } = dims;
        assert_eq!(grad_out.shape(), &[n, f, ohow]);
        let dx_all = self.inner.backward_lowered(grad_out.data(), n, dims);
        Tensor::from_vec(dx_all, &[n, c, l])
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_shapes() {
        let mut rng = Rng::seed(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 8, 8], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]); // same-padding
        let gx = conv.backward(&Tensor::ones(&[2, 8, 8, 8]));
        assert_eq!(gx.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn conv2d_stride_downsamples() {
        let mut rng = Rng::seed(2);
        let mut conv = Conv2d::new(1, 4, 3, 2, 1, &mut rng);
        let x = rng.normal_tensor(&[1, 1, 8, 8], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn conv2d_known_kernel() {
        // Single 1×1 kernel with weight 2 and bias 1: y = 2x + 1.
        let mut rng = Rng::seed(3);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w.value = Tensor::full(&[1, 1, 1, 1], 2.0);
        conv.b.value = Tensor::full(&[1], 1.0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn conv2d_batch_items_are_independent() {
        let mut rng = Rng::seed(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let a = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let b = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let ya = conv.forward(&a, true);
        let yb = conv.forward(&b, true);
        let both = Tensor::from_vec(
            [a.data(), b.data()].concat(),
            &[2, 2, 5, 5],
        );
        let y_both = conv.forward(&both, true);
        let half = ya.numel();
        assert_eq!(&y_both.data()[..half], ya.data());
        assert_eq!(&y_both.data()[half..], yb.data());
    }

    #[test]
    fn conv1d_shapes_and_known_kernel() {
        let mut rng = Rng::seed(5);
        let mut conv = Conv1d::new(1, 1, 3, 1, 1, &mut rng);
        conv.inner.w.value = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 1, 1, 3]);
        conv.inner.b.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, true);
        // moving sum with zero padding: [0+1+2, 1+2+3, 2+3+4, 3+4+0]
        assert_eq!(y.shape(), &[1, 1, 4]);
        assert_eq!(y.data(), &[3.0, 6.0, 9.0, 7.0]);
        let gx = conv.backward(&Tensor::ones(&[1, 1, 4]));
        assert_eq!(gx.shape(), &[1, 1, 4]);
        // each input position feeds ≤3 outputs: counts [2,3,3,2]
        assert_eq!(gx.data(), &[2.0, 3.0, 3.0, 2.0]);
    }

    /// `(name, layer, one sample's input shape)` for every lowering the
    /// layers share: Conv2d at stride 1 and 2, and Conv1d.
    fn conv_cases(rng: &mut Rng) -> Vec<(&'static str, Box<dyn Layer>, Vec<usize>)> {
        vec![
            (
                "conv2d_s1",
                Box::new(Conv2d::new(3, 4, 3, 1, 1, rng)),
                vec![3, 6, 5],
            ),
            (
                "conv2d_s2",
                Box::new(Conv2d::new(3, 4, 3, 2, 1, rng)),
                vec![3, 7, 6],
            ),
            (
                "conv1d",
                Box::new(Conv1d::new(3, 4, 3, 1, 1, rng)),
                vec![3, 9],
            ),
        ]
    }

    /// A batch of `n` samples of `shape` and an upstream gradient for the
    /// layer's output, with ReLU-style exact zeros mixed in.
    fn batch(layer: &mut dyn Layer, rng: &mut Rng, n: usize, shape: &[usize]) -> (Tensor, Tensor) {
        let x = rng.normal_tensor(&[&[n], shape].concat(), 1.0);
        let y = layer.forward(&x, true);
        let mut g = rng.normal_tensor(y.shape(), 1.0);
        g.map_inplace(|v| if v < -0.5 { 0.0 } else { v });
        (x, g)
    }

    /// One forward + backward from zeroed gradients: `[y, dx, dW, db]`.
    fn step(layer: &mut dyn Layer, x: &Tensor, g: &Tensor) -> [Vec<f32>; 4] {
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let y = layer.forward(x, true);
        let dx = layer.backward(g);
        let p = layer.params();
        [
            y.data().to_vec(),
            dx.data().to_vec(),
            p[0].grad.data().to_vec(),
            p[1].grad.data().to_vec(),
        ]
    }

    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx} at {i}: {a} vs {b}");
        }
    }

    const OUTPUTS: [&str; 4] = ["y", "dx", "dW", "db"];

    #[test]
    fn conv_bits_match_pool_on_and_off_at_ragged_batches() {
        let mut rng = Rng::seed(8);
        for (name, mut layer, shape) in conv_cases(&mut rng) {
            for n in [1, 3, 9, 33] {
                let (x, g) = batch(layer.as_mut(), &mut rng, n, &shape);
                let on = step(layer.as_mut(), &x, &g);
                let off = rayon::serial_scope(|| step(layer.as_mut(), &x, &g));
                for ((a, b), what) in on.iter().zip(&off).zip(OUTPUTS) {
                    assert_same_bits(a, b, &format!("{name} n={n} {what} pool off"));
                }
            }
        }
    }

    #[test]
    fn conv_batch_equals_each_sample_run_alone() {
        // Forward and backward: each sample's y and dx slices equal that
        // sample run alone, and dW/db equal the per-sample gradients
        // folded from +0.0 in ascending sample order — whichever worker
        // group a sample lands in.
        let mut rng = Rng::seed(9);
        for (name, mut layer, shape) in conv_cases(&mut rng) {
            let per_x: usize = shape.iter().product();
            for n in [1, 3, 9, 33] {
                let (x, g) = batch(layer.as_mut(), &mut rng, n, &shape);
                let [y, dx, dw, db] = step(layer.as_mut(), &x, &g);
                let per_y = y.len() / n;
                let mut dw_fold = vec![0.0f32; dw.len()];
                let mut db_fold = vec![0.0f32; db.len()];
                for i in 0..n {
                    let xi = &x.data()[i * per_x..(i + 1) * per_x];
                    let gi = &g.data()[i * per_y..(i + 1) * per_y];
                    let xi = Tensor::from_vec(xi.to_vec(), &[&[1], shape.as_slice()].concat());
                    let gi = Tensor::from_vec(gi.to_vec(), &[&[1], &g.shape()[1..]].concat());
                    let [yi, dxi, dwi, dbi] = step(layer.as_mut(), &xi, &gi);
                    let ctx = format!("{name} n={n} sample {i}");
                    assert_same_bits(&y[i * per_y..(i + 1) * per_y], &yi, &format!("{ctx} y"));
                    assert_same_bits(&dx[i * per_x..(i + 1) * per_x], &dxi, &format!("{ctx} dx"));
                    for (acc, d) in dw_fold.iter_mut().zip(&dwi) {
                        *acc += d;
                    }
                    for (acc, d) in db_fold.iter_mut().zip(&dbi) {
                        *acc += d;
                    }
                }
                assert_same_bits(&dw, &dw_fold, &format!("{name} n={n} dW"));
                assert_same_bits(&db, &db_fold, &format!("{name} n={n} db"));
            }
        }
    }

    #[test]
    fn conv2d_scratch_stops_growing_after_warmup() {
        let mut rng = Rng::seed(6);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let (x, g) = batch(&mut conv, &mut rng, 33, &[2, 6, 6]);
        // The warm-up step may grow both counters.
        let _ = step(&mut conv, &x, &g);
        let warm = conv.scratch_grows();
        // Steady-state steps must not allocate column/staging scratch,
        // nor may a smaller batch after a larger one.
        for _ in 0..3 {
            let _ = step(&mut conv, &x, &g);
        }
        assert_eq!(conv.scratch_grows(), warm, "scratch grew after warm-up");
        for n in [9, 3, 1] {
            let (x, g) = batch(&mut conv, &mut rng, n, &[2, 6, 6]);
            let _ = step(&mut conv, &x, &g);
            assert_eq!(conv.scratch_grows(), warm, "n={n} after n=33 grew scratch");
        }
    }

    #[test]
    fn conv2d_grads_match_seed_order() {
        // Two samples: accumulated gradients must equal the sum of
        // single-sample gradients in ascending sample order, bit for bit.
        let mut rng = Rng::seed(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let a = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let b = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let both = Tensor::from_vec([a.data(), b.data()].concat(), &[2, 2, 5, 5]);
        let g1 = Tensor::ones(&[1, 3, 5, 5]);
        let g2 = Tensor::ones(&[2, 3, 5, 5]);

        let _ = conv.forward(&a, true);
        let _ = conv.backward(&g1);
        let wa: Vec<f32> = conv.w.grad.data().to_vec();
        for p in conv.params_mut() {
            p.grad.map_inplace(|_| 0.0);
        }
        let _ = conv.forward(&b, true);
        let _ = conv.backward(&g1);
        let wb: Vec<f32> = conv.w.grad.data().to_vec();
        for p in conv.params_mut() {
            p.grad.map_inplace(|_| 0.0);
        }
        let _ = conv.forward(&both, true);
        let _ = conv.backward(&g2);
        for ((acc, x), y) in conv.w.grad.data().iter().zip(&wa).zip(&wb) {
            assert_eq!(acc.to_bits(), (x + y).to_bits());
        }
    }

    #[test]
    fn column_scratch_follows_the_pool_not_the_batch() {
        // At 4× the pool width every worker group is in use; a batch 4×
        // larger, training or inference, must reuse the same lanes.
        let mut rng = Rng::seed(11);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let lanes =
            |conv: &Conv2d| -> Vec<usize> { conv.lanes.iter().map(Arena::capacity).collect() };
        let n = 4 * rayon::current_num_threads();
        let (x, g) = batch(&mut conv, &mut rng, n, &[2, 6, 6]);
        let _ = step(&mut conv, &x, &g);
        let (small, grows) = (lanes(&conv), conv.scratch_grows().0);
        let (x, g) = batch(&mut conv, &mut rng, 4 * n, &[2, 6, 6]);
        let _ = conv.forward(&x, false);
        let _ = step(&mut conv, &x, &g);
        assert_eq!(lanes(&conv), small, "column lanes at n={} vs n={n}", 4 * n);
        assert_eq!(conv.scratch_grows().0, grows);
    }
}
