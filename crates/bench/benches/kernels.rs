//! E3/E6 micro-bench: the tensor kernels every training step leans on —
//! parallel matmul, the im2col/col2im lowering, im2col convolution, GRU
//! steps. The matmul sweep runs every size both over the persistent pool
//! (`pool_on`) and inside [`rayon::serial_scope`] (`pool_off`) so the
//! scheduling overhead is separable from kernel throughput. `MSA_BENCH_FAST=1` (honoured by the
//! criterion shim) cuts this to a smoke run; `BENCH_pr4.json` numbers
//! come from `experiments kernels`, not from here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::Layer;
use tensor::conv::{col2im_into, im2col_into, out_dim};
use tensor::matmul::{matmul, matmul_nt, matmul_tn};
use tensor::Rng;

fn matmul_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = Rng::seed(1);
    for &n in &[64usize, 128, 256, 512] {
        let a = rng.normal_tensor(&[n, n], 1.0);
        let b = rng.normal_tensor(&[n, n], 1.0);
        group.bench_with_input(BenchmarkId::new("nn_pool_on", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("nn_pool_off", n), &n, |bch, _| {
            bch.iter(|| rayon::serial_scope(|| matmul(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bch, _| {
            bch.iter(|| matmul_tn(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bch, _| {
            bch.iter(|| matmul_nt(&a, &b));
        });
    }
    group.finish();
}

fn conv_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    let mut rng = Rng::seed(2);
    let x = rng.normal_tensor(&[8, 8, 16, 16], 1.0);
    let mut conv = nn::Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    group.bench_function("fwd_8x8c16x16", |b| {
        b.iter(|| conv.forward(&x, true));
    });
    group.bench_function("fwd_8x8c16x16_pool_off", |b| {
        b.iter(|| rayon::serial_scope(|| conv.forward(&x, true)));
    });
    let y = conv.forward(&x, true);
    let g = rng.normal_tensor(y.shape(), 1.0);
    group.bench_function("bwd_8x8c16x16", |b| {
        b.iter(|| conv.backward(&g));
    });
    group.bench_function("bwd_8x8c16x16_pool_off", |b| {
        b.iter(|| rayon::serial_scope(|| conv.backward(&g)));
    });
    // The ResNet's stage-1 16→16 layer at training batch 32: its columns
    // for the whole batch (about 19 MB) would not fit in cache.
    let x = rng.normal_tensor(&[32, 16, 32, 32], 1.0);
    let mut conv = nn::Conv2d::new(16, 16, 3, 1, 1, &mut rng);
    let g = rng.normal_tensor(&[32, 16, 32, 32], 1.0);
    group.bench_function("fwd_bwd_32x16c32x32", |b| {
        b.iter(|| {
            let _ = conv.forward(&x, true);
            conv.backward(&g)
        });
    });
    group.finish();
}

/// One sample's lowering at the ResNet's stage-1 shape (16×32×32, k3 s1
/// p1) and its stride-2 downsampling shape (16→32, k3 s2 p1).
fn conv_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_lowering");
    let mut rng = Rng::seed(4);
    let (ch, h, w, k, pad) = (16, 32, 32, 3, 1);
    let img = rng.normal_tensor(&[ch * h * w], 1.0);
    for (name, stride) in [("c16x32x32_k3s1p1", 1), ("c16x32x32_k3s2p1", 2)] {
        let ohow = out_dim(h, k, stride, pad) * out_dim(w, k, stride, pad);
        let mut cols = vec![0.0f32; ch * k * k * ohow];
        let mut dx = vec![0.0f32; ch * h * w];
        group.bench_function(format!("im2col_{name}"), |b| {
            b.iter(|| im2col_into(img.data(), ch, h, w, k, k, stride, pad, pad, &mut cols));
        });
        group.bench_function(format!("col2im_{name}"), |b| {
            b.iter(|| col2im_into(&cols, ch, h, w, k, k, stride, pad, pad, &mut dx));
        });
    }
    group.finish();
}

fn gru_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("gru");
    group.sample_size(20);
    let mut rng = Rng::seed(3);
    let mut gru = nn::Gru::new(10, 32, &mut rng);
    let x = rng.normal_tensor(&[16, 48, 10], 1.0);
    group.bench_function("fwd_16x48x10_h32", |b| {
        b.iter(|| gru.forward(&x, true));
    });
    let y = gru.forward(&x, true);
    let g = rng.normal_tensor(y.shape(), 1.0);
    group.bench_function("bwd_16x48x10_h32", |b| {
        b.iter(|| gru.backward(&g));
    });
    group.finish();
}

criterion_group!(
    benches,
    matmul_kernels,
    conv_lowering,
    conv_forward_backward,
    gru_step
);
criterion_main!(benches);
