//! PR-4 kernel-throughput report (`experiments kernels` →
//! `BENCH_pr4.json`).
//!
//! Measures the blocked/packed compute kernels against the seed
//! baselines they replaced, on the shapes the training hot path actually
//! runs: square matmul at 64/256/512, the A·Bᵀ products that dominate
//! training backward (conv `dW` at stages 1 and 2, `Dense(4096→1024)`
//! `dx`) and a Conv2d forward+backward step. Four variants per square
//! matmul shape:
//!
//! * `new_pool_on` — blocked kernels over the persistent pool;
//! * `new_pool_off` — same kernels inside `serial_scope` (pool bypassed);
//! * `ref_serial` — the seed ikj kernel, serial (the bit-exactness
//!   oracle);
//! * `seed_spawn` — the seed kernel scheduled the seed-shim way: fresh
//!   scoped OS threads and per-batch index `Vec`s on every call.
//!
//! The report has two sections: `counters` is fully deterministic
//! (kernel checksums, bit-equality flags, scratch-growth counts — the
//! artifact gate builds it twice and byte-compares this section) and
//! `timings` carries the wall-clock numbers and speedups, which
//! naturally vary run to run.

use std::fmt::Write as _;

use crate::fixture::{bits_hash, min_ns, POOL_THREADS};
use crate::report::Report;
use nn::Layer;
use rayon::prelude::*;
use tensor::conv::{col2im, im2col};
use tensor::matmul::{matmul, matmul_nt, matmul_tn, reference};
use tensor::{Rng, Tensor};

/// Seed-style Conv2d baseline: the exact allocation and kernel pattern
/// the layer had before the arena rework — per-sample column/gradient
/// `Tensor`s, a cloned weight matrix per pass, serial seed ikj kernels,
/// batch parallelism over the pool.
struct SeedConv {
    w: Tensor, // (F, C, K, K)
    b: Tensor,
    stride: usize,
    pad: usize,
    cols: Vec<Tensor>,
    in_shape: Vec<usize>,
    oh: usize,
    ow: usize,
}

impl SeedConv {
    fn new(w: Tensor, b: Tensor, stride: usize, pad: usize) -> SeedConv {
        SeedConv {
            w,
            b,
            stride,
            pad,
            cols: Vec::new(),
            in_shape: Vec::new(),
            oh: 0,
            ow: 0,
        }
    }

    fn wmat(&self) -> Tensor {
        let s = self.w.shape();
        self.w.clone().reshape(&[s[0], s[1] * s[2] * s[3]])
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.w.shape()[2];
        let f = self.w.shape()[0];
        let oh = tensor::conv::out_dim(h, k, self.stride, self.pad);
        let ow = tensor::conv::out_dim(w, k, self.stride, self.pad);
        let wmat = self.wmat();
        let bias = self.b.data().to_vec();
        let per_img = c * h * w;
        let results: Vec<(Tensor, Tensor)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let img = &input.data()[i * per_img..(i + 1) * per_img];
                let cols = im2col(img, c, h, w, k, k, self.stride, self.pad, self.pad);
                let mut y = reference::matmul_ikj(&wmat, &cols);
                for (ff, &bf) in bias.iter().enumerate() {
                    for v in y.row_mut(ff) {
                        *v += bf;
                    }
                }
                (y, cols)
            })
            .collect();
        let mut out = Vec::with_capacity(n * f * oh * ow);
        let mut cols_cache = Vec::with_capacity(n);
        for (y, cols) in results {
            out.extend_from_slice(y.data());
            cols_cache.push(cols);
        }
        self.cols = cols_cache;
        self.in_shape = input.shape().to_vec();
        self.oh = oh;
        self.ow = ow;
        Tensor::from_vec(out, &[n, f, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
        let (n, c, h, w) = (
            self.in_shape[0],
            self.in_shape[1],
            self.in_shape[2],
            self.in_shape[3],
        );
        let k = self.w.shape()[2];
        let f = self.w.shape()[0];
        let (oh, ow) = (self.oh, self.ow);
        let wmat = self.wmat();
        let per_g = f * oh * ow;
        let results: Vec<(Tensor, Vec<f32>, Vec<f32>)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let g = Tensor::from_vec(
                    grad_out.data()[i * per_g..(i + 1) * per_g].to_vec(),
                    &[f, oh * ow],
                );
                let cols = &self.cols[i];
                let dw = reference::matmul_nt_dot(&g, cols);
                let db: Vec<f32> = (0..f).map(|ff| g.row(ff).iter().sum()).collect();
                let dcols = reference::matmul_tn_ikj(&wmat, &g);
                let dx = col2im(&dcols, c, h, w, k, k, self.stride, self.pad, self.pad);
                (dw, db, dx)
            })
            .collect();
        let mut dw_acc = Tensor::zeros(&[f, c * k * k]);
        let mut db_acc = vec![0.0f32; f];
        let mut dx_all = Vec::with_capacity(n * c * h * w);
        for (dw, db, dx) in results {
            dw_acc.zip_inplace(&dw, |a, b| a + b);
            for (acc, d) in db_acc.iter_mut().zip(&db) {
                *acc += d;
            }
            dx_all.extend_from_slice(&dx);
        }
        (Tensor::from_vec(dx_all, &self.in_shape), dw_acc, db_acc)
    }
}

struct MatmulRow {
    n: usize,
    hash_nn: u64,
    hash_tn: u64,
    hash_nt: u64,
    bit_equal_ref: bool,
    bit_equal_pool_off: bool,
    ns_new_pool_on: f64,
    ns_new_pool_off: f64,
    ns_ref_serial: f64,
    ns_seed_spawn: f64,
}

/// One A·Bᵀ hot shape: the packed nt kernel against the seed dot chain.
struct NtHotRow {
    m: usize,
    k: usize,
    n: usize,
    hash_nt: u64,
    bit_equal_ref: bool,
    bit_equal_pool_off: bool,
    ns_new_pool_on: f64,
    ns_ref_serial: f64,
}

/// `(m, k, n)` of the training hot path's A·Bᵀ products: conv `dW` of
/// `resnet_bigearth` stages 1 and 2, and the `Dense(4096→1024)` `dx` of
/// `mlp_bigearth`, all at batch 32.
const NT_HOT_SHAPES: [(usize, usize, usize); 3] =
    [(16, 1024, 144), (32, 256, 288), (32, 1024, 4096)];

struct ConvSection {
    hash_fwd: u64,
    hash_bwd: u64,
    bit_equal_seed: bool,
    bit_equal_pool_off: bool,
    grows_warm: (u64, u64),
    grows_stable: bool,
    ns_fwd_new: f64,
    ns_fwd_seed: f64,
    ns_bwd_new: f64,
    ns_bwd_seed: f64,
}

fn bench_matmul(n: usize, reps: usize) -> MatmulRow {
    let mut rng = Rng::seed(n as u64);
    let a = rng.normal_tensor(&[n, n], 1.0);
    let b = rng.normal_tensor(&[n, n], 1.0);

    let c_new = matmul(&a, &b);
    let c_ref = reference::matmul_ikj(&a, &b);
    let c_off = rayon::serial_scope(|| matmul(&a, &b));
    let c_tn = matmul_tn(&a, &b);
    let c_nt = matmul_nt(&a, &b);
    let bit_equal_ref = bits_equal(&c_new, &c_ref)
        && bits_equal(&c_tn, &reference::matmul_tn_ikj(&a, &b))
        && bits_equal(&c_nt, &reference::matmul_nt_dot(&a, &b));
    let bit_equal_pool_off = bits_equal(&c_new, &c_off)
        && bits_equal(&c_tn, &rayon::serial_scope(|| matmul_tn(&a, &b)))
        && bits_equal(&c_nt, &rayon::serial_scope(|| matmul_nt(&a, &b)));

    MatmulRow {
        n,
        hash_nn: bits_hash(c_new.data()),
        hash_tn: bits_hash(c_tn.data()),
        hash_nt: bits_hash(c_nt.data()),
        bit_equal_ref,
        bit_equal_pool_off,
        ns_new_pool_on: min_ns(reps, || matmul(&a, &b)),
        ns_new_pool_off: min_ns(reps, || rayon::serial_scope(|| matmul(&a, &b))),
        ns_ref_serial: min_ns(reps, || reference::matmul_ikj(&a, &b)),
        ns_seed_spawn: min_ns(reps, || {
            reference::matmul_ikj_spawn_per_call(&a, &b, POOL_THREADS)
        }),
    }
}

fn bits_equal(x: &Tensor, y: &Tensor) -> bool {
    crate::fixture::bits_equal(x.data(), y.data())
}

fn bench_nt_hot((m, k, n): (usize, usize, usize), reps: usize) -> NtHotRow {
    let mut rng = Rng::seed((m * k + n) as u64);
    let a = rng.normal_tensor(&[m, k], 1.0);
    let b = rng.normal_tensor(&[n, k], 1.0);
    let c_new = matmul_nt(&a, &b);
    NtHotRow {
        m,
        k,
        n,
        hash_nt: bits_hash(c_new.data()),
        bit_equal_ref: bits_equal(&c_new, &reference::matmul_nt_dot(&a, &b)),
        bit_equal_pool_off: bits_equal(&c_new, &rayon::serial_scope(|| matmul_nt(&a, &b))),
        ns_new_pool_on: min_ns(reps, || matmul_nt(&a, &b)),
        ns_ref_serial: min_ns(reps, || reference::matmul_nt_dot(&a, &b)),
    }
}

fn bench_conv(reps: usize) -> ConvSection {
    let mut rng = Rng::seed(42);
    let x = rng.normal_tensor(&[8, 8, 16, 16], 1.0);
    let mut conv = nn::Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    let (w0, b0) = {
        let p = conv.params();
        (p[0].value.clone(), p[1].value.clone())
    };
    let mut seed = SeedConv::new(w0, b0, 1, 1);

    let y_new = conv.forward(&x, true);
    let y_seed = seed.forward(&x);
    let g = Tensor::ones(y_new.shape());
    let dx_new = conv.backward(&g);
    let (dx_seed, _, _) = seed.backward(&g);
    let y_off = rayon::serial_scope(|| conv.forward(&x, true));
    let dx_off = rayon::serial_scope(|| conv.backward(&g));

    let bit_equal_seed = bits_equal(&y_new, &y_seed) && bits_equal(&dx_new, &dx_seed);
    let bit_equal_pool_off = bits_equal(&y_new, &y_off) && bits_equal(&dx_new, &dx_off);

    // Warm-up happened above; steady-state steps must not grow scratch.
    let grows_warm = conv.scratch_grows();
    for _ in 0..3 {
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&g);
    }
    let grows_stable = conv.scratch_grows() == grows_warm;

    ConvSection {
        hash_fwd: bits_hash(y_new.data()),
        hash_bwd: bits_hash(dx_new.data()),
        bit_equal_seed,
        bit_equal_pool_off,
        grows_warm,
        grows_stable,
        ns_fwd_new: min_ns(reps, || conv.forward(&x, true)),
        ns_fwd_seed: min_ns(reps, || seed.forward(&x)),
        ns_bwd_new: min_ns(reps, || conv.backward(&g)),
        ns_bwd_seed: min_ns(reps, || seed.backward(&g)),
    }
}

fn counters_json(rows: &[MatmulRow], nt_hot: &[NtHotRow], conv: &ConvSection) -> String {
    let mut s = String::from("{\n  \"pool_threads\": ");
    let _ = write!(s, "{}", rayon::current_num_threads());
    s.push_str(",\n  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"hash_nn\": \"{:016x}\", \"hash_tn\": \"{:016x}\", \"hash_nt\": \"{:016x}\", \"bit_equal_ref\": {}, \"bit_equal_pool_off\": {}}}{}",
            r.n,
            r.hash_nn,
            r.hash_tn,
            r.hash_nt,
            r.bit_equal_ref,
            r.bit_equal_pool_off,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"matmul_nt_hot\": [\n");
    for (i, r) in nt_hot.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"hash_nt\": \"{:016x}\", \"bit_equal_ref\": {}, \"bit_equal_pool_off\": {}}}{}",
            r.m,
            r.k,
            r.n,
            r.hash_nt,
            r.bit_equal_ref,
            r.bit_equal_pool_off,
            if i + 1 < nt_hot.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"conv2d\": ");
    let _ = writeln!(
        s,
        "{{\"hash_fwd\": \"{:016x}\", \"hash_bwd\": \"{:016x}\", \"bit_equal_seed\": {}, \"bit_equal_pool_off\": {}, \"scratch_grows\": [{}, {}], \"grows_stable\": {}}}",
        conv.hash_fwd,
        conv.hash_bwd,
        conv.bit_equal_seed,
        conv.bit_equal_pool_off,
        conv.grows_warm.0,
        conv.grows_warm.1,
        conv.grows_stable
    );
    s.push('}');
    s
}

fn timings_json(rows: &[MatmulRow], nt_hot: &[NtHotRow], conv: &ConvSection) -> String {
    let mut s = String::from("{\n  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"ns_new_pool_on\": {:.0}, \"ns_new_pool_off\": {:.0}, \"ns_ref_serial\": {:.0}, \"ns_seed_spawn\": {:.0}, \"speedup_vs_seed_spawn\": {:.2}, \"speedup_serial_vs_ref\": {:.2}}}{}",
            r.n,
            r.ns_new_pool_on,
            r.ns_new_pool_off,
            r.ns_ref_serial,
            r.ns_seed_spawn,
            r.ns_seed_spawn / r.ns_new_pool_on,
            r.ns_ref_serial / r.ns_new_pool_off,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"matmul_nt_hot\": [\n");
    for (i, r) in nt_hot.iter().enumerate() {
        let flops = 2.0 * (r.m * r.k * r.n) as f64;
        let _ = writeln!(
            s,
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"ns_new_pool_on\": {:.0}, \"ns_ref_serial\": {:.0}, \"gflops_new_pool_on\": {:.1}, \"gflops_ref_serial\": {:.1}}}{}",
            r.m,
            r.k,
            r.n,
            r.ns_new_pool_on,
            r.ns_ref_serial,
            flops / r.ns_new_pool_on,
            flops / r.ns_ref_serial,
            if i + 1 < nt_hot.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"conv2d\": ");
    let _ = writeln!(
        s,
        "{{\"ns_fwd_new\": {:.0}, \"ns_fwd_seed\": {:.0}, \"ns_bwd_new\": {:.0}, \"ns_bwd_seed\": {:.0}, \"speedup_fwd\": {:.2}, \"speedup_bwd\": {:.2}, \"speedup_fwd_bwd\": {:.2}}}",
        conv.ns_fwd_new,
        conv.ns_fwd_seed,
        conv.ns_bwd_new,
        conv.ns_bwd_seed,
        conv.ns_fwd_seed / conv.ns_fwd_new,
        conv.ns_bwd_seed / conv.ns_bwd_new,
        (conv.ns_fwd_seed + conv.ns_bwd_seed) / (conv.ns_fwd_new + conv.ns_bwd_new)
    );
    s.push('}');
    s
}

/// The full kernel report: `counters` is deterministic run-to-run,
/// `full` embeds counters plus wall-clock timings and is the committed
/// `BENCH_pr4.json` artifact. Every bit-equality and scratch-stability
/// flag the counters render is a contract.
pub fn kernel_report(fast: bool) -> Report {
    // Pin the pool width so partitioning (and thus every counter) is
    // independent of the runner; no-op if the pool is already up.
    let _ = rayon::init_with_threads(POOL_THREADS);
    // Fast mode (MSA_BENCH_FAST=1, debug-test runs) drops the 512 size
    // and trims repetitions; the committed artifact uses the full sweep.
    let (sizes, reps): (&[usize], usize) = if fast { (&[64, 256], 2) } else { (&[64, 256, 512], 9) };
    let rows: Vec<MatmulRow> = sizes.iter().map(|&n| bench_matmul(n, reps)).collect();
    let nt_hot: Vec<NtHotRow> = NT_HOT_SHAPES
        .iter()
        .map(|&s| bench_nt_hot(s, reps))
        .collect();
    let conv = bench_conv(reps);

    let counters = counters_json(&rows, &nt_hot, &conv);
    let mut full = String::from("{\n\"counters\": ");
    full.push_str(&counters);
    full.push_str(",\n\"timings\": ");
    full.push_str(&timings_json(&rows, &nt_hot, &conv));
    full.push_str("\n}");
    let flags = vec![
        ("matmul_bit_equal_ref", rows.iter().all(|r| r.bit_equal_ref)),
        (
            "matmul_bit_equal_pool_off",
            rows.iter().all(|r| r.bit_equal_pool_off),
        ),
        (
            "matmul_nt_hot_bit_equal_ref",
            nt_hot.len() == NT_HOT_SHAPES.len() && nt_hot.iter().all(|r| r.bit_equal_ref),
        ),
        (
            "matmul_nt_hot_bit_equal_pool_off",
            nt_hot.iter().all(|r| r.bit_equal_pool_off),
        ),
        ("conv2d_bit_equal_seed", conv.bit_equal_seed),
        ("conv2d_bit_equal_pool_off", conv.bit_equal_pool_off),
        ("conv2d_grows_stable", conv.grows_stable),
    ];
    Report {
        counters,
        full,
        table: None,
        flags,
    }
}
