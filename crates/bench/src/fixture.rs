//! Fixtures shared by the `experiments` reports: the pinned pool width,
//! the toy classification problem and its model/optimiser, and the
//! hashing, timing and ratio helpers every report renders with.

use std::time::Instant;

use data::Dataset;
use distrib::TrainConfig;
use nn::{Dense, Optimizer, Relu, Sequential, Sgd};
use tensor::{Rng, Tensor};

/// Pool width every report pins (first caller wins). Pinning makes the
/// deterministic counters and the overlapped trainer schedules
/// independent of the runner's core count.
pub(crate) const POOL_THREADS: usize = 4;

/// Separable toy problem: `n` rows of `dim` features, `classes`
/// labels, the label's own feature shifted by +2. Fully seed-determined.
pub(crate) fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed(seed);
    let mut x = Vec::with_capacity(n * dim);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(classes);
        let mut row: Vec<f32> = (0..dim).map(|_| rng.normal() * 0.3).collect();
        row[c] += 2.0;
        x.extend(row);
        y.push(c as f32);
    }
    Dataset {
        x: Tensor::from_vec(x, &[n, dim]),
        y: Tensor::from_vec(y, &[n]),
    }
}

/// The toy problem's training recipe: `ranks` workers, linear lr
/// scaling from 0.05 with one warm-up epoch, no checkpoints.
pub(crate) fn toy_cfg(
    ranks: usize,
    epochs: usize,
    batch_per_worker: usize,
    seed: u64,
) -> TrainConfig {
    TrainConfig {
        workers: ranks,
        epochs,
        batch_per_worker,
        base_lr: 0.05,
        lr_scaling: true,
        warmup_epochs: 1,
        seed,
        checkpoint: None,
    }
}

/// A small classification model: `dim → hidden → classes`.
pub(crate) fn mlp(
    dim: usize,
    hidden: usize,
    classes: usize,
) -> impl Fn(u64) -> Sequential + Sync + Copy {
    move |seed| {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(dim, hidden, &mut rng))
            .push(Relu::new())
            .push(Dense::new(hidden, classes, &mut rng))
    }
}

/// Momentum-0.9 SGD with the given weight decay, as a trainer
/// optimiser factory.
pub(crate) fn sgd(weight_decay: f32) -> impl Fn(f32) -> Box<dyn Optimizer> + Sync + Copy {
    move |lr| Box::new(Sgd::new(lr, 0.9, weight_decay))
}

/// Order-sensitive FNV-style hash over the exact f32 bit patterns: any
/// single-bit deviation in any element changes the checksum.
pub(crate) fn bits_hash(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Same length and the same bits in every element.
pub(crate) fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Minimum wall time of `reps` runs of `f`, in nanoseconds. The minimum
/// is the noise-robust estimator here: scheduler preemption and
/// frequency dips only ever make a run *slower*, so the fastest
/// observation is the closest to the kernel's true cost.
pub(crate) fn min_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `base / improved` in integer thousandths (a divide-by-zero guard
/// keeps a zero denominator finite).
pub(crate) fn speedup_milli(base: u64, improved: u64) -> u64 {
    base * 1000 / improved.max(1)
}
