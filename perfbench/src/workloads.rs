//! The three workloads: data generation, model builders (plain and
//! traced), loss and optimizer. The seed given to the benchmark picks
//! the data; the trainer seed (weight init and shuffle order) is the
//! trainer's default, so runs of different seeds differ only in their
//! samples. The program only ever sees the generated datasets.

use crate::trace::{Flops, Kind, Lane, Traced};
use data::bigearth::{self, BigEarthConfig};
use data::icu::{self, IcuConfig};
use data::stream::BatchStream;
use data::Dataset;
use nn::layer::Flatten;
use nn::{
    Adam, BatchNorm, Conv2d, Dense, Dropout, GlobalAvgPool2d, Gru, Layer, Loss, MaskedMae,
    Optimizer, Relu, Residual, Sequential, SoftmaxCrossEntropy,
};
use tensor::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ResnetBigearth,
    GruIcu,
    MlpBigearth,
}

/// A GEMM probe shape in the orientation a layer calls it:
/// `nn` is `(m×k)·(k×n)`, `tn` is `(k×m)ᵀ·(k×n)`, `nt` is `(m×k)·(n×k)ᵀ`.
#[derive(Debug, Clone, Copy)]
pub struct GemmShape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Training samples (a multiple of `2 × batch`, so both worker
    /// counts see only full batches).
    pub train: usize,
    /// Held-out samples for the inference metric.
    pub test: usize,
    pub epochs: usize,
    pub batch: usize,
    pub lr: f32,
    /// The largest GEMM of the model, per orientation.
    pub gemm_nn: GemmShape,
    pub gemm_tn: GemmShape,
    pub gemm_nt: GemmShape,
}

const BIGEARTH: BigEarthConfig = BigEarthConfig {
    bands: 4,
    size: 32,
    classes: 10,
    noise: 0.3,
};
/// BigEarthNet patches are drawn from one pool whose class signatures
/// are fixed, so a seed changes the samples but not how separable the
/// classes are (the generator draws new signatures for every seed, which
/// moves the loss by more than any regression bound could tolerate).
const BIGEARTH_POOL: usize = 1024;
const BIGEARTH_POOL_SEED: u64 = 2021;
const ICU_STEPS: usize = 48;
const GRU_FEATURES: usize = 2 * icu::FEATURES;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ResnetBigearth,
        Workload::GruIcu,
        Workload::MlpBigearth,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ResnetBigearth => "resnet_bigearth",
            Workload::GruIcu => "gru_icu",
            Workload::MlpBigearth => "mlp_bigearth",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn spec(self) -> Spec {
        match self {
            // Stage-1 conv, im2col per sample: W (16×144) · cols (144×1024);
            // backward dW = g · colsᵀ (nt) and dcols = Wᵀ · g (tn).
            Workload::ResnetBigearth => Spec {
                train: 256,
                test: 128,
                epochs: 2,
                batch: 32,
                lr: 1e-3,
                gemm_nn: GemmShape {
                    m: 16,
                    k: 144,
                    n: 1024,
                },
                gemm_tn: GemmShape {
                    m: 144,
                    k: 16,
                    n: 1024,
                },
                gemm_nt: GemmShape {
                    m: 16,
                    k: 1024,
                    n: 144,
                },
            },
            // Dense(32→1) head over the (N·T, 32) rows of a batch.
            Workload::GruIcu => Spec {
                train: 512,
                test: 256,
                epochs: 2,
                batch: 32,
                lr: 1e-4,
                gemm_nn: GemmShape {
                    m: 32 * ICU_STEPS,
                    k: 32,
                    n: 1,
                },
                gemm_tn: GemmShape {
                    m: 32,
                    k: 32 * ICU_STEPS,
                    n: 1,
                },
                gemm_nt: GemmShape {
                    m: 32 * ICU_STEPS,
                    k: 1,
                    n: 32,
                },
            },
            // Dense(4096→1024) at batch 32: forward, dW = xᵀ·g, dx = g·Wᵀ.
            Workload::MlpBigearth => Spec {
                train: 512,
                test: 128,
                epochs: 2,
                batch: 32,
                lr: 1e-4,
                gemm_nn: GemmShape {
                    m: 32,
                    k: 4096,
                    n: 1024,
                },
                gemm_tn: GemmShape {
                    m: 4096,
                    k: 32,
                    n: 1024,
                },
                gemm_nt: GemmShape {
                    m: 32,
                    k: 1024,
                    n: 4096,
                },
            },
        }
    }

    /// Generates `(train, test)` for this workload from `seed`.
    pub fn generate(self, seed: u64) -> (Dataset, Dataset) {
        let spec = self.spec();
        let n = spec.train + spec.test;
        let all = match self {
            Workload::ResnetBigearth | Workload::MlpBigearth => {
                let pool = bigearth::generate(BIGEARTH_POOL, &BIGEARTH, BIGEARTH_POOL_SEED);
                // One "batch" of `n` items in a seeded order is a seeded subset.
                let (x, y) = BatchStream::new(&pool, n, &mut Rng::seed(seed))
                    .next_batch()
                    .expect("the pool holds more than one workload's samples");
                Dataset { x, y }
            }
            Workload::GruIcu => {
                let cfg = IcuConfig {
                    steps: ICU_STEPS,
                    ..IcuConfig::default()
                };
                let cohort = icu::generate(n, &cfg, seed);
                let task = icu::imputation_task(&cohort, icu::SPO2, 0.3, seed ^ 0x1C0);
                Dataset {
                    x: task.inputs,
                    y: task.targets,
                }
            }
        };
        all.split(spec.test as f64 / n as f64)
    }

    /// The model as the program's own builders make it.
    pub fn build(self, seed: u64) -> Sequential {
        let mut rng = Rng::seed(seed);
        match self {
            Workload::ResnetBigearth => {
                nn::models::resnet_mini(BIGEARTH.bands, 10, 16, 2, &mut rng)
            }
            Workload::GruIcu => nn::models::gru_imputer(GRU_FEATURES, &mut rng),
            Workload::MlpBigearth => mlp(&mut rng, None),
        }
    }

    /// The same model with every layer, nested ones included, wrapped in
    /// a [`Traced`] recording on `lane`. Construction order — and so the
    /// initial parameters — mirrors [`Workload::build`] exactly.
    pub fn build_traced(self, seed: u64, lane: &Lane) -> Sequential {
        let mut rng = Rng::seed(seed);
        match self {
            Workload::ResnetBigearth => resnet_traced(&mut rng, lane),
            Workload::GruIcu => gru_traced(&mut rng, lane),
            Workload::MlpBigearth => mlp(&mut rng, Some(lane)),
        }
    }

    pub fn loss(self) -> WorkloadLoss {
        match self {
            Workload::ResnetBigearth | Workload::MlpBigearth => WorkloadLoss::CrossEntropy,
            Workload::GruIcu => WorkloadLoss::MaskedMae,
        }
    }

    pub fn optimizer(self, lr: f32) -> Box<dyn Optimizer> {
        Box::new(Adam::new(lr))
    }
}

/// The workload's loss, as one `Loss` type so plain and traced runs
/// share a trainer instantiation shape.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadLoss {
    CrossEntropy,
    MaskedMae,
}

impl Loss for WorkloadLoss {
    fn compute(&self, pred: &tensor::Tensor, target: &tensor::Tensor) -> (f32, tensor::Tensor) {
        match self {
            WorkloadLoss::CrossEntropy => SoftmaxCrossEntropy.compute(pred, target),
            WorkloadLoss::MaskedMae => MaskedMae.compute(pred, target),
        }
    }
}

fn wrap<L: Layer + 'static>(layer: L, kind: Kind, flops: Flops, lane: &Lane) -> Traced<L> {
    Traced::new(layer, kind, flops, lane)
}

fn conv(c: usize, f: usize, stride: usize, rng: &mut Rng, lane: &Lane) -> Traced<Conv2d> {
    let flops = Flops::Conv {
        f,
        c,
        k: 3,
        stride,
        pad: 1,
    };
    wrap(
        Conv2d::new(c, f, 3, stride, 1, rng),
        Kind::Conv2d,
        flops,
        lane,
    )
}

fn bn(ch: usize, lane: &Lane) -> Traced<BatchNorm> {
    wrap(BatchNorm::new(ch), Kind::BatchNorm, Flops::None, lane)
}

fn relu(lane: &Lane) -> Traced<Relu> {
    wrap(Relu::new(), Kind::Relu, Flops::None, lane)
}

fn dense(inp: usize, out: usize, rng: &mut Rng, lane: &Lane) -> Traced<Dense> {
    wrap(
        Dense::new(inp, out, rng),
        Kind::Dense,
        Flops::Dense { inp, out },
        lane,
    )
}

/// `nn::models::resnet_mini(4, 10, 16, 2)` rebuilt layer by layer.
fn resnet_traced(rng: &mut Rng, lane: &Lane) -> Sequential {
    let block = |ch: usize, rng: &mut Rng| {
        let main = Sequential::new()
            .push(bn(ch, lane))
            .push(relu(lane))
            .push(conv(ch, ch, 1, rng, lane))
            .push(bn(ch, lane))
            .push(relu(lane))
            .push(conv(ch, ch, 1, rng, lane));
        wrap(Residual::new(main), Kind::Residual, Flops::None, lane)
    };
    let (width, stages) = (16, 2);
    let mut model = Sequential::new().push(conv(BIGEARTH.bands, width, 1, rng, lane).first());
    let mut ch = width;
    for s in 0..stages {
        model = model.push(block(ch, rng));
        if s + 1 < stages {
            model = model
                .push(bn(ch, lane))
                .push(relu(lane))
                .push(conv(ch, ch * 2, 2, rng, lane));
            ch *= 2;
        }
    }
    model
        .push(bn(ch, lane))
        .push(relu(lane))
        .push(wrap(
            GlobalAvgPool2d::new(),
            Kind::GlobalAvgPool2d,
            Flops::None,
            lane,
        ))
        .push(dense(ch, 10, rng, lane))
}

/// `nn::models::gru_imputer(10)` rebuilt layer by layer.
fn gru_traced(rng: &mut Rng, lane: &Lane) -> Sequential {
    let gru = |inp: usize, rng: &mut Rng| {
        wrap(
            Gru::new(inp, 32, rng),
            Kind::Gru,
            Flops::Gru { inp, h: 32 },
            lane,
        )
    };
    let dropout = |seed: u64| wrap(Dropout::new(0.2, seed), Kind::Dropout, Flops::None, lane);
    Sequential::new()
        .push(gru(GRU_FEATURES, rng).first())
        .push(dropout(1001))
        .push(gru(32, rng))
        .push(dropout(1002))
        .push(dense(32, 1, rng, lane))
}

/// Flatten → Dense(4096,1024) → ReLU → Dense(1024,1024) → ReLU →
/// Dense(1024,10), traced when `lane` is given.
fn mlp(rng: &mut Rng, lane: Option<&Lane>) -> Sequential {
    let inp = BIGEARTH.bands * BIGEARTH.size * BIGEARTH.size;
    let Some(lane) = lane else {
        return Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(inp, 1024, rng))
            .push(Relu::new())
            .push(Dense::new(1024, 1024, rng))
            .push(Relu::new())
            .push(Dense::new(1024, 10, rng));
    };
    Sequential::new()
        .push(wrap(Flatten::new(), Kind::Flatten, Flops::None, lane).first())
        .push(dense(inp, 1024, rng, lane))
        .push(relu(lane))
        .push(dense(1024, 1024, rng, lane))
        .push(relu(lane))
        .push(dense(1024, 10, rng, lane))
}
