//! Wall-clock training benchmark of the data-parallel trainer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet_bigearth --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing wrapped;
//! `--trace 1` alternates untraced and traced runs and reports the
//! per-layer metrics. The last line of standard output is the JSON result; progress goes to
//! standard error. The exit code is non-zero when the correctness gate
//! fails. See `perfbench/README.md`.

mod layers;
mod probes;
mod stats;
mod trace;
mod workloads;

use distrib::{TrainConfig, TrainReport, Trainer};
use nn::Layer as _;
use stats::{median, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use trace::{TracedLoss, TracedOptimizer, Tracer};
use workloads::{Spec, Workload};

/// Regression bound of `samples_per_s`, as in `BENCHMARK.json`; a timed
/// epoch whose throughput drifts from the first by more fails the run.
pub const THROUGHPUT_BOUND: f64 = 0.25;

/// Set-ups are timed at least this many times and for at least this
/// long; the median is reported.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Minimum seconds of inference passes after each timed pair of runs.
const INFER_SLOT_S: f64 = 0.3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Outcome of the correctness gate plus the step tally.
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Tallies one training run's steps and checks its losses: every
    /// epoch loss finite, and the last epoch below the first.
    pub fn run(&mut self, label: &str, spec: &Spec, workers: usize, r: &TrainReport) {
        let per_epoch = spec.train / (workers * spec.batch);
        let expected = (spec.epochs * per_epoch) as u64;
        let bad_epochs = r.epochs.iter().filter(|e| !e.mean_loss.is_finite()).count() as u64;
        let missing = expected.saturating_sub(r.steps_per_rank as u64);
        self.attempted += expected * workers as u64;
        self.failed += (missing + bad_epochs * per_epoch as u64).min(expected) * workers as u64;
        self.check(
            missing == 0,
            format!("{label}: {missing} steps did not complete"),
        );
        self.check(bad_epochs == 0, format!("{label}: non-finite epoch loss"));
        let (first, last) = (
            r.epochs[0].mean_loss,
            r.epochs[r.epochs.len() - 1].mean_loss,
        );
        self.check(
            last < first,
            format!("{label}: last epoch loss {last} not below first {first}"),
        );
    }
}

/// The trainer configuration of a workload; everything not set here,
/// the trainer seed included, is the trainer's default.
pub fn config(w: Workload, workers: usize) -> TrainConfig {
    let spec = w.spec();
    TrainConfig {
        workers,
        epochs: spec.epochs,
        batch_per_worker: spec.batch,
        base_lr: spec.lr,
        ..TrainConfig::default()
    }
}

/// One untraced `Trainer::run` and its wall time in seconds.
pub fn train(w: Workload, ds: &data::Dataset, cfg: TrainConfig) -> (TrainReport, f64) {
    let t = Instant::now();
    let report = Trainer::new(cfg)
        .run(ds, |s| w.build(s), |lr| w.optimizer(lr), w.loss())
        .expect("a run without resume cannot fail validation")
        .completed();
    (report, t.elapsed().as_secs_f64())
}

/// One `Trainer::run` with every layer, the loss and the optimizer
/// wrapped, recording one lane per replica on `tracer`.
pub fn train_traced(
    w: Workload,
    ds: &data::Dataset,
    cfg: TrainConfig,
    tracer: &Tracer,
    recorder: std::sync::Arc<msa_obs::MetricsRegistry>,
) -> (TrainReport, f64) {
    let t = Instant::now();
    let report = Trainer::new(cfg)
        .recorder(recorder)
        .run(
            ds,
            |s| w.build_traced(s, &tracer.replica_lane()),
            |lr| Box::new(TracedOptimizer::new(w.optimizer(lr))),
            TracedLoss(w.loss()),
        )
        .expect("a run without resume cannot fail validation")
        .completed();
    (report, t.elapsed().as_secs_f64())
}

pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Gate checks that need no timing: the traced builder reproduces the
/// program's initial parameters bit for bit.
fn check_init(w: Workload, seed: u64, gate: &mut Gate) {
    let lane = Tracer::default().replica_lane();
    let traced = w.build_traced(seed, &lane);
    let plain = w.build(seed);
    gate.check(
        bits(&traced.values_vec()) == bits(&plain.values_vec()),
        "traced model's initial parameters differ from the builder's",
    );
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: set-up, warm-up, alternating timed p=2 and p=1
/// runs for `seconds`, inference over the held-out split.
fn end_to_end(w: Workload, seed: u64, seconds: f64, gate: &mut Gate) -> Metrics {
    let spec = w.spec();
    let model_seed = config(w, 2).seed;
    let mut setup = Vec::new();
    let mut datasets = None;
    let begin = Instant::now();
    while setup.len() < SETUP_REPS || begin.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        let ds = w.generate(seed);
        let model = w.build(model_seed);
        setup.push(t.elapsed().as_secs_f64());
        std::hint::black_box(model);
        datasets = Some(ds);
    }
    let (train_ds, test_ds) = datasets.expect("SETUP_REPS > 0");
    check_init(w, model_seed, gate);
    layers::check_traced_matches(w, &train_ds, gate);

    let (warm, _) = train(w, &train_ds, config(w, 2));
    gate.run("warm-up", &spec, 2, &warm);
    // Forward-only use of the trained model over the held-out split; the
    // first pass, which sizes the layers' scratch buffers, is not timed.
    let mut model = w.build(model_seed);
    model.set_values(&warm.final_params);
    model.set_state(&warm.final_state);
    model.predict(&test_ds.x);

    // Timed p=2 and p=1 runs alternate, each pair followed by a slot of
    // inference passes, so every metric samples the whole measurement
    // window. No pair starts that would end after the window.
    let samples = (spec.train * spec.epochs) as f64;
    let (mut p2, mut p1, mut infer) = (Vec::new(), Vec::new(), Vec::new());
    let begin = Instant::now();
    let mut last_round = 0.0;
    while p2.len() < 3 || begin.elapsed().as_secs_f64() + last_round < seconds {
        let round = Instant::now();
        let (r, wall) = train(w, &train_ds, config(w, 2));
        gate.run("p=2", &spec, 2, &r);
        gate.check(
            bits(&r.final_params) == bits(&warm.final_params),
            "p=2 runs of one seed differ",
        );
        p2.push(samples / wall);
        let (r, wall) = train(w, &train_ds, config(w, 1));
        gate.run("p=1", &spec, 1, &r);
        p1.push(samples / wall);

        let (t, mut passes) = (Instant::now(), 0);
        while passes == 0 || t.elapsed().as_secs_f64() < INFER_SLOT_S {
            let out = model.predict(&test_ds.x);
            gate.check(
                out.data().iter().all(|v| v.is_finite()),
                "non-finite prediction",
            );
            passes += 1;
        }
        infer.push((passes * test_ds.len()) as f64 / t.elapsed().as_secs_f64());
        last_round = round.elapsed().as_secs_f64();
    }
    eprintln!(
        "{}: p=2 samples/s {:?}; p=1 samples/s {:?}; inference samples/s {:?}",
        w.name(),
        p2.iter().map(|x| x.round()).collect::<Vec<_>>(),
        p1.iter().map(|x| x.round()).collect::<Vec<_>>(),
        infer.iter().map(|x| x.round()).collect::<Vec<_>>()
    );

    let (sps, sps1) = (median(&p2), median(&p1));
    let mean_loss = warm
        .epochs
        .iter()
        .map(|e| f64::from(e.mean_loss))
        .sum::<f64>()
        / warm.epochs.len() as f64;
    let mut m = Metrics::default();
    m.put("samples_per_s", sps, "1/s");
    m.put("samples_per_s_p1", sps1, "1/s");
    m.put("scaling_eff", sps / (2.0 * sps1), "ratio");
    m.put("infer_samples_per_s", median(&infer), "1/s");
    m.put("train_loss", mean_loss, "loss");
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: perfbench --workload <resnet_bigearth|gru_icu|mlp_bigearth> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} trace {}; available_parallelism {}, pool width {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon::current_num_threads()
    );
    let mut gate = Gate::default();
    let metrics = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds, &mut gate)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &mut gate)
    };
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
        gate.check(value.is_finite(), format!("metric {name} is not finite"));
    }
    for f in &gate.failures {
        eprintln!("GATE FAILED: {f}");
    }
    let correct = gate.failures.is_empty();
    println!("{}", metrics.to_json(correct, gate.attempted, gate.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
