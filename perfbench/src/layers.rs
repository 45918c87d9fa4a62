//! The traced run: per-layer spans, the per-step accounting, the
//! standalone probes and the Chrome trace export.

use crate::stats::{median, quantile, Metrics};
use crate::trace::{chrome_trace, Kind, LaneData, Mark, Phase, Tracer};
use crate::workloads::Workload;
use crate::{bits, check_init, config, train, train_traced, Gate, THROUGHPUT_BOUND};
use data::Dataset;
use msa_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One optimizer step of one replica, from the end of the previous
/// step to the end of this one (ns on the trace clock).
#[derive(Debug, Default)]
struct Step {
    input_gap: u64,
    exchange_gap: u64,
    total: u64,
    /// Self time per (kind, phase) of every span inside the step.
    self_ns: BTreeMap<(Kind, Phase), u64>,
}

impl Step {
    /// Time inside the step that no span and neither gap covers.
    fn unattributed(&self) -> u64 {
        let spans: u64 = self.self_ns.values().sum();
        self.total
            .saturating_sub(self.input_gap + self.exchange_gap + spans)
    }
}

fn steps_of(lane: &LaneData) -> Vec<Step> {
    let mut out = Vec::new();
    let (mut prev_exit, mut fwd0, mut bwd0, mut enter) = (None, 0, 0, 0);
    for &(mark, t) in &lane.marks {
        match mark {
            Mark::FwdStart => fwd0 = t,
            Mark::BwdEnd => bwd0 = t,
            Mark::StepEnter => enter = t,
            Mark::StepExit => {
                if let Some(start) = prev_exit {
                    let mut step = Step {
                        input_gap: fwd0 - start,
                        exchange_gap: enter - bwd0,
                        total: t - start,
                        ..Step::default()
                    };
                    for s in lane
                        .spans
                        .iter()
                        .filter(|s| s.start_ns >= start && s.end_ns <= t)
                    {
                        *step.self_ns.entry((s.kind, s.phase)).or_default() += s.self_ns;
                    }
                    out.push(step);
                }
                prev_exit = Some(t);
            }
        }
    }
    out
}

const MS: f64 = 1e-6;

/// Trains a quarter of the data for one epoch at p=2 untraced and
/// traced, and checks the final parameters are bit-identical.
pub fn check_traced_matches(w: Workload, train_ds: &Dataset, gate: &mut Gate) {
    let subset = train_ds.shard(0, 4);
    let cfg = distrib::TrainConfig {
        epochs: 1,
        ..config(w, 2)
    };
    let (plain, _) = train(w, &subset, cfg.clone());
    let (traced, _) = train_traced(w, &subset, cfg, &Tracer::default(), Arc::default());
    gate.check(
        bits(&plain.final_params) == bits(&traced.final_params),
        "traced run's final parameters differ from the untraced run's",
    );
}

/// Traced runs at p=2, alternating with untraced runs of the same seed
/// for `seconds` after an untraced warm-up. No pair starts that would
/// end after the window.
pub fn traced(w: Workload, seed: u64, seconds: f64, gate: &mut Gate) -> Metrics {
    let spec = w.spec();
    let (train_ds, _) = w.generate(seed);
    check_init(w, config(w, 2).seed, gate);
    let (warm, _) = train(w, &train_ds, config(w, 2));
    gate.run("warm-up", &spec, 2, &warm);

    // Every traced run records on this tracer, one lane per replica.
    let tracer = Tracer::default();
    let recorder = Arc::new(MetricsRegistry::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut modeled_steps, mut sim_wall_ps) = (0usize, 0u64);
    let begin = Instant::now();
    let mut last_round = 0.0;
    while traced_walls.len() < 2 || begin.elapsed().as_secs_f64() + last_round < seconds {
        let round = Instant::now();
        let (plain, wall) = train(w, &train_ds, config(w, 2));
        gate.run("untraced", &spec, 2, &plain);
        plain_walls.push(wall);
        let (report, wall) = train_traced(w, &train_ds, config(w, 2), &tracer, recorder.clone());
        gate.run("traced", &spec, 2, &report);
        gate.check(
            bits(&report.final_params) == bits(&plain.final_params),
            "traced run's final parameters differ from the untraced run's",
        );
        traced_walls.push(wall);
        modeled_steps += report.steps_per_rank;
        sim_wall_ps += report.sim_wall_ps;
        last_round = round.elapsed().as_secs_f64();
    }
    let replicas = tracer.lanes();
    gate.check(
        replicas.len() == 2 * traced_walls.len(),
        "expected one lane per rank",
    );

    let mut steps: Vec<Step> = Vec::new();
    let mut per_epoch: Vec<Vec<f64>> = vec![Vec::new(); spec.epochs];
    let steps_per_epoch = spec.train / (2 * spec.batch);
    let (mut subnormal, mut grads_seen) = (0u64, 0u64);
    let mut totals: BTreeMap<(Kind, Phase), (u64, f64)> = BTreeMap::new();
    for lane in &replicas {
        let lane = lane.lock().expect("lane poisoned");
        subnormal += lane.subnormal;
        grads_seen += lane.grads_seen;
        for s in &lane.spans {
            let t = totals.entry((s.kind, s.phase)).or_default();
            t.0 += s.self_ns;
            t.1 += s.flops;
        }
        for (i, step) in steps_of(&lane).into_iter().enumerate() {
            // Step 0 has no previous end, so recorded step i is global i + 1.
            let epoch = ((i + 1) / steps_per_epoch).min(spec.epochs - 1);
            per_epoch[epoch].push(step.total as f64 * MS);
            steps.push(step);
        }
    }

    let totals_ms: Vec<f64> = steps.iter().map(|s| s.total as f64 * MS).collect();
    let (p50, p90) = (quantile(&totals_ms, 0.5), quantile(&totals_ms, 0.9));
    // Components are averaged over the middle fifth of steps by duration,
    // so they describe the median step. Per step, spans + gaps +
    // unattributed = duration exactly; the band's mean duration sits
    // within a few percent of p50.
    let mid = (quantile(&totals_ms, 0.4), quantile(&totals_ms, 0.6));
    let band: Vec<&Step> = steps
        .iter()
        .filter(|s| (mid.0..=mid.1).contains(&(s.total as f64 * MS)))
        .collect();
    let band_mean = |f: &dyn Fn(&Step) -> u64| {
        band.iter().map(|s| f(s) as f64 * MS).sum::<f64>() / band.len().max(1) as f64
    };
    eprintln!(
        "{}: {} steps, p50 {p50:.3} ms, middle-band mean {:.3} ms over {} steps",
        w.name(),
        steps.len(),
        band_mean(&|s: &Step| s.total),
        band.len()
    );
    let span_ms = |kind: Kind, phase: Phase| {
        band_mean(&|s: &Step| s.self_ns.get(&(kind, phase)).copied().unwrap_or(0))
    };

    let mut m = Metrics::default();
    for kind in Kind::LAYERS {
        for (phase, tag) in [(Phase::Fwd, "fwd"), (Phase::Bwd, "bwd")] {
            m.put(
                &format!("nn.{}.{tag}_ms", kind.name()),
                span_ms(kind, phase),
                "ms",
            );
        }
    }
    let total = |kind: Kind, phase: Phase| totals.get(&(kind, phase)).copied().unwrap_or((0, 0.0));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for kind in [Kind::Conv2d, Kind::Dense, Kind::Gru] {
        let (f, b) = (total(kind, Phase::Fwd), total(kind, Phase::Bwd));
        m.put(
            &format!("nn.{}.gflops", kind.name()),
            ratio(f.1 + b.1, (f.0 + b.0) as f64),
            "GFLOP/s",
        );
    }
    for kind in [Kind::Conv2d, Kind::Dense] {
        let ratio = ratio(
            total(kind, Phase::Bwd).0 as f64,
            total(kind, Phase::Fwd).0 as f64,
        );
        m.put(&format!("nn.{}.bwd_over_fwd", kind.name()), ratio, "ratio");
    }
    for (kind, name) in [
        (Kind::Loss, "nn.loss_ms"),
        (Kind::Optimizer, "nn.optimizer_ms"),
        (Kind::GradScan, "bench.grad_scan_ms"),
    ] {
        m.put(name, span_ms(kind, Phase::Fwd), "ms");
    }
    m.put(
        "nn.grad_subnormal_frac",
        ratio(subnormal as f64, grads_seen as f64),
        "ratio",
    );

    let probe = tracer.new_lane("probes");
    let [g_nn, g_tn, g_nt] =
        crate::probes::gemm_gflops(spec.gemm_nn, spec.gemm_tn, spec.gemm_nt, &probe);
    m.put("tensor.gemm_nn.gflops", g_nn, "GFLOP/s");
    m.put("tensor.gemm_tn.gflops", g_tn, "GFLOP/s");
    m.put("tensor.gemm_nt.gflops", g_nt, "GFLOP/s");

    let n_params = warm.final_params.len();
    let (allreduce_ms, ring_ms) = crate::probes::allreduce_ms(n_params, &probe);
    m.put("msa-net.allreduce_ms", allreduce_ms, "ms");
    m.put("msa-net.ring_allreduce_ms", ring_ms, "ms");
    let snap = recorder.snapshot();
    let counter = |prefix: &str| -> u64 {
        snap.entries
            .iter()
            .filter(|e| e.key.starts_with(prefix))
            .filter_map(|e| e.value.as_counter())
            .sum()
    };
    let rank_steps = counter("trainer.steps").max(1) as f64;
    m.put(
        "msa-net.bytes_per_step",
        counter("net.comm.bytes_sent") as f64 / rank_steps,
        "B",
    );
    m.put(
        "msa-net.msgs_per_step",
        counter("net.comm.msgs_sent") as f64 / rank_steps,
        "count",
    );

    let input_gap = band_mean(&|s: &Step| s.input_gap);
    let exchange_gap = band_mean(&|s: &Step| s.exchange_gap);
    let (assemble_ms, batch_mb) =
        crate::probes::batch_assemble(&train_ds, spec.batch, seed, &probe);
    m.put("data.input_gap_ms", input_gap, "ms");
    m.put("data.batch_assemble_ms", assemble_ms, "ms");
    m.put("data.batch_mb", batch_mb, "MB");

    let modeled = sim_wall_ps as f64 / modeled_steps.max(1) as f64 * 1e-9;
    m.put("distrib.step_ms.p50", p50, "ms");
    m.put("distrib.step_ms.p90", p90, "ms");
    m.put("distrib.exchange_gap_ms", exchange_gap, "ms");
    m.put("distrib.peer_wait_ms", exchange_gap - allreduce_ms, "ms");
    m.put("distrib.modeled_step_ms", modeled, "ms");
    m.put("distrib.modeled_over_measured", modeled / p50, "ratio");
    m.put(
        "distrib.unattributed_ms",
        band_mean(&Step::unattributed),
        "ms",
    );
    m.put(
        "distrib.trace_overhead",
        median(&plain_walls) / median(&traced_walls),
        "ratio",
    );

    // Per-epoch throughput from each epoch's median step, which one
    // preempted step cannot move.
    let step_samples = (2 * spec.batch) as f64;
    let epoch_sps: Vec<f64> = per_epoch
        .iter()
        .map(|e| step_samples / (median(e) * 1e-3))
        .collect();
    let drift = (epoch_sps[epoch_sps.len() - 1] - epoch_sps[0]).abs() / epoch_sps[0];
    eprintln!(
        "{}: per-epoch samples/s {:?}",
        w.name(),
        epoch_sps.iter().map(|x| x.round()).collect::<Vec<_>>()
    );
    m.put("distrib.epoch_first_samples_per_s", epoch_sps[0], "1/s");
    m.put(
        "distrib.epoch_last_samples_per_s",
        epoch_sps[epoch_sps.len() - 1],
        "1/s",
    );
    m.put("distrib.epoch_drift", drift, "ratio");
    gate.check(
        drift <= THROUGHPUT_BOUND,
        format!("epoch throughput drifted by {drift:.3}, beyond the bound {THROUGHPUT_BOUND}"),
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{seed}.json", w.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(&tracer.lanes())));
    gate.check(
        written.is_ok(),
        format!("could not write {path}: {written:?}"),
    );
    eprintln!("{}: trace written to {path}", w.name());
    m
}
