//! PR-7 autotuner grid report (`experiments tune` → `BENCH_pr7.json` +
//! `TUNE_pr7.table`).
//!
//! Runs the [`msa_net::tune`] grid — every allreduce candidate executed
//! **for real** per (ranks, bytes) cell, including the paper's 96- and
//! 128-rank points — and emits two artifacts:
//!
//! * `TUNE_pr7.table` — the distilled [`DecisionTable`] in the
//!   byte-stable `msa-tune-v1` format (DESIGN.md §13);
//! * `BENCH_pr7.json` — every cell with every candidate's corrected
//!   wire counters (`msgs_total`/`bytes_total`, never the phantom zeros
//!   PR 5 shipped) and priced-clock critical path, the per-cell
//!   `winner_is_argmin` flag, a tuned-dispatch trainer section (fused ≡
//!   serialized bit-equality under [`ExchangeDispatch::Tuned`]) and the
//!   recalibrated [`ScalingModel`] comm times at 96/128 GPUs.
//!
//! Everything in both artifacts is read off virtual clocks and message
//! counters — no wall-clock anywhere — so two runs of the subcommand
//! must produce byte-identical files; the artifact gate compares them
//! with each other and with the committed ones.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::fixture::{bits_equal, bits_hash, mlp, sgd, toy_cfg, toy_dataset, POOL_THREADS};
use crate::report::Report;
use distrib::{ExchangeDispatch, FusionConfig, ScalingModel, StepCost, Trainer};
use msa_core::hw::catalog;
use msa_net::tune::{Cell, TuneGrid, TuneReport};
use msa_net::DecisionTable;
use nn::SoftmaxCrossEntropy;

// ---------------------------------------------------------------------------
// Grid section.
// ---------------------------------------------------------------------------

fn cell_json(cell: &Cell, table: &DecisionTable) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "    {{\"ranks\": {}, \"bytes\": {}, \"candidates\": [",
        cell.ranks, cell.bytes
    );
    for (i, m) in cell.measurements.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"algo\": \"{}\", \"measured_ps\": {}, \"modeled_ps\": {}, \"msgs_total\": {}, \"bytes_total\": {}}}{}",
            m.algo.name(),
            m.measured_ps,
            m.modeled_ps,
            m.msgs_total,
            m.bytes_total,
            if i + 1 < cell.measurements.len() { "," } else { "" }
        );
    }
    let _ = write!(
        s,
        "    ], \"winner\": \"{}\", \"fallback\": \"{}\", \"winner_is_argmin\": {}, \"zero_wire_rows\": {}}}",
        cell.winner().algo.name(),
        cell.best_software().algo.name(),
        winner_is_argmin(cell, table),
        zero_wire_rows(cell)
    );
    s
}

/// The table's pick for this exact cell is the measured argmin — the
/// acceptance invariant, recomputed here from the raw rows.
fn winner_is_argmin(cell: &Cell, table: &DecisionTable) -> bool {
    let argmin_ps = cell
        .measurements
        .iter()
        .map(|m| m.measured_ps)
        .min()
        .unwrap_or(0);
    let picked = table.entry_for(cell.ranks, cell.bytes);
    picked.ranks == cell.ranks
        && picked.bytes == cell.bytes
        && picked.measured_ps == argmin_ps
        && picked.algo == cell.winner().algo
}

/// Candidates that recorded no messages on a multi-rank mesh: phantom
/// zeros, a measurement bug by definition.
fn zero_wire_rows(cell: &Cell) -> usize {
    cell.measurements
        .iter()
        .filter(|m| cell.ranks > 1 && m.msgs_total == 0)
        .count()
}

fn all_winners_are_argmin(report: &TuneReport, table: &DecisionTable) -> bool {
    report.cells.iter().all(|c| {
        let e = table.entry_for(c.ranks, c.bytes);
        e.algo == c.winner().algo && e.measured_ps == c.winner().measured_ps
    })
}

fn max_ranks_executed(report: &TuneReport) -> usize {
    report.cells.iter().map(|c| c.ranks).max().unwrap_or(0)
}

fn grid_json(report: &TuneReport, table: &DecisionTable) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  \"grid\": {{\"inter_latency_us\": {}, \"inter_bw_gbs\": {}, \"ranks_per_node\": {}, \"cells\": {}}},",
        report.link.latency_us,
        report.link.bw_gbs,
        report.topo.ranks_per_node,
        report.cells.len()
    );
    s.push_str("  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        s.push_str(&cell_json(cell, table));
        s.push_str(if i + 1 < report.cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"all_winners_are_argmin\": {},\n  \"zero_wire_rows\": {},\n  \"max_ranks_executed\": {},",
        all_winners_are_argmin(report, table),
        report.cells.iter().map(zero_wire_rows).sum::<usize>(),
        max_ranks_executed(report)
    );
    s
}

// ---------------------------------------------------------------------------
// Tuned-dispatch trainer section.
// ---------------------------------------------------------------------------

struct TrainSection {
    ranks: usize,
    bucket_bytes: usize,
    hash_serialized: u64,
    hash_fused: u64,
    bit_equal: bool,
}

/// Trains twice under tuned dispatch — serialized and fused at one fixed
/// `bucket_bytes` — and checks the per-partition bit-equality contract:
/// selection depends only on each bucket's byte length, so the fused and
/// serialized schedules of the *same* partition reduce every bucket with
/// the same measured winner.
fn bench_tuned_trainer(table: &Arc<DecisionTable>, ranks: usize) -> TrainSection {
    let (dim, hidden, classes) = (16, 32, 4);
    let ds = toy_dataset(ranks * 8, dim, classes, 71);
    let cfg = toy_cfg(ranks, 2, 4, 17);
    let model = mlp(dim, hidden, classes);
    let bucket_bytes = 1024usize;
    let run = |fusion: FusionConfig| {
        Trainer::new(cfg.clone())
            .cost(StepCost::default())
            .fusion(fusion)
            .dispatch(ExchangeDispatch::Tuned(Arc::clone(table)))
            .run(&ds, model, sgd(1e-4), SoftmaxCrossEntropy)
            // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
            .expect("no snapshot to validate")
            .completed()
    };
    let serial = run(FusionConfig::unfused());
    let fused = run(FusionConfig::fused(bucket_bytes));
    TrainSection {
        ranks,
        bucket_bytes,
        hash_serialized: bits_hash(&serial.final_params),
        hash_fused: bits_hash(&fused.final_params),
        bit_equal: bits_equal(&serial.final_params, &fused.final_params),
    }
}

fn trainer_json(t: &TrainSection) -> String {
    format!(
        "  \"trainer\": {{\"ranks\": {}, \"bucket_bytes\": {}, \"hash_serialized\": \"{:016x}\", \"hash_fused\": \"{:016x}\", \"bit_equal_tuned_fused_vs_serialized\": {}}},\n",
        t.ranks, t.bucket_bytes, t.hash_serialized, t.hash_fused, t.bit_equal
    )
}

// ---------------------------------------------------------------------------
// Recalibrated scaling-model section.
// ---------------------------------------------------------------------------

fn perf_json(table: &Arc<DecisionTable>, gpu_counts: &[usize]) -> String {
    let base = ScalingModel::resnet50(catalog::v100(), table.inter());
    let tuned = base.clone().tuned(Arc::clone(table));
    let mut s = String::from("  \"perf\": [\n");
    for (i, &g) in gpu_counts.iter().enumerate() {
        let bytes = base.grad_bytes as usize;
        let _ = writeln!(
            s,
            "    {{\"gpus\": {}, \"algo\": \"{}\", \"untuned_comm_ps\": {}, \"tuned_comm_ps\": {}, \"calibration_milli\": {}}}{}",
            g,
            table.select(g, bytes).name(),
            msa_obs::simtime_to_ps(base.comm_time(g)),
            msa_obs::simtime_to_ps(tuned.comm_time(g)),
            (table.calibration(g, bytes) * 1000.0).round() as u64,
            if i + 1 < gpu_counts.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n");
    s
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// The full tuner report: the `msa-tune-v1` decision table and the grid
/// JSON, both fully deterministic, run on the paper grid. Contracts:
/// every pick is the measured argmin, no candidate is a phantom zero,
/// the 96- and 128-rank cells executed, tuned fused ≡ serialized, and
/// the table round-trips through its parser.
pub fn tune_report() -> Report {
    let _ = rayon::init_with_threads(POOL_THREADS);
    let report = TuneGrid::paper().run();
    let table = Arc::new(report.table());
    let table_text = table.to_table_string();

    let train = bench_tuned_trainer(&table, 8);

    let mut json = String::from("{\n");
    json.push_str(&grid_json(&report, &table));
    json.push_str(&trainer_json(&train));
    json.push_str(&perf_json(&table, &[8, 32, 96, 128]));
    json.push('}');
    let has_ranks = |r: usize| table.entries().iter().any(|e| e.ranks == r);
    let flags = vec![
        (
            "all_winners_are_argmin",
            all_winners_are_argmin(&report, &table),
        ),
        (
            "every_winner_is_argmin",
            report.cells.iter().all(|c| winner_is_argmin(c, &table)),
        ),
        (
            "zero_wire_rows_is_0",
            report.cells.iter().all(|c| zero_wire_rows(c) == 0),
        ),
        (
            "no_msgs_total_0",
            report
                .cells
                .iter()
                .flat_map(|c| &c.measurements)
                .all(|m| m.msgs_total > 0),
        ),
        ("max_ranks_executed_128", max_ranks_executed(&report) == 128),
        ("table_has_ranks_96", has_ranks(96)),
        ("table_has_ranks_128", has_ranks(128)),
        ("bit_equal_tuned_fused_vs_serialized", train.bit_equal),
        (
            "table_round_trips",
            DecisionTable::parse(&table_text).is_ok_and(|t| t.to_table_string() == table_text),
        ),
    ];
    Report {
        table: Some(table_text),
        ..Report::deterministic(json, flags)
    }
}
