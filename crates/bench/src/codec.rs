//! PR-9 gradient wire-codec report (`experiments codec` →
//! `BENCH_pr9.json` + `TUNE_pr9.table`).
//!
//! Measures the three gradient wire codecs ([`GradCodec`]) **for real**
//! on the priced clock, end to end:
//!
//! * **Wire grid** — per (ranks, bytes) cell, the dense f32, bf16 and
//!   1 %-top-k exchanges execute on a live `ThreadComm` (96- and
//!   128-rank meshes included) and report their Lamport critical path
//!   and summed wire counters. The codec cells ride along in the
//!   decision table's `ccell` extension (`TUNE_pr9.table`).
//! * **Fused trainer** — the same model trains under every codec with
//!   bucketed, overlapped exchange at p ∈ {4, 8}; the virtual step
//!   clock prices the *encoded* bytes.
//! * **Recalibrated scaling** — [`ScalingModel`] comm times at the
//!   paper's 96/128-GPU points, scaled by the *measured* codec/dense
//!   ratios from the table.
//! * **Convergence parity** — BigEarthNet (ResNet-mini) and COVID-Net
//!   (CXR) runs under fixed seeds: bf16 and 1 %-top-k must land within
//!   50 accuracy milli-points of dense.
//!
//! Every number is read off virtual clocks, message counters or
//! deterministic training, so two runs produce byte-identical files;
//! the artifact gate (`tests/artifacts.rs`) builds the report twice,
//! compares both files with the committed ones and checks the flags.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::fixture::{bits_hash, mlp, sgd, speedup_milli, toy_cfg, toy_dataset, POOL_THREADS};
use crate::report::Report;
use data::bigearth::{self, BigEarthConfig};
use data::cxr::{self, CxrConfig};
use distrib::{evaluate_classifier, FusionConfig, ScalingModel, TrainConfig, Trainer};
use msa_core::hw::catalog;
use msa_net::tune::{measure_codec, CodecEntry, CodecMeasurement, TuneGrid};
use msa_net::{DecisionTable, GradCodec, LinkParams, Topology};
use nn::{models, Adam, Optimizer, SoftmaxCrossEntropy};
use tensor::Rng;

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// Comm-bound frontier: at these rank counts the grid's payloads are
/// large enough that the exchange is bandwidth-dominated, so a codec
/// that halves (or decimates) the bytes must show up ≥ 1.3× on the
/// measured clock.
const COMM_BOUND_RANKS: usize = 32;

/// The non-dense codecs the report measures everywhere.
fn wire_codecs() -> [GradCodec; 2] {
    [GradCodec::Bf16, GradCodec::SparseTopK { ratio: 0.01 }]
}

// ---------------------------------------------------------------------------
// Wire grid.
// ---------------------------------------------------------------------------

struct CellReport {
    ranks: usize,
    bytes: usize,
    dense: CodecMeasurement,
    rows: Vec<CodecMeasurement>,
}

/// The wire grid's (ranks, bytes) cells, up to the paper's 96/128 ranks.
const GRID_CELLS: [(usize, usize); 7] = [
    (4, 64 * KIB),
    (4, MIB),
    (8, 64 * KIB),
    (8, MIB),
    (32, MIB),
    (96, 256 * KIB),
    (128, 256 * KIB),
];

/// Measures every codec in every cell and extends `table` with the
/// measured `ccell` rows.
fn run_grid(
    cells: &[(usize, usize)],
    link: LinkParams,
    topo: Topology,
    table: &mut DecisionTable,
) -> Vec<CellReport> {
    cells
        .iter()
        .map(|&(ranks, bytes)| {
            let dense = measure_codec(GradCodec::Dense32, ranks, bytes, link, topo);
            let rows: Vec<CodecMeasurement> = wire_codecs()
                .into_iter()
                .map(|codec| {
                    let m = measure_codec(codec, ranks, bytes, link, topo);
                    table.add_codec_entry(CodecEntry {
                        ranks,
                        bytes,
                        codec,
                        measured_ps: m.measured_ps,
                        dense_ps: dense.measured_ps,
                        wire_bytes: m.bytes_total,
                        dense_bytes: dense.bytes_total,
                    });
                    m
                })
                .collect();
            CellReport {
                ranks,
                bytes,
                dense,
                rows,
            }
        })
        .collect()
}

/// A codec row whose wire counters saw the dense byte count: the
/// encoded payload never reached the wire.
fn bytes_equal_dense(cell: &CellReport, m: &CodecMeasurement) -> bool {
    m.bytes_total == cell.dense.bytes_total
}

fn grid_json(cells: &[CellReport], link: LinkParams, topo: Topology) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  \"grid\": {{\"inter_latency_us\": {}, \"inter_bw_gbs\": {}, \"ranks_per_node\": {}, \"cells\": {}}},",
        link.latency_us,
        link.bw_gbs,
        topo.ranks_per_node,
        cells.len()
    );
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"bytes\": {}, \"dense_ps\": {}, \"dense_wire_bytes\": {}, \"rows\": [",
            c.ranks, c.bytes, c.dense.measured_ps, c.dense.bytes_total
        );
        for (j, m) in c.rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"codec\": \"{}\", \"measured_ps\": {}, \"msgs_total\": {}, \"bytes_total\": {}, \"bytes_equal_dense\": {}, \"speedup_milli\": {}}}{}",
                m.codec.name(),
                m.measured_ps,
                m.msgs_total,
                m.bytes_total,
                bytes_equal_dense(c, m),
                speedup_milli(c.dense.measured_ps, m.measured_ps),
                if j + 1 < c.rows.len() { "," } else { "" }
            );
        }
        s.push_str("    ]}");
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Fused trainer on the priced clock.
// ---------------------------------------------------------------------------

struct TrainerRow {
    codec: GradCodec,
    sim_wall_ps: u64,
    allreduce_ps: u64,
    params_hash: u64,
}

struct TrainerSection {
    ranks: usize,
    rows: Vec<TrainerRow>,
}

/// One fused, overlapped training run per codec at `ranks` workers.
/// Identical model, data, seeds and bucketing; only the wire codec
/// changes, so the sim-wall deltas are the codec's alone.
fn bench_trainer(ranks: usize) -> TrainerSection {
    let (dim, hidden, classes) = (16, 32, 4);
    let ds = toy_dataset(ranks * 16, dim, classes, 53);
    let model = mlp(dim, hidden, classes);
    let cfg = toy_cfg(ranks, 3, 8, 29);
    let rows = [
        GradCodec::Dense32,
        GradCodec::Bf16,
        GradCodec::SparseTopK { ratio: 0.01 },
    ]
    .into_iter()
    .map(|codec| {
        let report = Trainer::new(cfg.clone())
            .fusion(FusionConfig::fused(1024))
            .codec(codec)
            .run(&ds, model, sgd(0.0), SoftmaxCrossEntropy)
            // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
            .expect("no snapshot to validate")
            .completed();
        TrainerRow {
            codec,
            sim_wall_ps: report.sim_wall_ps,
            allreduce_ps: report.breakdown.allreduce_ps,
            params_hash: bits_hash(&report.final_params),
        }
    })
    .collect();
    TrainerSection { ranks, rows }
}

fn trainer_json(sections: &[TrainerSection]) -> String {
    let mut s = String::from("  \"trainer\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        let _ = writeln!(s, "    {{\"ranks\": {}, \"rows\": [", sec.ranks);
        let dense_wall = sec.rows[0].sim_wall_ps;
        for (j, r) in sec.rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"codec\": \"{}\", \"sim_wall_ps\": {}, \"allreduce_ps\": {}, \"wall_speedup_milli\": {}, \"params_hash\": \"{:016x}\"}}{}",
                r.codec.name(),
                r.sim_wall_ps,
                r.allreduce_ps,
                speedup_milli(dense_wall, r.sim_wall_ps),
                r.params_hash,
                if j + 1 < sec.rows.len() { "," } else { "" }
            );
        }
        s.push_str("    ]}");
        s.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Recalibrated scaling model.
// ---------------------------------------------------------------------------

fn perf_json(table: &Arc<DecisionTable>, gpu_counts: &[usize]) -> String {
    let dense = ScalingModel::resnet50(catalog::v100(), table.inter()).tuned(Arc::clone(table));
    let mut s = String::from("  \"perf\": [\n");
    for (i, &g) in gpu_counts.iter().enumerate() {
        let mut row = format!("    {{\"gpus\": {g}");
        let dense_ps = msa_obs::simtime_to_ps(dense.comm_time(g));
        let _ = write!(row, ", \"dense_comm_ps\": {dense_ps}");
        for codec in wire_codecs() {
            let m = dense.clone().codec(codec);
            let ps = msa_obs::simtime_to_ps(m.comm_time(g));
            let _ = write!(
                row,
                ", \"{}_comm_ps\": {}, \"{}_speedup_milli\": {}",
                codec.name(),
                ps,
                codec.name(),
                speedup_milli(dense_ps, ps)
            );
        }
        let _ = writeln!(s, "{row}}}{}", if i + 1 < gpu_counts.len() { "," } else { "" });
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Convergence parity.
// ---------------------------------------------------------------------------

struct ParityRow {
    codec: GradCodec,
    acc_milli: u64,
}

/// Accuracy within this many milli-points of dense counts as parity.
const PARITY_TOL_MILLI: u64 = 50;

fn parity_rows<M>(cfg: &TrainConfig, train: &data::Dataset, test: &data::Dataset, model_fn: M) -> Vec<ParityRow>
where
    M: Fn(u64) -> nn::Sequential + Sync + Copy,
{
    let opt = |lr: f32| -> Box<dyn Optimizer> { Box::new(Adam::new(lr)) };
    [
        GradCodec::Dense32,
        GradCodec::Bf16,
        GradCodec::SparseTopK { ratio: 0.01 },
    ]
    .into_iter()
    .map(|codec| {
        let report = Trainer::new(cfg.clone())
            .codec(codec)
            .run(train, model_fn, opt, SoftmaxCrossEntropy)
            // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
            .expect("no snapshot to validate")
            .completed();
        let acc = evaluate_classifier(model_fn, cfg.seed, &report, test);
        ParityRow {
            codec,
            acc_milli: (acc * 1000.0).round() as u64,
        }
    })
    .collect()
}

/// ResNet-mini on synthetic BigEarthNet patches (paper §III-B scale-down).
fn bigearth_parity() -> Vec<ParityRow> {
    let ds = bigearth::generate(
        120,
        &BigEarthConfig {
            bands: 3,
            size: 8,
            classes: 3,
            noise: 0.2,
        },
        21,
    );
    let (train, test) = ds.split(0.25);
    let model_fn = |s: u64| {
        let mut rng = Rng::seed(s);
        models::resnet_mini(3, 3, 8, 1, &mut rng)
    };
    let cfg = TrainConfig {
        workers: 2,
        epochs: 12,
        batch_per_worker: 15,
        base_lr: 0.01,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 11,
        checkpoint: None,
    };
    parity_rows(&cfg, &train, &test, model_fn)
}

/// COVID-Net-lite on synthetic CXR images (paper §IV-A scale-down).
fn covidnet_parity() -> Vec<ParityRow> {
    let ds = cxr::generate(
        240,
        &CxrConfig {
            size: 24,
            noise: 0.1,
        },
        2020,
    );
    let (train, test) = ds.split(0.25);
    let model_fn = |s: u64| {
        let mut rng = Rng::seed(s);
        models::covidnet_lite(1, 3, &mut rng)
    };
    let cfg = TrainConfig {
        workers: 2,
        epochs: 16,
        batch_per_worker: 15,
        base_lr: 2e-3,
        lr_scaling: true,
        warmup_epochs: 1,
        seed: 3,
        checkpoint: None,
    };
    parity_rows(&cfg, &train, &test, model_fn)
}

fn parity_holds(rows: &[ParityRow]) -> bool {
    let dense = rows[0].acc_milli;
    rows[1..]
        .iter()
        .all(|r| r.acc_milli.abs_diff(dense) <= PARITY_TOL_MILLI)
}

fn parity_json(name: &str, rows: &[ParityRow]) -> String {
    let mut s = format!("    \"{name}\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"codec\": \"{}\", \"acc_milli\": {}}}{}",
            r.codec.name(),
            r.acc_milli,
            if i + 1 < rows.len() { ", " } else { "" }
        );
    }
    s.push(']');
    s
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// The full codec report: the extended `msa-tune-v1` decision table
/// (with `ccell` rows) and the grid JSON, both fully deterministic.
/// Contracts: the five rendered flags, no codec row shipping the dense
/// byte count, and `ccell` rows at the paper's 96 and 128 ranks.
pub fn codec_report() -> Report {
    let _ = rayon::init_with_threads(POOL_THREADS);
    let link = LinkParams::extoll();
    let topo = Topology::esb(4);

    // Base decision table measured on the same cells, then extended
    // with the codec rows — old parsers ignore nothing (the `ccell`
    // lines append after the `cell` lines), codec-aware parsers round-
    // trip it byte-identically.
    let grid = TuneGrid {
        link,
        topo,
        cells: GRID_CELLS.to_vec(),
    };
    let mut table = grid.run().table();
    let cell_reports = run_grid(&GRID_CELLS, link, topo, &mut table);
    let table_text = table.to_table_string();
    let round_trips = DecisionTable::parse(&table_text)
        .map(|t| t.to_table_string() == table_text)
        .unwrap_or(false);
    let table = Arc::new(table);

    let trainer: Vec<TrainerSection> = [4, 8].into_iter().map(bench_trainer).collect();

    let bigearth = bigearth_parity();
    let covid = covidnet_parity();

    let halves = cell_reports.iter().all(|c| {
        c.rows
            .iter()
            .find(|m| m.codec == GradCodec::Bf16)
            .is_some_and(|m| m.bytes_total * 2 == c.dense.bytes_total)
    });
    let comm_bound_speed_up = cell_reports
        .iter()
        .filter(|c| c.ranks >= COMM_BOUND_RANKS)
        .all(|c| {
            c.rows
                .iter()
                .all(|m| speedup_milli(c.dense.measured_ps, m.measured_ps) >= 1300)
        });

    let mut json = String::from("{\n");
    json.push_str(&grid_json(&cell_reports, link, topo));
    json.push_str(&trainer_json(&trainer));
    json.push_str(&perf_json(&table, &[96, 128]));
    json.push_str("  \"convergence\": {\n");
    json.push_str(&parity_json("bigearth", &bigearth));
    json.push_str(",\n");
    json.push_str(&parity_json("covidnet", &covid));
    json.push_str("\n  },\n");
    let (parity_bigearth, parity_covidnet) = (parity_holds(&bigearth), parity_holds(&covid));
    let _ = writeln!(
        json,
        "  \"bf16_halves_wire_bytes\": {halves},\n  \"comm_bound_cells_speed_up\": {comm_bound_speed_up},\n  \"convergence_parity_bigearth\": {parity_bigearth},\n  \"convergence_parity_covidnet\": {parity_covidnet},\n  \"table_round_trips\": {round_trips}"
    );
    json.push('}');
    let has_ccell = |r: usize| table.codec_entries().iter().any(|e| e.ranks == r);
    let flags = vec![
        ("bf16_halves_wire_bytes", halves),
        ("comm_bound_cells_speed_up", comm_bound_speed_up),
        ("convergence_parity_bigearth", parity_bigearth),
        ("convergence_parity_covidnet", parity_covidnet),
        ("table_round_trips", round_trips),
        (
            "no_row_ships_dense_bytes",
            cell_reports
                .iter()
                .all(|c| c.rows.iter().all(|m| !bytes_equal_dense(c, m))),
        ),
        ("ccell_ranks_96", has_ccell(96)),
        ("ccell_ranks_128", has_ccell(128)),
    ];
    Report {
        table: Some(table_text),
        ..Report::deterministic(json, flags)
    }
}
