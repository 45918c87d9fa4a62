//! PR-10 overlapped input-pipeline report (`experiments pipeline` →
//! `BENCH_pr10.json`).
//!
//! Four deterministic sections plus one measured section:
//!
//! * **Identity grid** — the whole point of the prefetcher is that it
//!   buys time without touching the math. At p ∈ {1, 4, 8} under all
//!   three [`GradCodec`]s, a depth-2 run must be bit-identical to the
//!   depth-0 run: final params, per-epoch mean losses, and the
//!   canonical obs snapshot filtered down to everything the feature
//!   does *not* promise to move (`trainer.stage_overlap.saved`,
//!   `trainer.sim_wall` and the per-epoch `trainer.epoch.time` rollups
//!   are excluded and asserted to move in the promised direction
//!   instead).
//! * **Modeled sweep** — depths {0, 1, 2, 4} on a stage-heavy
//!   [`StepCost`]: the priced clock must satisfy
//!   `sim_wall(d) + stage_overlap_saved(d) == sim_wall(0)` exactly,
//!   and the partition invariant `breakdown.total_ps() == sim_wall_ps`
//!   on every row.
//! * **Alloc proof** — the slab pool warms up to its circulation bound
//!   (`depth + 2`, capped by the epoch's batch count) and then every
//!   later epoch allocates exactly nothing.
//! * **Scaling projection** — [`ScalingModel`] with the
//!   [`StageTerm`] attached: at the paper's 96/128-GPU points the
//!   shared PFS fair-share makes the run input-bound, and the modeled
//!   per-step saving of prefetch-vs-serial staging is reported at
//!   p ∈ {1, 4, 8, 96, 128}.
//! * **Real timing** (full report only) — epoch wall-clock of the real
//!   input pipeline on a stage-bound configuration (wide rows, ~41 MB
//!   batches). Depth 0 re-allocates every batch (the seed's behavior);
//!   depth 2 streams through recycled slabs. On this box the win is
//!   allocator/page-fault traffic, not thread overlap (single core) —
//!   the committed flag requires ≥ 1.2×.
//!
//! The counters sections are byte-identical between runs; the artifact
//! gate builds them twice, requires them to open the committed full
//! report and reads its measured flag there.

use std::fmt::Write as _;
use std::time::Instant;

use crate::fixture::{
    bits_equal, bits_hash, mlp, sgd, speedup_milli, toy_cfg, toy_dataset, POOL_THREADS,
};
use crate::report::Report;
use data::stream::{with_prefetch, BatchSource, BatchStream, SlabPool, DEFAULT_PREFETCH_DEPTH};
use distrib::{FusionConfig, ScalingModel, StageTerm, StepCost, TrainReport, Trainer};
use msa_core::hw::catalog;
use msa_net::{GradCodec, LinkParams};
use msa_obs::MetricsRegistry;
use msa_storage::ParallelFs;
use nn::SoftmaxCrossEntropy;
use std::sync::Arc;
use tensor::{Rng, Tensor};

/// The keys the prefetcher is *allowed* (and expected) to move. The
/// identity grid compares snapshots with these excluded and checks the
/// exclusions separately.
const MOVED_KEY_PREFIXES: [&str; 3] = [
    "trainer.stage_overlap.saved",
    "trainer.sim_wall",
    "trainer.epoch.time",
];

fn moved_key(key: &str) -> bool {
    MOVED_KEY_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// FNV-1a over raw bytes (the snapshot comparator's checksum).
fn byte_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// Shared trainer fixture.
// ---------------------------------------------------------------------------

/// One run of the shared fixture; returns the report and its canonical
/// obs snapshot split into the unchanged part and the moved part.
fn run_fixture(
    ranks: usize,
    codec: GradCodec,
    depth: usize,
    cost: Option<StepCost>,
) -> (TrainReport, Vec<u8>, Vec<u8>) {
    let ds = toy_dataset(ranks * 16, 16, 4, 53);
    let reg = Arc::new(MetricsRegistry::new());
    let mut t = Trainer::new(toy_cfg(ranks, 3, 8, 29))
        .fusion(FusionConfig::fused(1024))
        .codec(codec)
        .prefetch(depth)
        .recorder(Arc::clone(&reg));
    if let Some(c) = cost {
        t = t.cost(c);
    }
    let report = t
        .run(&ds, mlp(16, 32, 4), sgd(0.0), SoftmaxCrossEntropy)
        // lint: allow(unwrap) -- no resume snapshot is armed, so run() cannot fail
        .expect("no snapshot to validate")
        .completed();
    let snap = reg.snapshot();
    let unchanged = snap.filtered(|k| !moved_key(k)).to_bytes();
    let moved = snap.filtered(moved_key).to_bytes();
    (report, unchanged, moved)
}

fn losses_hash(report: &TrainReport) -> u64 {
    let losses: Vec<f32> = report.epochs.iter().map(|e| e.mean_loss).collect();
    bits_hash(&losses)
}

// ---------------------------------------------------------------------------
// Identity grid: depth 2 ≡ depth 0, bit for bit.
// ---------------------------------------------------------------------------

struct IdentityRow {
    ranks: usize,
    codec: GradCodec,
    params_hash: u64,
    losses_hash: u64,
    obs_hash: u64,
    identical: bool,
    saved_ps: u64,
    wall_invariant: bool,
}

fn identity_grid(ranks_list: &[usize]) -> Vec<IdentityRow> {
    let codecs = [
        GradCodec::Dense32,
        GradCodec::Bf16,
        GradCodec::SparseTopK { ratio: 0.01 },
    ];
    let mut rows = Vec::new();
    for &ranks in ranks_list {
        for codec in codecs {
            let (base, base_obs, base_moved) = run_fixture(ranks, codec, 0, None);
            let (pre, pre_obs, pre_moved) =
                run_fixture(ranks, codec, DEFAULT_PREFETCH_DEPTH, None);
            let identical = bits_equal(&base.final_params, &pre.final_params)
                && bits_equal(&base.final_state, &pre.final_state)
                && losses_hash(&base) == losses_hash(&pre)
                && base_obs == pre_obs;
            // The excluded keys must move in the promised direction:
            // the prefetch run saves stage time off the same wall.
            let saved = pre.breakdown.stage_overlap_saved_ps;
            let wall_invariant = saved > 0
                && pre.sim_wall_ps + saved == base.sim_wall_ps
                && base_moved != pre_moved;
            rows.push(IdentityRow {
                ranks,
                codec,
                params_hash: bits_hash(&pre.final_params),
                losses_hash: losses_hash(&pre),
                obs_hash: byte_hash(&pre_obs),
                identical,
                saved_ps: saved,
                wall_invariant,
            });
        }
    }
    rows
}

fn identity_json(rows: &[IdentityRow]) -> String {
    let mut s = String::from("  \"identity\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"codec\": \"{}\", \"params_hash\": \"{:016x}\", \"losses_hash\": \"{:016x}\", \"obs_hash\": \"{:016x}\", \"bit_identical\": {}, \"stage_overlap_saved_ps\": {}, \"wall_invariant\": {}}}{}",
            r.ranks,
            r.codec.name(),
            r.params_hash,
            r.losses_hash,
            r.obs_hash,
            r.identical,
            r.saved_ps,
            r.wall_invariant,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Modeled depth sweep on a stage-heavy cost.
// ---------------------------------------------------------------------------

struct SweepRow {
    ranks: usize,
    depth: usize,
    sim_wall_ps: u64,
    stage_ps: u64,
    saved_ps: u64,
    invariant: bool,
}

/// A link-starved host: staging at 0.1 GB/s makes the input pipeline a
/// first-order term of the modeled step, so hiding it is visible.
fn stage_heavy_cost() -> StepCost {
    StepCost {
        stage_gbs: 0.1,
        ..StepCost::default()
    }
}

fn modeled_sweep(ranks_list: &[usize]) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &ranks in ranks_list {
        let (base, _, _) = run_fixture(ranks, GradCodec::Dense32, 0, Some(stage_heavy_cost()));
        for depth in [0usize, 1, 2, 4] {
            let (r, _, _) = if depth == 0 {
                (base.clone(), Vec::new(), Vec::new())
            } else {
                run_fixture(ranks, GradCodec::Dense32, depth, Some(stage_heavy_cost()))
            };
            let invariant = r.breakdown.total_ps() == r.sim_wall_ps
                && r.sim_wall_ps + r.breakdown.stage_overlap_saved_ps == base.sim_wall_ps;
            rows.push(SweepRow {
                ranks,
                depth,
                sim_wall_ps: r.sim_wall_ps,
                stage_ps: r.breakdown.stage_ps,
                saved_ps: r.breakdown.stage_overlap_saved_ps,
                invariant,
            });
        }
    }
    rows
}

fn sweep_json(rows: &[SweepRow]) -> String {
    let mut s = String::from("  \"modeled_sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"ranks\": {}, \"depth\": {}, \"sim_wall_ps\": {}, \"stage_ps\": {}, \"stage_overlap_saved_ps\": {}, \"wall_speedup_milli\": {}, \"partition_invariant\": {}}}{}",
            r.ranks,
            r.depth,
            r.sim_wall_ps,
            r.stage_ps,
            r.saved_ps,
            speedup_milli(r.sim_wall_ps + r.saved_ps, r.sim_wall_ps),
            r.invariant,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Slab-pool steady-state alloc proof.
// ---------------------------------------------------------------------------

struct AllocProof {
    warm_allocs: u64,
    per_epoch: Vec<u64>,
}

/// Streams several epochs through one persistent pool and records the
/// cumulative allocation counter after each; the warm-up count is the
/// pre-seeded circulation bound and every later delta must be zero.
fn alloc_proof() -> AllocProof {
    let items = 48usize;
    let item_len = 256usize;
    let x: Vec<f32> = (0..items * item_len).map(|i| (i % 13) as f32).collect();
    let y: Vec<f32> = (0..items).map(|i| (i % 3) as f32).collect();
    let ds = data::Dataset {
        x: Tensor::from_vec(x, &[items, item_len]),
        y: Tensor::from_vec(y, &[items]),
    };
    let mut rng = Rng::seed(17);
    let mut pool = SlabPool::new();
    let mut per_epoch = Vec::new();
    for _ in 0..4 {
        let mut s = BatchStream::new(&ds, 16, &mut rng);
        with_prefetch(&mut s, DEFAULT_PREFETCH_DEPTH, &mut pool, |src| {
            while let Some(batch) = src.next_batch() {
                src.recycle(batch);
            }
        });
        per_epoch.push(pool.allocs());
    }
    AllocProof {
        warm_allocs: per_epoch[0],
        per_epoch,
    }
}

fn alloc_json(p: &AllocProof) -> String {
    let mut s = format!(
        "  \"allocs\": {{\"warm_allocs\": {}, \"cumulative_after_epoch\": [",
        p.warm_allocs
    );
    for (i, a) in p.per_epoch.iter().enumerate() {
        let _ = write!(s, "{a}{}", if i + 1 < p.per_epoch.len() { ", " } else { "" });
    }
    s.push_str("]},\n");
    s
}

fn allocs_steady(p: &AllocProof) -> bool {
    p.per_epoch.iter().all(|&a| a == p.warm_allocs)
}

// ---------------------------------------------------------------------------
// Scaling projection with the stage term.
// ---------------------------------------------------------------------------

struct ScaleRow {
    gpus: usize,
    base_step_ps: u64,
    prefetch_step_ps: u64,
    serial_step_ps: u64,
    stage_ps: u64,
    saved_ps: u64,
    input_bound: bool,
}

fn scaling_rows(gpu_counts: &[usize]) -> Vec<ScaleRow> {
    let fs = ParallelFs::deep_sssm();
    let term = StageTerm::bigearth_from_pfs(&fs);
    let base = ScalingModel::resnet50(catalog::v100(), LinkParams::infiniband_edr());
    let overlapped = base.clone().stage(term);
    let serial = base.clone().stage(term.prefetch(false));
    gpu_counts
        .iter()
        .map(|&g| {
            let prefetch_ps = msa_obs::simtime_to_ps(overlapped.step_time(g));
            let serial_ps = msa_obs::simtime_to_ps(serial.step_time(g));
            ScaleRow {
                gpus: g,
                base_step_ps: msa_obs::simtime_to_ps(base.step_time(g)),
                prefetch_step_ps: prefetch_ps,
                serial_step_ps: serial_ps,
                stage_ps: msa_obs::simtime_to_ps(overlapped.stage_time(g)),
                saved_ps: serial_ps - prefetch_ps,
                input_bound: overlapped.input_bound(g),
            }
        })
        .collect()
}

fn scaling_json(rows: &[ScaleRow]) -> String {
    let mut s = String::from("  \"scaling\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"gpus\": {}, \"base_step_ps\": {}, \"prefetch_step_ps\": {}, \"serial_step_ps\": {}, \"stage_ps\": {}, \"stage_overlap_saved_ps\": {}, \"input_bound\": {}}}{}",
            r.gpus,
            r.base_step_ps,
            r.prefetch_step_ps,
            r.serial_step_ps,
            r.stage_ps,
            r.saved_ps,
            r.input_bound,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s
}

// ---------------------------------------------------------------------------
// Real epoch wall-clock: stage-bound configuration.
// ---------------------------------------------------------------------------

struct Timing {
    batch_mb: f64,
    depth0_ns: f64,
    depth2_ns: f64,
    speedup_milli: u64,
}

/// Wide rows so one x-batch is ≈ 41 MB — past the allocator's mmap
/// threshold cap, so the depth-0 path (fresh buffers per batch, the
/// seed's behavior) pays map/fault/unmap on every batch while depth 2
/// streams through the warm slab pool. Minimum of `reps` epochs per
/// depth, interleaved, after one warm-up each.
fn real_timing() -> Timing {
    let (items, item_len, batch, reps) = (192usize, 160_000usize, 64usize, 5);
    let x: Vec<f32> = (0..items * item_len).map(|i| (i % 251) as f32).collect();
    let y: Vec<f32> = (0..items).map(|i| (i % 7) as f32).collect();
    let ds = data::Dataset {
        x: Tensor::from_vec(x, &[items, item_len]),
        y: Tensor::from_vec(y, &[items]),
    };
    // A deliberately thin consumer: the epoch is input-bound, which is
    // exactly the regime the acceptance flag is about.
    let consume = |bx: &Tensor| -> f64 {
        bx.data().iter().step_by(4096).map(|&v| f64::from(v)).sum()
    };

    let epoch_d0 = |rng: &mut Rng| -> f64 {
        let mut s = BatchStream::new(&ds, batch, rng);
        let mut acc = 0.0;
        while let Some((bx, _by)) = s.next_batch() {
            acc += consume(&bx);
        }
        acc
    };
    let epoch_d2 = |rng: &mut Rng, pool: &mut SlabPool| -> f64 {
        let mut s = BatchStream::new(&ds, batch, rng);
        let mut acc = 0.0;
        with_prefetch(&mut s, DEFAULT_PREFETCH_DEPTH, pool, |src| {
            while let Some((bx, by)) = src.next_batch() {
                acc += consume(&bx);
                src.recycle((bx, by));
            }
        });
        acc
    };

    let mut rng = Rng::seed(7);
    let mut pool = SlabPool::new();
    // Warm-up: touch the dataset, fill the pool, settle the allocator.
    std::hint::black_box(epoch_d0(&mut rng));
    std::hint::black_box(epoch_d2(&mut rng, &mut pool));

    let (mut d0, mut d2) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(epoch_d0(&mut rng));
        d0 = d0.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(epoch_d2(&mut rng, &mut pool));
        d2 = d2.min(t.elapsed().as_nanos() as f64);
    }
    Timing {
        batch_mb: (batch * item_len * size_of::<f32>()) as f64 / 1e6,
        depth0_ns: d0,
        depth2_ns: d2,
        speedup_milli: speedup_milli(d0 as u64, d2 as u64),
    }
}

fn timing_json(t: &Timing) -> String {
    format!(
        "  \"real_timing\": {{\"stage_bound_batch_mb\": {:.1}, \"depth0_epoch_ns\": {}, \"depth2_epoch_ns\": {}, \"epoch_speedup_milli\": {}}},\n",
        t.batch_mb, t.depth0_ns as u64, t.depth2_ns as u64, t.speedup_milli
    )
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// The full pipeline report: `counters` holds the deterministic sections
/// and their flags; with `measure`, `full` adds the measured epoch timing
/// and its ≥ 1.2× flag (without it, `full` equals `counters`). Every
/// flag, per-row ones included, is a contract.
pub fn pipeline_report(measure: bool) -> Report {
    let _ = rayon::init_with_threads(POOL_THREADS);
    let ranks_list: &[usize] = &[1, 4, 8];
    let identity = identity_grid(ranks_list);
    let sweep = modeled_sweep(ranks_list);
    let allocs = alloc_proof();
    let scaling = scaling_rows(&[1, 4, 8, 96, 128]);

    let bit_identical = identity.iter().all(|r| r.identical && r.wall_invariant);
    let overlap_saves = sweep
        .iter()
        .all(|r| r.invariant && (r.depth == 0) == (r.saved_ps == 0))
        && identity.iter().all(|r| r.saved_ps > 0);
    let zero_allocs = allocs_steady(&allocs);
    let input_bound_at_scale = scaling
        .iter()
        .all(|r| r.input_bound == (r.gpus >= 96) && (r.gpus < 96 || r.saved_ps > 0));

    let mut counters = String::from("{\n");
    counters.push_str(&identity_json(&identity));
    counters.push_str(&sweep_json(&sweep));
    counters.push_str(&alloc_json(&allocs));
    counters.push_str(&scaling_json(&scaling));
    let rendered_flags = format!(
        "  \"prefetch_bit_identical\": {bit_identical},\n  \"overlap_saves_time\": {overlap_saves},\n  \"zero_steady_state_allocs\": {zero_allocs},\n  \"input_bound_at_scale\": {input_bound_at_scale}"
    );
    let mut full = counters.clone();
    counters.push_str(&rendered_flags);
    counters.push_str("\n}");
    let mut flags = vec![
        ("prefetch_bit_identical", bit_identical),
        ("overlap_saves_time", overlap_saves),
        ("zero_steady_state_allocs", zero_allocs),
        ("input_bound_at_scale", input_bound_at_scale),
        (
            "every_row_bit_identical",
            identity.iter().all(|r| r.identical),
        ),
        (
            "every_row_wall_invariant",
            identity.iter().all(|r| r.wall_invariant),
        ),
        (
            "every_row_partition_invariant",
            sweep.iter().all(|r| r.invariant),
        ),
    ];
    if !measure {
        return Report::deterministic(counters, flags);
    }

    let timing = real_timing();
    let speedup_ok = timing.speedup_milli >= 1200;
    full.push_str(&timing_json(&timing));
    full.push_str(&rendered_flags);
    let _ = write!(
        full,
        ",\n  \"real_epoch_speedup_ge_1_2x\": {speedup_ok}\n}}"
    );
    flags.push(("real_epoch_speedup_ge_1_2x", speedup_ok));
    Report {
        counters,
        full,
        table: None,
        flags,
    }
}
