//! Data-parallel training with real gradient allreduce.
//!
//! The execution model mirrors `horovodrun -np N`: every rank owns a full
//! model replica and a shard of the training data; each step it computes
//! gradients on its local mini-batch, all ranks average gradients with an
//! allreduce — by default the partition-invariant pipeline chain
//! ([`ExchangeDispatch::Pipeline`]) — and each applies the identical
//! optimiser update, so replicas never diverge (every run ends with an
//! exact parameter-hash check across ranks).
//!
//! Large-batch hygiene follows Goyal et al. (the recipe Sedona et al.
//! use on JUWELS): the learning rate is scaled linearly with the number
//! of workers and ramped up over warmup epochs.
//!
//! # Entry point
//!
//! [`Trainer`] is the single builder-style entry point; faulted runs,
//! resumes and observability are options, not separate functions:
//!
//! ```text
//! Trainer::new(cfg)
//!     .fault(plan)         // optional deterministic kill
//!     .resume(&snapshot)   // optional restart from a checkpoint
//!     .recorder(registry)  // optional metrics sink (msa-obs)
//!     .cost(step_cost)     // optional analytic step-cost model
//!     .codec(GradCodec::Bf16) // optional gradient wire codec
//!     .run(&dataset, model_fn, opt_fn, loss)?
//! ```
//!
//! (The pre-PR-3 free functions `train_data_parallel`,
//! `train_data_parallel_faulted` and `resume_from_snapshot` are gone;
//! the `removed-api` lint keeps them from reappearing.)
//!
//! # Observability
//!
//! Every rank carries a [`msa_obs::VirtualClock`] in integer picoseconds
//! and prices the four phases of each step with a [`StepCost`] model:
//! batch **staging**, forward/backward **compute**, gradient
//! **allreduce**, and **checkpoint** writes. The per-phase totals land in
//! [`TrainReport::breakdown`] (with per-epoch rollups in
//! [`TrainReport::epoch_breakdown`]), and — when a recorder is attached —
//! as `trainer.*` metrics merged in rank order, alongside the
//! communicator's per-collective traffic counters. All durations are
//! integer picoseconds, so identical runs produce bit-identical
//! snapshots.
//!
//! # Checkpoint/restart
//!
//! With a [`CheckpointPolicy`] armed, rank 0 snapshots the *full*
//! training state every N steps — weights, batch-norm state, optimiser
//! buffers and a [`TrainerProgress`] record (RNG stream positions,
//! partial epoch statistics, LR schedule point) — into a version-2
//! `nn::serialize` snapshot. [`Trainer::fault`] arms a deterministic
//! [`FaultPlan`] ("kill rank r at step s"): synchronous SGD is
//! all-or-nothing, so one dead rank aborts every rank at the same
//! lock-step boundary and the run returns
//! [`TrainOutcome::Interrupted`] carrying the last snapshot.
//! [`Trainer::resume`] restarts from that snapshot and — by
//! construction, asserted in `tests/checkpoint_resume.rs` — finishes
//! **bit-identical** to the run that was never killed.

use crate::checkpoint::{CheckpointError, CheckpointPolicy, CheckpointRecord, TrainerProgress};
use crate::compress::TopKCompressor;
use crate::fusion::{ExchangeDispatch, FusionBuffer, FusionConfig};
use data::stream::{with_prefetch, BatchSource, BatchStream, SlabPool};
use data::Dataset;
use msa_core::SimTime;
use msa_net::{
    CollectiveAlgo, CommOptions, Communicator, FaultPlan, GradCodec, LinkParams, PointToPoint as _,
    RankKilled, ThreadComm,
};
use msa_obs::{key, MetricsRegistry, Recorder, VirtualClock};
use nn::{serialize, u64_to_words, words_to_u64, Layer, Loss, Optimizer, Sequential};
use std::sync::Arc;
use std::time::Instant;
use tensor::{Rng, Tensor};

/// Configuration for a data-parallel run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of data-parallel workers (threads playing GPUs).
    pub workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-worker mini-batch size (weak-scaling convention, as Horovod).
    pub batch_per_worker: usize,
    /// Base learning rate for a single worker.
    pub base_lr: f32,
    /// Scale the LR linearly with worker count (Goyal et al.).
    pub lr_scaling: bool,
    /// Epochs of linear LR warmup (0 disables).
    pub warmup_epochs: usize,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Training-state snapshot policy (`None` disables checkpointing).
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            workers: 1,
            epochs: 5,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 42,
            checkpoint: None,
        }
    }
}

/// Per-epoch statistics (already averaged over ranks).
#[derive(Debug, Clone)]
pub struct EpochStats {
    pub epoch: usize,
    pub mean_loss: f32,
    pub lr: f32,
}

/// Analytic cost model pricing the phases of one training step.
///
/// The trainer executes for real (threads, channels, actual gradients)
/// but *times* itself on a virtual clock: each phase is priced by this
/// model and accumulated in integer picoseconds, so the reported
/// breakdown is deterministic and directly comparable to the α–β
/// collective models in `msa-net::cost`.
#[derive(Debug, Clone, Copy)]
pub struct StepCost {
    /// FLOPs per sample for forward + backward. `0.0` (the default)
    /// derives `6 × params` — the usual 2 FLOPs/param forward plus twice
    /// that backward.
    pub flops_per_sample: f64,
    /// Sustained device throughput in TFLOP/s.
    pub gpu_tflops: f64,
    /// Host→device batch staging bandwidth in GB/s.
    pub stage_gbs: f64,
    /// Interconnect pricing the gradient allreduce; also handed to the
    /// communicator so per-message modeled wait uses the same link.
    pub link: LinkParams,
    /// Collective algorithm priced for the gradient allreduce.
    pub algo: CollectiveAlgo,
}

impl Default for StepCost {
    fn default() -> Self {
        StepCost {
            flops_per_sample: 0.0,
            gpu_tflops: 15.7, // V100 FP32 peak (JUWELS Booster GPU)
            stage_gbs: 12.5,  // PCIe gen3 ×16
            link: LinkParams::infiniband_edr(),
            algo: CollectiveAlgo::Ring,
        }
    }
}

impl StepCost {
    /// Forward+backward time for a batch of `samples` on a model with
    /// `params` trainable parameters.
    pub fn compute_time(&self, params: usize, samples: usize) -> SimTime {
        let per_sample = if self.flops_per_sample > 0.0 {
            self.flops_per_sample
        } else {
            6.0 * params as f64
        };
        SimTime::from_secs(per_sample * samples as f64 / (self.gpu_tflops * 1e12))
    }

    /// Host→device staging time for `bytes` of batch data.
    pub fn stage_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / (self.stage_gbs * 1e9))
    }

    /// Gradient allreduce time across `ranks` endpoints under the
    /// configured algorithm and link.
    pub fn allreduce_time(&self, ranks: usize, bytes: u64) -> SimTime {
        self.algo.allreduce_time(ranks, bytes as f64, self.link)
    }
}

/// Modeled time in each phase of the training loop, in integer
/// picoseconds. `u64` addition is exact and order-independent, so
/// identical runs accumulate bit-identical breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Host→device batch staging.
    pub stage_ps: u64,
    /// Forward + backward compute.
    pub compute_ps: u64,
    /// Gradient allreduce (full per-bucket α–β cost, as if serialized).
    pub allreduce_ps: u64,
    /// Checkpoint serialisation + write (priced on rank 0).
    pub checkpoint_ps: u64,
    /// Allreduce picoseconds hidden under the backward tail by the
    /// fused, overlapped exchange — each bucket is priced
    /// `max(compute_tail, comm)` instead of `compute + allreduce`, and
    /// the hidden part lands here so [`PhaseBreakdown::total_ps`] stays
    /// exactly equal to the virtual wall clock. Zero on the serialized
    /// path.
    pub overlap_saved_ps: u64,
    /// Staging picoseconds hidden behind the previous steps' compute by
    /// the depth-k batch prefetcher ([`Trainer::prefetch`]): `stage_ps`
    /// records every batch's *full* staging cost, the consumer only
    /// stalls for the part not already assembled when it arrives, and
    /// the difference lands here — so the partition invariant stays
    /// exact. Zero at depth 0 (the serial seed schedule).
    pub stage_overlap_saved_ps: u64,
}

impl PhaseBreakdown {
    /// Modeled wall time in picoseconds: the phase sum, minus the
    /// allreduce share that ran concurrently with compute and the
    /// staging share that ran concurrently with previous steps.
    pub fn total_ps(&self) -> u64 {
        self.stage_ps + self.compute_ps + self.allreduce_ps + self.checkpoint_ps
            - self.overlap_saved_ps
            - self.stage_overlap_saved_ps
    }

    /// Sum of all phases as a [`SimTime`].
    pub fn total(&self) -> SimTime {
        msa_obs::ps_to_simtime(self.total_ps())
    }

    fn absorb(&mut self, other: &PhaseBreakdown) {
        self.stage_ps += other.stage_ps;
        self.compute_ps += other.compute_ps;
        self.allreduce_ps += other.allreduce_ps;
        self.checkpoint_ps += other.checkpoint_ps;
        self.overlap_saved_ps += other.overlap_saved_ps;
        self.stage_overlap_saved_ps += other.stage_overlap_saved_ps;
    }
}

/// Discrete-event pricing of the depth-k prefetch ring on the virtual
/// clock. The modeled producer starts assembling batch `t` as soon as
/// the previous batch is assembled *and* ring slot `t − k` has been
/// popped (`S_t = max(R_{t−1}, P_{t−k})`, `R_t = S_t + cost_t`); the
/// consumer arriving at `A_t` stalls only `max(0, R_t − A_t)`. Because
/// `R_{t−1} ≤ P_{t−1} ≤ A_t` and `P_{t−k} ≤ A_t` for `k ≥ 1`, the stall
/// never exceeds the full staging cost, so the hidden remainder
/// (`cost − stall`) is a well-formed `u64` — it accumulates into
/// [`PhaseBreakdown::stage_overlap_saved_ps`]. Depth 0 degenerates to
/// the serial seed schedule: the stall is the full cost, bit for bit.
#[derive(Debug)]
struct StagePipe {
    depth: usize,
    /// `R_{t−1}`: virtual time the previous batch finished assembling.
    ready: u64,
    /// Pop times of the last `depth` batches (`P_{t−depth} … P_{t−1}`),
    /// preloaded with the epoch start so the first `depth` batches only
    /// wait on `R_{t−1}`.
    pops: std::collections::VecDeque<u64>,
}

impl StagePipe {
    fn new(depth: usize, epoch_start_ps: u64) -> Self {
        StagePipe {
            depth,
            ready: epoch_start_ps,
            pops: std::iter::repeat_n(epoch_start_ps, depth).collect(),
        }
    }

    /// Consumer needs the next batch (staging cost `cost_ps`) at virtual
    /// time `now_ps`; returns how long it stalls. The caller advances
    /// the clock by the stall and then reports the pop via
    /// [`StagePipe::popped`].
    fn arrive(&mut self, cost_ps: u64, now_ps: u64) -> u64 {
        if self.depth == 0 {
            return cost_ps;
        }
        // lint: allow(unwrap) -- `pops` is preloaded with `depth` entries and refilled on every pop
        let slot_free = self.pops.pop_front().expect("pipe slot");
        let start = self.ready.max(slot_free);
        self.ready = start + cost_ps;
        self.ready.saturating_sub(now_ps)
    }

    /// Records the pop time (the clock after the stall was applied).
    fn popped(&mut self, now_ps: u64) {
        if self.depth > 0 {
            self.pops.push_back(now_ps);
        }
    }
}

/// One epoch's phase rollup (only epochs this run executed steps in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochBreakdown {
    pub epoch: usize,
    pub phases: PhaseBreakdown,
}

/// Result of a data-parallel run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    /// Wall-clock of the whole run in seconds (host time; *not* part of
    /// the deterministic surface — use [`TrainReport::sim_wall_ps`]).
    pub wall_secs: f64,
    /// Final (synchronised) flat parameter vector, for evaluation.
    pub final_params: Vec<f32>,
    /// Final non-trainable state (batch-norm running stats) of rank 0.
    pub final_state: Vec<f32>,
    /// Steps each rank executed (including pre-resume steps).
    pub steps_per_rank: usize,
    /// Checkpoints taken under the configured [`CheckpointPolicy`].
    pub checkpoints: Vec<CheckpointRecord>,
    /// The most recent full training-state snapshot (rank 0's copy).
    pub latest_snapshot: Option<Vec<u8>>,
    /// Rank 0's virtual clock at the end of the run, in picoseconds.
    /// Equals `breakdown.total_ps()` by construction.
    pub sim_wall_ps: u64,
    /// Phase totals over the steps executed *in this run* (a resumed run
    /// counts only post-resume steps).
    pub breakdown: PhaseBreakdown,
    /// Per-epoch phase rollups for the epochs this run ran steps in.
    pub epoch_breakdown: Vec<EpochBreakdown>,
}

impl TrainReport {
    /// Modeled duration of the run as a [`SimTime`].
    pub fn sim_wall(&self) -> SimTime {
        msa_obs::ps_to_simtime(self.sim_wall_ps)
    }
}

/// How a (possibly fault-injected) run ended.
#[derive(Debug, Clone)]
pub enum TrainOutcome {
    /// The run trained all epochs.
    Completed(TrainReport),
    /// An armed [`FaultPlan`] fired: every rank aborted at the same step
    /// boundary. `snapshot` is the last checkpoint taken before the kill
    /// (`None` if the fault beat the first checkpoint).
    Interrupted {
        failure: RankKilled,
        snapshot: Option<Vec<u8>>,
    },
}

impl TrainOutcome {
    /// Unwraps the completed report.
    ///
    /// # Panics
    /// If the run was interrupted by a fault.
    pub fn completed(self) -> TrainReport {
        match self {
            TrainOutcome::Completed(report) => report,
            TrainOutcome::Interrupted { failure, .. } => {
                panic!(
                    "run interrupted: rank {} killed at step {}",
                    failure.rank, failure.at_step
                )
            }
        }
    }

    /// Unwraps the interruption record.
    ///
    /// # Panics
    /// If the run completed.
    pub fn interrupted(self) -> (RankKilled, Option<Vec<u8>>) {
        match self {
            TrainOutcome::Interrupted { failure, snapshot } => (failure, snapshot),
            TrainOutcome::Completed(_) => panic!("run completed; no interruption"),
        }
    }
}

/// Effective LR for `epoch` under scaling + warmup.
pub fn effective_lr(cfg: &TrainConfig, epoch: usize) -> f32 {
    let target = if cfg.lr_scaling {
        cfg.base_lr * cfg.workers as f32
    } else {
        cfg.base_lr
    };
    if epoch < cfg.warmup_epochs && cfg.workers > 1 {
        // Linear ramp from base_lr to target over the warmup epochs.
        let frac = (epoch + 1) as f32 / (cfg.warmup_epochs + 1) as f32;
        cfg.base_lr + (target - cfg.base_lr) * frac
    } else {
        target
    }
}

/// Builder-style entry point for Horovod-style data-parallel training.
///
/// `model_fn(seed)` must build an identically-initialised model on every
/// rank (same seed ⇒ same weights, the cheap equivalent of an initial
/// broadcast — a real broadcast is also exercised: rank 0's weights are
/// broadcast at t=0 and asserted equal). `opt_fn(lr)` builds each rank's
/// optimiser. `loss` maps (pred, target) to (loss, grad).
///
/// [`Trainer::run`] only returns `Err` when a [`Trainer::resume`]
/// snapshot fails validation; plain runs can `expect` the `Ok`.
#[derive(Clone)]
pub struct Trainer {
    cfg: TrainConfig,
    fault: Option<FaultPlan>,
    snapshot: Option<Vec<u8>>,
    recorder: Option<Arc<MetricsRegistry>>,
    cost: StepCost,
    fusion: FusionConfig,
    dispatch: ExchangeDispatch,
    codec: GradCodec,
    prefetch: usize,
    tag: Option<String>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("cfg", &self.cfg)
            .field("fault", &self.fault)
            .field("snapshot_bytes", &self.snapshot.as_ref().map(Vec::len))
            .field("recorder", &self.recorder.is_some())
            .field("cost", &self.cost)
            .field("fusion", &self.fusion)
            .field("dispatch", &self.dispatch)
            .field("codec", &self.codec)
            .field("prefetch", &self.prefetch)
            .field("tag", &self.tag)
            .finish()
    }
}

impl Trainer {
    /// A trainer for `cfg` with no fault, no resume, no recorder and the
    /// default [`StepCost`].
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer {
            cfg,
            fault: None,
            snapshot: None,
            recorder: None,
            cost: StepCost::default(),
            fusion: FusionConfig::default(),
            dispatch: ExchangeDispatch::default(),
            codec: GradCodec::default(),
            prefetch: 0,
            tag: None,
        }
    }

    /// Arms a deterministic fault: kill `plan.rank` at global step
    /// `plan.at_step`.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// [`Trainer::fault`] taking an `Option` (convenience for callers
    /// that thread an optional plan through).
    pub fn fault_opt(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    /// Restarts from a full training-state snapshot. The snapshot's
    /// worker count, seed and LR schedule point are validated bit-exactly
    /// against `cfg` when [`Trainer::run`] is called.
    pub fn resume(mut self, snapshot: &[u8]) -> Self {
        self.snapshot = Some(snapshot.to_vec());
        self
    }

    /// Attaches a metrics sink: per-rank phase timings, collective
    /// traffic counters and epoch rollups are merged into it in rank
    /// order when the run finishes (fault-interrupted runs included).
    pub fn recorder(mut self, recorder: Arc<MetricsRegistry>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the analytic step-cost model (device throughput,
    /// staging bandwidth, interconnect, collective algorithm).
    pub fn cost(mut self, cost: StepCost) -> Self {
        self.cost = cost;
        self
    }

    /// Configures the gradient exchange: Horovod-style bucket fusion
    /// (`bucket_bytes`) and backward/allreduce overlap. The default is
    /// the serialized seed schedule. Every setting produces
    /// `to_bits`-identical training results — the exchange is
    /// partition-invariant by construction (see `crate::fusion`).
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Selects which allreduce each fusion bucket runs: the default
    /// partition-invariant pipeline, or measured-winner dispatch through
    /// an autotuner [`msa_net::tune::DecisionTable`]
    /// ([`ExchangeDispatch::Tuned`]). Tuned dispatch keeps fused ≡
    /// serialized bit-exact at any fixed `bucket_bytes` (selection
    /// depends only on each bucket's byte length), but results may
    /// differ *across* bucket sizes — see [`ExchangeDispatch`].
    pub fn dispatch(mut self, dispatch: ExchangeDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Selects the gradient **wire codec** for the per-bucket allreduce
    /// (see [`msa_net::GradCodec`]):
    ///
    /// * [`GradCodec::Dense32`] (default) — full-precision f32; every
    ///   exchange byte and every result bit is identical to the seed
    ///   trainer.
    /// * [`GradCodec::Bf16`] — deterministic round-to-nearest-even bf16
    ///   on the wire; halves allreduce bytes exactly. Gradients are
    ///   quantised, so training results differ from dense in the last
    ///   bits but converge to the same quality (asserted by the
    ///   `experiments codec` parity runs).
    /// * [`GradCodec::SparseTopK`] — top-k magnitude selection with
    ///   error feedback, exchanged as typed (index, value) pairs over an
    ///   equal-block allgather.
    ///
    /// The codec changes only the exchange: bucketing, overlap and the
    /// optimiser are untouched, and the priced clock sees the *encoded*
    /// byte count.
    pub fn codec(mut self, codec: GradCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Arms the depth-`k` batch prefetcher: each rank assembles up to
    /// `depth` mini-batches ahead on a producer thread (the
    /// [`data::stream::with_prefetch`] ring) while the current step
    /// computes, and the priced clock charges only the staging time not
    /// already hidden behind previous steps — the hidden share lands in
    /// [`PhaseBreakdown::stage_overlap_saved_ps`].
    ///
    /// Training results are bit-identical at every depth: the prefetcher
    /// changes *when* batches are assembled, never their bits or order.
    /// `0` (the default) keeps the serial seed schedule — and the seed's
    /// modeled timings — exactly; [`data::stream::DEFAULT_PREFETCH_DEPTH`]
    /// (2) is the recommended double-buffering depth.
    pub fn prefetch(mut self, depth: usize) -> Self {
        self.prefetch = depth;
        self
    }

    /// Labels every metric this run records with `run=<tag>`, so several
    /// runs can share one registry without colliding.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Runs the configured training job.
    ///
    /// Returns `Err` only when a [`Trainer::resume`] snapshot fails
    /// validation (wrong workers/seed/LR schedule, or not a trainer
    /// snapshot at all).
    pub fn run<M, O, L>(
        &self,
        dataset: &Dataset,
        model_fn: M,
        opt_fn: O,
        loss: L,
    ) -> Result<TrainOutcome, CheckpointError>
    where
        M: Fn(u64) -> Sequential + Sync,
        O: Fn(f32) -> Box<dyn Optimizer> + Sync,
        L: Loss + Sync,
    {
        let resume = match &self.snapshot {
            Some(snap) => Some(decode_resume(&self.cfg, &model_fn, snap)?),
            None => None,
        };
        assert!(self.cfg.workers >= 1);
        assert!(self.cfg.epochs >= 1);
        let start = Instant::now();
        let opts = CommOptions::new().fault_opt(self.fault).link(self.cost.link);
        let results = ThreadComm::run_with(self.cfg.workers, &opts, |comm| {
            let mut rank = RankLoop::new(self, comm, &model_fn, &opt_fn, &loss, resume.as_ref());
            let ran = rank.train(dataset, resume.as_ref());
            rank.finish(ran)
        });
        let wall_secs = start.elapsed().as_secs_f64();

        // Merge per-rank registries in rank order: all msa-obs values are
        // order-independent under merge, but a fixed order keeps even the
        // pathological cases (duplicate gauge keys) deterministic.
        let mut rank0 = None;
        for (r, run) in results.into_iter().enumerate() {
            if let Some(rec) = &self.recorder {
                rec.merge_snapshot(&run.metrics.snapshot());
            }
            if r == 0 {
                rank0 = Some(run.outcome);
            }
        }
        // lint: allow(unwrap) -- ThreadComm::run returns one result per rank and workers >= 1
        Ok(match rank0.expect("at least one rank") {
            Ok(mut report) => {
                report.wall_secs = wall_secs;
                TrainOutcome::Completed(report)
            }
            Err((failure, snapshot)) => TrainOutcome::Interrupted { failure, snapshot },
        })
    }
}

/// Decoded snapshot handed to every rank on resume.
struct ResumeState {
    params: Vec<f32>,
    state: Vec<f32>,
    opt_state: Vec<f32>,
    progress: TrainerProgress,
}

/// Decodes and validates a resume snapshot against `cfg`: the worker
/// count, seed and LR schedule point must match bit-exactly, or the
/// replayed steps would diverge from the original run. (The RNG stream
/// positions are re-checked per rank once the shuffle is re-drawn.)
fn decode_resume<M>(
    cfg: &TrainConfig,
    model_fn: &M,
    snapshot: &[u8],
) -> Result<ResumeState, CheckpointError>
where
    M: Fn(u64) -> Sequential,
{
    let mut model = model_fn(cfg.seed);
    let (opt_state, meta) = serialize::load_training(&mut model, snapshot)?;
    let progress = TrainerProgress::decode(&meta)?;
    if progress.workers as usize != cfg.workers {
        return Err(CheckpointError::ConfigMismatch {
            what: "workers",
            snapshot: progress.workers as u64,
            config: cfg.workers as u64,
        });
    }
    if progress.seed != cfg.seed {
        return Err(CheckpointError::ConfigMismatch {
            what: "seed",
            snapshot: progress.seed,
            config: cfg.seed,
        });
    }
    if progress.epoch as usize >= cfg.epochs {
        return Err(CheckpointError::ConfigMismatch {
            what: "epochs",
            snapshot: progress.epoch,
            config: cfg.epochs as u64,
        });
    }
    let lr = effective_lr(cfg, progress.epoch as usize);
    if lr.to_bits() != progress.lr_bits {
        return Err(CheckpointError::ConfigMismatch {
            what: "effective lr bits",
            snapshot: progress.lr_bits as u64,
            config: lr.to_bits() as u64,
        });
    }
    Ok(ResumeState {
        params: model.values_vec(),
        state: model.state(),
        opt_state,
        progress,
    })
}

/// What one rank hands back: the training outcome plus its local
/// metrics registry (populated even when the rank was killed).
struct RankRun {
    outcome: Result<TrainReport, (RankKilled, Option<Vec<u8>>)>,
    metrics: MetricsRegistry,
}

/// Allgathers `values` from every rank exactly, one `Vec` per rank in
/// rank order. Each `u64` rides the f32 data plane as two bit-pattern
/// words ([`u64_to_words`]), so control words of any magnitude — step
/// counts, RNG positions, loss-sum bits, hashes — arrive unchanged.
fn allgather_u64<C: Communicator + ?Sized>(comm: &C, values: &[u64]) -> Vec<Vec<u64>> {
    let words: Vec<f32> = values.iter().flat_map(|&v| u64_to_words(v)).collect();
    comm.allgather(&words)
        .iter()
        .map(|w| w.chunks_exact(2).map(|p| words_to_u64([p[0], p[1]])).collect())
        .collect()
}

/// FNV-1a over the parameters' bit patterns.
fn params_hash(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        p.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Replicas are bit-identical by construction, so any differing bit is
/// a desync: allgathers every rank's [`params_hash`] and returns the
/// first rank whose replica differs from rank 0's (`None` when all
/// agree).
fn diverging_rank<C: Communicator + ?Sized>(comm: &C, params: &[f32]) -> Option<usize> {
    let hashes = allgather_u64(comm, &[params_hash(params)]);
    hashes.iter().position(|h| h[0] != hashes[0][0])
}

/// Where one rank is inside the current epoch.
struct EpochState {
    epoch: usize,
    lr: f32,
    /// Shuffle-stream positions before and after the epoch's permutation
    /// draw (checkpointed so a resume re-draws the same batches).
    rng_pos_start: u64,
    rng_pos_now: u64,
    step_in_epoch: usize,
    loss_sum: f64,
    phases: PhaseBreakdown,
    pipe: StagePipe,
}

/// One rank of the Horovod loop: forward, backward fused with the
/// gradient exchange, optimiser update, and a checkpoint when due.
///
/// It borrows the [`Trainer`]'s configuration and owns the rank's
/// persistent state — model, optimiser, the fusion buffer holding the
/// flat gradient, the collectives' scratch arena, the top-k
/// compressors, the virtual clock and the run's totals — all warm after
/// the first step, so steady-state steps allocate nothing in the
/// exchange. Completed and killed runs both leave through
/// [`RankLoop::finish`].
struct RankLoop<'a, L> {
    trainer: &'a Trainer,
    comm: &'a ThreadComm,
    loss: &'a L,
    model: Sequential,
    opt: Box<dyn Optimizer>,
    n_params: usize,
    fusion: FusionBuffer,
    arena: msa_net::Arena,
    /// Sparse codecs carry per-bucket error-feedback residuals (the
    /// residual is positional, so it lives with its bucket). Dense and
    /// bf16 need none.
    compressors: Vec<TopKCompressor>,
    clock: VirtualClock,
    totals: PhaseBreakdown,
    epochs: Vec<EpochStats>,
    epoch_bds: Vec<EpochBreakdown>,
    /// Steps this rank has executed, including pre-resume steps.
    steps_per_rank: usize,
    /// Steps executed in this run only.
    steps_run: u64,
    allreduce_bytes: u64,
    checkpoints: Vec<CheckpointRecord>,
    latest_snapshot: Option<Vec<u8>>,
}

impl<'a, L: Loss> RankLoop<'a, L> {
    fn new<M, O>(
        trainer: &'a Trainer,
        comm: &'a ThreadComm,
        model_fn: &M,
        opt_fn: &O,
        loss: &'a L,
        resume: Option<&ResumeState>,
    ) -> Self
    where
        M: Fn(u64) -> Sequential,
        O: Fn(f32) -> Box<dyn Optimizer>,
    {
        let cfg = &trainer.cfg;
        // Identical init everywhere, then belt-and-braces broadcast from
        // 0. On resume every rank loads the snapshot's weights instead,
        // and the broadcast degenerates to an identity check.
        let mut model = model_fn(cfg.seed);
        if let Some(r) = resume {
            model.set_values(&r.params);
            model.set_state(&r.state);
        }
        let mut params = model.values_vec();
        comm.broadcast(&mut params, 0);
        let n_params = params.len();
        model.set_values(&params);

        let mut opt = opt_fn(effective_lr(cfg, resume.map_or(0, |r| r.progress.epoch as usize)));
        if let Some(r) = resume {
            opt.load_state(&r.opt_state);
        }
        let fusion = FusionBuffer::new(
            &model.layer_param_spans(),
            n_params,
            trainer.fusion.bucket_bytes,
        );
        let compressors = match trainer.codec {
            GradCodec::SparseTopK { ratio } => fusion
                .buckets()
                .iter()
                .map(|b| TopKCompressor::new(b.len(), ratio))
                .collect(),
            _ => Vec::new(),
        };
        let epochs = resume.map_or_else(Vec::new, |r| {
            r.progress
                .history
                .iter()
                .enumerate()
                .map(|(epoch, &(mean_loss, lr))| EpochStats {
                    epoch,
                    mean_loss,
                    lr,
                })
                .collect()
        });
        RankLoop {
            trainer,
            comm,
            loss,
            model,
            opt,
            n_params,
            fusion,
            arena: msa_net::Arena::new(),
            compressors,
            clock: VirtualClock::new(),
            totals: PhaseBreakdown::default(),
            epochs,
            epoch_bds: Vec::new(),
            steps_per_rank: resume.map_or(0, |r| r.progress.steps_done as usize),
            steps_run: 0,
            allreduce_bytes: 0,
            checkpoints: Vec::new(),
            latest_snapshot: None,
        }
    }

    /// Trains the remaining epochs on this rank's shard. `Err` is the
    /// fault-abort path: the armed fault stops every rank at the same
    /// lock-step boundary.
    fn train(&mut self, dataset: &Dataset, resume: Option<&ResumeState>) -> Result<(), RankKilled> {
        let cfg = &self.trainer.cfg;
        let prefetch = self.trainer.prefetch;
        let rank = self.comm.rank();
        let shard = dataset.shard(rank, self.comm.size());
        let mut shuffle_rng = Rng::seed(cfg.seed ^ (0xD15C0 + rank as u64));
        if let Some(r) = resume {
            // Seek the shuffle stream to where the interrupted epoch drew
            // its batches; the re-draw below then reproduces the same
            // permutation.
            shuffle_rng.set_word_pos(r.progress.rng_pos_start[rank]);
        }
        // Batch-buffer slabs circulated by the prefetch ring; warm after
        // the first epoch, so steady-state epochs assemble without
        // allocating.
        let mut slab_pool = SlabPool::new();
        let start_epoch = resume.map_or(0, |r| r.progress.epoch as usize);

        for epoch in start_epoch..cfg.epochs {
            let lr = effective_lr(cfg, epoch);
            self.opt.set_lr(lr);
            let rng_pos_start = shuffle_rng.word_pos();
            // Lazy batch stream: draws the epoch permutation up front (the
            // same single RNG consumption the retired eager path made, so
            // checkpointed RNG positions are unchanged) and assembles
            // mini-batches on demand.
            let mut stream = BatchStream::new(&shard, cfg.batch_per_worker, &mut shuffle_rng);
            let rng_pos_now = shuffle_rng.word_pos();
            // Every rank must run the same number of steps per epoch or
            // the collectives deadlock; agree on the global minimum.
            let min_steps = allgather_u64(self.comm, &[stream.num_batches() as u64])
                .iter()
                .map(|v| v[0])
                .min()
                .unwrap_or(0) as usize;

            // First resumed epoch: re-enter mid-epoch — skip the steps the
            // snapshot already holds and restore the loss accumulator.
            let (skip, loss_sum) = match resume {
                Some(r) if epoch == start_epoch => {
                    assert_eq!(
                        rng_pos_now, r.progress.rng_pos_now[rank],
                        "rank {rank}: shuffle stream diverged on resume"
                    );
                    (
                        r.progress.step_in_epoch as usize,
                        f64::from_bits(r.progress.loss_sum_bits[rank]),
                    )
                }
                _ => (0, 0.0),
            };
            let mut ep = EpochState {
                epoch,
                lr,
                rng_pos_start,
                rng_pos_now,
                step_in_epoch: skip,
                loss_sum,
                phases: PhaseBreakdown::default(),
                // Modeled ring pricing starts at the epoch's current
                // clock; at depth 0 the pipe is the serial schedule.
                pipe: StagePipe::new(prefetch, self.clock.now_ps()),
            };

            // The steps run either inline (depth 0, the serial seed
            // schedule) or against the prefetch ring.
            let mut steps =
                |src: &mut dyn BatchSource| self.run_steps(&mut ep, src, skip, min_steps);
            let ran = if prefetch == 0 {
                steps(&mut stream)
            } else {
                with_prefetch(&mut stream, prefetch, &mut slab_pool, |src| steps(src))
            };
            self.totals.absorb(&ep.phases);
            ran?;

            // Average the epoch loss over ranks for reporting.
            let mut stat = vec![(ep.loss_sum / min_steps.max(1) as f64) as f32];
            self.comm.allreduce_mean(&mut stat);
            self.epochs.push(EpochStats {
                epoch,
                mean_loss: stat[0],
                lr,
            });
            self.epoch_bds.push(EpochBreakdown {
                epoch,
                phases: ep.phases,
            });
        }

        if let Some(r) = diverging_rank(self.comm, &self.model.values_vec()) {
            panic!("rank {r} diverged: its parameter bits differ from rank 0's");
        }
        Ok(())
    }

    /// Steps `src` through the epoch. Resumed epochs re-enter mid-way:
    /// the already-trained batches are pulled and recycled without
    /// pricing anything (the retired eager path assembled them and priced
    /// nothing).
    fn run_steps(
        &mut self,
        ep: &mut EpochState,
        src: &mut dyn BatchSource,
        skip: usize,
        min_steps: usize,
    ) -> Result<(), RankKilled> {
        for _ in 0..skip.min(min_steps) {
            if let Some(b) = src.next_batch() {
                src.recycle(b);
            }
        }
        for _ in skip..min_steps {
            // A dead rank makes the next collective impossible for every
            // rank; the armed fault therefore aborts all of them here, at
            // the same lock-step boundary.
            self.comm.poll_fault(self.steps_per_rank as u64)?;
            let Some((bx, by)) = src.next_batch() else { break };
            self.step(ep, &bx, &by);
            self.checkpoint(ep);
            // Hand the batch buffers back so the ring can reuse them (a
            // no-op on the inline path).
            src.recycle((bx, by));
        }
        Ok(())
    }

    /// One training step: stage the batch, forward, backward fused with
    /// the gradient exchange, price the step, update.
    fn step(&mut self, ep: &mut EpochState, bx: &Tensor, by: &Tensor) {
        // Phase 1: stage the mini-batch host→device. The full cost lands
        // in `stage_ps`; the consumer only stalls for the share the
        // modeled producer had not already assembled, and the hidden
        // remainder is accounted in `stage_overlap_saved_ps` — keeping
        // the partition invariant exact.
        let batch_bytes = ((bx.data().len() + by.data().len()) * size_of::<f32>()) as u64;
        let s_ps = msa_obs::simtime_to_ps(self.trainer.cost.stage_time(batch_bytes));
        let stall = ep.pipe.arrive(s_ps, self.clock.now_ps());
        self.clock.advance_ps(stall);
        ep.pipe.popped(self.clock.now_ps());
        ep.phases.stage_ps += s_ps;
        ep.phases.stage_overlap_saved_ps += s_ps - stall;

        // Phases 2+3: forward, then backward with the Horovod moment —
        // gradients averaged across ranks bucket by bucket.
        self.model.zero_grad();
        let pred = self.model.forward(bx, true);
        let (l, grad) = self.loss.compute(&pred, by);
        self.backward_exchange(&grad);
        self.price_compute_and_exchange(&mut ep.phases, bx.shape()[0]);

        self.opt.step(&mut self.model.params_mut());
        ep.loss_sum += l as f64;
        ep.step_in_epoch += 1;
        self.steps_per_rank += 1;
        self.steps_run += 1;
    }

    /// Backward pass fused with the gradient exchange — the one place
    /// gradients cross ranks. The fusion buffer packs each layer into its
    /// range of the flat gradient, and every completed bucket's range is
    /// allreduce-meaned in place through the configured
    /// [`ExchangeDispatch`] and codec. The overlap switch only chooses
    /// *where* that reduce runs: inline on the caller, or on a
    /// `rayon::join` comm lane while earlier layers are still in
    /// backward. Buckets reduce in the same descending order either way,
    /// so fused and serialized schedules of one partition agree
    /// bit-for-bit, and the default pipeline dispatch is additionally
    /// partition-invariant (bits never depend on `bucket_bytes`).
    ///
    /// Deadlock-freedom of the overlapped lane: `rayon::join` always
    /// starts the first closure on the caller, so the backward producer
    /// runs even when the pool is saturated — the comm lane then runs
    /// afterwards on the caller and drains the unbounded channel
    /// serialized. Cross-rank safety is the pipeline schedule's:
    /// msa-verify model-checks the bucketed schedule under `Bounded(1)`
    /// channels, and `ThreadComm`'s credit pools are `Bounded(2)`.
    fn backward_exchange(&mut self, grad: &Tensor) {
        let RankLoop {
            trainer,
            comm,
            model,
            fusion,
            arena,
            compressors,
            ..
        } = self;
        let mut reduce = |bidx: usize, seg: &mut [f32]| {
            let compressor = compressors.get_mut(bidx);
            trainer
                .dispatch
                .reduce_bucket_codec(*comm, seg, arena, trainer.codec, compressor);
        };
        if trainer.fusion.overlap {
            let (tx, rx) = crossbeam::channel::unbounded();
            rayon::join(
                || {
                    // Unbounded channel: handing a bucket to the comm
                    // lane never blocks backward. A send error is
                    // impossible while `rx` lives.
                    fusion.backward(model, grad, |bidx, seg| {
                        let _ = tx.send((bidx, seg));
                    });
                    drop(tx);
                },
                || {
                    while let Ok((bidx, seg)) = rx.recv() {
                        reduce(bidx, seg);
                    }
                },
            );
        } else {
            fusion.backward(model, grad, reduce);
        }
        model.set_grads(fusion.grad());
    }

    /// Prices phases 2 and 3 of a step on the virtual clock.
    fn price_compute_and_exchange(&mut self, phases: &mut PhaseBreakdown, samples: usize) {
        let cost = &self.trainer.cost;
        let size = self.comm.size();
        // Phase 2: forward + backward compute …
        let c_ps = self.clock.advance(cost.compute_time(self.n_params, samples));
        phases.compute_ps += c_ps;

        // … and phase 3: per-bucket α–β allreduce cost, overlapped
        // against the backward tail when the overlap lane is on.
        // Backward is 4 of the 6 modeled FLOPs/param, and it sweeps the
        // flat gradient top-down, so the bucket starting at flat offset
        // `a` is ready once (total − a)/total of the backward time has
        // elapsed. Buckets flush back-to-front and serialize on the comm
        // lane: finish_k = max(finish_{k−1}, ready_k) + allreduce_k. The
        // step's wall time advances by max(compute, finish_last) −
        // compute; the hidden remainder is `overlap_saved_ps` (zero when
        // serialized, where every ready_k = compute).
        let t_bwd = c_ps * 2 / 3;
        let total = self.n_params as u64;
        let mut finish: u64 = 0;
        let mut comm_ps: u64 = 0;
        for b in self.fusion.buckets().iter().rev() {
            // Price what actually crosses the wire: the codec's encoded
            // byte count. For Dense32 this is exactly `len × 4` — the
            // seed pricing, bit for bit.
            let bytes = self.trainer.codec.wire_bytes(b.len()) as u64;
            let a_ps = msa_obs::simtime_to_ps(cost.allreduce_time(size, bytes));
            let ready = if self.trainer.fusion.overlap {
                c_ps - t_bwd
                    + ((t_bwd as u128 * (total - b.start as u64) as u128) / total as u128) as u64
            } else {
                c_ps
            };
            finish = finish.max(ready) + a_ps;
            comm_ps += a_ps;
            self.allreduce_bytes += bytes;
        }
        let extra = finish.saturating_sub(c_ps);
        self.clock.advance_ps(extra);
        phases.allreduce_ps += comm_ps;
        phases.overlap_saved_ps += comm_ps - extra;
    }

    /// Snapshots the full training state when the checkpoint policy is
    /// due. Every rank contributes its progress (RNG positions and
    /// partial loss sum); rank 0 writes the snapshot and pays phase 4.
    fn checkpoint(&mut self, ep: &mut EpochState) {
        let trainer = self.trainer;
        let Some(policy) = &trainer.cfg.checkpoint else {
            return;
        };
        if !(self.steps_per_rank as u64).is_multiple_of(policy.every_steps) {
            return;
        }
        let gathered = allgather_u64(
            self.comm,
            &[ep.rng_pos_start, ep.rng_pos_now, ep.loss_sum.to_bits()],
        );
        if self.comm.rank() != 0 {
            return;
        }
        let progress = TrainerProgress {
            workers: self.comm.size() as u32,
            seed: trainer.cfg.seed,
            epoch: ep.epoch as u64,
            step_in_epoch: ep.step_in_epoch as u64,
            steps_done: self.steps_per_rank as u64,
            lr_bits: ep.lr.to_bits(),
            history: self.epochs.iter().map(|e| (e.mean_loss, e.lr)).collect(),
            rng_pos_start: gathered.iter().map(|g| g[0]).collect(),
            rng_pos_now: gathered.iter().map(|g| g[1]).collect(),
            loss_sum_bits: gathered.iter().map(|g| g[2]).collect(),
        };
        let snap = serialize::save_with(&self.model, &self.opt.state(), &progress.encode());
        let record = CheckpointRecord {
            global_step: self.steps_per_rank as u64,
            epoch: ep.epoch,
            bytes: snap.len() as u64,
            write_cost: policy.target.checkpoint_cost_bytes(snap.len() as u64),
        };
        // Phase 4: the snapshot write (rank 0 pays it).
        ep.phases.checkpoint_ps += self.clock.advance(record.write_cost);
        self.checkpoints.push(record);
        self.latest_snapshot = Some(snap);
    }

    /// The single exit, for completed and fault-interrupted runs alike:
    /// records this rank's metrics, then hands back the report or the
    /// interruption.
    fn finish(self, ran: Result<(), RankKilled>) -> RankRun {
        let metrics = self.metrics();
        let outcome = match ran {
            Ok(()) => Ok(TrainReport {
                epochs: self.epochs,
                wall_secs: 0.0, // stamped by the caller
                final_params: self.model.values_vec(),
                final_state: self.model.state(),
                steps_per_rank: self.steps_per_rank,
                checkpoints: self.checkpoints,
                latest_snapshot: self.latest_snapshot,
                sim_wall_ps: self.clock.now_ps(),
                breakdown: self.totals,
                epoch_breakdown: self.epoch_bds,
            }),
            Err(killed) => Err((killed, self.latest_snapshot)),
        };
        RankRun { outcome, metrics }
    }

    /// This rank's phase totals, step counters and collective traffic,
    /// as a local registry.
    fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let rank = self.comm.rank();
        let rank_s = rank.to_string();
        let mut labels: Vec<(&str, &str)> = vec![("rank", &rank_s)];
        if let Some(t) = &self.trainer.tag {
            labels.push(("run", t));
        }

        let totals = &self.totals;
        for (phase, ps) in [
            ("stage", totals.stage_ps),
            ("compute", totals.compute_ps),
            ("allreduce", totals.allreduce_ps),
            ("checkpoint", totals.checkpoint_ps),
        ] {
            reg.time_ps(&key(&format!("trainer.phase.{phase}.time"), &labels), ps);
        }
        reg.add(&key("trainer.steps", &labels), self.steps_run);
        reg.add(&key("trainer.allreduce.bytes", &labels), self.allreduce_bytes);
        reg.time_ps(&key("trainer.overlap.saved", &labels), totals.overlap_saved_ps);
        reg.time_ps(
            &key("trainer.stage_overlap.saved", &labels),
            totals.stage_overlap_saved_ps,
        );
        reg.time_ps(&key("trainer.sim_wall", &labels), self.clock.now_ps());
        if let Some(stats) = self.comm.stats() {
            stats.export().record_into(&reg, &labels);
        }

        // Epoch rollups come from rank 0 only — they are already averaged /
        // global quantities, and one copy keeps the key space tidy.
        if rank == 0 {
            for eb in &self.epoch_bds {
                let epoch_s = eb.epoch.to_string();
                let mut el = labels.clone();
                el.push(("epoch", &epoch_s));
                reg.time_ps(&key("trainer.epoch.time", &el), eb.phases.total_ps());
            }
            for e in &self.epochs {
                let epoch_s = e.epoch.to_string();
                let mut el = labels.clone();
                el.push(("epoch", &epoch_s));
                reg.gauge(&key("trainer.epoch.mean_loss", &el), f64::from(e.mean_loss));
            }
            reg.add(&key("trainer.checkpoints", &labels), self.checkpoints.len() as u64);
            let ckpt_bytes: u64 = self.checkpoints.iter().map(|c| c.bytes).sum();
            reg.add(&key("trainer.checkpoint.bytes", &labels), ckpt_bytes);
        }
        reg
    }
}

/// Evaluates a trained flat parameter vector: rebuilds the model, loads
/// the weights and returns classification accuracy on `test`.
pub fn evaluate_classifier<M>(model_fn: M, seed: u64, report: &TrainReport, test: &Dataset) -> f64
where
    M: Fn(u64) -> Sequential,
{
    let mut model = model_fn(seed);
    model.set_values(&report.final_params);
    model.set_state(&report.final_state);
    let logits = model.predict(&test.x);
    data::accuracy(&logits, &test.y)
}

/// Mean loss of a trained regressor on given inputs/targets (used by the
/// imputation study).
pub fn evaluate_loss<M, L>(
    model_fn: M,
    seed: u64,
    report: &TrainReport,
    x: &Tensor,
    y: &Tensor,
    loss: &L,
) -> f32
where
    M: Fn(u64) -> Sequential,
    L: Loss,
{
    let mut model = model_fn(seed);
    model.set_values(&report.final_params);
    model.set_state(&report.final_state);
    let pred = model.predict(x);
    loss.compute(&pred, y).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::bigearth::{self, BigEarthConfig};
    use nn::{Adam, Dense, Relu, Sgd, SoftmaxCrossEntropy};

    fn mlp(seed: u64, in_dim: usize, classes: usize) -> Sequential {
        let mut rng = Rng::seed(seed);
        Sequential::new()
            .push(Dense::new(in_dim, 32, &mut rng))
            .push(Relu::new())
            .push(Dense::new(32, classes, &mut rng))
    }

    /// Tiny separable dataset: class = argmax over first `classes` dims.
    fn toy_dataset(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
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

    #[test]
    fn single_worker_learns_toy_problem() {
        let ds = toy_dataset(256, 8, 4, 1);
        let (train, test) = ds.split(0.25);
        let cfg = TrainConfig {
            workers: 1,
            epochs: 12,
            batch_per_worker: 32,
            base_lr: 0.1,
            ..Default::default()
        };
        let report = Trainer::new(cfg.clone())
            .run(
                &train,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate")
            .completed();
        let acc = evaluate_classifier(|s| mlp(s, 8, 4), cfg.seed, &report, &test);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss);
        assert!(report.checkpoints.is_empty() && report.latest_snapshot.is_none());
    }

    #[test]
    fn four_workers_match_single_worker_accuracy() {
        // The paper's headline invariance: distributed training does not
        // cost accuracy.
        let ds = toy_dataset(512, 8, 4, 2);
        let (train, test) = ds.split(0.25);
        let mut accs = Vec::new();
        for workers in [1usize, 4] {
            let cfg = TrainConfig {
                workers,
                epochs: 10,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 7,
                checkpoint: None,
            };
            let report = Trainer::new(cfg.clone())
                .run(
                    &train,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed();
            accs.push(evaluate_classifier(|s| mlp(s, 8, 4), cfg.seed, &report, &test));
        }
        assert!(accs[0] > 0.9, "1-worker acc {}", accs[0]);
        assert!(
            accs[1] > accs[0] - 0.05,
            "4-worker accuracy degraded: {} vs {}",
            accs[1],
            accs[0]
        );
    }

    #[test]
    fn gradient_averaging_equals_large_batch_gradient() {
        // 2 workers × batch B over a 2B dataset, one step, lr without
        // scaling: parameters must equal a single worker doing one step
        // on the full 2B batch — exactly, because the loss averages over
        // the batch and the allreduce averages over ranks.
        let ds = toy_dataset(64, 6, 3, 3);
        let step = |workers: usize, lr: f32| -> Vec<f32> {
            let cfg = TrainConfig {
                workers,
                epochs: 1,
                batch_per_worker: 64 / workers,
                base_lr: lr,
                lr_scaling: false,
                warmup_epochs: 0,
                seed: 5,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .run(
                    &ds,
                    |s| mlp(s, 6, 3),
                    |l| Box::new(Sgd::new(l, 0.0, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
                .final_params
        };
        let single = step(1, 0.1);
        let dual = step(2, 0.1);
        // Shards see different examples, so this only holds because the
        // average of shard-mean gradients equals the full-batch mean for
        // equal shard sizes.
        let max_diff = single
            .iter()
            .zip(&dual)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 5e-4, "parameter divergence {max_diff}");
    }

    #[test]
    fn lr_schedule_scales_and_warms_up() {
        let cfg = TrainConfig {
            workers: 8,
            base_lr: 0.1,
            lr_scaling: true,
            warmup_epochs: 2,
            ..Default::default()
        };
        let lr0 = effective_lr(&cfg, 0);
        let lr1 = effective_lr(&cfg, 1);
        let lr2 = effective_lr(&cfg, 2);
        assert!(lr0 < lr1 && lr1 < lr2, "{lr0} {lr1} {lr2}");
        assert!((lr2 - 0.8).abs() < 1e-6, "target LR should be 8×base");
        let unscaled = TrainConfig {
            lr_scaling: false,
            ..cfg
        };
        assert_eq!(effective_lr(&unscaled, 5), 0.1);
    }

    #[test]
    fn cnn_trains_distributed_on_synthetic_bigearth() {
        // End-to-end: ResNet-family CNN + 2 workers on multispectral data.
        let cfg_data = BigEarthConfig {
            bands: 3,
            size: 8,
            classes: 3,
            noise: 0.2,
        };
        let ds = bigearth::generate(120, &cfg_data, 21);
        let (train, test) = ds.split(0.25);
        let model_fn = |s: u64| {
            let mut rng = Rng::seed(s);
            nn::models::resnet_mini(3, 3, 8, 1, &mut rng)
        };
        let cfg = TrainConfig {
            workers: 2,
            epochs: 6,
            batch_per_worker: 15,
            base_lr: 0.01,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 11,
            checkpoint: None,
        };
        let report = Trainer::new(cfg.clone())
            .run(&train, model_fn, |lr| Box::new(Adam::new(lr)), SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed();
        let acc = evaluate_classifier(model_fn, cfg.seed, &report, &test);
        assert!(acc > 0.5, "CNN should beat chance (0.33): {acc}");
        assert!(
            report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss,
            "loss should fall"
        );
    }

    #[test]
    fn checkpoints_fire_on_schedule_with_real_sizes() {
        let ds = toy_dataset(256, 8, 4, 13);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 3,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 13,
            checkpoint: Some(CheckpointPolicy::every(4)),
        };
        let report = Trainer::new(cfg.clone())
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate")
            .completed();
        assert!(!report.checkpoints.is_empty());
        for (i, c) in report.checkpoints.iter().enumerate() {
            assert_eq!(c.global_step, 4 * (i as u64 + 1));
            assert!(c.bytes > 0 && c.write_cost.as_secs() > 0.0);
        }
        // Rank 0 pays the modeled write cost of every snapshot.
        assert!(report.breakdown.checkpoint_ps > 0);
        let snap = report.latest_snapshot.as_ref().unwrap();
        assert_eq!(snap.len() as u64, report.checkpoints.last().unwrap().bytes);
        // The snapshot is a valid v2 container a fresh model can load.
        let mut probe = mlp(cfg.seed, 8, 4);
        let (opt_state, meta) = serialize::load_training(&mut probe, snap).unwrap();
        assert!(!opt_state.is_empty(), "SGD momentum must be captured");
        let progress = TrainerProgress::decode(&meta).unwrap();
        assert_eq!(progress.workers, 2);
        assert_eq!(progress.steps_done, report.checkpoints.last().unwrap().global_step);
    }

    #[test]
    fn fault_before_first_checkpoint_interrupts_without_snapshot() {
        let ds = toy_dataset(128, 8, 4, 17);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 2,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 17,
            checkpoint: Some(CheckpointPolicy::every(100)),
        };
        let outcome = Trainer::new(cfg)
            .fault(FaultPlan { rank: 1, at_step: 2 })
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate");
        let (failure, snapshot) = outcome.interrupted();
        assert_eq!(failure, RankKilled { rank: 1, at_step: 2 });
        assert!(snapshot.is_none(), "no checkpoint could have been taken");
    }

    #[test]
    fn unarmed_faulted_run_completes() {
        let ds = toy_dataset(128, 8, 4, 19);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 2,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 19,
            checkpoint: None,
        };
        let outcome = Trainer::new(cfg)
            .fault_opt(None)
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate");
        assert!(matches!(outcome, TrainOutcome::Completed(_)));
    }

    #[test]
    fn breakdown_sums_to_virtual_wall_and_scales_with_steps() {
        let ds = toy_dataset(128, 8, 4, 29);
        let run = |epochs: usize| {
            let cfg = TrainConfig {
                workers: 2,
                epochs,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 29,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let one = run(1);
        let two = run(2);
        for r in [&one, &two] {
            assert_eq!(r.breakdown.total_ps(), r.sim_wall_ps);
            assert_eq!(
                r.epoch_breakdown.iter().map(|e| e.phases.total_ps()).sum::<u64>(),
                r.sim_wall_ps,
                "epoch rollups must partition the run"
            );
            assert!(r.breakdown.stage_ps > 0);
            assert!(r.breakdown.compute_ps > 0);
            assert!(r.breakdown.allreduce_ps > 0);
            assert_eq!(r.breakdown.checkpoint_ps, 0, "no checkpoint policy armed");
        }
        // Twice the epochs ⇒ exactly twice the per-epoch work here (the
        // shard/batch geometry is identical every epoch).
        assert_eq!(two.epoch_breakdown.len(), 2);
        assert!(two.sim_wall_ps > one.sim_wall_ps);
    }

    #[test]
    fn fused_overlapped_training_is_bit_identical_to_serialized() {
        let ds = toy_dataset(256, 8, 4, 41);
        let run = |fusion: FusionConfig| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 3,
                batch_per_worker: 8,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 41,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(fusion)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let base = run(FusionConfig::unfused());
        for fusion in [
            // Fused without overlap, fused + overlapped at several
            // thresholds (1 KiB splits the MLP into two buckets; tiny
            // thresholds give one bucket per layer), and overlap with a
            // single whole-gradient bucket.
            FusionConfig::fused(1024).overlap(false),
            FusionConfig::fused(1024),
            FusionConfig::fused(64),
            FusionConfig::unfused().overlap(true),
        ] {
            let got = run(fusion);
            let same_params = base
                .final_params
                .iter()
                .zip(&got.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "{fusion:?}: parameters diverged");
            assert_eq!(base.final_state, got.final_state, "{fusion:?}: BN state");
            for (a, b) in base.epochs.iter().zip(&got.epochs) {
                assert_eq!(
                    a.mean_loss.to_bits(),
                    b.mean_loss.to_bits(),
                    "{fusion:?}: epoch {} loss",
                    a.epoch
                );
            }
        }
    }

    #[test]
    fn overlap_pricing_hides_comm_under_the_backward_tail() {
        let ds = toy_dataset(256, 8, 4, 43);
        let run = |fusion: FusionConfig| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 2,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 43,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(fusion)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let unfused = run(FusionConfig::unfused());
        // 1 KiB splits the 392-param MLP into two layer-aligned buckets,
        // so the first (later-layer) bucket's allreduce starts before
        // backward ends. Compare the same bucketing with the overlap
        // lane off — identical ΣA, so any wall difference is pure
        // overlap.
        let serial = run(FusionConfig::fused(1024).overlap(false));
        let fused = run(FusionConfig::fused(1024));

        assert_eq!(unfused.breakdown.overlap_saved_ps, 0, "unfused saves nothing");
        assert_eq!(serial.breakdown.overlap_saved_ps, 0, "serialized saves nothing");
        assert!(fused.breakdown.overlap_saved_ps > 0, "overlap must hide some comm");
        // The identity the breakdown maintains exactly, overlap or not.
        for r in [&unfused, &serial, &fused] {
            assert_eq!(r.breakdown.total_ps(), r.sim_wall_ps);
        }
        // Same buckets, same ΣA: overlap strictly shortens the modeled
        // wall, by exactly the saved picoseconds.
        assert_eq!(serial.breakdown.allreduce_ps, fused.breakdown.allreduce_ps);
        assert!(fused.sim_wall_ps < serial.sim_wall_ps);
        assert_eq!(
            fused.sim_wall_ps + fused.breakdown.overlap_saved_ps,
            serial.sim_wall_ps
        );
    }

    #[test]
    fn recorder_collects_per_rank_phases_and_traffic() {
        let ds = toy_dataset(128, 8, 4, 31);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 2,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 31,
            checkpoint: Some(CheckpointPolicy::every(3)),
        };
        let reg = Arc::new(MetricsRegistry::new());
        let report = Trainer::new(cfg)
            .recorder(Arc::clone(&reg))
            .tag("t")
            .run(
                &ds,
                |s| mlp(s, 8, 4),
                |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                SoftmaxCrossEntropy,
            )
            .expect("no snapshot to validate")
            .completed();
        let snap = reg.snapshot();
        // Rank 0's recorded phase totals match the report's breakdown.
        assert_eq!(
            snap.get("trainer.phase.compute.time{rank=0,run=t}")
                .and_then(|v| v.as_time_ps()),
            Some(report.breakdown.compute_ps)
        );
        assert_eq!(
            snap.get("trainer.sim_wall{rank=0,run=t}").and_then(|v| v.as_time_ps()),
            Some(report.sim_wall_ps)
        );
        // Both ranks report steps and allreduce traffic.
        for rank in 0..2 {
            assert_eq!(
                snap.get(&format!("trainer.steps{{rank={rank},run=t}}"))
                    .and_then(|v| v.as_counter()),
                Some(report.steps_per_rank as u64)
            );
            assert!(
                snap.get(&format!("net.comm.bytes_sent{{op=pipeline,rank={rank},run=t}}"))
                    .and_then(|v| v.as_counter())
                    .unwrap_or(0)
                    > 0,
                "collective traffic must be attributed"
            );
        }
        // Epoch rollups partition the virtual wall.
        assert_eq!(snap.time_ps_with_prefix("trainer.epoch.time{"), report.sim_wall_ps);
        assert_eq!(
            snap.get("trainer.checkpoints{rank=0,run=t}").and_then(|v| v.as_counter()),
            Some(report.checkpoints.len() as u64)
        );
    }

    #[test]
    fn resume_rejects_mismatched_configs() {
        let ds = toy_dataset(256, 8, 4, 23);
        let cfg = TrainConfig {
            workers: 2,
            epochs: 3,
            batch_per_worker: 16,
            base_lr: 0.05,
            lr_scaling: true,
            warmup_epochs: 1,
            seed: 23,
            checkpoint: Some(CheckpointPolicy::every(3)),
        };
        let opt_fn = |lr: f32| -> Box<dyn Optimizer> { Box::new(Sgd::new(lr, 0.9, 0.0)) };
        let report = Trainer::new(cfg.clone())
            .run(&ds, |s| mlp(s, 8, 4), opt_fn, SoftmaxCrossEntropy)
            .expect("no snapshot to validate")
            .completed();
        let snap = report.latest_snapshot.unwrap();

        let wrong_workers = TrainConfig {
            workers: 4,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_workers).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch { what: "workers", .. })
        ));
        let wrong_seed = TrainConfig {
            seed: 99,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_seed).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch { what: "seed", .. })
        ));
        let wrong_lr = TrainConfig {
            base_lr: 0.07,
            ..cfg.clone()
        };
        assert!(matches!(
            Trainer::new(wrong_lr).resume(&snap).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::ConfigMismatch {
                what: "effective lr bits",
                ..
            })
        ));
        // A bare model snapshot (no trainer progress) is a typed error,
        // not a resume.
        let bare = serialize::save(&mlp(cfg.seed, 8, 4));
        assert!(matches!(
            Trainer::new(cfg).resume(&bare).run(
                &ds,
                |s| mlp(s, 8, 4),
                opt_fn,
                SoftmaxCrossEntropy
            ),
            Err(CheckpointError::BadProgress(_))
        ));
    }

    #[test]
    fn allgather_u64_is_exact_beyond_f32_integers() {
        let sent = |r: u64| vec![(1 << 24) + 1 + r, u64::MAX - r, r << 40];
        let got = ThreadComm::run(3, |comm| allgather_u64(comm, &sent(comm.rank() as u64)));
        for per_rank in got {
            let want: Vec<Vec<u64>> = (0..3).map(sent).collect();
            assert_eq!(per_rank, want);
        }
        // A plain `n as f32` transport would round these.
        assert_ne!(((1u64 << 24) + 1) as f32 as u64, (1 << 24) + 1);
    }

    #[test]
    fn replica_check_catches_a_one_ulp_desync_the_tolerance_check_passed() {
        let params: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut bumped = params.clone();
        bumped[17] = f32::from_bits(bumped[17].to_bits() + 1);
        let got = ThreadComm::run(3, |comm| {
            diverging_rank(comm, if comm.rank() == 2 { &bumped } else { &params })
        });
        assert_eq!(got, vec![Some(2); 3]);
        assert_eq!(ThreadComm::run(3, |comm| diverging_rank(comm, &params)), vec![None; 3]);
        // Comparing f32 parameter sums within 1e-3 relative passes it.
        let (a, b) = (params.iter().sum::<f32>(), bumped.iter().sum::<f32>());
        assert!((b - a).abs() <= 1e-3 * (1.0 + a.abs()));
    }

    #[test]
    fn stage_pipe_depth_zero_is_serial_and_stalls_never_exceed_cost() {
        // Depth 0: the stall is the full cost, always.
        let mut serial = StagePipe::new(0, 1000);
        for cost in [5u64, 17, 0, 400] {
            assert_eq!(serial.arrive(cost, 12345), cost);
            serial.popped(12345 + cost);
        }
        // Depth 1, uniform steps: batch 0 pays in full (nothing was
        // assembled before the epoch), every later batch is fully hidden
        // when compute dominates staging.
        let mut pipe = StagePipe::new(1, 0);
        let mut now = 0u64;
        let (stage, compute) = (10u64, 50u64);
        let first = pipe.arrive(stage, now);
        assert_eq!(first, stage);
        now += first;
        pipe.popped(now);
        for _ in 0..5 {
            now += compute;
            let stall = pipe.arrive(stage, now);
            assert_eq!(stall, 0, "staging hides entirely under compute");
            pipe.popped(now);
        }
        // Stage-bound the other way round: compute shorter than staging
        // still never stalls longer than the full cost.
        let mut bound = StagePipe::new(2, 0);
        let mut t = 0u64;
        for _ in 0..6 {
            let stall = bound.arrive(100, t);
            assert!(stall <= 100, "stall {stall} exceeds the staging cost");
            t += stall;
            bound.popped(t);
            t += 20; // short compute
        }
    }

    #[test]
    fn prefetch_training_is_bit_identical_and_prices_the_hidden_stage() {
        let ds = toy_dataset(256, 8, 4, 47);
        let run = |depth: usize| {
            let cfg = TrainConfig {
                workers: 2,
                epochs: 3,
                batch_per_worker: 16,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 47,
                checkpoint: Some(CheckpointPolicy::every(5)),
            };
            Trainer::new(cfg)
                .prefetch(depth)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        let base = run(0);
        assert_eq!(base.breakdown.stage_overlap_saved_ps, 0, "depth 0 is serial");
        for depth in [1usize, 2, 4] {
            let got = run(depth);
            let same_params = base
                .final_params
                .iter()
                .zip(&got.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "depth {depth}: parameters diverged");
            assert_eq!(base.final_state, got.final_state, "depth {depth}: BN state");
            for (a, b) in base.epochs.iter().zip(&got.epochs) {
                assert_eq!(
                    a.mean_loss.to_bits(),
                    b.mean_loss.to_bits(),
                    "depth {depth}: epoch {} loss",
                    a.epoch
                );
            }
            // The full staging cost is charged either way; only the
            // stalled share differs — and the partition invariant holds
            // exactly, so the wall shrinks by exactly the hidden share.
            assert_eq!(base.breakdown.stage_ps, got.breakdown.stage_ps);
            assert_eq!(base.breakdown.compute_ps, got.breakdown.compute_ps);
            assert_eq!(base.breakdown.allreduce_ps, got.breakdown.allreduce_ps);
            assert_eq!(base.breakdown.checkpoint_ps, got.breakdown.checkpoint_ps);
            assert!(
                got.breakdown.stage_overlap_saved_ps > 0,
                "depth {depth} must hide some staging"
            );
            assert_eq!(got.breakdown.total_ps(), got.sim_wall_ps);
            assert_eq!(
                got.sim_wall_ps + got.breakdown.stage_overlap_saved_ps,
                base.sim_wall_ps,
                "depth {depth}: wall must shrink by exactly the hidden share"
            );
            assert!(!got.checkpoints.is_empty(), "checkpoints still fire");
        }
    }

    #[test]
    fn prefetch_composes_with_fusion_and_codecs_bit_exactly() {
        let ds = toy_dataset(128, 8, 4, 53);
        let run = |depth: usize, codec: GradCodec| {
            let cfg = TrainConfig {
                workers: 4,
                epochs: 2,
                batch_per_worker: 8,
                base_lr: 0.05,
                lr_scaling: true,
                warmup_epochs: 1,
                seed: 53,
                checkpoint: None,
            };
            Trainer::new(cfg)
                .fusion(FusionConfig::fused(1024))
                .codec(codec)
                .prefetch(depth)
                .run(
                    &ds,
                    |s| mlp(s, 8, 4),
                    |lr| Box::new(Sgd::new(lr, 0.9, 0.0)),
                    SoftmaxCrossEntropy,
                )
                .expect("no snapshot to validate")
                .completed()
        };
        for codec in [
            GradCodec::Dense32,
            GradCodec::Bf16,
            GradCodec::SparseTopK { ratio: 0.05 },
        ] {
            let off = run(0, codec);
            let on = run(2, codec);
            let same_params = off
                .final_params
                .iter()
                .zip(&on.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_params, "{codec:?}: prefetch changed the parameters");
            // Both overlap terms coexist and the invariant stays exact.
            assert!(on.breakdown.overlap_saved_ps > 0, "{codec:?}: allreduce overlap");
            assert!(on.breakdown.stage_overlap_saved_ps > 0, "{codec:?}: stage overlap");
            assert_eq!(on.breakdown.total_ps(), on.sim_wall_ps);
        }
    }
}
