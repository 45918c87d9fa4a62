//! Spans recorded from outside the program: a [`Traced`] wrapper around
//! any `nn::Layer`, and [`TracedOptimizer`] / [`TracedLoss`] around the
//! public `nn::Optimizer` and `nn::Loss` traits.
//!
//! Every model built by a traced `model_fn` call gets its own [`Lane`]
//! (one per rank instance). Spans carry their self time — duration minus
//! the spans nested inside them — so a `Residual` block is charged only
//! for its own skip-add, not for the layers of its branch.

use nn::{Layer, Loss, Optimizer, Param};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tensor::Tensor;

/// Nanoseconds since the first call in this process — the common time
/// base of every span and of the exported trace.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Conv2d,
    BatchNorm,
    Relu,
    GlobalAvgPool2d,
    Dense,
    Gru,
    Dropout,
    Flatten,
    Residual,
    Loss,
    Optimizer,
    /// The benchmark's own subnormal-gradient scan (not program work).
    GradScan,
    /// A standalone probe call (allreduce, GEMM, batch assembly).
    Probe,
}

impl Kind {
    pub const LAYERS: [Kind; 9] = [
        Kind::Conv2d,
        Kind::BatchNorm,
        Kind::Relu,
        Kind::GlobalAvgPool2d,
        Kind::Dense,
        Kind::Gru,
        Kind::Dropout,
        Kind::Flatten,
        Kind::Residual,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Conv2d => "conv2d",
            Kind::BatchNorm => "batchnorm",
            Kind::Relu => "relu",
            Kind::GlobalAvgPool2d => "globalavgpool2d",
            Kind::Dense => "dense",
            Kind::Gru => "gru",
            Kind::Dropout => "dropout",
            Kind::Flatten => "flatten",
            Kind::Residual => "residual",
            Kind::Loss => "loss",
            Kind::Optimizer => "optimizer",
            Kind::GradScan => "grad_scan",
            Kind::Probe => "probe",
        }
    }
}

/// Forward or backward; loss, optimizer and probe spans use `Fwd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Fwd,
    Bwd,
}

/// Per-step boundaries the step accounting needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Top-level layer 0 starts its forward: the input gap ends.
    FwdStart,
    /// Top-level layer 0 finishes its backward: the exchange gap starts.
    BwdEnd,
    /// `Optimizer::step` is entered: the exchange gap ends.
    StepEnter,
    /// `Optimizer::step` returns: the step ends.
    StepExit,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub kind: Kind,
    pub phase: Phase,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub flops: f64,
}

#[derive(Debug, Default)]
pub struct LaneData {
    pub name: String,
    pub spans: Vec<Span>,
    pub marks: Vec<(Mark, u64)>,
    /// Subnormal and total gradient scalars seen by the optimizer wrapper.
    pub subnormal: u64,
    pub grads_seen: u64,
    /// Child time accumulated by each open span.
    open: Vec<u64>,
}

/// One timeline: a rank's model instance, or the standalone probes.
pub type Lane = Arc<Mutex<LaneData>>;

impl LaneData {
    fn enter(&mut self) -> u64 {
        self.open.push(0);
        now_ns()
    }

    fn exit(&mut self, kind: Kind, phase: Phase, label: &str, start_ns: u64, flops: f64) {
        let end_ns = now_ns();
        let dur = end_ns - start_ns;
        let child = self.open.pop().unwrap_or(0);
        if let Some(parent) = self.open.last_mut() {
            *parent += dur;
        }
        self.spans.push(Span {
            kind,
            phase,
            label: label.to_string(),
            start_ns,
            end_ns,
            self_ns: dur.saturating_sub(child),
            flops,
        });
    }

    pub fn mark(&mut self, mark: Mark) {
        self.marks.push((mark, now_ns()));
    }
}

fn lock(lane: &Lane) -> std::sync::MutexGuard<'_, LaneData> {
    lane.lock()
        .expect("a traced layer panicked while holding its lane")
}

/// Times `f` as one span on `lane`.
pub fn timed<R>(lane: &Lane, kind: Kind, label: &str, flops: f64, f: impl FnOnce() -> R) -> R {
    let start = lock(lane).enter();
    let out = f();
    lock(lane).exit(kind, Phase::Fwd, label, start, flops);
    out
}

/// Every lane created in this process, in creation order.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    lanes: Arc<Mutex<Vec<Lane>>>,
}

thread_local! {
    /// The lane of the model most recently built on this thread; the
    /// loss and optimizer wrappers record there (each rank thread builds
    /// its own replica before it builds its optimizer or calls the loss).
    static CURRENT: RefCell<Option<Lane>> = const { RefCell::new(None) };
}

impl Tracer {
    pub fn new_lane(&self, name: &str) -> Lane {
        let lane: Lane = Arc::new(Mutex::new(LaneData {
            name: name.to_string(),
            ..LaneData::default()
        }));
        self.lanes
            .lock()
            .expect("tracer lane list poisoned")
            .push(lane.clone());
        lane
    }

    /// A lane for a new model replica, made current on this thread.
    pub fn replica_lane(&self) -> Lane {
        let n = self.lanes.lock().expect("tracer lane list poisoned").len();
        let lane = self.new_lane(&format!("replica {n}"));
        CURRENT.with(|c| *c.borrow_mut() = Some(lane.clone()));
        lane
    }

    pub fn lanes(&self) -> Vec<Lane> {
        self.lanes
            .lock()
            .expect("tracer lane list poisoned")
            .clone()
    }
}

fn current_lane() -> Lane {
    CURRENT
        .with(|c| c.borrow().clone())
        .expect("a traced model is built on this thread before its loss or optimizer runs")
}

/// Arithmetic a layer does per forward, from its shape parameters and
/// the input shape; backward is counted as twice the forward.
#[derive(Debug, Clone, Copy)]
pub enum Flops {
    None,
    /// `Conv2d` with `f` filters over `c` channels, `k`×`k` kernel.
    Conv {
        f: usize,
        c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    },
    /// `Dense` from `inp` to `out` over every leading row.
    Dense {
        inp: usize,
        out: usize,
    },
    /// `Gru` with input width `inp` and hidden width `h`: three gates,
    /// each an input and a recurrent product, per time step.
    Gru {
        inp: usize,
        h: usize,
    },
}

impl Flops {
    pub fn forward(self, shape: &[usize]) -> f64 {
        match self {
            Flops::None => 0.0,
            Flops::Conv {
                f,
                c,
                k,
                stride,
                pad,
            } => {
                let (n, h, w) = (shape[0], shape[2], shape[3]);
                let oh = (h + 2 * pad - k) / stride + 1;
                let ow = (w + 2 * pad - k) / stride + 1;
                2.0 * (n * f * c * k * k * oh * ow) as f64
            }
            Flops::Dense { inp, out } => {
                let rows: usize = shape.iter().product::<usize>() / inp;
                2.0 * (rows * inp * out) as f64
            }
            Flops::Gru { inp, h } => {
                let (n, t) = (shape[0], shape[1]);
                3.0 * 2.0 * (n * t * (inp * h + h * h)) as f64
            }
        }
    }
}

/// A layer timed from outside. `first` marks top-level layer 0, whose
/// forward start and backward end bound the step's compute.
pub struct Traced<L: Layer> {
    inner: L,
    kind: Kind,
    flops: Flops,
    fwd_flops: f64,
    lane: Lane,
    first: bool,
}

impl<L: Layer> Traced<L> {
    pub fn new(inner: L, kind: Kind, flops: Flops, lane: &Lane) -> Self {
        Traced {
            inner,
            kind,
            flops,
            fwd_flops: 0.0,
            lane: lane.clone(),
            first: false,
        }
    }

    pub fn first(mut self) -> Self {
        self.first = true;
        self
    }
}

impl<L: Layer> Layer for Traced<L> {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let start = {
            let mut lane = lock(&self.lane);
            if self.first && train {
                lane.mark(Mark::FwdStart);
            }
            lane.enter()
        };
        let out = self.inner.forward(input, train);
        self.fwd_flops = self.flops.forward(input.shape());
        lock(&self.lane).exit(
            self.kind,
            Phase::Fwd,
            self.kind.name(),
            start,
            self.fwd_flops,
        );
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let start = lock(&self.lane).enter();
        let out = self.inner.backward(grad_out);
        let mut lane = lock(&self.lane);
        lane.exit(
            self.kind,
            Phase::Bwd,
            self.kind.name(),
            start,
            2.0 * self.fwd_flops,
        );
        if self.first {
            lane.mark(Mark::BwdEnd);
        }
        out
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn state_len(&self) -> usize {
        self.inner.state_len()
    }

    fn state(&self) -> Vec<f32> {
        self.inner.state()
    }

    fn set_state(&mut self, state: &[f32]) {
        self.inner.set_state(state);
    }
}

/// Times `Optimizer::step` and counts subnormal gradients. The count is
/// a separate `GradScan` span before the update, so it is neither
/// optimizer time nor exchange wait.
pub struct TracedOptimizer {
    inner: Box<dyn Optimizer>,
    lane: Lane,
}

impl TracedOptimizer {
    /// Wraps `inner` on the lane of the replica built last on this thread.
    pub fn new(inner: Box<dyn Optimizer>) -> Self {
        TracedOptimizer {
            inner,
            lane: current_lane(),
        }
    }
}

impl Optimizer for TracedOptimizer {
    fn step(&mut self, params: &mut [&mut Param]) {
        lock(&self.lane).mark(Mark::StepEnter);
        let (sub, total) = timed(&self.lane, Kind::GradScan, "grad_scan", 0.0, || {
            let mut sub = 0u64;
            let mut total = 0u64;
            for p in params.iter() {
                sub += p.grad.data().iter().filter(|g| g.is_subnormal()).count() as u64;
                total += p.grad.numel() as u64;
            }
            (sub, total)
        });
        timed(&self.lane, Kind::Optimizer, "optimizer", 0.0, || {
            self.inner.step(params)
        });
        let mut lane = lock(&self.lane);
        lane.subnormal += sub;
        lane.grads_seen += total;
        lane.mark(Mark::StepExit);
    }

    fn lr(&self) -> f32 {
        self.inner.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    fn state(&self) -> Vec<f32> {
        self.inner.state()
    }

    fn load_state(&mut self, state: &[f32]) {
        self.inner.load_state(state);
    }
}

/// Times `Loss::compute` on the calling rank's lane.
pub struct TracedLoss<L: Loss>(pub L);

impl<L: Loss> Loss for TracedLoss<L> {
    fn compute(&self, pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        timed(&current_lane(), Kind::Loss, "loss", 0.0, || {
            self.0.compute(pred, target)
        })
    }
}

/// Writes every lane's spans as Chrome trace-event JSON (opens in
/// Perfetto or `chrome://tracing`): one thread lane per [`Lane`].
pub fn chrome_trace(lanes: &[Lane]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&ev);
    };
    for (tid, lane) in lanes.iter().enumerate() {
        let lane = lock(lane);
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                lane.name
            ),
        );
        for s in &lane.spans {
            let phase = match s.phase {
                Phase::Fwd => "fwd",
                Phase::Bwd => "bwd",
            };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}.{phase}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}}}}}",
                    s.label,
                    s.kind.name(),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.self_ns as f64 / 1e3
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
