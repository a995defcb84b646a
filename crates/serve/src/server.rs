//! The serving runtime: bounded admission queue → shared pull-mode
//! batcher → per-device workers over one shared [`CompileSession`].
//!
//! Unlike the original push pipeline (a batching thread flushing on a
//! timer into per-worker channels), the batcher here is a single
//! [`Batcher`] state machine behind a mutex: submission pushes into it,
//! and each device worker *pulls* its next batch the moment the device
//! frees up. A backlogged device therefore grows its batches toward
//! `max_batch`; the old `max_delay` survives only as the idle-latency
//! bound that flushes a lone request on an otherwise idle device.

use crate::batcher::{Batch, BatchItem, BatchKey, Batcher};
use crate::request::{
    InferenceRequest, InferenceResponse, ModelSpec, Priority, SubmitError, Ticket, REPLICA_KILLED,
};
use crate::retry::{AdmissionControl, RetryDecision, RetryPolicy};
use crate::scheduler::{quick_estimate_ns, DevicePool};
use smartmem_core::{
    CacheStats, CompileSession, Framework, ModelReport, SmartMemPipeline, Unsupported,
};
use smartmem_ir::{Graph, Layout, Op, TensorId};
use smartmem_sim::{DeviceConfig, FaultKind, FaultPlan};
use smartmem_telemetry::{now_ns, Counter, Histogram, Telemetry, TraceId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Telemetry category of injected-fault instant events
/// (`fault.<kind>`, see [`FaultKind::name`]).
pub const FAULT_CATEGORY: &str = "fault";
/// Telemetry category of recovery-action instant events (`retry`,
/// `retry_exhausted`, `shed`, `replica_killed`, `device_dead`).
pub const RECOVERY_CATEGORY: &str = "recovery";

/// Marginal device-time cost of each request after the first in a
/// batch: batched execution amortizes kernel launches and re-uses the
/// warmed caches, so a batch of `n` costs
/// `latency × (1 + MARGINAL × (n − 1))` rather than `latency × n`.
const BATCH_MARGINAL: f64 = 0.85;

/// Simulated device time of a batch of `n` identical inferences, given
/// the single-inference latency.
pub fn batch_exec_ms(single_ms: f64, n: usize) -> f64 {
    single_ms * (1.0 + BATCH_MARGINAL * n.saturating_sub(1) as f64)
}

/// Places a request whose estimate row is scaled by `scale` (the decode
/// step count) without mutating the shared row. `scale == 1.0` is the
/// common single-shot path and skips the allocation.
fn place_scaled(
    pool: &DevicePool,
    estimates_ns: &[f64],
    scale: f64,
    class: Priority,
) -> (usize, u64) {
    if scale <= 1.0 {
        return pool.place(estimates_ns, class);
    }
    let scaled: Vec<f64> = estimates_ns.iter().map(|e| e * scale).collect();
    pool.place(&scaled, class)
}

/// The KV-cache tensor of a decode graph: the `K` operand of the first
/// `QKᵀ` attention matmul (`MatMul { trans_b: true }`) whose operand
/// carries a symbolic sequence axis. `None` when the graph is static
/// or has no such matmul.
fn kv_tensor(graph: &Graph) -> Option<TensorId> {
    let sym: Vec<TensorId> = graph.sym_axes().iter().map(|a| a.tensor).collect();
    graph.nodes().iter().find_map(|node| match node.op {
        Op::MatMul { trans_b: true, .. } => {
            let k = *node.inputs.get(1)?;
            sym.contains(&k).then_some(k)
        }
        _ => None,
    })
}

/// Per-class latency budgets: a request admitted at `t` under class `c`
/// carries the absolute deadline `t + budget(c)`, which feeds the
/// batcher's slack ordering and the per-class SLO-violation counters.
///
/// ```
/// use smartmem_serve::{ClassDeadlines, Priority, ServeConfig};
/// use std::time::Duration;
///
/// let mut config = ServeConfig::default();
/// config.deadlines.interactive = Duration::from_millis(10);
/// assert_eq!(config.deadlines.budget(Priority::Interactive), Duration::from_millis(10));
/// // Defaults keep the classes strictly ordered, tight to loose.
/// let d = ClassDeadlines::default();
/// assert!(d.budget(Priority::Interactive) < d.budget(Priority::Batch));
/// assert!(d.budget(Priority::Batch) < d.budget(Priority::BestEffort));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ClassDeadlines {
    /// Budget of [`Priority::Interactive`] requests.
    pub interactive: Duration,
    /// Budget of [`Priority::Batch`] requests.
    pub batch: Duration,
    /// Budget of [`Priority::BestEffort`] requests.
    pub best_effort: Duration,
}

impl ClassDeadlines {
    /// The latency budget of `class`.
    pub fn budget(&self, class: Priority) -> Duration {
        match class {
            Priority::Interactive => self.interactive,
            Priority::Batch => self.batch,
            Priority::BestEffort => self.best_effort,
        }
    }
}

impl Default for ClassDeadlines {
    fn default() -> Self {
        ClassDeadlines {
            interactive: Duration::from_millis(25),
            batch: Duration::from_millis(250),
            best_effort: Duration::from_secs(2),
        }
    }
}

/// Telemetry knobs of the serving runtime.
///
/// Disabled by default: the tracer's record path then costs one
/// relaxed atomic load, so production-shaped benchmarks can leave the
/// plumbing in place. Metrics (queue-wait histograms, fallback
/// counters) are always collected — they are single atomic ops and
/// some must count even when nobody is watching.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Whether the span recorder is on.
    pub enabled: bool,
    /// Record the full span set of one request in every `sample_every`
    /// submitted (1 = trace every request).
    pub sample_every: u64,
    /// Capacity of each recording thread's span ring buffer; overflow
    /// drops the oldest spans, counted in the exported trace.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: false, sample_every: 1, span_capacity: 8192 }
    }
}

impl TelemetryConfig {
    /// Tracing on, every request sampled — the right mode for capturing
    /// a Chrome trace.
    pub fn tracing() -> Self {
        TelemetryConfig { enabled: true, ..TelemetryConfig::default() }
    }
}

/// Tunables of the serving runtime.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Capacity of the bounded submission queue (admission control:
    /// `try_submit` sheds load beyond it, `submit` applies
    /// backpressure).
    pub queue_capacity: usize,
    /// Batch-size cap of a single cut.
    pub max_batch: usize,
    /// Idle-latency bound of the pull-mode batcher: how long a request
    /// may queue before its key becomes due even when the device is
    /// idle. It never truncates a batch that backlog has grown.
    pub max_delay: Duration,
    /// Wall-clock throttle: workers sleep `exec_ms × scale` per batch,
    /// making queueing dynamics (and therefore batching) realistic.
    /// `0.0` disables sleeping — batches drain as fast as the host can
    /// estimate them (the right mode for tests).
    pub exec_time_scale: f64,
    /// Persistent artifact-cache directory for the compilation session.
    /// When set, cold compiles are written through to disk and a
    /// restarted server warm-starts from the artifacts — 100 % cache
    /// hit rate from the very first request (see
    /// [`CompileSession::with_cache_dir`]). `None` keeps the session
    /// purely in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Per-class latency budgets (see [`ClassDeadlines`]).
    pub deadlines: ClassDeadlines,
    /// Starvation-aging factor of the batch-cut ordering: every
    /// nanosecond a request has queued subtracts this many nanoseconds
    /// from its effective slack, so long-waiting low-priority work
    /// eventually outranks fresh interactive traffic. Zero disables
    /// aging.
    pub aging_factor: f64,
    /// Tracing/metrics knobs (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
    /// Deterministic fault injection (chaos testing). `None` — the
    /// default — and an inert plan are byte-identical to a server built
    /// before fault injection existed: no probe ever fires and no
    /// extra work runs on the request path.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Retry budget/backoff for transiently failed requests (injected
    /// or real execute errors, device death while queued or claimed).
    pub retry: RetryPolicy,
    /// Slack-based admission shedding (disabled by default; see
    /// [`AdmissionControl`]).
    pub admission: AdmissionControl,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            exec_time_scale: 0.0,
            cache_dir: None,
            deadlines: ClassDeadlines::default(),
            aging_factor: 4.0,
            telemetry: TelemetryConfig::default(),
            fault_plan: None,
            retry: RetryPolicy::default(),
            admission: AdmissionControl::disabled(),
        }
    }
}

/// Per-priority-class serving counters (one entry per [`Priority`],
/// indexed by [`Priority::index`] in [`ServeStats::per_class`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Requests of this class accepted into the queue.
    pub submitted: u64,
    /// Requests of this class executed successfully (`error == None`).
    pub completed: u64,
    /// Requests of this class answered with a terminal error.
    pub failed: u64,
    /// Requests of this class cancelled before execution.
    pub cancelled: u64,
    /// Answered requests of this class past their deadline (wall clock
    /// at response time past `submission + class budget`).
    pub slo_violations: u64,
}

/// Aggregate serving statistics (snapshot or final, from
/// [`Server::stats`] / [`Server::shutdown`]).
///
/// # Request accounting taxonomy
///
/// Every *accepted* request resolves into exactly one of three
/// disjoint terminal counters, so in every final snapshot
/// `submitted == completed + failed + cancelled` — no ticket is ever
/// lost or double-counted, even under fault injection. `rejected` and
/// `shed` count requests that were never accepted (their tickets were
/// never created) and live outside that sum.
///
/// | counter     | exact trigger                                      |
/// |-------------|----------------------------------------------------|
/// | `submitted` | request accepted into the bounded queue            |
/// | `completed` | answered with `error == None` (success only)       |
/// | `failed`    | answered with `error == Some(..)`: compile error or panic, replica killed mid-flight, or retry budget exhausted |
/// | `cancelled` | cancel won the CAS before any worker claimed it    |
/// | `rejected`  | `try_submit` refused: bounded queue full           |
/// | `shed`      | admission control refused: pool slack negative     |
///
/// `recovered`, `retried`, `retry_exhausted`, and `killed` are
/// *attributions*, not extra terminals: `retried` counts re-enqueue
/// events (a request can retry several times), `recovered` counts
/// requests that landed in `completed` after ≥ 1 failed attempt,
/// `retry_exhausted` and `killed` count the sub-causes of `failed`.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests executed and answered successfully (`error == None`).
    /// Disjoint from `failed` and `cancelled`.
    pub completed: u64,
    /// Requests rejected by admission control (`try_submit` on a full
    /// queue).
    pub rejected: u64,
    /// Requests answered with a terminal error (`error == Some(..)`):
    /// a compilation error/panic, [`REPLICA_KILLED`], or a transient
    /// failure that exhausted the retry budget. Disjoint from
    /// `completed`.
    pub failed: u64,
    /// Requests cancelled before execution (answered with
    /// `cancelled == true`, never run on a device).
    pub cancelled: u64,
    /// Requests shed at submission by [`AdmissionControl`] (answered
    /// with `SubmitError::Shed`; no ticket was created). Always 0 with
    /// admission control disabled (the default).
    pub shed: u64,
    /// Retry events: how many times a transiently failed request was
    /// re-placed and re-enqueued. One request can contribute up to
    /// `RetryPolicy::budget` here.
    pub retried: u64,
    /// Requests that completed successfully after at least one failed
    /// attempt (a subset of `completed`).
    pub recovered: u64,
    /// Requests that became terminal `failed` because their retry
    /// budget ran out (a subset of `failed`).
    pub retry_exhausted: u64,
    /// Requests answered [`REPLICA_KILLED`] because [`Server::kill`]
    /// tore the replica down around them (a subset of `failed`).
    pub killed: u64,
    /// Injected faults that actually fired on this server, indexed by
    /// [`FaultKind::index`]. All zero when `ServeConfig::fault_plan`
    /// is `None` or inert.
    pub faults: [u64; FaultKind::ALL.len()],
    /// Devices currently marked dead (by injected death or
    /// [`Server::retire_device`]), ascending pool ids.
    pub dead_devices: Vec<usize>,
    /// Batches executed.
    pub batches: u64,
    /// Decode iterations executed at device granularity: per batch
    /// containing at least one decode request, the largest
    /// `decode_steps` among its members (whole-request batching holds
    /// the device — and every batch-mate — for that many iterations;
    /// continuous batching contributes 1 per step batch).
    pub decode_steps: u64,
    /// Tokens generated by successfully completed decode requests (one
    /// token per request per decode step). Divide by wall time for the
    /// serving-level tokens-per-second figure.
    pub decode_tokens: u64,
    /// KV-cache layouts chosen so far — one per (model, device) pair
    /// that asked ([`Server::kv_cache_layout`]); per-bucket decode
    /// models register separately, so this counts (model, device,
    /// bucket) selections.
    pub kv_layouts: usize,
    /// `histogram[n-1]` = number of batches of size `n`, over all
    /// devices.
    pub batch_histogram: Vec<u64>,
    /// Per-device batch-size histograms, by pool id:
    /// `per_device_batch_histogram[d][n-1]` = batches of size `n` on
    /// device `d` — this is where pull-based growth on a backlogged
    /// device is visible while idle devices keep cutting small.
    pub per_device_batch_histogram: Vec<Vec<u64>>,
    /// Batches executed per device, by pool id.
    pub per_device_batches: Vec<u64>,
    /// Per-priority-class counters, indexed by [`Priority::index`].
    pub per_class: [ClassStats; 3],
    /// Compilation-session counters (per-request granularity: steady
    /// state is all hits).
    pub cache: CacheStats,
    /// Distinct compiled artifacts in the session cache.
    pub compiled: usize,
    /// Times the configured persistent cache directory was unusable and
    /// the server fell back to a purely in-memory session (0 or 1 per
    /// server; also recorded as a telemetry warning event).
    pub cache_dir_fallbacks: u64,
}

impl ServeStats {
    /// Session cache hit rate in `[0, 1]` (0 when nothing compiled).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Counters of one priority class.
    pub fn class(&self, class: Priority) -> ClassStats {
        self.per_class[class.index()]
    }

    /// Mean executed batch size over all devices.
    pub fn mean_batch_size(&self) -> f64 {
        histogram_mean(&self.batch_histogram)
    }

    /// Mean executed batch size on one device.
    pub fn mean_batch_size_on(&self, device: usize) -> f64 {
        histogram_mean(&self.per_device_batch_histogram[device])
    }
}

/// Mean batch size of a `histogram[n-1] = batches of size n` histogram
/// (0 when empty) — the layout of [`ServeStats::batch_histogram`], and
/// of any difference of two such snapshots.
pub fn histogram_mean(hist: &[u64]) -> f64 {
    let batches: u64 = hist.iter().sum();
    if batches == 0 {
        0.0
    } else {
        let total: u64 = hist.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
        total as f64 / batches as f64
    }
}

// Cancel adjudication states (see `CancelCell`).
const QUEUED: u8 = 0;
const CLAIMED: u8 = 1;
const CANCELLED: u8 = 2;

/// The cancel-vs-cut arbiter of one request: exactly one of
/// `cancel()` (QUEUED → CANCELLED) and the batcher's claim at cut time
/// (QUEUED → CLAIMED) wins the compare-and-swap.
pub(crate) struct CancelCell {
    state: AtomicU8,
}

/// Clonable handle that revokes a queued request (from
/// [`Ticket::cancel_handle`]).
///
/// [`CancelHandle::cancel`] adjudicates the race against batch cutting
/// with a compare-and-swap: when it returns `true`, the request is
/// guaranteed never to execute — it is removed from the queue (or, if a
/// worker pops it first, dropped at batch-cut time), its scheduler
/// charge is refunded, its ticket resolves with
/// [`InferenceResponse::cancelled`] set, and it counts in
/// [`ServeStats::cancelled`]. When it returns `false`, the request was
/// already claimed for a batch (or already answered) and will run.
///
/// ```
/// use smartmem_serve::{InferenceRequest, ModelSpec, ServeConfig, Server};
/// use smartmem_sim::DeviceConfig;
/// use smartmem_ir::{DType, GraphBuilder};
/// use std::time::Duration;
///
/// let mut b = GraphBuilder::new("toy");
/// let x = b.input("x", &[1, 16, 32], DType::F16);
/// let w = b.weight("w", &[32, 32], DType::F16);
/// let mm = b.matmul(x, w);
/// b.output(mm);
/// // A long idle delay keeps the lone request queued until we cancel.
/// let config = ServeConfig { max_delay: Duration::from_secs(5), ..ServeConfig::default() };
/// let server = Server::start(
///     vec![ModelSpec::new("toy", b.finish())],
///     vec![DeviceConfig::apple_m1()],
///     config,
/// );
/// let ticket = server.submit(InferenceRequest::new(0)).unwrap();
/// let handle = ticket.cancel_handle();
/// assert!(handle.cancel(), "still queued: cancellation wins");
/// assert!(!handle.cancel(), "second cancel is a no-op");
/// let response = ticket.wait();
/// assert!(response.cancelled);
/// let stats = server.shutdown();
/// assert_eq!((stats.cancelled, stats.completed), (1, 0));
/// ```
#[derive(Clone)]
pub struct CancelHandle {
    cell: Arc<CancelCell>,
    id: u64,
    key: BatchKey,
    inner: Weak<Inner>,
}

impl CancelHandle {
    /// Attempts to cancel the request; returns `true` iff cancellation
    /// won (the request will never execute). Safe to call from any
    /// thread, any number of times.
    pub fn cancel(&self) -> bool {
        if self
            .cell
            .state
            .compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // The CAS settled it: no worker will ever claim this request.
        // Eagerly unqueue and answer it; if a cutter popped it in the
        // meantime, the failed claim routes it through the cutter's
        // cancelled path instead (exactly one of us finds it queued).
        if let Some(inner) = self.inner.upgrade() {
            let removed = {
                let mut st = inner.state.lock().expect("batch state poisoned");
                st.batcher.remove_where(self.key, |p: &Pending| p.id == self.id)
            };
            if let Some(p) = removed {
                inner.space_cv.notify_all();
                respond_cancelled(&inner, p);
            }
        }
        true
    }

    /// Whether a `cancel` call already won for this request.
    pub fn is_cancelled(&self) -> bool {
        self.cell.state.load(Ordering::Acquire) == CANCELLED
    }
}

/// One queued request riding through batcher and worker.
struct Pending {
    id: u64,
    model: usize,
    device: usize,
    class: Priority,
    deadline: Instant,
    est_ns: u64,
    submitted: Instant,
    /// Span-recorder identity: [`TraceId::NONE`] unless this request
    /// was sampled at admission.
    trace: TraceId,
    /// Admission timestamp on the telemetry clock (0 when unsampled).
    submit_ns: u64,
    /// Failed execution attempts so far (0 = never tried). Incremented
    /// on every transient failure; bounded by `RetryPolicy::budget`.
    attempts: u32,
    /// Stable fault-injection identity: `InferenceRequest::tag` or the
    /// server-assigned id. Survives retries and re-placements, so a
    /// `FaultPlan` curse follows the request wherever it goes.
    tag: u64,
    /// Decode iterations ([`InferenceRequest::decode_steps`]; `0` = an
    /// ordinary inference). `est_ns` already includes the `×steps`
    /// charge; the batch executor multiplies device time by the largest
    /// step count in the batch.
    steps: u32,
    cell: Arc<CancelCell>,
    tx: Sender<InferenceResponse>,
}

impl BatchItem for Pending {
    fn deadline(&self) -> Instant {
        self.deadline
    }

    fn est_ns(&self) -> f64 {
        self.est_ns as f64
    }

    fn claim(&self) -> bool {
        self.cell
            .state
            .compare_exchange(QUEUED, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

#[derive(Default)]
struct ClassCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    slo_violations: AtomicU64,
}

impl ClassCounters {
    fn snapshot(&self) -> ClassStats {
        ClassStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            slo_violations: self.slo_violations.load(Ordering::Relaxed),
        }
    }
}

struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    retried: AtomicU64,
    recovered: AtomicU64,
    retry_exhausted: AtomicU64,
    killed: AtomicU64,
    /// Injected faults that fired, by [`FaultKind::index`]. The
    /// cache-I/O slot is filled from the session at snapshot time.
    faults: [AtomicU64; FaultKind::ALL.len()],
    batches: AtomicU64,
    /// Device-level decode iterations executed (per batch, the largest
    /// step count among its members — the time the device actually
    /// spent iterating).
    decode_steps: AtomicU64,
    /// Tokens generated by successful decode requests (one per request
    /// per step).
    decode_tokens: AtomicU64,
    /// `[device][size-1]` — per-device batch-size histograms.
    per_device_hist: Vec<Vec<AtomicU64>>,
    per_device_batches: Vec<AtomicU64>,
    per_class: [ClassCounters; 3],
    completion_seq: AtomicU64,
}

/// The server's observability handles: the [`Telemetry`] pair plus
/// hot-path metrics resolved once at startup (updating a resolved
/// metric is a single atomic op; only startup takes the registry lock).
struct ServeTelemetry {
    telemetry: Telemetry,
    /// Per-class queue-wait (submit → batch cut) histograms, indexed by
    /// [`Priority::index`].
    queue_wait: [Arc<Histogram>; 3],
    /// Unusable-cache-dir fallbacks (see
    /// [`ServeStats::cache_dir_fallbacks`]).
    cache_dir_fallbacks: Arc<Counter>,
}

impl ServeTelemetry {
    fn new(config: &TelemetryConfig) -> Self {
        let telemetry = if config.enabled {
            Telemetry::enabled(config.span_capacity, config.sample_every)
        } else {
            Telemetry::disabled()
        };
        let registry = &telemetry.registry;
        ServeTelemetry {
            queue_wait: Priority::ALL
                .map(|c| registry.histogram(&format!("serve.queue_wait_ns.{}", c.name()))),
            cache_dir_fallbacks: registry.counter("serve.cache_dir_fallbacks"),
            telemetry,
        }
    }
}

/// The batcher plus the shutdown flag, guarded by `Inner::state`.
struct BatchState {
    batcher: Batcher<Pending>,
    shutdown: bool,
    /// Set by [`Server::kill`]: the replica went down hard. Implies
    /// `shutdown`; queued requests were answered [`REPLICA_KILLED`]
    /// instead of drained.
    killed: bool,
}

/// State shared by the public handle, the device workers, and every
/// outstanding [`CancelHandle`].
struct Inner {
    models: Vec<ModelSpec>,
    pool: DevicePool,
    session: CompileSession,
    framework: Box<dyn Framework>,
    /// Roofline placement estimates, `estimates[model][device]` in ns.
    estimates: Vec<Vec<f64>>,
    config: ServeConfig,
    metrics: Metrics,
    telemetry: ServeTelemetry,
    /// KV-cache layouts, chosen once per (model, device) through the
    /// capability-aware layout-select machinery and memoized (each
    /// shape bucket of a decode model is its own registered model, so
    /// the memo is per (model, device, bucket)).
    kv_layouts: Mutex<HashMap<(usize, usize), Layout>>,
    state: Mutex<BatchState>,
    /// Wakes one device's worker (indexed by device id): new work
    /// pushed for it, or shutdown. Per-device condvars keep a
    /// submission from waking workers that cannot act on it.
    work_cvs: Vec<Condvar>,
    /// Wakes blocked submitters: queue capacity freed, or shutdown.
    space_cv: Condvar,
}

/// The serving runtime handle.
///
/// `start` spins up one worker thread per device; `submit`/`try_submit`
/// enqueue requests and return [`Ticket`]s (cancellable via
/// [`Ticket::cancel_handle`]); `shutdown` drains everything and returns
/// the final statistics. The handle is `Sync`: submit from as many
/// threads as you like.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Server {
    /// Starts a server over the default SmartMem pipeline.
    pub fn start(models: Vec<ModelSpec>, devices: Vec<DeviceConfig>, config: ServeConfig) -> Self {
        Self::start_with_framework(models, devices, config, Box::new(SmartMemPipeline::new()))
    }

    /// Starts a server compiling through an explicit framework
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics when `models` or `devices` is empty.
    pub fn start_with_framework(
        models: Vec<ModelSpec>,
        devices: Vec<DeviceConfig>,
        config: ServeConfig,
        framework: Box<dyn Framework>,
    ) -> Self {
        assert!(!models.is_empty(), "register at least one model");
        assert!(!devices.is_empty(), "provide at least one device");
        let pool = DevicePool::new(devices);
        let estimates = models
            .iter()
            .map(|m| (0..pool.len()).map(|d| quick_estimate_ns(m, pool.device(d))).collect())
            .collect();
        let metrics = Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            retry_exhausted: AtomicU64::new(0),
            killed: AtomicU64::new(0),
            faults: Default::default(),
            batches: AtomicU64::new(0),
            decode_steps: AtomicU64::new(0),
            decode_tokens: AtomicU64::new(0),
            per_device_hist: (0..pool.len())
                .map(|_| (0..config.max_batch).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            per_device_batches: (0..pool.len()).map(|_| AtomicU64::new(0)).collect(),
            per_class: Default::default(),
            completion_seq: AtomicU64::new(0),
        };
        let telemetry = ServeTelemetry::new(&config.telemetry);
        // A broken cache directory must not take the server down with
        // it — fall back to a purely in-memory session and keep
        // serving (every compile just goes cold). The fallback is
        // observable: a counter in [`ServeStats`] plus a warning event
        // in the trace, carrying the I/O error as its message.
        let session = match &config.cache_dir {
            Some(dir) => CompileSession::with_cache_dir(dir).unwrap_or_else(|e| {
                telemetry.cache_dir_fallbacks.incr();
                telemetry.telemetry.tracer.record_instant(
                    format!("cache_dir_fallback: {} unusable ({e})", dir.display()),
                    "warn",
                    TraceId::NONE,
                    0,
                    vec![],
                );
                CompileSession::new()
            }),
            None => CompileSession::new(),
        };
        // Wire the fault plan into the persistent cache so cache-dir
        // I/O faults fire inside the real read/write seams.
        if let Some(plan) = &config.fault_plan {
            if !plan.is_inert() {
                session.inject_disk_faults(Arc::clone(plan));
            }
        }
        let batcher =
            Batcher::new(config.max_batch, config.max_delay).with_aging_factor(config.aging_factor);
        let pool_len = pool.len();
        let inner = Arc::new(Inner {
            models,
            pool,
            session,
            framework,
            estimates,
            config,
            metrics,
            telemetry,
            kv_layouts: Mutex::new(HashMap::new()),
            state: Mutex::new(BatchState { batcher, shutdown: false, killed: false }),
            work_cvs: (0..pool_len).map(|_| Condvar::new()).collect(),
            space_cv: Condvar::new(),
        });
        let workers = (0..inner.pool.len())
            .map(|device| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, device))
            })
            .collect();
        Server { inner, workers, next_id: AtomicU64::new(0) }
    }

    /// Model id registered under `name`, if any.
    pub fn model_id(&self, name: &str) -> Option<usize> {
        self.inner.models.iter().position(|m| m.name == name)
    }

    /// Registered models.
    pub fn models(&self) -> &[ModelSpec] {
        &self.inner.models
    }

    /// Device pool.
    pub fn pool(&self) -> &DevicePool {
        &self.inner.pool
    }

    /// The server's telemetry handle (span tracer + metrics registry).
    /// The clone shares the underlying buffers, so it stays valid — and
    /// drainable — after [`Server::shutdown`]: grab it up front, shut
    /// down, then export the trace.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.telemetry.clone()
    }

    /// Submits with backpressure: blocks while the bounded queue is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] for unknown model/device ids or a
    /// shutting-down server.
    pub fn submit(&self, req: InferenceRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(req, true)
    }

    /// Submits without blocking, shedding load when the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when admission control
    /// rejects the request, or the same errors as [`Server::submit`].
    pub fn try_submit(&self, req: InferenceRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(req, false)
    }

    fn submit_inner(&self, req: InferenceRequest, block: bool) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        let (mut pending, ticket) = self.admit(req)?;
        let class = pending.class;
        let mut device;
        {
            let mut st = inner.state.lock().expect("batch state poisoned");
            loop {
                if st.shutdown {
                    inner.pool.discharge(pending.device, pending.est_ns, class);
                    return Err(SubmitError::ShuttingDown);
                }
                if st.batcher.pending() >= inner.config.queue_capacity {
                    if !block {
                        inner.pool.discharge(pending.device, pending.est_ns, class);
                        inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(SubmitError::QueueFull);
                    }
                    st = inner.space_cv.wait(st).expect("batch state poisoned");
                    continue;
                }
                device = pending.device;
                let key = BatchKey { model: pending.model, device };
                match st.batcher.push(key, pending, Instant::now()) {
                    Ok(()) => break,
                    // The placed device died between admit and push:
                    // refund the charge and re-place among the living
                    // (the pool always keeps at least one device
                    // alive).
                    Err(p) => {
                        inner.pool.discharge(p.device, p.est_ns, class);
                        pending = p;
                        let scale = f64::from(pending.steps.max(1));
                        let (d, est) = place_scaled(
                            &inner.pool,
                            &inner.estimates[pending.model],
                            scale,
                            class,
                        );
                        pending.device = d;
                        pending.est_ns = est;
                    }
                }
            }
            // Counted before the lock drops: a size-due request can be
            // cut and completed the instant the lock is released, and
            // `submitted >= completed + failed + cancelled` must hold
            // in every stats() snapshot.
            inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            inner.metrics.per_class[class.index()].submitted.fetch_add(1, Ordering::Relaxed);
        }
        inner.work_cvs[device].notify_all();
        Ok(ticket)
    }

    /// Validates, places, and charges a request; builds its ticket.
    fn admit(&self, req: InferenceRequest) -> Result<(Pending, Ticket), SubmitError> {
        let inner = &self.inner;
        if req.model >= inner.models.len() {
            return Err(SubmitError::UnknownModel(req.model));
        }
        if let Some(d) = req.device {
            if d >= inner.pool.len() {
                return Err(SubmitError::UnknownDevice(d));
            }
        }
        // Admission shedding happens before any charge: a shed request
        // must leave zero trace in the scheduler's accounts.
        if inner.config.admission.enabled {
            let best = inner.pool.best_completion_ns(&inner.estimates[req.model]);
            let budget_ns = inner.config.deadlines.interactive.as_nanos() as f64;
            let slack = (budget_ns - best).clamp(i64::MIN as f64, i64::MAX as f64) as i64;
            if inner.config.admission.should_shed(req.priority, slack) {
                inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                let tracer = &inner.telemetry.telemetry.tracer;
                if tracer.is_enabled() {
                    tracer.record_instant(
                        "shed",
                        RECOVERY_CATEGORY,
                        TraceId::NONE,
                        0,
                        vec![
                            ("class".to_string(), req.priority.index() as f64),
                            ("slack_ns".to_string(), slack as f64),
                        ],
                    );
                }
                return Err(SubmitError::Shed);
            }
        }
        // A decode request occupies the device for `steps` iterations,
        // so its placement charge — and therefore the batcher's slack —
        // scales with the step count.
        let steps_charge = f64::from(req.decode_steps.max(1));
        let (device, est_ns) = match req.device {
            // A device pinned dead falls back to scheduler placement —
            // pinning is an affinity hint, not a suicide pact.
            Some(d) if inner.pool.is_alive(d) => {
                let est = (inner.estimates[req.model][d] * steps_charge).max(0.0) as u64;
                inner.pool.charge(d, est, req.priority);
                (d, est)
            }
            _ => place_scaled(&inner.pool, &inner.estimates[req.model], steps_charge, req.priority),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tag = req.tag.unwrap_or(id);
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        // The request's trace identity is minted here, at admission —
        // everything downstream (queue, batch cut, compile, execute)
        // tags its spans with it. Unsampled (and telemetry-off)
        // requests carry NONE and never touch the recorder again.
        let tracer = &inner.telemetry.telemetry.tracer;
        let (trace, submit_ns) = match tracer.mint() {
            Some(trace) => (trace, now_ns()),
            None => (TraceId::NONE, 0),
        };
        // A clock-skew fault tightens the deadline by the configured
        // skew: downstream (slack ordering, SLO accounting) sees a
        // request whose clock disagrees with the server's.
        let mut budget = inner.config.deadlines.budget(req.priority);
        if let Some(plan) = &inner.config.fault_plan {
            if plan.fault_for(FaultKind::ClockSkew, tag) {
                budget = budget.saturating_sub(plan.skew());
                record_fault(inner, FaultKind::ClockSkew, TraceId::NONE, 0);
            }
        }
        let cell = Arc::new(CancelCell { state: AtomicU8::new(QUEUED) });
        let pending = Pending {
            id,
            model: req.model,
            device,
            class: req.priority,
            deadline: submitted + budget,
            est_ns,
            submitted,
            trace,
            submit_ns,
            attempts: 0,
            tag,
            steps: req.decode_steps,
            cell: Arc::clone(&cell),
            tx,
        };
        let cancel = CancelHandle {
            cell,
            id,
            key: BatchKey { model: req.model, device },
            inner: Arc::downgrade(inner),
        };
        Ok((pending, Ticket { id, rx, cancel }))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        let per_device_batch_histogram: Vec<Vec<u64>> = m
            .per_device_hist
            .iter()
            .map(|h| h.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .collect();
        let mut batch_histogram = vec![0u64; self.inner.config.max_batch];
        for hist in &per_device_batch_histogram {
            for (slot, &count) in batch_histogram.iter_mut().zip(hist) {
                *slot += count;
            }
        }
        let cache = self.inner.session.stats();
        let mut faults = [0u64; FaultKind::ALL.len()];
        for (slot, counter) in faults.iter_mut().zip(&m.faults) {
            *slot = counter.load(Ordering::Relaxed);
        }
        // Cache-I/O faults fire inside the persist layer; surface them
        // in the same per-kind array.
        faults[FaultKind::CacheDirIo.index()] = cache.disk_faults as u64;
        ServeStats {
            submitted: m.submitted.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            cancelled: m.cancelled.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            retried: m.retried.load(Ordering::Relaxed),
            recovered: m.recovered.load(Ordering::Relaxed),
            retry_exhausted: m.retry_exhausted.load(Ordering::Relaxed),
            killed: m.killed.load(Ordering::Relaxed),
            faults,
            dead_devices: self.inner.pool.dead_devices(),
            batches: m.batches.load(Ordering::Relaxed),
            decode_steps: m.decode_steps.load(Ordering::Relaxed),
            decode_tokens: m.decode_tokens.load(Ordering::Relaxed),
            kv_layouts: self.inner.kv_layouts.lock().expect("kv layout lock").len(),
            batch_histogram,
            per_device_batch_histogram,
            per_device_batches: m
                .per_device_batches
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            per_class: [
                m.per_class[0].snapshot(),
                m.per_class[1].snapshot(),
                m.per_class[2].snapshot(),
            ],
            cache,
            compiled: self.inner.session.len(),
            cache_dir_fallbacks: self.inner.telemetry.cache_dir_fallbacks.get(),
        }
    }

    /// The layout the serving tier uses for `model`'s KV cache on
    /// `device`, chosen once per (model, device) by the
    /// `DeviceCaps`-aware reduction-layout machinery and memoized —
    /// every decode step of every session then reads the cache through
    /// the same layout, which is the whole point: the bucket padding
    /// makes the choice stable across sequence lengths. Returns `None`
    /// for out-of-range ids and for static graphs (no symbolic
    /// sequence axis means no KV cache to lay out). Registering each
    /// bucket of a model as its own server model makes the memo
    /// effectively per (model, device, bucket).
    pub fn kv_cache_layout(&self, model: usize, device: usize) -> Option<Layout> {
        let inner = &self.inner;
        if model >= inner.models.len() || device >= inner.pool.len() {
            return None;
        }
        if let Some(layout) = inner.kv_layouts.lock().expect("kv layout lock").get(&(model, device))
        {
            return Some(layout.clone());
        }
        let graph = &inner.models[model].graph;
        let kv = kv_tensor(graph)?;
        let layout =
            smartmem_core::kv_cache_layout(&graph.padded_dims(kv), inner.pool.device(device));
        inner.kv_layouts.lock().expect("kv layout lock").insert((model, device), layout.clone());
        Some(layout)
    }

    /// Kills the replica hard: stops admission, answers every queued
    /// request with a [`REPLICA_KILLED`] failure (counted in both
    /// `failed` and `killed`), and lets in-flight batches finish.
    /// Returns how many queued requests were killed. Idempotent; a
    /// fleet router resubmits the killed requests elsewhere and can
    /// later warm-restart a fresh replica from the shared cache dir.
    pub fn kill(&self) -> u64 {
        let inner = &self.inner;
        let drained = {
            let mut st = match inner.state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if st.killed {
                return 0;
            }
            st.killed = true;
            st.shutdown = true;
            st.batcher.drain_all()
        };
        for cv in &inner.work_cvs {
            cv.notify_all();
        }
        inner.space_cv.notify_all();
        let mut n = 0;
        for (_key, items) in drained {
            for p in items {
                // Adjudicate against concurrent cancels exactly like a
                // batch cut would: claim or concede.
                if p.claim() {
                    respond_failed(inner, p, REPLICA_KILLED);
                    inner.metrics.killed.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                } else {
                    respond_cancelled(inner, p);
                }
            }
        }
        let tracer = &inner.telemetry.telemetry.tracer;
        if tracer.is_enabled() {
            tracer.record_instant(
                "replica_killed",
                RECOVERY_CATEGORY,
                TraceId::NONE,
                0,
                vec![("killed".to_string(), n as f64)],
            );
        }
        n
    }

    /// Whether [`Server::kill`] already ran.
    pub fn is_killed(&self) -> bool {
        match self.inner.state.lock() {
            Ok(st) => st.killed,
            Err(poisoned) => poisoned.into_inner().killed,
        }
    }

    /// Marks a device dead and re-routes its queued requests to the
    /// survivors — the same machinery an injected
    /// [`FaultKind::DeviceDeath`] uses, exposed for operational
    /// drains. Each stranded request consumes one retry attempt (it
    /// may go terminal if its budget is already spent). Returns
    /// `false` without side effects when `device` is out of range,
    /// already dead, or the last one alive.
    pub fn retire_device(&self, device: usize) -> bool {
        let inner = &self.inner;
        if device >= inner.pool.len() {
            return false;
        }
        let Some(drained) = mark_device_dead(inner, device) else {
            return false;
        };
        for (_key, items) in drained {
            for p in items {
                retry_or_fail(inner, p, "device retired");
            }
        }
        inner.space_cv.notify_all();
        true
    }

    /// Stops accepting requests, drains every queued batch, joins all
    /// threads and returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join(true);
        self.stats()
    }

    /// Flags shutdown, wakes everything, joins the workers. A panicked
    /// worker (or the poisoned lock it leaves behind) only propagates
    /// when `propagate` is set — the `Drop` path must stay panic-free,
    /// or an abort-during-unwind would mask the original failure.
    fn stop_and_join(&mut self, propagate: bool) {
        match self.inner.state.lock() {
            Ok(mut st) => st.shutdown = true,
            Err(poisoned) => poisoned.into_inner().shutdown = true,
        }
        // Workers drain their device's remaining queue and exit;
        // blocked submitters observe the flag and error out.
        for cv in &self.inner.work_cvs {
            cv.notify_all();
        }
        self.inner.space_cv.notify_all();
        for w in self.workers.drain(..) {
            let joined = w.join();
            if propagate {
                joined.expect("worker thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join(false);
        }
    }
}

/// Refunds the scheduler charge of a cancelled request, counts it, and
/// resolves its ticket with a cancelled response.
fn respond_cancelled(inner: &Inner, p: Pending) {
    inner.pool.discharge(p.device, p.est_ns, p.class);
    let m = &inner.metrics;
    m.cancelled.fetch_add(1, Ordering::Relaxed);
    m.per_class[p.class.index()].cancelled.fetch_add(1, Ordering::Relaxed);
    if p.trace != TraceId::NONE {
        let tracer = &inner.telemetry.telemetry.tracer;
        tracer.record_complete(
            "queue",
            "serve",
            p.trace,
            p.submit_ns,
            now_ns().saturating_sub(p.submit_ns),
            p.device as u64,
            vec![],
        );
        tracer.record_instant("cancelled", "serve", p.trace, p.device as u64, vec![]);
    }
    let wall_ms = p.submitted.elapsed().as_secs_f64() * 1e3;
    let response = InferenceResponse {
        request_id: p.id,
        completion_seq: m.completion_seq.fetch_add(1, Ordering::Relaxed),
        model: inner.models[p.model].name.clone(),
        device: inner.pool.device(p.device).name.clone(),
        priority: p.class,
        cancelled: true,
        batch_size: 0,
        queue_ms: wall_ms,
        exec_ms: 0.0,
        wall_ms,
        compile_cache_hit: false,
        retries: p.attempts,
        error: None,
    };
    // A dropped ticket just means nobody is listening.
    let _ = p.tx.send(response);
}

/// Counts one fired injected fault and records its instant event.
fn record_fault(inner: &Inner, kind: FaultKind, trace: TraceId, lane: u64) {
    inner.metrics.faults[kind.index()].fetch_add(1, Ordering::Relaxed);
    let tracer = &inner.telemetry.telemetry.tracer;
    if tracer.is_enabled() {
        tracer.record_instant(
            format!("fault.{}", kind.name()),
            FAULT_CATEGORY,
            trace,
            lane,
            vec![],
        );
    }
}

/// Refunds the scheduler charge of a terminally failed request, counts
/// it, and resolves its ticket with an error response. The caller has
/// already adjudicated against cancellation (the cell is CLAIMED).
fn respond_failed(inner: &Inner, p: Pending, error: &str) {
    inner.pool.discharge(p.device, p.est_ns, p.class);
    let m = &inner.metrics;
    m.failed.fetch_add(1, Ordering::Relaxed);
    let class = &m.per_class[p.class.index()];
    class.failed.fetch_add(1, Ordering::Relaxed);
    if Instant::now() > p.deadline {
        class.slo_violations.fetch_add(1, Ordering::Relaxed);
    }
    if p.trace != TraceId::NONE {
        let tracer = &inner.telemetry.telemetry.tracer;
        tracer.record_complete(
            "queue",
            "serve",
            p.trace,
            p.submit_ns,
            now_ns().saturating_sub(p.submit_ns),
            p.device as u64,
            vec![],
        );
        tracer.record_instant("failed", "serve", p.trace, p.device as u64, vec![]);
    }
    let wall_ms = p.submitted.elapsed().as_secs_f64() * 1e3;
    let response = InferenceResponse {
        request_id: p.id,
        completion_seq: m.completion_seq.fetch_add(1, Ordering::Relaxed),
        model: inner.models[p.model].name.clone(),
        device: inner.pool.device(p.device).name.clone(),
        priority: p.class,
        cancelled: false,
        batch_size: 0,
        queue_ms: wall_ms,
        exec_ms: 0.0,
        wall_ms,
        compile_cache_hit: false,
        retries: p.attempts,
        error: Some(error.to_string()),
    };
    // A dropped ticket just means nobody is listening.
    let _ = p.tx.send(response);
}

/// Routes one stranded or transiently failed request: consume a retry
/// attempt and either re-place + re-enqueue it with backoff, or answer
/// it terminally once the budget is spent. Works for both claimed
/// batch members and queued items drained off a dead device; concedes
/// to a concurrent cancel at every step (exactly one responder).
fn retry_or_fail(inner: &Inner, mut p: Pending, error: &str) {
    // Return a claimed request to the queued state so the next cut can
    // claim it again (and a cancel can win again while it waits).
    let _ = p.cell.state.compare_exchange(CLAIMED, QUEUED, Ordering::AcqRel, Ordering::Acquire);
    if p.cell.state.load(Ordering::Acquire) == CANCELLED {
        // Cancel won while the item was off-queue in our hands: we are
        // the only holder, so we answer it.
        respond_cancelled(inner, p);
        return;
    }
    p.attempts += 1;
    match inner.config.retry.decide(p.attempts) {
        RetryDecision::Retry { backoff } => {
            inner.metrics.retried.fetch_add(1, Ordering::Relaxed);
            let tracer = &inner.telemetry.telemetry.tracer;
            if tracer.is_enabled() {
                tracer.record_instant(
                    "retry",
                    RECOVERY_CATEGORY,
                    p.trace,
                    p.device as u64,
                    vec![
                        ("attempt".to_string(), f64::from(p.attempts)),
                        ("backoff_us".to_string(), backoff.as_micros() as f64),
                    ],
                );
            }
            requeue(inner, p, backoff);
        }
        RetryDecision::Fail => {
            inner.metrics.retry_exhausted.fetch_add(1, Ordering::Relaxed);
            let tracer = &inner.telemetry.telemetry.tracer;
            if tracer.is_enabled() {
                tracer.record_instant(
                    "retry_exhausted",
                    RECOVERY_CATEGORY,
                    p.trace,
                    p.device as u64,
                    vec![],
                );
            }
            // Final claim adjudicates against a cancel racing the
            // QUEUED window above.
            if p.claim() {
                respond_failed(inner, p, error);
            } else {
                respond_cancelled(inner, p);
            }
        }
    }
}

/// Refunds the failed placement, re-places the request among the alive
/// devices, and re-enqueues it dated `backoff` into the future — the
/// batcher's due check then naturally delays the next attempt. The
/// aged `enqueued` baseline is NOT reset: starvation aging keeps
/// counting from the original submission, so a retried request
/// outranks fresh traffic of its class.
fn requeue(inner: &Inner, mut p: Pending, backoff: Duration) {
    // Refund the failed placement; `place` below charges the new one.
    inner.pool.discharge(p.device, p.est_ns, p.class);
    let scale = f64::from(p.steps.max(1));
    loop {
        let (device, est) = place_scaled(&inner.pool, &inner.estimates[p.model], scale, p.class);
        p.device = device;
        p.est_ns = est;
        let key = BatchKey { model: p.model, device };
        let pushed = {
            let mut st = inner.state.lock().expect("batch state poisoned");
            if st.shutdown {
                // Too late to requeue: a worker for the new device may
                // already have drained and exited, which would strand
                // the ticket forever. Answer it now instead (the
                // respond path refunds the fresh charge).
                let killed = st.killed;
                drop(st);
                let error = if killed { REPLICA_KILLED } else { "server shut down during retry" };
                if p.claim() {
                    if killed {
                        inner.metrics.killed.fetch_add(1, Ordering::Relaxed);
                    }
                    respond_failed(inner, p, error);
                } else {
                    respond_cancelled(inner, p);
                }
                return;
            }
            st.batcher.push(key, p, Instant::now() + backoff)
        };
        match pushed {
            Ok(()) => {
                inner.work_cvs[device].notify_all();
                return;
            }
            // Lost a race with another death: refund and place again.
            Err(item) => {
                p = item;
                inner.pool.discharge(p.device, p.est_ns, p.class);
            }
        }
    }
}

fn worker_loop(inner: &Inner, device_id: usize) {
    let device = inner.pool.device(device_id).clone();
    // Latency reports per model on this device. Only this worker ever
    // touches (·, device_id) pairs, so the memo is thread-local.
    let mut reports: HashMap<usize, ModelReport> = HashMap::new();
    let mut st: MutexGuard<'_, BatchState> = inner.state.lock().expect("batch state poisoned");
    loop {
        let now = Instant::now();
        // Shutdown drains without waiting out the idle-latency bound.
        let cut = if st.shutdown {
            st.batcher.pull_any(device_id, now)
        } else {
            st.batcher.pull(device_id, now)
        };
        match cut {
            Some(cut) => {
                drop(st);
                // The cut freed queue capacity for blocked submitters.
                inner.space_cv.notify_all();
                for p in cut.cancelled {
                    respond_cancelled(inner, p);
                }
                if !cut.batch.items.is_empty() {
                    execute_batch(inner, device_id, &device, &mut reports, cut.batch);
                }
                st = inner.state.lock().expect("batch state poisoned");
            }
            None if st.shutdown => return,
            None => {
                let cv = &inner.work_cvs[device_id];
                st = match st.batcher.next_due(device_id, now) {
                    // Nothing queued for this device: sleep until work
                    // arrives (an idle server costs zero wakeups).
                    None => cv.wait(st).expect("batch state poisoned"),
                    // Something is queued but not due: sleep out the
                    // remainder of the idle-latency bound.
                    Some(wait) => {
                        let wait = wait.max(Duration::from_micros(50));
                        cv.wait_timeout(st, wait).expect("batch state poisoned").0
                    }
                };
            }
        }
    }
}

/// Marks `device_id` dead in both the pool and the batcher, returning
/// the drained queued requests — or `None` when the device is already
/// dead or the last one alive (the pool must keep serving). The
/// alive-count check and the marking happen under the batch-state
/// lock, so two concurrent deaths cannot race past each other and
/// leave the pool empty.
fn mark_device_dead(inner: &Inner, device_id: usize) -> Option<Vec<(BatchKey, Vec<Pending>)>> {
    let drained = {
        let mut st = inner.state.lock().expect("batch state poisoned");
        if inner.pool.alive_count() <= 1 || !inner.pool.mark_dead(device_id) {
            return None;
        }
        st.batcher.mark_dead(device_id)
    };
    let tracer = &inner.telemetry.telemetry.tracer;
    if tracer.is_enabled() {
        tracer.record_instant(
            "device_dead",
            RECOVERY_CATEGORY,
            TraceId::NONE,
            device_id as u64,
            vec![],
        );
    }
    Some(drained)
}

fn execute_batch(
    inner: &Inner,
    device_id: usize,
    device: &DeviceConfig,
    reports: &mut HashMap<usize, ModelReport>,
    batch: Batch<Pending>,
) {
    let exec_start = Instant::now();
    let size = batch.items.len();
    let model_id = batch.key.model;
    let spec = &inner.models[model_id];
    let tracer = &inner.telemetry.telemetry.tracer;
    // One timestamp for the whole batch: every member's queue span ends
    // — and its execute span starts — at the cut.
    let cut_ns = if tracer.is_enabled() { now_ns() } else { 0 };
    let lane = device_id as u64;

    let plan = inner.config.fault_plan.as_ref().filter(|p| !p.is_inert());
    // Device-level probes, one roll per batch. Death routes the whole
    // batch (and everything queued behind it) through retry and skips
    // execution entirely; a stall just holds the device.
    if let Some(plan) = plan {
        if plan.roll(FaultKind::DeviceDeath, device_id) {
            if let Some(drained) = mark_device_dead(inner, device_id) {
                record_fault(inner, FaultKind::DeviceDeath, TraceId::NONE, lane);
                for p in batch.items {
                    retry_or_fail(inner, p, "device died");
                }
                for (_key, items) in drained {
                    for p in items {
                        retry_or_fail(inner, p, "device died");
                    }
                }
                inner.space_cv.notify_all();
                return;
            }
            // Last device standing: the death is suppressed (the pool
            // must keep serving) and the batch executes normally.
        }
        if plan.roll(FaultKind::DeviceStall, device_id) {
            record_fault(inner, FaultKind::DeviceStall, TraceId::NONE, lane);
            std::thread::sleep(plan.stall_duration());
        }
    }

    // Per-item injected transient faults, decided up front against the
    // request's stable tag — and only on its first attempt, so a
    // cursed request fails exactly once and recovers on retry
    // (`recovered` then counts exactly the cursed tags, independent of
    // scheduling). A compile curse preempts compilation; an exec curse
    // fails the item after the batch runs.
    let cursed: Vec<Option<FaultKind>> = batch
        .items
        .iter()
        .map(|item| {
            let plan = plan?;
            if item.attempts > 0 {
                return None;
            }
            if plan.fault_for(FaultKind::CompileFault, item.tag) {
                record_fault(inner, FaultKind::CompileFault, item.trace, lane);
                Some(FaultKind::CompileFault)
            } else if plan.fault_for(FaultKind::ExecError, item.tag) {
                record_fault(inner, FaultKind::ExecError, item.trace, lane);
                Some(FaultKind::ExecError)
            } else {
                None
            }
        })
        .collect();

    // Compile every request through the shared session:
    // compile-on-first-use, cache-warm (and in-flight-deduplicated)
    // thereafter. The fingerprint was precomputed at registration,
    // so a warm call is a hash-map lookup. Accounting is deliberately
    // per *request* — the hit rate answers "what fraction of traffic
    // was served from a warm artifact", so the follow-up requests of
    // a batch count as hits too.
    // A panicking pass must fail this model's requests, not kill
    // the device worker (which would strand every later batch
    // routed here): the session's FlightGuard already unwedges
    // concurrent waiters, and catching the unwind turns the panic
    // into a per-request error response.
    let compiled: Vec<_> = batch
        .items
        .iter()
        .zip(&cursed)
        .map(|(item, curse)| {
            // A cursed item never reaches the compiler — the injected
            // fault preempts it.
            if curse.is_some() {
                return None;
            }
            let compile_start = if item.trace != TraceId::NONE { now_ns() } else { 0 };
            let (result, cache_hit) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inner.session.compile_keyed(
                        inner.framework.as_ref(),
                        &spec.graph,
                        spec.fingerprint,
                        device,
                    )
                }))
                .unwrap_or_else(|_| {
                    (Err(Unsupported::new(inner.framework.name(), "compilation panicked")), false)
                });
            if item.trace != TraceId::NONE {
                tracer.record_complete(
                    "compile",
                    "serve",
                    item.trace,
                    compile_start,
                    now_ns().saturating_sub(compile_start),
                    lane,
                    vec![("cache_hit".to_string(), f64::from(cache_hit))],
                );
            }
            Some((result, cache_hit))
        })
        .collect();

    // The sampled-trace latency estimate is much cheaper than
    // compilation but still worth paying once per model, not per
    // batch.
    //
    // The batch runs one device iteration per decode step of its
    // *longest* decode member — every batch-mate is held hostage for
    // all of them. This is exactly the cost continuous batching avoids
    // by re-submitting one step at a time.
    let iters = batch.items.iter().map(|i| i.steps.max(1)).max().unwrap_or(1);
    let exec_ms = compiled
        .iter()
        .flatten()
        .find_map(|(res, _)| res.as_ref().ok())
        .map(|output| reports.entry(model_id).or_insert_with(|| output.optimized.estimate(device)))
        .map_or(0.0, |r| batch_exec_ms(r.latency_ms, size) * f64::from(iters));
    if inner.config.exec_time_scale > 0.0 && exec_ms > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(exec_ms * inner.config.exec_time_scale / 1e3));
    }

    let m = &inner.metrics;
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.per_device_batches[device_id].fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = m.per_device_hist[device_id].get(size.saturating_sub(1)) {
        slot.fetch_add(1, Ordering::Relaxed);
    }
    if batch.items.iter().any(|i| i.steps > 0) {
        m.decode_steps.fetch_add(u64::from(iters), Ordering::Relaxed);
    }
    for ((item, outcome), curse) in batch.items.into_iter().zip(compiled).zip(cursed) {
        // Cursed items are transient failures: consume a retry attempt
        // and re-place them (or go terminal on an exhausted budget).
        // Their charge travels with them — requeue/respond refunds it.
        if let Some(kind) = curse {
            let error = match kind {
                FaultKind::CompileFault => "injected compile fault",
                _ => "injected execute error",
            };
            retry_or_fail(inner, item, error);
            continue;
        }
        let (result, cache_hit) = outcome.expect("uncursed items are compiled");
        inner.pool.discharge(device_id, item.est_ns, item.class);
        // Queue wait (submit → claim) feeds the always-on per-class
        // histograms: one atomic op, independent of span sampling.
        let queue_wait = exec_start.saturating_duration_since(item.submitted);
        inner.telemetry.queue_wait[item.class.index()]
            .record(u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX));
        if item.trace != TraceId::NONE {
            // The sampled request's full story: queue (submit → cut),
            // execute (cut → answer, compile nested inside), and the
            // end-to-end request envelope.
            let end_ns = now_ns();
            tracer.record_complete(
                "queue",
                "serve",
                item.trace,
                item.submit_ns,
                cut_ns.saturating_sub(item.submit_ns),
                lane,
                vec![("class".to_string(), item.class.index() as f64)],
            );
            tracer.record_complete(
                "execute",
                "serve",
                item.trace,
                cut_ns,
                end_ns.saturating_sub(cut_ns),
                lane,
                vec![("batch_size".to_string(), size as f64)],
            );
            tracer.record_complete(
                "request",
                "serve",
                item.trace,
                item.submit_ns,
                end_ns.saturating_sub(item.submit_ns),
                lane,
                vec![
                    ("class".to_string(), item.class.index() as f64),
                    ("cache_hit".to_string(), f64::from(cache_hit)),
                ],
            );
        }
        let error = result.as_ref().err().map(|e| e.to_string());
        let class = &m.per_class[item.class.index()];
        // A compilation error is terminal (retrying cannot fix a graph
        // the framework rejects): `failed`, disjoint from `completed`.
        if error.is_some() {
            m.failed.fetch_add(1, Ordering::Relaxed);
            class.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            m.completed.fetch_add(1, Ordering::Relaxed);
            class.completed.fetch_add(1, Ordering::Relaxed);
            if item.steps > 0 {
                m.decode_tokens.fetch_add(u64::from(item.steps), Ordering::Relaxed);
            }
            if item.attempts > 0 {
                m.recovered.fetch_add(1, Ordering::Relaxed);
            }
        }
        if Instant::now() > item.deadline {
            class.slo_violations.fetch_add(1, Ordering::Relaxed);
        }
        let response = InferenceResponse {
            request_id: item.id,
            completion_seq: m.completion_seq.fetch_add(1, Ordering::Relaxed),
            model: spec.name.clone(),
            device: device.name.clone(),
            priority: item.class,
            cancelled: false,
            batch_size: size,
            queue_ms: exec_start.saturating_duration_since(item.submitted).as_secs_f64() * 1e3,
            exec_ms,
            wall_ms: item.submitted.elapsed().as_secs_f64() * 1e3,
            compile_cache_hit: cache_hit,
            retries: item.attempts,
            error,
        };
        // A dropped ticket just means nobody is listening.
        let _ = item.tx.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_exec_time_is_sublinear() {
        let one = batch_exec_ms(10.0, 1);
        let four = batch_exec_ms(10.0, 4);
        assert_eq!(one, 10.0);
        assert!(four < 40.0, "batching must amortize: {four}");
        assert!(four > 10.0);
    }

    #[test]
    fn default_class_deadlines_are_ordered() {
        let d = ClassDeadlines::default();
        assert!(d.budget(Priority::Interactive) < d.budget(Priority::Batch));
        assert!(d.budget(Priority::Batch) < d.budget(Priority::BestEffort));
    }
}
