//! Tunables of the serving runtime: per-class deadlines, telemetry
//! knobs, and the [`ServeConfig`] that carries them.

use crate::request::Priority;
use crate::retry::{AdmissionControl, RetryPolicy};
use smartmem_sim::FaultPlan;
use smartmem_telemetry::Tracer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

/// Capacity of each recording thread's span ring buffer; overflow
/// drops the oldest spans, counted in the exported trace.
const SPAN_CAPACITY: usize = 8192;

/// Telemetry knobs of the serving runtime.
///
/// Disabled by default: the tracer's record path then costs one
/// relaxed atomic load, so production-shaped benchmarks can leave the
/// plumbing in place. Counts (completions, queue waits on every
/// response, cache-dir fallbacks) come from [`ServeStats`] and the
/// responses whether or not the tracer records.
///
/// [`ServeStats`]: crate::ServeStats
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Whether the span recorder is on.
    pub enabled: bool,
    /// Record the full span set of one request in every `sample_every`
    /// submitted (1 = trace every request).
    pub sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: false, sample_every: 1 }
    }
}

impl TelemetryConfig {
    /// Tracing on, every request sampled — the right mode for capturing
    /// a Chrome trace.
    pub fn tracing() -> Self {
        TelemetryConfig { enabled: true, ..TelemetryConfig::default() }
    }

    /// The tracer these knobs describe.
    pub(super) fn tracer(&self) -> Tracer {
        if self.enabled {
            Tracer::new(SPAN_CAPACITY, self.sample_every)
        } else {
            Tracer::disabled()
        }
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
    /// [`smartmem_core::CompileSession::with_cache_dir`]). `None` keeps
    /// the session purely in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Per-class latency budgets (see [`ClassDeadlines`]).
    pub deadlines: ClassDeadlines,
    /// Starvation-aging factor of the batch-cut ordering: every
    /// nanosecond a request has queued subtracts this many nanoseconds
    /// from its effective slack, so long-waiting low-priority work
    /// eventually outranks fresh interactive traffic. Zero disables
    /// aging.
    pub aging_factor: f64,
    /// Tracing knobs (see [`TelemetryConfig`]).
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
