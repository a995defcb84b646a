//! `smartmem-telemetry` — low-overhead tracing and metrics for the
//! SmartMem stack.
//!
//! The stack's observability questions ("where did this request's
//! latency go?", "did the compile cache hit?", "did telemetry itself
//! slow serving down?") are answered by two primitives and their
//! exporters:
//!
//! * **Spans** — a [`Tracer`] mints one [`TraceId`] per sampled request
//!   at admission and records named, timestamped spans (`queue`,
//!   `compile`, `execute`, `request`) into bounded per-thread ring
//!   buffers as the request moves through the server. A drained
//!   [`Trace`] exports to Chrome `trace_event` JSON
//!   ([`render_chrome`], loadable in `chrome://tracing` or Perfetto)
//!   or reduces to a terminal digest ([`summarize`]).
//! * **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s,
//!   and log-bucketed [`Histogram`]s, updatable from any thread with
//!   one atomic op. [`flatten`] turns a [`MetricsSnapshot`] into flat
//!   `(name, value)` pairs for the bench-JSON regression gate.
//!
//! Both are built to be left on in benchmarks: the disabled tracer
//! path is a single relaxed atomic load, the enabled path takes only a
//! thread-local lock, and memory is bounded by the ring capacity. The
//! serving benchmark measures the remaining overhead and the CI gate
//! (`telemetry_overhead_pct` in `bench/baseline.json`) keeps it small.
//!
//! Everything is `std`-only — the container builds offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod metrics;
mod ring;
mod summary;
mod trace;

pub use chrome::{parse_chrome, render_chrome};
pub use metrics::{
    flatten, Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricValue, MetricsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use ring::RingBuffer;
pub use summary::{summarize, PhaseStat, TraceSummary, REQUEST_SPAN, SLOWEST_SPANS};
pub use trace::{now_ns, thread_lane, SpanGuard, SpanKind, SpanRecord, Trace, TraceId, Tracer};

use std::sync::Arc;

/// One handle bundling the two telemetry halves, for components (the
/// server) that own their observability so tests stay isolated from
/// each other.
///
/// ```
/// use smartmem_telemetry::Telemetry;
///
/// let t = Telemetry::enabled(4096, 1);
/// assert!(t.tracer.is_enabled());
/// let off = Telemetry::disabled();
/// assert!(!off.tracer.is_enabled());
/// assert!(off.registry.is_empty());
/// ```
#[derive(Clone)]
pub struct Telemetry {
    /// Span recorder.
    pub tracer: Tracer,
    /// Metrics registry.
    pub registry: Arc<Registry>,
}

impl Telemetry {
    /// Recording telemetry: per-thread span rings of `capacity`,
    /// sampling one request in every `sample_every`.
    pub fn enabled(capacity: usize, sample_every: u64) -> Self {
        Telemetry {
            tracer: Tracer::new(capacity, sample_every),
            registry: Arc::new(Registry::new()),
        }
    }

    /// Non-recording telemetry: the tracer mints nothing and records
    /// nothing. The registry still works (metrics are cheap and some —
    /// fallback counters — must count even unobserved).
    pub fn disabled() -> Self {
        Telemetry { tracer: Tracer::disabled(), registry: Arc::new(Registry::new()) }
    }
}
