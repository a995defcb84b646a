//! `smartmem-telemetry` — low-overhead request tracing for the
//! SmartMem stack.
//!
//! The stack's observability question ("where did this request's
//! latency go?") is answered by spans and their exporters: a [`Tracer`]
//! mints one [`TraceId`] per sampled request at admission and records
//! named, timestamped spans (`queue`, `execute`, `request`) into bounded
//! per-thread ring buffers as the request moves through the server;
//! work outside any request, such as the server's start-up `compile` of
//! each (model, device) pair, records under [`TraceId::NONE`]. A drained [`Trace`] exports to Chrome `trace_event` JSON
//! ([`render_chrome`], loadable in `chrome://tracing` or Perfetto) or
//! reduces to a terminal digest ([`summarize`]). Counts (completions,
//! faults, cache fallbacks) live in the server's own statistics.
//!
//! The tracer is built to be left on in benchmarks: the disabled path
//! is a single relaxed atomic load, the enabled path takes only a
//! thread-local lock, and memory is bounded by the ring capacity. The
//! serving benchmark measures the remaining overhead and the CI gate
//! (`telemetry_overhead_pct` in `bench/baseline.json`) keeps it small.
//!
//! Everything is `std`-only, so the crate builds offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod ring;
mod summary;
mod trace;

pub use chrome::{parse_chrome, render_chrome};
pub use ring::RingBuffer;
pub use summary::{summarize, PhaseStat, TraceSummary, REQUEST_SPAN, SLOWEST_SPANS};
pub use trace::{
    now_ns, thread_lane, Label, SpanGuard, SpanKind, SpanRecord, Trace, TraceId, Tracer,
};
