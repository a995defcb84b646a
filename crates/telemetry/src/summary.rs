//! Human-readable trace digestion: per-phase breakdowns, slowest
//! spans, and queue-wait vs execute attribution.
//!
//! [`summarize`] reduces a [`Trace`] to a [`TraceSummary`];
//! [`TraceSummary::render`] formats it for a terminal. The `trace_view`
//! bench binary is a thin CLI over this pair, and CI's smoke check uses
//! [`TraceSummary::complete_requests`] to assert a captured trace
//! actually contains end-to-end request spans.

use crate::trace::{SpanKind, SpanRecord, Trace, TraceId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate over all complete spans sharing one name (a *phase*:
/// `queue`, `compile`, `execute`, `request`, …).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// Span name the spans were grouped by.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Mean span duration, ns (`0.0` when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Everything [`summarize`] extracts from one trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Per-phase aggregates, largest total first.
    pub phases: Vec<PhaseStat>,
    /// The slowest complete spans, longest first (capped at
    /// [`SLOWEST_SPANS`]).
    pub slowest: Vec<SpanRecord>,
    /// Requests with a complete end-to-end `request` span.
    pub requests: u64,
    /// Summed `queue` span time across requests, ns.
    pub queue_ns: u64,
    /// Summed `execute` span time across requests, ns.
    pub execute_ns: u64,
    /// Summed end-to-end `request` span time, ns.
    pub request_ns: u64,
    /// Instant events (warnings, cancellations) by name.
    pub instants: BTreeMap<String, u64>,
    /// Spans lost to ring overflow before the drain.
    pub dropped: u64,
}

/// How many slowest spans a summary retains.
pub const SLOWEST_SPANS: usize = 10;

/// Span name of the end-to-end request phase ([`TraceSummary::requests`]
/// counts complete spans with this name and a real [`TraceId`]).
pub const REQUEST_SPAN: &str = "request";

impl TraceSummary {
    /// Complete end-to-end request spans seen — the CI smoke check
    /// requires ≥ 1 in a captured trace.
    pub fn complete_requests(&self) -> u64 {
        self.requests
    }

    /// Share of summed request wall time attributed to phase spans
    /// named `name` (`0.0` when no request time was recorded).
    pub fn share_of_request(&self, phase_ns: u64) -> f64 {
        if self.request_ns == 0 {
            0.0
        } else {
            phase_ns as f64 / self.request_ns as f64
        }
    }

    /// Terminal-friendly rendering: phase table, queue vs execute
    /// attribution, slowest spans, instant events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} complete request span(s), {} span(s) dropped in ring overflow",
            self.requests, self.dropped
        );
        out.push_str("\nper-phase breakdown (complete spans):\n");
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>12} {:>12} {:>12}",
            "phase", "count", "total_ms", "mean_ms", "max_ms"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<18} {:>7} {:>12.3} {:>12.3} {:>12.3}",
                p.name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns() / 1e6,
                p.max_ns as f64 / 1e6,
            );
        }
        if self.request_ns > 0 {
            let queue = 100.0 * self.share_of_request(self.queue_ns);
            let execute = 100.0 * self.share_of_request(self.execute_ns);
            let other = (100.0 - queue - execute).max(0.0);
            out.push_str("\nrequest time attribution:\n");
            let _ =
                writeln!(out, "  queue-wait {queue:.1}%  execute {execute:.1}%  other {other:.1}%");
        }
        if !self.slowest.is_empty() {
            out.push_str("\nslowest spans:\n");
            for s in &self.slowest {
                let _ = writeln!(
                    out,
                    "  {:>10.3} ms  {:<12} trace={} tid={}",
                    s.dur_ns as f64 / 1e6,
                    s.name,
                    s.trace.0,
                    s.tid
                );
            }
        }
        if !self.instants.is_empty() {
            out.push_str("\nevents:\n");
            for (name, count) in &self.instants {
                let _ = writeln!(out, "  {name} ×{count}");
            }
        }
        out
    }
}

/// Reduces a trace to phase aggregates, attribution totals, and the
/// slowest spans.
///
/// ```
/// use smartmem_telemetry::{summarize, SpanKind, SpanRecord, Trace, TraceId};
///
/// let span = |name: &'static str, dur_ns| SpanRecord {
///     name: name.into(),
///     cat: "serve".into(),
///     kind: SpanKind::Complete,
///     trace: TraceId(1),
///     start_ns: 0,
///     dur_ns,
///     tid: 0,
///     args: vec![],
/// };
/// let trace = Trace {
///     spans: vec![span("queue", 300), span("execute", 600), span("request", 1000)],
///     dropped: 0,
/// };
/// let summary = summarize(&trace);
/// assert_eq!(summary.complete_requests(), 1);
/// assert_eq!(summary.share_of_request(summary.queue_ns), 0.3);
/// ```
pub fn summarize(trace: &Trace) -> TraceSummary {
    let mut phases: BTreeMap<&str, PhaseStat> = BTreeMap::new();
    let mut summary = TraceSummary { dropped: trace.dropped, ..TraceSummary::default() };
    for s in &trace.spans {
        if s.kind == SpanKind::Instant {
            *summary.instants.entry(s.name.to_string()).or_insert(0) += 1;
            continue;
        }
        let p = phases.entry(&s.name).or_insert_with(|| PhaseStat {
            name: s.name.to_string(),
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        p.count += 1;
        p.total_ns += s.dur_ns;
        p.max_ns = p.max_ns.max(s.dur_ns);
        match &*s.name {
            "queue" => summary.queue_ns += s.dur_ns,
            "execute" => summary.execute_ns += s.dur_ns,
            REQUEST_SPAN => {
                summary.request_ns += s.dur_ns;
                if s.trace != TraceId::NONE {
                    summary.requests += 1;
                }
            }
            _ => {}
        }
    }
    summary.phases = phases.into_values().collect();
    summary.phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    let mut slowest: Vec<SpanRecord> =
        trace.spans.iter().filter(|s| s.kind == SpanKind::Complete).cloned().collect();
    slowest.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.start_ns.cmp(&b.start_ns)));
    slowest.truncate(SLOWEST_SPANS);
    summary.slowest = slowest;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, trace: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "serve".into(),
            kind: SpanKind::Complete,
            trace: TraceId(trace),
            start_ns,
            dur_ns,
            tid: 0,
            args: vec![],
        }
    }

    fn instant(name: &'static str) -> SpanRecord {
        SpanRecord { kind: SpanKind::Instant, dur_ns: 0, ..span(name, 0, 5, 0) }
    }

    #[test]
    fn phases_aggregate_and_order_by_total() {
        let trace = Trace {
            spans: vec![
                span("queue", 1, 0, 100),
                span("execute", 1, 100, 900),
                span("request", 1, 0, 1000),
                span("queue", 2, 10, 300),
                span("execute", 2, 310, 200),
                span("request", 2, 10, 510),
                instant("cancelled"),
                instant("cancelled"),
            ],
            dropped: 3,
        };
        let s = summarize(&trace);
        assert_eq!(s.requests, 2);
        assert_eq!(s.dropped, 3);
        assert_eq!((s.queue_ns, s.execute_ns, s.request_ns), (400, 1100, 1510));
        let names: Vec<&str> = s.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["request", "execute", "queue"], "largest total first");
        assert_eq!(s.phases[2].max_ns, 300);
        assert_eq!(s.instants.get("cancelled"), Some(&2));
        assert_eq!(s.slowest[0].name, "request");
        assert_eq!(s.slowest[0].dur_ns, 1000);
        let text = s.render();
        assert!(text.contains("2 complete request span(s)"));
        assert!(text.contains("cancelled ×2"));
    }

    #[test]
    fn anonymous_request_spans_do_not_count_as_requests() {
        let trace = Trace { spans: vec![span("request", 0, 0, 10)], dropped: 0 };
        assert_eq!(summarize(&trace).complete_requests(), 0);
    }

    #[test]
    fn slowest_is_capped() {
        let spans = (0..20).map(|i| span("execute", i + 1, i, i + 1)).collect();
        let s = summarize(&Trace { spans, dropped: 0 });
        assert_eq!(s.slowest.len(), SLOWEST_SPANS);
        assert_eq!(s.slowest[0].dur_ns, 20);
    }
}
