//! Chrome `trace_event` JSON export/import.
//!
//! [`render_chrome`] serializes a drained [`Trace`] into the [Trace
//! Event Format] consumed by `chrome://tracing` and Perfetto: one
//! complete (`"ph": "X"`) or instant (`"ph": "i"`) event per span,
//! timestamps in microseconds, the device/worker lane as `tid`, and the
//! request [`TraceId`] plus any numeric attachments under `args`.
//! [`parse_chrome`] reads the same format back — `trace_view` and the
//! CI smoke check consume trace files through it, and rendering is
//! tested as an exact round trip.
//!
//! Only the `trace_event` schema lives here; tokenizing, escaping and
//! number formatting are `smartmem-json`'s.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::{SpanKind, SpanRecord, Trace, TraceId};
use smartmem_json::{escape, fmt_value, Json};
use std::fmt::Write as _;

/// Microsecond timestamp of a nanosecond count, exact through the
/// parser's inverse (`f64` holds 53 mantissa bits; traces live well
/// under 2^53 ns ≈ 104 days).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Renders a trace as Chrome `trace_event` JSON (object form, one
/// event per line). Load the output straight into `chrome://tracing`
/// or <https://ui.perfetto.dev>.
pub fn render_chrome(trace: &Trace) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    let _ = write!(out, "\"dropped_spans\": {}}},\n\"traceEvents\": [\n", trace.dropped);
    for (i, s) in trace.spans.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
            escape(&s.name),
            escape(&s.cat),
            match s.kind {
                SpanKind::Complete => "X",
                SpanKind::Instant => "i",
            },
            fmt_value(us(s.start_ns)),
        );
        if s.kind == SpanKind::Complete {
            let _ = write!(out, "\"dur\": {}, ", fmt_value(us(s.dur_ns)));
        } else {
            // Instant scope: thread-local marker.
            out.push_str("\"s\": \"t\", ");
        }
        let _ = write!(out, "\"pid\": 1, \"tid\": {}, \"args\": {{\"trace\": {}", s.tid, s.trace.0);
        for (k, v) in &s.args {
            let _ = write!(out, ", \"{}\": {}", escape(k), fmt_value(*v));
        }
        out.push_str("}}");
        out.push_str(if i + 1 < trace.spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n}\n");
    out
}

/// Nanosecond count of a microsecond timestamp (inverse of the
/// renderer's conversion).
fn ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

/// Parses Chrome `trace_event` JSON back into a [`Trace`]. Accepts
/// both the object form this crate renders and a bare event array;
/// events with phases other than `X`/`i` are skipped (a foreign trace
/// may carry metadata events).
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed
/// JSON, a missing `traceEvents` array, or an event without the
/// required fields.
pub fn parse_chrome(text: &str) -> Result<Trace, String> {
    let root = smartmem_json::parse(text).map_err(|e| e.to_string())?;
    let (events, dropped) = match &root {
        Json::Arr(events) => (events, 0),
        Json::Obj(_) => {
            let Some(Json::Arr(events)) = root.get("traceEvents") else {
                return Err("no \"traceEvents\" array in the trace object".into());
            };
            let dropped = root
                .get("otherData")
                .and_then(|o| o.get("dropped_spans"))
                .and_then(Json::num)
                .unwrap_or(0.0) as u64;
            (events, dropped)
        }
        _ => return Err("a trace is a JSON object or event array".into()),
    };
    let mut trace = Trace { spans: Vec::new(), dropped };
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Json::Obj(_)) {
            return Err(format!("event {i} is not an object"));
        }
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i} missing \"{k}\""));
        let kind = match field("ph")?.str() {
            Some("X") => SpanKind::Complete,
            Some("i") | Some("I") => SpanKind::Instant,
            _ => continue, // metadata/counter events of foreign traces
        };
        let mut trace_id = TraceId::NONE;
        let mut args = Vec::new();
        if let Some(Json::Obj(a)) = ev.get("args") {
            for (k, v) in a {
                let Some(v) = v.num() else { continue };
                if k == "trace" {
                    trace_id = TraceId(v as u64);
                } else {
                    args.push((k.clone().into(), v));
                }
            }
        }
        let dur = match kind {
            SpanKind::Complete => {
                ns(field("dur")?.num().ok_or_else(|| format!("event {i}: non-numeric dur"))?)
            }
            SpanKind::Instant => 0,
        };
        trace.spans.push(SpanRecord {
            name: field("name")?
                .str()
                .ok_or_else(|| format!("event {i}: non-string name"))?
                .to_owned()
                .into(),
            cat: ev.get("cat").and_then(Json::str).unwrap_or_default().to_owned().into(),
            kind,
            trace: trace_id,
            start_ns: ns(field("ts")?.num().ok_or_else(|| format!("event {i}: non-numeric ts"))?),
            dur_ns: dur,
            tid: ev.get("tid").and_then(Json::num).unwrap_or(0.0) as u64,
            args,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    name: "queue".into(),
                    cat: "serve".into(),
                    kind: SpanKind::Complete,
                    trace: TraceId(3),
                    start_ns: 1_234,
                    dur_ns: 50_000,
                    tid: 2,
                    args: vec![("class".into(), 1.0)],
                },
                SpanRecord {
                    name: "cache_dir_fallback".into(),
                    cat: "warn".into(),
                    kind: SpanKind::Instant,
                    trace: TraceId::NONE,
                    start_ns: 9_000,
                    dur_ns: 0,
                    tid: 0,
                    args: vec![],
                },
                SpanRecord {
                    name: "execute \"x\"".into(),
                    cat: "serve".into(),
                    kind: SpanKind::Complete,
                    trace: TraceId(3),
                    start_ns: 60_000,
                    dur_ns: 123_456,
                    tid: 2,
                    args: vec![("batch_size".into(), 4.0), ("cache_hit".into(), 1.0)],
                },
            ],
            dropped: 7,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let trace = sample();
        let text = render_chrome(&trace);
        let back = parse_chrome(&text).expect("rendered traces parse");
        assert_eq!(back.dropped, trace.dropped);
        assert_eq!(back.spans, trace.spans);
    }

    #[test]
    fn bare_event_arrays_parse() {
        let text = r#"[{"name": "a", "ph": "X", "ts": 1.5, "dur": 2.0, "tid": 9}]"#;
        let trace = parse_chrome(text).unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].start_ns, 1500);
        assert_eq!(trace.spans[0].dur_ns, 2000);
        assert_eq!(trace.spans[0].tid, 9);
    }

    #[test]
    fn metadata_events_are_skipped() {
        let text = r#"{"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0},
            {"name": "work", "ph": "X", "ts": 0, "dur": 1}
        ]}"#;
        let trace = parse_chrome(text).unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "work");
    }

    #[test]
    fn malformed_traces_are_rejected() {
        for bad in [
            "",
            "{",
            "3.5",
            r#"{"traceEvents": 3}"#,
            r#"{"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}"#,
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0}]}"#,
            r#"{"traceEvents": []} trailing"#,
        ] {
            assert!(parse_chrome(bad).is_err(), "accepted {bad:?}");
        }
    }
}
