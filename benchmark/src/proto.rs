//! Parent ↔ child plumbing. One sample of a workload is one fresh child
//! process (the binary re-executes itself): the LTE memo and the index
//! interner are process-global, so only a new process is cold. A child
//! reports on stdout, one record a line:
//!
//! ```text
//! v <name> <value>                         a measured value (repeatable)
//! s <name> <trace> <start_ns> <dur_ns>     a span of the child's tracer
//! g <hex>                                  signature of the child's outputs
//! f <message>                              a failed check
//! ```

use smartmem_telemetry::{Trace, TraceId, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Span category of everything this benchmark records.
pub const CATEGORY: &str = "benchmark";

/// Ring capacity of a benchmark tracer: above the span count of the
/// longest traced run (a few spans per request), so none are dropped.
const SPAN_CAPACITY: usize = 1 << 17;

/// Recording tracer when `on`, otherwise the no-op one.
pub fn tracer(on: bool) -> Tracer {
    if on {
        Tracer::new(SPAN_CAPACITY, 1)
    } else {
        Tracer::disabled()
    }
}

/// Scratch and output directory, `benchmark/out` (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn emit_value(name: &str, value: f64) {
    println!("v {name} {value}");
}

pub fn emit_signature(signature: u64) {
    println!("g {signature:016x}");
}

pub fn emit_failure(message: &str) {
    println!("f {}", message.replace('\n', " "));
}

/// Prints every span the child's tracer recorded.
pub fn emit_spans(trace: &Trace) {
    for s in &trace.spans {
        println!("s {} {} {} {}", s.name, s.trace.0, s.start_ns, s.dur_ns);
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One span line of a child, times relative to the child's own epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildSpan {
    pub name: String,
    pub trace: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything one child process reported.
#[derive(Clone, Debug, Default)]
pub struct ChildReport {
    pub values: BTreeMap<String, Vec<f64>>,
    pub spans: Vec<ChildSpan>,
    pub signature: Option<String>,
    pub failures: Vec<String>,
}

impl ChildReport {
    /// The single value a child reported under `name`.
    pub fn value(&self, name: &str) -> f64 {
        match self.values.get(name).map(Vec::as_slice) {
            Some([v]) => *v,
            other => panic!("child reported {other:?} for `{name}`, expected one value"),
        }
    }

    /// Every value a child reported under `name` (empty when none).
    pub fn all(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Parses a child's stdout. Unknown or malformed lines are failures, so
/// a child that panics halfway cannot pass for a short sample.
pub fn parse_report(stdout: &str) -> ChildReport {
    let mut report = ChildReport::default();
    for line in stdout.lines() {
        let mut parts = line.splitn(2, ' ');
        let (tag, rest) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        let fields: Vec<&str> = rest.split(' ').collect();
        match (tag, fields.as_slice()) {
            ("v", [name, value]) => match value.parse::<f64>() {
                Ok(v) => report.values.entry(name.to_string()).or_default().push(v),
                Err(_) => report.failures.push(format!("bad value line: {line}")),
            },
            ("s", [name, trace, start, dur]) => match (trace.parse(), start.parse(), dur.parse()) {
                (Ok(trace), Ok(start_ns), Ok(dur_ns)) => {
                    report.spans.push(ChildSpan { name: name.to_string(), trace, start_ns, dur_ns })
                }
                _ => report.failures.push(format!("bad span line: {line}")),
            },
            ("g", [hex]) => report.signature = Some(hex.to_string()),
            ("f", _) => report.failures.push(rest.to_string()),
            _ => report.failures.push(format!("unparsed child output: {line}")),
        }
    }
    report
}

/// Runs this binary again as `--child <args…>` and waits for it. The
/// child's spans are re-recorded into `tracer`, shifted onto the
/// parent's clock, each child trace under a fresh trace id.
pub fn run_child(args: &[String], tracer: &Tracer) -> ChildReport {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let spawned_ns = smartmem_telemetry::now_ns();
    let started = Instant::now();
    let output = Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn benchmark child");
    let mut report = parse_report(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() {
        report.failures.push(format!("child {args:?} exited with {}", output.status));
    }
    report.values.entry("child_wall_s".into()).or_default().push(started.elapsed().as_secs_f64());
    let mut ids: BTreeMap<u64, TraceId> = BTreeMap::new();
    for span in &report.spans {
        let id = *ids.entry(span.trace).or_insert_with(|| tracer.mint().unwrap_or(TraceId::NONE));
        tracer.record_complete(
            span.name.clone(),
            CATEGORY,
            id,
            spawned_ns + span.start_ns,
            span.dur_ns,
            0,
            Vec::new(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_round_trip() {
        let report = parse_report(
            "v compile_ms 301.25\nv op_ms 1.5\nv op_ms 2.5\ns core.estimate 3 100 50\n\
             g 00ff\nf latency drifted on ViT\n",
        );
        assert_eq!(report.value("compile_ms"), 301.25);
        assert_eq!(report.all("op_ms"), [1.5, 2.5]);
        assert_eq!(report.all("absent"), [] as [f64; 0]);
        assert_eq!(
            report.spans,
            [ChildSpan { name: "core.estimate".into(), trace: 3, start_ns: 100, dur_ns: 50 }]
        );
        assert_eq!(report.signature.as_deref(), Some("00ff"));
        assert_eq!(report.failures, ["latency drifted on ViT"]);
    }

    #[test]
    fn stray_output_is_a_failure() {
        let report = parse_report("thread 'main' panicked at src/main.rs\nv x notanumber\n");
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn values_keep_every_digit() {
        let x = 0.1f64 + 0.2;
        let report = parse_report(&format!("v x {x}\n"));
        assert_eq!(report.value("x").to_bits(), x.to_bits());
    }
}
