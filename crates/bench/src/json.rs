//! Machine-readable benchmark output and the regression-gate codec.
//!
//! Every bench binary can emit its numbers as a flat JSON array of
//! records — one `(bench, device, metric, value)` quadruple per line —
//! via `--json <path>`. CI uploads these as artifacts (the perf
//! trajectory of the repo) and the `bench_diff` binary compares them
//! against the checked-in `bench/baseline.json` with a relative
//! tolerance, failing the job on regression.
//!
//! This module maps exactly this schema over `smartmem-json`'s parser
//! and writer helpers:
//!
//! ```json
//! [
//!   {"bench": "fig11", "device": "mali_g710", "metric": "Swin.latency_ms", "value": 41.45}
//! ]
//! ```

use smartmem_json::{escape, fmt_value, Json};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One benchmark measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Which bench produced it (`fig11`, `serve_bench`, `pass_timing`).
    pub bench: String,
    /// Device slug (`DeviceConfig::slug`), or `pool` for aggregates
    /// spanning every device.
    pub device: String,
    /// Metric name, dot-scoped by model/framework where applicable
    /// (`Swin.latency_ms`, `throughput_rps`).
    pub metric: String,
    /// The measurement.
    pub value: f64,
}

impl BenchRecord {
    /// Convenience constructor.
    pub fn new(
        bench: impl Into<String>,
        device: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        BenchRecord { bench: bench.into(), device: device.into(), metric: metric.into(), value }
    }

    /// The comparison key `bench/device/metric`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.bench, self.device, self.metric)
    }

    /// Whether a larger value of this metric is an improvement (`true`
    /// for throughput/rate/speedup-flavoured metrics, and for
    /// `mean_batch` — fuller batches are the pull-mode win) or a
    /// regression (`false`: latencies, counts of bad events). The
    /// convention is part of the schema: name metrics accordingly.
    pub fn higher_is_better(&self) -> bool {
        ["throughput", "gmacs", "hit_rate", "speedup", "served", "mean_batch", "tokens_per_s"]
            .iter()
            .any(|tag| self.metric.contains(tag))
    }
}

/// Renders records as a stable, diff-friendly JSON array (one record
/// per line, input order preserved).
pub fn render_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        // Values always carry a decimal point, so an integral
        // measurement still reads as a float in the checked-in baseline.
        let mut value = fmt_value(r.value);
        if r.value.is_finite() && !value.contains('.') {
            value.push_str(".0");
        }
        let _ = write!(
            out,
            "  {{\"bench\": \"{}\", \"device\": \"{}\", \"metric\": \"{}\", \"value\": {}}}",
            escape(&r.bench),
            escape(&r.device),
            escape(&r.metric),
            value,
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes records to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json(path: &Path, records: &[BenchRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(records))
}

/// Parses the bench-record schema: an array of flat objects with
/// string `bench`/`device`/`metric` fields and a numeric `value`.
/// Unknown keys are ignored; anything structurally different is an
/// error.
pub fn parse_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let Json::Arr(items) = smartmem_json::parse(text).map_err(|e| e.to_string())? else {
        return Err("bench records are a JSON array".into());
    };
    let record = |(i, item): (usize, &Json)| -> Result<BenchRecord, String> {
        if !matches!(item, Json::Obj(_)) {
            return Err(format!("record {i} is not an object"));
        }
        let field =
            |key: &str| item.get(key).ok_or_else(|| format!("record {i} missing \"{key}\""));
        let text = |key: &str| -> Result<String, String> {
            let s = field(key)?.str();
            Ok(s.ok_or_else(|| format!("record {i}: \"{key}\" is not a string"))?.to_string())
        };
        Ok(BenchRecord {
            bench: text("bench")?,
            device: text("device")?,
            metric: text("metric")?,
            // The writer renders a non-finite measurement as null.
            value: field("value")?
                .num()
                .ok_or_else(|| format!("record {i}: \"value\" is not a finite number"))?,
        })
    };
    items.iter().enumerate().map(record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let records = vec![
            BenchRecord::new("fig11", "mali_g710", "Swin.latency_ms", 41.45),
            BenchRecord::new("serve_bench", "pool", "throughput_rps", 1234.0),
            BenchRecord::new("fig11", "server_npu", "ViT.speedup_vs_mnn", 3.5e-2),
        ];
        let text = render_json(&records);
        assert_eq!(parse_json(&text).unwrap(), records);
    }

    #[test]
    fn empty_array_roundtrips() {
        assert_eq!(parse_json(&render_json(&[])).unwrap(), vec![]);
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        let records = vec![BenchRecord::new("a\"b\\c", "d", "e\nf", -0.5)];
        assert_eq!(parse_json(&render_json(&records)).unwrap(), records);
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let text = r#"[{"bench": "b", "note": "extra", "device": "d", "metric": "m", "count": 3, "value": 1.5}]"#;
        assert_eq!(parse_json(text).unwrap(), vec![BenchRecord::new("b", "d", "m", 1.5)]);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[{]",
            "[] trailing",
            r#"[{"bench": "b"}]"#,
            r#"[{"bench": "b", "device": "d", "metric": "m", "value": null}]"#,
            r#"[{"bench": "b", "device": "d", "metric": "m", "value": 1}] trailing"#,
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn direction_convention() {
        assert!(BenchRecord::new("b", "d", "throughput_rps", 1.0).higher_is_better());
        assert!(BenchRecord::new("b", "d", "cache_hit_rate", 1.0).higher_is_better());
        assert!(BenchRecord::new("b", "d", "Swin.speedup_vs_mnn", 1.0).higher_is_better());
        assert!(BenchRecord::new("b", "d", "mean_batch", 1.0).higher_is_better());
        assert!(BenchRecord::new("b", "d", "decode.tokens_per_s", 1.0).higher_is_better());
        assert!(!BenchRecord::new("b", "d", "decode.p99_step_ms", 1.0).higher_is_better());
        assert!(!BenchRecord::new("b", "d", "Swin.latency_ms", 1.0).higher_is_better());
        assert!(!BenchRecord::new("b", "d", "p99_e2e_ms", 1.0).higher_is_better());
        assert!(!BenchRecord::new("b", "d", "batches", 1.0).higher_is_better());
    }
}
