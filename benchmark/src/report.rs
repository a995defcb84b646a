//! The metric tables (they must match `BENCHMARK.json`), the result of
//! one run, and how it is printed.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics only: the share of the reference median by
    /// which the metric may get worse before it counts as a regression.
    pub bound: Option<f64>,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, bound: None }
}

const fn bounded(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec { name, unit, bound: Some(bound) }
}

/// End-to-end metrics: printed by every untraced run of every workload.
/// `sim_ms` is simulated device time — what the cost model says, not
/// what the host took.
pub const END_TO_END: [Spec; 9] = [
    bounded("setup_s", "s", 0.25),
    bounded("compile_ms", "ms", 0.25),
    bounded("estimate_ms", "ms", 0.25),
    bounded("sim_latency", "sim_ms", 0.001),
    bounded("speedup_vs_dnnfusion", "x", 0.001),
    bounded("peak_rss_mb", "MB", 0.1),
    bounded("ops_per_s", "1/s", 0.15),
    bounded("p50_op_ms", "ms", 0.25),
    bounded("goodput_share", "share", 0.25),
];

impl Spec {
    /// Deterministic metrics — simulated time and ratios of it — repeat
    /// exactly from run to run of the same code.
    pub fn is_exact(&self) -> bool {
        matches!(self.unit, "sim_ms" | "x")
    }
}

/// Per-layer metrics: printed by every traced run of every workload.
pub const PER_LAYER: [Spec; 66] = [
    spec("core.pass.streamline_ms", "ms"),
    spec("core.pass.lte_ms", "ms"),
    spec("core.pass.fusion_ms", "ms"),
    spec("core.pass.assemble-groups_ms", "ms"),
    spec("core.pass.layout-select_ms", "ms"),
    spec("core.pass.tune_ms", "ms"),
    spec("core.pass.streamline.ops_after", "count"),
    spec("core.pass.lte.eliminated_ops", "count"),
    spec("core.pass.assemble-groups.kernels", "count"),
    spec("core.streamline.transposes_removed", "count"),
    spec("core.layout-select.redundant_tensors", "count"),
    spec("core.fingerprint_ms", "ms"),
    spec("core.session.mem_hit_us", "us"),
    spec("core.session.disk_hit_ms", "ms"),
    spec("core.session.open_ms", "ms"),
    spec("core.session.write_through_ms", "ms"),
    spec("core.persist.artifact_bytes", "bytes"),
    spec("core.groupcache.hit_ratio", "share"),
    spec("core.groupcache.misses_per_edit", "count"),
    spec("core.session.incremental_ms", "ms"),
    spec("core.estimate.ms", "ms"),
    spec("core.estimate.us_per_kernel", "us"),
    spec("sim.zoo.latency_ms", "sim_ms"),
    spec("sim.zoo.launch_ms", "sim_ms"),
    spec("sim.zoo.compute_bound_ms", "sim_ms"),
    spec("sim.zoo.memory_bound_ms", "sim_ms"),
    spec("sim.zoo.index_ms", "sim_ms"),
    spec("sim.zoo.explicit_ms", "sim_ms"),
    spec("sim.zoo.implicit_ms", "sim_ms"),
    spec("sim.zoo.kernels", "count"),
    spec("sim.zoo.dram_mb", "MB"),
    spec("sim.zoo.peak_memory_mb", "MB"),
    spec("sim.memory.ns_per_access", "ns"),
    spec("sim.kernel_cost.ns_per_call", "ns"),
    spec("index.compose_simplify.us_per_map", "us"),
    spec("ir.import.mb_per_s", "MB/s"),
    spec("ir.export.mb_per_s", "MB/s"),
    spec("ir.wire.encode_mb_per_s", "MB/s"),
    spec("ir.wire.decode_mb_per_s", "MB/s"),
    spec("ir.import.roundtrip_failures", "count"),
    spec("models.build_ms", "ms"),
    spec("ir.graph.source_ops", "count"),
    spec("baselines.dnnfusion.compile_ms", "ms"),
    spec("baselines.tvm.compile_ms", "ms"),
    spec("baselines.mnn.compile_ms", "ms"),
    spec("serve.submit_us.p50", "us"),
    spec("serve.queue_ms.p50", "ms"),
    spec("serve.queue_ms.p99", "ms"),
    spec("serve.exec_ms.p50", "sim_ms"),
    spec("serve.host_overhead_ms.p50", "ms"),
    spec("serve.e2e_ms.p99", "ms"),
    spec("serve.gen_late_ms.p99", "ms"),
    spec("serve.batch.mean_size", "count"),
    spec("serve.batch.count", "count"),
    spec("serve.device.snapdragon_8_gen_2.share", "share"),
    spec("serve.device.snapdragon_835.share", "share"),
    spec("serve.device.dimensity_700.share", "share"),
    spec("serve.device.mali_g710.share", "share"),
    spec("serve.device.apple_m1.share", "share"),
    spec("serve.device.server_npu.share", "share"),
    spec("serve.cache.hit_rate", "share"),
    spec("serve.slo_violations.interactive", "count"),
    spec("serve.batcher.push_ns", "ns"),
    spec("serve.batcher.pull_ns", "ns"),
    spec("serve.scheduler.place_ns", "ns"),
    spec("telemetry.span_ns", "ns"),
];

/// A metric's value and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub metrics: BTreeMap<String, Measured>,
    /// Operations attempted: compiles, requests, and correctness checks.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_string(), Measured { value, samples });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |m| m.value)
    }

    /// Whether the run produced exactly the metrics of `specs`, all
    /// finite — the shape the final JSON line promises.
    pub fn complete(&self, specs: &[Spec]) -> Result<(), String> {
        for s in specs {
            match self.metrics.get(s.name) {
                Some(m) if m.value.is_finite() => {}
                Some(m) => return Err(format!("metric {} is {}", s.name, m.value)),
                None => return Err(format!("metric {} was not measured", s.name)),
            }
        }
        match self.metrics.keys().find(|k| specs.iter().all(|s| s.name != k.as_str())) {
            Some(extra) => Err(format!("metric {extra} is not declared")),
            None => Ok(()),
        }
    }

    /// The human-readable table: every metric by name, with its unit and
    /// sample count, then the failures.
    pub fn print(&self, specs: &[Spec]) {
        println!("== {} ==", self.workload);
        for s in specs {
            if let Some(m) = self.metrics.get(s.name) {
                println!("{:<44} {:>16.6} {:<7} n={}", s.name, m.value, s.unit, m.samples);
            }
        }
        let failed = self.failures.len() as u64;
        let share = failed as f64 / self.attempted.max(1) as f64;
        println!("attempted {}  failed {}  failed_share {share}", self.attempted, failed);
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn json(&self, specs: &[Spec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .filter_map(|s| self.metrics.get(s.name).map(|m| (s, m)))
            .map(|(s, m)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", s.name, m.value, s.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut run = RunResult { workload: "w".into(), attempted: 10, ..Default::default() };
        run.set("setup_s", 0.5, 3);
        run.set("compile_ms", 301.25, 9);
        let specs = [bounded("setup_s", "s", 0.25), spec("compile_ms", "ms")];
        assert_eq!(
            run.json(&specs),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"compile_ms\": {\"value\": 301.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(run.complete(&specs), Ok(()));
        run.failures.push("boom".into());
        assert!(run
            .json(&specs)
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
        assert!(run.complete(&specs[..1]).is_err(), "compile_ms is not declared there");
        run.set("setup_s", f64::NAN, 0);
        assert!(run.complete(&specs).is_err());
    }

    /// `BENCHMARK.json` is hand-written beside this table: keep the two
    /// in step, name by name and unit by unit.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str, next: &str| {
            let from = text.find(&format!("\"{key}\"")).expect("section present");
            let to = text[from..].find(&format!("\"{next}\"")).map_or(text.len(), |t| from + t);
            &text[from..to]
        };
        type Row = (String, String, Option<f64>);
        let declared = |block: &str| -> Vec<Row> {
            block
                .split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().expect("name").to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                    let bound = entry.split("\"bound\": ").nth(1).map(|b| {
                        b.split('}')
                            .next()
                            .expect("bound")
                            .trim()
                            .parse()
                            .expect("bound is a number")
                    });
                    (name, unit.split('"').next().expect("unit").to_string(), bound)
                })
                .collect()
        };
        let table = |specs: &[Spec]| -> Vec<Row> {
            specs.iter().map(|s| (s.name.to_string(), s.unit.to_string(), s.bound)).collect()
        };
        assert_eq!(declared(section("end_to_end", "per_layer")), table(&END_TO_END));
        assert_eq!(declared(section("per_layer", "\u{0}")), table(&PER_LAYER));
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{s:?} is over the length limits");
            assert!(s.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
