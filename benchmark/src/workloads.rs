//! Parent side: runs one workload — untraced for the end-to-end metrics,
//! traced for the per-layer ledger — by spawning fresh child processes
//! for every sample and joining what they report.

use crate::compile::CompileWorkload;
use crate::inputs::{Inputs, ModelSet};
use crate::proto::{self, ChildReport};
use crate::report::RunResult;
use crate::serve::ServeWorkload;
use crate::stats::{self, Interval};
use crate::{check, ledger, probes};
use smartmem_baselines::{DnnFusionFramework, MnnFramework, TvmFramework};
use smartmem_core::Framework;
use smartmem_telemetry::{render_chrome, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One of the five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Compile(CompileWorkload),
    Serve(ServeWorkload),
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Compile(CompileWorkload::Cold),
        Workload::Compile(CompileWorkload::Warm),
        Workload::Compile(CompileWorkload::Edit),
        Workload::Serve(ServeWorkload::Steady),
        Workload::Serve(ServeWorkload::Saturated),
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile(w) => w.name(),
            Workload::Serve(w) => w.name(),
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The models and devices the workload compiles for.
    fn model_set(self) -> ModelSet {
        match self {
            Workload::Compile(_) => ModelSet::Zoo,
            Workload::Serve(_) => ModelSet::Served,
        }
    }
}

/// A compile workload takes at least this many child samples, however
/// short the run.
const MIN_COMPILE_SAMPLES: usize = 5;
/// Set-up is repeated this often (`compile_cold` and `compile_edit` set
/// up in every sample instead).
const SETUP_REPS: usize = 3;
/// Child samples of the pass ledger in a traced run.
const LEDGER_SAMPLES: usize = 3;
/// Seconds of `serve_steady` traffic a traced compile run replays as its
/// serve-layer control measurement.
const CONTROL_TRACE_SECONDS: f64 = 2.0;

/// A scratch directory under `benchmark/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let path = proto::out_dir().join(format!("scratch-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory under benchmark/out");
        Scratch(path)
    }

    fn arg(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Collects children's reports and folds their failures and signatures
/// into the run.
struct Run<'a> {
    result: RunResult,
    tracer: &'a Tracer,
    seed: u64,
    /// Output signature per model set: every sweep of a set, in whatever
    /// process and through whatever cache level, must produce it.
    signatures: BTreeMap<String, String>,
}

impl Run<'_> {
    fn child(&mut self, kind: &str, args: &[String], signature_of: Option<&str>) -> ChildReport {
        let mut full = vec![kind.to_string()];
        full.extend_from_slice(args);
        full.extend(["--seed".into(), self.seed.to_string()]);
        full.extend(["--trace".into(), u8::from(self.tracer.is_enabled()).to_string()]);
        let report = proto::run_child(&full, self.tracer);
        for failure in &report.failures {
            self.result.failures.push(format!("{kind}: {failure}"));
        }
        if let Some(set) = signature_of {
            let got = report.signature.clone().unwrap_or_else(|| "none".into());
            let want = self.signatures.entry(set.to_string()).or_insert_with(|| got.clone());
            if *want != got {
                self.result.failures.push(format!(
                    "{kind}: outputs of the {set} sweep differ between samples ({want} vs {got}): \
                     OptStats or simulated latency did not repeat bit for bit"
                ));
            }
        }
        report
    }
}

/// Set-up time of a child: its wall time less what it measured.
fn setup_s(report: &ChildReport) -> f64 {
    report.value("child_wall_s") - report.all("not_setup_s").iter().sum::<f64>()
}

/// `speedup_vs_dnnfusion`: geomean over the models both frameworks
/// compile of DNNFusion's simulated latency over SmartMem's, on the
/// set's first device, and how many models that is. SmartMem's latencies
/// are the children's; the DNNFusion sweep runs here.
fn speedup_vs_dnnfusion(inputs: &Inputs, smartmem: &ChildReport) -> (f64, usize) {
    let (_, dnnfusion) = ledger::baseline_sweep(&DnnFusionFramework::new(), inputs);
    let slug = inputs.devices[0].slug();
    let ratios: Vec<f64> = inputs
        .graphs
        .iter()
        .zip(dnnfusion)
        .filter_map(|((name, _), theirs)| {
            let ours = smartmem.all(&format!("latency:{name}@{slug}")).first()?;
            Some(theirs? / ours)
        })
        .collect();
    (stats::geomean(&ratios), ratios.len())
}

/// Runs `workload` once. Untraced, the result carries the end-to-end
/// metrics; traced, the per-layer ones, and the spans are appended to
/// `benchmark/out/trace.json`'s tracer.
pub fn run(workload: Workload, seed: u64, seconds: f64, tracer: &Tracer) -> RunResult {
    let mut run = Run {
        result: RunResult { workload: workload.name().to_string(), ..Default::default() },
        tracer,
        seed,
        signatures: BTreeMap::new(),
    };
    let (checked, failures) = check::differential();
    run.result.attempted += checked;
    run.result.failures.extend(failures);
    match (workload, tracer.is_enabled()) {
        (Workload::Compile(w), false) => compile_end_to_end(&mut run, w, seconds),
        (Workload::Serve(w), false) => serve_end_to_end(&mut run, w, seconds),
        (_, true) => per_layer(&mut run, workload, seconds),
    }
    run.result
}

fn compile_end_to_end(run: &mut Run, workload: CompileWorkload, seconds: f64) {
    let scratch = Scratch::new(workload.name());
    let mut setups = Vec::new();
    let mut dir = scratch.arg();
    if workload == CompileWorkload::Warm {
        // Each repetition populates a directory of its own; the samples
        // read the last one.
        for rep in 0..SETUP_REPS {
            dir = format!("{}/cache-{rep}", scratch.arg());
            let report = run.child("populate", &[dir.clone()], Some("zoo"));
            setups.push(setup_s(&report));
        }
    }
    let started = Instant::now();
    let mut samples: Vec<ChildReport> = Vec::new();
    while samples.len() < MIN_COMPILE_SAMPLES || started.elapsed().as_secs_f64() < seconds {
        // compile_edit's outputs are the edited variants': a set of its own.
        let set = if workload == CompileWorkload::Edit { "zoo-edited" } else { "zoo" };
        let args = [workload.name().to_string(), dir.clone()];
        samples.push(run.child("sample", &args, Some(set)));
    }
    if workload != CompileWorkload::Warm {
        setups = samples.iter().map(setup_s).collect();
    }
    let column = |name: &str| -> Vec<f64> { samples.iter().map(|s| s.value(name)).collect() };
    let n = samples.len();
    let result = &mut run.result;
    result.set("setup_s", stats::least(&setups), setups.len());
    result.set("compile_ms", stats::least(&column("compile_ms")), n);
    result.set("estimate_ms", stats::least(&column("estimate_ms")), n);
    result.set("sim_latency", samples[0].value("sim_latency"), n);
    result.set("peak_rss_mb", stats::median(&column("peak_rss_mb")), n);
    // One operation is one model compiled and estimated: per sample, the
    // sweep's seconds per operation and the median operation; over the
    // samples, the least disturbed of each.
    let ops: usize = samples.iter().map(|s| s.all("op_ms").len()).sum();
    let s_per_op: Vec<f64> = samples
        .iter()
        .map(|s| {
            (s.value("compile_ms") + s.value("estimate_ms")) / 1e3 / s.all("op_ms").len() as f64
        })
        .collect();
    let p50_op_ms: Vec<f64> = samples.iter().map(|s| stats::median(s.all("op_ms"))).collect();
    result.set("ops_per_s", 1.0 / stats::least(&s_per_op), n);
    result.set("p50_op_ms", stats::least(&p50_op_ms), ops);
    let failed_ops: f64 = column("ops_failed").iter().sum();
    result.set("goodput_share", 1.0 - failed_ops / ops as f64, ops);
    result.attempted += ops as u64;
    if workload == CompileWorkload::Edit {
        let misses = column("group_misses");
        if misses.iter().any(|m| *m != misses[0]) {
            result.failures.push(format!("group-cache misses differ between samples: {misses:?}"));
        }
    }
    // The baseline compiles what the workload compiles: the zoo, or the
    // edited variants of it.
    let mut compared = Inputs::build(ModelSet::Zoo);
    if workload == CompileWorkload::Edit {
        compared = Inputs::of_variants(compared.edited(run.seed).0, &compared.devices);
    }
    let (speedup, models) = speedup_vs_dnnfusion(&compared, &samples[0]);
    run.result.set("speedup_vs_dnnfusion", speedup, models);
}

fn serve_end_to_end(run: &mut Run, workload: ServeWorkload, seconds: f64) {
    let scratch = Scratch::new(workload.name());
    // The deployment is repeated; only the last repetition goes on to
    // replay the trace.
    let reports: Vec<ChildReport> = (0..SETUP_REPS)
        .map(|rep| {
            let requests = if rep + 1 == SETUP_REPS { workload.requests(seconds) } else { 0 };
            let args = [
                workload.name().to_string(),
                requests.to_string(),
                format!("{}/cache-{rep}", scratch.arg()),
            ];
            run.child("serve", &args, Some("served"))
        })
        .collect();
    let last = reports.last().expect("SETUP_REPS > 0");
    let column = |name: &str| -> Vec<f64> { reports.iter().map(|r| r.value(name)).collect() };
    let setups: Vec<f64> = reports.iter().map(setup_s).collect();
    let result = &mut run.result;
    result.set("setup_s", stats::least(&setups), SETUP_REPS);
    result.set("compile_ms", stats::least(&column("compile_ms")), SETUP_REPS);
    result.set("estimate_ms", stats::least(&column("estimate_ms")), SETUP_REPS);
    result.set("sim_latency", last.value("sim_latency"), SETUP_REPS);
    // One operation is one request answered.
    let sent = last.value("sent") as usize;
    for name in ["peak_rss_mb", "ops_per_s", "p50_op_ms", "goodput_share"] {
        result.set(name, last.value(name), if name == "peak_rss_mb" { 1 } else { sent });
    }
    result.attempted += sent as u64;
    println!(
        "{}: sent {sent}  succeeded {}  failed {}",
        workload.name(),
        last.value("succeeded"),
        sent as f64 - last.value("succeeded")
    );
    if last.value("generator_late") != 0.0 {
        println!("INVALID: the load generator ran late in every replay; see serve.gen_late_ms.p99");
    }
    let (speedup, models) = speedup_vs_dnnfusion(&Inputs::build(ModelSet::Served), last);
    run.result.set("speedup_vs_dnnfusion", speedup, models);
}

/// Self time in ms of every span a child reported, by span name.
fn self_ms_by_name(report: &ChildReport) -> BTreeMap<&str, Vec<f64>> {
    let intervals: Vec<Interval> = report
        .spans
        .iter()
        .map(|s| Interval { trace: s.trace, start_ns: s.start_ns, dur_ns: s.dur_ns })
        .collect();
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, own_ns) in report.spans.iter().zip(stats::self_times(&intervals)) {
        by_name.entry(span.name.as_str()).or_default().push(own_ns as f64 / 1e6);
    }
    by_name
}

/// The traced run: the per-layer ledger over the workload's models and
/// devices, plus the workload's (or, for a compile workload, a short
/// control) serve trace with one span tree per request.
fn per_layer(run: &mut Run, workload: Workload, seconds: f64) {
    let scratch = Scratch::new(workload.name());
    let set = workload.model_set();
    let inputs = Inputs::build(set);
    // Leaf probes first, while this process has interned and memoized
    // nothing.
    let seed = run.seed;
    run.result.set("index.compose_simplify.us_per_map", probes::compose_simplify_us(seed), 512);
    run.result.set("sim.memory.ns_per_access", probes::memory_access_ns(seed), 1 << 21);
    run.result.set("sim.kernel_cost.ns_per_call", probes::kernel_cost_ns(seed), 1 << 21);
    let (push_ns, pull_ns) = probes::batcher_ns(seed);
    run.result.set("serve.batcher.push_ns", push_ns, 1 << 15);
    run.result.set("serve.batcher.pull_ns", pull_ns, 1 << 12);
    let place_ns = probes::place_ns(seed, crate::inputs::serve_devices());
    run.result.set("serve.scheduler.place_ns", place_ns, 1 << 20);
    run.result.set("telemetry.span_ns", probes::span_ns(), 1 << 18);

    // Passes and estimator, layer by layer, in cold processes.
    let ledgers: Vec<ChildReport> = (0..LEDGER_SAMPLES)
        .map(|_| run.child("passes", &[set.name().to_string()], Some(set.name())))
        .collect();
    let own: Vec<BTreeMap<&str, Vec<f64>>> = ledgers.iter().map(self_ms_by_name).collect();
    let span_total = |name: &str| -> f64 {
        let totals: Vec<f64> =
            own.iter().map(|o| o.get(name).map_or(0.0, |v| v.iter().sum())).collect();
        stats::least(&totals)
    };
    for pass in ["streamline", "lte", "fusion", "assemble-groups", "layout-select", "tune"] {
        let total = span_total(&format!("core.pass.{pass}"));
        run.result.set(&format!("core.pass.{pass}_ms"), total, LEDGER_SAMPLES);
    }
    let estimate_ms = span_total("core.estimate");
    let kernels = ledgers[0].value("sim.zoo.kernels");
    run.result.set("core.estimate.ms", estimate_ms, LEDGER_SAMPLES);
    run.result.set("core.estimate.us_per_kernel", estimate_ms * 1e3 / kernels, LEDGER_SAMPLES);
    let build: Vec<f64> = ledgers.iter().map(|l| l.value("models.build_ms")).collect();
    run.result.set("models.build_ms", stats::least(&build), LEDGER_SAMPLES);
    // Everything else the pass ledger reports is deterministic: counts
    // and simulated time must repeat exactly from child to child.
    for (name, values) in &ledgers[0].values {
        if name == "models.build_ms" || name == "child_wall_s" {
            continue;
        }
        if ledgers.iter().any(|l| l.all(name) != values.as_slice()) {
            run.result.failures.push(format!("{name} differs between ledger samples"));
        }
        run.result.set(name, values[0], LEDGER_SAMPLES);
    }
    run.result.attempted += (LEDGER_SAMPLES * inputs.graphs.len() * inputs.devices.len()) as u64;

    // Cache levels, group cache and codecs.
    let caches =
        run.child("caches", &[set.name().to_string(), scratch.arg() + "/ladder"], Some(set.name()));
    let own = self_ms_by_name(&caches);
    let total = |name: &str| -> f64 { own.get(name).map_or(f64::NAN, |v| v.iter().sum()) };
    run.result.set("core.fingerprint_ms", total("core.fingerprint"), 1);
    run.result.set("core.session.write_through_ms", total("core.session.write_through"), 1);
    run.result.set("core.session.open_ms", total("core.session.open"), 1);
    run.result.set("core.session.disk_hit_ms", total("core.session.disk_hit"), 1);
    run.result.set("core.session.incremental_ms", total("core.session.incremental"), 1);
    for (name, values) in &caches.values {
        if name != "child_wall_s" {
            run.result.set(name, values[0], 1);
        }
    }

    // Baseline frameworks over the same models.
    let baselines: [(&str, Box<dyn Framework>); 3] = [
        ("dnnfusion", Box::new(DnnFusionFramework::new())),
        ("tvm", Box::new(TvmFramework::new())),
        ("mnn", Box::new(MnnFramework::new())),
    ];
    for (name, framework) in &baselines {
        let (compile_ms, _) = ledger::baseline_sweep(framework.as_ref(), &inputs);
        run.result.set(&format!("baselines.{name}.compile_ms"), compile_ms, 1);
    }

    // Serve layers: the workload's own trace at half length, or the
    // control trace.
    let (trace_workload, trace_seconds) = match workload {
        Workload::Serve(w) => (w, seconds / 2.0),
        Workload::Compile(_) => (ServeWorkload::Steady, CONTROL_TRACE_SECONDS),
    };
    let args = [
        trace_workload.name().to_string(),
        trace_workload.requests(trace_seconds).to_string(),
        scratch.arg() + "/deploy",
    ];
    let served = run.child("serve", &args, Some("served"));
    let sent = served.value("sent") as usize;
    for (name, values) in served.values.iter().filter(|(name, _)| name.starts_with("serve.")) {
        run.result.set(name, values[0], sent);
    }
    let own = self_ms_by_name(&served);
    let overhead = own.get("serve.request").map_or(f64::NAN, |v| stats::percentile_of(v, 50.0));
    run.result.set("serve.host_overhead_ms.p50", overhead, sent);
    run.result.attempted += sent as u64;
}

/// Writes everything `tracer` holds to `benchmark/out/trace.json`, in
/// Chrome `trace_event` form (`trace_view` digests it).
pub fn write_trace(tracer: &Tracer) -> PathBuf {
    let path = proto::out_dir().join("trace.json");
    std::fs::create_dir_all(proto::out_dir()).expect("create benchmark/out");
    std::fs::write(&path, render_chrome(&tracer.drain())).expect("write benchmark/out/trace.json");
    path
}
