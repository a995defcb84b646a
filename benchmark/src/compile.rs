//! Child side of the compile workloads: one fresh process compiles and
//! estimates one sweep of the workload's models and reports what it
//! timed. Every call into the crates under test is timed from outside,
//! around a public function.

use crate::inputs::{Inputs, Job, ModelSet};
use crate::proto::{self, CATEGORY};
use crate::stats;
use smartmem_core::{CompileSession, ModelReport, OptStats, SmartMemPipeline};
use smartmem_telemetry::{TraceId, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::Path;
use std::time::Instant;

/// The compile workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileWorkload {
    Cold,
    Warm,
    Edit,
}

impl CompileWorkload {
    pub fn name(self) -> &'static str {
        match self {
            CompileWorkload::Cold => "compile_cold",
            CompileWorkload::Warm => "compile_warm",
            CompileWorkload::Edit => "compile_edit",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        [CompileWorkload::Cold, CompileWorkload::Warm, CompileWorkload::Edit]
            .into_iter()
            .find(|w| w.name() == name)
    }
}

/// What one compile produced, reduced to what must repeat exactly.
pub struct Outcome {
    pub key: String,
    pub stats: OptStats,
    pub report: ModelReport,
}

/// Order-independent signature of a sweep's outputs: every `OptStats`
/// field and the bits of every simulated latency. Equal signatures mean
/// bit-identical optimizer and estimator results.
pub fn signature(outcomes: &[Outcome]) -> u64 {
    let mut lines: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{} {:?} {:016x}", o.key, o.stats, o.report.latency_ms.to_bits()))
        .collect();
    lines.sort_unstable();
    let mut h = DefaultHasher::new();
    for line in lines {
        h.write(line.as_bytes());
    }
    h.finish()
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One timed pass over `jobs`: `compiles` rounds of
/// `CompileSession::compile` over all of them, then one round of
/// `OptimizedGraph::estimate`. Failed compiles are reported and skipped.
pub struct Sweep {
    pub compile_ms: f64,
    pub estimate_ms: f64,
    /// Per job: its compiles plus its estimate.
    op_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    failed: usize,
}

fn sweep(
    session: &CompileSession,
    inputs: &Inputs,
    jobs: &[Job],
    compiles: usize,
    tracer: &Tracer,
) -> Sweep {
    let pipeline = SmartMemPipeline::new();
    let trace = tracer.mint().unwrap_or(TraceId::NONE);
    let mut op_ms = vec![0.0; jobs.len()];
    let mut outputs = vec![None; jobs.len()];
    let mut failed = 0;
    let compile_start = Instant::now();
    {
        let _sweep = tracer.span("compile.sweep", CATEGORY, trace);
        for round in 0..compiles {
            for (i, job) in jobs.iter().enumerate() {
                let (graph, device) = (&inputs.graphs[job.graph].1, &inputs.devices[job.device]);
                let start = Instant::now();
                let result = {
                    let _span = tracer.span("core.session.compile", CATEGORY, trace);
                    session.compile(&pipeline, graph, device)
                };
                op_ms[i] += ms_since(start);
                match result {
                    Ok(output) => outputs[i] = Some(output),
                    Err(e) if round == 0 => {
                        failed += 1;
                        proto::emit_failure(&format!("compile {}: {e}", inputs.key(*job)));
                    }
                    Err(_) => {}
                }
            }
        }
    }
    let compile_ms = ms_since(compile_start);
    let estimate_start = Instant::now();
    let mut outcomes = Vec::with_capacity(jobs.len());
    {
        let _sweep = tracer.span("estimate.sweep", CATEGORY, trace);
        for (i, job) in jobs.iter().enumerate() {
            let Some(output) = &outputs[i] else { continue };
            let start = Instant::now();
            let report = {
                let _span = tracer.span("core.estimate", CATEGORY, trace);
                output.optimized.estimate(&inputs.devices[job.device])
            };
            op_ms[i] += ms_since(start);
            outcomes.push(Outcome { key: inputs.key(*job), stats: output.optimized.stats, report });
        }
    }
    Sweep { compile_ms, estimate_ms: ms_since(estimate_start), op_ms, outcomes, failed }
}

/// Reports a sweep: the end-to-end timings (`extra_compile_ms` is
/// compile-side time spent outside the sweep, e.g. opening the cache),
/// one `op_ms` per job, the simulated latencies, and the signature.
pub fn emit_sweep(sweep: &Sweep, extra_compile_ms: f64) {
    proto::emit_value("compile_ms", sweep.compile_ms + extra_compile_ms);
    proto::emit_value("estimate_ms", sweep.estimate_ms);
    for ms in &sweep.op_ms {
        proto::emit_value("op_ms", *ms);
    }
    proto::emit_value("ops_failed", sweep.failed as f64);
    for o in &sweep.outcomes {
        proto::emit_value(&format!("latency:{}", o.key), o.report.latency_ms);
    }
    let latencies: Vec<f64> = sweep.outcomes.iter().map(|o| o.report.latency_ms).collect();
    proto::emit_value("sim_latency", stats::geomean(&latencies));
    proto::emit_signature(signature(&sweep.outcomes));
}

/// One cold sweep of `inputs` through a session that writes every
/// artifact through to `dir`. The session is dropped before returning,
/// so the final memo and group-cache flush falls inside the caller's
/// timed region.
pub fn populate(inputs: &Inputs, seed: u64, dir: &Path, tracer: &Tracer) -> Sweep {
    let jobs = inputs.jobs(seed);
    let session = CompileSession::with_cache_dir(dir).expect("create the cache directory");
    let swept = sweep(&session, inputs, &jobs, 1, tracer);
    let stats = session.stats();
    if stats.misses != jobs.len() || stats.disk_hits != 0 {
        proto::emit_failure(&format!("populate expected {} cold compiles: {stats:?}", jobs.len()));
    }
    swept
}

/// Set-up of `compile_warm`: build the zoo and populate `dir`. The
/// sweep's estimates serve the signature only, so they are reported as
/// time to leave out of the set-up.
pub fn populate_zoo(seed: u64, dir: &Path, tracer: &Tracer) {
    let inputs = Inputs::build(ModelSet::Zoo);
    let swept = populate(&inputs, seed, dir, tracer);
    emit_sweep(&swept, 0.0);
    proto::emit_value("not_setup_s", swept.estimate_ms / 1e3);
}

/// One sample of a compile workload. Everything before the timed sweep
/// (process start, building the graphs, preparing the session) is the
/// sample's set-up; the parent takes it as the child's wall time less
/// the `not_setup_s` reported here.
pub fn sample(workload: CompileWorkload, seed: u64, dir: &Path, tracer: &Tracer) {
    let inputs = Inputs::build(ModelSet::Zoo);
    let jobs = inputs.jobs(seed);
    // Each arm yields its timed sweep and the compile-side time it spent
    // outside the sweep.
    let (swept, extra_compile_ms) = match workload {
        CompileWorkload::Cold => (sweep(&CompileSession::new(), &inputs, &jobs, 1, tracer), 0.0),
        CompileWorkload::Warm => {
            // The restart path: open the populated directory, compile
            // every model twice (disk hits, then memory hits), estimate.
            let open = Instant::now();
            let session = CompileSession::with_cache_dir(dir).expect("open the cache directory");
            let open_ms = ms_since(open);
            let swept = sweep(&session, &inputs, &jobs, 2, tracer);
            let (stats, n) = (session.stats(), jobs.len());
            if (stats.disk_hits, stats.misses, stats.hits) != (n, 0, 2 * n) {
                proto::emit_failure(&format!("expected {n} disk + {n} memory hits: {stats:?}"));
            }
            (swept, open_ms)
        }
        CompileWorkload::Edit => {
            // Base graphs compile untimed; the timed sweep compiles the
            // one-activation-flipped variants in the same session.
            let edited = inputs.edited(seed).0;
            let session = CompileSession::new();
            let pipeline = SmartMemPipeline::new();
            for model in &edited {
                if let Err(e) = session.compile(&pipeline, &model.base, &inputs.devices[0]) {
                    proto::emit_failure(&format!("base compile {}: {e}", model.name));
                }
            }
            let variants = Inputs::of_variants(edited, &inputs.devices);
            let before = session.stats();
            let swept = sweep(&session, &variants, &variants.jobs(seed), 1, tracer);
            let after = session.stats();
            if after.misses - before.misses != variants.graphs.len() {
                proto::emit_failure(&format!("every edit must recompile: {before:?} -> {after:?}"));
            }
            proto::emit_value("group_misses", (after.group_misses - before.group_misses) as f64);
            (swept, 0.0)
        }
    };
    emit_sweep(&swept, extra_compile_ms);
    let timed_ms = swept.compile_ms + extra_compile_ms + swept.estimate_ms;
    proto::emit_value("not_setup_s", timed_ms / 1e3);
    proto::emit_value("peak_rss_mb", proto::peak_rss_mb());
}
