//! The per-layer ledger of a traced run: each layer of the compile
//! stack probed from outside, over the workload's own models and
//! devices, in a fresh child process. Times are recorded as spans named
//! after the layer metric; counts are reported as values.

use crate::compile::{self, ms_since, Outcome};
use crate::inputs::{Inputs, ModelSet};
use crate::proto::{self, CATEGORY};
use smartmem_core::{
    graph_fingerprint, AssembleGroupsPass, CompileCtx, CompileOutput, CompileSession, Framework,
    FusionPass, GaTuner, LayoutSelectPass, LtePass, OptimizedGraph, Pass, SelectionLevel,
    SmartMemPipeline, StreamlinePass, TunePass,
};
use smartmem_ir::import::{export_json, import_json};
use smartmem_ir::wire::{decode_from, encode_to_vec};
use smartmem_telemetry::{TraceId, Tracer};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Span name of one pass of the SmartMem sequence.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "streamline" => "core.pass.streamline",
        "lte" => "core.pass.lte",
        "fusion" => "core.pass.fusion",
        "assemble-groups" => "core.pass.assemble-groups",
        "layout-select" => "core.pass.layout-select",
        "tune" => "core.pass.tune",
        other => panic!("SmartMem sequence grew a pass this ledger has no metric for: {other}"),
    }
}

/// The passes of the full SmartMem pipeline, built the way
/// `SmartMemPipeline::passes()` builds them.
fn smartmem_passes() -> Vec<Box<dyn Pass>> {
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(StreamlinePass),
        Box::new(LtePass { enabled: true, index_comprehension: true }),
        Box::new(FusionPass),
        Box::new(AssembleGroupsPass),
        Box::new(LayoutSelectPass { level: SelectionLevel::ReductionK2 }),
        Box::new(TunePass { tuned: true, tuner: GaTuner::default() }),
    ];
    let names: Vec<&str> = passes.iter().map(|p| p.name()).collect();
    assert_eq!(names, SmartMemPipeline::new().passes().pass_names(), "pass sequence drifted");
    passes
}

/// Runs every pass on a `CompileCtx` of the benchmark's own, one span a
/// pass, then estimates — the whole cold compile seen layer by layer.
/// Reports the exact counts after each pass and the decomposition of the
/// simulated latency, and checks that the decomposition sums back.
pub fn passes(set: ModelSet, seed: u64, tracer: &Tracer) {
    let inputs = Inputs::build(set);
    proto::emit_value("models.build_ms", inputs.build_ms);
    let source_ops: usize = inputs.graphs.iter().map(|(_, g)| g.op_count()).sum();
    proto::emit_value("ir.graph.source_ops", source_ops as f64);
    let sequence = smartmem_passes();
    let trace = tracer.mint().unwrap_or(TraceId::NONE);
    let mut count = Counts::default();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut zoo = SimTotals::default();
    for job in inputs.jobs(seed) {
        let (graph, device) = (&inputs.graphs[job.graph].1, &inputs.devices[job.device]);
        let mut ctx = CompileCtx::new("SmartMem", graph, device);
        for pass in &sequence {
            let result = {
                let _span = tracer.span(pass_span(pass.name()), CATEGORY, trace);
                pass.run(&mut ctx)
            };
            if let Err(e) = result {
                proto::emit_failure(&format!("{} on {}: {e}", pass.name(), inputs.key(job)));
                break;
            }
            let stats = ctx.stats();
            match pass.name() {
                "streamline" => {
                    count.ops_after_streamline += ctx.graph.op_count();
                    count.transposes_removed += stats.streamline_transposes_removed;
                }
                "lte" => count.eliminated_ops += stats.eliminated_ops,
                "assemble-groups" => count.kernels += stats.kernel_count,
                "layout-select" => count.redundant_tensors += stats.redundant_tensors,
                _ => {}
            }
        }
        let stats = ctx.stats();
        let optimized = OptimizedGraph {
            graph: ctx.graph,
            groups: ctx.groups,
            stats,
            mem_model: ctx.mem_model,
        };
        let report = {
            let _span = tracer.span("core.estimate", CATEGORY, trace);
            optimized.estimate(device)
        };
        outcomes.push(Outcome { key: inputs.key(job), stats, report });
    }
    // Summed in key order, so the totals do not depend on the seed's
    // shuffle.
    outcomes.sort_by(|a, b| a.key.cmp(&b.key));
    for outcome in &outcomes {
        if let Err(e) = zoo.add(&outcome.report) {
            proto::emit_failure(&format!("{}: {e}", outcome.key));
        }
    }
    proto::emit_value("core.pass.streamline.ops_after", count.ops_after_streamline as f64);
    proto::emit_value("core.streamline.transposes_removed", count.transposes_removed as f64);
    proto::emit_value("core.pass.lte.eliminated_ops", count.eliminated_ops as f64);
    proto::emit_value("core.pass.assemble-groups.kernels", count.kernels as f64);
    proto::emit_value("core.layout-select.redundant_tensors", count.redundant_tensors as f64);
    zoo.emit();
    proto::emit_signature(compile::signature(&outcomes));
}

#[derive(Default)]
struct Counts {
    ops_after_streamline: usize,
    transposes_removed: usize,
    eliminated_ops: usize,
    kernels: usize,
    redundant_tensors: usize,
}

/// Simulated-latency decomposition summed over a sweep's models.
#[derive(Default)]
struct SimTotals {
    latency_ms: f64,
    launch_ms: f64,
    compute_bound_ms: f64,
    memory_bound_ms: f64,
    index_ms: f64,
    explicit_ms: f64,
    implicit_ms: f64,
    kernels: usize,
    dram_mb: f64,
    peak_memory_mb: f64,
}

impl SimTotals {
    /// Adds one model, checking the two conservation laws: the groups'
    /// `total_ns` sum to the model latency exactly, and launch +
    /// compute-bound + memory-bound time sum to it within rounding.
    fn add(&mut self, report: &smartmem_core::ModelReport) -> Result<(), String> {
        let (mut total_ns, mut launch, mut compute, mut memory, mut index) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for g in &report.groups {
            total_ns += g.cost.total_ns();
            launch += g.cost.launch_ns;
            if g.cost.memory_bound() {
                memory += g.cost.memory_ns;
            } else {
                compute += g.cost.compute_ns;
            }
            index += g.cost.index_ns;
        }
        self.latency_ms += report.latency_ms;
        self.launch_ms += launch / 1e6;
        self.compute_bound_ms += compute / 1e6;
        self.memory_bound_ms += memory / 1e6;
        self.index_ms += index / 1e6;
        self.explicit_ms += report.explicit_ms;
        self.implicit_ms += report.implicit_ms;
        self.kernels += report.kernel_count;
        self.dram_mb += report.dram_bytes as f64 / 1e6;
        self.peak_memory_mb += report.peak_memory_bytes as f64 / 1e6;
        if (total_ns / 1e6).to_bits() != report.latency_ms.to_bits() {
            return Err(format!(
                "groups sum to {} ms, model says {}",
                total_ns / 1e6,
                report.latency_ms
            ));
        }
        let parts = launch + compute + memory;
        if (parts - total_ns).abs() > 1e-9 * total_ns {
            return Err(format!("launch+compute+memory = {parts} ns, total {total_ns} ns"));
        }
        Ok(())
    }

    fn emit(&self) {
        proto::emit_value("sim.zoo.latency_ms", self.latency_ms);
        proto::emit_value("sim.zoo.launch_ms", self.launch_ms);
        proto::emit_value("sim.zoo.compute_bound_ms", self.compute_bound_ms);
        proto::emit_value("sim.zoo.memory_bound_ms", self.memory_bound_ms);
        proto::emit_value("sim.zoo.index_ms", self.index_ms);
        proto::emit_value("sim.zoo.explicit_ms", self.explicit_ms);
        proto::emit_value("sim.zoo.implicit_ms", self.implicit_ms);
        proto::emit_value("sim.zoo.kernels", self.kernels as f64);
        proto::emit_value("sim.zoo.dram_mb", self.dram_mb);
        proto::emit_value("sim.zoo.peak_memory_mb", self.peak_memory_mb);
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The cache levels, the group cache and the codecs, one after another
/// on a fresh directory: fingerprints, a write-through cold sweep, a
/// reopen, a disk-hit sweep, a memory-hit sweep, one-activation edits
/// recompiled in the warm session, then JSON and wire round trips.
pub fn caches(set: ModelSet, seed: u64, dir: &Path, tracer: &Tracer) {
    let inputs = Inputs::build(set);
    let jobs = inputs.jobs(seed);
    let pipeline = SmartMemPipeline::new();
    let trace = tracer.mint().unwrap_or(TraceId::NONE);
    for (_, graph) in &inputs.graphs {
        let _span = tracer.span("core.fingerprint", CATEGORY, trace);
        black_box(graph_fingerprint(graph));
    }

    let compile_all = |session: &CompileSession| -> Vec<_> {
        jobs.iter()
            .filter_map(|job| {
                let (graph, device) = (&inputs.graphs[job.graph].1, &inputs.devices[job.device]);
                match session.compile(&pipeline, graph, device) {
                    Ok(output) => Some((*job, output)),
                    Err(e) => {
                        proto::emit_failure(&format!("compile {}: {e}", inputs.key(*job)));
                        None
                    }
                }
            })
            .collect()
    };

    let cold = {
        let _span = tracer.span("core.session.write_through", CATEGORY, trace);
        let session = CompileSession::with_cache_dir(dir).expect("create the cache directory");
        compile_all(&session)
        // the session drops here: the memo and group-cache flush is
        // part of the write path
    };
    proto::emit_value("core.persist.artifact_bytes", dir_bytes(dir) as f64);
    let outcomes: Vec<Outcome> = cold
        .iter()
        .map(|(job, output)| Outcome {
            key: inputs.key(*job),
            stats: output.optimized.stats,
            report: output.optimized.estimate(&inputs.devices[job.device]),
        })
        .collect();
    proto::emit_signature(compile::signature(&outcomes));

    let session = {
        let _span = tracer.span("core.session.open", CATEGORY, trace);
        CompileSession::with_cache_dir(dir).expect("open the cache directory")
    };
    {
        let _span = tracer.span("core.session.disk_hit", CATEGORY, trace);
        compile_all(&session);
    }
    let mem_start = Instant::now();
    compile_all(&session);
    proto::emit_value("core.session.mem_hit_us", ms_since(mem_start) * 1e3 / jobs.len() as f64);
    let stats = session.stats();
    let n = jobs.len();
    if (stats.disk_hits, stats.misses, stats.hits) != (n, 0, 2 * n) {
        proto::emit_failure(&format!("expected {n} disk + {n} memory hits: {stats:?}"));
    }

    // Edits: the base graphs (re-imported, so base and variant differ by
    // the flipped activation alone) compile first; each variant then
    // replays the unchanged groups from the group cache.
    let (edited, failures) = inputs.edited(seed);
    proto::emit_value("ir.import.roundtrip_failures", failures.len() as f64);
    for (model, error) in &failures {
        eprintln!("note: export of {model} does not re-import: {error}");
    }
    for model in &edited {
        let _ = session.compile(&pipeline, &model.base, &inputs.devices[0]);
    }
    let before = session.stats();
    {
        let _span = tracer.span("core.session.incremental", CATEGORY, trace);
        for model in &edited {
            if let Err(e) = session.compile(&pipeline, &model.variant, &inputs.devices[0]) {
                proto::emit_failure(&format!("edited {}: {e}", model.name));
            }
        }
    }
    let after = session.stats();
    let hits = (after.group_hits - before.group_hits) as f64;
    let misses = (after.group_misses - before.group_misses) as f64;
    proto::emit_value("core.groupcache.hit_ratio", hits / (hits + misses));
    proto::emit_value("core.groupcache.misses_per_edit", misses / edited.len() as f64);

    // Codecs: graph JSON out and back in, compiled artifacts to wire
    // bytes and back.
    let mb_per_s =
        |bytes: usize, start: Instant| bytes as f64 / 1e6 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    let texts: Vec<String> = inputs.graphs.iter().map(|(_, g)| export_json(g)).collect();
    let text_bytes: usize = texts.iter().map(String::len).sum();
    proto::emit_value("ir.export.mb_per_s", mb_per_s(text_bytes, start));
    let start = Instant::now();
    for text in &texts {
        let _ = black_box(import_json(text));
    }
    proto::emit_value("ir.import.mb_per_s", mb_per_s(text_bytes, start));
    let start = Instant::now();
    let blobs: Vec<Vec<u8>> = cold.iter().map(|(_, o)| encode_to_vec::<CompileOutput>(o)).collect();
    let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
    proto::emit_value("ir.wire.encode_mb_per_s", mb_per_s(blob_bytes, start));
    let start = Instant::now();
    for blob in &blobs {
        if black_box(decode_from::<CompileOutput>(blob)).is_err() {
            proto::emit_failure("a wire-encoded artifact does not decode");
        }
    }
    proto::emit_value("ir.wire.decode_mb_per_s", mb_per_s(blob_bytes, start));
}

/// Wall time of one compile sweep of `framework` over `inputs` on the
/// first device, plus the simulated latency of each model it compiles
/// (`None` where the framework refuses the model).
pub fn baseline_sweep(framework: &dyn Framework, inputs: &Inputs) -> (f64, Vec<Option<f64>>) {
    let device = &inputs.devices[0];
    let start = Instant::now();
    let optimized: Vec<_> =
        inputs.graphs.iter().map(|(_, g)| framework.optimize(g, device).ok()).collect();
    let compile_ms = ms_since(start);
    let latencies =
        optimized.iter().map(|o| o.as_ref().map(|o| o.estimate(device).latency_ms)).collect();
    (compile_ms, latencies)
}
