//! The pass-manager compilation architecture.
//!
//! Every framework in this repository — SmartMem itself and the six
//! baselines — is expressed as a *declarative pass sequence* executed by
//! one [`PassManager`] (the `transform.Sequential` idiom of TVM's
//! relay/relax pass infrastructure). A [`Pass`] is a named rewrite step
//! over a shared [`CompileCtx`] that carries the graph, the device
//! configuration, and all intermediate optimizer state (elimination
//! results, fusion drafts, kernel groups, layout decisions). The
//! manager records per-pass wall-clock timing and an [`OptStats`]
//! snapshot after every pass, plus structured [`Diagnostic`]s emitted by
//! the passes themselves.
//!
//! The five core passes implemented here ([`LtePass`], [`FusionPass`],
//! [`AssembleGroupsPass`], [`LayoutSelectPass`], [`TunePass`]) cover the
//! SmartMem pipeline; `smartmem-baselines` contributes the
//! baseline-specific passes (relayout insertion, policy fusion, uniform
//! layouts, utilization finalization) over the same trait.

use crate::fusion::{fuse, GroupDraft};
use crate::layout_select::{select_layouts, RedundancyStats, SelectionLevel};
use crate::lte::{eliminate, LteResult};
use crate::pipeline::{
    assemble_groups, iteration_mn, KernelGroup, MemModel, OptStats, OptimizedGraph, Unsupported,
};
use crate::tune::{utilization, ExecConfig, TuneMemo, SWEEP_CONFIGS};
use smartmem_ir::wire::{Decode, Encode, Reader, WireError, Writer};
use smartmem_ir::Graph;
use smartmem_sim::DeviceConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state threaded through a pass sequence.
///
/// Before the pass-manager refactor this state lived in the private
/// function arguments of `SmartMemPipeline::optimize` and each
/// baseline's ad-hoc variant; making it explicit lets passes compose
/// freely and lets the manager snapshot [`OptStats`] between passes.
#[derive(Clone, Debug)]
pub struct CompileCtx {
    /// Display name of the framework being compiled (used in
    /// [`Unsupported`] errors and diagnostics).
    pub framework: String,
    /// The graph under compilation. Graph-rewriting passes (e.g. the
    /// baselines' relayout insertion) replace it wholesale.
    pub graph: Graph,
    /// Target device.
    pub device: DeviceConfig,
    /// Operator count of the *original* source graph (before any
    /// framework-inserted operators).
    pub source_ops: usize,
    /// Elimination result, set by [`LtePass`].
    pub lte: Option<LteResult>,
    /// Fusion drafts, set by [`FusionPass`] or a baseline fusion pass.
    pub drafts: Vec<GroupDraft>,
    /// Kernel groups, set by [`AssembleGroupsPass`] and refined by
    /// layout/tuning passes.
    pub groups: Vec<KernelGroup>,
    /// Redundant-copy statistics from layout selection (§4.6).
    pub redundancy: RedundancyStats,
    /// Relayout operators inserted by the framework (implicit
    /// transformations; zero for SmartMem).
    pub implicit_inserted: usize,
    /// Net operator-count reduction from streamline sweeps (graph-level
    /// rewrites before kernel-level optimization).
    pub streamline_removed_ops: usize,
    /// Explicit `Transpose` operators that streamline sweeps cancelled,
    /// dropped, or absorbed into reshapes.
    pub streamline_removed_transposes: usize,
    /// Nodes the streamline pass materialised (built by rewrites plus
    /// copied by its final compaction): a host-work count, kept out of
    /// [`OptStats`] and never persisted.
    pub(crate) streamline_materialized: usize,
    /// Runtime memory model of the framework.
    pub mem_model: MemModel,
    /// Structured diagnostics accumulated by the passes.
    pub diagnostics: Vec<Diagnostic>,
    /// Where [`TunePass`] gets its sweeps: fresh per context, or the
    /// memo of the [`crate::CompileSession`] running the sequence.
    pub(crate) tune_memo: Arc<TuneMemo>,
}

impl CompileCtx {
    /// Fresh context for compiling `graph` on `device`.
    pub fn new(framework: impl Into<String>, graph: &Graph, device: &DeviceConfig) -> Self {
        CompileCtx {
            framework: framework.into(),
            graph: graph.clone(),
            device: device.clone(),
            source_ops: graph.op_count(),
            lte: None,
            drafts: Vec::new(),
            groups: Vec::new(),
            redundancy: RedundancyStats::default(),
            implicit_inserted: 0,
            streamline_removed_ops: 0,
            streamline_removed_transposes: 0,
            streamline_materialized: 0,
            mem_model: MemModel::default(),
            diagnostics: Vec::new(),
            tune_memo: Arc::default(),
        }
    }

    /// Current optimization statistics, derivable at any point of the
    /// sequence (the manager snapshots this after every pass).
    pub fn stats(&self) -> OptStats {
        OptStats {
            source_ops: self.source_ops,
            kernel_count: self.groups.len(),
            eliminated_ops: self.lte.as_ref().map_or(0, |l| l.eliminated.len()),
            fused_ops: self.groups.iter().map(|g| g.members.len() - 1).sum(),
            implicit_inserted: self.implicit_inserted,
            redundant_tensors: self.redundancy.tensors,
            redundant_bytes_max: self.redundancy.max_bytes,
            streamline_removed_ops: self.streamline_removed_ops,
            streamline_transposes_removed: self.streamline_removed_transposes,
        }
    }

    /// Nodes the streamline pass materialised in this context: nodes
    /// its rewrites built plus nodes its final compaction copied (zero
    /// when it changed nothing). Host work for profiling tools.
    pub fn streamline_nodes_materialized(&self) -> usize {
        self.streamline_materialized
    }

    /// Records a structured diagnostic attributed to `pass`.
    pub fn note(&mut self, pass: &str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic { pass: pass.to_string(), message: message.into() });
    }

    /// The elimination result, which every group-building pass depends
    /// on.
    ///
    /// # Panics
    ///
    /// Panics when no [`LtePass`] ran earlier in the sequence — a pass
    /// ordering bug in the pipeline definition, not a property of the
    /// model being compiled.
    pub fn expect_lte(&self, requester: &str) -> &LteResult {
        self.lte
            .as_ref()
            .unwrap_or_else(|| panic!("{requester} requires an LtePass earlier in the sequence"))
    }
}

/// One structured diagnostic emitted during compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the emitting pass.
    pub pass: String,
    /// Human-readable message.
    pub message: String,
}

/// One step of a compilation pipeline.
pub trait Pass: Send + Sync {
    /// Stable pass name (shown in timings and diagnostics).
    fn name(&self) -> &'static str;

    /// Configuration fingerprint: two passes with equal `name()` and
    /// equal `params()` must behave identically. Feeds the pass-sequence
    /// id used as a compilation-cache key component.
    fn params(&self) -> String {
        String::new()
    }

    /// Executes the pass over the shared context.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the framework cannot compile the
    /// model (operator-support gaps).
    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported>;
}

/// Wall-clock timing and statistics snapshot of one executed pass.
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// Pass name.
    pub pass: String,
    /// Wall-clock execution time of the pass.
    pub duration: Duration,
    /// [`OptStats`] snapshot *after* the pass ran (diff two consecutive
    /// snapshots for the per-pass delta).
    pub stats: OptStats,
}

/// Everything a pass-manager compilation produces.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The optimized model.
    pub optimized: OptimizedGraph,
    /// Per-pass wall-clock timing, in execution order.
    pub timings: Vec<PassTiming>,
    /// Structured diagnostics from the passes.
    pub diagnostics: Vec<Diagnostic>,
}

impl CompileOutput {
    /// Total wall-clock compilation time (sum over passes).
    pub fn total_duration(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }
}

smartmem_ir::wire_struct!(Diagnostic { pass, message });

impl Encode for PassTiming {
    fn encode(&self, w: &mut Writer) {
        self.pass.encode(w);
        // Durations persist as nanoseconds; a pass that somehow ran for
        // 584+ years saturates.
        w.put_u64(u64::try_from(self.duration.as_nanos()).unwrap_or(u64::MAX));
        self.stats.encode(w);
    }
}

impl Decode for PassTiming {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PassTiming {
            pass: Decode::decode(r)?,
            duration: Duration::from_nanos(r.get_u64()?),
            stats: Decode::decode(r)?,
        })
    }
}

smartmem_ir::wire_struct!(CompileOutput { optimized, timings, diagnostics });

/// Executes a declarative pass sequence, timing every pass and
/// snapshotting [`OptStats`] between passes.
pub struct PassManager {
    framework: String,
    mem_model: MemModel,
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Empty pipeline for `framework`.
    pub fn new(framework: impl Into<String>) -> Self {
        PassManager {
            framework: framework.into(),
            mem_model: MemModel::default(),
            passes: Vec::new(),
        }
    }

    /// Renames the pipeline (used by frameworks that reuse another
    /// framework's sequence, e.g. DNNFusion reusing SmartMem's with the
    /// SmartMem-specific passes disabled).
    #[must_use]
    pub fn named(mut self, framework: impl Into<String>) -> Self {
        self.framework = framework.into();
        self
    }

    /// Sets the runtime memory model recorded in the output.
    #[must_use]
    pub fn with_mem_model(mut self, mem_model: MemModel) -> Self {
        self.mem_model = mem_model;
        self
    }

    /// Appends a pass to the sequence.
    #[must_use]
    pub fn then(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Framework display name.
    pub fn framework(&self) -> &str {
        &self.framework
    }

    /// Pass names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Content id of the sequence: framework name plus every pass's
    /// name and configuration. Two managers with equal ids produce
    /// identical results for identical inputs, which makes the id a
    /// valid compilation-cache key component.
    pub fn sequence_id(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.framework.hash(&mut h);
        for p in &self.passes {
            p.name().hash(&mut h);
            p.params().hash(&mut h);
        }
        h.finish()
    }

    /// Runs the sequence over `graph` for `device`.
    ///
    /// # Errors
    ///
    /// Returns the first [`Unsupported`] raised by a pass.
    pub fn run_on(
        &self,
        graph: &Graph,
        device: &DeviceConfig,
    ) -> Result<CompileOutput, Unsupported> {
        self.run_memoized(graph, device, Arc::default())
    }

    /// [`PassManager::run_on`] with [`TunePass`] sweeping through
    /// `tune_memo`, the one pass driver. The memo only saves sweeps:
    /// the output is the same whatever it already holds.
    pub(crate) fn run_memoized(
        &self,
        graph: &Graph,
        device: &DeviceConfig,
        tune_memo: Arc<TuneMemo>,
    ) -> Result<CompileOutput, Unsupported> {
        let mut ctx = CompileCtx::new(self.framework.clone(), graph, device);
        ctx.mem_model = self.mem_model;
        ctx.tune_memo = tune_memo;
        let mut timings = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let start = Instant::now();
            pass.run(&mut ctx)?;
            timings.push(PassTiming {
                pass: pass.name().to_string(),
                duration: start.elapsed(),
                stats: ctx.stats(),
            });
        }
        let stats = ctx.stats();
        Ok(CompileOutput {
            optimized: OptimizedGraph {
                graph: ctx.graph,
                groups: ctx.groups,
                stats,
                mem_model: ctx.mem_model,
            },
            timings,
            diagnostics: ctx.diagnostics,
        })
    }
}

// ---------------------------------------------------------------------
// Core passes (the SmartMem sequence; baselines add their own).
// ---------------------------------------------------------------------

/// Layout Transformation Elimination (§3.2.1). With `enabled = false`
/// the pass still runs — producing the identity elimination result the
/// downstream passes consume — so baselines share the same sequence
/// shape.
#[derive(Clone, Copy, Debug)]
pub struct LtePass {
    /// Eliminate transformation operators into index maps.
    pub enabled: bool,
    /// Strength-reduce the composed maps (index comprehension).
    pub index_comprehension: bool,
}

impl LtePass {
    /// The no-elimination variant used by every baseline.
    pub fn disabled() -> Self {
        LtePass { enabled: false, index_comprehension: false }
    }
}

impl Pass for LtePass {
    fn name(&self) -> &'static str {
        "lte"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let lte = eliminate(&ctx.graph, self.enabled, self.index_comprehension);
        if self.enabled {
            ctx.note(
                self.name(),
                format!(
                    "eliminated {} of {} operators",
                    lte.eliminated.len(),
                    ctx.graph.op_count()
                ),
            );
        }
        ctx.lte = Some(lte);
        Ok(())
    }
}

/// DNNFusion-style classification-based fusion over the elimination
/// result (SmartMem and DNNFusion; baselines use `PolicyFusionPass`
/// from `smartmem-baselines`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FusionPass;

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let drafts = fuse(&ctx.graph, ctx.expect_lte(self.name()));
        ctx.note(
            self.name(),
            format!(
                "{} kernels from {} kept operators",
                drafts.len(),
                ctx.expect_lte(self.name()).kept.len()
            ),
        );
        ctx.drafts = drafts;
        Ok(())
    }
}

/// Materializes [`KernelGroup`]s from the fusion drafts, resolving
/// external reads through the elimination result.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssembleGroupsPass;

impl Pass for AssembleGroupsPass {
    fn name(&self) -> &'static str {
        "assemble-groups"
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        ctx.groups = assemble_groups(&ctx.graph, ctx.expect_lte(self.name()), &ctx.drafts);
        Ok(())
    }
}

/// Reduction-dimension-based layout selection (§3.2.2) with
/// redundant-copy accounting (§4.6).
#[derive(Clone, Copy, Debug)]
pub struct LayoutSelectPass {
    /// Selection aggressiveness (framework default / k=1 / full k=2).
    pub level: SelectionLevel,
}

impl Pass for LayoutSelectPass {
    fn name(&self) -> &'static str {
        "layout-select"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        ctx.redundancy = select_layouts(&ctx.graph, &mut ctx.groups, &ctx.device, self.level);
        if ctx.redundancy.tensors > 0 {
            let (tensors, max_bytes) = (ctx.redundancy.tensors, ctx.redundancy.max_bytes);
            ctx.note(
                self.name(),
                format!("{tensors} tensors need redundant copies (max {max_bytes} bytes)"),
            );
        }
        Ok(())
    }
}

/// Execution-configuration tuning: the exact sweep of
/// [`tune`](fn@crate::tune) when `tuned`, detuned DNNFusion-era defaults
/// otherwise.
#[derive(Clone, Debug)]
pub struct TunePass {
    /// Tune each group (otherwise untuned defaults with the
    /// DNNFusion-era quality penalty).
    pub tuned: bool,
    /// Carries nothing; see [`GaTuner`].
    pub tuner: GaTuner,
}

/// Knob-free placeholder left where the genetic-algorithm tuner's
/// population, generation and seed settings used to live:
/// [`tune`](fn@crate::tune) has no settings. It remains only because the
/// repository benchmark (`benchmark/src/ledger.rs`) builds `TunePass` by
/// struct literal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaTuner;

impl Pass for TunePass {
    fn name(&self) -> &'static str {
        "tune"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        // Groups repeat (op, m, n) heavily within a model; the memo
        // sweeps each distinct key once.
        let mut keys = HashSet::new();
        for g in &mut ctx.groups {
            let node = ctx.graph.node(g.anchor);
            let (m, n) = iteration_mn(ctx.graph.tensor(node.outputs[0]).shape.dims());
            (g.config, g.utilization) = if self.tuned {
                keys.insert((&node.op, m, n));
                ctx.tune_memo.tune(&node.op, m, n)
            } else {
                // DNNFusion's transform kernels in particular were not
                // layout-aware.
                let transform_penalty = if node.op.is_layout_transform() { 0.6 } else { 1.0 };
                let config = ExecConfig::default();
                (config, utilization(&node.op, m, n, &config) * 0.7 * transform_penalty)
            };
        }
        if self.tuned {
            // This compile's work, whatever the memo already held.
            let (groups, keys) = (ctx.groups.len(), keys.len());
            ctx.note(
                self.name(),
                format!(
                    "{groups} group(s), {keys} distinct (op, m, n), {} configs",
                    keys * SWEEP_CONFIGS
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Framework, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder};

    fn toy() -> Graph {
        let mut b = GraphBuilder::new("toy");
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let mm = b.matmul(x, w);
        let t = b.transpose(mm, &[0, 2, 1]);
        let out = b.softmax(t, 2);
        b.output(out);
        b.finish()
    }

    #[test]
    fn manager_times_every_pass() {
        let device = DeviceConfig::snapdragon_8gen2();
        let out = SmartMemPipeline::new().passes().run_on(&toy(), &device).unwrap();
        assert_eq!(out.timings.len(), 6);
        let names: Vec<&str> = out.timings.iter().map(|t| t.pass.as_str()).collect();
        assert_eq!(
            names,
            vec!["streamline", "lte", "fusion", "assemble-groups", "layout-select", "tune"]
        );
        // Stats snapshots are monotone in information: groups appear at
        // assemble-groups and stay.
        assert_eq!(out.timings[0].stats.kernel_count, 0);
        assert!(out.timings[3].stats.kernel_count > 0);
        assert_eq!(out.timings[5].stats, out.optimized.stats);
    }

    #[test]
    fn diagnostics_record_elimination() {
        let device = DeviceConfig::snapdragon_8gen2();
        let out = SmartMemPipeline::new().passes().run_on(&toy(), &device).unwrap();
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.pass == "lte" && d.message.contains("eliminated")));
    }

    #[test]
    fn sequence_ids_separate_configs() {
        use crate::pipeline::SmartMemLevel;
        let id = |level| SmartMemPipeline::at(level).passes().sequence_id();
        let mut ids: Vec<u64> = SmartMemLevel::ALL.map(id).to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SmartMemLevel::ALL.len(), "two rungs share a sequence id");
        assert_eq!(id(SmartMemLevel::Full), SmartMemPipeline::new().passes().sequence_id());
    }

    #[test]
    fn manager_matches_monolithic_result() {
        // The pass sequence must reproduce exactly what the former
        // monolithic SmartMemPipeline::optimize computed.
        let device = DeviceConfig::snapdragon_8gen2();
        let g = toy();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let out = SmartMemPipeline::new().passes().run_on(&g, &device).unwrap();
        assert_eq!(opt.stats, out.optimized.stats);
        assert_eq!(opt.groups.len(), out.optimized.groups.len());
    }

    #[test]
    fn tune_note_counts_exact_work() {
        let device = DeviceConfig::snapdragon_8gen2();
        let swin = smartmem_models::swin_tiny(1);
        let passes = SmartMemPipeline::new().passes();
        let note = |out: CompileOutput| {
            out.diagnostics.into_iter().find(|d| d.pass == "tune").unwrap().message
        };
        // Swin's 154 groups repeat 37 (op, m, n) keys.
        let full = "154 group(s), 37 distinct (op, m, n), 10878 configs";
        assert_eq!(note(passes.run_on(&swin, &device).unwrap()), full);
        // Through a shared memo the note still counts this compile's
        // work: the warm rerun sweeps nothing but reports the same note.
        let memo = Arc::new(TuneMemo::default());
        let cold = note(passes.run_memoized(&swin, &device, Arc::clone(&memo)).unwrap());
        let warm = note(passes.run_memoized(&swin, &device, Arc::clone(&memo)).unwrap());
        assert_eq!((cold.as_str(), warm.as_str()), (full, full));
        assert_eq!(memo.counts(), (2 * 154 - 37, 37));
    }

    #[test]
    fn hand_driven_ctx_matches_run_on() {
        // Callers may run the passes over `CompileCtx::new` themselves
        // (the repository benchmark's per-pass ledger does); the fresh
        // memo each context carries must give `run_on`'s result.
        use crate::streamline::StreamlinePass;
        let device = DeviceConfig::snapdragon_8gen2();
        let swin = smartmem_models::swin_tiny(1);
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(StreamlinePass),
            Box::new(LtePass { enabled: true, index_comprehension: true }),
            Box::new(FusionPass),
            Box::new(AssembleGroupsPass),
            Box::new(LayoutSelectPass { level: SelectionLevel::ReductionK2 }),
            Box::new(TunePass { tuned: true, tuner: GaTuner }),
        ];
        let mut ctx = CompileCtx::new("SmartMem", &swin, &device);
        for pass in &passes {
            pass.run(&mut ctx).unwrap();
        }
        let out = SmartMemPipeline::new().passes().run_on(&swin, &device).unwrap();
        assert_eq!(ctx.diagnostics, out.diagnostics);
        assert_eq!(ctx.stats(), out.optimized.stats);
        let decisions = |groups: &[KernelGroup]| -> Vec<(ExecConfig, u64)> {
            groups.iter().map(|g| (g.config, g.utilization.to_bits())).collect()
        };
        assert_eq!(decisions(&ctx.groups), decisions(&out.optimized.groups));
    }

    #[test]
    fn layout_select_notes_redundant_copies() {
        // One matmul output reduced along both of its dims: k = 1 needs
        // a redundant copy and says so; k = 2 combines both and is quiet.
        let mut b = GraphBuilder::new("fig4");
        let x = b.input("x", &[64, 96], DType::F16);
        let w = b.weight("w", &[96, 128], DType::F16);
        let mm = b.matmul(x, w);
        let r0 = b.reduce(mm, smartmem_ir::ReduceKind::Sum, vec![0], false);
        let r1 = b.reduce(mm, smartmem_ir::ReduceKind::Sum, vec![1], false);
        b.output(r0);
        b.output(r1);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        let select = |level| {
            let out = PassManager::new("fig4")
                .then(LtePass { enabled: true, index_comprehension: true })
                .then(FusionPass)
                .then(AssembleGroupsPass)
                .then(LayoutSelectPass { level })
                .run_on(&g, &device)
                .unwrap();
            let notes: Vec<String> = out
                .diagnostics
                .into_iter()
                .filter(|d| d.pass == "layout-select")
                .map(|d| d.message)
                .collect();
            (out.optimized.stats.redundant_tensors, notes)
        };
        assert_eq!(
            select(SelectionLevel::ReductionK1),
            (1, vec!["1 tensors need redundant copies (max 16384 bytes)".to_string()])
        );
        assert_eq!(select(SelectionLevel::ReductionK2), (0, Vec::new()));
    }

    #[test]
    #[should_panic(expected = "requires an LtePass")]
    fn missing_lte_dependency_panics() {
        let device = DeviceConfig::snapdragon_8gen2();
        let _ = PassManager::new("broken").then(FusionPass).run_on(&toy(), &device);
    }
}
