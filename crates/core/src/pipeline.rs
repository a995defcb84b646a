//! The optimized-graph representation shared by SmartMem and the
//! baseline pipelines, plus the [`Framework`] abstraction and the
//! [`SmartMemPipeline`] itself.

use crate::fusion::GroupDraft;
use crate::layout_select::SelectionLevel;
use crate::lte::LteResult;
use crate::streamline::StreamlinePass;

use crate::pass::{
    AssembleGroupsPass, CompileOutput, FusionPass, GaTuner, LayoutSelectPass, LtePass, PassManager,
    TunePass,
};
use crate::tune::ExecConfig;
use smartmem_index::IndexMap;
use smartmem_ir::wire::{Decode, Encode, Reader, WireError, Writer};
use smartmem_ir::{Graph, Layout, Op, OpId, OpOrigin, TensorId, UnaryKind};
use smartmem_sim::{DeviceConfig, LatencyClass};
use std::error::Error;
use std::fmt;

/// One external tensor read of a kernel group.
#[derive(Clone, Debug)]
pub struct EdgeRead {
    /// Tensor the member operator reads in the source graph (defines the
    /// declared coordinate space of [`EdgeRead::map`]).
    pub logical: TensorId,
    /// Materialized tensor physically holding the data (after LTE).
    pub source: TensorId,
    /// Composed pull-back map from `logical` coordinates to `source`
    /// coordinates (`None` = identity).
    pub map: Option<IndexMap>,
    /// The member operator performing the read.
    pub member: OpId,
    /// Operand position on the member.
    pub operand_idx: usize,
    /// Physical layout the read uses (set by layout selection).
    pub layout: Layout,
    /// Canonical (bucket-invariant) digest of the composed map for
    /// graphs with symbolic dimensions; `None` on static graphs. Unread;
    /// persisted until the next persist `VERSION` bump drops it.
    pub canon: Option<u64>,
}

/// One fused kernel.
#[derive(Clone, Debug)]
pub struct KernelGroup {
    /// Anchor operator (defines the kernel's iteration space).
    pub anchor: OpId,
    /// All member operators (anchor first, epilogues after).
    pub members: Vec<OpId>,
    /// External reads.
    pub reads: Vec<EdgeRead>,
    /// Materialized output tensor.
    pub output: TensorId,
    /// Physical layout of the output.
    pub output_layout: Layout,
    /// Latency attribution bucket (Table 1: compute vs explicit vs
    /// implicit transformation).
    pub class: LatencyClass,
    /// Execution configuration (tiling, workgroup, unrolling).
    pub config: ExecConfig,
    /// Achieved fraction of peak compute throughput.
    pub utilization: f64,
    /// Number of extra layout copies of the output kept for consumers
    /// with conflicting reduction-dimension requirements (§4.6).
    pub extra_copies: usize,
}

/// Optimization statistics (Table 7's operator counts and §4.6's
/// redundant-copy data).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptStats {
    /// Operators in the unoptimized source graph.
    pub source_ops: usize,
    /// Kernels after optimization (the paper's "#Operators with
    /// optimizations").
    pub kernel_count: usize,
    /// Layout-transformation operators eliminated by LTE.
    pub eliminated_ops: usize,
    /// Operators folded into other kernels by fusion.
    pub fused_ops: usize,
    /// Relayout operators inserted by the framework (implicit
    /// transformations; zero for SmartMem).
    pub implicit_inserted: usize,
    /// Tensors that needed redundant layout copies.
    pub redundant_tensors: usize,
    /// Largest single redundant copy in bytes.
    pub redundant_bytes_max: u64,
    /// Net operator-count reduction from the streamline pass family.
    pub streamline_removed_ops: usize,
    /// Explicit `Transpose` operators that streamlining cancelled,
    /// moved out of the live graph, or absorbed into reshapes. Can
    /// exceed `streamline_removed_ops`: an absorbed transpose becomes a
    /// reshape, removing a transpose without shrinking the graph.
    pub streamline_transposes_removed: usize,
}

/// How a framework's runtime consumes memory (drives the OOM behaviour
/// of Figs. 10–11).
#[derive(Clone, Copy, Debug)]
pub struct MemModel {
    /// Whether intermediate tensors are recycled through a memory pool
    /// (§4.6: SmartMem and TVM pool; naive runtimes keep every
    /// intermediate live).
    pub pooled: bool,
    /// Multiplier on activation memory for runtime workspaces/staging.
    pub workspace_factor: f64,
    /// Whether convolutions allocate an im2col workspace.
    pub im2col: bool,
    /// Multiplier on per-kernel dispatch overhead (NCNN batches Vulkan
    /// command buffers and pays far less per kernel than OpenCL
    /// runtimes).
    pub dispatch_scale: f64,
}

impl Default for MemModel {
    fn default() -> Self {
        MemModel { pooled: true, workspace_factor: 1.2, im2col: false, dispatch_scale: 1.0 }
    }
}

/// A fully optimized model ready for latency estimation.
#[derive(Clone, Debug)]
pub struct OptimizedGraph {
    /// The source graph (owned copy).
    pub graph: Graph,
    /// Kernels in execution (topological) order.
    pub groups: Vec<KernelGroup>,
    /// Optimization statistics.
    pub stats: OptStats,
    /// Runtime memory model.
    pub mem_model: MemModel,
}

smartmem_ir::wire_struct!(EdgeRead { logical, source, map, member, operand_idx, layout, canon });

smartmem_ir::wire_struct!(KernelGroup {
    anchor,
    members,
    reads,
    output,
    output_layout,
    class,
    config,
    utilization,
    extra_copies,
});

smartmem_ir::wire_struct!(OptStats {
    source_ops,
    kernel_count,
    eliminated_ops,
    fused_ops,
    implicit_inserted,
    redundant_tensors,
    redundant_bytes_max,
    streamline_removed_ops,
    streamline_transposes_removed,
});

smartmem_ir::wire_struct!(MemModel { pooled, workspace_factor, im2col, dispatch_scale });

impl Encode for OptimizedGraph {
    fn encode(&self, w: &mut Writer) {
        self.graph.encode(w);
        self.groups.encode(w);
        self.stats.encode(w);
        self.mem_model.encode(w);
    }
}

impl Decode for OptimizedGraph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let graph = Graph::decode(r)?;
        let groups = Vec::<KernelGroup>::decode(r)?;
        let stats = OptStats::decode(r)?;
        let mem_model = MemModel::decode(r)?;
        // Kernel groups index into the decoded graph; wild references
        // or invalid layouts would panic downstream in estimation, so a
        // bad artifact must be rejected here (the cache falls back to a
        // cold compile).
        let ops = graph.op_count();
        let tensors = graph.tensors().len();
        let bad = |what: &str| Err(WireError::Invalid(format!("decoded artifact: {what}")));
        for g in &groups {
            if (g.anchor.0 as usize) >= ops || g.members.iter().any(|m| m.0 as usize >= ops) {
                return bad("group references unknown operator");
            }
            if (g.output.0 as usize) >= tensors {
                return bad("group output references unknown tensor");
            }
            let out_rank = graph.tensor(g.output).shape.rank();
            if g.output_layout.validate(out_rank).is_err() {
                return bad("invalid output layout");
            }
            for read in &g.reads {
                if (read.logical.0 as usize) >= tensors
                    || (read.source.0 as usize) >= tensors
                    || (read.member.0 as usize) >= ops
                {
                    return bad("read references unknown tensor/operator");
                }
                let rank = graph.tensor(read.source).shape.rank();
                if read.layout.validate(rank).is_err() {
                    return bad("invalid read layout");
                }
                // The estimator evaluates `map` at coordinates of the
                // logical tensor and addresses the source tensor with
                // the results — both eval and address assert their
                // coordinate ranks, so a rank-inconsistent map must be
                // rejected here, not panic there.
                if let Some(map) = &read.map {
                    if map.out_rank() != graph.tensor(read.logical).shape.rank()
                        || map.in_rank() != rank
                    {
                        return bad("read map rank mismatch");
                    }
                }
            }
        }
        Ok(OptimizedGraph { graph, groups, stats, mem_model })
    }
}

/// Error returned when a framework cannot execute a model (missing
/// operator support or insufficient device memory) — the "–" entries of
/// Tables 7–8 and the empty bars of Figs. 10–11.
#[derive(Clone, Debug)]
pub struct Unsupported {
    /// Framework name.
    pub framework: String,
    /// Human-readable reason.
    pub reason: String,
}

impl Unsupported {
    /// Creates an unsupported-model error.
    pub fn new(framework: impl Into<String>, reason: impl Into<String>) -> Self {
        Unsupported { framework: framework.into(), reason: reason.into() }
    }
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: model not supported ({})", self.framework, self.reason)
    }
}

impl Error for Unsupported {}

smartmem_ir::wire_struct!(Unsupported { framework, reason });

/// A DNN execution framework: a named pass sequence that optimizes a
/// graph for a device, plus latency estimation on the shared simulator.
///
/// Implementors only provide [`Framework::name`] and
/// [`Framework::passes`]; optimization runs through the shared
/// [`PassManager`], so per-pass timing ([`Framework::optimize_timed`])
/// and the compilation cache work identically for every framework.
pub trait Framework: Send + Sync {
    /// Framework display name.
    fn name(&self) -> &str;

    /// The framework's declarative pass sequence.
    fn passes(&self) -> PassManager;

    /// Optimizes `graph` for `device`.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the framework cannot compile the
    /// model (operator support gaps).
    fn optimize(
        &self,
        graph: &Graph,
        device: &DeviceConfig,
    ) -> Result<OptimizedGraph, Unsupported> {
        Ok(self.passes().run_on(graph, device)?.optimized)
    }

    /// Optimizes `graph`, additionally returning per-pass wall-clock
    /// timing and diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the framework cannot compile the
    /// model (operator support gaps).
    fn optimize_timed(
        &self,
        graph: &Graph,
        device: &DeviceConfig,
    ) -> Result<CompileOutput, Unsupported> {
        self.passes().run_on(graph, device)
    }

    /// Optimizes and estimates, failing when the model does not fit
    /// device memory.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] for operator-support gaps or
    /// out-of-memory conditions.
    fn run(
        &self,
        graph: &Graph,
        device: &DeviceConfig,
    ) -> Result<crate::estimate::ModelReport, Unsupported> {
        let optimized = self.optimize(graph, device)?;
        let report = optimized.estimate(device);
        // Roughly half of unified memory is usable for one app's tensors.
        let usable = (device.memory_bytes() as f64 * 0.5) as u64;
        if report.peak_memory_bytes > usable {
            return Err(Unsupported::new(
                self.name(),
                format!(
                    "insufficient memory: needs {:.1} MB, usable {:.1} MB",
                    report.peak_memory_bytes as f64 / 1e6,
                    usable as f64 / 1e6
                ),
            ));
        }
        Ok(report)
    }
}

/// One rung of Fig. 8's cumulative ablation ladder, weakest first. Each
/// rung adds one optimization to the one below; the derived order is
/// the ladder order, so a pass switches on at `level >= rung`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SmartMemLevel {
    /// DNNFusion: classification-based fusion only, no streamlining, so
    /// the baseline comparison stays faithful.
    DnnFusion,
    /// Adds graph streamlining and Layout Transformation Elimination
    /// (§3.2.1); eliminated maps are composed but not strength-reduced.
    LteWithoutIc,
    /// Adds index comprehension on the composed maps (Fig. 8's "+LTE").
    Lte,
    /// Adds reduction-dimension layout selection with one layout per
    /// tensor (§3.2.2, Fig. 8's "+Layout").
    Layout,
    /// Adds redundant copies for a second requirement (k = 2), 2.5D
    /// texture placement (Fig. 5) and execution-config tuning (Fig. 8's
    /// "+Other"): the full system.
    #[default]
    Full,
}

impl SmartMemLevel {
    /// Every rung in ladder order.
    pub const ALL: [SmartMemLevel; 5] = [
        SmartMemLevel::DnnFusion,
        SmartMemLevel::LteWithoutIc,
        SmartMemLevel::Lte,
        SmartMemLevel::Layout,
        SmartMemLevel::Full,
    ];

    /// Fig. 8's name for the rung.
    pub fn label(self) -> &'static str {
        match self {
            SmartMemLevel::DnnFusion => "DNNF",
            SmartMemLevel::LteWithoutIc => "+LTE without IC",
            SmartMemLevel::Lte => "+LTE",
            SmartMemLevel::Layout => "+Layout",
            SmartMemLevel::Full => "+Other",
        }
    }
}

/// The SmartMem optimizing pipeline (the paper's contribution).
#[derive(Clone, Debug, Default)]
pub struct SmartMemPipeline {
    level: SmartMemLevel,
}

impl SmartMemPipeline {
    /// The full system ([`SmartMemLevel::Full`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The pipeline at one rung of the ablation ladder.
    pub fn at(level: SmartMemLevel) -> Self {
        SmartMemPipeline { level }
    }

    /// The pipeline's rung.
    pub fn level(&self) -> SmartMemLevel {
        self.level
    }
}

impl Framework for SmartMemPipeline {
    fn name(&self) -> &str {
        "SmartMem"
    }

    fn passes(&self) -> PassManager {
        let level = self.level;
        let selection = match level {
            SmartMemLevel::DnnFusion | SmartMemLevel::LteWithoutIc | SmartMemLevel::Lte => {
                SelectionLevel::Default
            }
            SmartMemLevel::Layout => SelectionLevel::ReductionK1,
            SmartMemLevel::Full => SelectionLevel::ReductionK2,
        };
        let lte = level >= SmartMemLevel::LteWithoutIc;
        let mut pm = PassManager::new("SmartMem");
        if lte {
            pm = pm.then(StreamlinePass);
        }
        pm.then(LtePass { enabled: lte, index_comprehension: level >= SmartMemLevel::Lte })
            .then(FusionPass)
            .then(AssembleGroupsPass)
            .then(LayoutSelectPass { level: selection })
            .then(TunePass { tuned: level == SmartMemLevel::Full, tuner: GaTuner })
    }
}

/// Last-two iteration extents of a shape (1 when absent).
pub fn iteration_mn(dims: &[usize]) -> (usize, usize) {
    match dims.len() {
        0 => (1, 1),
        1 => (1, dims[0]),
        n => (dims[n - 2], dims[n - 1]),
    }
}

/// Latency class of a kernel anchored at `node` (Table 1 attribution).
pub fn group_class(op: &Op, origin: OpOrigin) -> LatencyClass {
    if op.is_layout_transform() {
        match origin {
            OpOrigin::Model => LatencyClass::ExplicitTransform,
            OpOrigin::Framework => LatencyClass::ImplicitTransform,
        }
    } else if matches!(op, Op::Unary { kind: UnaryKind::Identity }) && origin == OpOrigin::Framework
    {
        // Framework-inserted relayout copies.
        LatencyClass::ImplicitTransform
    } else {
        LatencyClass::Compute
    }
}

/// Builds [`KernelGroup`]s (with placeholder layouts/configs) from
/// fusion drafts, resolving reads through the elimination result.
///
/// Shared by SmartMem and the baseline pipelines.
pub fn assemble_groups(graph: &Graph, lte: &LteResult, drafts: &[GroupDraft]) -> Vec<KernelGroup> {
    drafts
        .iter()
        .map(|draft| {
            let internal: Vec<TensorId> =
                draft.members.iter().flat_map(|&m| graph.node(m).outputs.clone()).collect();
            let mut reads = Vec::new();
            for &member in &draft.members {
                let node = graph.node(member);
                for (operand_idx, &input) in node.inputs.iter().enumerate() {
                    let resolved = lte.resolve(input);
                    if internal.contains(&resolved.source) || internal.contains(&input) {
                        continue; // produced inside the kernel
                    }
                    let rank = graph.tensor(resolved.source).shape.rank();
                    reads.push(EdgeRead {
                        logical: input,
                        source: resolved.source,
                        map: resolved.map,
                        member,
                        operand_idx,
                        layout: Layout::row_major(rank),
                        canon: resolved.canon,
                    });
                }
            }
            let anchor_node = graph.node(draft.anchor);
            let output = draft.output(graph);
            let out_rank = graph.tensor(output).shape.rank();
            KernelGroup {
                anchor: draft.anchor,
                members: draft.members.clone(),
                reads,
                output,
                output_layout: Layout::row_major(out_rank),
                class: group_class(&anchor_node.op, anchor_node.origin),
                config: ExecConfig::default(),
                utilization: 0.4,
                extra_copies: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::{DType, GraphBuilder};

    fn swinish_block() -> Graph {
        // A window-attention-like snippet with reshape/transpose chains.
        let mut b = GraphBuilder::new("block");
        let x = b.input("x", &[1, 64, 96], DType::F16);
        let wq = b.weight("wq", &[96, 96], DType::F16);
        let n = b.layer_norm(x, vec![2]);
        let q = b.matmul(n, wq);
        let r = b.reshape(q, &[1, 64, 3, 32]);
        let t = b.transpose(r, &[0, 2, 1, 3]);
        let r2 = b.reshape(t, &[3, 64, 32]);
        let att = b.matmul_t(r2, r2, false, true);
        let sm = b.softmax(att, 2);
        let out = b.matmul(sm, r2);
        b.output(out);
        b.finish()
    }

    #[test]
    fn pipeline_reduces_operator_count() {
        let g = swinish_block();
        let device = DeviceConfig::snapdragon_8gen2();
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let base = SmartMemPipeline::at(SmartMemLevel::DnnFusion).optimize(&g, &device).unwrap();
        assert!(full.stats.kernel_count < base.stats.kernel_count);
        assert_eq!(full.stats.eliminated_ops, 3); // 2 reshapes + 1 transpose
        assert_eq!(full.stats.source_ops, g.op_count());
    }

    #[test]
    fn reads_resolve_through_eliminated_chain() {
        let g = swinish_block();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        // The attention matmul reads the (eliminated) reshaped Q through a map.
        let mapped_reads: usize =
            opt.groups.iter().flat_map(|gr| gr.reads.iter()).filter(|r| r.map.is_some()).count();
        assert!(mapped_reads >= 2, "expected mapped reads, found {mapped_reads}");
    }

    #[test]
    fn group_classes_for_transforms() {
        assert_eq!(
            group_class(&Op::Transpose { perm: vec![1, 0] }, OpOrigin::Model),
            LatencyClass::ExplicitTransform
        );
        assert_eq!(
            group_class(&Op::Reshape { shape: vec![4] }, OpOrigin::Framework),
            LatencyClass::ImplicitTransform
        );
        assert_eq!(
            group_class(&Op::Unary { kind: UnaryKind::Identity }, OpOrigin::Framework),
            LatencyClass::ImplicitTransform
        );
        assert_eq!(
            group_class(&Op::MatMul { trans_a: false, trans_b: false }, OpOrigin::Model),
            LatencyClass::Compute
        );
    }

    #[test]
    fn tuning_improves_utilization() {
        let g = swinish_block();
        let device = DeviceConfig::snapdragon_8gen2();
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let untuned = SmartMemPipeline::at(SmartMemLevel::Layout).optimize(&g, &device).unwrap();
        let avg = |o: &OptimizedGraph| {
            o.groups.iter().map(|g| g.utilization).sum::<f64>() / o.groups.len() as f64
        };
        assert!(avg(&full) > avg(&untuned));
    }

    #[test]
    fn unsupported_error_renders() {
        let e = Unsupported::new("NCNN", "no transformer ops");
        assert!(e.to_string().contains("NCNN"));
    }
}
