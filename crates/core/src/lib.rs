//! # smartmem-core
//!
//! The SmartMem optimizer — the primary contribution of the paper
//! (*SmartMem: Layout Transformation Elimination and Adaptation for
//! Efficient DNN Execution on Mobile*, ASPLOS'24) — implemented over the
//! `smartmem-ir` graph representation and the `smartmem-sim` device
//! model:
//!
//! 1. **Operator classification** ([`classify`], Tables 3–4) documents
//!    the taxonomy the passes below hard-code: every operator lands in
//!    one of four quadrants of (input-layout dependence × output-layout
//!    customizability). No pass calls it; a unit test keeps it agreeing
//!    with what LTE eliminates, which ops count as layout transforms,
//!    and which ops have reduction dimensions.
//! 2. **Combination rules** ([`combine_action`], Tables 5–6) document
//!    the paper's pairwise producer→consumer actions — keep both, try
//!    fuse, eliminate first/second/both — plus the resulting class and
//!    layout-search policy. No pass calls them either: LTE and fusion
//!    apply the same decisions operator by operator.
//! 3. **Layout Transformation Elimination** ([`eliminate`], §3.2.1):
//!    `Reshape`/`Transpose`/`DepthToSpace`/`SpaceToDepth`/`Slice`/
//!    `Split` chains become composed, strength-reduced index maps on the
//!    surviving edges.
//! 4. **Fusion** ([`fuse`]): DNNFusion-style grouping, which after
//!    elimination finds strictly more opportunities (Table 7).
//! 5. **Reduction-dimension layout selection** ([`select_layouts`],
//!    §3.2.2) with redundant-copy accounting (§4.6).
//! 6. **2.5D texture mapping** ([`place_texture`], §3.3, Fig. 5) and
//!    **execution-configuration tuning** ([`tune`]): an exact sweep of
//!    the closed-form utilization objective, where the paper uses
//!    DNNFusion's genetic algorithm over on-device measurements.
//! 7. A shared [`OptimizedGraph`] + [`estimate`](OptimizedGraph::estimate)
//!    pipeline output consumed by the baseline frameworks as well, so
//!    all Table 7/8 comparisons run through identical machinery.
//!
//! The steps above are packaged as [`Pass`]es ([`LtePass`],
//! [`FusionPass`], [`AssembleGroupsPass`], [`LayoutSelectPass`],
//! [`TunePass`]) executed by the [`PassManager`]; a [`Framework`] is a
//! name plus a declarative pass sequence. The [`CompileSession`] layer
//! adds a content-hash compilation cache and parallel batch compilation
//! on top.
//!
//! [`SmartMemPipeline::at`] builds the sequence at one rung of Fig. 8's
//! cumulative ablation ladder, [`SmartMemLevel`]; each pass switches on
//! at a rung ([`StreamlinePass`] rewrites the graph before LTE):
//!
//! | rung | `streamline` | `lte` (enabled, IC) | `layout-select` | `tune` |
//! |---|---|---|---|---|
//! | `DnnFusion` | — | off, off | `Default` | untuned |
//! | `LteWithoutIc` | runs | on, off | `Default` | untuned |
//! | `Lte` | runs | on, on | `Default` | untuned |
//! | `Layout` | runs | on, on | `ReductionK1` | untuned |
//! | `Full` | runs | on, on | `ReductionK2` | tuned |
//!
//! `fusion` and `assemble-groups` run at every rung;
//! [`SmartMemPipeline::new`] is `Full`.
//!
//! # Example
//!
//! ```
//! use smartmem_core::{Framework, SmartMemPipeline};
//! use smartmem_ir::{DType, GraphBuilder};
//! use smartmem_sim::DeviceConfig;
//!
//! let mut b = GraphBuilder::new("toy");
//! let x = b.input("x", &[1, 16, 32], DType::F16);
//! let w = b.weight("w", &[32, 32], DType::F16);
//! let mm = b.matmul(x, w);
//! let t = b.transpose(mm, &[0, 2, 1]);
//! let out = b.softmax(t, 2);
//! b.output(out);
//! let graph = b.finish();
//!
//! let device = DeviceConfig::snapdragon_8gen2();
//! let optimized = SmartMemPipeline::new().optimize(&graph, &device).unwrap();
//! assert!(optimized.stats.eliminated_ops >= 1); // the transpose is gone
//! let report = optimized.estimate(&device);
//! assert!(report.latency_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod combine;
mod estimate;
mod fusion;
mod layout_select;
mod lte;
mod pass;
mod persist;
mod pipeline;
mod reduction;
mod session;
mod streamline;
mod texture;
mod trace;
mod tune;

pub use classify::{classify, InputDep, OpClass, OutputKind};
pub use combine::{combine_action, result_class, search_policy, CombineAction, SearchPolicy};
pub use estimate::{GroupReport, ModelReport};
pub use fusion::{fuse, GroupDraft};
pub use layout_select::{required_dims, select_layouts, RedundancyStats, SelectionLevel};
pub use lte::{eliminate, is_eliminable, lte_memo_len, op_pullback, EdgeSource, LteResult};
pub use pass::{
    AssembleGroupsPass, CompileCtx, CompileOutput, Diagnostic, FusionPass, GaTuner,
    LayoutSelectPass, LtePass, Pass, PassManager, PassTiming, TunePass,
};
pub use pipeline::{
    assemble_groups, group_class, iteration_mn, EdgeRead, Framework, KernelGroup, MemModel,
    OptStats, OptimizedGraph, SmartMemLevel, SmartMemPipeline, Unsupported,
};
pub use reduction::reduction_dims;
pub use streamline::StreamlinePass;

pub use session::{
    device_fingerprint, graph_fingerprint, CacheStats, CompileResult, CompileSession,
};
pub use texture::{fits_texture, place_buffer, place_texture, MAX_TEXTURE_EXTENT};
pub use trace::TraceStats;
pub use tune::{base_utilization, fitness, tune, utilization, ExecConfig};
