//! # smartmem-core
//!
//! The SmartMem optimizer — the primary contribution of the paper
//! (*SmartMem: Layout Transformation Elimination and Adaptation for
//! Efficient DNN Execution on Mobile*, ASPLOS'24) — implemented over the
//! `smartmem-ir` graph representation and the `smartmem-sim` device
//! model:
//!
//! 1. **Operator classification** (Tables 3–4) lives on the IR
//!    operator: [`Op::class`](smartmem_ir::Op::class) places every
//!    operator in one quadrant of (input-layout dependence ×
//!    output-layout customizability), and
//!    [`Op::reduction_dims`](smartmem_ir::Op::reduction_dims) gives each
//!    operand's reduction dimensions; only `ILD & Variable` operators
//!    have any. Every taxonomy predicate below is derived from them.
//! 2. **Combination rules** (Tables 5–6) are applied operator by
//!    operator rather than pair by pair: LTE eliminates every Fixed
//!    operator except `Gather` ([`is_eliminable`]; one that produces a
//!    graph output stays), and fusion folds
//!    `Unary` / `Binary` / `Reshape` epilogues into their producer.
//!    Fusion is narrower than Table 5's `TryFuse`: an `ILI` producer is
//!    never folded into an `ILD` consumer, and `Concat` is never folded.
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

mod estimate;
mod fusion;
mod layout_select;
mod lte;
mod pass;
mod persist;
mod pipeline;
mod session;
mod streamline;
mod texture;
mod trace;
mod tune;

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
pub use streamline::StreamlinePass;

pub use session::{
    device_fingerprint, graph_fingerprint, CacheStats, CompileResult, CompileSession,
};
pub use texture::{fits_texture, place_buffer, place_texture};
pub use trace::TraceStats;
pub use tune::{base_utilization, fitness, tune, utilization, ExecConfig};
