//! # smartmem
//!
//! Facade crate for the SmartMem reproduction (ASPLOS'24: *SmartMem:
//! Layout Transformation Elimination and Adaptation for Efficient DNN
//! Execution on Mobile*). Re-exports the workspace crates under stable
//! module names:
//!
//! * [`ir`] — tensor shapes, layouts, operators, computational graphs.
//! * [`index`] — symbolic index expressions and strength reduction
//!   ("index comprehension").
//! * [`sim`] — the trace-driven mobile-GPU simulator (1D buffer + 2.5D
//!   texture memory) and device configurations.
//! * [`core`] — the SmartMem optimizer: classification, layout
//!   transformation elimination, reduction-dimension layout selection,
//!   texture mapping and auto-tuning.
//! * [`baselines`] — MNN/NCNN/TFLite/TVM/DNNFusion-style pipelines.
//! * [`models`] — the 20-model zoo of the paper's evaluation.
//! * [`serve`] — the SLO-aware batched inference serving runtime
//!   (bounded queue → pull-mode per-(model, device) batcher with
//!   priority classes, slack-ordered cuts and request cancellation →
//!   latency-estimate scheduler → one shared, single-flight
//!   [`core::CompileSession`]).
//! * [`telemetry`] — the tracing substrate: per-request spans
//!   (queue → compile → execute) into bounded per-thread rings, and
//!   Chrome-trace / terminal exporters (`serve_bench --trace-out`,
//!   `trace_view`). Counts live in the server's `ServeStats`.
//!
//! # Architecture: Pass / PassManager / CompileCtx
//!
//! Every framework — SmartMem and the six baselines alike — is a
//! *declarative pass sequence* executed by one shared pass manager
//! (the `transform.Sequential` idiom of TVM's pass infrastructure):
//!
//! ```text
//!  Framework::passes() ──► PassManager ──► CompileOutput
//!                            │   runs each Pass over a CompileCtx
//!                            │   (graph, device, LTE result, fusion
//!                            │    drafts, kernel groups, layouts)
//!                            ├── per-pass wall-clock PassTiming
//!                            ├── per-pass OptStats snapshots
//!                            └── structured Diagnostics
//! ```
//!
//! * A [`core::Pass`] is one named rewrite step over the shared
//!   [`core::CompileCtx`]. The SmartMem sequence is `lte → fusion →
//!   assemble-groups → layout-select → tune`; a baseline is the same
//!   shape with its own passes swapped in (`support-check`,
//!   `insert-relayouts`, `policy-fusion`, `uniform-layout`,
//!   `finalize-utilization` from [`baselines`]).
//! * The [`core::PassManager`] executes a sequence with per-pass
//!   timing ([`core::PassTiming`]), [`core::OptStats`] snapshots after
//!   every pass, and [`core::Diagnostic`]s, producing a
//!   [`core::CompileOutput`].
//! * A framework is just a display name plus a pass sequence
//!   ([`core::Framework::passes`]); `optimize`/`optimize_timed`/`run`
//!   are provided by the trait through the manager.
//! * The session layer ([`core::CompileSession`]) memoizes compilations
//!   by *(graph fingerprint, device fingerprint, pass-sequence id)*,
//!   deduplicates concurrent cold compiles (single-flight), and
//!   compiles framework×model batches across threads
//!   ([`core::CompileSession::compile_batch`]).
//! * The serving layer ([`serve::Server`]) turns that into a runtime:
//!   requests are admitted under per-class latency budgets
//!   ([`serve::Priority`]), coalesce into per-(model, device) batches
//!   that device workers pull in slack order (cancellable via
//!   [`serve::CancelHandle`]), a roofline scheduler places them across
//!   the device pool, and artifacts are compiled once and reused
//!   cache-warm. `cargo run -p smartmem-bench --release --bin
//!   serve_bench` replays a priority-mixed open-loop trace over the
//!   zoo and reports throughput, per-class p50/p99 latency and SLO
//!   violations, per-device batch-size histograms, and the cache hit
//!   rate.
//!
//! The bench harness observes all of this: `cargo run -p smartmem-bench
//! --release --bin pass_timing` prints per-pass timing per framework,
//! parallel zoo compile times, and cache hit rates.
//!
//! # Quickstart
//!
//! ```
//! use smartmem::core::{Framework, SmartMemPipeline};
//! use smartmem::models;
//! use smartmem::sim::DeviceConfig;
//!
//! let graph = models::swin_tiny(1);
//! let device = DeviceConfig::snapdragon_8gen2();
//! let optimized = SmartMemPipeline::new().optimize(&graph, &device).unwrap();
//! let report = optimized.estimate(&device);
//! assert!(report.latency_ms > 0.0);
//! ```
//!
//! Per-pass observability:
//!
//! ```
//! use smartmem::core::{Framework, SmartMemPipeline};
//! use smartmem::models;
//! use smartmem::sim::DeviceConfig;
//!
//! let device = DeviceConfig::snapdragon_8gen2();
//! let out = SmartMemPipeline::new().optimize_timed(&models::vit(1), &device).unwrap();
//! let names: Vec<&str> = out.timings.iter().map(|t| t.pass.as_str()).collect();
//! assert_eq!(names, ["streamline", "lte", "fusion", "assemble-groups", "layout-select", "tune"]);
//! ```

pub use smartmem_baselines as baselines;
pub use smartmem_core as core;
pub use smartmem_index as index;
pub use smartmem_ir as ir;
pub use smartmem_models as models;
pub use smartmem_serve as serve;
pub use smartmem_sim as sim;
pub use smartmem_telemetry as telemetry;
