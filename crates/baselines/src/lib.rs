//! # smartmem-baselines
//!
//! Re-implementations of the five frameworks SmartMem is compared
//! against (MNN, NCNN, TFLite, TVM, DNNFusion — §4.1) plus
//! TorchInductor for the desktop comparison (Table 9). All pipelines
//! emit the same [`smartmem_core::OptimizedGraph`] and are estimated by
//! the same simulator, so cross-framework comparisons isolate exactly
//! the *optimization strategies*:
//!
//! | framework | fusion | explicit transforms | implicit relayouts | layouts |
//! |---|---|---|---|---|
//! | MNN | fixed patterns | kept as kernels | `NC4HW4` boundaries | packed buffers |
//! | NCNN | none | kept | none | packed buffers |
//! | TFLite | fixed patterns | kept | conv boundaries | row-major buffers |
//! | TVM | injective rules | kept | ConvertLayout boundaries | default texture |
//! | DNNFusion | classification-based | kept | none | default texture |
//! | TorchInductor | aggressive epilogue | kept | none | row-major buffers |
//! | **SmartMem** | classification-based | **eliminated** | **none** | **reduction-dim 2.5D** |
//!
//! Operator-support gaps reproduce Table 7's "–" entries: NCNN and
//! TFLite reject transformer operators; TFLite additionally rejects the
//! slice/split detection heads of YOLO.
//!
//! Each framework is a declarative pass sequence through
//! [`smartmem_core::PassManager`]: an operator-support gate, optional
//! relayout insertion, policy fusion, a uniform layout style, and a
//! kernel-quality finalization (see the pass types re-exported below).
//!
//! # Example
//!
//! ```
//! use smartmem_baselines::{all_mobile_frameworks, MnnFramework};
//! use smartmem_core::Framework;
//!
//! assert_eq!(MnnFramework::new().name(), "MNN");
//! assert_eq!(all_mobile_frameworks().len(), 6); // 5 baselines + SmartMem
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod dnnfusion;
mod inductor;
mod mnn;
mod ncnn;
mod passes;
mod tflite;
mod tvm;

pub use common::{
    assign_layouts_uniform, finalize_utilization, fuse_with_policy, has_selection_ops,
    has_transformer_ops, insert_relayouts, FusePolicy, LayoutStyle,
};
pub use dnnfusion::DnnFusionFramework;
pub use inductor::TorchInductorFramework;
pub use mnn::MnnFramework;
pub use ncnn::NcnnFramework;
pub use passes::{PolicyFusionPass, RelayoutPass, SupportPass, UniformLayoutPass, UtilizationPass};
pub use tflite::TfLiteFramework;
pub use tvm::TvmFramework;

use smartmem_core::{Framework, SmartMemPipeline};

/// The six frameworks of the mobile-GPU comparison, in the paper's
/// column order (MNN, NCNN, TFLite, TVM, DNNFusion, SmartMem).
pub fn all_mobile_frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(MnnFramework::new()),
        Box::new(NcnnFramework::new()),
        Box::new(TfLiteFramework::new()),
        Box::new(TvmFramework::new()),
        Box::new(DnnFusionFramework::new()),
        Box::new(SmartMemPipeline::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framework_names_match_paper_order() {
        let names: Vec<String> =
            all_mobile_frameworks().iter().map(|f| f.name().to_string()).collect();
        assert_eq!(names, vec!["MNN", "NCNN", "TFLite", "TVM", "DNNFusion", "SmartMem"]);
    }
}
