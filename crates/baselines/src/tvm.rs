//! The TVM-style pipeline: rule-based injective fusion, ConvertLayout
//! relayouts at conv boundaries, auto-tuned kernels, and the published
//! weakness on grouped/depthwise convolutions (the paper's explanation
//! for the 166× ConvNext gap: "TVM lacking an efficient layout design
//! for a reduction operator GroupConvolution").

use crate::common::{FusePolicy, LayoutStyle};
use crate::passes::{PolicyFusionPass, RelayoutPass, UniformLayoutPass, UtilizationPass};
use smartmem_core::{
    AssembleGroupsPass, Framework, LtePass, MemModel, PassManager, StreamlinePass,
};
use smartmem_ir::Op;

/// TVM with auto-tuning enabled (the paper runs TVM's tuner for the
/// comparisons).
#[derive(Clone, Debug, Default)]
pub struct TvmFramework;

impl TvmFramework {
    /// Creates the pipeline.
    pub fn new() -> Self {
        TvmFramework
    }
}

/// Per-anchor utilization adjustment reproducing TVM's grouped-conv
/// weakness.
fn tvm_adjust(op: &Op) -> f64 {
    match op {
        // Depthwise convolutions hit TVM's inefficient GroupConvolution
        // lowering on mobile GPU hardest (the ConvNext case); moderately
        // grouped convolutions (RegNet/ResNext) lose less.
        Op::Conv2d { groups, .. } if *groups >= 16 => 0.06,
        Op::Conv2d { groups, .. } if *groups > 1 => 0.5,
        op if op.is_layout_transform() => 0.2,
        _ => 1.0,
    }
}

impl Framework for TvmFramework {
    fn name(&self) -> &str {
        "TVM"
    }

    fn passes(&self) -> PassManager {
        PassManager::new("TVM")
            .with_mem_model(MemModel {
                pooled: true,
                workspace_factor: 2.1,
                im2col: true,
                dispatch_scale: 1.0,
            })
            // Relay-style graph simplification runs before layout
            // legalization, mirroring TVM's SimplifyExpr/FoldConstant.
            .then(StreamlinePass)
            .then(RelayoutPass)
            .then(LtePass::disabled())
            // TVM's bijective fusion is frequently blocked on the mobile
            // GPU path: ConvertLayout staging materializes the reshape
            // chain (hence Table 7's higher operator counts).
            .then(PolicyFusionPass {
                policy: FusePolicy {
                    fuse_unary: true,
                    fuse_binary: false,
                    fuse_reshape: false,
                    anchors_only: false,
                    max_group: 6,
                },
            })
            .then(AssembleGroupsPass)
            // TVM on Adreno uses texture memory for conv workloads via
            // its `texture` schedules; the generic default placement
            // models that.
            .then(UniformLayoutPass { style: LayoutStyle::TextureDefault })
            .then(UtilizationPass { tag: "tvm", scale: 0.5, adjust: tvm_adjust })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use smartmem_ir::{DType, GraphBuilder};
    use smartmem_sim::DeviceConfig;

    #[test]
    fn depthwise_conv_is_penalized() {
        let dw = Op::Conv2d { stride: (1, 1), padding: (1, 1), groups: 96 };
        let dense = Op::Conv2d { stride: (1, 1), padding: (1, 1), groups: 1 };
        assert!(tvm_adjust(&dw) < 0.1);
        assert_eq!(tvm_adjust(&dense), 1.0);
    }

    #[test]
    fn supports_transformers() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let m = b.matmul(x, w);
        let s = b.softmax(m, 2);
        b.output(s);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        assert!(TvmFramework::new().optimize(&g, &device).is_ok());
    }

    #[test]
    fn depthwise_model_runs_much_slower_than_dense() {
        let build = |groups: usize, cin: usize| {
            let mut b = GraphBuilder::new("g");
            let x = b.input("x", &[1, cin, 16, 16], DType::F16);
            let w = b.weight("w", &[cin, cin / groups, 3, 3], DType::F16);
            let c = b.conv2d(x, w, (1, 1), (1, 1), groups);
            b.output(c);
            b.finish()
        };
        let device = DeviceConfig::snapdragon_8gen2();
        let dense = TvmFramework::new().run(&build(1, 32), &device).unwrap();
        let dw = TvmFramework::new().run(&build(32, 32), &device).unwrap();
        // Depthwise has 32x fewer MACs but TVM's speed (GMACS) collapses.
        assert!(dw.gmacs < dense.gmacs / 4.0);
    }
}
