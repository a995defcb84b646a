//! The MNN-style pipeline: fixed-pattern fusion, `NC4HW4` packed
//! layouts with implicit conversions at conv/generic boundaries, and a
//! memory pool with substantial per-op workspaces.

use crate::common::{FusePolicy, LayoutStyle};
use crate::passes::{PolicyFusionPass, RelayoutPass, UniformLayoutPass, UtilizationPass};
use smartmem_core::{AssembleGroupsPass, Framework, LtePass, MemModel, PassManager};
use smartmem_ir::Op;

/// MNN (Alibaba's mobile inference engine) as characterized in the
/// paper: supports all evaluated models, employs fixed-pattern fusion
/// (`Conv/MatMul + bias + activation`), keeps every explicit
/// `Reshape`/`Transpose` as a kernel, and inserts implicit `NC4HW4`
/// conversions between conv-friendly and generic operators.
#[derive(Clone, Debug, Default)]
pub struct MnnFramework;

impl MnnFramework {
    /// Creates the pipeline.
    pub fn new() -> Self {
        MnnFramework
    }
}

/// MNN's convolution kernels are excellent (Table 1: ResNet50 at 293
/// GMACS); its transformer and transform/movement kernels are not (Swin
/// at 15 GMACS, 54% of time in explicit transforms).
fn mnn_adjust(op: &Op) -> f64 {
    if op.is_layout_transform() || matches!(op.category(), smartmem_ir::OpCategory::DataMovement) {
        0.06
    } else {
        match op {
            Op::Conv2d { .. } | Op::Pool2d { .. } => 1.0,
            Op::MatMul { .. } | Op::LayerNorm { .. } | Op::Softmax { .. } | Op::InstanceNorm => {
                0.18
            }
            _ => 0.4,
        }
    }
}

impl Framework for MnnFramework {
    fn name(&self) -> &str {
        "MNN"
    }

    fn passes(&self) -> PassManager {
        PassManager::new("MNN")
            .with_mem_model(MemModel {
                pooled: true,
                workspace_factor: 2.6,
                im2col: true,
                dispatch_scale: 1.0,
            })
            .then(RelayoutPass)
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::fixed_patterns() })
            .then(AssembleGroupsPass)
            .then(UniformLayoutPass { style: LayoutStyle::Nc4Hw4 })
            .then(UtilizationPass { tag: "mnn", scale: 0.85, adjust: mnn_adjust })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::Graph;
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};
    use smartmem_sim::DeviceConfig;

    fn model() -> Graph {
        let mut b = GraphBuilder::new("m");
        let x = b.input("x", &[1, 8, 8, 8], DType::F16);
        let w = b.weight("w", &[8, 8, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.unary(c, UnaryKind::Relu);
        let rs = b.reshape(r, &[1, 8, 64]);
        let t = b.transpose(rs, &[0, 2, 1]);
        b.output(t);
        b.finish()
    }

    #[test]
    fn mnn_keeps_transforms_and_inserts_relayouts() {
        let g = model();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = MnnFramework::new().optimize(&g, &device).unwrap();
        assert_eq!(opt.stats.eliminated_ops, 0);
        assert!(opt.stats.implicit_inserted >= 1);
        assert!(opt.stats.kernel_count > 2);
    }

    #[test]
    fn mnn_estimates_slower_than_smartmem() {
        let g = model();
        let device = DeviceConfig::snapdragon_8gen2();
        let mnn = MnnFramework::new().run(&g, &device).unwrap();
        let ours = smartmem_core::SmartMemPipeline::new().run(&g, &device).unwrap();
        assert!(mnn.latency_ms > ours.latency_ms);
        assert!(mnn.kernel_count > ours.kernel_count);
    }
}
