//! The DNNFusion pipeline — the paper's strongest baseline and the
//! substrate SmartMem is built on. Advanced classification-based fusion
//! but no layout-transformation elimination and no reduction-dimension
//! layout selection.

use smartmem_core::{Framework, MemModel, PassManager, SmartMemLevel, SmartMemPipeline};

/// DNNFusion (PLDI'21). Shares SmartMem's fusion machinery with every
/// SmartMem-specific optimization disabled: explicit `Reshape`/
/// `Transpose` operators remain kernels, layouts are the framework
/// defaults, and execution configs are untuned.
#[derive(Clone, Debug, Default)]
pub struct DnnFusionFramework {
    inner: SmartMemPipeline,
}

impl DnnFusionFramework {
    /// Creates the pipeline.
    pub fn new() -> Self {
        DnnFusionFramework { inner: SmartMemPipeline::at(SmartMemLevel::DnnFusion) }
    }
}

impl Framework for DnnFusionFramework {
    fn name(&self) -> &str {
        "DNNFusion"
    }

    fn passes(&self) -> PassManager {
        // SmartMem's sequence with every SmartMem-specific optimization
        // disabled, renamed and given DNNFusion's memory model.
        self.inner.passes().named("DNNFusion").with_mem_model(MemModel {
            pooled: true,
            workspace_factor: 1.45,
            im2col: false,
            dispatch_scale: 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::Graph;
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};
    use smartmem_sim::DeviceConfig;

    fn transformer_snippet() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 64, 96], DType::F16);
        let w = b.weight("w", &[96, 96], DType::F16);
        let m = b.matmul(x, w);
        let r = b.reshape(m, &[1, 64, 3, 32]);
        let t = b.transpose(r, &[0, 2, 1, 3]);
        let g = b.unary(t, UnaryKind::Gelu);
        b.output(g);
        b.finish()
    }

    #[test]
    fn dnnfusion_keeps_layout_transforms() {
        let g = transformer_snippet();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = DnnFusionFramework::new().optimize(&g, &device).unwrap();
        assert_eq!(opt.stats.eliminated_ops, 0);
        // SmartMem on the same graph has fewer kernels.
        let ours = smartmem_core::SmartMemPipeline::new().optimize(&g, &device).unwrap();
        assert!(ours.stats.kernel_count < opt.stats.kernel_count);
    }

    #[test]
    fn dnnfusion_faster_than_mnn_style_but_slower_than_smartmem() {
        let g = transformer_snippet();
        let device = DeviceConfig::snapdragon_8gen2();
        let dnnf = DnnFusionFramework::new().run(&g, &device).unwrap();
        let mnn = crate::Baseline::MNN.run(&g, &device).unwrap();
        let ours = smartmem_core::SmartMemPipeline::new().run(&g, &device).unwrap();
        assert!(ours.latency_ms < dnnf.latency_ms);
        assert!(dnnf.latency_ms < mnn.latency_ms);
    }
}
