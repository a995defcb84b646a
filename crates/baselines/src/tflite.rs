//! The TFLite-GPU-delegate-style pipeline: fixed-pattern fusion,
//! NHWC-flavoured relayouts at conv boundaries, and narrow operator
//! support on the GPU delegate.

use crate::common::{has_selection_ops, has_transformer_ops, FusePolicy, LayoutStyle};
use crate::passes::{
    PolicyFusionPass, RelayoutPass, SupportPass, UniformLayoutPass, UtilizationPass,
};
use smartmem_core::{AssembleGroupsPass, Framework, LtePass, MemModel, PassManager};
use smartmem_ir::{Graph, Op};

/// TFLite with the mobile GPU delegate. Per Table 7, only the plain
/// ConvNets (RegNet, ResNext) compile; transformer operators and the
/// slice/split detection heads of YOLO are unsupported.
#[derive(Clone, Debug, Default)]
pub struct TfLiteFramework;

impl TfLiteFramework {
    /// Creates the pipeline.
    pub fn new() -> Self {
        TfLiteFramework
    }
}

fn tflite_unsupported(graph: &Graph) -> Option<String> {
    if has_transformer_ops(graph) {
        return Some("transformer operators not supported by the GPU delegate".into());
    }
    if has_selection_ops(graph) {
        return Some("slice/split/depth-to-space heads not supported by the GPU delegate".into());
    }
    None
}

fn tflite_adjust(op: &Op) -> f64 {
    if op.is_layout_transform() {
        0.3
    } else {
        1.0
    }
}

impl Framework for TfLiteFramework {
    fn name(&self) -> &str {
        "TFLite"
    }

    fn passes(&self) -> PassManager {
        PassManager::new("TFLite")
            .with_mem_model(MemModel {
                pooled: true,
                workspace_factor: 2.2,
                im2col: true,
                dispatch_scale: 1.0,
            })
            .then(SupportPass { tag: "tflite", check: tflite_unsupported })
            .then(RelayoutPass)
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::fixed_patterns() })
            .then(AssembleGroupsPass)
            .then(UniformLayoutPass { style: LayoutStyle::RowMajor })
            .then(UtilizationPass { tag: "tflite", scale: 0.6, adjust: tflite_adjust })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use smartmem_ir::{DType, GraphBuilder, UnaryKind};
    use smartmem_sim::DeviceConfig;

    #[test]
    fn rejects_selection_heads() {
        let mut b = GraphBuilder::new("yolo-ish");
        let x = b.input("x", &[1, 8, 4, 4], DType::F16);
        let parts = b.split(x, 1, 2);
        b.output(parts[0]);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        assert!(TfLiteFramework::new().optimize(&g, &device).is_err());
    }

    #[test]
    fn compiles_plain_convnets() {
        let mut b = GraphBuilder::new("plain");
        let x = b.input("x", &[1, 8, 8, 8], DType::F16);
        let w = b.weight("w", &[8, 8, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.unary(c, UnaryKind::Relu);
        b.output(r);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = TfLiteFramework::new().optimize(&g, &device).unwrap();
        assert_eq!(opt.stats.kernel_count, 1, "conv+relu fuse");
    }
}
