//! Shared machinery for the baseline pipelines: parameterized fusion
//! policies, framework-inserted relayout rewriting, layout styles and
//! utilization finalization.

use smartmem_core::{GroupDraft, KernelGroup, LteResult};
use smartmem_ir::{
    Graph, GraphBuilder, Layout, Node, Op, OpOrigin, TensorId, TensorKind, UnaryKind,
};
use smartmem_sim::DeviceConfig;
use std::collections::HashMap;

/// Fusion capabilities of a baseline framework.
#[derive(Clone, Copy, Debug)]
pub struct FusePolicy {
    /// Fuse unary element-wise ops into their producer.
    pub fuse_unary: bool,
    /// Fuse binary element-wise ops (bias-add, residual) into their
    /// producer.
    pub fuse_binary: bool,
    /// Fold `Reshape` into the producer kernel (bijective fusion, as in
    /// TVM and TorchInductor).
    pub fuse_reshape: bool,
    /// Only fuse into compute anchors (`Conv2d`/`MatMul`), the
    /// fixed-pattern style of MNN/TFLite; when false any producer kernel
    /// can absorb an epilogue (DNNFusion/TVM style).
    pub anchors_only: bool,
    /// Maximum members per kernel.
    pub max_group: usize,
}

impl FusePolicy {
    /// No fusion at all (NCNN executes the graph as-is on GPU).
    pub fn none() -> Self {
        FusePolicy {
            fuse_unary: false,
            fuse_binary: false,
            fuse_reshape: false,
            anchors_only: true,
            max_group: 1,
        }
    }

    /// Fixed patterns: `Conv/MatMul (+bias) (+activation)`.
    pub fn fixed_patterns() -> Self {
        FusePolicy {
            fuse_unary: true,
            fuse_binary: true,
            fuse_reshape: false,
            anchors_only: true,
            max_group: 3,
        }
    }
}

/// Groups operators under a baseline fusion policy (the counterpart of
/// `smartmem_core::fuse`, which models DNNFusion's more general rules).
pub fn fuse_with_policy(graph: &Graph, lte: &LteResult, policy: FusePolicy) -> Vec<GroupDraft> {
    let mut consumers: HashMap<TensorId, usize> = HashMap::new();
    for &id in &lte.kept {
        for &input in &graph.node(id).inputs {
            let src = lte.resolve(input).source;
            *consumers.entry(src).or_insert(0) += 1;
        }
    }
    for &out in graph.outputs() {
        let src = lte.resolve(out).source;
        *consumers.entry(src).or_insert(0) += 1;
    }

    let mut groups: Vec<GroupDraft> = Vec::new();
    let mut group_of_tensor: HashMap<TensorId, usize> = HashMap::new();
    for &id in &lte.kept {
        let node = graph.node(id);
        let fusable = match &node.op {
            Op::Unary { .. } => policy.fuse_unary,
            Op::Binary { .. } => policy.fuse_binary,
            Op::Reshape { .. } => policy.fuse_reshape,
            _ => false,
        };
        let mut fused = false;
        if fusable {
            for &input in &node.inputs {
                let src = lte.resolve(input).source;
                if graph.tensor(src).kind != TensorKind::Activation {
                    continue;
                }
                if consumers.get(&src).copied().unwrap_or(0) != 1 {
                    continue;
                }
                if let Some(&gidx) = group_of_tensor.get(&src) {
                    if groups[gidx].members.len() >= policy.max_group {
                        continue;
                    }
                    if policy.anchors_only {
                        let anchor_op = &graph.node(groups[gidx].anchor).op;
                        if !matches!(anchor_op, Op::Conv2d { .. } | Op::MatMul { .. }) {
                            continue;
                        }
                    }
                    groups[gidx].members.push(id);
                    group_of_tensor.remove(&src);
                    group_of_tensor.insert(node.outputs[0], gidx);
                    fused = true;
                    break;
                }
            }
        }
        if !fused {
            let gidx = groups.len();
            groups.push(GroupDraft { anchor: id, members: vec![id] });
            for &out in &node.outputs {
                group_of_tensor.insert(out, gidx);
            }
        }
    }
    groups
}

fn conv_family(op: &Op) -> bool {
    matches!(
        op,
        Op::Conv2d { .. }
            | Op::Pool2d { .. }
            | Op::InstanceNorm
            | Op::Binary { .. }
            | Op::Unary { .. }
    )
}

/// Rebuilds `graph` inserting a framework-origin `Identity` relayout
/// operator at every boundary between the conv-friendly packed layout
/// and the generic layout (MNN's `NC4HW4` behaviour): before a
/// conv-family op whose producer is not conv-family, and before a
/// non-conv-family op whose producer is conv-family. Returns the
/// rewritten graph and the number of inserted operators.
pub fn insert_relayouts(graph: &Graph) -> (Graph, usize) {
    let mut b = GraphBuilder::new(graph.name().to_string());
    let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
    // Re-create inputs and weights first.
    for (i, t) in graph.tensors().iter().enumerate() {
        let old = TensorId(i as u32);
        match t.kind {
            TensorKind::Input => {
                let new = b.input(t.name.clone(), t.shape.dims(), t.dtype);
                remap.insert(old, new);
            }
            TensorKind::Weight => {
                let new = match &t.init {
                    Some(v) => b.weight_init(t.name.clone(), t.shape.dims(), t.dtype, v.clone()),
                    None => b.weight(t.name.clone(), t.shape.dims(), t.dtype),
                };
                remap.insert(old, new);
            }
            TensorKind::Activation => {}
        }
    }
    let mut inserted = 0usize;
    let needs_boundary = |node: &Node, input: TensorId| -> bool {
        let producer = graph.producer(input);
        let info = graph.tensor(input);
        if info.kind != TensorKind::Activation || info.shape.rank() != 4 {
            return false;
        }
        match producer {
            Some(p) => conv_family(&graph.node(p).op) != conv_family(&node.op),
            None => false,
        }
    };
    for node in graph.nodes() {
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            let mut mapped = *remap.get(&input).expect("topological remap");
            if needs_boundary(node, input) {
                b.set_origin(OpOrigin::Framework);
                mapped = b.unary(mapped, UnaryKind::Identity);
                b.set_origin(OpOrigin::Model);
                inserted += 1;
            }
            inputs.push(mapped);
        }
        let outs =
            b.try_push(node.op.clone(), &inputs).expect("rebuilding a valid graph cannot fail");
        for (o, &new) in node.outputs.iter().zip(outs.iter()) {
            remap.insert(*o, new);
        }
    }
    for &out in graph.outputs() {
        b.output(remap[&out]);
    }
    (b.finish(), inserted)
}

/// Uniform physical-layout styles used by the baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutStyle {
    /// Row-major buffers everywhere.
    RowMajor,
    /// MNN-style `NC4HW4` packing for rank-4 tensors, row-major
    /// otherwise.
    Nc4Hw4,
    /// Texture with the last logical dim on X for every tensor that
    /// fits (DNNFusion on mobile GPUs).
    TextureDefault,
}

/// Applies a uniform layout style to every read and output of `groups`.
pub fn assign_layouts_uniform(
    graph: &Graph,
    groups: &mut [KernelGroup],
    device: &DeviceConfig,
    style: LayoutStyle,
) {
    let layout_of = |t: TensorId| -> Layout {
        let shape = &graph.tensor(t).shape;
        let rank = shape.rank();
        match style {
            LayoutStyle::RowMajor => Layout::row_major(rank),
            LayoutStyle::Nc4Hw4 => {
                if rank == 4 {
                    Layout::nc4hw4()
                } else {
                    Layout::row_major(rank)
                }
            }
            LayoutStyle::TextureDefault => {
                if device.caps.texture_path && rank == 4 {
                    let l = Layout::texture_default(rank);
                    if smartmem_core::fits_texture(&l, shape, device.caps.max_texture_extent) {
                        l
                    } else {
                        Layout::row_major(rank)
                    }
                } else {
                    Layout::row_major(rank)
                }
            }
        }
    };
    for g in groups.iter_mut() {
        g.output_layout = layout_of(g.output);
        for r in &mut g.reads {
            r.layout = layout_of(r.source);
        }
    }
}

/// Sets per-group utilization from the default execution config scaled
/// by the framework's kernel quality, with an optional per-anchor
/// adjustment (e.g. TVM's grouped-convolution weakness).
pub fn finalize_utilization(
    graph: &Graph,
    groups: &mut [KernelGroup],
    util_scale: f64,
    adjust: impl Fn(&Op) -> f64,
) {
    for g in groups.iter_mut() {
        let node = graph.node(g.anchor);
        let dims = graph.tensor(node.outputs[0]).shape.dims().to_vec();
        let (m, n) = smartmem_core::iteration_mn(&dims);
        let base = smartmem_core::utilization(&node.op, m, n, &g.config);
        g.utilization = (base * util_scale * adjust(&node.op)).clamp(0.02, 0.95);
    }
}

/// Builds groups for a baseline: no elimination, policy fusion,
/// assembled through the shared machinery.
#[cfg(test)]
pub(crate) fn baseline_groups(graph: &Graph, policy: FusePolicy) -> Vec<KernelGroup> {
    let lte = smartmem_core::eliminate(graph, false, false);
    let drafts = fuse_with_policy(graph, &lte, policy);
    smartmem_core::assemble_groups(graph, &lte, &drafts)
}

/// Operator-support scan: does the graph contain operators that only
/// transformer-capable frameworks support?
pub fn has_transformer_ops(graph: &Graph) -> bool {
    graph.nodes().iter().any(|n| {
        matches!(
            n.op,
            Op::MatMul { .. } | Op::LayerNorm { .. } | Op::Softmax { .. } | Op::Gather { .. }
        )
    })
}

/// Operator-support scan for selection/detection-head operators (the
/// reason TFLite's GPU delegate rejects YOLO-style models in Table 7).
pub fn has_selection_ops(graph: &Graph) -> bool {
    graph
        .nodes()
        .iter()
        .any(|n| matches!(n.op, Op::Slice { .. } | Op::Split { .. } | Op::DepthToSpace { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::DType;

    fn conv_mix() -> Graph {
        let mut b = GraphBuilder::new("mix");
        let x = b.input("x", &[1, 8, 8, 8], DType::F16);
        let w = b.weight("w", &[8, 8, 3, 3], DType::F16);
        let c = b.conv2d(x, w, (1, 1), (1, 1), 1);
        let r = b.unary(c, UnaryKind::Relu);
        let rs = b.reshape(r, &[1, 8, 64]);
        let sm = b.softmax(rs, 2);
        b.output(sm);
        b.finish()
    }

    #[test]
    fn policy_none_keeps_every_op() {
        let g = conv_mix();
        let groups = baseline_groups(&g, FusePolicy::none());
        assert_eq!(groups.len(), g.op_count());
    }

    #[test]
    fn fixed_patterns_fuse_conv_relu_only() {
        let g = conv_mix();
        let groups = baseline_groups(&g, FusePolicy::fixed_patterns());
        // conv+relu fuse; reshape and softmax stay.
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn relayout_insertion_at_conv_boundaries() {
        let g = conv_mix();
        let (rewritten, inserted) = insert_relayouts(&g);
        // relu -> reshape crosses from conv-family to generic on a 4D
        // tensor: one conversion.
        assert_eq!(inserted, 1);
        assert_eq!(rewritten.op_count(), g.op_count() + 1);
        assert!(rewritten.validate().is_ok());
        // Inserted ops carry Framework origin.
        let framework_ops =
            rewritten.nodes().iter().filter(|n| n.origin == OpOrigin::Framework).count();
        assert_eq!(framework_ops, 1);
    }

    #[test]
    fn uniform_layout_styles() {
        let g = conv_mix();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups = baseline_groups(&g, FusePolicy::none());
        assign_layouts_uniform(&g, &mut groups, &device, LayoutStyle::Nc4Hw4);
        let conv_read = &groups[0].reads[0];
        assert_eq!(conv_read.layout, Layout::nc4hw4());
        assign_layouts_uniform(&g, &mut groups, &device, LayoutStyle::RowMajor);
        assert_eq!(groups[0].reads[0].layout, Layout::row_major(4));
    }

    #[test]
    fn support_scans() {
        let g = conv_mix();
        assert!(has_transformer_ops(&g)); // softmax
        assert!(!has_selection_ops(&g));
    }

    #[test]
    fn utilization_finalize_scales() {
        let g = conv_mix();
        let mut groups = baseline_groups(&g, FusePolicy::none());
        finalize_utilization(&g, &mut groups, 0.5, |_| 1.0);
        let low: Vec<f64> = groups.iter().map(|g| g.utilization).collect();
        finalize_utilization(&g, &mut groups, 1.0, |_| 1.0);
        for (l, g2) in low.iter().zip(groups.iter()) {
            assert!(*l < g2.utilization);
        }
    }
}
