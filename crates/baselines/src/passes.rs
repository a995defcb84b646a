//! The passes of the baseline skeleton over the shared
//! [`smartmem_core::Pass`] trait: an operator-support gate, relayout
//! insertion, policy fusion, a uniform layout style and a kernel-quality
//! finalization — each a named, individually timed step of the shared
//! [`smartmem_core::PassManager`]. A [`crate::Baseline`] row configures
//! them.

use smartmem_core::{CompileCtx, GroupDraft, Pass, Unsupported};
use smartmem_ir::{Graph, GraphBuilder, Layout, Op, OpOrigin, TensorId, TensorKind, UnaryKind};
use std::collections::HashMap;

/// Operator-support gate: rejects models the framework cannot compile
/// (the "–" entries of Tables 7–8).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SupportPass {
    /// Stable identifier of the support policy (function-pointer
    /// addresses are not stable across runs, so the pass-sequence id —
    /// a cache-key component — fingerprints this tag instead).
    pub(crate) tag: &'static str,
    /// Returns a human-readable rejection reason, or `None` when the
    /// graph is supported.
    pub(crate) check: fn(&Graph) -> Option<String>,
}

impl Pass for SupportPass {
    fn name(&self) -> &'static str {
        "support-check"
    }

    fn params(&self) -> String {
        format!("tag={}", self.tag)
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        match (self.check)(&ctx.graph) {
            Some(reason) => Err(Unsupported::new(ctx.framework.clone(), reason)),
            None => Ok(()),
        }
    }
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

/// Rebuilds the graph inserting a framework-origin `Identity` relayout
/// operator (an implicit transformation) at every boundary between the
/// conv-friendly packed layout and the generic layout (MNN's `NC4HW4`
/// behaviour): before a conv-family op whose producer is not
/// conv-family, and before a non-conv-family op whose producer is
/// conv-family. The symbolic binding is then re-derived as
/// [`Graph::with_sym_dim`] binds it; a binding the rebuilt graph cannot
/// carry is a rejection.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RelayoutPass;

impl Pass for RelayoutPass {
    fn name(&self) -> &'static str {
        "insert-relayouts"
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let graph = &ctx.graph;
        let fail = |e| Unsupported::new(&ctx.framework, format!("insert-relayouts: {e}"));
        let mut b = GraphBuilder::new(graph.name().to_string());
        let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
        // Re-create inputs and weights first.
        for (i, t) in graph.tensors().iter().enumerate() {
            let new = match (t.kind, &t.init) {
                (TensorKind::Input, _) => b.input(t.name.clone(), t.shape.dims(), t.dtype),
                (TensorKind::Weight, Some(v)) => {
                    b.weight_init(t.name.clone(), t.shape.dims(), t.dtype, v.clone())
                }
                (TensorKind::Weight, None) => b.weight(t.name.clone(), t.shape.dims(), t.dtype),
                (TensorKind::Activation, _) => continue,
            };
            remap.insert(TensorId(i as u32), new);
        }
        let mut inserted = 0usize;
        for node in graph.nodes() {
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for &input in &node.inputs {
                let mut mapped = *remap.get(&input).expect("topological remap");
                let info = graph.tensor(input);
                let boundary = info.kind == TensorKind::Activation
                    && info.shape.rank() == 4
                    && graph
                        .producer(input)
                        .is_some_and(|p| conv_family(&graph.node(p).op) != conv_family(&node.op));
                if boundary {
                    b.set_origin(OpOrigin::Framework);
                    mapped = b.unary(mapped, UnaryKind::Identity);
                    b.set_origin(OpOrigin::Model);
                    inserted += 1;
                }
                inputs.push(mapped);
            }
            let outs = b.try_push(node.op.clone(), &inputs).map_err(fail)?;
            for (o, &new) in node.outputs.iter().zip(outs.iter()) {
                remap.insert(*o, new);
            }
        }
        for &out in graph.outputs() {
            b.output(remap[&out]);
        }
        let mut rewritten = b.finish();
        for d in graph.sym_dims() {
            rewritten = rewritten.with_sym_dim(d.name.clone(), &d.table, d.value).map_err(fail)?;
        }
        if inserted > 0 {
            ctx.note(self.name(), format!("inserted {inserted} implicit relayout operators"));
        }
        ctx.graph = rewritten;
        ctx.implicit_inserted += inserted;
        Ok(())
    }
}

/// Fusion capabilities of a baseline framework.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FusePolicy {
    /// Fuse unary element-wise ops into their producer.
    pub(crate) fuse_unary: bool,
    /// Fuse binary element-wise ops (bias-add, residual) into their
    /// producer.
    pub(crate) fuse_binary: bool,
    /// Fold `Reshape` into the producer kernel (bijective fusion, as in
    /// TVM and TorchInductor).
    pub(crate) fuse_reshape: bool,
    /// Only fuse into compute anchors (`Conv2d`/`MatMul`), the
    /// fixed-pattern style of MNN/TFLite; when false any producer kernel
    /// can absorb an epilogue (DNNFusion/TVM style).
    pub(crate) anchors_only: bool,
    /// Maximum members per kernel.
    pub(crate) max_group: usize,
}

impl FusePolicy {
    /// No fusion at all (NCNN executes the graph as-is on GPU).
    pub(crate) const NONE: FusePolicy = FusePolicy {
        fuse_unary: false,
        fuse_binary: false,
        fuse_reshape: false,
        anchors_only: true,
        max_group: 1,
    };

    /// Fixed patterns: `Conv/MatMul (+bias) (+activation)`.
    pub(crate) const FIXED_PATTERNS: FusePolicy = FusePolicy {
        fuse_unary: true,
        fuse_binary: true,
        fuse_reshape: false,
        anchors_only: true,
        max_group: 3,
    };
}

/// Groups operators under a baseline fusion policy (the counterpart of
/// the core `FusionPass`, which models DNNFusion's classification-based
/// rules): an element-wise op (or a reshape, if the policy folds them)
/// joins the kernel of its sole-consumed activation input while the
/// kernel has room and, for anchors-only policies, a compute anchor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PolicyFusionPass {
    /// The framework's fusion capabilities.
    pub(crate) policy: FusePolicy,
}

impl Pass for PolicyFusionPass {
    fn name(&self) -> &'static str {
        "policy-fusion"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let (graph, lte, policy) = (&ctx.graph, ctx.expect_lte(self.name()), self.policy);
        let mut consumers: HashMap<TensorId, usize> = HashMap::new();
        let reads = lte.kept.iter().flat_map(|&id| &graph.node(id).inputs);
        for &t in reads.chain(graph.outputs()) {
            *consumers.entry(lte.resolve(t).source).or_insert(0) += 1;
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
                    if graph.tensor(src).kind != TensorKind::Activation
                        || consumers.get(&src).copied().unwrap_or(0) != 1
                    {
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
        ctx.drafts = groups;
        Ok(())
    }
}

/// Uniform physical-layout styles used by the baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LayoutStyle {
    /// Row-major buffers everywhere.
    RowMajor,
    /// MNN-style `NC4HW4` packing for rank-4 tensors, row-major
    /// otherwise.
    Nc4Hw4,
    /// Texture with the last logical dim on X for every rank-4 tensor
    /// that fits, on devices with a texture path; row-major otherwise.
    TextureDefault,
}

/// Applies one uniform physical-layout style to every read and output
/// (baselines do not select layouts per edge).
#[derive(Clone, Copy, Debug)]
pub(crate) struct UniformLayoutPass {
    /// The framework's layout style.
    pub(crate) style: LayoutStyle,
}

impl Pass for UniformLayoutPass {
    fn name(&self) -> &'static str {
        "uniform-layout"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let (graph, caps) = (&ctx.graph, &ctx.device.caps);
        let layout_of = |t: TensorId| -> Layout {
            let shape = &graph.tensor(t).shape;
            let rank = shape.rank();
            match self.style {
                LayoutStyle::Nc4Hw4 if rank == 4 => Layout::nc4hw4(),
                LayoutStyle::TextureDefault if caps.texture_path && rank == 4 => {
                    let l = Layout::texture_default(rank);
                    if smartmem_core::fits_texture(&l, shape, caps.max_texture_extent) {
                        l
                    } else {
                        Layout::row_major(rank)
                    }
                }
                _ => Layout::row_major(rank),
            }
        };
        for g in &mut ctx.groups {
            g.output_layout = layout_of(g.output);
            for r in &mut g.reads {
                r.layout = layout_of(r.source);
            }
        }
        Ok(())
    }
}

/// Finalizes per-kernel utilization: the default execution config's,
/// scaled by the framework's kernel quality (`scale`) and a per-anchor
/// adjustment (e.g. TVM's grouped-convolution weakness).
#[derive(Clone, Copy, Debug)]
pub(crate) struct UtilizationPass {
    /// Stable identifier of the adjustment policy (see
    /// [`SupportPass::tag`]).
    pub(crate) tag: &'static str,
    /// Overall kernel-quality multiplier.
    pub(crate) scale: f64,
    /// Per-anchor-operator adjustment.
    pub(crate) adjust: fn(&Op) -> f64,
}

impl Pass for UtilizationPass {
    fn name(&self) -> &'static str {
        "finalize-utilization"
    }

    fn params(&self) -> String {
        format!("tag={} scale={}", self.tag, self.scale)
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let graph = &ctx.graph;
        for g in &mut ctx.groups {
            let node = graph.node(g.anchor);
            let dims = graph.tensor(node.outputs[0]).shape.dims().to_vec();
            let (m, n) = smartmem_core::iteration_mn(&dims);
            let base = smartmem_core::utilization(&node.op, m, n, &g.config);
            g.utilization = (base * self.scale * (self.adjust)(&node.op)).clamp(0.02, 0.95);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_core::{AssembleGroupsPass, LtePass, PassManager};
    use smartmem_ir::DType;
    use smartmem_sim::DeviceConfig;

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

    /// Runs `passes` in order over a fresh context.
    fn run(graph: &Graph, passes: &[&dyn Pass]) -> CompileCtx {
        let mut ctx = CompileCtx::new("check", graph, &DeviceConfig::snapdragon_8gen2());
        for pass in passes {
            pass.run(&mut ctx).unwrap();
        }
        ctx
    }

    /// Groups for a baseline: no elimination, then policy fusion.
    fn baseline_groups(graph: &Graph, policy: FusePolicy) -> CompileCtx {
        run(graph, &[&LtePass::disabled(), &PolicyFusionPass { policy }, &AssembleGroupsPass])
    }

    #[test]
    fn support_pass_rejects_with_framework_name() {
        fn reject_all(_: &Graph) -> Option<String> {
            Some("nothing is supported".into())
        }
        let device = DeviceConfig::snapdragon_8gen2();
        let err = PassManager::new("Grumpy")
            .then(SupportPass { tag: "reject-all", check: reject_all })
            .run_on(&conv_mix(), &device)
            .unwrap_err();
        assert_eq!(err.framework, "Grumpy");
        assert!(err.reason.contains("nothing"));
    }

    #[test]
    fn baseline_sequence_reproduces_helper_pipeline() {
        // Pass-manager execution must equal running the passes by hand.
        let g = conv_mix();
        let device = DeviceConfig::snapdragon_8gen2();
        let out = PassManager::new("check")
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::FIXED_PATTERNS })
            .then(AssembleGroupsPass)
            .run_on(&g, &device)
            .unwrap();
        let direct = baseline_groups(&g, FusePolicy::FIXED_PATTERNS);
        assert_eq!(out.optimized.groups.len(), direct.groups.len());
        assert_eq!(out.optimized.stats.implicit_inserted, 0);
    }

    #[test]
    fn relayout_pass_rewrites_graph_and_counts() {
        let g = conv_mix();
        let device = DeviceConfig::snapdragon_8gen2();
        let out = PassManager::new("check")
            .then(RelayoutPass)
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::NONE })
            .then(AssembleGroupsPass)
            .run_on(&g, &device)
            .unwrap();
        assert_eq!(out.optimized.stats.implicit_inserted, 1);
        assert_eq!(out.optimized.graph.op_count(), g.op_count() + 1);
        assert_eq!(out.optimized.stats.source_ops, g.op_count());
    }

    #[test]
    fn policy_none_keeps_every_op() {
        let g = conv_mix();
        let ctx = baseline_groups(&g, FusePolicy::NONE);
        assert_eq!(ctx.groups.len(), g.op_count());
    }

    #[test]
    fn fixed_patterns_fuse_conv_relu_only() {
        let g = conv_mix();
        let ctx = baseline_groups(&g, FusePolicy::FIXED_PATTERNS);
        // conv+relu fuse; reshape and softmax stay.
        assert_eq!(ctx.groups.len(), 3);
    }

    #[test]
    fn relayout_insertion_at_conv_boundaries() {
        let g = conv_mix();
        let ctx = run(&g, &[&RelayoutPass]);
        // relu -> reshape crosses from conv-family to generic on a 4D
        // tensor: one conversion.
        assert_eq!(ctx.implicit_inserted, 1);
        assert_eq!(ctx.graph.op_count(), g.op_count() + 1);
        assert!(ctx.graph.validate().is_ok());
        // Inserted ops carry Framework origin.
        let framework_ops =
            ctx.graph.nodes().iter().filter(|n| n.origin == OpOrigin::Framework).count();
        assert_eq!(framework_ops, 1);
    }

    #[test]
    fn uniform_layout_styles() {
        let g = conv_mix();
        let mut ctx = baseline_groups(&g, FusePolicy::NONE);
        UniformLayoutPass { style: LayoutStyle::Nc4Hw4 }.run(&mut ctx).unwrap();
        let conv_read = &ctx.groups[0].reads[0];
        assert_eq!(conv_read.layout, Layout::nc4hw4());
        UniformLayoutPass { style: LayoutStyle::RowMajor }.run(&mut ctx).unwrap();
        assert_eq!(ctx.groups[0].reads[0].layout, Layout::row_major(4));
    }

    #[test]
    fn utilization_finalize_scales() {
        let g = conv_mix();
        let mut ctx = baseline_groups(&g, FusePolicy::NONE);
        let finalize = |scale| UtilizationPass { tag: "check", scale, adjust: |_| 1.0 };
        finalize(0.5).run(&mut ctx).unwrap();
        let low: Vec<f64> = ctx.groups.iter().map(|g| g.utilization).collect();
        finalize(1.0).run(&mut ctx).unwrap();
        for (l, g2) in low.iter().zip(ctx.groups.iter()) {
            assert!(*l < g2.utilization);
        }
    }
}
