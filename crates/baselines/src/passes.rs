//! Baseline-specific compilation passes over the shared
//! [`smartmem_core::Pass`] trait.
//!
//! Together with the core passes (`LtePass`, `AssembleGroupsPass`, …)
//! these turn every baseline framework into a *declarative pass
//! sequence*: an operator-support gate, optional relayout insertion,
//! policy fusion, a uniform layout style and a kernel-quality
//! finalization — each a named, individually timed step of the shared
//! [`smartmem_core::PassManager`].

use crate::common::{
    assign_layouts_uniform, finalize_utilization, fuse_with_policy, insert_relayouts, FusePolicy,
    LayoutStyle,
};
use smartmem_core::{CompileCtx, Pass, Unsupported};
use smartmem_ir::{Graph, Op};

/// Operator-support gate: rejects models the framework cannot compile
/// (the "–" entries of Tables 7–8).
#[derive(Clone, Copy, Debug)]
pub struct SupportPass {
    /// Stable identifier of the support policy (function-pointer
    /// addresses are not stable across runs, so the pass-sequence id —
    /// a cache-key component — fingerprints this tag instead).
    pub tag: &'static str,
    /// Returns a human-readable rejection reason, or `None` when the
    /// graph is supported.
    pub check: fn(&Graph) -> Option<String>,
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

/// Rewrites the graph inserting framework-origin relayout operators
/// (implicit transformations) at conv-layout boundaries
/// ([`insert_relayouts`]).
#[derive(Clone, Copy, Debug)]
pub struct RelayoutPass;

impl Pass for RelayoutPass {
    fn name(&self) -> &'static str {
        "insert-relayouts"
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        let (rewritten, inserted) = insert_relayouts(&ctx.graph);
        if inserted > 0 {
            ctx.note(self.name(), format!("inserted {inserted} implicit relayout operators"));
        }
        ctx.graph = rewritten;
        ctx.implicit_inserted += inserted;
        Ok(())
    }
}

/// Groups operators under a baseline fusion policy (the counterpart of
/// the core `FusionPass`, which models DNNFusion's classification-based
/// rules).
#[derive(Clone, Copy, Debug)]
pub struct PolicyFusionPass {
    /// The framework's fusion capabilities.
    pub policy: FusePolicy,
}

impl Pass for PolicyFusionPass {
    fn name(&self) -> &'static str {
        "policy-fusion"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        ctx.drafts = fuse_with_policy(&ctx.graph, ctx.expect_lte(self.name()), self.policy);
        Ok(())
    }
}

/// Applies one uniform physical-layout style to every read and output
/// (baselines do not select layouts per edge).
#[derive(Clone, Copy, Debug)]
pub struct UniformLayoutPass {
    /// The framework's layout style.
    pub style: LayoutStyle,
}

impl Pass for UniformLayoutPass {
    fn name(&self) -> &'static str {
        "uniform-layout"
    }

    fn params(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        assign_layouts_uniform(&ctx.graph, &mut ctx.groups, &ctx.device, self.style);
        Ok(())
    }
}

/// Finalizes per-kernel utilization from the framework's kernel quality
/// (`scale`) and a per-anchor adjustment (e.g. TVM's grouped-convolution
/// weakness).
#[derive(Clone, Copy, Debug)]
pub struct UtilizationPass {
    /// Stable identifier of the adjustment policy (see
    /// [`SupportPass::tag`]).
    pub tag: &'static str,
    /// Overall kernel-quality multiplier.
    pub scale: f64,
    /// Per-anchor-operator adjustment.
    pub adjust: fn(&Op) -> f64,
}

impl Pass for UtilizationPass {
    fn name(&self) -> &'static str {
        "finalize-utilization"
    }

    fn params(&self) -> String {
        format!("tag={} scale={}", self.tag, self.scale)
    }

    fn run(&self, ctx: &mut CompileCtx) -> Result<(), Unsupported> {
        finalize_utilization(&ctx.graph, &mut ctx.groups, self.scale, self.adjust);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_core::{AssembleGroupsPass, LtePass, PassManager};
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};
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
        // Pass-manager execution must equal the raw helper calls that
        // the baselines used before the refactor.
        let g = conv_mix();
        let device = DeviceConfig::snapdragon_8gen2();
        let out = PassManager::new("check")
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::fixed_patterns() })
            .then(AssembleGroupsPass)
            .run_on(&g, &device)
            .unwrap();
        let direct = crate::common::baseline_groups(&g, FusePolicy::fixed_patterns());
        assert_eq!(out.optimized.groups.len(), direct.len());
        assert_eq!(out.optimized.stats.implicit_inserted, 0);
    }

    #[test]
    fn relayout_pass_rewrites_graph_and_counts() {
        let g = conv_mix();
        let device = DeviceConfig::snapdragon_8gen2();
        let out = PassManager::new("check")
            .then(RelayoutPass)
            .then(LtePass::disabled())
            .then(PolicyFusionPass { policy: FusePolicy::none() })
            .then(AssembleGroupsPass)
            .run_on(&g, &device)
            .unwrap();
        assert_eq!(out.optimized.stats.implicit_inserted, 1);
        assert_eq!(out.optimized.graph.op_count(), g.op_count() + 1);
        assert_eq!(out.optimized.stats.source_ops, g.op_count());
    }
}
