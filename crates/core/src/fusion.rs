//! Operator fusion (DNNFusion-style grouping, used both as the
//! baseline and underneath SmartMem, §3.2).
//!
//! SmartMem "relies on the techniques based on the DNNFusion project to
//! decide if an operator fusion is legal". This module reproduces the
//! effective policy: element-wise (`ILI & Variable`) operators fold into
//! their producer's kernel when the intermediate tensor has exactly one
//! consumer; heavier `ILD & Variable` operators anchor their own kernels
//! ("keep both" in Table 5). Running fusion *after* elimination is what
//! yields SmartMem's extra 1.1–1.7× fusion rate over DNNFusion
//! (Table 7): with the `Reshape`/`Transpose` kernels gone, element-wise
//! chains become adjacent to their true producers.

use crate::lte::LteResult;
use smartmem_ir::{Graph, Op, OpId, TensorId, TensorKind};
use std::collections::HashMap;

/// Maximum member count per fused kernel; DNNFusion caps fusion group
/// size to bound register pressure.
const MAX_GROUP: usize = 24;

/// A draft kernel group produced by fusion (layouts and costs attached
/// later by the pipeline).
#[derive(Clone, Debug)]
pub struct GroupDraft {
    /// The operator that anchors the kernel (first member).
    pub anchor: OpId,
    /// Members in topological order (anchor first).
    pub members: Vec<OpId>,
}

impl GroupDraft {
    /// The group's materialized output: the last member's first output.
    pub fn output(&self, graph: &Graph) -> TensorId {
        graph.node(*self.members.last().expect("non-empty group")).outputs[0]
    }
}

/// Whether an operator may be folded into its producer's kernel as an
/// epilogue.
///
/// `Reshape` is fusable too: in DNNFusion's taxonomy it is a
/// "One-to-One" mapping operator, and when its producer writes to a
/// linear buffer the reshape is a metadata change on the kernel's
/// output view.
fn is_epilogue_fusable(op: &Op) -> bool {
    matches!(op, Op::Unary { .. } | Op::Binary { .. } | Op::Reshape { .. })
}

/// Groups the kept operators of `lte` into fused kernels (the
/// fixed-pattern baselines group through their own policies instead).
pub fn fuse(graph: &Graph, lte: &LteResult) -> Vec<GroupDraft> {
    let kept: Vec<OpId> = lte.kept.clone();

    // Effective consumer counts of each materialized tensor: how many
    // kept operators read it (through eliminated chains), plus one if it
    // is a graph output.
    let mut consumers: HashMap<TensorId, usize> = HashMap::new();
    for &id in &kept {
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
    // group_of: materialized tensor -> index of the group producing it.
    let mut group_of_tensor: HashMap<TensorId, usize> = HashMap::new();

    for &id in &kept {
        let node = graph.node(id);
        let mut fused = false;
        if is_epilogue_fusable(&node.op) {
            // Try to fold into the producer of one of the inputs.
            for &input in &node.inputs {
                let src = lte.resolve(input).source;
                if graph.tensor(src).kind != TensorKind::Activation {
                    continue;
                }
                if consumers.get(&src).copied().unwrap_or(0) != 1 {
                    continue; // intermediate is shared: must materialize
                }
                if let Some(&gidx) = group_of_tensor.get(&src) {
                    if groups[gidx].members.len() >= MAX_GROUP {
                        continue;
                    }
                    groups[gidx].members.push(id);
                    // The group now produces this op's output instead.
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
            group_of_tensor.insert(node.outputs[0], gidx);
            // Multi-output ops (kept Split): register every output.
            for &out in &node.outputs[1..] {
                group_of_tensor.insert(out, gidx);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lte::eliminate;
    use smartmem_ir::{BinaryKind, DType, GraphBuilder, UnaryKind};

    fn build() -> Graph {
        // conv -> relu -> (transpose) -> gelu -> add(residual from conv2)
        let mut b = GraphBuilder::new("fusion");
        let x = b.input("x", &[1, 8, 4, 4], DType::F16);
        let w = b.weight("w", &[8, 8, 1, 1], DType::F16);
        let c1 = b.conv2d(x, w, (1, 1), (0, 0), 1);
        let r = b.unary(c1, UnaryKind::Relu);
        let rs = b.transpose(r, &[0, 2, 3, 1]);
        let g1 = b.unary(rs, UnaryKind::Gelu);
        let w2 = b.weight("w2", &[8, 8, 1, 1], DType::F16);
        let c2 = b.conv2d(x, w2, (1, 1), (0, 0), 1);
        let rs2 = b.transpose(c2, &[0, 2, 3, 1]);
        let a = b.binary(g1, rs2, BinaryKind::Add);
        b.output(a);
        b.finish()
    }

    #[test]
    fn fusion_with_lte_collapses_elementwise_chain() {
        let g = build();
        let lte = eliminate(&g, true, true);
        let groups = fuse(&g, &lte);
        // conv1+relu+gelu+add in one group; conv2 its own group.
        assert_eq!(groups.len(), 2, "{groups:?}");
        let sizes: Vec<usize> = groups.iter().map(|gr| gr.members.len()).collect();
        assert!(sizes.contains(&4), "expected a 4-member fused kernel, got {sizes:?}");
    }

    #[test]
    fn fusion_without_lte_is_blocked_by_transforms() {
        let g = build();
        let lte = eliminate(&g, false, true);
        let groups = fuse(&g, &lte);
        // Reshape kernels break the chains: conv1+relu, reshape, gelu+?,
        // conv2, reshape2, add -> more groups than with LTE.
        assert!(groups.len() > 2, "got {}", groups.len());
    }

    #[test]
    fn shared_intermediate_is_not_fused() {
        let mut b = GraphBuilder::new("shared");
        let x = b.input("x", &[4, 4], DType::F16);
        let r = b.unary(x, UnaryKind::Relu);
        let a = b.unary(r, UnaryKind::Gelu);
        let c = b.unary(r, UnaryKind::Sigmoid);
        let s = b.binary(a, c, BinaryKind::Add);
        b.output(s);
        let g = b.finish();
        let lte = eliminate(&g, true, true);
        let groups = fuse(&g, &lte);
        // relu's output feeds two consumers -> relu cannot absorb either;
        // gelu and sigmoid anchor their own groups; add fuses into one of
        // them (its other operand is then shared? no: each intermediate
        // has one consumer). Expect: [relu], [gelu(+add?)], [sigmoid...].
        assert!(groups.len() >= 2 && groups.len() <= 3, "got {}", groups.len());
        let first = groups.iter().find(|gr| gr.anchor == g.nodes()[0].id).unwrap();
        assert_eq!(first.members.len(), 1, "shared relu must stay unfused");
    }

    #[test]
    fn group_output_is_last_member() {
        let g = build();
        let lte = eliminate(&g, true, true);
        let groups = fuse(&g, &lte);
        for gr in &groups {
            let out = gr.output(&g);
            let last = g.node(*gr.members.last().unwrap());
            assert_eq!(out, last.outputs[0]);
        }
    }
}
