//! Property-based tests of the optimizer's invariants: whatever random
//! (valid) operator chain we build, elimination must preserve the
//! dataflow semantics encoded in the composed index maps, fusion must
//! partition the kept operators, and layout selection must emit valid
//! layouts.

use proptest::prelude::*;
use smartmem_core::{assemble_groups, eliminate, fuse, select_layouts, SelectionLevel};
use smartmem_ir::{DType, Graph, GraphBuilder, TensorId, UnaryKind};
use smartmem_sim::DeviceConfig;

/// A random chain of layout transforms between two compute ops.
fn build_chain(ops: &[u8]) -> (Graph, TensorId) {
    let mut b = GraphBuilder::new("prop-chain");
    let x = b.input("x", &[4, 6, 8], DType::F16);
    let w = b.weight("w", &[8, 8], DType::F16);
    let mut cur = b.matmul(x, w); // [4, 6, 8]
    let mut dims = vec![4usize, 6, 8];
    for &op in ops {
        match op % 4 {
            0 => {
                // reshape: merge last two dims or split first (skipping
                // the split when the extent is odd — slicing can leave
                // odd extents that do not factor).
                if dims.len() >= 2 {
                    let last = dims.pop().unwrap();
                    let prev = dims.pop().unwrap();
                    dims.push(prev * last);
                } else if dims[0] % 2 == 0 {
                    dims = vec![2, dims[0] / 2];
                }
                cur = b.reshape(cur, &dims);
            }
            1 => {
                let rank = dims.len();
                let perm: Vec<usize> = (0..rank).rev().collect();
                dims = perm.iter().map(|&p| dims[p]).collect();
                cur = b.transpose(cur, &perm);
            }
            2 => {
                // split then keep part 0.
                let axis = 0;
                if dims[axis] % 2 == 0 {
                    let parts = b.split(cur, axis, 2);
                    cur = parts[0];
                    dims[axis] /= 2;
                }
            }
            _ => {
                let axis = dims.len() - 1;
                if dims[axis] > 2 {
                    cur = b.slice(cur, axis, 1, dims[axis] - 1);
                    dims[axis] -= 1;
                }
            }
        }
    }
    let out = b.unary(cur, UnaryKind::Gelu);
    b.output(out);
    (b.finish(), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The composed map of an eliminated chain must agree with applying
    /// the chain's operators one at a time.
    #[test]
    fn elimination_preserves_dataflow(ops in prop::collection::vec(0u8..4, 1..6)) {
        let (graph, _) = build_chain(&ops);
        let lte = eliminate(&graph, true, true);
        // The gelu's input resolves to the matmul output through the map.
        let gelu = graph.nodes().iter().find(|n| n.op.mnemonic() == "Unary").unwrap();
        let resolved = lte.resolve(gelu.inputs[0]);
        let src_shape = graph.tensor(resolved.source).shape.clone();
        if let Some(map) = &resolved.map {
            prop_assert_eq!(map.in_extents(), src_shape.dims());
            let decl = graph.tensor(gelu.inputs[0]).shape.clone();
            prop_assert_eq!(map.out_extents(), decl.dims());
            // Spot-check coordinates stay in bounds (correct pull-back).
            let total: u64 = decl.numel().min(128);
            for off in 0..total {
                let coord = decl.delinearize(off);
                let src = map.eval(&coord);
                for (j, &c) in src.iter().enumerate() {
                    prop_assert!(c < src_shape.dim(j), "coord {:?} -> {:?} out of bounds", coord, src);
                }
            }
        }
    }

    /// Fusion output is a partition of the kept operators.
    #[test]
    fn fusion_partitions_kept_ops(ops in prop::collection::vec(0u8..4, 1..6)) {
        let (graph, _) = build_chain(&ops);
        let lte = eliminate(&graph, true, true);
        let groups = fuse(&graph, &lte);
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for &m in &g.members {
                prop_assert!(seen.insert(m), "operator {m:?} in two groups");
            }
        }
        prop_assert_eq!(seen.len(), lte.kept.len());
    }

    /// Every layout chosen by selection validates against its tensor.
    #[test]
    fn selected_layouts_are_valid(ops in prop::collection::vec(0u8..4, 1..6), level in 0u8..3) {
        let (graph, _) = build_chain(&ops);
        let device = DeviceConfig::snapdragon_8gen2();
        let lte = eliminate(&graph, true, true);
        let drafts = fuse(&graph, &lte);
        let mut groups = assemble_groups(&graph, &lte, &drafts);
        let level = match level {
            0 => SelectionLevel::Default,
            1 => SelectionLevel::ReductionK1,
            _ => SelectionLevel::ReductionK2,
        };
        select_layouts(&graph, &mut groups, &device, level);
        for g in &groups {
            let out_rank = graph.tensor(g.output).shape.rank();
            prop_assert!(g.output_layout.validate(out_rank).is_ok());
            for r in &g.reads {
                let rank = graph.tensor(r.source).shape.rank();
                prop_assert!(r.layout.validate(rank).is_ok(), "invalid layout {} for rank {rank}", r.layout);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `OptStats` — including the streamline counters appended to the
    /// v2 wire layout — round-trips exactly.
    #[test]
    fn optstats_roundtrip_on_the_wire(
        source_ops in 0usize..10_000,
        kernel_count in 0usize..10_000,
        eliminated_ops in 0usize..10_000,
        fused_ops in 0usize..10_000,
        implicit_inserted in 0usize..10_000,
        redundant_tensors in 0usize..10_000,
        streamline_removed_ops in 0usize..10_000,
        streamline_transposes_removed in 0usize..10_000,
    ) {
        use smartmem_core::OptStats;
        use smartmem_ir::wire::{decode_from, encode_to_vec};
        let stats = OptStats {
            source_ops,
            kernel_count,
            eliminated_ops,
            fused_ops,
            implicit_inserted,
            redundant_tensors,
            redundant_bytes_max: (source_ops as u64) << 20,
            streamline_removed_ops,
            streamline_transposes_removed,
        };
        let back: OptStats = decode_from(&encode_to_vec(&stats)).expect("decode");
        prop_assert_eq!(stats, back);
    }
}
