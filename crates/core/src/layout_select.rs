//! Reduction-dimension-based layout selection (§3.2.2, Fig. 4).
//!
//! Local step: the producer of each edge writes in the layout preferred
//! by the consumer's reduction dimension ("sub-optimally writing results
//! turns out to be better than sub-optimally reading input data").
//! Global step: a producer with several consumers combines the first
//! *k* distinct reduction-dimension requirements (k = 2 on 2.5D texture
//! memory, where both texture axes are directly addressable); further
//! requirements are served by *redundant copies* of the tensor (§4.6).

use crate::pipeline::{EdgeRead, KernelGroup};
use crate::texture::{fits_texture, place_buffer, place_texture};
use smartmem_ir::{Graph, Layout, TensorId, TensorKind};
use smartmem_sim::DeviceConfig;
use std::collections::HashMap;

/// How layouts are chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionLevel {
    /// Framework default: texture with the last logical dim on X (when
    /// the device has texture memory), otherwise row-major buffers.
    /// This is the DNNFusion baseline's behaviour.
    Default,
    /// Reduction-dimension selection with `k = 1`: the primary
    /// requirement goes innermost; conflicting requirements need copies.
    ReductionK1,
    /// Full SmartMem: combine up to two requirements per tensor on the
    /// texture's two axes (`k = 2`), vec4-pack the primary reduction dim.
    ReductionK2,
}

/// Redundant-copy statistics (§4.6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RedundancyStats {
    /// Activation tensors that needed at least one extra copy.
    pub tensors: usize,
    /// Largest single redundant copy in bytes.
    pub max_bytes: u64,
    /// Total extra bytes across all copies.
    pub total_extra_bytes: u64,
}

/// Reduction-dimension requirement of one read, expressed as dimensions
/// of the *materialized source* tensor.
pub fn required_dims(graph: &Graph, read: &EdgeRead) -> Vec<usize> {
    let member = graph.node(read.member);
    let decl_shape = &graph.tensor(read.logical).shape;
    let rdims = member.op.reduction_dims(read.operand_idx, decl_shape);
    if rdims.is_empty() {
        return Vec::new();
    }
    match &read.map {
        None => rdims,
        Some(m) => {
            // The contiguity requirement lands on the source dim that
            // tracks the reduction variable with unit stride (an
            // identity component). Source dims that merely *mention* a
            // reduction variable inside a split/merge expression do not
            // need to be contiguous — flagging them too would fabricate
            // conflicting requirements (and redundant copies) that the
            // paper reports as rare (§4.6).
            let mut identity = Vec::new();
            let mut touched = Vec::new();
            for (j, e) in m.exprs().iter().enumerate() {
                let vars = e.vars();
                if vars.iter().any(|v| rdims.contains(v)) {
                    touched.push(j);
                    if e.as_var().is_some_and(|v| rdims.contains(&v)) {
                        identity.push(j);
                    }
                }
            }
            if !identity.is_empty() {
                identity
            } else {
                touched.truncate(1);
                touched
            }
        }
    }
}

fn layout_for(
    dims: &[usize],
    reqs: &[usize],
    device: &DeviceConfig,
    level: SelectionLevel,
) -> Layout {
    // Everything layout selection needs to know about the device is its
    // capability descriptor — never its name: a texture path to target,
    // and that path's per-axis extent limit.
    let caps = &device.caps;
    let rank = dims.len();
    if rank == 0 {
        return Layout::row_major(0);
    }
    let make = |r0: usize, r1: Option<usize>| -> Layout {
        if caps.texture_path {
            let l = place_texture(dims, r0, r1, true, caps.max_texture_extent);
            if fits_texture(&l, &smartmem_ir::Shape::new(dims.to_vec()), caps.max_texture_extent) {
                l
            } else {
                place_buffer(dims, Some(r0))
            }
        } else {
            place_buffer(dims, Some(r0))
        }
    };
    match level {
        SelectionLevel::Default => {
            // Baseline frameworks only place conv-shaped (rank-4)
            // tensors in texture memory (TVM's texture schedules and
            // MNN's OpenCL images are conv-centric); transformer
            // activations stay in 1D buffers.
            if caps.texture_path && rank == 4 {
                let l = Layout::texture_default(rank);
                if fits_texture(
                    &l,
                    &smartmem_ir::Shape::new(dims.to_vec()),
                    caps.max_texture_extent,
                ) {
                    l
                } else {
                    Layout::row_major(rank)
                }
            } else {
                Layout::row_major(rank)
            }
        }
        SelectionLevel::ReductionK1 => make(reqs.first().copied().unwrap_or(rank - 1), None),
        SelectionLevel::ReductionK2 => {
            make(reqs.first().copied().unwrap_or(rank - 1), reqs.get(1).copied())
        }
    }
}

/// Number of requirement slots a single layout can satisfy at `level`.
fn k_of(level: SelectionLevel) -> usize {
    match level {
        SelectionLevel::Default => usize::MAX, // no requirements honoured anyway
        SelectionLevel::ReductionK1 => 1,
        SelectionLevel::ReductionK2 => 2,
    }
}

/// The *global* half of layout selection: per-tensor requirement lists
/// and primary layouts. Computed once over all groups ([`plan_layouts`]),
/// then applied to each group ([`apply_group_layouts`]).
#[derive(Clone, Debug)]
struct LayoutPlan {
    level: SelectionLevel,
    /// Ordered, distinct reduction-dimension requirements per
    /// materialized tensor (the cross-group coupling of §3.2.2).
    reqs_of: HashMap<TensorId, Vec<usize>>,
    primary: HashMap<TensorId, Layout>,
}

/// Computes the global layout plan over all groups (steps 1–2 of
/// §3.2.2): collect requirements and pick primary layouts. A primary
/// layout combines a tensor's first *k* requirements; a read whose own
/// requirement is not among them gets a redundant copy
/// ([`apply_group_layouts`]).
fn plan_layouts(
    graph: &Graph,
    groups: &[KernelGroup],
    device: &DeviceConfig,
    level: SelectionLevel,
) -> LayoutPlan {
    // 1. Collect ordered, distinct requirements per materialized tensor.
    let mut reqs_of: HashMap<TensorId, Vec<usize>> = HashMap::new();
    for g in groups.iter() {
        for r in &g.reads {
            let req = required_dims(graph, r);
            let entry = reqs_of.entry(r.source).or_default();
            for d in req {
                if !entry.contains(&d) {
                    entry.push(d);
                }
            }
        }
    }

    // 2. Primary layout per tensor.
    let all_tensors: Vec<TensorId> = {
        let mut v: Vec<TensorId> = groups.iter().map(|g| g.output).collect();
        v.extend(groups.iter().flat_map(|g| g.reads.iter().map(|r| r.source)));
        v.sort_unstable();
        v.dedup();
        v
    };
    // Plan over ceiling-padded dims: on symbolic graphs every bucket
    // then makes identical (dim-index-based) layout decisions, and
    // texture-fit checks at the ceiling are conservative for every
    // smaller bucket. Static graphs pad to their concrete dims.
    let primary = all_tensors
        .into_iter()
        .map(|t| {
            let reqs = reqs_of.get(&t).map_or(&[][..], Vec::as_slice);
            (t, layout_for(&graph.padded_dims(t), reqs, device, level))
        })
        .collect();
    LayoutPlan { level, reqs_of, primary }
}

/// Applies the plan to one group (step 3 of §3.2.2): sets the output
/// layout and points every read at the primary layout, or at a redundant
/// copy laid out for the read's own requirement when the primary does
/// not satisfy it. Weights are pre-packed per consumer offline.
fn apply_group_layouts(
    plan: &LayoutPlan,
    graph: &Graph,
    g: &mut KernelGroup,
    device: &DeviceConfig,
) {
    let level = plan.level;
    g.output_layout = plan.primary[&g.output].clone();
    for r in g.reads.iter_mut() {
        let req = required_dims(graph, r);
        let dims = graph.padded_dims(r.source);
        if graph.tensor(r.source).kind == TensorKind::Weight && level != SelectionLevel::Default {
            r.layout = layout_for(&dims, &req, device, level);
            continue;
        }
        let combined =
            plan.reqs_of.get(&r.source).map_or(&[][..], |all| &all[..all.len().min(k_of(level))]);
        r.layout = match req.first() {
            Some(want) if !combined.contains(want) => layout_for(&dims, &[*want], device, level),
            _ => plan.primary[&r.source].clone(),
        };
    }
}

/// Chooses layouts for every read and every group output (§3.2.2), then
/// charges each producer one redundant copy per distinct layout, other
/// than the primary, that its output's activation reads were assigned;
/// returns the redundant-copy statistics (§4.6).
pub fn select_layouts(
    graph: &Graph,
    groups: &mut [KernelGroup],
    device: &DeviceConfig,
    level: SelectionLevel,
) -> RedundancyStats {
    let plan = plan_layouts(graph, groups, device, level);
    for g in groups.iter_mut() {
        apply_group_layouts(&plan, graph, g, device);
    }
    let mut copies: HashMap<TensorId, Vec<&Layout>> = HashMap::new();
    for r in groups.iter().flat_map(|g| &g.reads) {
        let is_weight = graph.tensor(r.source).kind == TensorKind::Weight;
        if !is_weight && r.layout != plan.primary[&r.source] {
            let layouts = copies.entry(r.source).or_default();
            if !layouts.contains(&&r.layout) {
                layouts.push(&r.layout);
            }
        }
    }
    let count_of: HashMap<TensorId, usize> =
        copies.into_iter().map(|(t, l)| (t, l.len())).collect();
    let mut stats = RedundancyStats::default();
    for (&t, &n) in &count_of {
        let bytes = graph.tensor(t).shape.numel() * device.dtype.size_bytes();
        stats.tensors += 1;
        stats.max_bytes = stats.max_bytes.max(bytes);
        stats.total_extra_bytes += bytes * n as u64;
    }
    for g in groups.iter_mut() {
        g.extra_copies = count_of.get(&g.output).copied().unwrap_or(0);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::lte::eliminate;
    use crate::pipeline::assemble_groups;
    use smartmem_ir::{DType, GraphBuilder, MemoryClass, ReduceKind};

    /// Fig. 4-style graph: one MatMul feeding consumers with different
    /// reduction dimensions.
    fn fig4_graph() -> Graph {
        let mut b = GraphBuilder::new("fig4");
        let x = b.input("x", &[64, 96], DType::F16);
        let w = b.weight("w", &[96, 128], DType::F16);
        let mm = b.matmul(x, w); // [64, 128]
        let r0 = b.reduce(mm, ReduceKind::Sum, vec![0], false); // reduction dim 0
        let r1 = b.reduce(mm, ReduceKind::Sum, vec![1], false); // reduction dim 1
        b.output(r0);
        b.output(r1);
        b.finish()
    }

    fn build_groups(g: &Graph) -> Vec<KernelGroup> {
        let lte = eliminate(g, true, true);
        let drafts = fuse(g, &lte);
        assemble_groups(g, &lte, &drafts)
    }

    #[test]
    fn k2_combines_two_requirements_without_copies() {
        let g = fig4_graph();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups = build_groups(&g);
        let stats = select_layouts(&g, &mut groups, &device, SelectionLevel::ReductionK2);
        assert_eq!(stats.tensors, 0, "two requirements fit k=2 on 2.5D memory");
        // The matmul output should be a texture with dim 0 on X and dim 1
        // innermost on Y (or vice versa).
        let mm_group = &groups[0];
        assert_eq!(mm_group.output_layout.memory_class(), MemoryClass::Texture2p5D);
    }

    #[test]
    fn k1_needs_a_redundant_copy() {
        let g = fig4_graph();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups = build_groups(&g);
        let stats = select_layouts(&g, &mut groups, &device, SelectionLevel::ReductionK1);
        assert_eq!(stats.tensors, 1, "conflicting requirements at k=1 need a copy");
        assert_eq!(stats.max_bytes, 64 * 128 * 2);
        assert_eq!(groups[0].extra_copies, 1);
    }

    #[test]
    fn default_level_ignores_requirements() {
        let g = fig4_graph();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups = build_groups(&g);
        let stats = select_layouts(&g, &mut groups, &device, SelectionLevel::Default);
        assert_eq!(stats, RedundancyStats::default());
    }

    #[test]
    fn buffer_device_gets_buffer_layouts() {
        let g = fig4_graph();
        let device = DeviceConfig::tesla_v100();
        let mut groups = build_groups(&g);
        select_layouts(&g, &mut groups, &device, SelectionLevel::ReductionK2);
        for gr in &groups {
            assert_eq!(gr.output_layout.memory_class(), MemoryClass::Buffer1D);
            for r in &gr.reads {
                assert_eq!(r.layout.memory_class(), MemoryClass::Buffer1D);
            }
        }
    }

    #[test]
    fn capabilities_not_names_drive_selection() {
        let g = fig4_graph();
        // Renaming a device must not change a single layout decision.
        let mut renamed = DeviceConfig::snapdragon_8gen2();
        renamed.name = "Totally Unknown SoC".into();
        let mut a = build_groups(&g);
        let mut b = build_groups(&g);
        select_layouts(&g, &mut a, &DeviceConfig::snapdragon_8gen2(), SelectionLevel::ReductionK2);
        select_layouts(&g, &mut b, &renamed, SelectionLevel::ReductionK2);
        for (ga, gb) in a.iter().zip(&b) {
            assert_eq!(ga.output_layout, gb.output_layout);
        }
        // The Mali profile's texture capability lands tensors in 2.5D
        // memory; the server NPU's lack of one lands them in buffers.
        let mut mali = build_groups(&g);
        select_layouts(&g, &mut mali, &DeviceConfig::mali_g710(), SelectionLevel::ReductionK2);
        assert_eq!(mali[0].output_layout.memory_class(), MemoryClass::Texture2p5D);
        let mut npu = build_groups(&g);
        select_layouts(&g, &mut npu, &DeviceConfig::server_npu(), SelectionLevel::ReductionK2);
        for gr in &npu {
            assert_eq!(gr.output_layout.memory_class(), MemoryClass::Buffer1D);
        }
    }

    #[test]
    fn requirements_propagate_through_eliminated_maps() {
        // matmul -> transpose (eliminated) -> softmax(axis=1):
        // softmax's reduction axis maps back through the transpose to
        // dim 0 of the matmul output.
        let mut b = GraphBuilder::new("through-map");
        let x = b.input("x", &[32, 48], DType::F16);
        let w = b.weight("w", &[48, 64], DType::F16);
        let mm = b.matmul(x, w); // [32, 64]
        let t = b.transpose(mm, &[1, 0]); // [64, 32]
        let sm = b.softmax(t, 1); // reduces over dim 1 of the transposed view
        b.output(sm);
        let g = b.finish();
        let groups = {
            let lte = eliminate(&g, true, true);
            let drafts = fuse(&g, &lte);
            assemble_groups(&g, &lte, &drafts)
        };
        let softmax_read = groups
            .iter()
            .flat_map(|gr| gr.reads.iter())
            .find(|r| r.map.is_some())
            .expect("softmax reads through the eliminated transpose");
        // Softmax axis 1 of [64, 32] corresponds to dim 0 of [32, 64].
        assert_eq!(required_dims(&g, softmax_read), vec![0]);
    }

    #[test]
    fn symbolic_layout_selection_is_bucket_invariant() {
        use smartmem_ir::BucketTable;
        let table = BucketTable::new(vec![32, 64, 128]).unwrap();
        let build = |seq: usize| {
            let mut b = GraphBuilder::new("sym-layout");
            let x = b.input("x", &[1, seq, 48], DType::F16);
            let w = b.weight("w", &[48, 64], DType::F16);
            let mm = b.matmul(x, w);
            let t = b.transpose(mm, &[0, 2, 1]);
            let sm = b.softmax(t, 2);
            b.output(sm);
            b.finish().with_sym_dim("seq", &table, seq).unwrap()
        };
        let (ga, gb) = (build(40), build(100));
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups_a = build_groups(&ga);
        let mut groups_b = build_groups(&gb);
        select_layouts(&ga, &mut groups_a, &device, SelectionLevel::ReductionK2);
        select_layouts(&gb, &mut groups_b, &device, SelectionLevel::ReductionK2);
        assert_eq!(groups_a.len(), groups_b.len());
        for (a, b) in groups_a.iter().zip(&groups_b) {
            assert_eq!(a.output_layout, b.output_layout, "layouts must not depend on the bucket");
            for (ra, rb) in a.reads.iter().zip(&b.reads) {
                assert_eq!(ra.layout, rb.layout);
            }
        }
    }

    #[test]
    fn weights_never_count_as_redundant() {
        let mut b = GraphBuilder::new("w");
        let x = b.input("x", &[16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let m1 = b.matmul(x, w);
        let m2 = b.matmul_t(x, w, false, true);
        b.output(m1);
        b.output(m2);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut groups = build_groups(&g);
        let stats = select_layouts(&g, &mut groups, &device, SelectionLevel::ReductionK1);
        // w is required along dim 0 by m1 and dim 1 by m2, but weights
        // are pre-packed offline.
        assert_eq!(stats.tensors, 0);
    }
}
