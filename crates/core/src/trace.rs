//! The sampled line-drag trace behind [`OptimizedGraph::estimate`].
//!
//! For every streamed operand of a kernel group, a window of the
//! group's iteration space is walked — at most [`MAX_OUT_SAMPLES`]
//! output points, innermost dims first, each expanded through the
//! anchor's reduction loops to at most [`MAX_INNER`] reads — and every
//! read is pushed through the operand's composed index map and physical
//! layout to an address. The trace counts distinct *elements* and
//! distinct *granules* (a cache line on 1D buffers, a 2-D texel tile on
//! 2.5D textures); their byte ratio is the operand's **line drag**.
//!
//! The trace is compiled, not interpreted: per read the index map
//! becomes a register program ([`IndexMap::compile`]) and the layout an
//! address plan ([`smartmem_ir::Layout::plan`]); coordinates live in
//! flat buffers and the distinct-counters are open-addressing tables,
//! all reused across reads and groups. Operands small enough to stay
//! cache-resident are not traced at all — their traffic is their
//! footprint and nobody asks for their drag. Identical group signatures
//! share one trace (transformer blocks repeat dozens of times).
//!
//! [`OptimizedGraph::estimate`]: crate::OptimizedGraph::estimate

use crate::estimate::{own_pullback, resident_bytes};
use crate::pipeline::{EdgeRead, KernelGroup};
use smartmem_index::IndexMap;
use smartmem_ir::{Graph, MemoryClass, Op, PhysicalAddress, TensorId};
use smartmem_sim::DeviceConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Output-space sample budget per kernel.
const MAX_OUT_SAMPLES: usize = 256;
/// Inner (reduction) loop sample budget per output point.
const MAX_INNER: usize = 16;

/// What estimating one model cost the sampled trace (host work, not a
/// simulated quantity): the "before" of any estimator optimization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Kernel groups actually traced; the rest reused a memoized trace
    /// of an identical signature.
    pub unique_groups: usize,
    /// Physical addresses generated across those traces.
    pub addresses: u64,
}

/// Hash signature of a group for trace memoization: everything
/// [`LineDragTracer::trace_group`] reads from the graph for this group.
fn group_signature(graph: &Graph, group: &KernelGroup) -> u64 {
    let dims = |t: TensorId| graph.tensor(t).shape.dims();
    let mut h = DefaultHasher::new();
    let anchor = graph.node(group.anchor);
    anchor.op.hash(&mut h);
    // `own_pullback` maps the anchor's output space onto its input 0.
    anchor.inputs.first().map(|&t| dims(t)).hash(&mut h);
    dims(anchor.outputs[0]).hash(&mut h);
    dims(group.output).hash(&mut h);
    group.output_layout.hash(&mut h);
    for r in &group.reads {
        dims(r.source).hash(&mut h);
        dims(r.logical).hash(&mut h);
        r.layout.hash(&mut h);
        r.operand_idx.hash(&mut h);
        graph.node(r.member).op.mnemonic().hash(&mut h);
        (r.member == group.anchor).hash(&mut h);
        r.map.hash(&mut h);
    }
    h.finish()
}

/// Granule key of a physical address: cache line for buffers, 2-D tile
/// for textures (Table 2's 2.5D locality).
fn granule_key(addr: PhysicalAddress, device: &DeviceConfig, elem: u64) -> u64 {
    match addr {
        PhysicalAddress::Linear(off) => (off * elem) / device.buffer_cache.line_bytes as u64,
        PhysicalAddress::Texel { x, y, .. } => {
            let tx = x / device.texture_tiling.tile_w;
            let ty = y / device.texture_tiling.tile_h;
            (ty << 24) | tx | (1 << 62)
        }
    }
}

fn elem_key(addr: PhysicalAddress) -> u64 {
    match addr {
        PhysicalAddress::Linear(off) => off,
        PhysicalAddress::Texel { x, y, lane } => (y << 26) | (x << 2) | lane as u64 | (1 << 62),
    }
}

/// A list of coordinates of one rank, stored flat (rank-strided) so a
/// trace reuses one allocation for every point it generates.
#[derive(Default)]
struct Coords {
    rank: usize,
    len: usize,
    flat: Vec<usize>,
}

impl Coords {
    fn reset(&mut self, rank: usize) {
        self.rank = rank;
        self.len = 0;
        self.flat.clear();
    }

    /// Appends a coordinate; `coord` must yield exactly `rank` items
    /// (see [`Coords::assert_strided`]).
    fn push(&mut self, coord: impl IntoIterator<Item = usize>) {
        self.flat.extend(coord);
        self.len += 1;
    }

    /// Panics unless every coordinate pushed so far had `rank` items.
    fn assert_strided(&self) {
        assert_eq!(self.flat.len(), self.len * self.rank, "coordinate rank mismatch");
    }

    /// Appends an all-zero coordinate and lets `fill` write it in place.
    fn push_with(&mut self, fill: impl FnOnce(&mut [usize])) {
        let start = self.flat.len();
        self.flat.resize(start + self.rank, 0);
        fill(&mut self.flat[start..]);
        self.len += 1;
    }

    /// Appends a copy of the last coordinate and lets `step` advance it:
    /// how an inner loop moves on without regenerating its outer dims.
    fn push_stepped(&mut self, step: impl FnOnce(&mut [usize])) {
        let start = self.flat.len();
        self.flat.extend_from_within(start - self.rank..);
        step(&mut self.flat[start..]);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len).map(|i| &self.flat[i * self.rank..(i + 1) * self.rank])
    }
}

/// Counts distinct `u64` keys: open addressing over a fixed table sized
/// for the trace's sample budget, emptied by revisiting only the slots
/// an operand touched, so one table serves every read of every group.
struct DistinctCounter {
    slots: Vec<u64>,
    touched: Vec<u32>,
    /// Whether the one key that cannot be stored (it marks an empty
    /// slot) was inserted.
    saw_vacant_key: bool,
}

impl DistinctCounter {
    const VACANT: u64 = u64::MAX;
    /// At most `MAX_OUT_SAMPLES * MAX_INNER` keys per operand; twice
    /// that many slots keeps probe chains short.
    const BITS: u32 = (2 * MAX_OUT_SAMPLES * MAX_INNER).ilog2();

    fn insert(&mut self, key: u64) {
        if key == Self::VACANT {
            self.saw_vacant_key = true;
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Self::BITS)) as usize;
        loop {
            match self.slots[i] {
                k if k == key => return,
                Self::VACANT => break,
                _ => i = (i + 1) & mask,
            }
        }
        assert!(self.touched.len() < mask, "trace exceeded its sample budget");
        self.slots[i] = key;
        self.touched.push(i as u32);
    }

    fn len(&self) -> usize {
        self.touched.len() + self.saw_vacant_key as usize
    }

    fn clear(&mut self) {
        for i in self.touched.drain(..) {
            self.slots[i as usize] = Self::VACANT;
        }
        self.saw_vacant_key = false;
    }
}

impl Default for DistinctCounter {
    fn default() -> Self {
        DistinctCounter {
            slots: vec![Self::VACANT; 1 << Self::BITS],
            touched: Vec::new(),
            saw_vacant_key: false,
        }
    }
}

/// The tracer of one `estimate` call: the per-signature memo, the
/// buffers every trace reuses, and the running count of addresses.
#[derive(Default)]
pub(crate) struct LineDragTracer {
    memo: HashMap<u64, Vec<Option<f64>>>,
    anchor_samples: Coords,
    out_samples: Coords,
    /// Declared-space coordinates read for one output point.
    decl: Coords,
    /// One source-space coordinate.
    src: Vec<usize>,
    elems: DistinctCounter,
    granules: DistinctCounter,
    addresses: u64,
}

impl LineDragTracer {
    /// Line drag of every read of `group`, in `group.reads` order: bytes
    /// dragged from memory per useful byte, in `[1, granule/elem]`.
    /// `None` marks a cache-resident operand — never streamed, so it
    /// has no drag and is not traced.
    pub(crate) fn drags(
        &mut self,
        graph: &Graph,
        group: &KernelGroup,
        device: &DeviceConfig,
        elem: u64,
    ) -> &[Option<f64>] {
        let key = group_signature(graph, group);
        if !self.memo.contains_key(&key) {
            let drags = self.trace_group(graph, group, device, elem);
            self.memo.insert(key, drags);
        }
        &self.memo[&key]
    }

    /// What the calls so far cost.
    pub(crate) fn stats(&self) -> TraceStats {
        TraceStats { unique_groups: self.memo.len(), addresses: self.addresses }
    }

    fn trace_group(
        &mut self,
        graph: &Graph,
        group: &KernelGroup,
        device: &DeviceConfig,
        elem: u64,
    ) -> Vec<Option<f64>> {
        let LineDragTracer {
            anchor_samples,
            out_samples,
            decl,
            src,
            elems,
            granules,
            addresses,
            ..
        } = self;
        let anchor = graph.node(group.anchor);
        sample_subvolume(
            graph.tensor(anchor.outputs[0]).shape.dims(),
            MAX_OUT_SAMPLES,
            anchor_samples,
        );
        sample_subvolume(graph.tensor(group.output).shape.dims(), MAX_OUT_SAMPLES, out_samples);

        let trace_read = |read: &EdgeRead| {
            let src_shape = &graph.tensor(read.source).shape;
            if (src_shape.numel() * elem) as f64 <= resident_bytes(&read.layout, device) {
                return None;
            }
            let is_anchor_read = read.member == group.anchor;
            let samples = if is_anchor_read { &*anchor_samples } else { &*out_samples };
            let decl_dims = graph.tensor(read.logical).shape.dims();
            // A retained transformation kernel reads through its own
            // pull-back; every other anchor through its loop nest.
            let mut own =
                if is_anchor_read { own_pullback(graph, group) } else { None }.map(|m| m.compile());
            let mut map = read.map.as_ref().map(IndexMap::compile);
            let plan = read.layout.plan(src_shape);
            elems.clear();
            granules.clear();
            for coord in samples.iter() {
                decl.reset(decl_dims.len());
                match &mut own {
                    Some(own) => {
                        own.eval_into(coord, src);
                        decl.push(src.iter().copied());
                    }
                    None if is_anchor_read => {
                        anchor_read_coords(graph, &anchor.op, read, coord, decl_dims, decl)
                    }
                    None => decl.push(clamp_broadcast(coord, decl_dims)),
                }
                decl.assert_strided();
                for decl_coord in decl.iter() {
                    let src_coord = match &mut map {
                        None => decl_coord,
                        Some(map) => {
                            map.eval_into(decl_coord, src);
                            src.as_slice()
                        }
                    };
                    let addr = plan.address(src_coord);
                    elems.insert(elem_key(addr));
                    granules.insert(granule_key(addr, device, elem));
                }
                *addresses += decl.len as u64;
            }
            let granule_bytes = match read.layout.memory_class() {
                MemoryClass::Buffer1D => device.buffer_cache.line_bytes as f64,
                MemoryClass::Texture2p5D => {
                    (device.texture_tiling.tile_w * device.texture_tiling.tile_h * 4 * elem) as f64
                }
            };
            let useful = (elems.len() as f64 * elem as f64).max(1.0);
            let dragged = granules.len() as f64 * granule_bytes;
            Some((dragged / useful).clamp(1.0, granule_bytes / elem as f64))
        };
        group.reads.iter().map(trace_read).collect()
    }
}

/// Contiguous sub-volume of `dims` with at most `budget` points,
/// allocated innermost-first, enumerated in row-major order.
fn sample_subvolume(dims: &[usize], budget: usize, out: &mut Coords) {
    let mut window = vec![1usize; dims.len()];
    let mut remaining = budget.max(1);
    for i in (0..dims.len()).rev() {
        let take = dims[i].min(remaining);
        window[i] = take.max(1);
        remaining = (remaining / window[i]).max(1);
    }
    out.reset(dims.len());
    out.push_with(|_origin| {});
    for _ in 1..window.iter().product() {
        out.push_stepped(|c| {
            for d in (0..c.len()).rev() {
                c[d] += 1;
                if c[d] < window[d] {
                    break;
                }
                c[d] = 0;
            }
        });
    }
}

/// Right-aligned broadcast clamp of an iteration coordinate onto a
/// (possibly lower-rank / size-1) operand shape.
fn clamp_broadcast<'a>(
    coord: &'a [usize],
    decl_dims: &'a [usize],
) -> impl Iterator<Item = usize> + Clone + 'a {
    let shift = decl_dims.len() as isize - coord.len() as isize;
    decl_dims.iter().enumerate().map(move |(j, &d)| {
        let ci = j as isize - shift;
        let c = if ci >= 0 { coord.get(ci as usize).copied().unwrap_or(0) } else { 0 };
        c.min(d.saturating_sub(1))
    })
}

/// SplitMix64 for pseudo-random gather rows.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Input row/column read by kernel tap `d` of output position `out`,
/// unless it falls in the padding.
fn tap(out: usize, stride: usize, d: usize, pad: usize, extent: usize) -> Option<usize> {
    (out * stride + d).checked_sub(pad).filter(|&i| i < extent)
}

/// Generates the declared-space coordinates read by the anchor's loop
/// nest for one output point (inner loops sampled up to [`MAX_INNER`]).
fn anchor_read_coords(
    graph: &Graph,
    op: &Op,
    read: &EdgeRead,
    out_coord: &[usize],
    decl_dims: &[usize],
    out: &mut Coords,
) {
    match op {
        Op::Conv2d { stride, padding, groups } => {
            let w = &graph.tensor(graph.node(read.member).inputs[1]).shape;
            let (cpg, kh, kw) = (w.dim(1), w.dim(2), w.dim(3));
            let (n, oc, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
            let o_per_g = w.dim(0) / groups;
            let g_idx = oc / o_per_g.max(1);
            let mut emitted = 0usize;
            'outer: for ic in 0..cpg {
                for dh in 0..kh {
                    for dw in 0..kw {
                        if emitted >= MAX_INNER {
                            break 'outer;
                        }
                        emitted += 1;
                        match read.operand_idx {
                            0 => {
                                let ih = tap(oh, stride.0, dh, padding.0, decl_dims[2]);
                                let iw = tap(ow, stride.1, dw, padding.1, decl_dims[3]);
                                if let (Some(ih), Some(iw)) = (ih, iw) {
                                    out.push([n, g_idx * cpg + ic, ih, iw]);
                                }
                            }
                            1 => out.push([oc, ic, dh, dw]),
                            _ => {
                                out.push([oc.min(decl_dims[0].saturating_sub(1))]);
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        Op::MatMul { trans_a, trans_b } => {
            let rank = decl_dims.len();
            // Whether this operand's reduction dim is its last.
            let k_last = if read.operand_idx == 0 { !*trans_a } else { *trans_b };
            let (k_dim, free_dim) =
                if k_last { (rank - 1, rank - 2) } else { (rank - 2, rank - 1) };
            let k_extent = decl_dims[k_dim].min(MAX_INNER);
            if k_extent > 0 {
                let or = out_coord.len();
                let free = out_coord[if read.operand_idx == 0 { or - 2 } else { or - 1 }]
                    .min(decl_dims[free_dim] - 1);
                let batch = clamp_broadcast(&out_coord[..or - 2], &decl_dims[..rank - 2]);
                out.push(batch.chain(if k_last { [free, 0] } else { [0, free] }));
                (1..k_extent).for_each(|k| out.push_stepped(|c| c[k_dim] = k));
            }
        }
        Op::LayerNorm { axes } | Op::Reduce { axes, .. } => {
            reduction_space_coords(out_coord, decl_dims, axes, out);
        }
        Op::InstanceNorm => {
            reduction_space_coords(out_coord, decl_dims, &[2, 3], out);
        }
        Op::Softmax { axis } => {
            reduction_space_coords(out_coord, decl_dims, &[*axis], out);
        }
        Op::Pool2d { kernel, stride, padding, .. } => {
            let (n, c0, oh, ow) = (out_coord[0], out_coord[1], out_coord[2], out_coord[3]);
            let mut emitted = 0;
            for dh in 0..kernel.0 {
                for dw in 0..kernel.1 {
                    if emitted >= MAX_INNER {
                        return;
                    }
                    let ih = tap(oh, stride.0, dh, padding.0, decl_dims[2]);
                    let iw = tap(ow, stride.1, dw, padding.1, decl_dims[3]);
                    if let (Some(ih), Some(iw)) = (ih, iw) {
                        out.push([n, c0, ih, iw]);
                        emitted += 1;
                    }
                }
            }
        }
        Op::Gather { axis } if read.operand_idx == 0 => {
            let lin: u64 = out_coord.iter().fold(0u64, |acc, &c| acc * 31 + c as u64);
            let row = (splitmix(lin) % decl_dims[*axis].max(1) as u64) as usize;
            let gathered = |(j, c)| if j == *axis { row } else { c };
            out.push(clamp_broadcast(out_coord, decl_dims).enumerate().map(gathered));
        }
        Op::Concat { axis } => {
            let member = graph.node(read.member);
            let mut offset = 0usize;
            for (i, &input) in member.inputs.iter().enumerate() {
                let extent = graph.tensor(input).shape.dim(*axis);
                if i == read.operand_idx {
                    let pos = out_coord[*axis];
                    if pos >= offset && pos < offset + extent {
                        // The output coordinate with `axis` rebased onto
                        // this input, then broadcast-clamped: only the
                        // declared dim `axis` lands on can differ.
                        let landed = (*axis + decl_dims.len()).checked_sub(out_coord.len());
                        let rebased = |(j, c)| match landed {
                            Some(l) if l == j => (pos - offset).min(decl_dims[j].saturating_sub(1)),
                            _ => c,
                        };
                        out.push(clamp_broadcast(out_coord, decl_dims).enumerate().map(rebased));
                    }
                    return;
                }
                offset += extent;
            }
        }
        _ => out.push(clamp_broadcast(out_coord, decl_dims)),
    }
}

/// Coordinates covering the reduction space of normalization/reduction
/// operators: non-reduced dims come from the output coordinate, reduced
/// dims iterate (sampled).
fn reduction_space_coords(
    out_coord: &[usize],
    decl_dims: &[usize],
    axes: &[usize],
    out: &mut Coords,
) {
    let red_total: usize = axes.iter().map(|&a| decl_dims[a]).product();
    if red_total == 0 {
        return;
    }
    // Step 0: the kept dims, every reduced dim at 0.
    let keeps_rank = out_coord.len() == decl_dims.len();
    let mut kept = out_coord.iter();
    out.push_with(|c| {
        for (j, t) in c.iter_mut().enumerate() {
            if keeps_rank {
                *t = out_coord[j].min(decl_dims[j] - 1);
            } else if !axes.contains(&j) {
                *t = kept.next().copied().unwrap_or(0).min(decl_dims[j] - 1);
            }
        }
        axes.iter().for_each(|&a| c[a] = 0);
    });
    for step in 1..red_total.min(MAX_INNER) {
        out.push_stepped(|c| {
            let mut rem = step;
            for &a in axes.iter().rev() {
                c[a] = rem % decl_dims[a];
                rem /= decl_dims[a];
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Framework, OptimizedGraph, SmartMemConfig, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};

    #[test]
    fn sample_subvolume_bounds() {
        let mut s = Coords::default();
        sample_subvolume(&[1000, 1000], 256, &mut s);
        assert!(s.len <= 256);
        assert!(s.len > 0);
        assert_eq!(s.iter().last(), Some(&[0, 255][..]), "innermost dim fills first");
        sample_subvolume(&[2, 2], 256, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), [[0, 0], [0, 1], [1, 0], [1, 1]]);
        sample_subvolume(&[], 16, &mut s);
        assert_eq!(s.iter().collect::<Vec<_>>(), [&[][..]], "rank 0 is one empty point");
    }

    #[test]
    fn clamp_broadcast_right_aligns() {
        let clamp = |c: &[usize], d: &[usize]| clamp_broadcast(c, d).collect::<Vec<_>>();
        assert_eq!(clamp(&[3, 5, 7], &[8, 8]), vec![5, 7]);
        assert_eq!(clamp(&[3, 5, 7], &[1, 8]), vec![0, 7]);
        assert_eq!(clamp(&[2], &[4, 4]), vec![0, 2]);
    }

    #[test]
    fn distinct_counter_counts_and_clears() {
        let mut set = DistinctCounter::default();
        // Colliding, repeated, zero and the unstorable key.
        let keys = [0, 7, 7, 1 << 62, u64::MAX, u64::MAX, 7 + (1 << 40), 0];
        keys.iter().for_each(|&k| set.insert(k));
        assert_eq!(set.len(), 5);
        set.clear();
        assert_eq!(set.len(), 0);
        assert!(set.slots.iter().all(|&s| s == DistinctCounter::VACANT));
        (0..MAX_OUT_SAMPLES * MAX_INNER).for_each(|k| set.insert(k as u64 * 64));
        assert_eq!(set.len(), MAX_OUT_SAMPLES * MAX_INNER, "the full budget fits");
    }

    #[test]
    fn reduction_space_coords_cover_axes() {
        let mut out = Coords::default();
        out.reset(3);
        reduction_space_coords(&[2, 3], &[4, 8, 6], &[1], &mut out);
        assert!(out.len <= MAX_INNER);
        for c in out.iter() {
            assert_eq!(c[0], 2);
            assert_eq!(c[2], 3);
        }
        let axis_vals: std::collections::HashSet<usize> = out.iter().map(|c| c[1]).collect();
        assert!(axis_vals.len() > 1);
    }

    /// The retained `Reshape` kernel of `[a, b] -> [12]` at the
    /// DNNFusion level, with its optimized graph.
    fn reshape_kernel(a: usize, b: usize) -> (OptimizedGraph, KernelGroup) {
        let mut g = GraphBuilder::new("flatten");
        let x = g.input("x", &[a, b], DType::F16);
        let r = g.reshape(x, &[12]);
        let y = g.unary(r, UnaryKind::Gelu);
        g.output(y);
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::with_config(SmartMemConfig::dnnfusion_level())
            .optimize(&g.finish(), &device)
            .unwrap();
        let group = opt
            .groups
            .iter()
            .find(|k| matches!(opt.graph.node(k.anchor).op, Op::Reshape { .. }))
            .expect("the reshape is retained as a kernel")
            .clone();
        (opt, group)
    }

    #[test]
    fn signature_covers_every_shape_the_trace_reads() {
        // Same op, same output space, same (no) reads: only the
        // anchor's input-0 dims — `own_pullback`'s domain — differ.
        let (opt_a, mut group_a) = reshape_kernel(2, 6);
        let (opt_b, mut group_b) = reshape_kernel(3, 4);
        let full = group_signature(&opt_a.graph, &group_a);
        let reads = std::mem::take(&mut group_a.reads);
        group_b.reads.clear();
        assert_ne!(
            group_signature(&opt_a.graph, &group_a),
            group_signature(&opt_b.graph, &group_b)
        );
        // Same group, one read declared over a different space.
        group_a.reads = reads;
        assert_eq!(group_signature(&opt_a.graph, &group_a), full);
        assert_ne!(
            opt_a.graph.tensor(group_a.output).shape,
            opt_a.graph.tensor(group_a.reads[0].logical).shape
        );
        group_a.reads[0].logical = group_a.output;
        assert_ne!(group_signature(&opt_a.graph, &group_a), full);
    }
}
