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
//! footprint and nobody asks for their drag.
//!
//! Only work that can change a count is done. An output point whose
//! declared coordinates repeat the previous point's (a MatMul A operand
//! along `n`, conv weights along the spatial dims) is skipped: the
//! counts are set unions, so the repeat cannot move them. Reads with
//! identical signatures share one trace (transformer blocks repeat
//! dozens of times), and [`trace_all`] traces the distinct reads on the
//! calling thread, so an estimate's time does not depend on whether
//! other cores are free.
//!
//! A drag depends on the device only through its [`Granules`]: the
//! element size, the buffer line and the texel tile. So a trace is kept
//! once per process, in a [`DragMemo`] keyed on the read's signature
//! and that geometry, and every later estimate — of another model with
//! the same block, or on another device with the same lines and tiles —
//! looks it up instead of tracing again. The memo is process-wide, like
//! LTE's composition memo, because `estimate` has no session to own it.
//!
//! [`OptimizedGraph::estimate`]: crate::OptimizedGraph::estimate

use crate::estimate::resident_bytes;
use crate::pipeline::{EdgeRead, KernelGroup};
use smartmem_index::IndexMap;
use smartmem_ir::{Graph, MemoryClass, Op, PhysicalAddress, TensorId};
use smartmem_sim::DeviceConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// Output-space sample budget per kernel.
const MAX_OUT_SAMPLES: usize = 256;
/// Inner (reduction) loop sample budget per output point.
const MAX_INNER: usize = 16;

/// What estimating one model cost the sampled trace (host work, not a
/// simulated quantity): the "before" of any estimator optimization.
///
/// Every count but `reused` is the trace's own and does not depend on
/// what the process estimated before: a drag served by the drag memo
/// reports the addresses and skips of the trace that produced it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Distinct streamed read signatures, each traced once per process
    /// and granule geometry; every other streamed read of the call
    /// reused the drag of an identical one.
    pub unique_traces: usize,
    /// Physical addresses the traces of the distinct streamed reads
    /// generate, whether this call traced them or the memo served them.
    pub addresses: u64,
    /// Output points whose declared coordinate set repeated the
    /// previous point's, so no address was generated for them.
    pub skipped_points: u64,
    /// Distinct signatures of this call whose drag the process memo
    /// already held: this call traced `unique_traces - reused` reads.
    /// The one count that depends on what the process did before.
    pub reused: usize,
}

/// Hash signature of one read of `group` for trace sharing: everything
/// [`LineDragTracer::trace_read`] reads from the graph for it, including
/// the anchor's input extents its own pull-back maps onto.
fn read_signature(graph: &Graph, group: &KernelGroup, read: &EdgeRead) -> u64 {
    let dims = |t: TensorId| graph.tensor(t).shape.dims();
    let mut h = DefaultHasher::new();
    let is_anchor_read = read.member == group.anchor;
    is_anchor_read.hash(&mut h);
    if is_anchor_read {
        // The anchor's loop nest and own pull-back, over its output
        // space, read its op and its operands' extents.
        let anchor = graph.node(group.anchor);
        anchor.op.hash(&mut h);
        dims(anchor.outputs[0]).hash(&mut h);
        anchor.inputs.iter().for_each(|&t| dims(t).hash(&mut h));
    } else {
        dims(group.output).hash(&mut h);
    }
    dims(read.source).hash(&mut h);
    dims(read.logical).hash(&mut h);
    read.layout.hash(&mut h);
    read.operand_idx.hash(&mut h);
    read.map.hash(&mut h);
    h.finish()
}

/// Everything of a device a trace reads: the element size and the
/// granules it counts. Two devices with equal geometry give every read
/// the same drag, so this, not the device, is half the memo key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Granules {
    /// Bytes per element.
    elem: u64,
    /// Cache-line bytes of 1D buffers.
    line_bytes: u64,
    /// Texel tile of 2.5D textures.
    tile_w: u64,
    tile_h: u64,
}

impl Granules {
    fn of(device: &DeviceConfig, elem: u64) -> Self {
        Granules {
            elem,
            line_bytes: device.buffer_cache.line_bytes as u64,
            tile_w: device.texture_tiling.tile_w,
            tile_h: device.texture_tiling.tile_h,
        }
    }

    /// Granule key of a physical address: cache line for buffers, 2-D
    /// tile for textures (Table 2's 2.5D locality).
    fn key(&self, addr: PhysicalAddress) -> u64 {
        match addr {
            PhysicalAddress::Linear(off) => (off * self.elem) / self.line_bytes,
            PhysicalAddress::Texel { x, y, .. } => {
                ((y / self.tile_h) << 24) | (x / self.tile_w) | (1 << 62)
            }
        }
    }

    /// Bytes one granule of `class` drags in.
    fn bytes(&self, class: MemoryClass) -> f64 {
        match class {
            MemoryClass::Buffer1D => self.line_bytes as f64,
            MemoryClass::Texture2p5D => (self.tile_w * self.tile_h * 4 * self.elem) as f64,
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
#[derive(Default, PartialEq)]
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

/// The line drags of every group of one `estimate` call.
pub(crate) struct Traces {
    /// Per group: the drag of each of its reads.
    drags: Vec<Vec<Option<f64>>>,
    /// What producing them cost.
    pub(crate) stats: TraceStats,
}

impl Traces {
    /// Line drag of every read of group `gi`, in `reads` order: bytes
    /// dragged from memory per useful byte, in `[1, granule/elem]`.
    /// `None` marks a cache-resident operand — never streamed, so it
    /// has no drag and is not traced.
    pub(crate) fn drags(&self, gi: usize) -> &[Option<f64>] {
        &self.drags[gi]
    }
}

/// Drags already traced, keyed on a read's signature ([`read_signature`])
/// and the [`Granules`] it was traced at; each value is the drag and
/// what its trace cost. Entries are pure functions of their key, so they
/// hold across models, sessions and threads.
#[derive(Default)]
pub(crate) struct DragMemo(Mutex<HashMap<(u64, Granules), (f64, TraceStats)>>);

impl DragMemo {
    /// The process-wide memo every [`OptimizedGraph::estimate`] shares.
    ///
    /// [`OptimizedGraph::estimate`]: crate::OptimizedGraph::estimate
    pub(crate) fn global() -> &'static DragMemo {
        static MEMO: OnceLock<DragMemo> = OnceLock::new();
        MEMO.get_or_init(DragMemo::default)
    }

    /// The drag at `key` and what its trace cost, and whether the memo
    /// held it; on a miss `trace` runs without the lock held (two
    /// threads racing on one key store one value) and is remembered.
    fn get_or_trace(
        &self,
        key: (u64, Granules),
        trace: impl FnOnce() -> (f64, TraceStats),
    ) -> ((f64, TraceStats), bool) {
        let memo = || self.0.lock().expect("drag memo lock");
        if let Some(&hit) = memo().get(&key) {
            return (hit, true);
        }
        let traced = trace();
        memo().insert(key, traced);
        (traced, false)
    }
}

/// Traces every distinct streamed read once, with one reused
/// [`LineDragTracer`]; reads with one signature share a trace, and a
/// signature `memo` already holds at this device's geometry is not
/// traced at all. `pullbacks[gi]` is group `gi`'s own pull-back map (see
/// [`own_pullback`]).
///
/// [`own_pullback`]: crate::estimate::own_pullback
pub(crate) fn trace_all(
    graph: &Graph,
    groups: &[KernelGroup],
    pullbacks: &[Option<IndexMap>],
    device: &DeviceConfig,
    elem: u64,
    memo: &DragMemo,
) -> Traces {
    let geometry = Granules::of(device, elem);
    let mut tracer: Option<LineDragTracer> = None;
    let mut stats = TraceStats::default();
    let mut drag_of: HashMap<u64, f64> = HashMap::new();
    let drags = groups
        .iter()
        .zip(pullbacks)
        .map(|(group, own)| {
            let reads = group.reads.iter().enumerate();
            reads
                .map(|(ri, read)| {
                    let bytes = (graph.tensor(read.source).shape.numel() * elem) as f64;
                    let streamed = bytes > resident_bytes(&read.layout, device);
                    streamed.then(|| {
                        let signature = read_signature(graph, group, read);
                        *drag_of.entry(signature).or_insert_with(|| {
                            let ((drag, cost), hit) =
                                memo.get_or_trace((signature, geometry), || {
                                    let tracer = tracer.get_or_insert_with(Default::default);
                                    tracer.trace_read(graph, group, ri, own.as_ref(), &geometry)
                                });
                            stats.reused += usize::from(hit);
                            stats.addresses += cost.addresses;
                            stats.skipped_points += cost.skipped_points;
                            drag
                        })
                    })
                })
                .collect()
        })
        .collect();
    stats.unique_traces = drag_of.len();
    Traces { drags, stats }
}

/// The buffers a trace reuses across reads.
#[derive(Default)]
struct LineDragTracer {
    /// The sample window of the output space a read walks.
    samples: Coords,
    /// Declared-space coordinates read for one output point.
    decl: Coords,
    /// The same for the previous output point of the current read.
    prev: Coords,
    /// One source-space coordinate.
    src: Vec<usize>,
    elems: DistinctCounter,
    granules: DistinctCounter,
}

impl LineDragTracer {
    /// The drag of streamed read `ri` of `group` (see [`Traces::drags`])
    /// and what tracing it cost. `own` is the group's own pull-back map.
    fn trace_read(
        &mut self,
        graph: &Graph,
        group: &KernelGroup,
        ri: usize,
        own: Option<&IndexMap>,
        geometry: &Granules,
    ) -> (f64, TraceStats) {
        let LineDragTracer { samples, decl, prev, src, elems, granules } = self;
        let mut stats = TraceStats::default();
        let read = &group.reads[ri];
        let anchor = graph.node(group.anchor);
        let is_anchor_read = read.member == group.anchor;
        // The anchor's reads walk its own output space, the epilogue's
        // the group's.
        let space = if is_anchor_read { anchor.outputs[0] } else { group.output };
        sample_subvolume(graph.tensor(space).shape.dims(), MAX_OUT_SAMPLES, samples);
        let decl_dims = graph.tensor(read.logical).shape.dims();
        // A retained transformation kernel reads through its own
        // pull-back; every other anchor through its loop nest.
        let mut own = if is_anchor_read { own } else { None }.map(IndexMap::compile);
        let mut map = read.map.as_ref().map(IndexMap::compile);
        let plan = read.layout.plan(&graph.tensor(read.source).shape);
        elems.clear();
        granules.clear();
        for (i, coord) in samples.iter().enumerate() {
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
            // The counts are set unions: a point that reads exactly the
            // previous point's coordinates cannot change them.
            if i > 0 && *decl == *prev {
                stats.skipped_points += 1;
                continue;
            }
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
                granules.insert(geometry.key(addr));
            }
            stats.addresses += decl.len as u64;
            std::mem::swap(decl, prev);
        }
        let granule_bytes = geometry.bytes(read.layout.memory_class());
        let elem = geometry.elem as f64;
        let useful = (elems.len() as f64 * elem).max(1.0);
        let dragged = granules.len() as f64 * granule_bytes;
        ((dragged / useful).clamp(1.0, granule_bytes / elem), stats)
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
    use crate::estimate::own_pullback;
    use crate::pipeline::{Framework, OptimizedGraph, SmartMemLevel, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder, ReduceKind, UnaryKind};

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
        let opt =
            SmartMemPipeline::at(SmartMemLevel::DnnFusion).optimize(&g.finish(), &device).unwrap();
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
        // The same anchor read of the same `[12]` tensor in both groups:
        // only the anchor's input dims — `own_pullback`'s domain — differ.
        let (opt_a, group_a) = reshape_kernel(2, 6);
        let (opt_b, group_b) = reshape_kernel(3, 4);
        let over_output = |group: &KernelGroup| EdgeRead {
            source: group.output,
            logical: group.output,
            member: group.anchor,
            ..group_a.reads[0].clone()
        };
        let (read_a, read_b) = (over_output(&group_a), over_output(&group_b));
        let dims = |opt: &OptimizedGraph, t: TensorId| opt.graph.tensor(t).shape.clone();
        assert_eq!(dims(&opt_a, read_a.source), dims(&opt_b, read_b.source));
        assert_ne!(
            read_signature(&opt_a.graph, &group_a, &read_a),
            read_signature(&opt_b.graph, &group_b, &read_b)
        );
        // Same read, declared over a different space.
        let read = &group_a.reads[0];
        assert_ne!(dims(&opt_a, read.logical), dims(&opt_a, group_a.output));
        let full = read_signature(&opt_a.graph, &group_a, read);
        let relogical = EdgeRead { logical: group_a.output, ..read.clone() };
        assert_ne!(read_signature(&opt_a.graph, &group_a, &relogical), full);
    }

    #[test]
    fn shared_traces_give_every_group_its_own_drags() {
        let device = DeviceConfig::snapdragon_8gen2();
        let elem = device.dtype.size_bytes();
        for name in ["Swin", "ResNext", "Pythia"] {
            let graph = smartmem_models::by_name(name).expect("zoo model").graph();
            // The DNNFusion level also traces retained transform kernels
            // through their own pull-backs.
            for level in [SmartMemLevel::Full, SmartMemLevel::DnnFusion] {
                let opt = SmartMemPipeline::at(level).optimize(&graph, &device).unwrap();
                let (graph, groups) = (&opt.graph, &opt.groups);
                let pullbacks: Vec<_> = groups.iter().map(|g| own_pullback(graph, g)).collect();
                let shared =
                    trace_all(graph, groups, &pullbacks, &device, elem, &DragMemo::default());
                let mut streamed = 0;
                for (gi, group) in groups.iter().enumerate() {
                    // A fresh memo each: the group is traced, not looked up.
                    let alone = trace_all(
                        graph,
                        std::slice::from_ref(group),
                        &pullbacks[gi..=gi],
                        &device,
                        elem,
                        &DragMemo::default(),
                    );
                    assert_eq!(alone.stats.reused, 0);
                    assert!(shared.drags(gi) == alone.drags(0), "{name} group {gi}");
                    streamed += alone.drags(0).iter().flatten().count();
                }
                assert!(shared.stats.unique_traces < streamed, "{name} repeats signatures");
                assert!(shared.stats.skipped_points > 0, "{name} repeats coordinate sets");
            }
        }
    }

    /// The anchor group of `graph`'s only `op`-kernel, reduced to its
    /// anchor read of operand `operand`, with its optimized graph.
    fn anchor_read(graph: &Graph, mnemonic: &str, operand: usize) -> (OptimizedGraph, KernelGroup) {
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(graph, &device).unwrap();
        let mut group = opt
            .groups
            .iter()
            .find(|k| opt.graph.node(k.anchor).op.mnemonic() == mnemonic)
            .expect("the kernel exists")
            .clone();
        group.reads.retain(|r| r.member == group.anchor && r.operand_idx == operand);
        assert_eq!(group.reads.len(), 1);
        (opt, group)
    }

    /// What tracing [`anchor_read`]'s read cost.
    fn trace_anchor_read(graph: &Graph, mnemonic: &str, operand: usize) -> TraceStats {
        let (opt, group) = anchor_read(graph, mnemonic, operand);
        let device = DeviceConfig::snapdragon_8gen2();
        let elem = device.dtype.size_bytes();
        let traces = trace_all(&opt.graph, &[group], &[None], &device, elem, &DragMemo::default());
        assert!(traces.drags(0)[0].is_some(), "the operand is streamed, so traced");
        traces.stats
    }

    /// `x[1, 512, 1024] @ w[1024, 512]`: both operands stream, and the
    /// 256-point output window varies only `n`.
    fn matmul_graph() -> Graph {
        let mut g = GraphBuilder::new("matmul");
        let x = g.input("x", &[1, 512, 1024], DType::F16);
        let w = g.weight("w", &[1024, 512], DType::F16);
        let y = g.matmul(x, w);
        g.output(y);
        g.finish()
    }

    #[test]
    fn matmul_a_operand_traces_one_point_of_its_window() {
        // A reads row m for k in 0..16 at every n: one set, 255 repeats.
        let a = trace_anchor_read(&matmul_graph(), "MatMul", 0);
        assert_eq!((a.addresses, a.skipped_points), (16, 255));
    }

    #[test]
    fn repeat_skip_keeps_sets_that_differ() {
        // Equal lengths, different values: B reads column n, k in 0..16.
        let b = trace_anchor_read(&matmul_graph(), "MatMul", 1);
        assert_eq!((b.addresses, b.skipped_points), (256 * 16, 0));

        // A 3x1 conv with one row of padding over a one-column image:
        // the window walks `oh`, and at the top border the first tap
        // falls in the padding. Point 1's set is point 0's plus one
        // coordinate — same prefix, different length.
        let mut g = GraphBuilder::new("conv");
        let x = g.input("x", &[1, 1, 1 << 19, 1], DType::F16);
        let w = g.weight("w", &[1, 1, 3, 1], DType::F16);
        let y = g.conv2d(x, w, (1, 1), (1, 0), 1);
        g.output(y);
        let graph = g.finish();
        let op = Op::Conv2d { stride: (1, 1), padding: (1, 0), groups: 1 };
        let read = EdgeRead {
            source: x,
            logical: x,
            member: graph.producer(y).expect("conv node"),
            operand_idx: 0,
            map: None,
            layout: smartmem_ir::Layout::row_major(4),
            canon: None,
        };
        let points: Vec<Vec<usize>> = (0..2)
            .map(|oh| {
                let mut set = Coords::default();
                set.reset(4);
                anchor_read_coords(
                    &graph,
                    &op,
                    &read,
                    &[0, 0, oh, 0],
                    &[1, 1, 1 << 19, 1],
                    &mut set,
                );
                set.flat
            })
            .collect();
        assert_eq!((points[0].len(), points[1].len()), (2 * 4, 3 * 4));
        assert!(points[1].starts_with(&points[0]));
        let conv = trace_anchor_read(&graph, "Conv2d", 0);
        assert_eq!((conv.addresses, conv.skipped_points), (2 + 255 * 3, 0));
    }

    #[test]
    fn a_rank_zero_output_space_is_one_point() {
        // A full reduction to a scalar: its one output point still reads.
        let mut g = GraphBuilder::new("sum");
        let x = g.input("x", &[1 << 19], DType::F16);
        let y = g.reduce(x, ReduceKind::Sum, vec![0], false);
        g.output(y);
        let sum = trace_anchor_read(&g.finish(), "Reduce", 0);
        assert_eq!((sum.addresses, sum.skipped_points), (MAX_INNER as u64, 0));
    }

    #[test]
    fn a_warm_memo_gives_what_a_fresh_one_gives() {
        let device = DeviceConfig::snapdragon_8gen2();
        let names = ["Swin", "ResNext", "Pythia"];
        let levels = [SmartMemLevel::Full, SmartMemLevel::DnnFusion];
        let compiled: Vec<(&str, OptimizedGraph)> = names
            .iter()
            .flat_map(|&name| {
                let graph = smartmem_models::by_name(name).expect("zoo model").graph();
                levels.map(|level| {
                    (name, SmartMemPipeline::at(level).optimize(&graph, &device).unwrap())
                })
            })
            .collect();
        let trace = |opt: &OptimizedGraph, device: &DeviceConfig, memo: &DragMemo| {
            let pullbacks: Vec<_> =
                opt.groups.iter().map(|g| own_pullback(&opt.graph, g)).collect();
            let elem = device.dtype.size_bytes();
            trace_all(&opt.graph, &opt.groups, &pullbacks, device, elem, memo)
        };
        // Lines of 256 and 128 bytes against this device's 64, and this
        // device's very lines and tiles under smaller caches: entries the
        // memo must keep apart, and entries it must share.
        let others =
            [DeviceConfig::server_npu(), DeviceConfig::apple_m1(), DeviceConfig::dimensity_700()];
        for name in names {
            // Warmed by every model on the other devices, and by the
            // other models on this one.
            let warm = DragMemo::default();
            for (other, opt) in &compiled {
                others.iter().for_each(|d| drop(trace(opt, d, &warm)));
                if *other != name {
                    trace(opt, &device, &warm);
                }
            }
            for (_, opt) in compiled.iter().filter(|(n, _)| *n == name) {
                let fresh = trace(opt, &device, &DragMemo::default());
                let warmed = trace(opt, &device, &warm);
                for gi in 0..opt.groups.len() {
                    assert!(fresh.drags(gi) == warmed.drags(gi), "{name} group {gi}");
                }
                assert_eq!(fresh.stats.reused, 0);
                assert!(warmed.stats.reused > 0, "{name} hits the warm memo");
                assert_eq!(fresh.stats, TraceStats { reused: 0, ..warmed.stats }, "{name}");
            }
        }
    }

    #[test]
    fn line_size_is_part_of_the_key() {
        // `x[k, m]` read transposed: 16 rows of one column, 1 KiB apart,
        // so every element drags a line of its own.
        let mut g = GraphBuilder::new("matmul_ta");
        let x = g.input("x", &[1024, 512], DType::F16);
        let w = g.weight("w", &[1024, 512], DType::F16);
        let y = g.matmul_t(x, w, true, false);
        g.output(y);
        let (opt, mut group) = anchor_read(&g.finish(), "MatMul", 0);
        group.reads[0].layout = smartmem_ir::Layout::row_major(2);
        let memo = DragMemo::default();
        let drag_at = |line_bytes: usize| {
            let mut device = DeviceConfig::snapdragon_8gen2();
            device.buffer_cache.line_bytes = line_bytes;
            let elem = device.dtype.size_bytes();
            let traces = trace_all(&opt.graph, &[group.clone()], &[None], &device, elem, &memo);
            assert_eq!(traces.stats.reused, 0, "{line_bytes}-byte lines are traced");
            traces.drags(0)[0]
        };
        assert_eq!((drag_at(64), drag_at(256)), (Some(32.0), Some(128.0)));
        assert_eq!(memo.0.lock().unwrap().len(), 2);
    }
}
