//! Latency and memory estimation of an [`OptimizedGraph`] on a device.
//!
//! Each kernel group is profiled by *sampled trace analysis*: a window
//! of its iteration space is executed, generating the physical
//! addresses implied by the chosen layouts and (for eliminated
//! transformation chains) the composed index maps. From the trace we
//! measure each operand's **line drag** — the ratio of cache-line bytes
//! dragged from memory to useful bytes, i.e. the spatial-locality
//! quality of the layout for this access pattern (1.0 = perfect
//! streaming, up to `line/elem` for fully strided access). Texture
//! operands use 2-D tile granules, which is exactly the 2.5D-memory
//! advantage of Table 2.
//!
//! DRAM traffic per operand is then
//!
//! ```text
//! traffic = unique_bytes × line_drag × passes
//! ```
//!
//! where `passes` models how often the operand must be re-streamed
//! given on-chip tile reuse (GEMM/conv operands whose counterpart fits
//! in cache stream once; otherwise once per output tile strip), and the
//! roofline cost model of `smartmem-sim` turns traffic and ALU work
//! (including strength-reduced index arithmetic) into nanoseconds.
//! The trace itself — sample window, address generation, distinct
//! counting, one trace per distinct read and granule geometry per
//! process — is [`crate::trace`].

use crate::lte::{is_eliminable, op_pullback};
use crate::pipeline::{EdgeRead, KernelGroup, OptimizedGraph};
use crate::trace::{trace_all, DragMemo, TraceStats};
use smartmem_index::IndexMap;
use smartmem_ir::{Graph, Layout, MemoryClass, Op, Shape};
use smartmem_sim::{DeviceConfig, KernelProfile, LatencyClass, MemCounters, OpCost};
use std::collections::HashMap;

/// Amortization of index arithmetic across vectorized (`vec4`) loads:
/// one composed-index evaluation covers a vector of elements.
const INDEX_AMORTIZATION: f64 = 0.25;

/// Per-kernel estimation result.
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// Index into [`OptimizedGraph::groups`].
    pub index: usize,
    /// Latency bucket.
    pub class: LatencyClass,
    /// Latency decomposition.
    pub cost: OpCost,
    /// MACs executed.
    pub macs: u64,
    /// Scaled memory counters.
    pub counters: MemCounters,
}

/// Whole-model estimation result.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in giga-MACs per second (the paper's "Speed" column).
    pub gmacs: f64,
    /// Number of kernels launched.
    pub kernel_count: usize,
    /// Latency spent in compute kernels (ms).
    pub compute_ms: f64,
    /// Latency spent in explicit (model-authored) transformations (ms).
    pub explicit_ms: f64,
    /// Latency spent in implicit (framework-inserted) transformations (ms).
    pub implicit_ms: f64,
    /// Scaled memory counters (Fig. 7/9).
    pub mem: MemCounters,
    /// Estimated DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Peak memory footprint in bytes (weights + activations +
    /// workspaces under the framework's memory model).
    pub peak_memory_bytes: u64,
    /// Per-kernel details.
    pub groups: Vec<GroupReport>,
    /// Host-side work the sampled trace did to produce this report.
    pub trace: TraceStats,
}

impl ModelReport {
    /// Fraction of latency spent in layout transformations (Table 1's
    /// `Imp. + Exp.` columns).
    pub fn transform_fraction(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            (self.explicit_ms + self.implicit_ms) / self.latency_ms
        }
    }

    /// Average computational intensity in MACs/byte (x-axis of Fig. 12).
    pub fn intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            0.0
        } else {
            (self.gmacs * self.latency_ms * 1e6) / self.dram_bytes as f64
        }
    }
}

impl OptimizedGraph {
    /// Estimates execution of the optimized model on `device`.
    pub fn estimate(&self, device: &DeviceConfig) -> ModelReport {
        let graph = &self.graph;
        let elem = device.dtype.size_bytes();
        let pullbacks: Vec<_> = self.groups.iter().map(|g| own_pullback(graph, g)).collect();
        // --- Sampled trace: line drag per read, `None` for a
        // cache-resident operand; one trace per distinct read and
        // granule geometry in the whole process -------------------------
        let traces = trace_all(graph, &self.groups, &pullbacks, device, elem, DragMemo::global());

        let line_buffer = device.buffer_cache.line_bytes as u64;
        let tile_texture = (device.texture_tiling.tile_w * device.texture_tiling.tile_h) * 4 * elem;

        let mut groups_out = Vec::with_capacity(self.groups.len());
        let mut total_ns = 0.0;
        let (mut compute_ns, mut explicit_ns, mut implicit_ns) = (0.0, 0.0, 0.0);
        let mut mem = MemCounters::default();
        let mut dram_bytes_total: u64 = 0;
        let mut total_macs: u64 = 0;

        for (gi, group) in self.groups.iter().enumerate() {
            let anchor = graph.node(group.anchor);
            let anchor_out_shape = graph.tensor(anchor.outputs[0]).shape.clone();
            let out_shape = graph.tensor(group.output).shape.clone();
            let anchor_numel = anchor_out_shape.numel();
            let out_numel = out_shape.numel();

            // --- Per-operand DRAM traffic ----------------------------
            let mut dram_buffer: u64 = 0;
            let mut dram_texture: u64 = 0;
            let mut accesses_buffer: u64 = 0;
            let mut accesses_texture: u64 = 0;
            let mut index_ops = 0.0f64;

            for (read, drag) in group.reads.iter().zip(traces.drags(gi)) {
                let is_anchor_read = read.member == group.anchor;
                let iter_numel = if is_anchor_read { anchor_numel } else { out_numel } as f64;
                let ppr = if is_anchor_read {
                    per_point_reads(graph, &anchor.op, read, &anchor_out_shape)
                } else {
                    1.0
                };
                let accesses = ppr * iter_numel;
                let src_bytes = graph.tensor(read.source).shape.numel() * elem;
                let unique = (src_bytes as f64).min(accesses * elem as f64);
                // Operands that fit in cache stay resident after the
                // compulsory fetch: traffic is just the footprint. Only
                // streamed operands pay line drag and re-streaming
                // passes.
                let (traffic, requests) = match drag {
                    None => (unique as u64, (unique / elem as f64) as u64),
                    Some(drag) => {
                        let passes = operand_passes(graph, group, read, device, elem);
                        ((unique * drag * passes) as u64, (unique * passes / elem as f64) as u64)
                    }
                };
                // `requests` are accesses reaching global memory — the
                // quantity the paper's hardware counter reports (Fig. 7);
                // on-chip-reuse hits are excluded.
                match read.layout.memory_class() {
                    MemoryClass::Buffer1D => {
                        dram_buffer += traffic;
                        accesses_buffer += requests;
                    }
                    MemoryClass::Texture2p5D => {
                        dram_texture += traffic;
                        accesses_texture += requests;
                    }
                }
                let mut map_cost = read.map.as_ref().map(|m| m.cost().weighted()).unwrap_or(0.0);
                if let Some(own) = pullbacks[gi].as_ref().filter(|_| is_anchor_read) {
                    map_cost += own.cost().weighted();
                }
                // Index expressions are evaluated once per *distinct*
                // element: loop-invariant sub-expressions are hoisted out
                // of the reduction loops, so repeated touches of the same
                // element reuse the computed address.
                let unique_accesses = accesses.min(graph.tensor(read.source).shape.numel() as f64);
                // Even without strength reduction a generated kernel
                // evaluates the transformation chain step-by-step, so the
                // per-element cost is bounded by the chain length, not by
                // the size of the fully substituted expression tree.
                let map_cost = map_cost.min(200.0);
                index_ops += map_cost * unique_accesses * INDEX_AMORTIZATION;
            }

            // Output write: streamed once per copy. Writes are coalesced
            // by construction — the kernel's thread order follows the
            // output layout and GPU write-combining absorbs the residual
            // scatter (this is also why the paper finds sub-optimal
            // *writes* cheaper than sub-optimal *reads*, SS3.2.2) — so
            // they pay no line drag.
            let write_bytes = out_numel * elem * (1 + group.extra_copies as u64);
            match group.output_layout.memory_class() {
                MemoryClass::Buffer1D => {
                    dram_buffer += write_bytes;
                    accesses_buffer += out_numel;
                }
                MemoryClass::Texture2p5D => {
                    dram_texture += write_bytes;
                    accesses_texture += out_numel;
                }
            }

            // --- Compute & epilogue work -----------------------------
            let macs: u64 = group.members.iter().map(|&m| graph.node_macs(m)).sum();
            let alu_ops: f64 = group
                .members
                .iter()
                .map(|&m| {
                    let n = graph.node(m);
                    let numel = graph.tensor(n.outputs[0]).shape.numel() as f64;
                    n.op.ops_per_element() * numel
                })
                .sum();

            let profile = KernelProfile {
                macs,
                alu_ops,
                dram_bytes_buffer: dram_buffer,
                dram_bytes_texture: dram_texture,
                index_ops,
                utilization: group.utilization,
            };
            let mut cost = device.kernel_cost(&profile);
            cost.launch_ns *= self.mem_model.dispatch_scale;
            let ns = cost.total_ns();
            total_ns += ns;
            match group.class {
                LatencyClass::Compute => compute_ns += ns,
                LatencyClass::ExplicitTransform => explicit_ns += ns,
                LatencyClass::ImplicitTransform => implicit_ns += ns,
            }

            let counters = MemCounters {
                buffer_accesses: accesses_buffer,
                buffer_misses: dram_buffer / line_buffer.max(1),
                texture_accesses: accesses_texture,
                texture_misses: dram_texture / tile_texture.max(1),
            };
            mem = mem.combine(counters);
            dram_bytes_total += dram_buffer + dram_texture;
            total_macs += macs;

            groups_out.push(GroupReport { index: gi, class: group.class, cost, macs, counters });
        }

        let latency_ms = total_ns / 1e6;
        let gmacs = if latency_ms > 0.0 { total_macs as f64 / (latency_ms * 1e6) } else { 0.0 };
        ModelReport {
            latency_ms,
            gmacs,
            kernel_count: self.groups.len(),
            compute_ms: compute_ns / 1e6,
            explicit_ms: explicit_ns / 1e6,
            implicit_ms: implicit_ns / 1e6,
            mem,
            dram_bytes: dram_bytes_total,
            peak_memory_bytes: self.peak_memory(device),
            groups: groups_out,
            trace: traces.stats,
        }
    }

    /// Peak memory footprint under the framework's memory model.
    pub fn peak_memory(&self, device: &DeviceConfig) -> u64 {
        let graph = &self.graph;
        let elem = device.dtype.size_bytes();
        let weights: u64 = graph.param_count() * elem;
        let bytes_of = |t: smartmem_ir::TensorId| graph.tensor(t).shape.numel() * elem;

        let activations = if self.mem_model.pooled {
            // Liveness over the group schedule.
            let mut last_use: HashMap<u32, usize> = HashMap::new();
            for (gi, g) in self.groups.iter().enumerate() {
                for r in &g.reads {
                    last_use.insert(r.source.0, gi);
                }
            }
            for &out in graph.outputs() {
                last_use.insert(out.0, self.groups.len());
            }
            let mut live: u64 = graph.inputs().iter().map(|&t| bytes_of(t)).sum();
            let mut peak = live;
            let mut expires: HashMap<usize, u64> = HashMap::new();
            for (gi, g) in self.groups.iter().enumerate() {
                let b = bytes_of(g.output) * (1 + g.extra_copies as u64);
                live += b;
                peak = peak.max(live);
                let lu = last_use.get(&g.output.0).copied().unwrap_or(gi);
                *expires.entry(lu).or_insert(0) += b;
                if let Some(freed) = expires.remove(&gi) {
                    live = live.saturating_sub(freed);
                }
            }
            peak
        } else {
            // Every intermediate stays allocated.
            self.groups
                .iter()
                .map(|g| bytes_of(g.output) * (1 + g.extra_copies as u64))
                .sum::<u64>()
                + graph.inputs().iter().map(|&t| bytes_of(t)).sum::<u64>()
        };

        let im2col = if self.mem_model.im2col {
            self.groups
                .iter()
                .filter_map(|g| {
                    let n = graph.node(g.anchor);
                    match n.op {
                        Op::Conv2d { .. } => {
                            let w = &graph.tensor(n.inputs[1]).shape;
                            let out = &graph.tensor(n.outputs[0]).shape;
                            Some(
                                w.dim(1) as u64
                                    * w.dim(2) as u64
                                    * w.dim(3) as u64
                                    * out.dim(2) as u64
                                    * out.dim(3) as u64
                                    * elem,
                            )
                        }
                        _ => None,
                    }
                })
                .max()
                .unwrap_or(0)
        } else {
            0
        };

        weights + (activations as f64 * self.mem_model.workspace_factor) as u64 + im2col
    }
}

/// Largest operand that stays cache-resident after its compulsory fetch:
/// half of the cache serving the layout's memory class.
pub(crate) fn resident_bytes(layout: &Layout, device: &DeviceConfig) -> f64 {
    match layout.memory_class() {
        MemoryClass::Buffer1D => device.buffer_cache.size_bytes as f64 * 0.5,
        MemoryClass::Texture2p5D => device.texture_cache.size_bytes as f64 * 0.5,
    }
}

/// How many times an operand must be streamed from DRAM given on-chip
/// tile reuse: GEMM/conv operands whose counterpart (times its drag)
/// fits in the cache stream once; otherwise once per output-tile strip.
fn operand_passes(
    graph: &Graph,
    group: &KernelGroup,
    read: &EdgeRead,
    device: &DeviceConfig,
    elem: u64,
) -> f64 {
    let member = graph.node(read.member);
    if read.member != group.anchor {
        return 1.0;
    }
    let eff_tile_m = (group.config.tile.0 * group.config.workgroup.0).max(1) as f64;
    let eff_tile_n = (group.config.tile.1 * group.config.workgroup.1).max(1) as f64;
    match &member.op {
        Op::MatMul { .. } => {
            let out = &graph.tensor(member.outputs[0]).shape;
            let rank = out.rank();
            let (m, n) = (out.dim(rank - 2) as f64, out.dim(rank - 1) as f64);
            // Does the counterpart operand fit?
            let other_idx = 1 - read.operand_idx.min(1);
            let other = &graph.tensor(member.inputs[other_idx]).shape;
            let other_fits = (other.numel() * elem) as f64 <= resident_bytes(&read.layout, device);
            if other_fits {
                1.0
            } else if read.operand_idx == 0 {
                (n / eff_tile_n).max(1.0)
            } else {
                (m / eff_tile_m).max(1.0)
            }
        }
        Op::Conv2d { groups: g, .. } => {
            let w = &graph.tensor(member.inputs[1]).shape;
            match read.operand_idx {
                0 => {
                    // x reused across output channels of its group.
                    let w_fits = (w.numel() * elem) as f64 <= resident_bytes(&read.layout, device);
                    if w_fits {
                        1.0
                    } else {
                        ((w.dim(0) / g).max(1) as f64 / 32.0).max(1.0)
                    }
                }
                1 => {
                    // weights reused across the spatial domain.
                    let out = &graph.tensor(member.outputs[0]).shape;
                    let spatial = (out.dim(2) * out.dim(3)) as f64;
                    (spatial / (eff_tile_m * eff_tile_n)).clamp(1.0, 8.0)
                }
                _ => 1.0,
            }
        }
        // Normalizations make two passes (statistics + apply).
        Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } => 2.0,
        _ => 1.0,
    }
}

/// Pull-back map of a retained transformation kernel's own operation.
pub(crate) fn own_pullback(graph: &Graph, group: &KernelGroup) -> Option<IndexMap> {
    let node = graph.node(group.anchor);
    if !is_eliminable(&node.op) {
        return None;
    }
    let in_dims = graph.tensor(node.inputs[0]).shape.dims().to_vec();
    let out_dims = graph.tensor(node.outputs[0]).shape.dims().to_vec();
    Some(op_pullback(&node.op, &in_dims, &out_dims, 0).simplify())
}

/// Analytic reads-per-output-point for an anchor operand.
fn per_point_reads(graph: &Graph, op: &Op, read: &EdgeRead, anchor_out: &Shape) -> f64 {
    let decl = &graph.tensor(read.logical).shape;
    match op {
        Op::Conv2d { .. } => match read.operand_idx {
            0 | 1 => {
                let member = graph.node(read.member);
                let w = &graph.tensor(member.inputs[1]).shape;
                (w.dim(1) * w.dim(2) * w.dim(3)) as f64
            }
            _ => 1.0,
        },
        Op::MatMul { trans_a, .. } => {
            let a = &graph.tensor(graph.node(read.member).inputs[0]).shape;
            let k = if *trans_a { a.dim(a.rank() - 2) } else { a.dim(a.rank() - 1) };
            k as f64
        }
        Op::LayerNorm { .. } | Op::InstanceNorm | Op::Softmax { .. } => 2.0,
        Op::Reduce { axes, .. } if read.operand_idx == 0 => {
            axes.iter().map(|&a| decl.dim(a) as f64).product()
        }
        Op::Pool2d { kernel, .. } => (kernel.0 * kernel.1) as f64,
        Op::Concat { axis } => {
            let out_extent = anchor_out.dim(*axis) as f64;
            decl.dim(*axis) as f64 / out_extent
        }
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Framework, SmartMemLevel, SmartMemPipeline};
    use smartmem_ir::{DType, GraphBuilder, UnaryKind};

    fn small_model() -> Graph {
        let mut b = GraphBuilder::new("small");
        let x = b.input("x", &[1, 32, 64], DType::F16);
        let w = b.weight("w", &[64, 64], DType::F16);
        let mm = b.matmul(x, w);
        let r = b.reshape(mm, &[1, 8, 4, 64]);
        let t = b.transpose(r, &[0, 2, 1, 3]);
        let g = b.unary(t, UnaryKind::Gelu);
        b.output(g);
        b.finish()
    }

    #[test]
    fn estimate_produces_positive_latency() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let r = opt.estimate(&device);
        assert!(r.latency_ms > 0.0);
        assert!(r.gmacs > 0.0);
        assert_eq!(r.kernel_count, opt.groups.len());
        assert!(r.peak_memory_bytes > 0);
    }

    #[test]
    fn smartmem_beats_unoptimized_levels() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap().estimate(&device);
        let base = SmartMemPipeline::at(SmartMemLevel::DnnFusion)
            .optimize(&g, &device)
            .unwrap()
            .estimate(&device);
        assert!(
            full.latency_ms < base.latency_ms,
            "full {} vs base {}",
            full.latency_ms,
            base.latency_ms
        );
    }

    #[test]
    fn transform_kernels_attributed_when_retained() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let base = SmartMemPipeline::at(SmartMemLevel::DnnFusion)
            .optimize(&g, &device)
            .unwrap()
            .estimate(&device);
        assert!(base.explicit_ms > 0.0, "retained reshape/transpose kernels must show up");
        let full = SmartMemPipeline::new().optimize(&g, &device).unwrap().estimate(&device);
        assert_eq!(full.explicit_ms, 0.0, "SmartMem eliminates the transforms");
    }

    #[test]
    fn dram_traffic_near_footprint_for_elementwise() {
        // A pure element-wise kernel on contiguous data should move
        // roughly in+out bytes, not orders of magnitude more.
        let mut b = GraphBuilder::new("ew");
        let x = b.input("x", &[1024, 1024], DType::F16);
        let y = b.unary(x, UnaryKind::Gelu);
        b.output(y);
        let g = b.finish();
        let device = DeviceConfig::snapdragon_8gen2();
        let opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        let r = opt.estimate(&device);
        let footprint = 2.0 * 1024.0 * 1024.0 * 2.0;
        assert!(
            (r.dram_bytes as f64) < 3.0 * footprint,
            "dram {} vs footprint {}",
            r.dram_bytes,
            footprint
        );
        assert!((r.dram_bytes as f64) >= footprint * 0.8);
    }

    #[test]
    fn peak_memory_pooled_below_unpooled() {
        let g = small_model();
        let device = DeviceConfig::snapdragon_8gen2();
        let mut opt = SmartMemPipeline::new().optimize(&g, &device).unwrap();
        opt.mem_model.pooled = true;
        let pooled = opt.peak_memory(&device);
        opt.mem_model.pooled = false;
        let unpooled = opt.peak_memory(&device);
        assert!(pooled <= unpooled);
    }
}
