//! The per-kernel latency model.
//!
//! One (possibly fused) operator executes as one GPU kernel. Its latency
//! is modeled as
//!
//! ```text
//! total = launch + max(compute, memory) + index_overhead
//! ```
//!
//! * `launch` — fixed per-kernel dispatch overhead. This is why reducing
//!   the operator count (fusion + elimination, Table 7) matters on
//!   mobile GPUs.
//! * `compute` — MAC and ALU work at the device's peak throughput scaled
//!   by the kernel's achieved utilization (set by the auto-tuner).
//! * `memory` — DRAM traffic (from *simulated* cache misses plus write
//!   traffic) at the bandwidth of the memory class that served it.
//! * `index_overhead` — strength-reduced index arithmetic executed per
//!   accessed element when an eliminated layout chain is folded into the
//!   kernel (§3.2.1).

use crate::device::DeviceConfig;

/// Which Table 1 latency bucket a kernel belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LatencyClass {
    /// Real computation.
    Compute,
    /// Model-authored layout transformation executed as a kernel.
    ExplicitTransform,
    /// Framework-inserted relayout executed as a kernel.
    ImplicitTransform,
}

smartmem_ir::wire_enum!(LatencyClass {
    0 => Compute {},
    1 => ExplicitTransform {},
    2 => ImplicitTransform {},
});

/// Work description of one kernel, produced by the graph estimators.
#[derive(Clone, Copy, Debug)]
pub struct KernelProfile {
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Non-MAC ALU operations (activations, normalization arithmetic).
    pub alu_ops: f64,
    /// Bytes moved between DRAM and the buffer cache (read misses ×
    /// line size + uncached writes).
    pub dram_bytes_buffer: u64,
    /// Bytes moved between DRAM and the texture cache.
    pub dram_bytes_texture: u64,
    /// Total weighted index-arithmetic operations executed
    /// (`ExprCost::weighted` × accessed elements).
    pub index_ops: f64,
    /// Achieved fraction of peak compute throughput in `(0, 1]`.
    pub utilization: f64,
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile {
            macs: 0,
            alu_ops: 0.0,
            dram_bytes_buffer: 0,
            dram_bytes_texture: 0,
            index_ops: 0.0,
            utilization: 0.5,
        }
    }
}

/// Latency decomposition of one kernel in nanoseconds.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OpCost {
    /// Dispatch overhead.
    pub launch_ns: f64,
    /// ALU/MAC time.
    pub compute_ns: f64,
    /// DRAM transfer time.
    pub memory_ns: f64,
    /// Index-arithmetic overhead.
    pub index_ns: f64,
}

impl OpCost {
    /// Total kernel latency: `launch + max(compute, memory)`.
    ///
    /// Index arithmetic is ALU work executed by the same threads that
    /// issue the loads, so it contributes to the *compute* side of the
    /// roofline (`compute_ns` already includes `index_ns`) rather than
    /// serializing after the kernel.
    pub fn total_ns(&self) -> f64 {
        self.launch_ns + self.compute_ns.max(self.memory_ns)
    }

    /// Whether the kernel is memory-bound.
    pub fn memory_bound(&self) -> bool {
        self.memory_ns > self.compute_ns
    }
}

impl DeviceConfig {
    /// Evaluates the latency model for one kernel.
    ///
    /// A kernel's achieved *bandwidth* correlates with its code quality
    /// just like its ALU utilization does: an unvectorized, uncoalesced
    /// relayout kernel does not stream at peak bandwidth. Achieved
    /// bandwidth saturates once utilization reaches ~0.25 of peak MACs
    /// (a well-shaped kernel) and degrades linearly below that, to a
    /// floor of 15%. Texture-path traffic is served at the *effective*
    /// bandwidth, which folds in AFBC's compression gain (and its
    /// per-superblock metadata cost) on devices that have it.
    pub fn kernel_cost(&self, p: &KernelProfile) -> OpCost {
        let util = p.utilization.clamp(0.02, 0.95);
        let index_ns = p.index_ops / (self.index_ops_per_sec * 1e-9);
        let compute_ns = (p.macs as f64 + p.alu_ops) / (self.macs_per_ns() * util) + index_ns;
        let mem_eff = (util / 0.25).clamp(0.15, 1.0);
        let memory_ns = (p.dram_bytes_buffer as f64 / self.effective_bw_bytes_per_ns(false)
            + p.dram_bytes_texture as f64 / self.effective_bw_bytes_per_ns(true))
            / mem_eff;
        OpCost { launch_ns: self.kernel_launch_us * 1e3, compute_ns, memory_ns, index_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::snapdragon_8gen2()
    }

    #[test]
    fn compute_bound_kernel() {
        // 1 GMAC at 50% utilization on a 2 TMACs device: 1e9/(2000*0.5) ns = 1 ms.
        let p = KernelProfile { macs: 1_000_000_000, utilization: 0.5, ..Default::default() };
        let c = dev().kernel_cost(&p);
        assert!((c.compute_ns - 1.0e6).abs() / 1.0e6 < 1e-9);
        assert!(!c.memory_bound());
        assert!(c.total_ns() > c.compute_ns); // launch adds on top
    }

    #[test]
    fn memory_bound_kernel() {
        // 55 MB from global memory at 55 GB/s = 1 ms at full bandwidth
        // efficiency; at utilization 1.0 the kernel achieves peak.
        let p = KernelProfile {
            macs: 1000,
            dram_bytes_buffer: 55_000_000,
            utilization: 1.0,
            ..Default::default()
        };
        let c = dev().kernel_cost(&p);
        assert!(c.memory_bound());
        // util >= 0.25 saturates bandwidth efficiency at 1.0.
        assert!((c.memory_ns - 1.0e6).abs() / 1.0e6 < 1e-9);
    }

    #[test]
    fn poor_kernels_achieve_less_bandwidth() {
        let good =
            KernelProfile { dram_bytes_buffer: 1 << 20, utilization: 0.9, ..Default::default() };
        let bad =
            KernelProfile { dram_bytes_buffer: 1 << 20, utilization: 0.05, ..Default::default() };
        let d = dev();
        let ratio = d.kernel_cost(&bad).memory_ns / d.kernel_cost(&good).memory_ns;
        // util 0.05 -> mem_eff 0.2; util 0.9 -> mem_eff 1.0.
        assert!(ratio > 4.0 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn texture_bandwidth_is_higher() {
        let from_buffer = KernelProfile { dram_bytes_buffer: 1 << 20, ..Default::default() };
        let from_texture = KernelProfile { dram_bytes_texture: 1 << 20, ..Default::default() };
        let d = dev();
        let b = d.kernel_cost(&from_buffer).memory_ns;
        let t = d.kernel_cost(&from_texture).memory_ns;
        // 511 / 55 ≈ 9.3x faster.
        assert!(b / t > 9.0 && b / t < 10.0, "ratio {}", b / t);
    }

    #[test]
    fn index_overhead_contributes_to_compute() {
        let p = KernelProfile { index_ops: 2.5e8, ..Default::default() };
        let c = dev().kernel_cost(&p);
        // 2.5e8 ops at 2.5e11 ops/s = 1 ms.
        assert!((c.index_ns - 1.0e6).abs() / 1.0e6 < 1e-9);
        assert!(c.compute_ns >= c.index_ns);
        assert!(c.total_ns() >= c.launch_ns + c.index_ns);
    }

    #[test]
    fn utilization_is_clamped() {
        let p = KernelProfile { macs: 1_000_000, utilization: 7.0, ..Default::default() };
        let clamped = KernelProfile { macs: 1_000_000, utilization: 0.95, ..Default::default() };
        assert_eq!(dev().kernel_cost(&p).compute_ns, dev().kernel_cost(&clamped).compute_ns);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let p = KernelProfile { macs: 100, ..Default::default() };
        let c = dev().kernel_cost(&p);
        assert!(c.launch_ns / c.total_ns() > 0.99);
    }
}
