//! Device configurations for the platforms evaluated in the paper.

use crate::cache::CacheConfig;
use crate::memory::{AfbcConfig, TextureTiling};
use smartmem_ir::DType;
use std::hash::{Hash, Hasher};

/// Memory-system capabilities of one execution platform.
///
/// Layout selection branches on *capabilities*, never on device names:
/// a new device is fully described by its `DeviceCaps` plus the scalar
/// constants in [`DeviceConfig`], and every capability combination the
/// optimizer supports is already handled. See the device-capability
/// table in `docs/ARCHITECTURE.md`.
#[derive(Clone, Copy, PartialEq, Hash, Debug)]
pub struct DeviceCaps {
    /// Whether the device exposes a performance-relevant 2.5D texture
    /// path for compute kernels (Adreno/Mali image reads). When false,
    /// layout selection only ever produces 1D buffer layouts.
    pub texture_path: bool,
    /// Lossless framebuffer compression on the texture path (Mali
    /// AFBC). `None` on devices without it — and on AFBC-capable
    /// devices with it toggled off for an A/B run.
    pub afbc: Option<AfbcConfig>,
    /// Whether host and device share one physical memory (mobile SoCs,
    /// Apple silicon, server NPUs with pooled DRAM). Discrete devices
    /// pay a host-link staging cost before a kernel can run.
    pub unified_memory: bool,
    /// Maximum texture extent per axis in texels; tensors whose
    /// placement exceeds it fall back to buffer layouts. Zero on
    /// devices without a texture path.
    pub max_texture_extent: u64,
}

impl DeviceCaps {
    /// A mobile GPU with a 2.5D texture path and unified memory
    /// (Adreno-class; Mali without AFBC).
    pub fn mobile_gpu() -> Self {
        DeviceCaps {
            texture_path: true,
            afbc: None,
            unified_memory: true,
            max_texture_extent: 16384,
        }
    }

    /// A Mali-class mobile GPU with AFBC on its texture path.
    pub fn mali_afbc() -> Self {
        DeviceCaps { afbc: Some(AfbcConfig::mali_default()), ..DeviceCaps::mobile_gpu() }
    }

    /// Unified memory without a performance-relevant texture path
    /// (Apple silicon under Metal compute).
    pub fn unified_no_texture() -> Self {
        DeviceCaps { texture_path: false, afbc: None, unified_memory: true, max_texture_extent: 0 }
    }

    /// A discrete GPU: no texture path in this model, host-link staging
    /// required (desktop comparison of Table 9).
    pub fn discrete_gpu() -> Self {
        DeviceCaps { texture_path: false, afbc: None, unified_memory: false, max_texture_extent: 0 }
    }

    /// A server-class NPU: no texture path, pooled/unified memory.
    pub fn server_npu() -> Self {
        DeviceCaps { texture_path: false, afbc: None, unified_memory: true, max_texture_extent: 0 }
    }

    /// Returns the capabilities with AFBC toggled on (the standard Mali
    /// configuration) or off — the A/B switch of the portability study.
    /// Toggling on is a no-op without a texture path: there is nothing
    /// for AFBC to compress.
    pub fn with_afbc(self, enabled: bool) -> Self {
        DeviceCaps { afbc: (enabled && self.texture_path).then(AfbcConfig::mali_default), ..self }
    }
}

/// Performance-relevant constants of one execution platform.
///
/// The mobile presets reproduce the published characteristics the paper
/// relies on (§4.1 and the §4.6 roofline: 55 GB/s global bandwidth,
/// 511 GB/s texture bandwidth and 2.0 TMACs/s peak on the Snapdragon
/// 8 Gen 2); the older SoCs are scaled from their public spec sheets.
/// Desktop GPUs expose no performance-relevant texture path in this
/// model (the paper's TorchInductor comparison explicitly excludes the
/// 2.5D-memory optimization). What the memory system *can do* lives in
/// [`DeviceCaps`]; this struct holds how fast it does it.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Peak multiply-accumulate throughput in tera-MACs/s at the
    /// evaluation precision.
    pub peak_tmacs: f64,
    /// Global (1D buffer) memory bandwidth in GB/s.
    pub global_bw_gbps: f64,
    /// Texture (2.5D) memory bandwidth in GB/s.
    pub texture_bw_gbps: f64,
    /// Memory-system capabilities (texture path, AFBC, unified memory).
    pub caps: DeviceCaps,
    /// Fixed per-kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
    /// Unified/device memory capacity in GiB (OOM threshold for Fig. 11).
    pub memory_gb: f64,
    /// Geometry of the (L2) data cache in front of global memory.
    pub buffer_cache: CacheConfig,
    /// Geometry of the dedicated texture cache.
    pub texture_cache: CacheConfig,
    /// 2-D tile shape of one texture-cache line.
    pub texture_tiling: TextureTiling,
    /// Effective throughput for scalar index arithmetic, in weighted
    /// index-ops per second (see `smartmem_index::ExprCost::weighted`).
    pub index_ops_per_sec: f64,
    /// Evaluation element type (`F16` on mobile, `F32` on desktop —
    /// §4.1).
    pub dtype: DType,
}

// The compile caches key on this hash (`f64` fields through `to_bits`);
// destructuring makes a new field a compile error here until it is
// hashed.
impl Hash for DeviceConfig {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let DeviceConfig {
            name,
            peak_tmacs,
            global_bw_gbps,
            texture_bw_gbps,
            caps,
            kernel_launch_us,
            memory_gb,
            buffer_cache,
            texture_cache,
            texture_tiling,
            index_ops_per_sec,
            dtype,
        } = self;
        name.hash(h);
        caps.hash(h);
        buffer_cache.hash(h);
        texture_cache.hash(h);
        texture_tiling.hash(h);
        dtype.hash(h);
        for x in [
            peak_tmacs,
            global_bw_gbps,
            texture_bw_gbps,
            kernel_launch_us,
            memory_gb,
            index_ops_per_sec,
        ] {
            x.to_bits().hash(h);
        }
    }
}

impl DeviceConfig {
    /// Snapdragon 8 Gen 2 (Adreno 740) — the paper's primary platform.
    pub fn snapdragon_8gen2() -> Self {
        DeviceConfig {
            name: "Snapdragon 8 Gen 2 (Adreno 740)".to_string(),
            peak_tmacs: 2.0,
            global_bw_gbps: 55.0,
            texture_bw_gbps: 511.0,
            caps: DeviceCaps::mobile_gpu(),
            kernel_launch_us: 100.0,
            memory_gb: 16.0,
            buffer_cache: CacheConfig { size_bytes: 1 << 20, line_bytes: 64, ways: 8 },
            texture_cache: CacheConfig { size_bytes: 128 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 2.5e11,
            dtype: DType::F16,
        }
    }

    /// Snapdragon 835 (Adreno 540) — older flagship used for the
    /// portability study (Fig. 11b).
    pub fn snapdragon_835() -> Self {
        DeviceConfig {
            name: "Snapdragon 835 (Adreno 540)".to_string(),
            peak_tmacs: 0.4,
            global_bw_gbps: 29.0,
            texture_bw_gbps: 190.0,
            caps: DeviceCaps::mobile_gpu(),
            kernel_launch_us: 130.0,
            memory_gb: 6.0,
            buffer_cache: CacheConfig { size_bytes: 512 << 10, line_bytes: 64, ways: 8 },
            texture_cache: CacheConfig { size_bytes: 64 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 0.8e11,
            dtype: DType::F16,
        }
    }

    /// MediaTek Dimensity 700 (Mali-G57) — the resource-constrained
    /// platform of Fig. 11a (4 GB unified memory).
    pub fn dimensity_700() -> Self {
        DeviceConfig {
            name: "Dimensity 700 (Mali-G57)".to_string(),
            peak_tmacs: 0.25,
            global_bw_gbps: 17.0,
            texture_bw_gbps: 100.0,
            caps: DeviceCaps::mobile_gpu(),
            kernel_launch_us: 160.0,
            memory_gb: 4.0,
            buffer_cache: CacheConfig { size_bytes: 512 << 10, line_bytes: 64, ways: 4 },
            texture_cache: CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 0.5e11,
            dtype: DType::F16,
        }
    }

    /// Mali-G710 MC10 (Dimensity 9000 / Tensor G2 class) with AFBC on
    /// its texture path.
    ///
    /// AFBC losslessly compresses texture-path traffic in 16×16
    /// superblocks (see [`AfbcConfig`]): effective texture bandwidth
    /// rises by [`AfbcConfig::bandwidth_gain`] — close to the payload
    /// compression ratio, minus the per-superblock metadata cost. A/B
    /// the feature with [`DeviceConfig::with_afbc`].
    pub fn mali_g710() -> Self {
        DeviceConfig {
            name: "Mali-G710 (AFBC)".to_string(),
            peak_tmacs: 0.95,
            global_bw_gbps: 60.0,
            texture_bw_gbps: 256.0,
            caps: DeviceCaps::mali_afbc(),
            kernel_launch_us: 90.0,
            memory_gb: 12.0,
            buffer_cache: CacheConfig { size_bytes: 2 << 20, line_bytes: 64, ways: 8 },
            texture_cache: CacheConfig { size_bytes: 64 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 1.2e11,
            dtype: DType::F16,
        }
    }

    /// Apple M1 (8-core GPU) — an Apple-class unified-memory platform.
    ///
    /// Metal exposes no performance-relevant 2.5D texture path for
    /// compute (no `__read_only image2d_t` fast path as on Adreno/Mali),
    /// so the texture capability is off and both bandwidth figures
    /// collapse to the unified-memory bandwidth (~68 GB/s on the base
    /// M1). Peak is ~2.6 TFLOPs FP32, evaluated here as ~1.3 TMACs at
    /// F16.
    pub fn apple_m1() -> Self {
        DeviceConfig {
            name: "Apple M1 (8-core GPU)".to_string(),
            peak_tmacs: 1.3,
            global_bw_gbps: 68.0,
            texture_bw_gbps: 68.0,
            caps: DeviceCaps::unified_no_texture(),
            kernel_launch_us: 30.0,
            memory_gb: 16.0,
            buffer_cache: CacheConfig { size_bytes: 8 << 20, line_bytes: 128, ways: 16 },
            texture_cache: CacheConfig { size_bytes: 128 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 1.6e11,
            dtype: DType::F16,
        }
    }

    /// A server-class inference NPU: two orders of magnitude more MACs
    /// than any mobile GPU, pooled high-bandwidth unified memory, wide
    /// (256-byte) memory lines, command-queue dispatch — and *no*
    /// texture path, so every layout decision lands on 1D buffers. Its
    /// latency profile differs from every mobile GPU in the pool: launch
    /// overhead is negligible, and kernels are compute-bound far later
    /// (the roofline ridge sits at a much higher intensity).
    pub fn server_npu() -> Self {
        DeviceConfig {
            name: "Server NPU (64 TMACs, HBM)".to_string(),
            peak_tmacs: 64.0,
            global_bw_gbps: 1200.0,
            texture_bw_gbps: 1200.0,
            caps: DeviceCaps::server_npu(),
            kernel_launch_us: 8.0,
            memory_gb: 64.0,
            buffer_cache: CacheConfig { size_bytes: 32 << 20, line_bytes: 256, ways: 16 },
            texture_cache: CacheConfig { size_bytes: 128 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 5.0e12,
            dtype: DType::F16,
        }
    }

    /// NVIDIA Tesla V100 in FP32 — the desktop comparison of Table 9.
    /// Texture memory is not used (the paper ports SmartMem to
    /// TorchInductor *excluding* the 2.5D layout optimization).
    pub fn tesla_v100() -> Self {
        DeviceConfig {
            name: "Tesla V100 (FP32)".to_string(),
            peak_tmacs: 7.0,
            global_bw_gbps: 900.0,
            texture_bw_gbps: 900.0,
            caps: DeviceCaps::discrete_gpu(),
            kernel_launch_us: 5.0,
            memory_gb: 16.0,
            buffer_cache: CacheConfig { size_bytes: 6 << 20, line_bytes: 128, ways: 16 },
            texture_cache: CacheConfig { size_bytes: 128 << 10, line_bytes: 64, ways: 4 },
            texture_tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            index_ops_per_sec: 2.0e12,
            dtype: DType::F32,
        }
    }

    /// Whether kernels may place tensors in texture memory.
    pub fn has_texture(&self) -> bool {
        self.caps.texture_path
    }

    /// The same device with AFBC toggled on or off — the A/B switch for
    /// the compressed-framebuffer study (see [`DeviceCaps::with_afbc`]).
    pub fn with_afbc(mut self, enabled: bool) -> Self {
        self.caps = self.caps.with_afbc(enabled);
        self
    }

    /// Stable machine-readable identifier derived from the name: the
    /// part before any parenthesized qualifier, lowercased, with
    /// non-alphanumeric runs collapsed to `_` (`"Mali-G710 (AFBC)"` →
    /// `"mali_g710"`). Bench JSON keys use this.
    pub fn slug(&self) -> String {
        let base = self.name.split('(').next().unwrap_or(&self.name);
        let mut slug = String::new();
        for c in base.trim().chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('_') {
                slug.push('_');
            }
        }
        slug.trim_matches('_').to_string()
    }

    /// Peak MACs per nanosecond.
    pub fn macs_per_ns(&self) -> f64 {
        self.peak_tmacs * 1e3
    }

    /// Raw DRAM bandwidth of the given memory class in bytes per
    /// nanosecond, before compression.
    pub fn bw_bytes_per_ns(&self, texture: bool) -> f64 {
        if texture {
            self.texture_bw_gbps
        } else {
            self.global_bw_gbps
        }
    }

    /// Effective bandwidth in *logical* bytes per nanosecond: raw DRAM
    /// bandwidth amplified by AFBC's compression gain on the texture
    /// path (compressed payload minus per-superblock metadata — see
    /// [`AfbcConfig::bandwidth_gain`]). Equal to
    /// [`DeviceConfig::bw_bytes_per_ns`] everywhere else.
    pub fn effective_bw_bytes_per_ns(&self, texture: bool) -> f64 {
        let raw = self.bw_bytes_per_ns(texture);
        match (texture, &self.caps.afbc) {
            (true, Some(afbc)) => raw * afbc.bandwidth_gain(self.dtype.size_bytes()),
            _ => raw,
        }
    }

    /// Memory capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.memory_gb * (1u64 << 30) as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_published_constants() {
        let d = DeviceConfig::snapdragon_8gen2();
        assert_eq!(d.global_bw_gbps, 55.0);
        assert_eq!(d.texture_bw_gbps, 511.0);
        assert_eq!(d.peak_tmacs, 2.0);
        assert!(d.has_texture());
        assert_eq!(d.dtype, DType::F16);
    }

    #[test]
    fn desktop_uses_fp32_without_texture() {
        let d = DeviceConfig::tesla_v100();
        assert!(!d.has_texture());
        assert!(!d.caps.unified_memory, "V100 is a discrete device");
        assert_eq!(d.dtype, DType::F32);
    }

    #[test]
    fn derived_units() {
        let d = DeviceConfig::snapdragon_8gen2();
        assert!((d.macs_per_ns() - 2000.0).abs() < 1e-9);
        assert!((d.bw_bytes_per_ns(false) - 55.0).abs() < 1e-9);
        assert!((d.bw_bytes_per_ns(true) - 511.0).abs() < 1e-9);
        // No AFBC: effective == raw.
        assert_eq!(d.effective_bw_bytes_per_ns(true), d.bw_bytes_per_ns(true));
        assert_eq!(d.memory_bytes(), 16 * (1u64 << 30));
    }

    #[test]
    fn apple_is_unified_memory_without_texture_path() {
        let d = DeviceConfig::apple_m1();
        assert!(!d.has_texture(), "Metal compute exposes no 2.5D texture fast path here");
        assert!(d.caps.unified_memory);
        assert_eq!(d.global_bw_gbps, d.texture_bw_gbps, "unified memory: one bandwidth");
        assert_eq!(d.dtype, DType::F16);
        // Mobile-class peak, desktop-class launch overhead ordering.
        let snap = DeviceConfig::snapdragon_8gen2();
        assert!(d.kernel_launch_us < snap.kernel_launch_us);
        assert!(d.global_bw_gbps > snap.global_bw_gbps);
    }

    #[test]
    fn older_socs_are_strictly_weaker() {
        let new = DeviceConfig::snapdragon_8gen2();
        for old in [DeviceConfig::snapdragon_835(), DeviceConfig::dimensity_700()] {
            assert!(old.peak_tmacs < new.peak_tmacs);
            assert!(old.global_bw_gbps < new.global_bw_gbps);
            assert!(old.memory_gb < new.memory_gb);
        }
    }

    #[test]
    fn mali_afbc_amplifies_texture_bandwidth_only() {
        let mali = DeviceConfig::mali_g710();
        assert!(mali.has_texture());
        assert!(mali.caps.afbc.is_some());
        assert!(mali.effective_bw_bytes_per_ns(true) > mali.bw_bytes_per_ns(true));
        assert_eq!(mali.effective_bw_bytes_per_ns(false), mali.bw_bytes_per_ns(false));
        // The A/B toggle removes exactly the amplification.
        let off = mali.clone().with_afbc(false);
        assert!(off.caps.afbc.is_none());
        assert_eq!(off.effective_bw_bytes_per_ns(true), off.bw_bytes_per_ns(true));
        // Toggling back on restores the standard configuration.
        let on = off.with_afbc(true);
        assert_eq!(on.caps, mali.caps);
    }

    #[test]
    fn afbc_toggle_is_inert_without_a_texture_path() {
        let npu = DeviceConfig::server_npu().with_afbc(true);
        assert!(npu.caps.afbc.is_none(), "AFBC needs a texture path to compress");
    }

    #[test]
    fn server_npu_is_a_different_latency_class() {
        let npu = DeviceConfig::server_npu();
        assert!(!npu.has_texture());
        assert!(npu.caps.unified_memory);
        for gpu in [
            DeviceConfig::snapdragon_8gen2(),
            DeviceConfig::snapdragon_835(),
            DeviceConfig::dimensity_700(),
            DeviceConfig::mali_g710(),
            DeviceConfig::apple_m1(),
        ] {
            assert!(npu.peak_tmacs > 10.0 * gpu.peak_tmacs);
            assert!(npu.kernel_launch_us < gpu.kernel_launch_us);
            assert!(npu.global_bw_gbps > gpu.global_bw_gbps);
            // The compute/memory crossover (ridge point) of each
            // device's serving path (texture where the capability
            // exists) sits at a far higher intensity on the NPU: what
            // is compute-bound on mobile is memory-bound here.
            let ridge = |d: &DeviceConfig| {
                d.macs_per_ns() / d.effective_bw_bytes_per_ns(d.caps.texture_path)
            };
            assert!(ridge(&npu) > 2.0 * ridge(&gpu), "{} ridge", gpu.name);
        }
        assert!(npu.buffer_cache.line_bytes >= 256, "NPU uses wide memory lines");
    }

    #[test]
    fn slugs_are_stable_identifiers() {
        assert_eq!(DeviceConfig::mali_g710().slug(), "mali_g710");
        assert_eq!(DeviceConfig::snapdragon_8gen2().slug(), "snapdragon_8_gen_2");
        assert_eq!(DeviceConfig::server_npu().slug(), "server_npu");
        assert_eq!(DeviceConfig::tesla_v100().slug(), "tesla_v100");
    }
}
