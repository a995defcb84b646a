//! Memory-system simulation: routing element accesses through the
//! buffer or texture cache and collecting perf counters.

use crate::cache::CacheSim;
use crate::device::DeviceConfig;
use smartmem_ir::PhysicalAddress;
use std::hash::{Hash, Hasher};

/// Arm Frame Buffer Compression on the texture path (Mali GPUs).
///
/// AFBC losslessly compresses texel data in superblock granules: each
/// superblock stores a small header (payload pointer + solid-color
/// flags) plus a variable-length compressed payload. For the bandwidth
/// model this means texture-path DRAM traffic shrinks by the payload
/// compression ratio but *gains* a fixed per-superblock metadata cost —
/// the two effects are folded into one effective-bandwidth multiplier
/// by [`AfbcConfig::bandwidth_gain`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AfbcConfig {
    /// Mean lossless compression ratio achieved on texel payload
    /// (`>= 1.0`; ~1.5–2.0 for activation-like data).
    pub compression_ratio: f64,
    /// Superblock edge in texels (16 for the standard 16×16 AFBC
    /// superblock).
    pub superblock_texels: u64,
    /// Header bytes read/written per superblock.
    pub metadata_bytes: u64,
}

impl AfbcConfig {
    /// The 16×16-superblock, 16-byte-header configuration Mali GPUs
    /// ship, at a conservative 1.8× payload compression ratio.
    pub fn mali_default() -> Self {
        AfbcConfig { compression_ratio: 1.8, superblock_texels: 16, metadata_bytes: 16 }
    }

    /// Uncompressed payload bytes of one superblock of `vec4` texels.
    pub fn superblock_payload_bytes(&self, elem_bytes: u64) -> f64 {
        (self.superblock_texels * self.superblock_texels * 4 * elem_bytes).max(1) as f64
    }

    /// DRAM bytes actually moved for `payload_bytes` of logical texel
    /// traffic: compressed payload plus per-superblock metadata.
    pub fn dram_bytes(&self, payload_bytes: f64, elem_bytes: u64) -> f64 {
        let ratio = self.compression_ratio.max(1.0);
        let payload = self.superblock_payload_bytes(elem_bytes);
        payload_bytes / ratio + (payload_bytes / payload) * self.metadata_bytes as f64
    }

    /// Effective texture-bandwidth multiplier: logical bytes served per
    /// DRAM byte moved. `> 1` whenever compression outweighs the
    /// metadata overhead; monotonically increasing in
    /// [`AfbcConfig::compression_ratio`].
    pub fn bandwidth_gain(&self, elem_bytes: u64) -> f64 {
        let ratio = self.compression_ratio.max(1.0);
        let meta_fraction = self.metadata_bytes as f64 / self.superblock_payload_bytes(elem_bytes);
        1.0 / (1.0 / ratio + meta_fraction)
    }
}

// `f64` fields hash through `to_bits`; destructuring makes a new field
// a compile error here until it is hashed.
impl Hash for AfbcConfig {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let AfbcConfig { compression_ratio, superblock_texels, metadata_bytes } = *self;
        compression_ratio.to_bits().hash(h);
        superblock_texels.hash(h);
        metadata_bytes.hash(h);
    }
}

/// 2-D tile shape (in texels) of one texture-cache line.
///
/// Texture caches exploit 2-D spatial locality (Table 2): a line holds a
/// small rectangle of texels rather than a 1-D run, so accesses along
/// *either* axis of the texture hit the same line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TextureTiling {
    /// Tile width in texels.
    pub tile_w: u64,
    /// Tile height in texels.
    pub tile_h: u64,
}

/// Aggregated memory-system counters.
///
/// `accesses` counts element requests issued by kernels; `misses`
/// counts cache lines fetched from DRAM. These are the two quantities
/// compared in Figs. 7 and 9 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemCounters {
    /// Element requests to the buffer path.
    pub buffer_accesses: u64,
    /// Buffer-cache misses.
    pub buffer_misses: u64,
    /// Element requests to the texture path.
    pub texture_accesses: u64,
    /// Texture-cache misses.
    pub texture_misses: u64,
}

impl MemCounters {
    /// Total element requests.
    pub fn accesses(&self) -> u64 {
        self.buffer_accesses + self.texture_accesses
    }

    /// Total cache misses.
    pub fn misses(&self) -> u64 {
        self.buffer_misses + self.texture_misses
    }

    /// Component-wise sum.
    pub fn combine(self, o: MemCounters) -> MemCounters {
        MemCounters {
            buffer_accesses: self.buffer_accesses + o.buffer_accesses,
            buffer_misses: self.buffer_misses + o.buffer_misses,
            texture_accesses: self.texture_accesses + o.texture_accesses,
            texture_misses: self.texture_misses + o.texture_misses,
        }
    }
}

/// One device's memory system: a buffer cache plus a texture cache.
///
/// Tensors are distinguished by a caller-provided `tensor_base` (a fake
/// allocation address) so different tensors do not alias.
#[derive(Clone, Debug)]
pub struct MemorySim {
    buffer_cache: CacheSim,
    texture_cache: CacheSim,
    tiling: TextureTiling,
    buffer_line: u64,
}

impl MemorySim {
    /// Builds the memory system of `device`.
    pub fn new(device: &DeviceConfig) -> Self {
        MemorySim {
            buffer_cache: CacheSim::new(device.buffer_cache),
            texture_cache: CacheSim::new(device.texture_cache),
            tiling: device.texture_tiling,
            buffer_line: device.buffer_cache.line_bytes as u64,
        }
    }

    /// Routes one element access; returns `true` on cache hit.
    ///
    /// `tensor_base` is the tensor's allocation base: a byte address for
    /// buffer tensors, an opaque region id for texture tensors.
    /// `elem_bytes` is the element size (buffer addresses are scaled by
    /// it).
    pub fn access(&mut self, tensor_base: u64, addr: PhysicalAddress, elem_bytes: u64) -> bool {
        match addr {
            PhysicalAddress::Linear(off) => {
                let byte = tensor_base + off * elem_bytes;
                self.buffer_cache.access(byte / self.buffer_line)
            }
            PhysicalAddress::Texel { x, y, .. } => {
                let tx = x / self.tiling.tile_w;
                let ty = y / self.tiling.tile_h;
                // Interleave tile coordinates with the region id into one
                // line key; 21 bits per component keeps keys unique for
                // any realistic texture extent.
                let key = (tensor_base << 42) ^ (ty << 21) ^ tx;
                self.texture_cache.access(key)
            }
        }
    }

    /// Current counters.
    pub fn counters(&self) -> MemCounters {
        MemCounters {
            buffer_accesses: self.buffer_cache.accesses(),
            buffer_misses: self.buffer_cache.misses(),
            texture_accesses: self.texture_cache.accesses(),
            texture_misses: self.texture_cache.misses(),
        }
    }

    /// Miss ratio of the buffer cache.
    pub fn buffer_miss_ratio(&self) -> f64 {
        self.buffer_cache.miss_ratio()
    }

    /// Clears caches and counters.
    pub fn reset(&mut self) {
        self.buffer_cache.reset();
        self.texture_cache.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn sim() -> MemorySim {
        let cache = CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 4 };
        MemorySim {
            buffer_cache: CacheSim::new(cache),
            texture_cache: CacheSim::new(cache),
            tiling: TextureTiling { tile_w: 4, tile_h: 2 },
            buffer_line: 64,
        }
    }

    #[test]
    fn sequential_buffer_access_mostly_hits() {
        let mut m = sim();
        // 512 f16 elements = 1 KiB = 16 lines: 16 misses, 496 hits.
        for i in 0..512u64 {
            m.access(0, PhysicalAddress::Linear(i), 2);
        }
        let c = m.counters();
        assert_eq!(c.buffer_accesses, 512);
        assert_eq!(c.buffer_misses, 16);
    }

    #[test]
    fn strided_buffer_access_misses_more() {
        let mut m = sim();
        // Stride of 64 elements x 2 bytes = 128 bytes: every access a
        // new line; with 4 KiB capacity and 512 distinct lines, all miss.
        for i in 0..512u64 {
            m.access(0, PhysicalAddress::Linear(i * 64), 2);
        }
        assert_eq!(m.counters().buffer_misses, 512);
        assert!(m.buffer_miss_ratio() > 0.99);
    }

    #[test]
    fn texture_tile_locality_works_both_axes() {
        let mut m = sim();
        // Walk down a column of texels: tiles are 4x2, so every other
        // access starts a new tile -> ~50% miss, far better than 1-D
        // lines would do for a column walk.
        for y in 0..64u64 {
            m.access(1, PhysicalAddress::Texel { x: 0, y, lane: 0 }, 8);
        }
        let c = m.counters();
        assert_eq!(c.texture_accesses, 64);
        assert_eq!(c.texture_misses, 32);
    }

    #[test]
    fn texture_row_walk_hits_within_tiles() {
        let mut m = sim();
        for x in 0..64u64 {
            m.access(1, PhysicalAddress::Texel { x, y: 0, lane: 0 }, 8);
        }
        let c = m.counters();
        assert_eq!(c.texture_misses, 16); // one per 4-texel-wide tile
    }

    #[test]
    fn distinct_tensors_do_not_alias() {
        let mut m = sim();
        m.access(10, PhysicalAddress::Texel { x: 0, y: 0, lane: 0 }, 8);
        let hit = m.access(11, PhysicalAddress::Texel { x: 0, y: 0, lane: 0 }, 8);
        assert!(!hit, "different tensor regions must not alias in the cache");
    }

    #[test]
    fn afbc_compression_outweighs_metadata() {
        let afbc = AfbcConfig::mali_default();
        // 16x16 vec4 f16 superblock = 2048 payload bytes, 16 metadata
        // bytes: the gain stays close to the raw compression ratio.
        let gain = afbc.bandwidth_gain(2);
        assert!(gain > 1.5 && gain < afbc.compression_ratio, "gain {gain}");
        // Moving 1 MiB of texels costs payload/1.8 + metadata.
        let bytes = afbc.dram_bytes((1 << 20) as f64, 2);
        assert!(bytes < (1 << 20) as f64);
        assert!((bytes - ((1 << 20) as f64 / gain)).abs() < 1e-6);
    }

    #[test]
    fn afbc_more_compression_never_more_traffic() {
        let mut prev = f64::INFINITY;
        for ratio in [1.0, 1.2, 1.8, 2.5, 4.0] {
            let afbc = AfbcConfig { compression_ratio: ratio, ..AfbcConfig::mali_default() };
            let bytes = afbc.dram_bytes(1e6, 2);
            assert!(bytes <= prev, "ratio {ratio} raised traffic {bytes} > {prev}");
            prev = bytes;
        }
    }

    #[test]
    fn counters_combine() {
        let a = MemCounters {
            buffer_accesses: 1,
            buffer_misses: 1,
            texture_accesses: 2,
            texture_misses: 0,
        };
        let b = MemCounters {
            buffer_accesses: 3,
            buffer_misses: 0,
            texture_accesses: 1,
            texture_misses: 1,
        };
        let c = a.combine(b);
        assert_eq!(c.accesses(), 7);
        assert_eq!(c.misses(), 2);
    }
}
