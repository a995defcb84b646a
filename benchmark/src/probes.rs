//! Single-threaded micro-probes of the leaf layers, each driven by a
//! seeded stream straight through the layer's public API. They record
//! what a call costs today, so a later change to a leaf has a "before".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_index::IndexMap;
use smartmem_ir::PhysicalAddress;
use smartmem_serve::{BatchItem, BatchKey, Batcher, DevicePool, Priority};
use smartmem_sim::{DeviceConfig, KernelProfile, MemorySim};
use smartmem_telemetry::{TraceId, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per iteration of `body` over `iterations` calls.
fn ns_per_call(iterations: usize, mut body: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iterations {
        body(i);
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

/// `sim.memory.ns_per_access`: a mixed linear/texel access stream over
/// 64 tensors through the 8 Gen 2 memory system.
pub fn memory_access_ns(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let stream: Vec<(u64, PhysicalAddress)> = (0..1 << 16)
        .map(|_| {
            let r = rng.next_u64();
            let base = (r >> 58) << 24;
            let addr = if r & 1 == 0 {
                PhysicalAddress::Linear((r >> 8) & 0xf_ffff)
            } else {
                PhysicalAddress::Texel { x: (r >> 8) & 0x3ff, y: (r >> 20) & 0x3ff, lane: 0 }
            };
            (base, addr)
        })
        .collect();
    let mut memory = MemorySim::new(&DeviceConfig::snapdragon_8gen2());
    ns_per_call(1 << 21, |i| {
        let (base, addr) = stream[i & (stream.len() - 1)];
        black_box(memory.access(base, addr, 2));
    })
}

/// `sim.kernel_cost.ns_per_call`: seeded kernel profiles through the
/// roofline cost model.
pub fn kernel_cost_ns(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles: Vec<KernelProfile> = (0..1 << 12)
        .map(|_| KernelProfile {
            macs: rng.random_range(1_000u64..1_000_000_000),
            alu_ops: rng.random_range(0u64..10_000_000) as f64,
            dram_bytes_buffer: rng.random_range(0u64..50_000_000),
            dram_bytes_texture: rng.random_range(0u64..50_000_000),
            index_ops: rng.random_range(0u64..1_000_000) as f64,
            utilization: rng.random_range(2u32..95) as f64 / 100.0,
        })
        .collect();
    let device = DeviceConfig::snapdragon_8gen2();
    ns_per_call(1 << 21, |i| {
        black_box(device.kernel_cost(black_box(&profiles[i & (profiles.len() - 1)])));
    })
}

/// `index.compose_simplify.us_per_map`: seeded
/// transpose ∘ reshape ∘ transpose chains composed with `IndexMap::then`
/// and strength-reduced with `simplify` — the work LTE does per
/// eliminated chain.
pub fn compose_simplify_us(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let chains = 512;
    let shapes: Vec<[usize; 4]> = (0..chains)
        .map(|_| {
            let mut dim = || 1usize << rng.random_range(1u32..5);
            [dim(), dim(), dim(), dim()]
        })
        .collect();
    let ns = ns_per_call(chains, |i| {
        let [a, b, c, d] = shapes[i];
        let swap_inner = IndexMap::transpose(&[a, b, c, d], &[0, 1, 3, 2]);
        let merge = IndexMap::reshape(&[a, b, d, c], &[a * b, d * c]);
        let flip = IndexMap::transpose(&[a * b, d * c], &[1, 0]);
        black_box(swap_inner.then(&merge).then(&flip).simplify());
    });
    ns / 1e3
}

/// A queued item for the batcher probe (`BatchItem` is the serve crate's
/// trait, so it needs a local type to hang on).
struct Item {
    deadline: Instant,
}

impl BatchItem for Item {
    fn deadline(&self) -> Instant {
        self.deadline
    }

    fn est_ns(&self) -> f64 {
        1e6
    }
}

/// `serve.batcher.push_ns` and `serve.batcher.pull_ns`: seeded
/// (model, device) keys pushed into the pure batcher state machine, then
/// every device pulled dry.
pub fn batcher_ns(seed: u64) -> (f64, f64) {
    const ITEMS: usize = 1 << 15;
    const DEVICES: usize = 6;
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<BatchKey> = (0..ITEMS)
        .map(|_| BatchKey { model: rng.random_range(0..10), device: rng.random_range(0..DEVICES) })
        .collect();
    let now = Instant::now();
    let deadline = now + Duration::from_millis(25);
    let mut batcher: Batcher<Item> = Batcher::new(8, Duration::ZERO);
    let push_ns = ns_per_call(ITEMS, |i| {
        let pushed = batcher.push(keys[i], Item { deadline }, now);
        assert!(pushed.is_ok(), "no device is dead");
    });
    let start = Instant::now();
    let mut pulls = 0usize;
    for device in 0..DEVICES {
        while let Some(cut) = batcher.pull(device, now) {
            black_box(cut);
            pulls += 1;
        }
    }
    assert_eq!(batcher.pending(), 0, "every pushed item was pulled");
    (push_ns, start.elapsed().as_nanos() as f64 / pulls as f64)
}

/// `serve.scheduler.place_ns`: seeded per-device estimate rows placed on
/// the six-device pool, each charge paid back at once.
pub fn place_ns(seed: u64, devices: Vec<DeviceConfig>) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = devices.len();
    let rows: Vec<Vec<f64>> = (0..1 << 10)
        .map(|_| (0..count).map(|_| rng.random_range(1_000_000u64..80_000_000) as f64).collect())
        .collect();
    let pool = DevicePool::new(devices);
    ns_per_call(1 << 20, |i| {
        let class = Priority::ALL[i % 3];
        let (device, charged) = pool.place(&rows[i & (rows.len() - 1)], class);
        pool.discharge(device, charged, class);
    })
}

/// `telemetry.span_ns`: one `Tracer::span` guard created and dropped on
/// a recording tracer.
pub fn span_ns() -> f64 {
    let tracer = Tracer::new(1 << 10, 1);
    ns_per_call(1 << 18, |_| {
        black_box(tracer.span("probe", "benchmark", TraceId::NONE));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        assert!(memory_access_ns(1) > 0.0);
        assert!(kernel_cost_ns(1) > 0.0);
        assert!(compose_simplify_us(1) > 0.0);
        let (push, pull) = batcher_ns(1);
        assert!(push > 0.0 && pull > 0.0);
        assert!(place_ns(1, crate::inputs::serve_devices()) > 0.0);
        assert!(span_ns() > 0.0);
    }
}
