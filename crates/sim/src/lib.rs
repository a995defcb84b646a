//! # smartmem-sim
//!
//! A trace-driven performance model of the mobile GPUs the SmartMem
//! paper evaluates on. The paper measures real hardware (Snapdragon
//! 8 Gen 2 / 835, Dimensity 700, Tesla V100); this crate substitutes a
//! simulator that models exactly the quantities the paper's analysis
//! depends on:
//!
//! * **two memory classes** (Table 2): pointer-addressed 1D buffer
//!   (global) memory behind a set-associative cache, and 2.5D texture
//!   memory (2D grid of `vec4` texels) behind a dedicated cache with 2D
//!   tile lines;
//! * **per-device constants** ([`DeviceConfig`]): peak MAC throughput,
//!   global/texture bandwidth (55 / 511 GB/s on the 8 Gen 2 — §4.6),
//!   kernel-launch overhead and memory capacity;
//! * **a capability descriptor** ([`DeviceCaps`]): texture path
//!   present, AFBC framebuffer compression ([`AfbcConfig`]), unified
//!   memory — the optimizer branches on these capabilities, never on
//!   device names, so new platforms slot in without optimizer changes;
//! * **a kernel cost model** ([`DeviceConfig::kernel_cost`]):
//!   `latency = launch + max(compute, memory) + index-overhead`, with
//!   memory time derived from *measured* cache misses on sampled access
//!   streams, not asserted constants;
//! * **perf counters** ([`MemCounters`]) for the memory-access and
//!   cache-miss comparisons of Figs. 7 and 9.
//!
//! # Example
//!
//! ```
//! use smartmem_sim::{CacheConfig, CacheSim};
//!
//! let mut cache = CacheSim::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 4 });
//! assert!(!cache.access(0));  // cold miss
//! assert!(cache.access(0));   // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cost;
mod device;
mod fault;
mod memory;
mod roofline;

pub use cache::{CacheConfig, CacheSim};
pub use cost::{KernelProfile, LatencyClass, OpCost};
pub use device::{DeviceCaps, DeviceConfig};
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use memory::{AfbcConfig, MemCounters, MemorySim, TextureTiling};
pub use roofline::roofline_gmacs;
