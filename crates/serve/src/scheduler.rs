//! Latency-estimate-driven placement across the device pool.
//!
//! Placement must be cheap (it runs on the submission path, before the
//! model is ever compiled), so it uses the simulator's *roofline* bound
//! — `min(peak, bandwidth × intensity)` from `smartmem_sim` — rather
//! than a full compile + trace estimate: enough signal to route a
//! SD-UNet away from a Dimensity 700 while keeping the fast path to a
//! few atomic reads. Each device carries an outstanding-work account in
//! estimated nanoseconds, split by [`Priority`] class; a request is
//! placed on the device minimizing `outstanding + estimate(model,
//! device)` — i.e. earliest estimated completion, which is what
//! maximizes the slack left to meet the request's class deadline — and
//! the account is settled when the request completes or is cancelled.
//!
//! Placement picks the *device*; the *order* in which queued work is
//! cut for a device is the batcher's slack ordering (see
//! `crate::batcher`). Together they replace the old pure-FIFO dispatch.

use crate::request::{ModelSpec, Priority};
use smartmem_sim::{roofline_gmacs, DeviceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Conservative achieved fraction of the roofline bound (kernels do not
/// run at peak; the tuner typically lands around half).
const ACHIEVED_FRACTION: f64 = 0.5;

/// Host-link bandwidth (bytes/ns ≡ GB/s) for staging model data onto a
/// device *without* unified memory (PCIe 4.0 x16 class). Unified-memory
/// devices — every mobile SoC, Apple silicon, server NPUs with pooled
/// DRAM — share one address space and stage nothing.
const HOST_LINK_BYTES_PER_NS: f64 = 32.0;

/// Roofline-based latency estimate of one inference in nanoseconds —
/// no compilation required. Branches only on device *capabilities*:
/// the texture path raises the bandwidth roof where present, and
/// discrete (non-unified-memory) devices pay a host-link staging cost
/// on top of the kernel time.
pub fn quick_estimate_ns(spec: &ModelSpec, device: &DeviceConfig) -> f64 {
    let intensity = spec.macs as f64 / spec.bytes.max(1) as f64;
    // GMACs/s ≡ MACs/ns, so time = MACs / roofline.
    let roof = roofline_gmacs(device, intensity, device.caps.texture_path).max(1e-6);
    let work_ns = spec.macs as f64 / (roof * ACHIEVED_FRACTION);
    let launch_ns = spec.kernels_hint as f64 * device.kernel_launch_us * 1e3;
    let staging_ns =
        if device.caps.unified_memory { 0.0 } else { spec.bytes as f64 / HOST_LINK_BYTES_PER_NS };
    work_ns + launch_ns + staging_ns
}

struct DeviceEntry {
    config: DeviceConfig,
    load_ns: AtomicU64,
    class_load_ns: [AtomicU64; 3],
    /// Cleared when the device dies (injected fault or operator
    /// retirement): dead devices are skipped by placement.
    alive: AtomicBool,
}

/// The scheduler's device pool: configurations plus an outstanding-work
/// account per device, broken down by priority class. Thread-safe.
///
/// Admission calls [`DevicePool::place`] with per-device latency
/// estimates and the request's class; the pool picks the device
/// minimizing *outstanding work + this request's estimate* and charges
/// it. Completion or cancellation pays the charge back via
/// [`DevicePool::discharge`], so the accounts track work that is
/// genuinely still queued — and [`DevicePool::class_load_ns`] shows
/// which class the backlog belongs to.
pub struct DevicePool {
    entries: Vec<DeviceEntry>,
}

impl DevicePool {
    /// Pool over the given device configurations.
    pub fn new(devices: Vec<DeviceConfig>) -> Self {
        DevicePool {
            entries: devices
                .into_iter()
                .map(|config| DeviceEntry {
                    config,
                    load_ns: AtomicU64::new(0),
                    class_load_ns: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                    alive: AtomicBool::new(true),
                })
                .collect(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Device configuration by id.
    pub fn device(&self, id: usize) -> &DeviceConfig {
        &self.entries[id].config
    }

    /// Outstanding estimated work on a device, in nanoseconds, over all
    /// classes.
    pub fn load_ns(&self, id: usize) -> u64 {
        self.entries[id].load_ns.load(Ordering::Relaxed)
    }

    /// Outstanding estimated work one priority class has queued on a
    /// device, in nanoseconds.
    pub fn class_load_ns(&self, id: usize, class: Priority) -> u64 {
        self.entries[id].class_load_ns[class.index()].load(Ordering::Relaxed)
    }

    /// Whether a device is alive (placeable).
    pub fn is_alive(&self, id: usize) -> bool {
        self.entries[id].alive.load(Ordering::Relaxed)
    }

    /// Marks a device dead so placement skips it. Returns whether the
    /// call transitioned it (false if already dead). The pool itself
    /// allows killing every device — the *server* enforces keeping at
    /// least one alive, because only it knows whether a kill is an
    /// injected fault (suppressible) or an operator order.
    pub fn mark_dead(&self, id: usize) -> bool {
        self.entries[id].alive.swap(false, Ordering::Relaxed)
    }

    /// Number of alive devices.
    pub fn alive_count(&self) -> usize {
        self.entries.iter().filter(|e| e.alive.load(Ordering::Relaxed)).count()
    }

    /// Ids of the currently dead devices, ascending.
    pub fn dead_devices(&self) -> Vec<usize> {
        (0..self.entries.len()).filter(|&i| !self.is_alive(i)).collect()
    }

    /// The device with the earliest estimated completion (outstanding
    /// work + estimate), as `(id, estimate, completion)`. Dead devices
    /// are skipped; with every device dead (the server never lets
    /// injected faults get there, but an operator might) the alive
    /// flags are ignored rather than stranding the request.
    fn earliest(&self, estimates_ns: &[f64]) -> (usize, f64, f64) {
        assert_eq!(estimates_ns.len(), self.entries.len(), "one estimate per device");
        let candidate = |alive_only: bool| {
            self.entries
                .iter()
                .zip(estimates_ns)
                .enumerate()
                .filter(|(_, (e, _))| !alive_only || e.alive.load(Ordering::Relaxed))
                .map(|(i, (e, &est))| (i, est, e.load_ns.load(Ordering::Relaxed) as f64 + est))
                .min_by(|a, b| a.2.total_cmp(&b.2))
        };
        candidate(true).or_else(|| candidate(false)).expect("device pool must not be empty")
    }

    /// Best (smallest) estimated completion time across *alive*
    /// devices: `min(outstanding + estimate)` — the admission-control
    /// slack probe. Falls back to all devices when none is alive.
    pub fn best_completion_ns(&self, estimates_ns: &[f64]) -> f64 {
        self.earliest(estimates_ns).2
    }

    /// Places one inference: picks the device minimizing estimated
    /// completion time (outstanding work + this model's estimate) —
    /// maximizing the slack left under the request's class deadline —
    /// and charges the estimate to its account under `class`. Returns
    /// `(device id, charged estimate in ns)`; settle with
    /// [`DevicePool::discharge`] when the request completes or is
    /// cancelled.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool.
    pub fn place(&self, estimates_ns: &[f64], class: Priority) -> (usize, u64) {
        let (best, est, _) = self.earliest(estimates_ns);
        let charged = est.max(0.0) as u64;
        self.charge(best, charged, class);
        (best, charged)
    }

    /// Charges estimated work to a pinned device under `class`.
    pub fn charge(&self, id: usize, est_ns: u64, class: Priority) {
        self.entries[id].load_ns.fetch_add(est_ns, Ordering::Relaxed);
        self.entries[id].class_load_ns[class.index()].fetch_add(est_ns, Ordering::Relaxed);
    }

    /// Settles a completed (or cancelled) request's charge.
    pub fn discharge(&self, id: usize, est_ns: u64, class: Priority) {
        let saturating_sub = |counter: &AtomicU64| {
            let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(est_ns))
            });
        };
        saturating_sub(&self.entries[id].load_ns);
        saturating_sub(&self.entries[id].class_load_ns[class.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartmem_ir::{DType, GraphBuilder};

    fn spec() -> ModelSpec {
        let mut b = GraphBuilder::new("sched-toy");
        let x = b.input("x", &[1, 64, 256], DType::F16);
        let w = b.weight("w", &[256, 256], DType::F16);
        let mm = b.matmul(x, w);
        b.output(mm);
        ModelSpec::new("toy", b.finish())
    }

    fn pool() -> DevicePool {
        DevicePool::new(vec![
            DeviceConfig::snapdragon_8gen2(),
            DeviceConfig::snapdragon_835(),
            DeviceConfig::apple_m1(),
        ])
    }

    #[test]
    fn faster_devices_get_lower_estimates() {
        let s = spec();
        let fast = quick_estimate_ns(&s, &DeviceConfig::snapdragon_8gen2());
        let slow = quick_estimate_ns(&s, &DeviceConfig::snapdragon_835());
        assert!(fast < slow, "8gen2 {fast} vs 835 {slow}");
        let npu = quick_estimate_ns(&s, &DeviceConfig::server_npu());
        assert!(npu < fast, "the server NPU beats every mobile GPU");
    }

    #[test]
    fn discrete_devices_pay_host_staging() {
        let s = spec();
        let discrete = DeviceConfig::tesla_v100();
        let mut unified = discrete.clone();
        unified.caps.unified_memory = true;
        let with_staging = quick_estimate_ns(&s, &discrete);
        let without = quick_estimate_ns(&s, &unified);
        let expected = s.bytes as f64 / 32.0;
        assert!((with_staging - without - expected).abs() < 1e-6);
    }

    #[test]
    fn afbc_lowers_the_estimate_on_memory_bound_models() {
        let s = spec();
        let on = quick_estimate_ns(&s, &DeviceConfig::mali_g710());
        let off = quick_estimate_ns(&s, &DeviceConfig::mali_g710().with_afbc(false));
        assert!(on <= off, "AFBC never slows a placement estimate: {on} vs {off}");
    }

    #[test]
    fn placement_prefers_idle_fast_device_then_balances() {
        let p = pool();
        let s = spec();
        let ests: Vec<f64> = (0..p.len()).map(|d| quick_estimate_ns(&s, p.device(d))).collect();
        let (first, charged) = p.place(&ests, Priority::Interactive);
        assert!(charged > 0);
        assert_eq!(p.load_ns(first), charged);
        assert_eq!(p.class_load_ns(first, Priority::Interactive), charged);
        assert_eq!(p.class_load_ns(first, Priority::Batch), 0);
        // Pile enough work on the first choice and the scheduler must
        // move on to another device.
        p.charge(first, 10_000_000_000, Priority::Batch);
        let (second, _) = p.place(&ests, Priority::Interactive);
        assert_ne!(first, second, "loaded device must be avoided");
    }

    #[test]
    fn placement_skips_dead_devices_until_revived() {
        let p = pool();
        let s = spec();
        let ests: Vec<f64> = (0..p.len()).map(|d| quick_estimate_ns(&s, p.device(d))).collect();
        let (preferred, charged) = p.place(&ests, Priority::Batch);
        p.discharge(preferred, charged, Priority::Batch);
        assert!(p.mark_dead(preferred), "first kill transitions");
        assert!(!p.mark_dead(preferred), "second kill is a no-op");
        assert!(!p.is_alive(preferred));
        assert_eq!(p.alive_count(), p.len() - 1);
        assert_eq!(p.dead_devices(), vec![preferred]);
        for _ in 0..8 {
            let (d, _) = p.place(&ests, Priority::Batch);
            assert_ne!(d, preferred, "dead device must not be placed on");
        }
        // The slack probe ignores the dead device too: its best
        // completion only considers survivors.
        let alive_best = p.best_completion_ns(&ests);
        assert!(alive_best >= ests[preferred], "dead fastest device is excluded");
    }

    #[test]
    fn discharge_settles_per_class_and_saturates() {
        let p = pool();
        p.charge(0, 100, Priority::BestEffort);
        p.discharge(0, 40, Priority::BestEffort);
        assert_eq!(p.load_ns(0), 60);
        assert_eq!(p.class_load_ns(0, Priority::BestEffort), 60);
        p.discharge(0, 1_000, Priority::BestEffort);
        assert_eq!(p.load_ns(0), 0, "accounts never underflow");
        assert_eq!(p.class_load_ns(0, Priority::BestEffort), 0);
    }
}
