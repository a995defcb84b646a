//! Latency-estimate-driven placement across the device pool.
//!
//! Placement reads the same number the worker charges: the server
//! compiles every (model, device) pair at start-up and keeps each
//! pair's `OptimizedGraph::estimate` latency in one table, so a request
//! is balanced in the device time it will actually be held for, and
//! the submission path stays a row lookup plus a few atomic reads. Each
//! device carries an outstanding-work account in estimated
//! nanoseconds, split by [`Priority`] class; a request is placed on the
//! device minimizing `outstanding + estimate(model, device)` — i.e.
//! earliest estimated completion, which is what maximizes the slack
//! left to meet the request's class deadline — and the account is
//! settled when the request completes or is cancelled.
//!
//! Placement picks the *device*; the *order* in which queued work is
//! cut for a device is the batcher's slack ordering (see
//! `crate::batcher`). Together they replace the old pure-FIFO dispatch.

use crate::request::Priority;
use smartmem_sim::DeviceConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
/// Admission calls [`DevicePool::place_scaled`] with the model's
/// per-device start-up latency (ms, `None` where it failed to compile),
/// the ns it charges per ms (`1e6 ×` decode steps) and the request's
/// class; the pool picks the device minimizing *outstanding work + this request's estimate* and charges
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
    /// work + estimate) among the best-ranked devices, as `(id,
    /// estimate, completion)` — see [`DevicePool::place_scaled`].
    fn earliest(&self, estimate: impl Fn(usize) -> Option<f64>, scale: f64) -> (usize, f64, f64) {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let est = estimate(i);
                let rank = 2 * u8::from(!e.alive.load(Ordering::Relaxed)) + u8::from(est.is_none());
                let est = est.map_or(0.0, |r| r * scale);
                (rank, (i, est, e.load_ns.load(Ordering::Relaxed) as f64 + est))
            })
            .min_by(|(ra, a), (rb, b)| ra.cmp(rb).then(a.2.total_cmp(&b.2)))
            .expect("device pool must not be empty")
            .1
    }

    /// Estimated completion time, in ns, of the device
    /// [`DevicePool::place_scaled`] would pick: `outstanding + estimate
    /// × scale` — the admission-control slack probe.
    pub fn best_completion_ns(&self, estimate: impl Fn(usize) -> Option<f64>, scale: f64) -> f64 {
        self.earliest(estimate, scale).2
    }

    /// Places one inference whose per-device estimates are `row`, in
    /// ns: [`DevicePool::place_scaled`] with scale 1.
    pub fn place(&self, row: &[f64], class: Priority) -> (usize, u64) {
        self.place_scaled(|d| Some(row[d]), 1.0, class)
    }

    /// Places one inference: picks the device minimizing estimated
    /// completion time (outstanding work + `estimate(id) × scale` ns,
    /// the model's estimate) — maximizing the slack left under the
    /// request's class deadline — and charges the estimate to its
    /// account under `class`. Returns `(device id, charged estimate in
    /// ns)`; settle with [`DevicePool::discharge`] when the request
    /// completes or is cancelled.
    ///
    /// `estimate(id) == None` means the model failed to compile for that
    /// device. Alive devices with an estimate are ranked first, then
    /// other alive devices (charged 0), then, so that a request is never
    /// stranded, dead ones (the server never lets injected faults kill
    /// every device, but an operator might). Ties go to the lowest id.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool.
    pub fn place_scaled(
        &self,
        estimate: impl Fn(usize) -> Option<f64>,
        scale: f64,
        class: Priority,
    ) -> (usize, u64) {
        let (best, est, _) = self.earliest(estimate, scale);
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

    fn pool() -> DevicePool {
        DevicePool::new(vec![
            DeviceConfig::snapdragon_8gen2(),
            DeviceConfig::snapdragon_835(),
            DeviceConfig::apple_m1(),
        ])
    }

    /// One model's estimates on `pool()`, in ms: the 8 Gen 2 is fastest.
    const ROW_MS: [f64; 3] = [4.0, 11.0, 6.0];

    fn row(device: usize) -> Option<f64> {
        Some(ROW_MS[device])
    }

    #[test]
    fn placement_prefers_idle_fast_device_then_balances() {
        let p = pool();
        let (first, charged) = p.place_scaled(row, 1e6, Priority::Interactive);
        assert_eq!((first, charged), (0, 4_000_000));
        assert_eq!(p.load_ns(first), charged);
        assert_eq!(p.class_load_ns(first, Priority::Interactive), charged);
        assert_eq!(p.class_load_ns(first, Priority::Batch), 0);
        // Pile enough work on the first choice and the scheduler must
        // move on to the next-earliest completion.
        p.charge(first, 10_000_000_000, Priority::Batch);
        let (second, charged) = p.place_scaled(row, 2e6, Priority::Interactive);
        assert_eq!((second, charged), (2, 12_000_000), "the scale multiplies the row");
        // `place` reads the row in ns.
        assert_eq!(p.place(&[5.0, 1.0, 9.0], Priority::Batch), (1, 1));
    }

    #[test]
    fn placement_skips_dead_devices_until_revived() {
        let p = pool();
        let (preferred, charged) = p.place_scaled(row, 1e6, Priority::Batch);
        p.discharge(preferred, charged, Priority::Batch);
        assert!(p.mark_dead(preferred), "first kill transitions");
        assert!(!p.mark_dead(preferred), "second kill is a no-op");
        assert!(!p.is_alive(preferred));
        assert_eq!(p.alive_count(), p.len() - 1);
        assert_eq!(p.dead_devices(), vec![preferred]);
        for _ in 0..8 {
            let (d, _) = p.place_scaled(row, 1e6, Priority::Batch);
            assert_ne!(d, preferred, "dead device must not be placed on");
        }
        // The slack probe ignores the dead device too: its best
        // completion only considers survivors.
        let alive_best = p.best_completion_ns(row, 1e6);
        assert!(alive_best >= ROW_MS[preferred] * 1e6, "dead fastest device is excluded");
    }

    #[test]
    fn placement_skips_devices_the_model_failed_on() {
        let p = pool();
        // The model failed to compile on the idle, otherwise fastest
        // device: placement must not treat it as a free 0-ms device.
        let failed_on_first = |d: usize| (d != 0).then(|| ROW_MS[d]);
        for _ in 0..8 {
            let (d, charged) = p.place_scaled(failed_on_first, 1e6, Priority::Batch);
            assert_ne!(d, 0, "a pair that failed to compile must not be placed on");
            assert_eq!(charged, (ROW_MS[d] * 1e6) as u64);
        }
        // With its only compiled device dead, the model falls back to
        // the alive devices, charged nothing.
        let only_second = |d: usize| (d == 1).then_some(ROW_MS[1]);
        p.mark_dead(1);
        assert_eq!(p.place_scaled(only_second, 1e6, Priority::Batch), (0, 0));
        assert_eq!(p.best_completion_ns(only_second, 1e6), p.load_ns(0) as f64);
        // Failed everywhere: the least-loaded alive device, charged 0.
        assert_eq!(p.place_scaled(|_| None, 1e6, Priority::Batch), (0, 0));
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
