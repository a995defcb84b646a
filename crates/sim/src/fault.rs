//! Deterministic fault injection for chaos-testing the serving stack.
//!
//! A [`FaultPlan`] is a seeded oracle that every fault-injection seam
//! (worker execution, scheduler placement, disk-cache I/O, deadline
//! assignment) consults before doing its real work. Decisions are pure
//! functions of `(seed, fault kind, identity)` so the same plan makes
//! the same calls in any thread interleaving:
//!
//! * **request-keyed** faults ([`FaultPlan::fault_for`]) hash a stable
//!   per-request tag — the curse follows the request across retries,
//!   re-placements, and even resubmission to another replica;
//! * **site-keyed** faults ([`FaultPlan::roll`]) draw from an
//!   independent counter-indexed stream per `(kind, site)` — the n-th
//!   draw at a site is always the same, regardless of what other sites
//!   do.
//!
//! A plan with all-zero rates ([`FaultPlan::inert`]) never fires, so
//! `Some(inert)` is behaviourally identical to `None` — the chaos suite
//! pins that equivalence byte-for-byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The taxonomy of injectable faults. Each kind maps to one seam in
/// the serving stack:
///
/// | Kind | Seam | Effect |
/// |------|------|--------|
/// | [`DeviceStall`](FaultKind::DeviceStall) | worker, per batch | the device sleeps [`FaultPlan::stall_duration`] before executing |
/// | [`DeviceDeath`](FaultKind::DeviceDeath) | worker, per batch | the device is marked dead; its queued + claimed requests are re-placed |
/// | [`ExecError`](FaultKind::ExecError) | worker, per request | the request's first execution attempt fails transiently |
/// | [`CompileFault`](FaultKind::CompileFault) | worker, per request | the request's first compilation fails transiently |
/// | [`CacheDirIo`](FaultKind::CacheDirIo) | disk cache, per I/O | a payload read/write errors (falls back to cold compile / skips persist) |
/// | [`ClockSkew`](FaultKind::ClockSkew) | admission, per request | the request's deadline is tightened by [`FaultPlan::skew`] |
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Transient device slowdown: the batch executes late.
    DeviceStall,
    /// Permanent device loss: queued and claimed work must move.
    DeviceDeath,
    /// Transient per-request execution error.
    ExecError,
    /// Transient per-request compilation failure.
    CompileFault,
    /// Disk-cache payload I/O error.
    CacheDirIo,
    /// Deadline tightened as if the client clock ran ahead.
    ClockSkew,
}

impl FaultKind {
    /// All kinds, in the order used by counter arrays.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::DeviceStall,
        FaultKind::DeviceDeath,
        FaultKind::ExecError,
        FaultKind::CompileFault,
        FaultKind::CacheDirIo,
        FaultKind::ClockSkew,
    ];

    /// Stable index into [`FaultKind::ALL`]-ordered arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::DeviceStall => 0,
            FaultKind::DeviceDeath => 1,
            FaultKind::ExecError => 2,
            FaultKind::CompileFault => 3,
            FaultKind::CacheDirIo => 4,
            FaultKind::ClockSkew => 5,
        }
    }

    /// Short stable name, used in telemetry instant events and stats
    /// tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DeviceStall => "device_stall",
            FaultKind::DeviceDeath => "device_death",
            FaultKind::ExecError => "exec_error",
            FaultKind::CompileFault => "compile_fault",
            FaultKind::CacheDirIo => "cache_dir_io",
            FaultKind::ClockSkew => "clock_skew",
        }
    }
}

/// Per-kind fault probabilities in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a batch execution stalls.
    pub device_stall: f64,
    /// Probability a batch execution kills its device.
    pub device_death: f64,
    /// Probability a request's first execution attempt fails.
    pub exec_error: f64,
    /// Probability a request's first compilation fails.
    pub compile_fault: f64,
    /// Probability a disk-cache payload I/O errors.
    pub cache_dir_io: f64,
    /// Probability a request's deadline is skew-tightened.
    pub clock_skew: f64,
}

impl FaultRates {
    /// The same rate for every kind.
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            device_stall: rate,
            device_death: rate,
            exec_error: rate,
            compile_fault: rate,
            cache_dir_io: rate,
            clock_skew: rate,
        }
    }

    /// Only the transient request-keyed kinds (exec error at `rate`,
    /// compile fault at `rate / 2`) — the mix `serve_bench --fault-rate`
    /// uses, chosen so every injected fault is recoverable by retry.
    pub fn transient(rate: f64) -> Self {
        FaultRates { exec_error: rate, compile_fault: rate / 2.0, ..FaultRates::default() }
    }

    /// The rate configured for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::DeviceStall => self.device_stall,
            FaultKind::DeviceDeath => self.device_death,
            FaultKind::ExecError => self.exec_error,
            FaultKind::CompileFault => self.compile_fault,
            FaultKind::CacheDirIo => self.cache_dir_io,
            FaultKind::ClockSkew => self.clock_skew,
        }
    }

    /// True when every rate is zero — the plan can never fire.
    pub fn is_zero(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| self.rate(k) <= 0.0)
    }
}

const DEFAULT_STALL: Duration = Duration::from_millis(2);
const DEFAULT_SKEW: Duration = Duration::from_millis(5);

/// A seeded, deterministic fault schedule. Thread-safe; shared as
/// `Arc<FaultPlan>` between a server, its compile session's disk
/// cache, and (in fleet benches) sibling replicas.
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    stall: Duration,
    injected: [AtomicU64; 6],
    streams: Mutex<HashMap<(usize, usize), u64>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .field("injected", &self.injected_counts())
            .finish()
    }
}

impl FaultPlan {
    /// A plan firing with probabilities `rates`, all decisions derived
    /// from `seed`.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            seed,
            rates,
            stall: DEFAULT_STALL,
            injected: Default::default(),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// A plan that never fires. `Some(FaultPlan::inert())` behaves
    /// identically to no plan at all.
    pub fn inert() -> Self {
        FaultPlan::new(0, FaultRates::default())
    }

    /// Set the sleep injected by [`FaultKind::DeviceStall`].
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// The seed all decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured per-kind rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// True when the plan can never fire (all rates zero).
    pub fn is_inert(&self) -> bool {
        self.rates.is_zero()
    }

    /// Injected stall length.
    pub fn stall_duration(&self) -> Duration {
        self.stall
    }

    /// Injected deadline tightening.
    pub fn skew(&self) -> Duration {
        DEFAULT_SKEW
    }

    /// Pure probe: would `kind` fire for the request identified by
    /// `identity`? Same answer every call; never counts an injection.
    /// Benches use this to predict exactly which requests a plan will
    /// curse.
    pub fn would_fault(&self, kind: FaultKind, identity: u64) -> bool {
        self.decide(kind, identity)
    }

    /// Request-keyed draw: fire `kind` for the request identified by
    /// `identity`? Deterministic in `identity` (thread-schedule
    /// independent); counts the injection when it fires.
    pub fn fault_for(&self, kind: FaultKind, identity: u64) -> bool {
        let hit = self.decide(kind, identity);
        if hit {
            self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Site-keyed draw: the n-th call for a given `(kind, site)` pair
    /// always returns the same answer — each site has an independent
    /// deterministic stream. Counts the injection when it fires.
    pub fn roll(&self, kind: FaultKind, site: usize) -> bool {
        if self.rates.rate(kind) <= 0.0 {
            return false;
        }
        let n = {
            let mut streams = self.streams.lock().unwrap();
            let ctr = streams.entry((kind.index(), site)).or_insert(0);
            let n = *ctr;
            *ctr += 1;
            n
        };
        let token = (site as u64) << 32 | n;
        let hit = self.decide(kind, token ^ 0x5151_7e5e_0ff5_e75a);
        if hit {
            self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many times `kind` has fired through this plan.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Per-kind injection counts, [`FaultKind::ALL`]-ordered.
    pub fn injected_counts(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        for (i, c) in self.injected.iter().enumerate() {
            out[i] = c.load(Ordering::Relaxed);
        }
        out
    }

    /// Total injections across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected_counts().iter().sum()
    }

    fn decide(&self, kind: FaultKind, token: u64) -> bool {
        let rate = self.rates.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let z = splitmix64(
            self.seed ^ splitmix64(kind.index() as u64 + 1).wrapping_add(splitmix64(token)),
        );
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::inert();
        for &kind in &FaultKind::ALL {
            for id in 0..1000 {
                assert!(!plan.fault_for(kind, id));
                assert!(!plan.roll(kind, id as usize % 7));
            }
        }
        assert_eq!(plan.total_injected(), 0);
        assert!(plan.is_inert());
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(3, FaultRates::uniform(1.0));
        for id in 0..100 {
            assert!(plan.fault_for(FaultKind::ExecError, id));
        }
        assert_eq!(plan.injected(FaultKind::ExecError), 100);
    }

    #[test]
    fn request_keyed_draws_are_stable_and_seed_sensitive() {
        let a = FaultPlan::new(42, FaultRates::uniform(0.3));
        let b = FaultPlan::new(42, FaultRates::uniform(0.3));
        let c = FaultPlan::new(43, FaultRates::uniform(0.3));
        let decide = |p: &FaultPlan| -> Vec<bool> {
            (0..512).map(|id| p.would_fault(FaultKind::CompileFault, id)).collect()
        };
        assert_eq!(decide(&a), decide(&b));
        assert_ne!(decide(&a), decide(&c));
        // Re-probing does not change answers and would_fault never counts.
        assert_eq!(decide(&a), decide(&a));
        assert_eq!(a.total_injected(), 0);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(7, FaultRates::uniform(0.25));
        let hits = (0..4000).filter(|&id| plan.would_fault(FaultKind::ExecError, id)).count();
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn site_streams_are_independent_and_sequential() {
        let seq = |plan: &FaultPlan, site: usize, n: usize| -> Vec<bool> {
            (0..n).map(|_| plan.roll(FaultKind::DeviceStall, site)).collect()
        };
        let a = FaultPlan::new(9, FaultRates::uniform(0.5));
        let b = FaultPlan::new(9, FaultRates::uniform(0.5));
        // Same plan params: site streams replay identically no matter
        // how draws from other sites interleave.
        let a0 = seq(&a, 0, 64);
        let _ = seq(&a, 1, 13);
        let a0_more = seq(&a, 0, 64);
        let b0 = seq(&b, 0, 128);
        let mut combined = a0.clone();
        combined.extend(a0_more);
        assert_eq!(combined, b0);
        assert_ne!(a0, seq(&b, 1, 64));
    }

    #[test]
    fn shared_plan_counts_across_threads() {
        let plan = Arc::new(FaultPlan::new(5, FaultRates::uniform(1.0)));
        let mut handles = Vec::new();
        for t in 0..4 {
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    assert!(plan.fault_for(FaultKind::CacheDirIo, t * 100 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(plan.injected(FaultKind::CacheDirIo), 200);
    }

    #[test]
    fn transient_rates_cover_only_request_keyed_kinds() {
        let r = FaultRates::transient(0.2);
        assert_eq!(r.rate(FaultKind::ExecError), 0.2);
        assert_eq!(r.rate(FaultKind::CompileFault), 0.1);
        assert_eq!(r.rate(FaultKind::DeviceDeath), 0.0);
        assert_eq!(r.rate(FaultKind::CacheDirIo), 0.0);
        assert!(!r.is_zero());
        assert!(FaultRates::default().is_zero());
    }
}
