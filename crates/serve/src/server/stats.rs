//! What the server counts and records: [`ServeStats`], the atomic
//! counters behind it, and the instant-event helpers every fault and
//! recovery site goes through.

use super::{Inner, Server};
use crate::request::Priority;
use smartmem_core::CacheStats;
use smartmem_sim::FaultKind;
use smartmem_telemetry::TraceId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Telemetry category of injected-fault instant events
/// (`fault.<kind>`, see [`FaultKind::name`]).
pub const FAULT_CATEGORY: &str = "fault";
/// Telemetry category of recovery-action instant events (`retry`,
/// `retry_exhausted`, `shed`, `replica_killed`, `device_dead`).
pub const RECOVERY_CATEGORY: &str = "recovery";

/// Per-priority-class serving counters (one entry per [`Priority`],
/// indexed by [`Priority::index`] in [`ServeStats::per_class`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Requests of this class accepted into the queue.
    pub submitted: u64,
    /// Requests of this class executed successfully (`error == None`).
    pub completed: u64,
    /// Requests of this class answered with a terminal error.
    pub failed: u64,
    /// Requests of this class cancelled before execution.
    pub cancelled: u64,
    /// Answered requests of this class past their deadline (wall clock
    /// at response time past `submission + class budget`).
    pub slo_violations: u64,
}

/// Aggregate serving statistics (snapshot or final, from
/// [`Server::stats`] / [`Server::shutdown`]).
///
/// # Request accounting taxonomy
///
/// Every *accepted* request resolves into exactly one of three
/// disjoint terminal counters, so in every final snapshot
/// `submitted == completed + failed + cancelled` — no ticket is ever
/// lost or double-counted, even under fault injection. `rejected` and
/// `shed` count requests that were never accepted (their tickets were
/// never created) and live outside that sum.
///
/// | counter     | exact trigger                                      |
/// |-------------|----------------------------------------------------|
/// | `submitted` | request accepted into the bounded queue            |
/// | `completed` | answered with `error == None` (success only)       |
/// | `failed`    | answered with `error == Some(..)`: compile error or panic, replica killed mid-flight, or retry budget exhausted |
/// | `cancelled` | cancel won the CAS before any worker claimed it    |
/// | `rejected`  | `try_submit` refused: bounded queue full           |
/// | `shed`      | admission control refused: pool slack negative     |
///
/// `recovered`, `retried`, `retry_exhausted`, and `killed` are
/// *attributions*, not extra terminals: `retried` counts re-enqueue
/// events (a request can retry several times), `recovered` counts
/// requests that landed in `completed` after ≥ 1 failed attempt,
/// `retry_exhausted` and `killed` count the sub-causes of `failed`.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests executed and answered successfully (`error == None`).
    /// Disjoint from `failed` and `cancelled`.
    pub completed: u64,
    /// Requests rejected by admission control (`try_submit` on a full
    /// queue).
    pub rejected: u64,
    /// Requests answered with a terminal error (`error == Some(..)`):
    /// a compilation error/panic, `REPLICA_KILLED`, or a transient
    /// failure that exhausted the retry budget. Disjoint from
    /// `completed`.
    pub failed: u64,
    /// Requests cancelled before execution (answered with
    /// `cancelled == true`, never run on a device).
    pub cancelled: u64,
    /// Requests shed at submission by `AdmissionControl` (answered
    /// with `SubmitError::Shed`; no ticket was created). Always 0 with
    /// admission control disabled (the default).
    pub shed: u64,
    /// Retry events: how many times a transiently failed request was
    /// re-placed and re-enqueued. One request can contribute up to
    /// `RetryPolicy::budget` here.
    pub retried: u64,
    /// Requests that completed successfully after at least one failed
    /// attempt (a subset of `completed`).
    pub recovered: u64,
    /// Requests that became terminal `failed` because their retry
    /// budget ran out (a subset of `failed`).
    pub retry_exhausted: u64,
    /// Requests answered `REPLICA_KILLED` because [`Server::kill`]
    /// tore the replica down around them (a subset of `failed`).
    pub killed: u64,
    /// Injected faults that actually fired on this server, indexed by
    /// [`FaultKind::index`]. All zero when `ServeConfig::fault_plan`
    /// is `None` or inert.
    pub faults: [u64; FaultKind::ALL.len()],
    /// Devices currently marked dead (by injected death or
    /// [`Server::retire_device`]), ascending pool ids.
    pub dead_devices: Vec<usize>,
    /// Batches executed.
    pub batches: u64,
    /// Decode iterations executed at device granularity: per batch
    /// containing at least one decode request, the largest
    /// `decode_steps` among its members (whole-request batching holds
    /// the device — and every batch-mate — for that many iterations;
    /// continuous batching contributes 1 per step batch).
    pub decode_steps: u64,
    /// Tokens generated by successfully completed decode requests (one
    /// token per request per decode step). Divide by wall time for the
    /// serving-level tokens-per-second figure.
    pub decode_tokens: u64,
    /// `histogram[n-1]` = number of batches of size `n`, over all
    /// devices.
    pub batch_histogram: Vec<u64>,
    /// Per-device batch-size histograms, by pool id:
    /// `per_device_batch_histogram[d][n-1]` = batches of size `n` on
    /// device `d` — this is where pull-based growth on a backlogged
    /// device is visible while idle devices keep cutting small.
    pub per_device_batch_histogram: Vec<Vec<u64>>,
    /// Batches executed per device, by pool id.
    pub per_device_batches: Vec<u64>,
    /// Per-priority-class counters, indexed by [`Priority::index`].
    pub per_class: [ClassStats; 3],
    /// Compilation-session counters (per-request granularity: steady
    /// state is all hits).
    pub cache: CacheStats,
    /// Distinct compiled artifacts in the session cache.
    pub compiled: usize,
    /// Times the configured persistent cache directory was unusable and
    /// the server fell back to a purely in-memory session (0 or 1 per
    /// server; also recorded as a telemetry warning event).
    pub cache_dir_fallbacks: u64,
}

impl ServeStats {
    /// Session cache hit rate in `[0, 1]` (0 when nothing compiled).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Counters of one priority class.
    pub fn class(&self, class: Priority) -> ClassStats {
        self.per_class[class.index()]
    }
}

/// Mean batch size of a `histogram[n-1] = batches of size n` histogram
/// (0 when empty) — the layout of [`ServeStats::batch_histogram`], and
/// of any difference of two such snapshots.
pub fn histogram_mean(hist: &[u64]) -> f64 {
    let batches: u64 = hist.iter().sum();
    if batches == 0 {
        0.0
    } else {
        let total: u64 = hist.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
        total as f64 / batches as f64
    }
}

#[derive(Default)]
pub(super) struct ClassCounters {
    pub(super) submitted: AtomicU64,
    pub(super) completed: AtomicU64,
    pub(super) failed: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) slo_violations: AtomicU64,
}

impl ClassCounters {
    fn snapshot(&self) -> ClassStats {
        ClassStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            slo_violations: self.slo_violations.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
pub(super) struct Metrics {
    pub(super) submitted: AtomicU64,
    pub(super) completed: AtomicU64,
    pub(super) rejected: AtomicU64,
    pub(super) failed: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) retried: AtomicU64,
    pub(super) recovered: AtomicU64,
    pub(super) retry_exhausted: AtomicU64,
    pub(super) killed: AtomicU64,
    /// Injected faults that fired, by [`FaultKind::index`]. The
    /// cache-I/O slot is filled from the session at snapshot time.
    faults: [AtomicU64; FaultKind::ALL.len()],
    pub(super) batches: AtomicU64,
    /// Device-level decode iterations executed (per batch, the largest
    /// step count among its members — the time the device actually
    /// spent iterating).
    pub(super) decode_steps: AtomicU64,
    /// Tokens generated by successful decode requests (one per request
    /// per step).
    pub(super) decode_tokens: AtomicU64,
    /// `[device][size-1]` — per-device batch-size histograms.
    pub(super) per_device_hist: Vec<Vec<AtomicU64>>,
    pub(super) per_device_batches: Vec<AtomicU64>,
    pub(super) per_class: [ClassCounters; 3],
    pub(super) completion_seq: AtomicU64,
}

impl Metrics {
    pub(super) fn new(devices: usize, max_batch: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Metrics {
            per_device_hist: (0..devices).map(|_| zeros(max_batch)).collect(),
            per_device_batches: zeros(devices),
            ..Metrics::default()
        }
    }
}

impl Server {
    /// Statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        let inner = &self.inner;
        let m = &inner.metrics;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // `resolve` counts an attribution after the terminal it is a subset
        // of; reading them in the opposite order keeps `killed <= failed`
        // (and `recovered <= completed`) in a snapshot racing a response.
        let (recovered, retry_exhausted, killed) =
            (load(&m.recovered), load(&m.retry_exhausted), load(&m.killed));
        let per_device_batch_histogram: Vec<Vec<u64>> =
            m.per_device_hist.iter().map(|h| h.iter().map(load).collect()).collect();
        let mut batch_histogram = vec![0u64; inner.config.max_batch];
        for hist in &per_device_batch_histogram {
            for (slot, &count) in batch_histogram.iter_mut().zip(hist) {
                *slot += count;
            }
        }
        let cache = inner.session.stats();
        let mut faults: [u64; FaultKind::ALL.len()] = std::array::from_fn(|k| load(&m.faults[k]));
        // Cache-I/O faults fire inside the persist layer; surface them in
        // the same per-kind array.
        faults[FaultKind::CacheDirIo.index()] = cache.disk_faults as u64;
        ServeStats {
            submitted: load(&m.submitted),
            completed: load(&m.completed),
            rejected: load(&m.rejected),
            failed: load(&m.failed),
            cancelled: load(&m.cancelled),
            shed: load(&m.shed),
            retried: load(&m.retried),
            recovered,
            retry_exhausted,
            killed,
            faults,
            dead_devices: inner.pool.dead_devices(),
            batches: load(&m.batches),
            decode_steps: load(&m.decode_steps),
            decode_tokens: load(&m.decode_tokens),
            batch_histogram,
            per_device_batch_histogram,
            per_device_batches: m.per_device_batches.iter().map(load).collect(),
            per_class: std::array::from_fn(|c| m.per_class[c].snapshot()),
            cache,
            compiled: inner.session.len(),
            cache_dir_fallbacks: inner.cache_dir_fallbacks,
        }
    }
}

/// Counts one fired injected fault and records its instant event.
pub(super) fn record_fault(inner: &Inner, kind: FaultKind, trace: TraceId, lane: u64) {
    inner.metrics.faults[kind.index()].fetch_add(1, Ordering::Relaxed);
    let tracer = &inner.tracer;
    if tracer.is_enabled() {
        tracer.record_instant(
            format!("fault.{}", kind.name()),
            FAULT_CATEGORY,
            trace,
            lane,
            vec![],
        );
    }
}

/// Records one recovery-action instant event. Free with tracing off:
/// the args are only materialized for a recording tracer.
pub(super) fn record_recovery(
    inner: &Inner,
    name: &'static str,
    trace: TraceId,
    lane: u64,
    args: &[(&str, f64)],
) {
    let tracer = &inner.tracer;
    if tracer.is_enabled() {
        let args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        tracer.record_instant(name, RECOVERY_CATEGORY, trace, lane, args);
    }
}
