//! The serving runtime: bounded admission queue → shared pull-mode
//! batcher → per-device workers over one shared [`CompileSession`].
//!
//! Unlike the original push pipeline (a batching thread flushing on a
//! timer into per-worker channels), the batcher here is a single
//! [`Batcher`] state machine behind a mutex: submission pushes into it,
//! and each device worker *pulls* its next batch the moment the device
//! frees up. A backlogged device therefore grows its batches toward
//! `max_batch`; the old `max_delay` survives only as the idle-latency
//! bound that flushes a lone request on an otherwise idle device.
//!
//! The submodules follow the runtime's seams; the "Serving lifecycle"
//! section of `docs/ARCHITECTURE.md` maps them.

mod admission;
mod config;
mod lifecycle;
mod recovery;
mod stats;
mod worker;

pub use config::{ClassDeadlines, ServeConfig, TelemetryConfig};
pub use lifecycle::CancelHandle;
pub use stats::{histogram_mean, ClassStats, ServeStats, FAULT_CATEGORY, RECOVERY_CATEGORY};
pub use worker::batch_exec_ms;

use crate::batcher::Batcher;
use crate::request::ModelSpec;
use crate::scheduler::{quick_estimate_ns, DevicePool};
use lifecycle::Pending;
use smartmem_core::{CompileSession, Framework, SmartMemPipeline};
use smartmem_sim::DeviceConfig;
use smartmem_telemetry::{TraceId, Tracer};
use stats::Metrics;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The batcher plus the shutdown flag, guarded by `Inner::state`.
struct BatchState {
    batcher: Batcher<Pending>,
    shutdown: bool,
    /// Set by [`Server::kill`]: the replica went down hard. Implies
    /// `shutdown`; queued requests were answered `REPLICA_KILLED`
    /// instead of drained.
    killed: bool,
}

/// State shared by the public handle, the device workers, and every
/// outstanding [`CancelHandle`].
struct Inner {
    models: Vec<ModelSpec>,
    pool: DevicePool,
    session: CompileSession,
    framework: Box<dyn Framework>,
    /// Roofline placement estimates, `estimates[model][device]` in ns.
    estimates: Vec<Vec<f64>>,
    config: ServeConfig,
    metrics: Metrics,
    tracer: Tracer,
    /// Unusable-cache-dir fallbacks, decided once before any worker
    /// starts (see [`ServeStats::cache_dir_fallbacks`]).
    cache_dir_fallbacks: u64,
    state: Mutex<BatchState>,
    /// Wakes one device's worker (indexed by device id): new work
    /// pushed for it, or shutdown. Per-device condvars keep a
    /// submission from waking workers that cannot act on it.
    work_cvs: Vec<Condvar>,
    /// Wakes blocked submitters: queue capacity freed, or shutdown.
    space_cv: Condvar,
}

/// The serving runtime handle.
///
/// `start` spins up one worker thread per device; `submit`/`try_submit`
/// enqueue requests and return [`Ticket`]s (cancellable via
/// [`Ticket::cancel_handle`]); `shutdown` drains everything and returns
/// the final statistics. The handle is `Sync`: submit from as many
/// threads as you like.
///
/// [`Ticket`]: crate::Ticket
/// [`Ticket::cancel_handle`]: crate::Ticket::cancel_handle
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Server {
    /// Starts a server over the default SmartMem pipeline.
    pub fn start(models: Vec<ModelSpec>, devices: Vec<DeviceConfig>, config: ServeConfig) -> Self {
        Self::start_with_framework(models, devices, config, Box::new(SmartMemPipeline::new()))
    }

    /// Starts a server compiling through an explicit framework
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics when `models` or `devices` is empty.
    pub fn start_with_framework(
        models: Vec<ModelSpec>,
        devices: Vec<DeviceConfig>,
        config: ServeConfig,
        framework: Box<dyn Framework>,
    ) -> Self {
        assert!(!models.is_empty(), "register at least one model");
        assert!(!devices.is_empty(), "provide at least one device");
        let pool = DevicePool::new(devices);
        let estimates = models
            .iter()
            .map(|m| (0..pool.len()).map(|d| quick_estimate_ns(m, pool.device(d))).collect())
            .collect();
        let metrics = Metrics::new(pool.len(), config.max_batch);
        let tracer = config.telemetry.tracer();
        // A broken cache directory must not take the server down with
        // it — fall back to a purely in-memory session and keep
        // serving (every compile just goes cold). The fallback is
        // observable: a count in [`ServeStats`] plus a warning event
        // in the trace, carrying the I/O error as its message.
        let mut cache_dir_fallbacks = 0;
        let session = match &config.cache_dir {
            Some(dir) => CompileSession::with_cache_dir(dir).unwrap_or_else(|e| {
                cache_dir_fallbacks = 1;
                tracer.record_instant(
                    format!("cache_dir_fallback: {} unusable ({e})", dir.display()),
                    "warn",
                    TraceId::NONE,
                    0,
                    vec![],
                );
                CompileSession::new()
            }),
            None => CompileSession::new(),
        };
        // Wire the fault plan into the persistent cache so cache-dir
        // I/O faults fire inside the real read/write seams.
        if let Some(plan) = &config.fault_plan {
            if !plan.is_inert() {
                session.inject_disk_faults(Arc::clone(plan));
            }
        }
        let batcher =
            Batcher::new(config.max_batch, config.max_delay).with_aging_factor(config.aging_factor);
        let pool_len = pool.len();
        let inner = Arc::new(Inner {
            models,
            pool,
            session,
            framework,
            estimates,
            config,
            metrics,
            tracer,
            cache_dir_fallbacks,
            state: Mutex::new(BatchState { batcher, shutdown: false, killed: false }),
            work_cvs: (0..pool_len).map(|_| Condvar::new()).collect(),
            space_cv: Condvar::new(),
        });
        let workers = (0..inner.pool.len())
            .map(|device| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker::worker_loop(&inner, device))
            })
            .collect();
        Server { inner, workers, next_id: AtomicU64::new(0) }
    }

    /// Model id registered under `name`, if any.
    pub fn model_id(&self, name: &str) -> Option<usize> {
        self.inner.models.iter().position(|m| m.name == name)
    }

    /// Device pool.
    pub fn pool(&self) -> &DevicePool {
        &self.inner.pool
    }

    /// The server's span tracer. The clone shares the underlying
    /// rings, so it stays valid — and drainable — after
    /// [`Server::shutdown`]: grab it up front, shut down, then export
    /// the trace.
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.clone()
    }

    /// Stops accepting requests, drains every queued batch, joins all
    /// threads and returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join(true);
        self.stats()
    }

    /// Flags shutdown, wakes everything, joins the workers. A panicked
    /// worker (or the poisoned lock it leaves behind) only propagates
    /// when `propagate` is set — the `Drop` path must stay panic-free,
    /// or an abort-during-unwind would mask the original failure.
    fn stop_and_join(&mut self, propagate: bool) {
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        // Workers drain their device's remaining queue and exit;
        // blocked submitters observe the flag and error out.
        for cv in &self.inner.work_cvs {
            cv.notify_all();
        }
        self.inner.space_cv.notify_all();
        for w in self.workers.drain(..) {
            let joined = w.join();
            if propagate {
                joined.expect("worker thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    #[test]
    fn batch_exec_time_is_sublinear() {
        let one = batch_exec_ms(10.0, 1);
        let four = batch_exec_ms(10.0, 4);
        assert_eq!(one, 10.0);
        assert!(four < 40.0, "batching must amortize: {four}");
        assert!(four > 10.0);
    }

    #[test]
    fn default_class_deadlines_are_ordered() {
        let d = ClassDeadlines::default();
        assert!(d.budget(Priority::Interactive) < d.budget(Priority::Batch));
        assert!(d.budget(Priority::Batch) < d.budget(Priority::BestEffort));
    }
}
