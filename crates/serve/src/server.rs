//! The serving runtime: a start-up plan that compiles and estimates
//! every (model, device) pair once, then bounded admission queue →
//! shared pull-mode batcher → per-device workers executing that plan.
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
use crate::scheduler::DevicePool;
use lifecycle::Pending;
use smartmem_core::{
    graph_fingerprint, CacheStats, CompileSession, Framework, SmartMemPipeline, Unsupported,
};
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
    /// `plan[model][device]`: each pair's start-up outcome — the
    /// estimated latency of its compiled graph, or why it did not
    /// compile. Placement, admission shedding, the worker's device time
    /// and every answer read it; nothing compiles after start-up.
    plan: Vec<Vec<Result<f64, Unsupported>>>,
    /// The start-up session's counters and artifact count.
    startup_cache: CacheStats,
    compiled: usize,
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

impl Inner {
    /// Start-up latency of a pair; `None` when it failed to compile.
    fn latency_ms(&self, model: usize, device: usize) -> Option<f64> {
        self.plan[model][device].as_ref().ok().copied()
    }
}

/// Compiles `spec` for `device` through the start-up session and
/// estimates the result: the pair's plan entry, and whether the session
/// served the compile from its cache. A panicking pass fails this pair,
/// not the server: the session holds no lock while the passes run, so
/// the unwind leaves nothing behind, and catching it turns the panic
/// into an [`Unsupported`] error.
fn compile_guarded(
    session: &CompileSession,
    framework: &dyn Framework,
    spec: &ModelSpec,
    fingerprint: u64,
    device: &DeviceConfig,
) -> (Result<f64, Unsupported>, bool) {
    let (result, cache_hit) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.compile_keyed(framework, &spec.graph, fingerprint, device)
    }))
    .unwrap_or_else(|_| (Err(Unsupported::new(framework.name(), "compilation panicked")), false));
    (result.map(|out| out.optimized.estimate(device).latency_ms), cache_hit)
}

impl Server {
    /// Starts a server over the default SmartMem pipeline.
    pub fn start(models: Vec<ModelSpec>, devices: Vec<DeviceConfig>, config: ServeConfig) -> Self {
        Self::start_with_framework(models, devices, config, Box::new(SmartMemPipeline::new()))
    }

    /// Starts a server compiling through an explicit framework
    /// pipeline. Every (model, device) pair is compiled and estimated
    /// before this returns, and requests execute the resulting plan, so
    /// a pair that compiled serves even its first request from it.
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
        // I/O faults fire inside the real read/write seams — the
        // start-up compiles below included.
        if let Some(plan) = &config.fault_plan {
            if !plan.is_inert() {
                session.inject_disk_faults(Arc::clone(plan));
            }
        }
        // Every (model, device) pair compiles once, here, and its
        // estimate is the one latency placement charges and the worker
        // holds the device for. A pair that fails to compile (or
        // panics) keeps its error, which answers its requests.
        let plan = models
            .iter()
            .map(|spec| {
                let fingerprint = graph_fingerprint(&spec.graph);
                (0..pool.len())
                    .map(|d| {
                        // The pair's start-up span, on the device's lane.
                        let mut span =
                            tracer.span("compile", "serve", TraceId::NONE).with_tid(d as u64);
                        let (latency, cache_hit) = compile_guarded(
                            &session,
                            framework.as_ref(),
                            spec,
                            fingerprint,
                            pool.device(d),
                        );
                        span.arg("cache_hit", f64::from(cache_hit));
                        if let Ok(ms) = latency {
                            span.arg("latency_ms", ms);
                        }
                        latency
                    })
                    .collect()
            })
            .collect();
        let batcher = Batcher::new(config.max_batch, config.max_delay);
        let pool_len = pool.len();
        let inner = Arc::new(Inner {
            models,
            plan,
            startup_cache: session.stats(),
            compiled: session.len(),
            pool,
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
