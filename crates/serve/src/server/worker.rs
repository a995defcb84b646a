//! The per-device worker: pull the next batch, compile its members
//! through the shared session, hold the device for the simulated
//! execution time, and hand every member to the lifecycle.

use super::lifecycle::{resolve, BatchRun, Pending, Terminal};
use super::recovery::{mark_device_dead, retry_or_fail, strand};
use super::stats::record_fault;
use super::{BatchState, Inner};
use crate::batcher::Batch;
use smartmem_core::Unsupported;
use smartmem_sim::FaultKind;
use smartmem_telemetry::{now_ns, TraceId};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// Marginal device-time cost of each request after the first in a
/// batch: batched execution amortizes kernel launches and re-uses the
/// warmed caches, so a batch of `n` costs
/// `latency × (1 + MARGINAL × (n − 1))` rather than `latency × n`.
const BATCH_MARGINAL: f64 = 0.85;

/// Simulated device time of a batch of `n` identical inferences, given
/// the single-inference latency.
pub fn batch_exec_ms(single_ms: f64, n: usize) -> f64 {
    single_ms * (1.0 + BATCH_MARGINAL * n.saturating_sub(1) as f64)
}

pub(super) fn worker_loop(inner: &Inner, device_id: usize) {
    // Estimated latency per model on this device. Only this worker ever
    // touches (·, device_id) pairs, so the memo is thread-local.
    let mut latencies: HashMap<usize, f64> = HashMap::new();
    let mut st: MutexGuard<'_, BatchState> = inner.state.lock().expect("batch state poisoned");
    loop {
        let now = Instant::now();
        // Shutdown drains without waiting out the idle-latency bound.
        let cut = if st.shutdown {
            st.batcher.pull_any(device_id, now)
        } else {
            st.batcher.pull(device_id, now)
        };
        match cut {
            Some(cut) => {
                drop(st);
                // The cut freed queue capacity for blocked submitters.
                inner.space_cv.notify_all();
                for p in cut.cancelled {
                    resolve(inner, p, Terminal::Cancelled);
                }
                if !cut.batch.items.is_empty() {
                    execute_batch(inner, device_id, &mut latencies, cut.batch);
                }
                st = inner.state.lock().expect("batch state poisoned");
            }
            None if st.shutdown => return,
            None => {
                let cv = &inner.work_cvs[device_id];
                st = match st.batcher.next_due(device_id, now) {
                    // Nothing queued for this device: sleep until work
                    // arrives (an idle server costs zero wakeups).
                    None => cv.wait(st).expect("batch state poisoned"),
                    // Something is queued but not due: sleep out the
                    // remainder of the idle-latency bound.
                    Some(wait) => {
                        let wait = wait.max(Duration::from_micros(50));
                        cv.wait_timeout(st, wait).expect("batch state poisoned").0
                    }
                };
            }
        }
    }
}

fn execute_batch(
    inner: &Inner,
    device_id: usize,
    latencies: &mut HashMap<usize, f64>,
    batch: Batch<Pending>,
) {
    let exec_start = Instant::now();
    let device = inner.pool.device(device_id);
    let size = batch.items.len();
    let model_id = batch.key.model;
    let spec = &inner.models[model_id];
    let tracer = &inner.tracer;
    // One timestamp for the whole batch: every member's queue span ends
    // — and its execute span starts — at the cut.
    let cut_ns = if tracer.is_enabled() { now_ns() } else { 0 };
    let lane = device_id as u64;

    let plan = inner.config.fault_plan.as_ref().filter(|p| !p.is_inert());
    // Device-level probes, one roll per batch. Death routes the whole
    // batch (and everything queued behind it) through retry and skips
    // execution entirely; a stall just holds the device.
    if let Some(plan) = plan {
        if plan.roll(FaultKind::DeviceDeath, device_id) {
            if let Some(drained) = mark_device_dead(inner, device_id) {
                record_fault(inner, FaultKind::DeviceDeath, TraceId::NONE, lane);
                strand(inner, batch.items.into_iter().chain(drained), "device died");
                return;
            }
            // Last device standing: the death is suppressed (the pool
            // must keep serving) and the batch executes normally.
        }
        if plan.roll(FaultKind::DeviceStall, device_id) {
            record_fault(inner, FaultKind::DeviceStall, TraceId::NONE, lane);
            std::thread::sleep(plan.stall_duration());
        }
    }

    // Per-item outcome: an injected transient fault (`Err`) or the
    // compile result. Faults are decided against the request's stable
    // tag — and only on its first attempt, so a cursed request fails
    // exactly once and recovers on retry (`recovered` then counts
    // exactly the cursed tags, independent of scheduling) — and preempt
    // compilation.
    //
    // Everything else compiles through the shared session:
    // compile-on-first-use, cache-warm (and in-flight-deduplicated)
    // thereafter. The fingerprint was precomputed at registration,
    // so a warm call is a hash-map lookup. Accounting is deliberately
    // per *request* — the hit rate answers "what fraction of traffic
    // was served from a warm artifact", so the follow-up requests of
    // a batch count as hits too.
    // A panicking pass must fail this model's requests, not kill
    // the device worker (which would strand every later batch
    // routed here): the session's FlightGuard already unwedges
    // concurrent waiters, and catching the unwind turns the panic
    // into a per-request error response.
    let outcomes: Vec<_> = batch
        .items
        .iter()
        .map(|item| {
            let curse = plan.filter(|_| item.attempts == 0).and_then(|plan| {
                [FaultKind::CompileFault, FaultKind::ExecError]
                    .into_iter()
                    .find(|&kind| plan.fault_for(kind, item.tag))
            });
            if let Some(kind) = curse {
                record_fault(inner, kind, item.trace, lane);
                return Err(kind);
            }
            let compile_start = if item.trace != TraceId::NONE { now_ns() } else { 0 };
            let (result, cache_hit) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inner.session.compile_keyed(
                        inner.framework.as_ref(),
                        &spec.graph,
                        spec.fingerprint,
                        device,
                    )
                }))
                .unwrap_or_else(|_| {
                    (Err(Unsupported::new(inner.framework.name(), "compilation panicked")), false)
                });
            if item.trace != TraceId::NONE {
                tracer.record_complete(
                    "compile",
                    "serve",
                    item.trace,
                    compile_start,
                    now_ns().saturating_sub(compile_start),
                    lane,
                    vec![("cache_hit".to_string(), f64::from(cache_hit))],
                );
            }
            Ok((result, cache_hit))
        })
        .collect();

    // The sampled-trace latency estimate is much cheaper than
    // compilation but still worth paying once per model, not per
    // batch.
    //
    // The batch runs one device iteration per decode step of its
    // *longest* decode member — every batch-mate is held hostage for
    // all of them. This is exactly the cost continuous batching avoids
    // by re-submitting one step at a time.
    let iters = batch.items.iter().map(|i| i.steps.max(1)).max().unwrap_or(1);
    let exec_ms = outcomes
        .iter()
        .flatten()
        .find_map(|(res, _)| res.as_ref().ok())
        .map(|output| {
            *latencies
                .entry(model_id)
                .or_insert_with(|| output.optimized.estimate(device).latency_ms)
        })
        .map_or(0.0, |latency_ms| batch_exec_ms(latency_ms, size) * f64::from(iters));
    if inner.config.exec_time_scale > 0.0 && exec_ms > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(exec_ms * inner.config.exec_time_scale / 1e3));
    }

    let m = &inner.metrics;
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.per_device_batches[device_id].fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = m.per_device_hist[device_id].get(size.saturating_sub(1)) {
        slot.fetch_add(1, Ordering::Relaxed);
    }
    if batch.items.iter().any(|i| i.steps > 0) {
        m.decode_steps.fetch_add(u64::from(iters), Ordering::Relaxed);
    }
    let run = BatchRun { size, exec_ms, exec_start, cut_ns };
    for (item, outcome) in batch.items.into_iter().zip(outcomes) {
        match outcome {
            // Cursed items are transient failures: consume a retry
            // attempt and re-place them (or go terminal on an exhausted
            // budget). Their charge travels with them — requeue/resolve
            // refunds it.
            Err(FaultKind::CompileFault) => retry_or_fail(inner, item, "injected compile fault"),
            Err(_) => retry_or_fail(inner, item, "injected execute error"),
            Ok((result, cache_hit)) => {
                let error = result.err().map(|e| e.to_string());
                resolve(inner, item, Terminal::Executed { batch: &run, cache_hit, error });
            }
        }
    }
}
