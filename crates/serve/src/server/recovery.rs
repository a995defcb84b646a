//! Recovery: retry with backoff and re-placement, device death and
//! retirement, replica kill. Every path here holds its requests
//! off-queue, so it answers them itself (see [`super::lifecycle`]).

use super::admission::replace;
use super::lifecycle::{resolve, settle_failed, Pending, Terminal};
use super::stats::record_recovery;
use super::{Inner, Server};
use crate::request::REPLICA_KILLED;
use crate::retry::RetryDecision;
use smartmem_telemetry::TraceId;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

impl Server {
    /// Kills the replica hard: stops admission, answers every queued
    /// request with a [`REPLICA_KILLED`] failure (counted in both
    /// `failed` and `killed`), and lets in-flight batches finish. Returns how many queued requests were killed.
    /// Idempotent; a fleet router resubmits the killed requests
    /// elsewhere and can later warm-restart a fresh replica from the
    /// shared cache dir.
    pub fn kill(&self) -> u64 {
        let inner = &self.inner;
        let drained = {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            if st.killed {
                return 0;
            }
            st.killed = true;
            st.shutdown = true;
            st.batcher.drain_all()
        };
        for cv in &inner.work_cvs {
            cv.notify_all();
        }
        inner.space_cv.notify_all();
        let mut n = 0;
        for p in drained.into_iter().flat_map(|(_key, items)| items) {
            let killed = settle_failed(inner, p, REPLICA_KILLED, Some(&inner.metrics.killed));
            n += u64::from(killed);
        }
        record_recovery(inner, "replica_killed", TraceId::NONE, 0, &[("killed", n as f64)]);
        n
    }

    /// Marks a device dead and re-routes its queued requests to the
    /// survivors — the same machinery an injected
    /// [`FaultKind::DeviceDeath`](smartmem_sim::FaultKind::DeviceDeath)
    /// uses, exposed for operational drains. Each stranded request
    /// consumes one retry attempt (it may go terminal if its budget is
    /// already spent). Returns `false` without side effects when
    /// `device` is out of range, already dead, or the last one alive.
    pub fn retire_device(&self, device: usize) -> bool {
        let inner = &self.inner;
        if device >= inner.pool.len() {
            return false;
        }
        let Some(drained) = mark_device_dead(inner, device) else {
            return false;
        };
        strand(inner, drained, "device retired");
        true
    }
}

/// Marks `device_id` dead in both the pool and the batcher, returning
/// the requests drained off its queues — or `None` when the device is
/// already dead or the last one alive (the pool must keep serving). The
/// alive-count check and the marking happen under the batch-state
/// lock, so two concurrent deaths cannot race past each other and
/// leave the pool empty.
pub(super) fn mark_device_dead(inner: &Inner, device_id: usize) -> Option<Vec<Pending>> {
    let drained = {
        let mut st = inner.state.lock().expect("batch state poisoned");
        if inner.pool.alive_count() <= 1 || !inner.pool.mark_dead(device_id) {
            return None;
        }
        st.batcher.mark_dead(device_id)
    };
    record_recovery(inner, "device_dead", TraceId::NONE, device_id as u64, &[]);
    Some(drained.into_iter().flat_map(|(_key, items)| items).collect())
}

/// Sends everything a dead device left behind down the retry path.
pub(super) fn strand(inner: &Inner, items: impl IntoIterator<Item = Pending>, error: &str) {
    for p in items {
        retry_or_fail(inner, p, error);
    }
    inner.space_cv.notify_all();
}

/// Routes one stranded or transiently failed request: consume a retry
/// attempt and either re-place + re-enqueue it with backoff, or answer
/// it terminally once the budget is spent. Works for both claimed
/// batch members and queued items drained off a dead device; concedes
/// to a concurrent cancel at every step (exactly one responder).
pub(super) fn retry_or_fail(inner: &Inner, mut p: Pending, error: &str) {
    if !p.cell.release() {
        // Cancel won while the item was off-queue in our hands: we are
        // the only holder, so we answer it.
        resolve(inner, p, Terminal::Cancelled);
        return;
    }
    p.attempts += 1;
    let lane = p.device as u64;
    match inner.config.retry.decide(p.attempts) {
        RetryDecision::Retry { backoff } => {
            inner.metrics.retried.fetch_add(1, Ordering::Relaxed);
            let args =
                [("attempt", f64::from(p.attempts)), ("backoff_us", backoff.as_micros() as f64)];
            record_recovery(inner, "retry", p.trace, lane, &args);
            requeue(inner, p, backoff);
        }
        RetryDecision::Fail => {
            record_recovery(inner, "retry_exhausted", p.trace, lane, &[]);
            // The final claim adjudicates against a cancel racing the
            // QUEUED window above.
            settle_failed(inner, p, error, Some(&inner.metrics.retry_exhausted));
        }
    }
}

/// Re-places the request among the alive devices and re-enqueues it
/// dated `backoff` into the future — the batcher's due check then
/// naturally delays the next attempt. The aged `enqueued` baseline is
/// NOT reset: starvation aging keeps counting from the original
/// submission, so a retried request outranks fresh traffic of its
/// class.
fn requeue(inner: &Inner, mut p: Pending, backoff: Duration) {
    loop {
        replace(inner, &mut p);
        let device = p.device;
        let pushed = {
            let mut st = inner.state.lock().expect("batch state poisoned");
            if st.shutdown {
                // Too late to requeue: a worker for the new device may
                // already have drained and exited, which would strand
                // the ticket forever. Answer it now instead (resolving
                // refunds the fresh charge).
                let (error, sub_cause) = if st.killed {
                    (REPLICA_KILLED, Some(&inner.metrics.killed))
                } else {
                    ("server shut down during retry", None)
                };
                drop(st);
                settle_failed(inner, p, error, sub_cause);
                return;
            }
            st.batcher.push(p.key(), p, Instant::now() + backoff)
        };
        match pushed {
            Ok(()) => {
                inner.work_cvs[device].notify_all();
                return;
            }
            // Lost a race with another death: place again.
            Err(item) => p = item,
        }
    }
}
