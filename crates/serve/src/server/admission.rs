//! Admission: validate, shed, place and charge, stamp the deadline,
//! mint the ticket, and push into the bounded queue.

use super::lifecycle::{CancelCell, CancelHandle, Pending};
use super::stats::{record_fault, record_recovery};
use super::{Inner, Server};
use crate::request::{InferenceRequest, Priority, SubmitError, Ticket};
use smartmem_sim::FaultKind;
use smartmem_telemetry::{now_ns, TraceId};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Places a request of `model` whose estimate row is scaled by its
/// decode step count, without mutating the shared row. The common
/// single-shot path (`steps <= 1`) skips the allocation.
fn place_scaled(inner: &Inner, model: usize, steps: u32, class: Priority) -> (usize, u64) {
    let estimates_ns = &inner.estimates[model];
    if steps <= 1 {
        return inner.pool.place(estimates_ns, class);
    }
    let scaled: Vec<f64> = estimates_ns.iter().map(|e| e * f64::from(steps)).collect();
    inner.pool.place(&scaled, class)
}

/// Moves a request to a fresh placement among the alive devices (the
/// pool always keeps at least one): refunds the charge of the placement
/// that fell through — its device died, or the attempt on it failed —
/// and charges the new one.
pub(super) fn replace(inner: &Inner, p: &mut Pending) {
    inner.pool.discharge(p.device, p.est_ns, p.class);
    (p.device, p.est_ns) = place_scaled(inner, p.model, p.steps, p.class);
}

impl Server {
    /// Submits with backpressure: blocks while the bounded queue is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] for unknown model/device ids or a
    /// shutting-down server.
    pub fn submit(&self, req: InferenceRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(req, true)
    }

    /// Submits without blocking, shedding load when the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when admission control
    /// rejects the request, or the same errors as [`Server::submit`].
    pub fn try_submit(&self, req: InferenceRequest) -> Result<Ticket, SubmitError> {
        self.submit_inner(req, false)
    }

    fn submit_inner(&self, req: InferenceRequest, block: bool) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        let (mut pending, ticket) = self.admit(req)?;
        let class = pending.class;
        let mut device;
        {
            let mut st = inner.state.lock().expect("batch state poisoned");
            loop {
                if st.shutdown {
                    inner.pool.discharge(pending.device, pending.est_ns, class);
                    return Err(SubmitError::ShuttingDown);
                }
                if st.batcher.pending() >= inner.config.queue_capacity {
                    if !block {
                        inner.pool.discharge(pending.device, pending.est_ns, class);
                        inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(SubmitError::QueueFull);
                    }
                    st = inner.space_cv.wait(st).expect("batch state poisoned");
                    continue;
                }
                device = pending.device;
                match st.batcher.push(pending.key(), pending, Instant::now()) {
                    Ok(()) => break,
                    // The placed device died between admit and push.
                    Err(p) => {
                        pending = p;
                        replace(inner, &mut pending);
                    }
                }
            }
            // Counted before the lock drops: a size-due request can be
            // cut and completed the instant the lock is released, and
            // `submitted >= completed + failed + cancelled` must hold
            // in every stats() snapshot.
            inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            inner.metrics.per_class[class.index()].submitted.fetch_add(1, Ordering::Relaxed);
        }
        inner.work_cvs[device].notify_all();
        Ok(ticket)
    }

    /// Validates, places, and charges a request; builds its ticket.
    fn admit(&self, req: InferenceRequest) -> Result<(Pending, Ticket), SubmitError> {
        let inner = &self.inner;
        if req.model >= inner.models.len() {
            return Err(SubmitError::UnknownModel(req.model));
        }
        if let Some(d) = req.device {
            if d >= inner.pool.len() {
                return Err(SubmitError::UnknownDevice(d));
            }
        }
        // Admission shedding happens before any charge: a shed request
        // must leave zero trace in the scheduler's accounts.
        if inner.config.admission.enabled {
            let best = inner.pool.best_completion_ns(&inner.estimates[req.model]);
            let budget_ns = inner.config.deadlines.interactive.as_nanos() as f64;
            let slack = (budget_ns - best).clamp(i64::MIN as f64, i64::MAX as f64) as i64;
            if inner.config.admission.should_shed(req.priority, slack) {
                inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                let args = [("class", req.priority.index() as f64), ("slack_ns", slack as f64)];
                record_recovery(inner, "shed", TraceId::NONE, 0, &args);
                return Err(SubmitError::Shed);
            }
        }
        // A decode request occupies the device for `steps` iterations,
        // so its placement charge — and therefore the batcher's slack —
        // scales with the step count.
        let steps_charge = f64::from(req.decode_steps.max(1));
        let (device, est_ns) = match req.device {
            // A device pinned dead falls back to scheduler placement —
            // pinning is an affinity hint, not a suicide pact.
            Some(d) if inner.pool.is_alive(d) => {
                let est = (inner.estimates[req.model][d] * steps_charge).max(0.0) as u64;
                inner.pool.charge(d, est, req.priority);
                (d, est)
            }
            _ => place_scaled(inner, req.model, req.decode_steps, req.priority),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tag = req.tag.unwrap_or(id);
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        // The request's trace identity is minted here, at admission —
        // everything downstream (queue, batch cut, compile, execute)
        // tags its spans with it. Unsampled (and telemetry-off)
        // requests carry NONE and never touch the recorder again.
        let tracer = &inner.tracer;
        let (trace, submit_ns) = match tracer.mint() {
            Some(trace) => (trace, now_ns()),
            None => (TraceId::NONE, 0),
        };
        // A clock-skew fault tightens the deadline by the configured
        // skew: downstream (slack ordering, SLO accounting) sees a
        // request whose clock disagrees with the server's.
        let mut budget = inner.config.deadlines.budget(req.priority);
        if let Some(plan) = &inner.config.fault_plan {
            if plan.fault_for(FaultKind::ClockSkew, tag) {
                budget = budget.saturating_sub(plan.skew());
                record_fault(inner, FaultKind::ClockSkew, TraceId::NONE, 0);
            }
        }
        let cell = Arc::new(CancelCell::new());
        let pending = Pending {
            id,
            model: req.model,
            device,
            class: req.priority,
            deadline: submitted + budget,
            est_ns,
            submitted,
            trace,
            submit_ns,
            attempts: 0,
            tag,
            steps: req.decode_steps,
            cell: Arc::clone(&cell),
            tx,
        };
        let cancel = CancelHandle { cell, id, model: req.model, inner: Arc::downgrade(inner) };
        Ok((pending, Ticket { id, rx, cancel }))
    }
}
