//! The request lifecycle: [`CancelCell`] is the only code that knows
//! the QUEUED / CLAIMED / CANCELLED protocol and [`resolve`] the only
//! code that answers a ticket (state diagram: "Request states" in
//! `docs/ARCHITECTURE.md`). Of a racing claim and cancel exactly one
//! wins the cell, and whoever holds the [`Pending`] off-queue — the
//! cutter that popped it, the cancel that unqueued it, the recovery
//! path carrying it to a new device — answers it.

use super::Inner;
use crate::batcher::{BatchItem, BatchKey};
use crate::request::{InferenceResponse, Priority};
use smartmem_telemetry::{now_ns, TraceId};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Weak};
use std::time::Instant;

const QUEUED: u8 = 0;
const CLAIMED: u8 = 1;
const CANCELLED: u8 = 2;

/// The protocol state of one request. Every transition is a
/// compare-and-swap from the one state it is legal in; from any other
/// state it fails and changes nothing.
pub(super) struct CancelCell {
    state: AtomicU8,
}

impl CancelCell {
    pub(super) fn new() -> Self {
        CancelCell { state: AtomicU8::new(QUEUED) }
    }

    fn transition(&self, from: u8, to: u8) -> bool {
        self.state.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// QUEUED → CLAIMED: the caller now owns the request and must run
    /// or fail it; no cancel can win any more.
    pub(super) fn try_claim(&self) -> bool {
        self.transition(QUEUED, CLAIMED)
    }

    /// QUEUED → CANCELLED: the request will never execute.
    pub(super) fn try_cancel(&self) -> bool {
        self.transition(QUEUED, CANCELLED)
    }

    /// CLAIMED → QUEUED: a failed attempt hands the request back so the
    /// next cut can claim it again — and a cancel can win again while
    /// it waits. Returns `false` iff a cancel already won (a no-op then,
    /// as from QUEUED).
    pub(super) fn release(&self) -> bool {
        self.transition(CLAIMED, QUEUED) || !self.is_cancelled()
    }

    pub(super) fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) == CANCELLED
    }
}

/// Clonable handle that revokes a queued request (from
/// [`Ticket::cancel_handle`](crate::Ticket::cancel_handle)).
///
/// [`CancelHandle::cancel`] adjudicates the race against batch cutting
/// with a compare-and-swap: when it returns `true`, the request is
/// guaranteed never to execute — it is removed from the queue (or, if a
/// worker pops it first, dropped at batch-cut time), its scheduler
/// charge is refunded, its ticket resolves with
/// [`InferenceResponse::cancelled`] set, and it counts in
/// [`ServeStats::cancelled`](crate::ServeStats::cancelled). When it
/// returns `false`, the request was already claimed for a batch (or
/// already answered) and will run.
///
/// ```
/// use smartmem_serve::{InferenceRequest, ModelSpec, ServeConfig, Server};
/// use smartmem_sim::DeviceConfig;
/// use smartmem_ir::{DType, GraphBuilder};
/// use std::time::Duration;
///
/// let mut b = GraphBuilder::new("toy");
/// let x = b.input("x", &[1, 16, 32], DType::F16);
/// let w = b.weight("w", &[32, 32], DType::F16);
/// let mm = b.matmul(x, w);
/// b.output(mm);
/// // A long idle delay keeps the lone request queued until we cancel.
/// let config = ServeConfig { max_delay: Duration::from_secs(5), ..ServeConfig::default() };
/// let server = Server::start(
///     vec![ModelSpec::new("toy", b.finish())],
///     vec![DeviceConfig::apple_m1()],
///     config,
/// );
/// let ticket = server.submit(InferenceRequest::new(0)).unwrap();
/// let handle = ticket.cancel_handle();
/// assert!(handle.cancel(), "still queued: cancellation wins");
/// assert!(!handle.cancel(), "second cancel is a no-op");
/// let response = ticket.wait();
/// assert!(response.cancelled);
/// let stats = server.shutdown();
/// assert_eq!((stats.cancelled, stats.completed), (1, 0));
/// ```
#[derive(Clone)]
pub struct CancelHandle {
    pub(super) cell: Arc<CancelCell>,
    pub(super) id: u64,
    /// The request's model never changes; its device can (re-placement
    /// on a dead device or a retry), so the eager removal looks the
    /// request up under every device of this model.
    pub(super) model: usize,
    pub(super) inner: Weak<Inner>,
}

impl CancelHandle {
    /// Attempts to cancel the request; returns `true` iff cancellation
    /// won (the request will never execute). Safe to call from any
    /// thread, any number of times.
    pub fn cancel(&self) -> bool {
        if !self.cell.try_cancel() {
            return false;
        }
        // The CAS settled it: no worker will ever claim this request.
        // Eagerly unqueue and answer it; if someone else holds it
        // off-queue (a cutter, a retry in flight), their failed claim
        // routes it through their cancelled path instead.
        if let Some(inner) = self.inner.upgrade() {
            let removed = {
                let mut st = inner.state.lock().expect("batch state poisoned");
                (0..inner.pool.len()).find_map(|device| {
                    let key = BatchKey { model: self.model, device };
                    st.batcher.remove_where(key, |p: &Pending| p.id == self.id)
                })
            };
            if let Some(p) = removed {
                inner.space_cv.notify_all();
                resolve(&inner, p, Terminal::Cancelled);
            }
        }
        true
    }

    /// Whether a `cancel` call already won for this request.
    pub fn is_cancelled(&self) -> bool {
        self.cell.is_cancelled()
    }
}

/// One accepted request riding through batcher, worker, and recovery.
pub(super) struct Pending {
    pub(super) id: u64,
    pub(super) model: usize,
    pub(super) device: usize,
    pub(super) class: Priority,
    pub(super) deadline: Instant,
    pub(super) est_ns: u64,
    pub(super) submitted: Instant,
    /// Span-recorder identity: [`TraceId::NONE`] unless this request
    /// was sampled at admission.
    pub(super) trace: TraceId,
    /// Admission timestamp on the telemetry clock (0 when unsampled).
    pub(super) submit_ns: u64,
    /// Failed execution attempts so far (0 = never tried). Incremented
    /// on every transient failure; bounded by `RetryPolicy::budget`.
    pub(super) attempts: u32,
    /// Stable fault-injection identity: `InferenceRequest::tag` or the
    /// server-assigned id. Survives retries and re-placements, so a
    /// `FaultPlan` curse follows the request wherever it goes.
    pub(super) tag: u64,
    /// Decode iterations (`InferenceRequest::decode_steps`; `0` = an
    /// ordinary inference). `est_ns` already includes the `×steps`
    /// charge; the batch executor multiplies device time by the largest
    /// step count in the batch.
    pub(super) steps: u32,
    pub(super) cell: Arc<CancelCell>,
    pub(super) tx: Sender<InferenceResponse>,
}

impl Pending {
    /// The batcher key of the current placement.
    pub(super) fn key(&self) -> BatchKey {
        BatchKey { model: self.model, device: self.device }
    }
}

impl BatchItem for Pending {
    fn deadline(&self) -> Instant {
        self.deadline
    }

    fn est_ns(&self) -> f64 {
        self.est_ns as f64
    }

    fn claim(&self) -> bool {
        self.cell.try_claim()
    }
}

/// What one executed batch shares among the answers of its members.
pub(super) struct BatchRun {
    pub(super) size: usize,
    /// Simulated device time of the whole batch.
    pub(super) exec_ms: f64,
    pub(super) exec_start: Instant,
    /// The cut on the telemetry clock (0 with tracing off): every
    /// member's queue span ends — and its execute span starts — here.
    pub(super) cut_ns: u64,
}

/// How a request ends.
pub(super) enum Terminal<'a> {
    /// Rode `batch`; `error` is a terminal compilation error (retrying
    /// cannot fix a graph the framework rejects).
    Executed { batch: &'a BatchRun, cache_hit: bool, error: Option<String> },
    /// Never ran to an answer; the caller holds the claim. `sub_cause`
    /// is the `killed` / `retry_exhausted` counter it belongs to, if any.
    Failed { error: &'a str, sub_cause: Option<&'a AtomicU64> },
    /// A cancel won the cell.
    Cancelled,
}

/// Answers a request exactly once: refunds its scheduler charge, counts
/// its terminal (and SLO violation), closes its spans, and sends the
/// response. The caller is the sole holder of `p` and has settled the
/// cell — CLAIMED for `Executed`/`Failed`, CANCELLED for `Cancelled`.
pub(super) fn resolve(inner: &Inner, p: Pending, terminal: Terminal<'_>) {
    inner.pool.discharge(p.device, p.est_ns, p.class);
    let cancelled = matches!(terminal, Terminal::Cancelled);
    let (batch, cache_hit, error, sub_cause) = match terminal {
        Terminal::Executed { batch, cache_hit, error } => (Some(batch), cache_hit, error, None),
        Terminal::Failed { error, sub_cause } => (None, false, Some(error.to_string()), sub_cause),
        Terminal::Cancelled => (None, false, None, None),
    };
    let queue = batch.map(|b| b.exec_start.saturating_duration_since(p.submitted));

    let m = &inner.metrics;
    let class = &m.per_class[p.class.index()];
    let (total, of_class) = if cancelled {
        (&m.cancelled, &class.cancelled)
    } else if error.is_some() {
        (&m.failed, &class.failed)
    } else {
        (&m.completed, &class.completed)
    };
    total.fetch_add(1, Ordering::Relaxed);
    of_class.fetch_add(1, Ordering::Relaxed);
    // Attributions are counted after the terminal they are a subset of
    // (`Server::stats` reads them in the opposite order).
    if let Some(sub_cause) = sub_cause {
        sub_cause.fetch_add(1, Ordering::Relaxed);
    }
    if batch.is_some() && error.is_none() {
        if p.steps > 0 {
            m.decode_tokens.fetch_add(u64::from(p.steps), Ordering::Relaxed);
        }
        if p.attempts > 0 {
            m.recovered.fetch_add(1, Ordering::Relaxed);
        }
    }
    if !cancelled && Instant::now() > p.deadline {
        class.slo_violations.fetch_add(1, Ordering::Relaxed);
    }

    if p.trace != TraceId::NONE {
        let tracer = &inner.tracer;
        let lane = p.device as u64;
        let end_ns = now_ns();
        let complete = |name: &str, start_ns: u64, end_ns: u64, args: &[(&str, f64)]| {
            let dur_ns = end_ns.saturating_sub(start_ns);
            let args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            tracer.record_complete(name, "serve", p.trace, start_ns, dur_ns, lane, args);
        };
        match batch {
            // The sampled request's full story: queue (submit → cut),
            // execute (cut → answer, compile nested inside), and the
            // end-to-end request envelope.
            Some(batch) => {
                let class = ("class", p.class.index() as f64);
                complete("queue", p.submit_ns, batch.cut_ns, &[class]);
                complete("execute", batch.cut_ns, end_ns, &[("batch_size", batch.size as f64)]);
                let hit = ("cache_hit", f64::from(cache_hit));
                complete("request", p.submit_ns, end_ns, &[class, hit]);
            }
            // A request that never rode a batch queued until now.
            None => {
                complete("queue", p.submit_ns, end_ns, &[]);
                let name = if cancelled { "cancelled" } else { "failed" };
                tracer.record_instant(name, "serve", p.trace, lane, vec![]);
            }
        }
    }

    let wall_ms = p.submitted.elapsed().as_secs_f64() * 1e3;
    let response = InferenceResponse {
        request_id: p.id,
        completion_seq: m.completion_seq.fetch_add(1, Ordering::Relaxed),
        model: inner.models[p.model].name.clone(),
        device: inner.pool.device(p.device).name.clone(),
        priority: p.class,
        cancelled,
        batch_size: batch.map_or(0, |b| b.size),
        queue_ms: queue.map_or(wall_ms, |q| q.as_secs_f64() * 1e3),
        exec_ms: batch.map_or(0.0, |b| b.exec_ms),
        wall_ms,
        compile_cache_hit: cache_hit,
        retries: p.attempts,
        error,
    };
    // A dropped ticket just means nobody is listening.
    let _ = p.tx.send(response);
}

/// Claim or concede: answers a request its holder cannot run as failed
/// — unless a cancel already won the cell, in which case the holder
/// answers it cancelled. Returns whether the failure stood.
pub(super) fn settle_failed(
    inner: &Inner,
    p: Pending,
    error: &str,
    sub_cause: Option<&AtomicU64>,
) -> bool {
    let claimed = p.claim();
    let terminal =
        if claimed { Terminal::Failed { error, sub_cause } } else { Terminal::Cancelled };
    resolve(inner, p, terminal);
    claimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type Step = fn(&CancelCell) -> bool;

    fn state(cell: &CancelCell) -> u8 {
        cell.state.load(Ordering::Acquire)
    }

    /// A cell driven into `target` through the public transitions only.
    fn cell_in(target: u8) -> CancelCell {
        let cell = CancelCell::new();
        match target {
            QUEUED => {}
            CLAIMED => assert!(cell.try_claim()),
            _ => assert!(cell.try_cancel()),
        }
        assert_eq!(state(&cell), target);
        cell
    }

    #[test]
    fn transition_table_is_exhaustive() {
        // (operation, from, returns, resulting state)
        let table: [(&str, Step, u8, bool, u8); 9] = [
            ("try_claim", CancelCell::try_claim, QUEUED, true, CLAIMED),
            ("try_claim", CancelCell::try_claim, CLAIMED, false, CLAIMED),
            ("try_claim", CancelCell::try_claim, CANCELLED, false, CANCELLED),
            ("try_cancel", CancelCell::try_cancel, QUEUED, true, CANCELLED),
            ("try_cancel", CancelCell::try_cancel, CLAIMED, false, CLAIMED),
            ("try_cancel", CancelCell::try_cancel, CANCELLED, false, CANCELLED),
            ("release", CancelCell::release, QUEUED, true, QUEUED),
            ("release", CancelCell::release, CLAIMED, true, QUEUED),
            ("release", CancelCell::release, CANCELLED, false, CANCELLED),
        ];
        for (name, op, from, returns, to) in table {
            let cell = cell_in(from);
            assert_eq!(op(&cell), returns, "{name} from state {from}");
            assert_eq!(state(&cell), to, "{name} from state {from}");
            assert_eq!(cell.is_cancelled(), to == CANCELLED);
        }
    }

    #[test]
    fn a_released_request_can_be_cancelled_or_claimed_again() {
        let cell = cell_in(CLAIMED);
        assert!(cell.release());
        assert!(cell.try_cancel(), "a cancel wins again while the retry waits");
        assert!(!cell.release(), "release never resurrects a cancelled request");
        assert!(cell.is_cancelled());

        let cell = cell_in(CLAIMED);
        assert!(cell.release());
        assert!(cell.try_claim(), "the next cut claims the retried request");
        assert!(!cell.try_cancel());
    }

    #[test]
    fn racing_claim_and_cancel_have_exactly_one_winner() {
        const ROUNDS: usize = 10_000;
        let cells: Vec<CancelCell> = (0..ROUNDS).map(|_| CancelCell::new()).collect();
        // Both threads meet at the barrier before every cell, so each
        // round is a genuine two-sided race on a fresh cell.
        let barrier = Barrier::new(2);
        let run = |op: Step| -> Vec<bool> {
            cells
                .iter()
                .map(|cell| {
                    barrier.wait();
                    op(cell)
                })
                .collect()
        };
        let (claimed, cancelled) = std::thread::scope(|scope| {
            let claimer = scope.spawn(|| run(CancelCell::try_claim));
            let canceller = scope.spawn(|| run(CancelCell::try_cancel));
            (claimer.join().expect("claimer"), canceller.join().expect("canceller"))
        });
        for (round, cell) in cells.iter().enumerate() {
            assert!(claimed[round] != cancelled[round], "round {round}: exactly one side wins");
            assert_eq!(cell.is_cancelled(), cancelled[round], "round {round}");
        }
    }
}
