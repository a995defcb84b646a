//! The per-(model, device) request coalescer — pull-mode.
//!
//! [`Batcher`] is a pure data structure (no threads, no channels): the
//! server drives it with wall-clock `Instant`s under a mutex, and the
//! tests drive it with synthetic ones. Requests are *pushed* into
//! per-key FIFO queues and *pulled* out by device workers when a device
//! frees up — the batch is composed at pull time, so a backlogged
//! device grows its batches toward `max_batch` instead of flushing
//! whatever happened to arrive inside a fixed window.
//!
//! Three rules govern a pull:
//!
//! 1. **Due check** — a key may be cut when it holds `max_batch`
//!    requests, or when its oldest request has waited `idle_delay`.
//!    The delay is purely an *idle-latency bound*: it is what flushes a
//!    lone request on an otherwise idle device; it never truncates a
//!    batch that backlog has grown.
//! 2. **Slack ordering** — among due keys of the device, the key whose
//!    head request has the least *effective slack* is cut first, where
//!    `slack = (deadline − now) − estimated execution time` and the
//!    effective value subtracts `aging_factor ×` the head's queueing
//!    age (starvation aging: every waiting request gains urgency at
//!    `1 + aging_factor` per unit of wall time, so a long-waiting
//!    best-effort key eventually outranks fresh interactive traffic).
//! 3. **Cancel adjudication** — each popped item is offered the cut via
//!    [`BatchItem::claim`]; items that refuse (already cancelled) are
//!    returned in [`Cut::cancelled`] and never enter the batch.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Coalescing key: one batch never mixes models or devices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BatchKey {
    /// Model id.
    pub model: usize,
    /// Device id.
    pub device: usize,
}

/// A queued request as the batcher sees it: enough metadata to order
/// keys by slack and to adjudicate cancellation at cut time.
pub trait BatchItem {
    /// Absolute SLO deadline of this request (admission time + its
    /// priority class's budget).
    fn deadline(&self) -> Instant;

    /// Estimated execution time in nanoseconds (the placement charge,
    /// from the pair's compiled latency estimate) — subtracted from the
    /// time-to-deadline to get slack.
    fn est_ns(&self) -> f64;

    /// Called exactly once, at cut time, under the batcher's lock:
    /// return `true` to join the batch, `false` if the request was
    /// cancelled in the meantime (it then lands in [`Cut::cancelled`]
    /// and is never executed). Implementations adjudicate the
    /// cancel-vs-cut race here, e.g. with a compare-and-swap.
    fn claim(&self) -> bool {
        true
    }
}

/// One cut batch.
#[derive(Debug)]
pub struct Batch<T> {
    /// Coalescing key.
    pub key: BatchKey,
    /// Requests in arrival order.
    pub items: Vec<T>,
    /// When the head request of the cut arrived.
    pub opened_at: Instant,
}

/// Result of one pull: the executable batch plus any requests that
/// turned out to be cancelled when claimed. `batch.items` may be empty
/// when every popped request had been cancelled — callers answer the
/// cancelled ones and pull again.
#[derive(Debug)]
pub struct Cut<T> {
    /// The claimed, executable batch (FIFO within its key).
    pub batch: Batch<T>,
    /// Requests dropped at cut time because [`BatchItem::claim`]
    /// refused — cancelled while queued, never to reach a worker.
    pub cancelled: Vec<T>,
}

struct Queued<T> {
    item: T,
    enqueued: Instant,
}

/// Pull-mode batcher over (model, device) keys.
///
/// [`Batcher::push`] enqueues; a device worker asks
/// [`Batcher::next_due`] how long it may sleep and then
/// [`Batcher::pull`]s the most urgent due batch for its device.
/// [`Batcher::pull_any`] ignores the due check (shutdown drain), and
/// [`Batcher::remove_where`] supports eager cancellation of a queued
/// request. The struct holds no threads or channels, which is what
/// makes its invariants property-testable with synthetic clocks.
pub struct Batcher<T> {
    max_batch: usize,
    idle_delay: Duration,
    aging_factor: f64,
    queues: HashMap<BatchKey, VecDeque<Queued<T>>>,
    /// Devices declared dead by [`Batcher::mark_dead`]: their keys hold
    /// no queues and [`Batcher::push`] rejects new work for them so a
    /// request can never queue behind a device that will not pull.
    dead: HashSet<usize>,
}

impl<T> Batcher<T> {
    /// Batcher cutting at most `max_batch` requests (≥ 1) per batch,
    /// with `idle_delay` as the idle-latency bound and an aging factor
    /// of 4.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, idle_delay: Duration) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Batcher {
            max_batch,
            idle_delay,
            aging_factor: 4.0,
            queues: HashMap::new(),
            dead: HashSet::new(),
        }
    }

    /// Replaces the starvation-aging factor (builder style): each
    /// nanosecond a head request has queued subtracts `aging_factor`
    /// nanoseconds from its effective slack. Zero disables aging
    /// (pure slack ordering).
    #[must_use]
    pub fn with_aging_factor(mut self, aging_factor: f64) -> Self {
        self.aging_factor = aging_factor;
        self
    }

    /// Requests currently queued across all keys.
    pub fn pending(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Requests currently queued for one device.
    pub fn pending_for(&self, device: usize) -> usize {
        self.queues.iter().filter(|(k, _)| k.device == device).map(|(_, q)| q.len()).sum()
    }

    /// Enqueues a request at the tail of its key's FIFO queue. Nothing
    /// is cut here — batches are composed when a worker pulls.
    ///
    /// Pushing for a device previously declared dead by
    /// [`Batcher::mark_dead`] is rejected, handing the item back as
    /// `Err` so the caller can re-place it on a live device. (Before
    /// this rejection path existed, such a push queued the request
    /// behind a worker that would never pull — it waited forever.)
    ///
    /// `now` may lie in the future: a retried request is re-enqueued
    /// with `now + backoff`, which delays its key's due time by the
    /// backoff without needing timer machinery — the due check measures
    /// age from `enqueued`.
    pub fn push(&mut self, key: BatchKey, item: T, now: Instant) -> Result<(), T> {
        if self.dead.contains(&key.device) {
            return Err(item);
        }
        self.queues.entry(key).or_default().push_back(Queued { item, enqueued: now });
        Ok(())
    }

    /// Declares a device dead: every request queued for it is drained
    /// and returned (grouped per key, FIFO within each key, keys in
    /// ascending model order so callers re-place deterministically), and
    /// future [`Batcher::push`]es for the device are rejected.
    pub fn mark_dead(&mut self, device: usize) -> Vec<(BatchKey, Vec<T>)> {
        self.dead.insert(device);
        self.drain_where(|k| k.device == device)
    }

    /// Drains every queued request of every device (replica kill),
    /// grouped per key — FIFO within each key, keys sorted by
    /// (device, model) so the caller resolves them deterministically.
    pub fn drain_all(&mut self) -> Vec<(BatchKey, Vec<T>)> {
        self.drain_where(|_| true)
    }

    fn drain_where(&mut self, pred: impl Fn(&BatchKey) -> bool) -> Vec<(BatchKey, Vec<T>)> {
        let mut keys: Vec<BatchKey> = self.queues.keys().filter(|k| pred(k)).copied().collect();
        keys.sort_by_key(|k| (k.device, k.model));
        keys.into_iter()
            .map(|k| {
                let q = self.queues.remove(&k).expect("key just listed");
                (k, q.into_iter().map(|e| e.item).collect())
            })
            .collect()
    }

    /// Removes the first queued request of `key` matching `pred`
    /// (eager cancellation of a queued request). Returns `None` when no
    /// queued request matches — the request was already cut or served.
    pub fn remove_where(&mut self, key: BatchKey, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let q = self.queues.get_mut(&key)?;
        let pos = q.iter().position(|e| pred(&e.item))?;
        let removed = q.remove(pos).expect("position just found").item;
        if q.is_empty() {
            self.queues.remove(&key);
        }
        Some(removed)
    }

    /// Time until some key of `device` becomes due, or `None` when the
    /// device has nothing queued. Zero when a cut is owed right now.
    pub fn next_due(&self, device: usize, now: Instant) -> Option<Duration> {
        self.queues
            .iter()
            .filter(|(k, q)| k.device == device && !q.is_empty())
            .map(|(_, q)| {
                if q.len() >= self.max_batch {
                    Duration::ZERO
                } else {
                    let head = q.front().expect("non-empty queue");
                    (head.enqueued + self.idle_delay).saturating_duration_since(now)
                }
            })
            .min()
    }

    fn key_due(&self, q: &VecDeque<Queued<T>>, now: Instant) -> bool {
        q.len() >= self.max_batch
            || q.front()
                .is_some_and(|head| now.saturating_duration_since(head.enqueued) >= self.idle_delay)
    }
}

/// Signed `a − b` in nanoseconds.
fn signed_ns(a: Instant, b: Instant) -> f64 {
    if a >= b {
        a.duration_since(b).as_nanos() as f64
    } else {
        -(b.duration_since(a).as_nanos() as f64)
    }
}

impl<T: BatchItem> Batcher<T> {
    /// Effective slack of a key's head request: time-to-deadline minus
    /// the execution estimate, minus `aging_factor ×` queueing age.
    fn eff_slack_ns(&self, head: &Queued<T>, now: Instant) -> f64 {
        let slack = signed_ns(head.item.deadline(), now) - head.item.est_ns();
        slack - self.aging_factor * signed_ns(now, head.enqueued).max(0.0)
    }

    /// Cuts the most urgent due batch for `device`, or `None` when no
    /// key of the device is due yet (ask [`Batcher::next_due`] how long
    /// to wait). See the module docs for the due check, the slack
    /// ordering, and cancel adjudication.
    pub fn pull(&mut self, device: usize, now: Instant) -> Option<Cut<T>> {
        self.pull_inner(device, now, false)
    }

    /// Cuts the most urgent batch for `device` whether or not it is due
    /// — the shutdown drain, where waiting out the idle-latency bound
    /// would only delay the final responses.
    pub fn pull_any(&mut self, device: usize, now: Instant) -> Option<Cut<T>> {
        self.pull_inner(device, now, true)
    }

    fn pull_inner(&mut self, device: usize, now: Instant, force: bool) -> Option<Cut<T>> {
        let key = self
            .queues
            .iter()
            .filter(|(k, q)| k.device == device && !q.is_empty() && (force || self.key_due(q, now)))
            .min_by(|(_, a), (_, b)| {
                let (a, b) = (a.front().expect("non-empty"), b.front().expect("non-empty"));
                self.eff_slack_ns(a, now).total_cmp(&self.eff_slack_ns(b, now))
            })
            .map(|(&k, _)| k)?;
        let q = self.queues.get_mut(&key).expect("key just selected");
        let opened_at = q.front().expect("non-empty queue").enqueued;
        let mut items = Vec::new();
        let mut cancelled = Vec::new();
        while items.len() < self.max_batch {
            let Some(entry) = q.pop_front() else { break };
            if entry.item.claim() {
                items.push(entry.item);
            } else {
                cancelled.push(entry.item);
            }
        }
        if q.is_empty() {
            self.queues.remove(&key);
        }
        Some(Cut { batch: Batch { key, items, opened_at }, cancelled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const DELAY: Duration = Duration::from_millis(4);

    /// Test item: deadline offset + estimate + optional cancel flag.
    #[derive(Debug)]
    struct It {
        id: u64,
        deadline: Instant,
        est_ns: f64,
        cancelled: Option<Arc<AtomicBool>>,
    }

    impl BatchItem for It {
        fn deadline(&self) -> Instant {
            self.deadline
        }
        fn est_ns(&self) -> f64 {
            self.est_ns
        }
        fn claim(&self) -> bool {
            self.cancelled.as_ref().is_none_or(|c| !c.load(Ordering::SeqCst))
        }
    }

    fn it(id: u64, deadline: Instant) -> It {
        It { id, deadline, est_ns: 0.0, cancelled: None }
    }

    fn key(model: usize, device: usize) -> BatchKey {
        BatchKey { model, device }
    }

    fn ids(batch: &Batch<It>) -> Vec<u64> {
        batch.items.iter().map(|i| i.id).collect()
    }

    #[test]
    fn idle_device_waits_out_the_latency_bound() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        b.push(key(0, 0), it(1, t0 + DELAY * 10), t0).unwrap();
        assert!(b.pull(0, t0).is_none(), "not due yet");
        assert_eq!(b.next_due(0, t0), Some(DELAY));
        let cut = b.pull(0, t0 + DELAY).expect("due at the idle-latency bound");
        assert_eq!(ids(&cut.batch), vec![1]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn full_key_is_due_immediately() {
        let mut b: Batcher<It> = Batcher::new(3, DELAY);
        let t0 = Instant::now();
        for i in 0..3 {
            b.push(key(0, 0), it(i, t0 + DELAY), t0).unwrap();
        }
        assert_eq!(b.next_due(0, t0), Some(Duration::ZERO));
        let cut = b.pull(0, t0).expect("size-due");
        assert_eq!(ids(&cut.batch), vec![0, 1, 2]);
    }

    #[test]
    fn backlog_grows_batches_up_to_max_batch() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        // 20 requests trickle in at 1 ms apart while the device is busy.
        for i in 0..20 {
            b.push(key(0, 0), it(i, t0 + DELAY * 100), t0 + Duration::from_millis(i)).unwrap();
        }
        let late = t0 + Duration::from_millis(40);
        let cut = b.pull(0, late).expect("long overdue");
        assert_eq!(cut.batch.items.len(), 8, "pull takes the grown backlog");
        assert_eq!(ids(&cut.batch), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn due_keys_cut_in_slack_order() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY).with_aging_factor(0.0);
        let t0 = Instant::now();
        // Same device, two models: the long-deadline key arrived first,
        // the short-deadline key is more urgent.
        b.push(key(0, 0), it(1, t0 + Duration::from_millis(500)), t0).unwrap();
        b.push(key(1, 0), it(2, t0 + Duration::from_millis(20)), t0).unwrap();
        let now = t0 + DELAY;
        let first = b.pull(0, now).expect("both due");
        assert_eq!(first.batch.key, key(1, 0), "least slack cuts first");
        let second = b.pull(0, now).expect("other key still due");
        assert_eq!(second.batch.key, key(0, 0));
    }

    #[test]
    fn aging_lets_a_starving_key_outrank_fresh_traffic() {
        let mut b: Batcher<It> = Batcher::new(2, DELAY).with_aging_factor(4.0);
        let t0 = Instant::now();
        let victim_deadline = t0 + Duration::from_millis(100);
        b.push(key(9, 0), it(999, victim_deadline), t0).unwrap();
        let mut now = t0;
        let mut hot = 0u64;
        for round in 0..200 {
            now += Duration::from_millis(1);
            // Keep the hot key full (size-due) with fresh 10 ms-deadline
            // interactive traffic.
            for _ in 0..2 {
                b.push(key(0, 0), it(hot, now + Duration::from_millis(10)), now).unwrap();
                hot += 1;
            }
            let cut = b.pull(0, now).expect("hot key is always due");
            if cut.batch.key == key(9, 0) {
                assert!(round > 2, "victim should wait at least a little");
                return;
            }
        }
        panic!("starving key was never cut despite aging");
    }

    #[test]
    fn cancelled_items_are_dropped_at_cut_time() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        let flag = Arc::new(AtomicBool::new(false));
        b.push(key(0, 0), it(1, t0 + DELAY), t0).unwrap();
        b.push(
            key(0, 0),
            It { id: 2, deadline: t0 + DELAY, est_ns: 0.0, cancelled: Some(Arc::clone(&flag)) },
            t0,
        )
        .unwrap();
        b.push(key(0, 0), it(3, t0 + DELAY), t0).unwrap();
        flag.store(true, Ordering::SeqCst);
        let cut = b.pull(0, t0 + DELAY).expect("due");
        assert_eq!(ids(&cut.batch), vec![1, 3]);
        assert_eq!(cut.cancelled.len(), 1);
        assert_eq!(cut.cancelled[0].id, 2);
    }

    #[test]
    fn remove_where_supports_eager_cancellation() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        b.push(key(0, 0), it(1, t0 + DELAY), t0).unwrap();
        b.push(key(0, 0), it(2, t0 + DELAY), t0).unwrap();
        let removed = b.remove_where(key(0, 0), |i| i.id == 1).expect("queued");
        assert_eq!(removed.id, 1);
        assert!(b.remove_where(key(0, 0), |i| i.id == 1).is_none(), "already removed");
        assert_eq!(b.pending(), 1);
        let cut = b.pull(0, t0 + DELAY).expect("due");
        assert_eq!(ids(&cut.batch), vec![2]);
    }

    #[test]
    fn pull_any_drains_without_waiting() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        b.push(key(0, 0), it(1, t0 + DELAY * 10), t0).unwrap();
        b.push(key(1, 1), it(2, t0 + DELAY * 10), t0).unwrap();
        assert!(b.pull(0, t0).is_none(), "not due");
        let cut = b.pull_any(0, t0).expect("drain ignores the due check");
        assert_eq!(ids(&cut.batch), vec![1]);
        assert_eq!(b.pending_for(0), 0);
        assert_eq!(b.pending_for(1), 1, "other devices untouched");
    }

    #[test]
    fn push_to_a_dead_device_is_rejected_not_queued_forever() {
        // Regression: before the dead set existed, a push racing a
        // device death queued the request behind a worker that would
        // never pull again — it waited forever. The push must hand the
        // item back instead.
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        b.push(key(0, 0), it(1, t0 + DELAY), t0).unwrap();
        b.push(key(1, 0), it(2, t0 + DELAY), t0).unwrap();
        b.push(key(0, 1), it(3, t0 + DELAY), t0).unwrap();
        let drained = b.mark_dead(0);
        let drained_ids: Vec<(usize, Vec<u64>)> = drained
            .iter()
            .map(|(k, items)| (k.model, items.iter().map(|i| i.id).collect()))
            .collect();
        assert_eq!(drained_ids, vec![(0, vec![1]), (1, vec![2])], "drained per key, model order");
        assert_eq!(b.pending_for(0), 0);
        assert_eq!(b.pending_for(1), 1, "other devices keep their queues");
        let rejected = b.push(key(0, 0), it(4, t0 + DELAY), t0).unwrap_err();
        assert_eq!(rejected.id, 4, "the item comes back for re-placement");
        assert_eq!(b.pending_for(0), 0, "nothing queued behind the dead device");
    }

    #[test]
    fn future_enqueue_time_delays_the_due_check() {
        // Retry backoff re-enqueues with `now + backoff`: the key must
        // not become due until the backoff has elapsed.
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        let backoff = Duration::from_millis(10);
        b.push(key(0, 0), it(1, t0 + DELAY * 100), t0 + backoff).unwrap();
        assert!(b.pull(0, t0 + DELAY).is_none(), "backoff not elapsed");
        assert_eq!(b.next_due(0, t0), Some(backoff + DELAY));
        let cut = b.pull(0, t0 + backoff + DELAY).expect("due after backoff + idle delay");
        assert_eq!(ids(&cut.batch), vec![1]);
    }

    #[test]
    fn drain_all_empties_every_device_in_order() {
        let mut b: Batcher<It> = Batcher::new(8, DELAY);
        let t0 = Instant::now();
        b.push(key(1, 1), it(1, t0 + DELAY), t0).unwrap();
        b.push(key(0, 0), it(2, t0 + DELAY), t0).unwrap();
        b.push(key(0, 1), it(3, t0 + DELAY), t0).unwrap();
        b.push(key(0, 0), it(4, t0 + DELAY), t0).unwrap();
        let drained = b.drain_all();
        let drained_ids: Vec<((usize, usize), Vec<u64>)> = drained
            .iter()
            .map(|(k, items)| ((k.device, k.model), items.iter().map(|i| i.id).collect()))
            .collect();
        assert_eq!(
            drained_ids,
            vec![((0, 0), vec![2, 4]), ((1, 0), vec![3]), ((1, 1), vec![1])],
            "sorted by (device, model), FIFO within key"
        );
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn devices_pull_independently() {
        let mut b: Batcher<It> = Batcher::new(2, DELAY);
        let t0 = Instant::now();
        b.push(key(0, 0), it(1, t0 + DELAY), t0).unwrap();
        b.push(key(0, 1), it(2, t0 + DELAY), t0).unwrap();
        b.push(key(0, 0), it(3, t0 + DELAY), t0).unwrap();
        let cut = b.pull(0, t0).expect("device 0 size-due");
        assert_eq!(ids(&cut.batch), vec![1, 3]);
        assert!(b.pull(1, t0).is_none(), "device 1 not due yet");
        assert_eq!(b.pending_for(1), 1);
    }
}
