//! The span recorder: per-request [`TraceId`]s, per-thread bounded
//! span logs, and sampling.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when off.** A disabled tracer's record path is one
//!    relaxed atomic load and a branch; no allocation, no lock, no
//!    timestamp read. Serving with telemetry off must cost nothing
//!    measurable.
//! 2. **Lock-minimal when on.** Each recording thread appends into its
//!    *own* bounded [`RingBuffer`] behind a mutex only that thread
//!    touches on the hot path (a drain contends briefly at export
//!    time). Threads never serialize against each other to record.
//! 3. **Bounded.** Logs are rings: a runaway trace drops its *oldest*
//!    spans, counted in [`Trace::dropped`], and memory stays capped at
//!    `capacity × threads`.
//!
//! Timestamps are nanoseconds since a process-wide monotonic epoch
//! ([`now_ns`]), so spans recorded by different threads order
//! correctly in one exported timeline.

use crate::ring::RingBuffer;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// to any telemetry timestamp in the process).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Identity of one sampled request, minted at admission and carried
/// through queueing, batch cut, compilation, and execution. Nonzero;
/// spans not tied to a request (process-level compile work) use
/// [`TraceId::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no request" id for process-level spans.
    pub const NONE: TraceId = TraceId(0);
}

/// Chrome-trace phase of a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration (`ph: "X"`).
    Complete,
    /// A point-in-time event (`ph: "i"`), e.g. a warning.
    Instant,
}

/// A span's name, category or argument key: borrowed when it is a
/// literal, as nearly all are, so recording one allocates nothing.
pub type Label = Cow<'static, str>;

/// One recorded span or instant event.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (`queue`, `compile`, `execute`, a pass name, …).
    pub name: Label,
    /// Category — the layer that recorded it (`serve`, `compile`,
    /// `warn`). Becomes the Chrome-trace `cat`, filterable in the UI.
    pub cat: Label,
    /// Duration or instant.
    pub kind: SpanKind,
    /// Owning request trace, or [`TraceId::NONE`].
    pub trace: TraceId,
    /// Start time, ns since the process epoch.
    pub start_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Display lane: device/worker id where meaningful, else a hash of
    /// the recording thread. Becomes the Chrome-trace `tid` row.
    pub tid: u64,
    /// Numeric attachments (`batch_size`, `cache_hit`, …).
    pub args: Vec<(Label, f64)>,
}

/// Everything drained out of a tracer: spans from all threads, in
/// start-time order, plus how many older spans overflowed the rings.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Recorded spans, sorted by `start_ns`.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring overflow (the trace is a suffix when > 0).
    pub dropped: u64,
}

/// One thread's bounded span log.
struct ThreadLog {
    ring: Mutex<RingBuffer<SpanRecord>>,
}

struct TracerInner {
    enabled: AtomicBool,
    /// Record the full span set of 1 request in every `sample_every`
    /// minted (1 = every request).
    sample_every: u64,
    /// Capacity of each per-thread ring.
    capacity: usize,
    /// Every thread log ever registered with this tracer (drained at
    /// export time).
    logs: Mutex<Vec<Arc<ThreadLog>>>,
    /// Serial for minting trace ids.
    next_trace: AtomicU64,
}

thread_local! {
    /// This thread's log per live tracer, keyed by the tracer's inner
    /// allocation, the one recorded into last first. Entries of dropped
    /// tracers are pruned on the next miss.
    static THREAD_LOGS: RefCell<Vec<(Weak<TracerInner>, Arc<ThreadLog>)>> =
        const { RefCell::new(Vec::new()) };
    /// This thread's display lane, hashed once.
    static LANE: u64 = {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
}

/// The span recorder handle. Clone freely; clones share the buffers.
///
/// ```
/// use smartmem_telemetry::{SpanKind, Tracer, TraceId};
///
/// let tracer = Tracer::new(1024, 1); // sample every request
/// let trace = tracer.mint().expect("sampling 1-in-1 mints every id");
/// let start = smartmem_telemetry::now_ns();
/// // ... do the work ...
/// tracer.record_complete("queue", "serve", trace, start, 1_000, 0, vec![]);
/// let out = tracer.drain();
/// assert_eq!(out.spans.len(), 1);
/// assert_eq!(out.spans[0].kind, SpanKind::Complete);
/// assert_eq!(out.spans[0].trace, trace);
///
/// let off = Tracer::disabled();
/// assert!(off.mint().is_none(), "a disabled tracer samples nothing");
/// ```
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Enabled tracer with per-thread rings of `capacity` spans,
    /// sampling the full span set of one request in every
    /// `sample_every` minted (clamped to ≥ 1).
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(true),
                sample_every: sample_every.max(1),
                capacity: capacity.max(1),
                logs: Mutex::new(Vec::new()),
                next_trace: AtomicU64::new(0),
            }),
        }
    }

    /// A tracer that records nothing: [`Tracer::mint`] returns `None`
    /// and the record path is one atomic load.
    pub fn disabled() -> Self {
        let t = Tracer::new(1, 1);
        t.inner.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Whether this tracer records.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Mints the next request trace id, or `None` when the request is
    /// not sampled (or the tracer is disabled). Ids are minted for
    /// *every* call so sampling stays 1-in-N under any interleaving;
    /// unsampled requests simply record no spans.
    pub fn mint(&self) -> Option<TraceId> {
        if !self.is_enabled() {
            return None;
        }
        let n = self.inner.next_trace.fetch_add(1, Ordering::Relaxed);
        (n % self.inner.sample_every == 0).then_some(TraceId(n + 1))
    }

    /// Records a completed span retroactively (the caller timed it).
    #[allow(clippy::too_many_arguments)]
    pub fn record_complete(
        &self,
        name: impl Into<Label>,
        cat: impl Into<Label>,
        trace: TraceId,
        start_ns: u64,
        dur_ns: u64,
        tid: u64,
        args: Vec<(Label, f64)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(SpanRecord {
            name: name.into(),
            cat: cat.into(),
            kind: SpanKind::Complete,
            trace,
            start_ns,
            dur_ns,
            tid,
            args,
        });
    }

    /// Records an instant event (a warning, a cancellation) at the
    /// current time.
    pub fn record_instant(
        &self,
        name: impl Into<Label>,
        cat: impl Into<Label>,
        trace: TraceId,
        tid: u64,
        args: Vec<(Label, f64)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(SpanRecord {
            name: name.into(),
            cat: cat.into(),
            kind: SpanKind::Instant,
            trace,
            start_ns: now_ns(),
            dur_ns: 0,
            tid,
            args,
        });
    }

    /// Starts a span that records itself when dropped.
    pub fn span(&self, name: &'static str, cat: &'static str, trace: TraceId) -> SpanGuard {
        SpanGuard {
            tracer: self.clone(),
            name,
            cat,
            trace,
            tid: thread_lane(),
            start_ns: if self.is_enabled() { now_ns() } else { 0 },
            args: Vec::new(),
        }
    }

    /// Appends into this thread's ring, registering one on first use.
    /// The ring recorded into last is checked first, so a thread that
    /// records into one tracer finds its ring without a search.
    fn push(&self, span: SpanRecord) {
        THREAD_LOGS.with(|logs| {
            let mut logs = logs.borrow_mut();
            let mine = |(w, _): &(Weak<TracerInner>, _)| w.as_ptr() == Arc::as_ptr(&self.inner);
            match logs.iter().position(mine) {
                Some(0) => {}
                Some(i) => logs[..=i].rotate_right(1),
                None => {
                    // Prune logs of tracers that no longer exist, then
                    // register this thread with this tracer.
                    logs.retain(|(w, _)| w.strong_count() > 0);
                    let log = Arc::new(ThreadLog {
                        ring: Mutex::new(RingBuffer::new(self.inner.capacity)),
                    });
                    self.inner.logs.lock().expect("tracer log registry").push(Arc::clone(&log));
                    logs.insert(0, (Arc::downgrade(&self.inner), log));
                }
            }
            logs[0].1.ring.lock().expect("thread span log").push(span);
        });
    }

    /// Drains every thread's log into one start-time-ordered trace.
    /// Dropped-span counts survive (they describe the whole tracer
    /// lifetime, not one drain).
    pub fn drain(&self) -> Trace {
        let logs = self.inner.logs.lock().expect("tracer log registry");
        let mut trace = Trace::default();
        for log in logs.iter() {
            let mut ring = log.ring.lock().expect("thread span log");
            trace.spans.extend(ring.drain());
            trace.dropped += ring.dropped();
        }
        trace.spans.sort_by_key(|s| (s.start_ns, s.tid));
        trace
    }
}

/// Stable display-lane id of the current thread.
pub fn thread_lane() -> u64 {
    LANE.with(|lane| *lane)
}

/// An in-progress span; records a [`SpanKind::Complete`] record from
/// construction to drop. Obtained from [`Tracer::span`].
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    cat: &'static str,
    trace: TraceId,
    tid: u64,
    start_ns: u64,
    args: Vec<(Label, f64)>,
}

impl SpanGuard {
    /// Overrides the display lane (e.g. a device id).
    #[must_use]
    pub fn with_tid(mut self, tid: u64) -> Self {
        self.tid = tid;
        self
    }

    /// Attaches a numeric argument.
    pub fn arg(&mut self, key: impl Into<Label>, value: f64) {
        self.args.push((key.into(), value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.record_complete(
            self.name,
            self.cat,
            self.trace,
            self.start_ns,
            now_ns().saturating_sub(self.start_ns),
            self.tid,
            std::mem::take(&mut self.args),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_mints_one_in_n() {
        let t = Tracer::new(64, 4);
        let minted: Vec<Option<TraceId>> = (0..8).map(|_| t.mint()).collect();
        let sampled = minted.iter().flatten().count();
        assert_eq!(sampled, 2, "1-in-4 over 8 mints");
        assert!(minted[0].is_some() && minted[4].is_some());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = Tracer::new(64, 1);
        let trace = t.mint().unwrap();
        {
            let mut s = t.span("work", "test", trace).with_tid(7);
            s.arg("n", 3.0);
        }
        let out = t.drain();
        assert_eq!(out.spans.len(), 1);
        let s = &out.spans[0];
        assert_eq!((&*s.name, &*s.cat, s.tid), ("work", "test", 7));
        assert_eq!(s.args, vec![("n".into(), 3.0)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(t.mint().is_none());
        t.record_instant("warn", "warn", TraceId::NONE, 0, vec![]);
        drop(t.span("work", "test", TraceId::NONE));
        assert!(t.drain().spans.is_empty());
    }

    #[test]
    fn drain_merges_threads_in_time_order() {
        let t = Tracer::new(64, 1);
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    let start = now_ns();
                    t.record_complete("w", "test", TraceId(i + 1), start, 10, i, vec![]);
                });
            }
        });
        let out = t.drain();
        assert_eq!(out.spans.len(), 4);
        assert_eq!(out.dropped, 0);
        assert!(out.spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        // A second drain is empty: drains consume.
        assert!(t.drain().spans.is_empty());
    }

    #[test]
    fn two_tracers_on_one_thread_stay_separate() {
        let a = Tracer::new(8, 1);
        let b = Tracer::new(8, 1);
        a.record_instant("ea", "test", TraceId::NONE, 0, vec![]);
        b.record_instant("eb", "test", TraceId::NONE, 0, vec![]);
        assert_eq!(a.drain().spans[0].name, "ea");
        assert_eq!(b.drain().spans[0].name, "eb");
    }
}
