//! Property and stress tests of the telemetry primitives: ring
//! wrap-around keeps exactly the newest window and accounts every loss,
//! and concurrent multi-thread recording loses no non-dropped span.

use proptest::prelude::*;
use smartmem_telemetry::{now_ns, RingBuffer, SpanKind, TraceId, Tracer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wrap-around drops the *oldest* entries: after any push sequence
    /// the ring holds exactly the newest `min(len, capacity)` values in
    /// order, and `dropped` equals exactly what overflowed.
    #[test]
    fn ring_keeps_newest_window(values in prop::collection::vec(0u64..1000, 0..64),
                                capacity in 1usize..12) {
        let mut ring = RingBuffer::new(capacity);
        for &v in &values {
            ring.push(v);
        }
        let expect_dropped = values.len().saturating_sub(capacity) as u64;
        prop_assert_eq!(ring.dropped(), expect_dropped);
        let keep = values.len().min(capacity);
        let window: Vec<u64> = values[values.len() - keep..].to_vec();
        prop_assert_eq!(ring.iter().copied().collect::<Vec<u64>>(), window.clone());
        prop_assert_eq!(ring.drain(), window);
        prop_assert_eq!(ring.dropped(), expect_dropped, "drain keeps the loss accounted");
    }
}

/// N threads hammer one tracer concurrently; every span that was not
/// dropped by ring overflow must come out of the drain intact, exactly
/// once, and `spans + dropped` must account for every record.
#[test]
fn concurrent_recording_loses_no_undropped_span() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 500;
    const CAPACITY: usize = 128; // force overflow: 500 records per 128-slot ring

    let tracer = Tracer::new(CAPACITY, 1);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tracer = tracer.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Encode (thread, seq) in the trace id so the drain
                    // can verify exactly-once delivery per record.
                    let id = TraceId(t * PER_THREAD + i + 1);
                    tracer.record_complete("w", "test", id, now_ns(), 1, t, vec![]);
                }
            });
        }
    });

    let trace = tracer.drain();
    assert_eq!(
        trace.spans.len() as u64 + trace.dropped,
        THREADS * PER_THREAD,
        "every record is either drained or counted dropped"
    );
    assert_eq!(trace.spans.len(), THREADS as usize * CAPACITY, "each full ring keeps capacity");

    let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.trace.0).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "a span was duplicated");
    for s in &trace.spans {
        assert_eq!(s.kind, SpanKind::Complete);
        // Rings drop oldest: each thread's survivors are its newest
        // CAPACITY records.
        let (thread, seq) = ((s.trace.0 - 1) / PER_THREAD, (s.trace.0 - 1) % PER_THREAD);
        assert_eq!(s.tid, thread);
        assert!(
            seq >= PER_THREAD - CAPACITY as u64,
            "thread {thread} kept an old span (seq {seq}) past overflow"
        );
    }
}

/// Same stress with no overflow possible: nothing may be dropped at
/// all and every record survives.
#[test]
fn concurrent_recording_without_overflow_is_lossless() {
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 200;

    let tracer = Tracer::new(PER_THREAD as usize, 1);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tracer = tracer.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    tracer.record_instant("e", "test", TraceId(t * PER_THREAD + i + 1), t, vec![]);
                }
            });
        }
    });
    let trace = tracer.drain();
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.spans.len() as u64, THREADS * PER_THREAD);
    let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.trace.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, THREADS * PER_THREAD, "no span lost or duplicated");
}
