//! Property tests of the pull-mode batcher invariants (vendored
//! proptest shim): whatever interleaving of pushes, pulls, clock
//! advances and cancellations arrives, every request ends in exactly
//! one of {executed, cancelled}, no batch exceeds `max_batch` or mixes
//! keys, FIFO order holds within every (model, device) key, a request
//! whose cancellation won is never handed to a worker (including when
//! the cancel races a concurrent batch cut), and starvation aging
//! bounds how long a key can be passed over.

use proptest::prelude::*;
use smartmem_serve::{BatchItem, BatchKey, Batcher};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DELAY_MS: u64 = 4;

// The server's cancel-vs-cut adjudication states, reproduced at the
// pure level: exactly one of claim (0 → 1) and cancel (0 → 2) wins.
const QUEUED: u8 = 0;
const CLAIMED: u8 = 1;
const CANCELLED: u8 = 2;

#[derive(Clone, Debug)]
struct Item {
    id: u64,
    deadline: Instant,
    est_ns: f64,
    cell: Arc<AtomicU8>,
}

impl BatchItem for Item {
    fn deadline(&self) -> Instant {
        self.deadline
    }
    fn est_ns(&self) -> f64 {
        self.est_ns
    }
    fn claim(&self) -> bool {
        self.cell.compare_exchange(QUEUED, CLAIMED, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

fn cancel(cell: &AtomicU8) -> bool {
    cell.compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire).is_ok()
}

/// One scripted event over a 3-model × 2-device key grid.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Enqueue a request for (model, device) with a class deadline.
    Push { model: usize, device: usize, class: usize },
    /// A device worker frees up and pulls.
    Pull { device: usize },
    /// The clock jumps past the idle-latency bound.
    Advance,
    /// Cancel the n-th oldest still-queued request (server protocol:
    /// CAS first, then eager removal under the lock).
    Cancel { nth: usize },
}

fn event(raw: u8) -> Event {
    match raw % 16 {
        r @ 0..=5 => Event::Push { model: r as usize % 3, device: r as usize / 3, class: 0 },
        r @ 6..=8 => Event::Push { model: r as usize % 3, device: (r as usize / 3) % 2, class: 2 },
        9..=12 => Event::Pull { device: (raw as usize / 16) % 2 },
        13 => Event::Advance,
        _ => Event::Cancel { nth: raw as usize / 16 },
    }
}

struct Run {
    pushed: u64,
    /// id → key, in push order.
    keys: HashMap<u64, BatchKey>,
    /// ids that reached a worker, in flush order per key concat.
    executed: Vec<(BatchKey, u64)>,
    /// ids dropped at cut time (claim refused).
    cut_cancelled: Vec<u64>,
    /// ids removed eagerly by the cancel path.
    eager_cancelled: Vec<u64>,
    /// ids whose cancel CAS won.
    cancel_wins: Vec<u64>,
    oversized: usize,
    mixed_key: usize,
}

fn run_script(raw_events: &[u8], max_batch: usize) -> Run {
    let mut batcher: Batcher<Item> = Batcher::new(max_batch, Duration::from_millis(DELAY_MS));
    let t0 = Instant::now();
    let mut now = t0;
    let mut run = Run {
        pushed: 0,
        keys: HashMap::new(),
        executed: Vec::new(),
        cut_cancelled: Vec::new(),
        eager_cancelled: Vec::new(),
        cancel_wins: Vec::new(),
        oversized: 0,
        mixed_key: 0,
    };
    // Still-queued (as far as the script knows) cancel targets.
    let mut live: Vec<(u64, Arc<AtomicU8>, BatchKey)> = Vec::new();

    let take = |run: &mut Run, cut: smartmem_serve::Cut<Item>| {
        if cut.batch.items.len() > max_batch {
            run.oversized += 1;
        }
        for item in &cut.batch.items {
            if run.keys[&item.id] != cut.batch.key {
                run.mixed_key += 1;
            }
        }
        run.executed.extend(cut.batch.items.iter().map(|i| (cut.batch.key, i.id)));
        run.cut_cancelled.extend(cut.cancelled.iter().map(|i| i.id));
    };

    for &raw in raw_events {
        match event(raw) {
            Event::Push { model, device, class } => {
                let key = BatchKey { model, device };
                let deadline = now + Duration::from_millis([10, 100, 1000][class]);
                let cell = Arc::new(AtomicU8::new(QUEUED));
                let item = Item { id: run.pushed, deadline, est_ns: 0.0, cell: Arc::clone(&cell) };
                batcher.push(key, item, now).expect("push to a live device");
                run.keys.insert(run.pushed, key);
                live.push((run.pushed, cell, key));
                run.pushed += 1;
            }
            Event::Pull { device } => {
                if let Some(cut) = batcher.pull(device, now) {
                    take(&mut run, cut);
                }
            }
            Event::Advance => now += Duration::from_millis(DELAY_MS),
            Event::Cancel { nth } => {
                if live.is_empty() {
                    continue;
                }
                let (id, cell, key) = live.remove(nth % live.len());
                if cancel(&cell) {
                    run.cancel_wins.push(id);
                    // Eager unqueue — may already have been popped by a
                    // cut, in which case the cut handled it.
                    if batcher.remove_where(key, |i| i.id == id).is_some() {
                        run.eager_cancelled.push(id);
                    }
                }
            }
        }
    }
    // Shutdown drain.
    for device in 0..2 {
        while let Some(cut) = batcher.pull_any(device, now) {
            take(&mut run, cut);
        }
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every pushed request ends in exactly one terminal set:
    /// executed, dropped-at-cut, or eagerly removed — none lost, none
    /// duplicated.
    #[test]
    fn conservation(raw in prop::collection::vec(0u8..255, 0..160), max_batch in 1usize..7) {
        let run = run_script(&raw, max_batch);
        let mut seen: Vec<u64> = run.executed.iter().map(|&(_, id)| id).collect();
        seen.extend(&run.cut_cancelled);
        seen.extend(&run.eager_cancelled);
        prop_assert_eq!(seen.len() as u64, run.pushed, "request lost or duplicated");
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len() as u64, run.pushed, "terminal sets overlap");
    }

    /// A cut never exceeds `max_batch` and never mixes keys.
    #[test]
    fn batch_bounds(raw in prop::collection::vec(0u8..255, 0..160), max_batch in 1usize..7) {
        let run = run_script(&raw, max_batch);
        prop_assert_eq!(run.oversized, 0, "a cut exceeded max_batch");
        prop_assert_eq!(run.mixed_key, 0, "a batch mixed keys");
    }

    /// A request whose cancellation won the CAS is never executed —
    /// whether it was removed eagerly or dropped at batch-cut time.
    #[test]
    fn cancelled_never_executes(raw in prop::collection::vec(0u8..255, 0..160),
                                max_batch in 1usize..7) {
        let run = run_script(&raw, max_batch);
        for &(_, id) in &run.executed {
            prop_assert!(!run.cancel_wins.contains(&id), "cancelled request {} executed", id);
        }
        // And conversely every cancel win is accounted for exactly once.
        for id in &run.cancel_wins {
            let dropped = run.cut_cancelled.contains(id) || run.eager_cancelled.contains(id);
            prop_assert!(dropped, "cancel win {} vanished", id);
        }
    }

    /// FIFO within a key: concatenating a key's executed batches in
    /// flush order yields strictly increasing submission ids.
    #[test]
    fn fifo_within_key(raw in prop::collection::vec(0u8..255, 0..160), max_batch in 1usize..7) {
        let run = run_script(&raw, max_batch);
        let mut per_key: HashMap<BatchKey, Vec<u64>> = HashMap::new();
        for &(key, id) in &run.executed {
            per_key.entry(key).or_default().push(id);
        }
        for (key, ids) in per_key {
            for w in ids.windows(2) {
                prop_assert!(w[0] < w[1], "key {:?} reordered: {} after {}", key, w[1], w[0]);
            }
        }
    }

    /// Starvation aging: a long-deadline request on a flooded device is
    /// pulled within a bounded number of rounds, no matter how the hot
    /// key's fresh interactive traffic arrives.
    #[test]
    fn aging_bounds_starvation(flood in prop::collection::vec(1u8..4, 60..80)) {
        let mut b: Batcher<Item> =
            Batcher::new(2, Duration::from_millis(DELAY_MS)).with_aging_factor(4.0);
        let t0 = Instant::now();
        let victim_key = BatchKey { model: 9, device: 0 };
        let hot_key = BatchKey { model: 0, device: 0 };
        let victim = Item {
            id: u64::MAX,
            deadline: t0 + Duration::from_millis(100),
            est_ns: 0.0,
            cell: Arc::new(AtomicU8::new(QUEUED)),
        };
        b.push(victim_key, victim, t0).expect("push to a live device");
        let mut now = t0;
        let mut next_id = 0u64;
        for (round, &burst) in flood.iter().enumerate() {
            now += Duration::from_millis(1);
            // Keep the hot key due with fresh 10 ms-deadline traffic.
            for _ in 0..burst {
                let item = Item {
                    id: next_id,
                    deadline: now + Duration::from_millis(10),
                    est_ns: 0.0,
                    cell: Arc::new(AtomicU8::new(QUEUED)),
                };
                b.push(hot_key, item, now).expect("push to a live device");
                next_id += 1;
            }
            if let Some(cut) = b.pull(0, now) {
                if cut.batch.key == victim_key {
                    // Victim's effective slack decays at (1 + aging)
                    // per ms while fresh hot traffic holds ~10 ms of
                    // slack: it must win within ~(100 − 10)/5 ≈ 18
                    // rounds; 40 leaves margin.
                    prop_assert!(round < 40, "victim starved for {} rounds", round);
                    return Ok(());
                }
            }
        }
        prop_assert!(false, "victim was never pulled despite aging");
    }
}

/// The cancel-vs-cut race, with real threads: cancellers CAS requests
/// to CANCELLED while a worker thread concurrently cuts batches from
/// the same batcher under a mutex (the server's exact protocol). A
/// request must end in exactly one terminal set, and no cancel winner
/// may ever be executed.
#[test]
fn cancel_racing_batch_cut_is_exactly_once() {
    for trial in 0..24 {
        let n: u64 = 96;
        let key = BatchKey { model: 0, device: 0 };
        let t0 = Instant::now();
        let cells: Vec<Arc<AtomicU8>> = (0..n).map(|_| Arc::new(AtomicU8::new(QUEUED))).collect();
        let batcher = {
            // Zero idle delay: every key is always due, so the cutter
            // races the cancellers as hard as possible.
            let mut b: Batcher<Item> = Batcher::new(4, Duration::ZERO);
            for (i, cell) in cells.iter().enumerate() {
                let item = Item {
                    id: i as u64,
                    deadline: t0 + Duration::from_millis(10),
                    est_ns: 0.0,
                    cell: Arc::clone(cell),
                };
                b.push(key, item, t0).expect("push to a live device");
            }
            Arc::new(Mutex::new(b))
        };

        let mut executed: Vec<u64> = Vec::new();
        let mut dropped_at_cut: Vec<u64> = Vec::new();
        let mut eager: Vec<Vec<u64>> = Vec::new();
        let mut wins: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|scope| {
            let cancellers: Vec<_> = (0..3)
                .map(|c| {
                    let batcher = Arc::clone(&batcher);
                    let cells = &cells;
                    scope.spawn(move || {
                        let mut my_wins = Vec::new();
                        let mut my_eager = Vec::new();
                        // Each canceller goes after a stride of ids,
                        // offset so all three contend with the cutter.
                        for i in (c..n as usize).step_by(3 + trial % 2) {
                            if cancel(&cells[i]) {
                                my_wins.push(i as u64);
                                let removed = batcher
                                    .lock()
                                    .unwrap()
                                    .remove_where(key, |it: &Item| it.id == i as u64);
                                if removed.is_some() {
                                    my_eager.push(i as u64);
                                }
                            }
                        }
                        (my_wins, my_eager)
                    })
                })
                .collect();
            // The worker: pull until the queue is empty.
            loop {
                let cut = batcher.lock().unwrap().pull_any(0, Instant::now());
                match cut {
                    Some(cut) => {
                        executed.extend(cut.batch.items.iter().map(|i| i.id));
                        dropped_at_cut.extend(cut.cancelled.iter().map(|i| i.id));
                    }
                    None => {
                        if cancellers.iter().all(|h| h.is_finished()) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
            for h in cancellers {
                let (w, e) = h.join().expect("canceller panicked");
                wins.push(w);
                eager.push(e);
            }
        });

        let wins: Vec<u64> = wins.into_iter().flatten().collect();
        let eager: Vec<u64> = eager.into_iter().flatten().collect();
        for id in &executed {
            assert!(!wins.contains(id), "trial {trial}: cancelled request {id} executed");
        }
        let mut all: Vec<u64> =
            executed.iter().chain(&dropped_at_cut).chain(&eager).copied().collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(len, n as usize, "trial {trial}: a request was lost or duplicated");
        assert_eq!(all.len(), n as usize, "trial {trial}: terminal sets overlap");
        assert_eq!(
            wins.len(),
            dropped_at_cut.len() + eager.len(),
            "trial {trial}: cancel wins must equal dropped + eagerly removed"
        );
    }
}
