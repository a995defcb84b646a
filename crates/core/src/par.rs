//! Fan-out of independent jobs over the host's cores: workers pull job
//! indices from one atomic cursor, so a slow job does not hold back the
//! rest of a worker's share, and every result lands in its job's slot,
//! so callers see results in job order whatever the scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for a fan-out: one per available core.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Runs `run(state, j)` for every `j` in `0..jobs` on up to `workers`
/// threads — the calling thread is one of them — and returns the
/// results in job order. Each worker builds its own `state` with `init`
/// and reuses it for every job it pulls. With one worker or one job
/// nothing is spawned.
pub(crate) fn fan_out<S, R: Send>(
    jobs: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    // The cursor hands out indices only; results travel through `join`.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        let mut state = None;
        loop {
            let j = cursor.fetch_add(1, Ordering::Relaxed);
            if j >= jobs {
                return done;
            }
            done.push((j, run(state.get_or_insert_with(&init), j)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(jobs)).map(|_| s.spawn(work)).collect();
        let mut finished = vec![work()];
        for helper in helpers {
            finished.push(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        for (j, result) in finished.into_iter().flatten() {
            slots[j] = Some(result);
        }
    });
    slots.into_iter().map(|r| r.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        for workers in [1, 2, 7, 64] {
            let squares = fan_out(20, workers, || (), |_, j| j * j);
            assert_eq!(squares, (0..20).map(|j| j * j).collect::<Vec<_>>());
        }
        assert!(fan_out(0, 4, || panic!("no job, no state"), |_: &mut (), j| j).is_empty());
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(fan_out(1, 8, || (), |_, _| std::thread::current().id()), [caller]);
    }
}
