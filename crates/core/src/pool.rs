//! The one bounded worker pool: the measurement runner, the chaos
//! campaign and `upin serve` all drain their independent jobs through
//! [`run_pool`].

use crate::error::{SuiteError, SuiteResult};
use scion_tools::args::{Parsed, Spec};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The pool `--parallel` asks for when no `--workers N` sizes it.
pub(crate) const PARALLEL_WORKERS: usize = 4;

/// The `[--parallel] [--workers N]` pair of every pooled command, on
/// top of `spec`.
pub fn options(spec: Spec) -> Spec {
    spec.flag("parallel").value("workers")
}

/// Read the pool size: `--workers N` when given, else
/// `PARALLEL_WORKERS` under `--parallel`, else 1.
pub fn workers_from(p: &Parsed) -> Result<usize, String> {
    let default = if p.flag("parallel") {
        PARALLEL_WORKERS
    } else {
        1
    };
    match p.get_or("workers", default)? {
        0 => Err("--workers needs a count >= 1, got 0".into()),
        n => Ok(n),
    }
}

/// Run `work` over `jobs` on at most `workers` threads and return the
/// results in job order, plus the peak number of jobs that were live at
/// once. Threads pull from a shared queue, so the live count never
/// exceeds `min(workers, jobs)` however many jobs there are. With one
/// worker (or at most one job) nothing is spawned: the jobs run on the
/// caller's thread. A panicking worker surfaces as
/// [`SuiteError::Campaign`] after the remaining workers drained the
/// queue — never as a hang or a silently shorter result.
pub fn run_pool<J: Send, R: Send>(
    jobs: Vec<J>,
    workers: usize,
    work: impl Fn(J) -> R + Sync,
) -> SuiteResult<(Vec<R>, usize)> {
    if workers <= 1 || jobs.len() <= 1 {
        return Ok((jobs.into_iter().map(work).collect(), 1));
    }
    let spawned = workers.min(jobs.len());
    let queue = parking_lot::Mutex::new(jobs.into_iter().enumerate());
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let Some((index, job)) = queue.lock().next() else {
                            break done;
                        };
                        peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        let result = work(job);
                        live.fetch_sub(1, Ordering::SeqCst);
                        done.push((index, result));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut done = Vec::new();
    for worker in joined {
        done.extend(worker.map_err(|_| SuiteError::Campaign("a pool worker panicked".into()))?);
    }
    done.sort_unstable_by_key(|&(index, _)| index);
    Ok((
        done.into_iter().map(|(_, result)| result).collect(),
        peak.into_inner(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order_within_the_worker_bound_and_panics_are_errors() {
        let jobs: Vec<usize> = (0..12).collect();
        for workers in [1, 3, 40] {
            let live = AtomicUsize::new(0);
            let seen_peak = AtomicUsize::new(0);
            let (out, peak) = run_pool(jobs.clone(), workers, |j| {
                seen_peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                // Later jobs finish first, so completion order differs
                // from job order whenever two workers overlap.
                std::thread::sleep(std::time::Duration::from_micros(50 * (12 - j as u64)));
                live.fetch_sub(1, Ordering::SeqCst);
                j * j
            })
            .unwrap();
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
            let bound = workers.min(jobs.len());
            assert!(seen_peak.into_inner() <= bound, "workers={workers}");
            assert!((1..=bound).contains(&peak), "workers={workers}: {peak}");
        }

        let r = run_pool(jobs, 3, |j| {
            if j == 5 {
                panic!("job 5 dies");
            }
            j
        });
        assert!(matches!(r, Err(SuiteError::Campaign(_))), "{r:?}");
    }
}
