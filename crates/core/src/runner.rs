//! Campaign execution: the engine under [`crate::measure::run_tests`].
//!
//! The paper's requirement (§4.1.2) is that a dead destination must not
//! kill the campaign; this module adds the three properties campaign-
//! scale data quality actually needs on top of that:
//!
//! * **Bounded concurrency** — `--parallel` / `--workers N` run
//!   destinations through a worker pool of [`SuiteConfig::workers`]
//!   threads, never one thread per destination.
//! * **Determinism** — every destination is measured on its own
//!   [`ScionNetwork::fork`], whose clock and RNG stream depend only on
//!   the iteration and the destination's position. Workers return
//!   per-destination batches which commit in destination order, so a
//!   parallel campaign produces the *identical* `paths_stats` document
//!   set as a sequential one (same `_id`s, same field values), for any
//!   worker count.
//! * **Self-healing** — transiently failed tool invocations are retried
//!   with deterministic exponential backoff (jitter drawn from the
//!   fork's seeded RNG, delays advanced on the simulated clock), and a
//!   per-destination circuit breaker stops hammering a destination
//!   whose paths hard-fail consecutively, skipping its remaining paths
//!   for the iteration. Both emit structured [`CampaignEvent`]s.
//!
//! A tripped breaker is not permanent: the destination is *held* (all
//! paths skipped, no probes) until a seeded cooldown
//! ([`SuiteConfig::breaker_cooldown_ms`], jittered) elapses on the
//! campaign clock, after which the next iteration admits exactly one
//! **half-open** trial path — success closes the breaker and resumes
//! full measurement, failure re-opens it for another cooldown. The
//! transitions surface as [`CampaignEvent::BreakerHalfOpen`] /
//! [`CampaignEvent::BreakerClosed`].

use crate::config::SuiteConfig;
use crate::error::SuiteResult;
use crate::health::CampaignEvent;
use crate::measure::{measure_path, paths_of, MeasureReport};
use crate::pool::run_pool;
use crate::schema::{PathId, PathSpec, PATHS_STATS};
use pathdb::{Database, Document};
use scion_sim::addr::ScionAddr;
use scion_sim::net::ScionNetwork;
use scion_tools::ToolError;
use std::sync::Arc;
use upin_telemetry::{with_label, AttrValue, SpanId};

/// Retry schedule for one tool invocation: up to `attempts` retries,
/// the n-th delayed by `base_ms * multiplier^n`, scaled by a
/// deterministic jitter factor in `[0.5, 1.5)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    pub attempts: u32,
    pub base_ms: f64,
    pub multiplier: f64,
}

impl RetryPolicy {
    pub fn from_config(cfg: &SuiteConfig) -> RetryPolicy {
        RetryPolicy {
            attempts: cfg.retry_attempts,
            base_ms: cfg.retry_base_ms,
            multiplier: cfg.retry_multiplier,
        }
    }

    /// Nominal backoff before retry number `attempt` (0-based), before
    /// jitter.
    pub(crate) fn delay_ms(&self, attempt: u32) -> f64 {
        self.base_ms * self.multiplier.powi(attempt as i32)
    }
}

/// Only timeouts are worth retrying: a server that answers garbage
/// (`BadResponse`) or a path that fails validation will do so again.
fn is_transient(e: &ToolError) -> bool {
    matches!(e, ToolError::Net(scion_sim::net::NetError::Timeout))
}

/// Run `op` under `policy`, sleeping backoffs on the simulated clock and
/// logging every retry. The final error (if all attempts fail) is
/// returned for the caller to record as an error row.
pub(crate) fn retry_tool<T>(
    net: &ScionNetwork,
    policy: &RetryPolicy,
    stage: &'static str,
    path_id: PathId,
    events: &mut Vec<CampaignEvent>,
    mut op: impl FnMut() -> Result<T, ToolError>,
) -> Result<T, ToolError> {
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if retries < policy.attempts && is_transient(&e) => {
                let delay = policy.delay_ms(retries) * (0.5 + net.jitter_unit());
                net.advance_ms(delay);
                retries += 1;
                events.push(CampaignEvent::Retry {
                    path_id,
                    stage,
                    attempt: retries,
                    delay_ms: delay,
                });
            }
            Err(e) => {
                if retries > 0 {
                    events.push(CampaignEvent::RetriesExhausted {
                        path_id,
                        stage,
                        attempts: retries + 1,
                    });
                }
                return Err(e);
            }
        }
    }
}

/// One destination's unit of work: everything a worker needs, with no
/// database access (paths are pre-fetched, results are batched). The
/// path list is shared with the coordinator — building a job costs a
/// refcount bump, not a deep copy per iteration.
struct DestJob {
    server_id: u32,
    addr: ScionAddr,
    net: ScionNetwork,
    paths: Arc<Vec<PathSpec>>,
    /// This destination's breaker cooled down: admit one half-open
    /// trial path before measuring the rest.
    trial: bool,
}

/// What a worker hands back, committed by the coordinator in
/// destination order.
struct DestBatch {
    server_id: u32,
    docs: Vec<Document>,
    errors: usize,
    skipped: usize,
    tripped: bool,
    /// The breaker was open and still cooling down: the whole
    /// destination was skipped without probing.
    held: bool,
    events: Vec<CampaignEvent>,
    elapsed_ms: f64,
    /// Per-path attempt timings `(path, start_ms, end_ms, errored)` on
    /// the fork's clock. Plain data: the coordinator replays these into
    /// the telemetry recorder in destination order, so span ids and
    /// histogram contents stay identical between sequential and pooled
    /// runs of the same seed.
    marks: Vec<(PathId, f64, f64, bool)>,
}

/// Run the full campaign over the stored paths. Both the sequential and
/// the parallel mode execute destinations on identical network forks;
/// they differ only in *where* the work runs.
pub fn run_campaign(
    db: &Database,
    net: &ScionNetwork,
    cfg: &SuiteConfig,
) -> SuiteResult<MeasureReport> {
    let mut dests = crate::collect::destinations(db)?;
    if cfg.some_only {
        dests.truncate(1);
    }
    let mut path_lists = Vec::with_capacity(dests.len());
    for (server_id, _) in &dests {
        path_lists.push(Arc::new(paths_of(db, *server_id)?));
    }
    let mut report = MeasureReport {
        iterations: cfg.iterations,
        destinations: dests.len(),
        ..MeasureReport::default()
    };
    let rec = db.recorder();
    let campaign_span = rec.span_start(
        "campaign",
        SpanId::NONE,
        net.now_ms(),
        &[
            ("iterations", AttrValue::I64(cfg.iterations as i64)),
            ("destinations", AttrValue::I64(dests.len() as i64)),
            ("parallel", AttrValue::I64((cfg.workers > 1) as i64)),
        ],
    );
    // Per-destination breaker state across iterations: an entry means
    // the breaker is open, the value is the campaign-clock time at
    // which its cooldown elapses and a half-open trial is admitted.
    let mut breakers: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for iter in 0..cfg.iterations {
        let iter_start = net.now_ms();
        let iter_span = rec.span_start(
            "campaign.iteration",
            campaign_span,
            iter_start,
            &[("iteration", AttrValue::I64(iter as i64))],
        );
        // Open breakers still cooling down hold their destination (all
        // paths skipped, no fork, no probes); cooled-down ones run a
        // half-open trial. Fork salts depend only on (iteration,
        // destination index), so held destinations never shift another
        // destination's RNG stream.
        let mut jobs = Vec::new();
        let mut held: Vec<Option<DestBatch>> = Vec::with_capacity(dests.len());
        for (index, (&(server_id, addr), paths)) in dests.iter().zip(&path_lists).enumerate() {
            match breakers.get(&server_id) {
                Some(&until) if iter_start < until => held.push(Some(DestBatch {
                    server_id,
                    docs: Vec::new(),
                    errors: 0,
                    skipped: paths.len(),
                    tripped: false,
                    held: true,
                    events: Vec::new(),
                    elapsed_ms: 0.0,
                    marks: Vec::new(),
                })),
                state => {
                    held.push(None);
                    jobs.push(DestJob {
                        server_id,
                        addr,
                        net: net.fork(((iter as u64) << 32) | index as u64),
                        paths: Arc::clone(paths),
                        trial: state.is_some(),
                    });
                }
            }
        }
        let (measured, peak) = run_pool(jobs, cfg.workers, |j| run_destination(cfg, j))?;
        report.peak_workers = report.peak_workers.max(peak);
        // Destination order: a held slot keeps its place, every other
        // slot takes the next measured batch (the pool returns them in
        // job order).
        let mut measured = measured.into_iter();
        let batches: Vec<DestBatch> = held
            .into_iter()
            .map(|slot| slot.or_else(|| measured.next()).expect("one batch per job"))
            .collect();
        let all_held = !batches.is_empty() && batches.iter().all(|b| b.held);
        let mut iter_elapsed = 0.0f64;
        for batch in batches {
            iter_elapsed = iter_elapsed.max(batch.elapsed_ms);
            report.measured += batch.docs.len();
            report.errors += batch.errors;
            report.skipped += batch.skipped;
            if batch.tripped && !report.tripped.contains(&batch.server_id) {
                report.tripped.push(batch.server_id);
            }
            let retries = batch
                .events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::Retry { .. }))
                .count();
            report.retries += retries;
            // §4.2.2: one bulk insertion per destination.
            let inserted = db
                .collection(PATHS_STATS)
                .write()
                .insert_many(batch.docs)?
                .len();
            report.inserted += inserted;

            // Telemetry, replayed here on the coordinator thread so a
            // pooled campaign exports byte-identical signals to a
            // sequential one (fork clocks are deterministic; commit
            // order is destination order).
            let dest_span = rec.span_start(
                "campaign.destination",
                iter_span,
                iter_start,
                &[("server", AttrValue::I64(batch.server_id as i64))],
            );
            for &(path_id, t0, t1, errored) in &batch.marks {
                let attempt = rec.span_start(
                    "campaign.attempt",
                    dest_span,
                    t0,
                    &[
                        ("path_index", AttrValue::I64(path_id.path_index as i64)),
                        ("error", AttrValue::I64(errored as i64)),
                    ],
                );
                rec.span_end(attempt, t1);
                rec.observe("campaign.attempt_ms", t1 - t0);
            }
            if batch.tripped {
                rec.event(
                    dest_span,
                    "circuit_open",
                    iter_start + batch.elapsed_ms,
                    &[("skipped_paths", AttrValue::I64(batch.skipped as i64))],
                );
                rec.add("campaign.breaker_trips", 1);
            }
            if batch.held {
                rec.add("campaign.breaker_held", 1);
            }
            for e in &batch.events {
                match e {
                    CampaignEvent::BreakerHalfOpen { .. } => {
                        rec.event(dest_span, "breaker_half_open", iter_start, &[]);
                        rec.add("campaign.breaker_half_open", 1);
                    }
                    CampaignEvent::BreakerClosed { .. } => {
                        rec.event(
                            dest_span,
                            "breaker_closed",
                            iter_start + batch.elapsed_ms,
                            &[],
                        );
                        rec.add("campaign.breaker_closes", 1);
                        breakers.remove(&batch.server_id);
                    }
                    _ => {}
                }
            }
            if batch.tripped {
                // (Re-)open: hold the destination until a seeded,
                // jittered cooldown elapses on the campaign clock.
                let reopen_at = iter_start
                    + batch.elapsed_ms
                    + cfg.breaker_cooldown_ms * (0.75 + 0.5 * net.jitter_unit());
                breakers.insert(batch.server_id, reopen_at);
            }
            rec.span_end(dest_span, iter_start + batch.elapsed_ms);
            rec.observe("campaign.destination_ms", batch.elapsed_ms);
            if rec.enabled() {
                rec.observe(
                    &with_label(
                        "campaign.destination_ms",
                        "server",
                        &batch.server_id.to_string(),
                    ),
                    batch.elapsed_ms,
                );
            }
            rec.add("campaign.docs_inserted", inserted as u64);
            rec.add("campaign.errors", batch.errors as u64);
            rec.add("campaign.skipped_paths", batch.skipped as u64);
            rec.add("campaign.retries", retries as u64);
            report.events.extend(batch.events);
        }
        // The campaign's wall time is the slowest destination's; keep the
        // parent clock ahead of every fork so the next iteration's
        // timestamps are fresh.
        net.advance_ms(iter_elapsed);
        // If every destination was held by an open breaker, nothing
        // advanced the clock — idle until the earliest cooldown elapses
        // so the campaign can't spin through iterations at zero time.
        if all_held {
            let next = breakers.values().fold(f64::INFINITY, |a, &b| a.min(b));
            if next.is_finite() && next > net.now_ms() {
                // Overshoot by 1 µs so rounding can't leave the clock an
                // ulp short of the reopen time (which would hold the
                // destination for another whole iteration).
                net.advance_ms(next - net.now_ms() + 1e-6);
            }
        }
        rec.span_end(iter_span, net.now_ms());
    }
    rec.span_end(campaign_span, net.now_ms());
    Ok(report)
}

/// Measure every path of one destination on its private network fork,
/// tripping the circuit breaker on consecutive hard failures.
fn run_destination(cfg: &SuiteConfig, job: DestJob) -> DestBatch {
    let policy = RetryPolicy::from_config(cfg);
    let start_ms = job.net.now_ms();
    let mut docs = Vec::with_capacity(job.paths.len());
    let mut events = Vec::new();
    let mut errors = 0usize;
    let mut consecutive = 0usize;
    let mut skipped = 0usize;
    let mut tripped = false;
    let mut marks = Vec::with_capacity(job.paths.len());
    if job.trial && !job.paths.is_empty() {
        events.push(CampaignEvent::BreakerHalfOpen {
            server_id: job.server_id,
        });
    }
    for (i, spec) in job.paths.iter().enumerate() {
        let t0 = job.net.now_ms();
        let m = measure_path(&job.net, cfg, &policy, spec, job.addr, &mut events);
        marks.push((spec.id, t0, job.net.now_ms(), m.error.is_some()));
        if m.error.is_some() {
            errors += 1;
            consecutive += 1;
        } else {
            consecutive = 0;
            if job.trial && i == 0 {
                events.push(CampaignEvent::BreakerClosed {
                    server_id: job.server_id,
                });
            }
        }
        docs.push(m.to_doc());
        // A half-open destination gets exactly one trial: its first
        // path failing re-opens the breaker immediately, regardless of
        // the configured consecutive-failure threshold.
        let threshold = if job.trial && i == 0 {
            1
        } else {
            cfg.breaker_threshold
        };
        if cfg.breaker_threshold > 0 && consecutive >= threshold {
            skipped = job.paths.len() - (i + 1);
            tripped = true;
            events.push(CampaignEvent::CircuitOpen {
                server_id: job.server_id,
                consecutive,
                skipped_paths: skipped,
            });
            break;
        }
    }
    DestBatch {
        server_id: job.server_id,
        docs,
        errors,
        skipped,
        tripped,
        held: false,
        events,
        elapsed_ms: job.net.now_ms() - start_ms,
        marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use scion_sim::fault::ServerBehavior;

    fn setup(seed: u64, cfg: &SuiteConfig) -> (Database, ScionNetwork) {
        let net = ScionNetwork::scionlab(seed);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        collect_paths(&db, &net, cfg).unwrap();
        (db, net)
    }

    fn quick() -> SuiteConfig {
        SuiteConfig {
            iterations: 1,
            ping_count: 5,
            run_bwtests: false,
            ..SuiteConfig::default()
        }
    }

    fn stats_snapshot(db: &Database) -> Vec<(String, Document)> {
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        let mut out: Vec<(String, Document)> = coll
            .iter()
            .map(|d| (d.id().unwrap().to_string(), d.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn parallel_and_sequential_document_sets_are_identical() {
        for workers in [1, 3, 16] {
            let seq_cfg = SuiteConfig {
                iterations: 2,
                workers: 1,
                ..quick()
            };
            let (db_seq, net_seq) = setup(23, &seq_cfg);
            run_campaign(&db_seq, &net_seq, &seq_cfg).unwrap();

            let par_cfg = SuiteConfig {
                workers,
                ..seq_cfg.clone()
            };
            let (db_par, net_par) = setup(23, &par_cfg);
            let report = run_campaign(&db_par, &net_par, &par_cfg).unwrap();

            assert_eq!(
                stats_snapshot(&db_seq),
                stats_snapshot(&db_par),
                "workers={workers}"
            );
            assert!(report.peak_workers <= workers.max(1));
        }
    }

    /// `--workers N` decides the pool on its own: without `--parallel`
    /// it used to be parsed, stored and ignored. Whether two workers
    /// overlap is up to the scheduler here (`pool::tests` forces it); the
    /// pool stays within its two and stores the same documents.
    #[test]
    fn workers_alone_runs_the_pool_it_names() {
        let run = |args: &[&str]| {
            let cfg = SuiteConfig {
                ping_count: 5,
                run_bwtests: false,
                ..SuiteConfig::from_args(args).unwrap()
            };
            assert_eq!(cfg.workers, 2, "{args:?}");
            let (db, net) = setup(23, &cfg);
            let report = run_campaign(&db, &net, &cfg).unwrap();
            (report.peak_workers, stats_snapshot(&db))
        };
        let (peak, alone) = run(&["3", "--workers", "2"]);
        assert!((1..=2).contains(&peak), "--workers 2 ran {peak} at once");
        let (_, with_parallel) = run(&["3", "--parallel", "--workers", "2"]);
        assert_eq!(alone, with_parallel);
    }

    #[test]
    fn retry_backoff_grows_and_is_deterministic() {
        let net = ScionNetwork::scionlab(5);
        let policy = RetryPolicy {
            attempts: 3,
            base_ms: 100.0,
            multiplier: 2.0,
        };
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        let run = |salt: u64| {
            let fork = net.fork(salt);
            let mut events = Vec::new();
            let r: Result<(), ToolError> =
                retry_tool(&fork, &policy, "ping", pid, &mut events, || {
                    Err(ToolError::Net(scion_sim::net::NetError::Timeout))
                });
            assert!(r.is_err());
            (fork.now_ms(), events)
        };
        let (t1, ev1) = run(9);
        let (t2, ev2) = run(9);
        assert_eq!(t1, t2, "backoff delays are deterministic per fork");
        assert_eq!(ev1, ev2);
        // 3 retries + 1 exhaustion, delays in [0.5, 1.5)·nominal, growing
        // nominally by the multiplier.
        assert_eq!(ev1.len(), 4);
        let delays: Vec<f64> = ev1
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Retry { delay_ms, .. } => Some(*delay_ms),
                _ => None,
            })
            .collect();
        assert_eq!(delays.len(), 3);
        for (i, d) in delays.iter().enumerate() {
            let nominal = 100.0 * 2f64.powi(i as i32);
            assert!(
                (nominal * 0.5..nominal * 1.5).contains(d),
                "delay {d} outside jitter band of {nominal}"
            );
        }
        assert!(matches!(
            ev1.last(),
            Some(CampaignEvent::RetriesExhausted { attempts: 4, .. })
        ));
        // The fork slept the backoffs on the simulated clock.
        assert!((t1 - net.now_ms() - delays.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let net = ScionNetwork::scionlab(5);
        let policy = RetryPolicy {
            attempts: 5,
            base_ms: 100.0,
            multiplier: 2.0,
        };
        let mut events = Vec::new();
        let mut calls = 0;
        let r: Result<(), ToolError> = retry_tool(
            &net,
            &policy,
            "bwtest64",
            PathId {
                server_id: 1,
                path_index: 0,
            },
            &mut events,
            || {
                calls += 1;
                Err(ToolError::Net(scion_sim::net::NetError::BadResponse))
            },
        );
        assert!(r.is_err());
        assert_eq!(calls, 1, "BadResponse is deterministic; retrying is futile");
        assert!(events.is_empty());
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_and_skips_the_tail() {
        let cfg = SuiteConfig {
            run_bwtests: true,
            some_only: true,
            retry_attempts: 0,
            ..quick()
        };
        let (db, net) = setup(9, &cfg);
        let (server_id, addr) = crate::collect::destinations(&db).unwrap()[0];
        net.set_server_behavior(addr, ServerBehavior::Down);
        let report = run_campaign(&db, &net, &cfg).unwrap();
        let paths = paths_of(&db, server_id).unwrap();
        assert!(report.tripped.contains(&server_id));
        assert_eq!(report.errors, cfg.breaker_threshold);
        assert_eq!(report.skipped, paths.len() - cfg.breaker_threshold);
        assert_eq!(report.measured, cfg.breaker_threshold);
        assert!(report.events.iter().any(
            |e| matches!(e, CampaignEvent::CircuitOpen { server_id: s, .. } if *s == server_id)
        ));
    }

    #[test]
    fn half_open_trial_reopens_while_the_server_stays_dead() {
        // Tiny cooldown: each trip holds exactly the next iteration
        // (the cooldown outlasts the zero-advance held iteration, which
        // then idles the clock past it), so the pattern is
        // trip, held, trial, held, trial.
        let cfg = SuiteConfig {
            iterations: 5,
            some_only: true,
            run_bwtests: true,
            retry_attempts: 0,
            breaker_cooldown_ms: 1.0,
            ..quick()
        };
        let (db, net) = setup(9, &cfg);
        let (server_id, addr) = crate::collect::destinations(&db).unwrap()[0];
        net.set_server_behavior(addr, ServerBehavior::Down);
        let report = run_campaign(&db, &net, &cfg).unwrap();
        let paths = paths_of(&db, server_id).unwrap();
        let count =
            |f: &dyn Fn(&CampaignEvent) -> bool| report.events.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(&|e| matches!(e, CampaignEvent::BreakerHalfOpen { .. })),
            2,
            "{:?}",
            report.events
        );
        assert_eq!(
            count(&|e| matches!(e, CampaignEvent::BreakerClosed { .. })),
            0
        );
        assert_eq!(
            count(&|e| matches!(e, CampaignEvent::CircuitOpen { .. })),
            3
        );
        assert_eq!(report.measured, cfg.breaker_threshold + 2);
        assert_eq!(report.errors, cfg.breaker_threshold + 2);
        assert_eq!(
            report.skipped,
            (paths.len() - cfg.breaker_threshold) + 2 * (paths.len() - 1) + 2 * paths.len()
        );
        let _ = server_id;
    }

    #[test]
    fn cooled_down_breaker_closes_after_the_outage_heals() {
        use scion_sim::chaos::{ChaosSchedule, FlakyWindow};
        let cfg = SuiteConfig {
            iterations: 3,
            some_only: true,
            run_bwtests: true,
            retry_attempts: 0,
            breaker_cooldown_ms: 60_000.0,
            ..quick()
        };
        let (db, net) = setup(9, &cfg);
        let (server_id, addr) = crate::collect::destinations(&db).unwrap()[0];
        // The destination server drops everything just after the
        // campaign starts (bwtests hard-fail) and the schedule clears
        // it well before the breaker cooldown can elapse. The window
        // must outlast `breaker_threshold` path measurements (~14 s
        // each) for the trip to happen at all.
        let t = net.now_ms();
        let mut schedule = ChaosSchedule::new(1, t + 300_000.0);
        schedule.flaky_servers.push(FlakyWindow {
            server: addr,
            drop_probability: 1.0,
            start_ms: t + 1.0,
            duration_ms: 50_000.0,
        });
        net.install_chaos(&schedule).unwrap();
        let report = run_campaign(&db, &net, &cfg).unwrap();
        let paths = paths_of(&db, server_id).unwrap();
        let has = |f: &dyn Fn(&CampaignEvent) -> bool| report.events.iter().any(f);
        // Iteration 0 trips; iteration 1 is held (the cooldown idles the
        // clock past the heal); iteration 2's trial succeeds and the
        // whole destination is measured again.
        assert!(report.tripped.contains(&server_id), "{:?}", report.events);
        assert!(
            has(
                &|e| matches!(e, CampaignEvent::BreakerHalfOpen { server_id: s } if *s == server_id)
            ),
            "{:?}",
            report.events
        );
        assert!(
            has(&|e| matches!(e, CampaignEvent::BreakerClosed { server_id: s } if *s == server_id)),
            "{:?}",
            report.events
        );
        assert!(
            report.measured >= cfg.breaker_threshold + paths.len(),
            "trip iteration + one fully measured iteration: {report:?}"
        );
        assert!(
            report.skipped >= paths.len(),
            "the held iteration skipped everything: {report:?}"
        );
    }
}
