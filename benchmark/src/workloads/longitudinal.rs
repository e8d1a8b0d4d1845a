//! `longitudinal_35as`: a multi-day campaign dominated by upkeep.
//!
//! The SCIONLab replica, WAL-durable (see [`Store`]), all 21 destinations, ping-only
//! rounds on the simulated clock; after every round the rollups catch
//! up, a 24 h retention window expires raw rows and a generational
//! checkpoint runs — `run_longitudinal`'s loop, driven here from its
//! public pieces so each round can be timed. A seeded schedule of
//! congestion waves on core ASes makes the measured values move (so
//! rollups and churn analytics have something to compress) without
//! failing any probe outright.
//!
//! Three ways to run the same program:
//! * untraced — the round loop with one timer pair per round;
//! * traced — the same loop with a span around every call;
//! * reference — `upin_core::run_longitudinal` itself, which the traced
//!   pass must match count for count and byte for byte.

use super::{counter_values, es, reopens, setup_fastest, Outcome, Res, Scale, Store, REOPENS};
use crate::procstat::cpu_seconds;
use crate::stats;
use crate::trace::{span_if, unattributed_share, Tracer};
use crate::Pass;
use pathdb::rollup::{read_rollup, render};
use pathdb::{Database, RetentionPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scion_sim::chaos::{ChaosSchedule, CongestionWave, Dwell};
use scion_sim::net::ScionNetwork;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use upin_core::churn::analyze;
use upin_core::collect::{collect_paths, register_available_servers};
use upin_core::config::SuiteConfig;
use upin_core::dataset::dataset_files;
use upin_core::longitudinal::{run_longitudinal, LongitudinalConfig};
use upin_core::measure::run_tests;
use upin_core::schema::{stats_rollup, PATHS_STATS, ROLLUP_PATHS_STATS};
use upin_telemetry::Telemetry;

const HOUR_MS: f64 = 3_600_000.0;
const DAY_MS: f64 = 24.0 * HOUR_MS;
/// Rounds per simulated day: two samples per path per hourly bucket, so
/// the rollups actually compress.
const ROUNDS_PER_DAY: u32 = 48;
/// Times the untraced pass runs the whole scenario, each from a fresh
/// database: round `i` is the same work every time, and its time is the
/// fastest of them.
const REPETITIONS: usize = 6;
/// Rounds of one repetition per measured second (a round averages
/// ~20 ms over 3 sim-days on the reference box, growing with the
/// rollup collection; 16 s is 6 x 3 sim-days).
const ROUNDS_PER_S: f64 = 9.0;
const RETENTION_HOURS: f64 = 24.0;
const ANALYTICS_REPS: usize = 5;

struct Env {
    net: ScionNetwork,
    db: Database,
    cfg: LongitudinalConfig,
}

/// `(sim_days, rounds_per_day)` for a scale: whole days at the full
/// cadence, or a single short day when there is not even one.
fn shape(scale: Scale) -> (u32, u32) {
    let rounds = scale.count(ROUNDS_PER_S, 4) as u32;
    if rounds >= ROUNDS_PER_DAY {
        (
            (rounds as f64 / ROUNDS_PER_DAY as f64).round() as u32,
            ROUNDS_PER_DAY,
        )
    } else {
        (1, rounds)
    }
}

/// Congestion waves on seeded core ASes: partial loss and delay in
/// recurring phases over the whole horizon.
fn wave_schedule(net: &ScionNetwork, seed: u64, horizon_ms: f64) -> ChaosSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10_4617_0d1a);
    let cores: Vec<_> = net
        .topology()
        .ases()
        .filter(|(_, n)| n.kind.is_core())
        .map(|(_, n)| n.ia)
        .collect();
    let mut schedule = ChaosSchedule::new(seed, net.now_ms() + horizon_ms);
    for _ in 0..3 {
        schedule.waves.push(CongestionWave {
            node: cores[rng.gen_range(0..cores.len())],
            severity: rng.gen_range(0.15..0.35),
            first_ms: net.now_ms() + rng.gen_range(0.5..3.0) * HOUR_MS,
            active: Dwell::uniform(0.25 * HOUR_MS, 0.75 * HOUR_MS),
            idle: Dwell::uniform(1.0 * HOUR_MS, 4.0 * HOUR_MS),
        });
    }
    schedule
}

fn setup(seed: u64, scale: Scale, store: &Store, telemetry: Option<&Arc<Telemetry>>) -> Res<Env> {
    let mut net = ScionNetwork::scionlab(seed);
    if let Some(t) = telemetry {
        net.set_recorder(t.clone());
    }
    let (db, _) = store.open(telemetry)?;
    register_available_servers(&db, &net).map_err(es)?;
    let campaign = SuiteConfig {
        iterations: 1,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    };
    collect_paths(&db, &net, &campaign).map_err(es)?;
    let (sim_days, rounds_per_day) = shape(scale);
    let schedule = wave_schedule(&net, seed, sim_days as f64 * DAY_MS);
    Ok(Env {
        net,
        db,
        cfg: LongitudinalConfig {
            campaign,
            sim_days,
            rounds_per_day,
            retention_hours: RETENTION_HOURS,
            schedule: Some(schedule),
            disk_probe_day: 1,
        },
    })
}

#[derive(Default)]
struct Totals {
    inserted: u64,
    errors: u64,
    folded: u64,
    expired: u64,
}

/// `run_longitudinal`'s loop from its public pieces: per round a
/// campaign, rollup catch-up, retention expiry and a checkpoint, then
/// idle to the next round's start. Returns each round's wall time.
fn rounds(env: &Env, tr: &mut Option<Tracer>, totals: &mut Totals) -> Res<Vec<f64>> {
    let cfg = &env.cfg;
    env.db.register_rollup(stats_rollup());
    env.db.set_retention(RetentionPolicy {
        collection: PATHS_STATS.into(),
        time_field: "timestamp_ms".into(),
        keep_ms: (cfg.retention_hours * HOUR_MS) as i64,
    });
    if let Some(schedule) = &cfg.schedule {
        env.net.install_chaos(schedule).map_err(es)?;
    }
    let round_ms = DAY_MS / cfg.rounds_per_day as f64;
    let n = cfg.sim_days * cfg.rounds_per_day;
    let mut secs = Vec::with_capacity(n as usize);
    for round in 0..n {
        let t0 = Instant::now();
        let start = env.net.now_ms();
        let measured = span_if(tr, "runner.run_tests", round, || {
            run_tests(&env.db, &env.net, &cfg.campaign)
        })
        .map_err(es)?;
        totals.inserted += measured.inserted as u64;
        totals.errors += measured.errors as u64;
        totals.folded += span_if(tr, "pathdb.rollup.catch_up", round, || {
            env.db.rollup_catch_up()
        })
        .map_err(es)?;
        let now = env.net.now_ms() as i64;
        totals.expired += span_if(tr, "pathdb.retention.expire", round, || {
            env.db.expire_retention(now)
        })
        .map_err(es)?;
        span_if(tr, "pathdb.checkpoint", round, || {
            env.db.checkpoint_if_durable()
        })
        .map_err(es)?;
        let next = start + round_ms;
        if env.net.now_ms() < next {
            env.net.advance_ms(next - env.net.now_ms());
        }
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok(secs)
}

/// `read_rollup` → `churn::analyze` → `dataset_files`, repeated.
fn analytics(env: &Env, tr: &mut Tracer, out: &mut Outcome) -> Res<()> {
    let rollup = stats_rollup();
    let mut ms = Vec::with_capacity(ANALYTICS_REPS);
    for rep in 0..ANALYTICS_REPS as u32 {
        let t0 = Instant::now();
        let (aggs, _) = tr.span("pathdb.rollup.read", rep, || read_rollup(&env.db, &rollup));
        tr.span("longitudinal.churn_analyze", rep, || {
            black_box(analyze(&aggs, rollup.bucket_ms)).span_buckets
        });
        let (files, _) = tr.span("longitudinal.dataset", rep, || dataset_files(&env.db));
        black_box(files.map_err(es)?.len());
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let totals = tr.totals();
    out.values
        .insert("longitudinal.analytics_ms", stats::median(&ms));
    out.values.insert(
        "pathdb.rollup.read_ms",
        totals.get("pathdb.rollup.read").mean(1e6),
    );
    out.values.insert(
        "longitudinal.churn_analyze_ms",
        totals.get("longitudinal.churn_analyze").mean(1e6),
    );
    out.values.insert(
        "longitudinal.dataset_ms",
        totals.get("longitudinal.dataset").mean(1e6),
    );
    Ok(())
}

/// What one run of the scenario produced.
struct Run {
    /// Wall time of each round, s (empty for the opaque entry point).
    round_secs: Vec<f64>,
    wall_s: f64,
    totals: Totals,
    docs: usize,
    disk_bytes: u64,
    /// Counters that repeat exactly for a seed.
    fingerprint: Vec<(String, u64)>,
}

/// Run the scenario once on a freshly set-up `env`.
fn one_run(env: &Env, pass: Pass, tr: &mut Option<Tracer>) -> Res<Run> {
    let mut totals = Totals::default();
    let t0 = Instant::now();
    let round_secs = match pass {
        Pass::Reference => {
            let report = run_longitudinal(&env.db, &env.net, &env.cfg).map_err(es)?;
            totals.inserted = report.inserted_total as u64;
            totals.expired = report.expired_total;
            totals.folded = report.days.iter().map(|d| d.folded).sum();
            totals.errors = report.days.iter().map(|d| d.errors as u64).sum();
            Vec::new()
        }
        _ => {
            if let Some(tr) = tr {
                tr.enter("bench.longitudinal_35as", 0);
            }
            let secs = rounds(env, tr, &mut totals)?;
            if let Some(tr) = tr {
                tr.exit();
            }
            secs
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let rollup_text = render(&read_rollup(&env.db, &stats_rollup()));
    let docs = env.db.total_documents();
    let (_, disk_bytes) = env.db.disk_usage().ok_or("durable database reports disk")?;
    let fingerprint = [
        ("inserted", totals.inserted),
        ("folded", totals.folded),
        ("expired", totals.expired),
        ("documents", docs as u64),
        ("disk_bytes", disk_bytes),
        ("rollup_bytes", rollup_text.len() as u64),
        (
            "rollup_digest",
            super::fold_digest(0, rollup_text.as_bytes()),
        ),
    ]
    .map(|(name, v)| (name.to_string(), v))
    .to_vec();
    Ok(Run {
        round_secs,
        wall_s,
        totals,
        docs,
        disk_bytes,
        fingerprint,
    })
}

/// `ops_per_s`, `latency_p50_us` and the (non-gating) tail from the
/// repetitions' round times. Round `i` is the same work in every
/// repetition, so its time is the fastest of them; the latency unit is a
/// simulated hour (checkpoints rewrite every second round, so single
/// rounds fall into two modes and their median between them).
fn round_values(runs: &[Run], rounds_per_day: u32, out: &mut Outcome) {
    let n = runs[0].round_secs.len();
    if n == 0 {
        return;
    }
    let best: Vec<f64> = (0..n)
        .map(|i| {
            let times: Vec<f64> = runs.iter().map(|r| r.round_secs[i]).collect();
            stats::fastest(&times)
        })
        .collect();
    out.values.insert(
        "ops_per_s",
        runs[0].totals.inserted as f64 / best.iter().sum::<f64>(),
    );
    let per_hour = (rounds_per_day as usize / 24).max(1);
    let mut hour_us: Vec<f64> = best
        .chunks_exact(per_hour)
        .map(|h| h.iter().sum::<f64>() * 1e6)
        .collect();
    stats::sort(&mut hour_us);
    out.values
        .insert("latency_p50_us", stats::percentile_sorted(&hour_us, 0.50));
    out.values.insert(
        "bench.latency_tail_us",
        stats::percentile_sorted(&hour_us, 0.90),
    );
}

pub fn run(seed: u64, scale: Scale, pass: Pass, setup_reps: usize) -> Res<Outcome> {
    let telemetry = (pass == Pass::Traced).then(|| Arc::new(Telemetry::new()));
    let mut out = Outcome::default();
    let reps = if pass == Pass::Untraced {
        REPETITIONS
    } else {
        1
    };
    // Every repetition of the scenario starts from a fresh set-up, so
    // the set-up repetitions are shared out among them.
    let setups_each = setup_reps.div_ceil(reps);
    let (mut env, mut store) = setup_fastest(setups_each, &mut out, |store| {
        setup(seed, scale, store, telemetry.as_ref())
    })?;

    let before = telemetry.as_ref().map(|t| t.metrics_doc());
    let mut tr = (pass == Pass::Traced).then(Tracer::new);
    let cpu0 = cpu_seconds();
    // Every repetition leaves the same database behind; each is
    // reopened once it is closed.
    let times = reopens(pass == Pass::Traced, REOPENS);
    let mut runs: Vec<Run> = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep > 0 {
            drop(env);
            store.reopen_fastest(times, runs[rep - 1].docs, None, &mut out)?;
            (env, store) = setup_fastest(setups_each, &mut out, |store| {
                setup(seed, scale, store, None)
            })?;
        }
        runs.push(one_run(&env, pass, &mut tr)?);
    }
    if pass != Pass::Traced {
        out.values.insert("bench.cpu_s", cpu_seconds() - cpu0);
    }
    out.timed_busy_s = runs.iter().map(|r| r.wall_s).sum();
    round_values(&runs, env.cfg.rounds_per_day, &mut out);

    let last = runs.last().expect("at least one repetition ran");
    out.attempted = runs.iter().map(|r| r.totals.inserted).sum();
    out.failed = runs.iter().map(|r| r.totals.errors).sum();
    out.values.insert("runner.errors", out.failed as f64);
    out.checks
        .check("campaign rounds recorded no tool error", out.failed == 0);
    out.checks.check(
        "every inserted row was folded exactly once",
        runs.iter().all(|r| r.totals.folded == r.totals.inserted),
    );
    out.checks.check(
        "retention expired rows (the run outlasts the window)",
        scale.smoke || last.totals.expired > 0,
    );
    out.checks.check(
        "repetitions agree on every deterministic counter",
        runs.iter().all(|r| r.fingerprint == last.fingerprint),
    );
    out.values.insert(
        "disk_bytes_per_sample",
        last.disk_bytes as f64 / last.totals.inserted.max(1) as f64,
    );
    out.fingerprint = last.fingerprint.clone();
    let (docs, folded, expired) = (last.docs, last.totals.folded, last.totals.expired);

    if let (Some(t), Some(before), Some(mut tr)) = (&telemetry, &before, tr) {
        out.timed_spans = tr.records().len();
        counter_values(t, before, &mut out.values);
        let totals_ns = tr.totals().clone();
        let wall_ns = totals_ns.get("bench.longitudinal_35as").total_ns;
        let checkpoint = totals_ns.get("pathdb.checkpoint");
        let mut ms: Vec<f64> = tr
            .durations("pathdb.checkpoint")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        stats::sort(&mut ms);
        out.values.insert(
            "pathdb.checkpoint_ms_p50",
            stats::percentile_sorted(&ms, 0.50),
        );
        out.values.insert(
            "pathdb.checkpoint_ms_p95",
            stats::percentile_sorted(&ms, 0.95),
        );
        out.values.insert(
            "pathdb.checkpoint_ms_max",
            stats::percentile_sorted(&ms, 1.0),
        );
        out.values.insert(
            "pathdb.checkpoint.share",
            checkpoint.total_ns as f64 / wall_ns.max(1) as f64,
        );
        out.values.insert(
            "pathdb.rollup.catch_up_ns_per_row",
            totals_ns.get("pathdb.rollup.catch_up").total_ns as f64 / folded.max(1) as f64,
        );
        if expired > 0 {
            out.values.insert(
                "pathdb.retention.expire_us_per_row",
                totals_ns.get("pathdb.retention.expire").total_ns as f64 / expired as f64 / 1e3,
            );
        }
        out.values.insert(
            "pathdb.rollup.buckets",
            env.db.collection(ROLLUP_PATHS_STATS).read().len() as f64,
        );
        out.values.insert(
            "bench.unattributed_share",
            unattributed_share(&totals_ns, "bench.longitudinal_35as", wall_ns),
        );
        analytics(&env, &mut tr, &mut out)?;
        out.tracers.push(("main", tr));
    }
    drop(env);
    store.reopen_fastest(times, docs, telemetry.as_ref(), &mut out)?;
    Ok(out)
}
