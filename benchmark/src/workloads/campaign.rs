//! `campaign_1000as`: the write path at scale.
//!
//! Set-up generates a BRITE-style 1000-AS topology, brings the network
//! up under a beacon cap, opens a WAL-durable database, registers the
//! servers and collects paths (lazy path combination happens here, so
//! the control plane shows in `setup_s`). The timed section runs
//! full-suite campaign laps (ping + two bandwidth tests per path, one
//! WAL commit group per destination batch), then failover sessions to
//! every destination under a seeded schedule of transit-AS outages.
//! Afterwards the database is closed and reopened (pure WAL replay).
//! The database lives on in-memory storage (see [`Store`]); the traced
//! pass adds a short real-disk probe.
//!
//! The topology generator's seed is a constant of the workload — like
//! the fixed SCIONLab replica of the other three — so a lap is the same
//! amount of work on every run; `--seed` drives the simulator's noise
//! and the chaos schedule.

use super::{
    counter_values, es, lap_on_fork, reopens, setup_fastest, Outcome, Res, Scale, Scratch, Store,
};
use crate::procstat::cpu_seconds;
use crate::stats;
use crate::trace::{unattributed_share, Tracer};
use pathdb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::beacon::BeaconConfig;
use scion_sim::chaos::{AsOutage, ChaosSchedule};
use scion_sim::dataplane::scmp::ProbeOptions;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::random::{random_topology, RandomTopologyConfig};
use scion_tools::bwtester::{bwtest, BwParams};
use scion_tools::ping::{ping, resolve_path, PathSelection, PingOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use upin_core::collect::{collect_paths, destinations, register_available_servers};
use upin_core::config::SuiteConfig;
use upin_core::failover::{percentile, run_chaos_campaign, ChaosReport, FailoverConfig, Session};
use upin_core::measure::{measure_path, paths_of};
use upin_core::runner::RetryPolicy;
use upin_core::schema::{PathSpec, PATHS_STATS};
use upin_telemetry::Telemetry;

/// Generator seed of the topology: part of the workload's definition.
const TOPOLOGY_SEED: u64 = 3;
const BEACON_CAP: usize = 8;
/// Campaign laps per measured second (a lap is ~0.14 s on the
/// reference box). The laps take four fifths of the timed section and
/// the failover sessions the rest: `ops_per_s` comes from the fastest
/// lap, and the more laps a run holds the likelier one of them falls
/// into a quiet moment of the box.
const LAPS_PER_S: f64 = 5.0;
/// Reopens behind `pathdb.recovery_ms` in the traced pass (a WAL replay
/// of every lap takes over a second).
const REOPENS: usize = 5;
/// Failover ticks per session per measured second.
const TICKS_PER_S: f64 = 40.0;
/// Destinations whose best path gets a transit-AS outage scheduled.
const OUTAGE_DESTINATIONS: usize = 48;
/// Destinations the tools/sim differential replays cover.
const PROBE_DESTINATIONS: usize = 120;
/// Laps of the no-log comparison behind `pathdb.wal.share`.
const WAL_SHARE_LAPS: u64 = 5;
/// Laps of the real-disk probe.
const DISK_LAPS: u64 = 2;

struct Env {
    net: ScionNetwork,
    db: Database,
    user: IsdAsn,
    campaign: SuiteConfig,
    generate_ms: f64,
    bringup_ms: f64,
    collect_ms: f64,
}

fn topology_config(scale: Scale) -> RandomTopologyConfig {
    RandomTopologyConfig {
        isds: 5,
        ases_per_isd: if scale.smoke { (18, 22) } else { (190, 210) },
        cores_per_isd: (2, 3),
        core_mesh_density: 0.5,
        pref_attachment: 0.6,
        ..RandomTopologyConfig::default()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn setup(seed: u64, scale: Scale, store: &Store, telemetry: Option<&Arc<Telemetry>>) -> Res<Env> {
    let t0 = Instant::now();
    let (topo, user) = random_topology(TOPOLOGY_SEED, &topology_config(scale)).map_err(es)?;
    let generate_ms = ms_since(t0);
    let t = Instant::now();
    let cap = BeaconConfig {
        beacons_per_pair: BEACON_CAP,
        ..BeaconConfig::default()
    };
    let mut net = ScionNetwork::with_beacon_config(topo, seed, &cap);
    if let Some(t) = telemetry {
        net.set_recorder(t.clone());
    }
    let bringup_ms = ms_since(t);
    let (db, _) = store.open(telemetry)?;
    register_available_servers(&db, &net).map_err(es)?;
    let campaign = SuiteConfig {
        local_as: user,
        iterations: 1,
        skip_collection: true,
        ..SuiteConfig::default()
    };
    let t = Instant::now();
    collect_paths(&db, &net, &campaign).map_err(es)?;
    let collect_ms = ms_since(t);
    Ok(Env {
        net,
        db,
        user,
        campaign,
        generate_ms,
        bringup_ms,
        collect_ms,
    })
}

/// Destinations that have at least one stored path (a server in the
/// user's own AS has none and is skipped by collection).
fn measured_destinations(db: &Database) -> Res<Vec<(u32, ScionAddr, Vec<PathSpec>)>> {
    let mut out = Vec::new();
    for (id, addr) in destinations(db).map_err(es)? {
        out.push((id, addr, paths_of(db, id).map_err(es)?));
    }
    Ok(out)
}

/// Seeded outages of transit ASes that some alternative path avoids, so
/// a session must route around them instead of being stranded.
fn chaos_schedule(env: &Env, seed: u64, ticks: usize, cfg: &FailoverConfig) -> ChaosSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5c4e_d01e);
    let mut nodes: Vec<IsdAsn> = Vec::new();
    for addr in env.net.topology().all_servers() {
        if nodes.len() >= OUTAGE_DESTINATIONS {
            break;
        }
        if addr.ia == env.user {
            continue;
        }
        let paths = env.net.paths(env.user, addr.ia, cfg.max_paths);
        let Some(best) = paths.first() else { continue };
        let inner = &best.hops[1..best.hops.len().saturating_sub(1)];
        let avoidable = inner.iter().map(|h| h.ia).find(|ia| {
            paths[1..]
                .iter()
                .any(|p| p.hops.iter().all(|x| x.ia != *ia))
        });
        if let Some(node) = avoidable {
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
    }
    // Anchor only now: every `paths` query above advanced the clock,
    // and windows anchored before them would already be in the past.
    let t0 = env.net.now_ms();
    let horizon = ticks as f64 * cfg.tick_interval_ms;
    let mut schedule = ChaosSchedule::new(seed, t0 + horizon);
    for node in nodes {
        let start = rng.gen_range(0.05..0.75) * horizon;
        schedule.outages.push(AsOutage {
            node,
            start_ms: t0 + start,
            duration_ms: rng.gen_range(0.05..0.2) * horizon,
        });
    }
    schedule
}

/// Detours on this topology reach ~900 ms RTT, so a failure is
/// sometimes only detected by a timed-out probe train (450 ms) before
/// the re-pin (~160 ms): the switch SLA is set to what that path can
/// meet, and a violation is a failed operation.
const SWITCH_SLA_MS: f64 = 1_000.0;

fn failover_config(env: &Env, ticks: usize) -> FailoverConfig {
    FailoverConfig {
        local_as: env.user,
        sla_ms: SWITCH_SLA_MS,
        ticks,
        ..FailoverConfig::default()
    }
}

/// The `failover.*` values, and the workload's latency: a lap's time is
/// the reciprocal of `ops_per_s`, so `latency_p50_us` here is what the
/// user of path control waits for — the median failover switch, from
/// detecting the failed path to being re-pinned on another, on the
/// *simulated* clock. It repeats exactly for a seed and moves only
/// when probing, path ranking or re-selection change.
fn failover_values(report: &ChaosReport, ticks: u64, wall_s: f64, out: &mut Outcome) {
    let switches = report.switch_latencies();
    let sim_us = |q: f64| percentile(&switches, q).unwrap_or(0.0) * 1e3;
    out.values.insert("latency_p50_us", sim_us(0.50));
    out.values.insert("bench.latency_tail_us", sim_us(0.99));
    out.values
        .insert("failover.ticks_per_s", ticks as f64 / wall_s);
    out.values
        .insert("failover.tick_us", wall_s * 1e6 / ticks.max(1) as f64);
    out.values
        .insert("failover.switches", switches.len() as f64);
    out.values.insert(
        "failover.switch_p50_sim_ms",
        percentile(&switches, 0.50).unwrap_or(0.0),
    );
    out.values.insert(
        "failover.switch_p99_sim_ms",
        percentile(&switches, 0.99).unwrap_or(0.0),
    );
    out.values.insert(
        "failover.sla_violations",
        report.total_sla_violations() as f64,
    );
}

/// Counters both passes must agree on.
fn fingerprint(
    env: &Env,
    inserted: u64,
    report: &ChaosReport,
    ticks: u64,
    out: &mut Outcome,
) -> Res<u64> {
    let docs = env.db.total_documents();
    let (_, disk_bytes) = env.db.disk_usage().ok_or("durable database reports disk")?;
    out.fingerprint.push(("inserted".into(), inserted));
    out.fingerprint.push(("documents".into(), docs as u64));
    out.fingerprint.push(("disk_bytes".into(), disk_bytes));
    out.fingerprint.push(("failover_ticks".into(), ticks));
    out.fingerprint.push((
        "failover_switches".into(),
        report.switch_latencies().len() as u64,
    ));
    out.fingerprint.push((
        "failover_report_digest".into(),
        super::fold_digest(0, report.to_json_string().as_bytes()),
    ));
    Ok(disk_bytes)
}

pub fn run(seed: u64, scale: Scale, traced: bool, setup_reps: usize) -> Res<Outcome> {
    let telemetry = traced.then(|| Arc::new(Telemetry::new()));
    let mut out = Outcome::default();
    // Half of the set-up repetitions run here, the rest between laps.
    let before = (setup_reps / 2).max(1);
    let (env, store) = setup_fastest(before, &mut out, |store| {
        setup(seed, scale, store, telemetry.as_ref())
    })?;
    let laps = scale.count(LAPS_PER_S, 2) as u64;
    let ticks = scale.count(TICKS_PER_S, 20);
    let fcfg = failover_config(&env, ticks);
    let dests: Vec<(u32, ScionAddr)> = destinations(&env.db).map_err(es)?;

    out.values.insert("sim.generate_ms", env.generate_ms);
    out.values.insert("sim.bringup_ms", env.bringup_ms);
    out.values.insert("runner.collect_paths_ms", env.collect_ms);
    let total_ticks = (dests.len() * ticks) as u64;

    let (inserted, chaos) = match &telemetry {
        None => untraced(
            &env,
            seed,
            scale,
            laps,
            setup_reps - before,
            &dests,
            &fcfg,
            &mut out,
        )?,
        Some(t) => traced_replay(&env, seed, laps, &dests, &fcfg, t, &mut out)?,
    };
    out.attempted = inserted + total_ticks;
    let violations = chaos.total_sla_violations() as u64;
    out.failed += violations;
    out.checks
        .check("no failover switch broke the SLA", violations == 0);
    out.checks.check(
        "chaos schedule forced failover switches",
        scale.smoke || !chaos.switch_latencies().is_empty(),
    );
    let disk_bytes = fingerprint(&env, inserted, &chaos, total_ticks, &mut out)?;
    out.values.insert(
        "disk_bytes_per_sample",
        disk_bytes as f64 / inserted.max(1) as f64,
    );
    out.values.insert(
        "pathdb.wal.bytes_per_sample",
        disk_bytes as f64 / inserted.max(1) as f64,
    );
    if traced {
        probes(&env, scale, laps, &mut out)?;
    }
    let docs = env.db.total_documents();
    drop(env);
    store.reopen_fastest(reopens(traced, REOPENS), docs, telemetry.as_ref(), &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    env: &Env,
    seed: u64,
    scale: Scale,
    laps: u64,
    later_setups: usize,
    dests: &[(u32, ScionAddr)],
    fcfg: &FailoverConfig,
    out: &mut Outcome,
) -> Res<(u64, ChaosReport)> {
    let mut lap_secs = Vec::with_capacity(laps as usize);
    let mut lap_counts = Vec::with_capacity(laps as usize);
    let (mut retries, mut trips, mut errors) = (0usize, 0usize, 0usize);
    let setup_every = (laps / (later_setups as u64 + 1)).max(1);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for lap in 0..laps {
        let t = Instant::now();
        let report = lap_on_fork(&env.db, &env.net, &env.campaign, lap)?;
        lap_secs.push(t.elapsed().as_secs_f64());
        lap_counts.push(report.inserted as u64);
        retries += report.retries;
        trips += report.tripped.len();
        errors += report.errors;
        // The remaining set-up repetitions, spread evenly over the laps
        // (each builds its own network and store and drops them).
        if (lap + 1) % setup_every == 0 && (lap + 1) / setup_every <= later_setups as u64 {
            setup_fastest(1, out, |store| setup(seed, scale, store, None))?;
        }
    }
    let schedule = chaos_schedule(env, seed, fcfg.ticks, fcfg);
    let t = Instant::now();
    let chaos = run_chaos_campaign(&env.net, &schedule, dests, fcfg, None).map_err(es)?;
    let chaos_s = t.elapsed().as_secs_f64();
    out.timed_busy_s = t0.elapsed().as_secs_f64();
    out.values.insert("bench.cpu_s", cpu_seconds() - cpu0);
    // Every lap is the same work, so the fastest lap is the rate.
    let per_sample: Vec<f64> = lap_secs
        .iter()
        .zip(&lap_counts)
        .map(|(s, &n)| s / n.max(1) as f64)
        .collect();
    out.values
        .insert("ops_per_s", 1.0 / stats::fastest(&per_sample));
    out.values.insert("runner.retries", retries as f64);
    out.values.insert("runner.breaker_trips", trips as f64);
    out.values.insert("runner.errors", errors as f64);
    failover_values(&chaos, (dests.len() * fcfg.ticks) as u64, chaos_s, out);
    out.failed = errors as u64;
    out.checks
        .check("campaign laps recorded no tool error", errors == 0);
    Ok((lap_counts.iter().sum(), chaos))
}

/// The campaign loop replayed from its public pieces, with a span
/// around each: per destination a fork, one `measure_path` per stored
/// path, one `insert_many` per batch — then the failover sessions tick
/// by tick. On a healthy network (no breaker ever trips) this is the
/// program `run_tests` / `run_chaos_campaign` run, which the
/// fingerprint comparison with the untraced pass proves.
fn traced_replay(
    env: &Env,
    seed: u64,
    laps: u64,
    dests: &[(u32, ScionAddr)],
    fcfg: &FailoverConfig,
    t: &Arc<Telemetry>,
    out: &mut Outcome,
) -> Res<(u64, ChaosReport)> {
    let before = t.metrics_doc();
    let jobs = measured_destinations(&env.db)?;
    let policy = RetryPolicy::from_config(&env.campaign);
    let mut tr = Tracer::new();
    let mut inserted = 0u64;
    let mut errors = 0u64;
    tr.enter("bench.campaign_1000as", 0);
    for lap in 0..laps {
        // `lap_on_fork`, then `run_campaign`'s single iteration.
        let lap_net = env.net.fork(0xC0FFEE ^ lap);
        let mut slowest = 0.0f64;
        for (index, (_, addr, paths)) in jobs.iter().enumerate() {
            let (fork, _) = tr.span("sim.fork", lap as u32, || lap_net.fork(index as u64));
            let start_ms = fork.now_ms();
            let mut events = Vec::new();
            tr.enter("runner.batch", lap as u32);
            let mut docs = Vec::with_capacity(paths.len());
            for spec in paths {
                let (m, _) = tr.span("runner.measure_path", lap as u32, || {
                    measure_path(&fork, &env.campaign, &policy, spec, *addr, &mut events)
                });
                errors += m.error.is_some() as u64;
                docs.push(m.to_doc());
            }
            slowest = slowest.max(fork.now_ms() - start_ms);
            let (ids, _) = tr.span("pathdb.insert_many", lap as u32, || {
                env.db.collection(PATHS_STATS).write().insert_many(docs)
            });
            inserted += ids.map_err(es)?.len() as u64;
            tr.exit();
        }
        lap_net.advance_ms(slowest);
        let ahead = lap_net.now_ms() - env.net.now_ms();
        if ahead > 0.0 {
            env.net.advance_ms(ahead);
        }
    }
    // `run_chaos_campaign`, session by session, tick by tick.
    let schedule = chaos_schedule(env, seed, fcfg.ticks, fcfg);
    let transitions = env.net.install_chaos(&schedule).map_err(es)?;
    let trace = scion_sim::chaos::render_trace(&env.net.chaos_events());
    let t_chaos = Instant::now();
    let mut reports = Vec::with_capacity(dests.len());
    for (index, &(server_id, addr)) in dests.iter().enumerate() {
        let fork = env.net.fork(index as u64);
        let mut session = Session::open(&fork, fcfg, addr, None);
        for _ in 0..fcfg.ticks {
            tr.span("failover.tick", index as u32, || {
                black_box(session.tick());
            });
        }
        reports.push(session.into_report(server_id));
    }
    let chaos_s = t_chaos.elapsed().as_secs_f64();
    let wall_ns = tr.exit();
    out.timed_busy_s = wall_ns as f64 / 1e9;
    out.timed_spans = tr.records().len();
    let chaos = ChaosReport {
        sla_ms: fcfg.sla_ms,
        transitions,
        trace,
        dests: reports,
    };

    counter_values(t, &before, &mut out.values);
    let totals = tr.totals().clone();
    out.values
        .insert("sim.fork_ns", totals.get("sim.fork").mean(1.0));
    out.values.insert(
        "runner.measure_path_us",
        totals.get("runner.measure_path").mean(1e3),
    );
    out.values.insert(
        "pathdb.insert_many_us",
        totals.get("pathdb.insert_many").mean(1e3),
    );
    failover_values(&chaos, (dests.len() * fcfg.ticks) as u64, chaos_s, out);
    out.values.insert(
        "bench.unattributed_share",
        unattributed_share(&totals, "bench.campaign_1000as", wall_ns),
    );
    out.values.insert("runner.errors", errors as f64);
    out.failed = errors;
    out.checks
        .check("campaign laps recorded no tool error", errors == 0);
    out.checks.check(
        "no checkpoint runs during campaign_1000as",
        t.counter("pathdb.checkpoints")
            == before
                .counters
                .get("pathdb.checkpoints")
                .copied()
                .unwrap_or(0),
    );

    out.tracers.push(("main", tr));
    Ok((inserted, chaos))
}

/// Differential replays behind the `tools.*` / `sim.*` / `pathdb.wal.*`
/// layer values: the same (destination, path) list measured through the
/// tool entry points, then through `ScionNetwork` directly, on
/// same-seed forks; and the same laps on an in-memory database.
fn probes(env: &Env, scale: Scale, laps: u64, out: &mut Outcome) -> Res<()> {
    let jobs = measured_destinations(&env.db)?;
    let cfg = &env.campaign;
    let mut tr = Tracer::new();

    // The runner's own share of a lap: what `run_tests` takes beyond
    // the forks, measurements and batch inserts the replay accounts for.
    if let Some((_, replay)) = out.tracers.iter().find(|(name, _)| *name == "main") {
        let totals = replay.totals();
        let replay_lap_ns = (totals.get("sim.fork").total_ns
            + totals.get("runner.measure_path").total_ns
            + totals.get("pathdb.insert_many").total_ns) as f64
            / laps.max(1) as f64;
        let t0 = Instant::now();
        lap_on_fork(&env.db, &env.net, cfg, laps)?;
        let run_tests_ns = t0.elapsed().as_nanos() as f64;
        out.values
            .insert("runner.self_share", 1.0 - replay_lap_ns / run_tests_ns);
    }
    for (index, (_, addr, paths)) in jobs.iter().take(PROBE_DESTINATIONS).enumerate() {
        let tools_fork = env.net.fork(0x7001_0000 | index as u64);
        let sim_fork = env.net.fork(0x7001_0000 | index as u64);
        for spec in paths {
            let selection = PathSelection::Sequence(spec.sequence.clone());
            let ping_opts = PingOptions {
                count: cfg.ping_count,
                interval_ms: cfg.ping_interval_ms,
                timeout_ms: 1000.0,
                selection: selection.clone(),
            };
            tr.span("tools.ping", index as u32, || {
                black_box(ping(&tools_fork, cfg.local_as, *addr, &ping_opts)).is_ok()
            });
            for spec_str in [cfg.small_spec(), cfg.mtu_spec()] {
                tr.span("tools.bwtest", index as u32, || {
                    black_box(bwtest(
                        &tools_fork,
                        cfg.local_as,
                        *addr,
                        &spec_str,
                        None,
                        &selection,
                    ))
                    .is_ok()
                });
            }
            let path = resolve_path(&sim_fork, cfg.local_as, addr.ia, &selection).map_err(es)?;
            let probe = ProbeOptions {
                count: cfg.ping_count,
                interval_ms: cfg.ping_interval_ms,
                payload_bytes: 8,
                timeout_ms: 1000.0,
            };
            tr.span("sim.ping", index as u32, || {
                black_box(sim_fork.ping(&path, *addr, &probe)).is_ok()
            });
            let header = scion_sim::dataplane::header_bytes(path.hop_count());
            for spec_str in [cfg.small_spec(), cfg.mtu_spec()] {
                let flow = BwParams::parse_with_mtu(&spec_str, path.mtu, header)
                    .map_err(es)?
                    .flow();
                tr.span("sim.bwtest", index as u32, || {
                    black_box(sim_fork.bwtest(&path, *addr, &flow, &flow)).is_ok()
                });
            }
        }
    }
    for (metric, span) in [
        ("tools.ping_us", "tools.ping"),
        ("tools.bwtest_us", "tools.bwtest"),
        ("sim.ping_us", "sim.ping"),
        ("sim.bwtest_us", "sim.bwtest"),
    ] {
        out.values.insert(metric, tr.totals().get(span).mean(1e3));
    }

    // Cold vs warm ranked lookups, on a network of the same topology
    // that has answered nothing yet.
    let (topo, user) = random_topology(TOPOLOGY_SEED, &topology_config(scale)).map_err(es)?;
    let cap = BeaconConfig {
        beacons_per_pair: BEACON_CAP,
        ..BeaconConfig::default()
    };
    let cold = ScionNetwork::with_beacon_config(topo, 1, &cap);
    for pass in ["sim.paths_cold", "sim.paths_warm"] {
        for (index, (_, addr, _)) in jobs.iter().enumerate() {
            tr.span(pass, index as u32, || {
                black_box(cold.paths(user, addr.ia, cfg.max_paths)).len()
            });
        }
    }
    out.values.insert(
        "sim.paths_cold_us",
        tr.totals().get("sim.paths_cold").mean(1e3),
    );
    out.values.insert(
        "sim.paths_warm_us",
        tr.totals().get("sim.paths_warm").mean(1e3),
    );

    // The same laps without a log: what group commit costs a lap.
    let memory = Database::new();
    register_available_servers(&memory, &env.net).map_err(es)?;
    collect_paths(&memory, &env.net, cfg).map_err(es)?;
    let mut secs = [Vec::new(), Vec::new()];
    for lap in 0..WAL_SHARE_LAPS {
        for (slot, db) in [&memory, &env.db].into_iter().enumerate() {
            let t0 = Instant::now();
            lap_on_fork(db, &env.net, cfg, 0x7002_0000 | lap)?;
            secs[slot].push(t0.elapsed().as_secs_f64());
        }
    }
    out.values.insert(
        "pathdb.wal.share",
        1.0 - stats::median(&secs[0]) / stats::median(&secs[1]),
    );
    out.tracers.push(("probes", tr));

    // A few laps on the host filesystem with fsync on, for the record:
    // what a commit group costs on this sandbox's disk.
    let scratch = Scratch::new("campaign_1000as")?;
    let telemetry = Arc::new(Telemetry::new());
    let (disk, _) = Store::disk(scratch.path("db")).open(Some(&telemetry))?;
    register_available_servers(&disk, &env.net).map_err(es)?;
    collect_paths(&disk, &env.net, cfg).map_err(es)?;
    for lap in 0..DISK_LAPS {
        lap_on_fork(&disk, &env.net, cfg, 0x7003_0000 | lap)?;
    }
    if let Some(h) = telemetry
        .metrics_doc()
        .histograms
        .get("wall.pathdb.wal.commit_ms")
    {
        out.values
            .insert("pathdb.wal.disk_commit_us_p50", h.p50 * 1e3);
        out.values
            .insert("pathdb.wal.disk_commit_us_p95", h.p95 * 1e3);
    }
    Ok(())
}
