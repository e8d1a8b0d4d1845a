//! `serve_static` and `serve_churn`: JSON request lines through
//! `PathIntelService::dispatch_json`, the boundary `upin serve` exposes.
//!
//! Both start from the same recorded database: a full-suite campaign
//! over the 35-AS SCIONLab replica, written WAL-durably (see
//! [`Store`] for where), checkpointed, closed and reopened the way
//! `upin serve --db DIR` opens it (so secondary indexes are whatever a
//! reopened database has).
//!
//! * `serve_static` — closed loop, one client, laps over one seeded
//!   request stream; nothing writes.
//! * `serve_churn` — the same stream open loop at a fixed rate, each
//!   request timed from its due time, while a writer thread runs one
//!   campaign lap per [`REQUESTS_PER_WRITER_LAP`] requests issued and
//!   expires a 100-lap retention window every tenth lap.

use super::requests::{kind_index, Catalog};
use super::{
    counter_values, es, fold_digest, lap_on_fork, reopens, setup_fastest, Checks, Outcome, Res,
    Scale, Store, REOPENS,
};
use crate::openloop::{run_open_loop, SpinClock};
use crate::pacing::{run_paced_writer, Pacer};
use crate::procstat::cpu_seconds;
use crate::stats;
use crate::trace::{span_if, unattributed_share, Tracer};
use pathdb::{Database, RetentionPolicy};
use scion_sim::net::ScionNetwork;
use scion_tools::showpaths::{showpaths, ShowpathsOptions};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use upin_core::api::{PathIntelService, ServiceRequest, ServiceResponse};
use upin_core::collect::{collect_paths, destinations, register_available_servers};
use upin_core::config::SuiteConfig;
use upin_core::measure::run_tests;
use upin_core::schema::{PathId, PATHS, PATHS_STATS};
use upin_core::select::{Constraints, Objective, UserRequest};
use upin_core::strategy::StrategyContext;
use upin_telemetry::Telemetry;

/// Requests of one closed-loop lap of `serve_static`; each lap replays
/// the same stream. Many short laps (~33 ms) rather than a few long
/// ones: the shared box takes the processor away for milliseconds at a
/// time, and the fastest lap is only as quiet as the quietest lap-long
/// moment of the run.
const STATIC_LAP_REQUESTS: usize = 1_500;
/// Laps per measured second (sized so the laps together take about the
/// run's seconds on the 2-core reference box).
const STATIC_LAPS_PER_S: f64 = 30.0;
/// Open-loop arrival rate of `serve_churn`, requests per second.
pub const CHURN_RATE_PER_S: f64 = 5_000.0;
/// The writer runs one campaign lap per this many requests issued.
pub const REQUESTS_PER_WRITER_LAP: u64 = 500;
/// The writer expires the retention window after every this many laps.
const EXPIRE_EVERY_LAPS: u64 = 10;
/// CI's serve SLO: a request answered later than this after it was due
/// (or failed) misses.
const SLO_NS: u64 = 1_000_000;
const PROBE_CALLS: usize = 2_000;

/// The recorded database, reopened and ready to serve.
struct ServeEnv {
    /// The writer's network; the service holds a fork of it.
    net: Arc<ScionNetwork>,
    db: Arc<Database>,
    svc: PathIntelService,
    catalog: Catalog,
    /// Measurement config of the recording (and of the churn writer).
    campaign: SuiteConfig,
    /// Samples the recording stored.
    recorded: u64,
    /// Simulated time the recording spans: the churn retention window.
    window_ms: f64,
}

fn iterations(scale: Scale) -> u32 {
    if scale.smoke {
        2
    } else {
        100
    }
}

/// Record, checkpoint, close, reopen, build the service and the request
/// catalog, and answer every catalog line once (fills the caches and
/// proves no line of the mix fails).
fn setup(
    seed: u64,
    scale: Scale,
    store: &Store,
    telemetry: Option<&Arc<Telemetry>>,
) -> Res<ServeEnv> {
    let mut net = ScionNetwork::scionlab(seed);
    if let Some(t) = telemetry {
        net.set_recorder(t.clone());
    }
    let campaign = SuiteConfig {
        iterations: iterations(scale),
        ..SuiteConfig::default()
    };
    let (recorded, window_ms) = {
        let (db, _) = store.open(None)?;
        register_available_servers(&db, &net).map_err(es)?;
        collect_paths(&db, &net, &campaign).map_err(es)?;
        let start_ms = net.now_ms();
        let report = run_tests(&db, &net, &campaign).map_err(es)?;
        if report.errors > 0 {
            return Err(format!("recording hit {} tool errors", report.errors));
        }
        db.checkpoint().map_err(es)?;
        (report.inserted as u64, net.now_ms() - start_ms)
    };
    let (db, _) = store.open(telemetry)?;
    // The service answers from a fork: every `showpaths` advances its
    // network's simulated clock, and the writer's clock (which stamps
    // and expires rows) must not depend on how requests interleave.
    let serve_net = Arc::new(net.fork(0x5e27e));
    let net = Arc::new(net);
    let db = Arc::new(db);
    let svc = PathIntelService::new(db.clone(), serve_net, campaign.local_as, seed);
    let catalog = Catalog::build(&db, seed)?;
    for line in &catalog.lines {
        let answer = svc.dispatch_json(line);
        if is_error(&answer) {
            return Err(format!("catalog line {line} fails: {answer}"));
        }
    }
    Ok(ServeEnv {
        net,
        db,
        svc,
        catalog,
        campaign: SuiteConfig {
            iterations: 1,
            skip_collection: true,
            ..campaign
        },
        recorded,
        window_ms,
    })
}

/// Responses are externally tagged: an error is `{"Error":{...}}`.
fn is_error(answer: &str) -> bool {
    answer.starts_with("{\"Error\"")
}

/// Every request line's `dispatch_json` answer must equal the typed
/// dispatch rendered to JSON — checked once per distinct line.
fn check_json_equals_typed(env: &ServeEnv, checks: &mut Checks) {
    let same = env
        .catalog
        .lines
        .iter()
        .zip(&env.catalog.requests)
        .all(|(line, req)| env.svc.dispatch_json(line) == env.svc.dispatch(req).to_json_string());
    checks.check(
        "dispatch_json equals dispatch(typed).to_json_string()",
        same,
    );
}

/// Close the serving database and reopen it: `disk_bytes_per_sample`,
/// the acknowledged-documents check and the `pathdb.recovery.*` values.
fn close_and_recover(
    env: ServeEnv,
    store: &Store,
    samples_stored: u64,
    telemetry: Option<&Arc<Telemetry>>,
    out: &mut Outcome,
) -> Res<()> {
    let docs = env.db.total_documents();
    let (_, disk_bytes) = env.db.disk_usage().ok_or("durable database reports disk")?;
    drop(env);
    out.values.insert(
        "disk_bytes_per_sample",
        disk_bytes as f64 / samples_stored.max(1) as f64,
    );
    let times = reopens(telemetry.is_some(), REOPENS);
    store.reopen_fastest(times, docs, telemetry, out)
}

/// Set-up repetitions before the timed section; the rest run after it
/// (see [`setup_fastest`]).
fn setup_reps_before(setup_reps: usize) -> usize {
    (setup_reps / 2).max(1)
}

/// Storage state both passes must agree on (taken before any probe
/// writes to the database).
fn fingerprint_storage(env: &ServeEnv, out: &mut Outcome) {
    let docs = env.db.total_documents() as u64;
    let disk_bytes = env.db.disk_usage().map_or(0, |(_, bytes)| bytes);
    out.fingerprint.push(("documents".into(), docs));
    out.fingerprint.push(("disk_bytes".into(), disk_bytes));
}

/// `latency_p50_us` from the quietest window of `p50_window`
/// consecutive requests and the (non-gating) p99 from the quietest of
/// `tail_window` (see [`stats::quietest_window`]): every window is the
/// same work, and interference that hits some windows leaves the
/// estimate where the others put it.
fn latency_values(latency_ns: &[u64], p50_window: usize, tail_window: usize, out: &mut Outcome) {
    let us: Vec<f64> = latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let (p50, _) = stats::quietest_window(&us, p50_window, 0.99);
    let (_, p99) = stats::quietest_window(&us, tail_window, 0.99);
    out.values.insert("latency_p50_us", p50);
    out.values.insert("bench.latency_tail_us", p99);
}

// ---------------------------------------------------------------------
// serve_static
// ---------------------------------------------------------------------

pub fn run_static(seed: u64, scale: Scale, traced: bool, setup_reps: usize) -> Res<Outcome> {
    let telemetry = traced.then(|| Arc::new(Telemetry::new()));
    let mut out = Outcome::default();
    let before = setup_reps_before(setup_reps);
    let (env, store) = setup_fastest(before, &mut out, |store| {
        setup(seed, scale, store, telemetry.as_ref())
    })?;
    let stream = env.catalog.stream(
        seed,
        if scale.smoke {
            200
        } else {
            STATIC_LAP_REQUESTS
        },
    );
    let laps = scale.count(STATIC_LAPS_PER_S, 4);
    out.attempted = (stream.len() * laps) as u64;

    let digest = match &telemetry {
        None => static_untraced(&env, &stream, laps, &mut out),
        Some(t) => static_traced(&env, &stream, laps, t, &mut out),
    };
    check_json_equals_typed(&env, &mut out.checks);
    out.fingerprint.push(("requests".into(), out.attempted));
    out.fingerprint.push(("response_digest".into(), digest));
    fingerprint_storage(&env, &mut out);
    let recorded = env.recorded;
    close_and_recover(env, &store, recorded, telemetry.as_ref(), &mut out)?;
    drop(store);
    if setup_reps > before {
        setup_fastest(setup_reps - before, &mut out, |store| {
            setup(seed, scale, store, None)
        })?;
    }
    Ok(out)
}

fn static_untraced(env: &ServeEnv, stream: &[u32], laps: usize, out: &mut Outcome) -> u64 {
    let mut latency_ns = Vec::with_capacity(stream.len() * laps);
    let mut lap_secs = Vec::with_capacity(laps);
    let mut digests = Vec::with_capacity(laps);
    let mut errors = 0u64;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for _ in 0..laps {
        let lap0 = Instant::now();
        let mut digest = 0u64;
        for &i in stream {
            let sent = Instant::now();
            let answer = env.svc.dispatch_json(&env.catalog.lines[i as usize]);
            latency_ns.push(sent.elapsed().as_nanos() as u64);
            errors += is_error(&answer) as u64;
            digest = fold_digest(digest, answer.as_bytes());
        }
        lap_secs.push(lap0.elapsed().as_secs_f64());
        digests.push(digest);
    }
    out.timed_busy_s = t0.elapsed().as_secs_f64();
    out.values.insert("bench.cpu_s", cpu_seconds() - cpu0);
    out.values
        .insert("ops_per_s", stream.len() as f64 / stats::fastest(&lap_secs));
    latency_values(&latency_ns, stream.len(), stream.len(), out);
    out.failed = errors;
    out.checks.check(
        "response digest identical across laps",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    out.checks.check("no request failed", errors == 0);
    digests[0]
}

/// One traced request: decode, dispatch and encode as three spans that
/// share the request's id. Returns the typed response, its JSON, and
/// the dispatch span's duration.
fn traced_request(
    tr: &mut Tracer,
    svc: &PathIntelService,
    line: &str,
    unit: u32,
) -> (ServiceResponse, String, u64, u64) {
    let (req, decode_ns) = tr.span("api.json_decode", unit, || {
        ServiceRequest::from_json_str(line).expect("catalog lines parse")
    });
    let (resp, dispatch_ns) = tr.span("api.dispatch", unit, || svc.dispatch(&req));
    let (json, encode_ns) = tr.span("api.json_encode", unit, || resp.to_json_string());
    (resp, json, dispatch_ns, decode_ns + dispatch_ns + encode_ns)
}

/// Per-kind dispatch totals.
#[derive(Default)]
struct KindTotals {
    ns: [u64; 5],
    n: [u64; 5],
}

impl KindTotals {
    fn add(&mut self, kind: usize, ns: u64) {
        self.ns[kind] += ns;
        self.n[kind] += 1;
    }

    fn report(&self, out: &mut Outcome) {
        // In `kind_index` order.
        const NAMES: [&str; 5] = [
            "api.dispatch_recommend_us",
            "api.dispatch_showpaths_us",
            "api.dispatch_evaluate_us",
            "api.dispatch_strategy_us",
            "api.dispatch_health_us",
        ];
        for (k, name) in NAMES.iter().enumerate() {
            if self.n[k] > 0 {
                out.values
                    .insert(name, self.ns[k] as f64 / self.n[k] as f64 / 1e3);
            }
        }
    }
}

/// The `api.*` values every traced serve pass reports.
fn api_values(tr: &Tracer, request_ns: &[u64], bytes: u64, errors: u64, out: &mut Outcome) {
    let totals = tr.totals();
    let decode = totals.get("api.json_decode");
    let dispatch = totals.get("api.dispatch");
    let encode = totals.get("api.json_encode");
    out.values.insert("api.json_decode_us", decode.mean(1e3));
    out.values.insert("api.dispatch_us", dispatch.mean(1e3));
    out.values.insert("api.json_encode_us", encode.mean(1e3));
    let all = decode.total_ns + dispatch.total_ns + encode.total_ns;
    out.values.insert(
        "api.json_share",
        (decode.total_ns + encode.total_ns) as f64 / all.max(1) as f64,
    );
    out.values.insert(
        "api.response_bytes",
        bytes as f64 / request_ns.len().max(1) as f64,
    );
    let mut us: Vec<f64> = request_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    stats::sort(&mut us);
    out.values
        .insert("api.request_p999_us", stats::percentile_sorted(&us, 0.999));
    out.values.insert("api.errors", errors as f64);
}

fn static_traced(
    env: &ServeEnv,
    stream: &[u32],
    laps: usize,
    t: &Arc<Telemetry>,
    out: &mut Outcome,
) -> u64 {
    let before = t.metrics_doc();
    let mut tr = Tracer::new();
    let mut kinds = KindTotals::default();
    let mut request_ns = Vec::with_capacity(stream.len() * laps);
    let mut digests = Vec::with_capacity(laps);
    let (mut bytes, mut errors) = (0u64, 0u64);
    tr.enter("bench.serve_static", 0);
    for _ in 0..laps {
        let mut digest = 0u64;
        for (unit, &i) in stream.iter().enumerate() {
            let line = &env.catalog.lines[i as usize];
            let (resp, json, dispatch_ns, total_ns) =
                traced_request(&mut tr, &env.svc, line, unit as u32);
            kinds.add(kind_index(&env.catalog.requests[i as usize]), dispatch_ns);
            request_ns.push(total_ns);
            errors += matches!(resp, ServiceResponse::Error(_)) as u64;
            bytes += json.len() as u64;
            digest = fold_digest(digest, json.as_bytes());
        }
        digests.push(digest);
    }
    let wall_ns = tr.exit();
    out.timed_busy_s = wall_ns as f64 / 1e9;
    out.timed_spans = tr.records().len();
    counter_values(t, &before, &mut out.values);
    api_values(&tr, &request_ns, bytes, errors, out);
    kinds.report(out);
    out.values.insert(
        "bench.unattributed_share",
        unattributed_share(tr.totals(), "bench.serve_static", wall_ns),
    );
    out.failed = errors;
    out.checks.check(
        "response digest identical across laps",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    out.checks.check("no request failed", errors == 0);
    out.checks.check(
        "statcache.hit_share stays 1.0 on a static database",
        out.values.get("statcache.hit_share") == Some(&1.0),
    );
    layer_probes(env, &mut tr, out);
    out.tracers.push(("reader", tr));
    digests[0]
}

/// Direct calls into the layers under `dispatch`, on warm caches: what
/// share of a request each one can account for.
fn layer_probes(env: &ServeEnv, tr: &mut Tracer, out: &mut Outcome) {
    let dests = destinations(&env.db).unwrap_or_default();
    if dests.is_empty() {
        return;
    }
    let local = env.campaign.local_as;
    let strategies = upin_core::strategy::registry();
    let ctx = StrategyContext {
        db: &env.db,
        seed: 1,
    };
    for call in 0..PROBE_CALLS {
        let (server_id, addr) = dests[call % dests.len()];
        let request = UserRequest {
            server_id,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        tr.span("select.recommend", call as u32, || {
            black_box(upin_core::select::recommend(&env.db, &request, 3)).is_ok()
        });
        let strategy = &strategies[call % strategies.len()];
        tr.span("select.strategy_rank", call as u32, || {
            black_box(strategy.rank(&ctx, &request, 3)).is_ok()
        });
        tr.span("sim.paths_warm", call as u32, || {
            black_box(env.svc.net().paths(local, addr.ia, 10)).len()
        });
        let opts = ShowpathsOptions {
            max_paths: 10,
            extended: true,
        };
        tr.span("tools.showpaths", call as u32, || {
            black_box(showpaths(env.svc.net(), local, addr.ia, opts)).is_ok()
        });
    }
    let totals = tr.totals();
    for (metric, span) in [
        ("select.recommend_us", "select.recommend"),
        ("select.strategy_rank_us", "select.strategy_rank"),
        ("sim.paths_warm_us", "sim.paths_warm"),
        ("tools.showpaths_us", "tools.showpaths"),
    ] {
        out.values.insert(metric, totals.get(span).mean(1e3));
    }
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/// What the paced writer did.
#[derive(Default)]
struct WriterLog {
    laps: u64,
    inserted: u64,
    expired: u64,
    errors: u64,
}

/// One writer lap: a campaign lap, then (every tenth lap) retention
/// expiry on the simulated clock.
fn writer_lap(env: &ServeEnv, lap: u64, tr: &mut Option<Tracer>, log: &mut WriterLog) -> Res<()> {
    let report = span_if(tr, "runner.run_tests", lap as u32, || {
        lap_on_fork(&env.db, &env.net, &env.campaign, lap)
    })?;
    log.laps += 1;
    log.inserted += report.inserted as u64;
    log.errors += report.errors as u64;
    if (lap + 1).is_multiple_of(EXPIRE_EVERY_LAPS) {
        let now = env.net.now_ms() as i64;
        let expired = span_if(tr, "pathdb.retention.expire", lap as u32, || {
            env.db.expire_retention(now)
        });
        log.expired += expired.map_err(es)?;
    }
    Ok(())
}

pub fn run_churn(seed: u64, scale: Scale, traced: bool, setup_reps: usize) -> Res<Outcome> {
    let telemetry = traced.then(|| Arc::new(Telemetry::new()));
    let mut out = Outcome::default();
    let before_reps = setup_reps_before(setup_reps);
    let (env, store) = setup_fastest(before_reps, &mut out, |store| {
        setup(seed, scale, store, telemetry.as_ref())
    })?;
    env.db.set_retention(RetentionPolicy {
        collection: PATHS_STATS.into(),
        time_field: "timestamp_ms".into(),
        keep_ms: env.window_ms as i64,
    });
    let n = scale.count(CHURN_RATE_PER_S, 1_000);
    let stream = env.catalog.stream(seed, n);
    let period_ns = (1e9 / CHURN_RATE_PER_S) as u64;
    let known_paths: BTreeSet<PathId> = env
        .db
        .collection(PATHS)
        .read()
        .iter()
        .filter_map(|d| d.id().and_then(|id| id.parse().ok()))
        .collect();

    out.attempted = n as u64;
    let before = telemetry.as_ref().map(|t| t.metrics_doc());
    let pacer = Pacer::new(REQUESTS_PER_WRITER_LAP);
    let mut reader_tr = traced.then(Tracer::new);
    let mut kinds = KindTotals::default();
    let mut request_ns = Vec::with_capacity(if traced { n } else { 0 });
    let (mut bytes, mut errors, mut unknown_paths) = (0u64, 0u64, 0u64);
    // Dispatch time of the requests during which the statcache merged
    // or recomputed: one reader, so the attribution is exact.
    let (mut merge_ns, mut merges, mut recompute_ns, mut recomputes) = (0u64, 0u64, 0u64, 0u64);
    let mut seen = (0u64, 0u64);

    let cpu0 = cpu_seconds();
    let (open, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Res<(WriterLog, Option<Tracer>)> {
            let mut log = WriterLog::default();
            let mut tr = traced.then(Tracer::new);
            let mut failure = None;
            run_paced_writer(&pacer, |lap| {
                if failure.is_none() {
                    failure = writer_lap(&env, lap, &mut tr, &mut log).err();
                }
            });
            failure.map_or(Ok((log, tr)), Err)
        });
        let mut clock = SpinClock::start();
        let open = run_open_loop(&mut clock, n, period_ns, |i| {
            pacer.request_issued();
            let line = &env.catalog.lines[stream[i] as usize];
            match (&mut reader_tr, &telemetry) {
                (Some(tr), Some(t)) => {
                    let (resp, json, dispatch_ns, total_ns) =
                        traced_request(tr, &env.svc, line, i as u32);
                    kinds.add(
                        kind_index(&env.catalog.requests[stream[i] as usize]),
                        dispatch_ns,
                    );
                    request_ns.push(total_ns);
                    bytes += json.len() as u64;
                    errors += matches!(resp, ServiceResponse::Error(_)) as u64;
                    unknown_paths += recommended_paths(&resp)
                        .filter(|id| !known_paths.contains(id))
                        .count() as u64;
                    let now = (
                        t.counter("statcache.grouped.merge"),
                        t.counter("statcache.grouped.recompute"),
                    );
                    if now.1 > seen.1 {
                        recompute_ns += dispatch_ns;
                        recomputes += 1;
                    } else if now.0 > seen.0 {
                        merge_ns += dispatch_ns;
                        merges += 1;
                    }
                    seen = now;
                }
                _ => {
                    let answer = env.svc.dispatch_json(line);
                    errors += is_error(&answer) as u64;
                    black_box(&answer);
                }
            }
        });
        pacer.finish();
        (open, writer.join().expect("writer thread panicked"))
    });
    let (log, writer_tr) = writer?;
    if !traced {
        // The generator's idle spin is not the service's cost.
        out.values.insert(
            "bench.cpu_s",
            cpu_seconds() - cpu0 - open.idle_ns as f64 / 1e9,
        );
    }
    out.timed_busy_s = (open.wall_ns - open.idle_ns) as f64 / 1e9;
    out.values
        .insert("ops_per_s", n as f64 / (open.wall_ns as f64 / 1e9));

    // The median comes from the quietest writer lap's worth of requests
    // (0.1 s, one whole campaign lap on the other thread). The tail needs
    // an expiry stall in every window: one window per writer cycle (ten
    // laps, one expiry), offset by half a cycle so the stall sits
    // mid-window instead of straddling two. A run shorter than that is
    // one window.
    let lap = REQUESTS_PER_WRITER_LAP as usize;
    let cycle = EXPIRE_EVERY_LAPS as usize * lap;
    if n >= 2 * cycle {
        latency_values(&open.latency_ns[cycle / 2..], lap, cycle, &mut out);
    } else {
        latency_values(&open.latency_ns, lap.min(n), n, &mut out);
    }
    out.failed = errors + log.errors;
    out.checks.check("no request failed", errors == 0);
    out.checks.check(
        "writer campaign laps recorded no tool error",
        log.errors == 0,
    );
    out.checks.check(
        "writer ran exactly ceil(requests / 500) laps",
        log.laps == (n as u64).div_ceil(REQUESTS_PER_WRITER_LAP),
    );
    out.fingerprint.push(("requests".into(), n as u64));
    out.fingerprint.push(("writer_laps".into(), log.laps));
    out.fingerprint
        .push(("writer_inserted".into(), log.inserted));
    out.fingerprint.push(("writer_expired".into(), log.expired));
    fingerprint_storage(&env, &mut out);

    if let (Some(t), Some(before), Some(mut tr), Some(wtr)) =
        (&telemetry, &before, reader_tr, writer_tr)
    {
        out.timed_spans = tr.records().len() + wtr.records().len();
        counter_values(t, before, &mut out.values);
        api_values(&tr, &request_ns, bytes, errors, &mut out);
        kinds.report(&mut out);
        out.values
            .insert("serve.slo_miss_share", open.miss_share(SLO_NS));
        out.values
            .insert("bench.generator_late_share", open.generator_late_share());
        if merges > 0 {
            out.values
                .insert("statcache.merge_us", merge_ns as f64 / merges as f64 / 1e3);
        }
        if recomputes > 0 {
            out.values.insert(
                "statcache.recompute_us",
                recompute_ns as f64 / recomputes as f64 / 1e3,
            );
        }
        // The generator idles by design; that wait is accounted for.
        let reader_self: u64 = tr.totals().iter().map(|(_, t)| t.self_ns).sum();
        out.values.insert(
            "bench.unattributed_share",
            1.0 - (reader_self + open.idle_ns) as f64 / open.wall_ns.max(1) as f64,
        );
        let expire = wtr.totals().get("pathdb.retention.expire");
        if log.expired > 0 {
            out.values.insert(
                "pathdb.retention.expire_us_per_row",
                expire.total_ns as f64 / log.expired as f64 / 1e3,
            );
        }
        out.checks.check(
            "every recommended path id exists in paths",
            unknown_paths == 0,
        );
        out.checks.check(
            "statcache merged and recomputed under the writer (hit_share < 1)",
            scale.smoke
                || merges > 0
                    && recomputes > 0
                    && out
                        .values
                        .get("statcache.hit_share")
                        .is_some_and(|s| *s < 1.0),
        );
        snapshot_probes(&env, &mut tr, &mut out)?;
        out.tracers.push(("reader", tr));
        out.tracers.push(("writer", wtr));
    }
    check_json_equals_typed(&env, &mut out.checks);
    let stored = env.recorded + log.inserted;
    close_and_recover(env, &store, stored, telemetry.as_ref(), &mut out)?;
    drop(store);
    if setup_reps > before_reps {
        setup_fastest(setup_reps - before_reps, &mut out, |store| {
            setup(seed, scale, store, None)
        })?;
    }
    Ok(out)
}

/// Path ids a response recommends.
fn recommended_paths(resp: &ServiceResponse) -> impl Iterator<Item = PathId> + '_ {
    let entries = match resp {
        ServiceResponse::Recommend(r) => r.entries.as_slice(),
        ServiceResponse::StrategyScore(r) => r.entries.as_slice(),
        _ => &[],
    };
    entries.iter().map(|e| e.aggregate.path_id)
}

/// `Database::read_snapshot` right after an appended batch (merge) and
/// right after an expiry (clone), single-threaded so nothing else takes
/// the snapshot first.
fn snapshot_probes(env: &ServeEnv, tr: &mut Tracer, out: &mut Outcome) -> Res<()> {
    const PROBE_LAPS: u64 = 4;
    for lap in 0..PROBE_LAPS {
        lap_on_fork(&env.db, &env.net, &env.campaign, 1_000_000 + lap)?;
        tr.span("pathdb.snapshot.merge_read", lap as u32, || {
            black_box(env.db.read_snapshot(PATHS_STATS)).len()
        });
        env.db
            .expire_retention(env.net.now_ms() as i64)
            .map_err(es)?;
        tr.span("pathdb.snapshot.clone_read", lap as u32, || {
            black_box(env.db.read_snapshot(PATHS_STATS)).len()
        });
    }
    for (metric, span) in [
        (
            "pathdb.snapshot.merge_read_us",
            "pathdb.snapshot.merge_read",
        ),
        (
            "pathdb.snapshot.clone_read_us",
            "pathdb.snapshot.clone_read",
        ),
    ] {
        out.values.insert(metric, tr.totals().get(span).mean(1e3));
    }
    Ok(())
}
