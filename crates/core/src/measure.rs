//! Test execution: the `run_test.py` stage of the suite (§5.3).
//!
//! Three nested loops — iterations × destinations × paths — run, per
//! path: `scion ping -c 30 --interval 0.1s --sequence '...'`, then
//! `scion-bwtestclient -cs 3,64,?,<target>` and `-cs 3,MTU,?,<target>`.
//! Results (plus the ISD set traversed) are buffered and inserted with
//! **one bulk write per destination** — the fault-tolerance/overhead
//! trade-off of §4.2.2: a crash costs at most one in-flight sample per
//! path of one destination, never the balance of the dataset. On a
//! WAL-durable database ([`pathdb::Durability::Wal`]) each such bulk
//! insertion is one atomic WAL commit group, so the bound holds across
//! real process crashes, not just in memory: recovery replays every
//! committed destination batch and drops at most the torn one
//! (demonstrated end-to-end by `tests/crash_recovery.rs`).
//!
//! Execution (worker pool, retry/backoff, circuit breaker, deterministic
//! batching) lives in [`crate::runner`]; this module defines what a
//! single path measurement is and the campaign's report shape.

use crate::config::SuiteConfig;
use crate::error::SuiteResult;
use crate::health::CampaignEvent;
use crate::runner::{retry_tool, RetryPolicy};
use crate::schema::{self, PathMeasurement, PathSpec, StatId, PATHS};
use pathdb::{Database, Filter};
use scion_sim::addr::ScionAddr;
use scion_sim::net::ScionNetwork;
use scion_tools::bwtester::bwtest_over;
use scion_tools::ping::{ping_over, resolve_path, PathSelection, PingOptions};
use scion_tools::ToolError;

/// Outcome of one measurement campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasureReport {
    pub iterations: u32,
    pub destinations: usize,
    /// Path measurements executed (including failed ones).
    pub measured: usize,
    /// Stats documents inserted.
    pub inserted: usize,
    /// Measurements that recorded a tool-level error after retries.
    pub errors: usize,
    /// Tool invocations that were re-attempted after a transient failure.
    pub retries: usize,
    /// Path measurements skipped by the circuit breaker.
    pub skipped: usize,
    /// Most worker threads ever live at once (1 for sequential runs);
    /// never exceeds [`SuiteConfig::workers`].
    pub peak_workers: usize,
    /// Destinations whose circuit breaker tripped at least once.
    pub tripped: Vec<u32>,
    /// Structured retry/breaker event log, in destination order.
    pub events: Vec<CampaignEvent>,
}

/// Run the full campaign against the paths currently stored.
pub fn run_tests(
    db: &Database,
    net: &ScionNetwork,
    cfg: &SuiteConfig,
) -> SuiteResult<MeasureReport> {
    crate::runner::run_campaign(db, net, cfg)
}

/// Paths of one destination, ordered by path index.
pub fn paths_of(db: &Database, server_id: u32) -> SuiteResult<Vec<PathSpec>> {
    let handle = db.collection(PATHS);
    let coll = handle.read();
    let docs = coll
        .query(Filter::eq("server_id", server_id as i64))
        .sort("path_index")
        .run();
    docs.iter().map(schema::parse_path_spec).collect()
}

/// Measure a single path once, retrying transient tool failures under
/// `policy` (backoffs advance `net`'s simulated clock; retries land in
/// `events`). Never fails: tool-level errors that survive the retries
/// become a recorded measurement with `error` set, keeping the campaign
/// alive in the presence of down or misbehaving servers (§4.1.2).
pub fn measure_path(
    net: &ScionNetwork,
    cfg: &SuiteConfig,
    policy: &RetryPolicy,
    spec: &PathSpec,
    addr: ScionAddr,
    events: &mut Vec<CampaignEvent>,
) -> PathMeasurement {
    let path_id = spec.id;
    let stat_id = StatId {
        path: path_id,
        timestamp_ms: net.now_ms() as u64,
    };
    let mut m = PathMeasurement {
        stat_id,
        // The traversed ISD set was computed at collection time and
        // stored on the path document; reuse it instead of re-parsing
        // the sequence string on every measurement.
        isds: spec.isds.clone(),
        hops: spec.hops,
        avg_latency_ms: None,
        jitter_ms: None,
        loss_pct: 100.0,
        bw_up_64: None,
        bw_down_64: None,
        bw_up_mtu: None,
        bw_down_mtu: None,
        target_mbps: cfg.bw_target_mbps,
        error: None,
    };

    // `--sequence` is parsed and authorized once; the three tools run
    // over the resolved path. A sequence that no longer authorizes is
    // what the first tool would have reported.
    let selection = PathSelection::Sequence(spec.sequence.clone());
    let path = match resolve_path(net, cfg.local_as, addr.ia, &selection) {
        Ok(path) => path,
        Err(e) => {
            m.error = Some(error_tag("ping", &e));
            return m;
        }
    };

    // 1. Latency and loss.
    let ping_opts = PingOptions {
        count: cfg.ping_count,
        interval_ms: cfg.ping_interval_ms,
        timeout_ms: 1000.0,
        selection,
    };
    match retry_tool(net, policy, "ping", path_id, events, || {
        ping_over(net, addr, path.clone(), &ping_opts)
    }) {
        Ok(report) => {
            m.avg_latency_ms = report.avg_ms;
            m.jitter_ms = report.mdev_ms;
            m.loss_pct = report.loss_pct;
        }
        Err(e) => {
            m.error = Some(error_tag("ping", &e));
            return m;
        }
    }

    if !cfg.run_bwtests {
        return m;
    }

    // 2. Bandwidth with small packets.
    match retry_tool(net, policy, "bwtest64", path_id, events, || {
        bwtest_over(net, addr, path.clone(), &cfg.small_spec(), None)
    }) {
        Ok(r) => {
            m.bw_up_64 = Some(r.cs.achieved_mbps);
            m.bw_down_64 = Some(r.sc.achieved_mbps);
        }
        Err(e) => m.error = Some(error_tag("bwtest64", &e)),
    }

    // 3. Bandwidth with MTU-sized packets.
    match retry_tool(net, policy, "bwtestMTU", path_id, events, || {
        bwtest_over(net, addr, path.clone(), &cfg.mtu_spec(), None)
    }) {
        Ok(r) => {
            m.bw_up_mtu = Some(r.cs.achieved_mbps);
            m.bw_down_mtu = Some(r.sc.achieved_mbps);
        }
        Err(e) => m.error = Some(error_tag("bwtestMTU", &e)),
    }
    m
}

fn error_tag(stage: &str, e: &ToolError) -> String {
    match e {
        ToolError::Net(scion_sim::net::NetError::Timeout) => format!("{stage}: timeout"),
        ToolError::Net(scion_sim::net::NetError::BadResponse) => format!("{stage}: bad response"),
        other => format!("{stage}: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use crate::schema::PATHS_STATS;
    use pathdb::Value;
    use scion_sim::fault::ServerBehavior;
    use scion_sim::topology::scionlab::paper_destinations;

    fn quick_cfg() -> SuiteConfig {
        SuiteConfig {
            iterations: 1,
            some_only: true,
            ping_count: 5,
            run_bwtests: false,
            ..SuiteConfig::default()
        }
    }

    fn setup(cfg: &SuiteConfig) -> (Database, ScionNetwork) {
        let net = ScionNetwork::scionlab(9);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        collect_paths(&db, &net, cfg).unwrap();
        (db, net)
    }

    #[test]
    fn some_only_tests_exactly_first_destination() {
        let cfg = quick_cfg();
        let (db, net) = setup(&cfg);
        let report = run_tests(&db, &net, &cfg).unwrap();
        assert_eq!(report.destinations, 1);
        assert_eq!(report.errors, 0);
        let paths = paths_of(&db, 1).unwrap();
        assert_eq!(report.measured, paths.len());
        assert_eq!(report.inserted, report.measured);
        // Only server 1 appears in the stats.
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        assert_eq!(
            coll.query(Filter::eq("server_id", 1i64)).count(),
            coll.len()
        );
    }

    #[test]
    fn iterations_multiply_sample_count() {
        let cfg = SuiteConfig {
            iterations: 3,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        let report = run_tests(&db, &net, &cfg).unwrap();
        let paths = paths_of(&db, 1).unwrap();
        assert_eq!(report.inserted, 3 * paths.len());
    }

    #[test]
    fn measurements_carry_isds_and_latency() {
        let cfg = quick_cfg();
        let (db, net) = setup(&cfg);
        run_tests(&db, &net, &cfg).unwrap();
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        for d in coll.query_all().run() {
            let m = PathMeasurement::from_doc(&d).unwrap();
            assert!(m.avg_latency_ms.is_some(), "{d}");
            assert!(!m.isds.is_empty());
            assert!(m.loss_pct < 50.0);
        }
    }

    #[test]
    fn down_server_is_recorded_not_fatal() {
        let cfg = SuiteConfig {
            run_bwtests: true,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        // Destination 1 is the ETHZ-AP server in registration order.
        let (_, addr) = crate::collect::destinations(&db).unwrap()[0];
        net.set_server_behavior(addr, ServerBehavior::Down);
        let report = run_tests(&db, &net, &cfg).unwrap();
        assert!(report.errors > 0, "errors must be recorded");
        assert_eq!(report.inserted, report.measured, "all samples stored");
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        let errored = coll
            .query(Filter::exists("error").and(Filter::ne("error", Value::Null)))
            .count();
        assert!(errored > 0);
    }

    #[test]
    fn bad_response_server_is_survivable() {
        let cfg = SuiteConfig {
            run_bwtests: true,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        let (_, addr) = crate::collect::destinations(&db).unwrap()[0];
        net.set_server_behavior(addr, ServerBehavior::BadResponse);
        let report = run_tests(&db, &net, &cfg).unwrap();
        // Ping still works (SCMP), bandwidth tests fail with BadResponse.
        assert!(report.errors > 0);
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        let d = coll.query_all().run().remove(0);
        let m = PathMeasurement::from_doc(&d).unwrap();
        assert!(m.avg_latency_ms.is_some(), "latency survives");
        assert!(m.bw_up_64.is_none(), "bandwidth does not");
        assert!(m.error.as_deref().unwrap().contains("bad response"));
    }

    #[test]
    fn unauthorized_sequence_is_recorded_as_the_ping_stage_error() {
        let cfg = SuiteConfig {
            run_bwtests: true,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        let (_, addr) = crate::collect::destinations(&db).unwrap()[0];
        let mut spec = paths_of(&db, 1).unwrap().remove(0);
        // Same endpoints, but an egress interface no beacon ever used.
        spec.sequence = spec.sequence.replacen(',', ",6", 1);
        let before = net.now_ms();
        let mut events = Vec::new();
        let policy = RetryPolicy::from_config(&cfg);
        let m = measure_path(&net, &cfg, &policy, &spec, addr, &mut events);
        assert_eq!(
            m.error,
            Some(format!(
                "ping: no path: no path matching sequence '{}'",
                spec.sequence
            ))
        );
        assert_eq!(
            (m.avg_latency_ms, m.loss_pct, m.bw_up_64),
            (None, 100.0, None)
        );
        assert!(events.is_empty(), "not transient: never retried");
        assert_eq!(net.now_ms(), before, "no tool ran");
    }

    #[test]
    fn sequence_is_resolved_once_per_measurement() {
        let cfg = SuiteConfig {
            run_bwtests: true,
            ..quick_cfg()
        };
        let (db, mut net) = setup(&cfg);
        let telemetry = std::sync::Arc::new(upin_telemetry::Telemetry::new());
        net.set_recorder(telemetry.clone());
        let (_, addr) = crate::collect::destinations(&db).unwrap()[0];
        let policy = RetryPolicy::from_config(&cfg);
        for (n, spec) in paths_of(&db, 1).unwrap().iter().enumerate() {
            let m = measure_path(&net, &cfg, &policy, spec, addr, &mut Vec::new());
            assert_eq!(m.error, None);
            assert!(m.bw_down_mtu.is_some(), "all three tools ran");
            assert_eq!(telemetry.counter("sim.pathcache.hit"), n as u64 + 1);
        }
        assert_eq!(telemetry.counter("sim.pathcache.miss"), 0);
    }

    #[test]
    fn full_campaign_on_paper_destinations_shape() {
        // A tiny full campaign over all 21 destinations: the paper's
        // ≈3000-sample dataset scaled down to 1 iteration, ping-only.
        let cfg = SuiteConfig {
            some_only: false,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        let report = run_tests(&db, &net, &cfg).unwrap();
        assert_eq!(report.destinations, 21);
        assert_eq!(report.errors, 0);
        assert!(report.inserted > 100, "got {}", report.inserted);
        // The five paper destinations all have samples.
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        let dests = crate::collect::destinations(&db).unwrap();
        for want in paper_destinations() {
            let id = dests.iter().find(|(_, a)| *a == want).unwrap().0;
            assert!(coll.query(Filter::eq("server_id", id as i64)).count() > 0);
        }
    }

    #[test]
    fn parallel_campaign_inserts_same_volume() {
        let cfg = SuiteConfig {
            some_only: false,
            workers: 4,
            ..quick_cfg()
        };
        let (db, net) = setup(&cfg);
        let report = run_tests(&db, &net, &cfg).unwrap();
        let sequential_cfg = SuiteConfig { workers: 1, ..cfg };
        let (db2, net2) = setup(&sequential_cfg);
        let report2 = run_tests(&db2, &net2, &sequential_cfg).unwrap();
        assert_eq!(report.inserted, report2.inserted);
        assert_eq!(report.errors, 0);
    }
}
