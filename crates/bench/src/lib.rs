//! Shared experiment runners for the benchmark harness: each function
//! regenerates one figure of the paper end to end (network → campaign →
//! database → analysis → rendered series). The `figures` binary prints
//! them; the Criterion benches time them and assert their shape.

use pathdb::{doc, Database, Document, Durability, Filter};
use scion_sim::addr::ScionAddr;
use scion_sim::fault::{CongestionEpisode, CongestionTarget};
use scion_sim::net::ScionNetwork;
use scion_sim::topology::scionlab::{paper_destinations, AWS_FRANKFURT, AWS_OHIO, AWS_SINGAPORE};
use upin_core::analysis::{
    self, CampaignSummary, IsdSetLatency, PathBandwidth, PathLatency, PathLoss,
    ReachabilityHistogram,
};
use upin_core::collect::{collect_paths, register_available_servers};
use upin_core::config::SuiteConfig;
use upin_core::measure::run_tests;
use upin_core::report;
use upin_core::schema::AVAILABLE_SERVERS;

/// Wall-clock (network time) one ping-only path measurement consumes:
/// 30 probes × 100 ms + the tool's post-campaign slack.
const PING_PATH_MS: f64 = 30.0 * 100.0 + 300.0;

/// Set up a network + database with servers registered and paths
/// collected (the state after `collect_paths.py`).
fn collected(seed: u64, cfg: &SuiteConfig) -> (ScionNetwork, Database) {
    let net = ScionNetwork::scionlab(seed);
    let db = Database::new();
    register_available_servers(&db, &net).expect("registration succeeds");
    collect_paths(&db, &net, cfg).expect("collection succeeds");
    (net, db)
}

/// Restrict `availableServers` to the given destinations (keeps their
/// registered ids), so a campaign measures only those.
fn restrict_destinations(db: &Database, keep: &[ScionAddr]) {
    let dests = upin_core::collect::destinations(db).expect("destinations readable");
    let keep_ids: Vec<pathdb::Value> = dests
        .iter()
        .filter(|(_, a)| keep.contains(a))
        .map(|(id, _)| pathdb::Value::from(id.to_string()))
        .collect();
    assert!(!keep_ids.is_empty(), "at least one destination remains");
    let handle = db.collection(AVAILABLE_SERVERS);
    handle.write().delete_many(&Filter::not_in("_id", keep_ids));
}

/// Fig. 4 — server reachability histogram.
pub fn fig4(seed: u64) -> (ReachabilityHistogram, String) {
    let cfg = SuiteConfig::default();
    let (_net, db) = collected(seed, &cfg);
    let hist = analysis::reachability(&db).expect("histogram");
    let text = report::render_fig4(&hist);
    (hist, text)
}

/// A ping-only latency campaign against one destination.
fn latency_campaign(seed: u64, iterations: u32, dest: ScionAddr) -> (ScionNetwork, Database, u32) {
    let cfg = SuiteConfig {
        iterations,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    restrict_destinations(&db, &[dest]);
    let server_id = analysis::server_id_of(&db, dest).expect("dest registered");
    run_tests(&db, &net, &cfg).expect("campaign succeeds");
    (net, db, server_id)
}

/// Fig. 5 — per-path latency whiskers to AWS Ireland.
pub fn fig5(seed: u64, iterations: u32) -> (Vec<PathLatency>, String) {
    let ireland = paper_destinations()[1];
    let (_net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let paths = analysis::latency_by_path(&db, server_id).expect("series");
    let text = report::render_fig5(&format!("{ireland} (AWS - Ireland)"), &paths);
    (paths, text)
}

/// The two long-distance ASes the paper excludes in Fig. 6's right plot.
fn fig6_excluded_ases() -> [String; 2] {
    [AWS_SINGAPORE.to_string(), AWS_OHIO.to_string()]
}

/// Fig. 6 — latency per ISD set × hop count, with/without exclusions.
pub fn fig6(seed: u64, iterations: u32) -> (Vec<IsdSetLatency>, Vec<IsdSetLatency>, String) {
    let ireland = paper_destinations()[1];
    let (_net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let all = analysis::latency_by_isd_set(&db, server_id, &[]).expect("series");
    let excl = fig6_excluded_ases();
    let excl_refs: Vec<&str> = excl.iter().map(String::as_str).collect();
    let filtered = analysis::latency_by_isd_set(&db, server_id, &excl_refs).expect("series");
    let text = report::render_fig6(
        &format!("{ireland} (AWS - Ireland)"),
        &all,
        &filtered,
        &excl_refs,
    );
    (all, filtered, text)
}

/// A bandwidth campaign against one destination at one target rate.
fn bandwidth_campaign(
    seed: u64,
    iterations: u32,
    dest: ScionAddr,
    target_mbps: f64,
) -> (Database, u32) {
    let cfg = SuiteConfig {
        iterations,
        run_bwtests: true,
        bw_target_mbps: target_mbps,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    restrict_destinations(&db, &[dest]);
    let server_id = analysis::server_id_of(&db, dest).expect("dest registered");
    run_tests(&db, &net, &cfg).expect("campaign succeeds");
    (db, server_id)
}

/// Fig. 7 — bandwidth per path to the Germany server at 12 Mbps.
pub fn fig7(seed: u64, iterations: u32) -> (Vec<PathBandwidth>, String) {
    let germany = paper_destinations()[0];
    let (db, server_id) = bandwidth_campaign(seed, iterations, germany, 12.0);
    let paths = analysis::bandwidth_by_path(&db, server_id, 12.0).expect("series");
    let text = report::render_fig_bandwidth(
        "Fig 7",
        &format!("{germany} (Magdeburg, Germany)"),
        12.0,
        &paths,
    );
    (paths, text)
}

/// Fig. 8 — the same at a 150 Mbps target (the reversal experiment).
pub fn fig8(seed: u64, iterations: u32) -> (Vec<PathBandwidth>, String) {
    let germany = paper_destinations()[0];
    let (db, server_id) = bandwidth_campaign(seed, iterations, germany, 150.0);
    let paths = analysis::bandwidth_by_path(&db, server_id, 150.0).expect("series");
    let text = report::render_fig_bandwidth(
        "Fig 8",
        &format!("{germany} (Magdeburg, Germany)"),
        150.0,
        &paths,
    );
    (paths, text)
}

/// Fig. 9 — packet loss per path to AWS N. Virginia, with a congestion
/// episode at a shared node (AWS Frankfurt) blacking out the tail paths
/// of every measurement round. Returns the series, the rendering and
/// how many tail paths each round's episode covered.
pub fn fig9(seed: u64, rounds: u32) -> (Vec<PathLoss>, String, usize) {
    let virginia = paper_destinations()[2];
    let cfg = SuiteConfig {
        iterations: 1,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    restrict_destinations(&db, &[virginia]);
    let server_id = analysis::server_id_of(&db, virginia).expect("registered");
    let n_paths = upin_core::measure::paths_of(&db, server_id)
        .expect("paths readable")
        .len();
    // Black out the last `blackout` paths of each round: measurements run
    // sequentially at PING_PATH_MS per path, so the window is exact.
    let blackout = (n_paths / 3).max(2);
    for _round in 0..rounds {
        let t0 = net.now_ms();
        let start_ms = t0 + (n_paths - blackout) as f64 * PING_PATH_MS;
        let end_ms = t0 + n_paths as f64 * PING_PATH_MS;
        net.add_congestion(CongestionEpisode {
            target: CongestionTarget::Node(AWS_FRANKFURT),
            start_ms,
            end_ms,
            severity: 1.0,
        });
        run_tests(&db, &net, &cfg).expect("round succeeds");
    }
    let paths = analysis::loss_by_path(&db, server_id).expect("series");
    let text = report::render_fig9(&format!("{virginia} (AWS US N. Virginia)"), &paths);
    (paths, text, blackout)
}

/// §6.2's consistency claim: "we achieved a consistent trend across all
/// five destinations". Runs the 12 Mbps campaign against each paper
/// destination and reports, per destination, whether the two Fig. 7
/// orderings (MTU > 64 B, downstream > upstream) hold.
pub fn destination_consistency(
    seed: u64,
    iterations: u32,
) -> (Vec<(ScionAddr, bool, bool)>, String) {
    let mut rows = Vec::new();
    let mut text =
        String::from("Fig 7 trend per destination (12 Mbps target): MTU>64B | down>up\n");
    for dest in paper_destinations() {
        let (db, server_id) = bandwidth_campaign(seed, iterations, dest, 12.0);
        let paths = analysis::bandwidth_by_path(&db, server_id, 12.0).expect("series");
        let mean = |f: &dyn Fn(&analysis::PathBandwidth) -> Option<f64>| {
            let v: Vec<f64> = paths.iter().filter_map(f).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let up64 = mean(&|p| p.up_64.as_ref().map(|w| w.mean));
        let upmtu = mean(&|p| p.up_mtu.as_ref().map(|w| w.mean));
        let down64 = mean(&|p| p.down_64.as_ref().map(|w| w.mean));
        let downmtu = mean(&|p| p.down_mtu.as_ref().map(|w| w.mean));
        let mtu_beats_small = upmtu > up64 && downmtu > down64;
        let down_beats_up = downmtu > upmtu && down64 > up64;
        let _ = writeln!(
            &mut text,
            "  {dest}:  {}  |  {}   (up {up64:.1}/{upmtu:.1}, down {down64:.1}/{downmtu:.1} Mbps)",
            tick(mtu_beats_small),
            tick(down_beats_up)
        );
        rows.push((dest, mtu_beats_small, down_beats_up));
    }
    (rows, text)
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

use std::fmt::Write;

/// A usability readout the paper motivates ("offer users many paths to
/// choose from"): for each paper destination, how many distinct paths a
/// mix of user requests actually receives, and the Pareto-front size.
pub fn choice_diversity(
    seed: u64,
    iterations: u32,
) -> (Vec<(ScionAddr, usize, usize, usize)>, String) {
    use upin_core::multi::pareto_front;
    use upin_core::select::{aggregate_paths, recommend, Constraints, Objective, UserRequest};

    let cfg = SuiteConfig {
        iterations,
        run_bwtests: true,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    restrict_destinations(&db, &paper_destinations());
    run_tests(&db, &net, &cfg).expect("campaign succeeds");

    let request_mix = |server_id: u32| -> Vec<UserRequest> {
        let objectives = [
            Objective::MinLatency,
            Objective::MinJitter,
            Objective::MinLoss,
            Objective::MaxBandwidthDown,
            Objective::MaxBandwidthUp,
        ];
        let constraint_sets = [
            Constraints::default(),
            Constraints {
                exclude_countries: vec!["United States".into()],
                ..Constraints::default()
            },
            Constraints {
                exclude_isds: vec![18],
                ..Constraints::default()
            },
        ];
        objectives
            .iter()
            .flat_map(|o| {
                constraint_sets.iter().map(move |c| UserRequest {
                    server_id,
                    objective: *o,
                    constraints: c.clone(),
                })
            })
            .collect()
    };

    let mut rows = Vec::new();
    let mut text = String::from(
        "Choice diversity per destination: candidates | distinct winners | Pareto front\n",
    );
    for dest in paper_destinations() {
        let server_id = analysis::server_id_of(&db, dest).expect("registered");
        let candidates =
            aggregate_paths(&db, server_id, &upin_core::select::Constraints::default())
                .expect("aggregates");
        let mut winners = std::collections::BTreeSet::new();
        for req in request_mix(server_id) {
            if let Ok(recs) = recommend(&db, &req, 1) {
                winners.insert(recs[0].aggregate.path_id);
            }
        }
        let front = pareto_front(
            &candidates,
            &[
                Objective::MinLatency,
                Objective::MinLoss,
                Objective::MaxBandwidthDown,
            ],
        );
        let _ = writeln!(
            &mut text,
            "  {dest}:  {:>2} candidates | {:>2} distinct winners | {:>2} Pareto-optimal",
            candidates.len(),
            winners.len(),
            front.len()
        );
        rows.push((dest, candidates.len(), winners.len(), front.len()));
    }
    (rows, text)
}

/// §6.1's thesis quantified: correlation of per-path latency with
/// geographic path length vs hop count, over the Ireland campaign.
pub fn correlation(seed: u64, iterations: u32) -> (upin_core::analysis::CorrelationReport, String) {
    let ireland = paper_destinations()[1];
    let (net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let report = analysis::distance_correlation(&db, &net, server_id).expect("correlation");
    let text = format!(
        "Latency correlates with geography, not hop count (to {ireland}):\n  Pearson r (latency ~ path length km): {:+.3}\n  Pearson r (latency ~ hop count):      {:+.3}\n  over {} paths\n",
        report.r_distance, report.r_hops, report.paths
    );
    (report, text)
}

/// §6 scalars — a full campaign across all 21 destinations sized by
/// `iterations` (≈ `iterations × total_paths` samples; 25 rounds land
/// near the paper's ≈3000-sample dataset).
pub fn summary_campaign(seed: u64, iterations: u32) -> (CampaignSummary, String) {
    let cfg = SuiteConfig {
        iterations,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    run_tests(&db, &net, &cfg).expect("campaign succeeds");
    let summary = analysis::summary(&db).expect("summary");
    let text = report::render_summary(&summary);
    (summary, text)
}

/// A synthetic campaign database — `servers × paths_per` path documents
/// and `servers × paths_per × rounds` stats rows — for the selection and
/// strategy benches. Every fourth path crosses the United States, so
/// country constraints have something to cut.
pub fn synthetic_db(servers: u32, paths_per: u32, rounds: u32, index: bool) -> Database {
    use upin_core::schema::{PATHS, PATHS_STATS};

    let db = Database::new();
    if index {
        upin_core::schema::ensure_indexes(&db);
    }
    {
        let handle = db.collection(PATHS);
        let mut coll = handle.write();
        for s in 1..=servers {
            for p in 0..paths_per {
                coll.insert_one(doc! {
                    "_id" => format!("{s}_{p}"),
                    "server_id" => s as i64,
                    "path_index" => p as i64,
                    "sequence" => format!("17-ffaa:1:eaf#0,1 17-ffaa:0:1107#{p},0"),
                    "hops" => (5 + p % 3) as i64,
                    "isds" => vec![16i64, 17, (17 + p % 4) as i64],
                    "ases" => vec![format!("17-ffaa:0:{p}")],
                    "countries" => vec![if p % 4 == 0 { "United States" } else { "Switzerland" }.to_string()],
                    "operators" => vec!["op".to_string()],
                })
                .unwrap();
            }
        }
    }
    {
        let handle = db.collection(PATHS_STATS);
        let mut coll = handle.write();
        let mut batch = Vec::new();
        for s in 1..=servers {
            for p in 0..paths_per {
                for r in 0..rounds {
                    batch.push(doc! {
                        "_id" => format!("{s}_{p}_{r}"),
                        "path_id" => format!("{s}_{p}"),
                        "server_id" => s as i64,
                        "timestamp_ms" => (r * 3300) as i64,
                        "isds" => vec![16i64, 17],
                        "hops" => (5 + p % 3) as i64,
                        "avg_latency_ms" => 20.0 + (p * 13 % 250) as f64 + (r % 7) as f64,
                        "jitter_ms" => 0.3 + (p % 5) as f64,
                        "loss_pct" => (p % 9) as f64,
                        "bw_up_mtu_mbps" => 8.0 + (p % 4) as f64,
                        "bw_down_mtu_mbps" => 10.0 + (p % 3) as f64,
                        "target_mbps" => 12.0,
                    });
                }
            }
        }
        coll.insert_many(batch).unwrap();
    }
    db
}

/// `n` stats rows of one destination — the batch the insertion and
/// durability ablations write.
pub fn stats_batch(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            doc! {
                "_id" => format!("2_{}_{}", i % 24, 1_000_000 + i),
                "server_id" => 2i64,
                "avg_latency_ms" => 25.0 + i as f64,
                "loss_pct" => 0.0f64,
                "isds" => vec![16i64, 17, 19],
                "bw_down_mtu_mbps" => 11.9f64,
            }
        })
        .collect()
}

/// An empty database at `mode` over the in-memory storage backend, so
/// a durability comparison measures the WAL's framing and group commit,
/// not disk latency.
pub fn empty_db(mode: Durability) -> Database {
    use pathdb::database::OpenOptions;
    match mode {
        Durability::None => Database::new(),
        _ => {
            Database::open_durable_with(
                std::path::PathBuf::from("/bench"),
                OpenOptions::new(mode)
                    .with_storage(std::sync::Arc::new(pathdb::FaultyStorage::new())),
            )
            .expect("open on empty storage")
            .0
        }
    }
}

/// One synthetic `paths_stats` row shaped like a campaign measurement,
/// spread over 21 servers × 4 paths.
pub fn rollup_row(i: u64, ts: i64) -> Document {
    let s = (i % 21 + 1) as i64;
    let p = (i % 4) as i64;
    doc! {
        "_id" => format!("{s}_{p}_{ts}_{i}"),
        "server_id" => s,
        "path_id" => format!("{s}_{p}"),
        "timestamp_ms" => ts,
        "avg_latency_ms" => 20.0 + (i % 250) as f64,
        "jitter_ms" => 0.3 + (i % 5) as f64,
        "loss_pct" => (i % 9) as f64,
    }
}

/// A database with `n` [`rollup_row`]s spread over one simulated day
/// (24 hourly buckets × 84 groups) and the stats rollup caught up.
pub fn rollup_db(n: u64) -> Database {
    const DAY_MS: i128 = 86_400_000;
    let db = Database::new();
    db.register_rollup(upin_core::schema::stats_rollup());
    let docs = (0..n)
        .map(|i| rollup_row(i, (i as i128 * DAY_MS / n as i128) as i64))
        .collect();
    db.collection(upin_core::schema::PATHS_STATS)
        .write()
        .insert_many(docs)
        .unwrap();
    db.rollup_catch_up().unwrap();
    db
}

/// The query endpoints of a generated topology: its designated user AS
/// and a core in the last ISD — a worst-case cross-ISD route.
pub fn cross_isd_endpoints(
    topo: &scion_sim::topology::Topology,
) -> (scion_sim::addr::IsdAsn, scion_sim::addr::IsdAsn) {
    let user = topo
        .ases()
        .find(|(_, n)| n.kind == scion_sim::topology::AsKind::User)
        .map(|(_, n)| n.ia)
        .expect("generated topology marks a user AS");
    let far = topo
        .ases()
        .filter(|(_, n)| n.kind.is_core())
        .map(|(_, n)| n.ia)
        .max_by_key(|ia| ia.isd)
        .expect("topology has cores");
    (user, far)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_matches_paper_scalars() {
        let (hist, text) = fig4(1);
        assert_eq!(hist.destinations, 21);
        assert!(
            (5.4..5.95).contains(&hist.mean_min_hops),
            "{}",
            hist.mean_min_hops
        );
        let frac = hist.frac_within(6);
        assert!((0.62..0.80).contains(&frac), "{frac}");
        assert!(text.contains("Fig 4"));
    }

    #[test]
    fn fig7_trend_is_consistent_across_destinations() {
        let (rows, text) = destination_consistency(11, 4);
        assert_eq!(rows.len(), 5);
        for (dest, mtu_beats_small, down_beats_up) in &rows {
            assert!(mtu_beats_small, "MTU ordering broken at {dest}");
            assert!(down_beats_up, "asymmetry broken at {dest}");
        }
        assert!(!text.contains("NO"), "{text}");
    }

    #[test]
    fn users_get_real_choice() {
        let (rows, text) = choice_diversity(13, 3);
        assert_eq!(rows.len(), 5);
        for (dest, candidates, winners, front) in &rows {
            assert!(*candidates >= 3, "{dest}: {candidates}");
            assert!(*winners >= 2, "{dest}: request mix must spread over paths");
            assert!(*front >= 1 && front <= candidates, "{dest}");
        }
        assert!(text.contains("distinct winners"));
    }

    #[test]
    fn latency_tracks_distance_not_hops() {
        let (report, text) = correlation(3, 5);
        assert!(report.paths >= 8);
        assert!(
            report.r_distance > 0.95,
            "distance correlation {}",
            report.r_distance
        );
        // Hop count correlates weakly and only incidentally (longer
        // detours also add a hop); distance must dominate by a wide
        // margin — the paper's "predominant component" claim.
        assert!(
            report.r_distance > report.r_hops + 0.3,
            "distance {} must dominate hops {}",
            report.r_distance,
            report.r_hops
        );
        assert!(text.contains("Pearson"));
    }

    #[test]
    fn fig9_blackout_hits_tail_paths() {
        let (paths, text, blackout) = fig9(5, 2);
        let n = paths.len();
        assert!(n >= 6);
        for p in &paths[n - blackout..] {
            assert!(p.total_blackout(), "{p:?}");
        }
        for p in &paths[..n - blackout] {
            assert!(p.mean_loss() < 20.0, "{p:?}");
        }
        assert!(text.contains("<- 100% loss"));
    }
}
