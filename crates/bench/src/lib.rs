//! Shared experiment runners for the benchmark harness: each figure of
//! the paper is regenerated end to end (network → campaign → database →
//! analysis → rendered series) and judged against the claims the paper
//! makes about it, from the same series. The `figures` binary prints
//! them and the root test `results_pin` holds both the text and the
//! claims. The fixtures at the end build what the `floors` test times.

use pathdb::{doc, Database, Document, Durability, Filter};
use scion_sim::addr::ScionAddr;
use scion_sim::fault::{CongestionEpisode, CongestionTarget};
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;
use scion_sim::topology::scionlab::{paper_destinations, AWS_FRANKFURT, AWS_OHIO, AWS_SINGAPORE};
use scion_tools::showpaths::{showpaths, ShowpathsOptions};
use std::fmt::Write;
use upin_core::analysis::{self, IsdSetLatency, PathBandwidth, Whisker};
use upin_core::collect::{collect_paths, register_available_servers, retain_short_paths};
use upin_core::config::SuiteConfig;
use upin_core::measure::run_tests;
use upin_core::report;
use upin_core::schema::{AVAILABLE_SERVERS, PATHS};

/// One statement the paper makes about a figure, judged on its series.
pub struct Claim {
    pub text: String,
    pub holds: bool,
}

fn claim(text: impl Into<String>, holds: bool) -> Claim {
    Claim {
        text: text.into(),
        holds,
    }
}

/// A figure's rendering and its claims, from one run of its campaign.
pub struct Figure {
    pub text: String,
    pub claims: Vec<Claim>,
}

/// A figure as a function of `--seed` and `--iterations`.
pub type Render = fn(u64, u32) -> Figure;

/// Every figure, by name: what `figures` prints and what
/// `figures all --seed 42 --iterations 10 --out results` writes, one
/// `results/<name>.txt` per entry (the root test `results_pin` holds
/// the files and the claims to it).
pub const FIGURES: [(&str, Render); 11] = [
    ("fig4", |seed, _| fig4(seed)),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", |seed, n| fig9(seed, n.min(5))),
    ("correlation", correlation),
    ("consistency", |seed, n| {
        destination_consistency(seed, n.min(5))
    }),
    ("diversity", |seed, n| choice_diversity(seed, n.min(5))),
    ("summary", |seed, _| summary_campaign(seed, 25)),
    ("pruning", |seed, _| pruning(seed)),
];

/// `(figure, claim, why)`: the claims that do not hold at
/// `figures all --seed 42 --iterations 10`. EXPERIMENTS marks each ⚠️.
pub const EXPECTED_FAILURES: [(&str, &str, &str); 1] = [(
    "diversity",
    "19-ffaa:0:1303,[141.44.25.144]: the request mix lands on at least 2 distinct winners",
    "Germany's 4 candidates put one path on the Pareto front alone",
)];

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
fn fig4(seed: u64) -> Figure {
    let (_net, db) = collected(seed, &SuiteConfig::default());
    let hist = analysis::reachability(&db).expect("histogram");
    let within_6 = hist.frac_within(6);
    Figure {
        text: report::render_fig4(&hist),
        claims: vec![
            claim("21 reachable destinations", hist.destinations == 21),
            claim(
                "mean minimum path length within 5.4–5.95 hops (paper: 5.66)",
                (5.4..5.95).contains(&hist.mean_min_hops),
            ),
            claim(
                "62–80 % of destinations within 6 hops (paper: ≈70 %)",
                (0.62..0.80).contains(&within_6),
            ),
        ],
    }
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
fn fig5(seed: u64, iterations: u32) -> Figure {
    let ireland = paper_destinations()[1];
    let (_net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let paths = analysis::latency_by_path(&db, server_id).expect("series");
    // The paper's "clear separation of latency values into three main
    // layers", lowest first: EU-only, US detours, Singapore detours. A
    // layer that is not there averages NaN, which no claim accepts.
    let layers = analysis::latency_layers(&paths, 0.35);
    let layer_mean = |i: usize| {
        let ids = layers.get(i).map_or(&[][..], Vec::as_slice);
        let v: Vec<f64> = paths
            .iter()
            .filter(|p| ids.contains(&p.path_id))
            .map(|p| p.whisker.mean)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let (eu, us, singapore) = (layer_mean(0), layer_mean(1), layer_mean(2));
    let hops = |h: usize| paths.iter().any(|p| p.hops == h);
    Figure {
        text: report::render_fig5(&format!("{ireland} (AWS - Ireland)"), &paths),
        claims: vec![
            claim("at least 8 retained paths", paths.len() >= 8),
            claim(
                "retained paths have 6 or 7 hops",
                paths.iter().all(|p| p.hops == 6 || p.hops == 7),
            ),
            claim(
                "both the 6-hop and the 7-hop class occur",
                hops(6) && hops(7),
            ),
            claim("latency separates into three layers", layers.len() == 3),
            claim("the EU-only layer averages under 80 ms", eu < 80.0),
            claim(
                "the US-detour layer averages over twice the EU-only one",
                us > eu * 2.0,
            ),
            claim(
                "the Singapore-detour layer averages over 1.4× the US-detour one",
                singapore > us * 1.4,
            ),
        ],
    }
}

/// Fig. 6 — latency per ISD set × hop count, with/without the two
/// long-distance ASes the paper excludes in its right plot.
fn fig6(seed: u64, iterations: u32) -> Figure {
    let ireland = paper_destinations()[1];
    let (_net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let all = analysis::latency_by_isd_set(&db, server_id, &[]).expect("series");
    let excl = [AWS_SINGAPORE.to_string(), AWS_OHIO.to_string()];
    let excl_refs: Vec<&str> = excl.iter().map(String::as_str).collect();
    let filtered = analysis::latency_by_isd_set(&db, server_id, &excl_refs).expect("series");
    let text = report::render_fig6(
        &format!("{ireland} (AWS - Ireland)"),
        &all,
        &filtered,
        &excl_refs,
    );
    // The home ISD set's column at a hop count; a claim about a column
    // that is not there does not hold.
    const HOME: [u16; 3] = [16, 17, 19];
    fn column(groups: &[IsdSetLatency], hops: usize) -> Option<&Whisker> {
        let g = groups.iter().find(|g| g.isds == HOME && g.hops == hops);
        g.map(|g| &g.whisker)
    }
    let (six, seven) = (column(&all, 6), column(&all, 7));
    let narrowed = seven.zip(column(&filtered, 7));
    Figure {
        text,
        claims: vec![
            claim(
                "the {16,17,19} 7-hop column's IQR exceeds 3× the 6-hop one's",
                six.zip(seven)
                    .is_some_and(|(six, seven)| seven.iqr() > six.iqr() * 3.0),
            ),
            claim(
                "excluding the two ASes cuts the {16,17,19} 7-hop column's std below a third",
                narrowed.is_some_and(|(full, excl)| excl.std < full.std / 3.0),
            ),
            claim(
                "excluding the two ASes lowers the {16,17,19} 7-hop column's mean",
                narrowed.is_some_and(|(full, excl)| excl.mean < full.mean),
            ),
            claim(
                "an ISD-set column beyond {16,17,19} exists",
                all.iter().any(|g| g.isds != HOME),
            ),
        ],
    }
}

/// A bandwidth campaign against one destination at one target rate:
/// its per-path series.
fn bandwidth_series(
    seed: u64,
    iterations: u32,
    dest: ScionAddr,
    target_mbps: f64,
) -> Vec<PathBandwidth> {
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
    analysis::bandwidth_by_path(&db, server_id, target_mbps).expect("series")
}

/// Each bandwidth series averaged over a destination's paths, Mbps: what
/// Figs. 7 and 8 and the consistency readout compare.
struct Means {
    up_64: f64,
    up_mtu: f64,
    down_64: f64,
    down_mtu: f64,
}

impl Means {
    fn of(paths: &[PathBandwidth]) -> Means {
        let mean = |series: fn(&PathBandwidth) -> Option<&Whisker>| {
            let v: Vec<f64> = paths.iter().filter_map(series).map(|w| w.mean).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        Means {
            up_64: mean(|p| p.up_64.as_ref()),
            up_mtu: mean(|p| p.up_mtu.as_ref()),
            down_64: mean(|p| p.down_64.as_ref()),
            down_mtu: mean(|p| p.down_mtu.as_ref()),
        }
    }
}

/// Fig. 7's MTU downstream mean clears this and Fig. 8's falls below it:
/// the two claims together say the MTU series collapses between the 12
/// and the 150 Mbps target, with each campaign run once.
const MTU_DOWN_FLOOR_MBPS: f64 = 9.0;

/// Figs. 7 and 8 — bandwidth per path to the Germany server at one
/// target rate: the path count, the series means and the rendering.
fn germany_bandwidth(
    seed: u64,
    iterations: u32,
    title: &str,
    target: f64,
) -> (usize, Means, String) {
    let germany = paper_destinations()[0];
    let paths = bandwidth_series(seed, iterations, germany, target);
    let dest = format!("{germany} (Magdeburg, Germany)");
    let text = report::render_fig_bandwidth(title, &dest, target, &paths);
    (paths.len(), Means::of(&paths), text)
}

/// Fig. 7 — the 12 Mbps target.
fn fig7(seed: u64, iterations: u32) -> Figure {
    let (paths, m, text) = germany_bandwidth(seed, iterations, "Fig 7", 12.0);
    Figure {
        text,
        claims: vec![
            claim("at least 3 paths", paths >= 3),
            claim(
                "upstream: MTU beats 64 B by more than 1 Mbps",
                m.up_mtu > m.up_64 + 1.0,
            ),
            claim(
                "downstream: MTU beats 64 B by more than 0.5 Mbps",
                m.down_mtu > m.down_64 + 0.5,
            ),
            claim("MTU: downstream beats upstream", m.down_mtu > m.up_mtu),
            claim("64 B: downstream beats upstream", m.down_64 > m.up_64),
            claim(
                format!("MTU downstream approaches the target: above {MTU_DOWN_FLOOR_MBPS} Mbps"),
                m.down_mtu > MTU_DOWN_FLOOR_MBPS,
            ),
        ],
    }
}

/// Fig. 8 — the 150 Mbps target: the reversal experiment.
fn fig8(seed: u64, iterations: u32) -> Figure {
    let (paths, m, text) = germany_bandwidth(seed, iterations, "Fig 8", 150.0);
    Figure {
        text,
        claims: vec![
            claim("at least 3 paths", paths >= 3),
            claim(
                "upstream: 64 B beats MTU (the reversal)",
                m.up_64 > m.up_mtu,
            ),
            claim(
                "downstream: 64 B beats MTU (the reversal)",
                m.down_64 > m.down_mtu,
            ),
            claim(
                format!(
                    "MTU downstream collapses below the {MTU_DOWN_FLOOR_MBPS} Mbps Fig. 7 clears"
                ),
                m.down_mtu < MTU_DOWN_FLOOR_MBPS,
            ),
        ],
    }
}

/// Fig. 9 — packet loss per path to AWS N. Virginia, with a congestion
/// episode at a shared node (AWS Frankfurt) blacking out the tail paths
/// of every measurement round.
fn fig9(seed: u64, rounds: u32) -> Figure {
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
    let (healthy, tail) = paths.split_at(paths.len().saturating_sub(blackout));
    let blacked = paths.iter().filter(|p| p.total_blackout()).count();
    let clean = healthy
        .iter()
        .filter(|p| p.points.first().is_some_and(|(l, _)| *l == 0.0))
        .count();
    Figure {
        text: report::render_fig9(&format!("{virginia} (AWS US N. Virginia)"), &paths),
        claims: vec![
            claim("at least 6 paths", paths.len() >= 6),
            claim(
                "exactly the paths the episode covers black out",
                blacked == blackout,
            ),
            claim(
                "the blacked-out paths are consecutive at the tail",
                tail.len() == blackout && tail.iter().all(|p| p.total_blackout()),
            ),
            // Of the healthy paths, at least half with a clean round.
            claim(
                "the majority of paths exhibits a loss ratio of 0 %",
                clean * 2 >= healthy.len(),
            ),
            claim(
                "healthy paths average under 20 % loss",
                healthy.iter().all(|p| p.mean_loss() < 20.0),
            ),
        ],
    }
}

/// §6.2's consistency claim: "we achieved a consistent trend across all
/// five destinations". Runs the 12 Mbps campaign against each paper
/// destination and reports, per destination, whether the two Fig. 7
/// orderings (MTU > 64 B, downstream > upstream) hold.
fn destination_consistency(seed: u64, iterations: u32) -> Figure {
    let mut claims = Vec::new();
    let mut text =
        String::from("Fig 7 trend per destination (12 Mbps target): MTU>64B | down>up\n");
    for dest in paper_destinations() {
        let m = Means::of(&bandwidth_series(seed, iterations, dest, 12.0));
        let mtu_beats_small = m.up_mtu > m.up_64 && m.down_mtu > m.down_64;
        let down_beats_up = m.down_mtu > m.up_mtu && m.down_64 > m.up_64;
        let _ = writeln!(
            &mut text,
            "  {dest}:  {}  |  {}   (up {:.1}/{:.1}, down {:.1}/{:.1} Mbps)",
            tick(mtu_beats_small),
            tick(down_beats_up),
            m.up_64,
            m.up_mtu,
            m.down_64,
            m.down_mtu,
        );
        claims.push(claim(
            format!("{dest}: MTU beats 64 B in both directions"),
            mtu_beats_small,
        ));
        claims.push(claim(
            format!("{dest}: downstream beats upstream for both packet sizes"),
            down_beats_up,
        ));
    }
    Figure { text, claims }
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// A usability readout the paper motivates ("offer users many paths to
/// choose from"): for each paper destination, how many distinct paths a
/// mix of user requests actually receives, and the Pareto-front size.
fn choice_diversity(seed: u64, iterations: u32) -> Figure {
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

    let mut claims = Vec::new();
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
        claims.push(claim(
            format!("{dest}: at least 3 candidates"),
            candidates.len() >= 3,
        ));
        claims.push(claim(
            format!("{dest}: the request mix lands on at least 2 distinct winners"),
            winners.len() >= 2,
        ));
        claims.push(claim(
            format!("{dest}: the Pareto front is non-empty and within the candidates"),
            (1..=candidates.len()).contains(&front.len()),
        ));
    }
    Figure { text, claims }
}

/// §6.1's thesis quantified: correlation of per-path latency with
/// geographic path length vs hop count, over the Ireland campaign.
fn correlation(seed: u64, iterations: u32) -> Figure {
    let ireland = paper_destinations()[1];
    let (net, db, server_id) = latency_campaign(seed, iterations, ireland);
    let r = analysis::distance_correlation(&db, &net, server_id).expect("correlation");
    Figure {
        text: format!(
            "Latency correlates with geography, not hop count (to {ireland}):\n  Pearson r (latency ~ path length km): {:+.3}\n  Pearson r (latency ~ hop count):      {:+.3}\n  over {} paths\n",
            r.r_distance, r.r_hops, r.paths
        ),
        claims: vec![
            claim("at least 8 paths", r.paths >= 8),
            claim("r(latency, path length) above 0.95", r.r_distance > 0.95),
            // Hop count correlates weakly and only incidentally (longer
            // detours also add a hop): the paper's "predominant component".
            claim(
                "r(latency, path length) exceeds r(latency, hop count) by more than 0.3",
                r.r_distance > r.r_hops + 0.3,
            ),
        ],
    }
}

/// §6 scalars — a full campaign across all 21 destinations sized by
/// `iterations` (≈ `iterations × total_paths` samples; 25 rounds land
/// near the paper's ≈3000-sample dataset).
fn summary_campaign(seed: u64, iterations: u32) -> Figure {
    let cfg = SuiteConfig {
        iterations,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let (net, db) = collected(seed, &cfg);
    run_tests(&db, &net, &cfg).expect("campaign succeeds");
    let summary = analysis::summary(&db).expect("summary");
    Figure {
        text: report::render_summary(&summary),
        claims: Vec::new(),
    }
}

/// §5.2's retention rule swept over the `showpaths -m 40` listing of
/// every destination: how many paths each hop slack keeps, and what one
/// campaign round of 30-probe pings then costs.
fn pruning(seed: u64) -> Figure {
    let cfg = SuiteConfig::default();
    let (net, db) = collected(seed, &cfg);
    let options = ShowpathsOptions {
        max_paths: cfg.max_paths,
        extended: true,
    };
    let listing = |addr: ScionAddr| match showpaths(&net, cfg.local_as, addr.ia, options) {
        Ok(listing) => listing.paths.into_iter().map(|e| e.path).collect(),
        Err(_) => Vec::new(),
    };
    let listings: Vec<Vec<ScionPath>> = upin_core::collect::destinations(&db)
        .expect("destinations readable")
        .into_iter()
        .map(|(_, addr)| listing(addr))
        .collect();
    let kept = |slack| -> usize {
        listings
            .iter()
            .map(|l| retain_short_paths(l, slack).len())
            .sum()
    };
    let (shortest, paper) = (kept(0), kept(1));
    let unlimited: usize = listings.iter().map(Vec::len).sum();
    let stored = db.collection(PATHS).read().len();
    let mut text = format!(
        "Path retention over the showpaths -m {} listings of {} destinations:\n",
        cfg.max_paths,
        listings.len()
    );
    for (rule, paths) in [
        ("slack 0 (shortest only)", shortest),
        ("slack 1 (min+1, paper)", paper),
        ("unlimited", unlimited),
    ] {
        let probes = paths * cfg.ping_count as usize;
        let _ = writeln!(
            &mut text,
            "  {rule:<24} {paths:>4} paths -> {probes:>5} probes per campaign round"
        );
    }
    Figure {
        text,
        claims: vec![
            claim(
                "min+1 keeps at least twice the shortest-only paths",
                paper >= 2 * shortest,
            ),
            claim("min+1 keeps fewer paths than unlimited", paper < unlimited),
            claim(
                "min+1 keeps exactly the paths collect_paths stores",
                paper == stored,
            ),
        ],
    }
}

/// `n` stats rows of one destination — the batch the WAL floor writes.
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
fn rollup_row(i: u64, ts: i64) -> Document {
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

/// A database with `n` `rollup_row`s spread over one simulated day
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
