//! Dump machine-readable baselines for the query planner, the selection
//! engine, the durability ablation, the control-plane caching layer,
//! the topology-scale path (capped beaconing + lazy combination) and
//! the strategy registry: `BENCH_pathdb.json`, `BENCH_select.json`,
//! `BENCH_durability.json`, `BENCH_net.json`, `BENCH_topo.json`,
//! `BENCH_campaign.json` and `BENCH_strategies.json` at the
//! repository root.
//! CI and PR reviews diff these numbers instead of eyeballing criterion
//! output.
//!
//! Timing is deliberately simple — warmup, then the best of a few
//! mean-wall-clock samples (the minimum is the estimate least
//! contaminated by scheduler noise on a shared machine) — because the
//! quantities of interest here are order-of-magnitude plan changes
//! (full scan vs range scan, recompute vs cache hit) and coarse
//! overhead ratios, not single-digit percentages.

use pathdb::database::OpenOptions;
use pathdb::{doc, Collection, Database, Document, Durability, FaultyStorage, Filter, Update};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use upin_core::schema::{PATHS, PATHS_STATS};
use upin_core::select::{recommend, Constraints, Objective, UserRequest};

fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    for _ in 0..2 {
        f(); // warmup
    }
    let samples = 5;
    let per = iters.div_ceil(samples);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..per {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / per as f64);
    }
    best
}

fn populated(n: usize, indexed: bool) -> Collection {
    let mut coll = Collection::new("paths_stats");
    if indexed {
        coll.create_index("server_id");
        coll.create_index("avg_latency_ms");
    }
    let docs = (0..n)
        .map(|i| {
            doc! {
                "_id" => format!("{}_{}_{}", i % 21 + 1, i % 24, i),
                "server_id" => (i % 21 + 1) as i64,
                "hops" => (5 + i % 3) as i64,
                "avg_latency_ms" => 20.0 + (i % 250) as f64,
                "loss_pct" => (i % 11) as f64,
                "isds" => vec![16i64, 17, 19],
            }
        })
        .collect();
    coll.insert_many(docs).unwrap();
    coll
}

/// Same synthetic campaign the `micro_select` bench builds.
fn synthetic_db(servers: u32, paths_per: u32, rounds: u32, index: bool) -> Database {
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
                    "countries" => vec!["Switzerland".to_string()],
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

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root resolves")
}

fn dump(name: &str, rows: &[(&str, f64)]) {
    dump_with_ratios(name, rows, &[]);
}

fn dump_with_ratios(name: &str, rows: &[(&str, f64)], ratios: &[(&str, f64)]) {
    use serde_json::{Map, Number, Value};
    let mut map = Map::new();
    for (label, ns) in rows {
        let mut row = Map::new();
        row.insert("ns_per_iter".into(), Value::Number(Number::Float(*ns)));
        row.insert("ms_per_iter".into(), Value::Number(Number::Float(ns / 1e6)));
        map.insert((*label).to_string(), Value::Object(row));
    }
    for (label, ratio) in ratios {
        let mut row = Map::new();
        row.insert("ratio".into(), Value::Number(Number::Float(*ratio)));
        map.insert((*label).to_string(), Value::Object(row));
    }
    let path = repo_root().join(name);
    let body = serde_json::to_string_pretty(&Value::Object(map)).unwrap();
    std::fs::write(&path, body + "\n").unwrap();
    println!("wrote {}", path.display());
    for (label, ns) in rows {
        println!("  {label:<40} {:>12.1} us/iter", ns / 1e3);
    }
    for (label, ratio) in ratios {
        println!("  {label:<40} {ratio:>12.2}x");
    }
}

fn bench_pathdb() {
    let scan = populated(10_000, false);
    let idx = populated(10_000, true);
    let point = Filter::eq("server_id", 7i64).and(Filter::lt("avg_latency_ms", 100.0));
    let range = Filter::gte("avg_latency_ms", 200.0).and(Filter::lt("avg_latency_ms", 205.0));

    let rows = [
        (
            "find/point_scan_10k",
            time_ns(50, || {
                std::hint::black_box(scan.query(&point).run());
            }),
        ),
        (
            "find/point_indexed_10k",
            time_ns(200, || {
                std::hint::black_box(idx.query(&point).run());
            }),
        ),
        (
            "find/range_scan_10k",
            time_ns(50, || {
                std::hint::black_box(scan.query(&range).run());
            }),
        ),
        (
            "find/range_indexed_10k",
            time_ns(200, || {
                std::hint::black_box(idx.query(&range).run());
            }),
        ),
        (
            "find/top10_by_latency_scan_10k",
            time_ns(50, || {
                std::hint::black_box(scan.query_all().sort("avg_latency_ms").limit(10).run());
            }),
        ),
        (
            "find/top10_by_latency_indexed_10k",
            time_ns(200, || {
                std::hint::black_box(idx.query_all().sort("avg_latency_ms").limit(10).run());
            }),
        ),
    ];
    dump("BENCH_pathdb.json", &rows);

    let range_speedup = rows[2].1 / rows[3].1;
    println!("  range-scan speedup (indexed vs scan): {range_speedup:.1}x");
}

fn bench_select() {
    let db = synthetic_db(21, 24, 60, true);
    let request = UserRequest {
        server_id: 7,
        objective: Objective::MinLatency,
        constraints: Constraints::default(),
    };
    let stats = db.collection(PATHS_STATS);

    // Every query pays the grouping recompute when the campaign is
    // reshaped between queries — the pre-cache cost.
    let full_recompute = time_ns(20, || {
        stats.write().update_many(
            &Filter::eq("_id", "7_0_0"),
            &Update::new().set("jitter_ms", 0.4),
        );
        std::hint::black_box(recommend(&db, &request, 3).unwrap());
    });
    // Unchanged database: version-equal cache hits.
    recommend(&db, &request, 3).unwrap();
    let cached = time_ns(200, || {
        std::hint::black_box(recommend(&db, &request, 3).unwrap());
    });
    // Append-only campaign: merge just the new rows.
    let mut n = 0u32;
    let append = time_ns(50, || {
        n += 1;
        stats
            .write()
            .insert_one(doc! {
                "_id" => format!("7_0_{}", 200_000 + n),
                "path_id" => "7_0",
                "server_id" => 7i64,
                "timestamp_ms" => (200_000 + n) as i64,
                "isds" => vec![16i64, 17],
                "hops" => 5i64,
                "avg_latency_ms" => 33.0,
                "jitter_ms" => 0.4,
                "loss_pct" => 0.0,
                "bw_up_mtu_mbps" => 9.0,
                "bw_down_mtu_mbps" => 11.0,
                "target_mbps" => 12.0,
            })
            .unwrap();
        std::hint::black_box(recommend(&db, &request, 3).unwrap());
    });

    let rows = [
        ("recommend/full_recompute_30240_docs", full_recompute),
        ("recommend/cached_repeat_30240_docs", cached),
        ("recommend/append_merge_30240_docs", append),
    ];
    dump("BENCH_select.json", &rows);
    println!(
        "  cached-recommend speedup (vs recompute): {:.1}x",
        full_recompute / cached
    );
}

/// Durability ablation (§4.2.2): the same per-destination batched
/// insertion at each `--durability` level, over the in-memory storage
/// backend so the measured delta is the WAL's CRC framing and group
/// commit, not disk latency. The design claim on record: WAL group
/// commit stays within 2x of plain in-memory batched insertion.
fn bench_durability() {
    fn stat_docs(n: usize) -> Vec<Document> {
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
    fn open(mode: Durability) -> Database {
        match mode {
            Durability::None => Database::new(),
            _ => {
                Database::open_durable_with(
                    PathBuf::from("/bench"),
                    OpenOptions::new(mode).with_storage(Arc::new(FaultyStorage::new())),
                )
                .expect("open on empty storage")
                .0
            }
        }
    }

    let modes = [
        ("none", Durability::None),
        ("snapshot", Durability::Snapshot),
        ("wal", Durability::Wal),
    ];
    let mut rows: Vec<(String, f64)> = Vec::new();
    for &batch in &[240usize, 2400] {
        let iters = if batch >= 2400 { 30 } else { 150 };
        for (label, mode) in modes {
            let docs = stat_docs(batch);
            let ns = time_ns(iters, || {
                let db = open(mode);
                db.collection(PATHS_STATS)
                    .write()
                    .insert_many(std::hint::black_box(docs.clone()))
                    .unwrap();
                std::hint::black_box(&db);
            });
            rows.push((format!("insert_many_{label}/{batch}"), ns));
        }
    }
    // Checkpoint and recovery costs for a campaign-sized WAL.
    let docs = stat_docs(2400);
    rows.push((
        "checkpoint_after_2400_wal_docs".into(),
        time_ns(30, || {
            let db = open(Durability::Wal);
            db.collection(PATHS_STATS)
                .write()
                .insert_many(docs.clone())
                .unwrap();
            db.checkpoint().unwrap();
        }),
    ));
    let storage = Arc::new(FaultyStorage::new());
    {
        let (db, _) = Database::open_durable_with(
            PathBuf::from("/bench"),
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        db.collection(PATHS_STATS)
            .write()
            .insert_many(docs)
            .unwrap();
    }
    rows.push((
        "recover_2400_docs_from_wal".into(),
        time_ns(30, || {
            let (db, report) = Database::open_durable_with(
                PathBuf::from("/bench"),
                OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
            )
            .unwrap();
            assert_eq!(report.wal_effects, 2400);
            std::hint::black_box(&db);
        }),
    ));

    let lookup = |label: &str| rows.iter().find(|(l, _)| l == label).unwrap().1;
    let overhead_240 = lookup("insert_many_wal/240") / lookup("insert_many_none/240");
    let overhead_2400 = lookup("insert_many_wal/2400") / lookup("insert_many_none/2400");

    let borrowed: Vec<(&str, f64)> = rows.iter().map(|(l, ns)| (l.as_str(), *ns)).collect();
    dump_with_ratios(
        "BENCH_durability.json",
        &borrowed,
        &[
            ("wal_overhead_vs_none/240", overhead_240),
            ("wal_overhead_vs_none/2400", overhead_2400),
        ],
    );
    println!("  wal group-commit overhead vs in-memory: {overhead_240:.2}x (240), {overhead_2400:.2}x (2400)");
}

/// Control-plane caching (the `scion-sim` memoization layer): repeated
/// ranked lookups against the uncached reference, and the `Arc`-shared
/// fork against rebuilding a network from scratch (which is what a
/// deep-copying fork amounts to — beaconing included).
fn bench_net() {
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::scionlab::{AWS_IRELAND, MY_AS};

    let net = ScionNetwork::scionlab(42);
    let mut cold = ScionNetwork::scionlab(42);
    cold.set_caching(false);
    // Warm the ranked cache once so the measured loop is steady-state.
    net.paths(MY_AS, AWS_IRELAND, 40);

    let cached = time_ns(2_000, || {
        std::hint::black_box(net.paths(MY_AS, AWS_IRELAND, 40));
    });
    let uncached = time_ns(50, || {
        std::hint::black_box(cold.paths(MY_AS, AWS_IRELAND, 40));
    });
    let fork = time_ns(2_000, || {
        std::hint::black_box(net.fork(7));
    });
    let rebuild = time_ns(20, || {
        std::hint::black_box(ScionNetwork::scionlab(42));
    });

    let rows = [
        ("paths/repeated_cached_40", cached),
        ("paths/repeated_uncached_40", uncached),
        ("fork/shared_control_plane", fork),
        ("fork/rebuild_with_beaconing", rebuild),
    ];
    dump_with_ratios(
        "BENCH_net.json",
        &rows,
        &[
            ("paths_cached_speedup", uncached / cached),
            ("fork_speedup_vs_rebuild", rebuild / fork),
        ],
    );
    println!(
        "  cached-paths speedup: {:.1}x, fork speedup: {:.1}x",
        uncached / cached,
        rebuild / fork
    );
}

/// Control-plane scale (the capped-beaconing + lazy-combination work):
/// bring-up — beaconing plus the first ranked `paths()` — of a 1000-AS
/// BRITE-style topology under a per-pair beacon cap, against the 35-AS
/// SCIONLab replica's exhaustive bring-up. The acceptance bound on
/// record: the 1000-AS bring-up stays within 10x of the replica, and
/// `fork` stays O(1) at that size.
fn bench_topo() {
    use scion_sim::beacon::BeaconConfig;
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::random::{gravity_flows, random_topology, RandomTopologyConfig};
    use scion_sim::topology::scionlab::{scionlab_topology, AWS_IRELAND, MY_AS};
    use scion_sim::topology::AsKind;

    let cfg = RandomTopologyConfig {
        isds: 5,
        ases_per_isd: (190, 210),
        cores_per_isd: (2, 3),
        core_mesh_density: 0.5,
        pref_attachment: 0.6,
        ..RandomTopologyConfig::default()
    };
    let (topo, _) = random_topology(3, &cfg).expect("valid config");
    let user = topo
        .ases()
        .find(|(_, n)| n.kind == AsKind::User)
        .map(|(_, n)| n.ia)
        .expect("user AS");
    let far = topo
        .ases()
        .filter(|(_, n)| n.kind.is_core())
        .map(|(_, n)| n.ia)
        .max_by_key(|ia| ia.isd)
        .expect("cores");
    let cap = BeaconConfig {
        beacons_per_pair: 8,
        ..BeaconConfig::default()
    };

    let generate = time_ns(10, || {
        std::hint::black_box(random_topology(3, &cfg).unwrap());
    });
    let bringup_small = time_ns(10, || {
        let net = ScionNetwork::new(scionlab_topology(), 42);
        std::hint::black_box(net.paths(MY_AS, AWS_IRELAND, 40));
    });
    let bringup_big = time_ns(10, || {
        let net = ScionNetwork::with_beacon_config(topo.clone(), 42, &cap);
        std::hint::black_box(net.paths(user, far, 40));
    });
    let net = ScionNetwork::with_beacon_config(topo.clone(), 42, &cap);
    net.paths(user, far, 5);
    let top5_warm = time_ns(2_000, || {
        std::hint::black_box(net.paths(user, far, 5));
    });
    let fork = time_ns(2_000, || {
        std::hint::black_box(net.fork(7));
    });
    let gravity = time_ns(50, || {
        std::hint::black_box(gravity_flows(&topo, 42, 1000));
    });

    let rows = [
        ("generate/1000as", generate),
        ("bringup/scionlab_35_exhaustive", bringup_small),
        ("bringup/1000as_capped8", bringup_big),
        ("paths/top5_warm_1000as", top5_warm),
        ("fork/1000as_shared_control_plane", fork),
        ("gravity_flows/1000_draws_1000as", gravity),
    ];
    dump_with_ratios(
        "BENCH_topo.json",
        &rows,
        &[("bringup_1000as_vs_scionlab", bringup_big / bringup_small)],
    );
    println!(
        "  1000-AS bring-up vs scionlab: {:.2}x (budget: 10x)",
        bringup_big / bringup_small
    );
}

/// End-to-end campaign (collection + measurement over all 21
/// destinations, sequential, ping-only) with the control-plane caches
/// on vs off — both baselines from the same run of the same binary.
fn bench_campaign() {
    use scion_sim::net::ScionNetwork;
    use upin_core::collect::{collect_paths, register_available_servers};
    use upin_core::config::SuiteConfig;
    use upin_core::measure::run_tests;

    let cfg = SuiteConfig {
        iterations: 1,
        some_only: false,
        ping_count: 3,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let campaign = |caching: bool| {
        let mut net = ScionNetwork::scionlab(42);
        net.set_caching(caching);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        collect_paths(&db, &net, &cfg).unwrap();
        let report = run_tests(&db, &net, &cfg).unwrap();
        std::hint::black_box(report.inserted);
    };
    let cached = time_ns(10, || campaign(true));
    let uncached = time_ns(10, || campaign(false));

    let rows = [
        ("campaign/full_21dest_cached", cached),
        ("campaign/full_21dest_uncached", uncached),
    ];
    dump_with_ratios(
        "BENCH_campaign.json",
        &rows,
        &[("campaign_cached_speedup", uncached / cached)],
    );
    println!("  end-to-end campaign speedup: {:.2}x", uncached / cached);
}

/// Strategy matrix: every registered selection strategy ranking the
/// same synthetic campaign, plus the axiomatic evaluation harness over
/// a measured scionlab campaign — the per-strategy overhead relative
/// to the paper's ranking and the parallel-fold speedup, on record.
fn bench_strategies() {
    use scion_sim::net::ScionNetwork;
    use upin_core::axioms::{evaluate_strategies, EvalConfig};
    use upin_core::config::SuiteConfig;
    use upin_core::strategy::{registry, StrategyContext};
    use upin_core::suite::TestSuite;

    let db = synthetic_db(21, 24, 60, true);
    let ctx = StrategyContext { db: &db, seed: 42 };
    let request = UserRequest {
        server_id: 7,
        objective: Objective::MinLatency,
        constraints: Constraints::default(),
    };

    let mut rows: Vec<(String, f64)> = Vec::new();
    for strategy in registry() {
        strategy.rank(&ctx, &request, 3).unwrap(); // warm the aggregate cache
        let ns = time_ns(200, || {
            std::hint::black_box(strategy.rank(&ctx, &request, 3).unwrap());
        });
        rows.push((format!("rank/{}", strategy.name()), ns));
    }

    let net = ScionNetwork::scionlab(42);
    let campaign_db = Database::new();
    upin_core::schema::ensure_indexes(&campaign_db);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 3,
        run_bwtests: true,
        some_only: true,
        ..SuiteConfig::default()
    };
    let suite = TestSuite::new(&net, &campaign_db, cfg);
    suite.bootstrap().unwrap();
    suite.run().unwrap();
    let local = scion_sim::topology::scionlab::MY_AS;
    let eval = |parallel: bool| EvalConfig {
        epochs: 4,
        seed: 42,
        parallel,
        ..EvalConfig::default()
    };
    let sequential = time_ns(10, || {
        std::hint::black_box(evaluate_strategies(&campaign_db, &net, local, &eval(false)).unwrap());
    });
    let parallel = time_ns(10, || {
        std::hint::black_box(evaluate_strategies(&campaign_db, &net, local, &eval(true)).unwrap());
    });
    rows.push(("evaluate/sequential".into(), sequential));
    rows.push(("evaluate/parallel".into(), parallel));

    let paper = rows
        .iter()
        .find(|(l, _)| l == "rank/paper")
        .map(|(_, ns)| *ns)
        .unwrap();
    let worst_baseline = rows
        .iter()
        .filter(|(l, _)| l.starts_with("rank/") && l != "rank/paper")
        .map(|(_, ns)| *ns)
        .fold(0.0f64, f64::max);

    let borrowed: Vec<(&str, f64)> = rows.iter().map(|(l, ns)| (l.as_str(), *ns)).collect();
    dump_with_ratios(
        "BENCH_strategies.json",
        &borrowed,
        &[
            ("worst_baseline_vs_paper", worst_baseline / paper),
            ("evaluate_parallel_speedup", sequential / parallel),
        ],
    );
    println!(
        "  worst baseline vs paper: {:.2}x, parallel evaluation speedup: {:.2}x",
        worst_baseline / paper,
        sequential / parallel
    );
}

/// Chaos + failover: switch-latency percentiles on the 35-AS replica
/// and a ~500-AS BRITE-style topology (simulated milliseconds, read
/// the `ms_per_iter` column), plus the chaos-schedule tick overhead —
/// the same failover campaign with an empty schedule vs one firing
/// two transitions per tick on a link no measured path uses, so the
/// delta is purely the transition/epoch machinery and the sessions'
/// epoch-driven re-verification. The acceptance bound on record:
/// tick overhead ≤ 1.1x.
fn bench_failover() {
    use scion_sim::beacon::BeaconConfig;
    use scion_sim::chaos::{AsOutage, ChaosSchedule, Dwell, LinkFlap};
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::random::{random_topology, RandomTopologyConfig};
    use scion_sim::topology::scionlab::{paper_destinations, ETHZ_AP, ETHZ_CORE, ETRI, KISTI_CORE};
    use upin_core::failover::{percentile, run_chaos_campaign, FailoverConfig};

    // 35-AS replica: the ETHZ core flaps, the Swisscom detours stay
    // live — every paper destination's session migrates and restores.
    let cfg = FailoverConfig {
        ticks: 30,
        ..FailoverConfig::default()
    };
    let small_dests: Vec<(u32, _)> = paper_destinations()
        .into_iter()
        .enumerate()
        .map(|(i, a)| (i as u32 + 1, a))
        .collect();
    let mut small_schedule = ChaosSchedule::new(9, 30_000.0);
    small_schedule.flaps.push(LinkFlap {
        a: ETHZ_CORE,
        b: ETHZ_AP,
        first_down_ms: 4_000.0,
        down: Dwell::fixed(8_000.0),
        up: Dwell::fixed(9_000.0),
    });
    let small_report = run_chaos_campaign(
        &ScionNetwork::scionlab(42),
        &small_schedule,
        &small_dests,
        &cfg,
        None,
    )
    .unwrap();
    let small_ms = small_report.switch_latencies();

    let small_campaign = time_ns(10, || {
        std::hint::black_box(
            run_chaos_campaign(
                &ScionNetwork::scionlab(42),
                &small_schedule,
                &small_dests,
                &cfg,
                None,
            )
            .unwrap(),
        );
    });

    // ~500-AS BRITE-style internet under a beacon cap: outage an
    // avoidable transit AS on each measured destination's best path,
    // so the sessions must route around it.
    let topo_cfg = RandomTopologyConfig {
        isds: 5,
        ases_per_isd: (95, 105),
        cores_per_isd: (2, 3),
        core_mesh_density: 0.5,
        pref_attachment: 0.6,
        ..RandomTopologyConfig::default()
    };
    let (topo, user) = random_topology(7, &topo_cfg).expect("valid config");
    let cap = BeaconConfig {
        beacons_per_pair: 8,
        ..BeaconConfig::default()
    };
    let big_net = ScionNetwork::with_beacon_config(topo, 42, &cap);
    // Pick destinations whose best path transits an AS that some
    // alternative path avoids — outaging that AS forces a failover
    // switch instead of stranding the session with no live candidate.
    let mut big_dests: Vec<(u32, _)> = Vec::new();
    let mut outage_nodes = Vec::new();
    for addr in big_net.topology().all_servers() {
        if addr.ia == user || big_dests.len() >= 4 {
            continue;
        }
        let paths = big_net.paths(user, addr.ia, 8);
        let Some(best) = paths.first() else { continue };
        let avoidable = best.hops[1..best.hops.len().saturating_sub(1)]
            .iter()
            .map(|h| h.ia)
            .find(|h| paths[1..].iter().any(|p| p.hops.iter().all(|x| x.ia != *h)));
        let Some(node) = avoidable else { continue };
        outage_nodes.push(node);
        big_dests.push((big_dests.len() as u32 + 1, addr));
    }
    // Anchor the schedule AFTER the warm-up queries above: the first
    // paths() calls run the lazy beaconing pass and advance the network
    // clock, so windows anchored at construction time would already be
    // in the past when the campaign installs the schedule.
    let t0 = big_net.now_ms();
    let mut big_schedule = ChaosSchedule::new(11, t0 + 30_000.0);
    for (i, node) in outage_nodes.iter().enumerate() {
        big_schedule.outages.push(AsOutage {
            node: *node,
            start_ms: t0 + 4_000.0 + i as f64 * 2_000.0,
            duration_ms: 10_000.0,
        });
    }
    let big_cfg = FailoverConfig {
        local_as: user,
        ..cfg.clone()
    };
    let big_report =
        run_chaos_campaign(&big_net.fork(0), &big_schedule, &big_dests, &big_cfg, None).unwrap();
    let big_ms = big_report.switch_latencies();

    // Tick overhead: same campaign, empty schedule vs the ETRI leaf
    // link flapping every ~950 ms — two transitions per session tick,
    // every tick, on a link no path to the five measured destinations
    // traverses. That is the per-tick chaos cost: every tick fires
    // transitions, bumps the fault epoch, and forces each session to
    // re-verify liveness and refresh its compiled route.
    let empty = ChaosSchedule::new(1, 30_000.0);
    let mut busy = ChaosSchedule::new(1, 30_000.0);
    busy.flaps.push(LinkFlap {
        a: KISTI_CORE,
        b: ETRI,
        first_down_ms: 100.0,
        down: Dwell::fixed(450.0),
        up: Dwell::fixed(500.0),
    });
    assert!(
        busy.compile(ScionNetwork::scionlab(42).topology())
            .unwrap()
            .len()
            > 50
    );
    let plain = time_ns(10, || {
        std::hint::black_box(
            run_chaos_campaign(
                &ScionNetwork::scionlab(42),
                &empty,
                &small_dests,
                &cfg,
                None,
            )
            .unwrap(),
        );
    });
    let ticking = time_ns(10, || {
        std::hint::black_box(
            run_chaos_campaign(&ScionNetwork::scionlab(42), &busy, &small_dests, &cfg, None)
                .unwrap(),
        );
    });

    let sim_ms = |xs: &[f64], p: f64| percentile(xs, p).unwrap_or(0.0) * 1e6; // ms in the ms_per_iter column
    let big_as_count = big_net.topology().ases().count();
    let rows = [
        (
            "switch_sim_ms/p50_scionlab35".to_string(),
            sim_ms(&small_ms, 0.50),
        ),
        (
            "switch_sim_ms/p99_scionlab35".to_string(),
            sim_ms(&small_ms, 0.99),
        ),
        (
            format!("switch_sim_ms/p50_{big_as_count}as"),
            sim_ms(&big_ms, 0.50),
        ),
        (
            format!("switch_sim_ms/p99_{big_as_count}as"),
            sim_ms(&big_ms, 0.99),
        ),
        (
            "chaos_campaign/scionlab35_5dest_30ticks".to_string(),
            small_campaign,
        ),
        ("chaos_campaign/empty_schedule".to_string(), plain),
        ("chaos_campaign/busy_far_schedule".to_string(), ticking),
    ];
    assert!(
        !small_ms.is_empty() && !big_ms.is_empty(),
        "both topologies must record switches"
    );
    let borrowed: Vec<(&str, f64)> = rows.iter().map(|(l, ns)| (l.as_str(), *ns)).collect();
    dump_with_ratios(
        "BENCH_failover.json",
        &borrowed,
        &[("chaos_tick_overhead_vs_plain", ticking / plain)],
    );
    println!(
        "  switch p50/p99 (simulated ms): scionlab {:.1}/{:.1}, {}-AS {:.1}/{:.1}; tick overhead {:.3}x (budget 1.1x)",
        percentile(&small_ms, 0.50).unwrap_or(0.0),
        percentile(&small_ms, 0.99).unwrap_or(0.0),
        big_as_count,
        percentile(&big_ms, 0.50).unwrap_or(0.0),
        percentile(&big_ms, 0.99).unwrap_or(0.0),
        ticking / plain
    );
}

/// One synthetic `paths_stats` row shaped like a campaign measurement,
/// spread over 21 servers × 4 paths.
fn longitudinal_row(i: u64, ts: i64) -> Document {
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

/// The longitudinal storage story: rollup reads vs raw scans at 1M
/// rows, incremental catch-up cost and the steady-state disk bound of a
/// 30-sim-day retention run.
fn bench_longitudinal() {
    use pathdb::rollup::{read_rollup, scan_reference};
    use upin_core::schema::stats_rollup;

    const DAY_MS: i64 = 86_400_000;
    let cfg = stats_rollup();

    // 1M raw rows across one simulated day (24 hourly buckets × 84
    // (server, path) groups): the rollup answers the same aggregate
    // query from ~2k bucket documents instead of a 1M-row fold.
    let db = Database::new();
    db.register_rollup(stats_rollup());
    const N: u64 = 1_000_000;
    {
        let handle = db.collection(PATHS_STATS);
        let mut coll = handle.write();
        let mut batch = Vec::with_capacity(50_000);
        for i in 0..N {
            let ts = ((i as i128 * DAY_MS as i128) / N as i128) as i64;
            batch.push(longitudinal_row(i, ts));
            if batch.len() == 50_000 {
                coll.insert_many(std::mem::take(&mut batch)).unwrap();
            }
        }
    }
    db.rollup_catch_up().unwrap();
    let scan_ns = time_ns(3, || {
        std::hint::black_box(scan_reference(&db, &cfg));
    });
    let read_ns = time_ns(15, || {
        std::hint::black_box(read_rollup(&db, &cfg));
    });
    let speedup = scan_ns / read_ns;

    // Incremental catch-up: appending 10k rows folds 10k rows — cost
    // proportional to the delta, not the table.
    let mut catchup_best = f64::INFINITY;
    for round in 0..5u64 {
        {
            let handle = db.collection(PATHS_STATS);
            let mut coll = handle.write();
            let batch: Vec<Document> = (0..10_000u64)
                .map(|j| longitudinal_row(N + round * 10_000 + j, DAY_MS + round as i64))
                .collect();
            coll.insert_many(batch).unwrap();
        }
        let start = Instant::now();
        let folded = db.rollup_catch_up().unwrap();
        assert_eq!(folded, 10_000);
        catchup_best = catchup_best.min(start.elapsed().as_nanos() as f64 / 10_000.0);
    }

    // 30 simulated days of measure → fold → expire → checkpoint on a
    // 48 h raw-row window: the disk footprint at day 5 vs day 30 (the
    // retention acceptance bound is < 2x). Checkpoint pauses are the
    // end-to-end benchmark's `pathdb.checkpoint_ms_*`.
    //
    // Rows mimic a dense longitudinal campaign: 21 destinations, one
    // ranked path each, measured every round with low-cardinality
    // readings (a path's latency regime is stable hour to hour), so a
    // bucket cell stays a few sketch bins wide and the kept-forever
    // rollup grows far slower than the windowed raw rows it replaces.
    let retention_row = |i: u64, ts: i64| -> Document {
        let s = (i % 21 + 1) as i64;
        doc! {
            "_id" => format!("{s}_{ts}_{i}"),
            "server_id" => s,
            "path_id" => format!("{s}_0"),
            "timestamp_ms" => ts,
            "avg_latency_ms" => 20.0 + s as f64 + (i % 7) as f64 * 0.1,
            "jitter_ms" => 0.3 + (i % 5) as f64 * 0.01,
            "loss_pct" => (i % 3) as f64,
        }
    };
    let storage = FaultyStorage::new();
    let (db2, _) = Database::open_durable_with(
        PathBuf::from("/bench-longitudinal"),
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage)),
    )
    .unwrap();
    db2.register_rollup(stats_rollup());
    db2.set_retention(pathdb::RetentionPolicy {
        collection: PATHS_STATS.into(),
        time_field: "timestamp_ms".into(),
        keep_ms: 2 * DAY_MS,
    });
    {
        let handle = db2.collection(PATHS_STATS);
        handle.write().create_index("timestamp_ms");
    }
    let mut day5_bytes = 0u64;
    let mut id = 0u64;
    for day in 1..=30i64 {
        for round in 0..4i64 {
            let ts = (day - 1) * DAY_MS + round * (DAY_MS / 4);
            let batch: Vec<Document> = (0..3_000)
                .map(|_| {
                    id += 1;
                    retention_row(id, ts)
                })
                .collect();
            db2.collection(PATHS_STATS)
                .write()
                .insert_many(batch)
                .unwrap();
            db2.rollup_catch_up().unwrap();
            db2.expire_retention(ts).unwrap();
            db2.checkpoint().unwrap();
        }
        if day == 5 {
            day5_bytes = db2.disk_usage().unwrap().1;
        }
    }
    let final_bytes = db2.disk_usage().unwrap().1;
    let disk_ratio = final_bytes as f64 / day5_bytes as f64;

    dump_with_ratios(
        "BENCH_longitudinal.json",
        &[
            ("rollup/raw_scan_1M", scan_ns),
            ("rollup/read_rollup_1M", read_ns),
            ("rollup/catch_up_ns_per_row", catchup_best),
        ],
        &[
            ("rollup/speedup_vs_scan_1M", speedup),
            ("retention/disk_30d_over_5d", disk_ratio),
            ("retention/disk_final_bytes", final_bytes as f64),
        ],
    );
}

fn main() {
    bench_pathdb();
    bench_select();
    bench_durability();
    bench_net();
    bench_topo();
    bench_campaign();
    bench_strategies();
    bench_failover();
    bench_longitudinal();
}
