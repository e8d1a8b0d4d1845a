//! End-to-end integration: the full pipeline from network bring-up
//! through measurement campaign to user-facing path recommendation,
//! crossing every crate of the workspace.

use std::collections::BTreeMap;
use upin::pathdb::{Filter, ValueRef};
use upin::scion_sim::topology::scionlab::{paper_destinations, MY_AS};
use upin::upin_core::analysis::server_id_of;
use upin::upin_core::collect::destinations;
use upin::upin_core::schema::{PATHS, PATHS_STATS};
use upin::upin_core::select::{recommend, Constraints, Objective, UserRequest};
use upin::upin_core::{run_suite, SuiteConfig};

fn quick_cfg() -> SuiteConfig {
    SuiteConfig {
        iterations: 2,
        ping_count: 5,
        run_bwtests: false,
        ..SuiteConfig::default()
    }
}

#[test]
fn campaign_then_recommendation() {
    let (net, db, _) = upin::standard_setup(101);
    let cfg = quick_cfg();
    let report = run_suite(
        &db,
        &net,
        &SuiteConfig {
            skip_collection: true,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(report.measurement.destinations, 21);
    assert_eq!(report.measurement.errors, 0);

    // Recommendations exist for every paper destination and their
    // latency agrees with the raw samples.
    for addr in paper_destinations() {
        let server_id = server_id_of(&db, addr).unwrap();
        let recs = recommend(
            &db,
            &UserRequest {
                server_id,
                objective: Objective::MinLatency,
                constraints: Constraints::default(),
            },
            3,
        )
        .unwrap();
        assert!(!recs.is_empty());
        let best = &recs[0].aggregate;
        // Cross-check the aggregate against the raw documents' fields.
        let mut raw: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let stats = db.collection(PATHS_STATS);
        for d in stats
            .read()
            .query(Filter::eq("server_id", server_id as i64))
            .refs()
        {
            let path_id = d.get("path_id").and_then(ValueRef::as_str).unwrap();
            let latency = d.get("avg_latency_ms").and_then(ValueRef::as_float);
            raw.entry(path_id.to_string()).or_default().extend(latency);
        }
        let samples = &raw[&best.path_id.to_string()];
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let agg_mean = best.latency.as_ref().unwrap().mean;
        assert!(
            (mean - agg_mean).abs() < 1e-9,
            "aggregate {agg_mean} vs raw {mean}"
        );
        // No other candidate path has a lower aggregate mean.
        for (other_id, v) in raw.iter() {
            if v.is_empty() {
                continue;
            }
            let other_mean = v.iter().sum::<f64>() / v.len() as f64;
            assert!(
                other_mean >= agg_mean - 1e-9,
                "path {other_id} beats the recommendation"
            );
        }
    }
}

#[test]
fn stats_volume_and_schema_consistency() {
    let (net, db, _) = upin::standard_setup(102);
    let cfg = quick_cfg();
    run_suite(
        &db,
        &net,
        &SuiteConfig {
            skip_collection: true,
            ..cfg
        },
    )
    .unwrap();

    let paths = db.collection(PATHS);
    let stats = db.collection(PATHS_STATS);
    let n_paths = paths.read().len();
    let n_stats = stats.read().len();
    assert_eq!(n_stats, 2 * n_paths, "iterations × paths samples");

    // Every stats document references an existing path and carries
    // the fields the schema requires.
    let coll = stats.read();
    let pcoll = paths.read();
    for d in coll.query_all().refs() {
        let path_id = d.get("path_id").and_then(ValueRef::as_str).unwrap();
        assert!(
            d.id().unwrap().starts_with(&format!("{path_id}_")),
            "stats id {d} does not extend its path id"
        );
        assert!(pcoll.find_by_id(path_id).is_some(), "orphan stats doc {d}");
        let isds = d.get("isds").and_then(ValueRef::as_array).unwrap();
        assert!(!isds.is_empty());
        let loss = d.get("loss_pct").and_then(ValueRef::as_float).unwrap();
        assert!((0.0..=100.0).contains(&loss));
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| {
        let (net, db, _) = upin::standard_setup(seed);
        run_suite(
            &db,
            &net,
            &SuiteConfig {
                skip_collection: true,
                some_only: true,
                ..quick_cfg()
            },
        )
        .unwrap();
        let stats = db.collection(PATHS_STATS);
        let coll = stats.read();
        coll.query_all()
            .run()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<String>>()
    };
    assert_eq!(run(7), run(7), "same seed, same database");
    assert_ne!(run(7), run(8), "different seed, different draws");
}

#[test]
fn network_and_db_agree_on_destination_inventory() {
    let (net, db, _) = upin::standard_setup(103);
    let dests = destinations(&db).unwrap();
    assert_eq!(dests.len(), 21);
    for (_, addr) in &dests {
        assert!(net.topology().server_as(*addr).is_some());
    }
    // Every destination got at least one stored path, discoverable from
    // MY_AS.
    let paths = db.collection(PATHS);
    let coll = paths.read();
    for (id, addr) in dests {
        assert!(
            coll.query(Filter::eq("server_id", id as i64)).count() > 0,
            "no paths stored for {addr}"
        );
        assert!(!net.paths(MY_AS, addr.ia, 5).is_empty());
    }
}
