//! The campaign entry points against their spelled-out loops. Two
//! callers rebuild a campaign from its public pieces so they can time
//! each one: a single iteration is one fork per destination, salted by
//! the destination's position, with one bulk insert per destination;
//! a longitudinal run is a loop of campaign, rollup catch-up, retention
//! expiry and checkpoint, idling out the rest of each round. Both must
//! store exactly what the entry points store.

use upin::pathdb::rollup::{read_rollup, render};
use upin::pathdb::{Database, Document, RetentionPolicy};
use upin::upin_core::collect::destinations;
use upin::upin_core::measure::{measure_path, paths_of, run_tests};
use upin::upin_core::runner::RetryPolicy;
use upin::upin_core::schema::{stats_rollup, PATHS_STATS};
use upin::upin_core::{run_longitudinal, LongitudinalConfig, SuiteConfig};

const DAY_MS: f64 = 86_400_000.0;
const HOUR_MS: f64 = 3_600_000.0;

fn campaign() -> SuiteConfig {
    SuiteConfig {
        iterations: 1,
        ping_count: 5,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    }
}

fn stats_snapshot(db: &Database) -> Vec<(String, Document)> {
    let handle = db.collection(PATHS_STATS);
    let coll = handle.read();
    let mut out: Vec<_> = coll
        .iter()
        .map(|d| (d.id().unwrap().to_string(), d.to_document()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A network's first single-iteration campaign measures destination
/// `index` on `net.fork(index)`: nothing but the position salts it,
/// not the clock the campaign starts at.
#[test]
fn one_iteration_is_one_fork_per_destination_salted_by_its_position() {
    let cfg = campaign();
    let (net, db, _) = upin::standard_setup(61);
    assert!(net.now_ms() > 0.0, "collection moved the clock");
    run_tests(&db, &net, &cfg).unwrap();

    let (net, replay, _) = upin::standard_setup(61);
    let policy = RetryPolicy::from_config(&cfg);
    for (index, (server_id, addr)) in destinations(&replay).unwrap().into_iter().enumerate() {
        let fork = net.fork(index as u64);
        let mut events = Vec::new();
        let docs: Vec<Document> = paths_of(&replay, server_id)
            .unwrap()
            .iter()
            .map(|spec| measure_path(&fork, &cfg, &policy, spec, addr, &mut events).to_doc())
            .collect();
        replay
            .collection(PATHS_STATS)
            .write()
            .insert_many(docs)
            .unwrap();
    }
    let stored = stats_snapshot(&db);
    assert!(stored.len() > 100, "{} samples", stored.len());
    assert_eq!(stored, stats_snapshot(&replay));
}

/// `run_longitudinal` is its round loop spelled out on the same
/// network: the same rows and the same rollup.
#[test]
fn a_longitudinal_run_is_its_round_loop() {
    let cfg = LongitudinalConfig {
        campaign: campaign(),
        sim_days: 1,
        rounds_per_day: 6,
        retention_hours: 6.0,
        schedule: None,
        disk_probe_day: 1,
    };
    let (net, db, _) = upin::standard_setup(62);
    let report = run_longitudinal(&db, &net, &cfg).unwrap();
    assert!(report.expired_total > 0, "retention expired rows");

    let (net, replay, _) = upin::standard_setup(62);
    replay.register_rollup(stats_rollup());
    replay.set_retention(RetentionPolicy {
        collection: PATHS_STATS.into(),
        time_field: "timestamp_ms".into(),
        keep_ms: (cfg.retention_hours * HOUR_MS) as i64,
    });
    let round_ms = DAY_MS / cfg.rounds_per_day as f64;
    for _ in 0..cfg.sim_days * cfg.rounds_per_day {
        let start = net.now_ms();
        run_tests(&replay, &net, &cfg.campaign).unwrap();
        replay.rollup_catch_up().unwrap();
        replay.expire_retention(net.now_ms() as i64).unwrap();
        replay.checkpoint_if_durable().unwrap();
        let next = start + round_ms;
        if net.now_ms() < next {
            net.advance_ms(next - net.now_ms());
        }
    }
    assert_eq!(stats_snapshot(&db), stats_snapshot(&replay));
    let rollup = stats_rollup();
    assert_eq!(
        render(&read_rollup(&db, &rollup)),
        render(&read_rollup(&replay, &rollup))
    );
}
