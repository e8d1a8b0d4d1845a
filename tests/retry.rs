//! Runner correctness across the stack: a parallel campaign must be a
//! faster spelling of the sequential one (identical `paths_stats`
//! documents), flaky destinations must converge under retry/backoff,
//! and dead destinations must trip the circuit breaker instead of
//! hammering every path.

use upin::pathdb::{Database, Filter, Value};
use upin::scion_sim::fault::ServerBehavior;
use upin::upin_core::collect::destinations;
use upin::upin_core::measure::run_tests;
use upin::upin_core::schema::PATHS_STATS;
use upin::upin_core::SuiteConfig;

fn stats_snapshot(db: &Database) -> Vec<(String, upin::pathdb::Document)> {
    let handle = db.collection(PATHS_STATS);
    let coll = handle.read();
    let mut out: Vec<_> = coll
        .iter()
        .map(|d| (d.id().unwrap().to_string(), d.clone()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn error_rows(db: &Database) -> usize {
    let handle = db.collection(PATHS_STATS);
    let coll = handle.read();
    coll.query(Filter::exists("error").and(Filter::ne("error", Value::Null)))
        .count()
}

#[test]
fn parallel_campaign_matches_sequential_document_set() {
    let quick = SuiteConfig {
        iterations: 2,
        ping_count: 3,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    };

    let (net_seq, db_seq, _) = upin::standard_setup(401);
    let seq = run_tests(&db_seq, &net_seq, &quick).unwrap();

    let (net_par, db_par, _) = upin::standard_setup(401);
    let par_cfg = SuiteConfig {
        workers: 3,
        ..quick
    };
    let par = run_tests(&db_par, &net_par, &par_cfg).unwrap();

    assert!(seq.inserted > 0);
    assert_eq!(seq.inserted, par.inserted);
    assert_eq!(
        stats_snapshot(&db_seq),
        stats_snapshot(&db_par),
        "parallel campaign must store the same documents as sequential"
    );
    assert_eq!(seq.peak_workers, 1);
    assert!(par.peak_workers <= 3, "pool bounded by --workers");
}

#[test]
fn flaky_destination_converges_under_retries() {
    let (net, db, _) = upin::standard_setup(402);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 5,
        run_bwtests: true,
        skip_collection: true,
        some_only: true,
        retry_attempts: 6,
        ..SuiteConfig::default()
    };
    let (_, addr) = destinations(&db).unwrap()[0];
    net.set_server_behavior(addr, ServerBehavior::Flaky(0.3));

    let report = run_tests(&db, &net, &cfg).unwrap();
    assert!(report.inserted > 0);
    assert_eq!(report.errors, 0, "retries absorb the 30% flake rate");
    assert_eq!(error_rows(&db), 0, "no error rows stored");
    assert!(report.tripped.is_empty(), "breaker must not trip");
    assert!(report.retries > 0, "flaky bwtests actually retried");
}

#[test]
fn down_destination_trips_the_breaker_instead_of_hanging() {
    let (net, db, _) = upin::standard_setup(403);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 5,
        run_bwtests: true,
        skip_collection: true,
        some_only: true,
        retry_attempts: 0,
        ..SuiteConfig::default()
    };
    let (server_id, addr) = destinations(&db).unwrap()[0];
    net.set_server_behavior(addr, ServerBehavior::Down);

    let report = run_tests(&db, &net, &cfg).unwrap();
    assert!(
        report.tripped.contains(&server_id),
        "breaker records the destination"
    );
    assert!(report.skipped > 0, "remaining paths skipped, not hammered");
    assert_eq!(
        report.errors, cfg.breaker_threshold,
        "exactly the trip threshold of hard failures is recorded"
    );
    assert_eq!(
        report.measured, cfg.breaker_threshold,
        "measurement stops at the trip point"
    );
}
