//! Fault tolerance in action (§4.1.2): servers go down, answer garbage,
//! or flap; a congested node blacks out a window of measurements — and
//! the campaign retries what is transient, trips the circuit breaker on
//! what is not, and records it all instead of crashing.
//!
//! Act two kills the measuring process itself: the same campaign runs
//! WAL-durable, dies mid-measurement, and recovers from the surviving
//! bytes — losing at most the one in-flight destination batch (§4.2.2).
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use upin::pathdb::{Database, Durability, FaultyStorage, Filter, OpenOptions, Value};
use upin::scion_sim::fault::{CongestionEpisode, CongestionTarget, ServerBehavior};
use upin::scion_sim::net::ScionNetwork;
use upin::scion_sim::topology::scionlab::{paper_destinations, AWS_FRANKFURT};
use upin::upin_core::collect::{collect_paths, destinations, register_available_servers};
use upin::upin_core::health::summarize_events;
use upin::upin_core::measure::run_tests;
use upin::upin_core::schema::PATHS_STATS;
use upin::upin_core::SuiteConfig;

fn main() {
    let net = ScionNetwork::scionlab(11);
    let db = Database::new();
    register_available_servers(&db, &net).unwrap();
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 10,
        run_bwtests: true,
        retry_attempts: 3,
        ..SuiteConfig::default()
    };
    collect_paths(&db, &net, &cfg).unwrap();

    // Break things: Ireland down, N. Virginia answering garbage, the
    // Singapore server flapping, and Frankfurt congested for 2 minutes.
    let [_, ireland, virginia, singapore, _] = <[_; 5]>::try_from(paper_destinations()).unwrap();
    net.set_server_behavior(ireland, ServerBehavior::Down);
    net.set_server_behavior(virginia, ServerBehavior::BadResponse);
    net.set_server_behavior(singapore, ServerBehavior::Flaky(0.5));
    net.add_congestion(CongestionEpisode {
        target: CongestionTarget::Node(AWS_FRANKFURT),
        start_ms: net.now_ms() + 60_000.0,
        end_ms: net.now_ms() + 180_000.0,
        severity: 1.0,
    });
    println!("injected: Ireland DOWN, N. Virginia BAD-RESPONSE, Singapore FLAKY(50%),");
    println!("          AWS Frankfurt congested for minutes 1..3 of the campaign\n");

    let report = run_tests(&db, &net, &cfg).unwrap();
    println!(
        "campaign survived: {} destinations, {} samples stored, {} with recorded errors",
        report.destinations, report.inserted, report.errors
    );
    println!(
        "runner: {} retries, {} path measurements skipped, breaker tripped on {:?}\n",
        report.retries, report.skipped, report.tripped
    );

    // The event stream tells the self-healing story per destination.
    for (server_id, (retries, exhausted, trips)) in summarize_events(&report.events) {
        println!(
            "server {server_id}: {retries} retries ({exhausted} exhausted), {trips} breaker trips"
        );
    }
    if !report.events.is_empty() {
        println!();
    }

    // Show what the database recorded for the broken destinations.
    let handle = db.collection(PATHS_STATS);
    let coll = handle.read();
    for (label, addr) in [
        ("Ireland (down)", ireland),
        ("N. Virginia (bad response)", virginia),
    ] {
        let id = destinations(&db)
            .unwrap()
            .into_iter()
            .find(|(_, a)| *a == addr)
            .unwrap()
            .0;
        let total = coll.query(Filter::eq("server_id", id as i64)).count();
        let errored = coll
            .query(
                Filter::eq("server_id", id as i64)
                    .and(Filter::exists("error"))
                    .and(Filter::ne("error", Value::Null)),
            )
            .count();
        let blackout = coll
            .query(Filter::eq("server_id", id as i64).and(Filter::gte("loss_pct", 100.0)))
            .count();
        println!("{label}: {total} samples, {errored} errored, {blackout} at 100% loss");
    }
    println!("\nevery failure is a document, not a crash — the §4.1.2 requirement.");

    crash_recovery_act();
}

/// One WAL-durable campaign against `storage`: register, collect,
/// checkpoint, measure. Returns the storage unit counter after the
/// checkpoint, the measurement outcome, and the database.
fn durable_campaign(storage: &FaultyStorage) -> (u64, Result<(), String>, Database) {
    let net = ScionNetwork::scionlab(11);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 3,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    let (db, _) = Database::open_durable_with(
        PathBuf::from("/crash-demo"),
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.clone())),
    )
    .expect("recovery never fails, whatever the store looks like");
    let setup = register_available_servers(&db, &net)
        .map_err(|e| e.to_string())
        .and_then(|_| collect_paths(&db, &net, &cfg).map_err(|e| e.to_string()))
        .and_then(|_| db.checkpoint().map_err(|e| e.to_string()));
    if let Err(e) = setup {
        return (storage.units_written(), Err(e), db);
    }
    let after_checkpoint = storage.units_written();
    let outcome = run_tests(&db, &net, &cfg)
        .map(|_| ())
        .map_err(|e| e.to_string());
    (after_checkpoint, outcome, db)
}

/// Act two: kill the process mid-measurement and recover from the WAL.
fn crash_recovery_act() {
    println!("\n-- act two: the process dies mid-campaign (--durability wal) --\n");

    // Fault-free reference run, to learn the store's write extent.
    let reference = FaultyStorage::new();
    let (after_checkpoint, outcome, ref_db) = durable_campaign(&reference);
    outcome.expect("fault-free durable campaign succeeds");
    let expected = ref_db.collection(PATHS_STATS).read().len();
    let total = reference.units_written();

    // The rigged run: the store dies partway through the measurement
    // phase, mid-WAL-frame, as a real power cut would land.
    let storage = FaultyStorage::new();
    storage.kill_at(after_checkpoint + (total - after_checkpoint) * 3 / 5);
    let (_, outcome, _) = durable_campaign(&storage);
    println!(
        "campaign aborted: {}",
        outcome.expect_err("the dead store must surface as an error")
    );

    // Reopen from the surviving bytes, as the next process start would.
    let (recovered, report) = Database::open_durable_with(
        PathBuf::from("/crash-demo"),
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.surviving())),
    )
    .expect("recovery from the torn store");
    if !report.clean() {
        println!("recovery: {}", report.render());
    }
    let salvaged = recovered.collection(PATHS_STATS).read().len();
    println!(
        "recovered {salvaged} of {expected} samples — the checkpointed collection phase plus \
         every committed destination batch; only the in-flight batch is gone (§4.2.2)."
    );
    assert!(
        salvaged < expected,
        "the kill offset should land mid-measurement"
    );
}
