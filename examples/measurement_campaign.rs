//! The full test-suite, CLI-compatible with the paper's wrapper script:
//!
//! ```text
//! cargo run --release --example measurement_campaign -- 2 [--skip] [--some-only] [--parallel]
//! ```
//!
//! Collects paths to all 21 destinations, measures each retained path
//! `<iterations>` times (ping + both bandwidth tests), bulk-inserts per
//! destination, persists the database to `./upin-db/`, and prints the
//! campaign summary plus the Fig. 4 histogram.

use upin::pathdb::Database;
use upin::scion_sim::net::ScionNetwork;
use upin::upin_core::analysis;
use upin::upin_core::report;
use upin::upin_core::{SuiteConfig, TestSuite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = if args.is_empty() {
        vec!["1".to_string()] // default: one iteration
    } else {
        args
    };
    let cfg = match SuiteConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "usage: measurement_campaign <iterations> [--skip] [--some-only] [--parallel]"
            );
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let net = ScionNetwork::scionlab(42);
    let db = Database::new();
    let suite = TestSuite::new(&net, &db, cfg);
    let servers = suite.bootstrap().unwrap();
    println!("registered {servers} destination servers");

    let started = std::time::Instant::now();
    let report = suite.run().unwrap();
    println!("{}", report.render());
    println!(
        "campaign took {:.1}s wall clock",
        started.elapsed().as_secs_f64()
    );
    println!(
        "network clock advanced to {:.0}s (simulated testbed time)\n",
        net.now_ms() / 1000.0
    );

    // Persist like the paper's MongoDB instance.
    db.save_dir("upin-db").unwrap();
    println!(
        "database persisted to ./upin-db/ ({} documents across {:?})\n",
        db.total_documents(),
        db.collection_names()
    );

    let summary = analysis::summary(&db).unwrap();
    println!("{}", report::render_summary(&summary));
    let hist = analysis::reachability(&db).unwrap();
    println!("{}", report::render_fig4(&hist));
}
