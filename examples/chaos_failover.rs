//! Chaos + failover in one sitting: the checked-in example schedule
//! (`examples/chaos_flaps.json`) flaps the ETHZ core, blacks out AWS
//! Frankfurt, pushes a congestion wave through the attachment point and
//! makes the Ireland server flaky — while long-lived failover sessions
//! keep every destination pinned to the best *live* path, migrating
//! within the 500 ms switch SLA and degrading to last-known-good
//! recommendations when nothing is reachable.
//!
//! ```text
//! cargo run --release --example chaos_failover
//! ```
//!
//! Same seed + same schedule → byte-identical trace and report, with
//! or without `parallel`.

use upin::pathdb::Database;
use upin::scion_sim::chaos::ChaosSchedule;
use upin::scion_sim::net::ScionNetwork;
use upin::upin_core::collect::{destinations, register_available_servers};
use upin::upin_core::failover::{run_chaos_campaign, FailoverConfig};
use upin::upin_core::report::render_chaos;

fn main() {
    let schedule = ChaosSchedule::from_json_str(include_str!("chaos_flaps.json"))
        .expect("the checked-in schedule is valid");

    let net = ScionNetwork::scionlab(11);
    let db = Database::new();
    register_available_servers(&db, &net).unwrap();
    let dests = destinations(&db).unwrap();

    let cfg = FailoverConfig {
        ticks: 45,
        workers: 4,
        ..FailoverConfig::default()
    };
    let report = run_chaos_campaign(&net, &schedule, &dests, &cfg, Some(&db)).unwrap();

    println!("Scheduled fault transitions:");
    print!("{}", report.trace);
    println!();
    print!("{}", render_chaos(&report));
}
