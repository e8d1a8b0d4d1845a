//! Continuous operation: periodic measurement rounds with retention,
//! feeding the path-health detector — the operational loop of a
//! deployed UPIN instance ("continuous measurements require continuous
//! functioning", §4.1.2).
//!
//! ```text
//! cargo run --release --example continuous_monitoring
//! ```

use upin::pathdb::Database;
use upin::scion_sim::fault::{CongestionEpisode, CongestionTarget};
use upin::scion_sim::net::ScionNetwork;
use upin::scion_sim::topology::scionlab::{paper_destinations, AWS_SINGAPORE};
use upin::upin_core::analysis::server_id_of;
use upin::upin_core::collect::{collect_paths, register_available_servers};
use upin::upin_core::health::{detect, Anomaly, HealthConfig};
use upin::upin_core::longitudinal::{retain_stats, run_rounds};
use upin::upin_core::schema::PATHS_STATS;
use upin::upin_core::SuiteConfig;

fn main() {
    let net = ScionNetwork::scionlab(5);
    let db = Database::new();
    register_available_servers(&db, &net).unwrap();
    let ireland = paper_destinations()[1];
    let campaign = SuiteConfig {
        iterations: 1,
        ping_count: 6,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    };
    collect_paths(&db, &net, &campaign).unwrap();
    let server_id = server_id_of(&db, ireland).unwrap();
    {
        let handle = db.collection(upin::upin_core::schema::AVAILABLE_SERVERS);
        handle
            .write()
            .delete_many(&upin::pathdb::Filter::ne("_id", server_id.to_string()));
    }

    // Phase 1: six clean 2-minute rounds with a 10-minute retention.
    println!("phase 1: six clean rounds (2 min period, 10 min retention)...");
    retain_stats(&db, 600_000);
    let rounds = run_rounds(&db, &net, &campaign, 120_000.0, 6).unwrap();
    println!(
        "  {} samples stored, {} pruned by retention, {} in the window\n",
        rounds.iter().map(|r| r.measured.inserted).sum::<usize>(),
        rounds.iter().map(|r| r.expired).sum::<u64>(),
        db.collection(PATHS_STATS).read().len()
    );

    let cfg = HealthConfig {
        recent_window: 2,
        min_baseline: 3,
        ..HealthConfig::default()
    };
    println!(
        "health scan: {} finding(s) — baseline is clean\n",
        detect(&db, server_id, &cfg).unwrap().len()
    );

    // Phase 2: the Singapore AS congests; two more rounds run.
    println!("phase 2: AWS Singapore congests; two more rounds run...");
    net.add_congestion(CongestionEpisode {
        target: CongestionTarget::Node(AWS_SINGAPORE),
        start_ms: net.now_ms(),
        end_ms: net.now_ms() + 10_000_000.0,
        severity: 1.0,
    });
    run_rounds(&db, &net, &campaign, 120_000.0, 2).unwrap();

    let findings = detect(&db, server_id, &cfg).unwrap();
    println!("health scan: {} finding(s)", findings.len());
    for f in &findings {
        let what = match &f.anomaly {
            Anomaly::Blackout => "BLACKOUT".to_string(),
            Anomaly::LossOnset {
                baseline_pct,
                recent_pct,
            } => {
                format!("loss onset {baseline_pct:.1}% -> {recent_pct:.1}%")
            }
            Anomaly::LatencyShift {
                baseline_ms,
                recent_ms,
                sigmas,
            } => {
                format!("latency shift {baseline_ms:.1} -> {recent_ms:.1} ms ({sigmas:.1} sigma)")
            }
        };
        println!("  {}: {what}", f.path_id);
    }
    println!("\nexactly the Singapore-detour paths are flagged; the operator (or an");
    println!("automated controller) can now steer users off them via the selection engine.");
}
