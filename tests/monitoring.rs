//! Continuous monitoring end to end: scheduled campaign rounds feed the
//! health detector, which flags exactly the paths a mid-run congestion
//! episode blacked out — the operational loop an operator of the
//! paper's system would run.

use upin::pathdb::Database;
use upin::scion_sim::fault::{CongestionEpisode, CongestionTarget};
use upin::scion_sim::net::ScionNetwork;
use upin::scion_sim::topology::scionlab::{paper_destinations, AWS_OHIO};
use upin::upin_core::analysis::server_id_of;
use upin::upin_core::collect::{collect_paths, register_available_servers};
use upin::upin_core::health::{detect, Anomaly, HealthConfig};
use upin::upin_core::measure::run_tests;
use upin::upin_core::SuiteConfig;

/// `n` measurement rounds, one every two minutes of the network clock.
fn run_rounds(db: &Database, net: &ScionNetwork, campaign: &SuiteConfig, n: u32) {
    for _ in 0..n {
        let next = net.now_ms() + 120_000.0;
        run_tests(db, net, campaign).unwrap();
        if net.now_ms() < next {
            net.advance_ms(next - net.now_ms());
        }
    }
}

#[test]
fn scheduled_rounds_plus_health_detection() {
    let net = ScionNetwork::scionlab(88);
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

    // Seven clean rounds build the baseline: the detector judges a path
    // once it holds five baseline samples plus the recent window.
    run_rounds(&db, &net, &campaign, 7);
    let cfg = HealthConfig {
        recent_window: 2,
        ..HealthConfig::default()
    };
    assert!(
        detect(&db, server_id, &cfg).unwrap().is_empty(),
        "clean baseline must not alarm"
    );

    // Congest the Ohio AS for the next two rounds: the Ohio-detour
    // paths black out; everything else stays healthy.
    net.add_congestion(CongestionEpisode {
        target: CongestionTarget::Node(AWS_OHIO),
        start_ms: net.now_ms(),
        end_ms: net.now_ms() + 10_000_000.0,
        severity: 1.0,
    });
    run_rounds(&db, &net, &campaign, 2);

    let findings = detect(&db, server_id, &cfg).unwrap();
    assert!(!findings.is_empty(), "the blackout must be flagged");
    for f in &findings {
        assert!(matches!(f.anomaly, Anomaly::Blackout), "{f:?}");
    }
    // The flagged paths are exactly the Ohio-transiting ones.
    let handle = db.collection(upin::upin_core::schema::PATHS);
    let coll = handle.read();
    let ohio = AWS_OHIO.to_string();
    for f in &findings {
        let doc = coll.find_by_id(f.path_id.to_string()).unwrap();
        let seq = doc.get("sequence").unwrap().as_str().unwrap();
        assert!(seq.contains(&ohio), "{seq}");
    }
    let flagged: Vec<String> = findings.iter().map(|f| f.path_id.to_string()).collect();
    let ohio_paths = coll
        .query(upin::pathdb::Filter::eq("server_id", server_id as i64))
        .run()
        .iter()
        .filter(|d| d.get("sequence").unwrap().as_str().unwrap().contains(&ohio))
        .count();
    assert_eq!(
        flagged.len(),
        ohio_paths,
        "all Ohio paths flagged: {flagged:?}"
    );
}
