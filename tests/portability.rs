//! Portability (§4.1.3): the suite must work "on all the SCION-based
//! networks, with minimal modifications". These property tests drive
//! the *entire* stack — control plane, tools, collection, measurement,
//! selection — over randomly generated topologies it was never tuned
//! for.

use proptest::prelude::*;
use std::collections::HashSet;
use upin::pathdb::Database;
use upin::scion_sim::net::ScionNetwork;
use upin::scion_sim::topology::random::{random_topology, RandomTopologyConfig};
use upin::upin_core::collect::{collect_paths, destinations, register_available_servers};
use upin::upin_core::measure::run_tests;
use upin::upin_core::select::{recommend, Constraints, Objective, UserRequest};
use upin::upin_core::{SuiteConfig, SuiteError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Discovery works on arbitrary networks: every path handed out is
    /// valid and correctly ranked.
    #[test]
    fn discovery_on_random_networks(seed in 0u64..500) {
        let (topo, user) = random_topology(seed, &RandomTopologyConfig::default()).expect("valid config");
        let net = ScionNetwork::new(topo, seed);
        for addr in net.topology().all_servers() {
            if addr.ia == user {
                continue;
            }
            let paths = net.paths(user, addr.ia, 20);
            prop_assert!(!paths.is_empty(), "seed {seed}: {} unreachable", addr.ia);
            for p in &paths {
                prop_assert!(net.path_server().validate(net.topology(), p).is_ok());
                let ases: HashSet<_> = p.hops.iter().map(|h| h.ia).collect();
                prop_assert_eq!(ases.len(), p.hops.len(), "loop in {}", p);
            }
            for w in paths.windows(2) {
                prop_assert!(w[0].hop_count() <= w[1].hop_count());
            }
        }
    }

    /// The full campaign runs unchanged on arbitrary networks and the
    /// selection engine answers from the collected data.
    #[test]
    fn campaign_and_selection_on_random_networks(seed in 0u64..500) {
        let (topo, user) = random_topology(seed, &RandomTopologyConfig::default()).expect("valid config");
        let net = ScionNetwork::new(topo, seed);
        let db = Database::new();
        let servers = register_available_servers(&db, &net).unwrap();
        if servers == 0 {
            return Ok(()); // a server-less network has nothing to test
        }
        let cfg = SuiteConfig {
            local_as: user,
            iterations: 1,
            ping_count: 3,
            run_bwtests: false,
            ..SuiteConfig::default()
        };
        collect_paths(&db, &net, &cfg).unwrap();
        let report = run_tests(&db, &net, &cfg).unwrap();
        prop_assert!(report.inserted > 0, "seed {seed}: nothing measured");

        // Selection answers (or correctly reports no candidates) for
        // every destination.
        for (server_id, addr) in destinations(&db).unwrap() {
            if addr.ia == user {
                continue;
            }
            let req = UserRequest {
                server_id,
                objective: Objective::MinLatency,
                constraints: Constraints::default(),
            };
            match recommend(&db, &req, 3) {
                Ok(recs) => {
                    prop_assert!(!recs.is_empty());
                    for w in recs.windows(2) {
                        prop_assert!(w[0].score <= w[1].score);
                    }
                }
                // A fully-lost destination (heavy random loss) is a
                // legitimate no-candidates outcome, not a crash.
                Err(SuiteError::Selection(_)) => {}
                Err(e) => return Err(TestCaseError::fail(format!("seed {seed}: {e}"))),
            }
        }
    }
}
