//! Torture test of the service's MVCC read path: reader threads hammer
//! `Recommend` / `ShowPaths` / `EvaluateConstraint` through the
//! in-process transport while a campaign writer commits batches into
//! the same database.
//!
//! The correctness oracle is the campaign's commit discipline: each
//! destination iteration is ONE atomic `insert_many` covering every
//! path of that destination (error rows included). A snapshot read can
//! therefore only ever observe a whole number of iterations — all paths
//! of one destination must show the SAME sample count, somewhere in
//! `0..=iterations`. A reader that catches a half-written batch (the
//! bug MVCC snapshots exist to prevent) sees ragged counts and fails.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pathdb::Database;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::scionlab::{scionlab_topology, MY_AS};
use upin_core::api::{
    EvaluateConstraintRequest, PathIntelService, RecommendRequest, ServiceRequest, ServiceResponse,
    ShowPathsRequest, Transport,
};
use upin_core::config::SuiteConfig;
use upin_core::suite::TestSuite;

const WRITER_ITERATIONS: u64 = 6;
const READERS: usize = 4;

fn collected_service() -> (Arc<PathIntelService>, Vec<(u32, String)>) {
    let net = Arc::new(ScionNetwork::new(scionlab_topology(), 42));
    let db = Arc::new(Database::new());
    upin_core::collect::register_available_servers(&db, &net).unwrap();
    // Collect paths once up front so the path set is fixed; the torture
    // writer then measures with `--skip` semantics, appending exactly
    // one stats batch per destination per iteration.
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 1,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    TestSuite::new(&net, &db, cfg).run().unwrap();
    let dests: Vec<(u32, String)> = upin_core::collect::destinations(&db)
        .unwrap()
        .into_iter()
        .map(|(id, a)| (id, a.ia.to_string()))
        .collect();
    (Arc::new(PathIntelService::new(db, net, MY_AS, 42)), dests)
}

#[test]
fn concurrent_reads_only_ever_see_whole_destination_batches() {
    let (svc, dests) = collected_service();
    let transport: &dyn Transport = svc.as_ref();
    let writer_done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let ragged = std::sync::Mutex::new(Vec::<String>::new());

    std::thread::scope(|scope| {
        let svc_w = Arc::clone(&svc);
        let done = &writer_done;
        let ragged_w = &ragged;
        scope.spawn(move || {
            for i in 0..WRITER_ITERATIONS {
                let cfg = SuiteConfig {
                    iterations: 1,
                    skip_collection: true,
                    ping_count: 1,
                    run_bwtests: false,
                    ..SuiteConfig::default()
                };
                let fork = svc_w.net().fork(0xBEEF ^ i);
                // Each fork snapshots the parent clock, which only moves
                // when a reader happens to probe — two iterations forked
                // at (nearly) the same instant would repeat timestamps
                // and collide on stats `_id`s. Stride the fork's clock
                // so every iteration writes in its own time range.
                fork.advance_ms(i as f64 * 600_000.0);
                if let Err(e) = TestSuite::new(&fork, svc_w.db(), cfg).run() {
                    // Record and park instead of panicking: the readers
                    // only stop when `done` is set, so a writer panic
                    // would hang the test forever rather than fail it.
                    ragged_w
                        .lock()
                        .unwrap()
                        .push(format!("writer iteration {i} failed: {e}"));
                    break;
                }
            }
            done.store(true, Ordering::SeqCst);
        });

        for r in 0..READERS {
            let dests = &dests;
            let done = &writer_done;
            let reads = &reads;
            let ragged = &ragged;
            scope.spawn(move || {
                let mut i = r; // offset readers across the destinations
                while !done.load(Ordering::SeqCst) {
                    let (server_id, ia) = &dests[i % dests.len()];
                    i += 1;
                    // Recommend over ALL paths of the destination (big
                    // k, loss-tolerant) so the oracle sees every path.
                    let resp = transport.call(&ServiceRequest::Recommend(RecommendRequest {
                        destination: server_id.to_string(),
                        objective: Default::default(),
                        constraints: Default::default(),
                        k: 64,
                        pareto: false,
                        weights: None,
                    }));
                    match resp {
                        ServiceResponse::Recommend(rec) => {
                            reads.fetch_add(1, Ordering::Relaxed);
                            let counts: Vec<usize> =
                                rec.entries.iter().map(|e| e.aggregate.samples).collect();
                            let all_equal = counts.windows(2).all(|w| w[0] == w[1]);
                            let bounded = counts
                                .iter()
                                .all(|c| *c >= 1 && *c <= 1 + WRITER_ITERATIONS as usize);
                            if !(all_equal && bounded) {
                                ragged.lock().unwrap().push(format!(
                                    "destination {server_id}: ragged sample counts {counts:?}"
                                ));
                            }
                        }
                        ServiceResponse::Error(_) => {
                            // Legitimate while this destination's first
                            // batch is not yet committed.
                        }
                        other => ragged
                            .lock()
                            .unwrap()
                            .push(format!("recommend answered {other:?}")),
                    }
                    // The funnel reads two collections through one
                    // pinned snapshot pair; it must never error.
                    let resp = transport.call(&ServiceRequest::EvaluateConstraint(
                        EvaluateConstraintRequest {
                            destination: server_id.to_string(),
                            objective: Default::default(),
                            constraints: Default::default(),
                        },
                    ));
                    match resp {
                        ServiceResponse::EvaluateConstraint(f) => {
                            if f.matched > f.stored {
                                ragged.lock().unwrap().push(format!(
                                    "destination {server_id}: funnel matched {} > stored {}",
                                    f.matched, f.stored
                                ));
                            }
                        }
                        other => ragged
                            .lock()
                            .unwrap()
                            .push(format!("evaluate answered {other:?}")),
                    }
                    // ShowPaths goes to the network, not the database —
                    // it must stay answerable under write load too.
                    let resp = transport.call(&ServiceRequest::ShowPaths(ShowPathsRequest {
                        destination: ia.clone(),
                        max_paths: 5,
                        extended: true,
                    }));
                    if let ServiceResponse::Error(e) = resp {
                        ragged
                            .lock()
                            .unwrap()
                            .push(format!("showpaths {ia} errored: {}", e.render()));
                    }
                }
            });
        }
    });

    let ragged = ragged.into_inner().unwrap();
    assert!(
        ragged.is_empty(),
        "torn reads observed:\n{}",
        ragged.join("\n")
    );
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers never overlapped the writer"
    );

    // After the writer parks, every destination must show exactly the
    // initial batch plus WRITER_ITERATIONS appended ones, on all paths.
    for (server_id, _) in &dests {
        let resp = svc.dispatch(&ServiceRequest::Recommend(RecommendRequest {
            destination: server_id.to_string(),
            objective: Default::default(),
            constraints: Default::default(),
            k: 64,
            pareto: false,
            weights: None,
        }));
        if let ServiceResponse::Recommend(rec) = resp {
            for e in &rec.entries {
                assert_eq!(
                    e.aggregate.samples,
                    1 + WRITER_ITERATIONS as usize,
                    "destination {server_id} path {} missed batches",
                    e.aggregate.path_id
                );
            }
        }
    }
}
