//! Microbenchmarks of the typed service API: the per-request cost of
//! dispatching `Recommend` / `ShowPaths` / `EvaluateConstraint` /
//! `Health` through [`PathIntelService`], both as typed calls and as
//! JSON lines through the in-process transport — the per-kind cost
//! under the end-to-end benchmark's `serve_static` request.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::Database;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::scionlab::{scionlab_topology, MY_AS};
use upin_core::api::{
    EvaluateConstraintRequest, PathIntelService, RecommendRequest, ServiceRequest, ServiceResponse,
    ShowPathsRequest, Transport,
};
use upin_core::config::SuiteConfig;
use upin_core::suite::TestSuite;

/// One recorded campaign over the SCIONLab replica, wrapped in the
/// service — the same shape `upin serve --db DIR` answers from.
fn measured_service() -> Arc<PathIntelService> {
    let net = Arc::new(ScionNetwork::new(scionlab_topology(), 42));
    let db = Arc::new(Database::new());
    upin_core::collect::register_available_servers(&db, &net).unwrap();
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 1,
        run_bwtests: false,
        ..SuiteConfig::default()
    };
    TestSuite::new(&net, &db, cfg).run().unwrap();
    Arc::new(PathIntelService::new(db, net, MY_AS, 42))
}

fn bench(c: &mut Criterion) {
    let svc = measured_service();
    let transport: &dyn Transport = svc.as_ref();

    let recommend = ServiceRequest::Recommend(RecommendRequest {
        destination: "1".to_string(),
        objective: Default::default(),
        constraints: Default::default(),
        k: 3,
        pareto: false,
        weights: None,
    });
    let showpaths = ServiceRequest::ShowPaths(ShowPathsRequest {
        destination: "17-ffaa:0:1107".to_string(),
        max_paths: 5,
        extended: false,
    });
    let evaluate = ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
        destination: "1".to_string(),
        objective: Default::default(),
        constraints: Default::default(),
    });

    // The benched requests must actually succeed — a fast error path
    // would flatter every number below.
    for req in [&recommend, &showpaths, &evaluate] {
        assert!(
            !matches!(svc.dispatch(req), ServiceResponse::Error(_)),
            "bench request answered an error"
        );
    }

    let mut g = c.benchmark_group("micro_serve");

    g.bench_function("dispatch/recommend", |b| {
        b.iter(|| svc.dispatch(black_box(&recommend)))
    });
    g.bench_function("dispatch/showpaths", |b| {
        b.iter(|| svc.dispatch(black_box(&showpaths)))
    });
    g.bench_function("dispatch/evaluate", |b| {
        b.iter(|| svc.dispatch(black_box(&evaluate)))
    });
    g.bench_function("dispatch/health", |b| {
        b.iter(|| svc.dispatch(black_box(&ServiceRequest::Health)))
    });

    // Full wire shape: parse a JSON request line, dispatch, serialize
    // the typed response — what `upin serve` pays per request line.
    let recommend_line = recommend.to_json_string();
    g.bench_function("transport_json/recommend", |b| {
        b.iter(|| transport.call_json(black_box(&recommend_line)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
