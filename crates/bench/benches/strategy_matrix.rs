//! Strategy matrix: ranking latency for every registered selection
//! strategy over the same synthetic campaign, plus the axiomatic
//! evaluation harness end-to-end.
//!
//! The per-strategy rows answer "how much does pluggable selection
//! cost relative to the paper's ranking"; the harness rows answer
//! "what does a full scorecard over a measured campaign cost".

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::Database;
use upin_bench::synthetic_db;
use upin_core::axioms::{evaluate_strategies, EvalConfig};
use upin_core::select::{Constraints, Objective, UserRequest};
use upin_core::strategy::{registry, StrategyContext};

/// A measured scionlab campaign for the harness rows (the axioms need
/// a real network to fork per epoch).
fn measured_campaign(seed: u64) -> (scion_sim::net::ScionNetwork, Database) {
    use upin_core::config::SuiteConfig;
    use upin_core::suite::TestSuite;

    let net = scion_sim::net::ScionNetwork::scionlab(seed);
    let db = Database::new();
    upin_core::schema::ensure_indexes(&db);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 3,
        run_bwtests: true,
        some_only: true,
        ..SuiteConfig::default()
    };
    let suite = TestSuite::new(&net, &db, cfg);
    suite.bootstrap().unwrap();
    suite.run().unwrap();
    (net, db)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_matrix");
    g.sample_size(20);

    let db = synthetic_db(21, 24, 60, true);
    let ctx = StrategyContext { db: &db, seed: 42 };
    let request = UserRequest {
        server_id: 7,
        objective: Objective::MinLatency,
        constraints: Constraints::default(),
    };
    for strategy in registry() {
        // Warm the aggregate cache once so every strategy pays the same
        // steady-state cost, not a first-touch recompute.
        strategy.rank(&ctx, &request, 3).unwrap();
        g.bench_function(format!("rank/{}", strategy.name()), |b| {
            b.iter(|| black_box(strategy.rank(&ctx, &request, 3).unwrap()))
        });
    }

    let (net, campaign_db) = measured_campaign(42);
    let local = scion_sim::topology::scionlab::MY_AS;
    let cfg = EvalConfig {
        epochs: 4,
        seed: 42,
        ..EvalConfig::default()
    };
    g.bench_function("evaluate", |b| {
        b.iter(|| black_box(evaluate_strategies(&campaign_db, &net, local, &cfg).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
