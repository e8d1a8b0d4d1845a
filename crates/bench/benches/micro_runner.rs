//! Microbenchmarks of the campaign runner: sequential vs pooled
//! execution, fork cost, and the retry/backoff fast path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::Database;
use scion_sim::net::ScionNetwork;
use upin_core::config::SuiteConfig;
use upin_core::runner::run_campaign;
use upin_core::suite::TestSuite;

fn seeded_db(net: &ScionNetwork, cfg: &SuiteConfig) -> Database {
    let db = Database::new();
    let suite = TestSuite::new(net, &db, cfg.clone());
    suite.bootstrap().expect("bootstrap");
    suite.run().expect("collection run");
    db
}

fn quick(workers: usize) -> SuiteConfig {
    SuiteConfig {
        iterations: 1,
        some_only: true,
        ping_count: 3,
        run_bwtests: false,
        workers,
        ..SuiteConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_runner");
    g.sample_size(20);

    let cfg_seq = quick(1);
    let net = ScionNetwork::scionlab(42);
    let db = seeded_db(&net, &cfg_seq);

    g.bench_function("campaign_sequential", |b| {
        b.iter(|| run_campaign(&db, black_box(&net), &cfg_seq).unwrap())
    });

    let cfg_pool = quick(4);
    g.bench_function("campaign_pooled_4_workers", |b| {
        b.iter(|| run_campaign(&db, black_box(&net), &cfg_pool).unwrap())
    });

    g.bench_function("network_fork", |b| b.iter(|| net.fork(black_box(7))));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
