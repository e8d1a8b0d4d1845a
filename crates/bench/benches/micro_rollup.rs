//! Microbenchmarks of the incremental rollup layer: serving hourly
//! aggregates from bucket documents vs folding the raw table, and the
//! cost of folding an appended delta forward. The ≥ 50× read budget at
//! 1M rows is asserted by the `floors` test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::rollup::{read_rollup, scan_reference};
use pathdb::Document;
use upin_bench::{rollup_db, rollup_row};
use upin_core::schema::{stats_rollup, PATHS_STATS};

const DAY_MS: i64 = 86_400_000;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_rollup");
    g.sample_size(10);

    let db = rollup_db(100_000);
    let cfg = stats_rollup();

    g.bench_function("read_rollup/100k_rows", |b| {
        b.iter(|| black_box(read_rollup(&db, &cfg)))
    });
    g.bench_function("scan_reference/100k_rows", |b| {
        b.iter(|| black_box(scan_reference(&db, &cfg)))
    });

    // Incremental fold of a 1k-row delta. Each iteration appends its
    // own batch (timestamps keep advancing), so catch_up always folds
    // exactly the delta.
    let mut next = 1_000_000u64;
    g.bench_function("catch_up/1k_delta", |b| {
        b.iter(|| {
            {
                let handle = db.collection(PATHS_STATS);
                let mut coll = handle.write();
                let batch: Vec<Document> =
                    (0..1_000).map(|j| rollup_row(next + j, DAY_MS)).collect();
                next += 1_000;
                coll.insert_many(batch).unwrap();
            }
            let folded = db.rollup_catch_up().unwrap();
            assert_eq!(folded, 1_000);
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
