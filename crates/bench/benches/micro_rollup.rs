//! Microbenchmarks of the incremental rollup layer: serving hourly
//! aggregates from bucket documents vs folding the raw table, and the
//! cost of folding an appended delta forward — the longitudinal-scale
//! claims behind `BENCH_longitudinal.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::rollup::{read_rollup, scan_reference};
use pathdb::{doc, Database, Document};
use upin_core::schema::{stats_rollup, PATHS_STATS};

const DAY_MS: i64 = 86_400_000;

fn row(i: u64, ts: i64) -> Document {
    let s = (i % 21 + 1) as i64;
    let p = (i % 4) as i64;
    doc! {
        "_id" => format!("{s}_{p}_{ts}_{i}"),
        "server_id" => s,
        "path_id" => format!("{s}_{p}"),
        "timestamp_ms" => ts,
        "avg_latency_ms" => 20.0 + (i % 250) as f64,
        "jitter_ms" => 0.3 + (i % 5) as f64,
        "loss_pct" => (i % 9) as f64,
    }
}

/// A database with `n` stats rows over one simulated day, rollup
/// caught up.
fn populated(n: u64) -> Database {
    let db = Database::new();
    db.register_rollup(stats_rollup());
    let handle = db.collection(PATHS_STATS);
    {
        let mut coll = handle.write();
        let docs: Vec<Document> = (0..n)
            .map(|i| row(i, ((i as i128 * DAY_MS as i128) / n as i128) as i64))
            .collect();
        coll.insert_many(docs).unwrap();
    }
    db.rollup_catch_up().unwrap();
    db
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_rollup");
    g.sample_size(10);

    let db = populated(100_000);
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
                let batch: Vec<Document> = (0..1_000).map(|j| row(next + j, DAY_MS)).collect();
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
