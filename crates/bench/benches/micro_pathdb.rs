//! Microbenchmarks of the document store: insertion, scans, indexed
//! lookups, filtered queries with sorting, and updates — the DB-side
//! scalability claims of §4.1.1/§4.2.1.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pathdb::{doc, Collection, Filter, Update};

fn populated(n: usize, indexed: bool) -> Collection {
    let mut coll = Collection::new("paths_stats");
    if indexed {
        coll.create_index("server_id");
        coll.create_index("avg_latency_ms");
    }
    let docs = (0..n)
        .map(|i| {
            doc! {
                "_id" => format!("{}_{}_{}", i % 21 + 1, i % 24, i),
                "server_id" => (i % 21 + 1) as i64,
                "hops" => (5 + i % 3) as i64,
                "avg_latency_ms" => 20.0 + (i % 250) as f64,
                "loss_pct" => (i % 11) as f64,
                "isds" => vec![16i64, 17, 19],
            }
        })
        .collect();
    coll.insert_many(docs).unwrap();
    coll
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_pathdb");

    g.bench_function("insert_many/10k", |b| {
        b.iter_batched(
            || {
                (0..10_000)
                    .map(|i| doc! { "_id" => i.to_string(), "v" => i as i64 })
                    .collect::<Vec<_>>()
            },
            |docs| {
                let mut coll = Collection::new("t");
                coll.insert_many(docs).unwrap();
                coll
            },
            BatchSize::SmallInput,
        )
    });

    let scan = populated(10_000, false);
    let idx = populated(10_000, true);
    let filter = Filter::eq("server_id", 7i64).and(Filter::lt("avg_latency_ms", 100.0));

    g.bench_function("find/scan_10k", |b| {
        b.iter(|| scan.query(black_box(&filter)).run())
    });
    g.bench_function("find/indexed_10k", |b| {
        b.iter(|| idx.query(black_box(&filter)).run())
    });
    g.bench_function("find_by_id/10k", |b| {
        b.iter(|| idx.find_by_id(black_box("7_6_2000")))
    });
    g.bench_function("find_sorted_limited/10k", |b| {
        b.iter(|| {
            idx.query(black_box(&filter))
                .sort("avg_latency_ms")
                .limit(10)
                .run()
        })
    });
    // Ordered-index range scan vs the same predicate as a full scan:
    // [200, 205) selects ~200 of the 10k documents.
    let range = Filter::gte("avg_latency_ms", 200.0).and(Filter::lt("avg_latency_ms", 205.0));
    g.bench_function("range/scan_10k", |b| {
        b.iter(|| scan.query(black_box(&range)).run())
    });
    g.bench_function("range/indexed_10k", |b| {
        b.iter(|| idx.query(black_box(&range)).run())
    });
    // Top-10 by latency: every document is matched, sorted and cut.
    g.bench_function("top10_by_latency/scan_10k", |b| {
        b.iter(|| scan.query_all().sort("avg_latency_ms").limit(10).run())
    });
    g.bench_function("count_array_contains/10k", |b| {
        b.iter(|| scan.query(black_box(&Filter::eq("isds", 17i64))).count())
    });
    g.bench_function("update_many/10k", |b| {
        b.iter_batched(
            || populated(10_000, true),
            |mut coll| {
                coll.update_many(
                    &Filter::eq("server_id", 7i64),
                    &Update::new().inc("hits", 1.0),
                );
                coll
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
