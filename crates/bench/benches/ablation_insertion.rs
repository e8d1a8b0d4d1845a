//! Ablation (§4.2.2) — single vs batched statistics insertion.
//!
//! The paper chooses to buffer all measurements of one destination and
//! insert them in one bulk write, trading a bounded crash-loss window
//! for lower I/O overhead. This bench quantifies both sides: the
//! throughput gap between per-document and batched insertion, and the
//! samples lost when a crash interrupts each strategy mid-destination.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use pathdb::{Collection, Durability, Value};
use std::io::Write;
use upin_bench::{empty_db, stats_batch};

fn bench(c: &mut Criterion) {
    // Crash-loss accounting: with batching, a crash after k of n docs
    // loses all k buffered samples of ONE destination; with per-doc
    // writes it loses at most the one in flight — but pays per-write
    // overhead on every sample. Print the numbers the design argument
    // rests on.
    let n = 24; // one destination's paths
    println!(
        "crash mid-destination: batched loses <= {n} samples (one per path), single loses <= 1"
    );

    let mut g = c.benchmark_group("ablation_insertion");

    // The paper's actual cost driver is the write round-trip to the
    // database service. Model it with durable appends: one flushed
    // write per document vs one flushed write per batch.
    let dir = std::env::temp_dir().join(format!("upin-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for &batch in &[24usize, 240] {
        g.bench_function(format!("single_inserts_persisted/{batch}"), |b| {
            let path = dir.join("single.jsonl");
            b.iter_batched(
                || stats_batch(batch),
                |docs| {
                    let mut f = std::fs::File::create(&path).unwrap();
                    for d in docs {
                        writeln!(f, "{}", Value::Doc(d).to_json()).unwrap();
                        f.flush().unwrap();
                        f.sync_data().unwrap(); // per-document durability
                    }
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("insert_many_persisted/{batch}"), |b| {
            let path = dir.join("many.jsonl");
            b.iter_batched(
                || stats_batch(batch),
                |docs| {
                    let mut buf = Vec::new();
                    for d in docs {
                        writeln!(buf, "{}", Value::Doc(d).to_json()).unwrap();
                    }
                    let mut f = std::fs::File::create(&path).unwrap();
                    f.write_all(&buf).unwrap();
                    f.flush().unwrap();
                    f.sync_data().unwrap(); // one durability point per batch
                },
                BatchSize::SmallInput,
            )
        });
    }

    // Durability-level ablation on the real engine: the same batched
    // insertion against `none` (pure in-memory), `snapshot` (writes
    // deferred to checkpoint — insertion itself is in-memory), and
    // `wal` (CRC-framed group commit per batch). Storage is the
    // in-memory test backend, so the delta is the WAL's framing and
    // group-commit bookkeeping, not disk latency.
    for &batch in &[24usize, 240, 2400] {
        for (label, mode) in [
            ("none", Durability::None),
            ("snapshot", Durability::Snapshot),
            ("wal", Durability::Wal),
        ] {
            g.bench_function(format!("insert_many_durability_{label}/{batch}"), |b| {
                b.iter_batched(
                    || (empty_db(mode), stats_batch(batch)),
                    |(db, docs)| {
                        db.collection("paths_stats")
                            .write()
                            .insert_many(black_box(docs))
                            .unwrap();
                        db
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }

    for &batch in &[24usize, 240, 2400] {
        g.bench_function(format!("single_inserts/{batch}"), |b| {
            b.iter_batched(
                || stats_batch(batch),
                |docs| {
                    let mut coll = Collection::new("paths_stats");
                    for d in docs {
                        coll.insert_one(black_box(d)).unwrap();
                    }
                    coll
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("insert_many/{batch}"), |b| {
            b.iter_batched(
                || stats_batch(batch),
                |docs| {
                    let mut coll = Collection::new("paths_stats");
                    coll.insert_many(black_box(docs)).unwrap();
                    coll
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
