//! Byte-equivalence oracle for the incremental rollup layer.
//!
//! Property: after any interleaving of bulk inserts, incremental
//! catch-ups, retention expiries and durable close/recover cycles, the
//! rollup-served aggregates render **byte-identical** to a raw one-pass
//! fold over every row ever inserted ([`pathdb::rollup`] keeps exact
//! mergeable state, not approximations-of-approximations). Expiry may
//! delete raw rows the rollup already folded — the reference therefore
//! folds the *shadow* of all rows ever inserted, pinning the "rollups
//! forever, raw rows windowed" retention contract.
//!
//! The torn-write/kill-offset side of crash safety is prop_crash's job;
//! here recovery is exercised through clean drops (WAL replay) and
//! checkpoints (snapshot + seq restoration), which is where an
//! incremental watermark can silently rot.

use pathdb::database::OpenOptions;
use pathdb::rollup::{fold_reference, read_rollup, render};
use pathdb::{doc, Database, Document, Durability, FaultyStorage, RetentionPolicy, RollupConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const HOUR: i64 = 3_600_000;

fn cfg() -> RollupConfig {
    RollupConfig::hourly("paths_stats", "rollup_paths_stats")
}

#[derive(Debug, Clone)]
enum Op {
    /// Bulk-insert measurement rows: (server, path, sim-hour-tenths,
    /// latency-hundredths, with_latency).
    InsertMany(Vec<(u8, u8, u16, i32, bool)>),
    CatchUp,
    /// Retention expiry at sim-hour `h` (raw rows keep 2 h).
    Expire(u16),
    Checkpoint,
    /// Drop the database and recover it from the surviving directory.
    Reopen,
}

fn arb_row() -> impl Strategy<Value = (u8, u8, u16, i32, bool)> {
    (
        (0u8..3, 0u8..3),
        // Includes negative and zero values: the sketch's bin classes
        // and the min/max fold seeds all get exercised.
        (0u16..100, -500i32..5000, (0u8..10).prop_map(|x| x < 9)),
    )
        .prop_map(|((server, path), (tenths, lat, with_lat))| (server, path, tenths, lat, with_lat))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(arb_row(), 1..8).prop_map(Op::InsertMany),
        prop::collection::vec(arb_row(), 1..8).prop_map(Op::InsertMany),
        Just(Op::CatchUp),
        (0u16..20).prop_map(Op::Expire),
        Just(Op::Checkpoint),
        Just(Op::Reopen),
    ]
}

fn row_doc(id: u64, (server, path, tenths, lat, with_lat): (u8, u8, u16, i32, bool)) -> Document {
    let mut d = doc! {
        "_id" => format!("r{id}"),
        "server_id" => server as i64,
        "path_id" => format!("{server}_{path}"),
        "timestamp_ms" => tenths as i64 * (HOUR / 10),
    };
    if with_lat {
        // Mix Int and Float values: numeric widening must fold the
        // same either way.
        if lat % 3 == 0 {
            d.set("avg_latency_ms", lat as i64);
        } else {
            d.set("avg_latency_ms", lat as f64 / 100.0);
        }
        d.set("loss_pct", (lat.rem_euclid(100)) as f64 / 10.0);
    }
    d
}

fn open(storage: &FaultyStorage) -> Database {
    let (db, _) = Database::open_durable_with(
        PathBuf::from("/db"),
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.clone())),
    )
    .expect("recovery never fails on clean state");
    db.register_rollup(cfg());
    db.set_retention(RetentionPolicy {
        collection: "paths_stats".into(),
        time_field: "timestamp_ms".into(),
        keep_ms: 2 * HOUR,
    });
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rollup_reads_are_byte_identical_to_a_raw_fold(
        ops in prop::collection::vec(arb_op(), 1..24),
    ) {
        let storage = FaultyStorage::new();
        let mut db = open(&storage);
        let mut shadow: Vec<Document> = Vec::new();
        let mut next_id = 0u64;
        for op in &ops {
            match op {
                Op::InsertMany(rows) => {
                    let docs: Vec<Document> = rows
                        .iter()
                        .map(|r| {
                            next_id += 1;
                            row_doc(next_id, *r)
                        })
                        .collect();
                    shadow.extend(docs.clone());
                    db.collection("paths_stats").write().insert_many(docs).unwrap();
                }
                Op::CatchUp => {
                    db.rollup_catch_up().unwrap();
                }
                Op::Expire(h) => {
                    // Folds internally before deleting: no raw row may
                    // ever expire unfolded.
                    db.expire_retention(*h as i64 * HOUR).unwrap();
                }
                Op::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Op::Reopen => {
                    drop(db);
                    db = open(&storage);
                    // Incremental state must have survived recovery:
                    // folding forward now covers exactly the unfolded
                    // tail, never refolding, never skipping.
                    db.rollup_catch_up().unwrap();
                    prop_assert_eq!(
                        render(&read_rollup(&db, &cfg())),
                        render(&fold_reference(shadow.iter(), &cfg())),
                        "diverged right after recovery"
                    );
                }
            }
        }
        db.rollup_catch_up().unwrap();
        prop_assert_eq!(
            render(&read_rollup(&db, &cfg())),
            render(&fold_reference(shadow.iter(), &cfg()))
        );

        // And the served aggregates are internally consistent: counts
        // match sketch mass, min <= p50 <= p99 <= max within the
        // sketch's relative-error envelope.
        for agg in read_rollup(&db, &cfg()) {
            for (_, f) in &agg.fields {
                prop_assert_eq!(f.sketch.count(), f.n);
                if f.n > 0 {
                    prop_assert!(f.min <= f.max);
                    let tol = 0.03 * f.max.abs().max(f.min.abs()).max(1.0);
                    prop_assert!(f.p50() <= f.p99() + tol);
                    prop_assert!(f.p99() <= f.max + tol);
                    prop_assert!(f.min - tol <= f.p50());
                }
            }
        }
    }
}
