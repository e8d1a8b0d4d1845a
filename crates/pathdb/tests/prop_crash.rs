//! Crash-injection oracle for the durability subsystem.
//!
//! Method: run a workload of collection operations (inserts, bulk
//! inserts, updates, deletes, drops, checkpoints) against a database
//! opened with WAL durability on a [`FaultyStorage`]. A fault-free run
//! records, after each operation, (a) the cumulative storage unit
//! counter and (b) a fingerprint of the logical state — the *model
//! trajectory*. Then the same workload is re-run with the storage
//! rigged to crash at a chosen unit offset `k`; recovery from the
//! surviving bytes must produce a state that
//!
//! 1. equals **some** model state `j` (atomicity: a recovered database
//!    is never "between" operations — in particular no partial
//!    `insert_many` batch is ever visible), and
//! 2. has `j >= committed(k)`, the number of operations whose storage
//!    writes fully preceded the crash (prefix durability: nothing that
//!    reached the disk before the crash is lost).
//!
//! The deterministic test sweeps **every** offset of a fixed workload
//! (including offsets inside checkpoints, so every window of the
//! rotate / slice write / manifest commit / cleanup protocol is hit,
//! with slices rewritten, emptied and dropped); the proptest randomizes
//! workloads and samples offsets, and also covers sector tearing and
//! transient-error retries.
//!
//! A second oracle holds what a checkpoint writes, not what survives
//! it: a checkpoint writes only the slices a mutation touched, and
//! every slice file its manifest names — whichever checkpoint wrote it,
//! before or after a reopen — must equal, byte for byte, the file
//! `save_dir` writes into a fresh directory ([`run_checkpoints`]). The
//! same runs create secondary indexes, which the manifest records and a
//! reopen rebuilds: after every reopen each collection holds exactly
//! the indexes its manifest names, and every read through them answers
//! what a scan answers.

use pathdb::database::OpenOptions;
use pathdb::{
    doc, Database, Document, Durability, FaultyStorage, Filter, RetentionPolicy, RollupConfig,
    Storage, Update, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---- workload -------------------------------------------------------------

/// One scripted operation. Collections and ids are small pools so
/// updates/deletes actually hit and drops actually destroy data.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        coll: u8,
        id: u32,
    },
    /// `dup: true` repeats an existing id — the op must fail without
    /// reaching the WAL.
    InsertDup {
        coll: u8,
        id: u32,
    },
    InsertMany {
        coll: u8,
        ids: Vec<u32>,
    },
    Update {
        coll: u8,
        id: u32,
        v: i64,
    },
    Delete {
        coll: u8,
        id: u32,
    },
    Drop {
        coll: u8,
    },
    Checkpoint,
    /// Fold the registered rollup forward (one WAL group, or none when
    /// already caught up).
    RollupFold,
    /// Retention expiry at a given sim-clock. Always scheduled right
    /// after a [`Op::RollupFold`], so its internal fold-before-expire
    /// pass is a WAL no-op and the op commits exactly one delete group —
    /// keeping every WAL-group boundary aligned with a trajectory point.
    Expire {
        now: i64,
    },
}

fn coll_name(c: u8) -> &'static str {
    if c == 0 {
        "paths"
    } else {
        "paths_stats"
    }
}

/// Apply one op, swallowing errors: after the rigged crash offset every
/// storage call fails, exactly like a process racing a dying disk.
fn apply(db: &Database, op: &Op) {
    match op {
        Op::Insert { coll, id } => {
            let h = db.collection(coll_name(*coll));
            let _ = h.write().insert_one(
                doc! { "_id" => format!("d{id}"), "v" => *id as i64, "t" => *id as i64 * 500 },
            );
        }
        Op::InsertDup { coll, id } => {
            let h = db.collection(coll_name(*coll));
            let r = h
                .write()
                .insert_one(doc! { "_id" => format!("d{id}"), "v" => -1i64 });
            assert!(r.is_err(), "duplicate insert must be rejected");
        }
        Op::InsertMany { coll, ids } => {
            let h = db.collection(coll_name(*coll));
            let docs: Vec<Document> = ids
                .iter()
                .map(|id| {
                    doc! {
                        "_id" => format!("d{id}"),
                        "v" => *id as i64,
                        "t" => *id as i64 * 500,
                        "batch" => true,
                    }
                })
                .collect();
            let _ = h.write().insert_many(docs);
        }
        Op::Update { coll, id, v } => {
            let h = db.collection(coll_name(*coll));
            h.write().update_many(
                &Filter::eq("_id", format!("d{id}")),
                &Update::new().set("v", *v),
            );
        }
        Op::Delete { coll, id } => {
            let h = db.collection(coll_name(*coll));
            h.write().delete_many(&Filter::eq("_id", format!("d{id}")));
        }
        Op::Drop { coll } => {
            db.drop_collection(coll_name(*coll));
        }
        Op::Checkpoint => {
            let _ = db.checkpoint();
        }
        Op::RollupFold => {
            let _ = db.rollup_catch_up();
        }
        Op::Expire { now } => {
            let _ = db.expire_retention(*now);
        }
    }
}

/// Canonical logical state: every non-empty collection's documents as
/// sorted JSON. (Empty collections are deliberately excluded — an
/// empty collection that was never checkpointed leaves no durable
/// trace, by design.)
fn fingerprint(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for name in db.collection_names() {
        let handle = db.collection(&name);
        let coll = handle.read();
        if coll.is_empty() {
            continue;
        }
        let mut docs: Vec<String> = coll
            .iter()
            .map(|d| Value::Doc(d.to_document()).to_json().to_string())
            .collect();
        docs.sort();
        out.push(format!("{name}: {}", docs.join(" | ")));
    }
    out
}

fn open_wal(storage: &FaultyStorage) -> (Database, pathdb::RecoveryReport) {
    let opts = OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.clone()));
    let (db, report) = Database::open_durable_with(PathBuf::from("/db"), opts)
        .expect("recovery never fails on torn state");
    db.register_rollup(RollupConfig {
        source: "paths_stats".into(),
        dest: "rollup_stats".into(),
        time_field: "t".into(),
        bucket_ms: 4000,
        group_by: vec![],
        fields: vec!["v".into()],
    });
    db.set_retention(RetentionPolicy {
        collection: "paths_stats".into(),
        time_field: "t".into(),
        keep_ms: 3000,
    });
    (db, report)
}

/// Fault-free run: the model trajectory (cumulative units + state
/// fingerprint after each op) and the total unit span.
fn model_trajectory(ops: &[Op]) -> (Vec<(u64, Vec<String>)>, u64) {
    let storage = FaultyStorage::new();
    let (db, _) = open_wal(&storage);
    let mut states = Vec::with_capacity(ops.len());
    for op in ops {
        apply(&db, op);
        states.push((storage.units_written(), fingerprint(&db)));
    }
    let total = storage.units_written();
    (states, total)
}

/// Crash the workload at `kill`, recover, and check the oracle.
fn check_crash_at(ops: &[Op], states: &[(u64, Vec<String>)], kill: u64, sector_tear: bool) {
    let storage = FaultyStorage::new();
    storage.tear_to_sectors(sector_tear);
    storage.kill_at(kill);
    {
        let (db, _) = open_wal(&storage);
        for op in ops {
            apply(&db, op);
        }
    }
    let survivor = storage.surviving();
    let (recovered, report) = open_wal(&survivor);
    let got = fingerprint(&recovered);

    // committed(k): ops whose writes fully preceded the crash.
    let committed = states
        .iter()
        .take_while(|(units, _)| *units <= kill)
        .count();
    // No-op operations (rejected duplicates, missed updates/deletes)
    // repeat a fingerprint, so credit the *latest* matching state.
    let matched = states
        .iter()
        .rposition(|(_, fp)| *fp == got)
        .map(|j| j + 1)
        .or((got.is_empty()).then_some(0));
    let Some(j) = matched else {
        panic!(
            "kill at {kill}: recovered state matches no model state\n\
             got: {got:#?}\nreport: {report:?}"
        );
    };
    assert!(
        j >= committed,
        "kill at {kill}: recovered state {j} but {committed} op(s) were fully durable\n\
         report: {report:?}"
    );

    // Recovery must also be idempotent: reopening changes nothing.
    let (again, _) = open_wal(&survivor);
    assert_eq!(fingerprint(&again), got, "second recovery diverged");
}

fn fixed_workload() -> Vec<Op> {
    vec![
        Op::Insert { coll: 0, id: 1 },
        Op::InsertMany {
            coll: 1,
            ids: vec![10, 11, 12],
        },
        Op::InsertDup { coll: 0, id: 1 },
        Op::Update {
            coll: 1,
            id: 11,
            v: 99,
        },
        Op::RollupFold,
        Op::Checkpoint,
        Op::Insert { coll: 0, id: 2 },
        Op::Delete { coll: 1, id: 10 },
        Op::InsertMany {
            coll: 0,
            ids: vec![20, 21],
        },
        // Expires the folded row d11 (t = 5500 < 9000 - 3000): the
        // following checkpoint rewrites a slice that lost rows next to
        // collections it leaves alone.
        Op::RollupFold,
        Op::Expire { now: 9000 },
        Op::Checkpoint,
        Op::Drop { coll: 1 },
        Op::Checkpoint,
        Op::Insert { coll: 1, id: 30 },
        Op::RollupFold,
        // Empty `paths` row by row: its only slice loses every row, so
        // the last checkpoint removes a slice from a live collection
        // (the manifest stops naming it, cleanup deletes the file)
        // while writing the slices of the re-created `paths_stats`.
        Op::Delete { coll: 0, id: 1 },
        Op::Delete { coll: 0, id: 2 },
        Op::Delete { coll: 0, id: 20 },
        Op::Delete { coll: 0, id: 21 },
        Op::Checkpoint,
        Op::Insert { coll: 0, id: 40 },
    ]
}

/// The exhaustive matrix: every single unit offset of the fixed
/// workload, including every byte of four checkpoints' slice write /
/// manifest / cleanup windows and of the rollup-fold and retention
/// expiry commits between them.
#[test]
fn every_kill_offset_recovers_a_committed_prefix() {
    let ops = fixed_workload();
    let (states, total) = model_trajectory(&ops);
    assert!(total > 0);
    for kill in 0..=total {
        check_crash_at(&ops, &states, kill, false);
    }
}

/// Same matrix with sector-granularity tearing (torn appends rounded
/// down to 512-byte boundaries), on a sampled offset grid.
#[test]
fn sector_tearing_recovers_too() {
    let ops = fixed_workload();
    let (states, total) = model_trajectory(&ops);
    for i in 0..97 {
        check_crash_at(&ops, &states, i * total / 96, true);
    }
}

/// Transient write errors (EIO that goes away) must not lose anything:
/// the WAL retries and every op stays durable.
#[test]
fn transient_errors_lose_nothing() {
    let ops = fixed_workload();
    let (states, _) = model_trajectory(&ops);
    let storage = FaultyStorage::new();
    {
        let (db, _) = open_wal(&storage);
        for (i, op) in ops.iter().enumerate() {
            if i % 2 == 0 && !matches!(op, Op::Checkpoint) {
                storage.inject_transient_errors(1);
            }
            apply(&db, op);
        }
        db.wal_health()
            .expect("retries absorbed the transient errors");
    }
    let (recovered, _) = open_wal(&storage.surviving());
    assert_eq!(
        fingerprint(&recovered),
        states.last().unwrap().1,
        "a transient error must not drop a committed op"
    );
}

// ---- randomized workloads -------------------------------------------------

#[derive(Debug, Clone)]
enum OpSpec {
    Insert(u8),
    InsertDup(u8),
    InsertMany(u8, u8),
    Update(u8, u8, i64),
    Delete(u8, u8),
    Drop(u8),
    Checkpoint,
    Fold,
    /// Expiry at sim-clock `k·1000` ms (preceded by a fold, see
    /// [`Op::Expire`]).
    Expire(u8),
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    // (The vendored prop_oneof! is unweighted; bias by repetition.)
    prop_oneof![
        (0u8..2).prop_map(OpSpec::Insert),
        (0u8..2).prop_map(OpSpec::Insert),
        (0u8..2).prop_map(OpSpec::InsertDup),
        ((0u8..2), (2u8..5)).prop_map(|(c, n)| OpSpec::InsertMany(c, n)),
        ((0u8..2), (2u8..5)).prop_map(|(c, n)| OpSpec::InsertMany(c, n)),
        ((0u8..2), (0u8..8), -5i64..5).prop_map(|(c, t, v)| OpSpec::Update(c, t, v)),
        ((0u8..2), (0u8..8)).prop_map(|(c, t)| OpSpec::Delete(c, t)),
        (0u8..2).prop_map(OpSpec::Drop),
        Just(OpSpec::Checkpoint),
        Just(OpSpec::Fold),
        (1u8..12).prop_map(OpSpec::Expire),
    ]
}

/// Resolve specs into concrete ops with deterministic ids: inserts mint
/// fresh ids; updates/deletes target a previously-minted id (hit or
/// already-deleted miss, both interesting).
fn resolve(specs: &[OpSpec]) -> Vec<Op> {
    let mut next_id = 0u32;
    let mut minted: Vec<u32> = Vec::new();
    let mut mint = |minted: &mut Vec<u32>| {
        next_id += 1;
        minted.push(next_id);
        next_id
    };
    let mut ops = Vec::with_capacity(specs.len());
    for spec in specs {
        let op = match spec {
            OpSpec::Insert(c) => Op::Insert {
                coll: *c,
                id: mint(&mut minted),
            },
            OpSpec::InsertDup(c) => match minted.last() {
                Some(&id) => Op::InsertDup { coll: *c, id },
                None => Op::Insert {
                    coll: *c,
                    id: mint(&mut minted),
                },
            },
            OpSpec::InsertMany(c, n) => Op::InsertMany {
                coll: *c,
                ids: (0..*n).map(|_| mint(&mut minted)).collect(),
            },
            OpSpec::Update(c, t, v) => match minted.get(*t as usize % minted.len().max(1)) {
                Some(&id) => Op::Update {
                    coll: *c,
                    id,
                    v: *v,
                },
                None => Op::Checkpoint,
            },
            OpSpec::Delete(c, t) => match minted.get(*t as usize % minted.len().max(1)) {
                Some(&id) => Op::Delete { coll: *c, id },
                None => Op::Checkpoint,
            },
            OpSpec::Drop(c) => Op::Drop { coll: *c },
            OpSpec::Checkpoint => Op::Checkpoint,
            OpSpec::Fold => Op::RollupFold,
            OpSpec::Expire(k) => {
                // Fold first so the expiry op itself commits exactly one
                // WAL group (see [`Op::Expire`]).
                ops.push(Op::RollupFold);
                Op::Expire {
                    now: *k as i64 * 1000,
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// An `InsertDup` is only valid when the duplicated id is still live
/// (not deleted, not dropped with its collection); replace stale ones.
fn sanitize_dups(ops: Vec<Op>) -> Vec<Op> {
    use std::collections::HashSet;
    let mut live: [HashSet<u32>; 2] = [HashSet::new(), HashSet::new()];
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match &op {
            Op::Insert { coll, id } => {
                live[*coll as usize].insert(*id);
            }
            Op::InsertMany { coll, ids } => {
                live[*coll as usize].extend(ids.iter().copied());
            }
            Op::Delete { coll, id } => {
                live[*coll as usize].remove(id);
            }
            Op::Drop { coll } => live[*coll as usize].clear(),
            Op::Expire { now } => {
                // Retention removes paths_stats rows behind the window;
                // their ids are no longer valid duplicate targets.
                let cutoff = now - 3000;
                live[1].retain(|id| (*id as i64) * 500 >= cutoff);
            }
            Op::InsertDup { coll, id } => {
                if !live[*coll as usize].contains(id) {
                    out.push(Op::Checkpoint);
                    continue;
                }
            }
            Op::Update { .. } | Op::Checkpoint | Op::RollupFold => {}
        }
        out.push(op);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_workloads_recover_a_committed_prefix(
        specs in prop::collection::vec(arb_op(), 1..14),
        offset_fracs in prop::collection::vec(0u64..=1000, 6),
        sector_tear in any::<bool>(),
    ) {
        let ops = sanitize_dups(resolve(&specs));
        let (states, total) = model_trajectory(&ops);
        // Even a single op writes WAL bytes, so the span is never empty.
        prop_assert!(total > 0);
        for frac in offset_fracs {
            check_crash_at(&ops, &states, frac * total / 1000, sector_tear);
        }
    }
}

// ---- checkpoint files -----------------------------------------------------

/// One step of the checkpoint-file oracle: an [`Op`], or what only a
/// run that does not crash can do.
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    /// A `paths_stats` row with a time but no `v`: the fold that follows
    /// upserts its bucket's row unchanged.
    InsertBare {
        id: u32,
    },
    /// Delete the `n`-th live row in insertion order: `0` is the head of
    /// the first slice, and without earlier deletes `256` the head of
    /// the second.
    DeleteNth {
        coll: u8,
        n: usize,
    },
    /// A row that carries a `__seq` field (once the JSON slice files'
    /// reserved name), in the middle of the document or as its last
    /// field.
    InsertSeq {
        coll: u8,
        id: u32,
        last: bool,
    },
    /// A secondary index on `field` of collection `coll`.
    Index {
        coll: u8,
        field: &'static str,
    },
    /// Close the database and open it again: the WAL replays post-images
    /// over the slices.
    Reopen,
    /// A checkpoint the storage fails with a transient write error.
    FailedCheckpoint,
}

fn apply_step(db: &Database, step: &Step) {
    match step {
        Step::Op(op) => apply(db, op),
        Step::InsertBare { id } => {
            let t = (*id as i64 % 12) * 1000;
            let h = db.collection(coll_name(1));
            let _ = h
                .write()
                .insert_one(doc! { "_id" => format!("x{id}"), "t" => t });
        }
        Step::DeleteNth { coll, n } => {
            let h = db.collection(coll_name(*coll));
            let id = h
                .read()
                .iter()
                .nth(*n)
                .and_then(|d| d.get("_id").map(Value::from));
            if let Some(id) = id {
                h.write().delete_many(&Filter::eq("_id", id));
            }
        }
        Step::InsertSeq { coll, id, last } => {
            let row = if *last {
                doc! { "_id" => format!("s{id}"), "v" => *id as i64, "__seq" => 7i64 }
            } else {
                doc! { "_id" => format!("s{id}"), "__seq" => 7i64, "v" => *id as i64 }
            };
            let _ = db.collection(coll_name(*coll)).write().insert_one(row);
        }
        Step::Index { coll, field } => db.collection(coll_name(*coll)).write().create_index(field),
        Step::Reopen | Step::FailedCheckpoint => unreachable!("run_checkpoints runs these"),
    }
}

/// Every slice file `dir`'s manifest names, by `(collection, slice)`:
/// its bytes.
fn named_slices(storage: &FaultyStorage, dir: &Path) -> BTreeMap<(String, u64), Vec<u8>> {
    let text = storage.read(&dir.join("MANIFEST.json")).unwrap();
    let manifest: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&text).unwrap()).expect("the manifest is JSON");
    let column = |key: &str| manifest.get(key).unwrap().as_array().unwrap().clone();
    let mut files = BTreeMap::new();
    for (name, table) in column("collections").iter().zip(column("slices")) {
        let name = name.as_str().unwrap();
        let flat: Vec<u64> = table
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_i64().unwrap() as u64)
            .collect();
        for pair in flat.chunks(2) {
            let path = dir.join(format!("{name}.{}.{}.slice", pair[0], pair[1]));
            let bytes = storage.read(&path).expect("a named slice file exists");
            files.insert((name.to_string(), pair[0]), bytes);
        }
    }
    files
}

/// The manifest's index column of `dir`, by collection (none before
/// the first checkpoint).
fn named_indexes(storage: &FaultyStorage, dir: &Path) -> BTreeMap<String, Vec<String>> {
    let Ok(text) = storage.read(&dir.join("MANIFEST.json")) else {
        return BTreeMap::new();
    };
    let manifest: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&text).unwrap()).expect("the manifest is JSON");
    let column = |key: &str| manifest.get(key).unwrap().as_array().unwrap().clone();
    let strs = |v: &serde_json::Value| -> Vec<String> {
        let items = v.as_array().unwrap().iter();
        items.map(|s| s.as_str().unwrap().to_string()).collect()
    };
    let names = column("collections").into_iter();
    let names = names.map(|n| n.as_str().unwrap().to_string());
    names.zip(column("indexes").iter().map(strs)).collect()
}

/// Right after a reopen that replayed no log, each collection the
/// manifest names plans through exactly the indexes it records; and,
/// log or not, every read of an indexed field equals a scan.
fn indexed_reads_hold(storage: &FaultyStorage, db: &Database, replayed: bool) {
    for (name, fields) in named_indexes(storage, Path::new("/db")) {
        let handle = db.collection(&name);
        let coll = handle.read();
        for field in ["t", "v"] {
            let values: Vec<Value> = coll
                .iter()
                .filter_map(|d| d.get(field))
                .map(Value::from)
                .collect();
            for value in values.iter().take(3) {
                let probe = Filter::eq(field, value.clone());
                let scanned: Vec<_> = coll.iter().filter(|d| probe.matches(d)).collect();
                assert_eq!(coll.query(&probe).refs(), scanned, "{name}.{field}");
            }
            // A probe no row holds: an index answers it from no candidate.
            let plan = coll.query(Filter::eq(field, -1i64)).explain().access;
            if !replayed && !coll.is_empty() {
                let indexed = fields.iter().any(|f| f == field);
                assert_eq!(!plan.is_full_scan(), indexed, "{name}.{field}: {plan:?}");
            }
        }
    }
}

/// Run `steps` on one database, checking after every checkpoint that
/// the bound directory holds what a full save writes.
fn run_checkpoints(steps: &[Step]) {
    let storage = FaultyStorage::new();
    let mut db = open_wal(&storage).0;
    for (at, step) in steps.iter().enumerate() {
        match step {
            Step::Op(Op::Checkpoint) => {
                db.checkpoint().expect("a fault-free checkpoint commits");
                let fresh = PathBuf::from(format!("/fresh/{at}"));
                db.save_dir(&fresh).unwrap();
                let written = named_slices(&storage, Path::new("/db"));
                let full = named_slices(&storage, &fresh);
                assert_eq!(
                    named_indexes(&storage, Path::new("/db")),
                    named_indexes(&storage, &fresh),
                    "step {at}: the manifests name different indexes"
                );
                assert_eq!(
                    written.keys().collect::<Vec<_>>(),
                    full.keys().collect::<Vec<_>>(),
                    "step {at}: the manifests name different slices"
                );
                for (key, bytes) in &written {
                    assert!(
                        *bytes == full[key],
                        "step {at}: {key:?} differs from a full save"
                    );
                }
            }
            Step::Reopen => {
                drop(db);
                let report;
                (db, report) = open_wal(&storage);
                indexed_reads_hold(&storage, &db, report.wal_groups > 0);
            }
            Step::FailedCheckpoint => {
                storage.inject_transient_errors(1);
                assert!(db.checkpoint().is_err(), "step {at}: the checkpoint failed");
            }
            step => apply_step(&db, step),
        }
    }
}

/// What [`Step`] adds to the crash workloads' [`OpSpec`]s.
#[derive(Debug, Clone)]
enum Extra {
    /// A batch of `n` rows, enough to open another slice.
    Bulk(u8, u16),
    Bare,
    DeleteNth(u8, u8),
    Seq(u8, bool),
    Index(u8, bool),
    Reopen,
    FailedCheckpoint,
}

fn arb_extra() -> impl Strategy<Value = Extra> {
    prop_oneof![
        ((0u8..2), (100u16..400)).prop_map(|(c, n)| Extra::Bulk(c, n)),
        Just(Extra::Bare),
        ((0u8..2), (0u8..4)).prop_map(|(c, k)| Extra::DeleteNth(c, k)),
        ((0u8..2), any::<bool>()).prop_map(|(c, last)| Extra::Seq(c, last)),
        ((0u8..2), any::<bool>()).prop_map(|(c, t)| Extra::Index(c, t)),
        Just(Extra::Reopen),
        Just(Extra::FailedCheckpoint),
    ]
}

/// `specs` resolved as for the crash matrix (minus the duplicate
/// inserts, whose target an extra may have deleted), `extras` inserted
/// at their positions, and a closing checkpoint.
fn checkpoint_workload(specs: &[OpSpec], extras: &[(u16, Extra)]) -> Vec<Step> {
    let ops = resolve(specs).into_iter();
    let mut steps: Vec<Step> = ops
        .filter(|op| !matches!(op, Op::InsertDup { .. }))
        .map(Step::Op)
        .collect();
    for (k, (at, extra)) in extras.iter().enumerate() {
        // Ids far above the ones `resolve` mints.
        let id = 1000 * (k as u32 + 1);
        let step = match *extra {
            Extra::Bulk(coll, n) => Step::Op(Op::InsertMany {
                coll,
                ids: (id..id + n as u32).collect(),
            }),
            Extra::Bare => Step::InsertBare { id },
            Extra::DeleteNth(coll, k) => Step::DeleteNth {
                coll,
                n: [0, 1, 255, 256][k as usize],
            },
            Extra::Seq(coll, last) => Step::InsertSeq { coll, id, last },
            Extra::Index(coll, t) => Step::Index {
                coll,
                field: if t { "t" } else { "v" },
            },
            Extra::Reopen => Step::Reopen,
            Extra::FailedCheckpoint => Step::FailedCheckpoint,
        };
        steps.insert(*at as usize % (steps.len() + 1), step);
    }
    steps.push(Step::Op(Op::Checkpoint));
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn randomized_checkpoints_write_what_a_full_save_writes(
        specs in prop::collection::vec(arb_op(), 1..24),
        extras in prop::collection::vec((any::<u16>(), arb_extra()), 0..8),
    ) {
        run_checkpoints(&checkpoint_workload(&specs, &extras));
    }
}
