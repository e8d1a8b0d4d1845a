//! End-to-end crash injection: a measurement campaign killed
//! mid-destination loses at most the one in-flight destination batch —
//! the §4.2.2 fault-tolerance bound that motivates one bulk insertion
//! per destination ("a crash costs at most one in-flight sample per
//! path of one destination, never the balance of the dataset").
//!
//! The campaign runs on a WAL-durable database over a [`FaultyStorage`]
//! rigged to die at a chosen byte offset. Because the simulator and the
//! runner are deterministic for a fixed seed, the crashed run writes
//! byte-for-byte the same prefix as a fault-free reference run, so the
//! recovered state can be checked against the reference's
//! per-destination batch structure exactly.
//!
//! The second half pins the sliced checkpoint layout at the same
//! level: a checkpoint killed between two slice writes, a writer racing
//! checkpoints, a directory written before slices, and the cost of a
//! checkpoint against the amount of stored history.

use pathdb::database::OpenOptions;
use pathdb::snapshot::{parse_slice_path, slice_path, SLICE_ROWS};
use pathdb::wal::{encode_group, parse_wal_path, wal_path, WalOp};
use pathdb::{
    doc, Database, Document, Durability, FaultyStorage, Filter, RetentionPolicy, Storage, Update,
    Value,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use upin::scion_sim::net::ScionNetwork;
use upin::upin_core::collect::{collect_paths, register_available_servers};
use upin::upin_core::measure::run_tests;
use upin::upin_core::schema::{AVAILABLE_SERVERS, PATHS, PATHS_STATS};
use upin::upin_core::SuiteConfig;
use upin::upin_telemetry::Telemetry;

const SEED: u64 = 4711;

fn cfg() -> SuiteConfig {
    SuiteConfig {
        iterations: 2,
        ping_count: 2,
        run_bwtests: false,
        ..SuiteConfig::default()
    }
}

fn open(storage: &FaultyStorage) -> (Database, pathdb::RecoveryReport) {
    open_at("/campaign", storage, Durability::Wal)
}

fn open_at(
    dir: &str,
    storage: &FaultyStorage,
    durability: Durability,
) -> (Database, pathdb::RecoveryReport) {
    Database::open_durable_with(
        PathBuf::from(dir),
        OpenOptions::new(durability).with_storage(Arc::new(storage.clone())),
    )
    .expect("recovery from a torn store must not fail")
}

/// `paths_stats` ids in insertion order, paired with their server id.
fn stats_rows(db: &Database) -> Vec<(String, i64)> {
    let handle = db.collection(PATHS_STATS);
    let coll = handle.read();
    coll.iter()
        .map(|d| {
            (
                d.id().expect("stats docs carry _id").to_string(),
                d.get("server_id").and_then(|v| v.as_int()).unwrap(),
            )
        })
        .collect()
}

/// One full campaign script against `storage`. Returns the unit counter
/// after the post-collection checkpoint, plus the measurement outcome
/// (an `Err` when the storage died mid-campaign) and the database as it
/// stood in memory at that moment.
fn campaign(storage: &FaultyStorage) -> (u64, Result<(), String>, Database) {
    let net = ScionNetwork::scionlab(SEED);
    let (db, _) = open(storage);
    let config = cfg();
    let setup = register_available_servers(&db, &net)
        .map_err(|e| e.to_string())
        .and_then(|_| collect_paths(&db, &net, &config).map_err(|e| e.to_string()))
        .and_then(|_| db.checkpoint().map_err(|e| e.to_string()));
    if let Err(e) = setup {
        return (storage.units_written(), Err(e), db);
    }
    let after_checkpoint = storage.units_written();
    let outcome = run_tests(&db, &net, &config)
        .map(|_| ())
        .map_err(|e| e.to_string());
    (after_checkpoint, outcome, db)
}

/// Cumulative batch boundaries of the reference run: a new destination
/// batch starts whenever the server id changes (the runner commits one
/// `insert_many` per destination, in sorted destination order).
fn batch_boundaries(rows: &[(String, i64)]) -> Vec<usize> {
    let mut cuts = vec![0usize];
    for i in 1..rows.len() {
        if rows[i].1 != rows[i - 1].1 {
            cuts.push(i);
        }
    }
    cuts.push(rows.len());
    cuts
}

#[test]
fn killed_campaign_loses_at_most_one_destination_batch() {
    // Reference run, no faults.
    let reference = FaultyStorage::new();
    let (after_checkpoint, outcome, ref_db) = campaign(&reference);
    outcome.expect("fault-free campaign succeeds");
    let total = reference.units_written();
    assert!(after_checkpoint < total, "measurement writes WAL bytes");
    let ref_rows = stats_rows(&ref_db);
    let boundaries = batch_boundaries(&ref_rows);
    assert!(
        boundaries.len() > 4,
        "need several destination batches to make the bound meaningful"
    );
    let ref_paths = ref_db.collection(PATHS).read().len();
    let ref_servers = ref_db.collection(AVAILABLE_SERVERS).read().len();

    // The reference store itself recovers to the full dataset (WAL tail
    // after the checkpoint replays).
    let (full, report) = open(&reference.surviving());
    assert_eq!(stats_rows(&full), ref_rows);
    assert!(report.wal_groups > 0, "measurement batches live in the WAL");

    // Kill the campaign at offsets spread across the measurement phase.
    let span = total - after_checkpoint;
    let mut partial_recoveries = 0usize;
    for i in 1..=6u64 {
        let kill = after_checkpoint + i * span / 7;
        let storage = FaultyStorage::new();
        storage.kill_at(kill);
        let (_, outcome, crashed_db) = campaign(&storage);
        assert!(outcome.is_err(), "kill at {kill} must abort the campaign");
        let in_memory = stats_rows(&crashed_db);
        drop(crashed_db); // the process is gone; only bytes survive

        let (recovered, report) = open(&storage.surviving());
        let rows = stats_rows(&recovered);

        // Atomicity: the recovered stats are an exact batch-boundary
        // prefix of the reference run — never a torn destination batch.
        let n = rows.len();
        assert_eq!(rows, ref_rows[..n], "kill at {kill}: not a prefix");
        assert!(
            boundaries.contains(&n),
            "kill at {kill}: {n} docs is not a destination-batch boundary\nreport: {report:?}"
        );

        // Prefix durability (the §4.2.2 bound): every batch the crashed
        // process had successfully committed is recovered; only the
        // single in-flight batch (which never reached the database
        // either) is lost.
        assert_eq!(
            rows, in_memory,
            "kill at {kill}: recovery lost a committed batch"
        );

        // The checkpointed collection phase is never touched.
        assert_eq!(recovered.collection(PATHS).read().len(), ref_paths);
        assert_eq!(
            recovered.collection(AVAILABLE_SERVERS).read().len(),
            ref_servers
        );

        if n > 0 && n < ref_rows.len() {
            partial_recoveries += 1;
        }
    }
    assert!(
        partial_recoveries > 0,
        "sampled offsets never hit a mid-campaign state; widen the grid"
    );
}

#[test]
fn campaign_killed_during_collection_recovers_cleanly() {
    // Learn the collection phase's extent, then kill inside it.
    let reference = FaultyStorage::new();
    let (after_checkpoint, _, _) = campaign(&reference);

    let storage = FaultyStorage::new();
    storage.kill_at(after_checkpoint / 2);
    let (_, outcome, _) = campaign(&storage);
    assert!(outcome.is_err());

    // Whatever survived opens without error and is internally
    // consistent: stats can only exist for destinations that exist.
    let (db, _) = open(&storage.surviving());
    assert!(db.collection(PATHS_STATS).read().is_empty());
    let paths = db.collection(PATHS).read().len();
    let servers = db.collection(AVAILABLE_SERVERS).read().len();
    if paths > 0 {
        assert!(servers > 0, "paths without their servers");
    }
}

// ---- sliced checkpoints -----------------------------------------------------

/// Every document of every collection, rendered, in insertion order.
fn contents(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for name in db.collection_names() {
        let handle = db.collection(&name);
        let coll = handle.read();
        out.extend(coll.iter().map(|d| format!("{name}: {d}")));
    }
    out
}

#[test]
fn snapshot_checkpoint_killed_between_slice_writes_is_all_or_nothing() {
    // Under `durability=snapshot` no log backs the slices up: a
    // checkpoint that rewrote one slice of a collection and died before
    // the next must leave the *previous* checkpoint readable, whole.
    let dir = Path::new("/sliced");
    let rows = 3 * SLICE_ROWS as i64;
    let script = |storage: &FaultyStorage, kill: Option<u64>| -> (u64, Vec<String>, Vec<String>) {
        let (db, _) = open_at("/sliced", storage, Durability::Snapshot);
        let docs: Vec<Document> = (0..rows)
            .map(|i| doc! { "_id" => format!("r{i}"), "v" => i, "gen" => "old" })
            .collect();
        db.collection("c").write().insert_many(docs).unwrap();
        db.checkpoint().unwrap();
        let old = contents(&db);
        let before = storage.units_written();
        // Touch the first and the last slice; the middle one stays.
        let outer = Filter::lt("v", 5i64).or(Filter::gte("v", rows - 5));
        db.collection("c")
            .write()
            .update_many(&outer, &Update::new().set("gen", "new"));
        if let Some(k) = kill {
            storage.kill_at(before + k);
        }
        let _ = db.checkpoint();
        (before, old, contents(&db))
    };

    let reference = FaultyStorage::new();
    let (before, old, new) = script(&reference, None);
    assert_ne!(old, new);
    let span = reference.units_written() - before;
    let second = 2; // the generation of the second checkpoint
    let first_slice = reference.len(&slice_path(dir, "c", 0, second));
    assert!(first_slice > 0 && reference.len(&slice_path(dir, "c", 2, second)) > 0);
    assert!(
        !reference.exists(&slice_path(dir, "c", 1, second)),
        "the untouched slice is not rewritten"
    );

    // Exactly between the two slice writes: slice 0 fully renamed into
    // place, slice 2 not begun.
    let mut kills: Vec<u64> = vec![first_slice + 1];
    // A grid over the slice bytes, then every unit of the tail (manifest
    // write, commit rename, cleanup removes).
    kills.extend((0..span).step_by(211));
    kills.extend(span.saturating_sub(400)..=span);
    let (mut saw_old, mut saw_new) = (0, 0);
    for kill in kills {
        let storage = FaultyStorage::new();
        script(&storage, Some(kill));
        let survivor = storage.surviving();
        if kill == first_slice + 1 {
            assert!(survivor.exists(&slice_path(dir, "c", 0, second)));
            assert!(!survivor.exists(&slice_path(dir, "c", 2, second)));
        }
        let got = contents(&open_at("/sliced", &survivor, Durability::Snapshot).0);
        if got == old {
            saw_old += 1;
        } else {
            assert_eq!(got, new, "kill at +{kill}: a mix of two checkpoints");
            saw_new += 1;
            assert!(kill > first_slice + 1);
        }
    }
    assert!(saw_old > 0 && saw_new > 0, "{saw_old} old / {saw_new} new");
}

#[test]
fn writer_racing_checkpoints_loses_nothing() {
    // A writer commits while at least 200 checkpoints run. Every effect
    // must end up in a slice or stay marked dirty (and in the current
    // log): after the last checkpoint the slice files *alone* are the
    // model. The writer touches each slice at three separate moments
    // (filled by one batch, one row updated two batches later, one
    // deleted after two more) and never again, so a mark lost to a
    // checkpoint running at any of them is never papered over.
    const BATCHES: u64 = 300;
    let storage = FaultyStorage::new();
    let db = Arc::new(open_at("/race", &storage, Durability::Wal).0);
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            let handle = db.collection("c");
            let id = |slice: u64, row: u64| format!("r{}", slice * SLICE_ROWS + row);
            for b in 0..BATCHES {
                let batch = (0..SLICE_ROWS).map(|j| doc! { "_id" => id(b, j), "b" => b as i64 });
                handle.write().insert_many(batch.collect()).unwrap();
                if b >= 4 {
                    let touch = Update::new().set("touched", true);
                    handle
                        .write()
                        .update_many(&Filter::eq("_id", id(b - 2, 0)), &touch);
                    handle.write().delete_many(&Filter::eq("_id", id(b - 4, 1)));
                }
            }
        })
    };
    let mut checkpoints = 0;
    while checkpoints < 200 || !writer.is_finished() {
        db.checkpoint().unwrap();
        checkpoints += 1;
    }
    writer.join().expect("writer thread");
    db.wal_health().unwrap();
    let model = contents(&db);
    assert_eq!(model.len() as u64, BATCHES * SLICE_ROWS - (BATCHES - 4));

    // Crash now: slices plus the current log replay to the model.
    let (crashed, _) = open_at("/race", &storage.surviving(), Durability::Wal);
    assert_eq!(contents(&crashed), model);

    // One more checkpoint, then throw every log away: whatever a racing
    // checkpoint had taken from the dirty sets without writing would be
    // missing now.
    db.checkpoint().unwrap();
    let survivor = storage.surviving();
    for path in survivor.list(Path::new("/race")).unwrap() {
        if parse_wal_path(&path).is_some() {
            survivor.remove(&path).unwrap();
        }
    }
    let (from_slices, _) = open_at("/race", &survivor, Durability::Snapshot);
    assert_eq!(contents(&from_slices), model);
}

#[test]
fn format_2_directory_opens_and_is_upgraded_by_one_checkpoint() {
    // A directory as the generational checkpoints left it: one
    // `<name>.jsonl` per collection, `paths_stats` two generations
    // behind the head with its effects in retained WAL segments, a
    // stale segment the manifest no longer needs.
    let dir = Path::new("/fmt2");
    let storage = FaultyStorage::new();
    let put = |name: &str, text: &str| storage.append(&dir.join(name), text.as_bytes()).unwrap();
    put(
        "MANIFEST.json",
        "{\"format\":2,\"generation\":5,\"collections\":[\"paths\",\"paths_stats\"],\
         \"gens\":[5,3],\"seqs\":[2,4]}\n",
    );
    put(
        "paths.jsonl",
        "{\"_id\":\"p0\",\"hops\":3,\"__seq\":0}\n{\"_id\":\"p1\",\"hops\":5,\"__seq\":1}\n",
    );
    // Seq 2 was deleted before the file was written: a hole below the
    // allocator the manifest records.
    put(
        "paths_stats.jsonl",
        "{\"_id\":\"s0\",\"ms\":10.5,\"__seq\":0}\n{\"_id\":\"s1\",\"ms\":11.0,\"__seq\":1}\n\
         {\"_id\":\"s3\",\"ms\":13.0,\"__seq\":3}\n",
    );
    let log = |gen: u64, groups: &[Vec<WalOp>]| {
        for group in groups {
            storage
                .append(&wal_path(dir, gen), &encode_group(group))
                .unwrap();
        }
    };
    let stats = "paths_stats".to_string();
    log(
        2,
        &[vec![WalOp::Insert {
            coll: stats.clone(),
            doc: doc! { "_id" => "stale", "ms" => 0.0f64 },
        }]],
    );
    log(
        3,
        &[
            vec![WalOp::InsertMany {
                coll: stats.clone(),
                docs: vec![
                    doc! { "_id" => "s4", "ms" => 14.0f64 },
                    doc! { "_id" => "s5", "ms" => 15.0f64 },
                ],
            }],
            // Already inside `paths.jsonl` (generation 5): replays as a
            // no-op.
            vec![WalOp::Insert {
                coll: "paths".into(),
                doc: doc! { "_id" => "p1", "hops" => 5i64 },
            }],
        ],
    );
    log(
        4,
        &[
            vec![WalOp::Update {
                coll: stats.clone(),
                docs: vec![doc! { "_id" => "s1", "ms" => 99.0f64 }],
            }],
            vec![WalOp::Delete {
                coll: stats.clone(),
                ids: vec![Value::from("s0")],
            }],
        ],
    );
    log(
        5,
        &[vec![WalOp::Insert {
            coll: stats,
            doc: doc! { "_id" => "s6", "ms" => 16.0f64 },
        }]],
    );

    let answers = |db: &Database| {
        let handle = db.collection("paths_stats");
        let stats = handle.read();
        (
            contents(db),
            stats.query(Filter::gte("ms", 14.0f64)).count(),
            stats.find_by_id("s1").cloned(),
            stats.append_watermark(),
        )
    };
    let (db, report) = Database::open_durable_with(
        dir,
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.clone())),
    )
    .unwrap();
    assert_eq!(report.snapshot_docs, 5);
    assert_eq!(report.stale_wals_removed, 1);
    assert_eq!(report.wal_groups, 5);
    let before = answers(&db);
    assert_eq!(
        before.0,
        [
            "paths: {\"_id\":\"p0\",\"hops\":3}",
            "paths: {\"_id\":\"p1\",\"hops\":5}",
            "paths_stats: {\"_id\":\"s1\",\"ms\":99.0}",
            "paths_stats: {\"_id\":\"s3\",\"ms\":13.0}",
            "paths_stats: {\"_id\":\"s4\",\"ms\":14.0}",
            "paths_stats: {\"_id\":\"s5\",\"ms\":15.0}",
            "paths_stats: {\"_id\":\"s6\",\"ms\":16.0}",
        ]
    );
    assert_eq!((before.1, before.3), (4, 7));

    db.checkpoint().unwrap();
    let files = storage.list(dir).unwrap();
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        ["MANIFEST.json", "paths.0.6.slice", "paths_stats.0.6.slice"],
        "one checkpoint leaves only the new layout (and no log until the next write)"
    );
    assert_eq!(parse_slice_path(&files[2]), Some(("paths_stats", 0, 6)));
    let manifest = String::from_utf8(storage.read(&dir.join("MANIFEST.json")).unwrap()).unwrap();
    assert!(
        manifest.contains("\"format\":3") && manifest.contains("\"slices\""),
        "{manifest}"
    );

    drop(db);
    let (reopened, report) = Database::open_durable_with(
        dir,
        OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.surviving())),
    )
    .unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(answers(&reopened), before);
}

#[test]
fn checkpoint_cost_follows_the_change_not_the_history() {
    // The same round — append 100 rows, expire the 100 oldest — on a
    // small and on a 100x larger collection writes the same documents.
    let round_cost = |rows: u64| -> u64 {
        let tel = Arc::new(Telemetry::new());
        let (db, _) = Database::open_durable_with(
            PathBuf::from("/flat"),
            OpenOptions::new(Durability::Wal)
                .with_storage(Arc::new(FaultyStorage::new()))
                .with_recorder(tel.clone()),
        )
        .unwrap();
        db.set_retention(RetentionPolicy {
            collection: "stats".into(),
            time_field: "t".into(),
            keep_ms: rows as i64,
        });
        let row = |i: u64| doc! { "_id" => format!("r{i}"), "t" => i as i64 };
        {
            let handle = db.collection("stats");
            let mut stats = handle.write();
            stats.create_index("t");
            stats.insert_many((0..rows).map(row).collect()).unwrap();
        }
        db.checkpoint().unwrap();
        assert_eq!(tel.counter("pathdb.checkpoint.docs_written"), rows);

        db.collection("stats")
            .write()
            .insert_many((rows..rows + 100).map(row).collect())
            .unwrap();
        assert_eq!(db.expire_retention(rows as i64 + 100).unwrap(), 100);
        db.checkpoint().unwrap();
        assert_eq!(db.collection("stats").read().len() as u64, rows);
        tel.counter("pathdb.checkpoint.docs_written") - rows
    };
    // Whole slices, so both collections end on the same boundary.
    let small = round_cost(8 * SLICE_ROWS);
    let large = round_cost(800 * SLICE_ROWS);
    assert_eq!(small, large, "2 k rows vs 200 k rows");
    assert!((100..=4 * SLICE_ROWS).contains(&small), "{small}");
}
