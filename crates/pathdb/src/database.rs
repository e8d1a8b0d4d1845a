//! The database: named collections behind reader/writer locks, plus
//! crash-safe persistence.
//!
//! Concurrency model: the collection map is behind an outer `RwLock`;
//! each collection sits in its own `Arc<RwLock<Collection>>`, so
//! measurement writers on different collections (or readers on the same
//! one) do not contend — the scalability requirement of §4.1.1.
//!
//! Durability model (see [`crate::wal`] and [`crate::snapshot`]):
//!
//! * [`Durability::None`] — in-memory only; [`Database::save_dir`] is
//!   still available as an explicit (atomic) snapshot.
//! * [`Durability::Snapshot`] — state lives in immutable slice files
//!   (fixed ranges of each collection's insertion sequence), written
//!   atomically (temp file + fsync + rename) and committed together by
//!   an atomically-replaced `MANIFEST.json`; a checkpoint writes only
//!   the slices a mutation touched, and a crash mid-save leaves the
//!   previous checkpoint whole.
//! * [`Durability::Wal`] — every mutation additionally commits its
//!   effects to `wal.<generation>.log` as a CRC-framed group, so at
//!   most one uncommitted group (e.g. one destination's in-flight
//!   `insert_many` batch, §4.2.2) can be lost to a crash.
//!
//! [`Database::open_durable_with`] is the recovery path: it loads the latest
//! committed checkpoint (lenient about torn tails in directories that
//! predate slices), replays the intact WAL prefix in generation order,
//! truncates torn WAL tails, and reports
//! what it did in a [`RecoveryReport`] instead of failing.

use crate::collection::Collection;
use crate::error::{DbError, DbResult};
use crate::query::Filter;
use crate::rollup::{self, RollupConfig};
use crate::snapshot::{
    encode_jsonl_seq, parse_slice_path, read_manifest, read_rows, slice_path, take_seq,
    write_manifest, LoadOptions, Manifest, ManifestEntry, SkippedLines,
};
use crate::storage::{is_tmp, DiskStorage, Storage};
use crate::wal::{parse_wal_path, read_wal, Wal, WalOp, WalOpRef};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;
use upin_telemetry::Recorder;

/// A handle to a collection, cloneable across threads.
pub type CollectionHandle = Arc<RwLock<Collection>>;

/// How much a database opened with [`Database::open_durable_with`] promises
/// to survive. See the module docs for the protocol behind each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No implicit persistence.
    #[default]
    None,
    /// Atomic snapshots on [`Database::checkpoint`]/[`Database::save_dir`].
    Snapshot,
    /// Snapshots plus a write-ahead log of every mutation.
    Wal,
}

impl FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Durability, String> {
        match s {
            "none" => Ok(Durability::None),
            "snapshot" => Ok(Durability::Snapshot),
            "wal" => Ok(Durability::Wal),
            other => Err(format!(
                "unknown durability level {other:?} (none|snapshot|wal)"
            )),
        }
    }
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Durability::None => "none",
            Durability::Snapshot => "snapshot",
            Durability::Wal => "wal",
        })
    }
}

/// Knobs for [`Database::open_durable_with`].
pub struct OpenOptions {
    pub durability: Durability,
    /// Storage backend — [`DiskStorage`] in production,
    /// [`crate::storage::FaultyStorage`] in the crash tests.
    pub storage: Arc<dyn Storage>,
    /// Snapshot-loading behavior. Recovery defaults to lenient
    /// (`skip_corrupt_tail: true`): a torn file yields its intact
    /// prefix plus a report, never a failed open.
    pub load: LoadOptions,
    /// Telemetry recorder attached to the database (and every
    /// collection) from the first moment of recovery, so WAL replay
    /// and recovery timings are captured too. `None` = no-op.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl OpenOptions {
    pub fn new(durability: Durability) -> OpenOptions {
        OpenOptions {
            durability,
            storage: DiskStorage::shared(),
            load: LoadOptions {
                skip_corrupt_tail: true,
            },
            recorder: None,
        }
    }

    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> OpenOptions {
        self.storage = storage;
        self
    }

    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> OpenOptions {
        self.recorder = Some(recorder);
        self
    }
}

/// What [`Database::open_durable_with`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Collections materialized from snapshots.
    pub collections: usize,
    /// Documents loaded from snapshot files.
    pub snapshot_docs: usize,
    /// Committed WAL groups replayed on top of the snapshot.
    pub wal_groups: usize,
    /// Individual effects (documents upserted / ids deleted) replayed.
    pub wal_effects: usize,
    /// Bytes truncated from torn WAL tails.
    pub torn_wal_bytes: u64,
    /// Operation frames whose commit marker never landed — discarded,
    /// per the group-commit contract.
    pub dropped_uncommitted_ops: usize,
    /// Stale WAL files (older than the manifest generation) deleted.
    pub stale_wals_removed: usize,
    /// Lines dropped from torn snapshot files by the lenient loader.
    pub skipped: Vec<SkippedLines>,
}

impl RecoveryReport {
    /// Whether the open was a clean start (no replay, no repair).
    pub fn clean(&self) -> bool {
        self.wal_groups == 0
            && self.torn_wal_bytes == 0
            && self.dropped_uncommitted_ops == 0
            && self.skipped.is_empty()
    }

    /// One-line-per-finding human summary for CLI recovery banners.
    pub fn render(&self) -> String {
        let mut out = format!(
            "recovered {} collection(s), {} snapshot document(s)",
            self.collections, self.snapshot_docs
        );
        if self.wal_groups > 0 {
            out.push_str(&format!(
                "; replayed {} WAL group(s) ({} effect(s))",
                self.wal_groups, self.wal_effects
            ));
        }
        if self.torn_wal_bytes > 0 || self.dropped_uncommitted_ops > 0 {
            out.push_str(&format!(
                "; truncated {} torn WAL byte(s), dropped {} uncommitted op(s)",
                self.torn_wal_bytes, self.dropped_uncommitted_ops
            ));
        }
        for s in &self.skipped {
            out.push_str(&format!(
                "; {}: kept lines 1..{}, skipped {}",
                s.file,
                s.first_bad_line - 1,
                s.skipped
            ));
        }
        out
    }
}

/// Raw-row retention for one collection: rows whose numeric
/// `time_field` falls `keep_ms` behind the clock passed to
/// [`Database::expire_retention`] are deleted (via an index range scan
/// when the field is indexed). Rollup destinations are deliberately
/// never given a policy — aggregates are kept forever.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionPolicy {
    pub collection: String,
    pub time_field: String,
    pub keep_ms: i64,
}

/// An embedded multi-collection document database.
pub struct Database {
    collections: RwLock<HashMap<String, CollectionHandle>>,
    storage: Arc<dyn Storage>,
    /// The directory this database is durably bound to (none for plain
    /// in-memory databases).
    dir: Option<PathBuf>,
    durability: Durability,
    wal: Option<Arc<Wal>>,
    recorder: Option<Arc<dyn Recorder>>,
    /// What the bound directory's manifest names: per collection, the
    /// generation of each slice file. Held for the whole of a
    /// checkpoint, which serializes checkpoints against each other and
    /// against [`Database::drop_collection`].
    persisted: Mutex<HashMap<String, BTreeMap<u64, u64>>>,
    retention: Mutex<Vec<RetentionPolicy>>,
    rollups: Mutex<Vec<RollupConfig>>,
    /// Serializes rollup catch-ups: concurrent folds of the same config
    /// could double-count the overlap (see `crate::rollup`).
    rollup_gate: Mutex<()>,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            collections: RwLock::new(HashMap::new()),
            storage: DiskStorage::shared(),
            dir: None,
            durability: Durability::None,
            wal: None,
            recorder: None,
            persisted: Mutex::new(HashMap::new()),
            retention: Mutex::new(Vec::new()),
            rollups: Mutex::new(Vec::new()),
            rollup_gate: Mutex::new(()),
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Get (creating on first use) a collection by name.
    pub fn collection(&self, name: &str) -> CollectionHandle {
        if let Some(c) = self.collections.read().get(name) {
            return c.clone();
        }
        let mut map = self.collections.write();
        map.entry(name.to_string())
            .or_insert_with(|| {
                let mut c = Collection::new(name);
                c.set_wal(self.wal.clone());
                c.set_recorder(self.recorder.clone());
                Arc::new(RwLock::new(c))
            })
            .clone()
    }

    /// Pin an MVCC read snapshot of one collection (see
    /// `Collection::read_snapshot`): takes the collection's read lock
    /// only for the pin itself, then the caller queries the returned
    /// image lock-free.
    pub fn read_snapshot(&self, name: &str) -> Arc<Collection> {
        self.collection(name).read().read_snapshot()
    }

    /// Attach a telemetry recorder to this database and every existing
    /// collection; collections created later inherit it. Pass `None`
    /// to detach (back to the no-op recorder).
    pub fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        for handle in self.collections.read().values() {
            handle.write().set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// The recorder attached to this database (the shared no-op
    /// recorder when none is attached).
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.recorder.clone().unwrap_or_else(upin_telemetry::noop)
    }

    // ---- rollups, retention ----------------------------------------------

    /// Register an incremental rollup (see [`crate::rollup`]): the
    /// destination collection gets its bucket index, and subsequent
    /// [`Database::rollup_catch_up`] calls fold new source rows into
    /// it. Idempotent for an identical config.
    pub fn register_rollup(&self, cfg: RollupConfig) {
        rollup::prepare_dest(&mut self.collection(&cfg.dest).write());
        let mut rollups = self.rollups.lock();
        if !rollups.iter().any(|c| c == &cfg) {
            rollups.push(cfg);
        }
    }

    /// Fold every registered rollup forward to its source's append
    /// watermark. Serialized internally (concurrent catch-ups of one
    /// config could double-count). Returns total source rows folded.
    pub fn rollup_catch_up(&self) -> DbResult<u64> {
        let _gate = self.rollup_gate.lock();
        let cfgs = self.rollups.lock().clone();
        let mut folded = 0;
        for cfg in &cfgs {
            folded += rollup::catch_up(self, cfg)?;
        }
        Ok(folded)
    }

    /// Set (replacing any existing policy for the same collection) a
    /// raw-row retention window.
    pub fn set_retention(&self, policy: RetentionPolicy) {
        let mut retention = self.retention.lock();
        retention.retain(|p| p.collection != policy.collection);
        retention.push(policy);
        retention.sort_by(|a, b| a.collection.cmp(&b.collection));
    }

    /// Expire raw rows older than each policy's window relative to
    /// `now_ms` (the *simulation* clock, not wall time). Rollups are
    /// caught up first so no row can expire unfolded; the deletes then
    /// run through the query planner as index range scans wherever the
    /// time field is indexed. Returns how many rows were removed.
    pub fn expire_retention(&self, now_ms: i64) -> DbResult<u64> {
        self.rollup_catch_up()?;
        let policies = self.retention.lock().clone();
        let mut removed = 0u64;
        for p in &policies {
            let cutoff = now_ms.saturating_sub(p.keep_ms);
            removed += self
                .collection(&p.collection)
                .write()
                .delete_many(&Filter::lt(&p.time_field, cutoff)) as u64;
        }
        if removed > 0 {
            self.recorder()
                .add("pathdb.retention.expired_rows", removed);
        }
        Ok(removed)
    }

    /// Whether a collection exists (has been created).
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Drop a collection entirely. Returns whether it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        let existed = self.forget(name);
        if existed {
            if let Some(wal) = &self.wal {
                // Already removed in memory; a log failure poisons the
                // WAL rather than resurrecting the collection.
                let _ = wal.commit_ref(&[WalOpRef::Drop { coll: name }]);
            }
        }
        existed
    }

    /// Remove a collection from memory together with the record of its
    /// slice files, so a collection re-created under the name starts
    /// from no slices. Waits for a checkpoint in flight.
    fn forget(&self, name: &str) -> bool {
        let mut persisted = self.persisted.lock();
        persisted.remove(name);
        self.collections.write().remove(name).is_some()
    }

    /// Total documents across all collections.
    pub fn total_documents(&self) -> usize {
        self.collections
            .read()
            .values()
            .map(|c| c.read().len())
            .sum()
    }

    /// On-storage footprint of the bound directory as `(files, bytes)`
    /// over slice files, WAL segments and the manifest. `None` for
    /// databases not durably bound to a directory. Longitudinal runs
    /// report this to pin the steady-state disk bound.
    pub fn disk_usage(&self) -> Option<(usize, u64)> {
        let dir = self.dir.as_deref()?;
        let files = self.storage.list(dir).ok()?;
        let bytes = files.iter().map(|p| self.storage.len(p)).sum();
        Some((files.len(), bytes))
    }

    // ---- durability ------------------------------------------------------

    /// `Err` once a WAL append has been lost (durability degraded until
    /// the next successful [`Database::checkpoint`]); `Ok` otherwise.
    pub fn wal_health(&self) -> DbResult<()> {
        match &self.wal {
            Some(wal) => wal.health(),
            None => Ok(()),
        }
    }

    /// Open (creating if needed) a durable database in `dir`,
    /// recovering whatever a previous process — cleanly exited or
    /// crashed mid-write — left behind. `opts` carries the durability
    /// level, the loader options and the storage backend (the
    /// crash-injection tests inject theirs).
    pub fn open_durable_with<P: AsRef<Path>>(
        dir: P,
        opts: OpenOptions,
    ) -> DbResult<(Database, RecoveryReport)> {
        let dir = dir.as_ref();
        let started = Instant::now();
        let storage = opts.storage;
        storage.create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // 1. Load the last committed checkpoint. The database has no
        //    WAL attached yet, so nothing loaded here is re-logged.
        let db = Database {
            storage: storage.clone(),
            dir: Some(dir.to_path_buf()),
            durability: opts.durability,
            recorder: opts.recorder.clone(),
            ..Database::default()
        };
        let manifest = db.load_checkpoint(&*storage, dir, &opts.load, &mut report)?;

        // 2. Replay surviving WAL generations, oldest first, deleting
        //    the logs the checkpoint already covers. Replay is
        //    idempotent and op-ordered, so a log that partially
        //    predates the checkpoint (a crash between manifest write
        //    and log deletion, or a format-2 directory's lagging
        //    collections) converges all the same — and marks what it
        //    touches dirty for the next checkpoint.
        let mut wal_files: Vec<(u64, PathBuf)> = storage
            .list(dir)?
            .into_iter()
            .filter_map(|p| parse_wal_path(&p).map(|g| (g, p)))
            .collect();
        wal_files.sort();
        let mut max_gen = manifest.generation;
        for (gen, path) in wal_files {
            if gen < manifest.replay_from {
                storage.remove(&path)?;
                report.stale_wals_removed += 1;
                continue;
            }
            max_gen = max_gen.max(gen);
            let bytes = storage.read(&path)?;
            let replay = read_wal(&bytes, |group| {
                for op in group {
                    report.wal_effects += op.effect_count();
                    db.apply_wal_op(op);
                }
            });
            report.wal_groups += replay.groups;
            report.torn_wal_bytes += replay.torn_bytes;
            report.dropped_uncommitted_ops += replay.dropped_uncommitted_ops;
            if replay.torn_bytes > 0 {
                // Repair the torn tail so future appends extend a
                // well-formed frame stream.
                storage.truncate(&path, replay.valid_len)?;
            }
        }

        // 3. Attach the WAL (continuing the newest generation) so that
        //    subsequent mutations are logged.
        let mut db = db;
        if opts.durability == Durability::Wal {
            let wal = Arc::new(Wal::new(storage, dir.to_path_buf(), max_gen));
            db.wal = Some(wal.clone());
            for handle in db.collections.read().values() {
                handle.write().set_wal(Some(wal.clone()));
            }
        }
        let rec = db.recorder();
        rec.observe(
            "wall.pathdb.recovery_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        rec.add("pathdb.recovery.opens", 1);
        rec.add(
            "pathdb.recovery.wal_groups_replayed",
            report.wal_groups as u64,
        );
        rec.add("pathdb.recovery.snapshot_docs", report.snapshot_docs as u64);
        Ok((db, report))
    }

    /// Materialize the checkpoint `dir` holds — the one reader behind
    /// [`Database::open_durable_with`] and [`Database::load_dir`]. The
    /// roster is the manifest when present, else every `*.jsonl` in the
    /// directory (the layout before manifests).
    fn load_checkpoint(
        &self,
        storage: &dyn Storage,
        dir: &Path,
        opts: &LoadOptions,
        report: &mut RecoveryReport,
    ) -> DbResult<Manifest> {
        let manifest = match read_manifest(storage, dir)? {
            Some(m) => m,
            None => {
                let mut names: Vec<String> = storage
                    .list(dir)?
                    .iter()
                    .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
                    .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(String::from))
                    .collect();
                names.sort();
                Manifest::legacy_roster(names)
            }
        };
        for entry in &manifest.collections {
            let (docs, skipped) = read_rows(storage, dir, manifest.legacy, entry, opts)?;
            let handle = self.collection(&entry.name);
            let mut coll = handle.write();
            report.collections += 1;
            report.snapshot_docs += docs.len();
            report.skipped.extend(skipped);
            for mut doc in docs {
                // Restore each row at its persisted sequence so
                // absolute watermarks survive recovery (and the row
                // stays in its slice); legacy rows without one
                // renumber compactly.
                match take_seq(&mut doc) {
                    Some(seq) => coll.apply_upsert_at(seq, doc),
                    None => coll.apply_upsert(doc),
                }
            }
            // Even with a deleted tail (or every row gone) the
            // allocator resumes where the crashed process stopped.
            coll.set_next_seq_at_least(entry.next_seq);
            if !manifest.legacy {
                // Memory now equals the slice files. Rows of a legacy
                // directory stay dirty instead: the first checkpoint
                // rewrites all of them as slices.
                coll.take_dirty();
                self.persisted
                    .lock()
                    .insert(entry.name.clone(), entry.slices.clone());
            }
        }
        Ok(manifest)
    }

    /// Apply one replayed WAL effect. Bypasses logging (the effect is
    /// already in the log) and tolerates repetition.
    fn apply_wal_op(&self, op: WalOp) {
        match op {
            WalOp::Insert { coll, doc } => {
                self.collection(&coll).write().apply_upsert(doc);
            }
            WalOp::InsertMany { coll, docs } | WalOp::Update { coll, docs } => {
                let handle = self.collection(&coll);
                let mut c = handle.write();
                for doc in docs {
                    c.apply_upsert(doc);
                }
            }
            WalOp::Delete { coll, ids } => {
                self.collection(&coll).write().apply_delete_ids(&ids);
            }
            WalOp::Drop { coll } => {
                self.forget(&coll);
            }
        }
    }

    /// Make the current state durable in the bound directory and
    /// supersede the WAL: rotate to a fresh generation, write the
    /// slices mutations touched since the last checkpoint, commit them
    /// with the manifest, then delete the files it no longer names and
    /// the obsolete logs. The cost follows what changed, not what is
    /// stored.
    ///
    /// Requires a directory — open the database with
    /// [`Database::open_durable_with`] (any level) first.
    pub fn checkpoint(&self) -> DbResult<()> {
        let Some(dir) = self.dir.clone() else {
            return Err(DbError::Durability(
                "checkpoint requires a database opened with open_durable".into(),
            ));
        };
        self.snapshot_to(&dir)
    }

    /// [`Database::checkpoint`] when the database was opened durably;
    /// a no-op (returning `false`) for plain in-memory databases. The
    /// scheduler calls this between measurement rounds.
    pub fn checkpoint_if_durable(&self) -> DbResult<bool> {
        if self.dir.is_none() || self.durability == Durability::None {
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    // ---- persistence -----------------------------------------------------

    /// Persist every collection into `dir` in the checkpoint layout
    /// (slice files of one document per line, committed by an
    /// atomically-replaced `MANIFEST.json`; see [`crate::snapshot`]).
    /// On the directory this database is bound to this is a
    /// [`Database::checkpoint`]; any other directory gets a complete
    /// copy.
    pub fn save_dir<P: AsRef<Path>>(&self, dir: P) -> DbResult<()> {
        self.snapshot_to(dir.as_ref())
    }

    fn snapshot_to(&self, dir: &Path) -> DbResult<()> {
        let started = Instant::now();
        self.storage.create_dir_all(dir)?;
        // Only the *bound* directory holds the slice files `persisted`
        // describes, so only there can a checkpoint write just the
        // dirty slices (and consume the dirty sets); a foreign dir gets
        // every slice.
        let bound = self.dir.as_deref() == Some(dir);
        let mut persisted = self.persisted.lock();
        // Strictly above the manifest, the live WAL, *and* every WAL
        // file on disk: after a crash between a rotate and its manifest
        // the WAL generation runs ahead, and under `durability=snapshot`
        // there is no live WAL at all — yet stale logs from an earlier
        // durable open may still sit in the directory. Rotating merely
        // to manifest+1 would leave such logs alive past the cleanup
        // below, replayed (albeit idempotently) on every future open
        // and never truncated — unbounded WAL growth.
        let manifest_gen = read_manifest(&*self.storage, dir)?.map_or(0, |m| m.generation);
        let wal_gen = self.wal.as_ref().map_or(0, |w| w.generation());
        let disk_wal_gen = self
            .storage
            .list(dir)?
            .iter()
            .filter_map(|p| parse_wal_path(p))
            .max()
            .unwrap_or(0);
        let generation = manifest_gen.max(wal_gen).max(disk_wal_gen).wrapping_add(1);
        if let (true, Some(wal)) = (bound, &self.wal) {
            // Writers race the checkpoint below; their groups land in
            // the *new* generation's log, which survives the cleanup
            // and replays idempotently over the slices.
            wal.rotate(generation);
        }
        let mut taken: Vec<(CollectionHandle, Vec<u64>)> = Vec::new();
        let (mut rewritten, mut clean, mut docs_written) = (0u64, 0u64, 0u64);
        let committed = (|| {
            let mut collections = Vec::new();
            for name in self.collection_names() {
                let handle = self.collection(&name);
                // One lock hold takes the dirty set and encodes its
                // slices: no writer can slip between the two, so every
                // effect is either in these bytes or still marked dirty.
                let coll = handle.read();
                let dirty = if bound {
                    coll.take_dirty()
                } else {
                    coll.live_slices()
                };
                let files: Vec<(u64, Vec<u8>)> = dirty
                    .iter()
                    .map(|&slice| {
                        let rows = coll.slice_rows(slice).inspect(|_| docs_written += 1);
                        (slice, encode_jsonl_seq(rows))
                    })
                    .collect();
                let next_seq = coll.append_watermark();
                drop(coll);
                let mut slices = BTreeMap::new();
                if bound {
                    taken.push((handle, dirty));
                    slices = persisted.get(&name).cloned().unwrap_or_default();
                }
                if files.iter().any(|(_, bytes)| !bytes.is_empty()) {
                    rewritten += 1;
                } else {
                    clean += 1;
                }
                for (slice, bytes) in files {
                    if bytes.is_empty() {
                        // Every row of the slice is gone.
                        slices.remove(&slice);
                        continue;
                    }
                    let path = slice_path(dir, &name, slice, generation);
                    self.storage.atomic_write(&path, &bytes)?;
                    slices.insert(slice, generation);
                }
                collections.push(ManifestEntry {
                    name,
                    next_seq,
                    slices,
                });
            }
            let manifest = Manifest {
                generation,
                collections,
                legacy: false,
                replay_from: generation,
            };
            // The manifest rename is the checkpoint's commit point.
            write_manifest(&*self.storage, dir, &manifest)?;
            Ok(manifest)
        })();
        let manifest: Manifest = match committed {
            Ok(manifest) => manifest,
            Err(e) => {
                // Nothing was committed: the slices are still stale.
                for (handle, dirty) in taken {
                    handle.read().mark_dirty(dirty);
                }
                return Err(e);
            }
        };
        let named: HashMap<String, BTreeMap<u64, u64>> = manifest
            .collections
            .into_iter()
            .map(|e| (e.name, e.slices))
            .collect();
        // Cleanup phase — everything after the commit point is
        // best-effort garbage collection a crash may skip: slice files
        // the manifest does not name (superseded, emptied, of dropped
        // collections, or left by a crashed checkpoint), legacy
        // per-collection files, superseded WAL generations, and temp
        // files left by interrupted atomic writes.
        for path in self.storage.list(dir).unwrap_or_default() {
            let garbage = match path.extension().and_then(|e| e.to_str()) {
                Some("slice") => !parse_slice_path(&path).is_some_and(|(name, slice, gen)| {
                    named.get(name).and_then(|slices| slices.get(&slice)) == Some(&gen)
                }),
                Some("jsonl") => true,
                _ => is_tmp(&path) || parse_wal_path(&path).is_some_and(|g| g < generation),
            };
            if garbage {
                let _ = self.storage.remove(&path);
            }
        }
        if bound {
            *persisted = named;
        }
        let rec = self.recorder();
        rec.observe(
            "wall.pathdb.checkpoint_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        rec.add("pathdb.checkpoints", 1);
        rec.add("pathdb.checkpoint.rewritten", rewritten);
        rec.add("pathdb.checkpoint.clean", clean);
        rec.add("pathdb.checkpoint.docs_written", docs_written);
        Ok(())
    }

    /// Load all collections persisted in `dir` (strictly — any
    /// undecodable line fails the load; see
    /// `Database::load_dir_with` for the lenient variant). Honors the
    /// manifest when one exists, so files it does not name are
    /// ignored; directories without a manifest load every `*.jsonl`.
    /// Purely reads `dir` — crash *repair* (WAL replay, tail
    /// truncation) is [`Database::open_durable_with`]'s job.
    pub fn load_dir<P: AsRef<Path>>(dir: P) -> DbResult<Database> {
        Database::load_dir_with(dir, &LoadOptions::default()).map(|(db, _)| db)
    }

    /// [`Database::load_dir`] with loader options. With
    /// `skip_corrupt_tail` the intact prefix of each torn file is kept
    /// and the dropped lines are reported instead of failing.
    fn load_dir_with<P: AsRef<Path>>(
        dir: P,
        opts: &LoadOptions,
    ) -> DbResult<(Database, Vec<SkippedLines>)> {
        let db = Database::new();
        let mut report = RecoveryReport::default();
        db.load_checkpoint(&DiskStorage, dir.as_ref(), opts, &mut report)?;
        Ok((db, report.skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::query::Filter;
    use crate::snapshot::SLICE_ROWS;
    use crate::storage::FaultyStorage;
    use crate::update::Update;
    use crate::value::Value;
    use crate::wal::wal_path;
    use std::fs;

    #[test]
    fn collections_are_created_on_demand() {
        let db = Database::new();
        assert!(!db.has_collection("paths"));
        db.collection("paths")
            .write()
            .insert_one(doc! { "x" => 1i64 })
            .unwrap();
        assert!(db.has_collection("paths"));
        assert_eq!(db.collection_names(), vec!["paths"]);
        assert_eq!(db.total_documents(), 1);
    }

    #[test]
    fn same_name_returns_same_collection() {
        let db = Database::new();
        db.collection("c")
            .write()
            .insert_one(doc! { "a" => 1i64 })
            .unwrap();
        assert_eq!(db.collection("c").read().len(), 1);
    }

    #[test]
    fn drop_collection_removes_data() {
        let db = Database::new();
        db.collection("c")
            .write()
            .insert_one(doc! { "a" => 1i64 })
            .unwrap();
        assert!(db.drop_collection("c"));
        assert!(!db.drop_collection("c"));
        assert_eq!(db.collection("c").read().len(), 0);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pathdb-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let db = Database::new();
        {
            let h = db.collection("availableServers");
            let mut c = h.write();
            c.insert_one(doc! { "_id" => "1", "address" => "16-ffaa:0:1002,[172.31.43.7]" })
                .unwrap();
            c.insert_one(doc! { "_id" => "2", "address" => "19-ffaa:0:1303,[141.44.25.144]" })
                .unwrap();
        }
        {
            let h = db.collection("paths_stats");
            h.write()
                .insert_one(doc! {
                    "_id" => "2_15_1699000000",
                    "avg_latency_ms" => 155.25f64,
                    "isds" => vec![16i64, 17, 19],
                    "ok" => true,
                    "note" => Value::Null,
                })
                .unwrap();
        }
        db.save_dir(&dir).unwrap();

        let loaded = Database::load_dir(&dir).unwrap();
        assert_eq!(
            loaded.collection_names(),
            vec!["availableServers", "paths_stats"]
        );
        assert_eq!(loaded.collection("availableServers").read().len(), 2);
        let h = loaded.collection("paths_stats");
        let c = h.read();
        let d = c
            .query(Filter::eq("_id", "2_15_1699000000"))
            .first()
            .unwrap();
        assert_eq!(d.get("avg_latency_ms"), Some(&Value::Float(155.25)));
        assert_eq!(
            d.get("isds"),
            Some(&Value::Array(vec![
                16i64.into(),
                17i64.into(),
                19i64.into()
            ]))
        );
        assert_eq!(d.get("note"), Some(&Value::Null));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_report_renders_every_finding() {
        let report = RecoveryReport {
            collections: 3,
            snapshot_docs: 120,
            wal_groups: 2,
            wal_effects: 9,
            torn_wal_bytes: 17,
            dropped_uncommitted_ops: 1,
            stale_wals_removed: 0,
            skipped: vec![SkippedLines {
                file: "paths.jsonl".into(),
                first_bad_line: 40,
                skipped: 3,
            }],
        };
        assert!(!report.clean());
        assert_eq!(
            report.render(),
            "recovered 3 collection(s), 120 snapshot document(s); \
             replayed 2 WAL group(s) (9 effect(s)); \
             truncated 17 torn WAL byte(s), dropped 1 uncommitted op(s); \
             paths.jsonl: kept lines 1..39, skipped 3"
        );
        let clean = RecoveryReport::default();
        assert!(clean.clean());
        assert_eq!(
            clean.render(),
            "recovered 0 collection(s), 0 snapshot document(s)"
        );
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("pathdb-garbage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("bad.jsonl"), "{not json\n").unwrap();
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Parse(_))));
        fs::write(dir.join("bad.jsonl"), "[1,2,3]\n").unwrap();
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Parse(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_load_keeps_intact_prefix() {
        let dir = std::env::temp_dir().join(format!("pathdb-lenient-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A torn tail: the last line was cut mid-write.
        fs::write(
            dir.join("stats.jsonl"),
            "{\"_id\":\"a\",\"v\":1}\n{\"_id\":\"b\",\"v\":2}\n{\"_id\":\"c\",\"v",
        )
        .unwrap();
        assert!(Database::load_dir(&dir).is_err());
        let (db, skipped) = Database::load_dir_with(
            &dir,
            &LoadOptions {
                skip_corrupt_tail: true,
            },
        )
        .unwrap();
        assert_eq!(db.collection("stats").read().len(), 2);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].first_bad_line, 3);
        assert_eq!(skipped[0].skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_retires_dropped_collections() {
        let dir = std::env::temp_dir().join(format!("pathdb-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let db = Database::new();
        db.collection("keep")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        db.collection("gone")
            .write()
            .insert_one(doc! { "_id" => "2" })
            .unwrap();
        db.save_dir(&dir).unwrap();
        assert!(slice_path(&dir, "gone", 0, 1).exists());

        db.drop_collection("gone");
        db.save_dir(&dir).unwrap();
        // The stale slice file is deleted and the manifest no longer
        // lists it; even if deletion were skipped by a crash, load
        // honors the manifest.
        let left = DiskStorage.list(&dir).unwrap();
        assert!(
            !left.iter().any(|p| p.to_string_lossy().contains("gone")),
            "{left:?}"
        );
        let loaded = Database::load_dir(&dir).unwrap();
        assert_eq!(loaded.collection_names(), vec!["keep"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_is_atomic_under_crash() {
        // A crash anywhere during a second save leaves either the old
        // or the new snapshot readable — never a mix, never garbage.
        let dir = PathBuf::from("/db");
        let run = |kill_at: Option<u64>| -> (FaultyStorage, bool) {
            let storage = Arc::new(FaultyStorage::new());
            let (db, _) = Database::open_durable_with(
                &dir,
                OpenOptions::new(Durability::Snapshot).with_storage(storage.clone()),
            )
            .unwrap();
            db.collection("c")
                .write()
                .insert_one(doc! { "_id" => "old", "v" => 1i64 })
                .unwrap();
            db.checkpoint().unwrap();
            db.collection("c")
                .write()
                .insert_one(doc! { "_id" => "new", "v" => 2i64 })
                .unwrap();
            if let Some(k) = kill_at {
                storage.kill_at(k);
            }
            let ok = db.checkpoint().is_ok();
            ((*storage).clone(), ok)
        };
        // Fault-free baseline to learn the unit span of the second save.
        let (storage, ok) = run(None);
        assert!(ok);
        let total = storage.units_written();
        for kill in 0..=total {
            let (storage, _) = run(Some(kill));
            let (db, _) = Database::open_durable_with(
                &dir,
                OpenOptions::new(Durability::Snapshot).with_storage(Arc::new(storage.surviving())),
            )
            .unwrap();
            let n = db.collection("c").read().len();
            let has_old = db.collection("c").read().find_by_id("old").is_some();
            assert!(
                (n == 1 && has_old) || n == 2,
                "kill at {kill}/{total}: saw {n} docs (old present: {has_old})"
            );
        }
    }

    #[test]
    fn wal_survives_without_checkpoint() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        {
            let (db, report) = Database::open_durable_with(
                &dir,
                OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
            )
            .unwrap();
            assert!(report.clean());
            let h = db.collection("stats");
            h.write()
                .insert_many(vec![
                    doc! { "_id" => "a", "v" => 1i64 },
                    doc! { "_id" => "b", "v" => 2i64 },
                ])
                .unwrap();
            h.write().insert_one(doc! { "_id" => "c" }).unwrap();
            h.write().delete_many(&Filter::eq("_id", "a"));
            // No checkpoint, no save: the process "crashes" here.
        }
        let (db, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        assert_eq!(report.wal_groups, 3);
        let h = db.collection("stats");
        assert_eq!(h.read().len(), 2);
        assert!(h.read().find_by_id("a").is_none());
        assert!(h.read().find_by_id("b").is_some());
        assert!(h.read().find_by_id("c").is_some());
    }

    #[test]
    fn checkpoint_truncates_the_log_and_recovery_converges() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        assert!(storage.len(&wal_path(&dir, 0)) > 0);
        db.checkpoint().unwrap();
        // The old generation's log is gone; the new one is empty.
        assert!(!storage.exists(&wal_path(&dir, 0)));
        assert_eq!(storage.len(&wal_path(&dir, 1)), 0);
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "2" })
            .unwrap();
        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        assert_eq!(report.wal_groups, 1, "only the post-checkpoint group");
        assert_eq!(db2.collection("c").read().len(), 2);
    }

    #[test]
    fn checkpoint_rotates_past_a_runaway_wal_generation() {
        // Crash window: a rotate landed (WAL generation ran ahead) but
        // its manifest never did. The next checkpoint must rotate
        // strictly above the live log, or the old log survives cleanup
        // and replays on every future open.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        drop(db);
        // Simulate the stranded rotation: the same bytes under a far
        // higher generation, manifest still absent.
        let bytes = storage.read(&wal_path(&dir, 0)).unwrap();
        storage.remove(&wal_path(&dir, 0)).unwrap();
        storage.append(&wal_path(&dir, 7), &bytes).unwrap();

        let (db, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        assert_eq!(report.wal_groups, 1);
        db.checkpoint().unwrap();
        assert!(!storage.exists(&wal_path(&dir, 7)), "old log truncated");

        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage),
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(db2.collection("c").read().len(), 1);
    }

    #[test]
    fn checkpoint_requires_a_durable_database() {
        let db = Database::new();
        assert!(matches!(db.checkpoint(), Err(DbError::Durability(_))));
        assert!(!db.checkpoint_if_durable().unwrap());
        assert_eq!(db.durability, Durability::None);
        db.wal_health().unwrap();
    }

    #[test]
    fn dropped_collection_stays_dropped_after_recovery() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        db.collection("tmp")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        db.checkpoint().unwrap();
        db.drop_collection("tmp");
        let (db2, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        assert!(!db2.has_collection("tmp"), "drop was logged and replayed");
    }

    #[test]
    fn concurrent_writers_do_not_lose_documents() {
        let db = std::sync::Arc::new(Database::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let h = db.collection("stats");
                for i in 0..100 {
                    h.write()
                        .insert_one(doc! { "_id" => format!("{t}_{i}"), "t" => t as i64 })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.collection("stats").read().len(), 800);
    }

    #[test]
    fn wal_writers_all_recover_across_threads() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        let db = Arc::new(db);
        let mut threads = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            threads.push(std::thread::spawn(move || {
                let h = db.collection("stats");
                for i in 0..50 {
                    h.write()
                        .insert_one(doc! { "_id" => format!("{t}_{i}") })
                        .unwrap();
                }
            }));
        }
        for th in threads {
            th.join().unwrap();
        }
        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        assert_eq!(report.wal_groups, 200);
        assert_eq!(db2.collection("stats").read().len(), 200);
    }

    #[test]
    fn snapshot_durability_truncates_runaway_wals_eagerly() {
        // Regression: a crash window can leave a WAL generation far
        // ahead of the manifest. Reopened with `durability=snapshot`
        // there is no live WAL, and the old checkpoint computed its
        // generation without looking at disk — the runaway log survived
        // every cleanup, resurrecting deleted rows on each open and
        // growing the directory forever.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        {
            let (db, _) = Database::open_durable_with(
                &dir,
                OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
            )
            .unwrap();
            db.collection("c")
                .write()
                .insert_many(vec![doc! { "_id" => "keep" }, doc! { "_id" => "stale" }])
                .unwrap();
        }
        // Strand the log at a far higher generation, manifest absent.
        let bytes = storage.read(&wal_path(&dir, 0)).unwrap();
        storage.remove(&wal_path(&dir, 0)).unwrap();
        storage.append(&wal_path(&dir, 7), &bytes).unwrap();

        let (db, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Snapshot).with_storage(storage.clone()),
        )
        .unwrap();
        assert_eq!(report.wal_effects, 2);
        db.collection("c")
            .write()
            .delete_many(&Filter::eq("_id", "stale"));
        db.checkpoint().unwrap();
        assert!(
            !storage.exists(&wal_path(&dir, 7)),
            "checkpoint must truncate past the runaway generation"
        );
        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Snapshot).with_storage(storage),
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(db2.collection("c").read().len(), 1);
        assert!(db2.collection("c").read().find_by_id("stale").is_none());
    }

    #[test]
    fn snapshot_durability_disk_footprint_stays_bounded() {
        // The long-run disk regression: rounds of insert → expire →
        // checkpoint must not accrete files or bytes without bound.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Snapshot).with_storage(storage.clone()),
        )
        .unwrap();
        db.set_retention(RetentionPolicy {
            collection: "stats".into(),
            time_field: "t".into(),
            keep_ms: 1000,
        });
        let mut footprint_after_round: Vec<(usize, u64)> = Vec::new();
        for round in 0..20i64 {
            let docs: Vec<_> = (0..50)
                .map(|i| doc! { "_id" => format!("{round}_{i}"), "t" => round * 100 + i })
                .collect();
            db.collection("stats").write().insert_many(docs).unwrap();
            db.expire_retention(round * 100).unwrap();
            db.checkpoint().unwrap();
            let files = storage.list(&dir).unwrap();
            let bytes: u64 = files.iter().map(|p| storage.len(p)).sum();
            footprint_after_round.push((files.len(), bytes));
        }
        // Steady state: once the retention window is full, the
        // footprint stops growing (identical file count, bytes within
        // noise of longer _id strings).
        let (files_mid, bytes_mid) = footprint_after_round[12];
        let (files_end, bytes_end) = footprint_after_round[19];
        assert_eq!(files_mid, files_end, "file count must not grow");
        assert!(
            bytes_end < bytes_mid + bytes_mid / 4,
            "steady-state bytes grew: {bytes_mid} -> {bytes_end}"
        );
        assert!(
            !storage
                .list(&dir)
                .unwrap()
                .iter()
                .any(|p| parse_wal_path(p).is_some()),
            "no WAL files may linger under durability=snapshot"
        );
    }

    /// Documents in the slice files `dir`'s manifest names, per collection.
    fn persisted_docs(storage: &FaultyStorage, dir: &Path) -> Vec<(String, usize)> {
        let m = read_manifest(storage, dir).unwrap().unwrap();
        assert!(!m.legacy);
        let opts = LoadOptions::default();
        let count = |e: &ManifestEntry| read_rows(storage, dir, false, e, &opts).unwrap().0.len();
        m.collections
            .iter()
            .map(|e| (e.name.clone(), count(e)))
            .collect()
    }

    #[test]
    fn every_checkpoint_leaves_only_the_current_wal_generation() {
        // A small always-appending collection next to a churning one
        // (the pair that once pinned WAL segments behind a lagging
        // generation). Every checkpoint brings every collection to the
        // head generation, so no log older than the current one
        // survives — whatever the traffic.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
        )
        .unwrap();
        for round in 0..30u32 {
            {
                let handle = db.collection("hot");
                let mut coll = handle.write();
                coll.delete_many(&Filter::exists("v"));
                let docs: Vec<_> = (0..50)
                    .map(|i| doc! { "_id" => format!("{round}_{i}"), "v" => i as i64 })
                    .collect();
                coll.insert_many(docs).unwrap();
            }
            let handle = db.collection("ledger");
            handle
                .write()
                .insert_many(vec![
                    doc! { "_id" => format!("a{round}") },
                    doc! { "_id" => format!("b{round}") },
                ])
                .unwrap();
            db.checkpoint().unwrap();
            let m = read_manifest(&*storage, &dir).unwrap().unwrap();
            let wals: Vec<u64> = storage
                .list(&dir)
                .unwrap()
                .iter()
                .filter_map(|p| parse_wal_path(p))
                .collect();
            assert!(wals.iter().all(|&g| g == m.generation), "{wals:?} vs {m:?}");
            assert_eq!(m.replay_from, m.generation);
        }
        // `hot` deletes its way through the slices: emptied ones are
        // gone from the manifest and from the directory.
        assert_eq!(
            persisted_docs(&storage, &dir),
            vec![("hot".to_string(), 50), ("ledger".to_string(), 60)]
        );
        let slice_files = storage
            .list(&dir)
            .unwrap()
            .iter()
            .filter(|p| parse_slice_path(p).is_some())
            .count();
        let m = read_manifest(&*storage, &dir).unwrap().unwrap();
        let named: usize = m.collections.iter().map(|e| e.slices.len()).sum();
        assert_eq!(slice_files, named, "no unnamed slice file survives cleanup");
        // And nothing was lost along the way.
        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage),
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(db2.collection("ledger").read().len(), 60);
        assert_eq!(db2.collection("hot").read().len(), 50);
    }

    #[test]
    fn checkpoint_writes_only_the_slices_a_mutation_touched() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let tel = Arc::new(upin_telemetry::Telemetry::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal)
                .with_storage(storage.clone())
                .with_recorder(tel.clone()),
        )
        .unwrap();
        let n = 4 * SLICE_ROWS;
        let docs: Vec<_> = (0..n)
            .map(|i| doc! { "_id" => format!("{i}"), "v" => i as i64 })
            .collect();
        db.collection("hot").write().insert_many(docs).unwrap();
        db.collection("cold")
            .write()
            .insert_one(doc! { "_id" => "only" })
            .unwrap();
        db.checkpoint().unwrap();
        assert_eq!(tel.counter("pathdb.checkpoint.rewritten"), 2);
        assert_eq!(tel.counter("pathdb.checkpoint.docs_written"), n + 1);
        let first = read_manifest(&*storage, &dir).unwrap().unwrap();

        // One update in slice 1, one append opening slice 4, all of
        // slice 2 deleted: three slices are dirty, two get a file.
        {
            let handle = db.collection("hot");
            let mut hot = handle.write();
            let one = (SLICE_ROWS + 3) as i64;
            hot.update_many(&Filter::eq("v", one), &Update::new().set("w", 1i64));
            hot.insert_one(doc! { "_id" => "tail" }).unwrap();
            let (lo, hi) = (2 * SLICE_ROWS as i64, 3 * SLICE_ROWS as i64);
            hot.delete_many(&Filter::and(Filter::gte("v", lo), Filter::lt("v", hi)));
        }
        db.checkpoint().unwrap();
        assert_eq!(tel.counter("pathdb.checkpoint.rewritten"), 3);
        assert_eq!(
            tel.counter("pathdb.checkpoint.clean"),
            1,
            "`cold` wrote nothing"
        );
        assert_eq!(
            tel.counter("pathdb.checkpoint.docs_written"),
            n + 1 + SLICE_ROWS + 1
        );
        let second = read_manifest(&*storage, &dir).unwrap().unwrap();
        let (g1, g2) = (first.generation, second.generation);
        assert_eq!(
            second.collections[0], first.collections[0],
            "`cold` untouched"
        );
        let hot: Vec<(u64, u64)> = second.collections[1]
            .slices
            .iter()
            .map(|(s, g)| (*s, *g))
            .collect();
        assert_eq!(hot, vec![(0, g1), (1, g2), (3, g1), (4, g2)]);
        assert!(
            !storage.exists(&slice_path(&dir, "hot", 1, g1)),
            "superseded"
        );
        assert!(!storage.exists(&slice_path(&dir, "hot", 2, g1)), "emptied");

        // A third checkpoint with nothing dirty writes no slice at all.
        db.checkpoint().unwrap();
        assert_eq!(tel.counter("pathdb.checkpoint.rewritten"), 3);
        assert_eq!(tel.counter("pathdb.checkpoint.clean"), 3);

        let (db2, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage),
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.snapshot_docs as u64, n + 2 - SLICE_ROWS);
        let handle = db2.collection("hot");
        let hot = handle.read();
        assert_eq!(hot.len() as u64, n + 1 - SLICE_ROWS);
        assert!(hot
            .find_by_id(format!("{}", SLICE_ROWS + 3))
            .unwrap()
            .contains_key("w"));
        assert!(hot.find_by_id(format!("{}", 2 * SLICE_ROWS)).is_none());
        assert!(hot.find_by_id("tail").is_some());
    }

    #[test]
    fn failed_checkpoint_keeps_its_slices_dirty() {
        // A checkpoint that could not commit must not forget what it
        // set out to write: under `durability=snapshot` the slices are
        // the only durable copy.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Snapshot).with_storage(storage.clone()),
        )
        .unwrap();
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        storage.inject_transient_errors(1);
        assert!(db.checkpoint().is_err());
        db.checkpoint().unwrap();
        assert_eq!(persisted_docs(&storage, &dir), vec![("c".to_string(), 1)]);
    }

    #[test]
    fn recreated_collection_does_not_inherit_dropped_slices() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let (db, _) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Snapshot).with_storage(storage.clone()),
        )
        .unwrap();
        let docs: Vec<_> = (0..2 * SLICE_ROWS)
            .map(|i| doc! { "_id" => format!("{i}") })
            .collect();
        db.collection("c").write().insert_many(docs).unwrap();
        db.checkpoint().unwrap();
        db.drop_collection("c");
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "new" })
            .unwrap();
        db.checkpoint().unwrap();
        assert_eq!(persisted_docs(&storage, &dir), vec![("c".to_string(), 1)]);
    }

    #[test]
    fn rollup_watermark_survives_recovery_after_expiry() {
        // The killer interleaving for a persisted absolute watermark:
        // fold, expire (punching seq holes below the watermark),
        // checkpoint, crash. If recovery renumbered rows compactly the
        // watermark would point past the allocator and every later
        // insert would silently never fold.
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let cfg = RollupConfig::hourly("paths_stats", "rollup_paths_stats");
        let hour = 3_600_000i64;
        let row = |i: i64| {
            doc! {
                "_id" => format!("{i}"),
                "server_id" => 1i64,
                "path_id" => "1_0",
                "timestamp_ms" => i * hour,
                "avg_latency_ms" => 10.0 + i as f64,
            }
        };
        let mut all_rows = Vec::new();
        {
            let (db, _) = Database::open_durable_with(
                &dir,
                OpenOptions::new(Durability::Wal).with_storage(storage.clone()),
            )
            .unwrap();
            db.register_rollup(cfg.clone());
            db.set_retention(RetentionPolicy {
                collection: "paths_stats".into(),
                time_field: "timestamp_ms".into(),
                keep_ms: hour,
            });
            let rows: Vec<_> = (0..4).map(row).collect();
            all_rows.extend(rows.clone());
            db.collection("paths_stats")
                .write()
                .insert_many(rows)
                .unwrap();
            // Fold + expire everything older than one hour, then make
            // the compacted state durable. The process "crashes" here.
            db.expire_retention(3 * hour).unwrap();
            assert!(db.collection("paths_stats").read().len() < 4);
            db.checkpoint().unwrap();
        }
        let (db, report) = Database::open_durable_with(
            &dir,
            OpenOptions::new(Durability::Wal).with_storage(storage),
        )
        .unwrap();
        assert!(report.clean(), "{report:?}");
        db.register_rollup(cfg.clone());
        let rows: Vec<_> = (4..6).map(row).collect();
        all_rows.extend(rows.clone());
        db.collection("paths_stats")
            .write()
            .insert_many(rows)
            .unwrap();
        db.rollup_catch_up().unwrap();
        assert_eq!(
            crate::rollup::render(&crate::rollup::read_rollup(&db, &cfg)),
            crate::rollup::render(&crate::rollup::fold_reference(all_rows.iter(), &cfg)),
            "post-recovery inserts must still fold exactly once"
        );
    }

    #[test]
    fn expire_retention_folds_rollups_before_deleting() {
        let db = Database::new();
        let cfg = RollupConfig::hourly("paths_stats", "rollup_paths_stats");
        db.register_rollup(cfg.clone());
        db.set_retention(RetentionPolicy {
            collection: "paths_stats".into(),
            time_field: "timestamp_ms".into(),
            keep_ms: 3_600_000,
        });
        let hour = 3_600_000i64;
        let rows: Vec<_> = (0..6)
            .map(|i| {
                doc! {
                    "server_id" => 1i64,
                    "path_id" => "1_0",
                    "timestamp_ms" => i * hour,
                    "avg_latency_ms" => 10.0 + i as f64,
                }
            })
            .collect();
        db.collection("paths_stats")
            .write()
            .insert_many(rows)
            .unwrap();
        // Expire with a window that keeps only the last hour of raw
        // rows. Every older row must already be folded — the rollup
        // answer is identical before and after.
        db.rollup_catch_up().unwrap();
        let before = crate::rollup::render(&crate::rollup::read_rollup(&db, &cfg));
        assert_eq!(db.expire_retention(0).unwrap(), 0, "nothing is older yet");
        // Exactly the rows strictly behind `now - keep_ms` go.
        assert_eq!(db.expire_retention(5 * hour).unwrap(), 4);
        assert_eq!(db.collection("paths_stats").read().len(), 2);
        assert_eq!(
            crate::rollup::render(&crate::rollup::read_rollup(&db, &cfg)),
            before
        );
    }
}
