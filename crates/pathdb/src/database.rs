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
//! committed checkpoint (leniently: a slice file's bad tail is skipped
//! and reported), replays the intact WAL prefix in generation order
//! (streamed frame by frame, never read whole),
//! truncates torn WAL tails, and reports
//! what it did in a [`RecoveryReport`] instead of failing.

use crate::collection::{Collection, Dirty};
use crate::error::{DbError, DbResult};
use crate::query::Filter;
use crate::rollup::{self, RollupConfig};
use crate::snapshot::{
    load_slices, parse_slice_path, read_manifest, slice_path, write_manifest, write_slice,
    LoadOptions, Manifest, ManifestEntry, SkippedLines, MANIFEST,
};
use crate::storage::{tmp_target, DiskStorage, Storage};
use crate::wal::{parse_wal_path, read_wal, Wal, WalOp, WalOpRef};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::BufReader;
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
    /// Lines dropped from slice files by the lenient loader.
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

    /// Register an incremental rollup (see [`crate::rollup`]):
    /// subsequent [`Database::rollup_catch_up`] calls fold new source
    /// rows into its destination collection. Idempotent for an
    /// identical config.
    pub fn register_rollup(&self, cfg: RollupConfig) {
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
    /// crashed mid-write — left behind. Slice files load leniently: a
    /// bad tail yields the rows before it plus a report, never a failed
    /// open. `opts` carries the durability level and the storage
    /// backend (the crash-injection tests inject theirs).
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
        let lenient = LoadOptions {
            skip_corrupt_tail: true,
        };
        let manifest = db.load_checkpoint(&*storage, dir, &lenient, &mut report)?;

        // 2. Replay surviving WAL generations, oldest first, deleting
        //    the logs the checkpoint already covers. Replay is
        //    idempotent and op-ordered, so a log that partially
        //    predates the checkpoint (a crash between manifest write
        //    and log deletion) converges all the same — and marks what
        //    it touches dirty for the next checkpoint.
        let mut wal_files: Vec<(u64, PathBuf)> = storage
            .list(dir)?
            .into_iter()
            .filter_map(|p| parse_wal_path(&p).map(|g| (g, p)))
            .collect();
        wal_files.sort();
        let mut max_gen = manifest.generation;
        for (gen, path) in wal_files {
            if gen < manifest.generation {
                storage.remove(&path)?;
                report.stale_wals_removed += 1;
                continue;
            }
            max_gen = max_gen.max(gen);
            let replay = read_wal(storage.reader(&path)?, storage.len(&path), |group| {
                for op in group {
                    report.wal_effects += op.effect_count();
                    db.apply_wal_op(op);
                }
            })?;
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
    /// [`Database::open_durable_with`] and [`Database::load_dir`]: the
    /// slice files its manifest names, nothing else. Without a manifest
    /// the database starts empty.
    fn load_checkpoint(
        &self,
        storage: &dyn Storage,
        dir: &Path,
        opts: &LoadOptions,
        report: &mut RecoveryReport,
    ) -> DbResult<Manifest> {
        let manifest = read_manifest(storage, dir)?.unwrap_or_default();
        for entry in &manifest.collections {
            let handle = self.collection(&entry.name);
            let mut coll = handle.write();
            // Indexes first: every row below then enters them as it is
            // placed, so the reopened collection plans as it did.
            for field in &entry.indexes {
                coll.create_index(field);
            }
            let (loaded, skipped) = load_slices(storage, dir, entry, opts, &mut coll)?;
            report.collections += 1;
            report.snapshot_docs += loaded;
            report.skipped.extend(skipped);
            // Even with a deleted tail (or every row gone) the
            // allocator resumes where the crashed process stopped.
            coll.set_next_seq_at_least(entry.next_seq);
            // Memory now equals the slice files: nothing is dirty or
            // replaced.
            coll.take_dirty();
            self.persisted
                .lock()
                .insert(entry.name.clone(), entry.slices.clone());
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
    /// slices mutations touched since the last checkpoint (encoding the
    /// rows that changed, copying the others' lines from the files they
    /// supersede), commit them with the manifest, then delete the files
    /// it no longer names and the obsolete logs. The cost follows what
    /// changed, not what is stored.
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
        // dirty slices (and consume the dirty sets) and copy unchanged
        // rows from those files; a foreign dir gets every slice, encoded.
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
        let mut taken: Vec<(CollectionHandle, Dirty)> = Vec::new();
        let (mut rewritten, mut clean) = (0u64, 0u64);
        let (mut docs_written, mut rows_copied) = (0u64, 0u64);
        let committed = (|| {
            let mut collections = Vec::new();
            for name in self.collection_names() {
                let handle = self.collection(&name);
                // One lock hold takes the dirty sets and writes their
                // slices: no writer can slip between the two, so every
                // effect is either in these bytes or still marked dirty.
                let coll = handle.read();
                let (dirty, old) = if bound {
                    (coll.take_dirty(), persisted.get(&name))
                } else {
                    let slices = coll.live_slices();
                    (
                        Dirty {
                            slices,
                            ..Dirty::default()
                        },
                        None,
                    )
                };
                let files: Vec<(u64, Vec<u8>)> = dirty
                    .slices
                    .iter()
                    .map(|&slice| {
                        // The file this slice's new one supersedes, when
                        // the manifest names one.
                        let old = old.and_then(|old| old.get(&slice)).and_then(|&gen| {
                            let path = slice_path(dir, &name, slice, gen);
                            self.storage.reader(&path).ok().map(BufReader::new)
                        });
                        let file = write_slice(coll.slice_rows(slice), old, &dirty.replaced);
                        docs_written += file.encoded;
                        rows_copied += file.copied;
                        (slice, file.bytes)
                    })
                    .collect();
                let next_seq = coll.append_watermark();
                let indexes = coll.index_fields();
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
                    indexes,
                });
            }
            let manifest = Manifest {
                generation,
                collections,
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
        // best-effort garbage collection a crash may skip, of files
        // whose names only this database makes: slice files the
        // manifest does not name (superseded, emptied, of dropped
        // collections, or left by a crashed checkpoint), superseded WAL
        // generations, and the temp files interrupted atomic writes
        // left for either or for the manifest. Any other file is not
        // the database's and stays.
        for path in self.storage.list(dir).unwrap_or_default() {
            let (file, tmp) = match tmp_target(&path) {
                Some(file) => (file, true),
                None => (path.clone(), false),
            };
            let garbage = if let Some((name, slice, gen)) = parse_slice_path(&file) {
                tmp || named.get(name).and_then(|slices| slices.get(&slice)) != Some(&gen)
            } else if let Some(gen) = parse_wal_path(&file) {
                tmp || gen < generation
            } else {
                tmp && file.file_name().is_some_and(|n| n == MANIFEST)
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
        rec.add("pathdb.checkpoint.rows_copied", rows_copied);
        Ok(())
    }

    /// Load all collections persisted in `dir` (strictly — any bad
    /// slice line fails the load with its `file:line`; see
    /// `Database::load_dir_with` for the lenient variant). Reads only
    /// the slice files the manifest names; a directory without one
    /// loads empty. Purely reads `dir` — crash *repair* (WAL replay,
    /// tail truncation) is [`Database::open_durable_with`]'s job.
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
    use crate::document::Document;
    use crate::query::Filter;
    use crate::snapshot::SLICE_ROWS;
    use crate::storage::FaultyStorage;
    use crate::update::Update;
    use crate::value::Value;
    use crate::wal::wal_path;
    use std::fs;
    use std::io::{self, Read};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

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

    /// A checkpoint directory on disk whose manifest names one file,
    /// slice 0 of `name` at generation 1, holding `rows`.
    fn one_slice_dir(tag: &str, name: &str, rows: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pathdb-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest = format!(
            "{{\"format\":3,\"generation\":1,\"collections\":[\"{name}\"],\"seqs\":[0],\
             \"slices\":[[0,1]],\"indexes\":[[]]}}\n"
        );
        fs::write(dir.join("MANIFEST.json"), manifest).unwrap();
        fs::write(slice_path(&dir, name, 0, 1), rows).unwrap();
        dir
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = one_slice_dir("garbage", "bad", "{not json\n");
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Parse(_))));
        fs::write(slice_path(&dir, "bad", 0, 1), "[1,2,3]\n").unwrap();
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Parse(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_load_keeps_intact_prefix() {
        // A torn tail: the last line was cut mid-write.
        let dir = one_slice_dir(
            "lenient",
            "stats",
            "{\"_id\":\"a\",\"v\":1,\"__seq\":0}\n{\"_id\":\"b\",\"v\":2,\"__seq\":1}\n{\"_id\":\"c\",\"v",
        );
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

    /// A [`Storage`] that counts, for `wal.*.log` paths, the whole-file
    /// `read` calls and the bytes its readers hand out.
    struct Recording<S> {
        inner: S,
        wal_reads: AtomicUsize,
        wal_bytes: AtomicU64,
    }

    impl<S: Storage> Recording<S> {
        fn new(inner: S) -> Arc<Recording<S>> {
            Arc::new(Recording {
                inner,
                wal_reads: Default::default(),
                wal_bytes: Default::default(),
            })
        }

        fn wal_reads(&self) -> usize {
            self.wal_reads.load(Relaxed)
        }

        fn wal_bytes(&self) -> u64 {
            self.wal_bytes.load(Relaxed)
        }
    }

    struct Counted<'a> {
        inner: Box<dyn Read + 'a>,
        bytes: &'a AtomicU64,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes.fetch_add(n as u64, Relaxed);
            Ok(n)
        }
    }

    impl<S: Storage> Storage for Recording<S> {
        fn reader(&self, path: &Path) -> io::Result<Box<dyn Read + '_>> {
            let inner = self.inner.reader(path)?;
            if parse_wal_path(path).is_none() {
                return Ok(inner);
            }
            let bytes = &self.wal_bytes;
            Ok(Box::new(Counted { inner, bytes }))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            if parse_wal_path(path).is_some() {
                self.wal_reads.fetch_add(1, Relaxed);
            }
            self.inner.read(path)
        }
        fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.inner.append(path, data)
        }
        fn atomic_write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.inner.atomic_write(path, data)
        }
        fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn len(&self, path: &Path) -> u64 {
            self.inner.len(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
    }

    #[test]
    fn recovery_streams_the_log_instead_of_reading_it_whole() {
        let dir = PathBuf::from("/db");
        let storage = FaultyStorage::new();
        {
            let opts = OpenOptions::new(Durability::Wal).with_storage(Arc::new(storage.clone()));
            let (db, _) = Database::open_durable_with(&dir, opts).unwrap();
            let h = db.collection("stats");
            for i in 0..200 {
                h.write().insert_one(doc! { "_id" => i, "v" => i }).unwrap();
            }
        }
        let log_len = storage.len(&wal_path(&dir, 0));
        let recording = Recording::new(storage);
        let opts = OpenOptions::new(Durability::Wal).with_storage(recording.clone());
        let (db, report) = Database::open_durable_with(&dir, opts).unwrap();
        assert_eq!(report.wal_groups, 200);
        assert_eq!(db.collection("stats").read().len(), 200);
        assert_eq!(recording.wal_reads(), 0, "no whole-log copy");
        assert_eq!(
            recording.wal_bytes(),
            log_len,
            "each log byte handed out once"
        );
    }

    #[test]
    fn disk_log_cut_mid_frame_reopens_to_the_committed_prefix() {
        let dir = std::env::temp_dir().join(format!("pathdb-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = wal_path(&dir, 0);
        let open = || {
            let storage = Recording::new(DiskStorage);
            let opts = OpenOptions::new(Durability::Wal).with_storage(storage.clone());
            let (db, report) = Database::open_durable_with(&dir, opts).unwrap();
            (db, report, storage)
        };
        let valid_len = {
            let (db, _, _) = open();
            let h = db.collection("stats");
            h.write()
                .insert_many(vec![doc! { "_id" => "a" }, doc! { "_id" => "b" }])
                .unwrap();
            h.write().insert_one(doc! { "_id" => "c" }).unwrap();
            let valid_len = DiskStorage.len(&log);
            h.write()
                .insert_one(doc! { "_id" => "torn", "pad" => "x".repeat(64) })
                .unwrap();
            valid_len
        };
        // Cut the last group inside its first frame's payload.
        DiskStorage.truncate(&log, valid_len + 20).unwrap();
        let (db, report, storage) = open();
        assert_eq!(report.wal_groups, 2);
        assert_eq!(report.torn_wal_bytes, 20);
        let ids: Vec<_> = db
            .collection("stats")
            .read()
            .iter()
            .map(|d| d.id().unwrap().to_string())
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
        assert_eq!(DiskStorage.len(&log), valid_len, "truncated to valid_len");
        // Streamed: the committed prefix, then the torn frame's header,
        // whose length prefix overruns the file.
        assert_eq!(
            (storage.wal_reads(), storage.wal_bytes()),
            (0, valid_len + 8)
        );
        drop(db);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest records each collection's indexes and a reopen (or
    /// a load of a foreign `save_dir` copy) rebuilds them, so the same
    /// filters plan through the same indexes with the same answers. An
    /// index made after the last row changed still reaches the next
    /// manifest, and a re-created collection starts without one.
    #[test]
    fn a_reopened_database_plans_through_the_indexes_it_checkpointed() {
        use crate::plan::Access;
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let open_at = |dir: &Path, durability| {
            let opts = OpenOptions::new(durability).with_storage(storage.clone());
            Database::open_durable_with(dir, opts).unwrap().0
        };
        let open = || open_at(&dir, Durability::Wal);
        let filters = [Filter::eq("server_id", 3i64), Filter::lt("t", 100i64)];
        let plans = |db: &Database| {
            let h = db.collection("c");
            let c = h.read();
            filters
                .each_ref()
                .map(|f| (c.query(f).explain().access, c.query(f).run()))
        };
        let db = open();
        {
            let h = db.collection("c");
            let mut c = h.write();
            c.create_index("server_id");
            let rows = (0..600i64).map(|i| doc! { "_id" => i, "server_id" => i % 7, "t" => i });
            c.insert_many(rows.collect()).unwrap();
        }
        db.collection("plain")
            .write()
            .insert_one(doc! { "_id" => "x" })
            .unwrap();
        db.checkpoint().unwrap();
        db.collection("c").write().create_index("t");
        db.checkpoint().unwrap();
        // Sorted, whatever order the indexes were made in: the same
        // database writes the same manifest.
        let manifest = storage.read(&dir.join("MANIFEST.json")).unwrap();
        let manifest = String::from_utf8(manifest).unwrap();
        assert!(
            manifest.ends_with(",\"indexes\":[[\"server_id\",\"t\"],[]]}\n"),
            "{manifest}"
        );
        let want = plans(&db);
        assert!(matches!(want[0].0, Access::IndexPoint { .. }), "{want:?}");
        assert!(matches!(want[1].0, Access::IndexRange { .. }), "{want:?}");
        let copy = PathBuf::from("/copy");
        db.save_dir(&copy).unwrap();
        drop(db);

        let reopened = open();
        assert_eq!(plans(&reopened), want);
        assert_eq!(plans(&open_at(&copy, Durability::None)), want);
        assert!(reopened
            .collection("plain")
            .read()
            .index_fields()
            .is_empty());

        assert!(reopened.drop_collection("c"));
        reopened
            .collection("c")
            .write()
            .insert_one(doc! { "_id" => 1i64, "server_id" => 3i64, "t" => 1i64 })
            .unwrap();
        reopened.checkpoint().unwrap();
        drop(reopened);
        let plain = plans(&open());
        assert!(plain.iter().all(|(access, _)| access.is_full_scan()));
    }

    /// The durable-index gap, accepted (DESIGN, "Durability"): creating
    /// an index is not logged, so one made after the last checkpoint is
    /// gone after a crash before the next. The reopen plans full scans
    /// and answers every query byte for byte as before. This flips when
    /// index creation is logged.
    #[test]
    fn an_index_made_after_the_last_checkpoint_is_lost_by_a_crash_and_no_answer_moves() {
        use crate::plan::Access;
        use crate::snapshot::encode_jsonl_seq;
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let open = || {
            let opts = OpenOptions::new(Durability::Wal).with_storage(storage.clone());
            Database::open_durable_with(&dir, opts).unwrap().0
        };
        let filters = [
            Filter::eq("server_id", 3i64),
            Filter::lt("t", 100i64),
            Filter::gte("t", 600i64),
        ];
        let answers = |db: &Database| {
            let h = db.collection("c");
            let c = h.read();
            filters.each_ref().map(|f| {
                let rows = c.query(f).run();
                let bytes = encode_jsonl_seq(rows.iter().enumerate().map(|(i, d)| (i as u64, d)));
                (c.query(f).explain().access, bytes)
            })
        };
        let rows = |seqs: std::ops::Range<i64>| {
            seqs.map(|i| doc! { "_id" => i, "server_id" => i % 7, "t" => i })
                .collect()
        };
        let db = open();
        db.collection("c")
            .write()
            .insert_many(rows(0..600))
            .unwrap();
        db.checkpoint().unwrap();
        {
            let h = db.collection("c");
            let mut c = h.write();
            c.create_index("server_id");
            c.create_index("t");
            // Logged, unlike the indexes: the reopen has these rows.
            c.insert_many(rows(600..620)).unwrap();
        }
        let before = answers(&db);
        assert!(
            matches!(before[0].0, Access::IndexPoint { .. }),
            "{before:?}"
        );
        assert!(
            matches!(before[1].0, Access::IndexRange { .. }),
            "{before:?}"
        );
        drop(db);

        let reopened = open();
        assert!(reopened.collection("c").read().index_fields().is_empty());
        for ((_, want), (access, got)) in before.iter().zip(answers(&reopened)) {
            assert!(access.is_full_scan(), "{access:?}");
            assert!(!got.is_empty());
            assert_eq!(got, *want);
        }
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
        let opts = LoadOptions::default();
        let count = |e: &ManifestEntry| {
            let mut c = Collection::new(&e.name);
            load_slices(storage, dir, e, &opts, &mut c).unwrap().0
        };
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
        // Slice 1 encodes its updated row and copies the other 255.
        assert_eq!(tel.counter("pathdb.checkpoint.docs_written"), n + 1 + 2);
        assert_eq!(tel.counter("pathdb.checkpoint.rows_copied"), SLICE_ROWS - 1);
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
            .get("w")
            .is_some());
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

    /// Open [`one_slice_dir`] of collection `c` leniently: the database,
    /// what it skipped, and the directory.
    fn open_one_slice(tag: &str, rows: &str) -> (Database, Vec<SkippedLines>, PathBuf) {
        let dir = one_slice_dir(tag, "c", rows);
        let opts = OpenOptions::new(Durability::Snapshot);
        let (db, report) = Database::open_durable_with(&dir, opts).unwrap();
        (db, report.skipped, dir)
    }

    /// The ids `c` holds, in order; `len()` counts exactly them and
    /// `find_by_id` finds each.
    fn ids(db: &Database) -> Vec<String> {
        let h = db.collection("c");
        let c = h.read();
        let ids: Vec<String> = c.iter().map(|d| d.id().unwrap().to_string()).collect();
        assert_eq!(c.len(), ids.len());
        for id in &ids {
            assert!(c.find_by_id(id.as_str()).is_some(), "{id}");
        }
        ids
    }

    /// A slice row without its `__seq` is a bad line. (Renumbered, it
    /// took the next row's seq: `len()` counted three rows, `iter()`
    /// yielded one and `find_by_id` missed two.)
    #[test]
    fn a_slice_row_without_its_seq_ends_the_load_there() {
        let (db, skipped, dir) = open_one_slice(
            "no-seq",
            "{\"_id\":\"a\",\"__seq\":0}\n{\"_id\":\"b\"}\n{\"_id\":\"c\",\"__seq\":1}\n",
        );
        let want = SkippedLines {
            file: slice_path(&dir, "c", 0, 1).display().to_string(),
            first_bad_line: 2,
            skipped: 2,
        };
        assert_eq!(skipped, [want]);
        assert_eq!(ids(&db), ["a"]);
        assert!(db.collection("c").read().find_by_id("c").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A second row at a seq is a bad line. (Placed over the first, it
    /// left a row `len()` counted and nothing reached: `iter()` was
    /// empty and `delete_many` deleted nothing.)
    #[test]
    fn a_repeated_slice_seq_ends_the_load_there() {
        let rows = "{\"_id\":\"a\",\"__seq\":0}\n{\"_id\":\"b\",\"__seq\":0}\n";
        let (db, skipped, dir) = open_one_slice("repeated-seq", rows);
        assert_eq!((skipped[0].first_bad_line, skipped[0].skipped), (2, 1));
        assert_eq!(ids(&db), ["a"]);
        assert_eq!(db.collection("c").write().delete_many(&Filter::True), 1);
        assert_eq!(db.collection("c").read().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The sweep after a checkpoint deletes only names the database
    /// makes; a directory without a manifest is an empty database whose
    /// files are never read.
    #[test]
    fn files_the_database_did_not_write_are_neither_loaded_nor_deleted() {
        let dir = std::env::temp_dir().join(format!("pathdb-foreign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let storage = DiskStorage::shared();
        let foreign = [
            ("notes.jsonl", "{\"_id\":\"n\"}\n\"Health\"\n"),
            ("notes.tmp", "draft"),
            ("readme.slice", "hello"),
            ("c.x.1.slice", "{}"),
            ("wal.old.log", "?"),
            ("MANIFEST.json.bak", "{}"),
        ];
        for (name, text) in foreign {
            storage.append(&dir.join(name), text.as_bytes()).unwrap();
        }
        let open = || {
            let opts = OpenOptions::new(Durability::Wal).with_storage(storage.clone());
            Database::open_durable_with(&dir, opts).unwrap()
        };
        let (db, report) = open();
        assert!(report.clean() && report.collections == 0, "{report:?}");
        assert!(db.collection_names().is_empty());
        db.collection("c")
            .write()
            .insert_one(doc! { "_id" => "1" })
            .unwrap();
        db.checkpoint().unwrap();
        // What the database did write and no longer needs goes.
        let ours = [
            slice_path(&dir, "c", 0, 0),
            slice_path(&dir, "gone", 3, 1).with_extension("slice.tmp"),
            dir.join("MANIFEST.json.tmp"),
            wal_path(&dir, 0),
        ];
        for path in &ours {
            storage.append(path, b"x").unwrap();
        }
        db.checkpoint().unwrap();
        for path in &ours {
            assert!(!storage.exists(path), "{path:?}");
        }
        let (db, _) = open();
        assert_eq!(db.collection_names(), ["c"]);
        for (name, text) in foreign {
            assert_eq!(
                storage.read(&dir.join(name)).unwrap(),
                text.as_bytes(),
                "{name}"
            );
        }
        drop(db);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a reopen does with logs around a checkpoint: a log below the
    /// manifest's generation (a crash between the manifest and the
    /// cleanup) is deleted unread, effects the current log repeats from
    /// the slices replay as no-ops, and the allocator resumes above a
    /// deleted tail and a hole below it.
    #[test]
    fn a_reopen_drops_stale_logs_replays_covered_ones_and_keeps_the_allocator() {
        let dir = PathBuf::from("/db");
        let storage = Arc::new(FaultyStorage::new());
        let open = || {
            let opts = OpenOptions::new(Durability::Wal).with_storage(storage.clone());
            Database::open_durable_with(&dir, opts).unwrap()
        };
        let (db, _) = open();
        let h = db.collection("c");
        let rows = (0..4i64).map(|i| doc! { "_id" => i, "v" => i }).collect();
        h.write().insert_many(rows).unwrap();
        // A hole at seq 2 and a deleted tail at seq 3.
        h.write()
            .delete_many(&Filter::and(Filter::gte("v", 2i64), Filter::lte("v", 3i64)));
        db.checkpoint().unwrap();
        h.write()
            .update_many(&Filter::eq("v", 1i64), &Update::new().set("w", 1i64));
        let covered = storage.read(&wal_path(&dir, 1)).unwrap();
        db.checkpoint().unwrap();
        let want: Vec<(u64, Document)> = {
            let c = h.read();
            c.slice_rows(0).map(|(s, d)| (s, d.to_document())).collect()
        };
        assert_eq!(want.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1]);
        drop((h, db));
        // The update again in the current log, and a log from before
        // the last checkpoint that its cleanup never reached.
        storage.append(&wal_path(&dir, 2), &covered).unwrap();
        storage
            .append(&wal_path(&dir, 1), b"not even a frame")
            .unwrap();

        let (db, report) = open();
        assert_eq!(report.stale_wals_removed, 1);
        assert!(!storage.exists(&wal_path(&dir, 1)));
        assert_eq!((report.wal_groups, report.torn_wal_bytes), (1, 0));
        let h = db.collection("c");
        let got: Vec<(u64, Document)> = h
            .read()
            .slice_rows(0)
            .map(|(s, d)| (s, d.to_document()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(h.read().append_watermark(), 4);
        h.write().insert_one(doc! { "_id" => 9i64 }).unwrap();
        let seqs: Vec<u64> = h.read().slice_rows(0).map(|(s, _)| s).collect();
        assert_eq!(
            seqs,
            [0, 1, 4],
            "a new row takes neither the hole nor the deleted tail"
        );
    }
}
