//! Collections: insertion-ordered document stores with a unique `_id`
//! index, optional ordered secondary indexes, planner-served queries,
//! updates and bulk insertion.

use crate::document::Document;
use crate::error::{DbError, DbResult};
use crate::plan::{self, QueryPlan};
use crate::query::{Filter, FindOptions};
use crate::snapshot::SLICE_ROWS;
use crate::update::Update;
use crate::value::Value;
use crate::wal::{Wal, WalOpRef};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::{Bound, Range};
use std::sync::Arc;
use std::time::Instant;
use upin_telemetry::{NoopRecorder, Recorder};

static NOOP: NoopRecorder = NoopRecorder;

/// A secondary index over one field: posting lists in an ordered map
/// over the order-preserving [`Value::index_key`] encoding, which
/// serves point lookups, range scans and key-order reads alike.
/// Seqs within one key are a `BTreeSet`, so ties stream in ascending
/// insertion order — the same tie order a stable sort produces.
#[derive(Debug, Default, Clone)]
pub(crate) struct FieldIndex {
    pub(crate) ordered: BTreeMap<String, BTreeSet<u64>>,
    /// Documents contributing at least one key (field present).
    pub(crate) indexed_docs: usize,
    /// Documents contributing more than one key (multikey arrays) —
    /// such documents appear under several keys, which rules the index
    /// out for serving sorts.
    pub(crate) multikey_docs: usize,
}

impl FieldIndex {
    fn insert(&mut self, seq: u64, keys: Vec<String>) {
        if keys.is_empty() {
            return;
        }
        self.indexed_docs += 1;
        if keys.len() > 1 {
            self.multikey_docs += 1;
        }
        for key in keys {
            self.ordered.entry(key).or_default().insert(seq);
        }
    }

    fn remove(&mut self, seq: u64, keys: &[String]) {
        if keys.is_empty() {
            return;
        }
        self.indexed_docs -= 1;
        if keys.len() > 1 {
            self.multikey_docs -= 1;
        }
        for key in keys {
            if let Some(set) = self.ordered.get_mut(key) {
                set.remove(&seq);
                if set.is_empty() {
                    self.ordered.remove(key);
                }
            }
        }
    }

    pub(crate) fn point_count(&self, key: &str) -> usize {
        self.ordered.get(key).map_or(0, BTreeSet::len)
    }

    pub(crate) fn point_seqs(&self, key: &str) -> impl Iterator<Item = u64> + '_ {
        self.ordered.get(key).into_iter().flatten().copied()
    }

    pub(crate) fn range_count(&self, lo: &Bound<String>, hi: &Bound<String>) -> usize {
        self.ordered
            .range((lo.clone(), hi.clone()))
            .map(|(_, seqs)| seqs.len())
            .sum()
    }

    pub(crate) fn range_seqs<'a>(
        &'a self,
        lo: &Bound<String>,
        hi: &Bound<String>,
    ) -> impl Iterator<Item = u64> + 'a {
        self.ordered
            .range((lo.clone(), hi.clone()))
            .flat_map(|(_, seqs)| seqs.iter().copied())
    }
}

/// A single collection (a "table" of documents).
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    /// Documents keyed by insertion sequence (preserves order under
    /// deletion without shifting). Every row carries an `_id`: inserts
    /// assign a missing one, upserts demand one, updates cannot touch it.
    pub(crate) docs: BTreeMap<u64, Document>,
    next_seq: u64,
    /// Unique `_id` index: canonical id key → sequence.
    pub(crate) primary: HashMap<String, u64>,
    /// Secondary indexes by field.
    pub(crate) indexes: HashMap<String, FieldIndex>,
    /// Counter for generated ids.
    next_auto_id: u64,
    /// Monotonically increasing mutation counter: bumps on every
    /// successful write. Lets callers memoize derived state and
    /// invalidate it precisely (see `upin-core`'s stats cache).
    version: u64,
    /// The `version` value of the last mutation that was *not* a pure
    /// append (an update or delete). If unchanged since a snapshot,
    /// every document the snapshot saw is still intact.
    last_reshape_version: u64,
    /// Write-ahead log shared with the owning [`crate::Database`], when
    /// it was opened durably. Mutations log their *effects* (post-image
    /// documents, deleted ids) after applying in memory, so a rejected
    /// write (e.g. a duplicate `_id`) never reaches the log.
    wal: Option<Arc<Wal>>,
    /// Slices of the insertion sequence (`seq / SLICE_ROWS`) a mutation
    /// touched since a checkpoint last took the set — exactly the slice
    /// files that no longer match memory. Behind a mutex so a
    /// checkpoint can take it under the collection's *read* lock.
    dirty: Mutex<BTreeSet<u64>>,
    /// Telemetry sink shared with the owning [`crate::Database`]; `None`
    /// means the static no-op recorder (no allocation, no signals).
    recorder: Option<Arc<dyn Recorder>>,
    /// Memoized copy-on-write image served by
    /// [`Collection::read_snapshot`]. Not part of the logical state:
    /// clones start with an empty memo and persistence ignores it.
    snap: Mutex<Option<SnapEntry>>,
}

/// How a collection (or a pinned image of one) differs from the state a
/// consumer remembers by its [`Collection::mutation_version`] — the
/// answer of [`Collection::delta_since`], and the whole protocol of
/// folding rows incrementally: share on `Same`, fold the rows past the
/// remembered [`Collection::append_watermark`] on `Appended`, start
/// over on `Reshaped`, and on `Ahead` leave the remembered state alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// Nothing changed.
    Same,
    /// Only inserts: every document the consumer saw is intact, the new
    /// ones are [`Collection::iter_from`] its watermark.
    Appended,
    /// An update or a delete touched what the consumer saw.
    Reshaped,
    /// The consumer remembers a *newer* version than this image has: a
    /// reader holding an old pin met state a later reader left behind.
    Ahead,
}

/// The snapshot memo: the last pinned image plus the version/watermark
/// it reflects, so the next pin can tell hit from append from reshape.
#[derive(Debug)]
struct SnapEntry {
    version: u64,
    watermark: u64,
    image: Arc<Collection>,
}

impl Clone for Collection {
    /// A detached logical copy: documents, indexes and version counters
    /// carry over; the WAL handle is dropped (mutating a clone must not
    /// log under the original's name), and the snapshot memo and the
    /// dirty-slice set (a clone is never checkpointed) start empty. The
    /// telemetry recorder is shared.
    fn clone(&self) -> Collection {
        Collection {
            name: self.name.clone(),
            docs: self.docs.clone(),
            next_seq: self.next_seq,
            primary: self.primary.clone(),
            indexes: self.indexes.clone(),
            next_auto_id: self.next_auto_id,
            version: self.version,
            last_reshape_version: self.last_reshape_version,
            wal: None,
            dirty: Mutex::new(BTreeSet::new()),
            recorder: self.recorder.clone(),
            snap: Mutex::new(None),
        }
    }
}

impl Collection {
    pub fn new(name: &str) -> Collection {
        Collection {
            name: name.to_string(),
            ..Collection::default()
        }
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    // ---- indexes ------------------------------------------------------

    /// Create a secondary index over a (dotted) field. Idempotent.
    pub fn create_index(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        let mut idx = FieldIndex::default();
        for (&seq, doc) in &self.docs {
            idx.insert(seq, index_keys_of(doc, field));
        }
        self.indexes.insert(field.to_string(), idx);
    }

    // ---- versioning -----------------------------------------------------

    /// Monotonically increasing counter, bumped by every successful
    /// mutation (insert, update, delete). Equal versions mean the
    /// collection is unchanged.
    pub fn mutation_version(&self) -> u64 {
        self.version
    }

    /// A watermark for [`Collection::iter_from`]: documents inserted
    /// after this call get sequence numbers `>=` the returned value.
    pub fn append_watermark(&self) -> u64 {
        self.next_seq
    }

    /// What happened to this collection since a consumer last looked, at
    /// `version`. Every incremental consumer `match`es on the answer —
    /// the snapshot memo below, `upin-core`'s stats cache — so a new
    /// kind of delta cannot be added without each of them handling it.
    pub fn delta_since(&self, version: u64) -> Delta {
        match version.cmp(&self.version) {
            Ordering::Equal => Delta::Same,
            Ordering::Greater => Delta::Ahead,
            Ordering::Less if self.last_reshape_version <= version => Delta::Appended,
            Ordering::Less => Delta::Reshaped,
        }
    }

    /// Iterate documents whose insertion sequence is `>= watermark`,
    /// in insertion order.
    pub fn iter_from(&self, watermark: u64) -> impl Iterator<Item = &Document> {
        self.docs.range(watermark..).map(|(_, d)| d)
    }

    // ---- MVCC snapshot reads --------------------------------------------

    /// Pin an immutable copy-on-write snapshot of this collection.
    ///
    /// The returned image is a frozen [`Collection`] at the current
    /// [`Collection::mutation_version`], so the whole [`crate::Query`]
    /// builder (and planner) runs against it unmodified. A reader that
    /// pins a snapshot and drops the collection lock can then evaluate
    /// arbitrarily expensive queries without blocking writers — and can
    /// never observe a half-applied [`Collection::insert_many`] group,
    /// because batches bump the version once, after fully applying.
    ///
    /// Cost is amortized through the mutation-version/append-watermark
    /// protocol (PR 2):
    ///
    /// * **hit** — version unchanged since the memoized image: a
    ///   refcount bump, no copying at all;
    /// * **merge** — pure appends since the memo
    ///   ([`Delta::Appended`]): only the documents past
    ///   the memo's watermark are replayed onto the image (copy-on-write:
    ///   if other readers still pin the old image, it is copied first, so
    ///   a pinned snapshot never changes underneath its holder);
    /// * **clone** — a reshape (update/delete) happened: full copy.
    ///
    /// Snapshots carry no WAL handle: they are detached read views, and
    /// mutating one can never log under the live collection's name.
    pub(crate) fn read_snapshot(&self) -> Arc<Collection> {
        let mut slot = self.snap.lock();
        if let Some(entry) = slot.as_mut() {
            match self.delta_since(entry.version) {
                Delta::Same => {
                    self.rec().add("pathdb.snapshot.hit", 1);
                    return Arc::clone(&entry.image);
                }
                Delta::Appended => {
                    let image = Arc::make_mut(&mut entry.image);
                    let mut appended = 0u64;
                    for (&seq, doc) in self.docs.range(entry.watermark..) {
                        image.place(seq, id_key(doc), doc.clone());
                        appended += 1;
                    }
                    // The image's counters follow. `last_reshape_version`
                    // needs no copy: only appends happened since the
                    // image took it.
                    image.next_seq = self.next_seq;
                    image.next_auto_id = self.next_auto_id;
                    image.version = self.version;
                    entry.version = self.version;
                    entry.watermark = self.next_seq;
                    self.rec().add("pathdb.snapshot.merge", 1);
                    self.rec().add("pathdb.snapshot.merge_docs", appended);
                    return Arc::clone(&entry.image);
                }
                // The memo is this collection's own and versions only
                // grow, so it is never ahead; a fresh copy is right
                // either way.
                Delta::Reshaped | Delta::Ahead => {}
            }
        }
        let image = Arc::new(self.clone());
        *slot = Some(SnapEntry {
            version: self.version,
            watermark: self.next_seq,
            image: Arc::clone(&image),
        });
        self.rec().add("pathdb.snapshot.clone", 1);
        image
    }

    // ---- rows ------------------------------------------------------------
    //
    // The three places a row enters, changes in or leaves `primary`, the
    // secondary indexes and `docs`. None of them counts anything: the
    // mutation that called them says what it did to `record`, once.

    /// Put `doc` at `seq`, which holds no row.
    fn place(&mut self, seq: u64, id_key: String, doc: Document) {
        self.primary.insert(id_key, seq);
        for (field, idx) in &mut self.indexes {
            idx.insert(seq, index_keys_of(&doc, field));
        }
        self.docs.insert(seq, doc);
    }

    /// Swap the row at `seq` for `doc`, which has the same `_id`.
    /// `false`, and nothing happened, when the two are equal.
    fn replace(&mut self, seq: u64, doc: Cow<'_, Document>) -> bool {
        match self.docs.get_mut(&seq) {
            Some(row) if *row != *doc => {
                let old = std::mem::replace(row, doc.into_owned());
                for (field, idx) in &mut self.indexes {
                    idx.remove(seq, &index_keys_of(&old, field));
                    idx.insert(seq, index_keys_of(row, field));
                }
                true
            }
            _ => false,
        }
    }

    /// Remove and return the row at `seq`.
    fn take(&mut self, seq: u64) -> Option<Document> {
        let doc = self.docs.remove(&seq)?;
        for (field, idx) in &mut self.indexes {
            idx.remove(seq, &index_keys_of(&doc, field));
        }
        self.primary.remove(&id_key(&doc));
        Some(doc)
    }

    /// The bookkeeping of one mutation: the seqs it `appended` (rows
    /// placed where none was) and the seqs it `reshaped` (rows replaced
    /// or taken). Bumps the version once if it did anything, marks a
    /// reshape, and names the slices whose files are now stale — the
    /// only writer of all three.
    fn record(&mut self, appended: Range<u64>, reshaped: &[u64]) {
        if appended.is_empty() && reshaped.is_empty() {
            return;
        }
        self.version += 1;
        if !reshaped.is_empty() {
            self.last_reshape_version = self.version;
        }
        let dirty = self.dirty.get_mut();
        if !appended.is_empty() {
            // Once per batch, not per row: the range's slices.
            dirty.extend(appended.start / SLICE_ROWS..=(appended.end - 1) / SLICE_ROWS);
        }
        dirty.extend(reshaped.iter().map(|seq| seq / SLICE_ROWS));
    }

    // ---- writes ---------------------------------------------------------

    /// Insert one document. A missing `_id` gets an auto-generated one.
    /// Returns the document's id key.
    pub fn insert_one(&mut self, doc: Document) -> DbResult<String> {
        let mut ids = self.insert_logged(vec![doc], |coll, staged| WalOpRef::Insert {
            coll,
            doc: &staged[0].1,
        })?;
        Ok(ids.pop().expect("one id per inserted document"))
    }

    /// Bulk insertion: all-or-nothing. This is the batched write path the
    /// paper prefers for scalability (§4.2.2) — one call per destination
    /// instead of one per measurement.
    pub fn insert_many(&mut self, docs: Vec<Document>) -> DbResult<Vec<String>> {
        self.insert_logged(docs, |coll, staged| WalOpRef::InsertMany {
            coll,
            docs: staged.iter().map(|(_, d)| d).collect(),
        })
    }

    /// Stage, validate, log as `frame`, apply: the body of both inserts.
    fn insert_logged(&mut self, docs: Vec<Document>, frame: InsertFrame) -> DbResult<Vec<String>> {
        // Pre-validate ids (including duplicates within the batch) so a
        // failure leaves the collection untouched.
        let mut staged: Vec<(String, Document)> = Vec::with_capacity(docs.len());
        for mut doc in docs {
            let id_key = self.prepare_id(&mut doc)?;
            staged.push((id_key, doc));
        }
        let mut batch_ids: HashSet<&str> = HashSet::with_capacity(staged.len());
        if let Some((dup, _)) = staged.iter().find(|(id, _)| !batch_ids.insert(id)) {
            return Err(DbError::DuplicateId(dup.clone()));
        }
        // Validation passed: the batch is one WAL commit group, so the
        // log preserves insert_many's all-or-nothing contract across
        // crashes too (§4.2.2 — one group per destination batch). Log
        // before applying: a write the log could not make durable is
        // refused outright, leaving the collection untouched.
        if !staged.is_empty() {
            self.wal_commit(frame(&self.name, &staged), staged.len() as u64)?;
        }
        let first = self.next_seq;
        let mut ids = Vec::with_capacity(staged.len());
        for (id_key, doc) in staged {
            self.place(self.next_seq, id_key.clone(), doc);
            self.next_seq += 1;
            ids.push(id_key);
        }
        self.record(first..self.next_seq, &[]);
        Ok(ids)
    }

    /// Atomically upsert a batch of post-image documents: each replaces
    /// the live document with the same `_id` in place (keeping its
    /// insertion sequence) or is appended. Every document must carry an
    /// explicit `_id`. The whole batch is one WAL commit group and bumps
    /// the mutation version once, after fully applying, so snapshot
    /// readers and crash recovery see all of it or none of it — the
    /// primitive [`crate::rollup`] uses to land "aggregate rows plus
    /// covered watermark" as a single crash-atomic effect group.
    pub(crate) fn upsert_many(&mut self, docs: Vec<Document>) -> DbResult<usize> {
        for doc in &docs {
            if doc.get("_id").is_none() {
                return Err(DbError::BadDocument(
                    "upsert_many requires an explicit _id on every document".into(),
                ));
            }
        }
        let first = self.next_seq;
        let mut replaced = Vec::new();
        for doc in &docs {
            if let Upserted::Replaced(seq) = self.upsert_row(None, Cow::Borrowed(doc)) {
                replaced.push(seq);
            }
        }
        let changed = (self.next_seq - first) as usize + replaced.len();
        self.record(first..self.next_seq, &replaced);
        if changed > 0 {
            // Apply-then-log, as for updates: the log carries the
            // post-images (replayed as idempotent upserts) and a
            // failure poisons the WAL rather than being refused.
            let coll = &self.name;
            let _ = self.wal_commit(WalOpRef::Update { coll, docs: &docs }, docs.len() as u64);
        }
        Ok(changed)
    }

    /// Upsert one post-image: swap it for the live row with its `_id`,
    /// where that is, or place it at `at` (the allocator when `None`).
    /// A document without an id — the log and the slice files never
    /// hold one; tolerated anyway — gets a generated one.
    fn upsert_row(&mut self, at: Option<u64>, mut doc: Cow<'_, Document>) -> Upserted {
        if doc.get("_id").is_none() {
            let _ = self.prepare_id(doc.to_mut());
        }
        let key = id_key(&doc);
        match self.primary.get(&key).copied() {
            Some(seq) => {
                if self.replace(seq, doc) {
                    Upserted::Replaced(seq)
                } else {
                    Upserted::Unchanged
                }
            }
            None => {
                let seq = at.unwrap_or(self.next_seq);
                self.next_seq = self.next_seq.max(seq + 1);
                self.place(seq, key, doc.into_owned());
                Upserted::Placed(seq)
            }
        }
    }

    fn prepare_id(&mut self, doc: &mut Document) -> DbResult<String> {
        let id_key = match doc.get("_id") {
            Some(v) => v.index_key(),
            None => {
                // A user may have inserted an explicit `auto:N` id; skip
                // forward past taken ids instead of reporting a spurious
                // duplicate.
                let (id, key) = loop {
                    let id = format!("auto:{}", self.next_auto_id);
                    self.next_auto_id += 1;
                    let key = Value::Str(id.clone()).index_key();
                    if !self.primary.contains_key(&key) {
                        break (id, key);
                    }
                };
                doc.set("_id", id);
                key
            }
        };
        if self.primary.contains_key(&id_key) {
            return Err(DbError::DuplicateId(id_key));
        }
        Ok(id_key)
    }

    /// Update all documents matching `filter`; returns how many matched.
    pub fn update_many(&mut self, filter: &Filter, update: &Update) -> usize {
        let mut seqs: Vec<u64> = plan::matching_seqs(self, filter);
        let mut post_images = Vec::new();
        seqs.retain(|&seq| {
            let Some(mut doc) = self.take(seq) else {
                return false;
            };
            update.apply(&mut doc);
            if self.wal.is_some() {
                post_images.push(doc.clone());
            }
            self.place(seq, id_key(&doc), doc);
            true
        });
        self.record(0..0, &seqs);
        if !seqs.is_empty() {
            // Filters are not serialized; the log carries the updated
            // documents themselves, replayed as upserts. Already
            // applied, so a log failure cannot be refused: it poisons
            // the WAL (surfaced by `Database::wal_health`) and the next
            // checkpoint restores durability.
            let (coll, docs) = (&self.name, &post_images[..]);
            let _ = self.wal_commit(WalOpRef::Update { coll, docs }, docs.len() as u64);
        }
        seqs.len()
    }

    /// Delete all documents matching `filter`; returns how many were
    /// actually removed (not merely matched).
    pub fn delete_many(&mut self, filter: &Filter) -> usize {
        let mut seqs: Vec<u64> = plan::matching_seqs(self, filter);
        let mut removed_ids = Vec::new();
        seqs.retain(|&seq| {
            let Some(doc) = self.take(seq) else {
                return false;
            };
            if self.wal.is_some() {
                removed_ids.extend(doc.get("_id").cloned());
            }
            true
        });
        self.record(0..0, &seqs);
        if !seqs.is_empty() {
            // Apply-then-log, as for updates: failure poisons.
            let (coll, ids) = (&self.name, &removed_ids[..]);
            let _ = self.wal_commit(WalOpRef::Delete { coll, ids }, ids.len() as u64);
        }
        seqs.len()
    }

    // ---- durability (see `crate::wal`) ----------------------------------

    /// Attach (or detach) the database's write-ahead log. Subsequent
    /// mutations commit their effects through it.
    pub(crate) fn set_wal(&mut self, wal: Option<Arc<Wal>>) {
        self.wal = wal;
    }

    /// Attach (or detach) a telemetry recorder. Planner decisions and
    /// WAL commits report through it; `None` restores the no-op sink.
    pub(crate) fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        self.recorder = recorder;
    }

    /// Take (and clear) the dirty-slice set, ascending. Callable under
    /// the read lock: no writer can run, so the set and the rows a
    /// checkpoint encodes in the same lock hold agree.
    pub(crate) fn take_dirty(&self) -> Vec<u64> {
        std::mem::take(&mut *self.dirty.lock())
            .into_iter()
            .collect()
    }

    /// Hand slices back after a checkpoint that took them failed.
    pub(crate) fn mark_dirty(&self, slices: Vec<u64>) {
        self.dirty.lock().extend(slices);
    }

    /// Every slice that holds at least one row, ascending.
    pub(crate) fn live_slices(&self) -> Vec<u64> {
        let mut slices = Vec::new();
        for slice in self.docs.keys().map(|seq| seq / SLICE_ROWS) {
            if slices.last() != Some(&slice) {
                slices.push(slice);
            }
        }
        slices
    }

    /// The rows of one slice with their insertion sequences, in order.
    pub(crate) fn slice_rows(&self, slice: u64) -> impl Iterator<Item = (u64, &Document)> {
        let start = slice * SLICE_ROWS;
        self.docs
            .range(start..start + SLICE_ROWS)
            .map(|(s, d)| (*s, d))
    }

    /// The active telemetry sink (the shared no-op when none is set).
    pub(crate) fn rec(&self) -> &dyn Recorder {
        match &self.recorder {
            Some(r) => r.as_ref(),
            None => &NOOP,
        }
    }

    /// Commit `op` as one WAL group (nothing to do without a log),
    /// reporting op counts (deterministic) and wall-clock latency
    /// (under the `wall.` prefix — real I/O time, excluded from the
    /// determinism contract).
    fn wal_commit(&self, op: WalOpRef<'_>, docs: u64) -> DbResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let started = Instant::now();
        let out = wal.commit_ref(&[op]);
        self.rec().observe(
            "wall.pathdb.wal.commit_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        self.rec().add("pathdb.wal.commit_groups", 1);
        self.rec().add("pathdb.wal.ops", docs);
        if out.is_err() {
            self.rec().add("pathdb.wal.commit_errors", 1);
        }
        out
    }

    /// Apply a logged post-image: replace the live document with the
    /// same `_id` in place (keeping its insertion sequence), or append
    /// it. Idempotent — replaying an effect twice converges — which is
    /// what lets recovery replay a WAL whose prefix a snapshot already
    /// contains. Never logs; only the replay path calls this.
    pub(crate) fn apply_upsert(&mut self, doc: Document) {
        self.apply_upsert_to(None, doc);
    }

    /// [`Collection::apply_upsert`] at an explicit insertion sequence —
    /// the durable-snapshot loader's path. Snapshots persist each row's
    /// seq (and the manifest the allocator), so the insertion-sequence
    /// space is *stable across recovery*: an absolute watermark taken
    /// before a crash (the rollup meta document) still names the same
    /// rows afterwards, instead of being silently re-pointed by a
    /// compacting renumber.
    pub(crate) fn apply_upsert_at(&mut self, seq: u64, doc: Document) {
        self.apply_upsert_to(Some(seq), doc);
    }

    fn apply_upsert_to(&mut self, at: Option<u64>, doc: Document) {
        match self.upsert_row(at, Cow::Owned(doc)) {
            Upserted::Unchanged => {}
            Upserted::Replaced(seq) => self.record(0..0, &[seq]),
            Upserted::Placed(seq) => self.record(seq..seq + 1, &[]),
        }
    }

    /// Restore the insertion-sequence allocator (never moves backward):
    /// even with every row of a snapshot deleted, recovery re-allocates
    /// from where the crashed process stopped.
    pub(crate) fn set_next_seq_at_least(&mut self, n: u64) {
        self.next_seq = self.next_seq.max(n);
    }

    /// Apply a logged delete: drop documents by `_id`, silently
    /// skipping ids that are already gone (idempotent replay).
    pub(crate) fn apply_delete_ids(&mut self, ids: &[Value]) {
        let mut seqs = Vec::new();
        for id in ids {
            if let Some(&seq) = self.primary.get(&id.index_key()) {
                if self.take(seq).is_some() {
                    seqs.push(seq);
                }
            }
        }
        self.record(0..0, &seqs);
    }

    // ---- reads ----------------------------------------------------------

    /// Fetch by `_id`.
    pub fn find_by_id<V: Into<Value>>(&self, id: V) -> Option<&Document> {
        let key = id.into().index_key();
        self.primary.get(&key).and_then(|seq| self.docs.get(seq))
    }

    /// Execute a filtered/sorted/paginated/projected read through the
    /// cost-based planner. The [`crate::Query`] builder's `run`/`first`
    /// terminals land here.
    pub(crate) fn run_find(&self, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        plan::find_with(self, filter, opts)
    }

    /// Borrowed matches in insertion order — the clone-free read path
    /// for aggregation and grouping ([`crate::Query::refs`]).
    pub(crate) fn run_refs(&self, filter: &Filter) -> Vec<&Document> {
        plan::matching_seqs(self, filter)
            .into_iter()
            .filter_map(|s| self.docs.get(&s))
            .collect()
    }

    pub(crate) fn run_count(&self, filter: &Filter) -> usize {
        plan::matching_seqs(self, filter).len()
    }

    /// Distinct values of a (dotted) field among matching documents.
    /// Array fields contribute their elements, like Mongo's `distinct`.
    /// Dedup is by the canonical [`Value::index_key`], which is exact:
    /// floats differing in any bit and i64 values beyond 2^53 stay
    /// distinct, while `Int(3)` and `Float(3.0)` still unify.
    pub(crate) fn run_distinct(&self, field: &str, filter: &Filter) -> Vec<Value> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        for seq in plan::matching_seqs(self, filter) {
            let Some(doc) = self.docs.get(&seq) else {
                continue;
            };
            let candidates: Vec<Value> = match doc.get_path(field) {
                Some(Value::Array(a)) => a.clone(),
                Some(v) => vec![v.clone()],
                None => continue,
            };
            for v in candidates {
                if seen.insert(v.index_key()) {
                    out.push(v);
                }
            }
        }
        out
    }

    pub(crate) fn run_explain(&self, filter: &Filter, opts: &FindOptions) -> QueryPlan {
        plan::explain(self, filter, opts)
    }

    /// Iterate all documents in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.values()
    }
}

/// How an insert spells its staged batch in the log: one
/// [`WalOpRef::Insert`] or one [`WalOpRef::InsertMany`] group.
type InsertFrame = for<'a> fn(&'a str, &'a [(String, Document)]) -> WalOpRef<'a>;

/// What [`Collection::upsert_row`] did with its document.
enum Upserted {
    Unchanged,
    Replaced(u64),
    Placed(u64),
}

/// The `primary` key of a stored row (see [`Collection::docs`]).
fn id_key(doc: &Document) -> String {
    doc.get("_id")
        .expect("stored rows carry an _id")
        .index_key()
}

/// Index keys a document contributes for `field`. Array fields index
/// each element (Mongo multikey semantics) *and* the whole array, so
/// both `Eq(field, element)` and `Eq(field, whole_array)` are served.
fn index_keys_of(doc: &Document, field: &str) -> Vec<String> {
    match doc.get_path(field) {
        Some(v @ Value::Array(a)) => {
            let mut keys: Vec<String> = a.iter().map(Value::index_key).collect();
            keys.push(v.index_key());
            keys.sort_unstable();
            keys.dedup();
            keys
        }
        Some(v) => vec![v.index_key()],
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::plan::Access;

    fn stats_collection() -> Collection {
        let mut c = Collection::new("paths_stats");
        for (id, server, hops, lat) in [
            ("1_0_100", 1i64, 5i64, 20.0),
            ("1_1_100", 1, 6, 25.0),
            ("2_0_100", 2, 6, 90.0),
            ("2_1_100", 2, 7, 155.0),
            ("2_1_200", 2, 7, 160.0),
        ] {
            c.insert_one(doc! {
                "_id" => id,
                "server_id" => server,
                "hops" => hops,
                "avg_latency_ms" => lat,
                "isds" => vec![16i64, 17],
            })
            .unwrap();
        }
        c
    }

    #[test]
    fn insert_and_find_by_id() {
        let c = stats_collection();
        assert_eq!(c.len(), 5);
        assert_eq!(
            c.find_by_id("2_0_100").unwrap().get("hops"),
            Some(&Value::Int(6))
        );
        assert!(c.find_by_id("nope").is_none());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut c = stats_collection();
        let err = c.insert_one(doc! { "_id" => "1_0_100" });
        assert!(matches!(err, Err(DbError::DuplicateId(_))));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn auto_id_assigned_when_missing() {
        let mut c = Collection::new("t");
        let id1 = c.insert_one(doc! { "x" => 1i64 }).unwrap();
        let id2 = c.insert_one(doc! { "x" => 2i64 }).unwrap();
        assert_ne!(id1, id2);
        assert!(c.iter().all(|d| d.contains_key("_id")));
    }

    #[test]
    fn auto_id_skips_user_supplied_auto_ids() {
        let mut c = Collection::new("t");
        // A user claims the ids the generator would mint next.
        c.insert_one(doc! { "_id" => "auto:0" }).unwrap();
        c.insert_one(doc! { "_id" => "auto:1" }).unwrap();
        // Generation must skip forward, not report a spurious duplicate.
        let id = c.insert_one(doc! { "x" => 1i64 }).unwrap();
        assert_eq!(id, Value::Str("auto:2".into()).index_key());
        let id = c.insert_one(doc! { "x" => 2i64 }).unwrap();
        assert_eq!(id, Value::Str("auto:3".into()).index_key());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn id_equality_uses_the_primary_index() {
        let c = stats_collection();
        // The plan says index, and the results agree with a scan.
        assert_eq!(
            c.query(Filter::eq("_id", "2_1_100")).explain().access,
            Access::Primary { keys: 1 }
        );
        let by_index = c.query(Filter::eq("_id", "2_1_100")).run();
        assert_eq!(by_index.len(), 1);
        assert_eq!(by_index[0].id(), Some("2_1_100"));
        // `$in` over ids probes one key per value, in insertion order.
        let many = c
            .query(Filter::is_in("_id", vec!["2_1_200", "1_0_100"]))
            .run();
        assert_eq!(many.len(), 2);
        assert_eq!(many[0].id(), Some("1_0_100"));
        // A conjunction keeps applying the residual filter.
        let narrowed = c
            .query(Filter::eq("_id", "2_1_100").and(Filter::gt("hops", 100i64)))
            .run();
        assert!(narrowed.is_empty());
        // Misses stay misses.
        assert!(c.query(Filter::eq("_id", "nope")).run().is_empty());
        assert!(c.query(Filter::eq("_id", "nope")).first().is_none());
        assert_eq!(
            c.query(Filter::eq("_id", "2_0_100")).first().unwrap().id(),
            Some("2_0_100")
        );
    }

    #[test]
    fn insert_many_is_atomic() {
        let mut c = stats_collection();
        let batch = vec![
            doc! { "_id" => "3_0_100" },
            doc! { "_id" => "1_0_100" }, // duplicate of an existing doc
        ];
        assert!(c.insert_many(batch).is_err());
        assert_eq!(c.len(), 5, "failed batch must not partially apply");
        assert!(c.find_by_id("3_0_100").is_none());
        // Duplicates *within* a batch are also rejected.
        let batch = vec![doc! { "_id" => "9" }, doc! { "_id" => "9" }];
        assert!(c.insert_many(batch).is_err());
        assert!(c.find_by_id("9").is_none());
    }

    #[test]
    fn find_with_filter_sort_limit() {
        let c = stats_collection();
        let out = c
            .query(Filter::eq("server_id", 2i64))
            .sort("avg_latency_ms")
            .limit(2)
            .run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("2_0_100"));
        assert_eq!(out[1].id(), Some("2_1_100"));
    }

    #[test]
    fn find_preserves_insertion_order() {
        let c = stats_collection();
        let ids: Vec<String> = c
            .query_all()
            .run()
            .iter()
            .map(|d| d.id().unwrap().to_string())
            .collect();
        assert_eq!(
            ids,
            vec!["1_0_100", "1_1_100", "2_0_100", "2_1_100", "2_1_200"]
        );
    }

    #[test]
    fn update_many_applies_and_counts() {
        let mut c = stats_collection();
        let n = c.update_many(
            &Filter::eq("server_id", 2i64),
            &Update::new().set("checked", true).inc("hops", 1.0),
        );
        assert_eq!(n, 3);
        let d = c.find_by_id("2_1_100").unwrap();
        assert_eq!(d.get("hops"), Some(&Value::Int(8)));
        assert_eq!(d.get("checked"), Some(&Value::Bool(true)));
        // Untouched documents unchanged.
        assert_eq!(c.find_by_id("1_0_100").unwrap().get("checked"), None);
    }

    /// `_id` is immutable through any path: `Document::set_path`
    /// overwrites a scalar intermediate, so an `_id.x` write that got
    /// through would turn the id into a sub-document and leave
    /// `primary` pointing at a key the row no longer has.
    #[test]
    fn a_dotted_path_under_id_is_ignored_like_id_itself() {
        let mut dotted = stats_collection();
        let mut plain = stats_collection();
        let filter = Filter::eq("server_id", 2i64);
        let n = dotted.update_many(&filter, &Update::new().set("_id.x", 1i64).inc("_id.n", 1.0));
        assert_eq!(
            n,
            plain.update_many(&filter, &Update::new().set("_id", 1i64))
        );
        assert_eq!(n, 3);
        let row = dotted
            .find_by_id("2_1_100")
            .expect("the old id still finds the row");
        assert_eq!(row.id(), Some("2_1_100"));
        assert!(dotted.iter().eq(plain.iter()));
    }

    #[test]
    fn delete_many_removes_and_frees_ids() {
        let mut c = stats_collection();
        let n = c.delete_many(&Filter::eq("server_id", 1i64));
        assert_eq!(n, 2);
        assert_eq!(c.len(), 3);
        // The id can be reused after deletion.
        c.insert_one(doc! { "_id" => "1_0_100", "fresh" => true })
            .unwrap();
        assert_eq!(
            c.find_by_id("1_0_100").unwrap().get("fresh"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn count_and_distinct() {
        let c = stats_collection();
        assert_eq!(c.query(Filter::eq("hops", 7i64)).count(), 2);
        let servers = c.query_all().distinct("server_id");
        assert_eq!(servers.len(), 2);
        // distinct over array fields flattens elements.
        let isds = c.query_all().distinct("isds");
        assert_eq!(isds.len(), 2);
    }

    #[test]
    fn secondary_index_agrees_with_scan() {
        let mut c = stats_collection();
        let filter = Filter::eq("server_id", 2i64).and(Filter::gt("avg_latency_ms", 100.0));
        let scan = c.query(&filter).run();
        c.create_index("server_id");
        assert!(c.indexes.contains_key("server_id"));
        let indexed = c.query(&filter).run();
        assert_eq!(scan, indexed);
        // Index maintained across updates and deletes.
        c.update_many(
            &Filter::eq("_id", "2_1_200"),
            &Update::new().set("server_id", 3i64),
        );
        assert_eq!(c.query(Filter::eq("server_id", 3i64)).count(), 1);
        c.delete_many(&Filter::eq("server_id", 3i64));
        assert_eq!(c.query(Filter::eq("server_id", 3i64)).count(), 0);
        assert_eq!(c.query(Filter::eq("server_id", 2i64)).count(), 2);
    }

    #[test]
    fn explain_reports_the_plan() {
        let mut c = stats_collection();
        let f = Filter::eq("server_id", 2i64).and(Filter::gt("hops", 5i64));
        assert_eq!(
            c.query(&f).explain().access,
            Access::FullScan { documents: 5 }
        );
        c.create_index("server_id");
        assert_eq!(
            c.query(&f).explain().access,
            Access::IndexPoint {
                field: "server_id".into(),
                keys: 1,
                candidates: 3
            }
        );
        // A range on the indexed field becomes an ordered-index scan.
        assert_eq!(
            c.query(Filter::gt("server_id", 1i64)).explain().access,
            Access::IndexRange {
                field: "server_id".into(),
                candidates: 3
            }
        );
        // $in probes one key per listed value — but here every document
        // qualifies, so the planner correctly prefers the scan.
        assert_eq!(
            c.query(Filter::is_in("server_id", vec![1i64, 2]))
                .explain()
                .access,
            Access::FullScan { documents: 5 }
        );
        assert_eq!(
            c.query(Filter::is_in("server_id", vec![2i64, 9]))
                .explain()
                .access,
            Access::IndexPoint {
                field: "server_id".into(),
                keys: 2,
                candidates: 3
            }
        );
    }

    #[test]
    fn range_filters_on_indexed_fields_do_not_full_scan() {
        let mut c = stats_collection();
        c.create_index("avg_latency_ms");
        // The selection engine's canonical shapes: open and between.
        let open = Filter::lt("avg_latency_ms", 100.0);
        assert_eq!(
            c.query(&open).explain().access,
            Access::IndexRange {
                field: "avg_latency_ms".into(),
                candidates: 3
            }
        );
        assert_eq!(c.query(&open).run().len(), 3);
        let between = Filter::gte("avg_latency_ms", 25.0).and(Filter::lt("avg_latency_ms", 155.0));
        assert_eq!(
            c.query(&between).explain().access,
            Access::IndexRange {
                field: "avg_latency_ms".into(),
                candidates: 2
            }
        );
        let ids: Vec<_> = c
            .query(&between)
            .run()
            .iter()
            .map(|d| d.id().unwrap().to_string())
            .collect();
        assert_eq!(ids, vec!["1_1_100", "2_0_100"]);
        // Bounds are exact: Gt excludes the boundary, Gte includes it.
        assert_eq!(c.query(Filter::gt("avg_latency_ms", 155.0)).count(), 1);
        assert_eq!(c.query(Filter::gte("avg_latency_ms", 155.0)).count(), 2);
    }

    #[test]
    fn or_of_indexable_branches_unions_indexes() {
        let mut c = stats_collection();
        c.create_index("server_id");
        c.create_index("avg_latency_ms");
        let f = Filter::eq("server_id", 1i64).or(Filter::gt("avg_latency_ms", 150.0));
        assert_eq!(
            c.query(&f).explain().access,
            Access::IndexUnion {
                branches: 2,
                candidates: 4
            }
        );
        let ids: Vec<_> = c
            .query(&f)
            .run()
            .iter()
            .map(|d| d.id().unwrap().to_string())
            .collect();
        assert_eq!(ids, vec!["1_0_100", "1_1_100", "2_1_100", "2_1_200"]);
        // One unindexable branch poisons the union: full scan.
        let g = Filter::eq("server_id", 1i64).or(Filter::contains("_id", "2_1"));
        assert!(c.query(&g).explain().access.is_full_scan());
        assert_eq!(c.query(&g).run().len(), 4);
    }

    #[test]
    fn sorted_queries_stream_the_ordered_index() {
        let mut c = stats_collection();
        c.create_index("avg_latency_ms");
        let by_latency_desc = || c.query_all().sort_by("avg_latency_ms", crate::Order::Desc);
        let plan = by_latency_desc().limit(2).explain();
        assert_eq!(plan.index_sort.as_deref(), Some("avg_latency_ms"));
        assert!(plan.limit_pushdown);
        let out = by_latency_desc().limit(2).run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("2_1_200"));
        assert_eq!(out[1].id(), Some("2_1_100"));
        // A multikey (array) index cannot serve sorts.
        c.create_index("isds");
        assert_eq!(
            c.query_all().sort("isds").limit(2).explain().index_sort,
            None
        );
    }

    #[test]
    fn unsorted_limit_is_pushed_down() {
        let c = stats_collection();
        let q = || c.query(Filter::eq("server_id", 2i64)).limit(2).skip(1);
        assert!(q().explain().limit_pushdown);
        let out = q().run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("2_1_100"));
        assert_eq!(out[1].id(), Some("2_1_200"));
        // Sorted without an eligible index: no pushdown.
        assert!(!c.query_all().sort("hops").limit(1).explain().limit_pushdown);
    }

    #[test]
    fn whole_array_equality_is_index_served() {
        let mut c = stats_collection();
        c.insert_one(doc! { "_id" => "3_0_100", "isds" => vec![19i64] })
            .unwrap();
        c.create_index("isds");
        let f = Filter::eq("isds", vec![16i64, 17]);
        assert!(!c.query(&f).explain().access.is_full_scan());
        assert_eq!(c.query(&f).count(), 5);
        // Element order matters for whole-array equality.
        assert_eq!(c.query(Filter::eq("isds", vec![17i64, 16])).count(), 0);
        assert_eq!(c.query(Filter::eq("isds", vec![19i64])).count(), 1);
    }

    #[test]
    fn null_equality_never_trusts_an_index() {
        let mut c = Collection::new("t");
        c.insert_one(doc! { "_id" => "a", "x" => Value::Null })
            .unwrap();
        c.insert_one(doc! { "_id" => "b" }).unwrap(); // x missing
        c.insert_one(doc! { "_id" => "c", "x" => 1i64 }).unwrap();
        c.create_index("x");
        // Eq(x, Null) matches explicit nulls AND missing fields; the
        // latter are absent from the index, so the planner must scan.
        let f = Filter::eq("x", Value::Null);
        assert!(c.query(&f).explain().access.is_full_scan());
        assert_eq!(c.query(&f).count(), 2);
    }

    #[test]
    fn intersection_of_selective_indexes() {
        let mut c = Collection::new("t");
        for i in 0..100i64 {
            c.insert_one(doc! { "a" => i % 10, "b" => i % 7 }).unwrap();
        }
        c.create_index("a");
        c.create_index("b");
        let f = Filter::eq("a", 3i64).and(Filter::eq("b", 2i64));
        let plan = c.query(&f).explain();
        if let Access::IndexIntersect { fields, candidates } = &plan.access {
            assert_eq!(fields.len(), 2);
            assert!(*candidates <= 10);
        } else {
            panic!("expected intersection, got {:?}", plan.access);
        }
        let scan: Vec<_> = c.iter().filter(|d| f.matches(d)).cloned().collect();
        assert_eq!(c.query(&f).run(), scan);
    }

    #[test]
    fn mutation_version_and_append_watermark() {
        let mut c = Collection::new("t");
        let v0 = c.mutation_version();
        c.insert_one(doc! { "x" => 1i64 }).unwrap();
        let v1 = c.mutation_version();
        assert!(v1 > v0);
        // Appends keep the append-only invariant.
        let w = c.append_watermark();
        c.insert_many(vec![doc! { "x" => 2i64 }, doc! { "x" => 3i64 }])
            .unwrap();
        assert_eq!(c.delta_since(v1), Delta::Appended);
        let appended: Vec<i64> = c
            .iter_from(w)
            .map(|d| d.get("x").and_then(Value::as_int).unwrap())
            .collect();
        assert_eq!(appended, vec![2, 3]);
        // An update is a reshape: append-only no longer holds.
        let v2 = c.mutation_version();
        c.update_many(&Filter::eq("x", 1i64), &Update::new().set("x", 9i64));
        assert_eq!(c.delta_since(v2), Delta::Reshaped);
        assert_eq!(c.delta_since(c.mutation_version()), Delta::Same);
        assert_eq!(c.delta_since(c.mutation_version() + 1), Delta::Ahead);
        // No-op mutations do not bump the version.
        let v3 = c.mutation_version();
        c.delete_many(&Filter::eq("x", 999i64));
        c.update_many(&Filter::eq("x", 999i64), &Update::new().set("y", 1i64));
        assert_eq!(c.mutation_version(), v3);
    }

    #[test]
    fn find_refs_matches_find() {
        let c = stats_collection();
        let f = Filter::eq("server_id", 2i64);
        let refs = c.query(&f).refs();
        let owned = c.query(&f).run();
        assert_eq!(refs.len(), owned.len());
        for (r, o) in refs.iter().zip(&owned) {
            assert_eq!(**r, *o);
        }
    }

    #[test]
    fn distinct_does_not_collapse_close_floats_or_big_ints() {
        let mut c = Collection::new("t");
        c.insert_one(doc! { "f" => 1e-9f64, "i" => 1i64 << 53 })
            .unwrap();
        c.insert_one(doc! { "f" => 2e-9f64, "i" => (1i64 << 53) + 1 })
            .unwrap();
        c.insert_one(doc! { "f" => 2e-9f64, "i" => (1i64 << 53) + 1 })
            .unwrap();
        assert_eq!(c.query_all().distinct("f").len(), 2);
        assert_eq!(c.query_all().distinct("i").len(), 2);
        // Int/Float unification is preserved.
        c.insert_one(doc! { "f" => 3i64 }).unwrap();
        c.insert_one(doc! { "f" => 3.0f64 }).unwrap();
        assert_eq!(c.query_all().distinct("f").len(), 3);
    }

    #[test]
    fn index_on_array_field_is_multikey() {
        let mut c = stats_collection();
        c.create_index("isds");
        assert_eq!(c.query(Filter::eq("isds", 16i64)).count(), 5);
        assert_eq!(c.query(Filter::eq("isds", 99i64)).count(), 0);
    }

    #[test]
    fn point_lookups_follow_multikey_arrays_removed_keys_and_emptied_lists() {
        let mut c = stats_collection();
        c.create_index("isds");
        let point = |c: &Collection, v: Value| {
            let idx = &c.indexes["isds"];
            let key = v.index_key();
            let seqs: Vec<u64> = idx.point_seqs(&key).collect();
            assert_eq!(idx.point_count(&key), seqs.len());
            seqs
        };
        // An array posts under each element and under the whole array.
        assert_eq!(point(&c, Value::Int(16)), [0, 1, 2, 3, 4]);
        assert_eq!(point(&c, Value::from(vec![16i64, 17])), [0, 1, 2, 3, 4]);
        // An update that drops an element leaves that key's list.
        let moved = Filter::eq("server_id", 1i64);
        c.update_many(&moved, &Update::new().set("isds", vec![17i64, 19]));
        assert_eq!(point(&c, Value::Int(16)), [2, 3, 4]);
        assert_eq!(point(&c, Value::Int(17)), [0, 1, 2, 3, 4]);
        assert_eq!(point(&c, Value::Int(19)), [0, 1]);
        // The planner's cost and candidates come from the same lists.
        let nineteen = Filter::eq("isds", 19i64);
        assert_eq!(
            c.query(&nineteen).explain().access,
            Access::IndexPoint {
                field: "isds".into(),
                keys: 1,
                candidates: 2
            }
        );
        assert_eq!(c.query(&nineteen).count(), 2);
        // Deleting the last poster removes the key, not just its seqs.
        c.delete_many(&moved);
        assert_eq!(point(&c, Value::Int(19)), []);
        assert!(!c.indexes["isds"]
            .ordered
            .contains_key(&Value::Int(19).index_key()));
        assert_eq!(point(&c, Value::Int(17)), [2, 3, 4]);
    }

    #[test]
    fn snapshot_answers_queries_identically_to_the_live_collection() {
        let mut c = stats_collection();
        c.create_index("server_id");
        let snap = c.read_snapshot();
        let f = Filter::eq("server_id", 2i64);
        assert_eq!(snap.query(&f).sort("avg_latency_ms").run(), {
            c.query(&f).sort("avg_latency_ms").run()
        });
        assert_eq!(snap.query(&f).count(), c.query(&f).count());
        assert_eq!(
            snap.query(&f).explain().access,
            c.query(&f).explain().access,
            "snapshots carry the secondary indexes"
        );
        assert_eq!(snap.query_all().distinct("server_id").len(), 2);
        assert_eq!(snap.find_by_id("2_0_100").unwrap(), {
            c.find_by_id("2_0_100").unwrap()
        });
    }

    #[test]
    fn unchanged_version_reserves_the_same_image() {
        let c = stats_collection();
        let a = c.read_snapshot();
        let b = c.read_snapshot();
        assert!(Arc::ptr_eq(&a, &b), "hit path is a refcount bump");
    }

    #[test]
    fn pinned_snapshot_is_immutable_under_appends_and_reshapes() {
        let mut c = stats_collection();
        let old = c.read_snapshot();
        assert_eq!(old.len(), 5);
        // Append: the memo merges incrementally, but the pinned image
        // must not change (copy-on-write while `old` is still held).
        c.insert_one(doc! { "_id" => "3_0_100", "server_id" => 3i64 })
            .unwrap();
        let mid = c.read_snapshot();
        assert_eq!(old.len(), 5, "pinned image untouched by the merge");
        assert_eq!(mid.len(), 6);
        assert!(mid.find_by_id("3_0_100").is_some());
        assert_eq!(mid.mutation_version(), c.mutation_version());
        // Reshape: full re-clone; earlier images still untouched.
        c.delete_many(&Filter::eq("server_id", 1i64));
        let new = c.read_snapshot();
        assert_eq!(old.len(), 5);
        assert_eq!(mid.len(), 6);
        assert_eq!(new.len(), 4);
        assert_eq!(new.delta_since(new.mutation_version()), Delta::Same);
        assert_eq!(old.delta_since(new.mutation_version()), Delta::Ahead);
    }

    #[test]
    fn append_merge_reuses_the_memo_when_unpinned() {
        let mut c = stats_collection();
        {
            let _warm = c.read_snapshot();
        }
        // No outstanding pins: the merge may update the memo in place.
        c.insert_one(doc! { "_id" => "4_0_100", "server_id" => 4i64 })
            .unwrap();
        let snap = c.read_snapshot();
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.query(Filter::eq("server_id", 4i64)).count(), 1);
        // The merged image serves subsequent hits.
        assert!(Arc::ptr_eq(&snap, &c.read_snapshot()));
    }

    #[test]
    fn snapshot_never_observes_a_half_applied_batch() {
        // insert_many bumps the version once, after fully applying: any
        // snapshot therefore sees either none or all of a batch.
        let mut c = Collection::new("t");
        let v0 = c.mutation_version();
        c.insert_many((0..10i64).map(|i| doc! { "x" => i }).collect())
            .unwrap();
        assert_eq!(c.mutation_version(), v0 + 1);
        let snap = c.read_snapshot();
        assert_eq!(snap.len(), 10, "whole batch visible");
        let again = c.read_snapshot();
        assert!(Arc::ptr_eq(&snap, &again));
    }

    #[test]
    fn snapshot_of_indexed_collection_maintains_merged_indexes() {
        let mut c = stats_collection();
        c.create_index("server_id");
        let _pin = c.read_snapshot();
        c.insert_one(doc! { "_id" => "2_9_100", "server_id" => 2i64 })
            .unwrap();
        let snap = c.read_snapshot();
        // The merged image's index saw the appended row.
        assert!(!snap
            .query(Filter::eq("server_id", 2i64))
            .explain()
            .access
            .is_full_scan());
        assert_eq!(snap.query(Filter::eq("server_id", 2i64)).count(), 4);
    }

    #[test]
    fn delete_many_routes_range_filters_through_the_planner() {
        // Retention expiry's hot path: a `$lt` over an indexed time
        // field must delete via an ordered-index range scan, not a full
        // collection scan.
        let mut c = Collection::new("paths_stats");
        c.create_index("timestamp_ms");
        c.insert_many(
            (0..100i64)
                .map(|i| doc! { "_id" => format!("{i}"), "timestamp_ms" => i * 1000 })
                .collect(),
        )
        .unwrap();
        let filter = Filter::lt("timestamp_ms", 20_000i64);
        let plan = c.query(&filter).explain();
        assert!(
            matches!(
                &plan.access,
                crate::plan::Access::IndexRange { field, candidates }
                    if field == "timestamp_ms" && *candidates == 20
            ),
            "expected an index range scan, got {:?}",
            plan.access
        );
        assert_eq!(c.delete_many(&filter), 20);
        assert_eq!(c.len(), 80);

        // The same filter over an unindexed field falls back to a full
        // scan — the contrast pins that the index is what's routing.
        let mut flat = Collection::new("flat");
        flat.insert_many(
            (0..10i64)
                .map(|i| doc! { "_id" => format!("{i}"), "timestamp_ms" => i })
                .collect(),
        )
        .unwrap();
        assert!(flat
            .query(Filter::lt("timestamp_ms", 5i64))
            .explain()
            .access
            .is_full_scan());
    }

    #[test]
    fn live_version_arithmetic_is_one_bump_per_effective_call() {
        let mut c = Collection::new("t");
        let at = |c: &Collection| (c.mutation_version(), c.append_watermark());
        assert_eq!(at(&c), (0, 0));
        c.insert_one(doc! { "_id" => "a", "x" => 1i64 }).unwrap();
        assert_eq!(at(&c), (1, 1));
        let batch = (2..5i64).map(|x| doc! { "x" => x }).collect();
        assert_eq!(c.insert_many(batch).unwrap().len(), 3);
        assert_eq!(at(&c), (2, 4), "one bump per batch, one seq per row");
        assert_eq!(c.delta_since(0), Delta::Appended);
        assert_eq!(c.delta_since(1), Delta::Appended);
        // Calls that change nothing leave both counters alone.
        assert!(c.insert_many(Vec::new()).unwrap().is_empty());
        let miss = Filter::eq("x", 999i64);
        assert_eq!(c.update_many(&miss, &Update::new().set("y", 1i64)), 0);
        assert_eq!(c.delete_many(&miss), 0);
        let same = vec![doc! { "_id" => "a", "x" => 1i64 }];
        assert_eq!(c.upsert_many(same).unwrap(), 0);
        assert!(c.insert_one(doc! { "_id" => "a" }).is_err());
        assert_eq!(at(&c), (2, 4));
        assert_eq!(c.delta_since(2), Delta::Same);
        // An upsert that replaces one row and appends another is one
        // bump, one seq and a reshape.
        let mixed = vec![doc! { "_id" => "a", "x" => 7i64 }, doc! { "_id" => "b" }];
        assert_eq!(c.upsert_many(mixed).unwrap(), 2);
        assert_eq!(at(&c), (3, 5));
        assert_eq!(c.delta_since(2), Delta::Reshaped);
        // An upsert that only appends is an append.
        assert_eq!(c.upsert_many(vec![doc! { "_id" => "c" }]).unwrap(), 1);
        assert_eq!(at(&c), (4, 6));
        assert_eq!(c.delta_since(3), Delta::Appended);
        // An update counts the rows it matched, changed or not.
        assert_eq!(c.update_many(&Filter::eq("x", 7i64), &Update::new()), 1);
        assert_eq!(at(&c), (5, 6));
        assert_eq!(c.delta_since(4), Delta::Reshaped);
        assert_eq!(c.delete_many(&Filter::gte("x", 3i64)), 3);
        assert_eq!(at(&c), (6, 6), "a delete frees no seq");
        assert_eq!(c.delta_since(5), Delta::Reshaped);
        assert_eq!(c.delta_since(6), Delta::Same);
        assert_eq!(c.delta_since(7), Delta::Ahead);
        assert_eq!(c.take_dirty(), vec![0]);
        assert!(c.take_dirty().is_empty());
    }

    // ---- every entry point against a model -------------------------------

    use crate::snapshot::{decode_jsonl, encode_jsonl_seq, take_seq, LoadOptions};
    use crate::storage::{FaultyStorage, Storage};
    use crate::wal::{read_wal, wal_path, WalOp};
    use proptest::prelude::*;
    use std::path::Path;

    /// `k` (scalar index) and `tags` (multikey index), each optional.
    type RowSpec = (Option<i64>, Option<Vec<i64>>);

    #[derive(Debug, Clone)]
    enum Pick {
        KBelow(i64),
        Tag(i64),
        /// The n-th live row, by `_id`.
        Live(u8),
        Nothing,
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// `id`: 0 = auto-generated, 1 = fresh, 2 = taken (must fail).
        InsertOne(u8, RowSpec),
        /// `Some(n)`: the n-th row repeats an id (must fail whole).
        InsertMany(Vec<RowSpec>, Option<u8>),
        /// Per document: the row it aims at, and 0 = that row's own
        /// content, 1 = new content under its id, 2 = a fresh id.
        UpsertMany(Vec<(u8, u8, RowSpec)>),
        /// Change: 0 = nothing, 1 = inc k, 2 = push a tag, 3 = unset
        /// tags, 4 = set tags.
        UpdateMany(Pick, u8, Vec<i64>),
        DeleteMany(Pick),
        Pin,
        Unpin,
        Checkpoint,
        Reload,
    }

    fn arb_row() -> impl Strategy<Value = RowSpec> {
        (
            prop::option::of(0i64..60),
            prop::option::of(prop::collection::vec(0i64..4, 0..3)),
        )
    }

    fn arb_pick() -> impl Strategy<Value = Pick> {
        prop_oneof![
            (0i64..60).prop_map(Pick::KBelow),
            (0i64..4).prop_map(Pick::Tag),
            any::<u8>().prop_map(Pick::Live),
            Just(Pick::Nothing),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let tags = || prop::collection::vec(0i64..4, 0..3);
        prop_oneof![
            ((0u8..3), arb_row()).prop_map(|(id, row)| Step::InsertOne(id, row)),
            prop::collection::vec(arb_row(), 0..40).prop_map(|rows| Step::InsertMany(rows, None)),
            prop::collection::vec(arb_row(), 0..40).prop_map(|rows| Step::InsertMany(rows, None)),
            (prop::collection::vec(arb_row(), 1..6), any::<u8>())
                .prop_map(|(rows, n)| Step::InsertMany(rows, Some(n))),
            prop::collection::vec((any::<u8>(), (0u8..3), arb_row()), 0..6)
                .prop_map(Step::UpsertMany),
            (arb_pick(), (0u8..5), tags()).prop_map(|(p, ch, t)| Step::UpdateMany(p, ch, t)),
            arb_pick().prop_map(Step::DeleteMany),
            arb_pick().prop_map(Step::DeleteMany),
            Just(Step::Pin),
            Just(Step::Pin),
            Just(Step::Unpin),
            Just(Step::Checkpoint),
            Just(Step::Reload),
        ]
    }

    fn row(id: Option<String>, (k, tags): &RowSpec) -> Document {
        let mut d = Document::new();
        if let Some(id) = id {
            d.set("_id", id);
        }
        if let Some(k) = k {
            d.set("k", *k);
        }
        if let Some(tags) = tags {
            d.set("tags", tags.clone());
        }
        d
    }

    type IndexImage<'a> = BTreeMap<&'a str, (&'a BTreeMap<String, BTreeSet<u64>>, usize, usize)>;

    fn index_image(c: &Collection) -> IndexImage<'_> {
        c.indexes
            .iter()
            .map(|(f, i)| (f.as_str(), (&i.ordered, i.indexed_docs, i.multikey_docs)))
            .collect()
    }

    /// `primary`, `docs` and the indexes agree with each other.
    fn assert_consistent(c: &Collection) {
        assert_eq!(c.primary.len(), c.docs.len());
        for (seq, doc) in &c.docs {
            let key = doc.get("_id").expect("every row has an id").index_key();
            assert_eq!(c.primary.get(&key), Some(seq));
        }
        let mut rebuilt = c.clone();
        rebuilt.indexes.clear();
        for field in c.indexes.keys() {
            rebuilt.create_index(field);
        }
        assert_eq!(index_image(c), index_image(&rebuilt));
    }

    /// A live collection logging to an in-memory WAL, the model of what
    /// it must hold, and a hand-rolled checkpoint (the dirty slices'
    /// bytes) to reload it from — indexes in place, which a
    /// [`crate::Database`] reopen never has.
    struct Harness {
        storage: FaultyStorage,
        wal: Arc<Wal>,
        c: Collection,
        slices: BTreeMap<u64, Vec<u8>>,
        slices_next_seq: u64,
        rows: BTreeMap<u64, Document>,
        next_seq: u64,
        /// Versions the model has watched since `base`, each with
        /// whether its mutation reshaped.
        base: u64,
        events: Vec<bool>,
        /// Slices touched since the dirty set was last taken.
        touched: BTreeSet<u64>,
        pins: Vec<(Arc<Collection>, BTreeMap<u64, Document>)>,
        fresh: u32,
    }

    impl Harness {
        /// Rows start just below a slice boundary so a short run
        /// already spans several slices.
        const FIRST_SEQ: u64 = SLICE_ROWS - 8;

        fn indexed() -> Collection {
            let mut c = Collection::new("rows");
            c.create_index("k");
            c.create_index("tags");
            c
        }

        fn new() -> Harness {
            let storage = FaultyStorage::new();
            let wal = Arc::new(Wal::new(Arc::new(storage.clone()), "/db".into(), 1));
            let mut c = Harness::indexed();
            c.set_next_seq_at_least(Harness::FIRST_SEQ);
            c.set_wal(Some(wal.clone()));
            Harness {
                storage,
                wal,
                c,
                slices: BTreeMap::new(),
                slices_next_seq: Harness::FIRST_SEQ,
                rows: BTreeMap::new(),
                next_seq: Harness::FIRST_SEQ,
                base: 0,
                events: Vec::new(),
                touched: BTreeSet::new(),
                pins: Vec::new(),
                fresh: 0,
            }
        }

        fn fresh_id(&mut self) -> String {
            self.fresh += 1;
            format!("r{}", self.fresh)
        }

        fn live(&self, n: u8) -> Option<(u64, &Document)> {
            let n = n as usize % self.rows.len().max(1);
            self.rows.iter().nth(n).map(|(s, d)| (*s, d))
        }

        fn live_id(&self, n: u8) -> Option<String> {
            self.live(n).map(|(_, d)| d.id().unwrap().to_string())
        }

        fn filter(&self, pick: &Pick) -> Filter {
            match pick {
                Pick::KBelow(k) => Filter::lt("k", *k),
                Pick::Tag(t) => Filter::eq("tags", *t),
                Pick::Live(n) => Filter::eq("_id", self.live_id(*n).unwrap_or_default()),
                Pick::Nothing => Filter::eq("k", 999i64),
            }
        }

        fn matching(&self, filter: &Filter) -> Vec<u64> {
            let hit = |(s, d): (&u64, &Document)| filter.matches(d).then_some(*s);
            self.rows.iter().filter_map(hit).collect()
        }

        /// The model's side of one live call: rows appended at the
        /// allocator, rows replaced (`Some`) or removed (`None`) in place.
        fn expect(&mut self, appended: Vec<Document>, reshaped: Vec<(u64, Option<Document>)>) {
            if appended.is_empty() && reshaped.is_empty() {
                return;
            }
            self.events.push(!reshaped.is_empty());
            for doc in appended {
                self.touched.insert(self.next_seq / SLICE_ROWS);
                self.rows.insert(self.next_seq, doc);
                self.next_seq += 1;
            }
            for (seq, doc) in reshaped {
                self.touched.insert(seq / SLICE_ROWS);
                match doc {
                    Some(doc) => self.rows.insert(seq, doc),
                    None => self.rows.remove(&seq),
                };
            }
        }

        /// What the collection stored for rows it just appended — the
        /// input plus, where that had none, a generated `_id`.
        fn stored(&self, inputs: &[Document]) -> Vec<Document> {
            let stored: Vec<Document> = self.c.iter_from(self.next_seq).cloned().collect();
            assert_eq!(stored.len(), inputs.len());
            for (got, input) in stored.iter().zip(inputs) {
                let mut want = input.clone();
                if want.get("_id").is_none() {
                    assert!(got.id().unwrap().starts_with("auto:"));
                    want.set("_id", got.id().unwrap());
                }
                assert_eq!(*got, want);
            }
            stored
        }

        fn version(&self) -> u64 {
            self.base + self.events.len() as u64
        }

        fn delta(&self, v: u64) -> Delta {
            match v.cmp(&self.version()) {
                Ordering::Equal => Delta::Same,
                Ordering::Greater => Delta::Ahead,
                Ordering::Less if self.events[(v - self.base) as usize..].contains(&true) => {
                    Delta::Reshaped
                }
                Ordering::Less => Delta::Appended,
            }
        }

        fn step(&mut self, step: &Step) {
            match step {
                Step::InsertOne(id, spec) => {
                    let id = match id {
                        0 => None,
                        1 => Some(self.fresh_id()),
                        _ => Some(self.live_id(0).unwrap_or_else(|| self.fresh_id())),
                    };
                    let taken = id
                        .as_ref()
                        .is_some_and(|id| self.c.find_by_id(id.as_str()).is_some());
                    let doc = row(id, spec);
                    match self.c.insert_one(doc.clone()) {
                        Ok(key) => {
                            assert!(!taken);
                            let stored = self.stored(&[doc]);
                            assert_eq!(key, stored[0].get("_id").unwrap().index_key());
                            self.expect(stored, vec![]);
                        }
                        Err(e) => assert!(taken && matches!(e, DbError::DuplicateId(_))),
                    }
                }
                Step::InsertMany(specs, dup) => {
                    let mut docs: Vec<Document> = Vec::new();
                    for (i, spec) in specs.iter().enumerate() {
                        // Every fourth row leaves its id to the collection.
                        let id = (i % 4 != 3).then(|| self.fresh_id());
                        docs.push(row(id, spec));
                    }
                    let mut fails = false;
                    if let Some(n) = dup {
                        // Repeat a live row's id, or else the batch's own first.
                        let id = self.live_id(*n).or(docs[0].id().map(String::from));
                        if let Some(id) = id {
                            let at = *n as usize % docs.len();
                            fails = at != 0 || self.c.find_by_id(id.as_str()).is_some();
                            docs[at].set("_id", id);
                        }
                    }
                    match self.c.insert_many(docs.clone()) {
                        Ok(keys) => {
                            assert!(!fails);
                            let stored = self.stored(&docs);
                            for (key, doc) in keys.iter().zip(&stored) {
                                assert_eq!(*key, doc.get("_id").unwrap().index_key());
                            }
                            self.expect(stored, vec![]);
                        }
                        Err(e) => assert!(fails && matches!(e, DbError::DuplicateId(_))),
                    }
                }
                Step::UpsertMany(targets) => {
                    let mut docs = Vec::new();
                    for (n, how, spec) in targets {
                        docs.push(match (how, self.live(*n)) {
                            (0, Some((_, doc))) => doc.clone(),
                            (1, Some((_, doc))) => row(doc.id().map(String::from), spec),
                            _ => row(Some(self.fresh_id()), spec),
                        });
                    }
                    // In order, like the collection: a later document
                    // may aim at a row an earlier one appended.
                    let mut model = self.rows.clone();
                    let (mut appended, mut reshaped) = (Vec::new(), Vec::new());
                    let mut next = self.next_seq;
                    for doc in &docs {
                        match model.iter().find(|(_, d)| d.id() == doc.id()) {
                            Some((_, old)) if old == doc => {}
                            Some((&seq, _)) => {
                                model.insert(seq, doc.clone());
                                reshaped.push(seq);
                            }
                            None => {
                                model.insert(next, doc.clone());
                                appended.push(doc.clone());
                                next += 1;
                            }
                        }
                    }
                    let changed = appended.len() + reshaped.len();
                    assert_eq!(self.c.upsert_many(docs).unwrap(), changed);
                    let reshaped = reshaped
                        .into_iter()
                        .filter(|seq| *seq < self.next_seq)
                        .map(|seq| (seq, Some(model[&seq].clone())))
                        .collect();
                    let appended = (self.next_seq..next).map(|s| model[&s].clone()).collect();
                    self.expect(appended, reshaped);
                }
                Step::UpdateMany(pick, change, tags) => {
                    let filter = self.filter(pick);
                    let update = match change {
                        0 => Update::new(),
                        1 => Update::new().inc("k", 1.0),
                        2 => Update::new().set("_id.x", tags.len() as i64),
                        3 => Update::new().set("tags", Value::Null),
                        _ => Update::new().set("tags", tags.clone()),
                    };
                    let post = |seq: u64| {
                        let mut doc = self.rows[&seq].clone();
                        update.apply(&mut doc);
                        (seq, Some(doc))
                    };
                    let reshaped: Vec<_> = self.matching(&filter).into_iter().map(post).collect();
                    assert_eq!(self.c.update_many(&filter, &update), reshaped.len());
                    self.expect(vec![], reshaped);
                }
                Step::DeleteMany(pick) => {
                    let filter = self.filter(pick);
                    let gone: Vec<_> = self
                        .matching(&filter)
                        .into_iter()
                        .map(|s| (s, None))
                        .collect();
                    assert_eq!(self.c.delete_many(&filter), gone.len());
                    self.expect(vec![], gone);
                }
                Step::Pin => {
                    // Hit, merge (in place or copy-on-write under the
                    // older pins) or clone — the image is the collection.
                    let image = self.c.read_snapshot();
                    assert_eq!(image.docs, self.c.docs);
                    assert_eq!(image.primary, self.c.primary);
                    assert_eq!(index_image(&image), index_image(&self.c));
                    assert_eq!(image.next_seq, self.c.next_seq);
                    assert_eq!(image.next_auto_id, self.c.next_auto_id);
                    for v in self.base..=self.version() + 1 {
                        assert_eq!(image.delta_since(v), self.delta(v));
                    }
                    if self.pins.len() == 3 {
                        self.pins.remove(0);
                    }
                    self.pins.push((image, self.rows.clone()));
                }
                Step::Unpin => self.pins.clear(),
                Step::Checkpoint => {
                    for slice in self.c.take_dirty() {
                        let bytes = encode_jsonl_seq(self.c.slice_rows(slice));
                        if bytes.is_empty() {
                            self.slices.remove(&slice);
                        } else {
                            self.slices.insert(slice, bytes);
                        }
                    }
                    self.slices_next_seq = self.c.append_watermark();
                    self.wal.rotate(self.wal.generation() + 1);
                    self.touched.clear();
                }
                Step::Reload => {
                    let mut c = Harness::indexed();
                    for bytes in self.slices.values() {
                        let (docs, bad) = decode_jsonl(bytes, "slice", &LoadOptions::default())
                            .expect("the checkpoint decodes");
                        assert!(bad.is_none());
                        for mut doc in docs {
                            let seq = take_seq(&mut doc).expect("slice rows carry their seq");
                            c.apply_upsert_at(seq, doc);
                        }
                    }
                    // The allocator already clears every row it was shown.
                    let past_last = c.docs.keys().last().map_or(0, |seq| seq + 1);
                    assert_eq!(c.append_watermark(), past_last);
                    c.set_next_seq_at_least(self.slices_next_seq);
                    c.take_dirty();
                    let log = wal_path(Path::new("/db"), self.wal.generation());
                    let bytes = self.storage.read(&log).unwrap_or_default();
                    let replay = read_wal(&bytes, |group| {
                        for op in group {
                            match op {
                                WalOp::Insert { doc, .. } => c.apply_upsert(doc),
                                WalOp::InsertMany { docs, .. } | WalOp::Update { docs, .. } => {
                                    docs.into_iter().for_each(|doc| c.apply_upsert(doc))
                                }
                                WalOp::Delete { ids, .. } => c.apply_delete_ids(&ids),
                                WalOp::Drop { .. } => unreachable!("nothing drops"),
                            }
                        }
                    });
                    assert_eq!(replay.torn_bytes, 0);
                    // The slices the dirty sets named plus the log are
                    // the whole collection, seq for seq; what the replay
                    // changed is dirty again (a logged post-image equal
                    // to the slice row changed nothing).
                    assert_eq!(c.docs, self.c.docs);
                    assert_eq!(c.next_seq, self.c.next_seq);
                    assert!(c.dirty.lock().is_subset(&self.touched));
                    self.touched = c.dirty.lock().clone();
                    c.set_wal(Some(self.wal.clone()));
                    self.c = c;
                    self.base = self.c.mutation_version();
                    self.events.clear();
                }
            }
            assert_eq!(self.c.docs, self.rows);
            assert_eq!(self.c.append_watermark(), self.next_seq);
            assert_eq!(self.c.mutation_version(), self.version());
            assert_consistent(&self.c);
            // Exactly: a superset would be safe, but the next checkpoint
            // would rewrite slices nothing touched.
            assert_eq!(*self.c.dirty.lock(), self.touched);
            for v in self.base..=self.version() + 1 {
                assert_eq!(self.c.delta_since(v), self.delta(v));
            }
            for (image, rows) in &self.pins {
                assert_eq!(image.docs, *rows, "a pinned image never changes");
                assert_consistent(image);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_entry_point_keeps_rows_indexes_and_bookkeeping_in_step(
            steps in prop::collection::vec(arb_step(), 1..48),
        ) {
            let mut h = Harness::new();
            for step in &steps {
                h.step(step);
            }
        }
    }
}
