//! Collections: insertion-ordered document stores with a unique `_id`
//! index, optional ordered secondary indexes, planner-served queries,
//! updates and bulk insertion.

use crate::arena::Sealed;
use crate::document::{Document, RowRef};
use crate::error::{DbError, DbResult};
use crate::plan::{self, QueryPlan};
use crate::query::{Filter, FindOptions};
use crate::snapshot::SLICE_ROWS;
use crate::update::Update;
use crate::value::{Value, ValueRef};
use crate::wal::{Wal, WalOpRef};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::{Bound, Range};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use upin_telemetry::{NoopRecorder, Recorder};

static NOOP: NoopRecorder = NoopRecorder;

/// A secondary index over one field: posting lists in an ordered map
/// over the order-preserving [`Value::index_key`] encoding, which
/// serves the planner's two index paths alike — a point lookup is a
/// `get`, a comparison is a `range`.
#[derive(Debug, Default, Clone)]
pub(crate) struct FieldIndex {
    pub(crate) ordered: BTreeMap<String, Postings>,
}

/// The seqs posted under one index key. A key held by one row — most
/// keys of a field whose values are nearly unique, such as a measured
/// latency — stores that seq inline instead of in a set of its own.
/// The form is canonical: `One` exactly when one row holds the key, so
/// an index equals its rebuild structurally.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Postings {
    One(u64),
    Many(BTreeSet<u64>),
}

impl Postings {
    fn insert(&mut self, seq: u64) {
        match self {
            Postings::One(one) if *one == seq => {}
            Postings::One(one) => *self = Postings::Many(BTreeSet::from([*one, seq])),
            Postings::Many(set) => {
                set.insert(seq);
            }
        }
    }

    /// Drop `seq`; `true` when no row is left under the key.
    fn remove(&mut self, seq: u64) -> bool {
        match self {
            Postings::One(one) => *one == seq,
            Postings::Many(set) => {
                set.remove(&seq);
                if set.len() > 1 {
                    return false;
                }
                match set.pop_first() {
                    Some(last) => {
                        *self = Postings::One(last);
                        false
                    }
                    None => true,
                }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(set) => set.len(),
        }
    }

    /// The seqs, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (one, many) = match self {
            Postings::One(seq) => (Some(*seq), None),
            Postings::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl FieldIndex {
    fn insert(&mut self, seq: u64, keys: Vec<String>) {
        for key in keys {
            self.ordered
                .entry(key)
                .and_modify(|postings| postings.insert(seq))
                .or_insert(Postings::One(seq));
        }
    }

    fn remove(&mut self, seq: u64, keys: &[String]) {
        for key in keys {
            if let Some(postings) = self.ordered.get_mut(key) {
                if postings.remove(seq) {
                    self.ordered.remove(key);
                }
            }
        }
    }

    pub(crate) fn point_count(&self, key: &str) -> usize {
        self.ordered.get(key).map_or(0, Postings::len)
    }

    pub(crate) fn point_seqs(&self, key: &str) -> impl Iterator<Item = u64> + '_ {
        self.ordered.get(key).into_iter().flat_map(Postings::iter)
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
            .flat_map(|(_, seqs)| seqs.iter())
    }
}

const CELLS: usize = SLICE_ROWS as usize;

/// `SLICE_ROWS` consecutive insertion sequences' rows — the unit a
/// checkpoint writes — shared by reference between a collection and
/// the images pinned from it. Which cells an owner sees is the owner's
/// own `Held::live`.
pub(crate) enum Slice {
    /// Rows as documents: the slice the allocator is in, one a pinned
    /// image still shares, or one a write reopened. A cell is written once through a shared
    /// reference, so an append into a slice an image shares copies
    /// nothing; replacing or clearing a cell needs the slice to itself.
    Cells {
        cells: Box<[OnceLock<Document>; CELLS]>,
        /// The sealed slice a write reopened, whose rows stand where a
        /// cell is empty. Only a mutation in progress holds one: it
        /// seals the slice again before it returns.
        under: Option<Arc<Slice>>,
    },
    /// Rows as bytes ([`Sealed`]): every slice the allocator has passed
    /// that no pinned image shares.
    Sealed(Sealed),
}

fn empty_cells() -> Box<[OnceLock<Document>; CELLS]> {
    Box::new(std::array::from_fn(|_| OnceLock::new()))
}

impl Slice {
    fn row(&self, i: usize) -> RowRef<'_> {
        match self {
            Slice::Cells { cells, under } => match (cells[i].get(), under) {
                (Some(doc), _) => doc.into(),
                (None, Some(under)) => under.row(i),
                (None, None) => panic!("a live cell holds its row"),
            },
            Slice::Sealed(sealed) => sealed.row(i),
        }
    }
}

/// One owner's hold on a slice: the slice and the cells it sees.
#[derive(Clone)]
struct Held {
    slice: Arc<Slice>,
    /// Bit `i` set: the row at `i` in the slice is this owner's.
    live: [u64; CELLS / 64],
}

impl Held {
    fn new() -> Held {
        Held {
            slice: Arc::new(Slice::Cells {
                cells: empty_cells(),
                under: None,
            }),
            live: [0; CELLS / 64],
        }
    }

    fn sees(&self, i: usize) -> bool {
        self.live[i / 64] & (1 << (i % 64)) != 0
    }

    fn flip(&mut self, i: usize) {
        self.live[i / 64] ^= 1 << (i % 64);
    }

    /// The cells this owner sees, ascending.
    fn cells(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.live.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(w * 64 + bit)
            })
        })
    }

    fn row(&self, i: usize) -> RowRef<'_> {
        self.slice.row(i)
    }

    /// The cells to write in: the slice's own when this owner holds it
    /// alone and it is open; else a sealed slice reopened (empty cells
    /// over its rows, which the next seal copies as bytes) or a copy of
    /// a shared open one — its live rows only. Returns the live rows,
    /// when an image shares the slice: what this owner's next seal of it
    /// copies (or the copy did).
    fn own(&mut self) -> (&mut [OnceLock<Document>; CELLS], u64) {
        let shared = Arc::get_mut(&mut self.slice).is_none();
        let copied = if shared {
            self.cells().count() as u64
        } else {
            0
        };
        let fresh = match &*self.slice {
            Slice::Sealed(_) => Some(Slice::Cells {
                cells: empty_cells(),
                under: Some(Arc::clone(&self.slice)),
            }),
            Slice::Cells { cells, under } if shared => {
                let copy = empty_cells();
                for i in self.cells() {
                    if let Some(doc) = cells[i].get() {
                        let _ = copy[i].set(doc.clone());
                    }
                }
                Some(Slice::Cells {
                    cells: copy,
                    under: under.clone(),
                })
            }
            Slice::Cells { .. } => None,
        };
        if let Some(fresh) = fresh {
            self.slice = Arc::new(fresh);
        }
        match Arc::get_mut(&mut self.slice) {
            Some(Slice::Cells { cells, .. }) => (cells, copied),
            _ => unreachable!("an unshared open slice"),
        }
    }

    /// Seal an open slice into its bytes. No row counts as copied.
    fn seal(&mut self) {
        if let Slice::Cells { .. } = *self.slice {
            let sealed = Sealed::new(self.cells().map(|i| (i, self.row(i))));
            self.slice = Arc::new(Slice::Sealed(sealed));
        }
    }
}

/// A collection's rows by insertion sequence, in `Slice`s keyed by
/// `seq / SLICE_ROWS`. Cloning copies the slice map, never a row; a
/// write copies at most the one shared slice it changes (see
/// `Collection::read_snapshot` for the whole budget). Every slice in
/// the map holds at least one live row, and every slice the allocator
/// has passed and no pinned image shares is sealed once a mutation is
/// done (`Rows::seal_below`).
#[derive(Clone, Default)]
pub(crate) struct Rows {
    slices: BTreeMap<u64, Held>,
    /// The slices that are open (`Slice::Cells`).
    open: BTreeSet<u64>,
    len: usize,
}

fn split(seq: u64) -> (u64, usize) {
    (seq / SLICE_ROWS, (seq % SLICE_ROWS) as usize)
}

impl Rows {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, seq: u64) -> Option<RowRef<'_>> {
        let (key, i) = split(seq);
        let held = self.slices.get(&key)?;
        held.sees(i).then(|| held.row(i))
    }

    /// The rows of `seqs`, ascending.
    pub(crate) fn range(
        &self,
        seqs: Range<u64>,
    ) -> impl Iterator<Item = (u64, RowRef<'_>)> + Clone + '_ {
        let keys = seqs.start / SLICE_ROWS..seqs.end.div_ceil(SLICE_ROWS);
        self.slices
            .range(keys)
            .flat_map(|(&key, held)| {
                let base = key * SLICE_ROWS;
                held.cells().map(move |i| (base + i as u64, held.row(i)))
            })
            .skip_while(move |(seq, _)| *seq < seqs.start)
            .take_while(move |(seq, _)| *seq < seqs.end)
    }

    /// Every row, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, RowRef<'_>)> + Clone + '_ {
        self.range(0..u64::MAX)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        self.iter().map(|(_, row)| row)
    }

    /// The cells of the slice at `key`, copied or reopened first as
    /// `Held::own` says; the slice is open from here on.
    fn own(&mut self, key: u64) -> (&mut [OnceLock<Document>; CELLS], u64) {
        self.open.insert(key);
        let held = self.slices.get_mut(&key).expect("a live row's slice");
        held.own()
    }

    /// Put `doc` at `seq`, which holds no row. Copies nothing unless
    /// the cell still holds a row this owner no longer sees and an
    /// image shares the slice. Returns the rows copied.
    fn place(&mut self, seq: u64, doc: Document) -> u64 {
        let (key, i) = split(seq);
        let held = self.slices.entry(key).or_insert_with(|| {
            self.open.insert(key);
            Held::new()
        });
        let mut copied = 0;
        let refused = match &*held.slice {
            Slice::Cells { cells, .. } => cells[i].set(doc).err(),
            Slice::Sealed(_) => Some(doc),
        };
        if let Some(doc) = refused {
            let (cells, n) = self.own(key);
            cells[i] = OnceLock::from(doc);
            copied = n;
        }
        let held = self.slices.get_mut(&key).expect("just placed");
        held.flip(i);
        self.len += 1;
        copied
    }

    /// Swap the row at `seq`, which holds one, for `doc`: the rows
    /// copied to do it.
    fn replace(&mut self, seq: u64, doc: Document) -> u64 {
        let (key, i) = split(seq);
        let (cells, copied) = self.own(key);
        cells[i] = OnceLock::from(doc);
        copied
    }

    /// Drop the row at `seq`, which holds one. A slice left empty goes
    /// whole; a shared one keeps the row for its other holders, and a
    /// sealed one its bytes, until `settle`.
    fn remove(&mut self, seq: u64) {
        let (key, i) = split(seq);
        let held = self.slices.get_mut(&key).expect("a live row's slice");
        held.flip(i);
        self.len -= 1;
        if held.live == [0; CELLS / 64] {
            self.slices.remove(&key);
            self.open.remove(&key);
        } else if let Some(Slice::Cells { cells, .. }) = Arc::get_mut(&mut held.slice) {
            cells[i].take();
        }
    }

    /// Copy the still-shared slices `removed` left rows in, and reopen
    /// the sealed ones, so no removed row outlives this owner's images
    /// in its own slices. Returns the rows copied.
    fn settle(&mut self, removed: &[u64]) -> u64 {
        let mut copied = 0;
        for seq in removed {
            let key = seq / SLICE_ROWS;
            if self.slices.contains_key(&key) {
                copied += self.own(key).1;
            }
        }
        copied
    }

    /// Seal every open slice below `seq`'s — the slices an allocator at
    /// `seq` has passed — that no pinned image shares. `memo` is the
    /// rows of the snapshot memo's image when nothing but the memo
    /// holds it: a slice it shares is sealed for both. A slice a pinned
    /// image shares stays open, so the image keeps what it pinned and
    /// nothing is copied; a later mutation seals it once the pin is
    /// dropped.
    fn seal_below(&mut self, seq: u64, mut memo: Option<&mut Rows>) {
        let passed: Vec<u64> = self.open.range(..seq / SLICE_ROWS).copied().collect();
        for key in passed {
            let Some(held) = self.slices.get_mut(&key) else {
                self.open.remove(&key);
                continue;
            };
            let mirror = memo.as_deref_mut().filter(|memo| {
                let image = memo.slices.get(&key);
                image.is_some_and(|image| Arc::ptr_eq(&image.slice, &held.slice))
            });
            if Arc::strong_count(&held.slice) > 1 + usize::from(mirror.is_some()) {
                continue;
            }
            held.seal();
            self.open.remove(&key);
            if let Some(memo) = mirror {
                // Only appends reach a slice the writer shares, so the
                // memo's image sees a subset of the writer's cells: the
                // sealed slice holds every row it sees.
                let image = memo.slices.get_mut(&key).expect("shared above");
                debug_assert!(image.cells().all(|i| held.sees(i)));
                image.slice = Arc::clone(&held.slice);
                memo.open.remove(&key);
            }
        }
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A single collection (a "table" of documents).
#[derive(Debug, Default)]
pub struct Collection {
    name: String,
    /// Documents keyed by insertion sequence (preserves order under
    /// deletion without shifting). Every row carries an `_id`: inserts
    /// assign a missing one, upserts demand one, updates cannot touch it.
    pub(crate) docs: Rows,
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
    /// What changed since a checkpoint last took it. Behind a mutex so a
    /// checkpoint can take it under the collection's *read* lock.
    dirty: Mutex<Dirty>,
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

/// The slice files that no longer match memory, and why.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Dirty {
    /// Slices of the insertion sequence (`seq / SLICE_ROWS`) a mutation
    /// touched.
    pub slices: BTreeSet<u64>,
    /// Seqs whose row was replaced in place: the rows whose line in the
    /// superseded slice file is stale. Appended rows are in no old file
    /// and deleted ones are no longer in memory, so neither needs one.
    pub replaced: BTreeSet<u64>,
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
    /// carry over — the rows by sharing their slices, so no row is
    /// copied; the WAL handle is dropped (mutating a clone must not
    /// log under the original's name), and the snapshot memo and the
    /// `Dirty` sets (a clone is never checkpointed) start empty. The
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
            dirty: Mutex::default(),
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
        self.docs.len() == 0
    }

    // ---- indexes ------------------------------------------------------

    /// Create a secondary index over a (dotted) field. Idempotent.
    pub fn create_index(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        let mut idx = FieldIndex::default();
        for (seq, row) in self.docs.iter() {
            idx.insert(seq, index_keys_of(row, field));
        }
        self.indexes.insert(field.to_string(), idx);
    }

    /// The fields this collection has secondary indexes on, sorted: what
    /// a checkpoint records so a reopen rebuilds them.
    pub(crate) fn index_fields(&self) -> Vec<String> {
        let mut fields: Vec<String> = self.indexes.keys().cloned().collect();
        fields.sort();
        fields
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
    pub fn iter_from(&self, watermark: u64) -> impl Iterator<Item = RowRef<'_>> {
        self.docs.range(watermark..u64::MAX).map(|(_, row)| row)
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
    /// No arm copies a row: rows live in `SLICE_ROWS`-row slices that
    /// the image and the collection share by reference. Cost is
    /// amortized through the mutation-version/append-watermark protocol:
    ///
    /// * **hit** — version unchanged since the memoized image: a
    ///   refcount bump, no copying at all;
    /// * **merge** — pure appends since the memo
    ///   ([`Delta::Appended`]): the documents past the memo's watermark
    ///   are posted in the image's `primary` and indexes, and the image
    ///   takes the collection's slice map (copy-on-write: if other
    ///   readers still pin the old image, its slice map, `primary` and
    ///   indexes are copied first, so a pinned snapshot never changes
    ///   underneath its holder);
    /// * **clone** — a reshape (update/delete) happened: the slice map,
    ///   `primary` and the indexes are copied.
    ///
    /// Writes keep the images intact at a bounded cost, counted as
    /// `pathdb.snapshot.copied_rows`: an append fills a cell no image
    /// sees and copies nothing, even in a slice an image shares; an
    /// update or a delete copies the one shared slice it changes, once
    /// per pin; a delete that empties a slice drops it uncopied; a
    /// replace with an equal row does nothing.
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
                    for (seq, row) in self.docs.range(entry.watermark..u64::MAX) {
                        image.index_row(seq, id_key(row), row);
                        appended += 1;
                    }
                    // The appended rows are already in the slices: the
                    // image takes the slice map. Its counters follow;
                    // `last_reshape_version` needs no copy: only appends
                    // happened since the image took it.
                    image.docs = self.docs.clone();
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
    // secondary indexes and `docs`. None of them keeps the books (they
    // only report rows copied out of shared slices): the mutation that
    // called them says what it did to `record`, once.

    /// Put `doc` at `seq`, which holds no row.
    fn place(&mut self, seq: u64, id_key: String, doc: Document) {
        self.index_row(seq, id_key, (&doc).into());
        let copied = self.docs.place(seq, doc);
        self.count_copies(copied);
    }

    /// Post `row` at `seq` in `primary` and the indexes.
    fn index_row(&mut self, seq: u64, id_key: String, row: RowRef<'_>) {
        self.primary.insert(id_key, seq);
        for (field, idx) in &mut self.indexes {
            idx.insert(seq, index_keys_of(row, field));
        }
    }

    /// Swap the row at `seq` for `doc`, which has the same `_id`.
    /// `false`, and nothing happened (nothing copied either), when the
    /// two are equal.
    fn replace(&mut self, seq: u64, doc: Cow<'_, Document>) -> bool {
        let Some(old) = self.docs.get(seq).filter(|row| *row != *doc) else {
            return false;
        };
        for (field, idx) in &mut self.indexes {
            idx.remove(seq, &index_keys_of(old, field));
        }
        let copied = self.docs.replace(seq, doc.into_owned());
        self.count_copies(copied);
        let row = self.docs.get(seq).expect("just replaced");
        for (field, idx) in &mut self.indexes {
            idx.insert(seq, index_keys_of(row, field));
        }
        true
    }

    /// Remove the row at `seq`; `false` when there is none.
    fn take(&mut self, seq: u64) -> bool {
        let Some(row) = self.docs.get(seq) else {
            return false;
        };
        for (field, idx) in &mut self.indexes {
            idx.remove(seq, &index_keys_of(row, field));
        }
        self.primary.remove(&id_key(row));
        self.docs.remove(seq);
        true
    }

    /// Report rows a write deep-copied because an image shared them.
    fn count_copies(&self, rows: u64) {
        if rows > 0 {
            self.rec().add("pathdb.snapshot.copied_rows", rows);
        }
    }

    /// The bookkeeping of one mutation: the seqs it `appended` (rows
    /// placed where none was), `replaced` and `removed`. Bumps the
    /// version once if it did anything, marks a reshape, and records
    /// what the slice files no longer match — the only writer of all
    /// three — then copies away the shared slices its removals left
    /// rows in (`Rows::settle`) and seals every slice the allocator
    /// has passed (`Rows::seal_below`).
    fn record(&mut self, appended: Range<u64>, replaced: &[u64], removed: &[u64]) {
        if appended.is_empty() && replaced.is_empty() && removed.is_empty() {
            return;
        }
        self.version += 1;
        if !replaced.is_empty() || !removed.is_empty() {
            self.last_reshape_version = self.version;
        }
        let dirty = self.dirty.get_mut();
        if !appended.is_empty() {
            // Once per batch, not per row: the range's slices.
            dirty
                .slices
                .extend(appended.start / SLICE_ROWS..=(appended.end - 1) / SLICE_ROWS);
        }
        let reshaped = replaced.iter().chain(removed);
        dirty.slices.extend(reshaped.map(|seq| seq / SLICE_ROWS));
        dirty.replaced.extend(replaced);
        let copied = self.docs.settle(removed);
        self.count_copies(copied);
        self.seal_passed();
    }

    /// Seal the slices the allocator has passed (`Rows::seal_below`),
    /// with the snapshot memo's image when no reader holds it.
    fn seal_passed(&mut self) {
        let memo = self.snap.get_mut().as_mut();
        let memo = memo.and_then(|entry| Arc::get_mut(&mut entry.image));
        self.docs
            .seal_below(self.next_seq, memo.map(|image| &mut image.docs));
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
        self.record(first..self.next_seq, &[], &[]);
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
        self.record(first..self.next_seq, &replaced, &[]);
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
    /// An explicit `at` only places: a held `_id` leaves the collection
    /// as it was. A document without an id — the log and the slice
    /// files never hold one; tolerated anyway — gets a generated one.
    fn upsert_row(&mut self, at: Option<u64>, mut doc: Cow<'_, Document>) -> Upserted {
        if doc.get("_id").is_none() {
            let _ = self.prepare_id(doc.to_mut());
        }
        let key = id_key((&*doc).into());
        match self.primary.get(&key).copied() {
            Some(_) if at.is_some() => Upserted::Unchanged,
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
            let Some(row) = self.docs.get(seq) else {
                return false;
            };
            let mut doc = row.to_document();
            update.apply(&mut doc);
            if self.wal.is_some() {
                self.replace(seq, Cow::Borrowed(&doc));
                post_images.push(doc);
            } else {
                self.replace(seq, Cow::Owned(doc));
            }
            true
        });
        self.record(0..0, &seqs, &[]);
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
            let Some(row) = self.docs.get(seq) else {
                return false;
            };
            if self.wal.is_some() {
                removed_ids.extend(row.get("_id").map(Value::from));
            }
            self.take(seq)
        });
        self.record(0..0, &[], &seqs);
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

    /// Take (and clear) both [`Dirty`] sets in one lock hold. Callable
    /// under the read lock: no writer can run, so the sets and the rows
    /// a checkpoint writes in the same lock hold agree.
    pub(crate) fn take_dirty(&self) -> Dirty {
        std::mem::take(&mut *self.dirty.lock())
    }

    /// Hand both sets back after a checkpoint that took them failed.
    pub(crate) fn mark_dirty(&self, taken: Dirty) {
        let mut dirty = self.dirty.lock();
        dirty.slices.extend(taken.slices);
        dirty.replaced.extend(taken.replaced);
    }

    /// Every slice that holds at least one row.
    pub(crate) fn live_slices(&self) -> BTreeSet<u64> {
        self.docs.slices.keys().copied().collect()
    }

    /// The rows of one slice with their insertion sequences, in order.
    pub(crate) fn slice_rows(&self, slice: u64) -> impl Iterator<Item = (u64, RowRef<'_>)> + Clone {
        let start = slice * SLICE_ROWS;
        self.docs.range(start..start + SLICE_ROWS)
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

    /// Place a slice file's row at its persisted insertion sequence,
    /// which holds no row — the snapshot loader's path. Snapshots persist
    /// each row's seq (and the manifest the allocator), so the
    /// insertion-sequence space is *stable across recovery*: an absolute
    /// watermark taken before a crash (the rollup meta document) still
    /// names the same rows afterwards. `false`, and nothing changed,
    /// when a loaded row already holds the `_id`.
    pub(crate) fn load_at(&mut self, seq: u64, doc: Document) -> bool {
        matches!(self.apply_upsert_to(Some(seq), doc), Upserted::Placed(_))
    }

    fn apply_upsert_to(&mut self, at: Option<u64>, doc: Document) -> Upserted {
        let upserted = self.upsert_row(at, Cow::Owned(doc));
        match upserted {
            Upserted::Unchanged => {}
            Upserted::Replaced(seq) => self.record(0..0, &[seq], &[]),
            Upserted::Placed(seq) => self.record(seq..seq + 1, &[], &[]),
        }
        upserted
    }

    /// Restore the insertion-sequence allocator (never moves backward):
    /// even with every row of a snapshot deleted, recovery re-allocates
    /// from where the crashed process stopped.
    pub(crate) fn set_next_seq_at_least(&mut self, n: u64) {
        self.next_seq = self.next_seq.max(n);
        self.seal_passed();
    }

    /// Apply a logged delete: drop documents by `_id`, silently
    /// skipping ids that are already gone (idempotent replay).
    pub(crate) fn apply_delete_ids(&mut self, ids: &[Value]) {
        let mut seqs = Vec::new();
        for id in ids {
            if let Some(&seq) = self.primary.get(&id.index_key()) {
                if self.take(seq) {
                    seqs.push(seq);
                }
            }
        }
        self.record(0..0, &[], &seqs);
    }

    // ---- reads ----------------------------------------------------------

    /// Fetch by `_id`.
    pub fn find_by_id<V: Into<Value>>(&self, id: V) -> Option<RowRef<'_>> {
        let key = id.into().index_key();
        self.primary.get(&key).and_then(|&seq| self.docs.get(seq))
    }

    /// Execute a filtered/sorted/paginated/projected read through the
    /// cost-based planner. The [`crate::Query`] builder's `run`/`first`
    /// terminals land here.
    pub(crate) fn run_find(&self, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        plan::find_with(self, filter, opts)
    }

    /// Borrowed matches in insertion order — the clone-free read path
    /// for aggregation and grouping ([`crate::Query::refs`]).
    pub(crate) fn run_refs(&self, filter: &Filter) -> Vec<RowRef<'_>> {
        plan::matching_seqs(self, filter)
            .into_iter()
            .filter_map(|s| self.docs.get(s))
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
            let Some(row) = self.docs.get(seq) else {
                continue;
            };
            let mut add = |v: ValueRef<'_>| {
                if seen.insert(v.index_key()) {
                    out.push(v.into());
                }
            };
            match row.get_path(field) {
                Some(ValueRef::Array(a)) => a.iter().for_each(add),
                Some(v) => add(v),
                None => {}
            }
        }
        out
    }

    pub(crate) fn run_explain(&self, filter: &Filter) -> QueryPlan {
        plan::explain(self, filter)
    }

    /// Iterate all documents in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
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
fn id_key(row: RowRef<'_>) -> String {
    row.get("_id")
        .expect("stored rows carry an _id")
        .index_key()
}

/// Index keys a row contributes for `field`. Array fields index each
/// element (Mongo multikey semantics) *and* the whole array, so both
/// `Eq(field, element)` and `Eq(field, whole_array)` are served.
fn index_keys_of(row: RowRef<'_>, field: &str) -> Vec<String> {
    match row.get_path(field) {
        Some(v @ ValueRef::Array(a)) => {
            let mut keys: Vec<String> = a.iter().map(ValueRef::index_key).collect();
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
    use upin_telemetry::Telemetry;

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
            Some(ValueRef::Int(6))
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
        assert!(c.iter().all(|d| d.get("_id").is_some()));
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
        // A conjunction keeps applying the residual filter.
        let narrowed = c
            .query(Filter::eq("_id", "2_1_100").and(Filter::gte("hops", 100i64)))
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
            &Update::new().set("checked", true).set("hops", 8i64),
        );
        assert_eq!(n, 3);
        let d = c.find_by_id("2_1_100").unwrap();
        assert_eq!(d.get("hops"), Some(ValueRef::Int(8)));
        assert_eq!(d.get("checked"), Some(ValueRef::Bool(true)));
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
        let n = dotted.update_many(
            &filter,
            &Update::new().set("_id.x", 1i64).set("_id.n", 1i64),
        );
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
            Some(ValueRef::Bool(true))
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
        let filter = Filter::eq("server_id", 2i64).and(Filter::gte("avg_latency_ms", 100.0));
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
        let f = Filter::eq("server_id", 2i64).and(Filter::gte("hops", 6i64));
        assert_eq!(
            c.query(&f).explain().access,
            Access::FullScan { documents: 5 }
        );
        c.create_index("server_id");
        assert_eq!(
            c.query(&f).explain().access,
            Access::IndexPoint {
                field: "server_id".into(),
                candidates: 3
            }
        );
        // A range on the indexed field becomes an ordered-index scan.
        assert_eq!(
            c.query(Filter::gte("server_id", 2i64)).explain().access,
            Access::IndexRange {
                field: "server_id".into(),
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
        assert!(!c.query(&between).explain().access.is_full_scan());
        let ids: Vec<_> = c
            .query(&between)
            .run()
            .iter()
            .map(|d| d.id().unwrap().to_string())
            .collect();
        assert_eq!(ids, vec!["1_1_100", "2_0_100"]);
        // Bounds are exact: Lt excludes the boundary, Lte includes it,
        // and so does Gte.
        assert_eq!(c.query(Filter::lt("avg_latency_ms", 155.0)).count(), 3);
        assert_eq!(c.query(Filter::lte("avg_latency_ms", 155.0)).count(), 4);
        assert_eq!(c.query(Filter::gte("avg_latency_ms", 155.0)).count(), 2);
    }

    #[test]
    fn sorted_limited_queries_over_an_indexed_field() {
        let mut c = stats_collection();
        c.create_index("avg_latency_ms");
        let out = c
            .query_all()
            .sort_by("avg_latency_ms", crate::Order::Desc)
            .limit(2)
            .run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("2_1_200"));
        assert_eq!(out[1].id(), Some("2_1_100"));
    }

    #[test]
    fn unsorted_skip_and_limit_keep_insertion_order() {
        let c = stats_collection();
        let out = c
            .query(Filter::eq("server_id", 2i64))
            .limit(2)
            .skip(1)
            .run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("2_1_100"));
        assert_eq!(out[1].id(), Some("2_1_200"));
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
    fn conjunction_of_two_indexed_fields() {
        let mut c = Collection::new("t");
        for i in 0..100i64 {
            c.insert_one(doc! { "a" => i % 10, "b" => i % 7 }).unwrap();
        }
        c.create_index("a");
        c.create_index("b");
        let f = Filter::eq("a", 3i64).and(Filter::eq("b", 2i64));
        let scan: Vec<_> = c
            .iter()
            .filter(|d| f.matches(d))
            .map(RowRef::to_document)
            .collect();
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
            .map(|d| d.get("x").and_then(ValueRef::as_int).unwrap())
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
            assert_eq!(*r, *o);
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
    fn a_key_held_by_one_row_is_stored_inline() {
        let mut c = stats_collection();
        c.create_index("avg_latency_ms");
        c.create_index("server_id");
        let postings = |c: &Collection, field: &str, v: Value| {
            c.indexes[field].ordered[&v.index_key()].clone()
        };
        assert_eq!(
            postings(&c, "avg_latency_ms", 25.0.into()),
            Postings::One(1)
        );
        assert_eq!(
            postings(&c, "server_id", 1i64.into()),
            Postings::Many(BTreeSet::from([0, 1]))
        );
        // Down to one row, a `Many` key is `One` again — what a rebuild holds.
        c.delete_many(&Filter::eq("_id", "1_0_100"));
        assert_eq!(postings(&c, "server_id", 1i64.into()), Postings::One(1));
        assert_consistent(&c);
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

    // ---- what a pin and a write copy --------------------------------------

    /// `rows` rows with `k` = their seq, under an index on `k`, and the
    /// recorder that counts the rows writes copy.
    fn counted(rows: u64) -> (Collection, Arc<Telemetry>) {
        let telemetry = Arc::new(Telemetry::new());
        let mut c = Collection::new("t");
        c.set_recorder(Some(telemetry.clone()));
        c.create_index("k");
        let docs = (0..rows).map(|k| doc! { "k" => k as i64 }).collect();
        c.insert_many(docs).unwrap();
        (c, telemetry)
    }

    fn copied(telemetry: &Telemetry) -> u64 {
        telemetry.counter("pathdb.snapshot.copied_rows")
    }

    /// `a` and `b` hold the same `Slice` at `slice`.
    fn shares(a: &Collection, b: &Collection, slice: u64) -> bool {
        match (a.docs.slices.get(&slice), b.docs.slices.get(&slice)) {
            (Some(x), Some(y)) => Arc::ptr_eq(&x.slice, &y.slice),
            _ => false,
        }
    }

    #[test]
    fn copy_budget_a_pin_copies_no_row() {
        let (mut c, telemetry) = counted(3 * SLICE_ROWS + 10);
        let first = c.read_snapshot();
        c.insert_one(doc! { "k" => -1i64 }).unwrap();
        // Appended under `first`: the merge arm copies the image, not a row.
        let merged = c.read_snapshot();
        assert_eq!(copied(&telemetry), 0);
        assert!((0..4).all(|slice| shares(&c, &merged, slice)));
        c.update_many(&Filter::eq("k", 5i64), &Update::new().set("k", 6i64));
        let before = copied(&telemetry);
        let reshaped = c.read_snapshot();
        assert_eq!(copied(&telemetry), before, "the clone arm copies no row");
        assert!((0..4).all(|slice| shares(&c, &reshaped, slice)));
        for older in [&first, &merged] {
            assert!(!shares(&c, older, 0), "the update copied slice 0 away");
            assert!((1..4).all(|slice| shares(&c, older, slice)));
        }
        assert_eq!(first.len() as u64, 3 * SLICE_ROWS + 10);
    }

    #[test]
    fn copy_budget_an_append_under_a_pin_copies_no_row() {
        // The tail slice is part full, so the batch lands in a slice
        // the image shares before it opens two new ones.
        let (mut c, telemetry) = counted(SLICE_ROWS + 10);
        let pin = c.read_snapshot();
        let docs = (0..2 * SLICE_ROWS)
            .map(|k| doc! { "k" => k as i64 })
            .collect();
        c.insert_many(docs).unwrap();
        assert_eq!(copied(&telemetry), 0);
        assert!(shares(&c, &pin, 0) && shares(&c, &pin, 1));
        assert_eq!(
            pin.len() as u64,
            SLICE_ROWS + 10,
            "the image does not see them"
        );
        assert_eq!(pin.iter_from(SLICE_ROWS).count(), 10);
        assert_eq!(c.len() as u64, 3 * SLICE_ROWS + 10);
        assert_eq!(c.iter_from(SLICE_ROWS).count() as u64, 2 * SLICE_ROWS + 10);
    }

    #[test]
    fn copy_budget_an_update_copies_at_most_its_slice_once_per_pin() {
        let (mut c, telemetry) = counted(3 * SLICE_ROWS);
        let _pin = c.read_snapshot();
        let set = |k: i64| Update::new().set("x", k);
        c.update_many(&Filter::eq("k", 1i64), &set(1));
        assert_eq!(copied(&telemetry), SLICE_ROWS);
        // The slice is this collection's own now.
        c.update_many(&Filter::eq("k", 2i64), &set(2));
        assert_eq!(copied(&telemetry), SLICE_ROWS);
        // A replace with an equal row copies nothing, nor does an update
        // that changes nothing.
        let same = c.find_by_id("auto:600").unwrap().to_document();
        assert_eq!(c.upsert_many(vec![same]).unwrap(), 0);
        assert_eq!(c.update_many(&Filter::eq("k", 600i64), &Update::new()), 1);
        assert_eq!(copied(&telemetry), SLICE_ROWS);
        // A delete that leaves rows in a shared slice copies it once.
        c.delete_many(&Filter::eq("k", 300i64));
        c.delete_many(&Filter::eq("k", 301i64));
        assert_eq!(copied(&telemetry), 2 * SLICE_ROWS - 1);
        // A new pin shares every slice again: the next write copies anew.
        let _again = c.read_snapshot();
        c.update_many(&Filter::eq("k", 3i64), &set(3));
        assert_eq!(copied(&telemetry), 3 * SLICE_ROWS - 1);
    }

    #[test]
    fn copy_budget_an_expiry_over_whole_slices_copies_nothing_and_frees_them() {
        let (mut c, telemetry) = counted(3 * SLICE_ROWS);
        let pin = c.read_snapshot();
        let gone: Vec<_> = (0..2)
            .map(|s| Arc::downgrade(&c.docs.slices[&s].slice))
            .collect();
        let expired = c.delete_many(&Filter::lt("k", 2 * SLICE_ROWS as i64));
        assert_eq!(expired as u64, 2 * SLICE_ROWS);
        assert_eq!(copied(&telemetry), 0);
        assert_eq!(c.live_slices(), BTreeSet::from([2]));
        assert!(shares(&c, &pin, 2));
        // The pin and the memo still hold the dropped slices; once the
        // next pin replaces the memo and the old pin goes, nothing does.
        assert!(gone.iter().all(|slice| slice.upgrade().is_some()));
        drop(pin);
        let _next = c.read_snapshot();
        assert!(gone.iter().all(|slice| slice.upgrade().is_none()));
    }

    /// A sealed slice of `paths_stats` rows costs its bytes — the
    /// budget DESIGN and EXPERIMENTS quote. A pinned image that shares
    /// the slice keeps it open until it is dropped, and sealing copies
    /// no row.
    #[test]
    fn a_sealed_slice_costs_its_bytes() {
        // Built like `upin_core::schema::PathMeasurement::to_doc`.
        let row = |n: u64| {
            let (server, path, ts) = (12 + n % 3, n % 20, 1_699_000_000_000 + n * 1_000);
            let f = |base: f64| base + n as f64 * 0.37;
            doc! {
                "_id" => format!("{server}_{path}_{ts}"),
                "path_id" => format!("{server}_{path}"),
                "server_id" => server as i64,
                "timestamp_ms" => ts as i64,
                "isds" => vec![16i64, 17, 19],
                "hops" => 4 + (n % 5) as i64,
                "avg_latency_ms" => f(20.0),
                "jitter_ms" => f(0.5),
                "loss_pct" => f(0.0),
                "bw_up_64_mbps" => f(9.5),
                "bw_down_64_mbps" => f(9.7),
                "bw_up_mtu_mbps" => f(11.0),
                "bw_down_mtu_mbps" => f(11.2),
                "target_mbps" => 12.0,
                "error" => Value::Null,
            }
        };
        let rows: Vec<Document> = (0..SLICE_ROWS).map(row).collect();
        let telemetry = Arc::new(Telemetry::new());
        let mut c = Collection::new("paths_stats");
        c.set_recorder(Some(telemetry.clone()));
        let last = SLICE_ROWS as usize - 1;
        c.insert_many(rows[..last].to_vec()).unwrap();
        let pin = c.read_snapshot();
        // The slice's last row: the allocator passes its end, but the
        // pin shares the slice, so it stays open as the pin took it.
        c.insert_one(rows[last].clone()).unwrap();
        assert!(shares(&c, &pin, 0));
        assert!(matches!(*c.docs.slices[&0].slice, Slice::Cells { .. }));
        assert!(pin.iter().eq(rows[..last].iter().map(RowRef::from)));
        // Dropped, the pin leaves the slice to the writer and the memo:
        // the next mutation seals it for both.
        drop(pin);
        c.insert_one(doc! { "_id" => "next" }).unwrap();
        let Slice::Sealed(sealed) = &*c.docs.slices[&0].slice else {
            panic!("no image is pinned: the passed slice 0 is sealed")
        };
        let memo = Arc::clone(&c.snap.lock().as_ref().expect("a memo").image);
        assert!(shares(&c, &memo, 0), "the memo's image is sealed with it");
        let per_row = sealed.held_bytes() as f64 / SLICE_ROWS as f64;
        println!("{per_row:.1} B per sealed row");
        assert!(per_row <= 176.0, "{per_row} B per sealed row");
        assert_eq!(copied(&telemetry), 0, "sealing copies no row");
        assert!(memo.iter().eq(rows[..last].iter().map(RowRef::from)));
        let sealed_rows = c.iter().take(SLICE_ROWS as usize);
        assert!(sealed_rows.eq(rows.iter().map(RowRef::from)));
    }

    /// A clone shares the tail slice with its original; when both then
    /// append at the same seq, the second finds the cell taken and
    /// writes into a copy of its own.
    #[test]
    fn a_clone_and_its_original_append_apart() {
        let (mut a, telemetry) = counted(10);
        let mut b = a.clone();
        a.insert_one(doc! { "_id" => "a" }).unwrap();
        b.insert_one(doc! { "_id" => "b" }).unwrap();
        assert_eq!(copied(&telemetry), 10);
        assert_eq!(
            a.iter_from(10).map(RowRef::id).collect::<Vec<_>>(),
            [Some("a")]
        );
        assert_eq!(
            b.iter_from(10).map(RowRef::id).collect::<Vec<_>>(),
            [Some("b")]
        );
        assert!(b.find_by_id("a").is_none() && a.find_by_id("b").is_none());
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
        let taken = c.take_dirty();
        assert_eq!(taken.slices, BTreeSet::from([0]));
        assert_eq!(taken.replaced, BTreeSet::from([0]), "`a`, twice");
        assert_eq!(c.take_dirty(), Dirty::default());
    }

    // ---- every entry point against a model -------------------------------

    use crate::snapshot::{encode_jsonl_seq, load_slice, write_slice, LoadOptions};
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
        /// Change: 0 = nothing, 1 = move k, 2 = push a tag, 3 = unset
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

    /// The rows compare as the map of `seq → row` they stand for.
    impl PartialEq for Rows {
        fn eq(&self, other: &Rows) -> bool {
            self.len == other.len && self.iter().eq(other.iter())
        }
    }

    impl PartialEq<BTreeMap<u64, Document>> for Rows {
        fn eq(&self, other: &BTreeMap<u64, Document>) -> bool {
            let rows = other.iter().map(|(&s, d)| (s, RowRef::from(d)));
            self.len == other.len() && self.iter().eq(rows)
        }
    }

    impl Rows {
        fn keys(&self) -> impl Iterator<Item = u64> + '_ {
            self.iter().map(|(seq, _)| seq)
        }
    }

    type IndexImage<'a> = BTreeMap<&'a str, &'a BTreeMap<String, Postings>>;

    fn index_image(c: &Collection) -> IndexImage<'_> {
        c.indexes
            .iter()
            .map(|(f, i)| (f.as_str(), &i.ordered))
            .collect()
    }

    /// `primary`, `docs` and the indexes agree with each other.
    fn assert_consistent(c: &Collection) {
        assert_eq!(c.primary.len(), c.docs.len());
        for (seq, doc) in c.docs.iter() {
            let key = doc.get("_id").expect("every row has an id").index_key();
            assert_eq!(c.primary.get(&key), Some(&seq));
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
    /// bytes, spliced from the previous ones) to reload it from —
    /// indexes in place, which a [`crate::Database`] reopen never has.
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
        /// Slices touched and seqs replaced since the dirty sets were
        /// last taken.
        dirty: Dirty,
        pins: Vec<Pinned>,
        fresh: u32,
    }

    /// A held image, the rows it showed when pinned and the slices the
    /// collection has written since (`None` once a reload left the
    /// image nothing to share).
    type Pinned = (
        Arc<Collection>,
        BTreeMap<u64, Document>,
        Option<BTreeSet<u64>>,
    );

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
                dirty: Dirty::default(),
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
            self.wrote(reshaped.iter().map(|(seq, _)| *seq));
            for doc in appended {
                self.dirty.slices.insert(self.next_seq / SLICE_ROWS);
                self.rows.insert(self.next_seq, doc);
                self.next_seq += 1;
            }
            for (seq, doc) in reshaped {
                self.dirty.slices.insert(seq / SLICE_ROWS);
                match doc {
                    Some(doc) => {
                        self.dirty.replaced.insert(seq);
                        self.rows.insert(seq, doc)
                    }
                    None => self.rows.remove(&seq),
                };
            }
        }

        /// Mark the slices of `seqs` as written under every held pin.
        fn wrote(&mut self, seqs: impl Iterator<Item = u64> + Clone) {
            for written in self.pins.iter_mut().filter_map(|pin| pin.2.as_mut()) {
                written.extend(seqs.clone().map(|seq| seq / SLICE_ROWS));
            }
        }

        /// What the collection stored for rows it just appended — the
        /// input plus, where that had none, a generated `_id`.
        fn stored(&self, inputs: &[Document]) -> Vec<Document> {
            let stored: Vec<Document> = self
                .c
                .iter_from(self.next_seq)
                .map(RowRef::to_document)
                .collect();
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
                    // A row the batch appended and then replaced counts
                    // as replaced too (harmless: no old file holds it).
                    self.dirty.replaced.extend(&reshaped);
                    self.wrote(reshaped.iter().copied());
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
                        1 => Update::new().set("k", 60 + tags.len() as i64),
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
                    // Nothing is written since the pin: every slice is shared.
                    for (slice, held) in &self.c.docs.slices {
                        let pinned = &image.docs.slices[slice].slice;
                        assert!(Arc::ptr_eq(&held.slice, pinned), "a pin copies no slice");
                    }
                    if self.pins.len() == 3 {
                        self.pins.remove(0);
                    }
                    self.pins
                        .push((image, self.rows.clone(), Some(BTreeSet::new())));
                }
                Step::Unpin => self.pins.clear(),
                Step::Checkpoint => {
                    let dirty = self.c.take_dirty();
                    for &slice in &dirty.slices {
                        let rows = self.c.slice_rows(slice);
                        let old = self.slices.get(&slice).map(|bytes| &bytes[..]);
                        let file = write_slice(rows.clone(), old, &dirty.replaced);
                        // Copying a row's old line is encoding the row.
                        assert_eq!(file.bytes, encode_jsonl_seq(rows.clone()));
                        assert_eq!(file.copied + file.encoded, rows.count() as u64);
                        if file.bytes.is_empty() {
                            self.slices.remove(&slice);
                        } else {
                            self.slices.insert(slice, file.bytes);
                        }
                    }
                    self.slices_next_seq = self.c.append_watermark();
                    self.wal.rotate(self.wal.generation() + 1);
                    self.dirty = Dirty::default();
                }
                Step::Reload => {
                    let mut c = Harness::indexed();
                    for (&slice, bytes) in &self.slices {
                        let (_, bad) =
                            load_slice(&mut c, slice, bytes, "slice", &LoadOptions::default())
                                .expect("the checkpoint loads");
                        assert!(bad.is_none());
                    }
                    // The allocator already clears every row it was shown.
                    let past_last = c.docs.keys().last().map_or(0, |seq| seq + 1);
                    assert_eq!(c.append_watermark(), past_last);
                    c.set_next_seq_at_least(self.slices_next_seq);
                    c.take_dirty();
                    let log = wal_path(Path::new("/db"), self.wal.generation());
                    let bytes = self.storage.read(&log).unwrap_or_default();
                    let replay = read_wal(&bytes[..], bytes.len() as u64, |group| {
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
                    })
                    .unwrap();
                    assert_eq!(replay.torn_bytes, 0);
                    // The slices the dirty sets named plus the log are
                    // the whole collection, seq for seq; what the replay
                    // changed is dirty or replaced again (a logged
                    // post-image equal to the slice row changed nothing).
                    assert_eq!(c.docs, self.c.docs);
                    assert_eq!(c.next_seq, self.c.next_seq);
                    let replayed = c.dirty.lock().clone();
                    assert!(replayed.slices.is_subset(&self.dirty.slices));
                    assert!(replayed.replaced.is_subset(&self.dirty.replaced));
                    self.dirty = replayed;
                    c.set_wal(Some(self.wal.clone()));
                    self.c = c;
                    self.pins.iter_mut().for_each(|pin| pin.2 = None);
                    self.base = self.c.mutation_version();
                    self.events.clear();
                }
            }
            assert_eq!(self.c.docs, self.rows);
            assert_eq!(self.c.append_watermark(), self.next_seq);
            assert_eq!(self.c.mutation_version(), self.version());
            assert_consistent(&self.c);
            // Exactly: a superset would be safe, but the next checkpoint
            // would rewrite slices nothing touched and encode rows it
            // could copy.
            assert_eq!(*self.c.dirty.lock(), self.dirty);
            for v in self.base..=self.version() + 1 {
                assert_eq!(self.c.delta_since(v), self.delta(v));
            }
            for (image, rows, written) in &self.pins {
                assert_eq!(image.docs, *rows, "a pinned image never changes");
                assert_consistent(image);
                let Some(written) = written else { continue };
                for (slice, held) in &self.c.docs.slices {
                    if let Some(pinned) = image.docs.slices.get(slice) {
                        let kept =
                            written.contains(slice) || Arc::ptr_eq(&held.slice, &pinned.slice);
                        assert!(kept, "slice {slice}: nothing wrote it, yet it is a copy");
                    }
                }
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
