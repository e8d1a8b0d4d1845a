//! Sliced snapshots and the collection manifest.
//!
//! A collection's rows are persisted in fixed-size *slices* of its
//! insertion sequence: the rows with `seq / SLICE_ROWS == s` live in
//! `<name>.<s>.<generation>.slice` (JSONL, each row carrying its seq
//! as `SEQ_FIELD`). Slice files are immutable: a checkpoint writes a
//! *new* file, under its own generation, for every slice a mutation
//! touched since the last one, and then lands `MANIFEST.json`
//! atomically, naming for every collection the generation of each of
//! its slices. The manifest rename is the commit point of the whole
//! checkpoint — a file the manifest does not name is garbage, so a
//! crash anywhere before it leaves the previous checkpoint whole, and
//! the superseded files are deleted only after it.
//!
//! The generation also names the WAL file (`wal.<gen>.log`, see
//! [`crate::wal`]) a checkpoint rotates to: recovery replays every log
//! with generation `>=` the manifest's, idempotently.
//!
//! The manifest also names each collection's secondary-index fields,
//! and loading rebuilds those indexes as it places the rows, so a
//! reopened database plans through the indexes it was checkpointed
//! with.
//!
//! This is the one layout read and written: a manifest of another
//! format, or one missing a column, is a parse error, and a directory
//! without a manifest holds no database yet — its files are neither
//! loaded nor deleted.
//!
//! Loading places every row at its persisted seq. A line that is not a
//! JSON object, has no `__seq`, has one outside its file's slice or not
//! above the line before, or repeats an `_id` already loaded is bad:
//! strict loads fail on it (`file:line`), lenient ones
//! (`LoadOptions::skip_corrupt_tail`) keep the rows before it and
//! report the rest of the file as skipped.

use crate::collection::Collection;
use crate::document::{Document, RowRef};
use crate::error::{DbError, DbResult};
use crate::storage::Storage;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// The manifest file name inside a database directory.
pub(crate) const MANIFEST: &str = "MANIFEST.json";

/// Manifest format version, the only one read: format 3 names slice
/// files.
const MANIFEST_FORMAT: i64 = 3;

/// Rows per slice file. A checkpoint encodes the rows that changed and
/// copies the rest of each dirty slice line for line from the file it
/// supersedes, so this bounds the bytes a one-row change rewrites and
/// the pause of a checkpoint under time-series traffic (appends at the
/// newest seqs, expiry at the oldest: a handful of slices per round).
pub(crate) const SLICE_ROWS: u64 = 256;

/// Loader behavior for slice files.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoadOptions {
    /// Keep the rows before a file's first bad line (reporting the
    /// skipped lines) instead of failing the load.
    pub skip_corrupt_tail: bool,
}

/// Lines dropped from one file by a lenient load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLines {
    pub file: String,
    /// 1-based line number of the first bad line.
    pub first_bad_line: usize,
    /// How many lines (from there to EOF) were dropped.
    pub skipped: usize,
}

/// The reserved per-row field durable snapshots use to persist each
/// document's insertion sequence (stripped again on load). Keeping seqs
/// stable across recovery is what lets absolute watermarks (the rollup
/// meta document, [`crate::rollup`]) survive a crash — and what keeps a
/// row in the same slice for life.
const SEQ_FIELD: &str = "__seq";

/// One collection as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub name: String,
    /// The insertion-sequence allocator (`next_seq`) at the checkpoint.
    /// Restored on recovery so sequence numbers never move backward —
    /// even when the highest surviving row sits below the allocator (a
    /// deleted tail).
    pub next_seq: u64,
    /// Slice number → generation of the file that holds it.
    pub slices: BTreeMap<u64, u64>,
    /// Fields with a secondary index, sorted.
    pub indexes: Vec<String>,
}

/// The durable collection roster plus the checkpoint generation. The
/// default is a directory without a manifest: no collections, and every
/// WAL file replayed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub generation: u64,
    pub collections: Vec<ManifestEntry>,
}

impl Manifest {
    fn to_json(&self) -> serde_json::Value {
        let column = |cell: &dyn Fn(&ManifestEntry) -> serde_json::Value| {
            serde_json::Value::from(self.collections.iter().map(cell).collect::<Vec<_>>())
        };
        let mut m = serde_json::Map::new();
        m.insert("format".into(), MANIFEST_FORMAT.into());
        m.insert("generation".into(), (self.generation as i64).into());
        m.insert("collections".into(), column(&|e| e.name.as_str().into()));
        m.insert("seqs".into(), column(&|e| (e.next_seq as i64).into()));
        // Flat `[slice, generation, slice, generation, …]` per collection.
        m.insert(
            "slices".into(),
            column(&|e| {
                let flat = e.slices.iter().flat_map(|(&s, &g)| [s as i64, g as i64]);
                flat.collect::<Vec<_>>().into()
            }),
        );
        m.insert(
            "indexes".into(),
            column(&|e| {
                let fields = e.indexes.iter().map(|f| f.as_str().into());
                fields.collect::<Vec<serde_json::Value>>().into()
            }),
        );
        serde_json::Value::Object(m)
    }

    /// The manifest [`Manifest::to_json`] writes, or `None`: another
    /// format, a missing column, a column not one cell per collection,
    /// or a cell of the wrong type.
    fn from_json(v: &serde_json::Value) -> Option<Manifest> {
        if v.get("format")?.as_i64()? != MANIFEST_FORMAT {
            return None;
        }
        let u64_of = |x: &serde_json::Value| u64::try_from(x.as_i64()?).ok();
        let generation = u64_of(v.get("generation")?)?;
        let names = v.get("collections")?.as_array()?;
        let column = |key: &str| {
            let cells = v.get(key)?.as_array()?;
            (cells.len() == names.len()).then_some(cells)
        };
        let seqs = column("seqs")?;
        let slices = column("slices")?;
        let indexes = column("indexes")?;
        let entry = |i: usize| -> Option<ManifestEntry> {
            let flat = slices[i].as_array()?;
            if flat.len() % 2 != 0 {
                return None;
            }
            let pairs = flat
                .chunks(2)
                .map(|p| Some((u64_of(&p[0])?, u64_of(&p[1])?)));
            let fields = indexes[i].as_array()?.iter();
            Some(ManifestEntry {
                name: names[i].as_str()?.to_string(),
                next_seq: u64_of(&seqs[i])?,
                slices: pairs.collect::<Option<_>>()?,
                indexes: fields
                    .map(|f| f.as_str().map(String::from))
                    .collect::<Option<_>>()?,
            })
        };
        Some(Manifest {
            generation,
            collections: (0..names.len()).map(entry).collect::<Option<_>>()?,
        })
    }
}

/// Write the manifest atomically — this is the checkpoint's commit
/// point.
pub(crate) fn write_manifest(
    storage: &dyn Storage,
    dir: &Path,
    manifest: &Manifest,
) -> DbResult<()> {
    let text = format!("{}\n", manifest.to_json());
    storage.atomic_write(&dir.join(MANIFEST), text.as_bytes())?;
    Ok(())
}

/// Read the manifest; `Ok(None)` when the directory has none (a
/// database never checkpointed, or no database at all).
pub(crate) fn read_manifest(storage: &dyn Storage, dir: &Path) -> DbResult<Option<Manifest>> {
    let path = dir.join(MANIFEST);
    if !storage.exists(&path) {
        return Ok(None);
    }
    let bytes = storage.read(&path)?;
    let text = String::from_utf8_lossy(&bytes);
    let json: serde_json::Value = serde_json::from_str(text.trim())
        .map_err(|e| DbError::Parse(format!("{}: {e}", path.display())))?;
    Manifest::from_json(&json)
        .map(Some)
        .ok_or_else(|| DbError::Parse(format!("{}: malformed manifest", path.display())))
}

/// The file holding slice `slice` of `name` as of `generation`.
pub(crate) fn slice_path(dir: &Path, name: &str, slice: u64, generation: u64) -> PathBuf {
    dir.join(format!("{name}.{slice}.{generation}.slice"))
}

/// Parse a [`slice_path`] back into `(name, slice, generation)`.
pub(crate) fn parse_slice_path(path: &Path) -> Option<(&str, u64, u64)> {
    let mut parts = path.file_name()?.to_str()?.rsplitn(4, '.');
    if parts.next()? != "slice" {
        return None;
    }
    let generation = parts.next()?.parse().ok()?;
    let slice = parts.next()?.parse().ok()?;
    Some((parts.next()?, slice, generation))
}

/// Load one collection's slice files, as `entry` names them, into
/// `coll`. Returns how many rows were placed and what a lenient load
/// skipped.
pub(crate) fn load_slices(
    storage: &dyn Storage,
    dir: &Path,
    entry: &ManifestEntry,
    opts: &LoadOptions,
    coll: &mut Collection,
) -> DbResult<(usize, Vec<SkippedLines>)> {
    let mut loaded = 0;
    let mut skipped = Vec::new();
    for (&slice, &generation) in &entry.slices {
        let path = slice_path(dir, &entry.name, slice, generation);
        let bytes = storage.read(&path)?;
        let file = path.display().to_string();
        let (rows, bad) = load_slice(coll, slice, &bytes, &file, opts)?;
        loaded += rows;
        skipped.extend(bad);
    }
    Ok((loaded, skipped))
}

/// Place the rows of slice `slice`'s file `bytes` into `coll`, each at
/// its persisted seq, stopping at the first bad line (see the module
/// docs).
pub(crate) fn load_slice(
    coll: &mut Collection,
    slice: u64,
    bytes: &[u8],
    file: &str,
    opts: &LoadOptions,
) -> DbResult<(usize, Option<SkippedLines>)> {
    let mut last = None;
    let mut loaded = 0;
    let skipped = decode_jsonl(bytes, file, opts, |mut doc| {
        let seq = take_seq(&mut doc).ok_or("the row has no __seq")?;
        if seq / SLICE_ROWS != slice {
            return Err("__seq is outside the file's slice");
        }
        if last.is_some_and(|last| seq <= last) {
            return Err("__seq is not above the previous row's");
        }
        if !coll.load_at(seq, doc) {
            return Err("_id is already loaded");
        }
        last = Some(seq);
        loaded += 1;
        Ok(())
    })?;
    Ok((loaded, skipped))
}

/// Serialize rows as JSONL bytes, through the WAL's row writer
/// ([`RowRef::write_json`]): one encoder for log and snapshot, sealed
/// rows or not. Each row's insertion sequence is appended as the
/// reserved [`SEQ_FIELD`] (loaders strip it with [`take_seq`]).
pub(crate) fn encode_jsonl_seq<'a>(
    rows: impl Iterator<Item = (u64, impl Into<RowRef<'a>>)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, row) in rows {
        write_row(&mut out, seq, row.into());
    }
    out
}

/// One line of [`encode_jsonl_seq`].
fn write_row(out: &mut Vec<u8>, seq: u64, row: RowRef<'_>) {
    if row.get(SEQ_FIELD).is_some() {
        // A row that already carries the reserved field keeps it in
        // place, overwritten — what `Document::set` does.
        let mut with_seq = row.to_document();
        with_seq.set(SEQ_FIELD, seq as i64);
        RowRef::from(&with_seq).write_json(out);
    } else {
        row.write_json(out);
        out.pop();
        if !row.is_empty() {
            out.push(b',');
        }
        out.extend_from_slice(b"\"__seq\":");
        Value::Int(seq as i64).write_json(out);
        out.push(b'}');
    }
    out.push(b'\n');
}

/// One dirty slice's new file, and how many of its rows were copied
/// from the file it supersedes and how many encoded.
#[derive(Debug, PartialEq)]
pub(crate) struct SliceFile {
    pub bytes: Vec<u8>,
    pub copied: u64,
    pub encoded: u64,
}

/// Write a dirty slice: the [`encode_jsonl_seq`] bytes of `rows`,
/// spliced from `old`, the slice's file as the last checkpoint left it.
/// A row that is in `old` and not `replaced` since then is unchanged, so
/// its old line is copied verbatim; every other row is encoded, and a
/// row `old` holds but memory does not (deleted) drops out. Any surprise
/// in `old` — no file, a read error, a line not ending in
/// `"__seq":N}`, seqs out of order — encodes the whole slice instead.
pub(crate) fn write_slice<'a>(
    rows: impl Iterator<Item = (u64, impl Into<RowRef<'a>>)> + Clone,
    old: Option<impl BufRead>,
    replaced: &BTreeSet<u64>,
) -> SliceFile {
    if let Some(spliced) = old.and_then(|old| splice(rows.clone(), old, replaced)) {
        return spliced;
    }
    let mut encoded = 0;
    let bytes = encode_jsonl_seq(rows.inspect(|_| encoded += 1));
    SliceFile {
        bytes,
        copied: 0,
        encoded,
    }
}

/// [`write_slice`]'s merge walk of `rows` against `old` by seq; `None`
/// on a surprise.
fn splice<'a>(
    rows: impl Iterator<Item = (u64, impl Into<RowRef<'a>>)>,
    mut old: impl BufRead,
    replaced: &BTreeSet<u64>,
) -> Option<SliceFile> {
    let mut file = SliceFile {
        bytes: Vec::new(),
        copied: 0,
        encoded: 0,
    };
    // The old line read last, and its seq: `u64::MAX`, which no row
    // reaches, once `old` is spent.
    let mut line = Vec::new();
    let mut at = None;
    for (seq, doc) in rows {
        while at.is_none_or(|at| at < seq) {
            line.clear();
            if old.read_until(b'\n', &mut line).ok()? == 0 {
                at = Some(u64::MAX);
                break;
            }
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            let next = line_seq(&line)?;
            if at.is_some_and(|at| next <= at) {
                return None;
            }
            at = Some(next);
        }
        if at == Some(seq) && !replaced.contains(&seq) {
            file.bytes.extend_from_slice(&line);
            file.bytes.push(b'\n');
            file.copied += 1;
        } else {
            write_row(&mut file.bytes, seq, doc.into());
            file.encoded += 1;
        }
    }
    Some(file)
}

/// The seq a slice line ends in: `…,"__seq":N}` (or `{"__seq":N}`), the
/// last field [`write_row`] writes unless the row put it elsewhere.
fn line_seq(line: &[u8]) -> Option<u64> {
    let body = line.strip_suffix(b"}")?;
    let digits = body.iter().rev().take_while(|b| b.is_ascii_digit()).count();
    let (head, n) = body.split_at(body.len() - digits);
    let head = head.strip_suffix(b"\"__seq\":")?;
    if !matches!(head.last(), Some(b',' | b'{')) {
        return None;
    }
    std::str::from_utf8(n).ok()?.parse().ok()
}

/// Strip (and return) a row's persisted insertion sequence.
pub(crate) fn take_seq(doc: &mut Document) -> Option<u64> {
    match doc.remove(SEQ_FIELD) {
        Some(Value::Int(s)) if s >= 0 => Some(s as u64),
        _ => None,
    }
}

/// Decode JSONL bytes, handing each line's document to `place`.
///
/// A line that is not a JSON object, or that `place` refuses (with the
/// reason), is bad. Strict mode fails on the first bad line; lenient
/// mode keeps what was placed before it and reports what was dropped.
/// A torn write corrupts only the tail, so "first bad line to EOF" is
/// the exact damage a crash can do — mid-file garbage in lenient mode
/// likewise drops from the first bad line onward (we cannot trust
/// anything after it).
pub(crate) fn decode_jsonl(
    bytes: &[u8],
    file: &str,
    opts: &LoadOptions,
    mut place: impl FnMut(Document) -> Result<(), &'static str>,
) -> DbResult<Option<SkippedLines>> {
    let text = String::from_utf8_lossy(bytes);
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<serde_json::Value>(line)
            .ok()
            .map(|j| Value::from_json(&j));
        let placed = match parsed {
            Some(Value::Doc(doc)) => place(doc),
            Some(_) => Err("top-level value is not an object"),
            None => Err("not valid JSON"),
        };
        if let Err(reason) = placed {
            if !opts.skip_corrupt_tail {
                return Err(DbError::Parse(format!("{file}:{}: {reason}", lineno + 1)));
            }
            return Ok(Some(SkippedLines {
                file: file.to_string(),
                first_bad_line: lineno + 1,
                skipped: text.lines().count() - lineno,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::storage::FaultyStorage;
    use std::path::PathBuf;

    /// Rows as the document writer spells them, without `__seq`.
    fn encode_jsonl<'a>(docs: impl Iterator<Item = &'a Document>) -> Vec<u8> {
        let mut out = Vec::new();
        for doc in docs {
            RowRef::from(doc).write_json(&mut out);
            out.push(b'\n');
        }
        out
    }

    fn entry(name: &str, next_seq: u64, slices: &[(u64, u64)]) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            next_seq,
            slices: slices.iter().copied().collect(),
            indexes: Vec::new(),
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        assert_eq!(read_manifest(&storage, &dir).unwrap(), None);
        let m = Manifest {
            generation: 9,
            collections: vec![
                ManifestEntry {
                    indexes: vec!["hops".into(), "server_id".into()],
                    ..entry("paths", 40, &[(0, 9), (1, 5), (7, 9)])
                },
                entry("empty", 17, &[]),
            ],
        };
        write_manifest(&storage, &dir, &m).unwrap();
        assert_eq!(read_manifest(&storage, &dir).unwrap(), Some(m));
    }

    /// The one manifest format, whole: another format number, a missing
    /// column, or a column that is not one cell per collection is a
    /// parse error, never a fallback.
    #[test]
    fn a_manifest_is_format_3_with_every_column_whole() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        let read = |text: &str| {
            let _ = storage.remove(&dir.join(MANIFEST));
            storage
                .append(&dir.join(MANIFEST), format!("{{{text}}}\n").as_bytes())
                .unwrap();
            read_manifest(&storage, &dir)
        };
        let columns = [
            "\"collections\":[\"a\",\"b\"]",
            "\"seqs\":[3,0]",
            "\"slices\":[[0,2],[]]",
            "\"indexes\":[[\"t\",\"x.y\"],[]]",
        ];
        let whole = format!("\"format\":3,\"generation\":2,{}", columns.join(","));
        let m = read(&whole).unwrap().unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(
            m.collections,
            vec![
                ManifestEntry {
                    indexes: vec!["t".into(), "x.y".into()],
                    ..entry("a", 3, &[(0, 2)])
                },
                entry("b", 0, &[]),
            ]
        );
        let mut bad = vec![
            whole.replace("\"format\":3", "\"format\":2"),
            whole.replace("\"format\":3,", ""),
            whole.replace("\"generation\":2", "\"generation\":-1"),
            // What formats 1 and 2 wrote: names and generations only.
            "\"format\":1,\"generation\":4,\"collections\":[\"a\"]".into(),
            "\"format\":2,\"generation\":9,\"collections\":[\"a\"],\"gens\":[9],\"seqs\":[4]"
                .into(),
        ];
        for column in &columns[1..] {
            bad.push(whole.replace(&format!(",{column}"), ""));
        }
        for indexes in ["[[\"t\"]]", "[[\"t\"],[1]]", "7", "[[],\"t\"]"] {
            bad.push(whole.replace(columns[3], &format!("\"indexes\":{indexes}")));
        }
        bad.push(whole.replace(columns[1], "\"seqs\":[3]"));
        bad.push(whole.replace(columns[1], "\"seqs\":[3,-1]"));
        bad.push(whole.replace(columns[0], "\"collections\":[\"a\",2]"));
        bad.push(whole.replace(columns[0], "\"collections\":[\"a\"]"));
        for text in bad {
            assert!(matches!(read(&text), Err(DbError::Parse(_))), "{text}");
        }
    }

    #[test]
    fn malformed_slice_table_is_a_parse_error() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        for slices in ["[[0]]", "[]", "[[0,\"x\"]]", "7"] {
            let _ = storage.remove(&dir.join(MANIFEST));
            let text = format!(
                "{{\"format\":3,\"generation\":2,\"collections\":[\"a\"],\"seqs\":[3],\
                 \"slices\":{slices},\"indexes\":[[]]}}\n"
            );
            storage
                .append(&dir.join(MANIFEST), text.as_bytes())
                .unwrap();
            assert!(
                matches!(read_manifest(&storage, &dir), Err(DbError::Parse(_))),
                "{slices}"
            );
        }
    }

    #[test]
    fn slice_paths_parse_back_even_with_dotted_names() {
        let dir = PathBuf::from("/db");
        for name in ["paths_stats", "a.b", "wal.3"] {
            let path = slice_path(&dir, name, 12, 7);
            assert_eq!(parse_slice_path(&path), Some((name, 12, 7)));
        }
        assert_eq!(parse_slice_path(&dir.join("paths.jsonl")), None);
        assert_eq!(parse_slice_path(&dir.join("paths.x.7.slice")), None);
        assert_eq!(parse_slice_path(&dir.join("paths.1.7.slice.tmp")), None);
    }

    /// The streamed encoder against the value-tree renderer it
    /// replaced: the files must not change by a byte.
    #[test]
    fn streamed_jsonl_is_byte_identical_to_the_tree_renderer() {
        let docs = [
            doc! { "_id" => "a", "v" => 1i64, "nested" => doc! { "k" => vec![1i64, 2] } },
            // Already carries the reserved field, mid-document.
            doc! { "_id" => "b", "__seq" => 99i64, "tail" => "x\"y\\z\n" },
            Document::new(),
            doc! { "_id" => "nan", "f" => f64::NAN, "inf" => f64::NEG_INFINITY, "z" => -0.0f64 },
            doc! { "_id" => "é", "big" => i64::MIN, "half" => 0.5f64, "null" => Value::Null },
        ];
        let tree = |d: &Document| Value::Doc(d.clone()).to_json().to_string();
        let mut want = String::new();
        let mut want_seq = String::new();
        for (i, d) in docs.iter().enumerate() {
            want.push_str(&tree(d));
            want.push('\n');
            let mut with_seq = d.clone();
            with_seq.set(SEQ_FIELD, i as i64 + 5);
            want_seq.push_str(&tree(&with_seq));
            want_seq.push('\n');
        }
        assert_eq!(String::from_utf8(encode_jsonl(docs.iter())).unwrap(), want);
        let seq_rows = docs.iter().enumerate().map(|(i, d)| (i as u64 + 5, d));
        assert_eq!(
            String::from_utf8(encode_jsonl_seq(seq_rows)).unwrap(),
            want_seq
        );
        assert!(want_seq.contains("{\"__seq\":7}\n"), "{want_seq}");
        assert!(want_seq.contains("\"f\":null"), "{want_seq}");
    }

    /// `rows` with their seqs, as `Collection::slice_rows` hands them.
    fn seqd(rows: &[(u64, Document)]) -> impl Iterator<Item = (u64, &Document)> + Clone {
        rows.iter().map(|(s, d)| (*s, d))
    }

    #[test]
    fn a_splice_copies_unchanged_lines_and_encodes_the_rest() {
        let row = |id: &str, v: i64| doc! { "_id" => id, "v" => v };
        let before = [(3, row("a", 1)), (4, row("b", 2)), (6, row("c", 3))];
        let old = encode_jsonl_seq(seqd(&before));
        // `a` deleted, `b` replaced, `c` untouched, `d` appended.
        let after = [(4, row("b", 9)), (6, row("c", 3)), (7, row("d", 4))];
        let file = write_slice(seqd(&after), Some(&old[..]), &BTreeSet::from([4]));
        assert_eq!(file.bytes, encode_jsonl_seq(seqd(&after)));
        assert_eq!((file.copied, file.encoded), (1, 2));
        // Replaced rows are what makes `b` encoded: without the record
        // the stale line would be copied.
        let stale = write_slice(seqd(&after), Some(&old[..]), &BTreeSet::new());
        assert_ne!(stale.bytes, file.bytes);
        // A last line without its newline is still a whole line.
        let torn = &old[..old.len() - 1];
        let file = write_slice(seqd(&before), Some(torn), &BTreeSet::new());
        assert_eq!(file.bytes, old);
        assert_eq!((file.copied, file.encoded), (3, 0));
    }

    #[test]
    fn any_surprise_in_the_old_file_encodes_the_whole_slice() {
        let rows = [
            (1, doc! { "_id" => "a", "v" => 1i64 }),
            (2, doc! { "_id" => "b" }),
            (3, doc! { "_id" => "c" }),
        ];
        let full = encode_jsonl_seq(seqd(&rows));
        let (a, b) = (
            "{\"_id\":\"a\",\"v\":1,\"__seq\":1}\n",
            "{\"_id\":\"b\",\"__seq\":2}\n",
        );
        let surprises = [
            // A row that put `__seq` mid-document.
            format!("{{\"_id\":\"a\",\"__seq\":1,\"v\":1}}\n{b}"),
            // Out of order, and a repeated seq.
            format!("{b}{a}"),
            format!("{a}{a}"),
            // Garbage, an empty line, a torn seq.
            format!("{a}garbage\n"),
            format!("{a}\n{b}"),
            format!("{a}{}", &b[..b.len() - 3]),
        ];
        for old in surprises {
            let file = write_slice(seqd(&rows), Some(old.as_bytes()), &BTreeSet::new());
            assert_eq!(file.bytes, full, "{old}");
            assert_eq!((file.copied, file.encoded), (0, 3), "{old}");
        }
        // So does a missing file.
        let file = write_slice(seqd(&rows), None::<&[u8]>, &BTreeSet::new());
        assert_eq!((file.bytes, file.copied, file.encoded), (full, 0, 3));
        assert_eq!(line_seq(b"{\"__seq\":12}"), Some(12));
        assert_eq!(line_seq(b"{\"a\":{\"__seq\":12}}"), None);
        assert_eq!(line_seq(b"{\"a\":\"x\\\"__seq\\\":1}\"}"), None);
    }

    #[test]
    fn seq_roundtrip_strips_the_reserved_field() {
        let docs = [doc! { "_id" => "a" }, doc! { "_id" => "b" }];
        let bytes = encode_jsonl_seq(docs.iter().enumerate().map(|(i, d)| (i as u64 + 5, d)));
        let mut c = Collection::new("c");
        let loaded = load_slice(&mut c, 0, &bytes, "c", &LoadOptions::default()).unwrap();
        assert_eq!(loaded, (2, None));
        let rows: Vec<(u64, RowRef<'_>)> = c.slice_rows(0).collect();
        assert_eq!(
            rows,
            [(5, RowRef::from(&docs[0])), (6, RowRef::from(&docs[1]))],
            "reserved field stripped"
        );
    }

    /// `text` as slice 1's file: what a strict load says, and the ids a
    /// lenient one keeps and what it skips.
    fn load_text(text: &str) -> (Result<usize, String>, Vec<String>, Option<SkippedLines>) {
        let load = |opts: &LoadOptions| {
            let mut c = Collection::new("c");
            let loaded = load_slice(&mut c, 1, text.as_bytes(), "c.1.4.slice", opts);
            let ids = c.iter().map(|d| d.id().unwrap().to_string()).collect();
            (loaded, ids)
        };
        let (strict, _) = load(&LoadOptions::default());
        let (lenient, ids) = load(&LoadOptions {
            skip_corrupt_tail: true,
        });
        let (_, skipped) = lenient.unwrap();
        (
            strict.map(|(n, _)| n).map_err(|e| e.to_string()),
            ids,
            skipped,
        )
    }

    /// Each bad-line rule stops the load at its line: strict names
    /// `file:line`, lenient keeps the rows before it and skips the rest.
    #[test]
    fn a_bad_slice_line_stops_the_load_at_its_line() {
        let a = "{\"_id\":\"a\",\"__seq\":256}";
        let c = "{\"_id\":\"c\",\"__seq\":300}";
        let cases = [
            ("{\"_id\":\"b\"}", "the row has no __seq"),
            ("{\"_id\":\"b\",\"__seq\":-1}", "the row has no __seq"),
            ("{\"_id\":\"b\",\"__seq\":\"257\"}", "the row has no __seq"),
            (
                "{\"_id\":\"b\",\"__seq\":512}",
                "__seq is outside the file's slice",
            ),
            (
                "{\"_id\":\"b\",\"__seq\":255}",
                "__seq is outside the file's slice",
            ),
            (
                "{\"_id\":\"b\",\"__seq\":256}",
                "__seq is not above the previous row's",
            ),
            ("{\"_id\":\"a\",\"__seq\":257}", "_id is already loaded"),
            ("[1]", "top-level value is not an object"),
            ("{\"_id\":\"b\",\"__se", "not valid JSON"),
        ];
        for (bad, reason) in cases {
            let (strict, ids, skipped) = load_text(&format!("{a}\n{bad}\n{c}\n"));
            let want = format!("parse error: c.1.4.slice:2: {reason}");
            assert_eq!(strict, Err(want), "{bad}");
            assert_eq!(ids, ["a"], "{bad}");
            let want = SkippedLines {
                file: "c.1.4.slice".into(),
                first_bad_line: 2,
                skipped: 2,
            };
            assert_eq!(skipped, Some(want), "{bad}");
        }
        let (strict, ids, skipped) = load_text(&format!("{a}\n{c}\n"));
        assert_eq!((strict, skipped), (Ok(2), None));
        assert_eq!(ids, ["a", "c"]);
    }

    #[test]
    fn corrupt_manifest_is_a_parse_error() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        storage.append(&dir.join(MANIFEST), b"{oops").unwrap();
        assert!(matches!(
            read_manifest(&storage, &dir),
            Err(DbError::Parse(_))
        ));
    }

    /// Every line's document, in order, through [`decode_jsonl`].
    fn decode(bytes: &[u8], opts: &LoadOptions) -> DbResult<(Vec<Document>, Option<SkippedLines>)> {
        let mut docs = Vec::new();
        let skipped = decode_jsonl(bytes, "c.jsonl", opts, |doc| {
            docs.push(doc);
            Ok(())
        })?;
        Ok((docs, skipped))
    }

    #[test]
    fn jsonl_roundtrip_and_lenient_tail() {
        let docs = vec![
            doc! { "_id" => "1", "v" => 1i64 },
            doc! { "_id" => "2", "v" => 2.5f64 },
        ];
        let mut bytes = encode_jsonl(docs.iter());
        let (back, skipped) = decode(&bytes, &LoadOptions::default()).unwrap();
        assert_eq!(back, docs);
        assert_eq!(skipped, None);

        // Tear the last line: strict fails, lenient keeps the prefix.
        bytes.truncate(bytes.len() - 5);
        assert!(decode(&bytes, &LoadOptions::default()).is_err());
        let lenient = LoadOptions {
            skip_corrupt_tail: true,
        };
        let (back, skipped) = decode(&bytes, &lenient).unwrap();
        assert_eq!(back, docs[..1]);
        assert_eq!(
            skipped,
            Some(SkippedLines {
                file: "c.jsonl".into(),
                first_bad_line: 2,
                skipped: 1,
            })
        );
    }

    #[test]
    fn lenient_mode_drops_from_first_bad_line() {
        let bytes = b"{\"_id\":\"1\"}\ngarbage\n{\"_id\":\"3\"}\n";
        let lenient = LoadOptions {
            skip_corrupt_tail: true,
        };
        let (docs, skipped) = decode(bytes, &lenient).unwrap();
        assert_eq!(docs.len(), 1);
        let skipped = skipped.unwrap();
        assert_eq!(skipped.first_bad_line, 2);
        assert_eq!(skipped.skipped, 2);
    }
}
