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
//! with. The column is additive: a manifest without it (written before
//! it existed) loads with no indexes, and a reader that predates it
//! ignores it, so the format number stays.
//!
//! Directories written before slices (manifest format 1 and 2, or no
//! manifest at all: one `<name>.jsonl` per collection, format 2 with
//! per-collection generations) still load; the first checkpoint
//! rewrites them in this layout.
//!
//! Loading supports a lenient mode ([`LoadOptions::skip_corrupt_tail`])
//! that keeps the intact prefix of a torn JSONL file and reports the
//! skipped lines instead of failing the whole database.

use crate::document::Document;
use crate::error::{DbError, DbResult};
use crate::storage::Storage;
use crate::value::{write_json_doc, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// The manifest file name inside a database directory.
pub(crate) const MANIFEST: &str = "MANIFEST.json";

/// Manifest format version (bumped on incompatible layout changes).
/// Format 3 names slice files; formats 1 and 2 (one `<name>.jsonl` per
/// collection) are still read.
const MANIFEST_FORMAT: i64 = 3;

/// Rows per slice file. A checkpoint encodes the rows that changed and
/// copies the rest of each dirty slice line for line from the file it
/// supersedes, so this bounds the bytes a one-row change rewrites and
/// the pause of a checkpoint under time-series traffic (appends at the
/// newest seqs, expiry at the oldest: a handful of slices per round).
pub(crate) const SLICE_ROWS: u64 = 256;

/// Loader behavior for persisted JSONL files.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Keep the intact prefix of a file whose tail is torn or corrupt
    /// (reporting the skipped lines) instead of failing the load.
    pub skip_corrupt_tail: bool,
}

/// Lines dropped from one file by a lenient load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLines {
    pub file: String,
    /// 1-based line number of the first undecodable line.
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
    /// deleted tail). Format-1 manifests load with zero.
    pub next_seq: u64,
    /// Slice number → generation of the file that holds it. Empty in a
    /// legacy manifest.
    pub slices: BTreeMap<u64, u64>,
    /// Fields with a secondary index, sorted. Empty in a manifest
    /// written before indexes were recorded.
    pub indexes: Vec<String>,
}

/// The durable collection roster plus the checkpoint generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub generation: u64,
    pub collections: Vec<ManifestEntry>,
    /// The directory predates slices: each collection is one
    /// `<name>.jsonl`. Only ever read, never written.
    pub legacy: bool,
    /// The oldest WAL generation recovery must replay: `generation`,
    /// except under a format-2 manifest whose per-collection `gens`
    /// left some collections on older generations.
    pub replay_from: u64,
}

impl Manifest {
    /// The roster of a directory without a manifest: one legacy file
    /// per name, every WAL file replayed.
    pub(crate) fn legacy_roster(names: Vec<String>) -> Manifest {
        let entry = |name| ManifestEntry {
            name,
            next_seq: 0,
            slices: BTreeMap::new(),
            indexes: Vec::new(),
        };
        Manifest {
            generation: 0,
            collections: names.into_iter().map(entry).collect(),
            legacy: true,
            replay_from: 0,
        }
    }

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

    fn from_json(v: &serde_json::Value) -> Option<Manifest> {
        let generation = v.get("generation")?.as_i64()?.max(0) as u64;
        let names = v
            .get("collections")?
            .as_array()?
            .iter()
            .map(|n| n.as_str().map(String::from))
            .collect::<Option<Vec<_>>>()?;
        let u64s = |arr: &[serde_json::Value]| -> Option<Vec<u64>> {
            arr.iter()
                .map(|x| x.as_i64().map(|x| x.max(0) as u64))
                .collect()
        };
        let parallel_u64 = |key: &str, fallback: u64| -> Option<Vec<u64>> {
            match v.get(key).and_then(|c| c.as_array()) {
                Some(arr) if arr.len() == names.len() => u64s(arr),
                // An older format (or a malformed list): the fallback.
                _ => Some(vec![fallback; names.len()]),
            }
        };
        let seqs = parallel_u64("seqs", 0)?;
        // Slices are the data itself: a malformed table is a malformed
        // manifest, never a silent fallback to the legacy layout.
        let slices = match v.get("slices") {
            None => None,
            Some(tables) => {
                let tables = tables.as_array()?;
                if tables.len() != names.len() {
                    return None;
                }
                let table = |t: &serde_json::Value| -> Option<BTreeMap<u64, u64>> {
                    let flat = u64s(t.as_array()?)?;
                    (flat.len() % 2 == 0).then(|| flat.chunks(2).map(|p| (p[0], p[1])).collect())
                };
                Some(tables.iter().map(table).collect::<Option<Vec<_>>>()?)
            }
        };
        let replay_from = match slices {
            Some(_) => generation,
            None => parallel_u64("gens", generation)?
                .into_iter()
                .fold(generation, u64::min),
        };
        // Absent before indexes were recorded; present, it must be whole.
        let indexes = match v.get("indexes") {
            None => vec![Vec::new(); names.len()],
            Some(lists) => {
                let lists = lists.as_array()?;
                if lists.len() != names.len() {
                    return None;
                }
                let fields = |l: &serde_json::Value| -> Option<Vec<String>> {
                    let strs = l.as_array()?.iter().map(|f| f.as_str().map(String::from));
                    strs.collect()
                };
                lists.iter().map(fields).collect::<Option<Vec<_>>>()?
            }
        };
        let legacy = slices.is_none();
        let mut slices = slices.unwrap_or_default().into_iter();
        let collections = names
            .into_iter()
            .zip(seqs)
            .zip(indexes)
            .map(|((name, next_seq), indexes)| ManifestEntry {
                name,
                next_seq,
                slices: slices.next().unwrap_or_default(),
                indexes,
            })
            .collect();
        Some(Manifest {
            generation,
            collections,
            legacy,
            replay_from,
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

/// Read the manifest; `Ok(None)` when the directory has none (a legacy
/// plain-JSONL directory or a brand-new database).
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

/// Read one collection's persisted rows in seq order — its slice files,
/// or under a legacy manifest its `<name>.jsonl` — still carrying
/// [`SEQ_FIELD`] (strip it with [`take_seq`]).
pub(crate) fn read_rows(
    storage: &dyn Storage,
    dir: &Path,
    legacy: bool,
    entry: &ManifestEntry,
    opts: &LoadOptions,
) -> DbResult<(Vec<Document>, Vec<SkippedLines>)> {
    let paths: Vec<PathBuf> = if legacy {
        // A listed but missing legacy file (only a directory edited by
        // hand produces one) loads as an empty collection.
        let path = dir.join(format!("{}.jsonl", entry.name));
        storage.exists(&path).then_some(path).into_iter().collect()
    } else {
        let path = |(&slice, &generation)| slice_path(dir, &entry.name, slice, generation);
        entry.slices.iter().map(path).collect()
    };
    let mut docs = Vec::new();
    let mut skipped = Vec::new();
    for path in paths {
        let bytes = storage.read(&path)?;
        let (rows, bad) = decode_jsonl(&bytes, &path.display().to_string(), opts)?;
        docs.extend(rows);
        skipped.extend(bad);
    }
    Ok((docs, skipped))
}

/// Serialize rows as JSONL bytes, through the WAL's document writer
/// ([`write_json_doc`]): one encoder for log and snapshot. Each row's
/// insertion sequence is appended as the reserved [`SEQ_FIELD`]
/// (loaders strip it with [`take_seq`]).
pub(crate) fn encode_jsonl_seq<'a>(docs: impl Iterator<Item = (u64, &'a Document)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, doc) in docs {
        write_row(&mut out, seq, doc);
    }
    out
}

/// One line of [`encode_jsonl_seq`].
fn write_row(out: &mut Vec<u8>, seq: u64, doc: &Document) {
    if doc.contains_key(SEQ_FIELD) {
        // A row that already carries the reserved field keeps it in
        // place, overwritten — what `Document::set` does.
        let mut with_seq = doc.clone();
        with_seq.set(SEQ_FIELD, seq as i64);
        write_json_doc(out, &with_seq);
    } else {
        write_json_doc(out, doc);
        out.pop();
        if !doc.is_empty() {
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
    rows: impl Iterator<Item = (u64, &'a Document)> + Clone,
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
    rows: impl Iterator<Item = (u64, &'a Document)>,
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
            write_row(&mut file.bytes, seq, doc);
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

/// Decode JSONL bytes into documents.
///
/// Strict mode fails on the first bad line; lenient mode keeps the
/// intact prefix and reports what was dropped. A torn write corrupts
/// only the tail, so "first bad line to EOF" is the exact damage a
/// crash can do — mid-file garbage in lenient mode likewise drops from
/// the first bad line onward (we cannot trust anything after it).
pub(crate) fn decode_jsonl(
    bytes: &[u8],
    file: &str,
    opts: &LoadOptions,
) -> DbResult<(Vec<Document>, Option<SkippedLines>)> {
    let text = String::from_utf8_lossy(bytes);
    let mut docs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<serde_json::Value>(line)
            .ok()
            .map(|j| Value::from_json(&j));
        match parsed {
            Some(Value::Doc(doc)) => docs.push(doc),
            Some(_) | None => {
                let reason = if parsed.is_none() {
                    "not valid JSON"
                } else {
                    "top-level value is not an object"
                };
                if !opts.skip_corrupt_tail {
                    return Err(DbError::Parse(format!("{file}:{}: {reason}", lineno + 1)));
                }
                let total = text.lines().count();
                return Ok((
                    docs,
                    Some(SkippedLines {
                        file: file.to_string(),
                        first_bad_line: lineno + 1,
                        skipped: total - lineno,
                    }),
                ));
            }
        }
    }
    Ok((docs, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::storage::FaultyStorage;
    use std::path::PathBuf;

    /// Rows as the pre-slice `<collection>.jsonl` files spelled them
    /// (no `__seq`): what `decode_jsonl` still has to read.
    fn encode_jsonl<'a>(docs: impl Iterator<Item = &'a Document>) -> Vec<u8> {
        let mut out = Vec::new();
        for doc in docs {
            write_json_doc(&mut out, doc);
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
            legacy: false,
            replay_from: 9,
        };
        write_manifest(&storage, &dir, &m).unwrap();
        assert_eq!(read_manifest(&storage, &dir).unwrap(), Some(m));
    }

    /// A format-3 manifest from before the `indexes` column loads with
    /// no indexes; a column that is there but malformed is an error.
    #[test]
    fn the_index_column_is_optional_but_never_half_read() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        let read = |indexes: &str| {
            let _ = storage.remove(&dir.join(MANIFEST));
            let text = format!(
                "{{\"format\":3,\"generation\":2,\"collections\":[\"a\",\"b\"],\
                 \"seqs\":[3,0],\"slices\":[[0,2],[]]{indexes}}}\n"
            );
            storage
                .append(&dir.join(MANIFEST), text.as_bytes())
                .unwrap();
            read_manifest(&storage, &dir)
        };
        let m = read("").unwrap().unwrap();
        assert_eq!(
            m.collections,
            vec![entry("a", 3, &[(0, 2)]), entry("b", 0, &[])]
        );
        let m = read(",\"indexes\":[[\"t\",\"x.y\"],[]]").unwrap().unwrap();
        assert_eq!(m.collections[0].indexes, ["t", "x.y"]);
        for bad in ["[[\"t\"]]", "[[\"t\"],[1]]", "7", "[[],\"t\"]"] {
            let parsed = read(&format!(",\"indexes\":{bad}"));
            assert!(matches!(parsed, Err(DbError::Parse(_))), "{bad}");
        }
    }

    #[test]
    fn older_manifest_formats_load_as_legacy() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        let write = |text: &str| {
            let _ = storage.remove(&dir.join(MANIFEST));
            storage
                .append(&dir.join(MANIFEST), text.as_bytes())
                .unwrap();
        };
        // Format 1: every collection at the global generation.
        write("{\"format\":1,\"generation\":4,\"collections\":[\"a\",\"b\"]}\n");
        let m = read_manifest(&storage, &dir).unwrap().unwrap();
        assert!(m.legacy);
        assert_eq!(m.replay_from, 4);
        assert_eq!(m.collections, vec![entry("a", 0, &[]), entry("b", 0, &[])]);
        // Format 2: a lagging collection keeps older WAL generations
        // replayable.
        write(
            "{\"format\":2,\"generation\":9,\"collections\":[\"fresh\",\"lagging\"],\
             \"gens\":[9,5],\"seqs\":[40,17]}\n",
        );
        let m = read_manifest(&storage, &dir).unwrap().unwrap();
        assert!(m.legacy);
        assert_eq!((m.generation, m.replay_from), (9, 5));
        assert_eq!(
            m.collections,
            vec![entry("fresh", 40, &[]), entry("lagging", 17, &[])]
        );
    }

    #[test]
    fn malformed_slice_table_is_a_parse_error_not_a_legacy_fallback() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        for slices in ["[[0]]", "[]", "[[0,\"x\"]]", "7"] {
            let _ = storage.remove(&dir.join(MANIFEST));
            let text = format!(
                "{{\"format\":3,\"generation\":2,\"collections\":[\"a\"],\"seqs\":[3],\"slices\":{slices}}}\n"
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
        let (loaded, _) = decode_jsonl(&bytes, "c.jsonl", &LoadOptions::default()).unwrap();
        let seqs: Vec<u64> = loaded
            .into_iter()
            .map(|mut d| {
                let s = take_seq(&mut d).unwrap();
                assert!(d.get(SEQ_FIELD).is_none(), "reserved field stripped");
                s
            })
            .collect();
        assert_eq!(seqs, vec![5, 6]);
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

    #[test]
    fn jsonl_roundtrip_and_lenient_tail() {
        let docs = vec![
            doc! { "_id" => "1", "v" => 1i64 },
            doc! { "_id" => "2", "v" => 2.5f64 },
        ];
        let mut bytes = encode_jsonl(docs.iter());
        let (back, skipped) = decode_jsonl(&bytes, "c.jsonl", &LoadOptions::default()).unwrap();
        assert_eq!(back, docs);
        assert_eq!(skipped, None);

        // Tear the last line: strict fails, lenient keeps the prefix.
        bytes.truncate(bytes.len() - 5);
        assert!(decode_jsonl(&bytes, "c.jsonl", &LoadOptions::default()).is_err());
        let (back, skipped) = decode_jsonl(
            &bytes,
            "c.jsonl",
            &LoadOptions {
                skip_corrupt_tail: true,
            },
        )
        .unwrap();
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
        let (docs, skipped) = decode_jsonl(
            bytes,
            "c.jsonl",
            &LoadOptions {
                skip_corrupt_tail: true,
            },
        )
        .unwrap();
        assert_eq!(docs.len(), 1);
        let skipped = skipped.unwrap();
        assert_eq!(skipped.first_bad_line, 2);
        assert_eq!(skipped.skipped, 2);
    }
}
