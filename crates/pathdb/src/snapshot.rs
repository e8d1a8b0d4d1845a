//! Sliced snapshots and the collection manifest.
//!
//! A collection's rows are persisted in fixed-size *slices* of its
//! insertion sequence: the rows with `seq / SLICE_ROWS == s` live in
//! `<name>.<s>.<generation>.slice`. Slice files are immutable: a
//! checkpoint writes a *new* file, under its own generation, for every
//! slice a mutation touched since the last one, and then lands
//! `MANIFEST.json` atomically, naming for every collection the
//! generation of each of its slices. The manifest rename is the commit
//! point of the whole checkpoint — a file the manifest does not name is
//! garbage, so a crash anywhere before it leaves the previous checkpoint
//! whole, and the superseded files are deleted only after it.
//!
//! A slice file (format 4) holds its rows in the bytes a collection
//! holds them in: a 256-bit cell mask, 32 bytes, bit `i % 8` of byte
//! `i / 8` set when seq `s * SLICE_ROWS + i` holds a row; then what a
//! write-ahead log frame holds after its collection name
//! (`arena::put_rows`): the shape table, the row count and each row as
//! its shape's index and its bytes. A float that is not finite is
//! written as null, as the log writes it, so a recovered row does not
//! depend on which file held it. A checkpoint copies each dirty slice's
//! row bytes; it encodes nothing and reads no old file.
//!
//! The generation also names the WAL file (`wal.<gen>.log`, see
//! [`crate::wal`]) a checkpoint rotates to: recovery replays every log
//! with generation `>=` the manifest's, idempotently.
//!
//! The manifest also names each collection's secondary-index fields,
//! and loading rebuilds those indexes as it posts the rows, so a
//! reopened database plans through the indexes it was checkpointed
//! with.
//!
//! This is the one layout read and written: a manifest of an older
//! format is refused by name ([`DbError::OlderFormat`]) and the
//! directory left as it is; any other format, or a missing column, is
//! a parse error; and a directory without a manifest holds no database
//! yet — its files are neither loaded nor deleted.
//!
//! Loading is one checked walk per file (`arena::Checked`, which checks
//! each row as log replay does) and packs the rows, each at the seq its
//! mask bit names, straight into one sealed slice. A mask cut short, a
//! shape table or count that does not read, a count that is not the
//! mask's, a row that does not read, a row without an `_id` or with one
//! already loaded, or bytes after the last row are bad: strict loads
//! fail on the first (`file:row`), lenient ones
//! (`LoadOptions::skip_corrupt_tail`) keep the rows before it and
//! report the rest of the file's rows as skipped.

use crate::arena::{self, Checked, Parts};
use crate::collection::Collection;
use crate::document::RowRef;
use crate::error::{DbError, DbResult};
use crate::storage::Storage;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The manifest file name inside a database directory.
pub(crate) const MANIFEST: &str = "MANIFEST.json";

/// Manifest format version, the only one read: format 4 names slice
/// files of binary rows. Formats 1-3 are an older build's.
const MANIFEST_FORMAT: i64 = 4;

/// Rows per slice file: one bit of a file's cell mask each. A
/// checkpoint rewrites whole dirty slices, so this bounds the bytes a
/// one-row change rewrites and the pause of a checkpoint under
/// time-series traffic (appends at the newest seqs, expiry at the
/// oldest: a handful of slices per round).
pub(crate) const SLICE_ROWS: u64 = 256;

/// Bytes of a slice file's cell mask.
const MASK_BYTES: usize = SLICE_ROWS as usize / 8;

/// Loader behavior for slice files.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LoadOptions {
    /// Keep the rows before a file's first bad row (reporting the
    /// skipped rows) instead of failing the load.
    pub skip_corrupt_tail: bool,
}

/// Rows dropped from one file by a lenient load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedRows {
    pub file: String,
    /// 1-based number of the first bad row, in file order.
    pub first_bad_row: usize,
    /// How many of the rows the file's cell mask names were dropped
    /// (a mask cut short names the rows of the bytes it has).
    pub skipped: usize,
}

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
    /// a cell of the wrong type, a slice past the seq space, or a
    /// collection named twice (its slices would load over each other).
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
            // A slice's seqs, and the allocator past them, fit 64 bits.
            let slice = |s: &serde_json::Value| u64_of(s).filter(|&s| s < u64::MAX / SLICE_ROWS);
            let pairs = flat
                .chunks(2)
                .map(|p| Some((slice(&p[0])?, u64_of(&p[1])?)));
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
        let collections: Vec<ManifestEntry> = (0..names.len()).map(entry).collect::<Option<_>>()?;
        let distinct: BTreeSet<&str> = collections.iter().map(|e| e.name.as_str()).collect();
        (distinct.len() == collections.len()).then_some(Manifest {
            generation,
            collections,
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
/// database never checkpointed, or no database at all), and
/// [`DbError::OlderFormat`] when an older build wrote it.
pub(crate) fn read_manifest(storage: &dyn Storage, dir: &Path) -> DbResult<Option<Manifest>> {
    let path = dir.join(MANIFEST);
    if !storage.exists(&path) {
        return Ok(None);
    }
    let bytes = storage.read(&path)?;
    let text = String::from_utf8_lossy(&bytes);
    let json: serde_json::Value = serde_json::from_str(text.trim())
        .map_err(|e| DbError::Parse(format!("{}: {e}", path.display())))?;
    let format = json.get("format").and_then(serde_json::Value::as_i64);
    if format.is_some_and(|f| (1..MANIFEST_FORMAT).contains(&f)) {
        return Err(DbError::OlderFormat(path));
    }
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

/// Slice `slice`'s file: its cell mask (bit `i`: the row at seq
/// `slice * SLICE_ROWS + i`), then `rows`, the masked rows in seq
/// order, as `arena::put_rows` writes them.
pub(crate) fn write_slice<'r>(
    mask: &[u64; MASK_BYTES / 8],
    rows: impl Iterator<Item = Parts<'r>> + Clone,
) -> Vec<u8> {
    let mut out: Vec<u8> = mask.iter().flat_map(|word| word.to_le_bytes()).collect();
    arena::put_rows(&mut out, rows);
    out
}

/// Load slice `slice`'s file `bytes` into `coll`: its rows up to the
/// first bad one (see the module docs), each at the cell its mask bit
/// names, borrowed from `bytes` and packed by `Collection::load_slice`.
pub(crate) fn load_slice(
    coll: &mut Collection,
    slice: u64,
    bytes: &[u8],
    file: &str,
    opts: &LoadOptions,
) -> DbResult<(usize, Option<SkippedRows>)> {
    let (mask, body) = bytes.split_at(bytes.len().min(MASK_BYTES));
    let named: usize = mask.iter().map(|b| b.count_ones() as usize).sum();
    let mut r = Checked::new(body);
    // A mask cut short leaves no body: no table reads.
    let table = r.shapes();
    let mut rows = Vec::new();
    let mut read = || {
        if mask.len() < MASK_BYTES {
            return Err("the cell mask is cut short");
        }
        let table = table.as_deref().ok_or("the shape table does not read")?;
        if r.count() != Some(named) {
            return Err("the row count is not the mask's");
        }
        let cells = (0..MASK_BYTES * 8).filter(|i| mask[i / 8] & (1 << (i % 8)) != 0);
        for i in cells {
            let row = r.row(table).ok_or("the row does not read")?;
            if RowRef::encoded(row).get("_id").is_none() {
                return Err("the row has no _id");
            }
            rows.push((i, row));
        }
        if !r.is_empty() {
            return Err("bytes follow the last row");
        }
        Ok(())
    };
    let read = read();
    let loaded = coll.load_slice(slice, &rows);
    let reason = match read {
        _ if loaded < rows.len() => "_id is already loaded",
        Ok(()) => return Ok((loaded, None)),
        Err(reason) => reason,
    };
    if !opts.skip_corrupt_tail {
        return Err(DbError::Parse(format!("{file}:{}: {reason}", loaded + 1)));
    }
    Ok((
        loaded,
        Some(SkippedRows {
            file: file.to_string(),
            first_bad_row: loaded + 1,
            skipped: named.saturating_sub(loaded),
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Row;
    use crate::doc;
    use crate::document::Document;
    use crate::storage::FaultyStorage;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

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

    /// The one manifest format, whole: an older build's format is
    /// refused by name; another format number, a missing column, or a
    /// column that is not one cell per collection is a parse error,
    /// never a fallback.
    #[test]
    fn a_manifest_is_format_4_with_every_column_whole() {
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
        let whole = format!("\"format\":4,\"generation\":2,{}", columns.join(","));
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
        let older = [
            // What format 3 wrote: the same columns, JSON slice lines.
            whole.replace("\"format\":4", "\"format\":3"),
            // What formats 1 and 2 wrote: names and generations only.
            "\"format\":1,\"generation\":4,\"collections\":[\"a\"]".into(),
            "\"format\":2,\"generation\":9,\"collections\":[\"a\"],\"gens\":[9],\"seqs\":[4]"
                .into(),
        ];
        for text in older {
            let err = read(&text).unwrap_err();
            assert!(
                matches!(&err, DbError::OlderFormat(path) if *path == dir.join(MANIFEST)),
                "{text}: {err}"
            );
        }
        let mut bad = vec![
            whole.replace("\"format\":4", "\"format\":5"),
            whole.replace("\"format\":4", "\"format\":0"),
            whole.replace("\"format\":4,", ""),
            whole.replace("\"generation\":2", "\"generation\":-1"),
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
        bad.push(whole.replace(columns[0], "\"collections\":[\"a\",\"a\"]"));
        bad.push(whole.replace(columns[0], "\"collections\":[\"a\"]"));
        for text in bad {
            assert!(matches!(read(&text), Err(DbError::Parse(_))), "{text}");
        }
    }

    #[test]
    fn malformed_slice_table_is_a_parse_error() {
        let storage = FaultyStorage::new();
        let dir = PathBuf::from("/db");
        // The last slice number is 2^56 - 1: its last seq's successor is 2^64.
        for slices in ["[[0]]", "[]", "[[0,\"x\"]]", "7", "[[72057594037927935,1]]"] {
            let _ = storage.remove(&dir.join(MANIFEST));
            let text = format!(
                "{{\"format\":4,\"generation\":2,\"collections\":[\"a\"],\"seqs\":[3],\
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

    /// A collection holding `rows`, one slice's, at their seqs.
    fn holding(rows: &[(u64, Document)]) -> Collection {
        let slice = rows[0].0 / SLICE_ROWS;
        let rows: Vec<(usize, Row)> = rows
            .iter()
            .map(|(seq, doc)| ((seq - slice * SLICE_ROWS) as usize, Row::new(doc)))
            .collect();
        let parts: Vec<_> = rows.iter().map(|(i, row)| (*i, row.parts())).collect();
        let mut c = Collection::new("c");
        assert_eq!(c.load_slice(slice, &parts), rows.len());
        c
    }

    /// Slice `slice`'s file as a checkpoint of `c` writes it.
    fn file_of(c: &Collection, slice: u64) -> Vec<u8> {
        let (mask, rows) = c.slice_parts(slice).expect("a slice with rows");
        write_slice(mask, rows)
    }

    /// Every row of `c` with its seq.
    fn rows_of(c: &Collection) -> Vec<(u64, Document)> {
        c.docs.iter().map(|(s, r)| (s, r.to_document())).collect()
    }

    /// A slice file is the cell mask, then the rows as a log frame
    /// holds them, and loads back to the same rows at the same seqs —
    /// a row's own `__seq` field too, wherever it stands.
    #[test]
    fn a_slice_file_spells_the_documented_layout_and_loads_back() {
        let rows = [
            (256, doc! { "_id" => "a", "v" => 1i64 }),
            (258, doc! { "_id" => "b", "__seq" => 99i64, "v" => 2i64 }),
            (511, doc! { "_id" => "c", "v" => -1i64, "__seq" => "x" }),
        ];
        let c = holding(&rows);
        let file = file_of(&c, 1);
        let mut want = vec![0b101, 0, 0, 0, 0, 0, 0, 0];
        want.extend([0; 23]);
        want.push(0x80);
        let mut body = Vec::new();
        arena::put_rows(&mut body, c.slice_parts(1).unwrap().1);
        want.extend(&body);
        assert_eq!(file, want);
        // Three shapes, the first of two names: `_id`, `v`.
        assert_eq!(body[..7], [3, 2, 3, b'_', b'i', b'd', 1]);
        let mut back = Collection::new("c");
        let loaded = load_slice(&mut back, 1, &file, "c", &LoadOptions::default()).unwrap();
        assert_eq!(loaded, (3, None));
        assert_eq!(rows_of(&back), rows);
        // The file holds what was loaded: nothing is dirty.
        assert_eq!(back.take_dirty(), BTreeSet::new());
    }

    /// `bytes` as slice 1's file: what a strict load says, and the ids
    /// a lenient one keeps and what it skips.
    fn load_bytes(bytes: &[u8]) -> (Result<usize, String>, Vec<String>, Option<SkippedRows>) {
        let load = |opts: &LoadOptions| {
            let mut c = Collection::new("c");
            let loaded = load_slice(&mut c, 1, bytes, "c.1.4.slice", opts);
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

    /// Each bad-row rule stops the load at its row: strict names
    /// `file:row`, lenient keeps the rows before it and reports the rest
    /// of the rows the mask names as skipped.
    #[test]
    fn a_bad_slice_row_stops_the_load_at_its_row() {
        let rows = [
            (256, doc! { "_id" => "a", "v" => 1i64 }),
            (257, doc! { "_id" => "b", "v" => 2i64 }),
            (300, doc! { "_id" => "c", "v" => 3i64 }),
        ];
        let file = file_of(&holding(&rows), 1);
        let (strict, ids, skipped) = load_bytes(&file);
        assert_eq!((strict, skipped), (Ok(3), None));
        assert_eq!(ids, ["a", "b", "c"]);
        // Where row `b` starts: past the one shape (`_id`, `v`), the
        // count, and `a` (its shape index, `"a"`, `1`).
        let table = MASK_BYTES + 1 + 1 + 4 + 2;
        let b = table + 1 + (1 + 3 + 2);
        assert_eq!(file[b..b + 4], [0, 5, 1, b'b'], "b: shape 0, `_id` \"b\"");
        let edit = |at: usize, byte: u8| {
            let mut f = file.clone();
            f[at] = byte;
            f
        };
        let cases: [(Vec<u8>, usize, usize, &str); 10] = [
            (file[..20].to_vec(), 1, 3, "the cell mask is cut short"),
            (
                file[..table - 3].to_vec(),
                1,
                3,
                "the shape table does not read",
            ),
            (
                file[..table].to_vec(),
                1,
                3,
                "the row count is not the mask's",
            ),
            (edit(0, 0b111), 1, 4, "the row count is not the mask's"),
            // An unused tag, a shape past the table, a length past the end.
            (edit(b + 1, 9), 2, 2, "the row does not read"),
            (edit(b, 5), 2, 2, "the row does not read"),
            (edit(b + 2, 100), 2, 2, "the row does not read"),
            (
                file[..file.len() - 1].to_vec(),
                3,
                1,
                "the row does not read",
            ),
            (edit(b + 3, b'a'), 2, 2, "_id is already loaded"),
            (
                [&file[..], &[0]].concat(),
                4,
                0,
                "bytes follow the last row",
            ),
        ];
        for (bytes, row, dropped, reason) in cases {
            let (strict, ids, skipped) = load_bytes(&bytes);
            let want = format!("parse error: c.1.4.slice:{row}: {reason}");
            assert_eq!(strict, Err(want), "{reason}");
            assert_eq!(ids, ["a", "b", "c"][..row - 1], "{reason}");
            let want = SkippedRows {
                file: "c.1.4.slice".into(),
                first_bad_row: row,
                skipped: dropped,
            };
            assert_eq!(skipped, Some(want), "{reason}");
        }
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
}
