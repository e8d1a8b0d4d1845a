//! Hostile slice files: what a directory's checkpoint wrote, then
//! edited byte by byte, loads as exactly the rows before the first bad
//! row of each file.
//!
//! Method: a database with two collections (holes punched into their
//! insertion sequences by deletes) is checkpointed into a fresh disk
//! directory. Some of its slice files are then mutated — cut at any
//! byte, a byte appended, a tag set to one no value has, a cell mask
//! that disagrees with the row count, a shape index past the table, a
//! length that claims more bytes than remain, an `_id` reused, `_id`
//! renamed in the shape table — and each mutation says which row turns
//! bad. Then:
//!
//! 1. a lenient open never panics, `len() == iter().count()`, every
//!    loaded row is found by its `_id`, each file contributes exactly
//!    its rows before the bad row, and `skipped` names that row;
//! 2. a write, a checkpoint and a reopen give back what the database
//!    held;
//! 3. a strict `load_dir` fails with `DbError::Parse` naming the first
//!    mutated file's bad `file:row` (and loads everything when nothing
//!    was mutated).
//!
//! The property reads and writes format 4 itself, for the rows it
//! makes (`{"_id": string, "v": int}`), so it also pins that layout.

use pathdb::database::OpenOptions;
use pathdb::{doc, Database, DbError, DiskStorage, Durability, Filter, SkippedRows};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per slice file: one of the numbers format 4 fixes on disk, as
/// the bits of a file's cell mask.
const SLICE_ROWS: u64 = 256;

/// Bytes of the cell mask a slice file starts with.
const MASK: usize = SLICE_ROWS as usize / 8;

/// Value tags, as `pathdb::arena` writes them.
const INT: u8 = 3;
const STR: u8 = 5;

const COLLECTIONS: [&str; 2] = ["a", "b"];

/// One edit of one slice file; `at` picks the row, bit or byte.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Cut,
    Append,
    UnusedTag,
    MaskBit,
    ShapePastTable,
    LengthPastEnd,
    ReuseId,
    RenameId,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Cut),
        Just(Mutation::Append),
        Just(Mutation::UnusedTag),
        Just(Mutation::MaskBit),
        Just(Mutation::ShapePastTable),
        Just(Mutation::LengthPastEnd),
        Just(Mutation::ReuseId),
        Just(Mutation::RenameId),
    ]
}

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut n = 0;
    for shift in (0..64).step_by(7) {
        let byte = bytes[*at];
        *at += 1;
        n |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    n
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn string(bytes: &[u8], at: &mut usize) -> String {
    let len = varint(bytes, at) as usize;
    *at += len;
    String::from_utf8(bytes[*at - len..*at].to_vec()).unwrap()
}

/// One row of a slice file as the property reads it back.
#[derive(Debug, Clone)]
struct Line {
    id: String,
    v: i64,
    seq: u64,
}

impl Line {
    /// The row as [`contents`] spells it.
    fn row(&self, coll: &str) -> String {
        let doc = doc! { "_id" => self.id.clone(), "v" => self.v };
        format!("{coll}: {doc}")
    }
}

/// A slice file read back: its rows, and the byte range of each.
struct File {
    lines: Vec<Line>,
    spans: Vec<(usize, usize)>,
}

impl File {
    /// Read what a checkpoint wrote for slice `slice`: the cell mask,
    /// the one shape (`_id`, `v`), the count, the rows.
    fn parse(bytes: &[u8], slice: u64) -> File {
        let seqs = (0..SLICE_ROWS).filter(|i| bytes[*i as usize / 8] & (1 << (i % 8)) != 0);
        let mut at = MASK;
        assert_eq!(varint(bytes, &mut at), 1, "one shape");
        assert_eq!(varint(bytes, &mut at), 2, "of two names");
        assert_eq!(
            (string(bytes, &mut at), string(bytes, &mut at)),
            ("_id".into(), "v".into())
        );
        let n = varint(bytes, &mut at) as usize;
        let mut file = File {
            lines: Vec::new(),
            spans: Vec::new(),
        };
        for seq in seqs {
            let start = at;
            assert_eq!(varint(bytes, &mut at), 0, "shape 0");
            assert_eq!(bytes[at], STR);
            at += 1;
            let id = string(bytes, &mut at);
            assert_eq!(bytes[at], INT);
            at += 1;
            let z = varint(bytes, &mut at);
            let v = (z >> 1) as i64 ^ -((z & 1) as i64);
            file.lines.push(Line {
                id,
                v,
                seq: slice * SLICE_ROWS + seq,
            });
            file.spans.push((start, at));
        }
        assert_eq!((file.lines.len(), at), (n, bytes.len()), "the rows, whole");
        assert_eq!(
            file.render(),
            bytes,
            "the property writes what pathdb writes"
        );
        file
    }

    fn render(&self) -> Vec<u8> {
        let mut out = vec![0; MASK];
        for l in &self.lines {
            let i = (l.seq % SLICE_ROWS) as usize;
            out[i / 8] |= 1 << (i % 8);
        }
        out.extend([1, 2]);
        put_str(&mut out, "_id");
        put_str(&mut out, "v");
        put_varint(&mut out, self.lines.len() as u64);
        for l in &self.lines {
            out.extend([0, STR]);
            put_str(&mut out, &l.id);
            out.push(INT);
            put_varint(&mut out, ((l.v << 1) ^ (l.v >> 63)) as u64);
        }
        out
    }
}

/// Apply `m` to `file`, picking by `at`: the file's new bytes, the
/// 0-based index of its first bad row (its row count when only bytes
/// after the last row are bad), and how many rows its mask names.
fn mutate(file: &File, bytes: &[u8], m: Mutation, at: usize) -> (Vec<u8>, usize, usize) {
    let n = file.lines.len();
    let i = at % n;
    let named = |b: &[u8]| {
        b[..b.len().min(MASK)]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    };
    let mut out = bytes.to_vec();
    let bad = match m {
        Mutation::Cut => {
            let cut = at % bytes.len();
            out.truncate(cut);
            file.spans.iter().filter(|(_, end)| *end <= cut).count()
        }
        Mutation::Append => {
            out.push(at as u8);
            n
        }
        Mutation::UnusedTag => {
            // The `_id`'s tag, after the shape index, or `v`'s, after
            // the id's one-byte length and its bytes.
            let start = file.spans[i].0;
            let tag = match at % 2 {
                0 => start + 1,
                _ => start + 3 + file.lines[i].id.len(),
            };
            assert!(matches!(out[tag], STR | INT));
            out[tag] = 8 + (at % 248) as u8;
            i
        }
        Mutation::MaskBit => {
            let bit = at % SLICE_ROWS as usize;
            out[bit / 8] ^= 1 << (bit % 8);
            0
        }
        Mutation::ShapePastTable => {
            out[file.spans[i].0] = 1 + (at % 127) as u8;
            i
        }
        Mutation::LengthPastEnd => {
            // The `_id`'s one-byte length becomes a claim past the file.
            let len_at = file.spans[i].0 + 2;
            let mut claim = Vec::new();
            put_varint(&mut claim, bytes.len() as u64 + (at % 1000) as u64);
            out.splice(len_at..len_at + 1, claim);
            i
        }
        Mutation::ReuseId => {
            if n < 2 {
                // Nothing earlier to reuse: append instead.
                out.push(0);
                return (out.clone(), n, named(&out));
            }
            let i = i.max(1);
            let mut lines = file.lines.clone();
            lines[i].id = lines[at % i].id.clone();
            out = File {
                lines,
                spans: Vec::new(),
            }
            .render();
            i
        }
        Mutation::RenameId => {
            // One letter of `_id`, after the shape count, its name
            // count and the name's length, changes case (`_` becomes
            // DEL): the rows have no `_id`, so the first is bad.
            let letter = MASK + 3 + at % 3;
            assert_eq!(out[letter], b"_id"[at % 3]);
            out[letter] ^= 0x20;
            0
        }
    };
    let named = named(&out);
    (out, bad, named)
}

/// The slice files of `name` in `dir`, in slice order, with their slice.
fn slice_files(dir: &Path, name: &str) -> Vec<(u64, PathBuf)> {
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let file = p.file_name()?.to_str()?.to_string();
            let rest = file
                .strip_prefix(&format!("{name}."))?
                .strip_suffix(".slice")?;
            let (slice, _generation) = rest.split_once('.')?;
            Some((slice.parse().ok()?, p))
        })
        .collect();
    files.sort();
    files
}

/// Every row of every collection, in collection then seq order.
fn contents(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for name in COLLECTIONS {
        let h = db.collection(name);
        let c = h.read();
        let rows: Vec<_> = c.iter().collect();
        assert_eq!(c.len(), rows.len(), "{name}: len() == iter().count()");
        for row in rows {
            let id = row.id().unwrap().to_string();
            assert_eq!(c.find_by_id(id.as_str()), Some(row), "{name}: {id}");
            out.push(format!("{name}: {row}"));
        }
    }
    out
}

fn open(dir: &Path) -> (Database, Vec<SkippedRows>) {
    let opts = OpenOptions::new(Durability::Snapshot).with_storage(DiskStorage::shared());
    let (db, report) = Database::open_durable_with(dir, opts).unwrap();
    (db, report.skipped)
}

fn fresh_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pathdb-hostile-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_mutated_slice_file_loads_exactly_its_rows_before_the_bad_row(
        rows in (1u64..700, 1u64..700),
        holes in (2i64..9, 2i64..9),
        edits in prop::collection::vec(
            prop::option::of((arb_mutation(), 0usize..10_000)),
            6,
        ),
    ) {
        let dir = fresh_dir();
        {
            let (db, _) = open(&dir);
            for (name, (n, hole)) in COLLECTIONS.iter().zip([(rows.0, holes.0), (rows.1, holes.1)]) {
                let h = db.collection(name);
                let docs = (0..n as i64).map(|v| doc! { "_id" => format!("{name}-{v}"), "v" => v });
                h.write().insert_many(docs.collect()).unwrap();
                // Holes below the allocator, and perhaps a deleted tail.
                let mut c = h.write();
                for v in (0..n as i64).filter(|v| v % hole == 1) {
                    c.delete_many(&Filter::eq("v", v));
                }
            }
            db.checkpoint().unwrap();
        }

        // Mutate, and say what each file must load and skip.
        let mut want = Vec::new();
        let mut want_skipped = Vec::new();
        let mut first_bad: Option<String> = None;
        let mut edits = edits.into_iter();
        for name in COLLECTIONS {
            for (slice, path) in slice_files(&dir, name) {
                let bytes = std::fs::read(&path).unwrap();
                let file = File::parse(&bytes, slice);
                let Some((m, at)) = edits.next().flatten() else {
                    want.extend(file.lines.iter().map(|l| l.row(name)));
                    continue;
                };
                let (bytes, bad, named) = mutate(&file, &bytes, m, at);
                std::fs::write(&path, bytes).unwrap();
                want.extend(file.lines[..bad].iter().map(|l| l.row(name)));
                let path = path.display().to_string();
                first_bad.get_or_insert_with(|| format!("{path}:{}: ", bad + 1));
                want_skipped.push(SkippedRows {
                    file: path,
                    first_bad_row: bad + 1,
                    skipped: named.saturating_sub(bad),
                });
            }
        }

        // Strict: the first bad row, by file and row.
        match (Database::load_dir(&dir), first_bad) {
            (Err(DbError::Parse(msg)), Some(at)) => prop_assert!(msg.starts_with(&at), "{msg} vs {at}"),
            (Ok(db), None) => prop_assert_eq!(contents(&db), want.clone()),
            (other, at) => prop_assert!(false, "{:?} vs {at:?}", other.map(|_| ())),
        }

        let (db, skipped) = open(&dir);
        prop_assert_eq!(contents(&db), want);
        prop_assert_eq!(skipped, want_skipped);

        // A write, a checkpoint and a reopen give back what was held.
        for name in COLLECTIONS {
            let fresh = doc! { "_id" => format!("{name}-new"), "v" => -1i64 };
            db.collection(name).write().insert_one(fresh).unwrap();
        }
        db.checkpoint().unwrap();
        let held = contents(&db);
        drop(db);
        let (reopened, _) = open(&dir);
        prop_assert_eq!(contents(&reopened), held);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
