//! Hostile slice files: what a directory's checkpoint wrote, then
//! edited line by line, loads as exactly the rows before the first bad
//! line of each file.
//!
//! Method: a database with two collections (holes punched into their
//! insertion sequences by deletes) is checkpointed into a fresh disk
//! directory. Some of its slice files are then mutated — a `__seq`
//! dropped, duplicated or moved out of the file's slice, two lines
//! swapped, an `_id` reused at a fresh seq, a line cut mid-way, a
//! garbage line inserted — and each mutation says which line turns bad.
//! Then:
//!
//! 1. a lenient open never panics, `len() == iter().count()`, every
//!    loaded row is found by its `_id`, each file contributes exactly
//!    its rows before the bad line, and `skipped` names that line;
//! 2. a write, a checkpoint and a reopen give back what the database
//!    held;
//! 3. a strict `load_dir` fails with `DbError::Parse` naming the first
//!    mutated file's bad `file:line` (and loads everything when nothing
//!    was mutated).

use pathdb::database::OpenOptions;
use pathdb::{doc, Database, DbError, DiskStorage, Durability, Filter, SkippedLines};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per slice file: one of the numbers format 3 fixes on disk.
const SLICE_ROWS: u64 = 256;

const COLLECTIONS: [&str; 2] = ["a", "b"];

/// One edit of one slice file; `at` picks the line.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    DropSeq,
    DuplicateSeq,
    MoveSeq,
    Swap,
    ReuseId,
    Cut,
    Garbage,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::DropSeq),
        Just(Mutation::DuplicateSeq),
        Just(Mutation::MoveSeq),
        Just(Mutation::Swap),
        Just(Mutation::ReuseId),
        Just(Mutation::Cut),
        Just(Mutation::Garbage),
    ]
}

/// One slice line as the property reads it back.
#[derive(Debug, Clone)]
struct Line {
    id: String,
    v: i64,
    seq: u64,
}

impl Line {
    fn parse(text: &str) -> Line {
        let json: serde_json::Value = serde_json::from_str(text).expect("a written line");
        Line {
            id: json.get("_id").unwrap().as_str().unwrap().to_string(),
            v: json.get("v").unwrap().as_i64().unwrap(),
            seq: json.get("__seq").unwrap().as_i64().unwrap() as u64,
        }
    }

    fn render(&self) -> String {
        format!(
            "{{\"_id\":\"{}\",\"v\":{},\"__seq\":{}}}",
            self.id, self.v, self.seq
        )
    }

    /// The row as [`contents`] spells it.
    fn row(&self, coll: &str) -> String {
        let doc = doc! { "_id" => self.id.clone(), "v" => self.v };
        format!("{coll}: {doc}")
    }
}

/// Apply `m` at line `at % len` of `lines`: the file's new text and the
/// 0-based index of its first bad line. Mutations that need two lines
/// insert garbage into a one-line file instead.
fn mutate(lines: &[Line], m: Mutation, at: usize) -> (Vec<String>, usize) {
    let mut text: Vec<String> = lines.iter().map(Line::render).collect();
    let n = lines.len();
    let i = at % n;
    let m = match m {
        Mutation::DuplicateSeq | Mutation::Swap | Mutation::ReuseId if n < 2 => Mutation::Garbage,
        m => m,
    };
    let bad = match m {
        Mutation::DropSeq => {
            text[i] = format!("{{\"_id\":\"{}\",\"v\":{}}}", lines[i].id, lines[i].v);
            i
        }
        Mutation::DuplicateSeq => {
            let i = i.max(1);
            let seq = lines[i - 1].seq;
            text[i] = Line {
                seq,
                ..lines[i].clone()
            }
            .render();
            i
        }
        Mutation::MoveSeq => {
            let seq = lines[i].seq + SLICE_ROWS;
            text[i] = Line {
                seq,
                ..lines[i].clone()
            }
            .render();
            i
        }
        Mutation::Swap => {
            let i = i.min(n - 2);
            text.swap(i, i + 1);
            i + 1
        }
        Mutation::ReuseId => {
            let i = i.max(1);
            let id = lines[at % i].id.clone();
            text[i] = Line {
                id,
                ..lines[i].clone()
            }
            .render();
            i
        }
        Mutation::Cut => {
            let cut = 1 + at % (text[i].len() - 1);
            text[i].truncate(cut);
            i
        }
        Mutation::Garbage => {
            text.insert(i, "garbage".into());
            i
        }
    };
    (text, bad)
}

/// The slice files of `name` in `dir`, in slice order.
fn slice_files(dir: &Path, name: &str) -> Vec<PathBuf> {
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
    files.into_iter().map(|(_, p)| p).collect()
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

fn open(dir: &Path) -> (Database, Vec<SkippedLines>) {
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
    fn a_mutated_slice_file_loads_exactly_its_rows_before_the_bad_line(
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
            for path in slice_files(&dir, name) {
                let text = std::fs::read_to_string(&path).unwrap();
                let lines: Vec<Line> = text.lines().map(Line::parse).collect();
                let Some((m, at)) = edits.next().flatten() else {
                    want.extend(lines.iter().map(|l| l.row(name)));
                    continue;
                };
                let (text, bad) = mutate(&lines, m, at);
                std::fs::write(&path, text.join("\n") + "\n").unwrap();
                let kept = text[..bad].iter().map(|t| Line::parse(t));
                want.extend(kept.map(|l| l.row(name)));
                let file = path.display().to_string();
                first_bad.get_or_insert_with(|| format!("{file}:{}: ", bad + 1));
                want_skipped.push(SkippedLines {
                    file,
                    first_bad_line: bad + 1,
                    skipped: text.len() - bad,
                });
            }
        }

        // Strict: the first bad line, by file and line.
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
