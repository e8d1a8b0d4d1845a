//! Write-ahead log: CRC32-framed, length-prefixed operation records
//! appended in atomic commit groups.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [len: u32] [crc32(payload): u32] [payload: len bytes of JSON]
//! ```
//!
//! A *commit group* is N operation frames followed by one commit frame
//! carrying the expected count. The whole group is appended (and
//! fsync'd) as one write, so one `insert_many` batch reaches the disk
//! all-or-nothing — the paper's §4.2.2 loss bound ("at most one sample
//! per path of one destination") holds across crashes, not just across
//! clean exits.
//!
//! Records carry *effects*, not logical operations: updates log their
//! post-image documents and deletes log `_id` values. Replay is
//! therefore an idempotent upsert/delete, which is what makes the
//! snapshot/truncation protocol safe — a crash between "snapshot
//! landed" and "old log deleted" merely replays effects the snapshot
//! already contains.
//!
//! The reader stops at the first frame that is short, corrupt, or
//! unparsable; everything before the last *committed* group is the
//! intact prefix and the tail is truncated, not reported as an error.
//!
//! Recovery streams the log ([`crate::Storage::reader`]) instead of
//! reading it whole: at any moment it holds one frame's payload, in one
//! buffer reused for every frame, and the ops of the one group whose
//! commit marker it has not reached yet — never the log's bytes, never
//! its parsed ops.

use crate::document::{Document, RowRef};
use crate::error::{DbError, DbResult};
use crate::storage::Storage;
use crate::value::{write_json_array, Value};
use parking_lot::Mutex;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sanity cap on one frame's payload: a frame claiming more than this
/// is treated as a torn length prefix, not an allocation request.
const MAX_FRAME: u32 = 64 << 20;

/// Attempts per group append before the log declares durability lost.
const APPEND_ATTEMPTS: u32 = 3;

// ---- CRC32 (IEEE, the zlib polynomial) ------------------------------------

/// Slicing-by-8 lookup tables: `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets the hot loop fold 8 input
/// bytes per iteration instead of 1 — the checksum runs over every
/// committed batch, so it sits on the write path's critical section.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 checksum over `data` (IEEE polynomial, as in zlib/PNG).
fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- operations -----------------------------------------------------------

/// One logged effect. `InsertMany`/`Update` carry post-image documents;
/// `Delete` carries `_id` values; replay applies them idempotently.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    Insert { coll: String, doc: Document },
    InsertMany { coll: String, docs: Vec<Document> },
    Update { coll: String, docs: Vec<Document> },
    Delete { coll: String, ids: Vec<Value> },
    Drop { coll: String },
}

impl WalOp {
    /// How many documents/ids the op carries (for recovery reporting).
    pub(crate) fn effect_count(&self) -> usize {
        match self {
            WalOp::Insert { .. } | WalOp::Drop { .. } => 1,
            WalOp::InsertMany { docs, .. } | WalOp::Update { docs, .. } => docs.len(),
            WalOp::Delete { ids, .. } => ids.len(),
        }
    }

    fn from_json(v: &serde_json::Value) -> Option<WalOp> {
        let tag = v.get("t")?.as_str()?;
        let coll = v.get("c")?.as_str()?.to_string();
        let doc_of = |j: &serde_json::Value| match Value::from_json(j) {
            Value::Doc(d) => Some(d),
            _ => None,
        };
        match tag {
            "i" => Some(WalOp::Insert {
                coll,
                doc: doc_of(v.get("d")?)?,
            }),
            "m" | "u" => {
                let docs = v
                    .get("d")?
                    .as_array()?
                    .iter()
                    .map(doc_of)
                    .collect::<Option<Vec<_>>>()?;
                if tag == "m" {
                    Some(WalOp::InsertMany { coll, docs })
                } else {
                    Some(WalOp::Update { coll, docs })
                }
            }
            "d" => Some(WalOp::Delete {
                coll,
                ids: v
                    .get("d")?
                    .as_array()?
                    .iter()
                    .map(Value::from_json)
                    .collect(),
            }),
            "x" => Some(WalOp::Drop { coll }),
            _ => None,
        }
    }
}

/// Borrowed view of one op for encoding. The hot write path (one WAL
/// commit per `insert_many` batch) renders commit groups straight from
/// the caller's documents, skipping both the owned [`WalOp`] clone and
/// the intermediate `serde_json::Value` tree — this is what keeps the
/// WAL's insertion overhead within the §4.2.2 ablation budget.
pub(crate) enum WalOpRef<'a> {
    Insert {
        coll: &'a str,
        doc: &'a Document,
    },
    InsertMany {
        coll: &'a str,
        docs: Vec<&'a Document>,
    },
    Update {
        coll: &'a str,
        docs: &'a [Document],
    },
    Delete {
        coll: &'a str,
        ids: &'a [Value],
    },
    Drop {
        coll: &'a str,
    },
}

impl WalOpRef<'_> {
    /// Render the frame payload, byte-identical to what the owned
    /// tree-building path produced (`{"t":..,"c":..,"d":..}`).
    fn write_json(&self, out: &mut Vec<u8>) {
        let (tag, coll) = match self {
            WalOpRef::Insert { coll, .. } => (b'i', *coll),
            WalOpRef::InsertMany { coll, .. } => (b'm', *coll),
            WalOpRef::Update { coll, .. } => (b'u', *coll),
            WalOpRef::Delete { coll, .. } => (b'd', *coll),
            WalOpRef::Drop { coll } => (b'x', *coll),
        };
        out.extend_from_slice(b"{\"t\":\"");
        out.push(tag);
        out.extend_from_slice(b"\",\"c\":");
        serde::json::write_str(out, coll);
        match self {
            WalOpRef::Insert { doc, .. } => {
                out.extend_from_slice(b",\"d\":");
                RowRef::from(*doc).write_json(out);
            }
            WalOpRef::InsertMany { docs, .. } => write_docs(out, docs.iter().copied()),
            WalOpRef::Update { docs, .. } => write_docs(out, docs.iter()),
            WalOpRef::Delete { ids, .. } => {
                out.extend_from_slice(b",\"d\":");
                write_json_array(out, ids);
            }
            WalOpRef::Drop { .. } => {}
        }
        out.push(b'}');
    }
}

/// `,"d":[<doc>,...]`, the member every batch op carries.
fn write_docs<'a>(out: &mut Vec<u8>, docs: impl Iterator<Item = &'a Document>) {
    out.extend_from_slice(b",\"d\":[");
    for (i, d) in docs.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        RowRef::from(d).write_json(out);
    }
    out.push(b']');
}

// ---- framing --------------------------------------------------------------

/// Append one frame whose payload `write` renders straight into `buf`
/// behind a header placeholder; the header is filled in afterwards.
fn push_frame(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    write(buf);
    let payload = &buf[header + 8..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    buf[header..header + 4].copy_from_slice(&len);
    buf[header + 4..header + 8].copy_from_slice(&crc);
}

/// Encode one commit group: N op frames + a commit frame `{"t":"C","n":N}`.
pub(crate) fn encode_group(ops: &[WalOpRef<'_>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        push_frame(&mut buf, |out| op.write_json(out));
    }
    push_frame(&mut buf, |out| {
        out.extend_from_slice(b"{\"t\":\"C\",\"n\":");
        serde::json::write_u64(out, ops.len() as u64);
        out.push(b'}');
    });
    buf
}

/// Result of scanning one WAL file.
#[derive(Debug, Default)]
pub(crate) struct WalReplay {
    /// Committed groups handed to the caller, in append order.
    pub groups: usize,
    /// Byte offset just past the last committed group — the length to
    /// truncate the file to.
    pub valid_len: u64,
    /// Bytes past `valid_len` (torn frames plus uncommitted groups).
    pub torn_bytes: u64,
    /// Operation frames that parsed but whose commit marker never made
    /// it to disk; they are discarded, not replayed.
    pub dropped_uncommitted_ops: usize,
}

/// Scan the log `r` holds — `total_len` bytes — frame by frame,
/// stopping at the first torn or corrupt frame. Each group is handed to
/// `apply` when its commit marker is reached — never before, so an
/// uncommitted or torn tail is not seen — and is not kept.
///
/// What the scan holds is one frame and one group: a payload is read
/// into one buffer reused for every frame, and only after its length
/// prefix has been checked against what remains of `total_len`, so a
/// torn prefix claiming up to `MAX_FRAME` bytes allocates nothing.
/// `Err` only when `r` itself fails (or ends before `total_len`); a
/// damaged log is a [`WalReplay`] with torn bytes, not an error.
pub(crate) fn read_wal(
    mut r: impl Read,
    total_len: u64,
    mut apply: impl FnMut(Vec<WalOp>),
) -> io::Result<WalReplay> {
    let mut replay = WalReplay::default();
    let mut pending: Vec<WalOp> = Vec::new();
    let mut payload = Vec::new();
    let mut off = 0u64;
    while total_len - off >= 8 {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len > MAX_FRAME || u64::from(len) > total_len - off - 8 {
            break;
        }
        payload.clear();
        (&mut r).take(len.into()).read_to_end(&mut payload)?;
        if payload.len() != len as usize {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if crc32(&payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(&payload) else {
            break;
        };
        let Ok(json) = serde_json::from_str::<serde_json::Value>(text) else {
            break;
        };
        off += 8 + u64::from(len);
        if json.get("t").and_then(|t| t.as_str()) == Some("C") {
            // Commit marker: the group is durable iff the count matches.
            if json.get("n").and_then(|n| n.as_i64()) != Some(pending.len() as i64) {
                break;
            }
            apply(std::mem::take(&mut pending));
            replay.groups += 1;
            replay.valid_len = off;
        } else {
            let Some(op) = WalOp::from_json(&json) else {
                break;
            };
            pending.push(op);
        }
    }
    replay.dropped_uncommitted_ops = pending.len();
    replay.torn_bytes = total_len - replay.valid_len;
    Ok(replay)
}

// ---- the log handle -------------------------------------------------------

/// WAL file name for a generation: `wal.<gen>.log`. Generations tie a
/// log to the snapshot it extends — recovery replays every log whose
/// generation is `>=` the manifest's, in ascending order.
pub(crate) fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// Parse `wal.<gen>.log` back into a generation.
pub(crate) fn parse_wal_path(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal.")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

#[derive(Debug)]
struct WalState {
    generation: u64,
    /// Set when an append could not be made durable even after retries;
    /// cleared by the next successful checkpoint (which supersedes the
    /// log with a snapshot).
    poisoned: Option<String>,
}

/// The append side of the log, shared by every collection of one
/// database. `commit` serializes groups under an internal mutex, so a
/// group from one writer never interleaves with another's.
pub(crate) struct Wal {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    state: Mutex<WalState>,
}

impl Wal {
    pub(crate) fn new(storage: Arc<dyn Storage>, dir: PathBuf, generation: u64) -> Wal {
        Wal {
            storage,
            dir,
            state: Mutex::new(WalState {
                generation,
                poisoned: None,
            }),
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// `Err` with the first failure once an append has been lost;
    /// `Ok(())` while every committed group is durable.
    pub(crate) fn health(&self) -> DbResult<()> {
        match &self.state.lock().poisoned {
            Some(msg) => Err(DbError::Durability(msg.clone())),
            None => Ok(()),
        }
    }

    /// Append one commit group durably, from borrowed ops: the write
    /// path never clones the documents it logs. Transient failures are
    /// retried after rolling the file back to its pre-append length (so
    /// a torn first attempt cannot corrupt the frame stream);
    /// persistent failure poisons the log and returns the durability
    /// error so the caller can refuse to acknowledge the write. Data
    /// already applied before a poison (updates/deletes log after
    /// applying) stays in memory and the next successful checkpoint
    /// restores durability.
    pub(crate) fn commit_ref(&self, ops: &[WalOpRef<'_>]) -> DbResult<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.commit_encoded(encode_group(ops))
    }

    fn commit_encoded(&self, buf: Vec<u8>) -> DbResult<()> {
        let mut state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(DbError::Durability(msg.clone()));
        }
        let path = wal_path(&self.dir, state.generation);
        let base_len = self.storage.len(&path);
        let mut last_err = String::new();
        for attempt in 0..APPEND_ATTEMPTS {
            if attempt > 0 {
                // Undo any partial bytes of the failed attempt before
                // re-appending, or the stream would resync mid-frame.
                if self.storage.len(&path) > base_len
                    && self.storage.truncate(&path, base_len).is_err()
                {
                    break;
                }
            }
            match self.storage.append(&path, &buf) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e.to_string(),
            }
        }
        let msg = format!("wal append failed after {APPEND_ATTEMPTS} attempts: {last_err}");
        state.poisoned = Some(msg.clone());
        Err(DbError::Durability(msg))
    }

    /// Switch to a new generation (a fresh `wal.<gen>.log`) and clear
    /// any poisoning — called by checkpoint after the snapshot landed.
    pub(crate) fn rotate(&self, generation: u64) {
        let mut state = self.state.lock();
        state.generation = generation;
        state.poisoned = None;
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("generation", &state.generation)
            .field("poisoned", &state.poisoned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::storage::FaultyStorage;

    impl WalOp {
        /// Borrow this op for encoding.
        fn to_ref(&self) -> WalOpRef<'_> {
            match self {
                WalOp::Insert { coll, doc } => WalOpRef::Insert { coll, doc },
                WalOp::InsertMany { coll, docs } => WalOpRef::InsertMany {
                    coll,
                    docs: docs.iter().collect(),
                },
                WalOp::Update { coll, docs } => WalOpRef::Update { coll, docs },
                WalOp::Delete { coll, ids } => WalOpRef::Delete { coll, ids },
                WalOp::Drop { coll } => WalOpRef::Drop { coll },
            }
        }

        /// Reference rendering for the encoder tests: the tree-building
        /// counterpart of [`WalOpRef::write_json`].
        fn to_json(&self) -> serde_json::Value {
            let mut m = serde_json::Map::new();
            let (tag, coll) = match self {
                WalOp::Insert { coll, .. } => ("i", coll),
                WalOp::InsertMany { coll, .. } => ("m", coll),
                WalOp::Update { coll, .. } => ("u", coll),
                WalOp::Delete { coll, .. } => ("d", coll),
                WalOp::Drop { coll } => ("x", coll),
            };
            m.insert("t".into(), serde_json::Value::String(tag.into()));
            m.insert("c".into(), serde_json::Value::String(coll.clone()));
            match self {
                WalOp::Insert { doc, .. } => {
                    m.insert("d".into(), Value::Doc(doc.clone()).to_json());
                }
                WalOp::InsertMany { docs, .. } | WalOp::Update { docs, .. } => {
                    let arr = docs
                        .iter()
                        .map(|d| Value::Doc(d.clone()).to_json())
                        .collect();
                    m.insert("d".into(), serde_json::Value::Array(arr));
                }
                WalOp::Delete { ids, .. } => {
                    let arr = ids.iter().map(Value::to_json).collect();
                    m.insert("d".into(), serde_json::Value::Array(arr));
                }
                WalOp::Drop { .. } => {}
            }
            serde_json::Value::Object(m)
        }
    }

    /// [`encode_group`] over owned ops, as `sample_ops` builds them.
    fn encode(ops: &[WalOp]) -> Vec<u8> {
        let refs: Vec<WalOpRef<'_>> = ops.iter().map(WalOp::to_ref).collect();
        encode_group(&refs)
    }

    impl Wal {
        /// `commit_ref` over owned ops, as `sample_ops` builds them.
        fn commit(&self, ops: &[WalOp]) -> DbResult<()> {
            self.commit_encoded(encode(ops))
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference() {
        // A length that exercises both the 8-byte folds and a ragged
        // tail, checked against the plain one-byte-at-a-time recurrence.
        let data: Vec<u8> = (0..1027u32)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let mut c = !0u32;
        for &b in &data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        assert_eq!(crc32(&data), !c);
    }

    /// [`read_wal`] over a whole log in memory.
    fn replay(bytes: &[u8], apply: impl FnMut(Vec<WalOp>)) -> WalReplay {
        read_wal(bytes, bytes.len() as u64, apply).unwrap()
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                coll: "paths".into(),
                doc: doc! { "_id" => "p1", "hops" => 4i64 },
            },
            WalOp::InsertMany {
                coll: "paths_stats".into(),
                docs: vec![
                    doc! { "_id" => "s1", "lat" => 20.5f64 },
                    doc! { "_id" => "s2", "lat" => 21.0f64 },
                ],
            },
            WalOp::Update {
                coll: "paths".into(),
                docs: vec![doc! { "_id" => "p1", "hops" => 5i64 }],
            },
            WalOp::Delete {
                coll: "paths_stats".into(),
                ids: vec![Value::Str("s1".into()), Value::Int(7)],
            },
            WalOp::Drop { coll: "tmp".into() },
        ]
    }

    #[test]
    fn ops_roundtrip_through_json() {
        for op in sample_ops() {
            let json = op.to_json();
            let back = WalOp::from_json(
                &serde_json::from_str::<serde_json::Value>(&json.to_string()).unwrap(),
            );
            assert_eq!(back.as_ref(), Some(&op), "{json}");
        }
    }

    #[test]
    fn ref_encoding_matches_tree_encoding() {
        // The borrowed fast path and the owned tree path must stay
        // byte-identical — they share one on-disk format.
        for op in sample_ops() {
            let mut direct = Vec::new();
            op.to_ref().write_json(&mut direct);
            assert_eq!(direct, op.to_json().to_string().into_bytes());
        }
    }

    #[test]
    fn groups_roundtrip_through_frames() {
        let ops = sample_ops();
        let mut bytes = encode(&ops[..2]);
        bytes.extend(encode(&ops[2..]));
        let mut groups = Vec::new();
        let replay = replay(&bytes, |group| groups.push(group));
        assert_eq!(replay.groups, 2);
        assert_eq!(groups, [&ops[..2], &ops[2..]]);
        assert_eq!(replay.valid_len, bytes.len() as u64);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.dropped_uncommitted_ops, 0);
    }

    #[test]
    fn torn_tail_stops_at_last_commit() {
        let ops = sample_ops();
        let good = encode(&ops[..2]);
        let mut bytes = good.clone();
        bytes.extend(encode(&ops[2..]));
        // Cut anywhere inside the second group: only the first survives.
        for cut in good.len()..bytes.len() {
            let mut groups = Vec::new();
            let replay = replay(&bytes[..cut], |group| groups.push(group));
            assert_eq!(replay.groups, 1, "cut at {cut}");
            assert_eq!(
                groups,
                [&ops[..2]],
                "cut at {cut}: the torn group is never handed over"
            );
            assert_eq!(replay.valid_len, good.len() as u64, "cut at {cut}");
            assert_eq!(replay.torn_bytes, (cut - good.len()) as u64);
        }
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let ops = sample_ops();
        let good = encode(&ops[..1]);
        let mut bytes = good.clone();
        bytes.extend(encode(&ops[1..2]));
        // Flip a payload byte in the second group.
        let idx = good.len() + 10;
        bytes[idx] ^= 0x40;
        let replay = replay(&bytes, |_| {});
        assert_eq!(replay.groups, 1);
        assert_eq!(replay.valid_len, good.len() as u64);
    }

    #[test]
    fn uncommitted_group_is_dropped() {
        let ops = sample_ops();
        let mut bytes = encode(&ops[..2]);
        // Append two op frames with no commit marker.
        for op in &ops[2..4] {
            push_frame(&mut bytes, |out| {
                out.extend(op.to_json().to_string().bytes())
            });
        }
        let mut groups = Vec::new();
        let replay = replay(&bytes, |group| groups.push(group));
        assert_eq!(replay.groups, 1);
        assert_eq!(groups, [&ops[..2]], "uncommitted ops are never handed over");
        assert_eq!(replay.dropped_uncommitted_ops, 2);
        assert!(replay.torn_bytes > 0);
    }

    #[test]
    fn a_torn_length_prefix_is_checked_before_its_payload_is_read() {
        /// Hands out `bytes` and counts how many it handed out.
        struct Probe<'a>(&'a [u8], usize);
        impl Read for Probe<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.0.read(buf)?;
                self.1 += n;
                Ok(n)
            }
        }
        let mut log = (60u32 << 20).to_le_bytes().to_vec();
        log.extend([0xAB; 12]);
        let mut probe = Probe(&log, 0);
        let replay = read_wal(&mut probe, log.len() as u64, |_| panic!("nothing commits")).unwrap();
        assert_eq!(
            (replay.groups, replay.valid_len, replay.torn_bytes),
            (0, 0, 16)
        );
        assert_eq!(probe.1, 8, "the header, and not one payload byte");
    }

    #[test]
    fn commit_retries_transient_errors_and_repairs_partial_attempts() {
        let storage = FaultyStorage::new();
        let wal = Wal::new(Arc::new(storage.clone()), PathBuf::from("/db"), 0);
        let ops = sample_ops();
        storage.inject_transient_errors(2);
        wal.commit(&ops).unwrap();
        wal.health().unwrap();
        let bytes = storage.read(&wal_path(Path::new("/db"), 0)).unwrap();
        assert_eq!(replay(&bytes, |_| {}).groups, 1);
    }

    #[test]
    fn commit_poisons_after_persistent_failure_and_rotate_clears() {
        let storage = FaultyStorage::new();
        let wal = Wal::new(Arc::new(storage.clone()), PathBuf::from("/db"), 0);
        storage.inject_transient_errors(APPEND_ATTEMPTS);
        assert!(matches!(
            wal.commit(&sample_ops()),
            Err(DbError::Durability(_))
        ));
        assert!(matches!(wal.health(), Err(DbError::Durability(_))));
        // Later commits are refused too (durability already lost) ...
        assert!(wal.commit(&sample_ops()).is_err());
        // ... until a checkpoint rotates to a fresh generation.
        wal.rotate(1);
        wal.health().unwrap();
        assert_eq!(wal.generation(), 1);
    }
}
