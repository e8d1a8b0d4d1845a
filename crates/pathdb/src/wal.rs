//! Write-ahead log: CRC32-framed, length-prefixed operation records
//! appended in atomic commit groups.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [len: u32] [crc32(payload): u32] [payload: len bytes]
//! ```
//!
//! A payload is a tag byte and its body, in the byte encoding a
//! collection holds its rows in (`arena`). An op frame is its tag (`i`
//! insert, `m` insert many, `u` update, `d` delete, `x` drop), the
//! collection name, then its rows — one shape table per frame, each
//! row as its shape's index and its bytes, copied from the row the
//! collection stores — or its `_id` values: what a slice file holds
//! after its cell mask (`crate::snapshot`). A float that is not finite
//! is logged as null, as a slice file holds it. A *commit group* is N
//! op frames followed by one commit frame, a `C` and the count N. The
//! whole group is appended (and fsync'd) as one write, so one
//! `insert_many` batch reaches the disk all-or-nothing — the paper's
//! §4.2.2 loss bound ("at most one sample per path of one destination")
//! holds across crashes, not just across clean exits.
//!
//! Records carry *effects*, not logical operations: updates log their
//! post-image documents and deletes log `_id` values. Replay is
//! therefore an idempotent upsert/delete, which is what makes the
//! snapshot/truncation protocol safe — a crash between "snapshot
//! landed" and "old log deleted" merely replays effects the snapshot
//! already contains.
//!
//! The reader stops at the first frame that is short, corrupt, or does
//! not decode — a valid checksum over bad contents is no better than a
//! bad checksum, and decoding checks every count and length against
//! the frame before it allocates, and every byte a stored row's
//! readers will read; everything before the last *committed* group is
//! the intact prefix and the tail is truncated, not reported as an
//! error. A frame whose payload starts with `{` is an older build's
//! JSON: the scan stops there and says so
//! (`WalReplay::older_format`), and the open refuses the log rather
//! than truncate it ([`crate::DbError::OlderFormat`]).
//!
//! Recovery streams the log ([`crate::Storage::reader`]) instead of
//! reading it whole: at any moment it holds one frame's payload, in one
//! buffer reused for every frame, and the ops of the one group whose
//! commit marker it has not reached yet — never the log's bytes, never
//! its parsed ops.

use crate::arena::{self, Checked, Row};
use crate::error::{DbError, DbResult};
use crate::storage::Storage;
use crate::value::Value;
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
pub(crate) fn crc32(data: &[u8]) -> u32 {
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

/// One logged effect. `InsertMany`/`Update` carry post-image rows;
/// `Delete` carries `_id` values; replay applies them idempotently.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    Insert { coll: String, doc: Row },
    InsertMany { coll: String, docs: Vec<Row> },
    Update { coll: String, docs: Vec<Row> },
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
}

// A payload's first byte: the op, or a commit marker.
const INSERT: u8 = b'i';
const INSERT_MANY: u8 = b'm';
const UPDATE: u8 = b'u';
const DELETE: u8 = b'd';
const DROP: u8 = b'x';
const COMMIT: u8 = b'C';

/// Borrowed view of one op for encoding. The hot write path (one WAL
/// commit per `insert_many` batch) copies the bytes each row was
/// encoded in for the collection, so a row is encoded once for both —
/// this is what keeps the WAL's insertion overhead within the §4.2.2
/// ablation budget.
pub(crate) enum WalOpRef<'a> {
    Insert { coll: &'a str, doc: &'a Row },
    InsertMany { coll: &'a str, docs: &'a [Row] },
    Update { coll: &'a str, docs: &'a [Row] },
    Delete { coll: &'a str, ids: &'a [Value] },
    Drop { coll: &'a str },
}

impl WalOpRef<'_> {
    /// Render the frame payload: the tag, the collection name, then the
    /// rows or the ids.
    fn write(&self, out: &mut Vec<u8>) {
        let (tag, coll) = match self {
            WalOpRef::Insert { coll, .. } => (INSERT, *coll),
            WalOpRef::InsertMany { coll, .. } => (INSERT_MANY, *coll),
            WalOpRef::Update { coll, .. } => (UPDATE, *coll),
            WalOpRef::Delete { coll, .. } => (DELETE, *coll),
            WalOpRef::Drop { coll } => (DROP, *coll),
        };
        out.push(tag);
        arena::put_str(out, coll);
        match self {
            WalOpRef::Insert { doc, .. } => arena::put_rows(out, [doc.parts()].into_iter()),
            WalOpRef::InsertMany { docs, .. } | WalOpRef::Update { docs, .. } => {
                arena::put_rows(out, docs.iter().map(Row::parts))
            }
            WalOpRef::Delete { ids, .. } => {
                arena::put_varint(out, ids.len() as u64);
                ids.iter()
                    .for_each(|id| arena::put_logged_value(out, id.view()));
            }
            WalOpRef::Drop { .. } => {}
        }
    }
}

/// What one frame's payload holds.
#[derive(Debug, PartialEq)]
enum Frame {
    Op(WalOp),
    /// A commit marker and the count of ops its group holds.
    Commit(u64),
}

/// Read one payload in one checked walk: `None` unless all of it is one
/// well-formed frame.
fn decode(payload: &[u8]) -> Option<Frame> {
    let mut r = Checked::new(payload);
    let tag = r.byte()?;
    if tag == COMMIT {
        let n = r.varint()?;
        return r.is_empty().then_some(Frame::Commit(n));
    }
    let coll = r.str()?.to_owned();
    let op = match tag {
        INSERT => {
            let [doc]: [Row; 1] = r.rows()?.try_into().ok()?;
            WalOp::Insert { coll, doc }
        }
        INSERT_MANY => WalOp::InsertMany {
            coll,
            docs: r.rows()?,
        },
        UPDATE => WalOp::Update {
            coll,
            docs: r.rows()?,
        },
        DELETE => {
            let ids = (0..r.count()?).map(|_| r.owned()).collect::<Option<_>>()?;
            WalOp::Delete { coll, ids }
        }
        DROP => WalOp::Drop { coll },
        _ => return None,
    };
    r.is_empty().then_some(Frame::Op(op))
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

/// Encode one commit group: N op frames + a commit frame (`C`, N).
pub(crate) fn encode_group(ops: &[WalOpRef<'_>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        push_frame(&mut buf, |out| op.write(out));
    }
    push_frame(&mut buf, |out| {
        out.push(COMMIT);
        arena::put_varint(out, ops.len() as u64);
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
    /// The scan stopped at a frame an older build wrote (a JSON
    /// payload): the log is in a format this build does not read, not
    /// torn, and must not be truncated.
    pub older_format: bool,
}

/// Scan the log `r` holds — `total_len` bytes — frame by frame,
/// stopping at the first torn, corrupt or undecodable frame. Each group
/// is handed to `apply` when its commit marker is reached — never
/// before, so an uncommitted or torn tail is not seen — and is not
/// kept.
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
        payload.resize(len as usize, 0);
        r.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            break;
        }
        if payload.first() == Some(&b'{') {
            replay.older_format = true;
            break;
        }
        off += 8 + u64::from(len);
        match decode(&payload) {
            // Commit marker: the group is durable iff the count matches.
            Some(Frame::Commit(n)) if n == pending.len() as u64 => {
                apply(std::mem::take(&mut pending));
                replay.groups += 1;
                replay.valid_len = off;
            }
            Some(Frame::Op(op)) => pending.push(op),
            Some(Frame::Commit(_)) | None => break,
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

    /// Append one commit group ([`encode_group`]) durably. Transient
    /// failures are retried after rolling the file back to its
    /// pre-append length (so a torn first attempt cannot corrupt the
    /// frame stream); persistent failure poisons the log and returns the
    /// durability error so the caller can refuse to acknowledge the
    /// write. Data already applied before a poison (updates/deletes log
    /// after applying) stays in memory and the next successful
    /// checkpoint restores durability.
    pub(crate) fn commit_encoded(&self, buf: Vec<u8>) -> DbResult<()> {
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
    use crate::document::Document;
    use crate::storage::FaultyStorage;

    impl WalOp {
        /// Borrow this op for encoding.
        fn to_ref(&self) -> WalOpRef<'_> {
            match self {
                WalOp::Insert { coll, doc } => WalOpRef::Insert { coll, doc },
                WalOp::InsertMany { coll, docs } => WalOpRef::InsertMany { coll, docs },
                WalOp::Update { coll, docs } => WalOpRef::Update { coll, docs },
                WalOp::Delete { coll, ids } => WalOpRef::Delete { coll, ids },
                WalOp::Drop { coll } => WalOpRef::Drop { coll },
            }
        }
    }

    /// [`encode_group`] over owned ops, as `sample_ops` builds them.
    fn encode(ops: &[WalOp]) -> Vec<u8> {
        let refs: Vec<WalOpRef<'_>> = ops.iter().map(WalOp::to_ref).collect();
        encode_group(&refs)
    }

    impl Wal {
        /// `commit_encoded` over owned ops, as `sample_ops` builds them.
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
                doc: Row::new(&doc! { "_id" => "p1", "hops" => 4i64 }),
            },
            WalOp::InsertMany {
                coll: "paths_stats".into(),
                docs: vec![
                    Row::new(&doc! { "_id" => "s1", "lat" => 20.5f64 }),
                    Row::new(&doc! { "_id" => "s2", "lat" => 21.0f64 }),
                ],
            },
            WalOp::Update {
                coll: "paths".into(),
                docs: vec![Row::new(&doc! { "_id" => "p1", "hops" => 5i64 })],
            },
            WalOp::Delete {
                coll: "paths_stats".into(),
                ids: vec![Value::Str("s1".into()), Value::Int(7)],
            },
            WalOp::Drop { coll: "tmp".into() },
        ]
    }

    /// One op's payload, as its frame holds it.
    fn payload(op: &WalOp) -> Vec<u8> {
        let mut out = Vec::new();
        op.to_ref().write(&mut out);
        out
    }

    #[test]
    fn ops_roundtrip_through_their_payloads() {
        for op in sample_ops() {
            assert_eq!(decode(&payload(&op)), Some(Frame::Op(op.clone())));
        }
        assert_eq!(decode(&[COMMIT, 2]), Some(Frame::Commit(2)));
        assert_eq!(decode(&[]), None);
        assert_eq!(
            decode(&encode(&sample_ops())),
            None,
            "a whole group is no payload"
        );
    }

    #[test]
    fn payloads_spell_the_documented_layout() {
        let ops = sample_ops();
        // Tag, collection; the shape table: one shape of two names; the
        // rows: one, of shape 0, its values a string and a zigzag int.
        assert_eq!(
            payload(&ops[0]),
            b"i\x05paths\x01\x02\x03_id\x04hops\x01\x00\x05\x02p1\x03\x08"
        );
        // Two rows of one shape share its entry; a float is its bits.
        let mut many = b"m\x0bpaths_stats\x01\x02\x03_id\x03lat\x02".to_vec();
        for (id, lat) in [(b"s1", 20.5f64), (b"s2", 21.0)] {
            many.extend(b"\x00\x05\x02");
            many.extend(id);
            many.push(4);
            many.extend(lat.to_le_bytes());
        }
        assert_eq!(payload(&ops[1]), many);
        // Ids are values; a drop is its collection.
        assert_eq!(payload(&ops[3]), b"d\x0bpaths_stats\x02\x05\x02s1\x03\x0e");
        assert_eq!(payload(&ops[4]), b"x\x03tmp");
        // The commit frame: `C` and the op count, after its header.
        let group = encode(&ops[..2]);
        assert_eq!(group[group.len() - 2..], *b"C\x02");
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
            push_frame(&mut bytes, |out| op.to_ref().write(out));
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

    /// A log made of an older build's JSON frames is reported, not
    /// scanned past and not counted as torn.
    #[test]
    fn an_older_builds_frame_stops_the_scan_and_says_so() {
        let mut log = encode(&sample_ops()[..1]);
        let intact = log.len() as u64;
        push_frame(&mut log, |out| out.extend(br#"{"t":"C","n":0}"#));
        log.extend(encode(&sample_ops()[1..]));
        let replay = replay(&log, |_| {});
        assert!(replay.older_format);
        assert_eq!((replay.groups, replay.valid_len), (1, intact));
    }

    /// Rows nested past what a JSON text may hold are refused, without
    /// a stack as deep as the claim.
    #[test]
    fn nesting_is_bounded_like_a_json_line() {
        let nested = |depth: usize| {
            let mut v = Value::Int(1);
            for _ in 0..depth {
                v = Value::Array(vec![v]);
            }
            doc! { "_id" => "deep", "v" => v }
        };
        let group = |doc: &Document| {
            encode_group(&[WalOpRef::Insert {
                coll: "c",
                doc: &Row::new(doc),
            }])
        };
        // The row is one level, as its exported object is.
        let deepest = serde::json::MAX_DEPTH - 1;
        assert_eq!(replay(&group(&nested(deepest)), |_| {}).groups, 1);
        for depth in [deepest + 1, 1000] {
            let log = group(&nested(depth));
            assert_eq!(replay(&log, |_| {}).torn_bytes, log.len() as u64, "{depth}");
        }
    }

    mod hostile {
        use super::*;
        use crate::arena::Sealed;
        use crate::collection::Collection;
        use crate::document::RowRef;
        use crate::snapshot::{load_slice, write_slice, LoadOptions};
        use crate::value::ValueRef;
        use proptest::prelude::*;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        /// Notes the largest single allocation a thread asks for while
        /// it reads a log in [`watched`]. A request past `REFUSED_FROM`
        /// then is refused, which aborts the test binary rather than
        /// lend a claim in hostile bytes the machine's memory.
        struct Watch;

        const REFUSED_FROM: usize = 256 << 20;

        thread_local! {
            static WATCHING: Cell<bool> = const { Cell::new(false) };
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        /// Whether a request of `size` bytes may be served.
        fn note(size: usize) -> bool {
            let watched = WATCHING.try_with(Cell::get).unwrap_or(false);
            if watched {
                LARGEST.with(|l| l.set(l.get().max(size)));
            }
            !watched || size < REFUSED_FROM
        }

        unsafe impl GlobalAlloc for Watch {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                if note(layout.size()) {
                    unsafe { System.alloc(layout) }
                } else {
                    std::ptr::null_mut()
                }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                if note(layout.size()) {
                    unsafe { System.alloc_zeroed(layout) }
                } else {
                    std::ptr::null_mut()
                }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                if note(new_size) {
                    unsafe { System.realloc(ptr, layout, new_size) }
                } else {
                    std::ptr::null_mut()
                }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static WATCH: Watch = Watch;

        /// What `read` returns, and the largest single allocation it
        /// made.
        fn watching<T>(read: impl FnOnce() -> T) -> (T, usize) {
            LARGEST.with(|l| l.set(0));
            WATCHING.with(|w| w.set(true));
            let out = read();
            WATCHING.with(|w| w.set(false));
            (out, LARGEST.with(Cell::get))
        }

        /// `log` read whole: the replay, the groups it handed out, and
        /// the largest single allocation the read made.
        fn watched(log: &[u8]) -> (WalReplay, Vec<Vec<WalOp>>, usize) {
            let mut groups = Vec::with_capacity(16);
            let (replay, largest) =
                watching(|| read_wal(log, log.len() as u64, |group| groups.push(group)));
            (replay.unwrap(), groups, largest)
        }

        /// What a read of frames as long as `longest` may allocate at
        /// once: one item per byte, and no item the decoder holds is
        /// wider than 64 B; plus the little a group's pending list and
        /// the handed-out list take.
        fn bound(longest: usize) -> usize {
            64 * longest + 4096
        }

        /// Each frame's payload, in order.
        fn payloads(log: &[u8]) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            let mut rest = log;
            while !rest.is_empty() {
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                out.push(rest[8..8 + len].to_vec());
                rest = &rest[8 + len..];
            }
            out
        }

        fn framed<'a>(payloads: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<u8> {
            let mut log = Vec::new();
            for p in payloads {
                push_frame(&mut log, |out| out.extend_from_slice(p));
            }
            log
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
                "[a-z✓]{0,6}".prop_map(Value::Str),
            ];
            leaf.prop_recursive(2, 12, 3, |inner| {
                prop_oneof![
                    inner.clone(),
                    prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
                    prop::collection::vec(("[a-c]{1,2}", inner), 0..3).prop_map(|fields| {
                        Value::Doc(
                            fields
                                .iter()
                                .map(|(k, v)| (k.as_str(), v.clone()))
                                .collect(),
                        )
                    }),
                ]
            })
        }

        fn arb_doc() -> impl Strategy<Value = Document> {
            let fields = prop::collection::vec(("[a-d]{1,2}", arb_value()), 0..4);
            ("[0-9]{1,3}", fields).prop_map(|(id, fields)| {
                let rest = fields.iter().map(|(k, v)| (k.as_str(), v.clone()));
                [("_id", Value::Str(id))].into_iter().chain(rest).collect()
            })
        }

        fn arb_op() -> impl Strategy<Value = WalOp> {
            let coll = "[a-z_]{1,12}";
            prop_oneof![
                (coll, arb_doc()).prop_map(|(coll, doc)| WalOp::Insert {
                    coll,
                    doc: Row::new(&doc)
                }),
                (coll, prop::collection::vec(arb_doc(), 1..4)).prop_map(|(coll, docs)| {
                    WalOp::InsertMany {
                        coll,
                        docs: docs.iter().map(Row::new).collect(),
                    }
                }),
                (coll, prop::collection::vec(arb_doc(), 0..3)).prop_map(|(coll, docs)| {
                    WalOp::Update {
                        coll,
                        docs: docs.iter().map(Row::new).collect(),
                    }
                }),
                (coll, prop::collection::vec(arb_value(), 0..3))
                    .prop_map(|(coll, ids)| WalOp::Delete { coll, ids }),
                coll.prop_map(|coll| WalOp::Drop { coll }),
            ]
        }

        /// One change to a payload at `at` (taken modulo its length).
        #[derive(Debug, Clone)]
        enum Mutation {
            Flip(usize, u8),
            Set(usize, u8),
            Insert(usize, u8),
            Remove(usize),
            Truncate(usize),
        }

        fn arb_mutation() -> impl Strategy<Value = Mutation> {
            let at = any::<usize>;
            let special = prop::sample::select(vec![0xFF, 0x80, 0, b'{', b'C']);
            prop_oneof![
                (at(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, 1 << bit)),
                (at(), any::<u8>()).prop_map(|(at, b)| Mutation::Set(at, b)),
                (at(), special).prop_map(|(at, b)| Mutation::Set(at, b)),
                (at(), any::<u8>()).prop_map(|(at, b)| Mutation::Insert(at, b)),
                at().prop_map(Mutation::Remove),
                at().prop_map(Mutation::Truncate),
            ]
        }

        fn mutate(payload: &mut Vec<u8>, m: &Mutation) {
            let len = payload.len();
            let at = |i: usize| i % len;
            match *m {
                Mutation::Flip(i, bit) => payload[at(i)] ^= bit,
                Mutation::Set(i, b) => payload[at(i)] = b,
                Mutation::Insert(i, b) => payload.insert(at(i), b),
                Mutation::Remove(i) => {
                    payload.remove(at(i));
                }
                Mutation::Truncate(i) => payload.truncate(at(i)),
            }
        }

        /// Random bytes, often behind a real tag.
        fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
            let tag = prop::sample::select(b"imudxC{\x00".to_vec());
            let rest = prop::collection::vec(any::<u8>(), 0..48);
            (tag, any::<bool>(), rest).prop_map(|(tag, tagged, mut rest)| {
                if tagged {
                    rest.insert(0, tag);
                }
                rest
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A frame whose checksum holds over bad contents: the
            /// decoder, not the checksum, must refuse it — without a
            /// panic, without sizing anything by its claims, handing out
            /// every intact group before it and nothing past it.
            #[test]
            fn hostile_frames_end_the_scan_and_nothing_else(
                groups in prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..4),
                pick: usize,
                mutation in arb_mutation(),
            ) {
                let log: Vec<u8> = groups.iter().flat_map(|g| encode(g)).collect();
                let (intact, want, _) = watched(&log);
                prop_assert_eq!(intact.groups, groups.len());
                // Which group each frame belongs to, and where it starts.
                let mut frames = payloads(&log);
                let group_of: Vec<usize> = groups
                    .iter()
                    .enumerate()
                    .flat_map(|(k, g)| std::iter::repeat_n(k, g.len() + 1))
                    .collect();
                let f = pick % frames.len();
                let k = group_of[f];
                mutate(&mut frames[f], &mutation);
                let log = framed(&frames);
                let start: usize = frames
                    .iter()
                    .zip(&group_of)
                    .take_while(|(_, &g)| g < k)
                    .map(|(p, _)| 8 + p.len())
                    .sum();
                let longest = frames.iter().map(Vec::len).max().unwrap_or(0);

                let (replay, got, largest) = watched(&log);
                prop_assert!(largest <= bound(longest), "{largest} B for frames of {longest} B");
                prop_assert_eq!(replay.valid_len + replay.torn_bytes, log.len() as u64);
                prop_assert!(got.len() >= k, "an intact group before the damage was lost");
                prop_assert_eq!(&got[..k], &want[..k]);
                let stopped = (got.len(), replay.valid_len) == (k, start as u64);
                if frames[f].first() == Some(&b'{') {
                    prop_assert!(replay.older_format && stopped);
                } else if decode(&frames[f]).is_none() {
                    prop_assert!(!replay.older_format && stopped, "{:?}", replay);
                } else {
                    // It decoded as some other frame: the group holds
                    // another op, ends early (and the scan ends at its
                    // old commit), or no longer commits.
                    prop_assert!(!replay.older_format);
                    prop_assert!([k, k + 1, groups.len()].contains(&got.len()));
                    if got.len() == groups.len() {
                        prop_assert_eq!(&got[k + 1..], &want[k + 1..]);
                    }
                }
            }

            /// Random payloads behind valid checksums.
            #[test]
            fn random_payloads_never_panic_or_overallocate(
                frames in prop::collection::vec(arb_payload(), 1..8),
            ) {
                let log = framed(&frames);
                let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
                let (replay, got, largest) = watched(&log);
                prop_assert!(largest <= bound(longest), "{largest} B for frames of {longest} B");
                prop_assert_eq!(replay.valid_len + replay.torn_bytes, log.len() as u64);
                prop_assert_eq!(got.len(), replay.groups);
            }
        }

        /// Every field of `row`, read by name and by walk, down through
        /// its arrays and nested documents, then copied out and written.
        fn read_whole(row: RowRef<'_>) {
            fn read(v: ValueRef<'_>) {
                match v {
                    ValueRef::Array(items) => items.iter().for_each(read),
                    ValueRef::Doc(doc) => read_whole(doc),
                    _ => {}
                }
            }
            for (name, v) in row.fields() {
                assert!(row.get(name).is_some(), "{name} is found by name");
                read(v);
            }
            assert_eq!(row.to_document().len(), row.len());
            let mut json = Vec::new();
            row.write_json(&mut json);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A stored row is read without checks, so every row a
            /// mutated frame still yields — its group accepted — must
            /// be whole: it reads through `fields`, `get`,
            /// `to_document` and `write_json`, and sealed, reads back
            /// as the same bytes, with no panic.
            #[test]
            fn accepted_rows_read_whole_and_seal(
                groups in prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..4),
                pick: usize,
                mutation in arb_mutation(),
            ) {
                let log: Vec<u8> = groups.iter().flat_map(|g| encode(g)).collect();
                let mut frames = payloads(&log);
                let f = pick % frames.len();
                mutate(&mut frames[f], &mutation);
                let mut rows = Vec::new();
                replay(&framed(&frames), |group| {
                    for op in group {
                        match op {
                            WalOp::Insert { doc, .. } => rows.push(doc),
                            WalOp::InsertMany { docs, .. } | WalOp::Update { docs, .. } => {
                                rows.extend(docs)
                            }
                            WalOp::Delete { .. } | WalOp::Drop { .. } => {}
                        }
                    }
                });
                rows.iter().for_each(|row| read_whole(row.view()));
                let sealed = Sealed::new(rows.iter().map(Row::parts).enumerate());
                for (i, row) in rows.iter().enumerate() {
                    prop_assert!(sealed.parts(i) == row.parts(), "cell {}", i);
                    read_whole(RowRef::encoded(sealed.parts(i)));
                }
            }
        }

        /// Slice 0's file holding `docs`, each `gap` cells past the one
        /// before (a repeated `_id` is left out).
        fn slice_file(docs: &[(u8, Document)]) -> Vec<u8> {
            let mut ids = std::collections::HashSet::new();
            let mut rows = Vec::new();
            let mut i = 0;
            for (gap, doc) in docs {
                i += usize::from(*gap);
                if ids.insert(doc.get("_id").map(Value::index_key)) {
                    rows.push((i, Row::new(doc)));
                    i += 1;
                }
            }
            let parts: Vec<_> = rows.iter().map(|(i, row)| (*i, row.parts())).collect();
            let mut c = Collection::new("c");
            assert_eq!(c.load_slice(0, &parts), parts.len());
            let (mask, rows) = c.slice_parts(0).expect("one row at least");
            write_slice(mask, rows)
        }

        /// `file` loaded as slice 0: what the load said, and the rows it
        /// placed.
        fn load(file: &[u8], skip_corrupt_tail: bool) -> (DbResult<usize>, Collection) {
            let mut c = Collection::new("c");
            let opts = LoadOptions { skip_corrupt_tail };
            let loaded = load_slice(&mut c, 0, file, "f", &opts);
            (loaded.map(|(n, _)| n), c)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// A slice file nothing checksums, mutated at random: a
            /// lenient load never panics and sizes nothing by a claim in
            /// the file — no allocation past 64 B a file byte — and
            /// every row it keeps reads whole; a strict load fails at the row the
            /// lenient one stopped at, or loads the same rows.
            #[test]
            fn hostile_slice_files_never_panic_or_overallocate(
                docs in prop::collection::vec((0u8..4, arb_doc()), 1..8),
                mutation in arb_mutation(),
            ) {
                let mut file = slice_file(&docs);
                mutate(&mut file, &mutation);
                let ((lenient, kept), largest) = watching(|| load(&file, true));
                prop_assert!(
                    largest <= bound(file.len()),
                    "{} B for a file of {} B", largest, file.len()
                );
                kept.iter().for_each(read_whole);
                let (strict, _) = load(&file, false);
                let opts = LoadOptions { skip_corrupt_tail: true };
                let skipped = load_slice(&mut Collection::new("c"), 0, &file, "f", &opts).unwrap().1;
                match (strict, skipped) {
                    (Ok(n), None) => prop_assert_eq!(n, lenient.unwrap()),
                    (Err(e), Some(bad)) => {
                        let at = format!("parse error: f:{}: ", bad.first_bad_row);
                        prop_assert!(e.to_string().starts_with(&at), "{} vs {}", e, at);
                        prop_assert_eq!(bad.first_bad_row, lenient.unwrap() + 1);
                    }
                    (strict, skipped) => prop_assert!(false, "{:?} vs {:?}", strict, skipped),
                }
            }
        }

        /// A nested document that names a field twice is refused: a
        /// reader would walk two fields, and a copy out keep one.
        #[test]
        fn a_repeated_nested_name_is_refused() {
            let row = doc! { "_id" => "n", "v" => doc! { "a" => 1i64, "b" => 2i64 } };
            let log = encode_group(&[WalOpRef::Insert {
                coll: "c",
                doc: &Row::new(&row),
            }]);
            assert_eq!(watched(&log).0.groups, 1);
            let mut frames = payloads(&log);
            let at = frames[0].windows(2).position(|w| w == b"\x01b").unwrap();
            frames[0][at + 1] = b'a';
            let log = framed(&frames);
            let (replay, got, _) = watched(&log);
            assert!(got.is_empty() && replay.torn_bytes == log.len() as u64);
        }

        /// Claims far past the frame — a count of rows, of shapes, of
        /// names, of ids, an array's length and size — each refused
        /// having sized nothing by it.
        #[test]
        fn claims_past_the_frame_allocate_nothing_for_them() {
            let huge = |out: &mut Vec<u8>| arena::put_varint(out, u64::MAX >> 3);
            let mut claims: Vec<Vec<u8>> = Vec::new();
            // Rows: 1 shape of 0 names, then the row count.
            claims.push(vec![b'm', 1, b'c', 1, 0]);
            // Shapes.
            claims.push(vec![b'm', 1, b'c']);
            // Names of the one shape.
            claims.push(vec![b'm', 1, b'c', 1]);
            // Ids.
            claims.push(vec![b'd', 1, b'c']);
            // An array's length, and its size.
            claims.push(vec![b'd', 1, b'c', 1, 6]);
            claims.push(vec![b'd', 1, b'c', 1, 6, 1]);
            for mut payload in claims {
                huge(&mut payload);
                payload.extend([0; 16]);
                let log = framed([&payload]);
                let (replay, got, largest) = watched(&log);
                assert!(got.is_empty() && replay.torn_bytes == log.len() as u64);
                assert!(
                    largest <= bound(payload.len()),
                    "{largest} B for {payload:?}"
                );
            }
        }
    }
}
