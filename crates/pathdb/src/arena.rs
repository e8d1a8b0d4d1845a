//! Rows as bytes: the one form a collection and its log hold a row in.
//!
//! A row is encoded once, when it is written ([`Row::new`]): its values
//! in its shape's order. An open slice's cell holds the row's shape and
//! those bytes. Once the insertion-sequence allocator has passed a
//! slice's last seq no append can land in it, and the collection packs
//! it as soon as no pinned image shares it (`collection::Rows`): the
//! cells' bytes are copied back to back into one arena, and nothing is
//! encoded again ([`Sealed`]). A sealed slice stores each shape once, in
//! a table each row indexes, so rows of different shapes share an
//! arena. Readers see any stored row through the same borrowed view,
//! [`RowRef`].
//!
//! A value is a tag byte and its payload: an int as its zigzag LEB128
//! varint, a float as its eight bits (so `-0.0` and every NaN payload
//! survive), a string as its length and bytes, an array as its count,
//! its byte length and its items, a nested document as its count, its
//! byte length and, per field, the name as a string and the value. A
//! row has no per-field offsets: a reader walks it field by field, and
//! steps over an array or a nested document by its length.
//!
//! A write-ahead log frame and a slice file hold the same rows
//! ([`put_rows`]): their own shape table, then each row as its shape's
//! index and its bytes, copied. Both are read back by [`Checked`], which
//! trusts none of their bytes and lends each row's bytes out once
//! checked: a log's rows are copied into [`Row`]s, a slice file's are
//! packed straight into one [`Sealed`] slice.

use crate::document::{names_of, shape_of, Document, RowRef, Shape};
use crate::value::{ArrayRef, Value, ValueRef};
use std::fmt;
use std::sync::Arc;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT: u8 = 3;
const FLOAT: u8 = 4;
const STR: u8 = 5;
const ARRAY: u8 = 6;
const DOC: u8 = 7;

/// Rows a sealed slice holds at most: one per cell.
const CELLS: usize = crate::snapshot::SLICE_ROWS as usize;

/// A stored row's shape and its values' bytes, borrowed.
pub(crate) type Parts<'a> = (&'a Option<Arc<Shape>>, &'a [u8]);

/// One row in bytes, encoded once — its shape and its values' bytes:
/// what an open slice's cell holds and what a log frame copies. Two
/// `Row`s are `==` when their shapes and bytes are; read through
/// [`Row::view`], a row compares as its values do (a NaN unequal to
/// itself, `-0.0` equal to `0.0`).
#[derive(Clone, PartialEq)]
pub(crate) struct Row(Option<Arc<Shape>>, Box<[u8]>);

impl Row {
    /// Encode `doc` into a box of exactly its bytes: a copy, since a
    /// shrunk buffer would leave its tail behind as a hole in the heap.
    pub(crate) fn new(doc: &Document) -> Row {
        let mut bytes = Vec::with_capacity(12 * doc.len());
        doc.iter()
            .for_each(|(_, v)| put_value(&mut bytes, v.view()));
        Row(doc.shape().clone(), Box::from(&bytes[..]))
    }

    pub(crate) fn parts(&self) -> Parts<'_> {
        (&self.0, &self.1)
    }

    pub(crate) fn view(&self) -> RowRef<'_> {
        RowRef::encoded(self.parts())
    }
}

/// A copy of a stored row's bytes.
impl From<Parts<'_>> for Row {
    fn from((shape, bytes): Parts<'_>) -> Row {
        Row(shape.clone(), bytes.into())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl PartialEq<Document> for Row {
    fn eq(&self, doc: &Document) -> bool {
        self.view() == *doc
    }
}

/// A sealed slice: every row's bytes in one arena, by cell.
pub(crate) struct Sealed {
    arena: Box<[u8]>,
    /// Cell `i`'s bytes end at `ends[i]` and start where cell `i - 1`'s
    /// end; a cell without a row is empty.
    ends: Box<[u32; CELLS]>,
    /// Cell `i`'s shape, an index into `shapes`.
    shape_of: Box<[u8; CELLS]>,
    shapes: Box<[Option<Arc<Shape>>]>,
}

impl Sealed {
    /// Pack `rows`, each at its cell, ascending: their bytes are copied
    /// into an arena of exactly their length.
    pub(crate) fn new<'r>(rows: impl Iterator<Item = (usize, Parts<'r>)> + Clone) -> Sealed {
        let mut arena = Vec::with_capacity(rows.clone().map(|(_, (_, b))| b.len()).sum());
        let mut ends = Box::new([0; CELLS]);
        let mut shape_of = Box::new([0; CELLS]);
        let mut shapes: Vec<Option<Arc<Shape>>> = Vec::new();
        let mut filled = 0;
        for (i, (shape, bytes)) in rows {
            shape_of[i] = match shapes.iter().position(|s| s == shape) {
                Some(at) => at as u8,
                None => {
                    shapes.push(shape.clone());
                    (shapes.len() - 1) as u8
                }
            };
            ends[filled..i].fill(arena.len() as u32);
            arena.extend_from_slice(bytes);
            ends[i] = arena.len() as u32;
            filled = i + 1;
        }
        ends[filled..].fill(arena.len() as u32);
        Sealed {
            arena: arena.into_boxed_slice(),
            ends,
            shape_of,
            shapes: shapes.into_boxed_slice(),
        }
    }

    /// The row at cell `i`, which holds one.
    pub(crate) fn parts(&self, i: usize) -> Parts<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let bytes = &self.arena[start as usize..self.ends[i] as usize];
        (&self.shapes[self.shape_of[i] as usize], bytes)
    }

    /// The bytes this slice holds its rows in, counted by length: the
    /// arena, the per-cell ends and shape indexes, and the shape table.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.arena.len()
            + std::mem::size_of_val(&*self.ends)
            + std::mem::size_of_val(&*self.shape_of)
            + std::mem::size_of_val(&*self.shapes)
    }
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn read_varint(bytes: &mut &[u8]) -> u64 {
    let mut n = 0;
    for shift in (0..64).step_by(7) {
        let byte = take(bytes, 1)[0];
        n |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    n
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn read_str<'a>(bytes: &mut &'a [u8]) -> &'a str {
    std::str::from_utf8(read_name(bytes)).expect("a sealed string is the str it was")
}

/// A string's bytes, unchecked: what a lookup compares a name against.
pub(crate) fn read_name<'a>(bytes: &mut &'a [u8]) -> &'a [u8] {
    let len = read_varint(bytes) as usize;
    take(bytes, len)
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    head
}

/// Append what `put` writes, after its length.
fn put_sized(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put(out);
    let body = out.len() - start;
    put_varint(out, body as u64);
    // The length went in after the body: turn it to the front.
    let len = out.len() - start - body;
    out[start..].rotate_right(len);
}

/// Append `v`'s bytes.
pub(crate) fn put_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    put(out, v, false)
}

/// Append `v`'s bytes as a log frame and a slice file hold them: a
/// float that is not finite as null, which is what a JSON export gives
/// back for it, so a recovered row does not depend on which file held
/// it.
pub(crate) fn put_logged_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    put(out, v, true)
}

fn put(out: &mut Vec<u8>, v: ValueRef<'_>, logged: bool) {
    match v {
        ValueRef::Null => out.push(NULL),
        ValueRef::Bool(b) => out.push(if b { TRUE } else { FALSE }),
        ValueRef::Int(i) => {
            out.push(INT);
            put_varint(out, ((i << 1) ^ (i >> 63)) as u64);
        }
        ValueRef::Float(f) if logged && !f.is_finite() => out.push(NULL),
        ValueRef::Float(f) => {
            out.push(FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        ValueRef::Str(s) => {
            out.push(STR);
            put_str(out, s);
        }
        ValueRef::Array(items) => {
            out.push(ARRAY);
            put_varint(out, items.len() as u64);
            put_sized(out, |out| {
                items.iter().for_each(|item| put(out, item, logged))
            });
        }
        ValueRef::Doc(row) => {
            out.push(DOC);
            put_varint(out, row.len() as u64);
            put_sized(out, |out| {
                for (name, v) in row.fields() {
                    put_str(out, name);
                    put(out, v, logged);
                }
            });
        }
    }
}

/// Append `rows` as a log frame and a slice file hold them: the count
/// of distinct shapes and each shape's names, then the count of rows and
/// each row as its shape's index and its bytes, copied — unless they may
/// hold a float that is not finite: its exponent is all ones, so its
/// last two bytes read `0xF0` or more, then `0x7F` or `0xFF`. Such a row
/// is written again value by value, the float as null (a false alarm
/// writes the same bytes).
pub(crate) fn put_rows<'r>(out: &mut Vec<u8>, rows: impl Iterator<Item = Parts<'r>> + Clone) {
    let mut shapes: Vec<&Option<Arc<Shape>>> = Vec::new();
    for (shape, _) in rows.clone() {
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    put_varint(out, shapes.len() as u64);
    for shape in &shapes {
        let names = names_of(shape);
        put_varint(out, names.len() as u64);
        names.iter().for_each(|name| put_str(out, name));
    }
    put_varint(out, rows.clone().count() as u64);
    for row @ (shape, bytes) in rows {
        let shape = shapes.iter().position(|s| *s == shape);
        put_varint(out, shape.expect("every shape is in the table") as u64);
        let non_finite = bytes
            .windows(2)
            .any(|w| w[0] >= 0xF0 && w[1] & 0x7F == 0x7F);
        if non_finite {
            let fields = RowRef::encoded(row).fields();
            fields.for_each(|(_, v)| put_logged_value(out, v));
        } else {
            out.extend_from_slice(bytes);
        }
    }
}

/// Move `bytes` past the value it starts with, reading no more of it
/// than its length.
pub(crate) fn skip_value(bytes: &mut &[u8]) {
    match take(bytes, 1)[0] {
        NULL | FALSE | TRUE => {}
        INT => {
            read_varint(bytes);
        }
        FLOAT => {
            take(bytes, 8);
        }
        STR => {
            read_name(bytes);
        }
        ARRAY | DOC => {
            read_varint(bytes);
            read_name(bytes);
        }
        tag => unreachable!("no value is tagged {tag}"),
    }
}

/// The value `bytes` starts with; `bytes` moves past it.
pub(crate) fn read_value<'a>(bytes: &mut &'a [u8]) -> ValueRef<'a> {
    match take(bytes, 1)[0] {
        NULL => ValueRef::Null,
        FALSE => ValueRef::Bool(false),
        TRUE => ValueRef::Bool(true),
        INT => {
            let n = read_varint(bytes);
            ValueRef::Int((n >> 1) as i64 ^ -((n & 1) as i64))
        }
        FLOAT => {
            let bits = take(bytes, 8).try_into().expect("eight bytes");
            ValueRef::Float(f64::from_bits(u64::from_le_bytes(bits)))
        }
        STR => ValueRef::Str(read_str(bytes)),
        ARRAY => {
            let len = read_varint(bytes) as usize;
            let size = read_varint(bytes) as usize;
            ValueRef::Array(ArrayRef::sealed(len, take(bytes, size)))
        }
        DOC => {
            let len = read_varint(bytes) as usize;
            let size = read_varint(bytes) as usize;
            ValueRef::Doc(RowRef::nested(len, take(bytes, size)))
        }
        tag => unreachable!("no value is tagged {tag}"),
    }
}

/// A checked walk over bytes no writer vouches for: a log frame's
/// payload, which a valid checksum does not make well formed, or a
/// slice file, which nothing checksums. Every
/// read answers `None` rather than run past the end or accept a bad
/// tag, and every count and length is held to the bytes left before
/// anything is sized by it (an item takes at least one byte), so no
/// claim in the bytes can allocate more than they could hold.
pub(crate) struct Checked<'a>(&'a [u8]);

impl<'a> Checked<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Checked<'a> {
        Checked(bytes)
    }

    /// Every byte was read.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    pub(crate) fn byte(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A varint of at most ten bytes that fits 64 bits.
    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut n = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return None;
            }
            n |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(n);
            }
        }
        None
    }

    /// A count of items still to come, at most one per byte left.
    pub(crate) fn count(&mut self) -> Option<usize> {
        let n = self.varint()?;
        (n <= self.0.len() as u64).then_some(n as usize)
    }

    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let len = self.count()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// `len` items that fill the sized body which follows exactly.
    fn sized<T>(
        &mut self,
        len: usize,
        mut item: impl FnMut(&mut Checked<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let size = self.count()?;
        let mut body = Checked(self.take(size)?);
        if len > size {
            return None;
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(item(&mut body)?);
        }
        body.is_empty().then_some(items)
    }

    /// Step over the value these bytes start with, inside `depth` open
    /// documents and arrays, checking all the unchecked readers
    /// (`read_value`, `skip_value`) take on trust: its tag, its UTF-8,
    /// every count and length against the body it claims, no name twice
    /// in one document, and no deeper than a JSON text may nest
    /// (`serde::json::MAX_DEPTH`), so an export of the row reads back.
    pub(crate) fn value(&mut self, depth: usize) -> Option<()> {
        match self.byte()? {
            NULL | FALSE | TRUE => Some(()),
            INT => self.varint().map(drop),
            FLOAT => self.take(8).map(drop),
            STR => self.str().map(drop),
            ARRAY if depth < serde::json::MAX_DEPTH => {
                let len = self.count()?;
                self.sized(len, |body| body.value(depth + 1)).map(drop)
            }
            DOC if depth < serde::json::MAX_DEPTH => {
                let len = self.count()?;
                let mut names = self.sized(len, |body| {
                    let name = body.str()?;
                    body.value(depth + 1).map(|()| name)
                })?;
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1]).then_some(())
            }
            _ => None,
        }
    }

    /// A checked value, owned: a logged `_id`.
    pub(crate) fn owned(&mut self) -> Option<Value> {
        let mut bytes = self.0;
        self.value(1)?;
        Some(read_value(&mut bytes).into())
    }

    /// A shape table as [`put_rows`] writes it.
    pub(crate) fn shapes(&mut self) -> Option<Vec<Option<Arc<Shape>>>> {
        let mut table = Vec::new();
        for _ in 0..self.count()? {
            let names: Vec<&str> = (0..self.count()?)
                .map(|_| self.str())
                .collect::<Option<_>>()?;
            table.push(shape_of(names)?);
        }
        Some(table)
    }

    /// One row as [`put_rows`] writes it after `table`: its shape and
    /// its checked bytes, borrowed.
    pub(crate) fn row<'t>(&mut self, table: &'t [Option<Arc<Shape>>]) -> Option<Parts<'t>>
    where
        'a: 't,
    {
        let shape = table.get(usize::try_from(self.varint()?).ok()?)?;
        let start = self.0;
        for _ in 0..names_of(shape).len() {
            self.value(1)?;
        }
        Some((shape, &start[..start.len() - self.0.len()]))
    }

    /// What [`put_rows`] wrote: each row its shape and its checked
    /// bytes, copied.
    pub(crate) fn rows(&mut self) -> Option<Vec<Row>> {
        let table = self.shapes()?;
        let rows = self.count()?;
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            out.push(Row::from(self.row(&table)?));
        }
        Some(out)
    }
}
