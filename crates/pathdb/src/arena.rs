//! Closed slices' rows as bytes.
//!
//! Once the insertion-sequence allocator has passed a slice's last seq
//! no append can land in it, and the collection seals it as soon as no
//! pinned image shares it (`collection::Rows`): its rows are encoded
//! back to back into one arena, and the rows' `Document`s are dropped.
//! A row's bytes are its values in its shape's order; the shape itself
//! is stored once per slice, in a table each row indexes, so rows of
//! different shapes share an arena. Readers see a sealed row through the same borrowed
//! view as any other, [`RowRef`].
//!
//! A value is a tag byte and its payload: an int as its zigzag LEB128
//! varint, a float as its eight bits (so `-0.0` and every NaN payload
//! survive), a string as its length and bytes, an array as its count,
//! its byte length and its items, a nested document as its count, its
//! byte length and, per field, the name as a string and the value. A
//! row has no per-field offsets: a reader walks it field by field, and
//! steps over an array or a nested document by its length.
//!
//! A write-ahead log frame holds its rows in the same encoding
//! ([`put_rows`]): its own shape table, then each row as its shape's
//! index and its values. A frame is read back by [`Checked`], which
//! trusts none of its bytes.

use crate::document::{names_of, Document, RowRef, Shape};
use crate::value::{ArrayRef, Value, ValueRef};
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
    /// Encode `rows`, each at its cell, ascending.
    pub(crate) fn new<'r>(rows: impl Iterator<Item = (usize, RowRef<'r>)>) -> Sealed {
        // Room for a slice of `paths_stats` rows without regrowing.
        let mut arena = Vec::with_capacity(CELLS * 128);
        let mut ends = Box::new([0; CELLS]);
        let mut shape_of = Box::new([0; CELLS]);
        let mut shapes: Vec<Option<Arc<Shape>>> = Vec::new();
        let mut filled = 0;
        for (i, row) in rows {
            let shape = row.shape();
            shape_of[i] = match shapes.iter().position(|s| s == shape) {
                Some(at) => at as u8,
                None => {
                    shapes.push(shape.clone());
                    (shapes.len() - 1) as u8
                }
            };
            ends[filled..i].fill(arena.len() as u32);
            match row.sealed_bytes() {
                // Already these bytes: a reseal copies them.
                Some(bytes) => arena.extend_from_slice(bytes),
                None => row.fields().for_each(|(_, v)| put_value(&mut arena, v)),
            }
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
    pub(crate) fn row(&self, i: usize) -> RowRef<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let bytes = &self.arena[start as usize..self.ends[i] as usize];
        RowRef::sealed(&self.shapes[self.shape_of[i] as usize], bytes)
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

/// Append `v`'s bytes as a log frame holds them: a float that is not
/// finite as null, which is what a slice line gives back for it, so a
/// recovered row does not depend on the file that held it.
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

/// Append `rows` as a log frame holds them: the count of distinct
/// shapes and each shape's names, then the count of rows and each row
/// as its shape's index and its logged values.
pub(crate) fn put_rows<'a>(out: &mut Vec<u8>, rows: impl Iterator<Item = &'a Document> + Clone) {
    let mut shapes: Vec<&Option<Arc<Shape>>> = Vec::new();
    let mut count = 0;
    for row in rows.clone() {
        let shape = RowRef::from(row).shape();
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
        count += 1;
    }
    put_varint(out, shapes.len() as u64);
    for shape in &shapes {
        let names = names_of(shape);
        put_varint(out, names.len() as u64);
        names.iter().for_each(|name| put_str(out, name));
    }
    put_varint(out, count);
    for row in rows.map(RowRef::from) {
        let shape = shapes.iter().position(|s| *s == row.shape());
        put_varint(out, shape.expect("every shape is in the table") as u64);
        row.fields().for_each(|(_, v)| put_logged_value(out, v));
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
/// payload, which a valid checksum does not make well formed. Every
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

    /// The value these bytes start with, inside `depth` open documents
    /// and arrays; no deeper than a JSON line may nest
    /// (`serde::json::MAX_DEPTH`), so a slice line could hold it too.
    pub(crate) fn value(&mut self, depth: usize) -> Option<Value> {
        Some(match self.byte()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            INT => {
                let n = self.varint()?;
                Value::Int((n >> 1) as i64 ^ -((n & 1) as i64))
            }
            FLOAT => {
                let bits = self.take(8)?.try_into().ok()?;
                Value::Float(f64::from_bits(u64::from_le_bytes(bits)))
            }
            STR => Value::Str(self.str()?.to_owned()),
            ARRAY if depth < serde::json::MAX_DEPTH => {
                let len = self.count()?;
                Value::Array(self.sized(len, |body| body.value(depth + 1))?)
            }
            DOC if depth < serde::json::MAX_DEPTH => {
                let len = self.count()?;
                let fields = self.sized(len, |body| Some((body.str()?, body.value(depth + 1)?)))?;
                let doc: Document = fields.into_iter().collect();
                // A repeated name would fold two fields into one.
                Value::Doc((doc.len() == len).then_some(doc)?)
            }
            _ => return None,
        })
    }

    /// What [`put_rows`] wrote: each row a `Document` of its shape.
    pub(crate) fn rows(&mut self) -> Option<Vec<Document>> {
        let shapes = self.count()?;
        let mut templates = Vec::with_capacity(shapes);
        for _ in 0..shapes {
            let names = self.count()?;
            let mut template = Vec::with_capacity(names);
            for _ in 0..names {
                template.push((self.str()?, Value::Null));
            }
            let template: Document = template.into_iter().collect();
            if template.len() != names {
                return None;
            }
            templates.push(template);
        }
        let rows = self.count()?;
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let shape = usize::try_from(self.varint()?).ok()?;
            let template = templates.get(shape)?;
            if template.len() > self.0.len() {
                return None;
            }
            let mut values = Vec::with_capacity(template.len());
            for _ in 0..template.len() {
                values.push(self.value(1)?);
            }
            out.push(Document::of_shape(template, values.into_boxed_slice()));
        }
        Some(out)
    }
}
