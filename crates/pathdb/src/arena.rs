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

use crate::document::{RowRef, Shape};
use crate::value::{ArrayRef, ValueRef};
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

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
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

fn put_str(out: &mut Vec<u8>, s: &str) {
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
    match v {
        ValueRef::Null => out.push(NULL),
        ValueRef::Bool(b) => out.push(if b { TRUE } else { FALSE }),
        ValueRef::Int(i) => {
            out.push(INT);
            put_varint(out, ((i << 1) ^ (i >> 63)) as u64);
        }
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
                items.iter().for_each(|item| put_value(out, item))
            });
        }
        ValueRef::Doc(row) => {
            out.push(DOC);
            put_varint(out, row.len() as u64);
            put_sized(out, |out| {
                for (name, v) in row.fields() {
                    put_str(out, name);
                    put_value(out, v);
                }
            });
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
