//! The dynamic value model: what a document field can hold.
//!
//! Mirrors the subset of BSON the paper's schema uses: null, booleans,
//! integers, floats, strings, arrays and nested documents. Values
//! convert losslessly to and from `serde_json::Value` for persistence.
//! Stored values are read through the borrowed [`ValueRef`], which
//! views a [`Value`] and a stored row's bytes alike.

use crate::arena;
use crate::document::{Document, RowRef};
use serde::json;
use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Doc(Document),
}

// Every row a writer builds is a `Document` of `Value`s: a new variant
// or field must not grow them all silently.
const _: () = assert!(size_of::<Value>() == 32 && size_of::<Document>() <= 32);

impl Value {
    /// The borrowed view every reader reads through.
    pub(crate) fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Array(a) => ValueRef::Array(ArrayRef(Items::Values(a))),
            Value::Doc(d) => ValueRef::Doc(d.into()),
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        self.view().as_float()
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// [`ValueRef::index_key`] of this value.
    pub(crate) fn index_key(&self) -> String {
        self.view().index_key()
    }

    /// Convert to a `serde_json::Value` for persistence.
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            Value::Null => serde_json::Value::Null,
            Value::Bool(b) => serde_json::Value::Bool(*b),
            Value::Int(i) => serde_json::Value::from(*i),
            Value::Float(f) => serde_json::Number::from_f64(*f)
                .map(serde_json::Value::Number)
                .unwrap_or(serde_json::Value::Null),
            Value::Str(s) => serde_json::Value::String(s.clone()),
            Value::Array(a) => serde_json::Value::Array(a.iter().map(Value::to_json).collect()),
            Value::Doc(d) => serde_json::Value::Object(
                d.iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
        }
    }
}

/// A borrowed value: a [`Value`] of a row that is a [`Document`], or a
/// value's bytes in a stored row (`arena`). Every reader of
/// stored rows reads through it; `Value::from` copies one out.
/// Equality is [`Value`]'s: the same variant and content, floats by
/// `==`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    Array(ArrayRef<'a>),
    Doc(RowRef<'a>),
}

/// A borrowed array: a `Value::Array`'s items or a stored one's bytes.
#[derive(Clone, Copy)]
pub struct ArrayRef<'a>(Items<'a>);

/// Where an [`ArrayRef`]'s items are, and the iterator over them.
#[derive(Clone, Copy)]
enum Items<'a> {
    Values(&'a [Value]),
    Sealed { len: usize, bytes: &'a [u8] },
}

impl<'a> ArrayRef<'a> {
    /// The `len` items `bytes` starts with.
    pub(crate) fn sealed(len: usize, bytes: &'a [u8]) -> ArrayRef<'a> {
        ArrayRef(Items::Sealed { len, bytes })
    }

    pub fn len(self) -> usize {
        match self.0 {
            Items::Values(items) => items.len(),
            Items::Sealed { len, .. } => len,
        }
    }

    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    pub fn iter(self) -> impl Iterator<Item = ValueRef<'a>> + Clone {
        self.0
    }
}

impl<'a> Iterator for Items<'a> {
    type Item = ValueRef<'a>;

    fn next(&mut self) -> Option<ValueRef<'a>> {
        match self {
            Items::Values(items) => {
                let (first, rest) = items.split_first()?;
                *items = rest;
                Some(first.view())
            }
            Items::Sealed { len: 0, .. } => None,
            Items::Sealed { len, bytes } => {
                *len -= 1;
                Some(arena::read_value(bytes))
            }
        }
    }
}

impl fmt::Debug for ArrayRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for ArrayRef<'_> {
    fn eq(&self, other: &ArrayRef<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// An owned copy.
impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Value {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_string()),
            ValueRef::Array(a) => Value::Array(a.iter().map(Value::from).collect()),
            ValueRef::Doc(d) => Value::Doc(d.to_document()),
        }
    }
}

impl<'a> ValueRef<'a> {
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Numeric view (ints widen to float) for cross-type comparison.
    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }

    pub fn as_array(self) -> Option<ArrayRef<'a>> {
        match self {
            ValueRef::Array(a) => Some(a),
            _ => None,
        }
    }

    pub(crate) fn as_doc(self) -> Option<RowRef<'a>> {
        match self {
            ValueRef::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// Query-ordering comparison. Numbers compare across Int/Float
    /// (exactly — no precision loss for i64 beyond 2^53); values of
    /// different (non-numeric) types are unordered, which makes range
    /// filters on mismatched types evaluate to false — Mongo-like
    /// behaviour for the operators we support.
    pub(crate) fn query_cmp(self, other: ValueRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => Some(Ordering::Equal),
            (ValueRef::Bool(a), ValueRef::Bool(b)) => Some(a.cmp(&b)),
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a.cmp(b)),
            (ValueRef::Array(a), ValueRef::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.query_cmp(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            // Nested documents support equality only (no ordering).
            (ValueRef::Doc(a), ValueRef::Doc(b)) => {
                if a.len() == b.len()
                    && a.fields()
                        .zip(b.fields())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.query_eq(vb))
                {
                    Some(Ordering::Equal)
                } else {
                    None
                }
            }
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(&b)),
            (ValueRef::Int(a), ValueRef::Float(b)) => cmp_i64_f64(a, b),
            (ValueRef::Float(a), ValueRef::Int(b)) => cmp_i64_f64(b, a).map(Ordering::reverse),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.partial_cmp(&b),
            _ => None,
        }
    }

    /// Equality under query semantics (numeric widening).
    pub(crate) fn query_eq(self, other: ValueRef<'_>) -> bool {
        self.query_cmp(other) == Some(Ordering::Equal)
    }

    /// Total order used for sorting query results (`FindOptions::sort`)
    /// and for the ordered secondary indexes. Extends
    /// [`ValueRef::query_cmp`] to a total order:
    ///
    /// * values of different types order by type rank
    ///   (null < bool < number < string < array < document) — the same
    ///   rank order the [`ValueRef::index_key`] class prefixes encode,
    ///   so a key-ordered index scan yields documents in `sort_cmp`
    ///   order;
    /// * NaN compares equal to NaN and greater than every other number;
    /// * documents compare field-by-field (name, then value), then by
    ///   length.
    pub(crate) fn sort_cmp(self, other: ValueRef<'_>) -> Ordering {
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(&b),
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Int(a), ValueRef::Float(b)) => cmp_int_float_total(a, b),
            (ValueRef::Float(a), ValueRef::Int(b)) => cmp_int_float_total(b, a).reverse(),
            (ValueRef::Float(a), ValueRef::Float(b)) => match a.partial_cmp(&b) {
                Some(o) => o,
                // At least one NaN: NaN == NaN, NaN > everything else.
                None => match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    _ => Ordering::Less,
                },
            },
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (ValueRef::Array(a), ValueRef::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sort_cmp(y) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                a.len().cmp(&b.len())
            }
            (ValueRef::Doc(a), ValueRef::Doc(b)) => {
                for ((ka, va), (kb, vb)) in a.fields().zip(b.fields()) {
                    match ka.cmp(kb).then_with(|| va.sort_cmp(vb)) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => type_rank(self).cmp(&type_rank(other)),
        }
    }

    /// A canonical string key for indexing: total across types and
    /// **order-preserving** — lexicographic order of keys equals
    /// `ValueRef::sort_cmp` order for scalar values, which lets the
    /// ordered secondary indexes serve range scans and sorted reads.
    ///
    /// Numbers use a sign-flipped IEEE-754 bit pattern plus an exact
    /// integer residual, so `Int(i)` and `Float(f)` share a key exactly
    /// when they are query-equal, floats differing in any bit get
    /// distinct keys, and i64 values beyond 2^53 do not collapse.
    pub(crate) fn index_key(self) -> String {
        let mut k = String::new();
        self.write_index_key(&mut k);
        k
    }

    fn write_index_key(self, out: &mut String) {
        use std::fmt::Write;
        match self {
            ValueRef::Null => out.push_str("0:"),
            ValueRef::Bool(b) => out.push_str(if b { "1:1" } else { "1:0" }),
            ValueRef::Int(_) | ValueRef::Float(_) => {
                let (bits, residual) = num_key_parts(self);
                let _ = write!(out, "2:{bits:016x}{residual:04x}");
            }
            ValueRef::Str(s) => {
                out.push_str("3:");
                out.push_str(s);
            }
            // Arrays and documents need injectivity, not order: each
            // component key is length-prefixed so distinct structures
            // can never collide.
            ValueRef::Array(a) => {
                let _ = write!(out, "4:{}#", a.len());
                for v in a.iter() {
                    let k = v.index_key();
                    let _ = write!(out, "{}:{}", k.len(), k);
                }
            }
            ValueRef::Doc(d) => {
                let _ = write!(out, "5:{}#", d.len());
                for (name, v) in d.fields() {
                    let k = v.index_key();
                    let _ = write!(out, "{}:{}{}:{}", name.len(), name, k.len(), k);
                }
            }
        }
    }

    /// Render compact JSON straight into the byte sink `out`,
    /// byte-identical to `Value::from(self).to_json().to_string()` but
    /// without building the intermediate `serde_json::Value` tree — the
    /// slice encoder writes every row through here, so it pays for no
    /// deep copy.
    pub(crate) fn write_json(self, out: &mut Vec<u8>) {
        match self {
            ValueRef::Null => out.extend_from_slice(b"null"),
            ValueRef::Bool(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
            ValueRef::Int(i) => json::write_i64(out, i),
            ValueRef::Float(f) => json::write_f64(out, f),
            ValueRef::Str(s) => json::write_str(out, s),
            ValueRef::Array(a) => write_json_items(out, a.iter()),
            ValueRef::Doc(d) => d.write_json(out),
        }
    }
}

/// Render a slice of values as a compact JSON array without cloning it
/// into a `Value::Array` first.
pub(crate) fn write_json_array(out: &mut Vec<u8>, items: &[Value]) {
    write_json_items(out, items.iter().map(Value::view));
}

fn write_json_items<'a>(out: &mut Vec<u8>, items: impl Iterator<Item = ValueRef<'a>>) {
    out.push(b'[');
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        v.write_json(out);
    }
    out.push(b']');
}

/// Exact comparison of an i64 against an f64, without widening the int
/// to f64 (which loses precision above 2^53). `None` iff `f` is NaN.
fn cmp_i64_f64(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    // All i64 values are < 2^63; any float at or beyond that bound
    // (including infinities) straddles the whole i64 range.
    const TWO63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact
    if f >= TWO63 {
        return Some(Ordering::Less);
    }
    if f < -TWO63 {
        return Some(Ordering::Greater);
    }
    // |f| < 2^63 (or f == -2^63): trunc() fits in i64 exactly.
    let t = f.trunc();
    let ti = t as i64;
    Some(i.cmp(&ti).then_with(|| {
        // Same integer part: the fractional remainder breaks the tie.
        if f > t {
            Ordering::Less
        } else if f < t {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }))
}

/// Total Int-vs-Float comparison: exact where ordered, NaN greatest.
fn cmp_int_float_total(i: i64, f: f64) -> Ordering {
    cmp_i64_f64(i, f).unwrap_or(Ordering::Less)
}

fn type_rank(v: ValueRef<'_>) -> u8 {
    match v {
        ValueRef::Null => 0,
        ValueRef::Bool(_) => 1,
        ValueRef::Int(_) | ValueRef::Float(_) => 2,
        ValueRef::Str(_) => 3,
        ValueRef::Array(_) => 4,
        ValueRef::Doc(_) => 5,
    }
}

/// Map an f64 to a u64 whose unsigned order equals the float's numeric
/// order: flip all bits for negatives, set the sign bit for positives.
fn f64_order_bits(f: f64) -> u64 {
    let b = f.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Decompose a numeric value into its index-key parts: the order bits
/// of the value rounded to f64, plus a biased residual carrying the
/// exact integer remainder that rounding dropped.
///
/// Round-to-nearest is monotone, so ordering by `(rounded, residual)`
/// equals exact numeric ordering; ints representable as f64 get
/// residual 0 and therefore share the equal float's key. The residual
/// of an i64 is bounded by half the f64 ulp at 2^63 (= 512 < 2^15), so
/// it always fits the 16-bit bias.
fn num_key_parts(v: ValueRef<'_>) -> (u64, u16) {
    const BIAS: i128 = 0x8000;
    match v {
        ValueRef::Int(i) => {
            let d = i as f64; // round to nearest
            let residual = i as i128 - d as i128;
            (f64_order_bits(d), (residual + BIAS) as u16)
        }
        ValueRef::Float(f) => {
            let f = if f.is_nan() {
                f64::NAN // canonical NaN bit pattern
            } else if f == 0.0 {
                0.0 // normalize -0.0
            } else {
                f
            };
            (f64_order_bits(f), BIAS as u16)
        }
        _ => unreachable!("num_key_parts on non-numeric value"),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_json(&mut out);
        f.write_str(&json::into_text(out))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u16> for Value {
    fn from(i: u16) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Document> for Value {
    fn from(d: Document) -> Self {
        Value::Doc(d)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Value {
        /// A JSON tree back as a value: the reference the JSON writers
        /// are held to.
        pub(crate) fn from_json(v: &serde_json::Value) -> Value {
            match v {
                serde_json::Value::Null => Value::Null,
                serde_json::Value::Bool(b) => Value::Bool(*b),
                serde_json::Value::Number(n) => match n.as_i64() {
                    Some(i) => Value::Int(i),
                    None => Value::Float(n.as_f64().unwrap_or(f64::NAN)),
                },
                serde_json::Value::String(s) => Value::Str(s.clone()),
                serde_json::Value::Array(a) => {
                    Value::Array(a.iter().map(Value::from_json).collect())
                }
                serde_json::Value::Object(o) => Value::Doc(
                    o.iter()
                        .map(|(k, v)| (k.as_str(), Value::from_json(v)))
                        .collect(),
                ),
            }
        }
    }

    /// The comparisons, spelled on owned values: each is the view's.
    pub(crate) trait Compare {
        fn query_cmp(&self, other: &Value) -> Option<Ordering>;
        fn query_eq(&self, other: &Value) -> bool;
        fn sort_cmp(&self, other: &Value) -> Ordering;
        fn as_number(&self) -> Option<f64>;
    }

    impl Compare for Value {
        fn query_cmp(&self, other: &Value) -> Option<Ordering> {
            self.view().query_cmp(other.view())
        }
        fn query_eq(&self, other: &Value) -> bool {
            self.view().query_eq(other.view())
        }
        fn sort_cmp(&self, other: &Value) -> Ordering {
            self.view().sort_cmp(other.view())
        }
        fn as_number(&self) -> Option<f64> {
            self.view().as_float()
        }
    }

    #[test]
    fn numeric_widening_equality() {
        assert!(Value::Int(3).query_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).query_eq(&Value::Float(3.5)));
        assert!(!Value::Int(3).query_eq(&Value::Str("3".into())));
    }

    #[test]
    fn cross_type_comparison_is_unordered() {
        assert_eq!(Value::Str("a".into()).query_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Bool(true).query_cmp(&Value::Str("true".into())),
            None
        );
    }

    #[test]
    fn array_comparison_is_lexicographic() {
        let a: Value = vec![1i64, 2].into();
        let b: Value = vec![1i64, 3].into();
        let c: Value = vec![1i64, 2, 0].into();
        assert_eq!(a.query_cmp(&b), Some(Ordering::Less));
        assert_eq!(a.query_cmp(&c), Some(Ordering::Less));
        assert_eq!(a.query_cmp(&a), Some(Ordering::Equal));
    }

    #[test]
    fn json_roundtrip_preserves_values() {
        let mut d = Document::new();
        d.set("s", "hello");
        d.set("i", 42i64);
        d.set("f", 2.5f64);
        d.set("b", true);
        d.set("n", Value::Null);
        d.set("a", vec![1i64, 2, 3]);
        let v = Value::Doc(d);
        let back = Value::from_json(&v.to_json());
        assert_eq!(v, back);
    }

    #[test]
    fn write_json_matches_the_tree_renderer() {
        // The direct renderer must stay byte-identical to the
        // tree-building path — the WAL and the snapshot format both
        // feed the same parser.
        let mut inner = Document::new();
        inner.set("q\"uote", "line\nbreak\ttab\\slash");
        inner.set("ctl", Value::Str("\u{1}\u{1f}".into()));
        let mut d = Document::new();
        d.set("i", 42i64);
        d.set("neg", -7i64);
        d.set("f", 2.5f64);
        d.set("whole", 3.0f64);
        d.set("neg_whole", -2424.0f64);
        d.set("neg_zero", -0.0f64);
        d.set("big_whole", 999_999_999_999_999.0f64);
        d.set("past_fast_path", 1e15f64);
        d.set("exp_form", 1e16f64);
        d.set("tiny", 1e-7f64);
        d.set("imin", i64::MIN);
        d.set("imax", i64::MAX);
        d.set("nan", f64::NAN);
        d.set("inf", f64::INFINITY);
        d.set("b", false);
        d.set("n", Value::Null);
        d.set("s", "héllo ✓");
        d.set(
            "a",
            Value::Array(vec![Value::Int(1), Value::Doc(inner.clone())]),
        );
        d.set("o", inner.clone());
        d.set("empty", Document::new());
        d.set("empty_a", Value::Array(vec![]));
        let v = Value::Doc(d);
        let mut direct = Vec::new();
        v.view().write_json(&mut direct);
        assert_eq!(direct, v.to_json().to_string().into_bytes());
        let mut doc_direct = Vec::new();
        RowRef::from(&inner).write_json(&mut doc_direct);
        assert_eq!(
            doc_direct,
            Value::Doc(inner).to_json().to_string().into_bytes()
        );
    }

    #[test]
    fn index_key_distinguishes_types_but_not_int_float() {
        assert_eq!(Value::Int(3).index_key(), Value::Float(3.0).index_key());
        assert_ne!(
            Value::Int(3).index_key(),
            Value::Str("3".into()).index_key()
        );
        assert_ne!(Value::Null.index_key(), Value::Str("".into()).index_key());
    }

    #[test]
    fn index_key_is_order_preserving_for_scalars() {
        // Ascending under sort_cmp; keys must ascend lexicographically.
        let seq = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(i64::MIN),
            Value::Float(-1.5),
            Value::Int(-1),
            Value::Int(0),
            Value::Float(1e-9),
            Value::Float(2e-9),
            Value::Int(1),
            Value::Float(1.0000001),
            Value::Int(2),
            Value::Int((1i64 << 53) + 1),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MAX),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Str("".into()),
            Value::Str("a".into()),
        ];
        for w in seq.windows(2) {
            assert!(
                w[0].index_key() < w[1].index_key(),
                "expected key({}) < key({}), got {:?} vs {:?}",
                w[0],
                w[1],
                w[0].index_key(),
                w[1].index_key()
            );
            assert_eq!(w[0].sort_cmp(&w[1]), Ordering::Less);
        }
    }

    #[test]
    fn index_key_does_not_collapse_near_floats_or_big_ints() {
        assert_ne!(
            Value::Float(1e-9).index_key(),
            Value::Float(2e-9).index_key()
        );
        assert_ne!(
            Value::Int(1i64 << 53).index_key(),
            Value::Int((1i64 << 53) + 1).index_key()
        );
        assert_eq!(
            Value::Float(-0.0).index_key(),
            Value::Float(0.0).index_key()
        );
    }

    #[test]
    fn exact_int_float_comparison() {
        // 2^53 and 2^53 + 1 collapse under f64 widening; stay distinct.
        let big = (1i64 << 53) + 1;
        assert_eq!(
            Value::Int(big).query_cmp(&Value::Int(1i64 << 53)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(big).query_cmp(&Value::Float((1i64 << 53) as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(cmp_i64_f64(3, 3.5), Some(Ordering::Less));
        assert_eq!(cmp_i64_f64(-3, -3.5), Some(Ordering::Greater));
        assert_eq!(cmp_i64_f64(i64::MAX, f64::INFINITY), Some(Ordering::Less));
        assert_eq!(
            cmp_i64_f64(i64::MIN, f64::NEG_INFINITY),
            Some(Ordering::Greater)
        );
        assert_eq!(cmp_i64_f64(0, f64::NAN), None);
    }

    #[test]
    fn sort_cmp_is_total_and_ranks_types() {
        assert_eq!(Value::Null.sort_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(
            Value::Int(9).sort_cmp(&Value::Str("0".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(f64::NAN).sort_cmp(&Value::Float(f64::NAN)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float(f64::NAN).sort_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(3).sort_cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn composite_keys_are_injective() {
        // Length prefixes keep distinct structures from colliding.
        let a: Value = vec![Value::Str("ab".into()), Value::Str("c".into())].into();
        let b: Value = vec![Value::Str("a".into()), Value::Str("bc".into())].into();
        assert_ne!(a.index_key(), b.index_key());
        let one: Value = vec![1i64].into();
        let nested: Value = vec![Value::Array(vec![1i64.into()])].into();
        assert_ne!(one.index_key(), nested.index_key());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_number(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Float(1.5).as_int(), None);
    }
}
