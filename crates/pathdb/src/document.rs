//! Ordered documents: the unit of storage, a MongoDB-style record,
//! kept as a field-name shape shared between rows plus the row's own
//! values at their exact size — and [`RowRef`], the one borrowed view
//! every reader of a stored row goes through, whether the row is still
//! a `Document` or sealed into its slice's bytes (`arena`).

use crate::arena;
use crate::value::{Value, ValueRef};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An insertion-ordered string-keyed record.
///
/// Field order is preserved (like BSON); lookup is linear, which is the
/// right trade-off for the paper's documents (≤ ~15 fields). Dotted
/// paths (`"stats.latency_ms"`) address nested documents.
///
/// A row is two parts: its *shape*, the ordered list of its field
/// names, and its values, one per name, stored alone at their exact
/// size. Every row of a collection spells the same fifteen-odd names in
/// the same order, so rows share one refcounted shape from a per-thread
/// table: `set` on a new name moves the row to the shape with that name
/// appended, and `doc!` and the decoders (`Value::from_json`) place
/// each row's values once, at their count. Cloning a row bumps one
/// refcount and copies the values. The table is bounded — at most 1 024
/// shapes per thread, each of at most 32 names of at most 64 bytes;
/// past a bound a row owns its shape — so a file of hostile, ever-new
/// field lists cannot grow it. Sharing is invisible: equality, order
/// and every byte written use the names' content.
#[derive(Clone, Default, PartialEq)]
pub struct Document {
    /// `None` is the shape with no names.
    shape: Option<Arc<Shape>>,
    values: Box<[Value]>,
}

/// The ordered field names a row's values are stored under.
#[derive(PartialEq, Eq)]
pub(crate) struct Shape {
    names: Box<[Arc<str>]>,
}

impl Shape {
    /// The name this shape appended to the one it extends.
    fn last(&self) -> &str {
        self.names.last().map_or("", |n| n)
    }
}

/// Longest name a shared shape holds.
const SHARED_NAME_MAX: usize = 64;
/// Most names a shared shape holds.
const SHARED_FIELDS: usize = 32;
/// Shapes the per-thread table holds at most.
const SHARED_SHAPES: usize = 1024;

/// The per-thread table: each shape it extended, keyed by the shape's
/// address (`0` for no names), and how many shapes it holds.
#[derive(Default)]
struct Shapes {
    next: HashMap<usize, Extended, BuildHasherDefault<AddrHasher>>,
    held: usize,
}

/// A shape the table extended, kept alive so its address stays its own,
/// and the shared shapes one name longer, by their last name (a binary
/// search: a file of many first names cannot make every lookup long).
struct Extended {
    _from: Option<Arc<Shape>>,
    longer: Vec<Arc<Shape>>,
}

thread_local! {
    static SHAPES: RefCell<Shapes> = RefCell::new(Shapes::default());
}

/// Hashes a shape's address with one multiply: the table is looked up
/// once per field a row is built with.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the shape table hashes addresses only")
    }

    fn write_usize(&mut self, addr: usize) {
        let x = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where `key` goes in a row of shape `shape`.
enum Place {
    /// The row has it, in this slot.
    At(usize),
    /// The row lacks it: this is the shape with it appended.
    Append(Arc<Shape>),
}

fn names_of(shape: &Option<Arc<Shape>>) -> &[Arc<str>] {
    shape.as_deref().map_or(&[], |s| &s.names)
}

/// Place `key` in a row of shape `shape`. A shape the table already
/// extended by `key` answers without a scan (the table extends a shape
/// only by a name it lacks); otherwise the names are scanned, and a new
/// longer shape is the table's when the table and its bounds allow,
/// else the row's own.
fn place(shape: &Option<Arc<Shape>>, key: &str) -> Place {
    let addr = shape.as_ref().map_or(0, |s| Arc::as_ptr(s) as usize);
    SHAPES.with(|table| {
        let mut table = table.borrow_mut();
        if let Some(extended) = table.next.get(&addr) {
            if let Ok(i) = extended.longer.binary_search_by(|s| s.last().cmp(key)) {
                return Place::Append(Arc::clone(&extended.longer[i]));
            }
        }
        let names = names_of(shape);
        if let Some(i) = names.iter().position(|n| **n == *key) {
            return Place::At(i);
        }
        let shared = table.held < SHARED_SHAPES
            && names.len() < SHARED_FIELDS
            && names
                .iter()
                .map(|n| &**n)
                .chain([key])
                .all(|n| n.len() <= SHARED_NAME_MAX);
        let names = names.iter().cloned().chain([Arc::from(key)]).collect();
        let longer = Arc::new(Shape { names });
        if shared {
            table.held += 1;
            let extended = table.next.entry(addr).or_insert_with(|| Extended {
                _from: shape.clone(),
                longer: Vec::new(),
            });
            let at = extended.longer.partition_point(|s| s.last() < key);
            extended.longer.insert(at, Arc::clone(&longer));
        }
        Place::Append(longer)
    })
}

impl Document {
    pub fn new() -> Document {
        Document::default()
    }

    fn names(&self) -> &[Arc<str>] {
        names_of(&self.shape)
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    fn slot(&self, key: &str) -> Option<usize> {
        self.names().iter().position(|k| **k == *key)
    }

    /// Direct (non-dotted) field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.slot(key).map(|i| &self.values[i])
    }

    /// Set a direct field, overwriting in place to preserve order.
    pub fn set<K: AsRef<str>, V: Into<Value>>(&mut self, key: K, value: V) -> &mut Self {
        let value = value.into();
        match place(&self.shape, key.as_ref()) {
            Place::At(i) => self.values[i] = value,
            Place::Append(shape) => {
                let mut values = std::mem::take(&mut self.values).into_vec();
                values.reserve_exact(1);
                values.push(value);
                self.values = values.into_boxed_slice();
                self.shape = Some(shape);
            }
        }
        self
    }

    /// Remove a direct field, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.slot(key)?;
        let mut values = std::mem::take(&mut self.values).into_vec();
        let value = values.remove(i);
        let names = self.names().iter().enumerate().filter(|&(j, _)| j != i);
        let rest: Document = names.map(|(_, n)| &**n).zip(values).collect();
        *self = rest;
        Some(value)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.names().iter().map(|k| &**k).zip(self.values.iter())
    }

    /// Dotted-path set, creating intermediate documents as needed.
    /// Overwrites non-document intermediates.
    pub(crate) fn set_path<V: Into<Value>>(&mut self, path: &str, value: V) {
        let parts: Vec<&str> = path.split('.').collect();
        set_path_inner(self, &parts, value.into());
    }

    /// The `_id` field as a string, if present.
    pub fn id(&self) -> Option<&str> {
        self.get("_id").and_then(Value::as_str)
    }
}

fn set_path_inner(doc: &mut Document, parts: &[&str], value: Value) {
    match parts {
        [] => {}
        [leaf] => {
            doc.set(*leaf, value);
        }
        [head, rest @ ..] => {
            let needs_doc = !matches!(doc.get(head), Some(Value::Doc(_)));
            if needs_doc {
                doc.set(*head, Document::new());
            }
            if let Some(i) = doc.slot(head) {
                if let Value::Doc(d) = &mut doc.values[i] {
                    set_path_inner(d, rest, value);
                }
            }
        }
    }
}

/// Builds a row from its fields in order, its values placed once at
/// their count; a repeated name overwrites in place, as `set` does.
/// `doc!` and `Value::from_json` build through here.
impl<'a> FromIterator<(&'a str, Value)> for Document {
    fn from_iter<I: IntoIterator<Item = (&'a str, Value)>>(fields: I) -> Document {
        let fields = fields.into_iter();
        let mut shape = None;
        let mut values = Vec::with_capacity(fields.size_hint().0);
        for (key, value) in fields {
            match place(&shape, key) {
                Place::At(i) => values[i] = value,
                Place::Append(longer) => {
                    shape = Some(longer);
                    values.push(value);
                }
            }
        }
        Document {
            shape,
            values: values.into_boxed_slice(),
        }
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<(&str, &Value)> = self.iter().collect();
        f.debug_struct("Document").field("fields", &fields).finish()
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        RowRef::from(self).fmt(f)
    }
}

impl<'a> IntoIterator for &'a Document {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A borrowed row: a [`Document`], or a row sealed into its slice's
/// bytes. Every read of a stored row goes through it — filters, the
/// planner, index upkeep, the statcache fold, rollups, the slice
/// encoder — and [`RowRef::to_document`] copies one out where a caller
/// needs it owned. Equality, order and every byte written are the
/// `Document`'s: a sealed row and the document it was are
/// indistinguishable.
#[derive(Clone, Copy)]
pub struct RowRef<'a>(Repr<'a>);

#[derive(Clone, Copy)]
enum Repr<'a> {
    Doc(&'a Document),
    /// A sealed row: its shape, and its values' bytes in the shape's
    /// order.
    Sealed {
        shape: &'a Option<Arc<Shape>>,
        bytes: &'a [u8],
    },
    /// A document nested in a sealed row: `len` fields, each its name
    /// then its value.
    Nested {
        len: usize,
        bytes: &'a [u8],
    },
}

impl<'a> From<&'a Document> for RowRef<'a> {
    fn from(doc: &'a Document) -> RowRef<'a> {
        RowRef(Repr::Doc(doc))
    }
}

impl<'a> From<&RowRef<'a>> for RowRef<'a> {
    fn from(row: &RowRef<'a>) -> RowRef<'a> {
        *row
    }
}

impl<'a> RowRef<'a> {
    /// A sealed row of `shape` whose values are `bytes`.
    pub(crate) fn sealed(shape: &'a Option<Arc<Shape>>, bytes: &'a [u8]) -> RowRef<'a> {
        RowRef(Repr::Sealed { shape, bytes })
    }

    /// A nested document of `len` fields at the start of `bytes`.
    pub(crate) fn nested(len: usize, bytes: &'a [u8]) -> RowRef<'a> {
        RowRef(Repr::Nested { len, bytes })
    }

    /// The row's shape, what a slice's shape table holds. A stored row
    /// is a document or sealed, never nested.
    pub(crate) fn shape(self) -> &'a Option<Arc<Shape>> {
        match self.0 {
            Repr::Doc(doc) => &doc.shape,
            Repr::Sealed { shape, .. } => shape,
            Repr::Nested { .. } => unreachable!("a stored row is never nested"),
        }
    }

    /// A sealed row's bytes.
    pub(crate) fn sealed_bytes(self) -> Option<&'a [u8]> {
        match self.0 {
            Repr::Sealed { bytes, .. } => Some(bytes),
            _ => None,
        }
    }

    /// The fields in order, each read once: the one walk a sealed row
    /// supports, so a reader of many fields matches names as they come.
    pub fn fields(self) -> impl Iterator<Item = (&'a str, ValueRef<'a>)> + Clone {
        match self.0 {
            Repr::Doc(doc) => Fields::Doc(doc.names().iter(), doc.values.iter()),
            Repr::Sealed { shape, bytes } => Fields::Sealed(names_of(shape).iter(), bytes),
            Repr::Nested { len, bytes } => Fields::Nested(len, bytes),
        }
    }

    pub(crate) fn len(self) -> usize {
        match self.0 {
            Repr::Doc(doc) => doc.len(),
            Repr::Sealed { shape, .. } => names_of(shape).len(),
            Repr::Nested { len, .. } => len,
        }
    }

    pub(crate) fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Direct (non-dotted) field lookup: the name found first, then
    /// only that value read.
    pub fn get(self, key: &str) -> Option<ValueRef<'a>> {
        match self.0 {
            Repr::Doc(doc) => doc.get(key).map(Value::view),
            Repr::Sealed { shape, mut bytes } => {
                let at = names_of(shape).iter().position(|n| **n == *key)?;
                for _ in 0..at {
                    arena::skip_value(&mut bytes);
                }
                Some(arena::read_value(&mut bytes))
            }
            Repr::Nested { len, mut bytes } => {
                for _ in 0..len {
                    if arena::read_name(&mut bytes) == key.as_bytes() {
                        return Some(arena::read_value(&mut bytes));
                    }
                    arena::skip_value(&mut bytes);
                }
                None
            }
        }
    }

    /// Dotted-path lookup: `"a.b.c"` descends nested documents.
    pub(crate) fn get_path(self, path: &str) -> Option<ValueRef<'a>> {
        let mut parts = path.split('.');
        let mut cur = self.get(parts.next()?)?;
        for part in parts {
            cur = cur.as_doc()?.get(part)?;
        }
        Some(cur)
    }

    /// The `_id` field as a string, if present.
    pub fn id(self) -> Option<&'a str> {
        self.get("_id")?.as_str()
    }

    /// An owned copy. A sealed row keeps its shape shared.
    pub fn to_document(self) -> Document {
        match self.0 {
            Repr::Doc(doc) => doc.clone(),
            Repr::Sealed { shape, .. } => Document {
                shape: shape.clone(),
                values: self.fields().map(|(_, v)| v.into()).collect(),
            },
            Repr::Nested { .. } => self.fields().map(|(k, v)| (k, v.into())).collect(),
        }
    }

    /// Render the row as compact JSON into `out`: what the WAL and the
    /// slice files hold.
    pub(crate) fn write_json(self, out: &mut Vec<u8>) {
        out.push(b'{');
        for (i, (k, v)) in self.fields().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            serde::json::write_str(out, k);
            out.push(b':');
            v.write_json(out);
        }
        out.push(b'}');
    }
}

/// [`RowRef::fields`]' walk.
#[derive(Clone)]
enum Fields<'a> {
    Doc(std::slice::Iter<'a, Arc<str>>, std::slice::Iter<'a, Value>),
    Sealed(std::slice::Iter<'a, Arc<str>>, &'a [u8]),
    Nested(usize, &'a [u8]),
}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a str, ValueRef<'a>);

    fn next(&mut self) -> Option<(&'a str, ValueRef<'a>)> {
        match self {
            Fields::Doc(names, values) => Some((names.next()?, values.next()?.view())),
            Fields::Sealed(names, bytes) => Some((names.next()?, arena::read_value(bytes))),
            Fields::Nested(0, _) => None,
            Fields::Nested(len, bytes) => {
                *len -= 1;
                Some((arena::read_str(bytes), arena::read_value(bytes)))
            }
        }
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.len() == other.len() && self.fields().eq(other.fields())
    }
}

impl PartialEq<Document> for RowRef<'_> {
    fn eq(&self, other: &Document) -> bool {
        *self == RowRef::from(other)
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<_> = self.fields().collect();
        f.debug_struct("Row").field("fields", &fields).finish()
    }
}

impl fmt::Display for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_json(&mut out);
        f.write_str(&serde::json::into_text(out))
    }
}

/// Terse document literal:
/// `doc! { "server_id" => 2, "hops" => 6 }`.
#[macro_export]
macro_rules! doc {
    () => { $crate::document::Document::new() };
    ($($k:expr => $v:expr),+ $(,)?) => {
        <$crate::document::Document as ::core::iter::FromIterator<_>>::from_iter([
            $( (
                ::core::convert::AsRef::<str>::as_ref(&$k),
                ::core::convert::Into::<$crate::value::Value>::into($v),
            ) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode_jsonl, encode_jsonl_seq, take_seq, LoadOptions};
    use crate::wal::{encode_group, read_wal, WalOp, WalOpRef};

    #[test]
    fn set_preserves_order_and_overwrites_in_place() {
        let mut d = Document::new();
        d.set("a", 1i64).set("b", 2i64).set("c", 3i64);
        d.set("b", 20i64);
        let keys: Vec<&str> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert_eq!(d.get("b"), Some(&Value::Int(20)));
    }

    #[test]
    fn doc_macro_builds_documents() {
        let d = doc! { "x" => 1i64, "y" => "hello" };
        assert_eq!(d.get("x"), Some(&Value::Int(1)));
        assert_eq!(d.get("y").unwrap().as_str(), Some("hello"));
        let again = doc! { "x" => 1i64, "y" => 2i64, "x" => 3i64 };
        assert_eq!(
            again,
            doc! { "x" => 3i64, "y" => 2i64 },
            "a repeat overwrites"
        );
    }

    #[test]
    fn dotted_path_get_set() {
        let mut d = Document::new();
        d.set_path("stats.latency.avg", 21.5f64);
        d.set_path("stats.latency.max", 30.0f64);
        let d = RowRef::from(&d);
        assert_eq!(d.get_path("stats.latency.avg"), Some(ValueRef::Float(21.5)));
        assert_eq!(d.get_path("stats.missing"), None);
        assert_eq!(d.get_path("missing.deep"), None);
        assert_eq!(d.get_path("stats.latency.max"), Some(ValueRef::Float(30.0)));
    }

    #[test]
    fn set_path_overwrites_scalar_intermediate() {
        let mut d = doc! { "a" => 5i64 };
        d.set_path("a.b", 1i64);
        assert_eq!(RowRef::from(&d).get_path("a.b"), Some(ValueRef::Int(1)));
    }

    #[test]
    fn id_accessor() {
        let d = doc! { "_id" => "2_15" };
        assert_eq!(d.id(), Some("2_15"));
        assert_eq!(Document::new().id(), None);
        let n = doc! { "_id" => 7i64 };
        assert_eq!(n.id(), None, "non-string ids are not exposed as &str");
    }

    /// `built` through each reader: the JSON tree, a WAL frame, a slice
    /// line (its `__seq` taken off again).
    fn round_trips(built: &Document) -> [Document; 3] {
        let Value::Doc(json) = Value::from_json(&Value::Doc(built.clone()).to_json()) else {
            panic!("a document")
        };
        let log = encode_group(&[WalOpRef::Insert {
            coll: "paths_stats",
            doc: built,
        }]);
        let mut logged = Vec::new();
        read_wal(&log[..], log.len() as u64, |group| logged.extend(group)).unwrap();
        let [WalOp::Insert { doc: logged, .. }] = &logged[..] else {
            panic!("one insert")
        };
        let slice = encode_jsonl_seq([(7, built)].into_iter());
        let mut sliced = Vec::new();
        decode_jsonl(&slice, "slice", &LoadOptions::default(), |mut row| {
            assert_eq!(take_seq(&mut row), Some(7));
            sliced.push(row);
            Ok(())
        })
        .unwrap();
        [json, logged.clone(), sliced.remove(0)]
    }

    /// Every builder's row of the same fields: `doc!`, `set` one by
    /// one, each reader, and a clone.
    fn built_every_way() -> Vec<Document> {
        let built = doc! { "_id" => "a", "avg_latency_ms" => 20.5f64, "hops" => 3i64 };
        let mut set = Document::new();
        set.set(String::from("_id"), "a")
            .set("avg_latency_ms", 20.5f64)
            .set("hops", 3i64);
        let mut rows = vec![built.clone(), set, built.clone()];
        rows.extend(round_trips(&built));
        rows
    }

    fn shape(d: &Document) -> &Arc<Shape> {
        d.shape.as_ref().expect("a row with fields")
    }

    #[test]
    fn rows_share_one_shape_however_they_were_built() {
        let rows = built_every_way();
        for row in &rows {
            assert_eq!(row, &rows[0]);
            assert!(Arc::ptr_eq(shape(&rows[0]), shape(row)), "{row:?}");
        }
    }

    #[test]
    fn rows_are_built_at_their_size() {
        // The values are a boxed slice, whose block is exactly its
        // length: no spare slot can hide there. What is left to pin is
        // one value per name, and the row's own 24 bytes (a shape
        // pointer and the slice; no name is stored per row).
        for row in built_every_way() {
            let names = row.names().len();
            let values: Box<[Value]> = row.values;
            assert_eq!(values.len(), 3);
            assert_eq!(names, values.len());
        }
        assert_eq!(std::mem::size_of::<Document>(), 24);
    }

    #[test]
    fn the_shape_table_stops_at_its_cap() {
        let share = |a: &Document, b: &Document| Arc::ptr_eq(shape(a), shape(b));
        let held = || SHAPES.with(|t| t.borrow().held);
        // Past the name and the field bound a row owns its shape.
        let long = "n".repeat(SHARED_NAME_MAX + 1);
        assert!(!share(&doc! { &long => 1i64 }, &doc! { &long => 1i64 }));
        let wide_names: Vec<String> = (0..=SHARED_FIELDS).map(|i| format!("w{i}")).collect();
        let wide = |n: usize| -> Document {
            let names = wide_names[..n].iter();
            names.map(|k| (k.as_str(), Value::Null)).collect()
        };
        assert!(share(&wide(SHARED_FIELDS), &wide(SHARED_FIELDS)));
        assert!(!share(&wide(SHARED_FIELDS + 1), &wide(SHARED_FIELDS + 1)));
        // 2 000 distinct field lists: the table fills and stops.
        let room = SHARED_SHAPES - held();
        let names: Vec<String> = (0..2000).map(|i| format!("field_{i}")).collect();
        let rows: Vec<Document> = names.iter().map(|n| doc! { n => 1i64 }).collect();
        assert_eq!(held(), SHARED_SHAPES);
        for (i, (row, name)) in rows.iter().zip(&names).enumerate() {
            assert_eq!(share(row, &doc! { name => 2i64 }), i < room, "{name}");
        }
        let odd = [doc! { &long => 1i64 }, wide(SHARED_FIELDS + 1)];
        for row in rows.into_iter().chain(odd) {
            for back in round_trips(&row) {
                assert_eq!(back, row);
            }
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let mut d = doc! { "a" => 1i64 };
        assert_eq!(d.remove("zz"), None);
    }

    /// The layout is invisible: a plain list of names and values, fed
    /// the same steps, answers the same.
    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, PartialEq)]
        enum Node {
            Leaf(Value),
            Doc(Model),
        }

        type Model = Vec<(String, Node)>;

        #[derive(Debug, Clone)]
        enum Step {
            /// What `doc!` expands to.
            Build(Vec<(String, Value)>),
            Set(String, Value),
            SetPath(Vec<String>, Value),
            Remove(String),
            Clone,
        }

        fn arb_leaf() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                (-1.0e6..1.0e6f64).prop_map(Value::Float),
                "[a-z\"]{0,6}".prop_map(Value::Str),
                prop::collection::vec(any::<i32>().prop_map(|i| Value::Int(i as i64)), 0..3)
                    .prop_map(Value::Array),
            ]
        }

        /// Few names, so steps hit the same fields and shapes again.
        fn arb_name() -> impl Strategy<Value = String> {
            "[a-e]{1,2}"
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            prop_oneof![
                prop::collection::vec((arb_name(), arb_leaf()), 0..8).prop_map(Step::Build),
                (arb_name(), arb_leaf()).prop_map(|(k, v)| Step::Set(k, v)),
                (arb_name(), arb_leaf()).prop_map(|(k, v)| Step::Set(k, v)),
                (prop::collection::vec(arb_name(), 1..4), arb_leaf())
                    .prop_map(|(p, v)| Step::SetPath(p, v)),
                arb_name().prop_map(Step::Remove),
                Just(Step::Clone),
            ]
        }

        fn model_set(m: &mut Model, key: &str, node: Node) {
            match m.iter_mut().find(|(k, _)| k == key) {
                Some((_, n)) => *n = node,
                None => m.push((key.to_string(), node)),
            }
        }

        fn model_set_path(m: &mut Model, parts: &[String], value: Value) {
            let [head, rest @ ..] = parts else { return };
            if rest.is_empty() {
                return model_set(m, head, Node::Leaf(value));
            }
            if !m
                .iter()
                .any(|(k, n)| k == head && matches!(n, Node::Doc(_)))
            {
                model_set(m, head, Node::Doc(Vec::new()));
            }
            let Some((_, Node::Doc(inner))) = m.iter_mut().find(|(k, _)| k == head) else {
                unreachable!()
            };
            model_set_path(inner, rest, value);
        }

        fn view(d: &Document) -> Model {
            d.iter()
                .map(|(k, v)| {
                    let node = match v {
                        Value::Doc(inner) => Node::Doc(view(inner)),
                        leaf => Node::Leaf(leaf.clone()),
                    };
                    (k.to_string(), node)
                })
                .collect()
        }

        fn model_json(m: &Model, out: &mut Vec<u8>) {
            out.push(b'{');
            for (i, (k, node)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                serde::json::write_str(out, k);
                out.push(b':');
                match node {
                    Node::Leaf(v) => v.write_json(out),
                    Node::Doc(inner) => model_json(inner, out),
                }
            }
            out.push(b'}');
        }

        /// Order, `get`, `==` and the bytes written, against the model.
        fn agrees(d: &Document, m: &Model) -> Result<(), TestCaseError> {
            prop_assert_eq!(&view(d), m);
            prop_assert_eq!(d.len(), m.len());
            for (k, _) in m {
                prop_assert_eq!(d.get(k), d.iter().find(|(n, _)| n == k).map(|(_, v)| v));
            }
            prop_assert_eq!(d.get("zz"), None);
            let (mut bytes, mut want) = (Vec::new(), Vec::new());
            RowRef::from(d).write_json(&mut bytes);
            model_json(m, &mut want);
            prop_assert_eq!(bytes, want);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn the_layout_is_invisible(steps in prop::collection::vec(arb_step(), 1..24)) {
                let (mut d, mut m) = (Document::new(), Model::new());
                for step in steps {
                    match step {
                        Step::Build(fields) => {
                            d = fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                            m.clear();
                            for (k, v) in fields {
                                model_set(&mut m, &k, Node::Leaf(v));
                            }
                        }
                        Step::Set(k, v) => {
                            d.set(&k, v.clone());
                            model_set(&mut m, &k, Node::Leaf(v));
                        }
                        Step::SetPath(parts, v) => {
                            d.set_path(&parts.join("."), v.clone());
                            model_set_path(&mut m, &parts, v);
                        }
                        Step::Remove(k) => {
                            let want = m.iter().position(|(n, _)| *n == k).map(|i| m.remove(i).1);
                            let got = d.remove(&k);
                            prop_assert_eq!(got.is_some(), want.is_some());
                        }
                        Step::Clone => d = d.clone(),
                    }
                    agrees(&d, &m)?;
                    for back in round_trips(&d) {
                        prop_assert_eq!(&back, &d);
                        agrees(&back, &m)?;
                    }
                }
            }
        }
    }

    /// Sealed rows are invisible: rows of mixed shapes, holding every
    /// kind of value, sealed into one slice, answer as the documents
    /// they were — every float to its bit.
    mod sealed {
        use super::*;
        use crate::arena::Sealed;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
                prop::sample::select(vec![
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    -f64::NAN,
                    f64::from_bits(0x7ff8_0000_dead_beef),
                    f64::MIN_POSITIVE,
                    -5e-324,
                    20.5,
                ])
                .prop_map(Value::Float),
                "[a-z\"\\é✓]{0,8}".prop_map(Value::Str),
                "[a-z]{250,300}".prop_map(Value::Str),
            ];
            leaf.prop_recursive(2, 16, 4, |inner| {
                prop_oneof![
                    inner.clone(),
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                    prop::collection::vec(("[a-c_]{0,3}", inner), 0..4).prop_map(|fields| {
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

        /// A row of a few names, in any order, so one slice holds rows
        /// of several shapes; most carry an `_id`.
        fn arb_row() -> impl Strategy<Value = Document> {
            let fields = prop::collection::vec(("[a-d]{1,2}", arb_value()), 0..6);
            (prop::option::of("[0-9]{1,3}"), fields).prop_map(|(id, fields)| {
                let id = id.map(|id| ("_id".to_string(), Value::Str(id)));
                let fields: Vec<_> = id.into_iter().chain(fields).collect();
                fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect()
            })
        }

        /// The value with every float spelled as its bits: what "the
        /// same value" means here.
        fn bits(v: ValueRef<'_>) -> String {
            match v {
                ValueRef::Float(f) => format!("f{:x}", f.to_bits()),
                ValueRef::Array(a) => {
                    let items: Vec<String> = a.iter().map(bits).collect();
                    format!("[{}]", items.join(","))
                }
                ValueRef::Doc(d) => {
                    let fields: Vec<String> = d
                        .fields()
                        .map(|(k, v)| format!("{k:?}:{}", bits(v)))
                        .collect();
                    format!("{{{}}}", fields.join(","))
                }
                other => format!("{other:?}"),
            }
        }

        fn row_bits(row: RowRef<'_>) -> String {
            bits(ValueRef::Doc(row))
        }

        /// `sealed` answers as `doc`: names in order, `get`, `id`, `==`,
        /// the copy out, and the bytes written and read back through
        /// JSON, a WAL frame and a slice line.
        fn agrees(sealed: RowRef<'_>, doc: &Document) -> Result<(), TestCaseError> {
            let want = RowRef::from(doc);
            let names = |r: RowRef<'_>| r.fields().map(|(k, _)| k.to_string()).collect::<Vec<_>>();
            prop_assert_eq!(names(sealed), names(want));
            prop_assert_eq!(sealed.len(), doc.len());
            for (k, _) in doc.iter() {
                prop_assert_eq!(sealed.get(k).map(bits), want.get(k).map(bits));
            }
            prop_assert!(sealed.get("zz").is_none());
            prop_assert_eq!(sealed.id(), doc.id());
            // A row equals itself unless it holds a NaN.
            let reflexive = want == RowRef::from(doc);
            prop_assert_eq!(sealed == want, reflexive);
            let back = sealed.to_document();
            prop_assert_eq!(row_bits((&back).into()), row_bits(want));
            prop_assert_eq!(back == *doc, reflexive);
            prop_assert!(back.shape == doc.shape);
            let json = |r: RowRef<'_>| {
                let mut out = Vec::new();
                r.write_json(&mut out);
                out
            };
            prop_assert_eq!(json(sealed), json(want));
            prop_assert_eq!(sealed.to_string(), doc.to_string());
            let wal = |d: &Document| encode_group(&[WalOpRef::Insert { coll: "c", doc: d }]);
            prop_assert_eq!(wal(&back), wal(doc));
            prop_assert_eq!(
                encode_jsonl_seq([(7, sealed)].into_iter()),
                encode_jsonl_seq([(7, want)].into_iter())
            );
            for (got, want) in round_trips(&back).iter().zip(round_trips(doc).iter()) {
                prop_assert_eq!(row_bits(got.into()), row_bits(want.into()));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn sealed_rows_are_invisible(
                rows in prop::collection::vec(((0usize..4), arb_row()), 1..48),
            ) {
                // Rows at ascending cells with gaps: empty cells between.
                let mut at = 0;
                let cells: Vec<(usize, Document)> = rows
                    .into_iter()
                    .map(|(gap, row)| {
                        at += gap;
                        let cell = (at, row);
                        at += 1;
                        cell
                    })
                    .collect();
                let sealed = Sealed::new(cells.iter().map(|(i, d)| (*i, RowRef::from(d))));
                for (i, doc) in &cells {
                    agrees(sealed.row(*i), doc)?;
                }
                // Sealing a sealed slice's rows again changes nothing.
                let again = Sealed::new(cells.iter().map(|(i, _)| (*i, sealed.row(*i))));
                for (i, doc) in &cells {
                    agrees(again.row(*i), doc)?;
                }
            }
        }
    }
}
