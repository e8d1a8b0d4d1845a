//! The query planner: point, range or scan.
//!
//! Given a [`Filter`] and the collection's indexes, the planner picks
//! one access path: a primary-index probe (`Eq`/`In` on `_id`), point
//! lookups on one secondary index (`Eq`/`In`), a range scan over one
//! ordered secondary index (`Gt/Gte/Lt/Lte`), or a full scan. Every
//! indexable conjunct of the filter is costed by the candidates its
//! index would produce, and the cheapest wins if it touches fewer
//! documents than the collection holds. The chosen path yields a
//! *superset* of the matching documents in ascending insertion order;
//! the full filter always runs as a residual over the candidates, so a
//! plan can only over-approximate, never miss.
//!
//! Those four paths are all the system's own queries use: an `Eq` on
//! `server_id`, an `Lt` on a time field, a scan. Everything else the
//! [`Filter`] language says (`Or`, `Not`, several conjuncts on one
//! field) is answered by the residual over whichever path won.
//! [`Query::explain`](crate::builder::Query::explain) exposes the
//! decision for tests and observability, and every planning decision
//! bumps a `pathdb.plan.*` telemetry counter.

use crate::collection::{Collection, FieldIndex};
use crate::document::Document;
use crate::query::{Filter, FindOptions};
use crate::value::Value;
use std::ops::Bound;

/// How the planner locates candidate documents for a filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Every document is tested against the filter.
    FullScan { documents: usize },
    /// Unique `_id` index probe (`Eq`/`In` on `_id`).
    Primary { keys: usize },
    /// Point lookups (`Eq`/`In`) on one secondary index.
    IndexPoint {
        field: String,
        /// Index keys probed (`$eq` = 1, `$in` = list length).
        keys: usize,
        /// Candidate documents the probes produced.
        candidates: usize,
    },
    /// Range scan over one ordered secondary index (`Gt/Gte/Lt/Lte`).
    IndexRange { field: String, candidates: usize },
}

impl Access {
    pub fn is_full_scan(&self) -> bool {
        matches!(self, Access::FullScan { .. })
    }
}

/// The planner's decision for a query — what [`crate::Query::explain`]
/// returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// How candidate documents are located.
    pub access: Access,
}

// ---- indexable atoms ----------------------------------------------------

/// An indexable conjunct of the filter and the index that serves it.
/// Its candidates are a superset of the documents matching the conjunct
/// it came from.
enum Atom<'a> {
    /// `Eq`/`In` on `_id`: probe the primary index for these keys.
    Primary { keys: Vec<String> },
    /// `Eq`/`In` with non-null values on an indexed field: probe these
    /// exact keys.
    Point {
        field: &'a str,
        index: &'a FieldIndex,
        keys: Vec<String>,
    },
    /// `Gt/Gte/Lt/Lte` with a scalar bound on an indexed field: scan
    /// this key range.
    Range {
        field: &'a str,
        index: &'a FieldIndex,
        lo: Bound<String>,
        hi: Bound<String>,
    },
}

/// The atom a non-`And` conjunct contributes, if an index serves it.
/// Names stay borrowed and keys are rendered only for a served field.
fn atom_of<'a>(coll: &'a Collection, filter: &'a Filter) -> Option<Atom<'a>> {
    let point = |field: &'a str, values: &[Value]| {
        // `Eq(k, Null)` also matches documents *missing* the field,
        // which no index contains.
        if values.is_empty() || values.iter().any(Value::is_null) {
            return None;
        }
        let index = match field {
            "_id" => None,
            _ => Some(coll.indexes.get(field)?),
        };
        let keys = values.iter().map(Value::index_key).collect();
        Some(match index {
            None => Atom::Primary { keys },
            Some(index) => Atom::Point { field, index, keys },
        })
    };
    let range = |field: &'a str, v: &Value, inclusive: bool, lower: bool| {
        // Only a scalar orders against one key class (and `Null` is out
        // as for points).
        if !matches!(
            v,
            Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
        ) {
            return None;
        }
        let index = coll.indexes.get(field)?;
        let (lo, hi) = key_range(v.index_key(), inclusive, lower);
        Some(Atom::Range {
            field,
            index,
            lo,
            hi,
        })
    };
    match filter {
        Filter::Eq(k, v) => point(k, std::slice::from_ref(v)),
        Filter::In(k, vs) => point(k, vs),
        Filter::Gt(k, v) => range(k, v, false, true),
        Filter::Gte(k, v) => range(k, v, true, true),
        Filter::Lt(k, v) => range(k, v, false, false),
        Filter::Lte(k, v) => range(k, v, true, false),
        _ => None,
    }
}

/// The `BTreeMap::range` bounds of one comparison against `key`, clamped
/// to the key's class (a number bound can only match number keys, etc.):
/// from the key to the start of the next class for a lower bound, from
/// the start of the class to the key for an upper one. Neither can
/// invert, so the map never panics on them.
fn key_range(key: String, inclusive: bool, lower: bool) -> (Bound<String>, Bound<String>) {
    // Every key opens with its class digit and a `:`, so "<c>:" is ≤
    // every key in the class.
    let class = key.as_bytes()[0];
    let start = |c: u8| format!("{}:", c as char);
    let at = if inclusive {
        Bound::Included(key)
    } else {
        Bound::Excluded(key)
    };
    if lower {
        (at, Bound::Excluded(start(class + 1)))
    } else {
        (Bound::Included(start(class)), at)
    }
}

impl Atom<'_> {
    /// Candidates the probe would produce: posting-list sizes for
    /// points, a walk over the keys in range for ranges.
    fn count(&self, coll: &Collection) -> usize {
        match self {
            Atom::Primary { keys } => keys
                .iter()
                .filter(|k| coll.primary.contains_key(k.as_str()))
                .count(),
            Atom::Point { index, keys, .. } => keys.iter().map(|k| index.point_count(k)).sum(),
            Atom::Range { index, lo, hi, .. } => index.range_count(lo, hi),
        }
    }

    /// The candidate seqs, ascending and deduped.
    fn seqs(&self, coll: &Collection) -> Vec<u64> {
        let mut seqs: Vec<u64> = match self {
            Atom::Primary { keys } => keys
                .iter()
                .filter_map(|k| coll.primary.get(k.as_str()))
                .copied()
                .collect(),
            Atom::Point { index, keys, .. } => {
                keys.iter().flat_map(|k| index.point_seqs(k)).collect()
            }
            Atom::Range { index, lo, hi, .. } => index.range_seqs(lo, hi).collect(),
        };
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    fn access(&self, candidates: usize) -> Access {
        match self {
            Atom::Primary { .. } => Access::Primary { keys: candidates },
            Atom::Point { field, keys, .. } => Access::IndexPoint {
                field: field.to_string(),
                keys: keys.len(),
                candidates,
            },
            Atom::Range { field, .. } => Access::IndexRange {
                field: field.to_string(),
                candidates,
            },
        }
    }
}

/// Keep in `best` the cheapest atom among the conjuncts of `filter`
/// (nested `And`s flattened), the first one on ties.
fn cheapest<'a>(coll: &'a Collection, filter: &'a Filter, best: &mut Option<(usize, Atom<'a>)>) {
    if let Filter::And(fs) = filter {
        for f in fs {
            cheapest(coll, f, best);
        }
    } else if let Some(atom) = atom_of(coll, filter) {
        let count = atom.count(coll);
        if best.as_ref().is_none_or(|(least, _)| count < *least) {
            *best = Some((count, atom));
        }
    }
}

// ---- access-path selection ----------------------------------------------

/// The chosen access path plus (for indexed paths) the materialized
/// candidate seqs in ascending insertion order.
pub(crate) struct AccessChoice {
    pub access: Access,
    /// `None` = full scan: iterate `docs` directly.
    pub seqs: Option<Vec<u64>>,
}

/// Pick the cheapest access path for a filter. The returned candidates
/// are a superset of the matching documents; callers must still apply
/// the filter as a residual.
pub(crate) fn choose_access(coll: &Collection, filter: &Filter) -> AccessChoice {
    let n = coll.docs.len();
    let mut best = None;
    cheapest(coll, filter, &mut best);
    let choice = match best {
        // An indexed path must beat the full scan it replaces.
        Some((count, atom)) if count < n => {
            let seqs = atom.seqs(coll);
            AccessChoice {
                access: atom.access(seqs.len()),
                seqs: Some(seqs),
            }
        }
        _ => AccessChoice {
            access: Access::FullScan { documents: n },
            seqs: None,
        },
    };
    let rec = coll.rec();
    let (variant, hit) = match &choice.access {
        Access::FullScan { .. } => ("pathdb.plan.full_scan", false),
        Access::Primary { .. } => ("pathdb.plan.primary", true),
        Access::IndexPoint { .. } => ("pathdb.plan.index_point", true),
        Access::IndexRange { .. } => ("pathdb.plan.index_range", true),
    };
    rec.add(variant, 1);
    rec.add(
        if hit {
            "pathdb.plan.index_hit"
        } else {
            "pathdb.plan.index_miss"
        },
        1,
    );
    choice
}

pub(crate) fn explain(coll: &Collection, filter: &Filter) -> QueryPlan {
    QueryPlan {
        access: choose_access(coll, filter).access,
    }
}

// ---- execution ----------------------------------------------------------

/// Matching seqs in ascending insertion order, via the chosen access
/// path plus the residual filter.
pub(crate) fn matching_seqs(coll: &Collection, filter: &Filter) -> Vec<u64> {
    match choose_access(coll, filter).seqs {
        Some(seqs) => seqs
            .into_iter()
            .filter(|s| coll.docs.get(s).is_some_and(|d| filter.matches(d)))
            .collect(),
        None => coll
            .docs
            .iter()
            .filter(|(_, d)| filter.matches(d))
            .map(|(&s, _)| s)
            .collect(),
    }
}

/// Planner-served `find_with`: the matches in insertion order, sorted
/// when asked, then skip/take, then projection.
pub(crate) fn find_with(coll: &Collection, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
    match choose_access(coll, filter).seqs {
        Some(seqs) => page(
            seqs.iter()
                .filter_map(|s| coll.docs.get(s))
                .filter(|d| filter.matches(d)),
            opts,
        ),
        None => page(coll.docs.values().filter(|d| filter.matches(d)), opts),
    }
}

/// Skip, take and project `matches`, stable-sorted first when `opts`
/// sorts. Unsorted, nothing past the last match taken is read, so
/// `first()` stops at the first match.
fn page<'a>(matches: impl Iterator<Item = &'a Document>, opts: &FindOptions) -> Vec<Document> {
    let take = opts.limit.unwrap_or(usize::MAX);
    if opts.sort.is_empty() {
        return matches
            .skip(opts.skip)
            .take(take)
            .map(|d| opts.apply_projection(d))
            .collect();
    }
    let mut sorted: Vec<&Document> = matches.collect();
    sorted.sort_by(|a, b| opts.doc_cmp(a, b));
    sorted
        .into_iter()
        .skip(opts.skip)
        .take(take)
        .map(|d| opts.apply_projection(d))
        .collect()
}
