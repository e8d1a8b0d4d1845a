//! The cost-based query planner.
//!
//! Given a [`Filter`] and the collection's indexes, the planner picks an
//! access path — primary-index probe, point lookups, ordered range scan,
//! an intersection of several of those, a union over `Or` branches, or a
//! full scan — by estimating candidate counts from index cardinality.
//! The chosen path yields a *superset* of the matching documents in
//! ascending insertion order; the full filter always runs as a residual
//! over the candidates, so a plan can only over-approximate, never miss.
//!
//! The planner also decides whether a requested sort can be served by
//! streaming an ordered index in key order (with skip/limit pushdown)
//! instead of materializing and sorting every match, and whether an
//! unsorted query can stop early once `skip + limit` matches are found.
//! [`Query::explain`](crate::builder::Query::explain) exposes the
//! decision for tests and observability, and every planning decision
//! bumps a `pathdb.plan.*` telemetry counter.

use crate::collection::Collection;
use crate::document::Document;
use crate::query::{Filter, FindOptions, Order};
use crate::value::Value;
use std::collections::{BTreeSet, HashSet};
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
    /// Range scan over one ordered secondary index (`Gt/Gte/Lt/Lte`,
    /// including merged between-style conjunctions).
    IndexRange { field: String, candidates: usize },
    /// Intersection of several per-field index accesses.
    IndexIntersect {
        fields: Vec<String>,
        candidates: usize,
    },
    /// Union of per-branch index accesses for an indexable `Or`.
    IndexUnion { branches: usize, candidates: usize },
}

impl Access {
    /// Candidate documents this access path feeds to the residual filter.
    pub(crate) fn candidates(&self) -> usize {
        match self {
            Access::FullScan { documents } => *documents,
            Access::Primary { keys } => *keys,
            Access::IndexPoint { candidates, .. }
            | Access::IndexRange { candidates, .. }
            | Access::IndexIntersect { candidates, .. }
            | Access::IndexUnion { candidates, .. } => *candidates,
        }
    }

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
    /// When set, the sort is served by streaming this field's ordered
    /// index in key order instead of materialize + sort.
    pub index_sort: Option<String>,
    /// Whether `skip`/`limit` bound the scan (early exit) instead of
    /// materializing every match first.
    pub limit_pushdown: bool,
}

// ---- indexable atoms ----------------------------------------------------

/// One endpoint of a key range: canonical key plus inclusivity.
#[derive(Debug, Clone)]
struct Endpoint {
    key: String,
    inclusive: bool,
}

/// An indexable predicate extracted from the filter. Each atom's
/// candidate set is a superset of the documents matching the predicate
/// it came from.
#[derive(Debug, Clone)]
enum Atom {
    /// `Eq`/`In` with non-null values: probe these exact keys.
    Point { field: String, keys: Vec<String> },
    /// `Gt/Gte/Lt/Lte` with a scalar bound: scan this key range.
    Range {
        field: String,
        lower: Option<Endpoint>,
        upper: Option<Endpoint>,
    },
    /// An `Or` where every branch is itself indexable: union the
    /// per-branch candidate sets.
    Union { branches: Vec<Vec<Atom>> },
}

impl Atom {
    fn field(&self) -> Option<&str> {
        match self {
            Atom::Point { field, .. } | Atom::Range { field, .. } => Some(field),
            Atom::Union { .. } => None,
        }
    }
}

/// A scalar range bound: orderable against at most one key class, so a
/// key-range scan can serve it. `Null` is excluded — `Eq(k, Null)` also
/// matches documents *missing* the field, which no index contains.
fn scalar_bound(v: &Value) -> bool {
    matches!(
        v,
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
    )
}

fn indexable_value(v: &Value) -> bool {
    !v.is_null()
}

/// Extract the indexable atoms of a conjunction (flattening nested
/// `And`s); a non-`And` filter contributes at most one atom.
fn conjunct_atoms(filter: &Filter) -> Vec<Atom> {
    match filter {
        Filter::And(fs) => fs.iter().flat_map(conjunct_atoms).collect(),
        other => atom_of(other).into_iter().collect(),
    }
}

fn atom_of(filter: &Filter) -> Option<Atom> {
    match filter {
        Filter::Eq(k, v) if indexable_value(v) => Some(Atom::Point {
            field: k.clone(),
            keys: vec![v.index_key()],
        }),
        Filter::In(k, vs) if !vs.is_empty() && vs.iter().all(indexable_value) => {
            Some(Atom::Point {
                field: k.clone(),
                keys: vs.iter().map(Value::index_key).collect(),
            })
        }
        Filter::Gt(k, v) if scalar_bound(v) => Some(range_atom(k, Some((v, false)), None)),
        Filter::Gte(k, v) if scalar_bound(v) => Some(range_atom(k, Some((v, true)), None)),
        Filter::Lt(k, v) if scalar_bound(v) => Some(range_atom(k, None, Some((v, false)))),
        Filter::Lte(k, v) if scalar_bound(v) => Some(range_atom(k, None, Some((v, true)))),
        Filter::Or(fs) if !fs.is_empty() => {
            let branches: Vec<Vec<Atom>> = fs.iter().map(conjunct_atoms).collect();
            // Only a fully indexable Or narrows anything: one open
            // branch forces a full scan anyway.
            if branches.iter().all(|b| !b.is_empty()) {
                Some(Atom::Union { branches })
            } else {
                None
            }
        }
        _ => None,
    }
}

fn range_atom(field: &str, lower: Option<(&Value, bool)>, upper: Option<(&Value, bool)>) -> Atom {
    let ep = |b: Option<(&Value, bool)>| {
        b.map(|(v, inclusive)| Endpoint {
            key: v.index_key(),
            inclusive,
        })
    };
    Atom::Range {
        field: field.to_string(),
        lower: ep(lower),
        upper: ep(upper),
    }
}

/// Merge range atoms on the same field into a single between-style
/// range (tightest lower/upper bound wins), leaving other atoms as-is.
fn merge_ranges(atoms: Vec<Atom>) -> Vec<Atom> {
    let mut out: Vec<Atom> = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let Atom::Range {
            field,
            lower,
            upper,
        } = atom
        else {
            out.push(atom);
            continue;
        };
        let existing = out.iter_mut().find_map(|a| match a {
            Atom::Range {
                field: f,
                lower,
                upper,
            } if *f == field => Some((lower, upper)),
            _ => None,
        });
        match existing {
            Some((lo, hi)) => {
                *lo = tighter(lo.take(), lower, true);
                *hi = tighter(hi.take(), upper, false);
            }
            None => out.push(Atom::Range {
                field,
                lower,
                upper,
            }),
        }
    }
    out
}

/// The tighter of two optional endpoints: for lower bounds the greater
/// key wins, for upper bounds the smaller; equal keys prefer exclusive.
fn tighter(a: Option<Endpoint>, b: Option<Endpoint>, is_lower: bool) -> Option<Endpoint> {
    match (a, b) {
        (None, e) | (e, None) => e,
        (Some(x), Some(y)) => {
            let pick_x = match x.key.cmp(&y.key) {
                std::cmp::Ordering::Equal => !x.inclusive,
                ord => (ord == std::cmp::Ordering::Greater) == is_lower,
            };
            Some(if pick_x { x } else { y })
        }
    }
}

/// Concrete `BTreeMap::range` bounds for a range atom, clamped to the
/// bound's key class (a number bound can only match number keys, etc.).
/// `None` means the range is provably empty.
fn key_bounds(
    lower: &Option<Endpoint>,
    upper: &Option<Endpoint>,
) -> Option<(Bound<String>, Bound<String>)> {
    let class = |ep: &Endpoint| ep.key.as_bytes().first().copied().unwrap_or(b'0');
    let c = match (lower, upper) {
        (Some(l), _) => class(l),
        (_, Some(u)) => class(u),
        (None, None) => return None,
    };
    let lo = match lower {
        Some(e) if e.inclusive => Bound::Included(e.key.clone()),
        Some(e) => Bound::Excluded(e.key.clone()),
        // Clamp to the start of the class: "<c>:" is ≤ every key in it.
        None => Bound::Included(format!("{}:", c as char)),
    };
    let hi = match upper {
        Some(e) if e.inclusive => Bound::Included(e.key.clone()),
        Some(e) => Bound::Excluded(e.key.clone()),
        // Clamp to the start of the next class (exclusive).
        None => Bound::Excluded(format!("{}:", (c + 1) as char)),
    };
    // Inverted bounds match nothing — and would make
    // `BTreeMap::range` panic. (Mixed-class bounds from a
    // contradictory query either invert or scan a harmless superset
    // the residual filter rejects.)
    let (lk, hk) = (bound_key(&lo), bound_key(&hi));
    match lk.cmp(hk) {
        std::cmp::Ordering::Greater => None,
        std::cmp::Ordering::Equal
            if matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_)) =>
        {
            None
        }
        _ => Some((lo, hi)),
    }
}

fn bound_key(b: &Bound<String>) -> &str {
    match b {
        Bound::Included(k) | Bound::Excluded(k) => k,
        Bound::Unbounded => unreachable!(),
    }
}

fn class_of(key: &str) -> u8 {
    key.as_bytes().first().copied().unwrap_or(b'0')
}

// ---- costing ------------------------------------------------------------

/// Relative cost of running the residual filter on one candidate,
/// versus ~1 for touching a seq during set operations.
const FILTER_COST: usize = 3;

/// A costed atom: how many candidates its index access would produce.
struct Costed<'a> {
    atom: &'a Atom,
    count: usize,
}

/// Count the candidates an atom would produce, or `None` when no index
/// can serve it. Cheap: posting-list sizes for points, a walk over the
/// distinct keys in range for ranges.
fn cost_atom(coll: &Collection, atom: &Atom) -> Option<usize> {
    match atom {
        Atom::Point { field, keys } => {
            if field == "_id" {
                return Some(
                    keys.iter()
                        .filter(|k| coll.primary.contains_key(k.as_str()))
                        .count(),
                );
            }
            let idx = coll.indexes.get(field)?;
            Some(keys.iter().map(|k| idx.point_count(k)).sum())
        }
        Atom::Range {
            field,
            lower,
            upper,
        } => {
            let idx = coll.indexes.get(field)?;
            match key_bounds(lower, upper) {
                Some((lo, hi)) => Some(idx.range_count(&lo, &hi)),
                None => Some(0), // provably empty
            }
        }
        Atom::Union { branches } => {
            let mut total = 0usize;
            for branch in branches {
                // A branch's candidates are its own cheapest atom's.
                let best = branch.iter().filter_map(|a| cost_atom(coll, a)).min()?;
                total += best;
            }
            Some(total)
        }
    }
}

/// Materialize an atom's candidate seqs, ascending and deduped.
fn atom_seqs(coll: &Collection, atom: &Atom) -> Vec<u64> {
    match atom {
        Atom::Point { field, keys } => {
            if field == "_id" {
                let mut seqs: Vec<u64> = keys
                    .iter()
                    .filter_map(|k| coll.primary.get(k.as_str()))
                    .copied()
                    .collect();
                seqs.sort_unstable();
                seqs.dedup();
                return seqs;
            }
            let Some(idx) = coll.indexes.get(field) else {
                return Vec::new();
            };
            let mut seqs: Vec<u64> = keys.iter().flat_map(|k| idx.point_seqs(k)).collect();
            seqs.sort_unstable();
            seqs.dedup();
            seqs
        }
        Atom::Range {
            field,
            lower,
            upper,
        } => {
            let Some(idx) = coll.indexes.get(field) else {
                return Vec::new();
            };
            let Some((lo, hi)) = key_bounds(lower, upper) else {
                return Vec::new();
            };
            let mut seqs: Vec<u64> = idx.range_seqs(&lo, &hi).collect();
            seqs.sort_unstable();
            seqs.dedup();
            seqs
        }
        Atom::Union { branches } => {
            let mut all: BTreeSet<u64> = BTreeSet::new();
            for branch in branches {
                let best = branch
                    .iter()
                    .filter_map(|a| cost_atom(coll, a).map(|c| (c, a)))
                    .min_by_key(|(c, _)| *c);
                if let Some((_, atom)) = best {
                    all.extend(atom_seqs(coll, atom));
                }
            }
            all.into_iter().collect()
        }
    }
}

fn atom_access(atom: &Atom, count: usize) -> Access {
    match atom {
        Atom::Point { field, keys } => {
            if field == "_id" {
                Access::Primary { keys: count }
            } else {
                Access::IndexPoint {
                    field: field.clone(),
                    keys: keys.len(),
                    candidates: count,
                }
            }
        }
        Atom::Range { field, .. } => Access::IndexRange {
            field: field.clone(),
            candidates: count,
        },
        Atom::Union { branches } => Access::IndexUnion {
            branches: branches.len(),
            candidates: count,
        },
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
    let choice = choose_access_inner(coll, filter);
    let rec = coll.rec();
    let (variant, hit) = match &choice.access {
        Access::FullScan { .. } => ("pathdb.plan.full_scan", false),
        Access::Primary { .. } => ("pathdb.plan.primary", true),
        Access::IndexPoint { .. } => ("pathdb.plan.index_point", true),
        Access::IndexRange { .. } => ("pathdb.plan.index_range", true),
        Access::IndexIntersect { .. } => ("pathdb.plan.index_intersect", true),
        Access::IndexUnion { .. } => ("pathdb.plan.index_union", true),
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

fn choose_access_inner(coll: &Collection, filter: &Filter) -> AccessChoice {
    let n = coll.docs.len();
    let full_scan = AccessChoice {
        access: Access::FullScan { documents: n },
        seqs: None,
    };
    if matches!(filter, Filter::True) {
        return full_scan;
    }

    let atoms = merge_ranges(conjunct_atoms(filter));
    let costed: Vec<Costed> = atoms
        .iter()
        .filter_map(|a| cost_atom(coll, a).map(|count| Costed { atom: a, count }))
        .collect();
    let Some(best) = costed.iter().min_by_key(|c| c.count) else {
        return full_scan;
    };

    // Intersection: worthwhile when the combined set operations plus
    // the residual filter over the (estimated) intersection undercut
    // filtering the single best atom's candidates. The independence
    // estimate |A∩B| ≈ N·Π(|Aᵢ|/N) is crude but only steers a
    // heuristic; correctness never depends on it.
    let mut chosen: Vec<&Costed> = vec![best];
    if costed.len() > 1 && n > 0 {
        let mut parts: Vec<&Costed> = costed
            .iter()
            .filter(|c| c.atom.field().is_some()) // unions intersect poorly
            .collect();
        parts.sort_by_key(|c| c.count);
        if parts.len() > 1 && parts[0].count == best.count {
            let sum: usize = parts.iter().map(|c| c.count).sum();
            let est = parts
                .iter()
                .fold(n as f64, |acc, c| acc * c.count as f64 / n as f64)
                as usize;
            if sum + FILTER_COST * est < FILTER_COST * best.count {
                chosen = parts;
            }
        }
    }

    // An indexed path must beat the full scan it replaces.
    if best.count >= n {
        return full_scan;
    }

    if chosen.len() == 1 {
        let seqs = atom_seqs(coll, best.atom);
        AccessChoice {
            access: atom_access(best.atom, seqs.len()),
            seqs: Some(seqs),
        }
    } else {
        let mut seqs = atom_seqs(coll, chosen[0].atom);
        for part in &chosen[1..] {
            let other: HashSet<u64> = atom_seqs(coll, part.atom).into_iter().collect();
            seqs.retain(|s| other.contains(s));
        }
        AccessChoice {
            access: Access::IndexIntersect {
                fields: chosen
                    .iter()
                    .filter_map(|c| c.atom.field().map(str::to_string))
                    .collect(),
                candidates: seqs.len(),
            },
            seqs: Some(seqs),
        }
    }
}

// ---- sort planning ------------------------------------------------------

/// Whether `field`'s ordered index can reproduce `sort_cmp` order for
/// every document: all documents indexed (no missing fields), exactly
/// one key per document (no multikey arrays), and every key in a
/// scalar class (composite keys are injective but not order-preserving).
fn index_sort_eligible(coll: &Collection, field: &str) -> Option<()> {
    let idx = coll.indexes.get(field)?;
    let scalar_only = idx
        .ordered
        .keys()
        .next_back()
        .is_none_or(|k| class_of(k) <= b'3');
    (idx.indexed_docs == coll.docs.len() && idx.multikey_docs == 0 && scalar_only).then_some(())
}

/// The full planning decision for `find_with`-shaped queries.
pub(crate) struct Decision {
    pub choice: AccessChoice,
    /// Serve the sort by streaming this ordered index.
    pub index_sort: Option<(String, Order)>,
    pub limit_pushdown: bool,
}

pub(crate) fn decide(coll: &Collection, filter: &Filter, opts: &FindOptions) -> Decision {
    let choice = choose_access(coll, filter);
    let n = coll.docs.len();
    let candidates = choice.access.candidates();

    let mut index_sort = None;
    if let [(field, order)] = opts.sort.as_slice() {
        if index_sort_eligible(coll, field).is_some() {
            // Materialize + sort touches each candidate once plus the
            // sort's log factor; a key-order scan touches documents
            // until `skip + limit` matches are found (expected
            // `(skip+limit)·N/candidates` under a uniform spread), or
            // all N without a limit.
            let log2 = usize::BITS - candidates.max(1).leading_zeros();
            let cost_mat = candidates + candidates * log2 as usize;
            let cost_idx = match opts.limit {
                Some(limit) => {
                    let want = opts.skip.saturating_add(limit);
                    n.min(want.saturating_mul(n) / candidates.max(1))
                }
                None => n,
            };
            if cost_idx < cost_mat {
                index_sort = Some((field.clone(), *order));
            }
        }
    }

    let limit_pushdown = opts.limit.is_some() && (opts.sort.is_empty() || index_sort.is_some());
    Decision {
        choice,
        index_sort,
        limit_pushdown,
    }
}

pub(crate) fn explain(coll: &Collection, filter: &Filter, opts: &FindOptions) -> QueryPlan {
    let d = decide(coll, filter, opts);
    QueryPlan {
        access: d.choice.access,
        index_sort: d.index_sort.map(|(f, _)| f),
        limit_pushdown: d.limit_pushdown,
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

/// Planner-served `find_with`: filtered, sorted, paginated, projected.
pub(crate) fn find_with(coll: &Collection, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
    if opts.limit == Some(0) {
        // `take(0)` semantics; the streaming paths below push a match
        // before testing the limit, so guard the degenerate case here.
        return Vec::new();
    }
    let decision = decide(coll, filter, opts);

    if let Some((field, order)) = &decision.index_sort {
        return index_sorted_scan(coll, filter, opts, field, *order);
    }

    if opts.sort.is_empty() {
        // Candidates arrive in insertion order: stream with early exit.
        let limit = opts.limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        let mut push = |doc: &Document, skipped: &mut usize| {
            if *skipped < opts.skip {
                *skipped += 1;
                return false;
            }
            out.push(opts.apply_projection(doc));
            out.len() >= limit
        };
        let mut skipped = 0usize;
        match decision.choice.seqs {
            Some(seqs) => {
                for s in seqs {
                    let Some(doc) = coll.docs.get(&s) else {
                        continue;
                    };
                    if filter.matches(doc) && push(doc, &mut skipped) {
                        break;
                    }
                }
            }
            None => {
                for doc in coll.docs.values() {
                    if filter.matches(doc) && push(doc, &mut skipped) {
                        break;
                    }
                }
            }
        }
        return out;
    }

    // Materialize + stable sort.
    let mut matches: Vec<&Document> = match decision.choice.seqs {
        Some(seqs) => seqs
            .into_iter()
            .filter_map(|s| coll.docs.get(&s))
            .filter(|d| filter.matches(d))
            .collect(),
        None => coll.docs.values().filter(|d| filter.matches(d)).collect(),
    };
    matches.sort_by(|a, b| opts.doc_cmp(a, b));
    matches
        .into_iter()
        .skip(opts.skip)
        .take(opts.limit.unwrap_or(usize::MAX))
        .map(|d| opts.apply_projection(d))
        .collect()
}

/// Stream documents in index key order (reversed for `Desc`), applying
/// the filter per document and stopping once `skip + limit` matches
/// have been produced. Within one key, seqs ascend — exactly the tie
/// order a stable materialize-and-sort would produce, because equal
/// sort keys and equal index keys coincide for scalar classes.
fn index_sorted_scan(
    coll: &Collection,
    filter: &Filter,
    opts: &FindOptions,
    field: &str,
    order: Order,
) -> Vec<Document> {
    let Some(idx) = coll.indexes.get(field) else {
        return Vec::new();
    };
    let limit = opts.limit.unwrap_or(usize::MAX);
    let mut out = Vec::new();
    let mut skipped = 0usize;
    let entries: Box<dyn Iterator<Item = &BTreeSet<u64>>> = match order {
        Order::Asc => Box::new(idx.ordered.values()),
        Order::Desc => Box::new(idx.ordered.values().rev()),
    };
    'scan: for seqs in entries {
        for seq in seqs {
            let Some(doc) = coll.docs.get(seq) else {
                continue;
            };
            if !filter.matches(doc) {
                continue;
            }
            if skipped < opts.skip {
                skipped += 1;
                continue;
            }
            out.push(opts.apply_projection(doc));
            if out.len() >= limit {
                break 'scan;
            }
        }
    }
    out
}
