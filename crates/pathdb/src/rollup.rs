//! Incremental time-bucketed rollups: mergeable per-`(group, bucket)`
//! aggregates maintained *inside* the database, so longitudinal
//! analytics read O(buckets) rollup rows instead of scanning O(rows)
//! raw documents.
//!
//! ## Protocol
//!
//! A [`RollupConfig`] names a source collection, a destination
//! collection, a numeric time field, a bucket width, the group-by
//! fields and the numeric fields to aggregate. `catch_up` keeps a
//! *durable* watermark of its own: the destination stores a meta
//! document carrying the source [`Collection::append_watermark`] it
//! has folded through, and each catch-up folds only the source
//! documents past it. It never reads a mutation version, so it is not
//! a consumer of [`Collection::delta_since`] (the in-memory protocol of
//! the snapshot memo and `upin-core`'s stats cache); what stands in
//! for `Reshaped` here is the two contracts below. The updated
//! aggregate rows **and** the advanced watermark are committed through
//! `crate::Collection::upsert_many` as one WAL group, so a crash
//! either lands the whole fold or none of it — recovery can never
//! double-count a row (the oracle in `tests/prop_rollup.rs` pins
//! this).
//!
//! Two contracts callers must keep:
//!
//! * **Fold before expiry.** Retention deletes drop raw rows by
//!   insertion sequence; `iter_from(watermark)` silently skips deleted
//!   sequences, so a row expired *before* it was ever folded is lost
//!   to the rollup. Run `catch_up` before applying retention (the
//!   longitudinal runner and `Database::expire_retention` order it
//!   that way).
//! * **Measurements are immutable.** Updates to already-folded source
//!   rows are not re-folded; the suite's measurement pipeline only
//!   ever appends.
//!
//! ## Exactness
//!
//! `count`/`sum`/`min`/`max` are folded left-to-right in insertion
//! order, seeded from the stored aggregate — exactly the fold a raw
//! full scan performs — so they are *byte-identical* to the raw-scan
//! reference ([`fold_reference`]), not merely approximately equal.
//! Quantiles come from a mergeable log-bucketed sketch (γ = 1.02,
//! ~2 % relative error): bucket counts are integers and addition is
//! exact, so the sketch state after incremental folds is also
//! byte-identical to folding the raw rows in one pass.

use crate::collection::Collection;
use crate::database::Database;
use crate::doc;
use crate::document::Document;
use crate::error::DbResult;
use crate::value::Value;
use std::collections::BTreeMap;

/// `_id` of the per-destination meta document holding the covered
/// source watermark. Excluded from every read path.
const META_ID: &str = "_rollup_meta";

/// Log-bucket growth factor: each sketch bin spans a γ-factor of the
/// value axis, bounding the relative quantile error at (γ-1)/(γ+1).
const GAMMA: f64 = 1.02;

/// Key offset separating the negative / zero / positive bin classes in
/// one flat ordered keyspace (|log-bin| stays far below this for every
/// finite f64).
const CLASS_OFFSET: i64 = 100_000;

// ---- the sketch -----------------------------------------------------------

/// A sparse log-bucketed histogram (DDSketch-style): value `v` lands in
/// an exponentially-sized bin, bins are counts in an ordered map, and
/// merging two sketches is bin-wise integer addition — associative,
/// commutative and exact, which is what makes incremental rollups
/// byte-identical to one-pass folds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Sketch {
    bins: BTreeMap<i64, u64>,
    count: u64,
}

impl Sketch {
    /// Bin key for one value: negatives below zero below positives,
    /// ascending keys ⇔ ascending values.
    fn key_of(v: f64) -> i64 {
        if v > 0.0 {
            CLASS_OFFSET + (v.ln() / GAMMA.ln()).ceil() as i64
        } else if v < 0.0 {
            -CLASS_OFFSET - ((-v).ln() / GAMMA.ln()).ceil() as i64
        } else {
            0
        }
    }

    /// Representative value of one bin (the γ-midpoint of its span).
    fn value_of(key: i64) -> f64 {
        if key > 0 {
            2.0 * GAMMA.powi((key - CLASS_OFFSET) as i32) / (1.0 + GAMMA)
        } else if key < 0 {
            -2.0 * GAMMA.powi((-key - CLASS_OFFSET) as i32) / (1.0 + GAMMA)
        } else {
            0.0
        }
    }

    pub(crate) fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        *self.bins.entry(Self::key_of(v)).or_insert(0) += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` (lower-rank, no interpolation):
    /// deterministic given the bin counts.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (&key, &n) in &self.bins {
            seen += n;
            if seen > rank {
                return Self::value_of(key);
            }
        }
        Self::value_of(*self.bins.keys().next_back().expect("count > 0"))
    }

    /// Flatten to the stored form: `[key, count, key, count, ...]` in
    /// ascending key order.
    fn to_value(&self) -> Value {
        let mut flat = Vec::with_capacity(self.bins.len() * 2);
        for (&k, &n) in &self.bins {
            flat.push(Value::Int(k));
            flat.push(Value::Int(n as i64));
        }
        Value::Array(flat)
    }

    /// Rebuild from the stored form; unparseable shapes yield an empty
    /// sketch (the fold then restarts it, which only widens quantile
    /// error, never corrupts counts — those are stored separately).
    fn from_value(v: Option<&Value>) -> Sketch {
        let mut s = Sketch::default();
        let Some(Value::Array(flat)) = v else {
            return s;
        };
        for pair in flat.chunks(2) {
            if let [Value::Int(k), Value::Int(n)] = pair {
                if *n > 0 {
                    s.bins.insert(*k, *n as u64);
                    s.count += *n as u64;
                }
            }
        }
        s
    }
}

// ---- configuration --------------------------------------------------------

/// One rollup: fold `source` rows, bucketed on `time_field` by
/// `bucket_ms` and grouped by `group_by`, into per-field aggregates in
/// `dest`.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupConfig {
    pub source: String,
    pub dest: String,
    /// Numeric field carrying the row's time in milliseconds; rows
    /// without it are skipped.
    pub time_field: String,
    /// Bucket width in milliseconds (> 0).
    pub bucket_ms: i64,
    /// Group-by fields (missing values group under `Null`).
    pub group_by: Vec<String>,
    /// Numeric fields to aggregate; non-numeric/missing values do not
    /// count toward that field's `n`.
    pub fields: Vec<String>,
}

impl RollupConfig {
    /// The suite's canonical rollup: `paths_stats` latency/loss/jitter
    /// per `(server_id, path_id)` per hour.
    pub fn hourly(source: &str, dest: &str) -> RollupConfig {
        RollupConfig {
            source: source.into(),
            dest: dest.into(),
            time_field: "timestamp_ms".into(),
            bucket_ms: 3_600_000,
            group_by: vec!["server_id".into(), "path_id".into()],
            fields: vec![
                "avg_latency_ms".into(),
                "jitter_ms".into(),
                "loss_pct".into(),
            ],
        }
    }
}

// ---- aggregates -----------------------------------------------------------

/// Exact aggregate state of one field within one `(group, bucket)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldAgg {
    pub n: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub sketch: Sketch,
}

impl Default for FieldAgg {
    fn default() -> FieldAgg {
        FieldAgg {
            n: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            sketch: Sketch::default(),
        }
    }
}

impl FieldAgg {
    fn fold(&mut self, v: f64) {
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.n += 1;
        self.sketch.insert(v);
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn p50(&self) -> f64 {
        self.sketch.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.sketch.quantile(0.99)
    }

    fn to_doc(&self) -> Document {
        doc! {
            "n" => self.n as i64,
            "sum" => self.sum,
            "min" => self.min,
            "max" => self.max,
            "sketch" => self.sketch.to_value(),
        }
    }

    fn from_doc(d: Option<&Value>) -> FieldAgg {
        let Some(Value::Doc(d)) = d else {
            return FieldAgg::default();
        };
        let num = |k: &str| d.get(k).and_then(Value::as_number).unwrap_or(0.0);
        FieldAgg {
            n: d.get("n").and_then(Value::as_int).unwrap_or(0).max(0) as u64,
            sum: num("sum"),
            min: num("min"),
            max: num("max"),
            sketch: Sketch::from_value(d.get("sketch")),
        }
    }
}

/// One rollup row: a `(group, bucket)` cell with its per-field
/// aggregates in [`RollupConfig::fields`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketAgg {
    pub group: Vec<Value>,
    pub bucket_start_ms: i64,
    pub fields: Vec<(String, FieldAgg)>,
}

/// Accumulator keyed by rollup `_id` while folding.
struct Accum {
    group: Vec<Value>,
    bucket: i64,
    fields: Vec<FieldAgg>,
}

/// The rollup row id: the JSON of the group values plus the bucket
/// index — deterministic, injective, and stable across runs.
fn rollup_id(group_json: &str, bucket: i64) -> String {
    format!("{group_json}@{bucket}")
}

fn group_values(doc: &Document, cfg: &RollupConfig) -> Vec<Value> {
    cfg.group_by
        .iter()
        .map(|f| doc.get_path(f).cloned().unwrap_or(Value::Null))
        .collect()
}

fn bucket_of(doc: &Document, cfg: &RollupConfig) -> Option<i64> {
    let t = doc.get_path(&cfg.time_field)?.as_number()?;
    Some((t / cfg.bucket_ms as f64).floor() as i64)
}

/// Fold one source row into the working set, seeding a fresh cell from
/// `seed` (the stored aggregate row) on first touch so the running
/// `sum`/`min`/`max` continue the exact left-to-right fold.
fn fold_row(
    work: &mut BTreeMap<String, Accum>,
    doc: &Document,
    cfg: &RollupConfig,
    seed: impl Fn(&str) -> Option<Document>,
) {
    let Some(bucket) = bucket_of(doc, cfg) else {
        return;
    };
    let group = group_values(doc, cfg);
    let mut group_json = String::new();
    Value::Array(group.clone()).write_json(&mut group_json);
    let id = rollup_id(&group_json, bucket);
    let cell = work.entry(id.clone()).or_insert_with(|| {
        let existing = seed(&id);
        let fields = cfg
            .fields
            .iter()
            .map(|f| {
                existing
                    .as_ref()
                    .map(|e| FieldAgg::from_doc(e.get_path(&format!("agg.{f}"))))
                    .unwrap_or_default()
            })
            .collect();
        Accum {
            group,
            bucket,
            fields,
        }
    });
    for (i, f) in cfg.fields.iter().enumerate() {
        if let Some(v) = doc.get_path(f).and_then(Value::as_number) {
            cell.fields[i].fold(v);
        }
    }
}

fn accum_to_doc(id: &str, cell: &Accum, cfg: &RollupConfig) -> Document {
    let mut aggs = Document::new();
    for (f, agg) in cfg.fields.iter().zip(&cell.fields) {
        aggs.set(f.clone(), Value::Doc(agg.to_doc()));
    }
    doc! {
        "_id" => id,
        "group" => Value::Array(cell.group.clone()),
        "bucket" => cell.bucket,
        "bucket_start_ms" => cell.bucket * cfg.bucket_ms,
        "agg" => Value::Doc(aggs),
    }
}

// ---- catch-up -------------------------------------------------------------

/// Fold every source row past the destination's covered watermark into
/// the aggregate rows, committing rows + watermark as one crash-atomic
/// group. Returns how many source rows were folded. Callers must
/// serialize concurrent catch-ups of the same rollup
/// ([`Database::rollup_catch_up`] does).
pub(crate) fn catch_up(db: &Database, cfg: &RollupConfig) -> DbResult<u64> {
    let src_h = db.collection(&cfg.source);
    let dst_h = db.collection(&cfg.dest);
    // Lock order: destination (write) before source (read). The fold
    // holds both only while reading the new rows.
    let mut dst = dst_h.write();
    let w1 = dst
        .find_by_id(META_ID)
        .and_then(|d| d.get("watermark"))
        .and_then(Value::as_int)
        .unwrap_or(0)
        .max(0) as u64;
    let mut work: BTreeMap<String, Accum> = BTreeMap::new();
    let (w2, folded) = {
        let src = src_h.read();
        let w2 = src.append_watermark();
        if w2 <= w1 {
            return Ok(0);
        }
        let mut folded = 0u64;
        for row in src.iter_from(w1) {
            fold_row(&mut work, row, cfg, |id| dst.find_by_id(id).cloned());
            folded += 1;
        }
        (w2, folded)
    };
    let mut post = Vec::with_capacity(work.len() + 1);
    for (id, cell) in &work {
        post.push(accum_to_doc(id, cell, cfg));
    }
    post.push(doc! { "_id" => META_ID, "watermark" => w2 as i64 });
    dst.upsert_many(post)?;
    let rec = db.recorder();
    rec.add("pathdb.rollup.catchups", 1);
    rec.add("pathdb.rollup.rows_folded", folded);
    Ok(folded)
}

// ---- reads ----------------------------------------------------------------

fn sort_key(group: &[Value], bucket: i64) -> (String, i64) {
    let mut j = String::new();
    Value::Array(group.to_vec()).write_json(&mut j);
    (j, bucket)
}

/// Read the rollup-served aggregates: O(buckets), no raw-row access.
/// Sorted by (group, bucket) for deterministic rendering.
pub fn read_rollup(db: &Database, cfg: &RollupConfig) -> Vec<BucketAgg> {
    let dst_h = db.collection(&cfg.dest);
    let dst = dst_h.read();
    let mut out: Vec<BucketAgg> = Vec::new();
    for d in dst.iter() {
        if d.id() == Some(META_ID) {
            continue;
        }
        let group = match d.get("group") {
            Some(Value::Array(g)) => g.clone(),
            _ => continue,
        };
        let Some(bucket) = d.get("bucket").and_then(Value::as_int) else {
            continue;
        };
        let fields = cfg
            .fields
            .iter()
            .map(|f| {
                (
                    f.clone(),
                    FieldAgg::from_doc(d.get_path(&format!("agg.{f}"))),
                )
            })
            .collect();
        out.push(BucketAgg {
            group,
            bucket_start_ms: bucket * cfg.bucket_ms,
            fields,
        });
    }
    out.sort_by_cached_key(|a| sort_key(&a.group, a.bucket_start_ms));
    out
}

/// The raw-scan reference: fold `rows` in one pass with the exact same
/// fold the incremental path uses. The proptest oracle feeds this its
/// shadow copy of *every row ever inserted* (rollups preserve history
/// past the raw-row retention window) and compares rendered bytes.
pub fn fold_reference<'a>(
    rows: impl Iterator<Item = &'a Document>,
    cfg: &RollupConfig,
) -> Vec<BucketAgg> {
    let mut work: BTreeMap<String, Accum> = BTreeMap::new();
    for row in rows {
        fold_row(&mut work, row, cfg, |_| None);
    }
    let mut out: Vec<BucketAgg> = work
        .into_values()
        .map(|cell| BucketAgg {
            group: cell.group.clone(),
            bucket_start_ms: cell.bucket * cfg.bucket_ms,
            fields: cfg.fields.iter().cloned().zip(cell.fields).collect(),
        })
        .collect();
    out.sort_by_cached_key(|a| sort_key(&a.group, a.bucket_start_ms));
    out
}

/// Full-scan counterpart of [`read_rollup`] over the *live* source
/// rows — what analytics would cost without the rollup layer (the
/// benchmark's baseline). Only equal to the rollup view while no raw
/// row has been expired.
pub fn scan_reference(db: &Database, cfg: &RollupConfig) -> Vec<BucketAgg> {
    let src_h = db.collection(&cfg.source);
    let src = src_h.read();
    fold_reference(src.iter(), cfg)
}

/// Deterministic text rendering of aggregates — the oracle's byte
/// surface. Floats print with Rust's shortest-round-trip formatting,
/// so two `Vec<BucketAgg>` render identically iff every stored bit is
/// identical.
pub fn render(aggs: &[BucketAgg]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for a in aggs {
        let mut gj = String::new();
        Value::Array(a.group.clone()).write_json(&mut gj);
        let _ = write!(out, "{gj}@{}", a.bucket_start_ms);
        for (name, agg) in &a.fields {
            let _ = write!(
                out,
                " {name}[n={} sum={:?} min={:?} max={:?} mean={:?} p50={:?} p99={:?}]",
                agg.n,
                agg.sum,
                agg.min,
                agg.max,
                agg.mean(),
                agg.p50(),
                agg.p99(),
            );
        }
        out.push('\n');
    }
    out
}

/// Prepare a destination collection: index the bucket field so churn
/// analytics can range-scan time windows through the planner.
pub(crate) fn prepare_dest(dest: &mut Collection) {
    dest.create_index("bucket_start_ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(server: i64, path: &str, ts: i64, lat: f64, loss: f64) -> Document {
        doc! {
            "server_id" => server,
            "path_id" => path,
            "timestamp_ms" => ts,
            "avg_latency_ms" => lat,
            "loss_pct" => loss,
        }
    }

    fn cfg() -> RollupConfig {
        RollupConfig {
            source: "paths_stats".into(),
            dest: "rollup_paths_stats".into(),
            time_field: "timestamp_ms".into(),
            bucket_ms: 1000,
            group_by: vec!["server_id".into(), "path_id".into()],
            fields: vec!["avg_latency_ms".into(), "loss_pct".into()],
        }
    }

    #[test]
    fn sketch_quantiles_are_within_gamma_error() {
        let mut s = Sketch::default();
        for i in 1..=1000 {
            s.insert(i as f64);
        }
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 = {p99}");
        // Merging equals one-pass folding, bit for bit.
        let mut a = Sketch::default();
        let mut b = Sketch::default();
        for i in 1..=1000 {
            if i % 2 == 0 {
                a.insert(i as f64);
            } else {
                b.insert(i as f64);
            }
        }
        let merged = {
            let mut m = Sketch::from_value(Some(&a.to_value()));
            for (k, n) in &b.bins {
                *m.bins.entry(*k).or_insert(0) += n;
                m.count += n;
            }
            m
        };
        assert_eq!(merged, s);
    }

    #[test]
    fn sketch_handles_zero_and_negatives() {
        let mut s = Sketch::default();
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 5);
        assert!(s.quantile(0.0) < -9.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.quantile(1.0) > 9.0);
        let rt = Sketch::from_value(Some(&s.to_value()));
        assert_eq!(rt, s);
    }

    #[test]
    fn incremental_catch_up_matches_one_pass_reference() {
        let db = Database::new();
        let cfg = cfg();
        let mut shadow: Vec<Document> = Vec::new();
        let batches: Vec<Vec<Document>> = vec![
            vec![
                stat(1, "1_0", 100, 20.0, 0.0),
                stat(1, "1_1", 150, 30.5, 1.0),
            ],
            vec![stat(1, "1_0", 900, 22.0, 0.5)],
            vec![
                stat(2, "2_0", 1100, 90.0, 0.0),
                stat(1, "1_0", 1500, 19.0, 0.0),
                stat(1, "1_0", 1700, 21.0, 2.0),
            ],
        ];
        for batch in batches {
            shadow.extend(batch.iter().cloned());
            db.collection(&cfg.source)
                .write()
                .insert_many(batch)
                .unwrap();
            catch_up(&db, &cfg).unwrap();
            let served = render(&read_rollup(&db, &cfg));
            let reference = render(&fold_reference(shadow.iter(), &cfg));
            assert_eq!(served, reference);
        }
        // Idempotent: nothing new to fold.
        assert_eq!(catch_up(&db, &cfg).unwrap(), 0);
    }

    #[test]
    fn rollup_survives_source_expiry() {
        let db = Database::new();
        let cfg = cfg();
        let rows: Vec<Document> = (0..50)
            .map(|i| stat(1, "1_0", i * 100, 10.0 + i as f64, 0.0))
            .collect();
        db.collection(&cfg.source)
            .write()
            .insert_many(rows.clone())
            .unwrap();
        catch_up(&db, &cfg).unwrap();
        let before = render(&read_rollup(&db, &cfg));
        // Expire the first half of the raw rows; the rollup keeps them.
        let removed = db
            .collection(&cfg.source)
            .write()
            .delete_many(&crate::Filter::lt("timestamp_ms", 2500i64));
        assert!(removed > 0);
        catch_up(&db, &cfg).unwrap();
        assert_eq!(render(&read_rollup(&db, &cfg)), before);
        assert_eq!(before, render(&fold_reference(rows.iter(), &cfg)));
    }

    #[test]
    fn rows_without_time_or_field_are_skipped_consistently() {
        let db = Database::new();
        let cfg = cfg();
        let rows = vec![
            doc! { "server_id" => 1i64, "path_id" => "1_0", "avg_latency_ms" => 5.0 },
            doc! { "server_id" => 1i64, "path_id" => "1_0", "timestamp_ms" => 10i64 },
            stat(1, "1_0", 20, 7.0, 0.0),
        ];
        db.collection(&cfg.source)
            .write()
            .insert_many(rows.clone())
            .unwrap();
        catch_up(&db, &cfg).unwrap();
        assert_eq!(
            render(&read_rollup(&db, &cfg)),
            render(&fold_reference(rows.iter(), &cfg))
        );
        let aggs = read_rollup(&db, &cfg);
        assert_eq!(aggs.len(), 1);
        // The timeless row never folded; the fieldless row lands in the
        // bucket but contributes no avg_latency_ms value, so the field
        // aggregate saw exactly one value (mean stays sum/n-correct).
        assert_eq!(aggs[0].fields[0].1.n, 1);
    }
}
