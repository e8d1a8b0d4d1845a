//! The path selection engine: user-driven path control.
//!
//! This is the layer the paper builds its database *for*: "we then query
//! [the database] to select the best path to give to a user to reach a
//! destination, following their request on performance or devices to
//! exclude for geographical or sovereignty reasons." A [`UserRequest`]
//! carries a performance objective plus exclusion constraints; the
//! engine aggregates the stored measurements per path, filters, ranks
//! and returns recommendations with their supporting statistics.

use crate::analysis::Whisker;
use crate::error::{SelectionFailure, SuiteError, SuiteResult};
use crate::multi::{criterion_value, pareto_front, weighted_rank, Weights};
use crate::schema::{self, PathId, PathMeasurement};
use crate::strategy::StrategyContext;
use pathdb::{Collection, Database, Filter, RowRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use upin_telemetry::Recorder;

/// What the user optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Objective {
    /// Lowest mean RTT — video conferencing, gaming.
    #[default]
    MinLatency,
    /// Most consistent RTT (lowest jitter) — streaming/VoIP; the paper
    /// notes "latency consistency is more important than low latency
    /// values" for these.
    MinJitter,
    /// Highest downstream bandwidth.
    MaxBandwidthDown,
    /// Highest upstream bandwidth.
    MaxBandwidthUp,
    /// Lowest packet loss.
    MinLoss,
}

/// Exclusion constraints: geography, sovereignty and operators.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Paths must not traverse these ISDs.
    #[serde(default)]
    pub exclude_isds: Vec<u16>,
    /// Paths must not traverse these ASes (ISD-AS strings).
    #[serde(default)]
    pub exclude_ases: Vec<String>,
    /// Paths must not traverse devices in these countries.
    #[serde(default)]
    pub exclude_countries: Vec<String>,
    /// Paths must not traverse devices run by these operators.
    #[serde(default)]
    pub exclude_operators: Vec<String>,
    /// Upper bound on hop count.
    #[serde(default)]
    pub max_hops: Option<usize>,
    /// Discard paths whose mean loss exceeds this percentage.
    #[serde(default)]
    pub max_loss_pct: Option<f64>,
    /// Require a minimum number of samples before trusting a path.
    #[serde(default)]
    pub min_samples: usize,
    /// Only consider paths whose stored status is `alive` (set after
    /// link failures: re-collection refreshes the status column).
    #[serde(default)]
    pub require_alive: bool,
}

impl Constraints {
    /// Translate the exclusions into a database filter over the `paths`
    /// collection (the metadata side; statistics gates apply later).
    pub(crate) fn to_filter(&self, server_id: u32) -> Filter {
        let mut f = Filter::eq("server_id", server_id as i64);
        if !self.exclude_isds.is_empty() {
            f = f.and(Filter::not_in(
                "isds",
                self.exclude_isds.iter().map(|i| *i as i64).collect(),
            ));
        }
        if !self.exclude_ases.is_empty() {
            f = f.and(Filter::not_in("ases", self.exclude_ases.clone()));
        }
        if !self.exclude_countries.is_empty() {
            f = f.and(Filter::not_in("countries", self.exclude_countries.clone()));
        }
        if !self.exclude_operators.is_empty() {
            f = f.and(Filter::not_in("operators", self.exclude_operators.clone()));
        }
        if let Some(h) = self.max_hops {
            f = f.and(Filter::lte("hops", h as i64));
        }
        if self.require_alive {
            f = f.and(Filter::eq("status", "alive"));
        }
        f
    }

    /// True when [`Constraints::to_filter`] would be the bare
    /// `server_id` equality — no metadata exclusion applies. The
    /// statistics gates (`min_samples`, `max_loss_pct`) are deliberately
    /// ignored: they act after aggregation, never on the candidate scan.
    fn is_metadata_free(&self) -> bool {
        self.exclude_isds.is_empty()
            && self.exclude_ases.is_empty()
            && self.exclude_countries.is_empty()
            && self.exclude_operators.is_empty()
            && self.max_hops.is_none()
            && !self.require_alive
    }

    /// The statistics gates: enough samples (at least one, whatever
    /// `min_samples` says) and, under `max_loss_pct`, a known loss within
    /// it. Unknown loss cannot be shown to satisfy the gate: a path
    /// without a usable loss figure is filtered, not trusted.
    pub(crate) fn admits(&self, a: &PathAggregate) -> bool {
        a.samples >= self.min_samples.max(1)
            && self
                .max_loss_pct
                .is_none_or(|max| a.mean_loss_pct.is_some_and(|l| l <= max))
    }
}

/// A user's path request for one destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserRequest {
    pub server_id: u32,
    #[serde(default)]
    pub objective: Objective,
    #[serde(default)]
    pub constraints: Constraints,
}

/// Aggregated statistics of one candidate path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathAggregate {
    pub path_id: PathId,
    pub sequence: String,
    pub hops: usize,
    pub samples: usize,
    #[serde(default)]
    pub latency: Option<Whisker>,
    /// Mean of per-train jitter (RTT mdev).
    #[serde(default)]
    pub jitter_ms: Option<f64>,
    /// Mean packet loss over the finite samples; `None` when the path
    /// has no usable loss measurement at all — unknown loss is reported
    /// as unknown, never fabricated as 100%.
    #[serde(default)]
    pub mean_loss_pct: Option<f64>,
    #[serde(default)]
    pub bw_up_mtu: Option<Whisker>,
    #[serde(default)]
    pub bw_down_mtu: Option<Whisker>,
}

/// A [`PathAggregate`] as the [`crate::statcache`] files it: one
/// allocation shared by reference between every candidate list and
/// answer of one statcache version, with its JSON encoded once, the
/// first time an answer carries it. A clone is a refcount bump, and it
/// reads as the aggregate it holds (`Deref`); it compares, prints,
/// encodes and decodes exactly like that aggregate.
#[derive(Clone)]
pub struct SharedAggregate(Arc<Filed>);

struct Filed {
    aggregate: PathAggregate,
    /// What `aggregate.write_json` writes, once asked for.
    json: OnceLock<Box<[u8]>>,
}

impl SharedAggregate {
    /// The aggregate's JSON, encoded by the first caller and shared with
    /// every later one.
    pub(crate) fn json(&self) -> &[u8] {
        self.0.json.get_or_init(|| {
            let mut bytes = Vec::new();
            (**self).write_json(&mut bytes);
            bytes.into_boxed_slice()
        })
    }
}

impl From<PathAggregate> for SharedAggregate {
    fn from(aggregate: PathAggregate) -> SharedAggregate {
        SharedAggregate(Arc::new(Filed {
            aggregate,
            json: OnceLock::new(),
        }))
    }
}

impl std::ops::Deref for SharedAggregate {
    type Target = PathAggregate;
    fn deref(&self) -> &PathAggregate {
        &self.0.aggregate
    }
}

impl std::borrow::Borrow<PathAggregate> for SharedAggregate {
    fn borrow(&self) -> &PathAggregate {
        self
    }
}

impl PartialEq for SharedAggregate {
    fn eq(&self, other: &SharedAggregate) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for SharedAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Serialize for SharedAggregate {
    fn to_jval(&self) -> serde::json::Value {
        (**self).to_jval()
    }
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.json());
    }
}

impl Deserialize for SharedAggregate {
    fn from_jval(v: &serde::json::Value) -> Result<SharedAggregate, String> {
        PathAggregate::from_jval(v).map(SharedAggregate::from)
    }
    fn read_json(r: &mut serde::json::Reader<'_>) -> Option<SharedAggregate> {
        PathAggregate::read_json(r).map(SharedAggregate::from)
    }
}

/// One entry of a ranking or of a Pareto menu.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    pub rank: usize,
    /// The ordering's scalar for this path, lower is better (bandwidth
    /// objectives store the negated value so ordering is uniform);
    /// `None` for Pareto entries, which have no total order.
    #[serde(default)]
    pub score: Option<f64>,
    /// The statcache's own aggregate, by reference: its JSON is encoded
    /// once per statcache version, not once per answer.
    pub aggregate: SharedAggregate,
}

/// Fold one path's measurements into its aggregate. Shared between the
/// direct query path and the [`crate::statcache`] memoization layer.
///
/// Non-finite samples (NaN, ±inf — e.g. a corrupted stats row) are
/// excluded per statistic, so one bad value cannot drag a whole mean to
/// NaN and sink (or, for negated bandwidth objectives, crown) the path.
/// Every excluded sample is counted in the `select.samples_dropped`
/// telemetry counter.
pub(crate) fn build_aggregate(
    rec: &dyn Recorder,
    path_id: PathId,
    sequence: String,
    hops: usize,
    ms: &[PathMeasurement],
) -> PathAggregate {
    let mut dropped = 0u64;
    let mut finite = |field: fn(&PathMeasurement) -> Option<f64>| -> Vec<f64> {
        let mut out = Vec::new();
        for v in ms.iter().filter_map(field) {
            if v.is_finite() {
                out.push(v);
            } else {
                dropped += 1;
            }
        }
        out
    };
    let lat = finite(|m| m.avg_latency_ms);
    let jit = finite(|m| m.jitter_ms);
    let up = finite(|m| m.bw_up_mtu);
    let down = finite(|m| m.bw_down_mtu);
    let loss = finite(|m| Some(m.loss_pct));
    if dropped > 0 {
        rec.add("select.samples_dropped", dropped);
    }
    let mean = |v: &[f64]| -> Option<f64> {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    PathAggregate {
        path_id,
        sequence,
        hops,
        samples: ms.len(),
        latency: Whisker::from_samples(&lat),
        jitter_ms: mean(&jit),
        mean_loss_pct: mean(&loss),
        bw_up_mtu: Whisker::from_samples(&up),
        bw_down_mtu: Whisker::from_samples(&down),
    }
}

/// Aggregate stored measurements for every path of a destination that
/// passes the metadata constraints.
///
/// The per-path aggregates come from `statcache::aggregated_paths`,
/// so repeated queries against an unchanged database only pay for the
/// constraint lookup plus a refcount bump per matching aggregate.
pub fn aggregate_paths(
    db: &Database,
    server_id: u32,
    constraints: &Constraints,
) -> SuiteResult<Vec<SharedAggregate>> {
    aggregate_paths_at(db, &crate::statcache::pin_pair(db), server_id, constraints)
}

/// [`aggregate_paths`] of an explicit [`crate::statcache::pin_pair`].
/// One pinned snapshot pair serves both the candidate scan and the
/// aggregate fetch (and whatever else the caller reads from it): the
/// reads can never straddle a concurrent campaign batch, and the query
/// runs without holding any lock.
pub(crate) fn aggregate_paths_at(
    db: &Database,
    (paths_snap, stats_snap): &(Arc<Collection>, Arc<Collection>),
    server_id: u32,
    constraints: &Constraints,
) -> SuiteResult<Vec<SharedAggregate>> {
    let rec = db.recorder();
    rec.add("select.queries", 1);
    let aggs = crate::statcache::aggregated_paths_at(db, paths_snap, stats_snap, server_id)?;
    if constraints.is_metadata_free() {
        // The cached aggregate map IS the unconstrained candidate set
        // (both are built from the same pinned snapshot pair), so the
        // hot serve path skips the planner scan entirely. `PathId`
        // orders by (server, index) — the map iterates in the same
        // path-index order the scan would produce for one destination.
        // Each candidate is the cached aggregate itself, by reference.
        rec.add("select.candidates", aggs.len() as u64);
        return Ok(aggs.values().cloned().collect());
    }
    // Borrowed candidate scan: the snapshot is pinned for the whole
    // function, so the planner's `refs` spelling avoids cloning every
    // matching path document just to read three fields out of it.
    let candidates: Vec<RowRef<'_>> = paths_snap.query(constraints.to_filter(server_id)).refs();
    rec.add("select.candidates", candidates.len() as u64);
    let mut out = Vec::with_capacity(candidates.len());
    for doc in candidates {
        let (path_id, sequence, hops) = schema::parse_path_doc(doc)?;
        out.push(match aggs.get(&path_id) {
            Some(a) => a.clone(),
            // A `paths` document the aggregate map does not list (it is
            // built from the same pin, so this is defensive): no
            // statistics yet — loss stays honestly unknown (`None`),
            // not a fabricated 100%.
            None => build_aggregate(&*rec, path_id, sequence, hops, &[]).into(),
        });
    }
    Ok(out)
}

/// How [`select`] orders the candidates that pass the metadata
/// constraints. `strategy::registry` rows carry the first three; a
/// recommend request's `weights` or `pareto` picks one of the last two.
#[derive(Clone, Copy)]
pub(crate) enum Order {
    /// The paper's engine: the statistics gates ([`Constraints::admits`]),
    /// then the request's objective.
    Gated,
    /// One scalar per path, lower first, no statistics gates.
    Score(fn(&PathAggregate) -> Option<f64>),
    /// A uniform shuffle seeded by the context's seed and the
    /// destination; the score is the draw position.
    Shuffle,
    /// Weighted scalarization over several objectives.
    Weighted(Weights),
    /// The Pareto front over latency, loss and downstream bandwidth:
    /// unscored, never truncated, and an empty front is an answer.
    Pareto,
}

/// The objectives a Pareto menu trades off.
const PARETO_CRITERIA: [Objective; 3] = [
    Objective::MinLatency,
    Objective::MinLoss,
    Objective::MaxBandwidthDown,
];

/// The one ranking: reject `k = 0` as an invalid request, aggregate the
/// candidates that pass the metadata constraints, order them, number
/// the top `k`. Scored orders sort `(score, path_id)` into a total
/// order. An empty ranking is classified into a [`SelectionFailure`],
/// so "nothing matched", "everything gated" and "nothing scorable" stay
/// distinguishable.
pub(crate) fn select(
    ctx: &StrategyContext<'_>,
    request: &UserRequest,
    k: usize,
    order: Order,
) -> SuiteResult<Vec<Recommendation>> {
    if k == 0 {
        return Err(SuiteError::InvalidRequest(
            "k must be >= 1 (an empty ranking answers no request)".into(),
        ));
    }
    let server_id = request.server_id;
    let mut candidates = aggregate_paths(ctx.db, server_id, &request.constraints)?;
    let matched = candidates.len();
    let ranked: Vec<(f64, &SharedAggregate)> = match order {
        Order::Gated => {
            candidates.retain(|a| request.constraints.admits(a));
            by_score(&candidates, |a| criterion_value(a, request.objective))
        }
        Order::Score(score) => by_score(&candidates, score),
        Order::Shuffle => {
            // Canonical order first so the shuffle depends only on the
            // seed and the candidate set, not on storage order.
            candidates.sort_by_key(|a| a.path_id);
            let mut rng = StdRng::seed_from_u64(
                ctx.seed ^ (server_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            // Fisher–Yates.
            for i in (1..candidates.len()).rev() {
                candidates.swap(i, rng.gen_range(0..=i));
            }
            candidates
                .iter()
                .enumerate()
                .map(|(i, a)| (i as f64, a))
                .collect()
        }
        Order::Weighted(weights) => weighted_rank(&candidates, &weights),
        Order::Pareto => {
            let front = pareto_front(&candidates, &PARETO_CRITERIA);
            return Ok(numbered(front.into_iter().map(|a| (None, a)), usize::MAX));
        }
    };
    if ranked.is_empty() {
        let gated = candidates.len();
        return Err(SuiteError::Selection(if matched == 0 {
            SelectionFailure::NoMatch { server_id }
        } else if gated == 0 {
            SelectionFailure::AllGated { server_id, matched }
        } else {
            SelectionFailure::AllUnscorable {
                server_id,
                matched,
                gated,
            }
        }));
    }
    Ok(numbered(ranked.into_iter().map(|(s, a)| (Some(s), a)), k))
}

/// The candidates `score` rates, best first; ties break on `path_id`.
fn by_score(
    candidates: &[SharedAggregate],
    score: impl Fn(&PathAggregate) -> Option<f64>,
) -> Vec<(f64, &SharedAggregate)> {
    let mut scored: Vec<(f64, &SharedAggregate)> = candidates
        .iter()
        .filter_map(|a| score(a).map(|s| (s, a)))
        .collect();
    // total_cmp keeps the sort total even for a non-finite score (the
    // aggregates exclude non-finite samples, so in practice scores are
    // finite; this is belt and braces, not NaN handling).
    scored.sort_by(|x, y| {
        x.0.total_cmp(&y.0)
            .then_with(|| x.1.path_id.cmp(&y.1.path_id))
    });
    scored
}

/// The first `k` entries, ranked from 1.
fn numbered<'a>(
    ranked: impl Iterator<Item = (Option<f64>, &'a SharedAggregate)>,
    k: usize,
) -> Vec<Recommendation> {
    ranked
        .take(k)
        .enumerate()
        .map(|(i, (score, aggregate))| Recommendation {
            rank: i + 1,
            score,
            aggregate: aggregate.clone(),
        })
        .collect()
}

/// Answer a user request: the top-`k` paths under the objective, after
/// applying constraints and statistics gates.
///
/// This is the paper's constraint-filtered objective ranking, the
/// `paper` row of [`crate::strategy::registry`]; `strategy`'s
/// `paper_oracle` tests pin it against a naive reimplementation.
pub fn recommend(
    db: &Database,
    request: &UserRequest,
    k: usize,
) -> SuiteResult<Vec<Recommendation>> {
    select(&StrategyContext { db, seed: 0 }, request, k, Order::Gated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use crate::config::SuiteConfig;
    use crate::measure::run_tests;
    use crate::schema::PATHS;
    use pathdb::{Document, Value};
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::scionlab::{paper_destinations, AWS_OHIO, AWS_SINGAPORE};

    /// Check a stored path document against constraints directly: the
    /// reference the DB filter translation is cross-validated against.
    pub(super) fn doc_violates(doc: &Document, c: &Constraints) -> bool {
        let has = |field: &str, wanted: &[String]| -> bool {
            match doc.get(field) {
                Some(Value::Array(arr)) => arr
                    .iter()
                    .filter_map(Value::as_str)
                    .any(|v| wanted.iter().any(|w| w == v)),
                _ => false,
            }
        };
        let isd_hit = match doc.get("isds") {
            Some(Value::Array(arr)) => arr
                .iter()
                .filter_map(Value::as_int)
                .any(|v| c.exclude_isds.contains(&(v as u16))),
            _ => false,
        };
        let hops_hit = match (c.max_hops, doc.get("hops").and_then(Value::as_int)) {
            (Some(max), Some(h)) => h as usize > max,
            _ => false,
        };
        isd_hit
            || has("ases", &c.exclude_ases)
            || has("countries", &c.exclude_countries)
            || has("operators", &c.exclude_operators)
            || hops_hit
    }

    /// One shared campaign against the Ireland destination.
    fn campaign() -> (Database, u32) {
        let net = ScionNetwork::scionlab(17);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        let ireland = crate::analysis::server_id_of(&db, paper_destinations()[1]).unwrap();
        let cfg = SuiteConfig {
            iterations: 3,
            ping_count: 10,
            run_bwtests: true,
            ..SuiteConfig::default()
        };
        // Collect all, but measure only Ireland's paths: shrink the
        // availableServers set to the one destination for speed.
        collect_paths(&db, &net, &cfg).unwrap();
        {
            let handle = db.collection(crate::schema::AVAILABLE_SERVERS);
            let mut coll = handle.write();
            coll.delete_many(&Filter::ne("_id", ireland.to_string()));
        }
        run_tests(&db, &net, &cfg).unwrap();
        (db, ireland)
    }

    #[test]
    fn selection_engine_end_to_end() {
        let (db, ireland) = campaign();

        // 1. Unconstrained min-latency: an EU-only path wins, and its
        //    latency beats any Singapore-detour path by a wide margin.
        let req = UserRequest {
            server_id: ireland,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        let recs = recommend(&db, &req, 5).unwrap();
        assert!(!recs.is_empty());
        let best = &recs[0];
        assert!(
            !best.aggregate.sequence.contains("16-ffaa:0:1004"),
            "best path avoids Singapore"
        );
        assert!(best.aggregate.latency.as_ref().unwrap().mean < 80.0);
        // Ranked ascending.
        for w in recs.windows(2) {
            assert!(w[0].score <= w[1].score);
        }

        // 2. Sovereignty: exclude the United States and Singapore —
        //    every recommended path avoids them.
        let req = UserRequest {
            server_id: ireland,
            objective: Objective::MinLatency,
            constraints: Constraints {
                exclude_countries: vec!["United States".into(), "Singapore".into()],
                ..Constraints::default()
            },
        };
        let recs = recommend(&db, &req, 10).unwrap();
        assert!(!recs.is_empty());
        for r in &recs {
            assert!(!r.aggregate.sequence.contains("16-ffaa:0:1003"));
            assert!(!r.aggregate.sequence.contains("16-ffaa:0:1004"));
            assert!(!r.aggregate.sequence.contains("16-ffaa:0:1007"));
            assert!(!r.aggregate.sequence.contains("18-ffaa:0:1201"));
        }

        // 3. The paper's §6.1 conclusion as a query: excluding the two
        //    jittery ASes shrinks the best jitter.
        let jitter_req = UserRequest {
            server_id: ireland,
            objective: Objective::MinJitter,
            constraints: Constraints {
                exclude_ases: vec![AWS_SINGAPORE.to_string(), AWS_OHIO.to_string()],
                ..Constraints::default()
            },
        };
        let jrecs = recommend(&db, &jitter_req, 1).unwrap();
        let jitter = jrecs[0].score.expect("a ranked entry carries its score");
        assert!(jitter < 3.0, "clean path jitter {jitter}");

        // 4. Bandwidth objective ranks by downstream mean, descending.
        let bw_req = UserRequest {
            server_id: ireland,
            objective: Objective::MaxBandwidthDown,
            constraints: Constraints::default(),
        };
        let brecs = recommend(&db, &bw_req, 3).unwrap();
        let means: Vec<f64> = brecs
            .iter()
            .map(|r| r.aggregate.bw_down_mtu.as_ref().unwrap().mean)
            .collect();
        for w in means.windows(2) {
            assert!(w[0] >= w[1]);
        }

        // 5. Unsatisfiable constraints report a NoMatch selection
        //    failure (nothing passed the metadata constraints).
        let impossible = UserRequest {
            server_id: ireland,
            objective: Objective::MinLatency,
            constraints: Constraints {
                exclude_countries: vec!["Switzerland".into()],
                ..Constraints::default()
            },
        };
        assert!(matches!(
            recommend(&db, &impossible, 1),
            Err(SuiteError::Selection(
                crate::error::SelectionFailure::NoMatch { .. }
            ))
        ));
    }

    #[test]
    fn hop_bound_and_sample_gate() {
        let (db, ireland) = campaign();
        let req = UserRequest {
            server_id: ireland,
            objective: Objective::MinLatency,
            constraints: Constraints {
                max_hops: Some(6),
                min_samples: 2,
                ..Constraints::default()
            },
        };
        let recs = recommend(&db, &req, 20).unwrap();
        for r in &recs {
            assert!(r.aggregate.hops <= 6);
            assert!(r.aggregate.samples >= 2);
        }
    }

    /// Insert `paths` metadata for `n` paths of destination 1.
    fn insert_paths(db: &Database, n: u32) {
        let handle = db.collection(PATHS);
        let mut coll = handle.write();
        for idx in 0..n as i64 {
            coll.insert_one(pathdb::doc! {
                "_id" => format!("1_{idx}"),
                "server_id" => 1i64,
                "path_index" => idx,
                "sequence" => format!("seq-{idx}"),
                "hops" => 5i64,
            })
            .unwrap();
        }
    }

    fn measurement(path_index: u32, ts: u64) -> PathMeasurement {
        use crate::schema::StatId;
        PathMeasurement {
            stat_id: StatId {
                path: PathId {
                    server_id: 1,
                    path_index,
                },
                timestamp_ms: ts,
            },
            isds: vec![17],
            hops: 5,
            avg_latency_ms: Some(25.0),
            jitter_ms: Some(0.5),
            loss_pct: 0.0,
            bw_up_mtu: Some(8.0),
            bw_down_mtu: Some(11.0),
            bw_up_64: None,
            bw_down_64: None,
            target_mbps: 12.0,
            error: None,
        }
    }

    fn insert_stat(db: &Database, m: PathMeasurement) {
        let handle = db.collection(crate::schema::PATHS_STATS);
        handle.write().insert_one(m.to_doc()).unwrap();
    }

    /// Regression (bugfix 1): one non-finite sample in any statistic
    /// must not poison the path's mean — it is dropped per statistic,
    /// the remaining samples still average, and the path keeps a finite
    /// score under every objective the remaining data supports.
    #[test]
    fn non_finite_samples_are_dropped_per_statistic() {
        for (objective, poison) in [
            (Objective::MinLatency, f64::NAN),
            (Objective::MinLatency, f64::INFINITY),
            (Objective::MinLatency, f64::NEG_INFINITY),
            (Objective::MinJitter, f64::NAN),
            (Objective::MinJitter, f64::INFINITY),
            (Objective::MinLoss, f64::NAN),
            (Objective::MinLoss, f64::NEG_INFINITY),
            (Objective::MaxBandwidthDown, f64::NAN),
            (Objective::MaxBandwidthDown, f64::INFINITY),
            (Objective::MaxBandwidthUp, f64::NAN),
        ] {
            let db = Database::new();
            insert_paths(&db, 2);
            // Path 1_0: one clean sample plus one poisoned sample in
            // the objective's statistic. Path 1_1: two clean but worse
            // samples, so 1_0 must still win on its clean data.
            let mut good = measurement(0, 1000);
            let mut poisoned = measurement(0, 2000);
            match objective {
                Objective::MinLatency => {
                    good.avg_latency_ms = Some(10.0);
                    poisoned.avg_latency_ms = Some(poison);
                }
                Objective::MinJitter => {
                    good.jitter_ms = Some(0.1);
                    poisoned.jitter_ms = Some(poison);
                }
                Objective::MinLoss => {
                    good.loss_pct = 0.0;
                    poisoned.loss_pct = poison;
                }
                Objective::MaxBandwidthDown => {
                    good.bw_down_mtu = Some(50.0);
                    poisoned.bw_down_mtu = Some(poison);
                }
                Objective::MaxBandwidthUp => {
                    good.bw_up_mtu = Some(50.0);
                    poisoned.bw_up_mtu = Some(poison);
                }
            }
            insert_stat(&db, good);
            insert_stat(&db, poisoned);
            for ts in [1000, 2000] {
                insert_stat(&db, measurement(1, ts));
            }
            let req = UserRequest {
                server_id: 1,
                objective,
                constraints: Constraints::default(),
            };
            // Pre-fix: the poisoned mean is NaN (ranks last) or ±inf
            // (ranks first for negated bandwidth objectives) regardless
            // of the clean sample. Post-fix the clean sample decides.
            let recs = recommend(&db, &req, 10).unwrap();
            assert_eq!(recs.len(), 2, "{objective:?}/{poison}");
            assert_eq!(
                recs[0].aggregate.path_id.path_index, 0,
                "clean data must decide under {objective:?} poisoned with {poison}"
            );
            assert!(
                recs.iter().all(|r| r.score.is_some_and(f64::is_finite)),
                "{objective:?}/{poison}: scores stay finite"
            );
        }
    }

    /// Regression (bugfix 1): dropped non-finite samples are counted in
    /// the `select.samples_dropped` telemetry counter.
    #[test]
    fn dropped_samples_are_counted() {
        use upin_telemetry::Telemetry;
        let mut db = Database::new();
        let telemetry = std::sync::Arc::new(Telemetry::new());
        db.set_recorder(Some(telemetry.clone()));
        insert_paths(&db, 1);
        let mut m = measurement(0, 1000);
        m.avg_latency_ms = Some(f64::NAN);
        m.jitter_ms = Some(f64::INFINITY);
        insert_stat(&db, m);
        insert_stat(&db, measurement(0, 2000));
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        recommend(&db, &req, 1).unwrap();
        let metrics = telemetry.metrics_json();
        assert!(
            metrics.contains("select.samples_dropped"),
            "dropped-sample counter must be exported: {metrics}"
        );
    }

    /// Regression (bugfix 2): a path with zero measurements reports
    /// unknown loss (`None`), not a fabricated 100%, and unknown loss
    /// never passes a `max_loss_pct` gate.
    #[test]
    fn zero_measurement_paths_report_unknown_loss() {
        let db = Database::new();
        insert_paths(&db, 1);
        let aggs = aggregate_paths(&db, 1, &Constraints::default()).unwrap();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].samples, 0);
        assert_eq!(
            aggs[0].mean_loss_pct, None,
            "unknown loss must not be invented"
        );

        // A path whose only loss samples are non-finite also stays
        // unknown, and a max_loss gate filters it rather than trusting
        // invented data (even a generous 100% gate).
        let mut m = measurement(0, 1000);
        m.loss_pct = f64::NAN;
        insert_stat(&db, m);
        let aggs = aggregate_paths(&db, 1, &Constraints::default()).unwrap();
        assert_eq!(aggs[0].mean_loss_pct, None);
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints {
                max_loss_pct: Some(100.0),
                ..Constraints::default()
            },
        };
        assert!(matches!(
            recommend(&db, &req, 1),
            Err(SuiteError::Selection(
                crate::error::SelectionFailure::AllGated { matched: 1, .. }
            ))
        ));
    }

    /// Regression (bugfix 3): the three empty-ranking causes map to
    /// distinguishable error variants with stage counts, and `k = 0` is
    /// an invalid request instead of a silent empty Vec.
    #[test]
    fn empty_rankings_are_classified() {
        use crate::error::SelectionFailure;
        let db = Database::new();
        insert_paths(&db, 2);
        insert_stat(&db, measurement(0, 1000));
        insert_stat(&db, measurement(1, 1000));

        // k = 0 is rejected up front.
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        assert!(matches!(
            recommend(&db, &req, 0),
            Err(SuiteError::InvalidRequest(_))
        ));

        // Nothing matches the metadata constraints at all.
        let req = UserRequest {
            server_id: 99,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        assert!(matches!(
            recommend(&db, &req, 1),
            Err(SuiteError::Selection(SelectionFailure::NoMatch {
                server_id: 99
            }))
        ));

        // Candidates match but every one fails the min_samples gate.
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints {
                min_samples: 5,
                ..Constraints::default()
            },
        };
        assert!(matches!(
            recommend(&db, &req, 1),
            Err(SuiteError::Selection(SelectionFailure::AllGated {
                server_id: 1,
                matched: 2
            }))
        ));

        // Candidates pass the gates but lack the objective's statistic
        // (no 64B bandwidth column is aggregated; use a db whose
        // measurements carry no bandwidth at all for MinJitter).
        let db = Database::new();
        insert_paths(&db, 2);
        for idx in 0..2 {
            let mut m = measurement(idx, 1000);
            m.jitter_ms = None;
            insert_stat(&db, m);
        }
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinJitter,
            constraints: Constraints::default(),
        };
        assert!(matches!(
            recommend(&db, &req, 1),
            Err(SuiteError::Selection(SelectionFailure::AllUnscorable {
                server_id: 1,
                matched: 2,
                gated: 2
            }))
        ));

        // Error text carries the counts for the CLI user.
        let err = recommend(&db, &req, 1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("2 path(s) match"), "{text}");
    }

    #[test]
    fn filter_translation_matches_direct_check() {
        let (db, ireland) = campaign();
        let c = Constraints {
            exclude_isds: vec![18],
            exclude_ases: vec![AWS_OHIO.to_string()],
            exclude_countries: vec!["Singapore".into()],
            max_hops: Some(7),
            ..Constraints::default()
        };
        let handle = db.collection(PATHS);
        let coll = handle.read();
        let all = coll.query(Filter::eq("server_id", ireland as i64)).run();
        let filtered = coll.query(c.to_filter(ireland)).run();
        for d in &all {
            let included = filtered.iter().any(|f| f.id() == d.id());
            assert_eq!(included, !doc_violates(d, &c), "doc {:?}", d.id());
        }
        assert!(filtered.len() < all.len(), "constraints prune something");
    }
}

#[cfg(test)]
pub(crate) mod props {
    //! Property-based tests of the UPIN core: id codecs, measurement
    //! round-trips, whisker invariants, Pareto and weighted ranking, and
    //! constraint-filter agreement; and the generators of randomized
    //! measurement databases the ranking oracles draw from.

    use super::tests::doc_violates;
    use super::{Constraints, Objective, PathAggregate};
    use crate::analysis::{quantile, Whisker};
    use crate::multi::{dominates, pareto_front, weighted_rank, Weights};
    use crate::schema::{PathId, PathMeasurement, StatId, PATHS, PATHS_STATS};
    use pathdb::{doc, Database, Document, Value};
    use proptest::prelude::*;

    // ---- randomized databases and requests ----------------------------------
    // (shared with `strategy::paper_oracle` and the api funnel property)

    /// A sample value that is usually clean but sometimes hostile.
    fn arb_sample() -> impl Strategy<Value = f64> {
        // Mostly clean values, occasionally hostile non-finite ones (the
        // vendored proptest has no weighted prop_oneof; an index draw over
        // a 10-slot table approximates 8:1:1).
        (0u8..10, 0.1f64..400.0).prop_map(|(pick, clean)| match pick {
            8 => f64::NAN,
            9 => {
                if clean > 200.0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            _ => clean,
        })
    }

    #[derive(Debug, Clone)]
    struct ArbMeasurement {
        latency: Option<f64>,
        jitter: Option<f64>,
        loss: f64,
        up: Option<f64>,
        down: Option<f64>,
    }

    fn arb_measurement() -> impl Strategy<Value = ArbMeasurement> {
        (
            (
                prop::option::of(arb_sample()),
                prop::option::of(arb_sample()),
            ),
            (
                arb_sample(),
                prop::option::of(arb_sample()),
                prop::option::of(arb_sample()),
            ),
        )
            .prop_map(|((latency, jitter), (loss, up, down))| ArbMeasurement {
                latency,
                jitter,
                loss,
                up,
                down,
            })
    }

    #[derive(Debug, Clone)]
    pub(crate) struct ArbPath {
        hops: usize,
        isds: Vec<u16>,
        measurements: Vec<ArbMeasurement>,
    }

    fn arb_path() -> impl Strategy<Value = ArbPath> {
        (
            2usize..9,
            prop::collection::vec(16u16..20, 1..4),
            prop::collection::vec(arb_measurement(), 0..4),
        )
            .prop_map(|(hops, isds, measurements)| ArbPath {
                hops,
                isds,
                measurements,
            })
    }

    pub(crate) fn arb_db() -> impl Strategy<Value = Vec<Vec<ArbPath>>> {
        // 1..=3 destinations with 0..6 paths each.
        prop::collection::vec(prop::collection::vec(arb_path(), 0..6), 1..4)
    }

    fn path_doc(server_id: u32, path_index: u32, p: &ArbPath) -> Document {
        doc! {
            "_id" => format!("{server_id}_{path_index}"),
            "server_id" => server_id as i64,
            "path_index" => path_index as i64,
            "sequence" => format!("seq-{server_id}-{path_index}"),
            "hops" => p.hops as i64,
            "isds" => p.isds.iter().map(|i| Value::Int(*i as i64)).collect::<Vec<_>>(),
            "status" => "alive",
        }
    }

    pub(crate) fn populate(db: &Database, dests: &[Vec<ArbPath>]) {
        for (di, paths) in dests.iter().enumerate() {
            let server_id = di as u32 + 1;
            for (pi, p) in paths.iter().enumerate() {
                {
                    let handle = db.collection(PATHS);
                    handle
                        .write()
                        .insert_one(path_doc(server_id, pi as u32, p))
                        .unwrap();
                }
                let handle = db.collection(PATHS_STATS);
                let mut coll = handle.write();
                for (mi, m) in p.measurements.iter().enumerate() {
                    let pm = PathMeasurement {
                        stat_id: StatId {
                            path: PathId {
                                server_id,
                                path_index: pi as u32,
                            },
                            timestamp_ms: 1000 + mi as u64,
                        },
                        isds: p.isds.clone(),
                        hops: p.hops,
                        avg_latency_ms: m.latency,
                        jitter_ms: m.jitter,
                        loss_pct: m.loss,
                        bw_up_mtu: m.up,
                        bw_down_mtu: m.down,
                        bw_up_64: None,
                        bw_down_64: None,
                        target_mbps: 12.0,
                        error: None,
                    };
                    coll.insert_one(pm.to_doc()).unwrap();
                }
            }
        }
    }

    fn arb_objective() -> impl Strategy<Value = Objective> {
        prop_oneof![
            Just(Objective::MinLatency),
            Just(Objective::MinJitter),
            Just(Objective::MinLoss),
            Just(Objective::MaxBandwidthDown),
            Just(Objective::MaxBandwidthUp),
        ]
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn arb_request(
    ) -> impl Strategy<Value = (u32, Objective, usize, Option<f64>, Option<usize>)> {
        (
            (1u32..5, arb_objective()), // destination sometimes nonexistent
            (
                0usize..4,
                prop::option::of(0.0f64..40.0),
                prop::option::of(2usize..8),
            ),
        )
            .prop_map(
                |((server_id, objective), (min_samples, max_loss, max_hops))| {
                    (server_id, objective, min_samples, max_loss, max_hops)
                },
            )
    }

    fn arb_aggregate(idx: u32) -> impl Strategy<Value = PathAggregate> {
        (5.0..400.0f64, 0.0..30.0f64, 1.0..100.0f64).prop_map(move |(lat, loss, bw)| {
            let w = |mean: f64| Whisker {
                n: 5,
                min: mean,
                q1: mean,
                median: mean,
                q3: mean,
                max: mean,
                mean,
                std: 0.0,
            };
            PathAggregate {
                path_id: PathId {
                    server_id: 1,
                    path_index: idx,
                },
                sequence: format!("seq-{idx}"),
                hops: 6,
                samples: 5,
                latency: Some(w(lat)),
                jitter_ms: Some(lat / 20.0),
                mean_loss_pct: Some(loss),
                bw_up_mtu: Some(w(bw / 3.0)),
                bw_down_mtu: Some(w(bw)),
            }
        })
    }

    fn arb_candidates() -> impl Strategy<Value = Vec<PathAggregate>> {
        prop::collection::vec(0u32..1000, 1..20).prop_flat_map(|idxs| {
            idxs.into_iter()
                .enumerate()
                .map(|(i, _)| arb_aggregate(i as u32))
                .collect::<Vec<_>>()
        })
    }

    fn arb_path_id() -> impl Strategy<Value = PathId> {
        (1u32..100, 0u32..1000).prop_map(|(server_id, path_index)| PathId {
            server_id,
            path_index,
        })
    }

    proptest! {
        #[test]
        fn path_id_roundtrip(id in arb_path_id()) {
            prop_assert_eq!(id.to_string().parse::<PathId>().unwrap(), id);
        }

        #[test]
        fn stat_id_roundtrip(path in arb_path_id(), ts in any::<u32>()) {
            let id = StatId { path, timestamp_ms: ts as u64 };
            prop_assert_eq!(id.to_string().parse::<StatId>().unwrap(), id);
        }

        #[test]
        fn measurement_doc_roundtrip(
            path in arb_path_id(),
            ts in any::<u32>(),
            hops in 2usize..10,
            lat in prop::option::of(1.0..500.0f64),
            loss in 0.0..100.0f64,
            bw in prop::option::of(0.0..200.0f64),
            target in prop::sample::select(vec![12.0, 150.0]),
            err in prop::option::of("[a-z ]{1,20}"),
            isds in prop::collection::vec(1u16..30, 1..5),
        ) {
            let mut sorted = isds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let m = PathMeasurement {
                stat_id: StatId { path, timestamp_ms: ts as u64 },
                isds: sorted,
                hops,
                avg_latency_ms: lat,
                jitter_ms: lat.map(|l| l / 10.0),
                loss_pct: loss,
                bw_up_64: bw,
                bw_down_64: bw.map(|b| b * 2.0),
                bw_up_mtu: bw,
                bw_down_mtu: bw,
                target_mbps: target,
                error: err,
            };
            let back = PathMeasurement::from_doc(&m.to_doc()).unwrap();
            prop_assert_eq!(back, m);
        }

        #[test]
        fn whisker_orders_its_five_numbers(samples in prop::collection::vec(-1e6..1e6f64, 1..200)) {
            let w = Whisker::from_samples(&samples).unwrap();
            prop_assert!(w.min <= w.q1);
            prop_assert!(w.q1 <= w.median);
            prop_assert!(w.median <= w.q3);
            prop_assert!(w.q3 <= w.max);
            prop_assert!(w.min <= w.mean && w.mean <= w.max);
            prop_assert!(w.std >= 0.0);
            prop_assert_eq!(w.n, samples.len());
        }

        #[test]
        fn quantile_is_monotone(samples in prop::collection::vec(-1e6..1e6f64, 1..100),
                                q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
            let mut v = samples;
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&v, lo) <= quantile(&v, hi));
        }

        /// Pareto-front soundness and completeness on random candidate sets:
        /// no front member dominates another; every non-member is dominated
        /// by some member.
        #[test]
        fn pareto_front_is_sound_and_complete(cands in arb_candidates()) {
            let criteria = [Objective::MinLatency, Objective::MinLoss, Objective::MaxBandwidthDown];
            let front = pareto_front(&cands, &criteria);
            prop_assert!(!front.is_empty());
            for a in &front {
                for b in &front {
                    prop_assert!(!dominates(a, b, &criteria) || a.path_id == b.path_id);
                }
            }
            for c in &cands {
                if !front.iter().any(|f| f.path_id == c.path_id) {
                    prop_assert!(
                        front.iter().any(|f| dominates(f, c, &criteria)),
                        "non-member {:?} must be dominated", c.path_id
                    );
                }
            }
        }

        /// Any weighted-scalarization winner lies on the Pareto front of the
        /// active criteria.
        #[test]
        fn weighted_winner_is_pareto_optimal(
            cands in arb_candidates(),
            wl in 0.1..10.0f64,
            wo in 0.1..10.0f64,
            wb in 0.1..10.0f64,
        ) {
            let weights = Weights {
                latency: wl,
                loss: wo,
                bw_down: wb,
                ..Weights::default()
            };
            let ranked = weighted_rank(&cands, &weights);
            prop_assert!(!ranked.is_empty());
            let winner = ranked[0].1.path_id;
            let front = pareto_front(&cands, &weights.active());
            prop_assert!(front.iter().any(|f| f.path_id == winner));
            // Scores are normalized and sorted.
            for w in ranked.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
            }
            prop_assert!(ranked.iter().all(|(s, _)| (0.0..=1.0 + 1e-12).contains(s)));
        }

        /// The Constraints → Filter translation agrees with the direct
        /// document check on randomly generated path documents.
        #[test]
        fn constraints_filter_agrees_with_direct_check(
            isds in prop::collection::vec(1u16..30, 1..4),
            countries in prop::collection::vec(prop::sample::select(vec!["CH", "DE", "US", "SG", "KR"]), 1..4),
            hops in 2i64..10,
            excl_isd in 1u16..30,
            excl_country in prop::sample::select(vec!["CH", "DE", "US", "SG", "KR"]),
            max_hops in prop::option::of(2usize..10),
        ) {
            let server_id = 3u32;
            let d = doc! {
                "_id" => "3_0",
                "server_id" => server_id as i64,
                "hops" => hops,
                "isds" => isds.iter().map(|i| *i as i64).collect::<Vec<i64>>(),
                "ases" => Vec::<String>::new(),
                "countries" => countries.iter().map(|c| c.to_string()).collect::<Vec<String>>(),
                "operators" => Vec::<String>::new(),
            };
            let c = Constraints {
                exclude_isds: vec![excl_isd],
                exclude_countries: vec![excl_country.to_string()],
                max_hops,
                ..Constraints::default()
            };
            let filter_says_keep = c.to_filter(server_id).matches(&d);
            prop_assert_eq!(filter_says_keep, !doc_violates(&d, &c));
        }
    }
}
