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
use crate::schema::{self, PathId, PathMeasurement};
use pathdb::{Collection, Database, Document, Filter, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
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
    pub fn to_filter(&self, server_id: u32) -> Filter {
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

/// One ranked recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    pub rank: usize,
    /// The objective's scalar for this path (lower is better; bandwidth
    /// objectives store the negated value so ordering is uniform).
    pub score: f64,
    pub aggregate: PathAggregate,
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
/// The per-path aggregates come from [`crate::statcache::aggregated_paths`],
/// so repeated queries against an unchanged database only pay for the
/// constraint scan plus clones of the matching aggregates.
pub fn aggregate_paths(
    db: &Database,
    server_id: u32,
    constraints: &Constraints,
) -> SuiteResult<Vec<PathAggregate>> {
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
) -> SuiteResult<Vec<PathAggregate>> {
    let rec = db.recorder();
    rec.add("select.queries", 1);
    let aggs = crate::statcache::aggregated_paths_at(db, paths_snap, stats_snap, server_id)?;
    if constraints.is_metadata_free() {
        // The cached aggregate map IS the unconstrained candidate set
        // (both are built from the same pinned snapshot pair), so the
        // hot serve path skips the planner scan entirely. `PathId`
        // orders by (server, index) — the map iterates in the same
        // path-index order the scan would produce for one destination.
        rec.add("select.candidates", aggs.len() as u64);
        return Ok(aggs.values().cloned().collect());
    }
    // Borrowed candidate scan: the snapshot is pinned for the whole
    // function, so the planner's `refs` spelling avoids cloning every
    // matching path document just to read three fields out of it.
    let candidates: Vec<&Document> = paths_snap.query(constraints.to_filter(server_id)).refs();
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
            None => build_aggregate(&*rec, path_id, sequence, hops, &[]),
        });
    }
    Ok(out)
}

/// The entry every strategy shares: reject `k = 0` as an invalid
/// request instead of silently returning an empty ranking, then
/// aggregate the candidates that pass the metadata constraints.
pub(crate) fn candidates_for(
    db: &Database,
    request: &UserRequest,
    k: usize,
) -> SuiteResult<Vec<PathAggregate>> {
    if k == 0 {
        return Err(SuiteError::InvalidRequest(
            "k must be >= 1 (an empty ranking answers no request)".into(),
        ));
    }
    aggregate_paths(db, request.server_id, &request.constraints)
}

/// Answer a user request: the top-`k` paths under the objective, after
/// applying constraints and statistics gates.
///
/// This is the paper's constraint-filtered objective ranking; the same
/// pipeline is registered as the `paper` [`crate::strategy`], pinned
/// byte-identical by `crates/core/tests/prop_strategy.rs`.
pub fn recommend(
    db: &Database,
    request: &UserRequest,
    k: usize,
) -> SuiteResult<Vec<Recommendation>> {
    let mut candidates = candidates_for(db, request, k)?;
    let matched = candidates.len();
    candidates.retain(|a| a.samples >= request.constraints.min_samples.max(1));
    if let Some(max_loss) = request.constraints.max_loss_pct {
        // Unknown loss cannot be shown to satisfy the gate: a path
        // without a usable loss figure is filtered, not trusted.
        candidates.retain(|a| a.mean_loss_pct.is_some_and(|l| l <= max_loss));
    }
    // Lower is always better (bandwidths are negated); shared with the
    // multi-criteria engine so single- and multi-objective selection
    // agree on what each objective means.
    rank_scored(request.server_id, matched, candidates, k, |a| {
        crate::multi::criterion_value(a, request.objective)
    })
}

/// The one ranking tail: score the `candidates` that survived the
/// caller's gates (of `matched` metadata matches), sort `(score,
/// path_id)` into a total order, keep the top `k`. Empty outcomes are
/// classified into [`SelectionFailure`] variants so "nothing matched",
/// "everything gated" and "nothing scorable" stay distinguishable.
pub(crate) fn rank_scored(
    server_id: u32,
    matched: usize,
    candidates: Vec<PathAggregate>,
    k: usize,
    score: impl Fn(&PathAggregate) -> Option<f64>,
) -> SuiteResult<Vec<Recommendation>> {
    let gated = candidates.len();
    let mut scored: Vec<(f64, PathAggregate)> = candidates
        .into_iter()
        .filter_map(|a| score(&a).map(|s| (s, a)))
        .collect();
    // total_cmp keeps the sort total even for a non-finite score (the
    // aggregates exclude non-finite samples, so in practice scores are
    // finite; this is belt and braces, not NaN handling).
    scored.sort_by(|x, y| {
        x.0.total_cmp(&y.0)
            .then_with(|| x.1.path_id.cmp(&y.1.path_id))
    });
    if scored.is_empty() {
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
    Ok(scored
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(i, (score, aggregate))| Recommendation {
            rank: i + 1,
            score,
            aggregate,
        })
        .collect())
}

/// Check a stored path document against constraints directly (used by
/// property tests to cross-validate the DB filter translation).
pub fn doc_violates(doc: &Document, c: &Constraints) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use crate::config::SuiteConfig;
    use crate::measure::run_tests;
    use crate::schema::PATHS;
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::scionlab::{paper_destinations, AWS_OHIO, AWS_SINGAPORE};

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
        assert!(jrecs[0].score < 3.0, "clean path jitter {}", jrecs[0].score);

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
                recs.iter().all(|r| r.score.is_finite()),
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
