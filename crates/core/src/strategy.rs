//! Pluggable path-selection strategies.
//!
//! The paper's selection engine is one fixed ranking; the axiomatic
//! literature (PAPERS.md: "An Axiomatic Analysis of Path Selection
//! Strategies for Multipath Transport in Path-Aware Networks") judges
//! *families* of strategies against each other. This module turns
//! selection into a [`SelectionStrategy`] trait with a [`registry`] of
//! baselines, so every workload — and the [`crate::axioms`] evaluation
//! harness — composes with every strategy:
//!
//! * `paper` — the constraint-filtered objective ranking of
//!   [`crate::select::recommend`], byte-identical to calling it
//!   directly (pinned by `crates/core/tests/prop_strategy.rs`).
//! * `shortest-path` — fewest hops, the classic BGP-ish default.
//! * `widest-path` — maximize the bottleneck bandwidth
//!   `min(up, down)`.
//! * `lowest-latency` / `lowest-jitter` / `lowest-loss` — single-statistic
//!   greedy baselines.
//! * `random` — seeded uniform shuffle; the control every strategy must
//!   beat.
//! * `scion-default` — first-returned order of the path server
//!   (`showpaths` rank, i.e. stored `path_index`), what a user gets with
//!   no path control at all.
//!
//! All strategies speak the same request language ([`UserRequest`]) and
//! return the same [`Recommendation`] list; the non-`paper` baselines
//! apply the metadata constraints (exclusions, hop bound, liveness) but
//! deliberately skip the statistics gates — they model selectors that
//! do not look at the measurement history the way the paper's does.

use crate::error::{SelectionFailure, SuiteError, SuiteResult};
use crate::select::{
    candidates_for, rank_scored, recommend, PathAggregate, Recommendation, UserRequest,
};
use pathdb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything a strategy may draw on besides the request itself.
pub struct StrategyContext<'a> {
    /// The measurement database the campaign filled.
    pub db: &'a Database,
    /// Seed for strategies that use randomness (`random`); the same
    /// seed over the same database yields a byte-identical ranking.
    pub seed: u64,
}

/// A pluggable path-selection policy: given a user's request, produce a
/// ranked list of recommendations (best first) or a classified
/// [`SelectionFailure`].
pub trait SelectionStrategy: Send + Sync {
    /// Registry key, e.g. `"paper"` or `"widest-path"`.
    fn name(&self) -> &'static str;
    /// One-line description for `--help` and the scorecard.
    fn description(&self) -> &'static str;
    /// Rank the candidate paths for `request`, best first, at most `k`.
    fn rank(
        &self,
        ctx: &StrategyContext<'_>,
        request: &UserRequest,
        k: usize,
    ) -> SuiteResult<Vec<Recommendation>>;
}

/// The paper's constraint-filtered objective ranking — a thin wrapper
/// over [`crate::select::recommend`], so it is the same code path, not
/// a reimplementation that could drift.
struct Paper;

impl SelectionStrategy for Paper {
    fn name(&self) -> &'static str {
        "paper"
    }
    fn description(&self) -> &'static str {
        "constraint-filtered objective ranking (the paper's selection engine)"
    }
    fn rank(
        &self,
        ctx: &StrategyContext<'_>,
        request: &UserRequest,
        k: usize,
    ) -> SuiteResult<Vec<Recommendation>> {
        recommend(ctx.db, request, k)
    }
}

/// A single-statistic baseline: rank the metadata-matching candidates
/// by one scalar (lower is better), with no statistics gates — a
/// non-empty match that scores nothing means the statistic is missing.
#[derive(Clone, Copy)]
struct Baseline {
    name: &'static str,
    description: &'static str,
    score: fn(&PathAggregate) -> Option<f64>,
}

const BASELINES: [Baseline; 6] = [
    Baseline {
        name: "shortest-path",
        description: "fewest hops, ignoring all measurements",
        score: |a| Some(a.hops as f64),
    },
    Baseline {
        name: "widest-path",
        description: "maximize the bottleneck bandwidth min(up, down)",
        score: |a| {
            let up = a.bw_up_mtu.as_ref().map(|w| w.mean)?;
            let down = a.bw_down_mtu.as_ref().map(|w| w.mean)?;
            Some(-up.min(down))
        },
    },
    Baseline {
        name: "lowest-latency",
        description: "lowest mean RTT",
        score: |a| a.latency.as_ref().map(|w| w.mean),
    },
    Baseline {
        name: "lowest-jitter",
        description: "most consistent RTT (lowest mean jitter)",
        score: |a| a.jitter_ms,
    },
    Baseline {
        name: "lowest-loss",
        description: "lowest mean packet loss (unknown loss is unscorable)",
        score: |a| a.mean_loss_pct,
    },
    Baseline {
        name: "scion-default",
        description: "first-returned path-server order (stored path_index)",
        score: |a| Some(a.path_id.path_index as f64),
    },
];

impl SelectionStrategy for Baseline {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn rank(
        &self,
        ctx: &StrategyContext<'_>,
        request: &UserRequest,
        k: usize,
    ) -> SuiteResult<Vec<Recommendation>> {
        let candidates = candidates_for(ctx.db, request, k)?;
        rank_scored(
            request.server_id,
            candidates.len(),
            candidates,
            k,
            self.score,
        )
    }
}

struct Random;

impl SelectionStrategy for Random {
    fn name(&self) -> &'static str {
        "random"
    }
    fn description(&self) -> &'static str {
        "seeded uniform shuffle — the control baseline"
    }
    fn rank(
        &self,
        ctx: &StrategyContext<'_>,
        request: &UserRequest,
        k: usize,
    ) -> SuiteResult<Vec<Recommendation>> {
        let mut candidates = candidates_for(ctx.db, request, k)?;
        if candidates.is_empty() {
            return Err(SuiteError::Selection(SelectionFailure::NoMatch {
                server_id: request.server_id,
            }));
        }
        // Canonical order first so the shuffle depends only on the seed
        // and the candidate set, not on storage order.
        candidates.sort_by_key(|a| a.path_id);
        let mut rng = StdRng::seed_from_u64(
            ctx.seed ^ (request.server_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Fisher–Yates.
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        Ok(candidates
            .into_iter()
            .take(k)
            .enumerate()
            .map(|(i, aggregate)| Recommendation {
                rank: i + 1,
                // The draw position: meaningless as a statistic, but it
                // keeps the score column monotone like every strategy.
                score: i as f64,
                aggregate,
            })
            .collect())
    }
}

/// Every registered strategy, in canonical (registration) order.
pub fn registry() -> Vec<Box<dyn SelectionStrategy>> {
    let [shortest, widest, latency, jitter, loss, scion_default] = BASELINES;
    vec![
        Box::new(Paper),
        Box::new(shortest),
        Box::new(widest),
        Box::new(latency),
        Box::new(jitter),
        Box::new(loss),
        Box::new(Random),
        Box::new(scion_default),
    ]
}

/// Look a strategy up by its registry key.
pub fn by_name(name: &str) -> Option<Box<dyn SelectionStrategy>> {
    registry().into_iter().find(|s| s.name() == name)
}

/// The registry keys, in canonical order (for `--help` and error text).
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{Constraints, Objective};
    use crate::Recommendation;
    use pathdb::Database;
    use schema_fixture::populate;

    /// A small fixture database: 4 paths to destination 1 with
    /// hand-picked statistics so every strategy has a distinct winner.
    mod schema_fixture {
        use crate::schema::{PathId, PATHS, PATHS_STATS};
        use crate::schema::{PathMeasurement, StatId};
        use pathdb::Database;

        pub(crate) fn populate(db: &Database) {
            {
                let handle = db.collection(PATHS);
                let mut coll = handle.write();
                // hops: path 2 is shortest; the rest grow with index.
                for (idx, hops) in [(0u32, 5i64), (1, 6), (2, 3), (3, 7)] {
                    coll.insert_one(pathdb::doc! {
                        "_id" => format!("1_{idx}"),
                        "server_id" => 1i64,
                        "path_index" => idx as i64,
                        "sequence" => format!("seq-{idx}"),
                        "hops" => hops,
                    })
                    .unwrap();
                }
            }
            let handle = db.collection(PATHS_STATS);
            let mut coll = handle.write();
            // (latency, jitter, loss, up, down): winners —
            // latency: path 1; jitter: path 3; loss: path 0;
            // widest (min(up,down)): path 3.
            let rows = [
                (0u32, 40.0, 2.0, 0.0, 10.0, 10.0),
                (1, 10.0, 3.0, 2.0, 11.0, 9.0),
                (2, 30.0, 4.0, 1.0, 2.0, 30.0),
                (3, 20.0, 1.0, 3.0, 12.0, 13.0),
            ];
            for (idx, lat, jit, loss, up, down) in rows {
                let m = PathMeasurement {
                    stat_id: StatId {
                        path: PathId {
                            server_id: 1,
                            path_index: idx,
                        },
                        timestamp_ms: 1000,
                    },
                    isds: vec![17],
                    hops: 5,
                    avg_latency_ms: Some(lat),
                    jitter_ms: Some(jit),
                    loss_pct: loss,
                    bw_up_mtu: Some(up),
                    bw_down_mtu: Some(down),
                    bw_up_64: None,
                    bw_down_64: None,
                    target_mbps: 12.0,
                    error: None,
                };
                coll.insert_one(m.to_doc()).unwrap();
            }
        }
    }

    fn rank1(db: &Database, name: &str, seed: u64) -> u32 {
        let ctx = StrategyContext { db, seed };
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        let recs = by_name(name).unwrap().rank(&ctx, &req, 10).unwrap();
        recs[0].aggregate.path_id.path_index
    }

    #[test]
    fn registry_has_all_strategies_with_unique_names() {
        let names = names();
        assert!(names.len() >= 7, "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
        assert!(by_name("paper").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn each_baseline_picks_its_statistics_winner() {
        let db = Database::new();
        populate(&db);
        assert_eq!(rank1(&db, "shortest-path", 7), 2);
        assert_eq!(rank1(&db, "lowest-latency", 7), 1);
        assert_eq!(rank1(&db, "lowest-jitter", 7), 3);
        assert_eq!(rank1(&db, "lowest-loss", 7), 0);
        assert_eq!(rank1(&db, "widest-path", 7), 3);
        assert_eq!(rank1(&db, "scion-default", 7), 0);
        // paper follows the requested objective (MinLatency here).
        assert_eq!(rank1(&db, "paper", 7), 1);
    }

    #[test]
    fn paper_strategy_is_recommend() {
        let db = Database::new();
        populate(&db);
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MaxBandwidthDown,
            constraints: Constraints::default(),
        };
        let ctx = StrategyContext { db: &db, seed: 0 };
        let via_strategy = by_name("paper").unwrap().rank(&ctx, &req, 3).unwrap();
        let direct = recommend(&db, &req, 3).unwrap();
        assert_eq!(via_strategy, direct);
    }

    #[test]
    fn random_is_seeded_and_a_permutation() {
        let db = Database::new();
        populate(&db);
        let req = UserRequest {
            server_id: 1,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        let order = |seed: u64| -> Vec<u32> {
            let ctx = StrategyContext { db: &db, seed };
            by_name("random")
                .unwrap()
                .rank(&ctx, &req, 10)
                .unwrap()
                .iter()
                .map(|r: &Recommendation| r.aggregate.path_id.path_index)
                .collect()
        };
        assert_eq!(order(1), order(1), "same seed, same order");
        let mut sorted = order(1);
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "a permutation, not a sample");
        // Some seed must disagree with seed 1, or it is not a shuffle.
        assert!((2..10).any(|s| order(s) != order(1)));
    }

    #[test]
    fn baselines_classify_empty_outcomes() {
        use crate::error::SelectionFailure;
        let db = Database::new();
        let ctx = StrategyContext { db: &db, seed: 0 };
        let req = UserRequest {
            server_id: 9,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        };
        for s in registry() {
            assert!(
                matches!(
                    s.rank(&ctx, &req, 3),
                    Err(SuiteError::Selection(SelectionFailure::NoMatch {
                        server_id: 9
                    }))
                ),
                "{} must classify an unknown destination as NoMatch",
                s.name()
            );
            assert!(
                matches!(s.rank(&ctx, &req, 0), Err(SuiteError::InvalidRequest(_))),
                "{} must reject k = 0",
                s.name()
            );
        }
    }
}
