//! Pluggable path-selection strategies.
//!
//! The paper's selection engine is one fixed ranking; the axiomatic
//! literature (PAPERS.md: "An Axiomatic Analysis of Path Selection
//! Strategies for Multipath Transport in Path-Aware Networks") judges
//! *families* of strategies against each other. This module names such
//! a family: [`registry`] is a table of [`Strategy`] rows, each a name
//! plus how it orders candidates, and every row ranks through the one
//! `select::select` function, so every workload — and the
//! [`crate::axioms`] evaluation harness — composes with every strategy:
//!
//! * `paper` — the constraint-filtered objective ranking of
//!   [`crate::select::recommend`] (pinned by the `paper_oracle` tests
//!   below).
//! * `shortest-path` — fewest hops, the classic BGP-ish default.
//! * `widest-path` — maximize the bottleneck bandwidth
//!   `min(up, down)`.
//! * `lowest-latency` / `lowest-jitter` / `lowest-loss` — single-statistic
//!   greedy baselines (unknown loss is unscorable).
//! * `random` — seeded uniform shuffle; the control every strategy must
//!   beat.
//! * `scion-default` — first-returned order of the path server
//!   (`showpaths` rank, i.e. stored `path_index`), what a user gets with
//!   no path control at all.
//!
//! All strategies speak the same request language ([`UserRequest`]) and
//! return the same [`Recommendation`] list; the non-`paper` rows apply
//! the metadata constraints (exclusions, hop bound, liveness) but
//! deliberately skip the statistics gates — they model selectors that
//! do not look at the measurement history the way the paper's does.

use crate::error::SuiteResult;
use crate::select::{select, Order, PathAggregate, Recommendation, UserRequest};
use pathdb::Database;

/// Everything a strategy may draw on besides the request itself.
pub struct StrategyContext<'a> {
    /// The measurement database the campaign filled.
    pub db: &'a Database,
    /// Seed for strategies that use randomness (`random`); the same
    /// seed over the same database yields a byte-identical ranking.
    pub seed: u64,
}

/// One registered path-selection policy: a name and how it orders the
/// candidates of a request.
pub struct Strategy {
    name: &'static str,
    order: Order,
}

impl Strategy {
    /// Registry key, e.g. `"paper"` or `"widest-path"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Rank the candidate paths for `request`, best first, at most `k`,
    /// or say why none (a classified `SelectionFailure`).
    pub fn rank(
        &self,
        ctx: &StrategyContext<'_>,
        request: &UserRequest,
        k: usize,
    ) -> SuiteResult<Vec<Recommendation>> {
        select(ctx, request, k, self.order)
    }
}

/// A row ranking by one scalar, lower first, with no statistics gates.
const fn scored(name: &'static str, score: fn(&PathAggregate) -> Option<f64>) -> Strategy {
    Strategy {
        name,
        order: Order::Score(score),
    }
}

static REGISTRY: [Strategy; 8] = [
    Strategy {
        name: "paper",
        order: Order::Gated,
    },
    scored("shortest-path", |a| Some(a.hops as f64)),
    scored("widest-path", |a| {
        let up = a.bw_up_mtu.as_ref().map(|w| w.mean)?;
        let down = a.bw_down_mtu.as_ref().map(|w| w.mean)?;
        Some(-up.min(down))
    }),
    scored("lowest-latency", |a| a.latency.as_ref().map(|w| w.mean)),
    scored("lowest-jitter", |a| a.jitter_ms),
    scored("lowest-loss", |a| a.mean_loss_pct),
    Strategy {
        name: "random",
        order: Order::Shuffle,
    },
    scored("scion-default", |a| Some(a.path_id.path_index as f64)),
];

/// Every registered strategy, in canonical (registration) order.
pub fn registry() -> &'static [Strategy] {
    &REGISTRY
}

/// Look a strategy up by its registry key.
pub(crate) fn by_name(name: &str) -> Option<&'static Strategy> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The registry keys, in canonical order (for `--help` and error text).
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(Strategy::name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SuiteError;
    use crate::select::{recommend, Constraints, Objective};
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

#[cfg(test)]
mod paper_oracle {
    //! Oracle pinning of the `paper` strategy.
    //!
    //! The tentpole refactor turned `select::recommend` into one of many
    //! registered strategies. Its ranking behavior is a contract: the
    //! `paper` strategy must stay byte-identical to the legacy pipeline.
    //! This oracle is an independent, deliberately naive reimplementation
    //! of that pipeline (direct collection scans, no statcache, no trait
    //! indirection) frozen at the post-bugfix semantics:
    //!
    //! * non-finite samples are excluded per statistic;
    //! * zero-measurement paths report unknown (`None`) loss, and unknown
    //!   loss never passes a `max_loss_pct` gate;
    //! * empty rankings classify into NoMatch / AllGated / AllUnscorable;
    //! * ties break on `path_id`, and `k = 0` is an invalid request.
    //!
    //! Any future change to the strategy layer that shifts `paper`'s output
    //! by even one bit fails here.

    use crate::analysis::Whisker;
    use crate::schema::{PathId, PathMeasurement, PATHS, PATHS_STATS};
    use crate::select::props::{arb_db, arb_request, populate};
    use crate::select::{recommend, Constraints, Objective, Recommendation, UserRequest};
    use crate::strategy::{by_name, StrategyContext};
    use crate::{SelectionFailure, SuiteError};
    use pathdb::{Database, Filter};
    use proptest::prelude::*;

    // ---- the frozen legacy pipeline ----------------------------------------

    fn legacy_mean(samples: &[f64]) -> Option<f64> {
        let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            None
        } else {
            Some(finite.iter().sum::<f64>() / finite.len() as f64)
        }
    }

    struct LegacyAggregate {
        path_id: PathId,
        samples: usize,
        latency: Option<Whisker>,
        jitter_ms: Option<f64>,
        mean_loss_pct: Option<f64>,
        bw_up_mtu: Option<Whisker>,
        bw_down_mtu: Option<Whisker>,
    }

    fn legacy_aggregate(db: &Database, server_id: u32, c: &Constraints) -> Vec<LegacyAggregate> {
        let paths_handle = db.collection(PATHS);
        let stats_handle = db.collection(PATHS_STATS);
        let paths = paths_handle.read();
        let stats = stats_handle.read();
        let mut out = Vec::new();
        for d in paths.query(c.to_filter(server_id)).refs() {
            let id: PathId = d.id().unwrap().parse().unwrap();
            let ms: Vec<PathMeasurement> = stats
                .query(Filter::eq("path_id", id.to_string()))
                .refs()
                .iter()
                .map(|sd| PathMeasurement::from_doc(sd).unwrap())
                .collect();
            let finite = |f: fn(&PathMeasurement) -> Option<f64>| -> Vec<f64> {
                ms.iter().filter_map(f).filter(|v| v.is_finite()).collect()
            };
            out.push(LegacyAggregate {
                path_id: id,
                samples: ms.len(),
                latency: Whisker::from_samples(&finite(|m| m.avg_latency_ms)),
                jitter_ms: legacy_mean(&ms.iter().filter_map(|m| m.jitter_ms).collect::<Vec<_>>()),
                mean_loss_pct: legacy_mean(&ms.iter().map(|m| m.loss_pct).collect::<Vec<_>>()),
                bw_up_mtu: Whisker::from_samples(&finite(|m| m.bw_up_mtu)),
                bw_down_mtu: Whisker::from_samples(&finite(|m| m.bw_down_mtu)),
            });
        }
        // recommend scans the paths collection in storage (id) order; the
        // query layer returns lexicographic-id order, which the sort below
        // makes irrelevant anyway (ties break on path_id).
        out
    }

    fn legacy_score(a: &LegacyAggregate, objective: Objective) -> Option<f64> {
        match objective {
            Objective::MinLatency => a.latency.as_ref().map(|w| w.mean),
            Objective::MinJitter => a.jitter_ms,
            Objective::MinLoss => a.mean_loss_pct,
            Objective::MaxBandwidthDown => a.bw_down_mtu.as_ref().map(|w| -w.mean),
            Objective::MaxBandwidthUp => a.bw_up_mtu.as_ref().map(|w| -w.mean),
        }
    }

    enum LegacyOutcome {
        Ranked(Vec<(usize, f64, PathId)>),
        Invalid,
        Failure(SelectionFailure),
    }

    fn legacy_recommend(db: &Database, request: &UserRequest, k: usize) -> LegacyOutcome {
        if k == 0 {
            return LegacyOutcome::Invalid;
        }
        let mut candidates = legacy_aggregate(db, request.server_id, &request.constraints);
        let matched = candidates.len();
        candidates.retain(|a| a.samples >= request.constraints.min_samples.max(1));
        if let Some(max_loss) = request.constraints.max_loss_pct {
            candidates.retain(|a| a.mean_loss_pct.is_some_and(|l| l <= max_loss));
        }
        let gated = candidates.len();
        let mut scored: Vec<(f64, PathId)> = candidates
            .iter()
            .filter_map(|a| legacy_score(a, request.objective).map(|s| (s, a.path_id)))
            .collect();
        scored.sort_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
        if scored.is_empty() {
            let server_id = request.server_id;
            return LegacyOutcome::Failure(if matched == 0 {
                SelectionFailure::NoMatch { server_id }
            } else if gated == 0 {
                SelectionFailure::AllGated { server_id, matched }
            } else {
                SelectionFailure::AllUnscorable {
                    server_id,
                    matched,
                    gated,
                }
            });
        }
        LegacyOutcome::Ranked(
            scored
                .into_iter()
                .take(k)
                .enumerate()
                .map(|(i, (s, id))| (i + 1, s, id))
                .collect(),
        )
    }

    fn as_tuples(recs: &[Recommendation]) -> Vec<(usize, f64, PathId)> {
        recs.iter()
            .map(|r| {
                let score = r.score.expect("a ranked entry carries its score");
                (r.rank, score, r.aggregate.path_id)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The `paper` strategy, `recommend`, and the frozen legacy oracle
        /// agree bit-for-bit on every randomized database and request —
        /// ranks, scores (compared as raw bits) and failure classification.
        #[test]
        fn paper_strategy_matches_legacy_oracle(
            dests in arb_db(),
            (server_id, objective, min_samples, max_loss_pct, max_hops) in arb_request(),
            k in 0usize..6,
        ) {
            let db = Database::new();
            populate(&db, &dests);
            let request = UserRequest {
                server_id,
                objective,
                constraints: Constraints {
                    min_samples,
                    max_loss_pct,
                    max_hops,
                    ..Constraints::default()
                },
            };

            let expected = legacy_recommend(&db, &request, k);
            let ctx = StrategyContext { db: &db, seed: 7 };
            let paper = by_name("paper").unwrap();
            let got_strategy = paper.rank(&ctx, &request, k);
            let got_direct = recommend(&db, &request, k);

            for got in [got_strategy, got_direct] {
                match (&expected, got) {
                    (LegacyOutcome::Invalid, Err(SuiteError::InvalidRequest(_))) => {}
                    (LegacyOutcome::Failure(want), Err(SuiteError::Selection(have))) => {
                        prop_assert_eq!(want, &have);
                    }
                    (LegacyOutcome::Ranked(want), Ok(recs)) => {
                        let have = as_tuples(&recs);
                        prop_assert_eq!(want.len(), have.len());
                        for (w, h) in want.iter().zip(have.iter()) {
                            prop_assert_eq!(w.0, h.0, "rank");
                            prop_assert_eq!(w.2, h.2, "path id");
                            // Byte-identical scores: compare raw bits, not
                            // approximate equality.
                            prop_assert_eq!(w.1.to_bits(), h.1.to_bits(), "score bits");
                        }
                    }
                    (_, got) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome class diverged: {got:?}"
                        )));
                    }
                }
            }
        }

        /// Every registered strategy is deterministic: the same database
        /// and request produce bit-identical rankings on repeated calls.
        #[test]
        fn all_strategies_are_deterministic(
            dests in arb_db(),
            (server_id, objective, min_samples, max_loss_pct, max_hops) in arb_request(),
        ) {
            let db = Database::new();
            populate(&db, &dests);
            let request = UserRequest {
                server_id,
                objective,
                constraints: Constraints {
                    min_samples,
                    max_loss_pct,
                    max_hops,
                    ..Constraints::default()
                },
            };
            let ctx = StrategyContext { db: &db, seed: 1234 };
            for s in crate::strategy::registry() {
                let a = s.rank(&ctx, &request, 5);
                let b = s.rank(&ctx, &request, 5);
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(
                        format!("{x:?}"), format!("{y:?}"),
                        "{} not deterministic", s.name()
                    ),
                    (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
                    _ => return Err(TestCaseError::fail(format!(
                        "{}: Ok/Err diverged between identical calls", s.name()
                    ))),
                }
            }
        }
    }
}
