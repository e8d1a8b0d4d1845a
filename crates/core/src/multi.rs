//! Multi-criteria path selection: Pareto fronts and weighted ranking.
//!
//! The paper's goal is "to offer users many paths to choose from,
//! following a series of requests". A single objective gives one
//! answer; real users trade latency against bandwidth against loss.
//! This module computes the **Pareto front** of the candidate paths
//! (every path not dominated on all requested criteria — the honest
//! "menu" to show a user) and a **weighted scalarization** for users
//! who just want one answer with a bias.

use crate::select::{Objective, PathAggregate};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// The criterion value of a path under an objective, oriented so lower
/// is better. `None` when the statistic is missing.
pub(crate) fn criterion_value(a: &PathAggregate, objective: Objective) -> Option<f64> {
    match objective {
        Objective::MinLatency => a.latency.as_ref().map(|w| w.mean),
        Objective::MinJitter => a.jitter_ms,
        Objective::MinLoss => a.mean_loss_pct,
        Objective::MaxBandwidthDown => a.bw_down_mtu.as_ref().map(|w| -w.mean),
        Objective::MaxBandwidthUp => a.bw_up_mtu.as_ref().map(|w| -w.mean),
    }
}

/// `a` dominates `b` iff it is no worse on every criterion and strictly
/// better on at least one. Paths missing any criterion are incomparable
/// (and excluded from the front by [`pareto_front`]).
pub(crate) fn dominates(a: &PathAggregate, b: &PathAggregate, criteria: &[Objective]) -> bool {
    let mut strictly_better = false;
    for &c in criteria {
        match (criterion_value(a, c), criterion_value(b, c)) {
            (Some(x), Some(y)) => {
                if x > y {
                    return false;
                }
                if x < y {
                    strictly_better = true;
                }
            }
            _ => return false,
        }
    }
    strictly_better
}

/// The candidates that carry every one of `criteria`, in input order.
fn complete<'a, A: Borrow<PathAggregate>>(
    candidates: &'a [A],
    criteria: &[Objective],
) -> Vec<&'a A> {
    candidates
        .iter()
        .filter(|a| {
            let a = (*a).borrow();
            criteria.iter().all(|&c| criterion_value(a, c).is_some())
        })
        .collect()
}

/// The Pareto-optimal subset of `candidates` under `criteria`, in the
/// input order. Candidates missing any criterion are dropped. Takes
/// plain or shared aggregates (`SharedAggregate`) alike.
pub fn pareto_front<'a, A: Borrow<PathAggregate>>(
    candidates: &'a [A],
    criteria: &[Objective],
) -> Vec<&'a A> {
    let complete = complete(candidates, criteria);
    complete
        .iter()
        .filter(|a| {
            let a = (**a).borrow();
            !complete
                .iter()
                .any(|b| dominates((*b).borrow(), a, criteria))
        })
        .copied()
        .collect()
}

/// Relative weights over the five objectives (any scale; only ratios
/// matter). Unused criteria get weight 0.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Weights {
    #[serde(default)]
    pub latency: f64,
    #[serde(default)]
    pub jitter: f64,
    #[serde(default)]
    pub loss: f64,
    #[serde(default)]
    pub bw_down: f64,
    #[serde(default)]
    pub bw_up: f64,
}

impl Weights {
    fn entries(&self) -> [(Objective, f64); 5] {
        [
            (Objective::MinLatency, self.latency),
            (Objective::MinJitter, self.jitter),
            (Objective::MinLoss, self.loss),
            (Objective::MaxBandwidthDown, self.bw_down),
            (Objective::MaxBandwidthUp, self.bw_up),
        ]
    }

    /// Weights arrive from request JSON and `--weight`: a negative,
    /// NaN or infinite one (JSON `null` reads as NaN, `--weight
    /// latency=inf` as infinity) has no meaning as a ratio and would
    /// turn the scores into NaN.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self
            .entries()
            .iter()
            .find(|(_, w)| !w.is_finite() || *w < 0.0)
        {
            Some((objective, w)) => Err(format!(
                "weight for {objective:?} must be finite and >= 0, got {w}"
            )),
            None => Ok(()),
        }
    }

    /// Criteria with nonzero weight.
    pub fn active(&self) -> Vec<Objective> {
        self.entries()
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(o, _)| *o)
            .collect()
    }
}

/// Weighted ranking: min-max normalize each active criterion over the
/// candidate set (so units don't matter), then order by the weighted
/// sum of normalized values (lower = better). Candidates missing an
/// active criterion are excluded. Returns `(score, aggregate)` pairs,
/// best first.
pub(crate) fn weighted_rank<'a, A: Borrow<PathAggregate>>(
    candidates: &'a [A],
    weights: &Weights,
) -> Vec<(f64, &'a A)> {
    let criteria = weights.active();
    let complete = complete(candidates, &criteria);
    if criteria.is_empty() || complete.is_empty() {
        return Vec::new();
    }
    let value = |a: &A, c| criterion_value(a.borrow(), c).expect("complete");
    // Per-criterion weight and min/max over the candidate set.
    let ranges: Vec<(Objective, f64, f64, f64)> = weights
        .entries()
        .into_iter()
        .filter(|(_, w)| *w > 0.0)
        .map(|(c, w)| {
            let vals: Vec<f64> = complete.iter().map(|a| value(a, c)).collect();
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (c, w, min, max)
        })
        .collect();
    let total_w: f64 = ranges.iter().map(|(_, w, _, _)| w).sum();
    let mut scored: Vec<(f64, &A)> = complete
        .into_iter()
        .map(|a| {
            let mut score = 0.0;
            for &(c, w, min, max) in &ranges {
                let v = value(a, c);
                let norm = if max > min {
                    (v - min) / (max - min)
                } else {
                    0.0
                };
                score += w * norm;
            }
            (score / total_w, a)
        })
        .collect();
    scored.sort_by(|x, y| {
        let path_id = |a: &A| a.borrow().path_id;
        x.0.total_cmp(&y.0)
            .then_with(|| path_id(x.1).cmp(&path_id(y.1)))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Whisker;
    use crate::schema::PathId;

    fn w(mean: f64) -> Option<Whisker> {
        Some(Whisker {
            n: 5,
            min: mean,
            q1: mean,
            median: mean,
            q3: mean,
            max: mean,
            mean,
            std: 0.0,
        })
    }

    fn agg(idx: u32, latency: f64, loss: f64, down: f64) -> PathAggregate {
        PathAggregate {
            path_id: PathId {
                server_id: 1,
                path_index: idx,
            },
            sequence: format!("seq-{idx}"),
            hops: 6,
            samples: 5,
            latency: w(latency),
            jitter_ms: Some(latency / 20.0),
            mean_loss_pct: Some(loss),
            bw_up_mtu: w(down / 3.0),
            bw_down_mtu: w(down),
        }
    }

    /// Fixture: 0 = fast but lossy; 1 = slow but clean and fat;
    /// 2 = balanced; 3 = dominated by 2 on everything.
    fn candidates() -> Vec<PathAggregate> {
        vec![
            agg(0, 25.0, 5.0, 8.0),
            agg(1, 160.0, 0.0, 12.0),
            agg(2, 30.0, 1.0, 11.0),
            agg(3, 40.0, 2.0, 10.0),
        ]
    }

    #[test]
    fn pareto_front_keeps_tradeoffs_drops_dominated() {
        let cands = candidates();
        let criteria = [
            Objective::MinLatency,
            Objective::MinLoss,
            Objective::MaxBandwidthDown,
        ];
        let front = pareto_front(&cands, &criteria);
        let ids: Vec<u32> = front.iter().map(|a| a.path_id.path_index).collect();
        assert!(ids.contains(&0), "fastest survives: {ids:?}");
        assert!(ids.contains(&1), "cleanest/fattest survives: {ids:?}");
        assert!(ids.contains(&2), "balanced survives: {ids:?}");
        assert!(!ids.contains(&3), "dominated by 2: {ids:?}");
    }

    #[test]
    fn front_members_are_mutually_nondominated() {
        let cands = candidates();
        let criteria = [Objective::MinLatency, Objective::MinLoss];
        let front = pareto_front(&cands, &criteria);
        for a in &front {
            for b in &front {
                assert!(!dominates(a, b, &criteria) || a.path_id == b.path_id);
            }
        }
    }

    #[test]
    fn single_criterion_front_is_the_minimum() {
        let cands = candidates();
        let front = pareto_front(&cands, &[Objective::MinLatency]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].path_id.path_index, 0);
    }

    #[test]
    fn incomplete_candidates_are_excluded() {
        let mut cands = candidates();
        cands[1].latency = None;
        let front = pareto_front(&cands, &[Objective::MinLatency, Objective::MinLoss]);
        assert!(front.iter().all(|a| a.path_id.path_index != 1));
    }

    #[test]
    fn weighted_rank_tracks_single_objective_at_unit_weight() {
        let cands = candidates();
        let ranked = weighted_rank(
            &cands,
            &Weights {
                latency: 1.0,
                ..Weights::default()
            },
        );
        assert_eq!(ranked[0].1.path_id.path_index, 0);
        assert_eq!(ranked.last().unwrap().1.path_id.path_index, 1);
        // Scores normalized into [0, 1].
        assert!(ranked.iter().all(|(s, _)| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn weights_shift_the_winner() {
        let cands = candidates();
        // Latency-dominant: path 0 wins.
        let latency_first = weighted_rank(
            &cands,
            &Weights {
                latency: 50.0,
                loss: 1.0,
                ..Weights::default()
            },
        );
        assert_eq!(latency_first[0].1.path_id.path_index, 0);
        // Loss-dominant: lossy path 0 falls, clean path 1 or balanced 2 wins.
        let loss_first = weighted_rank(
            &cands,
            &Weights {
                latency: 1.0,
                loss: 10.0,
                ..Weights::default()
            },
        );
        assert_ne!(loss_first[0].1.path_id.path_index, 0);
    }

    #[test]
    fn zero_weights_give_empty_ranking() {
        assert!(weighted_rank(&candidates(), &Weights::default()).is_empty());
    }

    #[test]
    fn weighted_winner_is_on_the_pareto_front() {
        let cands = candidates();
        let weights = Weights {
            latency: 2.0,
            loss: 1.0,
            bw_down: 1.0,
            ..Weights::default()
        };
        let ranked = weighted_rank(&cands, &weights);
        let front = pareto_front(&cands, &weights.active());
        let winner = ranked[0].1.path_id;
        assert!(
            front.iter().any(|a| a.path_id == winner),
            "a scalarization optimum must be Pareto-optimal"
        );
    }
}
