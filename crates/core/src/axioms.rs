//! Axiomatic evaluation of selection strategies.
//!
//! PAPERS.md's "An Axiomatic Analysis of Path Selection Strategies for
//! Multipath Transport in Path-Aware Networks" judges strategies not by
//! one benchmark number but by axioms a good selector should satisfy.
//! This harness replays every registered [`crate::strategy`] over the
//! same recorded campaign and scores three of them:
//!
//! * **Pareto-efficiency** — is the strategy's top choice on the
//!   Pareto front of latency / loss / downstream bandwidth (over the
//!   criteria the data actually carries)? Fraction of destinations
//!   where it is.
//! * **Stability** (1 − flappiness) — perturb liveness with fault-plan
//!   epochs (PR 5 machinery: fork the network, take one link down per
//!   epoch) and watch the *effective* choice: the best-ranked path
//!   still alive. Score is the fraction of epoch transitions that keep
//!   the effective choice unchanged.
//! * **Fairness** — Jain's fairness index over the per-destination
//!   latency ratio `best/chosen`: a strategy that gives every
//!   destination near-optimal latency scores 1, one that favors some
//!   destinations at others' expense scores lower.
//!
//! The harness is deterministic: same seed → byte-identical scorecards
//! (the fold is destination-ordered). Scorecards persist in the
//! `crate::schema::STRATEGY_SCORECARDS` collection and render as the
//! `report strategies` table.

use crate::collect::destinations;
use crate::error::{SuiteError, SuiteResult};
use crate::multi::pareto_front;
use crate::schema::{PathId, STRATEGY_SCORECARDS};
use crate::select::{Constraints, Objective, UserRequest};
use crate::strategy::{registry, StrategyContext};
use pathdb::{doc, Database, Document, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scion_sim::addr::IsdAsn;
use scion_sim::net::ScionNetwork;
use std::collections::BTreeSet;

/// Paths requested per destination when computing liveness masks — the
/// paper's `showpaths -m 40`.
const MAX_PATHS: usize = 40;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Liveness epochs per destination. Epoch 0 is the unperturbed
    /// network; each later epoch forks the network and takes one
    /// deterministically chosen link down.
    pub epochs: u32,
    /// Objective handed to objective-aware strategies (`paper`).
    pub objective: Objective,
    /// Constraints applied by every strategy.
    pub constraints: Constraints,
    /// Seed for the fault draws and the `random` strategy.
    pub seed: u64,
    /// Restrict to one strategy (registry key); `None` = all.
    pub only: Option<String>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            epochs: 4,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
            seed: 42,
            only: None,
        }
    }
}

/// One strategy's axiom scores over a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    pub strategy: String,
    /// Destinations the strategy produced a ranking for.
    pub answered: usize,
    /// Destinations where it returned a classified selection failure.
    pub failures: usize,
    /// Fraction of answered destinations whose top choice is
    /// Pareto-optimal (None when no destination had enough data).
    pub pareto_efficiency: Option<f64>,
    /// Mean over destinations of the fraction of epoch transitions
    /// that keep the effective choice unchanged (None when epochs < 2).
    pub stability: Option<f64>,
    /// Jain's fairness index of per-destination `best/chosen` latency
    /// ratios (None when latency data is absent).
    pub fairness: Option<f64>,
    /// Mean of the available axiom scores — the ranking key.
    pub combined: f64,
}

/// Per-destination evaluation of one strategy, before aggregation.
struct DestOutcome {
    /// Top-choice Pareto membership, when the front was computable.
    pareto: Option<bool>,
    /// Fraction of stable epoch transitions, when epochs >= 2.
    stability: Option<f64>,
    /// `best/chosen` mean-latency ratio, when both sides have latency.
    latency_ratio: Option<f64>,
    /// The strategy failed to produce a ranking here.
    failed: bool,
}

/// Deterministic per-(destination, epoch) seed: splitmix64 over the
/// harness seed and both coordinates.
fn mix(seed: u64, server_id: u32, epoch: u32) -> u64 {
    let mut x = seed
        ^ (server_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (epoch as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`, 1 when all equal.
fn jain(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return None;
    }
    Some((sum * sum) / (xs.len() as f64 * sq))
}

/// Alive path sequences per epoch for one destination. Epoch 0 is the
/// unperturbed network; epoch `e > 0` forks it and downs one link
/// drawn from `mix(seed, server_id, e)`.
fn liveness_masks(
    net: &ScionNetwork,
    local: IsdAsn,
    dst: IsdAsn,
    server_id: u32,
    cfg: &EvalConfig,
) -> Vec<BTreeSet<String>> {
    let num_links = net.topology().num_links();
    (0..cfg.epochs.max(1))
        .map(|epoch| {
            let fork = net.fork(mix(cfg.seed, server_id, epoch));
            if epoch > 0 && num_links > 0 {
                let mut rng = StdRng::seed_from_u64(mix(cfg.seed, server_id, epoch));
                fork.set_link_down(
                    scion_sim::topology::LinkIndex(rng.gen_range(0..num_links as u32)),
                    true,
                );
            }
            fork.paths(local, dst, MAX_PATHS)
                .iter()
                .filter(|p| p.status == scion_sim::path::PathStatus::Alive)
                .map(|p| p.sequence())
                .collect()
        })
        .collect()
}

/// Evaluate one strategy at one destination against precomputed
/// liveness masks.
fn eval_destination(
    db: &Database,
    strategy: &dyn crate::strategy::SelectionStrategy,
    server_id: u32,
    masks: &[BTreeSet<String>],
    cfg: &EvalConfig,
) -> SuiteResult<DestOutcome> {
    let request = UserRequest {
        server_id,
        objective: cfg.objective,
        constraints: cfg.constraints.clone(),
    };
    let ctx = StrategyContext { db, seed: cfg.seed };
    // Full preference order: the effective-choice model needs to know
    // what the strategy falls back to when its favorite is dead.
    let ranking = match strategy.rank(&ctx, &request, usize::MAX) {
        Ok(r) => r,
        Err(SuiteError::Selection(_)) => {
            return Ok(DestOutcome {
                pareto: None,
                stability: None,
                latency_ratio: None,
                failed: true,
            })
        }
        Err(e) => return Err(e),
    };
    let chosen = &ranking[0].aggregate;

    // Pareto-efficiency over the criteria the data actually carries.
    let candidates = crate::select::aggregate_paths(db, server_id, &cfg.constraints)?;
    let criteria: Vec<Objective> = [
        Objective::MinLatency,
        Objective::MinLoss,
        Objective::MaxBandwidthDown,
    ]
    .into_iter()
    .filter(|&c| {
        candidates
            .iter()
            .any(|a| crate::multi::criterion_value(a, c).is_some())
    })
    .collect();
    let pareto = if criteria.is_empty() {
        None
    } else {
        let front: BTreeSet<PathId> = pareto_front(&candidates, &criteria)
            .iter()
            .map(|a| a.path_id)
            .collect();
        if front.is_empty() {
            None
        } else {
            Some(front.contains(&chosen.path_id))
        }
    };

    // Stability: effective choice per epoch = best-ranked alive path.
    let stability = if masks.len() >= 2 {
        let effective = |mask: &BTreeSet<String>| -> Option<PathId> {
            ranking
                .iter()
                .find(|r| mask.contains(&r.aggregate.sequence))
                .map(|r| r.aggregate.path_id)
        };
        let choices: Vec<Option<PathId>> = masks.iter().map(effective).collect();
        let stable = choices.windows(2).filter(|w| w[0] == w[1]).count();
        Some(stable as f64 / (choices.len() - 1) as f64)
    } else {
        None
    };

    // Fairness input: how close the chosen path's latency is to the
    // best available one (1 = optimal).
    let chosen_lat = chosen.latency.as_ref().map(|w| w.mean);
    let best_lat = candidates
        .iter()
        .filter_map(|a| a.latency.as_ref().map(|w| w.mean))
        .min_by(f64::total_cmp);
    let latency_ratio = match (best_lat, chosen_lat) {
        (Some(b), Some(c)) if c > 0.0 => Some(b / c),
        _ => None,
    };

    Ok(DestOutcome {
        pareto,
        stability,
        latency_ratio,
        failed: false,
    })
}

/// Fold one strategy's per-destination outcomes into its scorecard.
fn fold(strategy: &str, outcomes: &[DestOutcome]) -> Scorecard {
    let failures = outcomes.iter().filter(|o| o.failed).count();
    let answered = outcomes.len() - failures;
    let mean_of = |xs: Vec<f64>| -> Option<f64> {
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    };
    let pareto_efficiency = mean_of(
        outcomes
            .iter()
            .filter_map(|o| o.pareto.map(|p| if p { 1.0 } else { 0.0 }))
            .collect(),
    );
    let stability = mean_of(outcomes.iter().filter_map(|o| o.stability).collect());
    let ratios: Vec<f64> = outcomes.iter().filter_map(|o| o.latency_ratio).collect();
    let fairness = jain(&ratios);
    let available: Vec<f64> = [pareto_efficiency, stability, fairness]
        .into_iter()
        .flatten()
        .collect();
    let combined = mean_of(available).unwrap_or(0.0);
    Scorecard {
        strategy: strategy.to_string(),
        answered,
        failures,
        pareto_efficiency,
        stability,
        fairness,
        combined,
    }
}

/// Replay every registered strategy over the recorded campaign in `db`,
/// perturbing liveness with `cfg.epochs` fault epochs on forks of
/// `net`, and return scorecards ranked best-first (combined score
/// descending, name ascending on ties).
pub fn evaluate_strategies(
    db: &Database,
    net: &ScionNetwork,
    local: IsdAsn,
    cfg: &EvalConfig,
) -> SuiteResult<Vec<Scorecard>> {
    let strategies: Vec<_> = registry()
        .into_iter()
        .filter(|s| cfg.only.as_deref().is_none_or(|n| n == s.name()))
        .collect();
    if strategies.is_empty() {
        let known = crate::strategy::names().join(", ");
        return Err(SuiteError::InvalidRequest(format!(
            "unknown strategy {:?} (known: {known})",
            cfg.only.as_deref().unwrap_or("")
        )));
    }
    let dests: Vec<(u32, IsdAsn)> = destinations(db)?
        .into_iter()
        .filter(|(_, addr)| addr.ia != local)
        .map(|(id, addr)| (id, addr.ia))
        .collect();

    // Destination-ordered fold into per-strategy outcome rows.
    let mut rows: Vec<Vec<DestOutcome>> = strategies.iter().map(|_| Vec::new()).collect();
    for &(server_id, ia) in &dests {
        let masks = liveness_masks(net, local, ia, server_id, cfg);
        for (row, s) in rows.iter_mut().zip(&strategies) {
            row.push(eval_destination(db, s.as_ref(), server_id, &masks, cfg)?);
        }
    }
    let mut cards: Vec<Scorecard> = strategies
        .iter()
        .zip(rows.iter())
        .map(|(s, outcomes)| fold(s.name(), outcomes))
        .collect();
    cards.sort_by(|a, b| {
        b.combined
            .total_cmp(&a.combined)
            .then_with(|| a.strategy.cmp(&b.strategy))
    });

    let rec = db.recorder();
    rec.add("axioms.destinations", dests.len() as u64);
    rec.add("axioms.strategies", cards.len() as u64);
    Ok(cards)
}

/// Round to 6 decimals before persisting: enough resolution for any
/// report, and the doc stays byte-identical across float folding
/// orders that agree to well beyond display precision.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn opt_f64(x: Option<f64>) -> Value {
    match x {
        Some(v) => Value::Float(round6(v)),
        None => Value::Null,
    }
}

/// Encode one scorecard as a pathdb document (`_id` = strategy name).
fn scorecard_doc(s: &Scorecard, rank: usize, cfg: &EvalConfig) -> Document {
    let mut d = doc! {
        "_id" => s.strategy.clone(),
        "rank" => rank as i64,
        "answered" => s.answered as i64,
        "failures" => s.failures as i64,
        "combined" => round6(s.combined),
        "epochs" => cfg.epochs as i64,
        "seed" => cfg.seed as i64,
    };
    d.set("pareto_efficiency", opt_f64(s.pareto_efficiency));
    d.set("stability", opt_f64(s.stability));
    d.set("fairness", opt_f64(s.fairness));
    d
}

/// Persist the scorecards (replacing any previous evaluation) into the
/// `STRATEGY_SCORECARDS` collection.
pub fn store_scorecards(db: &Database, cards: &[Scorecard], cfg: &EvalConfig) -> SuiteResult<()> {
    let handle = db.collection(STRATEGY_SCORECARDS);
    let mut coll = handle.write();
    coll.delete_many(&pathdb::Filter::exists("_id"));
    for (i, s) in cards.iter().enumerate() {
        coll.insert_one(scorecard_doc(s, i + 1, cfg))?;
    }
    Ok(())
}

/// Load stored scorecards in rank order (empty if never evaluated).
pub fn load_scorecards(db: &Database) -> SuiteResult<Vec<Scorecard>> {
    let handle = db.collection(STRATEGY_SCORECARDS);
    let coll = handle.read();
    let mut docs: Vec<Document> = coll.query(pathdb::Filter::exists("_id")).run();
    docs.sort_by_key(|d| d.get("rank").and_then(Value::as_int).unwrap_or(i64::MAX));
    let field = |d: &Document, k: &str| d.get(k).and_then(Value::as_float);
    docs.iter()
        .map(|d| {
            Ok(Scorecard {
                strategy: d
                    .id()
                    .ok_or_else(|| SuiteError::Schema("scorecard without _id".into()))?
                    .to_string(),
                answered: d.get("answered").and_then(Value::as_int).unwrap_or(0) as usize,
                failures: d.get("failures").and_then(Value::as_int).unwrap_or(0) as usize,
                pareto_efficiency: field(d, "pareto_efficiency"),
                stability: field(d, "stability"),
                fairness: field(d, "fairness"),
                combined: field(d, "combined").unwrap_or(0.0),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_basics() {
        assert_eq!(jain(&[]), None);
        assert!((jain(&[1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        // One user hogging everything over n users tends to 1/n.
        let skew = jain(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((skew - 0.25).abs() < 1e-12, "{skew}");
        let mild = jain(&[1.0, 0.8, 0.9]).unwrap();
        assert!(mild > 0.9 && mild < 1.0, "{mild}");
    }

    #[test]
    fn mix_is_stable_and_spreads() {
        assert_eq!(mix(42, 3, 1), mix(42, 3, 1));
        assert_ne!(mix(42, 3, 1), mix(42, 3, 2));
        assert_ne!(mix(42, 3, 1), mix(42, 4, 1));
        assert_ne!(mix(42, 3, 1), mix(43, 3, 1));
    }

    #[test]
    fn scorecard_doc_roundtrip() {
        let db = Database::new();
        let cfg = EvalConfig::default();
        let cards = vec![
            Scorecard {
                strategy: "paper".into(),
                answered: 21,
                failures: 0,
                pareto_efficiency: Some(1.0),
                stability: Some(0.875),
                fairness: Some(0.991234),
                combined: 0.955411,
            },
            Scorecard {
                strategy: "random".into(),
                answered: 21,
                failures: 0,
                pareto_efficiency: Some(0.333333),
                stability: None,
                fairness: Some(0.5),
                combined: 0.416667,
            },
        ];
        store_scorecards(&db, &cards, &cfg).unwrap();
        let loaded = load_scorecards(&db).unwrap();
        assert_eq!(loaded, cards);
        // Storing again replaces, not appends.
        store_scorecards(&db, &cards[..1], &cfg).unwrap();
        assert_eq!(load_scorecards(&db).unwrap().len(), 1);
    }
}
