//! Path health monitoring: detect paths whose recent behaviour deviates
//! from their own history.
//!
//! A continuously-operated suite (see `longitudinal::run_rounds`)
//! accumulates a long baseline per path; the natural next question —
//! and what an operator of the paper's system would ask the database —
//! is *which paths just changed*. This module flags three anomaly classes:
//! latency shifts (recent mean beyond k·σ of the baseline), loss onsets
//! (a previously clean path starts dropping), and blackouts (every
//! recent probe lost).

use crate::analysis::measurements_by_path;
use crate::error::SuiteResult;
use crate::schema::{PathId, PathMeasurement};
use pathdb::Database;

/// One structured event emitted by the campaign runner
/// ([`crate::runner`]) while it keeps a campaign alive: retries of
/// transient tool failures and circuit-breaker trips on persistently
/// dead destinations. The health layer consumes these alongside the
/// stored measurements — an operator asking "which paths just changed"
/// also wants to know which destinations the runner gave up on.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// A tool invocation failed transiently and was re-attempted after a
    /// backoff of `delay_ms` simulated milliseconds.
    Retry {
        path_id: PathId,
        stage: &'static str,
        /// 1-based retry number (first retry = 1).
        attempt: u32,
        delay_ms: f64,
    },
    /// Every configured attempt failed; the error row was recorded.
    RetriesExhausted {
        path_id: PathId,
        stage: &'static str,
        attempts: u32,
    },
    /// `consecutive` paths in a row hard-failed, so the destination's
    /// remaining `skipped_paths` paths were not measured this iteration.
    CircuitOpen {
        server_id: u32,
        consecutive: usize,
        skipped_paths: usize,
    },
    /// An open breaker's cooldown elapsed on the campaign clock; the
    /// runner admitted exactly one trial path for this destination.
    BreakerHalfOpen { server_id: u32 },
    /// The half-open trial succeeded: the breaker closed and the rest of
    /// the destination's paths were measured again.
    BreakerClosed { server_id: u32 },
}

impl std::fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignEvent::Retry { path_id, stage, attempt, delay_ms } => write!(
                f,
                "path {path_id}: {stage} failed, retry #{attempt} after {delay_ms:.0} ms"
            ),
            CampaignEvent::RetriesExhausted { path_id, stage, attempts } => {
                write!(f, "path {path_id}: {stage} failed all {attempts} attempts")
            }
            CampaignEvent::CircuitOpen { server_id, consecutive, skipped_paths } => write!(
                f,
                "destination {server_id}: breaker open after {consecutive} consecutive failures, {skipped_paths} paths skipped"
            ),
            CampaignEvent::BreakerHalfOpen { server_id } => write!(
                f,
                "destination {server_id}: breaker half-open, admitting one trial path"
            ),
            CampaignEvent::BreakerClosed { server_id } => write!(
                f,
                "destination {server_id}: trial path succeeded, breaker closed"
            ),
        }
    }
}

/// Condense a campaign's event stream into per-destination counts:
/// `(retries, exhausted, breaker trips)` — the shape an operator
/// dashboard would plot next to [`detect`]'s findings.
pub fn summarize_events(
    events: &[CampaignEvent],
) -> std::collections::BTreeMap<u32, (usize, usize, usize)> {
    let mut out: std::collections::BTreeMap<u32, (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for e in events {
        match e {
            CampaignEvent::Retry { path_id, .. } => {
                out.entry(path_id.server_id).or_default().0 += 1
            }
            CampaignEvent::RetriesExhausted { path_id, .. } => {
                out.entry(path_id.server_id).or_default().1 += 1
            }
            CampaignEvent::CircuitOpen { server_id, .. } => {
                out.entry(*server_id).or_default().2 += 1
            }
            // Half-open probes and closes mark recovery, not new damage;
            // they appear in the event stream but not in the damage
            // counts an operator alerts on.
            CampaignEvent::BreakerHalfOpen { server_id }
            | CampaignEvent::BreakerClosed { server_id } => {
                out.entry(*server_id).or_default();
            }
        }
    }
    out
}

/// What changed on a path.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// Recent mean latency deviates from the baseline mean by more than
    /// `threshold_sigmas` baseline standard deviations.
    LatencyShift {
        baseline_ms: f64,
        recent_ms: f64,
        sigmas: f64,
    },
    /// Baseline loss was below 1 %, recent loss reaches `LOSS_ONSET_PCT`.
    LossOnset { baseline_pct: f64, recent_pct: f64 },
    /// Every recent sample lost all probes.
    Blackout,
}

/// A flagged path.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthFinding {
    pub path_id: PathId,
    pub anomaly: Anomaly,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// How many of the newest samples form the "recent" window.
    pub recent_window: usize,
    /// Latency-shift threshold in baseline standard deviations.
    pub threshold_sigmas: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            recent_window: 3,
            threshold_sigmas: 4.0,
        }
    }
}

/// Minimum baseline samples required before judging a path.
const MIN_BASELINE: usize = 5;

/// Loss percentage that counts as an onset on a clean path.
const LOSS_ONSET_PCT: f64 = 10.0;

/// Scan one destination's measurement history for anomalies.
/// Measurements are already timestamp-ordered per path.
pub fn detect(
    db: &Database,
    server_id: u32,
    cfg: &HealthConfig,
) -> SuiteResult<Vec<HealthFinding>> {
    let grouped = measurements_by_path(db, server_id)?;
    let mut findings = Vec::new();
    for (&path_id, ms) in grouped.iter() {
        if ms.len() < MIN_BASELINE + cfg.recent_window {
            continue;
        }
        let (baseline, recent) = ms.split_at(ms.len() - cfg.recent_window);
        if let Some(anomaly) = judge(baseline, recent, cfg) {
            findings.push(HealthFinding { path_id, anomaly });
        }
    }
    Ok(findings)
}

fn judge(
    baseline: &[PathMeasurement],
    recent: &[PathMeasurement],
    cfg: &HealthConfig,
) -> Option<Anomaly> {
    // Blackout: all recent samples fully lost.
    if recent.iter().all(|m| m.loss_pct >= 100.0) {
        return Some(Anomaly::Blackout);
    }

    // Loss onset: clean baseline, lossy present.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let base_loss = mean(&baseline.iter().map(|m| m.loss_pct).collect::<Vec<_>>());
    let recent_loss = mean(&recent.iter().map(|m| m.loss_pct).collect::<Vec<_>>());
    if base_loss < 1.0 && recent_loss >= LOSS_ONSET_PCT {
        return Some(Anomaly::LossOnset {
            baseline_pct: base_loss,
            recent_pct: recent_loss,
        });
    }

    // Latency shift.
    let base_lat: Vec<f64> = baseline.iter().filter_map(|m| m.avg_latency_ms).collect();
    let recent_lat: Vec<f64> = recent.iter().filter_map(|m| m.avg_latency_ms).collect();
    if base_lat.len() >= MIN_BASELINE && !recent_lat.is_empty() {
        let bm = mean(&base_lat);
        let var = base_lat.iter().map(|x| (x - bm).powi(2)).sum::<f64>() / base_lat.len() as f64;
        // Floor the deviation so ultra-stable baselines don't flag noise.
        let sd = var.sqrt().max(bm * 0.01).max(0.1);
        let rm = mean(&recent_lat);
        let sigmas = (rm - bm).abs() / sd;
        if sigmas > cfg.threshold_sigmas {
            return Some(Anomaly::LatencyShift {
                baseline_ms: bm,
                recent_ms: rm,
                sigmas,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{StatId, PATHS_STATS};

    /// Insert a synthetic measurement history for path `1_0`.
    fn seed_history(db: &Database, latencies: &[f64], losses: &[f64]) {
        let handle = db.collection(PATHS_STATS);
        let mut coll = handle.write();
        for (i, (lat, loss)) in latencies.iter().zip(losses).enumerate() {
            let m = PathMeasurement {
                stat_id: StatId {
                    path: PathId {
                        server_id: 1,
                        path_index: 0,
                    },
                    timestamp_ms: (i as u64 + 1) * 1000,
                },
                isds: vec![16, 17],
                hops: 6,
                avg_latency_ms: (*loss < 100.0).then_some(*lat),
                jitter_ms: Some(0.3),
                loss_pct: *loss,
                bw_up_64: None,
                bw_down_64: None,
                bw_up_mtu: None,
                bw_down_mtu: None,
                target_mbps: 12.0,
                error: None,
            };
            coll.insert_one(m.to_doc()).unwrap();
        }
    }

    fn detect_one(db: &Database) -> Vec<HealthFinding> {
        detect(db, 1, &HealthConfig::default()).unwrap()
    }

    #[test]
    fn stable_path_is_clean() {
        let db = Database::new();
        let lat: Vec<f64> = (0..10).map(|i| 25.0 + (i % 3) as f64 * 0.3).collect();
        seed_history(&db, &lat, &[0.0; 10]);
        assert!(detect_one(&db).is_empty());
    }

    #[test]
    fn latency_shift_is_flagged() {
        let db = Database::new();
        let mut lat: Vec<f64> = (0..8).map(|i| 25.0 + (i % 3) as f64 * 0.5).collect();
        lat.extend([150.0, 152.0, 149.0]); // the path re-routed
        seed_history(&db, &lat, &[0.0; 11]);
        let findings = detect_one(&db);
        assert_eq!(findings.len(), 1);
        match &findings[0].anomaly {
            Anomaly::LatencyShift {
                baseline_ms,
                recent_ms,
                sigmas,
            } => {
                assert!((*baseline_ms - 25.5).abs() < 1.0);
                assert!(*recent_ms > 140.0);
                assert!(*sigmas > 4.0);
            }
            other => panic!("expected latency shift, got {other:?}"),
        }
    }

    #[test]
    fn loss_onset_is_flagged() {
        let db = Database::new();
        let lat = vec![25.0; 11];
        let mut losses = vec![0.0; 8];
        losses.extend([20.0, 23.3, 16.7]);
        seed_history(&db, &lat, &losses);
        let findings = detect_one(&db);
        assert_eq!(findings.len(), 1);
        assert!(matches!(findings[0].anomaly, Anomaly::LossOnset { .. }));
    }

    #[test]
    fn blackout_is_flagged() {
        let db = Database::new();
        let lat = vec![25.0; 11];
        let mut losses = vec![0.0; 8];
        losses.extend([100.0, 100.0, 100.0]);
        seed_history(&db, &lat, &losses);
        let findings = detect_one(&db);
        assert_eq!(findings.len(), 1);
        assert!(matches!(findings[0].anomaly, Anomaly::Blackout));
    }

    #[test]
    fn events_summarize_per_destination() {
        let pid = PathId {
            server_id: 4,
            path_index: 0,
        };
        let events = vec![
            CampaignEvent::Retry {
                path_id: pid,
                stage: "bwtest64",
                attempt: 1,
                delay_ms: 200.0,
            },
            CampaignEvent::Retry {
                path_id: pid,
                stage: "bwtest64",
                attempt: 2,
                delay_ms: 400.0,
            },
            CampaignEvent::RetriesExhausted {
                path_id: pid,
                stage: "bwtest64",
                attempts: 3,
            },
            CampaignEvent::CircuitOpen {
                server_id: 4,
                consecutive: 3,
                skipped_paths: 5,
            },
            CampaignEvent::Retry {
                path_id: PathId {
                    server_id: 9,
                    path_index: 2,
                },
                stage: "bwtestMTU",
                attempt: 1,
                delay_ms: 200.0,
            },
            // Breaker recovery transitions surface the destination but
            // add nothing to the damage counts.
            CampaignEvent::BreakerHalfOpen { server_id: 4 },
            CampaignEvent::BreakerClosed { server_id: 4 },
            CampaignEvent::BreakerHalfOpen { server_id: 11 },
        ];
        let summary = summarize_events(&events);
        assert_eq!(summary[&4], (2, 1, 1));
        assert_eq!(summary[&9], (1, 0, 0));
        assert_eq!(summary[&11], (0, 0, 0));
        // Every event renders a human-readable line.
        for e in &events {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn short_histories_are_skipped() {
        let db = Database::new();
        seed_history(&db, &[25.0, 900.0, 900.0], &[0.0, 0.0, 0.0]);
        assert!(detect_one(&db).is_empty(), "not enough baseline");
    }
}
