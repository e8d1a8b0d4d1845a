//! Longitudinal campaigns: simulated multi-day measurement runs over
//! the rollup/retention/compaction machinery.
//!
//! "Continuous measurements require continuous functioning" (§4.1.2):
//! [`run_rounds`] is the one loop that re-measures on a period, and a
//! longitudinal run is that loop scaled from minutes to simulated days,
//! with the storage story the requirement actually needs at that
//! horizon: raw measurement rows live in a bounded retention
//! window, hourly rollups ([`crate::schema::stats_rollup`]) keep the
//! full history at constant-per-bucket cost, and sliced dirty-only
//! checkpoints keep both the on-disk footprint and the per-round
//! checkpoint cost proportional to the window — not to the campaign
//! length.
//!
//! Determinism: for a fixed network seed the report renders
//! byte-identical whether the per-round campaign runs sequentially or
//! `--parallel` (the runner commits per-destination outcomes in
//! destination order), which is what lets CI diff two runs.

use crate::churn::{analyze, ChurnReport};
use crate::config::SuiteConfig;
use crate::error::{SuiteError, SuiteResult};
use crate::measure::{run_tests, MeasureReport};
use crate::schema::{stats_rollup, PATHS_STATS, ROLLUP_PATHS_STATS};
use pathdb::rollup::read_rollup;
use pathdb::{Database, RetentionPolicy};
use scion_sim::chaos::ChaosSchedule;
use scion_sim::net::ScionNetwork;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

const DAY_MS: f64 = 86_400_000.0;
const HOUR_MS: f64 = 3_600_000.0;

/// Knobs of a longitudinal campaign.
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    /// Campaign parameters of each measurement round.
    pub campaign: SuiteConfig,
    /// Simulated days to run.
    pub sim_days: u32,
    /// Measurement rounds per simulated day, evenly spaced.
    pub rounds_per_day: u32,
    /// Raw-row retention window in simulated hours (rollups are kept
    /// forever regardless).
    pub retention_hours: f64,
    /// Optional chaos schedule installed on the network up front, so
    /// the run measures through outages/flaps (path churn!) instead of
    /// a static world.
    pub schedule: Option<ChaosSchedule>,
    /// Day (1-based) whose end-of-day disk footprint becomes the
    /// steady-state baseline the final footprint is compared against.
    pub disk_probe_day: u32,
}

impl Default for LongitudinalConfig {
    fn default() -> Self {
        LongitudinalConfig {
            campaign: SuiteConfig::default(),
            sim_days: 30,
            rounds_per_day: 4,
            retention_hours: 48.0,
            schedule: None,
            disk_probe_day: 5,
        }
    }
}

impl LongitudinalConfig {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.sim_days == 0 {
            return Err("sim_days must be at least 1".into());
        }
        if self.rounds_per_day == 0 {
            return Err("rounds_per_day must be at least 1".into());
        }
        if !self.retention_hours.is_finite() || self.retention_hours <= 0.0 {
            return Err(format!(
                "retention_hours must be positive, got {}",
                self.retention_hours
            ));
        }
        if self.disk_probe_day == 0 {
            return Err("disk_probe_day is 1-based".into());
        }
        Ok(())
    }
}

/// Storage and measurement counters of one simulated day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayStats {
    /// 1-based day number.
    pub day: u32,
    pub inserted: usize,
    pub errors: usize,
    /// Source rows folded into rollups during this day.
    pub folded: u64,
    /// Raw rows expired by retention during this day.
    pub expired: u64,
    /// Live raw rows at end of day.
    pub raw_rows: usize,
    /// Rollup rows (bucket aggregates + meta) at end of day.
    pub rollup_rows: usize,
    /// End-of-day `(files, bytes)` on storage; `None` for in-memory
    /// databases.
    pub disk: Option<(usize, u64)>,
}

/// Outcome of a longitudinal run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LongitudinalReport {
    pub sim_days: u32,
    pub rounds: u32,
    pub inserted_total: usize,
    pub expired_total: u64,
    pub days: Vec<DayStats>,
    /// End-of-day footprint of `disk_probe_day`, bytes.
    pub disk_probe_bytes: Option<u64>,
    /// Footprint after the final day, bytes.
    pub disk_final_bytes: Option<u64>,
    pub churn: ChurnReport,
}

impl LongitudinalReport {
    /// `final / probe` footprint ratio; `None` without a durable dir.
    /// The retention acceptance bound: a 30-day run must stay within a
    /// small constant of its 5-day prefix.
    fn disk_growth_ratio(&self) -> Option<f64> {
        match (self.disk_probe_bytes, self.disk_final_bytes) {
            (Some(probe), Some(fin)) if probe > 0 => Some(fin as f64 / probe as f64),
            _ => None,
        }
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("longitudinal reports always serialize")
    }

    pub fn from_json_str(s: &str) -> Result<LongitudinalReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Deterministic text rendering — byte-comparable across a
    /// sequential and a `--parallel` run of the same seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Longitudinal run: {} sim-days, {} rounds, {} rows inserted, {} expired",
            self.sim_days, self.rounds, self.inserted_total, self.expired_total
        );
        if let (Some(p), Some(f)) = (self.disk_probe_bytes, self.disk_final_bytes) {
            let _ = writeln!(
                out,
                "  disk: {} B at probe day, {} B final (x{:.2})",
                p,
                f,
                self.disk_growth_ratio().unwrap_or(0.0)
            );
        }
        for d in &self.days {
            let _ = writeln!(
                out,
                "  day {:>3}: +{} rows ({} errors), folded {}, expired {}, live {} raw / {} rollup",
                d.day, d.inserted, d.errors, d.folded, d.expired, d.raw_rows, d.rollup_rows
            );
        }
        out.push_str(&self.churn.render());
        out
    }
}

/// What one measurement round did.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Network-clock time the round started at.
    pub start_ms: f64,
    pub measured: MeasureReport,
    /// Source rows folded into the registered rollups.
    pub folded: u64,
    /// Raw rows expired by the registered retention policies.
    pub expired: u64,
}

/// Keep raw `paths_stats` rows for a sliding window of `keep_ms` on the
/// network clock; every round of [`run_rounds`] expires what fell
/// behind it.
pub fn retain_stats(db: &Database, keep_ms: i64) {
    db.set_retention(RetentionPolicy {
        collection: PATHS_STATS.into(),
        time_field: "timestamp_ms".into(),
        keep_ms,
    });
}

/// Continuous operation (§4.1.2): `rounds` measurement rounds, one per
/// `period_ms` of the network clock. After each campaign the rollups
/// registered on `db` catch up, its retention policies expire rows
/// behind their window (both no-ops with nothing registered) and a
/// durable database checkpoints, so a crash costs at most the round in
/// flight; the rest of the period is slept out. A round that outlasts
/// the period is followed by the next one back-to-back.
pub fn run_rounds(
    db: &Database,
    net: &ScionNetwork,
    campaign: &SuiteConfig,
    period_ms: f64,
    rounds: u32,
) -> SuiteResult<Vec<Round>> {
    let mut out = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let start_ms = net.now_ms();
        let measured = run_tests(db, net, campaign)?;
        let folded = db.rollup_catch_up()?;
        let expired = db.expire_retention(net.now_ms() as i64)?;
        db.checkpoint_if_durable()?;
        let next = start_ms + period_ms;
        if net.now_ms() < next {
            net.advance_ms(next - net.now_ms());
        }
        out.push(Round {
            start_ms,
            measured,
            folded,
            expired,
        });
    }
    Ok(out)
}

/// Run a longitudinal campaign against the paths currently stored.
///
/// Registers the canonical stats rollup and the raw-row retention
/// policy on `db`, installs `cfg.schedule` on `net` when given, then
/// drives `sim_days × rounds_per_day` rounds of [`run_rounds`] on the
/// simulated clock, grouped by day — the same cadence a deployed suite
/// would use, so the reported disk footprint is the real steady state.
pub fn run_longitudinal(
    db: &Database,
    net: &ScionNetwork,
    cfg: &LongitudinalConfig,
) -> SuiteResult<LongitudinalReport> {
    cfg.validate().map_err(SuiteError::InvalidRequest)?;
    db.register_rollup(stats_rollup());
    retain_stats(db, (cfg.retention_hours * HOUR_MS) as i64);
    if let Some(schedule) = &cfg.schedule {
        net.install_chaos(schedule)
            .map_err(|e| SuiteError::Campaign(format!("chaos schedule rejected: {e}")))?;
    }

    let round_ms = DAY_MS / cfg.rounds_per_day as f64;
    let mut days = Vec::with_capacity(cfg.sim_days as usize);
    for day in 1..=cfg.sim_days {
        let rounds = run_rounds(db, net, &cfg.campaign, round_ms, cfg.rounds_per_day)?;
        days.push(DayStats {
            day,
            inserted: rounds.iter().map(|r| r.measured.inserted).sum(),
            errors: rounds.iter().map(|r| r.measured.errors).sum(),
            folded: rounds.iter().map(|r| r.folded).sum(),
            expired: rounds.iter().map(|r| r.expired).sum(),
            raw_rows: db.collection(PATHS_STATS).read().len(),
            rollup_rows: db.collection(ROLLUP_PATHS_STATS).read().len(),
            disk: db.disk_usage(),
        });
    }

    let rollup = stats_rollup();
    let churn = analyze(&read_rollup(db, &rollup), rollup.bucket_ms);
    let probe = days
        .get(cfg.disk_probe_day.min(cfg.sim_days) as usize - 1)
        .and_then(|d| d.disk.map(|(_, b)| b));
    let fin = days.last().and_then(|d| d.disk.map(|(_, b)| b));
    Ok(LongitudinalReport {
        sim_days: cfg.sim_days,
        rounds: cfg.sim_days * cfg.rounds_per_day,
        inserted_total: days.iter().map(|d| d.inserted).sum(),
        expired_total: days.iter().map(|d| d.expired).sum(),
        days,
        disk_probe_bytes: probe,
        disk_final_bytes: fin,
        churn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use pathdb::database::OpenOptions;
    use pathdb::{Durability, FaultyStorage};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn campaign() -> SuiteConfig {
        SuiteConfig {
            iterations: 1,
            some_only: true,
            ping_count: 3,
            run_bwtests: false,
            skip_collection: true,
            ..SuiteConfig::default()
        }
    }

    fn setup(db: &Database) -> ScionNetwork {
        let net = ScionNetwork::scionlab(33);
        register_available_servers(db, &net).unwrap();
        collect_paths(db, &net, &campaign()).unwrap();
        net
    }

    fn short(parallel: bool) -> LongitudinalConfig {
        let mut campaign = campaign();
        campaign.workers = if parallel { 3 } else { 1 };
        LongitudinalConfig {
            campaign,
            sim_days: 3,
            rounds_per_day: 3,
            retention_hours: 10.0,
            schedule: Some(ChaosSchedule::new(7, 3.0 * 86_400_000.0)),
            disk_probe_day: 2,
        }
    }

    #[test]
    fn rounds_run_one_period_apart() {
        let db = Database::new();
        let net = setup(&db);
        let rounds = run_rounds(&db, &net, &campaign(), 600_000.0, 3).unwrap();
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.expired == 0 && r.folded == 0));
        // Rounds are shorter than the period, so starts are one apart.
        for w in rounds.windows(2) {
            let gap = w[1].start_ms - w[0].start_ms;
            assert!((gap - 600_000.0).abs() < 1.0, "{gap}");
        }
        let n_paths = crate::measure::paths_of(&db, 1).unwrap().len();
        let inserted: usize = rounds.iter().map(|r| r.measured.inserted).sum();
        assert_eq!(inserted, 3 * n_paths);
        assert_eq!(db.collection(PATHS_STATS).read().len(), 3 * n_paths);
    }

    #[test]
    fn retention_keeps_a_sliding_window() {
        let db = Database::new();
        let net = setup(&db);
        // A bit over one period: after each round only the latest two
        // rounds' samples survive.
        retain_stats(&db, 700_000);
        let rounds = run_rounds(&db, &net, &campaign(), 600_000.0, 5).unwrap();
        let n_paths = crate::measure::paths_of(&db, 1).unwrap().len();
        let expired: u64 = rounds.iter().map(|r| r.expired).sum();
        assert!(expired >= 3 * n_paths as u64, "expired {expired}");
        let remaining = db.collection(PATHS_STATS).read().len();
        assert!(remaining <= 2 * n_paths, "window bounded: {remaining}");
        assert!(remaining >= n_paths, "latest round retained: {remaining}");
        // Everything left is fresh.
        let cutoff = net.now_ms() - 700_000.0 - 600_000.0;
        let stale = pathdb::Filter::lt("timestamp_ms", cutoff);
        assert_eq!(db.collection(PATHS_STATS).read().query(stale).count(), 0);
    }

    #[test]
    fn rounds_run_back_to_back_when_the_period_is_shorter_than_a_round() {
        let db = Database::new();
        let net = setup(&db);
        let rounds = run_rounds(&db, &net, &campaign(), 1.0, 2).unwrap();
        assert!(rounds[1].start_ms > rounds[0].start_ms + 1.0);
    }

    #[test]
    fn retention_bounds_raw_rows_while_rollups_accumulate() {
        let db = Database::new();
        let net = setup(&db);
        let report = run_longitudinal(&db, &net, &short(false)).unwrap();
        assert_eq!(report.rounds, 9);
        assert!(report.inserted_total > 0);
        // The retention window (10 h) is shorter than a day: rows must
        // have expired, and the live set must stay well under the total.
        assert!(report.expired_total > 0, "{report:?}");
        let last = report.days.last().unwrap();
        assert!(last.raw_rows < report.inserted_total);
        // Rollups cover the whole campaign (one bucket per active hour)
        // even though the raw rows behind them are gone.
        assert!(
            report.churn.span_buckets >= 48,
            "{}",
            report.churn.span_buckets
        );
        assert_eq!(report.churn.destinations as u64, {
            let served: std::collections::BTreeSet<i64> =
                report.churn.dests.iter().map(|d| d.server_id).collect();
            served.len() as u64
        });
        // Every inserted row was folded exactly once.
        let folded: u64 = report.days.iter().map(|d| d.folded).sum();
        assert_eq!(folded, report.inserted_total as u64);
    }

    #[test]
    fn same_seed_runs_render_identically_sequential_and_parallel() {
        let run = |parallel: bool| {
            let db = Database::new();
            let net = setup(&db);
            run_longitudinal(&db, &net, &short(parallel)).unwrap()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.churn.to_json_string(), b.churn.to_json_string());
    }

    #[test]
    fn durable_runs_report_a_bounded_disk_footprint() {
        let storage = FaultyStorage::new();
        let (db, _) = Database::open_durable_with(
            PathBuf::from("/db"),
            OpenOptions::new(Durability::Snapshot).with_storage(Arc::new(storage)),
        )
        .unwrap();
        let net = setup(&db);
        let mut cfg = short(false);
        cfg.sim_days = 6;
        cfg.retention_hours = 12.0;
        cfg.disk_probe_day = 2;
        let report = run_longitudinal(&db, &net, &cfg).unwrap();
        let ratio = report
            .disk_growth_ratio()
            .expect("durable run reports disk");
        // Raw rows are windowed and rollups are tiny: the steady-state
        // footprint must not grow linearly with campaign length.
        assert!(ratio < 2.0, "disk grew {ratio}x: {report:?}");
        assert!(report.render().contains("disk:"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = LongitudinalConfig::default;
        let bad = [
            LongitudinalConfig {
                sim_days: 0,
                ..base()
            },
            LongitudinalConfig {
                retention_hours: 0.0,
                ..base()
            },
            LongitudinalConfig {
                rounds_per_day: 0,
                ..base()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }
}
