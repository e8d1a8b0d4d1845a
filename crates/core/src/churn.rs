//! Longitudinal path-churn analytics over pathdb rollups.
//!
//! §4.1.2's "continuous measurements require continuous functioning"
//! is only half the story of a longitudinal campaign: once the suite
//! has run for simulated weeks, the *interesting* questions are about
//! churn — how long does a path stay usable, how often do new paths
//! appear, does the best-ranked path survive from one hour to the
//! next? Raw rows are expired on a retention window, so these answers
//! come from the hourly rollup aggregates ([`pathdb::rollup`]), which
//! are kept forever and already grouped by `(server_id, path_id,
//! bucket)`.
//!
//! Everything here is a pure fold over `Vec<BucketAgg>`: deterministic
//! for a fixed rollup state, so a sequential and a `--parallel`
//! longitudinal run of the same seed render byte-identical reports.

use crate::analysis::percentile;
use pathdb::rollup::BucketAgg;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

const DAY_MS: i64 = 86_400_000;

/// Lifetime/appearance/stability statistics of one destination's
/// path set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DestChurn {
    pub server_id: i64,
    /// Distinct paths ever observed toward this destination.
    pub distinct_paths: usize,
    /// Mean number of live paths per occupied bucket.
    pub mean_paths_per_bucket: f64,
    /// Fraction of adjacent occupied-bucket pairs whose best path (by
    /// mean latency) is the same path — 1.0 means the ranking never
    /// flapped.
    pub ranking_stability: f64,
    /// Adjacent occupied-bucket pairs the stability is computed over.
    pub ranking_pairs: usize,
}

/// Churn analytics computed from hourly rollup aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Width of one rollup bucket, ms.
    pub bucket_ms: i64,
    /// Buckets between the first and last observed, inclusive.
    pub span_buckets: i64,
    /// Distinct `(server, path)` pairs observed.
    pub tracked_paths: usize,
    pub destinations: usize,
    /// Contiguous presence-run lengths in buckets, sorted ascending —
    /// the path lifetime distribution.
    pub lifetimes: Vec<i64>,
    /// Presence runs that began after the campaign's first bucket.
    pub appearances: u64,
    /// Presence runs that ended before the campaign's last bucket.
    pub disappearances: u64,
    pub appearance_rate_per_day: f64,
    pub disappearance_rate_per_day: f64,
    pub dests: Vec<DestChurn>,
}

impl ChurnReport {
    fn lifetime_p50(&self) -> i64 {
        let lifetimes: Vec<f64> = self.lifetimes.iter().map(|&l| l as f64).collect();
        percentile(&lifetimes, 0.50).map_or(0, |p| p as i64)
    }

    fn lifetime_max(&self) -> i64 {
        self.lifetimes.last().copied().unwrap_or(0)
    }

    fn mean_lifetime(&self) -> f64 {
        if self.lifetimes.is_empty() {
            0.0
        } else {
            self.lifetimes.iter().sum::<i64>() as f64 / self.lifetimes.len() as f64
        }
    }

    /// Stability across all destinations, pair-weighted.
    fn overall_stability(&self) -> f64 {
        let pairs: usize = self.dests.iter().map(|d| d.ranking_pairs).sum();
        if pairs == 0 {
            return 1.0;
        }
        let same: f64 = self
            .dests
            .iter()
            .map(|d| d.ranking_stability * d.ranking_pairs as f64)
            .sum();
        same / pairs as f64
    }

    pub(crate) fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("churn reports always serialize")
    }

    pub fn from_json_str(s: &str) -> Result<ChurnReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Deterministic text rendering — the determinism contract's
    /// comparison artifact, and the CLI's `report churn` body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Path churn ({} buckets of {} ms)",
            self.span_buckets, self.bucket_ms
        );
        let _ = writeln!(
            out,
            "  tracked {} paths toward {} destinations",
            self.tracked_paths, self.destinations
        );
        let _ = writeln!(
            out,
            "  lifetime buckets: mean {:.2}, p50 {}, max {}",
            self.mean_lifetime(),
            self.lifetime_p50(),
            self.lifetime_max()
        );
        let _ = writeln!(
            out,
            "  appearances {} ({:.3}/day), disappearances {} ({:.3}/day)",
            self.appearances,
            self.appearance_rate_per_day,
            self.disappearances,
            self.disappearance_rate_per_day
        );
        let _ = writeln!(out, "  ranking stability {:.4}", self.overall_stability());
        for d in &self.dests {
            let _ = writeln!(
                out,
                "  dest {:>3}: {} paths, {:.2}/bucket, stability {:.4} over {} pairs",
                d.server_id,
                d.distinct_paths,
                d.mean_paths_per_bucket,
                d.ranking_stability,
                d.ranking_pairs
            );
        }
        out
    }
}

/// `(server_id, path_id)` parsed out of a rollup group, skipping
/// malformed groups (foreign rollup configs).
fn path_key(agg: &BucketAgg) -> Option<(i64, String)> {
    let server = agg.group.first()?.as_int()?;
    let path = agg.group.get(1)?.as_str()?.to_string();
    Some((server, path))
}

/// Mean latency of a bucket's `avg_latency_ms` aggregate, if any row
/// carried one.
fn bucket_latency(agg: &BucketAgg) -> Option<f64> {
    agg.fields
        .iter()
        .find(|(name, _)| name == "avg_latency_ms")
        .and_then(|(_, f)| if f.n > 0 { Some(f.mean()) } else { None })
}

/// Fold rollup aggregates into a [`ChurnReport`].
///
/// Expects groups of shape `[server_id, path_id]` and an
/// `avg_latency_ms` field (the shape [`crate::schema::stats_rollup`]
/// produces); buckets with other shapes are ignored.
pub fn analyze(aggs: &[BucketAgg], bucket_ms: i64) -> ChurnReport {
    assert!(bucket_ms > 0, "bucket width must be positive");
    // (server, path) -> occupied bucket indexes.
    let mut presence: BTreeMap<(i64, String), BTreeSet<i64>> = BTreeMap::new();
    // (server, bucket) -> best (latency, path) so far.
    let mut best: BTreeMap<(i64, i64), (f64, String)> = BTreeMap::new();
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for agg in aggs {
        let Some((server, path)) = path_key(agg) else {
            continue;
        };
        let bucket = agg.bucket_start_ms.div_euclid(bucket_ms);
        lo = lo.min(bucket);
        hi = hi.max(bucket);
        presence
            .entry((server, path.clone()))
            .or_default()
            .insert(bucket);
        if let Some(lat) = bucket_latency(agg) {
            best.entry((server, bucket))
                .and_modify(|(cur, who)| {
                    // Tie-break on path id so the fold order never shows.
                    if lat < *cur || (lat == *cur && path < *who) {
                        *cur = lat;
                        *who = path.clone();
                    }
                })
                .or_insert_with(|| (lat, path.clone()));
        }
    }
    if presence.is_empty() {
        return ChurnReport {
            bucket_ms,
            span_buckets: 0,
            tracked_paths: 0,
            destinations: 0,
            lifetimes: Vec::new(),
            appearances: 0,
            disappearances: 0,
            appearance_rate_per_day: 0.0,
            disappearance_rate_per_day: 0.0,
            dests: Vec::new(),
        };
    }

    let span_buckets = hi - lo + 1;
    let span_days = (span_buckets * bucket_ms) as f64 / DAY_MS as f64;
    let mut lifetimes = Vec::new();
    let mut appearances = 0u64;
    let mut disappearances = 0u64;
    // server -> (paths, occupied-bucket multiset size, occupied buckets)
    let mut per_dest: BTreeMap<i64, (BTreeSet<String>, usize, BTreeSet<i64>)> = BTreeMap::new();
    for ((server, path), buckets) in &presence {
        let dest = per_dest.entry(*server).or_default();
        dest.0.insert(path.clone());
        dest.1 += buckets.len();
        dest.2.extend(buckets.iter().copied());
        // Contiguous runs of presence.
        let mut run_start = None;
        let mut prev = None;
        for &b in buckets {
            match prev {
                Some(p) if b == p + 1 => {}
                _ => {
                    if let (Some(s), Some(p)) = (run_start, prev) {
                        close_run(
                            s,
                            p,
                            lo,
                            hi,
                            &mut lifetimes,
                            &mut appearances,
                            &mut disappearances,
                        );
                    }
                    run_start = Some(b);
                }
            }
            prev = Some(b);
        }
        if let (Some(s), Some(p)) = (run_start, prev) {
            close_run(
                s,
                p,
                lo,
                hi,
                &mut lifetimes,
                &mut appearances,
                &mut disappearances,
            );
        }
    }
    lifetimes.sort_unstable();

    let dests = per_dest
        .iter()
        .map(|(server, (paths, occupied, buckets))| {
            // Ranking stability over adjacent occupied buckets.
            let mut pairs = 0usize;
            let mut same = 0usize;
            let ordered: Vec<i64> = buckets.iter().copied().collect();
            for w in ordered.windows(2) {
                if w[1] != w[0] + 1 {
                    continue; // a gap is not a ranking change
                }
                let (Some(a), Some(b)) = (best.get(&(*server, w[0])), best.get(&(*server, w[1])))
                else {
                    continue;
                };
                pairs += 1;
                if a.1 == b.1 {
                    same += 1;
                }
            }
            DestChurn {
                server_id: *server,
                distinct_paths: paths.len(),
                mean_paths_per_bucket: if buckets.is_empty() {
                    0.0
                } else {
                    *occupied as f64 / buckets.len() as f64
                },
                ranking_stability: if pairs == 0 {
                    1.0
                } else {
                    same as f64 / pairs as f64
                },
                ranking_pairs: pairs,
            }
        })
        .collect();

    ChurnReport {
        bucket_ms,
        span_buckets,
        tracked_paths: presence.len(),
        destinations: per_dest.len(),
        lifetimes,
        appearances,
        disappearances,
        appearance_rate_per_day: appearances as f64 / span_days,
        disappearance_rate_per_day: disappearances as f64 / span_days,
        dests,
    }
}

/// Book one finished presence run `[start, end]` within the global
/// span `[lo, hi]`.
fn close_run(
    start: i64,
    end: i64,
    lo: i64,
    hi: i64,
    lifetimes: &mut Vec<i64>,
    appearances: &mut u64,
    disappearances: &mut u64,
) {
    lifetimes.push(end - start + 1);
    if start > lo {
        *appearances += 1;
    }
    if end < hi {
        *disappearances += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdb::rollup::{fold_reference, RollupConfig};
    use pathdb::{doc, Document};

    fn cfg() -> RollupConfig {
        RollupConfig::hourly("paths_stats", "rollup_paths_stats")
    }

    fn row(server: i64, path: &str, hour: i64, lat: f64) -> Document {
        doc! {
            "_id" => format!("{server}/{path}/{hour}"),
            "server_id" => server,
            "path_id" => path,
            "timestamp_ms" => hour * 3_600_000,
            "avg_latency_ms" => lat,
            "loss_pct" => 0.0,
        }
    }

    fn report(rows: &[Document]) -> ChurnReport {
        analyze(&fold_reference(rows.iter(), &cfg()), 3_600_000)
    }

    #[test]
    fn stable_world_has_no_churn() {
        let mut rows = Vec::new();
        for h in 0..6 {
            rows.push(row(1, "a", h, 30.0));
            rows.push(row(1, "b", h, 50.0));
        }
        let r = report(&rows);
        assert_eq!(r.span_buckets, 6);
        assert_eq!(r.tracked_paths, 2);
        assert_eq!(r.destinations, 1);
        assert_eq!(r.lifetimes, vec![6, 6]);
        assert_eq!((r.appearances, r.disappearances), (0, 0));
        assert_eq!(r.overall_stability(), 1.0);
        assert_eq!(r.dests[0].distinct_paths, 2);
        assert_eq!(r.dests[0].mean_paths_per_bucket, 2.0);
    }

    #[test]
    fn a_path_outage_is_one_disappearance_and_one_appearance() {
        let mut rows = Vec::new();
        for h in 0..8 {
            rows.push(row(1, "a", h, 30.0));
            if !(3..=4).contains(&h) {
                rows.push(row(1, "b", h, 20.0));
            }
        }
        let r = report(&rows);
        // b: runs [0,2] and [5,7]; a: [0,7].
        assert_eq!(r.lifetimes, vec![3, 3, 8]);
        assert_eq!(r.appearances, 1);
        assert_eq!(r.disappearances, 1);
        // b is best when present; while it is out, a takes over — the
        // ranking flips at hours 2→3 and 4→5.
        let d = &r.dests[0];
        assert_eq!(d.ranking_pairs, 7);
        assert!((d.ranking_stability - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn rates_are_per_sim_day() {
        let mut rows = Vec::new();
        for h in 0..48 {
            rows.push(row(1, "a", h, 30.0));
        }
        rows.push(row(1, "late", 47, 10.0));
        let r = report(&rows);
        assert_eq!(r.appearances, 1);
        assert_eq!(r.span_buckets, 48);
        assert!((r.appearance_rate_per_day - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ranking_ties_break_deterministically() {
        let rows = vec![
            row(1, "z", 0, 25.0),
            row(1, "m", 0, 25.0),
            row(1, "m", 1, 25.0),
            row(1, "z", 1, 25.0),
        ];
        let r = report(&rows);
        // Same latency: the lexicographically-smaller path wins both
        // buckets regardless of fold order, so the ranking is stable.
        assert_eq!(r.dests[0].ranking_stability, 1.0);
    }

    #[test]
    fn report_json_roundtrips_and_render_is_stable() {
        let rows = vec![row(1, "a", 0, 30.0), row(2, "b", 1, 40.0)];
        let r = report(&rows);
        let back = ChurnReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.render(), r.render());
        assert!(r.render().contains("tracked 2 paths toward 2 destinations"));
    }

    #[test]
    fn empty_rollup_is_an_empty_report() {
        let r = analyze(&[], 3_600_000);
        assert_eq!(r.tracked_paths, 0);
        assert_eq!(r.overall_stability(), 1.0);
        assert!(r.render().contains("0 paths"));
    }
}
