//! Statistical analysis over the measurement database: the data behind
//! every figure of the paper's §6.
//!
//! Each function returns the plotted series as plain data; rendering to
//! text lives in [`crate::report`], and the benches under `crates/bench`
//! regenerate the figures end to end.

use crate::error::{SuiteError, SuiteResult};
use crate::schema::{self, PathId, PathMeasurement, PATHS, PATHS_STATS};
use pathdb::{Database, Filter, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Five-number summary plus mean/std — one whisker of a box plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Whisker {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
    pub std: f64,
}

impl Whisker {
    /// Compute from raw samples; `None` when empty. Quartiles use linear
    /// interpolation (the common "type 7" estimator).
    pub fn from_samples(samples: &[f64]) -> Option<Whisker> {
        if samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Some(Whisker {
            n,
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[n - 1],
            mean,
            std: var.sqrt(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolation quantile over a sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

// ---- Fig. 4: server reachability -----------------------------------------

/// The reachability histogram: destinations per minimum hop count.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachabilityHistogram {
    /// min-hop count → number of destinations.
    pub bins: BTreeMap<usize, usize>,
    pub destinations: usize,
    pub mean_min_hops: f64,
}

impl ReachabilityHistogram {
    /// Fraction of destinations reachable within `hops` hops.
    pub fn frac_within(&self, hops: usize) -> f64 {
        if self.destinations == 0 {
            return 0.0;
        }
        let within: usize = self
            .bins
            .iter()
            .filter(|(h, _)| **h <= hops)
            .map(|(_, c)| c)
            .sum();
        within as f64 / self.destinations as f64
    }
}

/// Compute Fig. 4 from the stored `paths` collection: the minimum hop
/// count per destination.
pub fn reachability(db: &Database) -> SuiteResult<ReachabilityHistogram> {
    let dests = crate::collect::destinations(db)?;
    let handle = db.collection(PATHS);
    let coll = handle.read();
    let mut bins: BTreeMap<usize, usize> = BTreeMap::new();
    let mut sum = 0usize;
    let mut reachable = 0usize;
    for (server_id, _) in dests {
        let docs = coll.query(Filter::eq("server_id", server_id as i64)).run();
        let min = docs
            .iter()
            .filter_map(|d| d.get("hops").and_then(Value::as_int))
            .min();
        if let Some(min) = min {
            *bins.entry(min as usize).or_insert(0) += 1;
            sum += min as usize;
            reachable += 1;
        }
    }
    Ok(ReachabilityHistogram {
        bins,
        destinations: reachable,
        mean_min_hops: if reachable == 0 {
            0.0
        } else {
            sum as f64 / reachable as f64
        },
    })
}

// ---- Fig. 5: per-path latency ---------------------------------------------

/// One box of Fig. 5: the latency distribution of a single path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLatency {
    pub path_id: PathId,
    pub hops: usize,
    pub whisker: Whisker,
}

/// Latency whiskers per path for one destination, ordered by path index
/// (the x-axis of Fig. 5). Paths with no successful probe are omitted.
pub fn latency_by_path(db: &Database, server_id: u32) -> SuiteResult<Vec<PathLatency>> {
    let grouped = measurements_by_path(db, server_id)?;
    let mut out = Vec::new();
    for (&path_id, ms) in grouped.iter() {
        let samples: Vec<f64> = ms.iter().filter_map(|m| m.avg_latency_ms).collect();
        let hops = ms.first().map(|m| m.hops).unwrap_or(0);
        if let Some(whisker) = Whisker::from_samples(&samples) {
            out.push(PathLatency {
                path_id,
                hops,
                whisker,
            });
        }
    }
    Ok(out)
}

/// Distinct latency "layers": cluster the per-path mean latencies with a
/// relative gap threshold. The paper observes three layers for the
/// Ireland destination (EU-only, Ohio/US detours, Singapore detours).
pub fn latency_layers(paths: &[PathLatency], gap_ratio: f64) -> Vec<Vec<PathId>> {
    let mut means: Vec<(f64, PathId)> = paths.iter().map(|p| (p.whisker.mean, p.path_id)).collect();
    means.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let mut layers: Vec<Vec<PathId>> = Vec::new();
    let mut last: Option<f64> = None;
    for (mean, id) in means {
        match last {
            Some(prev) if mean <= prev * (1.0 + gap_ratio) => {
                layers.last_mut().expect("layer exists").push(id);
            }
            _ => layers.push(vec![id]),
        }
        last = Some(mean);
    }
    layers
}

// ---- Fig. 6: latency by ISD set × hop count --------------------------------

/// One column of Fig. 6: all measurements of paths sharing an ISD set
/// and a hop count.
#[derive(Debug, Clone, PartialEq)]
pub struct IsdSetLatency {
    pub isds: Vec<u16>,
    pub hops: usize,
    pub paths: usize,
    pub whisker: Whisker,
}

/// Group latency by (ISD set, hop count) for one destination.
/// `exclude_ases` drops paths traversing any of the given ASes — the
/// paper's right-hand plot removes the long-distance ASes
/// `16-ffaa:0:1004` (Singapore) and `16-ffaa:0:1007` (Ohio).
pub fn latency_by_isd_set(
    db: &Database,
    server_id: u32,
    exclude_ases: &[&str],
) -> SuiteResult<Vec<IsdSetLatency>> {
    let ases_of = path_ases(db, server_id)?;
    let grouped = measurements_by_path(db, server_id)?;
    let mut columns: BTreeMap<(Vec<u16>, usize), (Vec<f64>, usize)> = BTreeMap::new();
    for (path_id, ms) in grouped.iter() {
        if let Some(ases) = ases_of.get(path_id) {
            if exclude_ases.iter().any(|x| ases.iter().any(|a| a == x)) {
                continue;
            }
        }
        let samples: Vec<f64> = ms.iter().filter_map(|m| m.avg_latency_ms).collect();
        if samples.is_empty() {
            continue;
        }
        let key = (ms[0].isds.clone(), ms[0].hops);
        let entry = columns.entry(key).or_default();
        entry.0.extend(samples);
        entry.1 += 1;
    }
    Ok(columns
        .into_iter()
        .filter_map(|((isds, hops), (samples, paths))| {
            Whisker::from_samples(&samples).map(|whisker| IsdSetLatency {
                isds,
                hops,
                paths,
                whisker,
            })
        })
        .collect())
}

// ---- Figs. 7/8: bandwidth per path -----------------------------------------

/// One x-position of Figs. 7/8: the four bandwidth whiskers of a path
/// (upstream/downstream × 64 B/MTU).
#[derive(Debug, Clone, PartialEq)]
pub struct PathBandwidth {
    pub path_id: PathId,
    pub up_64: Option<Whisker>,
    pub up_mtu: Option<Whisker>,
    pub down_64: Option<Whisker>,
    pub down_mtu: Option<Whisker>,
}

/// Bandwidth whiskers per path for one destination at one target rate.
pub fn bandwidth_by_path(
    db: &Database,
    server_id: u32,
    target_mbps: f64,
) -> SuiteResult<Vec<PathBandwidth>> {
    let grouped = measurements_by_path(db, server_id)?;
    let mut out = Vec::new();
    for (&path_id, ms) in grouped.iter() {
        let at_target: Vec<&PathMeasurement> = ms
            .iter()
            .filter(|m| (m.target_mbps - target_mbps).abs() < 1e-9)
            .collect();
        if at_target.is_empty() {
            continue;
        }
        let collect = |f: fn(&PathMeasurement) -> Option<f64>| {
            let v: Vec<f64> = at_target.iter().filter_map(|m| f(m)).collect();
            Whisker::from_samples(&v)
        };
        out.push(PathBandwidth {
            path_id,
            up_64: collect(|m| m.bw_up_64),
            up_mtu: collect(|m| m.bw_up_mtu),
            down_64: collect(|m| m.bw_down_64),
            down_mtu: collect(|m| m.bw_down_mtu),
        });
    }
    Ok(out)
}

// ---- Fig. 9: packet loss per path -------------------------------------------

/// One path's loss dots: (loss percentage, number of measurements at
/// that loss). Dot size in the paper encodes the count.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLoss {
    pub path_id: PathId,
    /// (loss_pct rounded to 1 decimal, sample count), ascending.
    pub points: Vec<(f64, usize)>,
}

impl PathLoss {
    /// Mean loss across all samples.
    pub fn mean_loss(&self) -> f64 {
        let total: usize = self.points.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        self.points.iter().map(|(l, c)| l * *c as f64).sum::<f64>() / total as f64
    }

    /// Whether every sample was a full blackout.
    pub fn total_blackout(&self) -> bool {
        self.points.len() == 1 && self.points[0].0 >= 100.0
    }
}

/// Loss dots per path for one destination (Fig. 9's series).
pub fn loss_by_path(db: &Database, server_id: u32) -> SuiteResult<Vec<PathLoss>> {
    let grouped = measurements_by_path(db, server_id)?;
    let mut out = Vec::new();
    for (&path_id, ms) in grouped.iter() {
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for m in ms {
            // Dots are grouped at 0.1 % resolution, like the figure.
            let key = (m.loss_pct * 10.0).round() as i64;
            *counts.entry(key).or_insert(0) += 1;
        }
        out.push(PathLoss {
            path_id,
            points: counts
                .into_iter()
                .map(|(k, c)| (k as f64 / 10.0, c))
                .collect(),
        });
    }
    Ok(out)
}

// ---- §6.1's thesis, quantified ---------------------------------------------

/// Correlation of per-path mean latency against geographic length and
/// against hop count — the paper's conclusion ("latency is affected
/// mostly by the physical distance among the nodes building the path,
/// rather than the number of hops or the ISDs traversed") as numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationReport {
    /// Pearson r of mean latency vs summed great-circle path length.
    pub r_distance: f64,
    /// Pearson r of mean latency vs hop count.
    pub r_hops: f64,
    /// Paths contributing to the estimate.
    pub paths: usize,
}

/// Pearson correlation coefficient; `None` when either series is
/// degenerate (fewer than two points or zero variance).
fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Geographic length of a stored path: the sum of great-circle
/// distances between consecutive on-path ASes, in km.
fn path_distance_km(net: &scion_sim::net::ScionNetwork, sequence: &str) -> Option<f64> {
    let path = scion_sim::path::ScionPath::from_sequence(sequence).ok()?;
    let topo = net.topology();
    let mut total = 0.0;
    for pair in path.hops.windows(2) {
        let a = topo.node(topo.index_of(pair[0].ia)?).location.clone();
        let b = topo.node(topo.index_of(pair[1].ia)?).location.clone();
        total += a.distance_km(&b);
    }
    Some(total)
}

/// Compute the latency/distance/hops correlations for one destination.
pub fn distance_correlation(
    db: &Database,
    net: &scion_sim::net::ScionNetwork,
    server_id: u32,
) -> SuiteResult<CorrelationReport> {
    let latencies = latency_by_path(db, server_id)?;
    let handle = db.collection(PATHS);
    let coll = handle.read();
    let mut lat = Vec::new();
    let mut dist = Vec::new();
    let mut hops = Vec::new();
    for p in &latencies {
        let Some(doc) = coll.find_by_id(p.path_id.to_string()) else {
            continue;
        };
        let Some(seq) = doc.get("sequence").and_then(Value::as_str) else {
            continue;
        };
        let Some(km) = path_distance_km(net, seq) else {
            continue;
        };
        lat.push(p.whisker.mean);
        dist.push(km);
        hops.push(p.hops as f64);
    }
    Ok(CorrelationReport {
        r_distance: pearson(&lat, &dist).unwrap_or(0.0),
        r_hops: pearson(&lat, &hops).unwrap_or(0.0),
        paths: lat.len(),
    })
}

// ---- campaign summary ---------------------------------------------------------

/// The §6 scalar claims in one struct.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    pub destinations: usize,
    pub samples: usize,
    pub mean_min_hops: f64,
    pub frac_within_6: f64,
}

/// Summarize the whole campaign.
pub fn summary(db: &Database) -> SuiteResult<CampaignSummary> {
    let hist = reachability(db)?;
    let samples = db.collection(PATHS_STATS).read().len();
    Ok(CampaignSummary {
        destinations: hist.destinations,
        samples,
        mean_min_hops: hist.mean_min_hops,
        frac_within_6: hist.frac_within(6),
    })
}

// ---- shared helpers --------------------------------------------------------

/// All measurements of one destination, grouped by path and ordered by
/// path index then timestamp.
///
/// Served from [`crate::statcache`]: repeated calls on an unchanged
/// database share one `Arc`, and append-only campaigns pay only for the
/// rows added since the previous call.
pub fn measurements_by_path(
    db: &Database,
    server_id: u32,
) -> SuiteResult<Arc<BTreeMap<PathId, Vec<PathMeasurement>>>> {
    crate::statcache::grouped_measurements(db, server_id)
}

/// The AS strings of each stored path of a destination.
fn path_ases(db: &Database, server_id: u32) -> SuiteResult<BTreeMap<PathId, Vec<String>>> {
    let handle = db.collection(PATHS);
    let coll = handle.read();
    let mut out = BTreeMap::new();
    for d in coll.query(Filter::eq("server_id", server_id as i64)).run() {
        let (id, _, _) = schema::parse_path_doc(&d)?;
        let ases = match d.get("ases") {
            Some(Value::Array(a)) => a
                .iter()
                .filter_map(Value::as_str)
                .map(String::from)
                .collect(),
            _ => Vec::new(),
        };
        out.insert(id, ases);
    }
    Ok(out)
}

/// Convenience: the server id registered for an address.
pub fn server_id_of(db: &Database, addr: scion_sim::addr::ScionAddr) -> SuiteResult<u32> {
    crate::collect::destinations(db)?
        .into_iter()
        .find(|(_, a)| *a == addr)
        .map(|(id, _)| id)
        .ok_or_else(|| SuiteError::NoCandidates(format!("{addr} not in availableServers")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whisker_five_numbers() {
        let w = Whisker::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(w.n, 5);
        assert_eq!(w.min, 1.0);
        assert_eq!(w.q1, 2.0);
        assert_eq!(w.median, 3.0);
        assert_eq!(w.q3, 4.0);
        assert_eq!(w.max, 5.0);
        assert_eq!(w.mean, 3.0);
        assert!((w.std - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(w.iqr(), 2.0);
    }

    #[test]
    fn whisker_invariants_hold() {
        let w = Whisker::from_samples(&[7.5]).unwrap();
        assert_eq!(w.min, w.max);
        assert_eq!(w.median, 7.5);
        assert!(Whisker::from_samples(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn layers_cluster_by_relative_gap() {
        fn pl(id: u32, mean: f64) -> PathLatency {
            PathLatency {
                path_id: PathId {
                    server_id: 1,
                    path_index: id,
                },
                hops: 6,
                whisker: Whisker {
                    n: 1,
                    min: mean,
                    q1: mean,
                    median: mean,
                    q3: mean,
                    max: mean,
                    mean,
                    std: 0.0,
                },
            }
        }
        let paths = vec![
            pl(0, 28.0),
            pl(1, 30.0),
            pl(2, 155.0),
            pl(3, 160.0),
            pl(4, 270.0),
        ];
        let layers = latency_layers(&paths, 0.3);
        assert_eq!(layers.len(), 3, "{layers:?}");
        assert_eq!(layers[0].len(), 2);
        assert_eq!(layers[1].len(), 2);
        assert_eq!(layers[2].len(), 1);
    }

    #[test]
    fn pearson_basics() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]), None, "zero variance");
        assert_eq!(pearson(&[1.0], &[2.0]), None, "too few points");
        assert_eq!(pearson(&x, &x[..2]), None, "length mismatch");
    }

    #[test]
    fn loss_points_aggregate_counts() {
        let loss = PathLoss {
            path_id: PathId {
                server_id: 2,
                path_index: 16,
            },
            points: vec![(100.0, 5)],
        };
        assert!(loss.total_blackout());
        assert_eq!(loss.mean_loss(), 100.0);
        let mixed = PathLoss {
            path_id: loss.path_id,
            points: vec![(0.0, 8), (10.0, 2)],
        };
        assert!(!mixed.total_blackout());
        assert!((mixed.mean_loss() - 2.0).abs() < 1e-12);
    }
}
