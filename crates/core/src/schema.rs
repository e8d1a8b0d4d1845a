//! Database schema: the three collections of the paper's Fig. 3 and the
//! composite-id codecs (`"2_15"`, `"2_15_<timestamp>"`).

use crate::error::{SuiteError, SuiteResult};
use pathdb::{doc, Database, Document, RowRef, ValueRef};
use scion_sim::addr::ScionAddr;
use scion_sim::path::ScionPath;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Collection holding the testable destinations (21 in the paper).
pub const AVAILABLE_SERVERS: &str = "availableServers";
/// Collection holding discovered paths per destination.
pub const PATHS: &str = "paths";
/// Collection holding per-measurement statistics.
pub const PATHS_STATS: &str = "paths_stats";
/// Collection holding the latest [`crate::axioms`] strategy scorecards
/// (one document per registered strategy, `_id` = strategy name).
pub(crate) const STRATEGY_SCORECARDS: &str = "strategy_scorecards";
/// Collection holding the hourly measurement rollups that outlive the
/// raw-row retention window (see [`stats_rollup`]).
pub const ROLLUP_PATHS_STATS: &str = "rollup_paths_stats";

/// The canonical rollup of `paths_stats`: hourly buckets per
/// `(server_id, path_id)` over latency, jitter and loss — the input of
/// [`crate::churn`] and the longitudinal dataset export.
pub fn stats_rollup() -> pathdb::RollupConfig {
    pathdb::RollupConfig::hourly(PATHS_STATS, ROLLUP_PATHS_STATS)
}

/// Identifier of a path: destination server id plus a progressive path
/// number (`"2_15"` = path 15 of destination 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathId {
    pub server_id: u32,
    pub path_index: u32,
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.server_id, self.path_index)
    }
}

impl FromStr for PathId {
    type Err = SuiteError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, b) = s
            .split_once('_')
            .ok_or_else(|| SuiteError::Schema(format!("bad path id {s:?}")))?;
        let parse = |t: &str| {
            t.parse::<u32>()
                .map_err(|_| SuiteError::Schema(format!("bad path id {s:?}")))
        };
        Ok(PathId {
            server_id: parse(a)?,
            path_index: parse(b)?,
        })
    }
}

/// Identifier of one measurement: path id plus the measurement timestamp
/// in network-clock milliseconds (`"2_15_1699000000"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatId {
    pub path: PathId,
    pub timestamp_ms: u64,
}

impl fmt::Display for StatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.path, self.timestamp_ms)
    }
}

impl FromStr for StatId {
    type Err = SuiteError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '_');
        let (a, b, c) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(c)) => (a, b, c),
            _ => return Err(SuiteError::Schema(format!("bad stat id {s:?}"))),
        };
        let path: PathId = format!("{a}_{b}").parse()?;
        let timestamp_ms = c
            .parse::<u64>()
            .map_err(|_| SuiteError::Schema(format!("bad stat id {s:?}")))?;
        Ok(StatId { path, timestamp_ms })
    }
}

/// Create the secondary indexes the suite's own filters read, and no
/// others: an index no query plans through costs every insert a key
/// and every row its memory. Each field and its reader:
///
/// * `paths_stats.server_id` — the stats cache groups a destination's
///   rows (`eq`, [`crate::statcache`]);
/// * `paths_stats.timestamp_ms` — retention expiry range-deletes
///   behind the longitudinal clock (`lt`, `Database::expire_retention`);
/// * `paths.server_id` — collection, measurement, selection and the
///   analyses read one destination's paths (`eq`);
/// * `paths.hops` — the selection engine's hop limit (`lte`,
///   `Constraints::to_filter`);
/// * `paths.status` — its alive-only constraint (`eq`, same filter).
///
/// Idempotent — pathdb's `create_index` is a no-op for an existing
/// index. A checkpoint records the indexes in the manifest, so a
/// reopened directory (`upin serve --db DIR`) has them without this.
pub(crate) fn ensure_indexes(db: &Database) {
    for (name, fields) in [
        (PATHS_STATS, &["server_id", "timestamp_ms"][..]),
        (PATHS, &["server_id", "hops", "status"]),
    ] {
        let handle = db.collection(name);
        let mut coll = handle.write();
        for field in fields {
            coll.create_index(field);
        }
    }
}

// ---- availableServers ---------------------------------------------------

/// Build an `availableServers` document.
pub(crate) fn server_doc(server_id: u32, addr: ScionAddr, name: &str) -> Document {
    doc! {
        "_id" => server_id.to_string(),
        "address" => addr.to_string(),
        "name" => name,
    }
}

/// Decode an `availableServers` document.
pub(crate) fn parse_server_doc<'a>(d: impl Into<RowRef<'a>>) -> SuiteResult<(u32, ScionAddr)> {
    let d = d.into();
    let id: u32 = d
        .id()
        .ok_or_else(|| SuiteError::Schema("server doc without _id".into()))?
        .parse()
        .map_err(|_| SuiteError::Schema("non-integer server id".into()))?;
    let addr: ScionAddr = d
        .get("address")
        .and_then(ValueRef::as_str)
        .ok_or_else(|| SuiteError::Schema("server doc without address".into()))?
        .parse()
        .map_err(|e| SuiteError::Schema(format!("bad server address: {e}")))?;
    Ok((id, addr))
}

// ---- paths ----------------------------------------------------------------

/// Build a `paths` document from a discovered path plus the per-hop
/// metadata the selection engine filters on (countries, operators).
pub(crate) fn path_doc(
    id: PathId,
    path: &ScionPath,
    countries: Vec<String>,
    operators: Vec<String>,
) -> Document {
    doc! {
        "_id" => id.to_string(),
        "server_id" => id.server_id as i64,
        "path_index" => id.path_index as i64,
        "sequence" => path.sequence(),
        "hops" => path.hop_count() as i64,
        "mtu" => path.mtu as i64,
        "expected_latency_ms" => path.expected_latency_ms,
        "status" => path.status.to_string(),
        "isds" => path.isd_set().into_iter().map(|i| i as i64).collect::<Vec<i64>>(),
        "ases" => path.hops.iter().map(|h| h.ia.to_string()).collect::<Vec<String>>(),
        "countries" => countries,
        "operators" => operators,
    }
}

/// Decode the essentials of a `paths` document.
pub(crate) fn parse_path_doc<'a>(d: impl Into<RowRef<'a>>) -> SuiteResult<(PathId, String, usize)> {
    let d = d.into();
    let id: PathId = d
        .id()
        .ok_or_else(|| SuiteError::Schema("path doc without _id".into()))?
        .parse()?;
    let seq = d
        .get("sequence")
        .and_then(ValueRef::as_str)
        .ok_or_else(|| SuiteError::Schema("path doc without sequence".into()))?
        .to_string();
    let hops = d
        .get("hops")
        .and_then(ValueRef::as_int)
        .ok_or_else(|| SuiteError::Schema("path doc without hops".into()))? as usize;
    Ok((id, seq, hops))
}

/// Everything the measurement loop needs about one stored path. The ISD
/// set rides along from the `paths` document so per-measurement code
/// never re-parses the sequence string to recover it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    pub id: PathId,
    pub sequence: String,
    pub hops: usize,
    pub isds: Vec<u16>,
}

/// Decode a `paths` document into a [`PathSpec`]. A missing `isds` field
/// decodes to an empty set, matching the old parse-failure fallback.
pub(crate) fn parse_path_spec<'a>(d: impl Into<RowRef<'a>>) -> SuiteResult<PathSpec> {
    let d = d.into();
    let (id, sequence, hops) = parse_path_doc(d)?;
    let isds = d.get("isds").map_or_else(Vec::new, isds_of);
    Ok(PathSpec {
        id,
        sequence,
        hops,
        isds,
    })
}

// ---- paths_stats -----------------------------------------------------------

/// A stored ISD list: its integer items, as ISD numbers; anything but an
/// array is none.
fn isds_of(v: ValueRef<'_>) -> Vec<u16> {
    let items = v.as_array().into_iter().flat_map(|a| a.iter());
    items
        .filter_map(ValueRef::as_int)
        .map(|i| i as u16)
        .collect()
}

/// One measurement round over one path, ready for storage.
#[derive(Debug, Clone, PartialEq)]
pub struct PathMeasurement {
    pub stat_id: StatId,
    pub isds: Vec<u16>,
    pub hops: usize,
    /// Mean RTT over the ping train; `None` when all probes were lost.
    pub avg_latency_ms: Option<f64>,
    /// RTT standard deviation ("mdev").
    pub jitter_ms: Option<f64>,
    pub loss_pct: f64,
    /// Achieved bandwidths (Mbps): (upstream, downstream) × (64 B, MTU).
    pub bw_up_64: Option<f64>,
    pub bw_down_64: Option<f64>,
    pub bw_up_mtu: Option<f64>,
    pub bw_down_mtu: Option<f64>,
    /// Target bandwidth the test requested.
    pub target_mbps: f64,
    /// Tool-level failure recorded instead of aborting the campaign.
    pub error: Option<String>,
}

impl PathMeasurement {
    /// Encode into a `paths_stats` document.
    pub fn to_doc(&self) -> Document {
        doc! {
            "_id" => self.stat_id.to_string(),
            "path_id" => self.stat_id.path.to_string(),
            "server_id" => self.stat_id.path.server_id as i64,
            "timestamp_ms" => self.stat_id.timestamp_ms as i64,
            "isds" => self.isds.iter().map(|i| *i as i64).collect::<Vec<i64>>(),
            "hops" => self.hops as i64,
            "avg_latency_ms" => self.avg_latency_ms,
            "jitter_ms" => self.jitter_ms,
            "loss_pct" => self.loss_pct,
            "bw_up_64_mbps" => self.bw_up_64,
            "bw_down_64_mbps" => self.bw_down_64,
            "bw_up_mtu_mbps" => self.bw_up_mtu,
            "bw_down_mtu_mbps" => self.bw_down_mtu,
            "target_mbps" => self.target_mbps,
            "error" => self.error.clone(),
        }
    }

    /// Decode from a `paths_stats` document, in one walk over its
    /// fields (the statcache's recompute reads every stored row here).
    pub(crate) fn from_doc<'a>(d: impl Into<RowRef<'a>>) -> SuiteResult<PathMeasurement> {
        let (mut id, mut isds, mut hops, mut error) = (None, Vec::new(), 0, None);
        let mut f = [None; 8];
        for (name, v) in d.into().fields() {
            let float = match name {
                "_id" => {
                    id = v.as_str();
                    continue;
                }
                "isds" => {
                    isds = isds_of(v);
                    continue;
                }
                "hops" => {
                    hops = v.as_int().unwrap_or(0) as usize;
                    continue;
                }
                "error" => {
                    error = v.as_str().map(String::from);
                    continue;
                }
                "avg_latency_ms" => 0,
                "jitter_ms" => 1,
                "loss_pct" => 2,
                "bw_up_64_mbps" => 3,
                "bw_down_64_mbps" => 4,
                "bw_up_mtu_mbps" => 5,
                "bw_down_mtu_mbps" => 6,
                "target_mbps" => 7,
                _ => continue,
            };
            f[float] = v.as_float();
        }
        let id = id.ok_or_else(|| SuiteError::Schema("stats doc without _id".into()))?;
        Ok(PathMeasurement {
            stat_id: id.parse()?,
            isds,
            hops,
            avg_latency_ms: f[0],
            jitter_ms: f[1],
            loss_pct: f[2].unwrap_or(100.0),
            bw_up_64: f[3],
            bw_down_64: f[4],
            bw_up_mtu: f[5],
            bw_down_mtu: f[6],
            target_mbps: f[7].unwrap_or(0.0),
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::addr::HostAddr;
    use scion_sim::topology::scionlab::AWS_IRELAND;

    #[test]
    fn path_id_roundtrip() {
        let id = PathId {
            server_id: 2,
            path_index: 15,
        };
        assert_eq!(id.to_string(), "2_15");
        assert_eq!("2_15".parse::<PathId>().unwrap(), id);
        assert!("2-15".parse::<PathId>().is_err());
        assert!("a_b".parse::<PathId>().is_err());
        assert!("2".parse::<PathId>().is_err());
    }

    #[test]
    fn stat_id_roundtrip() {
        let id = StatId {
            path: PathId {
                server_id: 2,
                path_index: 15,
            },
            timestamp_ms: 1_699_000_123,
        };
        assert_eq!(id.to_string(), "2_15_1699000123");
        assert_eq!("2_15_1699000123".parse::<StatId>().unwrap(), id);
        assert!("2_15".parse::<StatId>().is_err());
        assert!("2_15_x".parse::<StatId>().is_err());
    }

    #[test]
    fn server_doc_roundtrip() {
        let addr = ScionAddr::new(AWS_IRELAND, HostAddr::new(172, 31, 43, 7));
        let d = server_doc(2, addr, "AWS Ireland");
        let (id, back) = parse_server_doc(&d).unwrap();
        assert_eq!(id, 2);
        assert_eq!(back, addr);
    }

    #[test]
    fn parse_server_doc_rejects_malformed() {
        let mut d = doc! { "_id" => "x", "address" => "16-ffaa:0:1002,[172.31.43.7]" };
        assert!(parse_server_doc(&d).is_err());
        d.set("_id", "3");
        d.set("address", "oops");
        assert!(parse_server_doc(&d).is_err());
    }

    #[test]
    fn measurement_doc_roundtrip() {
        let m = PathMeasurement {
            stat_id: "2_15_500".parse().unwrap(),
            isds: vec![16, 17, 19],
            hops: 7,
            avg_latency_ms: Some(155.25),
            jitter_ms: Some(3.5),
            loss_pct: 3.3,
            bw_up_64: Some(4.1),
            bw_down_64: Some(10.0),
            bw_up_mtu: Some(11.2),
            bw_down_mtu: Some(11.9),
            target_mbps: 12.0,
            error: None,
        };
        let back = PathMeasurement::from_doc(&m.to_doc()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn measurement_with_total_loss_roundtrips() {
        let m = PathMeasurement {
            stat_id: "2_16_900".parse().unwrap(),
            isds: vec![16, 17],
            hops: 7,
            avg_latency_ms: None,
            jitter_ms: None,
            loss_pct: 100.0,
            bw_up_64: None,
            bw_down_64: None,
            bw_up_mtu: None,
            bw_down_mtu: None,
            target_mbps: 12.0,
            error: Some("timeout".into()),
        };
        let back = PathMeasurement::from_doc(&m.to_doc()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.error.as_deref(), Some("timeout"));
    }

    /// Every query shape the suite sends plans through an index
    /// `ensure_indexes` built, and a filter on a stats field no query
    /// names scans: that index is not built. The same holds after a
    /// checkpoint and a reopen.
    #[test]
    fn the_suites_query_shapes_plan_through_its_indexes() {
        use crate::collect::{collect_paths, register_available_servers};
        use crate::config::SuiteConfig;
        use crate::measure::run_tests;
        use pathdb::database::OpenOptions;
        use pathdb::{Durability, FaultyStorage};
        use scion_sim::net::ScionNetwork;
        use std::sync::Arc;

        let cfg = SuiteConfig {
            iterations: 1,
            some_only: false,
            ping_count: 5,
            run_bwtests: false,
            ..SuiteConfig::default()
        };
        let net = ScionNetwork::scionlab(9);
        let storage = Arc::new(FaultyStorage::new());
        let open = || {
            let opts = OpenOptions::new(Durability::Wal).with_storage(storage.clone());
            Database::open_durable_with("/shapes", opts).unwrap().0
        };
        let db = open();
        register_available_servers(&db, &net).unwrap();
        collect_paths(&db, &net, &cfg).unwrap();
        run_tests(&db, &net, &cfg).unwrap();
        db.checkpoint().unwrap();
        assert_shapes(&db);
        // The same directory reopened the way `upin serve --db DIR` opens
        // it: the manifest names the indexes, so it plans as the
        // campaign did.
        drop(db);
        assert_shapes(&open());
    }

    fn assert_shapes(db: &Database) {
        use pathdb::{Access, Filter};
        let access = |name: &str, f: Filter| db.collection(name).read().query(f).explain().access;
        for name in [PATHS, PATHS_STATS] {
            let plan = access(name, Filter::eq("server_id", 2i64));
            assert!(
                matches!(&plan, Access::IndexPoint { field, .. } if field == "server_id"),
                "{name}: {plan:?}"
            );
        }
        let stats = db.collection(PATHS_STATS);
        let newest = stats.read().iter().last().unwrap().to_document();
        let expiry = Filter::lt("timestamp_ms", newest.get("timestamp_ms").unwrap().clone());
        let plan = access(PATHS_STATS, expiry);
        assert!(
            matches!(&plan, Access::IndexRange { field, .. } if field == "timestamp_ms"),
            "{plan:?}"
        );

        // Each of these would probe an index with fewer candidates than
        // rows, if the index existed.
        let latency = stats
            .read()
            .iter()
            .find_map(|d| d.get("avg_latency_ms")?.as_float())
            .unwrap();
        for unindexed in [
            Filter::eq("avg_latency_ms", latency),
            Filter::lt("loss_pct", 0.0),
            Filter::eq("path_id", newest.get("path_id").unwrap().clone()),
        ] {
            let plan = access(PATHS_STATS, unindexed.clone());
            assert!(plan.is_full_scan(), "{unindexed:?} planned as {plan:?}");
        }
    }
}
