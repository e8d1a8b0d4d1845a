//! `scion-bwtestclient` — bandwidth tests over a chosen path.
//!
//! Parameter strings follow the bwtester grammar the paper quotes:
//! `duration,packet_size,num_packets,bandwidth`, e.g. `3,64,?,12Mbps` —
//! "the packet size is 64 bytes, sent over 3 seconds, resulting in a
//! bandwidth of 12 Mbps; `?` is a wildcard computed from the other
//! parameters". Constraints enforced like the real tool: duration ≤ 10 s,
//! packet size ≥ 4 bytes. `-cs` sets the client→server direction; `-sc`
//! defaults to the same parameters, "resulting in 2 average bandwidths".

use crate::args::{Parsed, Spec};
use crate::error::ToolError;
use crate::ping::{resolve_path, PathSelection};
use crate::units::{format_bandwidth_mbps, parse_bandwidth_mbps};
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::dataplane::flows::FlowParams;
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;

/// Maximum test duration accepted by bwtester (seconds).
const MAX_DURATION_S: f64 = 10.0;
/// Minimum packet size accepted by bwtester (bytes).
const MIN_PACKET_BYTES: u32 = 4;

/// A fully resolved parameter tuple (after wildcard inference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwParams {
    pub duration_s: f64,
    pub packet_bytes: u32,
    pub num_packets: u64,
    pub target_mbps: f64,
}

impl BwParams {
    /// Parse a `duration,size,count,bandwidth` string, solving at most
    /// one `?` wildcard from the identity
    /// `bandwidth = size × 8 × count / duration`.
    pub fn parse(s: &str) -> Result<BwParams, ToolError> {
        let parts: Vec<&str> = s.split(',').map(str::trim).collect();
        if parts.len() != 4 {
            return Err(ToolError::Usage(format!(
                "expected 4 comma-separated fields in {s:?}"
            )));
        }
        let wildcards = parts.iter().filter(|p| **p == "?").count();
        if wildcards > 1 {
            return Err(ToolError::Usage(format!(
                "at most one '?' wildcard allowed in {s:?}"
            )));
        }
        let duration: Option<f64> = parse_field(parts[0], |v: &str| {
            v.parse::<f64>().ok().filter(|d| *d > 0.0)
        })?;
        let size: Option<u32> = parse_field(parts[1], |v: &str| v.parse::<u32>().ok())?;
        let count: Option<u64> = parse_field(parts[2], |v: &str| v.parse::<u64>().ok())?;
        let bw: Option<f64> = parse_field(parts[3], |v: &str| parse_bandwidth_mbps(v).ok())?;

        // Solve the single missing variable.
        let (duration, size, count, bw) = match (duration, size, count, bw) {
            (Some(d), Some(s_), Some(c), Some(b)) => {
                let implied = s_ as f64 * 8.0 * c as f64 / d / 1e6;
                if (implied - b).abs() > 0.01 * b.max(implied) {
                    return Err(ToolError::Usage(format!(
                        "inconsistent parameters: {s_}B × {c} / {d}s = {}, not {}",
                        format_bandwidth_mbps(implied),
                        format_bandwidth_mbps(b)
                    )));
                }
                (d, s_, c, b)
            }
            (None, Some(s_), Some(c), Some(b)) => {
                let d = s_ as f64 * 8.0 * c as f64 / (b * 1e6);
                (d, s_, c, b)
            }
            (Some(d), None, Some(c), Some(b)) => {
                let s_ = (b * 1e6 * d / (8.0 * c as f64)).round();
                if s_ < 1.0 || s_ > u32::MAX as f64 {
                    return Err(ToolError::Usage("inferred packet size out of range".into()));
                }
                (d, s_ as u32, c, b)
            }
            (Some(d), Some(s_), None, Some(b)) => {
                let c = (b * 1e6 * d / (8.0 * s_ as f64)).round();
                if c < 1.0 {
                    return Err(ToolError::Usage("inferred packet count is zero".into()));
                }
                (d, s_, c as u64, b)
            }
            (Some(d), Some(s_), Some(c), None) => {
                let b = s_ as f64 * 8.0 * c as f64 / d / 1e6;
                (d, s_, c, b)
            }
            _ => {
                return Err(ToolError::Usage(format!(
                    "not enough parameters to solve {s:?}"
                )))
            }
        };

        if duration > MAX_DURATION_S {
            return Err(ToolError::Usage(format!(
                "duration {duration}s exceeds the {MAX_DURATION_S}s bwtester limit"
            )));
        }
        if size < MIN_PACKET_BYTES {
            return Err(ToolError::Usage(format!(
                "packet size {size} below the {MIN_PACKET_BYTES}-byte minimum"
            )));
        }
        Ok(BwParams {
            duration_s: duration,
            packet_bytes: size,
            num_packets: count,
            target_mbps: bw,
        })
    }

    /// Substitute `MTU` placeholders before parsing: the paper's suite
    /// issues `3,MTU,?,12Mbps` with the path MTU patched in. Accounts
    /// for SCION/UDP headers so the wire packet fits the link MTU.
    pub fn parse_with_mtu(
        s: &str,
        path_mtu: u32,
        header_bytes: u32,
    ) -> Result<BwParams, ToolError> {
        let payload = path_mtu.saturating_sub(header_bytes).max(MIN_PACKET_BYTES);
        let substituted = s.replace("MTU", &payload.to_string());
        BwParams::parse(&substituted)
    }

    /// Convert to the simulator's flow parameters.
    pub fn flow(&self) -> FlowParams {
        FlowParams {
            duration_s: self.duration_s,
            packet_bytes: self.packet_bytes,
            target_mbps: self.target_mbps,
        }
    }
}

fn parse_field<T>(raw: &str, f: impl Fn(&str) -> Option<T>) -> Result<Option<T>, ToolError> {
    if raw == "?" {
        return Ok(None);
    }
    f(raw)
        .map(Some)
        .ok_or_else(|| ToolError::Usage(format!("bad field {raw:?}")))
}

/// Result of one direction of the test.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionReport {
    pub params: BwParams,
    pub attempted_mbps: f64,
    pub achieved_mbps: f64,
    pub loss_pct: f64,
}

/// Full bwtestclient report.
#[derive(Debug, Clone, PartialEq)]
pub struct BwtestReport {
    pub destination: ScionAddr,
    pub path: ScionPath,
    /// Client → server.
    pub cs: DirectionReport,
    /// Server → client.
    pub sc: DirectionReport,
}

impl BwtestReport {
    /// CLI-style rendering of both directions.
    pub fn render(&self) -> String {
        format!(
            "S->C results\nAchieved bandwidth: {}\nLoss rate: {:.1}%\nC->S results\nAchieved bandwidth: {}\nLoss rate: {:.1}%\n",
            format_bandwidth_mbps(self.sc.achieved_mbps),
            self.sc.loss_pct,
            format_bandwidth_mbps(self.cs.achieved_mbps),
            self.cs.loss_pct,
        )
    }
}

/// Run `scion-bwtestclient -s <dst> -cs <cs> [-sc <sc>] [--sequence]`.
///
/// `sc` defaults to the `cs` parameters when `None`, as in the real tool.
pub fn bwtest(
    net: &ScionNetwork,
    local: IsdAsn,
    destination: ScionAddr,
    cs_spec: &str,
    sc_spec: Option<&str>,
    selection: &PathSelection,
) -> Result<BwtestReport, ToolError> {
    let path = resolve_path(net, local, destination.ia, selection)?;
    bwtest_over(net, destination, path, cs_spec, sc_spec)
}

/// `scion-bwtestclient`'s option table, on top of `spec` (the server is
/// the face's to spell: `-s` on the tool's own command line).
pub fn options(spec: Spec) -> Spec {
    PathSelection::options(spec.value("cs").value("sc"))
}

/// [`bwtest`] with `-cs`, `-sc` and the path choice read from a parsed
/// command line; `default_cs` is what the face runs without `-cs`.
pub fn bwtest_parsed(
    net: &ScionNetwork,
    local: IsdAsn,
    destination: ScionAddr,
    p: &Parsed,
    default_cs: &str,
) -> Result<BwtestReport, ToolError> {
    let cs = p.opt("cs").unwrap_or(default_cs);
    let selection = PathSelection::from_parsed(p)?;
    bwtest(net, local, destination, cs, p.opt("sc"), &selection)
}

/// [`bwtest`] over a path the caller already resolved.
pub fn bwtest_over(
    net: &ScionNetwork,
    destination: ScionAddr,
    path: ScionPath,
    cs_spec: &str,
    sc_spec: Option<&str>,
) -> Result<BwtestReport, ToolError> {
    let header = scion_sim::dataplane::header_bytes(path.hop_count());
    let cs = BwParams::parse_with_mtu(cs_spec, path.mtu, header)?;
    let sc = match sc_spec {
        Some(s) => BwParams::parse_with_mtu(s, path.mtu, header)?,
        None => cs,
    };
    let outcome = net.bwtest(&path, destination, &cs.flow(), &sc.flow())?;
    Ok(BwtestReport {
        destination,
        path,
        cs: DirectionReport {
            params: cs,
            attempted_mbps: outcome.cs.attempted_mbps,
            achieved_mbps: outcome.cs.achieved_mbps,
            loss_pct: outcome.cs.loss * 100.0,
        },
        sc: DirectionReport {
            params: sc,
            attempted_mbps: outcome.sc.attempted_mbps,
            achieved_mbps: outcome.sc.achieved_mbps,
            loss_pct: outcome.sc.loss * 100.0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::fault::ServerBehavior;
    use scion_sim::net::NetError;
    use scion_sim::topology::scionlab::{paper_destinations, MY_AS};

    #[test]
    fn parses_paper_example_with_count_wildcard() {
        // "5,100,?,150Mbps ... the number of packets sent ... computed
        // according to the other parameters" — §3.3 verbatim.
        let p = BwParams::parse("5,100,?,150Mbps").unwrap();
        assert_eq!(p.duration_s, 5.0);
        assert_eq!(p.packet_bytes, 100);
        assert_eq!(p.num_packets, 937_500);
        assert_eq!(p.target_mbps, 150.0);
    }

    #[test]
    fn parses_suite_parameters() {
        let p = BwParams::parse("3,64,?,12Mbps").unwrap();
        assert_eq!(p.num_packets, 70_313);
        let p = BwParams::parse("3,1000,?,12Mbps").unwrap();
        assert_eq!(p.num_packets, 4500);
    }

    #[test]
    fn solves_each_wildcard_position() {
        let b = BwParams::parse("3,1000,4500,?").unwrap();
        assert!((b.target_mbps - 12.0).abs() < 1e-9);
        let d = BwParams::parse("?,1000,4500,12Mbps").unwrap();
        assert!((d.duration_s - 3.0).abs() < 1e-9);
        let s = BwParams::parse("3,?,4500,12Mbps").unwrap();
        assert_eq!(s.packet_bytes, 1000);
    }

    #[test]
    fn consistency_check_on_fully_specified() {
        assert!(BwParams::parse("3,1000,4500,12Mbps").is_ok());
        assert!(matches!(
            BwParams::parse("3,1000,4500,99Mbps"),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn enforces_bwtester_limits() {
        // Duration cap: 10 s.
        assert!(matches!(
            BwParams::parse("11,1000,?,12Mbps"),
            Err(ToolError::Usage(_))
        ));
        // Packet size floor: 4 bytes.
        assert!(matches!(
            BwParams::parse("3,2,?,12Mbps"),
            Err(ToolError::Usage(_))
        ));
        // Two wildcards.
        assert!(matches!(
            BwParams::parse("3,?,?,12Mbps"),
            Err(ToolError::Usage(_))
        ));
        // Wrong arity.
        assert!(matches!(
            BwParams::parse("3,64,12Mbps"),
            Err(ToolError::Usage(_))
        ));
        // Garbage field.
        assert!(matches!(
            BwParams::parse("3,64,x,12Mbps"),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn mtu_placeholder_subtracts_headers() {
        let p = BwParams::parse_with_mtu("3,MTU,?,12Mbps", 1472, 140).unwrap();
        assert_eq!(p.packet_bytes, 1332);
    }

    #[test]
    fn end_to_end_12mbps_mtu_test() {
        let net = ScionNetwork::scionlab(31);
        let dst = paper_destinations()[0]; // Magdeburg (Germany)
        let r = bwtest(
            &net,
            MY_AS,
            dst,
            "3,MTU,?,12Mbps",
            None,
            &PathSelection::Default,
        )
        .unwrap();
        // Downstream comfortably reaches the target; upstream is the
        // constrained direction (Fig. 7's asymmetry).
        assert!(r.sc.achieved_mbps > 9.0, "sc {}", r.sc.achieved_mbps);
        assert!(r.cs.achieved_mbps > 4.0, "cs {}", r.cs.achieved_mbps);
        assert!(
            r.sc.achieved_mbps >= r.cs.achieved_mbps - 1.0,
            "downstream {} vs upstream {}",
            r.sc.achieved_mbps,
            r.cs.achieved_mbps
        );
        assert!(r.render().contains("Achieved bandwidth"));
    }

    #[test]
    fn down_server_reports_timeout() {
        let net = ScionNetwork::scionlab(32);
        let dst = paper_destinations()[0];
        net.set_server_behavior(dst, ServerBehavior::Down);
        let err = bwtest(
            &net,
            MY_AS,
            dst,
            "3,1000,?,12Mbps",
            None,
            &PathSelection::Default,
        );
        assert_eq!(err, Err(ToolError::Net(NetError::Timeout)));
    }

    #[test]
    fn distinct_sc_parameters_are_honored() {
        let net = ScionNetwork::scionlab(33);
        let dst = paper_destinations()[0];
        let r = bwtest(
            &net,
            MY_AS,
            dst,
            "3,1000,?,12Mbps",
            Some("3,64,?,12Mbps"),
            &PathSelection::Default,
        )
        .unwrap();
        assert_eq!(r.cs.params.packet_bytes, 1000);
        assert_eq!(r.sc.params.packet_bytes, 64);
    }
}
