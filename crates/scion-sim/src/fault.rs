//! Fault and congestion injection: server behaviours, link outages and
//! time-windowed congestion episodes.
//!
//! The paper's test-suite has to survive servers that are down, servers
//! that answer with errors, and transient congestion that blacks out
//! whole groups of paths (its Fig. 9 shows paths 2_16–2_23 at 100 % loss
//! during one episode). This module is the control surface experiments
//! use to provoke those situations deterministically.

use crate::addr::{IsdAsn, ScionAddr};
use crate::topology::LinkIndex;
use serde::{json::Value, Deserialize, Serialize};
use std::collections::HashMap;

/// A fault plan that cannot mean anything: probabilities outside [0, 1]
/// (or NaN) would silently clamp or, worse, never drop / always drop.
/// Rejected at construction and at deserialization.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// `what` names the field (e.g. "flaky drop probability"); `value`
    /// is the rejected number (possibly NaN).
    InvalidProbability { what: &'static str, value: f64 },
    /// A congestion window whose bounds are NaN or end < start.
    InvalidWindow { start_ms: f64, end_ms: f64 },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidProbability { what, value } => {
                write!(f, "{what} must be a finite value in [0, 1], got {value}")
            }
            FaultError::InvalidWindow { start_ms, end_ms } => write!(
                f,
                "congestion window must satisfy start <= end with finite bounds, \
                 got [{start_ms}, {end_ms})"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Validate a probability-typed field: finite and within [0, 1].
pub(crate) fn check_probability(what: &'static str, value: f64) -> Result<(), FaultError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(FaultError::InvalidProbability { what, value });
    }
    Ok(())
}

/// How a destination server responds to probes and bandwidth tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub enum ServerBehavior {
    /// Normal operation.
    #[default]
    Up,
    /// Unreachable: every probe times out (100 % loss).
    Down,
    /// The server responds, but with a malformed/error payload; clients
    /// must treat the measurement as failed rather than crash.
    BadResponse,
    /// Drops each request independently with the given probability.
    Flaky(f64),
}

impl ServerBehavior {
    /// Validating constructor for [`ServerBehavior::Flaky`].
    pub(crate) fn flaky(p: f64) -> Result<ServerBehavior, FaultError> {
        check_probability("flaky drop probability", p)?;
        Ok(ServerBehavior::Flaky(p))
    }

    /// Reject behaviours whose probability field is out of range.
    pub(crate) fn validate(&self) -> Result<(), FaultError> {
        match self {
            ServerBehavior::Flaky(p) => check_probability("flaky drop probability", *p),
            _ => Ok(()),
        }
    }
}

// Manual impl (instead of derive) so a deserialized plan is validated:
// `{"Flaky": 1.5}` must fail to parse, not lurk until the data plane
// rolls dice against it.
impl Deserialize for ServerBehavior {
    fn from_jval(v: &Value) -> Result<Self, String> {
        let b = match v {
            Value::String(s) => match s.as_str() {
                "Up" => ServerBehavior::Up,
                "Down" => ServerBehavior::Down,
                "BadResponse" => ServerBehavior::BadResponse,
                other => return Err(format!("unknown ServerBehavior variant {other}")),
            },
            Value::Object(m) => match m.iter().next() {
                Some((k, payload)) if k == "Flaky" => {
                    ServerBehavior::Flaky(f64::from_jval(payload)?)
                }
                Some((k, _)) => return Err(format!("unknown ServerBehavior variant {k}")),
                None => return Err("empty enum object".to_string()),
            },
            other => return Err(format!("cannot deserialize ServerBehavior from {other:?}")),
        };
        b.validate().map_err(|e| e.to_string())?;
        Ok(b)
    }
}

/// A time window during which a node or link direction is saturated.
/// Packets crossing the congested element during the window are dropped
/// with probability [`CongestionEpisode::severity`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CongestionEpisode {
    pub target: CongestionTarget,
    /// Window start, in network-clock milliseconds.
    pub start_ms: f64,
    /// Window end (exclusive), in network-clock milliseconds.
    pub end_ms: f64,
    /// Drop probability while active (1.0 = total blackout).
    pub severity: f64,
}

impl CongestionEpisode {
    /// Severity within [0, 1], sane window.
    pub(crate) fn validate(&self) -> Result<(), FaultError> {
        check_probability("congestion severity", self.severity)?;
        if !self.start_ms.is_finite() || !self.end_ms.is_finite() || self.end_ms < self.start_ms {
            return Err(FaultError::InvalidWindow {
                start_ms: self.start_ms,
                end_ms: self.end_ms,
            });
        }
        Ok(())
    }

    fn active_at(&self, t_ms: f64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms
    }
}

// Manual impl so `"severity": NaN` / out-of-range values are rejected at
// the parse boundary, mirroring the derived field-by-field shape.
impl Deserialize for CongestionEpisode {
    fn from_jval(v: &Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("expected object for CongestionEpisode, got {v:?}"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| format!("missing field {name} in CongestionEpisode"))
        };
        let ep = CongestionEpisode {
            target: CongestionTarget::from_jval(field("target")?)?,
            start_ms: f64::from_jval(field("start_ms")?)?,
            end_ms: f64::from_jval(field("end_ms")?)?,
            severity: f64::from_jval(field("severity")?)?,
        };
        ep.validate().map_err(|e| e.to_string())?;
        Ok(ep)
    }
}

/// What a congestion episode saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CongestionTarget {
    /// The whole AS: every packet transiting (or terminating in) it.
    Node(IsdAsn),
    /// One link, both directions.
    Link(LinkIndex),
}

/// Mutable fault state of a running network.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultPlan {
    servers: HashMap<ScionAddr, ServerBehavior>,
    episodes: Vec<CongestionEpisode>,
    /// Down-link bitset indexed by `LinkIndex` (one bit per link,
    /// grown on demand) — link state flips every chaos flap transition,
    /// so membership must be a shift and a mask, not a hash.
    links_down: Vec<u64>,
}

impl FaultPlan {
    pub(crate) fn new() -> FaultPlan {
        FaultPlan::default()
    }

    pub(crate) fn set_server(&mut self, addr: ScionAddr, behavior: ServerBehavior) {
        self.servers.insert(addr, behavior);
    }

    pub(crate) fn server(&self, addr: ScionAddr) -> ServerBehavior {
        self.servers.get(&addr).copied().unwrap_or_default()
    }

    pub(crate) fn add_episode(&mut self, ep: CongestionEpisode) {
        self.episodes.push(ep);
    }

    pub(crate) fn clear_episodes(&mut self) {
        self.episodes.clear();
    }

    /// Drop episodes whose window already ended at `now_ms`. Long chaos
    /// schedules add and retire many episodes; pruning keeps the
    /// congestion scans O(live episodes) instead of O(history).
    pub(crate) fn prune_expired(&mut self, now_ms: f64) {
        self.episodes.retain(|e| e.end_ms > now_ms);
    }

    pub(crate) fn set_link_down(&mut self, link: LinkIndex, down: bool) {
        let (word, bit) = (link.0 as usize / 64, link.0 % 64);
        if down {
            if word >= self.links_down.len() {
                self.links_down.resize(word + 1, 0);
            }
            self.links_down[word] |= 1 << bit;
        } else if let Some(w) = self.links_down.get_mut(word) {
            *w &= !(1 << bit);
        }
    }

    pub(crate) fn link_is_down(&self, link: LinkIndex) -> bool {
        self.links_down
            .get(link.0 as usize / 64)
            .is_some_and(|w| w & (1 << (link.0 % 64)) != 0)
    }

    /// Highest severity among episodes covering `node` at time `t_ms`
    /// (0.0 when none).
    pub(crate) fn node_congestion(&self, node: IsdAsn, t_ms: f64) -> f64 {
        self.episodes
            .iter()
            .filter(|e| e.target == CongestionTarget::Node(node) && e.active_at(t_ms))
            .map(|e| e.severity)
            .fold(0.0, f64::max)
    }

    /// Highest severity among episodes covering `link` at time `t_ms`.
    pub(crate) fn link_congestion(&self, link: LinkIndex, t_ms: f64) -> f64 {
        self.episodes
            .iter()
            .filter(|e| e.target == CongestionTarget::Link(link) && e.active_at(t_ms))
            .map(|e| e.severity)
            .fold(0.0, f64::max)
    }

    /// Congestion windows `(start_ms, end_ms, severity)` targeting `link`.
    pub(crate) fn windows_for_link(
        &self,
        link: LinkIndex,
    ) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.episodes
            .iter()
            .filter(move |e| e.target == CongestionTarget::Link(link))
            .map(|e| (e.start_ms, e.end_ms, e.severity))
    }

    /// Congestion windows `(start_ms, end_ms, severity)` targeting `node`.
    pub(crate) fn windows_for_node(
        &self,
        node: IsdAsn,
    ) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.episodes
            .iter()
            .filter(move |e| e.target == CongestionTarget::Node(node))
            .map(|e| (e.start_ms, e.end_ms, e.severity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asn, HostAddr};

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    fn episode(
        target: CongestionTarget,
        start_ms: f64,
        end_ms: f64,
        severity: f64,
    ) -> Result<CongestionEpisode, FaultError> {
        let ep = CongestionEpisode {
            target,
            start_ms,
            end_ms,
            severity,
        };
        ep.validate()?;
        Ok(ep)
    }

    #[test]
    fn default_server_behavior_is_up() {
        let plan = FaultPlan::new();
        let addr = ScionAddr::new(ia(16, 2), HostAddr::new(1, 2, 3, 4));
        assert_eq!(plan.server(addr), ServerBehavior::Up);
    }

    #[test]
    fn server_behavior_overrides() {
        let mut plan = FaultPlan::new();
        let addr = ScionAddr::new(ia(16, 2), HostAddr::new(1, 2, 3, 4));
        plan.set_server(addr, ServerBehavior::Down);
        assert_eq!(plan.server(addr), ServerBehavior::Down);
        plan.set_server(addr, ServerBehavior::Flaky(0.25));
        assert_eq!(plan.server(addr), ServerBehavior::Flaky(0.25));
    }

    #[test]
    fn episode_window_is_half_open() {
        let ep = CongestionEpisode {
            target: CongestionTarget::Node(ia(16, 7)),
            start_ms: 100.0,
            end_ms: 200.0,
            severity: 1.0,
        };
        assert!(!ep.active_at(99.9));
        assert!(ep.active_at(100.0));
        assert!(ep.active_at(199.9));
        assert!(!ep.active_at(200.0));
    }

    #[test]
    fn node_congestion_takes_max_severity() {
        let mut plan = FaultPlan::new();
        let node = ia(16, 7);
        for sev in [0.4, 0.9, 0.2] {
            plan.add_episode(CongestionEpisode {
                target: CongestionTarget::Node(node),
                start_ms: 0.0,
                end_ms: 1000.0,
                severity: sev,
            });
        }
        assert_eq!(plan.node_congestion(node, 500.0), 0.9);
        assert_eq!(plan.node_congestion(node, 1500.0), 0.0);
        assert_eq!(plan.node_congestion(ia(16, 1), 500.0), 0.0);
    }

    #[test]
    fn flaky_probability_is_validated_at_construction() {
        assert_eq!(ServerBehavior::flaky(0.25), Ok(ServerBehavior::Flaky(0.25)));
        assert!(ServerBehavior::flaky(0.0).is_ok());
        assert!(ServerBehavior::flaky(1.0).is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ServerBehavior::flaky(bad).unwrap_err();
            assert!(
                matches!(err, FaultError::InvalidProbability { .. }),
                "{bad} must be rejected"
            );
            assert!(err.to_string().contains("[0, 1]"), "{err}");
        }
    }

    #[test]
    fn flaky_probability_is_validated_at_deserialization() {
        let ok: ServerBehavior = serde_json::from_str("{\"Flaky\": 0.5}").unwrap();
        assert_eq!(ok, ServerBehavior::Flaky(0.5));
        let ok: ServerBehavior = serde_json::from_str("\"Down\"").unwrap();
        assert_eq!(ok, ServerBehavior::Down);
        for bad in ["{\"Flaky\": 1.5}", "{\"Flaky\": -0.2}", "{\"Flaky\": null}"] {
            let err = serde_json::from_str::<ServerBehavior>(bad).unwrap_err();
            assert!(err.to_string().contains("[0, 1]"), "{bad}: {err}");
        }
        // Round-trip of a valid behaviour is unchanged by the manual impl.
        let json = serde_json::to_string(&ServerBehavior::Flaky(0.25)).unwrap();
        let back: ServerBehavior = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ServerBehavior::Flaky(0.25));
    }

    #[test]
    fn episode_severity_and_window_are_validated() {
        let target = CongestionTarget::Node(ia(16, 7));
        assert!(episode(target, 0.0, 100.0, 0.8).is_ok());
        for bad in [-0.5, 2.0, f64::NAN] {
            assert!(matches!(
                episode(target, 0.0, 100.0, bad),
                Err(FaultError::InvalidProbability { .. })
            ));
        }
        // Inverted or NaN windows are typed errors too.
        assert!(matches!(
            episode(target, 200.0, 100.0, 0.5),
            Err(FaultError::InvalidWindow { .. })
        ));
        assert!(matches!(
            episode(target, f64::NAN, 100.0, 0.5),
            Err(FaultError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn episode_severity_is_validated_at_deserialization() {
        let ok = "{\"target\": {\"Link\": 3}, \"start_ms\": 0.0, \
                  \"end_ms\": 50.0, \"severity\": 1.0}";
        let ep: CongestionEpisode = serde_json::from_str(ok).unwrap();
        assert_eq!(ep.target, CongestionTarget::Link(LinkIndex(3)));
        let bad = ok.replace("1.0", "1.01");
        let err = serde_json::from_str::<CongestionEpisode>(&bad).unwrap_err();
        assert!(err.to_string().contains("congestion severity"), "{err}");
        // Round-trip through the derived Serialize shape.
        let json = serde_json::to_string(&ep).unwrap();
        let back: CongestionEpisode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ep);
    }

    #[test]
    fn expired_episodes_are_pruned() {
        let mut plan = FaultPlan::new();
        let node = ia(16, 7);
        for (start, end) in [(0.0, 100.0), (50.0, 500.0), (400.0, 900.0)] {
            plan.add_episode(episode(CongestionTarget::Node(node), start, end, 1.0).unwrap());
        }
        plan.prune_expired(450.0);
        assert_eq!(plan.node_congestion(node, 450.0), 1.0);
        assert_eq!(plan.windows_for_node(node).count(), 2);
        plan.prune_expired(1000.0);
        assert_eq!(plan.windows_for_node(node).count(), 0);
    }

    #[test]
    fn link_state_toggles() {
        let mut plan = FaultPlan::new();
        let l = LinkIndex(3);
        assert!(!plan.link_is_down(l));
        plan.set_link_down(l, true);
        assert!(plan.link_is_down(l));
        plan.set_link_down(l, false);
        assert!(!plan.link_is_down(l));
    }
}
