//! Network topology: ASes, inter-AS links with per-direction attributes,
//! and a validated builder.
//!
//! The topology is the static substrate under both the control plane
//! (beaconing discovers segments over parent/core links) and the data
//! plane (links carry capacity, propagation delay, loss and MTU).
//! [`scionlab`] instantiates the 35-AS SCIONLab-like topology used by all
//! experiments.

pub mod random;
pub mod render;
pub mod scionlab;

use crate::addr::{HostAddr, IfaceId, IsdAsn, ScionAddr};
use crate::geo::GeoLocation;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Dense index of an AS inside a [`Topology`]. Using a small copyable
/// index (rather than the 8-byte+ `IsdAsn`) keeps adjacency structures and
/// per-packet state compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsIndex(pub u32);

/// Dense index of a link inside a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkIndex(pub u32);

/// Role of an AS in the SCIONLab topology (the three node classes of the
/// paper's Fig. 1, plus the experimenter's own AS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// Root of trust of its ISD; signs certificates, originates beacons.
    Core,
    /// Standard infrastructure AS.
    NonCore,
    /// Attachment point: accepts user ASes.
    AttachmentPoint,
    /// A user-created AS attached to an attachment point (e.g. `MY_AS#1`).
    User,
}

impl AsKind {
    pub fn is_core(self) -> bool {
        matches!(self, AsKind::Core)
    }
}

/// A measurable end host inside an AS (a bwtest/SCMP responder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Server {
    pub host: HostAddr,
    /// Human-readable label (e.g. "AWS Ireland").
    pub name: String,
}

/// An autonomous system node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsNode {
    pub ia: IsdAsn,
    pub kind: AsKind,
    /// Display name matching SCIONLab map labels (e.g. "ETHZ-AP").
    pub name: String,
    /// Operating organization, used for operator-exclusion constraints.
    pub operator: String,
    pub location: GeoLocation,
    pub servers: Vec<Server>,
}

impl AsNode {
    /// Full SCION addresses of all servers housed in this AS.
    fn server_addrs(&self) -> impl Iterator<Item = ScionAddr> + '_ {
        self.servers
            .iter()
            .map(move |s| ScionAddr::new(self.ia, s.host))
    }
}

/// Business relationship of a link, which constrains beacon propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Core link between two core ASes (possibly across ISDs).
    Core,
    /// Parent→child link: endpoint `a` is the parent (closer to the core).
    /// Always intra-ISD in this model.
    Parent,
    /// Peering link between non-core ASes. Modeled and validated, but the
    /// path server does not construct peering-shortcut paths (documented
    /// limitation matching the experiments, which never observe them).
    Peering,
}

/// Transmission attributes of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirAttrs {
    /// Capacity in megabits per second.
    pub capacity_mbps: f64,
    /// Residual random loss probability (0..1) independent of congestion.
    pub base_loss: f64,
    /// Jitter scale in milliseconds (half-width of a uniform perturbation
    /// applied per packet).
    pub jitter_ms: f64,
    /// Steady background utilization of the direction (0..1), consuming
    /// capacity before foreground traffic.
    pub background_util: f64,
    /// Forwarding rate limit in packets per second (`None` = uncapped).
    /// Models software border routers on small VMs, which are pps-bound
    /// long before they are bps-bound for small packets.
    pub pps_cap: Option<f64>,
}

impl DirAttrs {
    pub fn new(capacity_mbps: f64) -> DirAttrs {
        DirAttrs {
            capacity_mbps,
            base_loss: 0.0,
            jitter_ms: 0.05,
            background_util: 0.0,
            pps_cap: None,
        }
    }

    pub(crate) fn with_loss(mut self, p: f64) -> DirAttrs {
        self.base_loss = p;
        self
    }

    pub(crate) fn with_jitter(mut self, ms: f64) -> DirAttrs {
        self.jitter_ms = ms;
        self
    }

    pub(crate) fn with_background(mut self, util: f64) -> DirAttrs {
        self.background_util = util;
        self
    }

    pub(crate) fn with_pps_cap(mut self, pps: f64) -> DirAttrs {
        self.pps_cap = Some(pps);
        self
    }
}

/// An inter-AS link. Interface ids are assigned by the builder and are
/// unique within each endpoint AS, mirroring SCION hop predicates like
/// `17-ffaa:0:1107#2`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    pub a: AsIndex,
    pub a_if: IfaceId,
    pub b: AsIndex,
    pub b_if: IfaceId,
    pub kind: LinkKind,
    /// One-way propagation delay in ms (same both ways).
    pub propagation_ms: f64,
    /// Maximum transmission unit in bytes (same both ways).
    pub mtu: u32,
    /// Attributes of the a→b direction.
    pub ab: DirAttrs,
    /// Attributes of the b→a direction.
    pub ba: DirAttrs,
}

impl Link {
    /// The other endpoint, given one endpoint index.
    pub fn peer_of(&self, idx: AsIndex) -> Option<AsIndex> {
        if idx == self.a {
            Some(self.b)
        } else if idx == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Directional attributes when sending *from* `idx`.
    pub(crate) fn attrs_from(&self, idx: AsIndex) -> Option<&DirAttrs> {
        if idx == self.a {
            Some(&self.ab)
        } else if idx == self.b {
            Some(&self.ba)
        } else {
            None
        }
    }

    /// Interface id on the side of `idx`.
    pub(crate) fn iface_of(&self, idx: AsIndex) -> Option<IfaceId> {
        if idx == self.a {
            Some(self.a_if)
        } else if idx == self.b {
            Some(self.b_if)
        } else {
            None
        }
    }
}

/// Errors detected while building or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    DuplicateAs(IsdAsn),
    UnknownAs(IsdAsn),
    SelfLink(IsdAsn),
    /// Core links must connect two core ASes.
    CoreLinkNonCore(IsdAsn, IsdAsn),
    /// Parent links must stay within one ISD.
    CrossIsdParent(IsdAsn, IsdAsn),
    /// A core AS may not be the child end of a parent link.
    CoreAsChild(IsdAsn),
    /// Every non-core AS must reach a core AS of its ISD via parent links.
    NoUpwardPath(IsdAsn),
    /// An ISD has no core AS at all.
    IsdWithoutCore(u16),
    DuplicateServer(ScionAddr),
    /// Structurally invalid serialized form.
    Malformed(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateAs(ia) => write!(f, "duplicate AS {ia}"),
            TopologyError::UnknownAs(ia) => write!(f, "unknown AS {ia}"),
            TopologyError::SelfLink(ia) => write!(f, "self link at {ia}"),
            TopologyError::CoreLinkNonCore(a, b) => {
                write!(f, "core link between non-core ASes {a} and {b}")
            }
            TopologyError::CrossIsdParent(a, b) => {
                write!(f, "parent link crossing ISDs: {a} -> {b}")
            }
            TopologyError::CoreAsChild(ia) => write!(f, "core AS {ia} as child of a parent link"),
            TopologyError::NoUpwardPath(ia) => {
                write!(f, "AS {ia} has no upward path to a core of its ISD")
            }
            TopologyError::IsdWithoutCore(isd) => write!(f, "ISD {isd} has no core AS"),
            TopologyError::DuplicateServer(a) => write!(f, "duplicate server address {a}"),
            TopologyError::Malformed(m) => write!(f, "malformed topology: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated, immutable network topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    ases: Vec<AsNode>,
    links: Vec<Link>,
    #[serde(skip)]
    by_ia: HashMap<IsdAsn, AsIndex>,
    /// links_of[as] = link indices incident to that AS.
    #[serde(skip)]
    adjacency: Vec<Vec<LinkIndex>>,
    /// iface_map[as][iface] = the link attached there; O(1) egress
    /// resolution on the per-hop hot paths (validation, compilation,
    /// liveness probing).
    #[serde(skip)]
    iface_map: Vec<HashMap<IfaceId, LinkIndex>>,
}

impl Topology {
    pub fn num_ases(&self) -> usize {
        self.ases.len()
    }

    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    pub fn ases(&self) -> impl Iterator<Item = (AsIndex, &AsNode)> {
        self.ases
            .iter()
            .enumerate()
            .map(|(i, n)| (AsIndex(i as u32), n))
    }

    pub fn links(&self) -> impl Iterator<Item = (LinkIndex, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkIndex(i as u32), l))
    }

    pub fn node(&self, idx: AsIndex) -> &AsNode {
        &self.ases[idx.0 as usize]
    }

    pub(crate) fn link(&self, idx: LinkIndex) -> &Link {
        &self.links[idx.0 as usize]
    }

    pub fn index_of(&self, ia: IsdAsn) -> Option<AsIndex> {
        self.by_ia.get(&ia).copied()
    }

    /// Links incident to `idx`.
    pub fn links_of(&self, idx: AsIndex) -> impl Iterator<Item = (LinkIndex, &Link)> {
        self.adjacency[idx.0 as usize]
            .iter()
            .map(move |&li| (li, self.link(li)))
    }

    /// Resolve the link attached to interface `iface` of AS `idx`.
    pub(crate) fn link_at_iface(&self, idx: AsIndex, iface: IfaceId) -> Option<(LinkIndex, &Link)> {
        let li = *self.iface_map.get(idx.0 as usize)?.get(&iface)?;
        Some((li, self.link(li)))
    }

    /// All ISD numbers present.
    pub fn isds(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.ases.iter().map(|n| n.ia.isd.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Core ASes of one ISD.
    pub(crate) fn cores_of_isd(&self, isd: u16) -> Vec<AsIndex> {
        self.ases()
            .filter(|(_, n)| n.ia.isd.0 == isd && n.kind.is_core())
            .map(|(i, _)| i)
            .collect()
    }

    /// All server addresses across the network, in AS order.
    pub fn all_servers(&self) -> Vec<ScionAddr> {
        self.ases
            .iter()
            .flat_map(|n| n.server_addrs().collect::<Vec<_>>())
            .collect()
    }

    /// Locate the AS index housing a server address.
    pub fn server_as(&self, addr: ScionAddr) -> Option<AsIndex> {
        let idx = self.index_of(addr.ia)?;
        self.node(idx)
            .servers
            .iter()
            .any(|s| s.host == addr.host)
            .then_some(idx)
    }

    /// Serialize to a JSON document (the simulator's equivalent of a
    /// SCION `topology.json` deployment file).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology serializes")
    }

    /// Load a topology from its JSON form, rebuilding derived indexes
    /// and re-running full validation.
    pub fn from_json_str(s: &str) -> Result<Topology, TopologyError> {
        let mut topo: Topology =
            serde_json::from_str(s).map_err(|e| TopologyError::Malformed(e.to_string()))?;
        topo.reindex();
        topo.validate()?;
        Ok(topo)
    }

    /// Re-run the builder's global invariants on this topology (used
    /// after deserialization, where arbitrary JSON could encode an
    /// invalid graph).
    pub(crate) fn validate(&self) -> Result<(), TopologyError> {
        for isd in self.isds() {
            if self.cores_of_isd(isd).is_empty() {
                return Err(TopologyError::IsdWithoutCore(isd));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            let n = self.ases.len() as u32;
            if l.a.0 >= n || l.b.0 >= n || l.a == l.b {
                return Err(TopologyError::Malformed(format!("link {i} endpoints")));
            }
            let (na, nb) = (self.node(l.a), self.node(l.b));
            match l.kind {
                LinkKind::Core => {
                    if !na.kind.is_core() || !nb.kind.is_core() {
                        return Err(TopologyError::CoreLinkNonCore(na.ia, nb.ia));
                    }
                }
                LinkKind::Parent => {
                    if na.ia.isd != nb.ia.isd {
                        return Err(TopologyError::CrossIsdParent(na.ia, nb.ia));
                    }
                    if nb.kind.is_core() {
                        return Err(TopologyError::CoreAsChild(nb.ia));
                    }
                }
                LinkKind::Peering => {}
            }
        }
        for (idx, node) in self.ases() {
            if !node.kind.is_core() && !reaches_core_upward(self, idx) {
                return Err(TopologyError::NoUpwardPath(node.ia));
            }
        }
        // Unique IAs and unique iface ids per AS.
        let mut seen = std::collections::HashSet::new();
        for n in &self.ases {
            if !seen.insert(n.ia) {
                return Err(TopologyError::DuplicateAs(n.ia));
            }
        }
        for (idx, _) in self.ases() {
            let mut ifaces = std::collections::HashSet::new();
            for (_, l) in self.links_of(idx) {
                let iface = l.iface_of(idx).expect("incident");
                if !ifaces.insert(iface) {
                    return Err(TopologyError::Malformed(format!(
                        "duplicate interface {iface} at {}",
                        self.node(idx).ia
                    )));
                }
            }
        }
        Ok(())
    }

    /// Rebuild the derived lookup structures (used after deserialization).
    fn reindex(&mut self) {
        self.by_ia = self
            .ases
            .iter()
            .enumerate()
            .map(|(i, n)| (n.ia, AsIndex(i as u32)))
            .collect();
        self.adjacency = vec![Vec::new(); self.ases.len()];
        self.iface_map = vec![HashMap::new(); self.ases.len()];
        for (i, l) in self.links.iter().enumerate() {
            self.adjacency[l.a.0 as usize].push(LinkIndex(i as u32));
            self.adjacency[l.b.0 as usize].push(LinkIndex(i as u32));
            self.iface_map[l.a.0 as usize].insert(l.a_if, LinkIndex(i as u32));
            self.iface_map[l.b.0 as usize].insert(l.b_if, LinkIndex(i as u32));
        }
    }
}

/// Incremental topology builder; `build` runs full validation.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    ases: Vec<AsNode>,
    links: Vec<Link>,
    by_ia: HashMap<IsdAsn, AsIndex>,
    next_iface: Vec<u16>,
}

impl TopologyBuilder {
    pub fn new() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Register an AS. Fails on duplicate ISD-AS identifiers.
    pub fn add_as(
        &mut self,
        ia: IsdAsn,
        kind: AsKind,
        name: &str,
        operator: &str,
        location: GeoLocation,
    ) -> Result<AsIndex, TopologyError> {
        if self.by_ia.contains_key(&ia) {
            return Err(TopologyError::DuplicateAs(ia));
        }
        let idx = AsIndex(self.ases.len() as u32);
        self.ases.push(AsNode {
            ia,
            kind,
            name: name.to_string(),
            operator: operator.to_string(),
            location,
            servers: Vec::new(),
        });
        self.by_ia.insert(ia, idx);
        self.next_iface.push(1);
        Ok(idx)
    }

    /// Add a measurable server to an AS.
    pub(crate) fn add_server(
        &mut self,
        ia: IsdAsn,
        host: HostAddr,
        name: &str,
    ) -> Result<(), TopologyError> {
        let idx = *self.by_ia.get(&ia).ok_or(TopologyError::UnknownAs(ia))?;
        let addr = ScionAddr::new(ia, host);
        let dup = self
            .ases
            .iter()
            .any(|n| n.ia == ia && n.servers.iter().any(|s| s.host == host));
        if dup {
            return Err(TopologyError::DuplicateServer(addr));
        }
        self.ases[idx.0 as usize].servers.push(Server {
            host,
            name: name.to_string(),
        });
        Ok(())
    }

    /// Connect two ASes. For [`LinkKind::Parent`], `a` is the parent.
    /// Propagation delay is derived from the endpoints' geography; other
    /// attributes come from the caller. Returns the new link's index.
    pub fn add_link(
        &mut self,
        a: IsdAsn,
        b: IsdAsn,
        kind: LinkKind,
        mtu: u32,
        ab: DirAttrs,
        ba: DirAttrs,
    ) -> Result<LinkIndex, TopologyError> {
        let ai = *self.by_ia.get(&a).ok_or(TopologyError::UnknownAs(a))?;
        let bi = *self.by_ia.get(&b).ok_or(TopologyError::UnknownAs(b))?;
        if ai == bi {
            return Err(TopologyError::SelfLink(a));
        }
        let (na, nb) = (&self.ases[ai.0 as usize], &self.ases[bi.0 as usize]);
        match kind {
            LinkKind::Core => {
                if !na.kind.is_core() || !nb.kind.is_core() {
                    return Err(TopologyError::CoreLinkNonCore(a, b));
                }
            }
            LinkKind::Parent => {
                if a.isd != b.isd {
                    return Err(TopologyError::CrossIsdParent(a, b));
                }
                if nb.kind.is_core() {
                    return Err(TopologyError::CoreAsChild(b));
                }
            }
            LinkKind::Peering => {}
        }
        let propagation_ms = na.location.propagation_ms(&nb.location);
        let a_if = IfaceId(self.next_iface[ai.0 as usize]);
        self.next_iface[ai.0 as usize] += 1;
        let b_if = IfaceId(self.next_iface[bi.0 as usize]);
        self.next_iface[bi.0 as usize] += 1;
        let idx = LinkIndex(self.links.len() as u32);
        self.links.push(Link {
            a: ai,
            a_if,
            b: bi,
            b_if,
            kind,
            propagation_ms,
            mtu,
            ab,
            ba,
        });
        Ok(idx)
    }

    /// Validate global invariants and freeze the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        // Every ISD must have a core.
        let mut isds: Vec<u16> = self.ases.iter().map(|n| n.ia.isd.0).collect();
        isds.sort_unstable();
        isds.dedup();
        for isd in &isds {
            if !self
                .ases
                .iter()
                .any(|n| n.ia.isd.0 == *isd && n.kind.is_core())
            {
                return Err(TopologyError::IsdWithoutCore(*isd));
            }
        }
        let mut topo = Topology {
            ases: self.ases,
            links: self.links,
            by_ia: HashMap::new(),
            adjacency: Vec::new(),
            iface_map: Vec::new(),
        };
        topo.reindex();
        // Every non-core AS reaches a core of its ISD walking child→parent.
        for (idx, node) in topo.ases() {
            if node.kind.is_core() {
                continue;
            }
            if !reaches_core_upward(&topo, idx) {
                return Err(TopologyError::NoUpwardPath(node.ia));
            }
        }
        Ok(topo)
    }
}

/// BFS from `start` following parent links upward (child→parent) within
/// the ISD, checking that some core AS is reachable.
fn reaches_core_upward(topo: &Topology, start: AsIndex) -> bool {
    let mut seen = vec![false; topo.num_ases()];
    let mut stack = vec![start];
    seen[start.0 as usize] = true;
    while let Some(cur) = stack.pop() {
        if topo.node(cur).kind.is_core() {
            return true;
        }
        for (_, link) in topo.links_of(cur) {
            // Upward means: we are the child end (`b`) of a Parent link.
            if link.kind == LinkKind::Parent && link.b == cur {
                let parent = link.a;
                if !seen[parent.0 as usize] {
                    seen[parent.0 as usize] = true;
                    stack.push(parent);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Asn;

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    fn geo() -> GeoLocation {
        GeoLocation::new(47.4, 8.5, "Zurich", "Switzerland")
    }

    fn two_as_builder() -> TopologyBuilder {
        let mut b = TopologyBuilder::new();
        b.add_as(ia(17, 1), AsKind::Core, "core", "ETH", geo())
            .unwrap();
        b.add_as(ia(17, 2), AsKind::NonCore, "leaf", "ETH", geo())
            .unwrap();
        b
    }

    #[test]
    fn duplicate_as_rejected() {
        let mut b = two_as_builder();
        assert_eq!(
            b.add_as(ia(17, 1), AsKind::NonCore, "dup", "x", geo()),
            Err(TopologyError::DuplicateAs(ia(17, 1)))
        );
    }

    #[test]
    fn self_link_rejected() {
        let mut b = two_as_builder();
        let e = b.add_link(
            ia(17, 1),
            ia(17, 1),
            LinkKind::Core,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(1000.0),
        );
        assert_eq!(e, Err(TopologyError::SelfLink(ia(17, 1))));
    }

    #[test]
    fn core_link_requires_core_endpoints() {
        let mut b = two_as_builder();
        let e = b.add_link(
            ia(17, 1),
            ia(17, 2),
            LinkKind::Core,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(1000.0),
        );
        assert_eq!(e, Err(TopologyError::CoreLinkNonCore(ia(17, 1), ia(17, 2))));
    }

    #[test]
    fn parent_link_must_stay_in_isd() {
        let mut b = two_as_builder();
        b.add_as(ia(19, 9), AsKind::NonCore, "other", "x", geo())
            .unwrap();
        let e = b.add_link(
            ia(17, 1),
            ia(19, 9),
            LinkKind::Parent,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(1000.0),
        );
        assert_eq!(e, Err(TopologyError::CrossIsdParent(ia(17, 1), ia(19, 9))));
    }

    #[test]
    fn core_cannot_be_child() {
        let mut b = two_as_builder();
        let e = b.add_link(
            ia(17, 2),
            ia(17, 1),
            LinkKind::Parent,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(1000.0),
        );
        assert_eq!(e, Err(TopologyError::CoreAsChild(ia(17, 1))));
    }

    #[test]
    fn orphan_leaf_fails_validation() {
        let b = two_as_builder();
        // leaf has no parent link at all.
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::NoUpwardPath(ia(17, 2))
        );
    }

    #[test]
    fn isd_without_core_fails() {
        let mut b = TopologyBuilder::new();
        b.add_as(ia(99, 1), AsKind::NonCore, "lonely", "x", geo())
            .unwrap();
        assert_eq!(b.build().unwrap_err(), TopologyError::IsdWithoutCore(99));
    }

    #[test]
    fn valid_topology_builds_with_ifaces_assigned() {
        let mut b = two_as_builder();
        b.add_link(
            ia(17, 1),
            ia(17, 2),
            LinkKind::Parent,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(500.0),
        )
        .unwrap();
        b.add_server(ia(17, 2), HostAddr::new(10, 0, 0, 1), "leaf-server")
            .unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.num_ases(), 2);
        assert_eq!(t.num_links(), 1);
        let (_, link) = t.links().next().unwrap();
        assert_eq!(link.a_if, IfaceId(1));
        assert_eq!(link.b_if, IfaceId(1));
        let leaf = t.index_of(ia(17, 2)).unwrap();
        assert_eq!(t.link_at_iface(leaf, IfaceId(1)).unwrap().1, link);
        assert_eq!(t.all_servers().len(), 1);
        assert_eq!(
            t.server_as(ScionAddr::new(ia(17, 2), HostAddr::new(10, 0, 0, 1))),
            Some(leaf)
        );
        // Unknown server host resolves to None even though the AS exists.
        assert_eq!(
            t.server_as(ScionAddr::new(ia(17, 2), HostAddr::new(10, 0, 0, 99))),
            None
        );
    }

    #[test]
    fn duplicate_server_rejected() {
        let mut b = two_as_builder();
        b.add_server(ia(17, 2), HostAddr::new(10, 0, 0, 1), "s1")
            .unwrap();
        assert!(matches!(
            b.add_server(ia(17, 2), HostAddr::new(10, 0, 0, 1), "s2"),
            Err(TopologyError::DuplicateServer(_))
        ));
    }

    #[test]
    fn json_roundtrip_preserves_topology() {
        let t = crate::topology::scionlab::scionlab_topology();
        let json = t.to_json_string();
        let back = Topology::from_json_str(&json).unwrap();
        assert_eq!(t, back);
        // The reloaded topology is fully functional.
        assert_eq!(back.all_servers().len(), 21);
        let my = back.index_of("17-ffaa:1:eaf".parse().unwrap()).unwrap();
        assert_eq!(back.links_of(my).count(), 1);
    }

    #[test]
    fn from_json_rejects_invalid_graphs() {
        assert!(matches!(
            Topology::from_json_str("{not json"),
            Err(TopologyError::Malformed(_))
        ));
        // Valid JSON, invalid graph: tamper a core link to touch a leaf.
        let t = crate::topology::scionlab::scionlab_topology();
        let mut v: serde_json::Value = serde_json::from_str(&t.to_json_string()).unwrap();
        v["links"][0]["kind"] = serde_json::json!("Parent");
        // Core link 0 connects two cores; as Parent it makes a core a
        // child, which validation must reject.
        let err = Topology::from_json_str(&v.to_string()).unwrap_err();
        assert!(matches!(err, TopologyError::CoreAsChild(_)), "{err}");
    }

    #[test]
    fn directional_attrs_resolve_by_endpoint() {
        let mut b = two_as_builder();
        b.add_link(
            ia(17, 1),
            ia(17, 2),
            LinkKind::Parent,
            1472,
            DirAttrs::new(1000.0),
            DirAttrs::new(250.0),
        )
        .unwrap();
        let t = b.build().unwrap();
        let core = t.index_of(ia(17, 1)).unwrap();
        let leaf = t.index_of(ia(17, 2)).unwrap();
        let (_, link) = t.links().next().unwrap();
        assert_eq!(link.attrs_from(core).unwrap().capacity_mbps, 1000.0);
        assert_eq!(link.attrs_from(leaf).unwrap().capacity_mbps, 250.0);
        assert_eq!(link.peer_of(core), Some(leaf));
        assert_eq!(link.peer_of(leaf), Some(core));
        assert_eq!(link.peer_of(AsIndex(77)), None);
    }
}
