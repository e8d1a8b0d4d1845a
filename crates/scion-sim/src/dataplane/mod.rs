//! Data plane: turns an authorized [`ScionPath`] plus the current fault
//! state into per-hop wire parameters, then drives packets (SCMP probes)
//! or flows (bandwidth tests) across them.
//!
//! Paths are *compiled* once per operation: every hop's propagation
//! delay, capacity, background utilization, jitter, loss and congestion
//! windows are resolved into plain data ([`WireHop`]), so the simulation
//! inner loops touch no topology structures.

pub mod flows;
pub mod scmp;

use crate::fault::{FaultPlan, ServerBehavior};
use crate::path::ScionPath;
use crate::pathserver::{validate_structure, PathError};
use crate::topology::{LinkIndex, Topology};
use rand::Rng;

/// SCION + UDP header overhead for a path of `hop_count` ASes, in bytes.
///
/// The SCION common header and address headers are ~60 B and each hop
/// field adds 12 B; bwtester payloads ride in UDP (8 B). The exact
/// numbers matter less than the *shape*: per-packet overhead is large
/// relative to 64 B payloads and negligible relative to MTU payloads —
/// the asymmetry behind the paper's Fig. 7.
pub fn header_bytes(hop_count: usize) -> u32 {
    60 + 12 * hop_count as u32 + 8
}

/// One link traversal in one direction, fully resolved.
#[derive(Debug, Clone)]
pub struct WireHop {
    /// One-way propagation delay, ms.
    pub prop_ms: f64,
    /// Link capacity in this direction, Mbps.
    pub capacity_mbps: f64,
    /// Mean background utilization (0..1).
    pub background_util: f64,
    /// Per-packet jitter half-width, ms.
    pub jitter_ms: f64,
    /// Residual random loss probability.
    pub base_loss: f64,
    /// Router pps limit in this direction, if any.
    pub pps_cap: Option<f64>,
    /// Congestion windows `(start_ms, end_ms, severity)` affecting this
    /// hop (from link episodes and node episodes at the receiving AS).
    pub episodes: Vec<(f64, f64, f64)>,
    /// Link administratively down: all packets dropped.
    pub down: bool,
    /// Link MTU in bytes.
    pub mtu: u32,
}

impl WireHop {
    /// Total drop severity from congestion windows active at `t_ms`.
    fn congestion_at(&self, t_ms: f64) -> f64 {
        self.episodes
            .iter()
            .filter(|(s, e, _)| t_ms >= *s && t_ms < *e)
            .map(|(_, _, sev)| *sev)
            .fold(0.0, f64::max)
    }

    /// Per-packet drop probability at `t_ms`, excluding queueing effects.
    pub(crate) fn loss_at(&self, t_ms: f64) -> f64 {
        if self.down {
            return 1.0;
        }
        let c = self.congestion_at(t_ms);
        1.0 - (1.0 - self.base_loss) * (1.0 - c)
    }

    /// Serialization delay for a packet of `bytes`, ms.
    pub(crate) fn serialization_ms(&self, bytes: u32) -> f64 {
        serialization_ms(bytes, self.capacity_mbps)
    }
}

/// Serialization delay of `bytes` at `capacity_mbps`, in ms.
pub(crate) fn serialization_ms(bytes: u32, capacity_mbps: f64) -> f64 {
    if capacity_mbps <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (capacity_mbps * 1000.0)
}

/// Sample an instantaneous utilization around `base` (truncated normal,
/// σ = 0.08, clamped to [0, 0.98]).
pub(crate) fn sample_util<R: Rng>(base: f64, rng: &mut R) -> f64 {
    // Box-Muller-free approximation: sum of three uniforms has a
    // bell-shaped distribution with variance 3·(1/12); scale to σ≈0.08.
    let z: f64 = (0..3).map(|_| rng.gen::<f64>()).sum::<f64>() - 1.5;
    (base + z * 0.16).clamp(0.0, 0.98)
}

/// A path compiled against the topology and fault state: forward and
/// reverse wire hops plus the destination server's behaviour.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    pub fwd: Vec<WireHop>,
    pub rev: Vec<WireHop>,
    pub server: ServerBehavior,
    /// Number of ASes on the path.
    pub hop_count: usize,
    /// The traversed links, in forward order — lets
    /// `CompiledPath::still_valid` re-check the fault-dependent
    /// inputs without resolving the topology again.
    pub links: Vec<LinkIndex>,
}

impl CompiledPath {
    /// Whether this artifact is still exactly what [`compile_wire`]
    /// would produce for `path` under `faults`: the per-link down bits,
    /// the congestion windows touching each hop, and the destination
    /// server behaviour all match what was baked in. Topology
    /// attributes are static, so a `true` verdict lets the compile
    /// cache re-tag the entry after an unrelated fault mutation instead
    /// of recompiling — chaos transitions elsewhere in the network stay
    /// off this route's data-plane cost. Uses the link indices recorded
    /// at compile time, so the check never touches the topology.
    pub(crate) fn still_valid(
        &self,
        faults: &FaultPlan,
        path: &ScionPath,
        server: ServerBehavior,
    ) -> bool {
        let n = path.hops.len().wrapping_sub(1);
        if self.server != server
            || path.hops.len() < 2
            || self.fwd.len() != n
            || self.links.len() != n
        {
            return false;
        }
        for i in 0..n {
            let from_ia = path.hops[i].ia;
            let to_ia = path.hops[i + 1].ia;
            let li = self.links[i];
            if faults.link_is_down(li) != self.fwd[i].down {
                return false;
            }
            // Same windows, in the same order `compile_wire` collects
            // them: link episodes, then the entered AS, then the
            // endpoint AS on the edge hop.
            let same = |stored: &[(f64, f64, f64)],
                        enter: crate::addr::IsdAsn,
                        endpoint: Option<crate::addr::IsdAsn>| {
                let mut it = stored.iter();
                faults
                    .windows_for_link(li)
                    .chain(faults.windows_for_node(enter))
                    .chain(
                        endpoint
                            .into_iter()
                            .flat_map(|ia| faults.windows_for_node(ia)),
                    )
                    .all(|w| it.next() == Some(&w))
                    && it.next().is_none()
            };
            if !same(&self.fwd[i].episodes, to_ia, (i == 0).then_some(from_ia))
                || !same(
                    &self.rev[n - 1 - i].episodes,
                    from_ia,
                    (i == n - 1).then_some(to_ia),
                )
            {
                return false;
            }
        }
        true
    }
}

/// Compile `path` into wire hops under `faults`. The destination server
/// behaviour is looked up for `server_host` within the last AS.
///
/// Fails when the path is structurally invalid; MAC verification is the
/// path server's job ([`crate::pathserver::PathServer::validate`]) and is
/// expected to have been done by the caller.
pub(crate) fn compile_path(
    topo: &Topology,
    faults: &FaultPlan,
    path: &ScionPath,
    server: ServerBehavior,
) -> Result<CompiledPath, PathError> {
    validate_structure(topo, path)?;
    compile_wire(topo, faults, path, server)
}

/// [`compile_path`] without the structural re-validation: the fast path
/// for callers that already hold a cached validation verdict for this
/// exact route (see the network's compile cache).
pub(crate) fn compile_wire(
    topo: &Topology,
    faults: &FaultPlan,
    path: &ScionPath,
    server: ServerBehavior,
) -> Result<CompiledPath, PathError> {
    if path.hops.len() < 2 {
        return Err(PathError::Malformed);
    }
    let mut fwd = Vec::with_capacity(path.hops.len() - 1);
    let mut rev = Vec::with_capacity(path.hops.len() - 1);
    let mut links = Vec::with_capacity(path.hops.len() - 1);
    for i in 0..path.hops.len() - 1 {
        let from_ia = path.hops[i].ia;
        let to_ia = path.hops[i + 1].ia;
        let from = topo
            .index_of(from_ia)
            .ok_or(PathError::UnknownAs(from_ia))?;
        let (li, link) = topo
            .link_at_iface(from, path.hops[i].egress)
            .ok_or(PathError::BrokenAdjacency(i))?;
        let to = link.peer_of(from).ok_or(PathError::BrokenAdjacency(i))?;
        links.push(li);

        // Congestion windows: the link's own episodes plus node episodes
        // at the AS the packet enters over this hop. The sending
        // endpoint's own AS is additionally charged on the first hop so
        // congestion at the source is not invisible.
        let collect = |enter_ia, first_ia: Option<crate::addr::IsdAsn>| {
            let mut eps: Vec<(f64, f64, f64)> = faults.windows_for_link(li).collect();
            eps.extend(faults.windows_for_node(enter_ia));
            if let Some(src_ia) = first_ia {
                eps.extend(faults.windows_for_node(src_ia));
            }
            eps
        };
        let fwd_eps = collect(to_ia, (i == 0).then_some(from_ia));
        let rev_eps = collect(from_ia, (i == path.hops.len() - 2).then_some(to_ia));

        let ab = link.attrs_from(from).expect("from is an endpoint");
        let ba = link.attrs_from(to).expect("to is an endpoint");
        let down = faults.link_is_down(li);
        fwd.push(WireHop {
            prop_ms: link.propagation_ms,
            capacity_mbps: ab.capacity_mbps,
            background_util: ab.background_util,
            jitter_ms: ab.jitter_ms,
            base_loss: ab.base_loss,
            pps_cap: ab.pps_cap,
            episodes: fwd_eps,
            down,
            mtu: link.mtu,
        });
        rev.push(WireHop {
            prop_ms: link.propagation_ms,
            capacity_mbps: ba.capacity_mbps,
            background_util: ba.background_util,
            jitter_ms: ba.jitter_ms,
            base_loss: ba.base_loss,
            pps_cap: ba.pps_cap,
            episodes: rev_eps,
            down,
            mtu: link.mtu,
        });
    }
    rev.reverse();
    Ok(CompiledPath {
        fwd,
        rev,
        server,
        hop_count: path.hops.len(),
        links,
    })
}
