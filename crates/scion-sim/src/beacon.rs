//! Beaconing: capped propagation of path-construction beacons (PCBs)
//! over the topology, producing core segments and down segments.
//!
//! Real SCION beaconing is periodic and policy-filtered; in the simulator
//! we compute its converged state directly. Beacons propagate level by
//! level (one level = one more AS in the chain), and at each level every
//! (origin, destination) pair keeps at most
//! [`BeaconConfig::beacons_per_pair`] beacons, best-first: shorter chains
//! always win over longer ones (levels are processed in length order and
//! the kept-count accumulates), ties within a level are broken by
//! cumulative propagation delay and then by the canonical hop tuple, so
//! the kept set is a deterministic function of the topology alone — no
//! RNG, no seed, no iteration-order dependence. With the cap at
//! `usize::MAX` (the default) every loop-free beacon path within the
//! length caps is registered, which is exactly the exhaustive fixed
//! point a converged SCIONLab control plane exposes to `showpaths`.

use crate::addr::IsdAsn;
use crate::crypto::SymmetricKey;
use crate::segments::{HopEntry, Segment, SegmentKind};
use crate::topology::{AsIndex, LinkKind, Topology};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Derives per-AS forwarding keys from a network master secret.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyProvider {
    master: u64,
}

impl KeyProvider {
    pub(crate) fn new(master: u64) -> KeyProvider {
        KeyProvider { master }
    }

    pub(crate) fn key(&self, ia: IsdAsn) -> SymmetricKey {
        SymmetricKey::derive(self.master, ia)
    }
}

/// Maximum ASes in a core segment.
const MAX_CORE_LEN: usize = 5;
/// Info-field nonce base; segments from the same run share it.
const INFO_BASE: u64 = 0x5c10;

/// Propagation limits for beaconing.
#[derive(Debug, Clone, Copy)]
pub struct BeaconConfig {
    /// Maximum ASes in a down segment.
    pub max_down_len: usize,
    /// Maximum beacons kept (registered and further propagated) per
    /// (origin core, destination AS) pair. Shorter beacons always win
    /// over longer ones; within one length, lower cumulative propagation
    /// delay wins, tie-broken by the canonical hop tuple. `usize::MAX`
    /// recovers the exhaustive fixed point.
    pub beacons_per_pair: usize,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            max_down_len: 6,
            beacons_per_pair: usize::MAX,
        }
    }
}

/// Converged beaconing state: every registered segment.
#[derive(Debug, Clone, Default)]
pub struct BeaconStore {
    /// Core segments keyed by (first AS, last AS) in beacon direction.
    pub core: HashMap<(IsdAsn, IsdAsn), Vec<Segment>>,
    /// Down segments keyed by the leaf (last) AS. Reversing one yields the
    /// leaf's up segment.
    pub down: HashMap<IsdAsn, Vec<Segment>>,
    /// Beacons dropped by the `beacons_per_pair` cap.
    capped: u64,
}

impl BeaconStore {
    /// How many beacons the `beacons_per_pair` cap dropped during
    /// propagation (0 when exhaustive).
    pub(crate) fn capped_count(&self) -> u64 {
        self.capped
    }

    /// Bytes held by the interned hop chains, counting each distinct
    /// `Arc` allocation once no matter how many segments (or frontier
    /// copies, or candidate paths) share it.
    pub fn hop_bytes(&self) -> usize {
        let mut seen: HashSet<*const HopEntry> = HashSet::new();
        let mut bytes = 0usize;
        for seg in self
            .core
            .values()
            .flatten()
            .chain(self.down.values().flatten())
        {
            if seen.insert(seg.hops.as_ptr()) {
                bytes += std::mem::size_of_val(&*seg.hops);
            }
        }
        bytes
    }
}

/// Run beaconing to its converged state over `topo`.
pub(crate) fn run_beaconing(
    topo: &Topology,
    keys: &KeyProvider,
    cfg: &BeaconConfig,
) -> BeaconStore {
    let mut store = BeaconStore::default();
    let cores: Vec<AsIndex> = topo
        .ases()
        .filter(|(_, n)| n.kind.is_core())
        .map(|(i, _)| i)
        .collect();

    for &origin in &cores {
        let ia = topo.node(origin).ia;
        let info = INFO_BASE ^ (ia.asn.0 << 8) ^ ia.isd.0 as u64;
        let seed = Segment::originate(SegmentKind::Core, info, ia, &keys.key(ia));
        propagate(topo, keys, origin, seed, cfg, Pass::Core, &mut store);

        let seed = Segment::originate(SegmentKind::Down, info ^ 0xd0, ia, &keys.key(ia));
        propagate(topo, keys, origin, seed, cfg, Pass::Down, &mut store);
    }
    store
}

/// Which link relation a propagation pass walks.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Core links in either direction → core segments.
    Core,
    /// Parent links, parent side only → down segments.
    Down,
}

/// Canonical, key-independent order on beacon chains: compare hop by hop
/// on (ISD, ASN, ingress, egress). Distinct simple paths always differ
/// in this tuple sequence (interface ids are unique per AS), so combined
/// with destination and delay it totally orders every candidate set.
fn canonical_cmp(a: &Segment, b: &Segment) -> Ordering {
    let key = |h: &HopEntry| (h.ia.isd.0, h.ia.asn.0, h.in_if.0, h.out_if.0);
    a.hops.iter().map(key).cmp(b.hops.iter().map(key))
}

/// Level-wise beacon propagation from one origin: all beacons of length
/// L are extended to length L+1 together, the candidates are ordered
/// deterministically (destination, cumulative delay, canonical hop
/// tuple), and each destination keeps the first `beacons_per_pair` of
/// them — counted across levels, so shorter chains always take
/// precedence. Kept beacons are registered and keep propagating;
/// dropped ones are counted and die.
fn propagate(
    topo: &Topology,
    keys: &KeyProvider,
    origin: AsIndex,
    seed: Segment,
    cfg: &BeaconConfig,
    pass: Pass,
    store: &mut BeaconStore,
) {
    let max_len = match pass {
        Pass::Core => MAX_CORE_LEN,
        Pass::Down => cfg.max_down_len,
    };
    let mut kept: HashMap<AsIndex, usize> = HashMap::new();
    // (current AS, chain, cumulative propagation delay in ms)
    let mut frontier: Vec<(AsIndex, Segment, f64)> = vec![(origin, seed, 0.0)];
    let mut len = 1;
    while len < max_len && !frontier.is_empty() {
        let mut candidates: Vec<(AsIndex, Segment, f64)> = Vec::new();
        for (at, seg, delay) in &frontier {
            let at_ia = topo.node(*at).ia;
            for (_, link) in topo.links_of(*at) {
                let (next, out_if, in_if) = match pass {
                    Pass::Core => {
                        if link.kind != LinkKind::Core {
                            continue;
                        }
                        let next = link.peer_of(*at).expect("incident link has peer");
                        (
                            next,
                            link.iface_of(*at).expect("incident link has iface"),
                            link.iface_of(next).expect("peer iface"),
                        )
                    }
                    Pass::Down => {
                        if link.kind != LinkKind::Parent || link.a != *at {
                            continue;
                        }
                        (link.b, link.a_if, link.b_if)
                    }
                };
                let next_ia = topo.node(next).ia;
                if seg.hops.iter().any(|h| h.ia == next_ia) {
                    continue; // loop
                }
                let extended =
                    seg.extend(out_if, &keys.key(at_ia), next_ia, in_if, &keys.key(next_ia));
                candidates.push((next, extended, delay + link.propagation_ms));
            }
        }
        candidates.sort_by(|x, y| {
            topo.node(x.0)
                .ia
                .cmp(&topo.node(y.0).ia)
                .then_with(|| x.2.total_cmp(&y.2))
                .then_with(|| canonical_cmp(&x.1, &y.1))
        });
        frontier.clear();
        for (dest, seg, delay) in candidates {
            let n = kept.entry(dest).or_insert(0);
            if *n >= cfg.beacons_per_pair {
                store.capped += 1;
                continue;
            }
            *n += 1;
            match pass {
                Pass::Core => store
                    .core
                    .entry((seg.first_ia(), topo.node(dest).ia))
                    .or_default()
                    .push(seg.clone()),
                Pass::Down => store
                    .down
                    .entry(topo.node(dest).ia)
                    .or_default()
                    .push(seg.clone()),
            }
            frontier.push((dest, seg, delay));
        }
        len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asn, IsdAsn};
    use crate::geo::GeoLocation;
    use crate::topology::{AsKind, DirAttrs, TopologyBuilder};

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    fn geo(city: &str) -> GeoLocation {
        GeoLocation::new(47.0, 8.0, city, "Testland")
    }

    /// Two ISDs: 1 has core C1 with children L1, L2 (L2 also child of L1);
    /// 2 has core C2 with child L3. Cores linked.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        let attrs = || DirAttrs::new(1000.0);
        b.add_as(ia(1, 0x10), AsKind::Core, "C1", "op", geo("c1"))
            .unwrap();
        b.add_as(ia(1, 0x11), AsKind::NonCore, "L1", "op", geo("l1"))
            .unwrap();
        b.add_as(ia(1, 0x12), AsKind::NonCore, "L2", "op", geo("l2"))
            .unwrap();
        b.add_as(ia(2, 0x20), AsKind::Core, "C2", "op", geo("c2"))
            .unwrap();
        b.add_as(ia(2, 0x21), AsKind::NonCore, "L3", "op", geo("l3"))
            .unwrap();
        b.add_link(
            ia(1, 0x10),
            ia(1, 0x11),
            LinkKind::Parent,
            1472,
            attrs(),
            attrs(),
        )
        .unwrap();
        b.add_link(
            ia(1, 0x10),
            ia(1, 0x12),
            LinkKind::Parent,
            1472,
            attrs(),
            attrs(),
        )
        .unwrap();
        b.add_link(
            ia(1, 0x11),
            ia(1, 0x12),
            LinkKind::Parent,
            1472,
            attrs(),
            attrs(),
        )
        .unwrap();
        b.add_link(
            ia(2, 0x20),
            ia(2, 0x21),
            LinkKind::Parent,
            1472,
            attrs(),
            attrs(),
        )
        .unwrap();
        b.add_link(
            ia(1, 0x10),
            ia(2, 0x20),
            LinkKind::Core,
            1472,
            attrs(),
            attrs(),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn core_segments_cover_both_directions() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
        assert!(store.core.contains_key(&(ia(1, 0x10), ia(2, 0x20))));
        assert!(store.core.contains_key(&(ia(2, 0x20), ia(1, 0x10))));
    }

    #[test]
    fn down_segments_enumerate_all_loop_free_routes() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
        // L2 is reachable from C1 directly and via L1.
        let l2 = &store.down[&ia(1, 0x12)];
        assert_eq!(l2.len(), 2);
        let lens: Vec<usize> = {
            let mut v: Vec<usize> = l2.iter().map(Segment::len).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(lens, vec![2, 3]);
        // L1 has exactly the direct segment.
        assert_eq!(store.down[&ia(1, 0x11)].len(), 1);
        // No cross-ISD down segments.
        assert!(store.down[&ia(2, 0x21)]
            .iter()
            .all(|s| s.first_ia() == ia(2, 0x20)));
    }

    #[test]
    fn all_segments_verify_and_are_loop_free() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
        let all = store
            .core
            .values()
            .flatten()
            .chain(store.down.values().flatten());
        let mut count = 0;
        for seg in all {
            assert!(seg.verify(|ia_| keys.key(ia_)), "segment must verify");
            assert!(!seg.has_loop());
            count += 1;
        }
        assert!(count > 0);
    }

    #[test]
    fn length_caps_bound_propagation() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let cfg = BeaconConfig {
            max_down_len: 2,
            ..BeaconConfig::default()
        };
        let store = run_beaconing(&topo, &keys, &cfg);
        // The 3-AS route C1->L1->L2 is now suppressed.
        assert_eq!(store.down[&ia(1, 0x12)].len(), 1);
    }

    #[test]
    fn default_cap_is_exhaustive_and_counts_nothing() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
        assert_eq!(store.capped_count(), 0);
        assert!(store.hop_bytes() > 0);
    }

    #[test]
    fn cap_keeps_shortest_beacons_and_counts_drops() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let cfg = BeaconConfig {
            beacons_per_pair: 1,
            ..BeaconConfig::default()
        };
        let store = run_beaconing(&topo, &keys, &cfg);
        // L2 keeps only the direct 2-AS beacon; the 3-AS one via L1 is
        // dropped (shorter beats longer, the count carries across levels).
        let l2 = &store.down[&ia(1, 0x12)];
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].len(), 2);
        assert!(l2[0].verify(|ia_| keys.key(ia_)));
        assert_eq!(store.capped_count(), 1);
    }

    #[test]
    fn capped_beaconing_is_deterministic() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let cfg = BeaconConfig {
            beacons_per_pair: 1,
            ..BeaconConfig::default()
        };
        let a = run_beaconing(&topo, &keys, &cfg);
        let b = run_beaconing(&topo, &keys, &cfg);
        assert_eq!(a.core, b.core);
        assert_eq!(a.down, b.down);
        assert_eq!(a.capped_count(), b.capped_count());
    }

    #[test]
    fn segments_record_consistent_interfaces() {
        let topo = diamond();
        let keys = KeyProvider::new(7);
        let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
        for seg in store.down.values().flatten() {
            for pair in seg.hops.windows(2) {
                let a = topo.index_of(pair[0].ia).unwrap();
                let (_, link) = topo
                    .link_at_iface(a, pair[0].out_if)
                    .expect("egress resolves");
                assert_eq!(link.peer_of(a).map(|p| topo.node(p).ia), Some(pair[1].ia));
                assert_eq!(
                    link.iface_of(topo.index_of(pair[1].ia).unwrap()),
                    Some(pair[1].in_if)
                );
            }
        }
    }
}
