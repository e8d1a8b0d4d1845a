//! Path-construction beacon segments: info fields, hop entries with
//! chained MACs, and segment verification.
//!
//! A path-construction beacon (PCB) records the chain of ASes it
//! traversed. Each AS appends a hop entry carrying the ingress interface
//! the beacon arrived on, the egress interface it was propagated out of,
//! and a MAC computed with the AS's forwarding key over the entry and the
//! previous hop's MAC. Chaining means an adversary cannot splice, reorder
//! or truncate-and-extend segments without a key.

use crate::addr::{IfaceId, IsdAsn};
use crate::crypto::{keyed_mac, MacTag, SymmetricKey};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which role a registered segment plays in path construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Core AS → leaf AS, used reversed as an up-segment by the leaf.
    Down,
    /// Core AS → core AS across the core graph.
    Core,
}

/// One AS's entry in a segment. Interfaces are relative to the beacon's
/// direction of travel: `in_if` is where the beacon entered this AS
/// (NONE at the originating core) and `out_if` is where it was propagated
/// onward (NONE at the last AS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HopEntry {
    pub ia: IsdAsn,
    pub in_if: IfaceId,
    pub out_if: IfaceId,
    pub mac: MacTag,
}

/// A beacon segment: an origin timestamp/nonce plus the chain of hops.
///
/// The hop chain is interned behind an `Arc`: cloning a segment (the
/// beacon store registers each kept beacon and keeps propagating it;
/// the path server holds candidate lists) bumps a refcount instead of
/// duplicating the chain, so store memory scales with the number of
/// *distinct* chains, not with how often they are referenced.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    pub kind: SegmentKind,
    /// Info-field nonce binding all MACs of this segment together.
    pub info: u64,
    pub hops: Arc<[HopEntry]>,
}

/// Compute the MAC for one hop entry chained on `prev`.
pub(crate) fn hop_mac(
    key: &SymmetricKey,
    info: u64,
    ia: IsdAsn,
    in_if: IfaceId,
    out_if: IfaceId,
    prev: MacTag,
) -> MacTag {
    let mut buf = [0u8; 32];
    buf[..8].copy_from_slice(&info.to_le_bytes());
    buf[8..10].copy_from_slice(&ia.isd.0.to_le_bytes());
    buf[10..18].copy_from_slice(&ia.asn.0.to_le_bytes());
    buf[18..20].copy_from_slice(&in_if.0.to_le_bytes());
    buf[20..22].copy_from_slice(&out_if.0.to_le_bytes());
    buf[22..30].copy_from_slice(&prev.0.to_le_bytes());
    keyed_mac(key, &buf)
}

impl Segment {
    /// Start a new segment at an originating AS.
    pub fn originate(kind: SegmentKind, info: u64, ia: IsdAsn, key: &SymmetricKey) -> Segment {
        let mac = hop_mac(key, info, ia, IfaceId::NONE, IfaceId::NONE, MacTag(0));
        Segment {
            kind,
            info,
            hops: Arc::from(vec![HopEntry {
                ia,
                in_if: IfaceId::NONE,
                out_if: IfaceId::NONE,
                mac,
            }]),
        }
    }

    /// Extend the segment: fix the current last hop's egress interface
    /// (re-MACing it) and append the next AS with its ingress interface.
    ///
    /// `last_key` is the key of the current last AS, `next_key` of the AS
    /// being appended.
    pub fn extend(
        &self,
        out_if: IfaceId,
        last_key: &SymmetricKey,
        next_ia: IsdAsn,
        next_in_if: IfaceId,
        next_key: &SymmetricKey,
    ) -> Segment {
        // One exact-sized allocation: the clone-then-push alternative
        // copies the hop vector and then reallocates it to grow.
        let mut hops = Vec::with_capacity(self.hops.len() + 1);
        hops.extend_from_slice(&self.hops);
        let last_idx = hops.len() - 1;
        let prev_mac = if last_idx == 0 {
            MacTag(0)
        } else {
            hops[last_idx - 1].mac
        };
        let last = &mut hops[last_idx];
        last.out_if = out_if;
        last.mac = hop_mac(last_key, self.info, last.ia, last.in_if, out_if, prev_mac);
        let chained = last.mac;
        hops.push(HopEntry {
            ia: next_ia,
            in_if: next_in_if,
            out_if: IfaceId::NONE,
            mac: hop_mac(
                next_key,
                self.info,
                next_ia,
                next_in_if,
                IfaceId::NONE,
                chained,
            ),
        });
        Segment {
            kind: self.kind,
            info: self.info,
            hops: Arc::from(hops),
        }
    }

    /// First (originating) AS of the segment.
    pub(crate) fn first_ia(&self) -> IsdAsn {
        self.hops[0].ia
    }

    /// Number of ASes in the segment.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Replace the hop chain wholesale (re-interning it). Only
    /// meaningful for tests that need to forge tampered segments; honest
    /// construction goes through [`Segment::originate`]/[`Segment::extend`].
    pub fn with_hops(&self, hops: Vec<HopEntry>) -> Segment {
        Segment {
            kind: self.kind,
            info: self.info,
            hops: Arc::from(hops),
        }
    }

    /// Verify the segment: endpoint structure plus the full MAC chain.
    ///
    /// The structural check (origin has no ingress, terminal has no
    /// egress) is what defeats raw truncation: a chopped segment's new
    /// last hop still carries the egress interface its MAC was computed
    /// over, so it cannot masquerade as a terminal hop.
    pub fn verify<F>(&self, mut key_of: F) -> bool
    where
        F: FnMut(IsdAsn) -> SymmetricKey,
    {
        match (self.hops.first(), self.hops.last()) {
            (Some(f), Some(l)) if f.in_if.is_none() && l.out_if.is_none() => {}
            _ => return false,
        }
        let mut prev = MacTag(0);
        for h in self.hops.iter() {
            let expect = hop_mac(&key_of(h.ia), self.info, h.ia, h.in_if, h.out_if, prev);
            if expect != h.mac {
                return false;
            }
            prev = h.mac;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Asn;

    impl Segment {
        /// Whether the segment visits any AS twice: what the beaconing
        /// tests hold every registered segment to.
        pub(crate) fn has_loop(&self) -> bool {
            for (i, h) in self.hops.iter().enumerate() {
                if self.hops[i + 1..].iter().any(|o| o.ia == h.ia) {
                    return true;
                }
            }
            false
        }
    }

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    fn key(ia_: IsdAsn) -> SymmetricKey {
        SymmetricKey::derive(1234, ia_)
    }

    fn three_hop_segment() -> Segment {
        let (a, b, c) = (ia(17, 1), ia(17, 2), ia(17, 3));
        Segment::originate(SegmentKind::Down, 42, a, &key(a))
            .extend(IfaceId(1), &key(a), b, IfaceId(1), &key(b))
            .extend(IfaceId(2), &key(b), c, IfaceId(1), &key(c))
    }

    #[test]
    fn originate_and_extend_build_expected_shape() {
        let seg = three_hop_segment();
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.first_ia(), ia(17, 1));
        assert_eq!(seg.hops[2].ia, ia(17, 3));
        assert_eq!(seg.hops[0].in_if, IfaceId::NONE);
        assert_eq!(seg.hops[0].out_if, IfaceId(1));
        assert_eq!(seg.hops[1].in_if, IfaceId(1));
        assert_eq!(seg.hops[1].out_if, IfaceId(2));
        assert_eq!(seg.hops[2].out_if, IfaceId::NONE);
    }

    #[test]
    fn verify_accepts_honest_chain() {
        assert!(three_hop_segment().verify(key));
    }

    #[test]
    fn verify_rejects_tampered_interface() {
        let seg = three_hop_segment();
        let mut hops = seg.hops.to_vec();
        hops[1].out_if = IfaceId(9);
        assert!(!seg.with_hops(hops).verify(key));
    }

    #[test]
    fn verify_rejects_spliced_hop() {
        let seg = three_hop_segment();
        // Replace the middle AS wholesale with an entry MAC'd standalone
        // (not chained): detection relies on the chain.
        let evil = ia(19, 99);
        let mut hops = seg.hops.to_vec();
        hops[1] = HopEntry {
            ia: evil,
            in_if: IfaceId(1),
            out_if: IfaceId(2),
            mac: hop_mac(
                &key(evil),
                seg.info,
                evil,
                IfaceId(1),
                IfaceId(2),
                MacTag(0),
            ),
        };
        assert!(!seg.with_hops(hops).verify(key));
    }

    #[test]
    fn verify_rejects_wrong_info_field() {
        let mut seg = three_hop_segment();
        seg.info ^= 1;
        assert!(!seg.verify(key));
    }

    #[test]
    fn truncation_of_suffix_still_verifies_prefix_chain() {
        // Dropping trailing hops leaves a valid chain only if the new last
        // hop's out_if/MAC are re-issued; raw truncation breaks it because
        // the last hop's MAC covers its (now wrong) egress interface.
        let seg = three_hop_segment();
        let mut hops = seg.hops.to_vec();
        hops.pop();
        assert!(
            !seg.with_hops(hops).verify(key),
            "raw truncation must not verify"
        );
    }

    #[test]
    fn loop_detection() {
        let seg = three_hop_segment();
        assert!(!seg.has_loop());
        let (a, c) = (ia(17, 1), ia(17, 3));
        let looped = seg.extend(IfaceId(5), &key(c), a, IfaceId(9), &key(a));
        assert!(looped.has_loop());
    }
}
