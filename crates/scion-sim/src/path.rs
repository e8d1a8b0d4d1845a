//! End-to-end SCION paths: hop sequences, hop-predicate strings and
//! path metadata (`scion showpaths --extended` fields).

use crate::addr::{AddrParseError, IfaceId, IsdAsn, Text};
use crate::crypto::MacTag;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// One transited AS on a path, with the ingress interface the packet
/// arrives on and the egress interface it leaves through. Interface id 0
/// (`IfaceId::NONE`) marks the missing side at the two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathHop {
    pub ia: IsdAsn,
    pub ingress: IfaceId,
    pub egress: IfaceId,
}

impl PathHop {
    pub fn new(ia: IsdAsn, ingress: IfaceId, egress: IfaceId) -> PathHop {
        PathHop {
            ia,
            ingress,
            egress,
        }
    }
}

impl PathHop {
    /// Canonical hop-predicate form used by `--sequence`:
    /// `17-ffaa:0:1107#2,5` (ingress,egress).
    fn render(&self, text: &mut Text) {
        text.isd_asn(self.ia);
        text.push(b'#');
        text.dec(self.ingress.0);
        text.push(b',');
        text.dec(self.egress.0);
    }
}

impl fmt::Display for PathHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        self.render(&mut text);
        f.write_str(text.as_str())
    }
}

impl FromStr for PathHop {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ia, ifs) = s
            .split_once('#')
            .ok_or_else(|| AddrParseError::BadHost(s.to_string()))?;
        let ia: IsdAsn = ia.parse()?;
        let (ig, eg) = ifs
            .split_once(',')
            .ok_or_else(|| AddrParseError::BadHost(s.to_string()))?;
        let parse_if = |t: &str| -> Result<IfaceId, AddrParseError> {
            t.parse::<u16>()
                .map(IfaceId)
                .map_err(|_| AddrParseError::BadHost(s.to_string()))
        };
        Ok(PathHop {
            ia,
            ingress: parse_if(ig)?,
            egress: parse_if(eg)?,
        })
    }
}

/// Liveness of a path as probed by `showpaths` (the `--extended` "Status"
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathStatus {
    Alive,
    Timeout,
    /// Not probed (showpaths without status probing).
    Unknown,
}

impl fmt::Display for PathStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStatus::Alive => write!(f, "alive"),
            PathStatus::Timeout => write!(f, "timeout"),
            PathStatus::Unknown => write!(f, "unknown"),
        }
    }
}

/// A complete forwarding path between two ASes, as handed out by the path
/// server and accepted by the data plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScionPath {
    /// Transited ASes in order, source first, destination last.
    pub hops: Vec<PathHop>,
    /// Path MTU: minimum of all link MTUs.
    pub mtu: u32,
    /// Sum of one-way link propagation delays (the "Latency" hint that
    /// `showpaths --extended` reports when metadata is available).
    pub expected_latency_ms: f64,
    /// Liveness at path-server query time.
    pub status: PathStatus,
    /// Chained hop-field MACs, one per hop, attached by the path server.
    /// The data plane recomputes and checks these; a path parsed from a
    /// bare sequence string has no MACs and must be re-authorized against
    /// a path server before it can forward packets.
    #[serde(default)]
    pub macs: Vec<MacTag>,
}

impl ScionPath {
    /// Number of ASes on the path (the paper's "hop count"; e.g. the
    /// 6-hop and 7-hop classes of Fig. 5).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Source AS.
    pub fn src(&self) -> Option<IsdAsn> {
        self.hops.first().map(|h| h.ia)
    }

    /// Destination AS.
    pub fn dst(&self) -> Option<IsdAsn> {
        self.hops.last().map(|h| h.ia)
    }

    /// The ordered set of ISDs the path traverses (deduplicated,
    /// order-preserving) — stored with each measurement in the paper's DB.
    pub fn isd_set(&self) -> Vec<u16> {
        let mut out: Vec<u16> = Vec::new();
        for h in &self.hops {
            if out.last() != Some(&h.ia.isd.0) {
                out.push(h.ia.isd.0);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether any AS appears twice (invalid path).
    pub fn has_loop(&self) -> bool {
        for (i, h) in self.hops.iter().enumerate() {
            if self.hops[i + 1..].iter().any(|o| o.ia == h.ia) {
                return true;
            }
        }
        false
    }

    /// Canonical hop-predicate sequence string, the exact format passed to
    /// `scion ping --sequence '...'` in the paper's test-suite.
    pub fn sequence(&self) -> String {
        let mut s = String::new();
        let mut text = Text::new();
        for (i, h) in self.hops.iter().enumerate() {
            if text.room() < Text::HOP {
                s.push_str(text.as_str());
                text.clear();
            }
            if i > 0 {
                text.push(b' ');
            }
            h.render(&mut text);
        }
        s.push_str(text.as_str());
        s
    }

    /// Parse a hop-predicate sequence back into an (unmetadata'd) path.
    /// MTU/latency/status are not carried by the sequence format, so they
    /// are filled with neutral defaults; resolve against a path server to
    /// re-attach metadata.
    pub fn from_sequence(s: &str) -> Result<ScionPath, AddrParseError> {
        let hops = s
            .split_whitespace()
            .map(|h| h.parse::<PathHop>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScionPath {
            hops,
            mtu: 0,
            expected_latency_ms: 0.0,
            status: PathStatus::Unknown,
            macs: Vec::new(),
        })
    }

    /// Structural equality on hop sequence only (ignores metadata), used
    /// to match database paths against freshly discovered ones.
    pub fn same_route(&self, other: &ScionPath) -> bool {
        self.hops == other.hops
    }

    /// Cheap 128-bit digest over the hop sequence and the MAC chain —
    /// the cache key for validation/compile caches. Two differently
    /// seeded splitmix lanes, folded in one traversal, make accidental
    /// collisions over realistic path sets negligible; it runs on every
    /// cached compile and liveness probe, so it must cost nanoseconds,
    /// not a keyed-hash pass.
    pub(crate) fn digest(&self) -> PathDigest {
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let mut x = (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 32)
        }
        let mut a = 0x7061_7468u64;
        let mut b = 0xd19e_57edu64;
        for hop in &self.hops {
            let ia = ((hop.ia.isd.0 as u64) << 48) ^ hop.ia.asn.0;
            let ifaces = ((hop.ingress.0 as u64) << 16) | hop.egress.0 as u64;
            a = mix(mix(a, ia), ifaces);
            b = mix(mix(b, ifaces), ia);
        }
        for m in &self.macs {
            a = mix(a, m.0);
            b = mix(b, !m.0);
        }
        // Fold the lengths in so `hops=[x], macs=[]` and `hops=[]`,
        // `macs=[x']` style boundary shifts cannot alias.
        a = mix(a, (self.hops.len() as u64) << 32 | self.macs.len() as u64);
        b = mix(b, (self.macs.len() as u64) << 32 | self.hops.len() as u64);
        (a, b)
    }
}

/// Digest of a path's identity (hops + MACs); see [`ScionPath::digest`].
pub(crate) type PathDigest = (u64, u64);

/// Deterministic 64-bit key of a hop tuple — the dedup key the path
/// server uses instead of building sequence strings per candidate.
pub(crate) fn route_key(hops: &[PathHop]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    hops.hash(&mut h);
    h.finish()
}

/// Compare two hops by their rendered hop-predicate strings without
/// allocating.
fn hop_display_cmp(a: &PathHop, b: &PathHop) -> Ordering {
    let (mut ta, mut tb) = (Text::new(), Text::new());
    a.render(&mut ta);
    b.render(&mut tb);
    ta.as_str().cmp(tb.as_str())
}

/// Order two paths exactly as comparing their [`ScionPath::sequence`]
/// strings would, hop by hop and allocation-free.
///
/// Equivalence holds because the separator `' '` (0x20) sorts below
/// every byte a rendered hop can contain (`#` 0x23, `,` 0x2c, `-` 0x2d,
/// `:` 0x3a, digits, hex letters): whenever one side's next hop string
/// is a strict prefix of the other's, or one path is a strict hop
/// prefix of the other, the joined-string comparison also resolves in
/// favour of the shorter side.
pub(crate) fn sequence_cmp(a: &ScionPath, b: &ScionPath) -> Ordering {
    for (ha, hb) in a.hops.iter().zip(&b.hops) {
        if ha == hb {
            continue;
        }
        let ord = hop_display_cmp(ha, hb);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.hops.len().cmp(&b.hops.len())
}

impl fmt::Display for ScionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // showpaths-like rendering: `A 2>1 B 4>3 C`.
        let mut text = Text::new();
        for (i, h) in self.hops.iter().enumerate() {
            if text.room() < Text::HOP {
                f.write_str(text.as_str())?;
                text.clear();
            }
            if i > 0 {
                text.push(b'>');
                text.dec(h.ingress.0);
                text.push(b' ');
            }
            text.isd_asn(h.ia);
            if i == 0 || i < self.hops.len() - 1 {
                text.push(b' ');
                text.dec(h.egress.0);
            }
        }
        f.write_str(text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Asn;

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    fn sample_path() -> ScionPath {
        ScionPath {
            hops: vec![
                PathHop::new(ia(17, 0xeaf), IfaceId::NONE, IfaceId(1)),
                PathHop::new(ia(17, 0x1107), IfaceId(5), IfaceId(2)),
                PathHop::new(ia(17, 0x1101), IfaceId(3), IfaceId(4)),
                PathHop::new(ia(16, 0x1002), IfaceId(9), IfaceId::NONE),
            ],
            mtu: 1472,
            expected_latency_ms: 21.5,
            status: PathStatus::Alive,
            macs: Vec::new(),
        }
    }

    #[test]
    fn hop_predicate_roundtrip() {
        let h = PathHop::new(ia(17, 0x1107), IfaceId(2), IfaceId(5));
        assert_eq!(h.to_string(), "17-ffaa:0:1107#2,5");
        assert_eq!("17-ffaa:0:1107#2,5".parse::<PathHop>().unwrap(), h);
    }

    #[test]
    fn hop_predicate_rejects_malformed() {
        for s in [
            "17-ffaa:0:1107",
            "17-ffaa:0:1107#2",
            "17-ffaa:0:1107#a,b",
            "#1,2",
        ] {
            assert!(s.parse::<PathHop>().is_err(), "{s} should fail");
        }
    }

    #[test]
    fn sequence_roundtrip() {
        let p = sample_path();
        let parsed = ScionPath::from_sequence(&p.sequence()).unwrap();
        assert!(parsed.same_route(&p));
    }

    #[test]
    fn hop_count_counts_ases() {
        assert_eq!(sample_path().hop_count(), 4);
    }

    #[test]
    fn isd_set_is_sorted_and_deduped() {
        assert_eq!(sample_path().isd_set(), vec![16, 17]);
    }

    #[test]
    fn loop_detection() {
        let mut p = sample_path();
        assert!(!p.has_loop());
        p.hops
            .push(PathHop::new(ia(17, 0x1107), IfaceId(1), IfaceId::NONE));
        assert!(p.has_loop());
    }

    #[test]
    fn display_shows_interface_chain() {
        let s = sample_path().to_string();
        assert!(s.starts_with("17-ffaa:0:eaf 1>5 17-ffaa:0:1107"), "{s}");
        assert!(s.ends_with(">9 16-ffaa:0:1002"), "{s}");
    }

    #[test]
    fn sequence_cmp_matches_string_comparison() {
        let base = sample_path();
        let mut shorter = base.clone();
        shorter.hops.pop();
        let mut other_iface = base.clone();
        other_iface.hops[1].egress = IfaceId(23); // "2" vs "23": prefix case
        let mut other_as = base.clone();
        other_as.hops[2].ia = ia(17, 0x1102);
        let paths = [base, shorter, other_iface, other_as];
        for a in &paths {
            for b in &paths {
                assert_eq!(
                    sequence_cmp(a, b),
                    a.sequence().cmp(&b.sequence()),
                    "{} vs {}",
                    a.sequence(),
                    b.sequence()
                );
            }
        }
    }

    #[test]
    fn digest_tracks_hops_and_macs() {
        let p = sample_path();
        assert_eq!(p.digest(), p.digest());
        let mut moved = p.clone();
        moved.hops[1].egress = IfaceId(9);
        assert_ne!(p.digest(), moved.digest());
        let mut tagged = p.clone();
        tagged.macs = vec![MacTag(1); tagged.hops.len()];
        assert_ne!(p.digest(), tagged.digest());
        // Metadata does not participate: same route, same digest.
        let mut remeta = p.clone();
        remeta.mtu = 9000;
        remeta.expected_latency_ms = 1.0;
        remeta.status = PathStatus::Timeout;
        assert_eq!(p.digest(), remeta.digest());
    }

    #[test]
    fn src_dst_accessors() {
        let p = sample_path();
        assert_eq!(p.src(), Some(ia(17, 0xeaf)));
        assert_eq!(p.dst(), Some(ia(16, 0x1002)));
        let empty = ScionPath {
            hops: vec![],
            mtu: 0,
            expected_latency_ms: 0.0,
            status: PathStatus::Unknown,
            macs: Vec::new(),
        };
        assert_eq!(empty.src(), None);
    }
}
