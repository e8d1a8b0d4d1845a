//! Path server: combines beaconed segments into end-to-end forwarding
//! paths, attaches metadata (MTU, expected latency) and hop-field MACs,
//! and validates paths presented by end hosts.
//!
//! This implements the lookup contract behind `scion showpaths`: paths
//! are the up×core×down combinations of registered segments (plus
//! same-ISD shortcuts), deduplicated, loop-filtered and ranked by hop
//! count — the ranking the paper relies on when it retains only paths
//! with at most `min_hops + 1` hops.

use crate::addr::{IfaceId, IsdAsn};
use crate::beacon::{run_beaconing, BeaconConfig, BeaconStore, KeyProvider};
use crate::crypto::MacTag;
use crate::path::{route_key, sequence_cmp, PathHop, PathStatus, ScionPath};
use crate::segments::{hop_mac, Segment};
use crate::topology::{LinkKind, Topology};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Info-field constant binding data-plane path MACs (distinct from
/// beacon-time segment MACs).
const PATH_INFO: u64 = 0x70617468;

/// Errors from path validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The hop sequence revisits an AS.
    Loop,
    /// An egress interface does not connect to the next hop's ingress.
    BrokenAdjacency(usize),
    /// The path violates valley-freedom (goes down then up again).
    Valley(usize),
    /// An unknown AS appears on the path.
    UnknownAs(IsdAsn),
    /// The MAC chain is missing or does not verify.
    BadMac,
    /// The path is empty or malformed at its endpoints.
    Malformed,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Loop => write!(f, "path revisits an AS"),
            PathError::BrokenAdjacency(i) => write!(f, "hops {i} and {} are not adjacent", i + 1),
            PathError::Valley(i) => write!(f, "valley violation at hop {i}"),
            PathError::UnknownAs(ia) => write!(f, "unknown AS {ia} on path"),
            PathError::BadMac => write!(f, "hop-field MAC verification failed"),
            PathError::Malformed => write!(f, "malformed path"),
        }
    }
}

impl std::error::Error for PathError {}

/// One `(src, dst)` entry of the ranked cache: the ranked prefix forced
/// so far, the dedup set behind it, and the generator for the remaining
/// hop-count levels (`None` once exhausted).
#[derive(Debug)]
struct LazyRanked {
    paths: Arc<Vec<ScionPath>>,
    seen: HashSet<u64>,
    gen: Option<CombineGen>,
}

impl LazyRanked {
    fn new(gen: CombineGen) -> LazyRanked {
        LazyRanked {
            paths: Arc::new(Vec::new()),
            seen: HashSet::new(),
            gen: Some(gen),
        }
    }
}

/// Lazy (up, core, down) combination state for one `(src, dst)` pair.
///
/// A *level* is a hop count: forcing level L emits exactly the candidate
/// paths of L hops, each level internally sorted by (latency, sequence).
/// Since the exhaustive ranking orders by hop count first, forcing
/// levels in ascending order grows a prefix that is byte-identical to
/// the exhaustive list — without ever materializing the up×core×down
/// cross product. Only the up×down pairs (and their shortcut/peering
/// splices, bounded by pair count × segment length²) are enumerated up
/// front; the core dimension, the one that explodes with topology size,
/// stays a per-level store lookup.
#[derive(Debug)]
struct CombineGen {
    pairs: Vec<PairGen>,
    /// Shortcut and peering hop lists, bucketed by hop count and handed
    /// out when their level is forced.
    extras: HashMap<usize, Vec<Vec<PathHop>>>,
    next_level: usize,
    max_level: usize,
}

/// One (up, down) segment choice. `up`/`down` are `None` at core
/// endpoints; segment clones are refcount bumps (interned hop chains).
#[derive(Debug)]
struct PairGen {
    up: Option<Segment>,
    down: Option<Segment>,
    /// Core-segment store key, when the two core endpoints differ.
    core_key: Option<(IsdAsn, IsdAsn)>,
    /// Hop count of the direct join (shared core AS), when they don't.
    direct_level: Option<usize>,
    /// Sum of the present up/down segment lengths, and how many of the
    /// two are present: a core segment of length L joins into a path of
    /// `base + L - present` hops (each junction AS is shared).
    base: usize,
    present: usize,
}

/// The path server for one simulated network.
///
/// In real SCION the path server *is* a cache over beaconed segments;
/// this one additionally memoizes a lazily-extended ranked path prefix
/// per `(src, dst)` pair (`PathServer::ranked_prefix`). Segments are
/// immutable after beaconing, so cached entries never need invalidation
/// — liveness against the mutable fault state is the network's per-call
/// concern, not the path server's.
#[derive(Debug)]
pub struct PathServer {
    store: Arc<BeaconStore>,
    keys: KeyProvider,
    /// Memoized ranked prefixes, shared across network forks. Lookups
    /// compute under the lock so each level of each pair is forced
    /// exactly once globally, keeping cache-counter totals identical
    /// between sequential and parallel campaigns.
    ranked_cache: Mutex<HashMap<(IsdAsn, IsdAsn), LazyRanked>>,
}

impl PathServer {
    /// Run beaconing over `topo` and index the resulting segments.
    pub(crate) fn new(topo: &Topology, keys: KeyProvider, cfg: &BeaconConfig) -> PathServer {
        PathServer {
            store: Arc::new(run_beaconing(topo, &keys, cfg)),
            keys,
            ranked_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The immutable segment store (shared by every fork of a network).
    pub(crate) fn beacon_store(&self) -> &Arc<BeaconStore> {
        &self.store
    }

    /// The ranked path prefix for `(src, dst)`, forced to hold at least
    /// `k` paths (or everything, if fewer exist). Returns the prefix,
    /// whether the pair's entry pre-existed in the memoization cache,
    /// and how many hop-count levels this call newly forced.
    ///
    /// The prefix only ever grows, and every prefix of it is
    /// byte-identical to the same slice of the exhaustive ranking —
    /// callers that need the first k paths never pay for the rest.
    pub(crate) fn ranked_prefix(
        &self,
        topo: &Topology,
        src: IsdAsn,
        dst: IsdAsn,
        k: usize,
    ) -> (Arc<Vec<ScionPath>>, bool, u64) {
        if src == dst {
            return (Arc::new(Vec::new()), true, 0);
        }
        // Compute under the lock: concurrent callers for the same pair
        // must observe exactly one miss (and one forcing of each level)
        // between them.
        let mut cache = self.ranked_cache.lock();
        let (hit, entry) = match cache.entry((src, dst)) {
            Entry::Occupied(e) => (true, e.into_mut()),
            Entry::Vacant(v) => (
                false,
                v.insert(LazyRanked::new(self.combine_gen(topo, src, dst))),
            ),
        };
        let mut forced = 0u64;
        while entry.paths.len() < k && self.force_level(topo, entry) {
            forced += 1;
        }
        (entry.paths.clone(), hit, forced)
    }

    /// All end-to-end paths from `src` to `dst`, ranked by hop count then
    /// expected latency, capped at `max`. Mirrors `scion showpaths -m`.
    pub fn query(&self, topo: &Topology, src: IsdAsn, dst: IsdAsn, max: usize) -> Vec<ScionPath> {
        if max == 0 {
            return Vec::new();
        }
        let (prefix, _, _) = self.ranked_prefix(topo, src, dst, max);
        prefix.iter().take(max).cloned().collect()
    }

    /// Reference implementation of [`PathServer::query`] that bypasses
    /// the memoization cache entirely — the oracle cached lookups are
    /// tested against, and the baseline the benchmarks compare to.
    pub(crate) fn query_uncached(
        &self,
        topo: &Topology,
        src: IsdAsn,
        dst: IsdAsn,
        max: usize,
    ) -> Vec<ScionPath> {
        if src == dst || max == 0 {
            return Vec::new();
        }
        let mut out = self.enumerate(topo, src, dst);
        out.truncate(max);
        out
    }

    /// Enumerate and rank every path from `src` to `dst` (uncapped).
    fn enumerate(&self, topo: &Topology, src: IsdAsn, dst: IsdAsn) -> Vec<ScionPath> {
        let src_core = is_core(topo, src);
        let dst_core = is_core(topo, dst);

        let ups: Vec<Option<&Segment>> = if src_core {
            vec![None]
        } else {
            match self.store.down.get(&src) {
                Some(v) => v.iter().map(Some).collect(),
                None => return Vec::new(),
            }
        };
        let downs: Vec<Option<&Segment>> = if dst_core {
            vec![None]
        } else {
            match self.store.down.get(&dst) {
                Some(v) => v.iter().map(Some).collect(),
                None => return Vec::new(),
            }
        };

        let mut seen: HashSet<u64> = HashSet::new();
        let mut out: Vec<ScionPath> = Vec::new();
        for up in &ups {
            let cs = up.map_or(src, |s| s.first_ia());
            for down in &downs {
                let cd = down.map_or(dst, |s| s.first_ia());
                if cs == cd {
                    self.push_candidate(topo, *up, None, *down, &mut seen, &mut out);
                } else if let Some(cores) = self.store.core.get(&(cs, cd)) {
                    for cseg in cores {
                        self.push_candidate(topo, *up, Some(cseg), *down, &mut seen, &mut out);
                    }
                }
                // Same-ISD shortcut: splice at a common non-core AS.
                if let (Some(us), Some(ds)) = (up, down) {
                    if us.first_ia().isd == ds.first_ia().isd {
                        for p in shortcut_candidates(us, ds) {
                            self.finish_candidate(topo, p, &mut seen, &mut out);
                        }
                    }
                    // Peering: cross a peering link from an AS on the up
                    // segment to an AS on the down segment (possibly in a
                    // different ISD), skipping the core entirely.
                    for p in peering_candidates(topo, us, ds) {
                        self.finish_candidate(topo, p, &mut seen, &mut out);
                    }
                }
            }
        }
        // `total_cmp`, not `partial_cmp().expect(..)`: a degenerate
        // (e.g. generated) topology can yield a NaN expected latency,
        // which must rank last within its hop-count class, not abort.
        out.sort_by(|a, b| {
            a.hop_count()
                .cmp(&b.hop_count())
                .then_with(|| a.expected_latency_ms.total_cmp(&b.expected_latency_ms))
                .then_with(|| sequence_cmp(a, b))
        });
        out
    }

    /// Build the lazy combination generator for `(src, dst)`: the
    /// up×down pairs, their shortcut/peering splices bucketed by hop
    /// count, and the level bounds. The core dimension is *not*
    /// expanded here — it stays a store lookup per forced level.
    fn combine_gen(&self, topo: &Topology, src: IsdAsn, dst: IsdAsn) -> CombineGen {
        let mut gen = CombineGen {
            pairs: Vec::new(),
            extras: HashMap::new(),
            next_level: 2,
            max_level: 1, // empty until a pair raises it
        };
        let src_core = is_core(topo, src);
        let dst_core = is_core(topo, dst);
        let ups: Vec<Option<&Segment>> = if src_core {
            vec![None]
        } else {
            match self.store.down.get(&src) {
                Some(v) => v.iter().map(Some).collect(),
                None => return gen,
            }
        };
        let downs: Vec<Option<&Segment>> = if dst_core {
            vec![None]
        } else {
            match self.store.down.get(&dst) {
                Some(v) => v.iter().map(Some).collect(),
                None => return gen,
            }
        };

        for up in &ups {
            let cs = up.map_or(src, |s| s.first_ia());
            for down in &downs {
                let cd = down.map_or(dst, |s| s.first_ia());
                let base = up.map_or(0, |s| s.len()) + down.map_or(0, |s| s.len());
                let present = up.is_some() as usize + down.is_some() as usize;
                let (core_key, direct_level) = if cs == cd {
                    let lvl = base + 1 - present;
                    gen.max_level = gen.max_level.max(lvl);
                    (None, Some(lvl))
                } else {
                    match self.store.core.get(&(cs, cd)) {
                        Some(cores) if !cores.is_empty() => {
                            let lmax = cores.iter().map(Segment::len).max().unwrap_or(0);
                            gen.max_level = gen.max_level.max(base + lmax - present);
                            (Some((cs, cd)), None)
                        }
                        _ => (None, None),
                    }
                };
                if let (Some(us), Some(ds)) = (up, down) {
                    // Same-ISD shortcut: splice at a common non-core AS.
                    if us.first_ia().isd == ds.first_ia().isd {
                        for hops in shortcut_candidates(us, ds) {
                            gen.max_level = gen.max_level.max(hops.len());
                            gen.extras.entry(hops.len()).or_default().push(hops);
                        }
                    }
                    // Peering: cross a peering link from an AS on the up
                    // segment to an AS on the down segment (possibly in a
                    // different ISD), skipping the core entirely.
                    for hops in peering_candidates(topo, us, ds) {
                        gen.max_level = gen.max_level.max(hops.len());
                        gen.extras.entry(hops.len()).or_default().push(hops);
                    }
                }
                if core_key.is_some() || direct_level.is_some() {
                    gen.pairs.push(PairGen {
                        up: up.cloned(),
                        down: down.cloned(),
                        core_key,
                        direct_level,
                        base,
                        present,
                    });
                }
            }
        }
        gen
    }

    /// Force one more hop-count level of `entry`: generate every
    /// candidate of exactly that hop count, dedup against everything
    /// already emitted, sort the batch by (latency, sequence) and append
    /// it to the prefix. Returns `false` once the generator is spent.
    fn force_level(&self, topo: &Topology, entry: &mut LazyRanked) -> bool {
        if entry
            .gen
            .as_ref()
            .is_none_or(|g| g.next_level > g.max_level)
        {
            entry.gen = None;
            return false;
        }
        let gen = entry.gen.as_mut().expect("checked above");
        let lv = gen.next_level;
        gen.next_level += 1;
        let mut candidates: Vec<Vec<PathHop>> = Vec::new();
        for pair in &gen.pairs {
            if pair.direct_level == Some(lv) {
                if let Some(hops) = join_segments(pair.up.as_ref(), None, pair.down.as_ref()) {
                    candidates.push(hops);
                }
            }
            if let Some(key) = pair.core_key {
                // A path of `lv` hops needs a core segment of exactly
                // `lv - base + present` ASes (junctions are shared).
                let need = lv + pair.present;
                if need > pair.base {
                    let need_len = need - pair.base;
                    if need_len >= 2 {
                        if let Some(cores) = self.store.core.get(&key) {
                            for cseg in cores.iter().filter(|c| c.len() == need_len) {
                                if let Some(hops) =
                                    join_segments(pair.up.as_ref(), Some(cseg), pair.down.as_ref())
                                {
                                    candidates.push(hops);
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some(extra) = gen.extras.remove(&lv) {
            candidates.extend(extra);
        }

        let mut batch: Vec<ScionPath> = Vec::new();
        for hops in candidates {
            debug_assert_eq!(hops.len(), lv, "level generates its own hop count");
            if let Some(mut path) = self.build_path(topo, hops) {
                if entry.seen.insert(route_key(&path.hops)) {
                    path.macs = self.mac_chain(&path);
                    debug_assert!(
                        self.validate(topo, &path).is_ok(),
                        "constructed path must validate"
                    );
                    batch.push(path);
                }
            }
        }
        if !batch.is_empty() {
            // Within one level the exhaustive ranking orders by latency
            // then sequence (hop counts are all equal) — same comparator,
            // so every forced prefix matches the exhaustive reference.
            batch.sort_by(|a, b| {
                a.expected_latency_ms
                    .total_cmp(&b.expected_latency_ms)
                    .then_with(|| sequence_cmp(a, b))
            });
            Arc::make_mut(&mut entry.paths).extend(batch);
        }
        true
    }

    /// Scan the ranked prefix for a path with `route`'s hop sequence,
    /// forcing further levels only while no match has appeared. Returns
    /// the match (if any), whether the pair's cache entry pre-existed,
    /// and how many levels this call newly forced.
    pub(crate) fn find_route(
        &self,
        topo: &Topology,
        src: IsdAsn,
        dst: IsdAsn,
        route: &ScionPath,
    ) -> (Option<ScionPath>, bool, u64) {
        if src == dst {
            return (None, true, 0);
        }
        let mut cache = self.ranked_cache.lock();
        let (hit, entry) = match cache.entry((src, dst)) {
            Entry::Occupied(e) => (true, e.into_mut()),
            Entry::Vacant(v) => (
                false,
                v.insert(LazyRanked::new(self.combine_gen(topo, src, dst))),
            ),
        };
        let mut forced = 0u64;
        let mut scanned = 0usize;
        loop {
            if let Some(p) = entry.paths[scanned..].iter().find(|p| p.same_route(route)) {
                return (Some(p.clone()), hit, forced);
            }
            scanned = entry.paths.len();
            if !self.force_level(topo, entry) {
                return (None, hit, forced);
            }
            forced += 1;
        }
    }

    /// Validate a path exactly as a chain of border routers would:
    /// structure, adjacency, valley-freedom, and the MAC chain.
    pub fn validate(&self, topo: &Topology, path: &ScionPath) -> Result<(), PathError> {
        validate_structure(topo, path)?;
        if path.macs.len() != path.hops.len() {
            return Err(PathError::BadMac);
        }
        let mut prev = MacTag(0);
        for (h, mac) in path.hops.iter().zip(&path.macs) {
            let expect = hop_mac(
                &self.keys.key(h.ia),
                PATH_INFO,
                h.ia,
                h.ingress,
                h.egress,
                prev,
            );
            if expect != *mac {
                return Err(PathError::BadMac);
            }
            prev = *mac;
        }
        Ok(())
    }

    fn push_candidate(
        &self,
        topo: &Topology,
        up: Option<&Segment>,
        core: Option<&Segment>,
        down: Option<&Segment>,
        seen: &mut HashSet<u64>,
        out: &mut Vec<ScionPath>,
    ) {
        if let Some(hops) = join_segments(up, core, down) {
            self.finish_candidate(topo, hops, seen, out);
        }
    }

    fn finish_candidate(
        &self,
        topo: &Topology,
        hops: Vec<PathHop>,
        seen: &mut HashSet<u64>,
        out: &mut Vec<ScionPath>,
    ) {
        let Some(mut path) = self.build_path(topo, hops) else {
            return;
        };
        if !seen.insert(route_key(&path.hops)) {
            return;
        }
        path.macs = self.mac_chain(&path);
        debug_assert!(
            self.validate(topo, &path).is_ok(),
            "constructed path must validate"
        );
        out.push(path);
    }

    /// Turn a candidate hop list into a metadata-complete path (no MACs
    /// yet). `None` if the candidate is degenerate or fails validation.
    fn build_path(&self, topo: &Topology, hops: Vec<PathHop>) -> Option<ScionPath> {
        let mut path = ScionPath {
            hops,
            mtu: 0,
            expected_latency_ms: 0.0,
            status: PathStatus::Alive,
            macs: Vec::new(),
        };
        if path.hops.len() < 2 || path.has_loop() {
            return None;
        }
        attach_metadata(topo, &mut path).ok()?;
        Some(path)
    }

    fn mac_chain(&self, path: &ScionPath) -> Vec<MacTag> {
        let mut macs = Vec::with_capacity(path.hops.len());
        let mut prev = MacTag(0);
        for h in &path.hops {
            let m = hop_mac(
                &self.keys.key(h.ia),
                PATH_INFO,
                h.ia,
                h.ingress,
                h.egress,
                prev,
            );
            macs.push(m);
            prev = m;
        }
        macs
    }
}

fn is_core(topo: &Topology, ia: IsdAsn) -> bool {
    topo.index_of(ia)
        .map(|i| topo.node(i).kind.is_core())
        .unwrap_or(false)
}

/// Merge up (reversed), core (forward) and down (forward) segments into a
/// hop list. Returns `None` for structurally impossible joins.
fn join_segments(
    up: Option<&Segment>,
    core: Option<&Segment>,
    down: Option<&Segment>,
) -> Option<Vec<PathHop>> {
    let mut hops: Vec<PathHop> = Vec::new();

    if let Some(us) = up {
        // Travel leaf -> core: iterate beacon hops in reverse.
        for (k, h) in us.hops.iter().enumerate().rev() {
            let ingress = if k == us.hops.len() - 1 {
                IfaceId::NONE
            } else {
                h.out_if
            };
            // Beacon in_if is the interface toward the parent = our egress
            // when traveling upward; the core's in_if is NONE.
            hops.push(PathHop::new(h.ia, ingress, h.in_if));
        }
    }

    if let Some(cs) = core {
        append_forward(&mut hops, cs)?;
    }

    if let Some(ds) = down {
        append_forward(&mut hops, ds)?;
    } else if let Some(last) = hops.last_mut() {
        last.egress = IfaceId::NONE;
    }

    if hops.is_empty() {
        return None;
    }
    Some(hops)
}

/// Append a beacon-direction segment, merging its first AS with the
/// current last hop (which must be the same AS, or the hop list empty).
fn append_forward(hops: &mut Vec<PathHop>, seg: &Segment) -> Option<()> {
    let mut iter = seg.hops.iter();
    let first = iter.next()?;
    match hops.last_mut() {
        Some(last) => {
            if last.ia != first.ia {
                return None;
            }
            last.egress = first.out_if;
        }
        None => {
            hops.push(PathHop::new(first.ia, IfaceId::NONE, first.out_if));
        }
    }
    for h in iter {
        hops.push(PathHop::new(h.ia, h.in_if, h.out_if));
    }
    // Terminal AS of the segment ends the (sub)path until a later append
    // overwrites its egress.
    if let Some(last) = hops.last_mut() {
        if last.egress == IfaceId::NONE || seg.hops.last().map(|h| h.out_if) == Some(IfaceId::NONE)
        {
            last.egress = IfaceId::NONE;
        }
    }
    Some(())
}

/// Same-ISD shortcuts: for every AS common to the up and down segments,
/// splice `src -> X` (from the up segment) with `X -> dst` (from the down
/// segment), skipping the core entirely.
fn shortcut_candidates(us: &Segment, ds: &Segment) -> Vec<Vec<PathHop>> {
    let mut out = Vec::new();
    for (i, uh) in us.hops.iter().enumerate() {
        if i == 0 {
            continue; // crossing at the core is the regular join
        }
        for (j, dh) in ds.hops.iter().enumerate() {
            if j == 0 || uh.ia != dh.ia {
                continue;
            }
            // Travel src = us.last -> ... -> us[i] = X, then ds[j] -> dst.
            let mut hops: Vec<PathHop> = Vec::new();
            for (k, h) in us.hops.iter().enumerate().rev() {
                if k < i {
                    break;
                }
                let ingress = if k == us.hops.len() - 1 {
                    IfaceId::NONE
                } else {
                    h.out_if
                };
                hops.push(PathHop::new(h.ia, ingress, h.in_if));
            }
            // hops.last() is X arriving from below; leave via ds[j].out_if.
            if let Some(x) = hops.last_mut() {
                x.egress = dh.out_if;
            }
            for h in &ds.hops[j + 1..] {
                hops.push(PathHop::new(h.ia, h.in_if, h.out_if));
            }
            if let Some(last) = hops.last_mut() {
                last.egress = IfaceId::NONE;
            }
            out.push(hops);
        }
    }
    out
}

/// Peering combination: for every AS `X` on the up segment with a
/// peering link to an AS `Y` on the down segment, build
/// `src → X —peer→ Y → dst`. This is SCION's peering-shortcut path
/// construction; the valley check enforces at most one peering crossing.
fn peering_candidates(topo: &Topology, us: &Segment, ds: &Segment) -> Vec<Vec<PathHop>> {
    let mut out = Vec::new();
    for (i, uh) in us.hops.iter().enumerate() {
        let Some(x_idx) = topo.index_of(uh.ia) else {
            continue;
        };
        for (j, dh) in ds.hops.iter().enumerate() {
            let Some(y_idx) = topo.index_of(dh.ia) else {
                continue;
            };
            for (_, link) in topo.links_of(x_idx) {
                if link.kind != LinkKind::Peering || link.peer_of(x_idx) != Some(y_idx) {
                    continue;
                }
                // Travel src = us.last -> ... -> us[i] = X.
                let mut hops: Vec<PathHop> = Vec::new();
                for (k, h) in us.hops.iter().enumerate().rev() {
                    if k < i {
                        break;
                    }
                    let ingress = if k == us.hops.len() - 1 {
                        IfaceId::NONE
                    } else {
                        h.out_if
                    };
                    hops.push(PathHop::new(h.ia, ingress, h.in_if));
                }
                // Cross the peering link.
                if let Some(x) = hops.last_mut() {
                    x.egress = link.iface_of(x_idx).expect("peering endpoint");
                }
                let y_in = link.iface_of(y_idx).expect("peering endpoint");
                let y_out = if j == ds.hops.len() - 1 {
                    IfaceId::NONE
                } else {
                    dh.out_if
                };
                hops.push(PathHop::new(dh.ia, y_in, y_out));
                // Continue down the rest of the down segment.
                for h in &ds.hops[j + 1..] {
                    hops.push(PathHop::new(h.ia, h.in_if, h.out_if));
                }
                if let Some(last) = hops.last_mut() {
                    last.egress = IfaceId::NONE;
                }
                out.push(hops);
            }
        }
    }
    out
}

/// Resolve each hop's egress link, check adjacency and valley-freedom,
/// and fill in MTU and expected latency.
fn attach_metadata(topo: &Topology, path: &mut ScionPath) -> Result<(), PathError> {
    validate_structure(topo, path)?;
    let mut mtu = u32::MAX;
    let mut latency = 0.0;
    for i in 0..path.hops.len() - 1 {
        let idx = topo
            .index_of(path.hops[i].ia)
            .ok_or(PathError::UnknownAs(path.hops[i].ia))?;
        let (_, link) = topo
            .link_at_iface(idx, path.hops[i].egress)
            .ok_or(PathError::BrokenAdjacency(i))?;
        mtu = mtu.min(link.mtu);
        latency += link.propagation_ms;
    }
    path.mtu = if mtu == u32::MAX { 0 } else { mtu };
    path.expected_latency_ms = latency;
    Ok(())
}

/// Structural validation: endpoint interfaces, adjacency, loops and
/// valley-freedom (up transitions may not follow core or down ones).
pub(crate) fn validate_structure(topo: &Topology, path: &ScionPath) -> Result<(), PathError> {
    if path.hops.len() < 2 {
        return Err(PathError::Malformed);
    }
    let first = &path.hops[0];
    let last = &path.hops[path.hops.len() - 1];
    if !first.ingress.is_none() || !last.egress.is_none() {
        return Err(PathError::Malformed);
    }
    if path.has_loop() {
        return Err(PathError::Loop);
    }

    // Phase machine: 0 = up, 1 = core, 2 = peering, 3 = down.
    // SCION's segment structure admits: up* (core* | peer?) down*.
    // A peering link may be crossed at most once, directly from the up
    // phase (it replaces the core segment); no core link may follow it.
    let mut phase = 0u8;
    for i in 0..path.hops.len() - 1 {
        let cur = &path.hops[i];
        let nxt = &path.hops[i + 1];
        let idx = topo.index_of(cur.ia).ok_or(PathError::UnknownAs(cur.ia))?;
        let nidx = topo.index_of(nxt.ia).ok_or(PathError::UnknownAs(nxt.ia))?;
        let (_, link) = topo
            .link_at_iface(idx, cur.egress)
            .ok_or(PathError::BrokenAdjacency(i))?;
        if link.peer_of(idx) != Some(nidx) || link.iface_of(nidx) != Some(nxt.ingress) {
            return Err(PathError::BrokenAdjacency(i));
        }
        phase = match link.kind {
            LinkKind::Parent if link.b == idx => {
                // child -> parent: upward, only before any turn.
                if phase != 0 {
                    return Err(PathError::Valley(i));
                }
                0
            }
            LinkKind::Core => {
                if phase > 1 {
                    return Err(PathError::Valley(i));
                }
                1
            }
            LinkKind::Peering => {
                if phase != 0 {
                    return Err(PathError::Valley(i));
                }
                2
            }
            LinkKind::Parent => 3, // parent -> child: downward, always ok.
        };
    }
    Ok(())
}

#[cfg(test)]
mod lazy_props {
    //! Property-based oracle for the lazy top-k path combination: for every
    //! prefix length k, the incrementally-forced ranking must be
    //! byte-identical to the exhaustive reference enumeration — on random
    //! BRITE-style topologies, capped and uncapped alike. Plus regression
    //! coverage for NaN latencies in the ranked sort and a scaling check
    //! that the capped beacon store stays sub-quadratic in topology size.

    use crate::beacon::BeaconConfig;
    use crate::net::ScionNetwork;
    use crate::topology::random::{random_topology, RandomTopologyConfig};
    use crate::topology::{AsKind, LinkKind, TopologyBuilder};
    use proptest::prelude::*;

    /// A small random internet: 1–3 ISDs, a handful of ASes each, with
    /// shortcut/peering structure exercised via `peering_prob`.
    fn small_config(isds: usize, hi: usize) -> RandomTopologyConfig {
        RandomTopologyConfig {
            isds,
            ases_per_isd: (4, hi),
            cores_per_isd: (1, 2),
            peering_prob: 0.4,
            ..RandomTopologyConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For all k, `ranked_prefix(..)[..k]` equals the uncached exhaustive
        /// ranking truncated to k — including Debug formatting, i.e. every
        /// field of every path, in order. Checked against the SAME server
        /// with ascending k, so the prefix really is extended incrementally
        /// rather than recomputed.
        #[test]
        fn lazy_prefix_matches_exhaustive_for_all_k(
            seed in 0u64..1_000,
            isds in 1usize..=3,
            hi in 4usize..=8,
            cap in prop_oneof![Just(2usize), Just(3usize), Just(usize::MAX)],
            src_pick in 0usize..64,
            dst_pick in 0usize..64,
        ) {
            let (topo, _user) = random_topology(seed, &small_config(isds, hi)).unwrap();
            let src = topo.node(crate::topology::AsIndex((src_pick % topo.num_ases()) as u32)).ia;
            let dst = topo.node(crate::topology::AsIndex((dst_pick % topo.num_ases()) as u32)).ia;
            let bc = BeaconConfig { beacons_per_pair: cap, ..BeaconConfig::default() };
            let net = ScionNetwork::with_beacon_config(topo, seed, &bc);
            let ps = net.path_server();
            let topo = net.topology();

            let oracle = ps.query_uncached(topo, src, dst, usize::MAX);
            for k in 0..=oracle.len() + 1 {
                let (prefix, _, _) = ps.ranked_prefix(topo, src, dst, k);
                let lazy: Vec<String> = prefix.iter().take(k).map(|p| format!("{p:?}")).collect();
                let want: Vec<String> = oracle.iter().take(k).map(|p| format!("{p:?}")).collect();
                prop_assert_eq!(&lazy, &want, "prefix diverges at k={} ({} -> {})", k, src, dst);
            }

            // find_route (the authorize fast path) agrees with the ranking:
            // every enumerated path is found, hop-for-hop.
            for p in oracle.iter().take(4) {
                let (found, _, _) = ps.find_route(topo, src, dst, p);
                let found = found.expect("ranked path must authorize");
                prop_assert!(found.same_route(p));
            }
        }
    }

    /// A NaN expected latency (degenerate geography) must not panic the
    /// ranked sort, and must rank last within its hop-count class — the
    /// `total_cmp` regression this PR fixed.
    #[test]
    fn nan_latency_ranks_last_without_panicking() {
        use crate::addr::{Asn, IsdAsn};
        use crate::geo::GeoLocation;
        use crate::topology::DirAttrs;

        let ia = |asn: u64| IsdAsn::new(1, Asn(asn));
        let geo = |lat: f64| GeoLocation::new(lat, 8.0, "x", "y");
        let mut b = TopologyBuilder::new();
        b.add_as(ia(1), AsKind::Core, "core", "t", geo(40.0))
            .unwrap();
        b.add_as(ia(2), AsKind::NonCore, "mid-ok", "t", geo(41.0))
            .unwrap();
        // NaN coordinates poison every latency derived through this AS.
        b.add_as(ia(3), AsKind::NonCore, "mid-nan", "t", geo(f64::NAN))
            .unwrap();
        b.add_as(ia(4), AsKind::NonCore, "leaf", "t", geo(42.0))
            .unwrap();
        let attrs = || (DirAttrs::new(100.0), DirAttrs::new(100.0));
        for (p, c) in [(1u64, 2u64), (1, 3), (2, 4), (3, 4)] {
            let (ab, ba) = attrs();
            b.add_link(ia(p), ia(c), LinkKind::Parent, 1472, ab, ba)
                .unwrap();
        }
        let topo = b.build().unwrap();

        let net = ScionNetwork::with_beacon_config(topo, 7, &BeaconConfig::default());
        let paths = net
            .path_server()
            .query(net.topology(), ia(4), ia(1), usize::MAX);
        assert_eq!(paths.len(), 2, "two 3-hop routes leaf->core expected");
        assert!(
            paths[0].expected_latency_ms.is_finite(),
            "finite-latency path must rank first: {paths:?}"
        );
        assert!(
            paths[1].expected_latency_ms.is_nan(),
            "NaN-latency path must rank last in its hop class: {paths:?}"
        );

        // The uncached oracle agrees.
        let oracle = net
            .path_server()
            .query_uncached(net.topology(), ia(4), ia(1), usize::MAX);
        assert_eq!(format!("{paths:?}"), format!("{oracle:?}"));
    }

    /// With a fixed per-pair beacon cap, growing a topology 100 -> 1000 ASes
    /// (same ISD/core shape) must grow beacon-store hop memory far slower
    /// than quadratically. Quadratic growth would be ~112x here; the capped
    /// store stays within a small constant factor of linear.
    #[test]
    fn capped_beacon_store_memory_is_sub_quadratic() {
        let bytes_at = |ases: (usize, usize)| {
            let cfg = RandomTopologyConfig {
                isds: 5,
                ases_per_isd: ases,
                cores_per_isd: (2, 2),
                ..RandomTopologyConfig::default()
            };
            let (topo, _) = random_topology(9, &cfg).unwrap();
            let n = topo.num_ases();
            let bc = BeaconConfig {
                beacons_per_pair: 4,
                ..BeaconConfig::default()
            };
            let net = ScionNetwork::with_beacon_config(topo, 9, &bc);
            (n, net.path_server().beacon_store().hop_bytes())
        };
        let (n_small, b_small) = bytes_at((18, 22));
        let (n_big, b_big) = bytes_at((190, 210));
        assert!(n_small >= 90 && n_big >= 950, "{n_small} / {n_big}");

        let growth = b_big as f64 / b_small as f64;
        let quadratic = (n_big as f64 / n_small as f64).powi(2);
        assert!(
            growth < quadratic / 3.0,
            "beacon store grew {growth:.1}x for {n_small}->{n_big} ASes \
         (quadratic would be {quadratic:.0}x)"
        );
    }
}
