//! [`ScionNetwork`]: the façade tying topology, control plane, data
//! plane and fault state together. This is the object end-host tools
//! (`scion-tools`) and the measurement suite (`upin-core`) talk to.
//!
//! A network carries a monotonically advancing *network clock* (in ms):
//! every operation consumes realistic wall time (a 30-probe ping at
//! 100 ms intervals advances ~3 s), which is what lets time-windowed
//! congestion episodes black out exactly the measurements that run
//! inside the window — the mechanism behind the paper's Fig. 9.

use crate::addr::{IsdAsn, ScionAddr};
use crate::beacon::{BeaconConfig, KeyProvider};
use crate::chaos::{ChaosError, ChaosEvent, ChaosSchedule};
use crate::dataplane::flows::{bwtest, FlowOutcome, FlowParams};
use crate::dataplane::scmp::{ping, probe_prefix, ProbeOptions, ProbeOutcome, MAX_PROBES};
use crate::dataplane::{compile_path, compile_wire, header_bytes, CompiledPath};
use crate::fault::{CongestionEpisode, FaultPlan, ServerBehavior};
use crate::path::{PathDigest, PathHop, PathStatus, ScionPath};
use crate::pathserver::{PathError, PathServer};
use crate::topology::{LinkIndex, Topology};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use upin_telemetry::Recorder;

/// Errors surfaced to end-host applications.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The requested destination AS or server does not exist.
    UnknownDestination(ScionAddr),
    /// The path failed validation (adjacency, valley, MAC...).
    InvalidPath(PathError),
    /// The destination server is up but answers garbage; applications
    /// must handle this without crashing (paper §4.1.2, "Error
    /// Messages").
    BadResponse,
    /// The destination did not answer at all within the test window.
    Timeout,
    /// More echo requests asked for than [`MAX_PROBES`].
    TooManyProbes(u32),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownDestination(a) => write!(f, "unknown destination {a}"),
            NetError::InvalidPath(e) => write!(f, "invalid path: {e}"),
            NetError::BadResponse => write!(f, "server returned an error response"),
            NetError::Timeout => write!(f, "destination timed out"),
            NetError::TooManyProbes(n) => {
                write!(f, "ping count {n} exceeds the limit of {MAX_PROBES}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Result of a full bandwidth test (both directions).
#[derive(Debug, Clone, PartialEq)]
pub struct BwtestOutcome {
    /// Client → server direction.
    pub cs: FlowOutcome,
    /// Server → client direction.
    pub sc: FlowOutcome,
}

/// Per-hop traceroute measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHop {
    pub ia: IsdAsn,
    /// RTT to this hop's border router, ms; `None` = no answer.
    pub rtt_ms: Option<f64>,
}

/// Per-route facts that depend only on the immutable control plane:
/// the validation verdict (structure + MAC chain) and the resolved
/// egress link of every non-terminal hop. Computed once per distinct
/// route and shared by all forks.
#[derive(Debug)]
struct RouteInfo {
    validated: Result<(), PathError>,
    /// `links[i]` = egress link of `hops[i]`; `None` when any hop fails
    /// to resolve (such a route is never up and never compiles).
    links: Option<Vec<LinkIndex>>,
}

impl RouteInfo {
    fn build(topo: &Topology, pathserver: &PathServer, path: &ScionPath) -> RouteInfo {
        RouteInfo {
            validated: pathserver.validate(topo, path),
            links: resolve_links(topo, path),
        }
    }
}

/// Egress link of every non-terminal hop; `None` when any hop fails to
/// resolve (such a route is never up and never compiles).
fn resolve_links(topo: &Topology, path: &ScionPath) -> Option<Vec<LinkIndex>> {
    path.hops
        .iter()
        .take(path.hops.len().saturating_sub(1))
        .map(|h| {
            let idx = topo.index_of(h.ia)?;
            topo.link_at_iface(idx, h.egress).map(|(li, _)| li)
        })
        .collect()
}

/// Liveness verdict for a route with pre-resolved egress links: every
/// link up and below blackout congestion, every transited AS likewise.
fn links_up(
    faults: &FaultPlan,
    links: Option<&[LinkIndex]>,
    hops: &[PathHop],
    now_ms: f64,
) -> bool {
    let Some(links) = links else {
        return false;
    };
    links
        .iter()
        .all(|&li| !faults.link_is_down(li) && faults.link_congestion(li, now_ms) < 1.0)
        && hops
            .iter()
            .all(|h| faults.node_congestion(h.ia, now_ms) < 1.0)
}

/// Egress links of each ranked path, index-aligned with the memoized
/// ranked list of the same `(src, dst)` key.
type RankedLinks = Arc<Vec<Option<Vec<LinkIndex>>>>;

/// A compile-cache entry: the compiled path plus the fault epoch it was
/// built under (a hit is valid iff the tag matches the reader's epoch).
type CompiledEntry = (u64, Arc<CompiledPath>);

/// Control-plane state shared (via `Arc`) between a network and every
/// fork taken from it. Everything in here is either immutable after
/// construction or a cache whose entries are fork-agnostic, which is
/// what makes [`ScionNetwork::fork`] O(1) in the topology size.
struct NetShared {
    topo: Topology,
    pathserver: PathServer,
    /// Validation/link-resolution cache keyed by path digest.
    routes: Mutex<HashMap<PathDigest, Arc<RouteInfo>>>,
    /// Egress links of every ranked path — the liveness fill of a
    /// repeated `paths()` call walks this instead of hashing each
    /// path's digest again.
    ranked_links: Mutex<HashMap<(IsdAsn, IsdAsn), RankedLinks>>,
    /// Compiled-path cache keyed by (digest, destination), tagged with
    /// the fault epoch the entry was compiled under.
    compiled: Mutex<HashMap<(PathDigest, Option<ScionAddr>), CompiledEntry>>,
    /// Source of globally unique fault-epoch tags: every fault mutation
    /// on any network sharing this state takes a fresh value, so stale
    /// compile-cache entries can never be mistaken for current ones —
    /// even across diverging parent/fork fault plans.
    epochs: AtomicU64,
    /// Whether the (construction-time) beacon-cap drop count has been
    /// reported to a recorder yet — once per shared control plane, so
    /// parallel forks don't multiply the counter.
    beacon_stats_flushed: AtomicBool,
}

impl NetShared {
    fn next_epoch(&self) -> u64 {
        self.epochs.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A network's mutable fault state plus the epoch tag of its last
/// mutation. Tag and plan live under one lock so a cache entry can
/// never be stored under an epoch older than the data it was built
/// from.
#[derive(Clone)]
struct FaultState {
    plan: FaultPlan,
    epoch: u64,
}

/// An installed chaos schedule's replay position: the compiled event
/// list (shared with forks — replaying never mutates it) plus the index
/// of the next transition to apply. Forks clone the cursor, so a fork
/// continues the schedule from exactly where its parent stood.
#[derive(Clone, Default)]
struct ChaosRunner {
    events: Arc<Vec<ChaosEvent>>,
    cursor: usize,
}

/// The simulated SCION network.
pub struct ScionNetwork {
    shared: Arc<NetShared>,
    faults: Mutex<FaultState>,
    chaos: Mutex<ChaosRunner>,
    /// Bit pattern of the next armed transition's `at_ms`
    /// (`f64::INFINITY` when none) — lets `advance_ms` skip the chaos
    /// lock entirely between transitions.
    chaos_next_due: AtomicU64,
    clock_ms: Mutex<f64>,
    seed: u64,
    op_counter: Mutex<u64>,
    /// Measurement campaigns run on this network (not on its forks).
    campaigns: AtomicU64,
    /// Telemetry sink. Only commutative `u64` counters are recorded
    /// here — forks run on worker threads, and counter addition is the
    /// one signal whose aggregate is order-independent.
    recorder: Arc<dyn Recorder>,
    /// `false` routes every lookup through the uncached reference
    /// implementations (the determinism oracle and benchmark baseline).
    caching: bool,
}

impl ScionNetwork {
    /// Build a network over an arbitrary topology with default beaconing.
    pub fn new(topo: Topology, seed: u64) -> ScionNetwork {
        ScionNetwork::with_beacon_config(topo, seed, &BeaconConfig::default())
    }

    /// Build a network with an explicit beacon configuration — the knob
    /// behind `--beacon-cap`, which is what makes 1000-AS topologies
    /// tractable (see `BeaconConfig::beacons_per_pair`).
    pub fn with_beacon_config(topo: Topology, seed: u64, cfg: &BeaconConfig) -> ScionNetwork {
        let keys = KeyProvider::new(seed ^ 0x5c10_ab5e_c2e7_5eed);
        let pathserver = PathServer::new(&topo, keys, cfg);
        ScionNetwork {
            shared: Arc::new(NetShared {
                topo,
                pathserver,
                routes: Mutex::new(HashMap::new()),
                ranked_links: Mutex::new(HashMap::new()),
                compiled: Mutex::new(HashMap::new()),
                epochs: AtomicU64::new(0),
                beacon_stats_flushed: AtomicBool::new(false),
            }),
            faults: Mutex::new(FaultState {
                plan: FaultPlan::new(),
                epoch: 0,
            }),
            chaos: Mutex::new(ChaosRunner::default()),
            chaos_next_due: AtomicU64::new(f64::INFINITY.to_bits()),
            clock_ms: Mutex::new(0.0),
            seed,
            op_counter: Mutex::new(0),
            campaigns: AtomicU64::new(0),
            recorder: upin_telemetry::noop(),
            caching: true,
        }
    }

    /// Whether this network and `other` share one control plane
    /// (topology, beacon store, caches) — true exactly for forks.
    pub fn shares_control_plane(&self, other: &ScionNetwork) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Attach a telemetry recorder. Forks inherit it, so counters from
    /// parallel campaign workers aggregate into the same sink.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The recorder this network reports into (no-op by default).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The standard experimental network: SCIONLab with `MY_AS` attached
    /// to ETHZ-AP.
    pub fn scionlab(seed: u64) -> ScionNetwork {
        ScionNetwork::new(crate::topology::scionlab::scionlab_topology(), seed)
    }

    /// An independent copy of this network for one unit of campaign work:
    /// same topology, path server (so MACs stay valid across the fork) and
    /// a snapshot of the current fault plan and clock, but its own RNG
    /// stream derived from `salt` and a fresh operation counter.
    ///
    /// Two forks with the same salt taken from the same network state
    /// replay identical random draws regardless of what any *other* fork
    /// does in between — the property that makes a parallel measurement
    /// campaign bit-identical to a sequential one.
    pub fn fork(&self, salt: u64) -> ScionNetwork {
        ScionNetwork {
            // The control plane is shared, not cloned: forking costs a
            // refcount bump plus a snapshot of the (small) fault plan
            // and clock, independent of topology size.
            shared: Arc::clone(&self.shared),
            faults: Mutex::new(self.faults.lock().clone()),
            chaos: Mutex::new(self.chaos.lock().clone()),
            chaos_next_due: AtomicU64::new(self.chaos_next_due.load(Ordering::Relaxed)),
            clock_ms: Mutex::new(self.now_ms()),
            seed: splitmix(self.seed ^ splitmix(salt)),
            op_counter: Mutex::new(0),
            campaigns: AtomicU64::new(0),
            recorder: self.recorder.clone(),
            caching: self.caching,
        }
    }

    /// Count one more measurement campaign on this network and return
    /// how many ran on it before: 0 on a new network and on every fork.
    /// A campaign keys its forks by it, so a rerun on the same network
    /// draws afresh instead of replaying the run before it.
    pub fn next_campaign(&self) -> u64 {
        self.campaigns.fetch_add(1, Ordering::Relaxed)
    }

    /// One deterministic draw in `[0, 1)` from this network's seeded
    /// stream (consumes one operation slot, like any other op).
    pub fn jitter_unit(&self) -> f64 {
        self.op_rng().gen::<f64>()
    }

    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    pub fn path_server(&self) -> &PathServer {
        &self.shared.pathserver
    }

    /// Current network clock in milliseconds.
    pub fn now_ms(&self) -> f64 {
        *self.clock_ms.lock()
    }

    /// Advance the network clock (idle time between operations), then
    /// fire any installed chaos transitions the clock just passed. The
    /// due-check is a single relaxed atomic load, so a network with no
    /// imminent transition pays nothing beyond the clock bump.
    pub fn advance_ms(&self, ms: f64) {
        let now = {
            let mut clock = self.clock_ms.lock();
            *clock += ms.max(0.0);
            *clock
        };
        if now >= f64::from_bits(self.chaos_next_due.load(Ordering::Relaxed)) {
            self.apply_due_chaos(now);
        }
    }

    // ---- chaos schedules -------------------------------------------

    /// Compile `schedule` against this network's topology and arm it:
    /// from now on every clock advance applies the transitions it
    /// passes, exactly as if `set_link_down`/`add_congestion`/
    /// `set_server_behavior` had been called by hand at those instants
    /// (including the fault-epoch bump). Replaces any prior schedule.
    /// Returns the number of compiled transitions.
    pub fn install_chaos(&self, schedule: &ChaosSchedule) -> Result<usize, ChaosError> {
        let events = schedule.compile(self.topology())?;
        let n = events.len();
        {
            let mut chaos = self.chaos.lock();
            chaos.events = Arc::new(events);
            chaos.cursor = 0;
        }
        // Transitions scheduled at or before the current clock fire
        // immediately (installing at t=5s applies everything ≤ 5s).
        self.apply_due_chaos(self.now_ms());
        Ok(n)
    }

    /// The full compiled transition list of the installed schedule
    /// (empty when none is installed) — the byte-identical trace
    /// artifact; render with [`crate::chaos::render_trace`].
    pub fn chaos_events(&self) -> Arc<Vec<ChaosEvent>> {
        Arc::clone(&self.chaos.lock().events)
    }

    /// Apply every armed transition whose time the clock has reached,
    /// as one batch: the fault lock is taken once and the epoch bumped
    /// once per drain, since consumers only ever compare epochs for
    /// (in)equality — what matters is that the state after the drain
    /// carries a fresh tag, not how many tags the drain burned.
    /// Lock discipline: never called with the clock, fault or chaos
    /// lock held; takes chaos → (clock read) → faults per batch, which
    /// cannot cycle with `paths()`'s faults → clock order because the
    /// clock lock is only ever held instantaneously.
    fn apply_due_chaos(&self, now: f64) {
        let mut chaos = self.chaos.lock();
        if chaos.cursor >= chaos.events.len() {
            self.chaos_next_due
                .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
            return;
        }
        let events = Arc::clone(&chaos.events);
        let mut fired = 0u64;
        if events[chaos.cursor].at_ms <= now {
            let mut f = self.faults.lock();
            while chaos.cursor < events.len() && events[chaos.cursor].at_ms <= now {
                let ev = &events[chaos.cursor];
                ev.action.apply(&mut f.plan, ev.at_ms);
                chaos.cursor += 1;
                fired += 1;
            }
            f.epoch = self.shared.next_epoch();
        }
        let next = events
            .get(chaos.cursor)
            .map_or(f64::INFINITY, |ev| ev.at_ms);
        self.chaos_next_due.store(next.to_bits(), Ordering::Relaxed);
        if fired > 0 {
            self.recorder.add("sim.chaos.transitions", fired);
        }
    }

    /// The epoch tag of this network's last fault mutation (scheduled
    /// or hand-placed). Consumers that cache liveness decisions compare
    /// this against the epoch they cached under — the cheap "did
    /// anything change?" probe behind session failover.
    pub fn fault_epoch(&self) -> u64 {
        self.faults.lock().epoch
    }

    /// Liveness of a single route under the current fault state, without
    /// advancing the clock or touching the path server — the probe a
    /// failover session runs against its cached candidates.
    pub fn path_is_up(&self, path: &ScionPath) -> bool {
        let faults = self.faults.lock();
        let now = *self.clock_ms.lock();
        self.route_is_up(&faults.plan, path, now)
    }

    // ---- fault injection -------------------------------------------
    //
    // Every mutation stamps this network's fault state with a fresh
    // globally unique epoch, invalidating any compile-cache entry built
    // under the previous state. Plan and epoch change under one lock.

    pub fn set_server_behavior(&self, addr: ScionAddr, behavior: ServerBehavior) {
        let mut f = self.faults.lock();
        f.plan.set_server(addr, behavior);
        f.epoch = self.shared.next_epoch();
    }

    pub fn add_congestion(&self, episode: CongestionEpisode) {
        let mut f = self.faults.lock();
        f.plan.add_episode(episode);
        f.epoch = self.shared.next_epoch();
    }

    pub fn set_link_down(&self, link: LinkIndex, down: bool) {
        let mut f = self.faults.lock();
        f.plan.set_link_down(link, down);
        f.epoch = self.shared.next_epoch();
    }

    // ---- control plane ----------------------------------------------

    /// Paths from `src` to `dst`, ranked by hop count, capped at `max`,
    /// with liveness status filled in from the current fault state
    /// (mirrors `scion showpaths -m <max>`).
    ///
    /// The ranked prefix is memoized per `(src, dst)` and forced lazily:
    /// a capped request only ever pays for the hop-count levels needed
    /// to cover it, and only the liveness statuses are recomputed per
    /// call — they are the one fault-dependent part.
    pub fn paths(&self, src: IsdAsn, dst: IsdAsn, max: usize) -> Vec<ScionPath> {
        self.flush_beacon_stats();
        let mut paths;
        if self.caching && max > 0 && src != dst {
            let (full, hit, forced) =
                self.shared
                    .pathserver
                    .ranked_prefix(&self.shared.topo, src, dst, max);
            self.recorder.add(
                if hit {
                    "sim.pathcache.hit"
                } else {
                    "sim.pathcache.miss"
                },
                1,
            );
            if forced > 0 {
                self.recorder.add("sim.pathserver.lazy_forced", forced);
            }
            let links = self.ranked_links(src, dst, &full);
            paths = full.iter().take(max).cloned().collect::<Vec<ScionPath>>();
            let faults = self.faults.lock();
            let now = self.now_ms();
            for (p, ls) in paths.iter_mut().zip(links.iter()) {
                p.status = if links_up(&faults.plan, ls.as_deref(), &p.hops, now) {
                    PathStatus::Alive
                } else {
                    PathStatus::Timeout
                };
            }
        } else {
            paths = self
                .shared
                .pathserver
                .query_uncached(&self.shared.topo, src, dst, max);
            let faults = self.faults.lock();
            let now = self.now_ms();
            for p in &mut paths {
                p.status = if self.route_is_up(&faults.plan, p, now) {
                    PathStatus::Alive
                } else {
                    PathStatus::Timeout
                };
            }
        }
        // showpaths costs of the order of a second of wall time.
        self.advance_ms(800.0);
        self.recorder.add("sim.showpaths_ops", 1);
        paths
    }

    /// Egress links of the ranked `(src, dst)` prefix, memoized aligned
    /// with it. The prefix only grows (and never reorders), so a cached
    /// list is extended in place when a deeper prefix shows up.
    /// Compute-under-lock, like every shared cache here.
    fn ranked_links(&self, src: IsdAsn, dst: IsdAsn, full: &[ScionPath]) -> RankedLinks {
        let mut cache = self.shared.ranked_links.lock();
        let entry = cache.entry((src, dst)).or_default();
        if entry.len() < full.len() {
            let mut v = (**entry).clone();
            v.extend(
                full[v.len()..]
                    .iter()
                    .map(|p| resolve_links(&self.shared.topo, p)),
            );
            *entry = Arc::new(v);
        }
        entry.clone()
    }

    /// Report the construction-time beacon-cap drop count into the
    /// recorder — once per shared control plane, and only when there is
    /// both a live recorder and something to report.
    fn flush_beacon_stats(&self) {
        if !self.recorder.enabled() {
            return;
        }
        let capped = self.shared.pathserver.beacon_store().capped_count();
        if capped == 0 {
            return;
        }
        if !self
            .shared
            .beacon_stats_flushed
            .swap(true, Ordering::Relaxed)
        {
            self.recorder.add("sim.beacon.capped", capped);
        }
    }

    /// Re-attach metadata/MACs to a bare route (`--sequence` handling).
    pub fn authorize(&self, route: &ScionPath) -> Result<ScionPath, NetError> {
        self.flush_beacon_stats();
        let topo = &self.shared.topo;
        let found = if self.caching {
            match (route.src(), route.dst()) {
                (Some(src), Some(dst)) => {
                    let (found, hit, forced) =
                        self.shared.pathserver.find_route(topo, src, dst, route);
                    self.recorder.add(
                        if hit {
                            "sim.pathcache.hit"
                        } else {
                            "sim.pathcache.miss"
                        },
                        1,
                    );
                    if forced > 0 {
                        self.recorder.add("sim.pathserver.lazy_forced", forced);
                    }
                    found
                }
                _ => None,
            }
        } else {
            match (route.src(), route.dst()) {
                (Some(src), Some(dst)) => self
                    .shared
                    .pathserver
                    .query_uncached(topo, src, dst, usize::MAX)
                    .into_iter()
                    .find(|p| p.same_route(route)),
                _ => None,
            }
        };
        found.ok_or(NetError::InvalidPath(PathError::BadMac))
    }

    /// Fault-independent facts about a route (validation verdict, egress
    /// links), computed once per distinct route and memoized in the
    /// shared control plane. Compute-under-lock: concurrent callers for
    /// the same digest observe exactly one build between them.
    fn route_info(&self, path: &ScionPath) -> Arc<RouteInfo> {
        let digest = path.digest();
        let mut routes = self.shared.routes.lock();
        if let Some(info) = routes.get(&digest) {
            return info.clone();
        }
        let info = Arc::new(RouteInfo::build(
            &self.shared.topo,
            &self.shared.pathserver,
            path,
        ));
        routes.insert(digest, info.clone());
        info
    }

    fn route_is_up(&self, faults: &FaultPlan, path: &ScionPath, now_ms: f64) -> bool {
        if self.caching {
            // Egress links resolve identically every call; only their
            // down/congested state varies with the fault plan.
            let info = self.route_info(path);
            return links_up(faults, info.links.as_deref(), &path.hops, now_ms);
        } else {
            let topo = &self.shared.topo;
            for i in 0..path.hops.len().saturating_sub(1) {
                let Some(idx) = topo.index_of(path.hops[i].ia) else {
                    return false;
                };
                let Some((li, _)) = topo.link_at_iface(idx, path.hops[i].egress) else {
                    return false;
                };
                if faults.link_is_down(li) || faults.link_congestion(li, now_ms) >= 1.0 {
                    return false;
                }
            }
        }
        path.hops
            .iter()
            .all(|h| faults.node_congestion(h.ia, now_ms) < 1.0)
    }

    // ---- data plane --------------------------------------------------

    /// Validate + compile a path against the current fault state.
    ///
    /// Cached flavour: the validation verdict comes from the route-info
    /// cache (skipping the MAC chain recomputation), and the compiled
    /// wire hops are memoized per `(digest, destination)` tagged with
    /// the fault epoch they were built under — a cache hit is valid iff
    /// the tag matches this network's current epoch.
    fn compile(
        &self,
        path: &ScionPath,
        dst: Option<ScionAddr>,
    ) -> Result<Arc<CompiledPath>, NetError> {
        let topo = &self.shared.topo;
        if !self.caching {
            self.shared
                .pathserver
                .validate(topo, path)
                .map_err(NetError::InvalidPath)?;
            let faults = self.faults.lock();
            let server = match dst {
                Some(addr) => {
                    if topo.server_as(addr).is_none() {
                        return Err(NetError::UnknownDestination(addr));
                    }
                    faults.plan.server(addr)
                }
                None => ServerBehavior::Up,
            };
            return compile_path(topo, &faults.plan, path, server)
                .map(Arc::new)
                .map_err(NetError::InvalidPath);
        }
        let info = self.route_info(path);
        info.validated.clone().map_err(NetError::InvalidPath)?;
        let digest = path.digest();
        let faults = self.faults.lock();
        let server = match dst {
            Some(addr) => {
                if topo.server_as(addr).is_none() {
                    return Err(NetError::UnknownDestination(addr));
                }
                faults.plan.server(addr)
            }
            None => ServerBehavior::Up,
        };
        // Compute under the compiled lock (fault lock still held, so the
        // epoch cannot move underneath us): each (digest, dst, epoch)
        // misses exactly once globally, sequential or parallel.
        let mut compiled = self.shared.compiled.lock();
        if let Some((tag, c)) = compiled.get_mut(&(digest, dst)) {
            if *tag == faults.epoch {
                self.recorder.add("sim.compile_cache.hit", 1);
                return Ok(c.clone());
            }
            // Stale tag, but the mutation may not touch this route:
            // re-verify the fault-dependent inputs and re-tag on a
            // match, so chaos transitions elsewhere don't force a
            // recompile of every active session's path.
            if c.still_valid(&faults.plan, path, server) {
                *tag = faults.epoch;
                self.recorder.add("sim.compile_cache.refresh", 1);
                return Ok(c.clone());
            }
        }
        let c = compile_wire(topo, &faults.plan, path, server)
            .map(Arc::new)
            .map_err(NetError::InvalidPath)?;
        compiled.insert((digest, dst), (faults.epoch, c.clone()));
        self.recorder.add("sim.compile_cache.miss", 1);
        Ok(c)
    }

    fn op_rng(&self) -> StdRng {
        let mut ctr = self.op_counter.lock();
        *ctr += 1;
        StdRng::seed_from_u64(self.seed ^ (*ctr).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Telemetry for one data-plane operation: the op counter, packets
    /// forwarded (one count per hop a packet traverses) and per-AS hop
    /// counters. Counters only — see the `recorder` field note.
    fn record_op(&self, op: &str, path: &ScionPath, packets: u64) {
        let rec = &self.recorder;
        rec.add(op, 1);
        rec.add(
            "sim.packets_forwarded",
            packets.saturating_mul(path.hop_count() as u64),
        );
        if rec.enabled() {
            for hop in &path.hops {
                rec.add(&format!("sim.hop.{}", hop.ia), packets);
            }
        }
    }
}

/// SplitMix64 finalizer: decorrelates fork seeds even for adjacent salts.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ScionNetwork {
    /// `scion ping`: SCMP echoes over an explicit path to a server.
    pub fn ping(
        &self,
        path: &ScionPath,
        dst: ScionAddr,
        opts: &ProbeOptions,
    ) -> Result<ProbeOutcome, NetError> {
        if opts.count > MAX_PROBES {
            return Err(NetError::TooManyProbes(opts.count));
        }
        if path.dst() != Some(dst.ia) {
            return Err(NetError::UnknownDestination(dst));
        }
        let compiled = self.compile(path, Some(dst))?;
        let start = self.now_ms();
        let out = ping(&compiled, opts, start, &mut self.op_rng());
        // The campaign occupies count × interval plus the last RTT.
        self.advance_ms(opts.count as f64 * opts.interval_ms + 300.0);
        self.record_op("sim.ping_ops", path, opts.count as u64);
        Ok(out)
    }

    /// `scion traceroute`: probe each border router along the path.
    pub fn traceroute(&self, path: &ScionPath) -> Result<Vec<TraceHop>, NetError> {
        let compiled = self.compile(path, None)?;
        let start = self.now_ms();
        let opts = ProbeOptions {
            count: 1,
            interval_ms: 0.0,
            payload_bytes: 8,
            timeout_ms: 2000.0,
        };
        let mut out = Vec::with_capacity(path.hops.len());
        out.push(TraceHop {
            ia: path.hops[0].ia,
            rtt_ms: Some(0.05),
        });
        for (i, hop) in path.hops.iter().enumerate().skip(1) {
            let probe = probe_prefix(&compiled, i, &opts, start, &mut self.op_rng());
            out.push(TraceHop {
                ia: hop.ia,
                rtt_ms: probe.rtts_ms.first().copied().flatten(),
            });
        }
        self.advance_ms(1000.0);
        self.record_op("sim.traceroute_ops", path, path.hops.len() as u64);
        Ok(out)
    }

    /// `scion-bwtestclient`: a bandwidth test in both directions.
    pub fn bwtest(
        &self,
        path: &ScionPath,
        dst: ScionAddr,
        cs: &FlowParams,
        sc: &FlowParams,
    ) -> Result<BwtestOutcome, NetError> {
        if path.dst() != Some(dst.ia) {
            return Err(NetError::UnknownDestination(dst));
        }
        let compiled = self.compile(path, Some(dst))?;
        let start = self.now_ms();
        let header = header_bytes(path.hop_count());
        let mut rng = self.op_rng();
        let result = bwtest(&compiled, cs, sc, header, start, &mut rng);
        self.advance_ms((cs.duration_s + sc.duration_s) * 1000.0 + 500.0);
        // Offered load in packets, both directions.
        let offered = |p: &FlowParams| {
            (p.target_mbps * p.duration_s * 1e6 / (p.packet_bytes as f64 * 8.0)) as u64
        };
        self.record_op("sim.bwtest_ops", path, offered(cs) + offered(sc));
        match result {
            Some((cs_out, sc_out)) => Ok(BwtestOutcome {
                cs: cs_out,
                sc: sc_out,
            }),
            None => match compiled.server {
                ServerBehavior::BadResponse => Err(NetError::BadResponse),
                _ => Err(NetError::Timeout),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CongestionTarget;
    use crate::topology::scionlab::*;

    fn net() -> ScionNetwork {
        ScionNetwork::scionlab(7)
    }

    fn ireland() -> ScionAddr {
        paper_destinations()[1]
    }

    /// How many of the compiled transitions have fired on `n`.
    fn chaos_applied(n: &ScionNetwork) -> usize {
        n.chaos.lock().cursor
    }

    #[test]
    fn paths_to_ireland_have_paper_shape() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 40);
        assert!(!paths.is_empty());
        let min = paths[0].hop_count();
        assert_eq!(min, 6, "Ireland needs 6 hops from MY_AS");
        // Ranked by hop count.
        for w in paths.windows(2) {
            assert!(w[0].hop_count() <= w[1].hop_count());
        }
        // All alive in a fault-free network.
        assert!(paths.iter().all(|p| p.status == PathStatus::Alive));
    }

    #[test]
    fn ping_over_discovered_path_measures_geography() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 40);
        let eu = &paths[0];
        let out = n.ping(eu, ireland(), &ProbeOptions::default()).unwrap();
        assert!(out.received() >= 28);
        let rtt = out.avg_rtt_ms().unwrap();
        assert!((15.0..60.0).contains(&rtt), "EU path RTT {rtt}");
        // A Singapore-detour path must be far slower.
        let sg = paths
            .iter()
            .find(|p| p.hops.iter().any(|h| h.ia == AWS_SINGAPORE))
            .expect("a Singapore detour exists within min+1 hops");
        let out_sg = n.ping(sg, ireland(), &ProbeOptions::default()).unwrap();
        let rtt_sg = out_sg.avg_rtt_ms().unwrap();
        assert!(
            rtt_sg > rtt + 150.0,
            "Singapore detour {rtt_sg} vs EU {rtt}"
        );
    }

    #[test]
    fn forged_sequence_is_rejected_until_authorized() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 5);
        let bare = ScionPath::from_sequence(&paths[0].sequence()).unwrap();
        // Without MACs the data plane refuses it.
        let err = n.ping(&bare, ireland(), &ProbeOptions::default());
        assert!(matches!(err, Err(NetError::InvalidPath(_))));
        // Authorization against the path server re-attaches MACs.
        let authorized = n.authorize(&bare).unwrap();
        assert!(n
            .ping(&authorized, ireland(), &ProbeOptions::default())
            .is_ok());
    }

    #[test]
    fn down_server_times_out_and_flaky_drops() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        n.set_server_behavior(ireland(), ServerBehavior::Down);
        let out = n
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert_eq!(out.received(), 0);
        n.set_server_behavior(ireland(), ServerBehavior::Up);
        let out = n
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert!(out.received() > 25);
    }

    #[test]
    fn bad_response_server_fails_bwtest_but_answers_ping() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        n.set_server_behavior(ireland(), ServerBehavior::BadResponse);
        let params = FlowParams {
            duration_s: 3.0,
            packet_bytes: 1400,
            target_mbps: 12.0,
        };
        let res = n.bwtest(&paths[0], ireland(), &params, &params);
        assert_eq!(res.unwrap_err(), NetError::BadResponse);
        let out = n
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert!(out.received() > 25, "SCMP still answers");
    }

    #[test]
    fn node_congestion_blacks_out_paths_in_window() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        let start = n.now_ms();
        n.add_congestion(CongestionEpisode {
            target: CongestionTarget::Node(AWS_FRANKFURT),
            start_ms: start,
            end_ms: start + 60_000.0,
            severity: 1.0,
        });
        let out = n
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert_eq!(out.received(), 0, "every Ireland path crosses Frankfurt");
        // After the window the path works again.
        n.advance_ms(120_000.0);
        let out = n
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert!(out.received() > 25);
    }

    #[test]
    fn clock_advances_with_operations() {
        let n = net();
        let t0 = n.now_ms();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        let t1 = n.now_ms();
        assert!(t1 > t0);
        n.ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert!(n.now_ms() >= t1 + 3000.0, "30 probes × 100 ms");
    }

    #[test]
    fn bwtest_runs_end_to_end() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        let params = FlowParams {
            duration_s: 3.0,
            packet_bytes: 1400,
            target_mbps: 12.0,
        };
        let out = n.bwtest(&paths[0], ireland(), &params, &params).unwrap();
        assert!(out.cs.achieved_mbps > 5.0, "cs {}", out.cs.achieved_mbps);
        assert!(out.sc.achieved_mbps > 5.0, "sc {}", out.sc.achieved_mbps);
    }

    #[test]
    fn peering_shortcut_paths_are_constructed_and_forward() {
        use crate::topology::scionlab::{GEANT_AP, TU_DELFT};
        let n = net();
        // ETHZ-AP peers with GEANT: MY_AS reaches GEANT in 3 hops.
        let paths = n.paths(MY_AS, GEANT_AP, 40);
        assert_eq!(paths[0].hop_count(), 3, "{}", paths[0]);
        assert_eq!(paths[0].hops[1].ia, crate::topology::scionlab::ETHZ_AP);
        // And Delft in 4, continuing down past the peering crossing.
        let paths = n.paths(MY_AS, TU_DELFT, 40);
        assert_eq!(paths[0].hop_count(), 4, "{}", paths[0]);
        assert!(paths[0].hops.iter().any(|h| h.ia == GEANT_AP));
        // The peering path carries valid MACs and actually forwards.
        let addr =
            crate::addr::ScionAddr::new(GEANT_AP, crate::addr::HostAddr::new(62, 40, 111, 66));
        let out = n
            .ping(
                &n.paths(MY_AS, GEANT_AP, 1)[0],
                addr,
                &ProbeOptions::default(),
            )
            .unwrap();
        assert!(out.received() >= 28);
        // Its RTT is far below the 5-hop route through the cores.
        let rtt = out.avg_rtt_ms().unwrap();
        assert!(rtt < 15.0, "peering shortcut RTT {rtt}");
    }

    #[test]
    fn core_after_peering_is_a_valley_violation() {
        use crate::pathserver::{validate_structure, PathError};
        let n = net();
        // Hand-build: MY_AS -> ETHZ-AP ~peer~ GEANT -> (up!) OVGU core.
        // Upward after peering must be rejected.
        let geant = crate::topology::scionlab::GEANT_AP;
        let mut hops = n.paths(MY_AS, geant, 1)[0].hops.clone();
        let topo = n.topology();
        let geant_idx = topo.index_of(geant).unwrap();
        let (_, up_link) = topo
            .links_of(geant_idx)
            .find(|(_, l)| l.kind == crate::topology::LinkKind::Parent && l.b == geant_idx)
            .expect("GEANT has a parent");
        let core_idx = up_link.peer_of(geant_idx).unwrap();
        hops.last_mut().unwrap().egress = up_link.iface_of(geant_idx).unwrap();
        hops.push(crate::path::PathHop::new(
            topo.node(core_idx).ia,
            up_link.iface_of(core_idx).unwrap(),
            crate::addr::IfaceId::NONE,
        ));
        let forged = ScionPath {
            hops,
            mtu: 0,
            expected_latency_ms: 0.0,
            status: crate::path::PathStatus::Unknown,
            macs: vec![],
        };
        assert!(matches!(
            validate_structure(topo, &forged),
            Err(PathError::Valley(_))
        ));
    }

    #[test]
    fn forks_with_same_salt_replay_identical_draws() {
        let n = net();
        n.set_server_behavior(ireland(), ServerBehavior::Flaky(0.5));
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        let a = n.fork(3);
        let b = n.fork(3);
        // Interleave unrelated work on one fork's sibling: `a`'s draws
        // must not change.
        let _ = b.jitter_unit();
        let out_a = a
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        let c = n.fork(3);
        let out_c = c
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert_eq!(out_a, out_c, "same salt, same state, same outcome");
        assert_eq!(a.now_ms(), c.now_ms());
        // A different salt yields an independent stream.
        let d = n.fork(4);
        assert_ne!(a.jitter_unit(), d.jitter_unit());
    }

    #[test]
    fn fork_snapshots_clock_and_faults_without_sharing() {
        let n = net();
        n.advance_ms(5_000.0);
        let f = n.fork(1);
        assert_eq!(f.now_ms(), n.now_ms());
        // Advancing the fork leaves the parent untouched.
        f.advance_ms(1_000.0);
        assert_eq!(n.now_ms(), 5_000.0);
        // Fault changes after the fork do not leak into it.
        n.set_server_behavior(ireland(), ServerBehavior::Down);
        let paths = f.paths(MY_AS, AWS_IRELAND, 1);
        let out = f
            .ping(&paths[0], ireland(), &ProbeOptions::default())
            .unwrap();
        assert!(out.received() > 25, "fork still sees the server up");
    }

    #[test]
    fn chaos_schedule_fires_as_the_clock_advances() {
        use crate::chaos::{ChaosSchedule, Dwell, LinkFlap};
        let n = net();
        let mut s = ChaosSchedule::new(9, 30_000.0);
        s.flaps.push(LinkFlap {
            a: MY_AS,
            b: ETHZ_AP,
            first_down_ms: 10_000.0,
            down: Dwell::fixed(5_000.0),
            up: Dwell::fixed(60_000.0),
        });
        let installed = n.install_chaos(&s).unwrap();
        assert_eq!(installed, 2, "one down + one up transition");
        assert_eq!(chaos_applied(&n), 0);
        let epoch0 = n.fault_epoch();

        let path = n.paths(MY_AS, AWS_IRELAND, 1).remove(0); // clock → 800 ms
        assert!(n.path_is_up(&path));

        // Cross the down transition: the uplink (hence every path) dies
        // and the fault epoch moves.
        n.advance_ms(10_000.0);
        assert_eq!(chaos_applied(&n), 1);
        assert!(n.fault_epoch() > epoch0);
        assert!(!n.path_is_up(&path));
        assert_eq!(
            n.paths(MY_AS, AWS_IRELAND, 1)[0].status,
            PathStatus::Timeout
        );

        // Cross the heal transition: liveness recovers automatically.
        n.advance_ms(10_000.0);
        assert_eq!(chaos_applied(&n), 2);
        assert!(n.path_is_up(&path));
    }

    #[test]
    fn chaos_installation_applies_already_due_transitions() {
        use crate::chaos::{AsOutage, ChaosSchedule};
        let n = net();
        n.advance_ms(20_000.0);
        let mut s = ChaosSchedule::new(1, 60_000.0);
        s.outages.push(AsOutage {
            node: AWS_IRELAND,
            start_ms: 5_000.0,
            duration_ms: 40_000.0, // still active at 20 s
        });
        n.install_chaos(&s).unwrap();
        assert_eq!(chaos_applied(&n), 1, "the start transition is due");
        let path = n.paths(MY_AS, AWS_IRELAND, 1).remove(0);
        assert!(!n.path_is_up(&path), "installed mid-outage");
    }

    #[test]
    fn forks_continue_the_schedule_deterministically() {
        use crate::chaos::{ChaosSchedule, Dwell, LinkFlap};
        let mk = || {
            let n = net();
            let mut s = ChaosSchedule::new(3, 120_000.0);
            s.flaps.push(LinkFlap {
                a: MY_AS,
                b: ETHZ_AP,
                first_down_ms: 2_000.0,
                down: Dwell::uniform(1_000.0, 4_000.0),
                up: Dwell::uniform(5_000.0, 15_000.0),
            });
            n.install_chaos(&s).unwrap();
            n.advance_ms(1_500.0);
            n
        };
        let (a, b) = (mk(), mk());
        assert_eq!(*a.chaos_events(), *b.chaos_events(), "same compiled trace");

        // A fork picks up mid-schedule and replays the identical tail.
        let fa = a.fork(42);
        let fb = b.fork(42);
        let mut ups = Vec::new();
        for f in [&fa, &fb] {
            let path = f.paths(MY_AS, AWS_IRELAND, 1).remove(0);
            let mut states = Vec::new();
            for _ in 0..40 {
                f.advance_ms(997.0);
                states.push(f.path_is_up(&path));
            }
            ups.push(states);
        }
        assert_eq!(ups[0], ups[1]);
        assert!(ups[0].contains(&false), "the flap was observed");
        assert!(ups[0].contains(&true), "and so was a healthy phase");
        assert_eq!(chaos_applied(&fa), chaos_applied(&fb));
        // The parent's cursor is unaffected by its fork's progress
        // (still before the first transition at 2 s).
        assert_eq!(chaos_applied(&a), 0);
    }

    #[test]
    fn unknown_destination_is_reported() {
        let n = net();
        let paths = n.paths(MY_AS, AWS_IRELAND, 1);
        let bogus = ScionAddr::new(AWS_IRELAND, crate::addr::HostAddr::new(10, 9, 9, 9));
        assert!(matches!(
            n.ping(&paths[0], bogus, &ProbeOptions::default()),
            Err(NetError::UnknownDestination(_))
        ));
        // Path/destination AS mismatch is also rejected.
        let virginia = paper_destinations()[2];
        assert!(matches!(
            n.ping(&paths[0], virginia, &ProbeOptions::default()),
            Err(NetError::UnknownDestination(_))
        ));
    }
}

#[cfg(test)]
mod cache_props {
    //! Equivalence oracle for the control-plane caches: a network with
    //! caching enabled must produce *byte-identical* observable results to
    //! the uncached reference implementation, across randomized fault
    //! mutations (which drive epoch invalidation), fork salts and
    //! interleavings of lookups on the root network and its forks.
    //!
    //! The comparison is on `format!("{:?}")` of every result — any drift
    //! in path ordering, status, metadata, probe outcomes or error values
    //! shows up as a string diff.

    use crate::dataplane::scmp::ProbeOptions;
    use crate::fault::{CongestionEpisode, CongestionTarget, ServerBehavior};
    use crate::net::ScionNetwork;
    use crate::path::ScionPath;
    use crate::topology::scionlab::{paper_destinations, MY_AS};
    use proptest::prelude::*;
    use std::sync::Arc;

    impl ScionNetwork {
        /// Enable or disable the control-plane caches for this network
        /// (forks inherit the setting). With caching off every `paths`,
        /// `authorize` and compile goes through the uncached reference
        /// path — observable results are identical by construction, which
        /// the property suite pins.
        pub(crate) fn set_caching(&mut self, on: bool) {
            self.caching = on;
        }
    }

    /// One step of the randomized schedule. Lookup steps log their results;
    /// mutation steps drive the fault state (and hence cache invalidation).
    /// `on_fork` targets the most recent fork instead of the root network.
    #[derive(Debug, Clone)]
    enum Op {
        Paths {
            dest: prop::sample::Index,
            max: usize,
            on_fork: bool,
        },
        Ping {
            dest: prop::sample::Index,
            path_pick: prop::sample::Index,
            on_fork: bool,
        },
        Traceroute {
            dest: prop::sample::Index,
            path_pick: prop::sample::Index,
            on_fork: bool,
        },
        Authorize {
            dest: prop::sample::Index,
            path_pick: prop::sample::Index,
            on_fork: bool,
        },
        LinkDown {
            link: prop::sample::Index,
            down: bool,
            on_fork: bool,
        },
        Congest {
            node: prop::sample::Index,
            offset_ms: u16,
            duration_ms: u16,
            on_fork: bool,
        },
        Server {
            dest: prop::sample::Index,
            behavior: u8,
            on_fork: bool,
        },
        Fork {
            salt: u64,
        },
        Advance {
            ms: u16,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        fn idx() -> impl Strategy<Value = prop::sample::Index> {
            any::<prop::sample::Index>()
        }
        prop_oneof![
            (idx(), 1usize..40, any::<bool>()).prop_map(|(dest, max, on_fork)| Op::Paths {
                dest,
                max,
                on_fork
            }),
            (idx(), idx(), any::<bool>()).prop_map(|(dest, path_pick, on_fork)| Op::Ping {
                dest,
                path_pick,
                on_fork
            }),
            (idx(), idx(), any::<bool>()).prop_map(|(dest, path_pick, on_fork)| Op::Traceroute {
                dest,
                path_pick,
                on_fork
            }),
            (idx(), idx(), any::<bool>()).prop_map(|(dest, path_pick, on_fork)| Op::Authorize {
                dest,
                path_pick,
                on_fork
            }),
            (idx(), any::<bool>(), any::<bool>()).prop_map(|(link, down, on_fork)| Op::LinkDown {
                link,
                down,
                on_fork
            }),
            (idx(), any::<u16>(), 1u16..10_000, any::<bool>()).prop_map(
                |(node, offset_ms, duration_ms, on_fork)| Op::Congest {
                    node,
                    offset_ms,
                    duration_ms,
                    on_fork
                }
            ),
            (idx(), 0u8..4, any::<bool>()).prop_map(|(dest, behavior, on_fork)| Op::Server {
                dest,
                behavior,
                on_fork
            }),
            any::<u64>().prop_map(|salt| Op::Fork { salt }),
            (1u16..5_000).prop_map(|ms| Op::Advance { ms }),
        ]
    }

    /// A short, distinct-draws ping so each case stays fast.
    fn probe_opts() -> ProbeOptions {
        ProbeOptions {
            count: 3,
            interval_ms: 50.0,
            timeout_ms: 1000.0,
            payload_bytes: 8,
        }
    }

    /// Fetch a candidate path for `dst` without logging (both runs execute
    /// the identical call sequence, so clocks and RNG streams stay aligned).
    fn pick_path(
        net: &ScionNetwork,
        dst: crate::addr::IsdAsn,
        pick: prop::sample::Index,
    ) -> Option<ScionPath> {
        let paths = net.paths(MY_AS, dst, 40);
        if paths.is_empty() {
            return None;
        }
        let i = pick.index(paths.len());
        Some(paths[i].clone())
    }

    /// Replay `ops` on a fresh SCIONLab network with caching on or off and
    /// return the log of every observable result.
    fn run_schedule(caching: bool, ops: &[Op]) -> Vec<String> {
        let mut net = ScionNetwork::scionlab(11);
        net.set_caching(caching);
        let mut fork: Option<ScionNetwork> = None;
        let dests = paper_destinations();
        let links: Vec<_> = net.topology().links().map(|(li, _)| li).collect();
        let mut log = Vec::new();

        for op in ops {
            let target = |on_fork: bool| -> &ScionNetwork {
                match (&fork, on_fork) {
                    (Some(f), true) => f,
                    _ => &net,
                }
            };
            match op {
                Op::Paths { dest, max, on_fork } => {
                    let addr = dests[dest.index(dests.len())];
                    let paths = target(*on_fork).paths(MY_AS, addr.ia, *max);
                    log.push(format!("paths {addr} {max}: {paths:?}"));
                }
                Op::Ping {
                    dest,
                    path_pick,
                    on_fork,
                } => {
                    let addr = dests[dest.index(dests.len())];
                    let t = target(*on_fork);
                    if let Some(path) = pick_path(t, addr.ia, *path_pick) {
                        let out = t.ping(&path, addr, &probe_opts());
                        log.push(format!("ping {addr} via {path}: {out:?}"));
                    }
                }
                Op::Traceroute {
                    dest,
                    path_pick,
                    on_fork,
                } => {
                    let addr = dests[dest.index(dests.len())];
                    let t = target(*on_fork);
                    if let Some(path) = pick_path(t, addr.ia, *path_pick) {
                        let out = t.traceroute(&path);
                        log.push(format!("traceroute via {path}: {out:?}"));
                    }
                }
                Op::Authorize {
                    dest,
                    path_pick,
                    on_fork,
                } => {
                    let addr = dests[dest.index(dests.len())];
                    let t = target(*on_fork);
                    if let Some(path) = pick_path(t, addr.ia, *path_pick) {
                        // Strip to a bare route, as `--sequence` parsing would.
                        let bare = ScionPath::from_sequence(&path.sequence()).unwrap();
                        let out = t.authorize(&bare);
                        log.push(format!("authorize {path}: {out:?}"));
                    }
                }
                Op::LinkDown {
                    link,
                    down,
                    on_fork,
                } => {
                    let li = links[link.index(links.len())];
                    target(*on_fork).set_link_down(li, *down);
                }
                Op::Congest {
                    node,
                    offset_ms,
                    duration_ms,
                    on_fork,
                } => {
                    let addr = dests[node.index(dests.len())];
                    let t = target(*on_fork);
                    let start_ms = t.now_ms() + *offset_ms as f64;
                    t.add_congestion(CongestionEpisode {
                        target: CongestionTarget::Node(addr.ia),
                        start_ms,
                        end_ms: start_ms + *duration_ms as f64,
                        severity: 1.0,
                    });
                }
                Op::Server {
                    dest,
                    behavior,
                    on_fork,
                } => {
                    let addr = dests[dest.index(dests.len())];
                    let b = match behavior {
                        0 => ServerBehavior::Up,
                        1 => ServerBehavior::Down,
                        2 => ServerBehavior::BadResponse,
                        _ => ServerBehavior::Flaky(0.5),
                    };
                    target(*on_fork).set_server_behavior(addr, b);
                }
                Op::Fork { salt } => {
                    fork = Some(net.fork(*salt));
                }
                Op::Advance { ms } => net.advance_ms(*ms as f64),
            }
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The epoch-invalidation oracle: for any schedule of lookups, fault
        /// mutations and forks, the cached network's observable outputs are
        /// byte-identical to the uncached reference's.
        #[test]
        fn cached_and_uncached_networks_are_observably_identical(
            ops in prop::collection::vec(arb_op(), 1..14),
        ) {
            let cached = run_schedule(true, &ops);
            let reference = run_schedule(false, &ops);
            prop_assert_eq!(cached, reference);
        }
    }

    #[test]
    fn fork_shares_the_control_plane_instead_of_cloning_it() {
        let net = ScionNetwork::scionlab(3);
        let fork = net.fork(1);
        assert!(net.shares_control_plane(&fork));
        assert!(
            Arc::ptr_eq(
                net.path_server().beacon_store(),
                fork.path_server().beacon_store()
            ),
            "fork must share the beacon store, not clone it"
        );
        // Grandchildren share it too.
        let grandchild = fork.fork(2);
        assert!(net.shares_control_plane(&grandchild));
        // Independently built networks do not.
        let other = ScionNetwork::scionlab(3);
        assert!(!net.shares_control_plane(&other));
    }

    #[test]
    fn cache_counters_record_hits_and_misses() {
        let tel = Arc::new(upin_telemetry::Telemetry::new());
        let mut net = ScionNetwork::scionlab(5);
        net.set_recorder(tel.clone());
        let dst = paper_destinations()[1];

        // First lookup misses, later lookups (any cap) hit.
        net.paths(MY_AS, dst.ia, 5);
        assert_eq!(tel.counter("sim.pathcache.miss"), 1);
        assert_eq!(tel.counter("sim.pathcache.hit"), 0);
        net.paths(MY_AS, dst.ia, 40);
        net.paths(MY_AS, dst.ia, 1);
        assert_eq!(tel.counter("sim.pathcache.miss"), 1);
        assert_eq!(tel.counter("sim.pathcache.hit"), 2);

        // Forks hit the shared cache.
        let fork = net.fork(7);
        fork.paths(MY_AS, dst.ia, 5);
        assert_eq!(tel.counter("sim.pathcache.miss"), 1);
        assert_eq!(tel.counter("sim.pathcache.hit"), 3);

        // Compile caching: a repeated ping reuses the compiled path...
        let path = net.paths(MY_AS, dst.ia, 1).remove(0);
        let opts = ProbeOptions {
            count: 1,
            interval_ms: 10.0,
            timeout_ms: 1000.0,
            payload_bytes: 8,
        };
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.miss"), 1);
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.hit"), 1);

        // ...until a fault mutation bumps the epoch and invalidates it.
        net.set_server_behavior(dst, ServerBehavior::Down);
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.miss"), 2);
        assert_eq!(tel.counter("sim.compile_cache.hit"), 1);
    }

    #[test]
    fn irrelevant_fault_mutations_refresh_instead_of_recompiling() {
        use crate::topology::scionlab::{ETRI, KISTI_CORE};

        let tel = Arc::new(upin_telemetry::Telemetry::new());
        let mut net = ScionNetwork::scionlab(5);
        net.set_recorder(tel.clone());
        let dst = paper_destinations()[1]; // Ireland — nowhere near KISTI
        let path = net.paths(MY_AS, dst.ia, 1).remove(0);
        let opts = ProbeOptions {
            count: 1,
            interval_ms: 10.0,
            timeout_ms: 1000.0,
            payload_bytes: 8,
        };
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.miss"), 1);

        // A flap on the far KISTI~ETRI leaf link bumps the fault epoch but
        // touches nothing on the Ireland route: the stale entry re-verifies
        // and is re-tagged, not recompiled.
        let kisti = net.topology().index_of(KISTI_CORE).unwrap();
        let etri_ia = ETRI;
        let (far_link, _) = net
            .topology()
            .links_of(kisti)
            .find(|(_, l)| {
                let peer = l.peer_of(kisti).unwrap();
                net.topology()
                    .ases()
                    .any(|(i, n)| i == peer && n.ia == etri_ia)
            })
            .unwrap();
        net.set_link_down(far_link, true);
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.refresh"), 1);
        assert_eq!(tel.counter("sim.compile_cache.miss"), 1);
        net.set_link_down(far_link, false);
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.refresh"), 2);
        assert_eq!(tel.counter("sim.compile_cache.miss"), 1);

        // A mutation that does touch the route — congestion at the
        // destination AS — forces a real recompile.
        net.add_congestion(CongestionEpisode {
            target: CongestionTarget::Node(dst.ia),
            start_ms: 0.0,
            end_ms: 60_000.0,
            severity: 0.5,
        });
        net.ping(&path, dst, &opts).unwrap();
        assert_eq!(tel.counter("sim.compile_cache.miss"), 2);
        assert_eq!(tel.counter("sim.compile_cache.refresh"), 2);
    }
}
