//! The performance budgets README, EXPERIMENTS and DESIGN quote, each
//! asserted with the number the prose uses:
//!
//! * 1000-AS bring-up within 10x of the 35-AS SCIONLab replica,
//! * `fork` O(1) in topology size and far cheaper than a rebuild,
//! * rollup read at least 50x faster than the raw scan at 1M rows,
//! * WAL group commit within 3.5x of in-memory `insert_many`,
//! * a chaos schedule ticking on a far-away link within 1.2x of the
//!   same failover campaign with no schedule.
//!
//! The first two are what the control-plane design exists for and run in
//! every build; the three below them compare optimized code paths and
//! run in release only (`cargo test --release -p upin-bench --test
//! floors`).

use pathdb::Durability;
use scion_sim::beacon::BeaconConfig;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::random::{random_topology, RandomTopologyConfig};
use scion_sim::topology::scionlab::{scionlab_topology, AWS_IRELAND, MY_AS};
use scion_sim::topology::Topology;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use upin_bench::{cross_isd_endpoints, empty_db, rollup_db, stats_batch};

/// The test harness runs `#[test]`s on parallel threads; a floor times
/// its two sides alone on the machine or not at all.
fn alone() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    // A floor that failed while holding the lock says nothing about the
    // others: the guarded value is `()`, there is no state to corrupt.
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wall-clock nanoseconds of one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_nanos() as f64
}

/// Median wall-clock of `f` over many iterations — the median is robust
/// against scheduler noise on shared CI machines.
fn median_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..iters).map(|_| timed(&mut f)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `b / a` measured as `pairs` alternating A/B pairs (which side goes
/// first alternates too, so drift and warm-up land on both), each side
/// returning the nanoseconds of what it [`timed`]: the median of the
/// per-pair ratios and half their interquartile range — the run's own
/// noise, which a floor grants as tolerance so that a loaded runner
/// widens the verdict instead of flipping it.
fn paired_ratio(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    for _ in 0..2 {
        a(); // warm-up: allocator, caches, lazy statics
        b();
    }
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = a();
                (ta, b())
            } else {
                let tb = b();
                (a(), tb)
            };
            tb / ta
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    (ratios[n / 2], (ratios[3 * n / 4] - ratios[n / 4]) / 2.0)
}

/// Report a [`paired_ratio`] reading and fail if it is over `budget` by
/// more than its own noise.
fn at_most(budget: f64, what: &str, (ratio, noise): (f64, f64)) {
    println!("{what}: {ratio:.3}x (±{noise:.3}), budget {budget}x");
    assert!(
        ratio - noise <= budget,
        "{what}: {ratio:.3}x (±{noise:.3}) is over the {budget}x budget"
    );
}

/// The ~1000-AS BRITE-style internet of the control-plane scale claim
/// and the per-pair beacon cap it is brought up under.
fn thousand_as() -> (Topology, BeaconConfig) {
    let cfg = RandomTopologyConfig {
        isds: 5,
        ases_per_isd: (190, 210),
        cores_per_isd: (2, 3),
        core_mesh_density: 0.5,
        pref_attachment: 0.6,
        ..RandomTopologyConfig::default()
    };
    let (topo, _) = random_topology(3, &cfg).expect("valid config");
    assert!(
        topo.num_ases() >= 950,
        "want ~1000 ASes, got {}",
        topo.num_ases()
    );
    let cap = BeaconConfig {
        beacons_per_pair: 8,
        ..BeaconConfig::default()
    };
    (topo, cap)
}

/// The acceptance bound the capped-beaconing + lazy-combination work
/// was done for; without either, the big bring-up is orders of
/// magnitude over.
#[test]
fn thousand_as_bringup_is_within_10x_of_scionlab() {
    let _alone = alone();
    let (big_topo, cap) = thousand_as();
    let (user, far) = cross_isd_endpoints(&big_topo);

    // Bring-up = beaconing + the first ranked paths() answer, i.e. what
    // a CLI command over `--topology FILE --beacon-cap 8` pays.
    let ratio = paired_ratio(
        5,
        || {
            timed(|| {
                let net = ScionNetwork::new(scionlab_topology(), 42);
                assert!(!net.paths(MY_AS, AWS_IRELAND, 40).is_empty());
            })
        },
        || {
            timed(|| {
                let net = ScionNetwork::with_beacon_config(big_topo.clone(), 42, &cap);
                assert!(!net.paths(user, far, 40).is_empty());
            })
        },
    );
    at_most(10.0, "1000-AS bring-up vs the replica's", ratio);
}

/// `ScionNetwork::fork` shares the control plane by reference, so its
/// cost must not scale with the topology, and must be far below
/// rebuilding a network from scratch.
#[test]
fn fork_cost_is_independent_of_topology_size() {
    let _alone = alone();
    let (big_topo, cap) = thousand_as();
    let small = ScionNetwork::scionlab(42);
    let big = ScionNetwork::with_beacon_config(big_topo, 42, &cap);
    assert!(
        big.topology().num_links() > 2 * small.topology().num_links(),
        "the comparison topology must actually be larger"
    );
    assert!(
        big.shares_control_plane(&big.fork(7)),
        "fork must share the control plane"
    );

    // Warm up allocator and caches before timing.
    median_ns(200, || small.fork(7));
    median_ns(200, || big.fork(7));

    let small_fork = median_ns(2_000, || small.fork(7));
    let big_fork = median_ns(2_000, || big.fork(7));
    let rebuild = median_ns(20, || ScionNetwork::scionlab(42));

    println!(
        "fork: {small_fork:.0} ns (scionlab), {big_fork:.0} ns (1000-AS), rebuild {rebuild:.0} ns"
    );
    // Generous bounds: a deep-copying fork would re-run beaconing (or at
    // least clone the path store) and blow past both by orders of
    // magnitude; O(1) sharing keeps them within noise of each other.
    assert!(
        big_fork <= 25.0 * small_fork + 50_000.0,
        "fork cost scales with topology size: {small_fork:.0} ns (scionlab) vs {big_fork:.0} ns (1000-AS)"
    );
    assert!(
        10.0 * small_fork < rebuild,
        "fork ({small_fork:.0} ns) should be far cheaper than rebuilding ({rebuild:.0} ns)"
    );
}

/// The longitudinal storage claim: an hourly-aggregate query over 1M
/// raw rows is answered from ~2k bucket documents.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio floor: release only")]
fn rollup_read_is_50x_faster_than_the_raw_scan() {
    use pathdb::rollup::{read_rollup, scan_reference};
    use upin_core::schema::{stats_rollup, PATHS_STATS};

    let _alone = alone();
    let db = rollup_db(1_000_000);
    let cfg = stats_rollup();

    // Documents each side walks — the reason for the ratio, and exact.
    let raw = db.collection(PATHS_STATS).read().len();
    let buckets = db.collection(&cfg.dest).read().len();
    assert!(
        raw >= 400 * buckets,
        "{raw} raw rows folded into {buckets} bucket documents"
    );

    let (slowdown, noise) = paired_ratio(
        5,
        || timed(|| read_rollup(&db, &cfg)),
        || timed(|| scan_reference(&db, &cfg)),
    );
    println!("raw scan vs rollup read: {slowdown:.1}x (±{noise:.1}), floor 50x");
    assert!(
        slowdown + noise >= 50.0,
        "rollup read is only {slowdown:.1}x (±{noise:.1}) faster than the raw scan — under the 50x floor"
    );
}

/// §4.2.2's durability claim: logging a destination's batch — rendering
/// every document into a CRC-framed commit group — costs at most 3.5x
/// what inserting it in memory does. Only `insert_many` is timed;
/// opening the store and building the batch are the same on both sides
/// and would pull the ratio towards 1.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio floor: release only")]
fn wal_group_commit_is_within_3_5x_of_in_memory_insert() {
    let _alone = alone();
    for batch in [240usize, 2400] {
        let docs = stats_batch(batch);
        let insert = |mode| {
            let db = empty_db(mode);
            let batch = docs.clone();
            let handle = db.collection("paths_stats");
            timed(|| handle.write().insert_many(batch).unwrap())
        };
        let ratio = paired_ratio(25, || insert(Durability::None), || insert(Durability::Wal));
        at_most(3.5, &format!("wal vs in-memory insert_many/{batch}"), ratio);
    }
}

/// The per-tick cost of the chaos machinery: the same 30-tick failover
/// campaign over the five paper destinations with an empty schedule vs
/// one flapping a leaf link no measured path uses every ~950 ms — two
/// transitions per session tick, each bumping the fault epoch and
/// making every session re-verify liveness and refresh its compiled
/// route. (That they refresh and never recompile is pinned by counters
/// in `scion-sim/tests/prop_cache.rs`; this is what the refresh costs.)
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio floor: release only")]
fn chaos_tick_is_within_1_2x_of_a_plain_campaign() {
    use scion_sim::chaos::{ChaosSchedule, Dwell, LinkFlap};
    use scion_sim::topology::scionlab::{paper_destinations, ETRI, KISTI_CORE};
    use upin_core::failover::{run_chaos_campaign, FailoverConfig};

    let _alone = alone();
    let cfg = FailoverConfig {
        ticks: 30,
        ..FailoverConfig::default()
    };
    let dests: Vec<(u32, _)> = paper_destinations()
        .into_iter()
        .enumerate()
        .map(|(i, a)| (i as u32 + 1, a))
        .collect();
    let empty = ChaosSchedule::new(1, 30_000.0);
    let mut busy = ChaosSchedule::new(1, 30_000.0);
    busy.flaps.push(LinkFlap {
        a: KISTI_CORE,
        b: ETRI,
        first_down_ms: 100.0,
        down: Dwell::fixed(450.0),
        up: Dwell::fixed(500.0),
    });
    let transitions = busy
        .compile(ScionNetwork::scionlab(42).topology())
        .unwrap()
        .len();
    assert!(transitions > 50, "{transitions} transitions in 30 ticks");

    // One sample = 10 campaigns (~10 ms), so a timer tick or a context
    // switch is a small part of it.
    let campaigns = |schedule: &ChaosSchedule| {
        timed(|| {
            for _ in 0..10 {
                let report =
                    run_chaos_campaign(&ScionNetwork::scionlab(42), schedule, &dests, &cfg, None);
                std::hint::black_box(report.unwrap());
            }
        })
    };
    let ratio = paired_ratio(20, || campaigns(&empty), || campaigns(&busy));
    at_most(1.2, "busy far-away schedule vs empty schedule", ratio);
}
