//! The four workloads and what they share: scale, scratch directories,
//! output checks and the outcome one pass hands back.

pub mod campaign;
pub mod longitudinal;
pub mod requests;
pub mod serve;

use crate::schema::Values;
use crate::trace::Tracer;
use pathdb::database::OpenOptions;
use pathdb::{Database, DiskStorage, Durability, FaultyStorage, RecoveryReport, Storage};
use scion_sim::net::ScionNetwork;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use upin_core::config::SuiteConfig;
use upin_core::measure::{run_tests, MeasureReport};
use upin_telemetry::{MetricsDoc, Telemetry};

pub type Res<T> = Result<T, String>;

/// Stringify any error of the program under test.
pub fn es<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// How much work one run does. `seconds` sizes the timed section (the
/// work is a fixed function of it, so same seed + same seconds is the
/// same program run); `smoke` additionally shrinks set-up to a schema
/// check.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

impl Scale {
    /// `per_second * seconds`, at least `min`.
    pub fn count(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(min)
    }

    /// How many times set-up runs in all; `setup_s` is the fastest of
    /// them.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// Named output checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.0.push((name, ok));
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// What one pass of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end names from the untraced pass,
    /// per-layer names from the traced one).
    pub values: Values,
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// Counters that must repeat exactly for the same seed — compared
    /// between the untraced and the traced pass.
    pub fingerprint: Vec<(String, u64)>,
    /// Time the timed section kept the harness busy, s: its wall time
    /// minus, on the open loop, the generator's idle waits.
    pub timed_busy_s: f64,
    /// Spans the traced pass recorded inside the timed section; times
    /// the cost of a span, over `timed_busy_s`, it is the tracing
    /// overhead.
    pub timed_spans: usize,
    /// The traced pass's span recorders, one per harness thread.
    pub tracers: Vec<(&'static str, Tracer)>,
}

/// Where a workload's database lives.
///
/// The gating runs use pathdb's in-memory [`FaultyStorage`]: the whole
/// durable write path runs (WAL framing and CRCs, group commits,
/// snapshot encoding, manifest, recovery) but a flush costs no device
/// time. On this shared sandbox a real fsync costs 0.2–2 ms and drifts
/// by 2x between back-to-back runs, which put every durable metric's
/// run-to-run spread above any usable bound; flushes are reported as
/// counts (`pathdb.wal.commit_groups`) instead, and the traced
/// `campaign_1000as` pass times a few laps on the real disk for the
/// record (`pathdb.wal.disk_commit_us_*`).
pub struct Store {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
}

impl Store {
    pub fn memory() -> Store {
        Store {
            storage: Arc::new(FaultyStorage::new()),
            dir: PathBuf::from("/bench-db"),
        }
    }

    /// The host filesystem, fsync on.
    pub fn disk(dir: PathBuf) -> Store {
        Store {
            storage: DiskStorage::shared(),
            dir,
        }
    }

    /// Open (or reopen) the database WAL-durably, handing the traced
    /// pass's recorder to it from the first moment of recovery.
    pub fn open(&self, telemetry: Option<&Arc<Telemetry>>) -> Res<(Database, RecoveryReport)> {
        let mut opts = OpenOptions::new(Durability::Wal).with_storage(self.storage.clone());
        if let Some(t) = telemetry {
            opts = opts.with_recorder(t.clone());
        }
        Database::open_durable_with(&self.dir, opts).map_err(es)
    }

    /// Close-and-reopen `times` times. Every reopen is the same work,
    /// so `pathdb.recovery_ms` is the fastest one — of these and of any
    /// the workload already reported; the `pathdb.recovery.*` counts
    /// come from the last recovery report, and every reopen must see
    /// exactly `acknowledged` documents.
    pub fn reopen_fastest(
        &self,
        times: usize,
        acknowledged: usize,
        telemetry: Option<&Arc<Telemetry>>,
        out: &mut Outcome,
    ) -> Res<()> {
        let mut recovery_ms = out
            .values
            .get("pathdb.recovery_ms")
            .copied()
            .unwrap_or(f64::INFINITY);
        let mut last = RecoveryReport::default();
        let mut all_match = true;
        for _ in 0..times {
            let t0 = Instant::now();
            let (db, report) = self.open(telemetry)?;
            recovery_ms = recovery_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            all_match &= db.total_documents() == acknowledged;
            last = report;
        }
        out.checks.check(
            format!("after each of {times} reopens total_documents equals what was acknowledged"),
            all_match,
        );
        out.values.insert("pathdb.recovery_ms", recovery_ms);
        out.values
            .insert("pathdb.recovery.snapshot_docs", last.snapshot_docs as f64);
        out.values.insert(
            "pathdb.recovery.wal_groups_replayed",
            last.wal_groups as f64,
        );
        Ok(())
    }
}

/// Reopens of the closed database at the end of a pass: the traced pass
/// reports `pathdb.recovery_ms` from `full` of them; the other passes
/// reopen once, for the acknowledged-documents check.
pub fn reopens(traced: bool, full: usize) -> usize {
    if traced {
        full
    } else {
        1
    }
}

/// Reopens behind `pathdb.recovery_ms` in the traced pass.
pub const REOPENS: usize = 15;

/// A directory of this run's own under the build directory (inside the
/// checkout) for the real-disk probe, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Res<Scratch> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("benchmark/target"));
        let dir = base
            .join("bench-tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(es)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `setup` `reps` times, each on a fresh in-memory store, keeping
/// the last environment. Each repetition is the same work, so `setup_s`
/// is the fastest one — of these and of any an earlier call timed: the
/// workloads call this at several moments of a run, because a slow
/// phase of the box that covers one moment would otherwise sit in
/// every repetition. The previous environment is dropped before the
/// next one is built.
pub fn setup_fastest<E>(
    reps: usize,
    out: &mut Outcome,
    mut setup: impl FnMut(&Store) -> Res<E>,
) -> Res<(E, Store)> {
    let mut fastest = out.values.get("setup_s").copied().unwrap_or(f64::INFINITY);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let store = Store::memory();
        let t0 = Instant::now();
        let env = setup(&store)?;
        fastest = fastest.min(t0.elapsed().as_secs_f64());
        last = Some((env, store));
    }
    out.values.insert("setup_s", fastest);
    Ok(last.expect("at least one repetition ran"))
}

/// One campaign lap on a fork of `net` salted by `lap`, so laps draw
/// different measurement noise; the base clock then moves past the
/// fork's so the next lap's timestamps are fresh.
pub fn lap_on_fork(
    db: &Database,
    net: &ScionNetwork,
    cfg: &SuiteConfig,
    lap: u64,
) -> Res<MeasureReport> {
    let fork = net.fork(0xC0FFEE ^ lap);
    let report = run_tests(db, &fork, cfg).map_err(es)?;
    let ahead = fork.now_ms() - net.now_ms();
    if ahead > 0.0 {
        net.advance_ms(ahead);
    }
    Ok(report)
}

/// 64-bit fold over response bytes, eight at a time — cheap enough to
/// run inside the timed loop (FNV-style, not cryptographic).
pub fn fold_digest(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// Counters of the program's own that the traced pass reports under
/// the same name. Everything but `sim.*` is reported as the change
/// over the timed section (set-up warms caches and must not count as
/// serve-path misses); `sim.*` is reported for the whole pass, because
/// lazy path combination and cache fills are set-up work by design.
const COUNTERS: [&str; 23] = [
    "pathdb.snapshot.hit",
    "pathdb.snapshot.merge",
    "pathdb.snapshot.clone",
    "pathdb.snapshot.merge_docs",
    "pathdb.plan.full_scan",
    "pathdb.plan.index_point",
    "pathdb.plan.index_range",
    "pathdb.plan.index_intersect",
    "pathdb.wal.commit_groups",
    "pathdb.wal.ops",
    "pathdb.checkpoint.rewritten",
    "pathdb.checkpoint.kept_in_log",
    "pathdb.checkpoint.clean",
    "pathdb.rollup.rows_folded",
    "pathdb.retention.expired_rows",
    "statcache.recompute_docs",
    "sim.pathserver.lazy_forced",
    "sim.pathcache.hit",
    "sim.pathcache.miss",
    "sim.compile_cache.hit",
    "sim.compile_cache.miss",
    "sim.compile_cache.refresh",
    "sim.chaos.transitions",
];

/// Per-layer values read from the program's existing counters: `t` now
/// against `before`, the counters as the timed section began.
pub fn counter_values(t: &Telemetry, before: &MetricsDoc, values: &mut Values) {
    let now = t.metrics_doc();
    let delta = |name: &str| {
        let base = if name.starts_with("sim.") {
            0
        } else {
            before.counters.get(name).copied().unwrap_or(0)
        };
        now.counters.get(name).copied().unwrap_or(0) - base
    };
    for name in COUNTERS {
        values.insert(name, delta(name) as f64);
    }
    // A lookup either hits the aggregate cache, or recomputes the
    // aggregates from a grouping that was itself merged or recomputed.
    let hit = delta("statcache.agg.hit");
    let lookups = hit + delta("statcache.agg.recompute");
    values.insert("statcache.hit", hit as f64);
    values.insert("statcache.merge", delta("statcache.grouped.merge") as f64);
    values.insert(
        "statcache.recompute",
        delta("statcache.grouped.recompute") as f64,
    );
    if lookups > 0 {
        values.insert("statcache.hit_share", hit as f64 / lookups as f64);
    }
    let queries = delta("select.queries");
    if queries > 0 {
        values.insert(
            "select.candidates",
            delta("select.candidates") as f64 / queries as f64,
        );
    }
    if let Some(h) = now.histograms.get("wall.pathdb.wal.commit_ms") {
        values.insert("pathdb.wal.commit_us_p50", h.p50 * 1e3);
        values.insert("pathdb.wal.commit_us_p95", h.p95 * 1e3);
    }
}
