//! Live path failover: long-lived sessions that survive a chaos
//! schedule.
//!
//! A [`Session`] pins the best live path of a ranked candidate prefix
//! and keeps serving over it, tick by tick on the simulated clock.
//! Failure detection is *epoch-driven*: every scheduled (or hand-
//! placed) fault bumps the network's fault epoch, so a session checks
//! `ScionNetwork::path_is_up` — a local fault-plan evaluation, the
//! simulator's stand-in for SCMP revocations and beacon withdrawals —
//! and confirms with a real probe, instead of re-probing its whole
//! candidate set every tick. On failure it re-selects from the ranked
//! prefix under two anti-flap guards:
//!
//! * **seeded exponential backoff** — a path that just failed is not
//!   eligible again until a deterministic, jittered penalty expires, so
//!   two marginal paths cannot trade the session back and forth at tick
//!   rate;
//! * **hysteresis** — a better-ranked path must stay observably live
//!   for `HYSTERESIS_TICKS` consecutive ticks before
//!   the session migrates back to it.
//!
//! Every switch's latency (detection → re-pin) lands in the
//! `failover.switch_ms` telemetry histogram and is checked against the
//! configured SLA. When *no* candidate is live the session degrades
//! instead of erroring: it serves the last-known-good recommendation —
//! seeded from the statcache aggregates when a database is available —
//! tagged `stale`, and re-pins automatically once the schedule heals a
//! path.
//!
//! [`run_chaos_campaign`] drives one session per destination, each on
//! its own deterministic network fork; like the measurement runner,
//! `--parallel` runs commit outcomes (and replay telemetry) in
//! destination order, so the exported report and metrics are
//! byte-identical to a sequential run of the same seed.

pub use crate::analysis::percentile;
use crate::error::{SuiteError, SuiteResult};
use crate::pool::run_pool;
use pathdb::Database;
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::chaos::{render_trace, ChaosSchedule};
use scion_sim::dataplane::scmp::{ProbeOptions, MAX_PROBES};
use scion_sim::net::ScionNetwork;
use scion_sim::path::{PathStatus, ScionPath};
use scion_sim::topology::scionlab::MY_AS;
use serde::{Deserialize, Serialize};

/// Simulated cost of confirming a fail-over target with one SCMP probe
/// before re-pinning, ms (scaled by jitter in `[0.75, 1.25)`).
const CONFIRM_PROBE_MS: f64 = 40.0;
/// Simulated cost of re-pinning a session to a new path (socket
/// re-binding, header re-compilation), ms (same jitter band).
const REPIN_MS: f64 = 120.0;
/// Consecutive live observations a better-ranked path needs before the
/// session migrates back to it.
const HYSTERESIS_TICKS: usize = 3;
/// Backoff before a failed path is eligible again (first failure), ms.
const BACKOFF_BASE_MS: f64 = 2_000.0;
/// Backoff growth per repeated failure of the same path.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Knobs of a chaos/failover campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverConfig {
    /// The client AS the sessions run from.
    pub local_as: IsdAsn,
    /// Switch SLA: a failure-driven migration slower than this counts
    /// as a violation in the report.
    pub sla_ms: f64,
    /// Session length in probe ticks.
    pub ticks: usize,
    /// Idle time between ticks on the simulated clock, ms.
    pub tick_interval_ms: f64,
    /// SCMP probes sent over the pinned path each tick.
    pub probes: u32,
    /// Ranked candidate prefix size (`showpaths -m` equivalent).
    pub max_paths: usize,
    /// Worker-pool size for the destinations' sessions; 1 runs them one
    /// after the other on the caller's thread.
    pub workers: usize,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            local_as: MY_AS,
            sla_ms: 500.0,
            ticks: 30,
            tick_interval_ms: 1_000.0,
            probes: 3,
            max_paths: 8,
            workers: 1,
        }
    }
}

impl FailoverConfig {
    /// Reject configurations no session can sensibly run with.
    pub fn validate(&self) -> Result<(), String> {
        if !self.sla_ms.is_finite() || self.sla_ms <= 0.0 {
            return Err(format!("sla_ms must be positive, got {}", self.sla_ms));
        }
        if self.ticks == 0 {
            return Err("a session needs at least 1 tick".into());
        }
        if !self.tick_interval_ms.is_finite() || self.tick_interval_ms <= 0.0 {
            return Err(format!(
                "tick interval must be positive, got {}",
                self.tick_interval_ms
            ));
        }
        if self.probes == 0 {
            return Err("probes per tick must be at least 1".into());
        }
        if self.probes > MAX_PROBES {
            // `ScionNetwork::ping` refuses such a train, which a session
            // would misread as every candidate being dead.
            return Err(format!("probes per tick must be at most {MAX_PROBES}"));
        }
        if self.max_paths == 0 {
            return Err("max_paths must be at least 1".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        Ok(())
    }
}

/// What one session served on its final tick — either a live path or
/// the last-known-good recommendation tagged stale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedPath {
    pub sequence: String,
    /// Last observed average RTT over this path, if any probe answered.
    #[serde(default)]
    pub rtt_ms: Option<f64>,
    /// `true` when the path was served from memory while no candidate
    /// was live (the degraded-mode answer, never an error).
    pub stale: bool,
}

/// Per-destination outcome of a chaos campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DestReport {
    pub server_id: u32,
    pub dest: String,
    /// Candidate paths the session held (ranked prefix size actually
    /// available, ≤ `max_paths`).
    pub candidates: usize,
    pub ticks: usize,
    /// Ticks served over a live (or just-migrated) path.
    pub ok_ticks: usize,
    /// Ticks with no live candidate.
    pub degraded_ticks: usize,
    /// Degraded ticks where a last-known-good recommendation was served
    /// (`stale`); the remainder had nothing to serve yet.
    pub stale_ticks: usize,
    /// Total simulated time spent degraded, ms.
    pub degraded_ms: f64,
    /// Latency of every failure-driven migration, ms, in order.
    pub switch_ms: Vec<f64>,
    /// Migrations slower than the SLA.
    pub sla_violations: usize,
    /// Hysteresis-gated migrations back to a better-ranked path.
    pub restores: usize,
    /// Re-pins out of degraded mode after the schedule healed a path.
    pub recoveries: usize,
    /// What the session was serving when the campaign ended, if it ever
    /// had anything to serve.
    #[serde(default)]
    pub serving: Option<ServedPath>,
}

impl DestReport {
    /// Fraction of ticks served over a live path.
    pub fn availability(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.ok_ticks as f64 / self.ticks as f64
    }
}

/// Outcome of a whole chaos campaign, serializable for `--out` exports
/// (same seed + schedule → byte-identical JSON, sequential or
/// parallel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    pub sla_ms: f64,
    /// Transitions in the compiled schedule.
    pub transitions: usize,
    /// The compiled event trace, one line per transition — the
    /// determinism contract's comparison artifact.
    pub trace: String,
    pub dests: Vec<DestReport>,
}

impl ChaosReport {
    /// All switch latencies across destinations, in destination order.
    pub fn switch_latencies(&self) -> Vec<f64> {
        self.dests
            .iter()
            .flat_map(|d| d.switch_ms.clone())
            .collect()
    }

    pub fn total_sla_violations(&self) -> usize {
        self.dests.iter().map(|d| d.sla_violations).sum()
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos reports always serialize")
    }

    pub fn from_json_str(s: &str) -> Result<ChaosReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// One destination's unit of work, mirroring the measurement runner's
/// `DestJob`: everything a worker needs, no database access.
struct SessionJob {
    server_id: u32,
    addr: ScionAddr,
    net: ScionNetwork,
    /// Last-known-good sequence from the statcache, if a database with
    /// prior measurements was supplied — what a fresh session serves if
    /// it degrades before ever seeing a live path.
    stale_seed: Option<String>,
}

/// A long-lived failover session over one destination.
///
/// Drive it with [`Session::tick`]; it probes its pinned path, migrates
/// on failure, restores with hysteresis and degrades to a stale answer
/// when nothing is live. All timing runs on the network's simulated
/// clock (which is what fires the chaos schedule), so a session is
/// deterministic for a fixed fork.
pub struct Session<'a> {
    net: &'a ScionNetwork,
    cfg: &'a FailoverConfig,
    addr: ScionAddr,
    candidates: Vec<ScionPath>,
    /// Index into `candidates` of the pinned path; `None` = degraded.
    pinned: Option<usize>,
    /// Fault epoch observed at the last liveness decision; a changed
    /// epoch is what forces re-checking cached liveness at all.
    epoch: u64,
    /// Per-candidate consecutive-failure count (drives the backoff).
    failures: Vec<u32>,
    /// Per-candidate earliest re-eligibility time on the network clock.
    penalty_until: Vec<f64>,
    /// `(candidate, consecutive live ticks)` hysteresis streak of the
    /// best-ranked live alternative above the pinned path.
    restore_streak: Option<(usize, usize)>,
    last_good: Option<ServedPath>,
    ticks_run: usize,
    ok_ticks: usize,
    degraded_ticks: usize,
    stale_ticks: usize,
    degraded_ms: f64,
    switch_ms: Vec<f64>,
    sla_violations: usize,
    restores: usize,
    recoveries: usize,
}

/// What one tick served, surfaced so callers (and tests) can see the
/// degraded-mode contract directly.
#[derive(Debug, Clone, PartialEq)]
pub enum TickOutcome {
    /// Served over the pinned live path.
    Ok { candidate: usize },
    /// The pinned path failed and the session migrated within the tick.
    Switched { to: usize, switch_ms: f64 },
    /// No live candidate: the last-known-good answer, tagged stale —
    /// never an error.
    Stale(ServedPath),
    /// No live candidate and nothing ever worked: still not an error,
    /// just an empty answer.
    NoData,
}

impl<'a> Session<'a> {
    /// Open a session: fetch the ranked candidate prefix once and pin
    /// the best live path. `stale_seed` pre-loads the last-known-good
    /// answer (from the statcache) for sessions that start degraded.
    pub fn open(
        net: &'a ScionNetwork,
        cfg: &'a FailoverConfig,
        addr: ScionAddr,
        stale_seed: Option<String>,
    ) -> Session<'a> {
        let candidates = net.paths(cfg.local_as, addr.ia, cfg.max_paths);
        let pinned = candidates
            .iter()
            .position(|p| p.status == PathStatus::Alive);
        let n = candidates.len();
        Session {
            net,
            cfg,
            addr,
            candidates,
            pinned,
            epoch: net.fault_epoch(),
            failures: vec![0; n],
            penalty_until: vec![f64::NEG_INFINITY; n],
            restore_streak: None,
            last_good: stale_seed.map(|sequence| ServedPath {
                sequence,
                rtt_ms: None,
                stale: true,
            }),
            ticks_run: 0,
            ok_ticks: 0,
            degraded_ticks: 0,
            stale_ticks: 0,
            degraded_ms: 0.0,
            switch_ms: Vec::new(),
            sla_violations: 0,
            restores: 0,
            recoveries: 0,
        }
    }

    /// Best-ranked live candidate whose backoff penalty has expired,
    /// excluding `skip`. Liveness comes from the fault plan (the
    /// epoch-driven push model), so this does not advance the clock.
    fn select_alternative(&self, skip: Option<usize>, now: f64) -> Option<usize> {
        self.candidates.iter().enumerate().position(|(i, p)| {
            Some(i) != skip && self.penalty_until[i] <= now && self.net.path_is_up(p)
        })
    }

    /// Seeded, jittered exponential backoff for candidate `i`.
    fn penalize(&mut self, i: usize, now: f64) {
        self.failures[i] = self.failures[i].saturating_add(1);
        let nominal = BACKOFF_BASE_MS * BACKOFF_MULTIPLIER.powi(self.failures[i] as i32 - 1);
        self.penalty_until[i] = now + nominal * (0.5 + self.net.jitter_unit());
    }

    /// Migrate to candidate `to`: one confirmation probe plus the
    /// re-pin, both on the simulated clock.
    fn repin(&mut self, to: usize) {
        self.net
            .advance_ms(CONFIRM_PROBE_MS * (0.75 + 0.5 * self.net.jitter_unit()));
        self.net
            .advance_ms(REPIN_MS * (0.75 + 0.5 * self.net.jitter_unit()));
        self.pinned = Some(to);
        self.restore_streak = None;
    }

    /// Advance one tick: idle for the tick interval (firing any chaos
    /// transitions the clock passes), then probe/serve/migrate.
    pub fn tick(&mut self) -> TickOutcome {
        self.ticks_run += 1;
        self.net.advance_ms(self.cfg.tick_interval_ms);
        let now = self.net.now_ms();
        let epoch = self.net.fault_epoch();
        let epoch_changed = epoch != self.epoch;
        self.epoch = epoch;

        match self.pinned {
            Some(i) => self.tick_pinned(i, now, epoch_changed),
            None => self.tick_degraded(now),
        }
    }

    fn tick_pinned(&mut self, i: usize, now: f64, epoch_changed: bool) -> TickOutcome {
        // Cheap liveness first (only meaningful to re-check after an
        // epoch bump, but it is a local lookup either way), then the
        // real probe.
        let mut rtt = None;
        let healthy = (!epoch_changed || self.net.path_is_up(&self.candidates[i])) && {
            let opts = ProbeOptions {
                count: self.cfg.probes,
                interval_ms: 50.0,
                payload_bytes: 8,
                timeout_ms: 1000.0,
            };
            match self.net.ping(&self.candidates[i], self.addr, &opts) {
                Ok(out) if out.received() > 0 => {
                    rtt = out.avg_rtt_ms();
                    true
                }
                _ => false,
            }
        };

        if healthy {
            self.ok_ticks += 1;
            self.failures[i] = 0;
            self.last_good = Some(ServedPath {
                sequence: self.candidates[i].sequence(),
                rtt_ms: rtt,
                stale: false,
            });
            self.consider_restore(i, now);
            return TickOutcome::Ok {
                candidate: self.pinned.unwrap_or(i),
            };
        }

        // Failure: measured switch window opens at detection time.
        let t0 = now;
        self.penalize(i, now);
        match self.select_alternative(Some(i), now) {
            Some(j) => {
                self.repin(j);
                let switch_ms = self.net.now_ms() - t0;
                self.switch_ms.push(switch_ms);
                if switch_ms > self.cfg.sla_ms {
                    self.sla_violations += 1;
                }
                // Service continued within the tick via the new path.
                self.ok_ticks += 1;
                TickOutcome::Switched { to: j, switch_ms }
            }
            None => {
                self.pinned = None;
                self.restore_streak = None;
                self.serve_degraded()
            }
        }
    }

    fn tick_degraded(&mut self, now: f64) -> TickOutcome {
        match self.select_alternative(None, now) {
            Some(j) => {
                // The schedule healed something: recover automatically.
                self.repin(j);
                self.recoveries += 1;
                self.ok_ticks += 1;
                TickOutcome::Switched {
                    to: j,
                    // Recovery is not a failure-driven switch; latency
                    // accounting stays in `degraded_ms`, not the SLA
                    // histogram.
                    switch_ms: 0.0,
                }
            }
            None => self.serve_degraded(),
        }
    }

    fn serve_degraded(&mut self) -> TickOutcome {
        self.degraded_ticks += 1;
        self.degraded_ms += self.cfg.tick_interval_ms;
        match &self.last_good {
            Some(served) => {
                self.stale_ticks += 1;
                TickOutcome::Stale(ServedPath {
                    stale: true,
                    ..served.clone()
                })
            }
            None => TickOutcome::NoData,
        }
    }

    /// Hysteresis: migrate back to the best-ranked eligible alternative
    /// only after it stays live for `HYSTERESIS_TICKS` consecutive
    /// healthy ticks.
    fn consider_restore(&mut self, current: usize, now: f64) {
        if current == 0 {
            self.restore_streak = None;
            return;
        }
        let better = self.candidates[..current]
            .iter()
            .enumerate()
            .position(|(j, p)| self.penalty_until[j] <= now && self.net.path_is_up(p));
        match better {
            Some(j) => {
                let streak = match self.restore_streak {
                    Some((cand, n)) if cand == j => n + 1,
                    _ => 1,
                };
                if streak >= HYSTERESIS_TICKS {
                    self.repin(j);
                    self.restores += 1;
                } else {
                    self.restore_streak = Some((j, streak));
                }
            }
            None => self.restore_streak = None,
        }
    }

    /// Close the session into its report.
    pub fn into_report(self, server_id: u32) -> DestReport {
        let serving = match self.pinned {
            Some(i) => Some(ServedPath {
                sequence: self.candidates[i].sequence(),
                rtt_ms: self.last_good.as_ref().and_then(|s| s.rtt_ms),
                stale: false,
            }),
            None => self.last_good.clone(),
        };
        DestReport {
            server_id,
            dest: self.addr.to_string(),
            candidates: self.candidates.len(),
            ticks: self.ticks_run,
            ok_ticks: self.ok_ticks,
            degraded_ticks: self.degraded_ticks,
            stale_ticks: self.stale_ticks,
            degraded_ms: self.degraded_ms,
            switch_ms: self.switch_ms,
            sla_violations: self.sla_violations,
            restores: self.restores,
            recoveries: self.recoveries,
            serving,
        }
    }
}

/// Run one failover session per destination under `schedule`, or
/// under no chaos at all when it is `None`.
///
/// The schedule is compiled and installed on `net` (so the campaign's
/// event trace is fixed up front); every destination then runs on its
/// own deterministic fork, sequentially or through a worker pool —
/// outcomes commit and telemetry replays in destination order either
/// way, making the report and metrics export byte-identical for a
/// fixed seed. `db`, when given, seeds each session's last-known-good
/// answer from the statcache aggregates.
pub fn run_chaos_campaign<'s>(
    net: &ScionNetwork,
    schedule: impl Into<Option<&'s ChaosSchedule>>,
    dests: &[(u32, ScionAddr)],
    cfg: &FailoverConfig,
    db: Option<&Database>,
) -> SuiteResult<ChaosReport> {
    cfg.validate().map_err(SuiteError::InvalidRequest)?;
    let transitions = match schedule.into() {
        Some(schedule) => net
            .install_chaos(schedule)
            .map_err(|e| SuiteError::Campaign(format!("chaos schedule rejected: {e}")))?,
        None => 0,
    };
    let trace = render_trace(&net.chaos_events());

    let jobs: Vec<SessionJob> = dests
        .iter()
        .enumerate()
        .map(|(index, &(server_id, addr))| SessionJob {
            server_id,
            addr,
            net: net.fork(index as u64),
            stale_seed: db.and_then(|db| stale_seed(db, server_id)),
        })
        .collect();

    let (reports, _) = run_pool(jobs, cfg.workers, |j| run_session(cfg, j))?;

    // Telemetry, replayed in destination order on this thread — same
    // discipline as the measurement runner, same byte-identical export
    // guarantee.
    let rec = net.recorder();
    for report in &reports {
        for &ms in &report.switch_ms {
            rec.observe("failover.switch_ms", ms);
        }
        rec.add("failover.switches", report.switch_ms.len() as u64);
        rec.add("failover.sla_violations", report.sla_violations as u64);
        rec.add("failover.restores", report.restores as u64);
        rec.add("failover.recoveries", report.recoveries as u64);
        rec.add("failover.stale_ticks", report.stale_ticks as u64);
        rec.add("failover.degraded_ticks", report.degraded_ticks as u64);
    }

    Ok(ChaosReport {
        sla_ms: cfg.sla_ms,
        transitions,
        trace,
        dests: reports,
    })
}

/// The statcache's best-supported path sequence for a destination: most
/// samples, ties to the lowest path id — the recommendation a degraded
/// session serves (tagged stale) before it ever saw a live path.
fn stale_seed(db: &Database, server_id: u32) -> Option<String> {
    let aggs = crate::statcache::aggregated_paths(db, server_id).ok()?;
    aggs.values()
        .filter(|a| a.samples > 0)
        .max_by(|x, y| {
            x.samples
                .cmp(&y.samples)
                .then_with(|| y.path_id.cmp(&x.path_id))
        })
        .map(|a| a.sequence.clone())
}

fn run_session(cfg: &FailoverConfig, job: SessionJob) -> DestReport {
    let mut session = Session::open(&job.net, cfg, job.addr, job.stale_seed);
    for _ in 0..cfg.ticks {
        session.tick();
    }
    session.into_report(job.server_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::chaos::{AsOutage, Dwell, LinkFlap};
    use scion_sim::topology::scionlab::{
        paper_destinations, AWS_IRELAND, ETHZ_AP, ETHZ_CORE, MY_AS,
    };

    fn quick_cfg() -> FailoverConfig {
        FailoverConfig {
            ticks: 20,
            probes: 2,
            max_paths: 6,
            ..FailoverConfig::default()
        }
    }

    fn dests() -> Vec<(u32, ScionAddr)> {
        vec![(1, paper_destinations()[1]), (2, paper_destinations()[0])]
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        for bad in [
            FailoverConfig {
                sla_ms: 0.0,
                ..quick_cfg()
            },
            FailoverConfig {
                ticks: 0,
                ..quick_cfg()
            },
            FailoverConfig {
                tick_interval_ms: f64::NAN,
                ..quick_cfg()
            },
            FailoverConfig {
                probes: MAX_PROBES + 1,
                ..quick_cfg()
            },
            FailoverConfig {
                workers: 0,
                ..quick_cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(quick_cfg().validate().is_ok());
    }

    #[test]
    fn healthy_network_pins_the_best_path_throughout() {
        let net = ScionNetwork::scionlab(11);
        let report = run_chaos_campaign(
            &net,
            &ChaosSchedule::new(1, 60_000.0),
            &dests(),
            &quick_cfg(),
            None,
        )
        .unwrap();
        assert_eq!(report.transitions, 0);
        for d in &report.dests {
            assert_eq!(d.ok_ticks, d.ticks, "{d:?}");
            assert!(d.switch_ms.is_empty());
            assert_eq!(d.availability(), 1.0);
            assert!(!d.serving.as_ref().unwrap().stale);
        }
    }

    #[test]
    fn flap_forces_a_switch_within_the_sla_and_restores_with_hysteresis() {
        let cfg = quick_cfg();
        let net = ScionNetwork::scionlab(11);
        // The ETHZ core dies at 5 s and heals at 15 s: the best Ireland
        // paths go through it, the Swisscom ones avoid it.
        let mut schedule = ChaosSchedule::new(2, 120_000.0);
        schedule.flaps.push(LinkFlap {
            a: ETHZ_CORE,
            b: ETHZ_AP,
            first_down_ms: 5_000.0,
            down: Dwell::fixed(10_000.0),
            up: Dwell::fixed(600_000.0),
        });
        let report =
            run_chaos_campaign(&net, &schedule, &[(1, paper_destinations()[1])], &cfg, None)
                .unwrap();
        let d = &report.dests[0];
        assert!(!d.switch_ms.is_empty(), "the flap must force a migration");
        assert_eq!(
            d.sla_violations, 0,
            "switch within {} ms: {d:?}",
            cfg.sla_ms
        );
        for &ms in &d.switch_ms {
            assert!(ms <= cfg.sla_ms, "switch took {ms} ms");
        }
        assert!(
            d.restores >= 1,
            "healed primary must be restored (hysteresis-gated): {d:?}"
        );
        assert_eq!(d.degraded_ticks, 0, "an alternative was always live");
        assert!(!d.serving.as_ref().unwrap().stale);
    }

    #[test]
    fn total_outage_degrades_to_stale_and_recovers() {
        let cfg = FailoverConfig {
            ticks: 25,
            ..quick_cfg()
        };
        let net = ScionNetwork::scionlab(11);
        // MY_AS has exactly one uplink: cutting it kills every path.
        let mut schedule = ChaosSchedule::new(3, 120_000.0);
        schedule.flaps.push(LinkFlap {
            a: MY_AS,
            b: ETHZ_AP,
            first_down_ms: 4_000.0,
            down: Dwell::fixed(8_000.0),
            up: Dwell::fixed(600_000.0),
        });
        let report =
            run_chaos_campaign(&net, &schedule, &[(1, paper_destinations()[1])], &cfg, None)
                .unwrap();
        let d = &report.dests[0];
        assert!(d.degraded_ticks > 0, "the outage must be felt: {d:?}");
        assert_eq!(
            d.stale_ticks, d.degraded_ticks,
            "every degraded tick served the last-known-good answer"
        );
        assert!(d.degraded_ms > 0.0);
        assert!(d.recoveries >= 1, "the heal must re-pin: {d:?}");
        assert!(
            d.ok_ticks + d.degraded_ticks == d.ticks,
            "every tick is accounted for: {d:?}"
        );
        assert!(!d.serving.as_ref().unwrap().stale, "recovered by the end");
    }

    #[test]
    fn session_with_no_paths_reports_no_data_not_error() {
        let net = ScionNetwork::scionlab(11);
        let bogus = ScionAddr::new(
            "99-ffaa:0:9999".parse().unwrap(),
            scion_sim::addr::HostAddr::new(1, 1, 1, 1),
        );
        let cfg = quick_cfg();
        let report = run_chaos_campaign(
            &net,
            &ChaosSchedule::new(1, 10_000.0),
            &[(9, bogus)],
            &cfg,
            None,
        )
        .unwrap();
        let d = &report.dests[0];
        assert_eq!(d.candidates, 0);
        assert_eq!(d.degraded_ticks, d.ticks);
        assert_eq!(d.stale_ticks, 0, "nothing to serve, still no error");
        assert!(d.serving.is_none());
    }

    #[test]
    fn parallel_and_sequential_reports_are_byte_identical() {
        let mut schedule = ChaosSchedule::new(5, 90_000.0);
        schedule.flaps.push(LinkFlap {
            a: ETHZ_CORE,
            b: ETHZ_AP,
            first_down_ms: 3_000.0,
            down: Dwell::uniform(2_000.0, 6_000.0),
            up: Dwell::uniform(4_000.0, 9_000.0),
        });
        schedule.outages.push(AsOutage {
            node: AWS_IRELAND,
            start_ms: 10_000.0,
            duration_ms: 7_000.0,
        });
        let all: Vec<(u32, ScionAddr)> = paper_destinations()
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u32 + 1, a))
            .collect();
        let run = |workers: usize| {
            let net = ScionNetwork::scionlab(17);
            let cfg = FailoverConfig {
                workers,
                ticks: 15,
                probes: 2,
                max_paths: 5,
                ..FailoverConfig::default()
            };
            run_chaos_campaign(&net, &schedule, &all, &cfg, None)
                .unwrap()
                .to_json_string()
        };
        let seq = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(seq, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn stale_seed_comes_from_the_statcache() {
        use crate::schema::{PathId, PathMeasurement, StatId, PATHS};
        let db = Database::new();
        // Two stored paths; path 1 has more samples and must win.
        let handle = db.collection(PATHS);
        for (idx, seq) in [(0u32, "seq-a"), (1, "seq-b")] {
            handle
                .write()
                .insert_one(pathdb::doc! {
                    "_id" => format!("7_{idx}"),
                    "server_id" => 7i64,
                    "path_index" => idx as i64,
                    "sequence" => seq,
                    "hops" => 6i64,
                })
                .unwrap();
        }
        let stats = db.collection(crate::schema::PATHS_STATS);
        for (idx, n) in [(0u32, 1usize), (1, 3)] {
            for t in 0..n {
                let m = PathMeasurement {
                    stat_id: StatId {
                        path: PathId {
                            server_id: 7,
                            path_index: idx,
                        },
                        timestamp_ms: (t as u64 + 1) * 1000,
                    },
                    isds: vec![16],
                    hops: 6,
                    avg_latency_ms: Some(30.0),
                    jitter_ms: Some(0.5),
                    loss_pct: 0.0,
                    bw_up_64: None,
                    bw_down_64: None,
                    bw_up_mtu: None,
                    bw_down_mtu: None,
                    target_mbps: 12.0,
                    error: None,
                };
                stats.write().insert_one(m.to_doc()).unwrap();
            }
        }
        assert_eq!(stale_seed(&db, 7).as_deref(), Some("seq-b"));
        assert_eq!(stale_seed(&db, 8), None, "unknown destination");
    }

    #[test]
    fn report_round_trips_through_json() {
        let net = ScionNetwork::scionlab(11);
        let mut schedule = ChaosSchedule::new(2, 30_000.0);
        schedule.flaps.push(LinkFlap {
            a: MY_AS,
            b: ETHZ_AP,
            first_down_ms: 3_000.0,
            down: Dwell::fixed(2_000.0),
            up: Dwell::fixed(30_000.0),
        });
        let report = run_chaos_campaign(&net, &schedule, &dests(), &quick_cfg(), None).unwrap();
        let json = report.to_json_string();
        assert_eq!(ChaosReport::from_json_str(&json).unwrap(), report);
        let _ = AWS_IRELAND;
    }
}
