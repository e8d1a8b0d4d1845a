//! Declarative, seeded chaos schedules: recurring link flaps, AS-level
//! outages, congestion waves and flaky-server windows, validated up
//! front and compiled onto the network clock.
//!
//! A [`ChaosSchedule`] is plain data (JSON-serializable, so campaigns
//! can check their fault scenario into the repo) describing *stochastic
//! processes* — "this link flaps, staying down 2–8 s and up 20–60 s".
//! [`ChaosSchedule::compile`] expands the processes into a flat, sorted
//! list of [`ChaosEvent`] transitions using only the schedule's own
//! seed, so the same schedule always yields the byte-identical event
//! trace regardless of what the network does. The network applies each
//! transition as its clock passes the event time (see
//! `ScionNetwork::install_chaos`), bumping the fault epoch exactly like
//! a hand-placed `set_link_down` would — which is what lets epoch-aware
//! consumers (compile caches, failover sessions) notice the change
//! without polling.

use crate::addr::{IsdAsn, ScionAddr};
use crate::fault::{
    check_probability, CongestionEpisode, CongestionTarget, FaultError, FaultPlan, ServerBehavior,
};
use crate::topology::{LinkIndex, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Upper bound on compiled transitions per schedule: a schedule whose
/// dwell times are tiny relative to its horizon is a config error, not
/// a reason to allocate without bound.
const MAX_TRANSITIONS: usize = 100_000;

/// A schedule that cannot be compiled onto a network.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A probability or window failed the fault-plan validation rules.
    Fault(FaultError),
    /// A dwell distribution with NaN bounds, `max < min`, or a minimum
    /// below 1 ms (which would let a flap generate unbounded events).
    BadDwell {
        what: &'static str,
        min_ms: f64,
        max_ms: f64,
    },
    /// The horizon must be a positive, finite duration.
    BadHorizon(f64),
    /// Start offsets and durations must be finite and non-negative.
    BadTime { what: &'static str, value: f64 },
    /// No link connects the two ASes in the target topology.
    UnknownLink { a: IsdAsn, b: IsdAsn },
    /// The AS does not exist in the target topology.
    UnknownNode(IsdAsn),
    /// The address is not a registered server in the target topology.
    UnknownServer(ScionAddr),
    /// The expanded schedule exceeds `MAX_TRANSITIONS`.
    TooManyTransitions(usize),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Fault(e) => write!(f, "{e}"),
            ChaosError::BadDwell {
                what,
                min_ms,
                max_ms,
            } => write!(
                f,
                "{what} dwell must satisfy 1 <= min <= max with finite bounds, \
                 got [{min_ms}, {max_ms}] ms"
            ),
            ChaosError::BadHorizon(h) => {
                write!(
                    f,
                    "schedule horizon must be a positive duration, got {h} ms"
                )
            }
            ChaosError::BadTime { what, value } => {
                write!(f, "{what} must be finite and non-negative, got {value}")
            }
            ChaosError::UnknownLink { a, b } => {
                write!(f, "no link between {a} and {b} in this topology")
            }
            ChaosError::UnknownNode(ia) => write!(f, "no AS {ia} in this topology"),
            ChaosError::UnknownServer(addr) => {
                write!(f, "{addr} is not a registered server in this topology")
            }
            ChaosError::TooManyTransitions(n) => write!(
                f,
                "schedule expands to {n} transitions (limit {MAX_TRANSITIONS}); \
                 widen the dwell times or shorten the horizon"
            ),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<FaultError> for ChaosError {
    fn from(e: FaultError) -> ChaosError {
        ChaosError::Fault(e)
    }
}

/// A uniform dwell-time distribution in milliseconds, sampled once per
/// phase of a recurring fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dwell {
    pub min_ms: f64,
    pub max_ms: f64,
}

impl Dwell {
    /// A degenerate distribution: always exactly `ms`.
    pub fn fixed(ms: f64) -> Dwell {
        Dwell {
            min_ms: ms,
            max_ms: ms,
        }
    }

    pub fn uniform(min_ms: f64, max_ms: f64) -> Dwell {
        Dwell { min_ms, max_ms }
    }

    fn validate(&self, what: &'static str) -> Result<(), ChaosError> {
        if !self.min_ms.is_finite()
            || !self.max_ms.is_finite()
            || self.min_ms < 1.0
            || self.max_ms < self.min_ms
        {
            return Err(ChaosError::BadDwell {
                what,
                min_ms: self.min_ms,
                max_ms: self.max_ms,
            });
        }
        Ok(())
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        self.min_ms + (self.max_ms - self.min_ms) * rng.gen::<f64>()
    }
}

/// A link that flaps for the whole horizon: first failure at
/// `first_down_ms`, then alternating down/up phases with dwell times
/// drawn from the two distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// The link's endpoints (order irrelevant).
    pub a: IsdAsn,
    pub b: IsdAsn,
    pub first_down_ms: f64,
    /// How long each failure lasts.
    pub down: Dwell,
    /// How long the link stays healthy between failures.
    pub up: Dwell,
}

/// A whole AS goes dark for a fixed window: every path transiting (or
/// terminating in) it blacks out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsOutage {
    pub node: IsdAsn,
    pub start_ms: f64,
    pub duration_ms: f64,
}

/// Recurring partial congestion on an AS: active phases drop packets
/// with `severity` probability, separated by idle phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionWave {
    pub node: IsdAsn,
    /// Drop probability while a wave is active (1.0 = blackout).
    pub severity: f64,
    pub first_ms: f64,
    pub active: Dwell,
    pub idle: Dwell,
}

/// A server that silently drops requests with some probability for a
/// fixed window, then returns to normal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlakyWindow {
    pub server: ScionAddr,
    pub drop_probability: f64,
    pub start_ms: f64,
    pub duration_ms: f64,
}

/// The declarative chaos scenario: seeded stochastic fault processes
/// over a bounded horizon. Compile with [`ChaosSchedule::compile`] (or
/// install directly via `ScionNetwork::install_chaos`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Seed of the dwell-time draws — independent of the network seed,
    /// so one scenario replays identically across differently-seeded
    /// measurement runs.
    pub seed: u64,
    /// End of fault *injection*, ms on the network clock. Heal
    /// transitions may land past the horizon (nothing stays broken).
    pub horizon_ms: f64,
    #[serde(default)]
    pub flaps: Vec<LinkFlap>,
    #[serde(default)]
    pub outages: Vec<AsOutage>,
    #[serde(default)]
    pub waves: Vec<CongestionWave>,
    #[serde(default)]
    pub flaky_servers: Vec<FlakyWindow>,
}

impl ChaosSchedule {
    /// An empty schedule over `horizon_ms` — useful as a builder base.
    pub fn new(seed: u64, horizon_ms: f64) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            horizon_ms,
            flaps: Vec::new(),
            outages: Vec::new(),
            waves: Vec::new(),
            flaky_servers: Vec::new(),
        }
    }

    /// Topology-independent validation: every probability in [0, 1],
    /// every dwell/window sane. Run automatically by [`Self::compile`]
    /// and [`Self::from_json_str`].
    pub(crate) fn validate(&self) -> Result<(), ChaosError> {
        if !self.horizon_ms.is_finite() || self.horizon_ms <= 0.0 {
            return Err(ChaosError::BadHorizon(self.horizon_ms));
        }
        let time = |what, value: f64| {
            if !value.is_finite() || value < 0.0 {
                Err(ChaosError::BadTime { what, value })
            } else {
                Ok(())
            }
        };
        for flap in &self.flaps {
            time("link-flap first_down_ms", flap.first_down_ms)?;
            flap.down.validate("link-flap down")?;
            flap.up.validate("link-flap up")?;
        }
        for outage in &self.outages {
            time("AS-outage start_ms", outage.start_ms)?;
            time("AS-outage duration_ms", outage.duration_ms)?;
        }
        for wave in &self.waves {
            check_probability("congestion severity", wave.severity)?;
            time("congestion-wave first_ms", wave.first_ms)?;
            wave.active.validate("congestion-wave active")?;
            wave.idle.validate("congestion-wave idle")?;
        }
        for fw in &self.flaky_servers {
            check_probability("flaky drop probability", fw.drop_probability)?;
            time("flaky-window start_ms", fw.start_ms)?;
            time("flaky-window duration_ms", fw.duration_ms)?;
        }
        Ok(())
    }

    /// Expand the stochastic processes into the flat, time-sorted
    /// transition list the network replays. Deterministic: depends only
    /// on the schedule (incl. its seed) and the topology.
    pub fn compile(&self, topo: &Topology) -> Result<Vec<ChaosEvent>, ChaosError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc4a0_5c4e_d01e_5eed);
        let mut events: Vec<ChaosEvent> = Vec::new();
        let push = |events: &mut Vec<ChaosEvent>, at_ms: f64, action: ChaosAction| {
            events.push(ChaosEvent { at_ms, action });
            if events.len() > MAX_TRANSITIONS {
                return Err(ChaosError::TooManyTransitions(events.len()));
            }
            Ok(())
        };
        for flap in &self.flaps {
            let link = resolve_link(topo, flap.a, flap.b)?;
            let mut t = flap.first_down_ms;
            while t < self.horizon_ms {
                let down_for = flap.down.sample(&mut rng);
                push(&mut events, t, ChaosAction::LinkDown(flap.a, flap.b, link))?;
                push(
                    &mut events,
                    t + down_for,
                    ChaosAction::LinkUp(flap.a, flap.b, link),
                )?;
                t += down_for + flap.up.sample(&mut rng);
            }
        }
        for outage in &self.outages {
            if topo.index_of(outage.node).is_none() {
                return Err(ChaosError::UnknownNode(outage.node));
            }
            let end = outage.start_ms + outage.duration_ms;
            push(
                &mut events,
                outage.start_ms,
                ChaosAction::OutageStart(outage.node, end),
            )?;
            push(&mut events, end, ChaosAction::OutageEnd(outage.node))?;
        }
        for wave in &self.waves {
            if topo.index_of(wave.node).is_none() {
                return Err(ChaosError::UnknownNode(wave.node));
            }
            let mut t = wave.first_ms;
            while t < self.horizon_ms {
                let active_for = wave.active.sample(&mut rng);
                push(
                    &mut events,
                    t,
                    ChaosAction::WaveStart(wave.node, t + active_for, wave.severity),
                )?;
                push(&mut events, t + active_for, ChaosAction::WaveEnd(wave.node))?;
                t += active_for + wave.idle.sample(&mut rng);
            }
        }
        for fw in &self.flaky_servers {
            if topo.server_as(fw.server).is_none() {
                return Err(ChaosError::UnknownServer(fw.server));
            }
            let behavior = ServerBehavior::flaky(fw.drop_probability)?;
            push(
                &mut events,
                fw.start_ms,
                ChaosAction::ServerSet(fw.server, behavior),
            )?;
            push(
                &mut events,
                fw.start_ms + fw.duration_ms,
                ChaosAction::ServerClear(fw.server),
            )?;
        }
        // Stable sort: same-time transitions keep their generation
        // order, so the trace is a total deterministic order.
        events.sort_by(|x, y| x.at_ms.total_cmp(&y.at_ms));
        Ok(events)
    }

    /// Serialize for checking a scenario into a repo (`examples/`).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedules always serialize")
    }

    /// Parse *and validate*: a schedule file with an out-of-range
    /// probability or dwell never reaches a network.
    pub fn from_json_str(s: &str) -> Result<ChaosSchedule, String> {
        let schedule: ChaosSchedule = serde_json::from_str(s).map_err(|e| e.to_string())?;
        schedule.validate().map_err(|e| e.to_string())?;
        Ok(schedule)
    }
}

/// One compiled state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosAction {
    /// `(endpoint a, endpoint b, resolved link)` goes down / comes back.
    LinkDown(IsdAsn, IsdAsn, LinkIndex),
    LinkUp(IsdAsn, IsdAsn, LinkIndex),
    /// `(node, end_ms)`: the AS blacks out until `end_ms`.
    OutageStart(IsdAsn, f64),
    OutageEnd(IsdAsn),
    /// `(node, end_ms, severity)`: partial congestion until `end_ms`.
    WaveStart(IsdAsn, f64, f64),
    WaveEnd(IsdAsn),
    ServerSet(ScionAddr, ServerBehavior),
    ServerClear(ScionAddr),
}

impl ChaosAction {
    /// Mutate the fault plan. `at_ms` is the event's scheduled time, so
    /// window bounds (and expiry pruning) are independent of how far
    /// the applying network's clock has already run past the event.
    pub(crate) fn apply(&self, plan: &mut FaultPlan, at_ms: f64) {
        match self {
            ChaosAction::LinkDown(_, _, link) => plan.set_link_down(*link, true),
            ChaosAction::LinkUp(_, _, link) => plan.set_link_down(*link, false),
            ChaosAction::OutageStart(node, end_ms) => plan.add_episode(CongestionEpisode {
                target: CongestionTarget::Node(*node),
                start_ms: at_ms,
                end_ms: *end_ms,
                severity: 1.0,
            }),
            ChaosAction::WaveStart(node, end_ms, severity) => plan.add_episode(CongestionEpisode {
                target: CongestionTarget::Node(*node),
                start_ms: at_ms,
                end_ms: *end_ms,
                severity: *severity,
            }),
            // End transitions only exist to bump the fault epoch at the
            // heal instant (the episode window expires by itself) — and
            // to garbage-collect spent episodes.
            ChaosAction::OutageEnd(_) | ChaosAction::WaveEnd(_) => plan.prune_expired(at_ms),
            ChaosAction::ServerSet(addr, behavior) => plan.set_server(*addr, *behavior),
            ChaosAction::ServerClear(addr) => plan.set_server(*addr, ServerBehavior::Up),
        }
    }
}

impl std::fmt::Display for ChaosAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosAction::LinkDown(a, b, _) => write!(f, "link {a} ~ {b} DOWN"),
            ChaosAction::LinkUp(a, b, _) => write!(f, "link {a} ~ {b} up"),
            ChaosAction::OutageStart(node, end) => {
                write!(f, "AS {node} OUTAGE until {} ms", end.round() as u64)
            }
            ChaosAction::OutageEnd(node) => write!(f, "AS {node} recovered"),
            ChaosAction::WaveStart(node, end, sev) => write!(
                f,
                "AS {node} congestion {}% until {} ms",
                (sev * 100.0).round() as u64,
                end.round() as u64
            ),
            ChaosAction::WaveEnd(node) => write!(f, "AS {node} congestion cleared"),
            ChaosAction::ServerSet(addr, ServerBehavior::Flaky(p)) => {
                write!(f, "server {addr} FLAKY {}%", (p * 100.0).round() as u64)
            }
            ChaosAction::ServerSet(addr, b) => write!(f, "server {addr} set {b:?}"),
            ChaosAction::ServerClear(addr) => write!(f, "server {addr} healthy"),
        }
    }
}

/// A compiled transition: what happens, and when on the network clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    pub at_ms: f64,
    pub action: ChaosAction,
}

/// Human-readable event trace (one line per transition) — the artifact
/// the byte-identical-trace determinism contract is pinned against.
pub fn render_trace(events: &[ChaosEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 48);
    for e in events {
        // Rounded integer timestamps: float Display with a precision is
        // ~10x the cost of u64 Display, and a busy schedule renders
        // hundreds of lines per campaign.
        let _ = writeln!(out, "[{:>10} ms] {}", e.at_ms.round() as u64, e.action);
    }
    out
}

/// The (undirected) link connecting two ASes.
fn resolve_link(topo: &Topology, a: IsdAsn, b: IsdAsn) -> Result<LinkIndex, ChaosError> {
    let ai = topo.index_of(a).ok_or(ChaosError::UnknownNode(a))?;
    let bi = topo.index_of(b).ok_or(ChaosError::UnknownNode(b))?;
    topo.links_of(ai)
        .find(|(_, l)| l.peer_of(ai) == Some(bi))
        .map(|(li, _)| li)
        .ok_or(ChaosError::UnknownLink { a, b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::scionlab::*;

    fn topo() -> Topology {
        scionlab_topology()
    }

    fn flap_schedule(seed: u64) -> ChaosSchedule {
        let mut s = ChaosSchedule::new(seed, 60_000.0);
        s.flaps.push(LinkFlap {
            a: MY_AS,
            b: ETHZ_AP,
            first_down_ms: 5_000.0,
            down: Dwell::uniform(2_000.0, 8_000.0),
            up: Dwell::uniform(10_000.0, 20_000.0),
        });
        s
    }

    #[test]
    fn compile_is_deterministic_and_sorted() {
        let t = topo();
        let a = flap_schedule(7).compile(&t).unwrap();
        let b = flap_schedule(7).compile(&t).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms);
        }
        assert_eq!(render_trace(&a), render_trace(&b));
        // A different seed draws different dwells.
        let c = flap_schedule(8).compile(&t).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn flaps_alternate_and_every_down_heals() {
        let t = topo();
        let events = flap_schedule(3).compile(&t).unwrap();
        let mut down = 0i32;
        for e in &events {
            match e.action {
                ChaosAction::LinkDown(..) => down += 1,
                ChaosAction::LinkUp(..) => down -= 1,
                _ => panic!("unexpected action in a flap-only schedule"),
            }
            assert!((0..=1).contains(&down), "down/up must alternate");
        }
        assert_eq!(down, 0, "the schedule must heal what it breaks");
    }

    #[test]
    fn schedule_round_trips_through_json_with_validation() {
        let mut s = flap_schedule(11);
        s.outages.push(AsOutage {
            node: AWS_FRANKFURT,
            start_ms: 10_000.0,
            duration_ms: 5_000.0,
        });
        s.waves.push(CongestionWave {
            node: AWS_IRELAND,
            severity: 0.6,
            first_ms: 0.0,
            active: Dwell::fixed(3_000.0),
            idle: Dwell::fixed(9_000.0),
        });
        s.flaky_servers.push(FlakyWindow {
            server: paper_destinations()[0],
            drop_probability: 0.5,
            start_ms: 2_000.0,
            duration_ms: 4_000.0,
        });
        let json = s.to_json_string();
        let back = ChaosSchedule::from_json_str(&json).unwrap();
        assert_eq!(back, s);

        // An out-of-range severity is rejected at parse time.
        let bad = json.replace("0.6", "1.6");
        let err = ChaosSchedule::from_json_str(&bad).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let t = topo();
        let mut s = flap_schedule(1);
        s.horizon_ms = 0.0;
        assert!(matches!(s.compile(&t), Err(ChaosError::BadHorizon(_))));

        let mut s = flap_schedule(1);
        s.flaps[0].down = Dwell::uniform(0.0, 5.0);
        assert!(matches!(s.compile(&t), Err(ChaosError::BadDwell { .. })));

        let mut s = flap_schedule(1);
        s.flaps[0].first_down_ms = f64::NAN;
        assert!(matches!(s.compile(&t), Err(ChaosError::BadTime { .. })));

        let mut s = flap_schedule(1);
        s.waves.push(CongestionWave {
            node: AWS_IRELAND,
            severity: f64::NAN,
            first_ms: 0.0,
            active: Dwell::fixed(1_000.0),
            idle: Dwell::fixed(1_000.0),
        });
        assert!(matches!(s.compile(&t), Err(ChaosError::Fault(_))));

        // Unknown endpoints are topology errors at compile time.
        let mut s = ChaosSchedule::new(1, 10_000.0);
        s.flaps.push(LinkFlap {
            a: MY_AS,
            b: AWS_IRELAND, // no direct link
            first_down_ms: 0.0,
            down: Dwell::fixed(1_000.0),
            up: Dwell::fixed(1_000.0),
        });
        assert!(matches!(s.compile(&t), Err(ChaosError::UnknownLink { .. })));
    }

    #[test]
    fn tiny_dwells_cannot_explode_the_event_list() {
        let t = topo();
        let mut s = ChaosSchedule::new(1, 1_000_000_000.0);
        s.flaps.push(LinkFlap {
            a: MY_AS,
            b: ETHZ_AP,
            first_down_ms: 0.0,
            down: Dwell::fixed(1.0),
            up: Dwell::fixed(1.0),
        });
        assert!(matches!(
            s.compile(&t),
            Err(ChaosError::TooManyTransitions(_))
        ));
    }

    #[test]
    fn actions_mutate_the_fault_plan() {
        let t = topo();
        let link = resolve_link(&t, MY_AS, ETHZ_AP).unwrap();
        let mut plan = FaultPlan::new();
        ChaosAction::LinkDown(MY_AS, ETHZ_AP, link).apply(&mut plan, 100.0);
        assert!(plan.link_is_down(link));
        ChaosAction::LinkUp(MY_AS, ETHZ_AP, link).apply(&mut plan, 200.0);
        assert!(!plan.link_is_down(link));

        ChaosAction::OutageStart(AWS_FRANKFURT, 500.0).apply(&mut plan, 300.0);
        assert_eq!(plan.node_congestion(AWS_FRANKFURT, 400.0), 1.0);
        assert_eq!(plan.node_congestion(AWS_FRANKFURT, 600.0), 0.0);
        ChaosAction::OutageEnd(AWS_FRANKFURT).apply(&mut plan, 500.0);
        assert_eq!(plan.windows_for_node(AWS_FRANKFURT).count(), 0, "pruned");

        let server = paper_destinations()[0];
        ChaosAction::ServerSet(server, ServerBehavior::Flaky(0.5)).apply(&mut plan, 0.0);
        assert_eq!(plan.server(server), ServerBehavior::Flaky(0.5));
        ChaosAction::ServerClear(server).apply(&mut plan, 0.0);
        assert_eq!(plan.server(server), ServerBehavior::Up);
    }
}
