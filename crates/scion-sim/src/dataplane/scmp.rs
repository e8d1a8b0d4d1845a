//! SCMP probes: the packet-level machinery behind `scion ping` and
//! `scion traceroute`, a discrete-event simulation of one probe train.
//!
//! Each probe is a chain of per-hop arrival events; a hop either drops
//! the packet (residual loss, outage, congestion window) or delays it by
//! propagation + serialization + queueing + jitter and forwards it. The
//! destination's [`ServerBehavior`] decides whether an echo reply is
//! generated; the reply walks the reverse hops the same way.
//!
//! An event is one `InFlight` record — a packet and the time it
//! reaches its next hop. Events fire in `(fire time, scheduling
//! sequence)` order, all draws come from one shared generator in that
//! order, and only the packets actually between two hops are queued:
//! the launches wait in send order until their time comes.

use crate::dataplane::{sample_util, CompiledPath, WireHop};
use crate::des::SimTime;
use crate::fault::ServerBehavior;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Most echo requests one campaign may send (`-c`). The outcome holds
/// one slot per request, so [`crate::net::ScionNetwork::ping`] refuses
/// a larger count before anything is sized by it.
pub const MAX_PROBES: u32 = 100_000;

/// Options of one SCMP echo campaign (one `scion ping` invocation).
#[derive(Debug, Clone, Copy)]
pub struct ProbeOptions {
    /// Number of echo requests (`-c`).
    pub count: u32,
    /// Inter-probe interval in ms (`--interval`).
    pub interval_ms: f64,
    /// Echo payload size in bytes.
    pub payload_bytes: u32,
    /// Per-probe timeout in ms; replies later than this count as lost.
    pub timeout_ms: f64,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        // `scion ping {dst} -c 30 --interval 0.1s` — the paper's exact
        // invocation — with the tool's default 1 s timeout.
        ProbeOptions {
            count: 30,
            interval_ms: 100.0,
            payload_bytes: 8,
            timeout_ms: 1000.0,
        }
    }
}

/// Outcome of one echo campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOutcome {
    pub sent: u32,
    /// RTT in ms per probe; `None` = lost or timed out.
    pub rtts_ms: Vec<Option<f64>>,
}

impl ProbeOutcome {
    pub fn received(&self) -> u32 {
        self.rtts_ms.iter().filter(|r| r.is_some()).count() as u32
    }

    /// Loss fraction in [0, 1].
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.received() as f64 / self.sent as f64
    }

    /// Mean RTT over received probes (ms).
    pub fn avg_rtt_ms(&self) -> Option<f64> {
        let n = self.received();
        (n > 0).then(|| self.rtts_ms.iter().flatten().sum::<f64>() / n as f64)
    }

    pub fn min_rtt_ms(&self) -> Option<f64> {
        self.rtts_ms
            .iter()
            .flatten()
            .copied()
            .fold(None, |m, r| Some(m.map_or(r, |m: f64| m.min(r))))
    }

    pub fn max_rtt_ms(&self) -> Option<f64> {
        self.rtts_ms
            .iter()
            .flatten()
            .copied()
            .fold(None, |m, r| Some(m.map_or(r, |m: f64| m.max(r))))
    }

    /// Population standard deviation of received RTTs ("mdev").
    pub fn mdev_ms(&self) -> Option<f64> {
        let mean = self.avg_rtt_ms()?;
        let squares = self.rtts_ms.iter().flatten().map(|r| (r - mean).powi(2));
        Some((squares.sum::<f64>() / self.received() as f64).sqrt())
    }
}

/// One packet between two hops. The derived order is `(at, seq)` —
/// fire time, then the order arrivals were scheduled in — which no two
/// packets share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct InFlight {
    /// When it reaches `next`.
    at: SimTime,
    seq: u64,
    probe: usize,
    /// Index of the hop it arrives at, in its direction's hop slice.
    next: usize,
    /// Echo reply on the reverse hops (else request on the forward ones).
    reverse: bool,
}

/// Run one echo campaign over a compiled path, with the network clock at
/// `start_ms`. Deterministic for a given `rng`.
pub fn ping(
    path: &CompiledPath,
    opts: &ProbeOptions,
    start_ms: f64,
    rng: &mut StdRng,
) -> ProbeOutcome {
    run_probes(&path.fwd, &path.rev, path.server, opts, start_ms, rng)
}

/// Probe a path prefix (used by traceroute): walk `upto` forward hops,
/// turn around at that router, and walk the same hops back. Border
/// routers always respond (server behaviour does not apply).
pub(crate) fn probe_prefix(
    path: &CompiledPath,
    upto: usize,
    opts: &ProbeOptions,
    start_ms: f64,
    rng: &mut StdRng,
) -> ProbeOutcome {
    run_probes(
        &path.fwd[..upto],
        &path.rev[path.rev.len() - upto..],
        ServerBehavior::Up,
        opts,
        start_ms,
        rng,
    )
}

fn run_probes(
    fwd: &[WireHop],
    rev: &[WireHop],
    server: ServerBehavior,
    opts: &ProbeOptions,
    start_ms: f64,
    rng: &mut StdRng,
) -> ProbeOutcome {
    let count = opts.count as usize;
    let size = opts.payload_bytes + 48; // SCMP + SCION header floor
    let sent_ms = |probe: usize| start_ms + probe as f64 * opts.interval_ms;
    // Launch `i` is the `i`-th event scheduled. Send times tie under a
    // zero interval and run backwards under a negative one, so the
    // launches fire in `(at, seq)` order, not index order.
    let mut launches: Vec<InFlight> = (0..count)
        .map(|probe| InFlight {
            at: SimTime::from_ms(sent_ms(probe)),
            seq: probe as u64,
            probe,
            next: 0,
            reverse: false,
        })
        .collect();
    launches.sort_unstable();
    let mut launches = launches.into_iter().peekable();
    let mut pending: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut next_seq = count as u64;
    // Completion time (network-clock ms) per probe, if it made it back.
    let mut done: Vec<Option<f64>> = vec![None; count];
    // Process a packet's arrival at its next hop; `Some` is its next
    // arrival, `None` means it was dropped or has made it back. Called
    // from one place so that it inlines into the event loop.
    let mut arrive = |mut pkt: InFlight| -> Option<InFlight> {
        let now_ms = pkt.at.as_ms();
        let hops = if pkt.reverse { rev } else { fwd };
        let delay_ms = match hops.get(pkt.next) {
            Some(hop) => {
                // Drop checks: outage, residual loss, congestion windows.
                if rng.gen::<f64>() < hop.loss_at(now_ms) {
                    return None;
                }
                // Delay: propagation + serialization + queueing + jitter.
                let util = sample_util(hop.background_util, rng);
                let queue_ms = hop.serialization_ms(hop.mtu) * (util / (1.0 - util)).min(50.0);
                let jitter = (rng.gen::<f64>() * 2.0 - 1.0) * hop.jitter_ms;
                pkt.next += 1;
                (hop.prop_ms + hop.serialization_ms(size) + queue_ms + jitter).max(0.01)
            }
            None if pkt.reverse => {
                done[pkt.probe] = Some(now_ms);
                return None;
            }
            None => {
                // Server-side handling before echoing.
                match server {
                    ServerBehavior::Down => return None,
                    ServerBehavior::Flaky(p) => {
                        if rng.gen::<f64>() < p {
                            return None;
                        }
                    }
                    // BadResponse still echoes SCMP (the failure shows up
                    // at the application layer, not the probe layer).
                    ServerBehavior::BadResponse | ServerBehavior::Up => {}
                }
                pkt.reverse = true;
                pkt.next = 0;
                // Negligible server turnaround delay (tenths of ms).
                0.05 + rng.gen::<f64>() * 0.1
            }
        };
        pkt.at = pkt.at.plus_ns((delay_ms * 1e6) as u64);
        pkt.seq = next_seq;
        next_seq += 1;
        Some(pkt)
    };
    loop {
        // A launch's `seq` is below every arrival's, so it wins a tie.
        let (launch_due, pkt) = match (launches.peek(), pending.peek()) {
            (Some(launch), Some(Reverse(arrival))) if arrival < launch => (false, *arrival),
            (Some(launch), _) => (true, *launch),
            (None, Some(Reverse(arrival))) => (false, *arrival),
            (None, None) => break,
        };
        match (launch_due, arrive(pkt)) {
            (true, next) => {
                launches.next();
                if let Some(next) = next {
                    pending.push(Reverse(next));
                }
            }
            // The earliest arrival becomes its successor in place: one
            // sift instead of a pop and a push.
            (false, Some(next)) => *pending.peek_mut().expect("peeked above") = Reverse(next),
            (false, None) => {
                pending.pop();
            }
        }
    }
    for (probe, d) in done.iter_mut().enumerate() {
        *d = d
            .map(|t| t - sent_ms(probe))
            .filter(|rtt| *rtt <= opts.timeout_ms);
    }
    ProbeOutcome {
        sent: opts.count,
        rtts_ms: done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hop(prop_ms: f64, loss: f64) -> WireHop {
        WireHop {
            prop_ms,
            capacity_mbps: 1000.0,
            background_util: 0.2,
            jitter_ms: 0.05,
            base_loss: loss,
            pps_cap: None,
            episodes: Vec::new(),
            down: false,
            mtu: 1472,
        }
    }

    fn compiled(hops: Vec<WireHop>) -> CompiledPath {
        let rev = hops.iter().cloned().rev().collect();
        CompiledPath {
            hop_count: hops.len() + 1,
            fwd: hops,
            rev,
            server: ServerBehavior::Up,
            links: Vec::new(),
        }
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn clean_path_returns_all_probes() {
        let path = compiled(vec![hop(5.0, 0.0), hop(10.0, 0.0)]);
        let out = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(1));
        assert_eq!(out.sent, 30);
        assert_eq!(out.received(), 30);
        assert_eq!(out.loss(), 0.0);
        // RTT ≈ 2 × 15 ms plus small noise.
        let avg = out.avg_rtt_ms().unwrap();
        assert!((28.0..40.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn rtt_scales_with_propagation() {
        let near = ping(
            &compiled(vec![hop(2.0, 0.0)]),
            &ProbeOptions::default(),
            0.0,
            &mut rng(2),
        );
        let far = ping(
            &compiled(vec![hop(80.0, 0.0)]),
            &ProbeOptions::default(),
            0.0,
            &mut rng(2),
        );
        assert!(far.avg_rtt_ms().unwrap() > near.avg_rtt_ms().unwrap() + 100.0);
    }

    #[test]
    fn down_server_loses_everything() {
        let mut path = compiled(vec![hop(5.0, 0.0)]);
        path.server = ServerBehavior::Down;
        let out = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(3));
        assert_eq!(out.received(), 0);
        assert_eq!(out.loss(), 1.0);
        assert_eq!(out.avg_rtt_ms(), None);
    }

    #[test]
    fn flaky_server_loses_a_fraction() {
        let mut path = compiled(vec![hop(5.0, 0.0)]);
        path.server = ServerBehavior::Flaky(0.5);
        let opts = ProbeOptions {
            count: 200,
            ..ProbeOptions::default()
        };
        let out = ping(&path, &opts, 0.0, &mut rng(4));
        let loss = out.loss();
        assert!((0.35..0.65).contains(&loss), "loss {loss}");
    }

    #[test]
    fn congestion_window_blacks_out_probes_inside_it() {
        let mut h = hop(5.0, 0.0);
        // Window covers probes sent in [0, 1500) ms of a 30×100 ms train.
        h.episodes.push((0.0, 1500.0, 1.0));
        let path = compiled(vec![h]);
        let out = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(5));
        // Probes 0..15 die, 15..30 survive (modulo in-flight boundary).
        assert!(
            out.received() >= 14 && out.received() <= 16,
            "{}",
            out.received()
        );
        assert!(out.rtts_ms[0].is_none());
        assert!(out.rtts_ms[29].is_some());
    }

    #[test]
    fn lossy_hop_produces_partial_loss() {
        let path = compiled(vec![hop(5.0, 0.10)]);
        let opts = ProbeOptions {
            count: 300,
            ..ProbeOptions::default()
        };
        let out = ping(&path, &opts, 0.0, &mut rng(6));
        // Two traversals (there and back) of a 10 % hop ≈ 19 % loss.
        let loss = out.loss();
        assert!((0.10..0.30).contains(&loss), "loss {loss}");
    }

    #[test]
    fn timeout_converts_slow_replies_to_loss() {
        let path = compiled(vec![hop(700.0, 0.0)]);
        let opts = ProbeOptions {
            timeout_ms: 1000.0,
            ..ProbeOptions::default()
        };
        let out = ping(&path, &opts, 0.0, &mut rng(7));
        assert_eq!(out.received(), 0, "1400 ms RTT must exceed the 1 s timeout");
    }

    #[test]
    fn probe_prefix_walks_partial_path() {
        let path = compiled(vec![hop(5.0, 0.0), hop(50.0, 0.0), hop(100.0, 0.0)]);
        let opts = ProbeOptions {
            count: 5,
            ..ProbeOptions::default()
        };
        let one = probe_prefix(&path, 1, &opts, 0.0, &mut rng(8));
        let three = probe_prefix(&path, 3, &opts, 0.0, &mut rng(8));
        assert!(one.avg_rtt_ms().unwrap() < 20.0);
        assert!(three.avg_rtt_ms().unwrap() > 300.0);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let path = compiled(vec![hop(20.0, 0.02)]);
        let out = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(9));
        let (min, avg, max) = (
            out.min_rtt_ms().unwrap(),
            out.avg_rtt_ms().unwrap(),
            out.max_rtt_ms().unwrap(),
        );
        assert!(min <= avg && avg <= max);
        assert!(out.mdev_ms().unwrap() >= 0.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let path = compiled(vec![hop(10.0, 0.05), hop(30.0, 0.02)]);
        let a = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(42));
        let b = ping(&path, &ProbeOptions::default(), 0.0, &mut rng(42));
        assert_eq!(a, b);
    }
}
