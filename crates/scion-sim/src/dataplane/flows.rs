//! Flow-level bandwidth-test simulation (the substrate under
//! `scion-bwtestclient`).
//!
//! A bandwidth test is a constant-rate UDP packet train. Simulating every
//! packet of a 150 Mbps / 64-byte train (~300 k packets/s) through the
//! event queue would dominate run time without adding fidelity, so flows
//! use a time-sliced fluid model with per-slice stochastic sampling.
//! Per slice and per hop, a packet train experiences:
//!
//! 1. **Router pps limits** — software border routers forward a bounded
//!    packet rate regardless of size; small-packet trains saturate this
//!    first (this is what pulls 64-byte tests below MTU tests at the
//!    12 Mbps target, Fig. 7).
//! 2. **Fluid capacity loss** — offered wire bitrate above the available
//!    capacity (capacity × (1 − sampled background)) is dropped.
//! 3. **Overload penalty, biased against large packets** — under
//!    sustained overload, drop-tail queues in *bytes* refuse large
//!    packets disproportionately (a large packet needs more contiguous
//!    free buffer). This collapses MTU-sized goodput below the 64-byte
//!    goodput at the 150 Mbps target — the reversal of Fig. 8.
//! 4. **Residual loss and congestion windows** — as for probes.

use crate::dataplane::{sample_util, CompiledPath, WireHop};
use crate::fault::ServerBehavior;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-direction parameters of a bandwidth test (the `3,1000,?,12Mbps`
/// tuples of `scion-bwtestclient -cs / -sc`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowParams {
    /// Test duration in seconds (bwtester caps this at 10 s).
    pub duration_s: f64,
    /// Payload bytes per packet (≥ 4).
    pub packet_bytes: u32,
    /// Target *payload* bandwidth in Mbps.
    pub target_mbps: f64,
}

impl FlowParams {
    /// Packets per second needed to hit the target at this packet size.
    fn target_pps(&self) -> f64 {
        self.target_mbps * 1e6 / (self.packet_bytes as f64 * 8.0)
    }

    /// Total packets the train comprises (bwtester's `?` wildcard).
    pub fn num_packets(&self) -> u64 {
        (self.target_pps() * self.duration_s).round() as u64
    }
}

/// Outcome of one direction of a bandwidth test.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// Payload bandwidth actually attempted by the sender, Mbps. Lower
    /// than the target when the sender itself is pps-bound.
    pub attempted_mbps: f64,
    /// Payload bandwidth received at the far end, Mbps.
    pub achieved_mbps: f64,
    /// Packet loss fraction of the train.
    pub loss: f64,
    pub packets_sent: u64,
    pub packets_received: u64,
}

/// Sender-side packet rate limit (packets/s).
///
/// bwtester is a user-space UDP sender; on the small VMs SCIONLab ASes
/// run on it cannot sustain hundreds of kpps. 45 kpps is a deliberately
/// round calibration: it never binds MTU-sized trains (12.8 kpps at
/// 150 Mbps) and always binds 64-byte trains at 150 Mbps (293 kpps).
pub const SENDER_PPS_CAP: f64 = 45_000.0;

/// Overload penalty strength (mechanism 3 above).
const OVERLOAD_K: f64 = 1.35;
/// Overload penalty exponent on the excess ratio.
const OVERLOAD_ALPHA: f64 = 1.3;
/// Reference size for the penalty's size bias (bytes on the wire).
const SIZE_REF: f64 = 1600.0;

/// Number of time slices a flow is integrated over.
const SLICES: usize = 30;

/// Simulate one direction of a bandwidth test over `hops`.
///
/// `header` is the per-packet wire overhead (SCION + UDP headers),
/// `start_ms` the network-clock time the train starts.
pub fn simulate_flow(
    hops: &[WireHop],
    params: &FlowParams,
    header: u32,
    start_ms: f64,
    rng: &mut StdRng,
) -> FlowOutcome {
    let wire_bytes = (params.packet_bytes + header) as f64;
    let slice_s = params.duration_s / SLICES as f64;
    let offered_pps = params.target_pps().min(SENDER_PPS_CAP);
    // Sender jitter: ±3 % pacing noise.
    let mut sent_total = 0.0f64;
    let mut recv_total = 0.0f64;

    for slice in 0..SLICES {
        let t_ms = start_ms + slice as f64 * slice_s * 1000.0;
        let pacing = 1.0 + (rng.gen::<f64>() - 0.5) * 0.06;
        let mut pps = offered_pps * pacing;
        sent_total += pps * slice_s;

        for hop in hops {
            if hop.down {
                pps = 0.0;
                break;
            }
            // (1) router pps limit.
            if let Some(cap) = hop.pps_cap {
                // The cap is shared with a little background chatter.
                let eff_cap = cap * (0.95 + rng.gen::<f64>() * 0.1);
                if pps > eff_cap {
                    pps = eff_cap;
                }
            }
            // (2) fluid capacity.
            let util = sample_util(hop.background_util, rng);
            let avail_mbps = hop.capacity_mbps * (1.0 - util);
            let offered_mbps = pps * wire_bytes * 8.0 / 1e6;
            let mut keep = 1.0f64;
            if offered_mbps > avail_mbps && avail_mbps > 0.0 {
                keep *= avail_mbps / offered_mbps;
                // (3) overload penalty, biased against large packets.
                let excess = offered_mbps / avail_mbps - 1.0;
                let p_size =
                    (OVERLOAD_K * excess.powf(OVERLOAD_ALPHA) * (wire_bytes / SIZE_REF)).min(0.97);
                keep *= 1.0 - p_size;
            } else if avail_mbps <= 0.0 {
                keep = 0.0;
            }
            // (4) residual loss + congestion windows.
            keep *= 1.0 - hop.loss_at(t_ms);
            pps *= keep;
        }
        recv_total += pps * slice_s;
    }

    let packets_sent = sent_total.round() as u64;
    let packets_received = recv_total.round().min(sent_total.round()) as u64;
    let payload_bits = params.packet_bytes as f64 * 8.0;
    FlowOutcome {
        attempted_mbps: sent_total * payload_bits / params.duration_s / 1e6,
        achieved_mbps: recv_total * payload_bits / params.duration_s / 1e6,
        loss: if sent_total > 0.0 {
            (1.0 - recv_total / sent_total).max(0.0)
        } else {
            0.0
        },
        packets_sent,
        packets_received,
    }
}

/// Run a full bandwidth test: client→server over the forward hops and
/// server→client over the reverse hops. Returns `(cs, sc)` outcomes, or
/// `None` when the server is down or answers garbage (the caller maps
/// this to the tool-level error the paper's suite must handle).
pub(crate) fn bwtest(
    path: &CompiledPath,
    cs: &FlowParams,
    sc: &FlowParams,
    header: u32,
    start_ms: f64,
    rng: &mut StdRng,
) -> Option<(FlowOutcome, FlowOutcome)> {
    match path.server {
        ServerBehavior::Down | ServerBehavior::BadResponse => return None,
        ServerBehavior::Flaky(p) => {
            if rng.gen::<f64>() < p {
                return None;
            }
        }
        ServerBehavior::Up => {}
    }
    let cs_out = simulate_flow(&path.fwd, cs, header, start_ms, rng);
    let sc_out = simulate_flow(
        &path.rev,
        sc,
        header,
        start_ms + cs.duration_s * 1000.0,
        rng,
    );
    Some((cs_out, sc_out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hop(capacity: f64, bg: f64, pps_cap: Option<f64>) -> WireHop {
        WireHop {
            prop_ms: 10.0,
            capacity_mbps: capacity,
            background_util: bg,
            jitter_ms: 0.1,
            base_loss: 0.001,
            pps_cap,
            episodes: Vec::new(),
            down: false,
            mtu: 1472,
        }
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn mean_achieved(hops: &[WireHop], params: &FlowParams, seeds: std::ops::Range<u64>) -> f64 {
        let n = (seeds.end - seeds.start) as f64;
        seeds
            .map(|s| simulate_flow(hops, params, 130, 0.0, &mut rng(s)).achieved_mbps)
            .sum::<f64>()
            / n
    }

    fn mtu_params(target: f64) -> FlowParams {
        FlowParams {
            duration_s: 3.0,
            packet_bytes: 1400,
            target_mbps: target,
        }
    }

    fn small_params(target: f64) -> FlowParams {
        FlowParams {
            duration_s: 3.0,
            packet_bytes: 64,
            target_mbps: target,
        }
    }

    /// A user-access-like bottleneck: 80 Mbps, 25 % background, 18 kpps
    /// router, followed by a clean fat backbone hop.
    fn access_path() -> Vec<WireHop> {
        vec![hop(80.0, 0.25, Some(18_000.0)), hop(2000.0, 0.3, None)]
    }

    #[test]
    fn target_pps_and_packet_count() {
        let p = small_params(12.0);
        assert!((p.target_pps() - 23_437.5).abs() < 1.0);
        assert_eq!(p.num_packets(), (p.target_pps() * 3.0).round() as u64);
    }

    #[test]
    fn uncongested_mtu_flow_achieves_target() {
        let a = mean_achieved(&access_path(), &mtu_params(12.0), 0..20);
        assert!((10.5..12.2).contains(&a), "got {a}");
    }

    #[test]
    fn small_packets_fall_below_mtu_at_low_target() {
        // Fig. 7 shape: at the 12 Mbps target, 64 B < MTU.
        let small = mean_achieved(&access_path(), &small_params(12.0), 0..20);
        let big = mean_achieved(&access_path(), &mtu_params(12.0), 0..20);
        assert!(small < big - 1.0, "small {small} vs big {big}");
        assert!(small > 4.0, "small packets still move data: {small}");
    }

    #[test]
    fn reversal_at_high_target() {
        // Fig. 8 shape: at the 150 Mbps target, 64 B > MTU.
        let small = mean_achieved(&access_path(), &small_params(150.0), 0..20);
        let big = mean_achieved(&access_path(), &mtu_params(150.0), 0..20);
        assert!(small > big + 1.0, "small {small} vs big {big}");
    }

    #[test]
    fn high_target_mtu_is_congestion_collapsed() {
        let low = mean_achieved(&access_path(), &mtu_params(12.0), 0..20);
        let high = mean_achieved(&access_path(), &mtu_params(150.0), 0..20);
        assert!(
            high < low,
            "150 Mbps target must achieve less than 12 Mbps target: {high} vs {low}"
        );
    }

    #[test]
    fn sender_cap_limits_small_packet_attempt() {
        let p = small_params(150.0);
        let out = simulate_flow(&access_path(), &p, 130, 0.0, &mut rng(1));
        // 293 kpps requested, 45 kpps sent → ~23 Mbps payload attempted.
        assert!(out.attempted_mbps < 30.0, "{}", out.attempted_mbps);
        assert!(out.attempted_mbps > 15.0, "{}", out.attempted_mbps);
    }

    #[test]
    fn down_hop_kills_flow() {
        let mut hops = access_path();
        hops[1].down = true;
        let out = simulate_flow(&hops, &mtu_params(12.0), 130, 0.0, &mut rng(2));
        assert_eq!(out.achieved_mbps, 0.0);
        assert!(out.loss > 0.99);
    }

    #[test]
    fn congestion_window_covering_flow_drops_it() {
        let mut hops = access_path();
        hops[0].episodes.push((0.0, 10_000.0, 1.0));
        let out = simulate_flow(&hops, &mtu_params(12.0), 130, 0.0, &mut rng(3));
        assert_eq!(out.achieved_mbps, 0.0);
    }

    #[test]
    fn bwtest_respects_server_behavior() {
        let fwd = access_path();
        let rev = access_path();
        let mut path = CompiledPath {
            fwd,
            rev,
            server: ServerBehavior::Down,
            hop_count: 3,
            links: Vec::new(),
        };
        assert!(bwtest(
            &path,
            &mtu_params(12.0),
            &mtu_params(12.0),
            130,
            0.0,
            &mut rng(4)
        )
        .is_none());
        path.server = ServerBehavior::BadResponse;
        assert!(bwtest(
            &path,
            &mtu_params(12.0),
            &mtu_params(12.0),
            130,
            0.0,
            &mut rng(5)
        )
        .is_none());
        path.server = ServerBehavior::Up;
        let (cs, sc) = bwtest(
            &path,
            &mtu_params(12.0),
            &mtu_params(12.0),
            130,
            0.0,
            &mut rng(6),
        )
        .unwrap();
        assert!(cs.achieved_mbps > 0.0 && sc.achieved_mbps > 0.0);
    }

    #[test]
    fn asymmetric_directions_show_up_in_bwtest() {
        // Upstream 60 Mbps, downstream 200 Mbps.
        let up = vec![hop(60.0, 0.25, Some(18_000.0))];
        let down = vec![hop(200.0, 0.25, Some(25_000.0))];
        let path = CompiledPath {
            fwd: up,
            rev: down,
            server: ServerBehavior::Up,
            hop_count: 2,
            links: Vec::new(),
        };
        let mut cs_sum = 0.0;
        let mut sc_sum = 0.0;
        for s in 0..20 {
            let (cs, sc) = bwtest(
                &path,
                &mtu_params(150.0),
                &mtu_params(150.0),
                130,
                0.0,
                &mut rng(s),
            )
            .unwrap();
            cs_sum += cs.achieved_mbps;
            sc_sum += sc.achieved_mbps;
        }
        assert!(
            sc_sum > cs_sum,
            "downstream {sc_sum} must beat upstream {cs_sum}"
        );
    }

    #[test]
    fn loss_accounting_is_consistent() {
        let out = simulate_flow(&access_path(), &mtu_params(150.0), 130, 0.0, &mut rng(7));
        assert!(out.packets_received <= out.packets_sent);
        let implied = 1.0 - out.packets_received as f64 / out.packets_sent as f64;
        assert!((implied - out.loss).abs() < 0.02);
    }
}
