//! Property-based tests of the simulator: addressing codecs, the probe
//! simulation against a reference event queue, MAC chaining,
//! path-server output invariants and flow conservation laws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scion_sim::addr::{Asn, HostAddr, IfaceId, IsdAsn, ScionAddr};
use scion_sim::crypto::{keyed_mac, SymmetricKey};
use scion_sim::dataplane::flows::{simulate_flow, FlowParams, SENDER_PPS_CAP};
use scion_sim::dataplane::scmp::{self, ProbeOptions, ProbeOutcome};
use scion_sim::dataplane::{sample_util, CompiledPath, WireHop};
use scion_sim::des::SimTime;
use scion_sim::fault::ServerBehavior;
use scion_sim::net::ScionNetwork;
use scion_sim::path::{PathHop, ScionPath};
use scion_sim::pathserver::validate_structure;
use scion_sim::segments::{Segment, SegmentKind};
use scion_sim::topology::scionlab::MY_AS;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn arb_isd_asn() -> impl Strategy<Value = IsdAsn> {
    (1u16..100, 0u64..(1u64 << 48)).prop_map(|(isd, asn)| IsdAsn::new(isd, Asn(asn)))
}

/// How `IsdAsn`, `PathHop` and `ScionPath` spelled themselves when
/// each `Display` was a nested `write!` over its fields' `Display`s —
/// kept as the reference for the buffer-rendered impls that replaced
/// them.
mod nested_write {
    use super::*;
    use std::fmt::Write;

    pub fn isd_asn(ia: IsdAsn) -> String {
        let (a, b, c) = ia.asn.groups();
        format!("{}-{a:x}:{b:x}:{c:x}", ia.isd.0)
    }

    pub fn hop(h: &PathHop) -> String {
        format!("{}#{},{}", isd_asn(h.ia), h.ingress.0, h.egress.0)
    }

    pub fn sequence(p: &ScionPath) -> String {
        p.hops.iter().map(hop).collect::<Vec<_>>().join(" ")
    }

    pub fn path(p: &ScionPath) -> String {
        let mut s = String::new();
        for (i, h) in p.hops.iter().enumerate() {
            let (ia, ingress, egress) = (isd_asn(h.ia), h.ingress.0, h.egress.0);
            if i == 0 {
                write!(s, "{ia} {egress}").unwrap();
            } else if i == p.hops.len() - 1 {
                write!(s, ">{ingress} {ia}").unwrap();
            } else {
                write!(s, ">{ingress} {ia} {egress}").unwrap();
            }
        }
        s
    }
}

proptest! {
    /// Full field ranges, and paths several times longer than the
    /// buffer one `Display` call renders into.
    #[test]
    fn display_spells_what_the_nested_writes_spelled(
        hops in prop::collection::vec(
            (any::<u16>(), 0u64..(1u64 << 48), any::<u16>(), any::<u16>()),
            1..=64,
        ),
    ) {
        let path = ScionPath {
            hops: hops
                .into_iter()
                .map(|(isd, asn, i, e)| PathHop::new(IsdAsn::new(isd, Asn(asn)), IfaceId(i), IfaceId(e)))
                .collect(),
            mtu: 0,
            expected_latency_ms: 0.0,
            status: scion_sim::path::PathStatus::Unknown,
            macs: vec![],
        };
        for h in &path.hops {
            prop_assert_eq!(h.ia.to_string(), nested_write::isd_asn(h.ia));
            prop_assert_eq!(h.ia.isd.to_string(), h.ia.isd.0.to_string());
            prop_assert_eq!(h.ia.asn.to_string(), &nested_write::isd_asn(h.ia)[h.ia.isd.to_string().len() + 1..]);
            prop_assert_eq!(h.egress.to_string(), h.egress.0.to_string());
            prop_assert_eq!(h.to_string(), nested_write::hop(h));
        }
        prop_assert_eq!(path.to_string(), nested_write::path(&path));
        prop_assert_eq!(path.sequence(), nested_write::sequence(&path));
        // Padding flags were never honoured (each level re-formatted
        // with a fresh spec) and still are not.
        prop_assert_eq!(format!("{:>40}|{:<9}", path.hops[0], path.hops[0].ia.isd), format!("{}|{}", path.hops[0], path.hops[0].ia.isd));
    }

    #[test]
    fn isd_asn_roundtrip(ia in arb_isd_asn()) {
        let s = ia.to_string();
        prop_assert_eq!(s.parse::<IsdAsn>().unwrap(), ia);
    }

    #[test]
    fn scion_addr_roundtrip(ia in arb_isd_asn(), a: u8, b: u8, c: u8, d: u8) {
        let addr = ScionAddr::new(ia, HostAddr::new(a, b, c, d));
        prop_assert_eq!(addr.to_string().parse::<ScionAddr>().unwrap(), addr);
    }

    #[test]
    fn hop_predicate_roundtrip(ia in arb_isd_asn(), ig in 0u16..100, eg in 0u16..100) {
        let hop = PathHop::new(ia, IfaceId(ig), IfaceId(eg));
        prop_assert_eq!(hop.to_string().parse::<PathHop>().unwrap(), hop);
    }

    #[test]
    fn sequence_roundtrip(hops in prop::collection::vec((arb_isd_asn(), 0u16..50, 0u16..50), 1..8)) {
        let path = ScionPath {
            hops: hops.into_iter().map(|(ia, i, e)| PathHop::new(ia, IfaceId(i), IfaceId(e))).collect(),
            mtu: 0,
            expected_latency_ms: 0.0,
            status: scion_sim::path::PathStatus::Unknown,
            macs: vec![],
        };
        let parsed = ScionPath::from_sequence(&path.sequence()).unwrap();
        prop_assert!(parsed.same_route(&path));
    }

    #[test]
    fn mac_chain_verifies_and_detects_single_bit_flip(
        master in any::<u64>(),
        info in any::<u64>(),
        chain in prop::collection::vec((arb_isd_asn(), 1u16..40, 1u16..40), 2..6),
        flip_at in any::<prop::sample::Index>(),
    ) {
        let key = |ia: IsdAsn| SymmetricKey::derive(master, ia);
        let (first, rest) = chain.split_first().unwrap();
        let mut seg = Segment::originate(SegmentKind::Down, info, first.0, &key(first.0));
        let mut last = first.0;
        for (ia, out_if, in_if) in rest {
            if *ia == last || seg.hops.iter().any(|h| h.ia == *ia) {
                continue; // keep the chain loop-free
            }
            seg = seg.extend(IfaceId(*out_if), &key(last), *ia, IfaceId(*in_if), &key(*ia));
            last = *ia;
        }
        prop_assert!(seg.verify(key));
        if seg.len() > 1 {
            let idx = flip_at.index(seg.len());
            let mut hops = seg.hops.to_vec();
            hops[idx].mac = scion_sim::crypto::MacTag(hops[idx].mac.0 ^ 1);
            prop_assert!(!seg.with_hops(hops).verify(key));
        }
    }

    #[test]
    fn keyed_mac_distinct_inputs_rarely_collide(a in prop::collection::vec(any::<u8>(), 0..64),
                                                b in prop::collection::vec(any::<u8>(), 0..64)) {
        let k = SymmetricKey::derive(9, IsdAsn::new(1, Asn(1)));
        if a != b {
            // 48-bit tags: collisions are possible but must not happen
            // on the deterministic proptest corpus.
            prop_assert_ne!(keyed_mac(&k, &a), keyed_mac(&k, &b));
        }
    }

    #[test]
    fn flow_conservation(capacity in 5.0..500.0f64,
                         bg in 0.0..0.9f64,
                         size in 64u32..1400,
                         target in 1.0..200.0f64,
                         seed in any::<u64>()) {
        let hop = WireHop {
            prop_ms: 10.0,
            capacity_mbps: capacity,
            background_util: bg,
            jitter_ms: 0.1,
            base_loss: 0.001,
            pps_cap: Some(20_000.0),
            episodes: vec![],
            down: false,
            mtu: 1472,
        };
        let params = FlowParams { duration_s: 3.0, packet_bytes: size, target_mbps: target };
        let out = simulate_flow(&[hop], &params, 130, 0.0, &mut StdRng::seed_from_u64(seed));
        prop_assert!(out.achieved_mbps >= 0.0);
        prop_assert!(out.achieved_mbps <= out.attempted_mbps * 1.001,
                     "achieved {} > attempted {}", out.achieved_mbps, out.attempted_mbps);
        // Sender never exceeds its pacing (3% jitter margin) nor its pps cap.
        let cap_mbps = SENDER_PPS_CAP * (size as f64) * 8.0 / 1e6;
        prop_assert!(out.attempted_mbps <= (target * 1.04).min(cap_mbps * 1.04));
        prop_assert!((0.0..=1.0).contains(&out.loss));
        prop_assert!(out.packets_received <= out.packets_sent);
    }
}

/// The probe simulation as a plain event queue, the way the retired
/// `des::Engine` ran it: every launch is scheduled up front in index
/// order, every arrival schedules the packet's next one, and events pop
/// in `(fire time, scheduling sequence)` order.
fn reference_probes(
    fwd: &[WireHop],
    rev: &[WireHop],
    server: ServerBehavior,
    opts: &ProbeOptions,
    start_ms: f64,
    rng: &mut StdRng,
) -> ProbeOutcome {
    use rand::Rng;
    let sent_ms = |i: usize| start_ms + i as f64 * opts.interval_ms;
    // (at, seq, probe, next hop, on the way back)
    let mut queue = BinaryHeap::new();
    let mut seq = 0u64;
    for i in 0..opts.count as usize {
        queue.push(Reverse((SimTime::from_ms(sent_ms(i)), seq, i, 0, false)));
        seq += 1;
    }
    let mut done = vec![None; opts.count as usize];
    while let Some(Reverse((now, _, probe, next, back))) = queue.pop() {
        let hops = if back { rev } else { fwd };
        let (delay_ms, next, back) = if let Some(hop) = hops.get(next) {
            if rng.gen::<f64>() < hop.loss_at(now.as_ms()) {
                continue;
            }
            let util = sample_util(hop.background_util, rng);
            let queue_ms = hop.serialization_ms(hop.mtu) * (util / (1.0 - util)).min(50.0);
            let jitter = (rng.gen::<f64>() * 2.0 - 1.0) * hop.jitter_ms;
            let wire_ms = hop.prop_ms + hop.serialization_ms(opts.payload_bytes + 48);
            ((wire_ms + queue_ms + jitter).max(0.01), next + 1, back)
        } else if back {
            done[probe] = Some(now.as_ms());
            continue;
        } else {
            match server {
                ServerBehavior::Down => continue,
                ServerBehavior::Flaky(p) if rng.gen::<f64>() < p => continue,
                _ => {}
            }
            (0.05 + rng.gen::<f64>() * 0.1, 0, true)
        };
        queue.push(Reverse((
            now.plus_ns((delay_ms * 1e6) as u64),
            seq,
            probe,
            next,
            back,
        )));
        seq += 1;
    }
    let rtts_ms = (0..done.len())
        .map(|i| {
            done[i]
                .map(|t| t - sent_ms(i))
                .filter(|rtt| *rtt <= opts.timeout_ms)
        })
        .collect();
    ProbeOutcome {
        sent: opts.count,
        rtts_ms,
    }
}

fn arb_wire_hop() -> impl Strategy<Value = WireHop> {
    (
        (0.01..120.0f64, 1.0..1000.0f64, 0.0..0.95f64, 0.0..3.0f64),
        prop_oneof![Just(0.0), 0.0..0.2f64],
        0u8..40,
        prop::collection::vec((0.0..4000.0f64, 0.0..3000.0f64, 0.0..1.0f64), 0..3),
    )
        .prop_map(
            |((prop_ms, capacity_mbps, background_util, jitter_ms), base_loss, down, windows)| {
                WireHop {
                    prop_ms,
                    capacity_mbps,
                    background_util,
                    jitter_ms,
                    base_loss,
                    pps_cap: None,
                    episodes: windows
                        .into_iter()
                        .map(|(s, len, sev)| (s, s + len, sev))
                        .collect(),
                    down: down == 0,
                    mtu: 1472,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `scmp::ping` and every `scmp::probe_prefix` cut agree with the
    /// reference event queue on the outcome *and* leave the generator
    /// in the same state — same events, same order, same draws.
    #[test]
    fn probe_trains_match_the_reference_event_queue(
        hops in (1usize..=12).prop_flat_map(|n| {
            (prop::collection::vec(arb_wire_hop(), n), prop::collection::vec(arb_wire_hop(), n))
        }),
        server in prop_oneof![
            Just(ServerBehavior::Up),
            Just(ServerBehavior::Down),
            Just(ServerBehavior::BadResponse),
            (0.0..1.0f64).prop_map(ServerBehavior::Flaky),
        ],
        // Zero, below any RTT, the paper's, above any RTT, backwards.
        interval_ms in prop_oneof![Just(0.0), 0.001..2.0f64, Just(100.0), 2000.0..5000.0f64, Just(-40.0)],
        shape in (0u32..=64, prop::sample::select(vec![30.0, 1000.0, 1e12]), 0.0..5000.0f64),
        seed: u64,
    ) {
        let (fwd, rev) = hops;
        let (count, timeout_ms, start_ms) = shape;
        let opts = ProbeOptions { count, interval_ms, payload_bytes: 8, timeout_ms };
        let path = CompiledPath { hop_count: fwd.len() + 1, fwd, rev, server, links: Vec::new() };
        let check = |got: &dyn Fn(&mut StdRng) -> ProbeOutcome, fwd: &[WireHop], rev: &[WireHop], server| {
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let want = reference_probes(fwd, rev, server, &opts, start_ms, &mut theirs);
            prop_assert_eq!(got(&mut ours), want);
            prop_assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
        };
        check(&|rng| scmp::ping(&path, &opts, start_ms, rng), &path.fwd, &path.rev, server);
        for upto in 0..=path.fwd.len() {
            check(
                &|rng| scmp::probe_prefix(&path, upto, &opts, start_ms, rng),
                &path.fwd[..upto],
                &path.rev[path.rev.len() - upto..],
                ServerBehavior::Up,
            );
        }
    }
}

fn arb_pattern() -> impl Strategy<Value = scion_sim::policy::HopPattern> {
    use scion_sim::policy::HopPattern;
    (0u16..4, 0u64..6).prop_map(|(isd, asn)| HopPattern {
        isd: (isd != 0).then_some(isd),
        asn: (asn != 0).then_some(Asn(asn)),
    })
}

fn arb_acl() -> impl Strategy<Value = scion_sim::policy::Acl> {
    use scion_sim::policy::{Acl, AclRule, Action};
    prop::collection::vec((any::<bool>(), arb_pattern()), 1..6).prop_map(|rules| Acl {
        rules: rules
            .into_iter()
            .map(|(allow, pattern)| AclRule {
                action: if allow { Action::Allow } else { Action::Deny },
                pattern,
            })
            .collect(),
    })
}

proptest! {
    /// ACL display/parse round-trips.
    #[test]
    fn acl_roundtrip(acl in arb_acl()) {
        let text = acl.to_string();
        let back: scion_sim::policy::Acl = text.parse().unwrap();
        prop_assert_eq!(acl, back);
    }

    /// `decide` implements first-match semantics (checked against a
    /// naive reference), and `filter` is an order-preserving subset.
    #[test]
    fn acl_first_match_semantics(
        acl in arb_acl(),
        hops in prop::collection::vec((1u16..4, 1u64..6), 1..6),
    ) {
        use scion_sim::policy::Action;
        let path = ScionPath {
            hops: hops
                .iter()
                .map(|(isd, asn)| PathHop::new(IsdAsn::new(*isd, Asn(*asn)), IfaceId(1), IfaceId(2)))
                .collect(),
            mtu: 0,
            expected_latency_ms: 0.0,
            status: scion_sim::path::PathStatus::Unknown,
            macs: vec![],
        };
        // Naive reference.
        let mut expect = Action::Deny;
        'rules: for rule in &acl.rules {
            for h in &path.hops {
                if rule.pattern.matches(h.ia) {
                    expect = rule.action;
                    break 'rules;
                }
            }
        }
        prop_assert_eq!(acl.decide(&path), expect);

        let input = vec![path.clone(), path.clone()];
        let kept = acl.filter(input);
        match expect {
            Action::Allow => prop_assert_eq!(kept.len(), 2),
            Action::Deny => prop_assert!(kept.is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every path the path server hands out, for any seed and any
    /// destination, is loop-free, valley-free, adjacency-consistent and
    /// MAC-valid — the core control-plane invariant.
    #[test]
    fn pathserver_output_always_validates(seed in 0u64..1000, dest_pick in any::<prop::sample::Index>()) {
        let net = ScionNetwork::scionlab(seed);
        let servers = net.topology().all_servers();
        let dst = servers[dest_pick.index(servers.len())];
        let paths = net.paths(MY_AS, dst.ia, 40);
        prop_assert!(!paths.is_empty(), "every server is reachable");
        for p in &paths {
            prop_assert!(!p.has_loop());
            prop_assert!(validate_structure(net.topology(), p).is_ok());
            prop_assert!(net.path_server().validate(net.topology(), p).is_ok());
            prop_assert_eq!(p.src(), Some(MY_AS));
            prop_assert_eq!(p.dst(), Some(dst.ia));
            prop_assert!(p.mtu >= 1400);
            prop_assert!(p.expected_latency_ms > 0.0);
        }
        // Ranking: hop counts never decrease.
        for w in paths.windows(2) {
            prop_assert!(w[0].hop_count() <= w[1].hop_count());
        }
    }
}
