//! Chaos invariants, property-tested end to end: randomly generated
//! fault schedules must never panic the stack, a failover session with
//! a live alternative must migrate within the switch SLA, and the
//! parallel campaign runner must be byte-identical to the sequential
//! one under the same seed.

use proptest::prelude::*;
use upin::scion_sim::chaos::{AsOutage, ChaosSchedule, CongestionWave, Dwell, LinkFlap};
use upin::scion_sim::net::ScionNetwork;
use upin::scion_sim::topology::scionlab::{paper_destinations, ETHZ_AP, ETHZ_CORE};
use upin::upin_core::failover::{run_chaos_campaign, FailoverConfig};

/// An arbitrary—but valid—schedule over the scionlab topology: up to
/// two link flaps, one AS outage and one congestion wave, with all
/// timings drawn freely.
fn schedule_strategy() -> impl Strategy<Value = ChaosSchedule> {
    (
        0u64..1000,
        proptest::collection::vec(
            (
                0usize..8,
                1_000f64..30_000.0,
                500f64..15_000.0,
                1_000f64..20_000.0,
            ),
            0..=2,
        ),
        proptest::option::of((0usize..8, 1_000f64..30_000.0, 2_000f64..15_000.0)),
        proptest::option::of((1_000f64..30_000.0, 2_000f64..15_000.0, 0.1f64..0.9)),
    )
        .prop_map(|(seed, flaps, outage, wave)| {
            let net = ScionNetwork::scionlab(1);
            let topo = net.topology();
            let nodes: Vec<_> = topo.ases().map(|(_, n)| n.ia).collect();
            let links: Vec<_> = topo
                .links()
                .map(|(_, l)| (nodes[l.a.0 as usize], nodes[l.b.0 as usize]))
                .collect();
            let mut s = ChaosSchedule::new(seed, 45_000.0);
            for (li, first_down_ms, down, up) in flaps {
                let (a, b) = links[li % links.len()];
                s.flaps.push(LinkFlap {
                    a,
                    b,
                    first_down_ms,
                    down: Dwell::fixed(down),
                    up: Dwell::fixed(up),
                });
            }
            if let Some((ni, start_ms, duration_ms)) = outage {
                s.outages.push(AsOutage {
                    node: nodes[ni % nodes.len()],
                    start_ms,
                    duration_ms,
                });
            }
            if let Some((first_ms, active, severity)) = wave {
                s.waves.push(CongestionWave {
                    node: ETHZ_AP,
                    severity,
                    first_ms,
                    active: Dwell::fixed(active),
                    idle: Dwell::fixed(60_000.0),
                });
            }
            s
        })
}

/// The checked-in example schedule stays parseable and pinned to the
/// codec: re-serializing it must reproduce the file byte for byte.
#[test]
fn checked_in_example_schedule_round_trips() {
    let text = include_str!("../examples/chaos_flaps.json");
    let s = ChaosSchedule::from_json_str(text).expect("examples/chaos_flaps.json parses");
    assert_eq!(format!("{}\n", s.to_json_string()), text);
    assert_eq!(s.flaps.len() + s.outages.len() + s.waves.len(), 3);
    assert_eq!(s.flaky_servers.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No schedule — whatever it breaks, for however long — may panic
    /// the campaign or produce an inconsistent report.
    #[test]
    fn random_schedules_never_panic(schedule in schedule_strategy(), net_seed in 0u64..100) {
        let net = ScionNetwork::scionlab(net_seed);
        let cfg = FailoverConfig {
            ticks: 10,
            probes: 2,
            max_paths: 6,
            ..FailoverConfig::default()
        };
        let dests: Vec<(u32, _)> = paper_destinations()
            .into_iter()
            .take(2)
            .enumerate()
            .map(|(i, a)| (i as u32 + 1, a))
            .collect();
        let report = run_chaos_campaign(&net, &schedule, &dests, &cfg, None).unwrap();
        prop_assert_eq!(report.dests.len(), dests.len());
        for d in &report.dests {
            prop_assert_eq!(d.ticks, cfg.ticks);
            prop_assert!(d.ok_ticks + d.degraded_ticks <= d.ticks, "{d:?}");
            prop_assert!(d.availability() >= 0.0 && d.availability() <= 1.0);
            prop_assert!(d.sla_violations <= d.switch_ms.len(), "{d:?}");
            for &ms in &d.switch_ms {
                prop_assert!(ms.is_finite() && ms >= 0.0);
            }
        }
        // The report's JSON codec round-trips whatever came out.
        let json = report.to_json_string();
        let back = upin::upin_core::ChaosReport::from_json_str(&json).unwrap();
        prop_assert_eq!(back.to_json_string(), json);
    }

    /// With the ETHZ core flapping, the Swisscom alternatives stay
    /// live, so every forced migration must land within the SLA.
    #[test]
    fn live_alternative_means_switch_within_sla(
        first_down_ms in 2_000f64..12_000.0,
        down in 4_000f64..12_000.0,
        seed in 0u64..200,
    ) {
        let net = ScionNetwork::scionlab(seed);
        let mut schedule = ChaosSchedule::new(seed.wrapping_add(1), 60_000.0);
        schedule.flaps.push(LinkFlap {
            a: ETHZ_CORE,
            b: ETHZ_AP,
            first_down_ms,
            down: Dwell::fixed(down),
            up: Dwell::fixed(600_000.0),
        });
        let cfg = FailoverConfig {
            ticks: 20,
            probes: 2,
            max_paths: 6,
            ..FailoverConfig::default()
        };
        let dests = [(1u32, paper_destinations()[1])];
        let report = run_chaos_campaign(&net, &schedule, &dests, &cfg, None).unwrap();
        let d = &report.dests[0];
        prop_assert_eq!(d.sla_violations, 0, "{d:?}");
        for &ms in &d.switch_ms {
            prop_assert!(ms <= cfg.sla_ms, "switch took {ms} ms against SLA {} ms", cfg.sla_ms);
        }
        prop_assert_eq!(d.degraded_ticks, 0, "an alternative was always live: {d:?}");
    }

    /// `--parallel` is an executor choice, not a semantics choice: the
    /// same seed must yield byte-identical report JSON at any worker
    /// count, and identical to the sequential run.
    #[test]
    fn parallel_campaign_is_byte_identical(schedule in schedule_strategy(), net_seed in 0u64..100) {
        let cfg = FailoverConfig {
            ticks: 8,
            probes: 2,
            max_paths: 6,
            ..FailoverConfig::default()
        };
        let dests: Vec<(u32, _)> = paper_destinations()
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u32 + 1, a))
            .collect();
        let run = |workers: usize| {
            let net = ScionNetwork::scionlab(net_seed);
            let cfg = FailoverConfig {
                workers,
                ..cfg.clone()
            };
            run_chaos_campaign(&net, &schedule, &dests, &cfg, None)
                .unwrap()
                .to_json_string()
        };
        let sequential = run(1);
        for workers in [2, 5] {
            prop_assert_eq!(&run(workers), &sequential, "workers {}", workers);
        }
    }
}
