//! Microbenchmarks of control-plane scale: the BRITE-style generator,
//! capped beaconing, and the first lazy ranked query at 35 (SCIONLab),
//! 100, 500 and 1000 ASes. The per-pair beacon cap is what keeps the
//! larger sizes tractable — the 35-AS row runs exhaustive, matching the
//! replica's converged control plane.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scion_sim::beacon::BeaconConfig;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::random::{gravity_flows, random_topology, RandomTopologyConfig};
use scion_sim::topology::scionlab::{scionlab_topology, AWS_IRELAND, MY_AS};
use upin_bench::cross_isd_endpoints;

fn sized_config(ases: usize) -> RandomTopologyConfig {
    let isds = 5;
    let per = ases / isds;
    RandomTopologyConfig {
        isds,
        ases_per_isd: (per.saturating_sub(per / 10).max(2), per + per / 10),
        cores_per_isd: (2, 3),
        core_mesh_density: 0.5,
        pref_attachment: 0.6,
        ..RandomTopologyConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_topology");
    g.sample_size(10);

    // Baseline: the 35-AS SCIONLab replica, exhaustive beaconing.
    g.bench_function("bringup/scionlab_35", |b| {
        b.iter(|| {
            let net = ScionNetwork::new(scionlab_topology(), 42);
            black_box(net.paths(MY_AS, black_box(AWS_IRELAND), 40))
        })
    });

    let cap = BeaconConfig {
        beacons_per_pair: 8,
        ..BeaconConfig::default()
    };
    for ases in [100usize, 500, 1000] {
        let (topo, _) = random_topology(3, &sized_config(ases)).expect("valid config");
        let (user, far) = cross_isd_endpoints(&topo);

        g.bench_function(format!("generate/{ases}"), |b| {
            b.iter(|| black_box(random_topology(3, &sized_config(ases)).unwrap()))
        });
        g.bench_function(format!("bringup_capped8/{ases}"), |b| {
            b.iter(|| {
                let net = ScionNetwork::with_beacon_config(topo.clone(), 42, &cap);
                black_box(net.paths(user, black_box(far), 40))
            })
        });
        g.bench_function(format!("gravity_1000_flows/{ases}"), |b| {
            b.iter(|| black_box(gravity_flows(&topo, 42, 1000)))
        });
    }

    // The lazy prefix at work: asking for the top 5 paths on a warm
    // 1000-AS network must not force the full combination.
    let (topo, _) = random_topology(3, &sized_config(1000)).expect("valid config");
    let (user, far) = cross_isd_endpoints(&topo);
    let net = ScionNetwork::with_beacon_config(topo, 42, &cap);
    net.paths(user, far, 5);
    g.bench_function("paths_top5_warm_1000", |b| {
        b.iter(|| black_box(net.paths(user, black_box(far), 5)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
