//! Seeded random topology generation.
//!
//! The paper's portability requirement (§4.1.3) is that the suite works
//! "on all the SCION-based networks, with minimal modifications". The
//! SCIONLab replica is one network; this module generates arbitrarily
//! many valid ones — multi-ISD graphs with core meshes, intra-ISD
//! parent DAGs, optional peering links and servers — so property tests
//! can drive the whole stack (beaconing, path server, tools, suite)
//! over networks it was never tuned for.

use crate::addr::{Asn, HostAddr, IsdAsn};
use crate::geo::GeoLocation;
use crate::topology::{AsKind, DirAttrs, LinkKind, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A [`RandomTopologyConfig`] that cannot describe a valid network.
/// Detected up front by `RandomTopologyConfig::validate`, so a bad
/// `topo generate` invocation fails with a message instead of a panic
/// (or an infinite loop) halfway through generation.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfigError {
    /// `isds` must be ≥ 1.
    NoIsds,
    /// `ases_per_isd` must satisfy `2 ≤ min ≤ max` (every ISD needs at
    /// least one core and one leaf).
    AsRange(usize, usize),
    /// `cores_per_isd` must satisfy `1 ≤ min ≤ max`.
    CoreRange(usize, usize),
    /// A probability-typed field is outside `[0, 1]` (or NaN).
    Probability(&'static str, f64),
}

impl std::fmt::Display for TopologyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyConfigError::NoIsds => write!(f, "isds must be at least 1"),
            TopologyConfigError::AsRange(lo, hi) => {
                write!(f, "ases_per_isd ({lo}, {hi}) must satisfy 2 <= min <= max")
            }
            TopologyConfigError::CoreRange(lo, hi) => {
                write!(f, "cores_per_isd ({lo}, {hi}) must satisfy 1 <= min <= max")
            }
            TopologyConfigError::Probability(field, v) => {
                write!(f, "{field} = {v} is not a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for TopologyConfigError {}

/// Shape parameters of a generated network.
#[derive(Debug, Clone)]
pub struct RandomTopologyConfig {
    /// Number of ISDs (≥ 1).
    pub isds: usize,
    /// ASes per ISD, inclusive range (min ≥ 2 so every ISD has a leaf).
    pub ases_per_isd: (usize, usize),
    /// Core ASes per ISD, inclusive range (min ≥ 1).
    pub cores_per_isd: (usize, usize),
    /// Probability of an extra (redundancy) parent link per non-core AS.
    pub extra_parent_prob: f64,
    /// Probability that a pair of non-core ASes in different ISDs gets a
    /// peering link (sampled over a bounded number of pairs).
    pub peering_prob: f64,
    /// Probability an AS hosts a measurable server.
    pub server_prob: f64,
    /// Fraction of the intra-ISD core mesh to realize. `1.0` links every
    /// core pair; lower values keep a connectivity chain and sample the
    /// remaining pairs — the knob that stops core-segment counts from
    /// growing quadratically in large ISDs.
    pub core_mesh_density: f64,
    /// Probability that a leaf picks its parent by (BRITE-style)
    /// preferential attachment — weighted by how many children each
    /// candidate already has — instead of uniformly. `0.0` reproduces
    /// the legacy uniform wiring draw-for-draw; higher values grow the
    /// hub-and-spoke degree skew of real provider hierarchies.
    pub pref_attachment: f64,
}

impl Default for RandomTopologyConfig {
    fn default() -> Self {
        RandomTopologyConfig {
            isds: 3,
            ases_per_isd: (3, 6),
            cores_per_isd: (1, 2),
            extra_parent_prob: 0.4,
            peering_prob: 0.15,
            server_prob: 0.6,
            core_mesh_density: 1.0,
            pref_attachment: 0.0,
        }
    }
}

impl RandomTopologyConfig {
    /// Check that the shape parameters describe a generatable network.
    pub(crate) fn validate(&self) -> Result<(), TopologyConfigError> {
        if self.isds < 1 {
            return Err(TopologyConfigError::NoIsds);
        }
        let (alo, ahi) = self.ases_per_isd;
        if alo < 2 || alo > ahi {
            return Err(TopologyConfigError::AsRange(alo, ahi));
        }
        let (clo, chi) = self.cores_per_isd;
        if clo < 1 || clo > chi {
            return Err(TopologyConfigError::CoreRange(clo, chi));
        }
        for (name, v) in [
            ("extra_parent_prob", self.extra_parent_prob),
            ("peering_prob", self.peering_prob),
            ("server_prob", self.server_prob),
            ("core_mesh_density", self.core_mesh_density),
            ("pref_attachment", self.pref_attachment),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(TopologyConfigError::Probability(name, v));
            }
        }
        Ok(())
    }
}

/// Generate a valid topology from a seed. The same (seed, config) pair
/// always yields the same network. The first non-core AS of ISD 1 plays
/// the "user AS" role (marked [`AsKind::User`], returned second).
pub fn random_topology(
    seed: u64,
    cfg: &RandomTopologyConfig,
) -> Result<(Topology, IsdAsn), TopologyConfigError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7090_1093);
    let mut b = TopologyBuilder::new();
    let mut cores: Vec<Vec<IsdAsn>> = Vec::new();
    let mut leaves: Vec<Vec<IsdAsn>> = Vec::new();

    let attrs = |rng: &mut StdRng| {
        DirAttrs::new(rng.gen_range(100.0..5000.0))
            .with_loss(rng.gen_range(0.0..0.005))
            .with_jitter(rng.gen_range(0.05..2.0))
            .with_background(rng.gen_range(0.0..0.6))
    };

    for isd in 0..cfg.isds {
        let isd_num = 10 + isd as u16;
        let n_ases = rng.gen_range(cfg.ases_per_isd.0..=cfg.ases_per_isd.1);
        let n_cores = rng
            .gen_range(cfg.cores_per_isd.0..=cfg.cores_per_isd.1)
            .min(n_ases - 1);
        let mut isd_cores = Vec::new();
        let mut isd_leaves = Vec::new();
        for a in 0..n_ases {
            let ia = IsdAsn::new(isd_num, Asn::from_groups(0xffaa, isd as u16, a as u16 + 1));
            let kind = if a < n_cores {
                AsKind::Core
            } else if isd == 0 && a == n_cores {
                // The designated user AS (the suite's vantage point).
                AsKind::User
            } else {
                AsKind::NonCore
            };
            let geo = GeoLocation::new(
                rng.gen_range(-60.0..70.0),
                rng.gen_range(-180.0..180.0),
                &format!("city-{isd_num}-{a}"),
                &format!("country-{}", rng.gen_range(0..8)),
            );
            b.add_as(
                ia,
                kind,
                &format!("as-{ia}"),
                &format!("op-{}", rng.gen_range(0..5)),
                geo,
            )
            .expect("unique ids by construction");
            if kind == AsKind::Core {
                isd_cores.push(ia);
            } else {
                isd_leaves.push(ia);
                if rng.gen_bool(cfg.server_prob) {
                    let host = HostAddr::new(10, isd as u8, a as u8, 1);
                    b.add_server(ia, host, &format!("server-{ia}"))
                        .expect("unique hosts by construction");
                }
            }
        }

        // Intra-ISD core mesh (when multiple cores). A chain over the
        // cores is always realized (keeping the core graph connected);
        // the remaining pairs are sampled at `core_mesh_density`. At
        // density 1.0 no sampling draw happens at all, so the default
        // config replays the legacy RNG stream exactly.
        for i in 0..isd_cores.len() {
            for j in i + 1..isd_cores.len() {
                let chain = j == i + 1;
                if !chain && cfg.core_mesh_density < 1.0 && !rng.gen_bool(cfg.core_mesh_density) {
                    continue;
                }
                b.add_link(
                    isd_cores[i],
                    isd_cores[j],
                    LinkKind::Core,
                    1472,
                    attrs(&mut rng),
                    attrs(&mut rng),
                )
                .expect("valid core link");
            }
        }
        // Parent DAG: each leaf gets a parent among cores and earlier
        // leaves (guaranteeing an upward path), plus optional extras.
        // Candidate parents carry a child count for the preferential-
        // attachment mode; index space is cores then leaves.
        let mut children = vec![0usize; isd_cores.len() + isd_leaves.len()];
        for (li, leaf) in isd_leaves.iter().enumerate() {
            // `> 0.0` short-circuits before any draw, preserving the
            // legacy stream for the default config.
            let parent = if cfg.pref_attachment > 0.0 && rng.gen_bool(cfg.pref_attachment) {
                // Preferential attachment over cores + earlier leaves,
                // weighted by (1 + children already attached).
                let n_candidates = isd_cores.len() + li;
                let total: usize = children[..n_candidates].iter().map(|c| c + 1).sum();
                let mut pick = rng.gen_range(0..total);
                let mut chosen = 0usize;
                for (ci, c) in children[..n_candidates].iter().enumerate() {
                    let w = c + 1;
                    if pick < w {
                        chosen = ci;
                        break;
                    }
                    pick -= w;
                }
                children[chosen] += 1;
                if chosen < isd_cores.len() {
                    isd_cores[chosen]
                } else {
                    isd_leaves[chosen - isd_cores.len()]
                }
            } else if li == 0 || rng.gen_bool(0.7) {
                let ci = rng.gen_range(0..isd_cores.len());
                children[ci] += 1;
                isd_cores[ci]
            } else {
                let pi = rng.gen_range(0..li);
                children[isd_cores.len() + pi] += 1;
                isd_leaves[pi]
            };
            b.add_link(
                parent,
                *leaf,
                LinkKind::Parent,
                1472,
                attrs(&mut rng),
                attrs(&mut rng),
            )
            .expect("valid parent link");
            if rng.gen_bool(cfg.extra_parent_prob) {
                let extra = isd_cores[rng.gen_range(0..isd_cores.len())];
                // A second link to the same parent is fine (parallel
                // links are allowed); a distinct parent adds diversity.
                if extra != parent {
                    b.add_link(
                        extra,
                        *leaf,
                        LinkKind::Parent,
                        1472,
                        attrs(&mut rng),
                        attrs(&mut rng),
                    )
                    .expect("valid parent link");
                }
            }
        }
        cores.push(isd_cores);
        leaves.push(isd_leaves);
    }

    // Inter-ISD core connectivity: a ring over ISDs plus random chords,
    // which keeps every ISD reachable.
    for i in 0..cfg.isds {
        let j = (i + 1) % cfg.isds;
        if i == j {
            continue;
        }
        let a = cores[i][0];
        let c = cores[j][0];
        b.add_link(a, c, LinkKind::Core, 1460, attrs(&mut rng), attrs(&mut rng))
            .expect("valid inter-ISD core link");
    }
    for _ in 0..cfg.isds {
        let i = rng.gen_range(0..cfg.isds);
        let j = rng.gen_range(0..cfg.isds);
        if i == j {
            continue;
        }
        let a = cores[i][rng.gen_range(0..cores[i].len())];
        let c = cores[j][rng.gen_range(0..cores[j].len())];
        if a != c {
            // Duplicate core links are allowed (parallel links).
            b.add_link(a, c, LinkKind::Core, 1460, attrs(&mut rng), attrs(&mut rng))
                .expect("valid chord");
        }
    }

    // Sparse peering between non-core ASes of different ISDs.
    for i in 0..cfg.isds {
        for j in i + 1..cfg.isds {
            if leaves[i].is_empty() || leaves[j].is_empty() {
                continue;
            }
            if rng.gen_bool(cfg.peering_prob) {
                let x = leaves[i][rng.gen_range(0..leaves[i].len())];
                let y = leaves[j][rng.gen_range(0..leaves[j].len())];
                b.add_link(
                    x,
                    y,
                    LinkKind::Peering,
                    1472,
                    attrs(&mut rng),
                    attrs(&mut rng),
                )
                .expect("valid peering link");
            }
        }
    }

    let user = leaves[0].first().copied().unwrap_or(cores[0][0]);
    let topo = b.build().expect("generator only produces valid topologies");
    Ok((topo, user))
}

/// Sample `n` measurement flows `(src, dst)` from a gravity model: the
/// probability of a flow is proportional to the product of the endpoint
/// "masses" (1 + AS degree, doubled for server hosts) divided by the
/// squared geographic distance — nearby, well-connected ASes exchange
/// the most traffic, the classic gravity assumption traffic-matrix
/// synthesis rests on. Deterministic in `(topology, seed)`.
pub fn gravity_flows(topo: &Topology, seed: u64, n: usize) -> Vec<(IsdAsn, IsdAsn)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6176);
    let nodes: Vec<_> = topo.ases().collect();
    if nodes.len() < 2 || n == 0 {
        return Vec::new();
    }
    let mass: Vec<f64> = nodes
        .iter()
        .map(|(idx, node)| {
            let degree = topo.links_of(*idx).count() as f64;
            let server_boost = if node.servers.is_empty() { 1.0 } else { 2.0 };
            (1.0 + degree) * server_boost
        })
        .collect();

    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Source by mass alone, destination by mass over distance².
        let src_i = weighted_pick(&mut rng, &mass);
        let src_loc = &nodes[src_i].1.location;
        let weights: Vec<f64> = nodes
            .iter()
            .enumerate()
            .map(|(j, (_, node))| {
                if j == src_i {
                    return 0.0;
                }
                // 100 km floor keeps co-located pairs finite-weighted.
                let d = src_loc.distance_km(&node.location).max(100.0);
                mass[j] / (d * d)
            })
            .collect();
        let dst_i = weighted_pick(&mut rng, &weights);
        out.push((nodes[src_i].1.ia, nodes[dst_i].1.ia));
    }
    out
}

/// Index into `weights` sampled proportionally to each (non-negative)
/// weight. Falls back to index 0 if all weights are zero.
fn weighted_pick(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut r = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{run_beaconing, BeaconConfig, KeyProvider};

    #[test]
    fn generator_is_deterministic() {
        let cfg = RandomTopologyConfig::default();
        let (a, ua) = random_topology(7, &cfg).unwrap();
        let (b, ub) = random_topology(7, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(ua, ub);
        let (c, _) = random_topology(8, &cfg).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_configs_fail_fast_with_typed_errors() {
        let base = RandomTopologyConfig::default();
        let cases = [
            (
                RandomTopologyConfig {
                    isds: 0,
                    ..base.clone()
                },
                TopologyConfigError::NoIsds,
            ),
            (
                RandomTopologyConfig {
                    ases_per_isd: (1, 4),
                    ..base.clone()
                },
                TopologyConfigError::AsRange(1, 4),
            ),
            (
                RandomTopologyConfig {
                    ases_per_isd: (5, 3),
                    ..base.clone()
                },
                TopologyConfigError::AsRange(5, 3),
            ),
            (
                RandomTopologyConfig {
                    cores_per_isd: (0, 2),
                    ..base.clone()
                },
                TopologyConfigError::CoreRange(0, 2),
            ),
            (
                RandomTopologyConfig {
                    peering_prob: 1.5,
                    ..base.clone()
                },
                TopologyConfigError::Probability("peering_prob", 1.5),
            ),
            (
                RandomTopologyConfig {
                    core_mesh_density: -0.1,
                    ..base.clone()
                },
                TopologyConfigError::Probability("core_mesh_density", -0.1),
            ),
            (
                RandomTopologyConfig {
                    pref_attachment: f64::NAN,
                    ..base.clone()
                },
                TopologyConfigError::Probability("pref_attachment", f64::NAN),
            ),
        ];
        for (cfg, want) in cases {
            let got = random_topology(1, &cfg).unwrap_err();
            // NaN != NaN, so compare the rendered error for that case.
            assert_eq!(got.to_string(), want.to_string(), "{cfg:?}");
        }
        assert!(base.validate().is_ok());
    }

    #[test]
    fn default_brite_knobs_reproduce_legacy_stream() {
        // Explicitly-defaulted new knobs must not consume RNG draws:
        // the generated network is byte-identical to the default's.
        let legacy = random_topology(11, &RandomTopologyConfig::default()).unwrap();
        let explicit = random_topology(
            11,
            &RandomTopologyConfig {
                core_mesh_density: 1.0,
                pref_attachment: 0.0,
                ..RandomTopologyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(legacy, explicit);
    }

    #[test]
    fn user_as_is_marked() {
        let (topo, user) = random_topology(5, &RandomTopologyConfig::default()).unwrap();
        let idx = topo.index_of(user).unwrap();
        assert_eq!(topo.node(idx).kind, AsKind::User);
        assert_eq!(
            topo.ases().filter(|(_, n)| n.kind == AsKind::User).count(),
            1,
            "exactly one designated user AS"
        );
    }

    #[test]
    fn sparse_core_mesh_and_pref_attachment_stay_valid() {
        let cfg = RandomTopologyConfig {
            isds: 4,
            ases_per_isd: (8, 12),
            cores_per_isd: (3, 4),
            core_mesh_density: 0.3,
            pref_attachment: 0.8,
            ..RandomTopologyConfig::default()
        };
        for seed in 0..10 {
            let (topo, user) = random_topology(seed, &cfg).unwrap();
            let keys = KeyProvider::new(seed);
            let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
            for (_, node) in topo.ases() {
                if node.kind.is_core() {
                    continue;
                }
                assert!(
                    store.down.contains_key(&node.ia),
                    "seed {seed}: no down segment for {}",
                    node.ia
                );
            }
            assert!(topo.index_of(user).is_some());
        }
    }

    #[test]
    fn pref_attachment_skews_parent_degree() {
        // With strong preferential attachment the maximum parent degree
        // exceeds the uniform baseline on a like-for-like topology.
        let shape = RandomTopologyConfig {
            isds: 1,
            ases_per_isd: (60, 60),
            cores_per_isd: (1, 1),
            extra_parent_prob: 0.0,
            ..RandomTopologyConfig::default()
        };
        let max_children = |cfg: &RandomTopologyConfig| -> usize {
            let mut acc = 0;
            for seed in 0..8 {
                let (topo, _) = random_topology(seed, cfg).unwrap();
                let max = topo
                    .ases()
                    .filter(|(_, n)| !n.kind.is_core())
                    .map(|(i, _)| {
                        topo.links_of(i)
                            .filter(|(_, l)| l.kind == LinkKind::Parent && l.a == i)
                            .count()
                    })
                    .max()
                    .unwrap_or(0);
                acc += max;
            }
            acc
        };
        let uniform = max_children(&shape);
        let skewed = max_children(&RandomTopologyConfig {
            pref_attachment: 1.0,
            ..shape
        });
        assert!(
            skewed > uniform,
            "preferential attachment should concentrate children: {skewed} <= {uniform}"
        );
    }

    #[test]
    fn gravity_flows_are_deterministic_and_mass_weighted() {
        let (topo, _) = random_topology(3, &RandomTopologyConfig::default()).unwrap();
        let a = gravity_flows(&topo, 9, 200);
        let b = gravity_flows(&topo, 9, 200);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for (s, d) in &a {
            assert_ne!(s, d, "gravity flows never self-loop");
            assert!(topo.index_of(*s).is_some() && topo.index_of(*d).is_some());
        }
        // A different seed draws a different matrix.
        assert_ne!(a, gravity_flows(&topo, 10, 200));
    }

    #[test]
    fn every_seed_yields_a_valid_connected_control_plane() {
        let cfg = RandomTopologyConfig::default();
        for seed in 0..30 {
            let (topo, user) = random_topology(seed, &cfg).unwrap();
            assert!(topo.num_ases() >= 2 * cfg.isds);
            // Beaconing reaches every non-core AS of every ISD.
            let keys = KeyProvider::new(seed);
            let store = run_beaconing(&topo, &keys, &BeaconConfig::default());
            for (_, node) in topo.ases() {
                if node.kind.is_core() {
                    continue;
                }
                assert!(
                    store.down.contains_key(&node.ia),
                    "seed {seed}: no down segment for {}",
                    node.ia
                );
            }
            assert!(topo.index_of(user).is_some());
        }
    }

    #[test]
    fn respects_shape_parameters() {
        let cfg = RandomTopologyConfig {
            isds: 5,
            ases_per_isd: (4, 4),
            cores_per_isd: (2, 2),
            ..RandomTopologyConfig::default()
        };
        let (topo, _) = random_topology(3, &cfg).unwrap();
        assert_eq!(topo.num_ases(), 20);
        assert_eq!(topo.isds().len(), 5);
        for isd in topo.isds() {
            assert_eq!(topo.cores_of_isd(isd).len(), 2, "isd {isd}");
        }
    }
}
