//! # scion-sim — a deterministic SCION network simulator
//!
//! This crate is the substrate for reproducing *"Evaluation of SCION for
//! User-driven Path Control: a Usability Study"* (Battipaglia et al.,
//! SC-W 2023) without access to the SCIONLab testbed. It provides:
//!
//! * **Addressing** ([`addr`]): ISD/ASN/ISD-AS/host formats with exact
//!   SCIONLab textual round-tripping (`16-ffaa:0:1002,[172.31.43.7]`).
//! * **Topology** ([`topology`]): validated AS graphs with per-direction
//!   link attributes, plus the calibrated 35-AS SCIONLab instance
//!   ([`topology::scionlab`]).
//! * **Control plane** ([`beacon`], [`segments`], [`pathserver`]):
//!   PCB propagation with chained hop-field MACs, segment registration
//!   and up×core×down path combination — the machinery behind
//!   `scion showpaths`.
//! * **Data plane** ([`dataplane`], [`des`]): SCMP probes as a
//!   discrete-event simulation and flow-level bandwidth tests with
//!   pps-bound routers and congestion-biased loss.
//! * **Faults** ([`fault`]): server behaviours, link outages and
//!   time-windowed congestion episodes.
//! * **Chaos** ([`chaos`]): declarative, seeded fault schedules (link
//!   flaps, AS outages, congestion waves, flaky-server windows)
//!   compiled onto the network clock so faults fire as time advances.
//! * **Façade** ([`net::ScionNetwork`]): the object applications use —
//!   `paths` / `ping` / `traceroute` / `bwtest` with a monotonically
//!   advancing network clock.
//!
//! Everything is deterministic for a fixed seed.
//!
//! ```
//! use scion_sim::net::ScionNetwork;
//! use scion_sim::topology::scionlab::{AWS_IRELAND, MY_AS};
//!
//! let net = ScionNetwork::scionlab(42);
//! let paths = net.paths(MY_AS, AWS_IRELAND, 40);
//! assert_eq!(paths[0].hop_count(), 6);
//! ```

pub mod addr;
pub mod beacon;
pub mod chaos;
pub mod crypto;
pub mod dataplane;
pub mod des;
pub mod fault;
pub mod geo;
pub mod net;
pub mod path;
pub mod pathserver;
pub mod policy;
pub mod segments;
pub mod topology;

pub use addr::{Asn, HostAddr, IfaceId, Isd, IsdAsn, ScionAddr};
pub use chaos::{ChaosError, ChaosEvent, ChaosSchedule};
pub use net::{BwtestOutcome, NetError, ScionNetwork, TraceHop};
pub use path::{PathHop, PathStatus, ScionPath};
