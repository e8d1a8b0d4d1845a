//! # scion-tools — the SCION end-host applications, re-implemented
//!
//! Rust counterparts of the SCIONLab applications the paper's test-suite
//! wraps (§3.3), running against [`scion_sim::net::ScionNetwork`] instead
//! of a live testbed, with the same input/output contracts:
//!
//! * [`mod@address`] — `scion address`
//! * [`mod@showpaths`] — `scion showpaths [-m N] [--extended]`
//! * [`mod@ping`] — `scion ping -c N --interval T [--sequence '...']`,
//!   including the interactive path-choice mode
//! * [`mod@traceroute`] — `scion traceroute`
//! * [`bwtester`] — `scion-bwtestclient -cs 'd,s,n,bw' [-sc ...]` with
//!   `?` wildcard inference and the tool's duration/packet-size limits
//!
//! Every tool returns a structured result plus a `render()` method that
//! produces CLI-shaped text, and declares its option table and reader
//! over [`args`], the workspace's one argument-vector parser.

pub mod address;
pub mod args;
pub mod bwtester;
pub mod error;
pub mod ping;
pub mod shell;
pub mod showpaths;
pub mod traceroute;
pub mod units;

pub use address::{address, AddressInfo};
pub use bwtester::{bwtest, BwParams, BwtestReport, DirectionReport};
pub use error::ToolError;
pub use ping::{ping, PathSelection, PingOptions, PingReport};
pub use showpaths::{showpaths, ShowpathsOptions, ShowpathsResult};
pub use traceroute::{traceroute, TracerouteReport};
