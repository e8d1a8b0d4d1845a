//! # upin-cli — the UPIN front-end
//!
//! The paper closes with "we intend to proceed ... by providing a user
//! interface and a path recommendation feature, that remains our main
//! direction for future research". This crate is that front-end: a CLI
//! over the full stack, with a persistent measurement database.
//!
//! ```text
//! upin destinations                                 list the 21 servers
//! upin showpaths 16-ffaa:0:1002 -m 40 --extended    path discovery
//! upin ping 16-ffaa:0:1002,[172.31.43.7] -c 30 --interval 0.1s
//! upin traceroute 16-ffaa:0:1002
//! upin bwtest 19-ffaa:0:1303,[141.44.25.144] -cs 3,MTU,?,12Mbps
//! upin exec "scion ping 16-ffaa:0:1002,[172.31.43.7] -c 30"
//! upin campaign 2 --skip --db DIR                   run the test-suite
//! upin recommend 2 --objective latency --exclude-country "United States" -k 3
//! upin verify 2 --exclude-country Singapore         re-trace + check
//! upin summary                                      campaign scalars
//! upin help                                         every command
//! ```
//!
//! That is a sample: `upin help` prints all two dozen commands —
//! `evaluate`, `health`, `failover`, `chaos run`, `longitudinal run`,
//! `export dataset`, `serve`, `loadgen`, `evaluate-strategies`, `topo
//! generate`, `topology`, four `report`s. The text is assembled from
//! the command table in [`commands`], one row per command and
//! subcommand (name, help lines, option table, handler), and every
//! argument vector is read by [`scion_tools::args::Spec`]. The SCION
//! tool commands take the option tables `scion-tools` declares, so
//! `upin ping ...` and `upin exec "scion ping ..."` accept the same
//! options.
//!
//! Commands that open a session accept, after the command name,
//! `--seed N` (simulation seed, default 42), `--db DIR` (database
//! directory, loaded when present and persisted after mutating commands;
//! without it the database lives in memory and ends with the process),
//! `--durability`, `--topology FILE`, `--beacon-cap N`, `--trace-out`,
//! `--metrics-out` and `--quiet`. Commands that open none (`topo
//! generate`, `report telemetry|chaos|churn`) refuse them.

pub mod commands;
pub mod session;

pub use commands::run;
pub use session::{CliError, Session};
