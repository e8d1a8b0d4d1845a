//! End-to-end benchmark of the UPIN path-control pipeline.
//!
//! Four seeded workloads drive the repository's crates through their
//! public functions only — nothing here patches or reaches into the
//! program. An untraced pass yields the end-to-end metrics; a traced
//! pass repeats the same program with the harness's own spans around
//! each public call (and a `upin_telemetry::Telemetry` handed to the
//! existing recorder hooks) and yields the per-layer metrics. See
//! `benchmark/README.md` for the names and what each one means.

pub mod calibrate;
pub mod openloop;
pub mod pacing;
pub mod procstat;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::{Outcome, Res, Scale};

/// Which rendition of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Timers only: the end-to-end metrics.
    Untraced,
    /// What the traced pass is compared against. The workload's opaque
    /// entry point where one exists (`run_longitudinal`), otherwise the
    /// untraced pass.
    Reference,
    /// Spans and counters: the per-layer metrics.
    Traced,
}

/// How often each workload's set-up repeats in an untraced run
/// (`setup_s` is the fastest repetition): more often where one set-up
/// is shorter.
fn setup_reps(workload: &str) -> usize {
    match workload {
        "longitudinal_35as" => 54,
        "campaign_1000as" => 15,
        _ => 5,
    }
}

/// Run one pass of one workload.
pub fn run_workload(workload: &str, seed: u64, scale: Scale, pass: Pass) -> Res<Outcome> {
    let reps = match pass {
        Pass::Untraced => scale.setup_reps(setup_reps(workload)),
        _ => 1,
    };
    let traced = pass == Pass::Traced;
    match workload {
        "serve_static" => workloads::serve::run_static(seed, scale, traced, reps),
        "serve_churn" => workloads::serve::run_churn(seed, scale, traced, reps),
        "campaign_1000as" => workloads::campaign::run(seed, scale, traced, reps),
        "longitudinal_35as" => workloads::longitudinal::run(seed, scale, pass, reps),
        other => Err(format!("unknown workload {other:?}")),
    }
}
