//! `scion ping` — SCMP echo with path control.
//!
//! Reproduces the invocation the paper's test-suite issues for every
//! path of every destination:
//!
//! ```text
//! scion ping {server_address} -c 30 --sequence '{hop_predicates}' --interval 0.1s
//! ```
//!
//! Path selection works in three modes, like the real tool: explicit
//! `--sequence` hop predicates, `--interactive` (choose from the listed
//! paths), or the default first path.

use crate::args::{Parsed, Spec};
use crate::error::ToolError;
use crate::units::parse_duration_ms;
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::dataplane::scmp::ProbeOptions;
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;

/// How the path to the destination is chosen.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PathSelection {
    /// First (fewest-hop) available path.
    #[default]
    Default,
    /// `--sequence '<hop predicates>'`: exactly this path.
    Sequence(String),
    /// `--interactive` with the chosen index (the terminal prompt's
    /// answer; the list order matches `showpaths`).
    Interactive(usize),
    /// ACL path policy (SCION's pathpol language): the best path the
    /// policy allows, e.g. `"- 16-ffaa:0:1004, +"`.
    Policy(String),
}

impl PathSelection {
    /// The path-choice options every probing tool takes (`ping` adds
    /// `--interactive`).
    pub fn options(spec: Spec) -> Spec {
        spec.value("sequence").value("policy")
    }

    /// Read the choice: `--sequence` before `--policy` before
    /// `--interactive N` — the scripted form of interactive mode, which
    /// supplies the index a terminal would prompt for.
    pub fn from_parsed(p: &Parsed) -> Result<PathSelection, ToolError> {
        if let Some(seq) = p.opt("sequence") {
            return Ok(PathSelection::Sequence(seq.to_string()));
        }
        if let Some(policy) = p.opt("policy") {
            return Ok(PathSelection::Policy(policy.to_string()));
        }
        Ok(match p.get("interactive").map_err(ToolError::Usage)? {
            Some(i) => PathSelection::Interactive(i),
            None => PathSelection::Default,
        })
    }
}

/// Options of one `scion ping` run.
#[derive(Debug, Clone, PartialEq)]
pub struct PingOptions {
    /// `-c`: number of echo requests.
    pub count: u32,
    /// `--interval`: inter-probe gap in ms.
    pub interval_ms: f64,
    /// `--timeout` per probe, ms.
    pub timeout_ms: f64,
    pub selection: PathSelection,
}

impl Default for PingOptions {
    fn default() -> Self {
        PingOptions {
            count: 3,
            interval_ms: 1000.0,
            timeout_ms: 1000.0,
            selection: PathSelection::Default,
        }
    }
}

impl PingOptions {
    /// The paper's exact parameters: `-c 30 --interval 0.1s`.
    pub fn paper() -> PingOptions {
        PingOptions {
            count: 30,
            interval_ms: 100.0,
            ..PingOptions::default()
        }
    }

    /// `scion ping`'s option table, on top of `spec`.
    pub fn options(spec: Spec) -> Spec {
        PathSelection::options(spec)
            .value("interactive")
            .value("c")
            .alias("count", "c")
            .value("interval")
            .value("timeout")
    }

    /// Read the options of one run; `--interval` and `--timeout` take
    /// duration strings (`0.1s`, `100ms`).
    pub fn from_parsed(p: &Parsed) -> Result<PingOptions, ToolError> {
        let d = PingOptions::default();
        let duration = |name, default| p.opt(name).map_or(Ok(default), parse_duration_ms);
        Ok(PingOptions {
            count: p.get_or("c", d.count).map_err(ToolError::Usage)?,
            interval_ms: duration("interval", d.interval_ms)?,
            timeout_ms: duration("timeout", d.timeout_ms)?,
            selection: PathSelection::from_parsed(p)?,
        })
    }
}

/// Statistics block of a ping run (the tool's trailing summary).
#[derive(Debug, Clone, PartialEq)]
pub struct PingReport {
    pub destination: ScionAddr,
    /// The path actually used.
    pub path: ScionPath,
    pub sent: u32,
    pub received: u32,
    /// Loss percentage (0–100), as the CLI prints it.
    pub loss_pct: f64,
    pub min_ms: Option<f64>,
    pub avg_ms: Option<f64>,
    pub max_ms: Option<f64>,
    pub mdev_ms: Option<f64>,
}

impl PingReport {
    /// CLI-style rendering of the summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "--- {} statistics ---\n{} packets transmitted, {} received, {:.0}% packet loss\n",
            self.destination, self.sent, self.received, self.loss_pct
        );
        if let (Some(min), Some(avg), Some(max), Some(mdev)) =
            (self.min_ms, self.avg_ms, self.max_ms, self.mdev_ms)
        {
            out.push_str(&format!(
                "rtt min/avg/max/mdev = {min:.3}/{avg:.3}/{max:.3}/{mdev:.3} ms\n"
            ));
        }
        out
    }
}

/// Resolve the path dictated by `selection` for `local -> dst`.
pub fn resolve_path(
    net: &ScionNetwork,
    local: IsdAsn,
    dst: IsdAsn,
    selection: &PathSelection,
) -> Result<ScionPath, ToolError> {
    match selection {
        PathSelection::Default => net
            .paths(local, dst, 1)
            .into_iter()
            .next()
            .ok_or_else(|| ToolError::NoPath(format!("no path to {dst}"))),
        PathSelection::Interactive(choice) => {
            let paths = net.paths(local, dst, usize::MAX);
            paths.into_iter().nth(*choice).ok_or_else(|| {
                ToolError::NoPath(format!("interactive choice {choice} out of range"))
            })
        }
        PathSelection::Sequence(seq) => {
            let bare = ScionPath::from_sequence(seq)?;
            if bare.src() != Some(local) || bare.dst() != Some(dst) {
                return Err(ToolError::Usage(format!(
                    "sequence endpoints do not match {local} -> {dst}"
                )));
            }
            net.authorize(&bare)
                .map_err(|_| ToolError::NoPath(format!("no path matching sequence '{seq}'")))
        }
        PathSelection::Policy(spec) => {
            let acl: scion_sim::policy::Acl =
                spec.parse().map_err(|e| ToolError::Usage(format!("{e}")))?;
            acl.filter(net.paths(local, dst, usize::MAX))
                .into_iter()
                .next()
                .ok_or_else(|| {
                    ToolError::NoPath(format!("policy {spec:?} allows no path to {dst}"))
                })
        }
    }
}

/// Run `scion ping` from a host in `local` to `destination`.
pub fn ping(
    net: &ScionNetwork,
    local: IsdAsn,
    destination: ScionAddr,
    options: &PingOptions,
) -> Result<PingReport, ToolError> {
    let path = resolve_path(net, local, destination.ia, &options.selection)?;
    ping_over(net, destination, path, options)
}

/// [`ping`] over a path the caller already resolved
/// (`options.selection` is not consulted) — for callers that run
/// several tools over one path, like the campaign's per-path suite.
pub fn ping_over(
    net: &ScionNetwork,
    destination: ScionAddr,
    path: ScionPath,
    options: &PingOptions,
) -> Result<PingReport, ToolError> {
    let probe_opts = ProbeOptions {
        count: options.count,
        interval_ms: options.interval_ms,
        payload_bytes: 8,
        timeout_ms: options.timeout_ms,
    };
    let outcome = net.ping(&path, destination, &probe_opts)?;
    Ok(PingReport {
        destination,
        sent: outcome.sent,
        received: outcome.received(),
        loss_pct: outcome.loss() * 100.0,
        min_ms: outcome.min_rtt_ms(),
        avg_ms: outcome.avg_rtt_ms(),
        max_ms: outcome.max_rtt_ms(),
        mdev_ms: outcome.mdev_ms(),
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::fault::ServerBehavior;
    use scion_sim::topology::scionlab::{paper_destinations, AWS_IRELAND, MY_AS};

    fn net() -> ScionNetwork {
        ScionNetwork::scionlab(11)
    }

    fn ireland() -> ScionAddr {
        paper_destinations()[1]
    }

    #[test]
    fn paper_invocation_works() {
        let n = net();
        let r = ping(&n, MY_AS, ireland(), &PingOptions::paper()).unwrap();
        assert_eq!(r.sent, 30);
        assert!(r.received >= 28);
        assert!(r.loss_pct < 10.0);
        assert!(r.min_ms.unwrap() <= r.avg_ms.unwrap());
        assert!(r.avg_ms.unwrap() <= r.max_ms.unwrap());
        assert_eq!(r.path.hop_count(), 6, "default = fewest hops");
    }

    #[test]
    fn options_are_read_from_a_parsed_command_line() {
        let read = |args: &[&str]| {
            let p = PingOptions::options(Spec::new(0, 0)).parse(args).unwrap();
            PingOptions::from_parsed(&p)
        };
        let o = read(&["--count", "30", "--interval", "0.1s", "--timeout", "250ms"]).unwrap();
        assert_eq!((o.count, o.interval_ms, o.timeout_ms), (30, 100.0, 250.0));
        assert_eq!(read(&[]).unwrap(), PingOptions::default());
        assert!(read(&["--interval", "zzz"]).is_err());
        assert!(read(&["-c", "lots"]).is_err());
        // One precedence on every face, whatever the order typed.
        let o = read(&["--interactive", "2", "--policy", "+", "--sequence", "s"]).unwrap();
        assert_eq!(o.selection, PathSelection::Sequence("s".into()));
        let o = read(&["--interactive", "2"]).unwrap();
        assert_eq!(o.selection, PathSelection::Interactive(2));
    }

    #[test]
    fn sequence_mode_pins_the_path() {
        let n = net();
        let all = n.paths(MY_AS, AWS_IRELAND, 40);
        let victim = all.last().unwrap();
        let opts = PingOptions {
            selection: PathSelection::Sequence(victim.sequence()),
            ..PingOptions::paper()
        };
        let r = ping(&n, MY_AS, ireland(), &opts).unwrap();
        assert!(r.path.same_route(victim));
    }

    #[test]
    fn sequence_endpoint_mismatch_is_usage_error() {
        let n = net();
        let all = n.paths(MY_AS, AWS_IRELAND, 1);
        let opts = PingOptions {
            selection: PathSelection::Sequence(all[0].sequence()),
            ..PingOptions::default()
        };
        // Ireland sequence used against the N. Virginia destination.
        let err = ping(&n, MY_AS, paper_destinations()[2], &opts);
        assert!(matches!(err, Err(ToolError::Usage(_))));
    }

    #[test]
    fn garbage_sequence_is_rejected() {
        let n = net();
        let opts = PingOptions {
            selection: PathSelection::Sequence("not a sequence".into()),
            ..PingOptions::default()
        };
        assert!(matches!(
            ping(&n, MY_AS, ireland(), &opts),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn interactive_mode_selects_by_index() {
        let n = net();
        let all = n.paths(MY_AS, AWS_IRELAND, usize::MAX);
        let opts = PingOptions {
            selection: PathSelection::Interactive(3),
            count: 5,
            ..PingOptions::default()
        };
        let r = ping(&n, MY_AS, ireland(), &opts).unwrap();
        assert!(r.path.same_route(&all[3]));
        let out_of_range = PingOptions {
            selection: PathSelection::Interactive(10_000),
            ..PingOptions::default()
        };
        assert!(matches!(
            ping(&n, MY_AS, ireland(), &out_of_range),
            Err(ToolError::NoPath(_))
        ));
    }

    #[test]
    fn policy_mode_picks_best_allowed_path() {
        let n = net();
        // Deny the whole AWS ISD's detour ASes; the EU-only path wins.
        let opts = PingOptions {
            selection: PathSelection::Policy("- 16-ffaa:0:1004, - 16-ffaa:0:1007, - 18, +".into()),
            count: 5,
            ..PingOptions::default()
        };
        let r = ping(&n, MY_AS, ireland(), &opts).unwrap();
        assert!(!r.path.isd_set().contains(&18));
        assert!(!r
            .path
            .hops
            .iter()
            .any(|h| h.ia.to_string().contains("1004") || h.ia.to_string().contains("1007")));
        assert!(r.avg_ms.unwrap() < 60.0, "EU path expected");

        // A policy denying everything reports NoPath.
        let deny_all = PingOptions {
            selection: PathSelection::Policy("- 0".into()),
            ..PingOptions::default()
        };
        assert!(matches!(
            ping(&n, MY_AS, ireland(), &deny_all),
            Err(ToolError::NoPath(_))
        ));

        // A malformed policy is a usage error.
        let bad = PingOptions {
            selection: PathSelection::Policy("nope".into()),
            ..PingOptions::default()
        };
        assert!(matches!(
            ping(&n, MY_AS, ireland(), &bad),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn down_server_shows_total_loss() {
        let n = net();
        n.set_server_behavior(ireland(), ServerBehavior::Down);
        let r = ping(&n, MY_AS, ireland(), &PingOptions::paper()).unwrap();
        assert_eq!(r.received, 0);
        assert_eq!(r.loss_pct, 100.0);
        assert_eq!(r.avg_ms, None);
        assert!(r.render().contains("100% packet loss"));
    }

    #[test]
    fn count_above_the_probe_limit_is_refused() {
        use scion_sim::dataplane::scmp::MAX_PROBES;
        use scion_sim::net::NetError;
        let n = net();
        let at_limit = PingOptions {
            count: MAX_PROBES,
            interval_ms: 0.0,
            ..PingOptions::default()
        };
        assert_eq!(
            ping(&n, MY_AS, ireland(), &at_limit).unwrap().sent,
            MAX_PROBES
        );
        let over = PingOptions {
            count: 4_000_000_000,
            ..PingOptions::default()
        };
        assert_eq!(
            ping(&n, MY_AS, ireland(), &over),
            Err(ToolError::Net(NetError::TooManyProbes(4_000_000_000)))
        );
    }

    #[test]
    fn report_renders_statistics() {
        let n = net();
        let r = ping(&n, MY_AS, ireland(), &PingOptions::paper()).unwrap();
        let text = r.render();
        assert!(text.contains("30 packets transmitted"), "{text}");
        assert!(text.contains("rtt min/avg/max/mdev"), "{text}");
    }
}
