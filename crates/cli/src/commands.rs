//! The command table. Every `upin` command and subcommand is one row of
//! `COMMANDS`: its name, its lines of `upin help`, its option table
//! and a handler — a pure function from parsed arguments (and an open
//! session, when the row needs one) to output text, so the whole CLI is
//! unit-testable without process spawning. [`run`] does what every
//! command shares — lookup, global options, session, telemetry exports
//! — once.

use crate::session::{CliError, Session, SessionOptions};
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::chaos::ChaosSchedule;
use scion_tools::args::{Parsed, Spec};
use scion_tools::ping::{PathSelection, PingOptions};
use scion_tools::showpaths::ShowpathsOptions;
use std::path::{Path, PathBuf};
use upin_core::api::{self, EvaluateConstraintRequest, RecommendRequest, ShowPathsRequest};
use upin_core::select::{recommend, Constraints, Objective, UserRequest};
use upin_core::verify::verify_recommendation;
use upin_core::{FailoverConfig, ServiceRequest, SuiteConfig};

/// One row of the command table.
struct Command {
    /// What the user types: `"ping"`, `"chaos run"`.
    name: &'static str,
    /// The row's lines of `upin help`.
    help: &'static str,
    /// The positionals and options the row itself takes.
    spec: fn() -> Spec,
    run: Run,
}

type Handler = fn(&Parsed, &Session) -> Result<String, CliError>;

/// A row's handler, by what [`run`] has to open for it.
enum Run {
    /// Nothing: no session, and so none of the session's global options.
    Plain(fn(&Parsed) -> Result<String, CliError>),
    /// A session — global options, network, database.
    Session(Handler),
    /// A session whose database lists the measurable servers.
    Servers(Handler),
}

/// Top-level dispatch: `run(&["showpaths", "16-ffaa:0:1002", "-m", "40"])`.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    if let Some("help" | "--help" | "-h") = argv.first().map(String::as_str) {
        return Ok(usage());
    }
    let (command, rest) = lookup(argv)?;
    let parse = |spec: Spec| {
        spec.parse(rest)
            .map_err(|e| CliError::Usage(format!("{e}\nusage:\n{}", command.help.trim_end())))
    };
    let (handler, servers) = match command.run {
        Run::Plain(handler) => return handler(&parse((command.spec)())?),
        Run::Session(handler) => (handler, false),
        Run::Servers(handler) => (handler, true),
    };
    let p = parse(with_globals((command.spec)()))?;
    let s = open(&p)?;
    if servers {
        s.ensure_servers()?;
    }
    // The requested telemetry exports are written once the handler is
    // done — also after a failed verification — and their banner
    // (empty under `--quiet`) ends the output.
    match handler(&p, &s) {
        Ok(out) => Ok(out + &s.export_telemetry()?),
        Err(e @ CliError::Verification(_)) => {
            s.export_telemetry()?;
            Err(e)
        }
        Err(e) => Err(e),
    }
}

/// Find the row `argv` names — a command, or a command and its
/// subcommand where the rows are `"<command> <sub>"` — and the
/// arguments left for it.
fn lookup(argv: &[String]) -> Result<(&'static Command, &[String]), CliError> {
    let (name, rest) = argv.split_first().ok_or_else(|| CliError::Usage(usage()))?;
    let named = |full: &str| COMMANDS.iter().find(|c| c.name == full);
    if let Some(row) = named(name) {
        return Ok((row, rest));
    }
    let subs: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(name.as_str())?.strip_prefix(' '))
        .collect();
    if subs.is_empty() {
        return Err(CliError::Usage(format!(
            "unknown command {name:?}\n\n{}",
            usage()
        )));
    }
    let expected = subs.join(", ");
    let Some((sub, rest)) = rest.split_first() else {
        return Err(CliError::Usage(format!(
            "{name} needs a subcommand (expected: {expected})"
        )));
    };
    named(&format!("{name} {sub}"))
        .map(|row| (row, rest))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown {name} subcommand {sub:?} (expected: {expected})"
            ))
        })
}

fn usage() -> String {
    let rows: String = COMMANDS.iter().map(|c| c.help).collect();
    format!(
        "upin — user-driven path control on a SCION network\n\ncommands:\n{rows}\n{GLOBAL_HELP}"
    )
}

const GLOBAL_HELP: &str = "\
global: --seed N (default 42), --db DIR (persistent database),\n\
\x20       --durability LEVEL (none|snapshot|wal; default snapshot —\n\
\x20       wal group-commits every write and recovers torn state on open),\n\
\x20       --trace-out FILE (span tree as JSON), --metrics-out FILE\n\
\x20       (counters/histograms as JSON), --quiet (suppress banners),\n\
\x20       --topology FILE (run over a generated topology JSON),\n\
\x20       --beacon-cap N (keep at most N beacons per AS pair)\n";

/// The session's options, valid on every command that opens one.
fn with_globals(spec: Spec) -> Spec {
    spec.value("seed")
        .value("db")
        .value("durability")
        .value("trace-out")
        .value("metrics-out")
        .value("topology")
        .value("beacon-cap")
        .flag("quiet")
}

fn open(p: &Parsed) -> Result<Session, CliError> {
    Session::open_with(SessionOptions {
        seed: p.get_or("seed", 42)?,
        db_dir: p.opt("db").map(String::from),
        durability: p.opt("durability").map(String::from),
        trace_out: p.opt("trace-out").map(PathBuf::from),
        metrics_out: p.opt("metrics-out").map(PathBuf::from),
        quiet: p.flag("quiet"),
        topology: p.opt("topology").map(PathBuf::from),
        beacon_cap: p.get("beacon-cap")?,
    })
}

static COMMANDS: &[Command] = &[
    Command {
        name: "destinations",
        help: "  destinations                         list the measurable servers\n",
        spec: || Spec::new(0, 0),
        run: Run::Servers(cmd_destinations),
    },
    Command {
        name: "showpaths",
        help: "  showpaths <ia> [-m N] [--extended]   list paths to an AS\n",
        spec: || ShowpathsOptions::options(Spec::new(1, 1)),
        run: Run::Session(cmd_showpaths),
    },
    Command {
        name: "ping",
        help: "  ping <addr> [-c N] [--interval T] [--timeout T] [--sequence S |\n\
               \x20      --interactive N | --policy ACL]\n",
        spec: || PingOptions::options(Spec::new(1, 1)),
        run: Run::Session(cmd_ping),
    },
    Command {
        name: "traceroute",
        help: "  traceroute <ia> [--sequence S | --policy ACL]\n",
        spec: || PathSelection::options(Spec::new(1, 1)),
        run: Run::Session(cmd_traceroute),
    },
    Command {
        name: "bwtest",
        help: "  bwtest <addr> [-cs SPEC] [-sc SPEC] [--sequence S | --policy ACL]\n",
        spec: || scion_tools::bwtester::options(Spec::new(1, 1)),
        run: Run::Session(cmd_bwtest),
    },
    Command {
        name: "campaign",
        help: "  campaign <iterations> [--skip] [--some-only] [--parallel] [--workers N]\n\
               \x20          [--retries N] [--no-bwtests] [--durability LEVEL]\n",
        spec: || SuiteConfig::spec().flag("no-bwtests"),
        run: Run::Servers(cmd_campaign),
    },
    Command {
        name: "recommend",
        help: "  recommend <server|addr> [--objective latency|jitter|loss|bw-up|bw-down]\n\
               \x20           [--exclude-country C]* [--exclude-isd N]* [--exclude-as IA]*\n\
               \x20           [--exclude-operator O]* [--max-hops N] [-k N]\n\
               \x20           [--pareto | --weight name=value ...]\n",
        spec: recommend_spec,
        run: Run::Servers(cmd_recommend),
    },
    Command {
        name: "topology",
        help: "  topology                             render the network map (Fig 1)\n",
        spec: || Spec::new(0, 0),
        run: Run::Session(|_, s| Ok(scion_sim::topology::render::render(s.net.topology()))),
    },
    Command {
        name: "topo generate",
        help: "  topo generate [--seed N] [--isds N] [--ases LO,HI] [--cores LO,HI]\n\
               \x20      [--core-mesh-density F] [--pref-attachment F] [--extra-parent-prob F]\n\
               \x20      [--peering-prob F] [--server-prob F] [--out FILE]\n\
               \x20                                      write a BRITE-style random topology\n",
        spec: || {
            Spec::new(0, 0)
                .value("seed")
                .value("isds")
                .value("ases")
                .value("cores")
                .value("core-mesh-density")
                .value("pref-attachment")
                .value("extra-parent-prob")
                .value("peering-prob")
                .value("server-prob")
                .value("out")
        },
        run: Run::Plain(cmd_topo_generate),
    },
    Command {
        name: "failover",
        help: "  failover <addr> [--probes N] [--threshold N] [--max-paths N]\n",
        spec: || {
            Spec::new(1, 1)
                .value("probes")
                .value("threshold")
                .value("max-paths")
        },
        run: Run::Session(cmd_failover),
    },
    Command {
        name: "chaos run",
        help:
            "  chaos run --schedule FILE [--sla-ms F] [--ticks N] [--tick-interval-ms F]\n\
               \x20       [--probes N] [--max-paths N] [--parallel] [--workers N] [--out FILE]\n\
               \x20                                      failover sessions under a fault schedule\n",
        spec: || {
            upin_core::pool::options(Spec::new(0, 0))
                .value("schedule")
                .value("sla-ms")
                .value("ticks")
                .value("tick-interval-ms")
                .value("probes")
                .value("max-paths")
                .value("out")
        },
        run: Run::Servers(cmd_chaos_run),
    },
    Command {
        name: "evaluate",
        help: "  evaluate <server|addr> [same filters] constraint funnel: paths surviving\n\
               \x20                                      each stage of the selection pipeline\n",
        spec: recommend_spec,
        run: Run::Servers(cmd_evaluate),
    },
    Command {
        name: "serve",
        help: "  serve [--threads N] [--requests FILE] answer JSON service request lines\n\
               \x20                                      (one response line per request)\n",
        spec: || Spec::new(0, 0).value("threads").value("requests"),
        run: Run::Servers(cmd_serve),
    },
    Command {
        name: "verify",
        help: "  verify <server|addr> [same filters] [--tolerance F]\n",
        spec: || recommend_spec().value("tolerance"),
        run: Run::Servers(cmd_verify),
    },
    Command {
        name: "health",
        help: "  health <server|addr> [--window N] [--sigmas K]   anomaly scan\n",
        spec: || Spec::new(1, 1).value("window").value("sigmas"),
        run: Run::Servers(cmd_health),
    },
    Command {
        name: "exec",
        help: "  exec \"scion ping ... \"                executes a literal tool command line\n",
        spec: || Spec::new(1, 1),
        run: Run::Session(cmd_exec),
    },
    Command {
        name: "summary",
        help: "  summary                              campaign scalars + Fig 4\n",
        spec: || Spec::new(0, 0),
        run: Run::Servers(cmd_summary),
    },
    Command {
        name: "evaluate-strategies",
        help: "  evaluate-strategies [--epochs N] [--objective X] [--strategy NAME]\n\
               \x20                                      score all selection strategies on the\n\
               \x20                                      Pareto/stability/fairness axioms\n",
        spec: || {
            Spec::new(0, 0)
                .value("epochs")
                .value("objective")
                .value("strategy")
        },
        run: Run::Servers(cmd_evaluate_strategies),
    },
    Command {
        name: "longitudinal run",
        help: "  longitudinal run [--sim-days D] [--rounds-per-day N] [--retention-hours H]\n\
               \x20       [--schedule FILE] [--parallel] [--workers N] [--out FILE]\n\
               \x20                                      multi-day campaign: windowed raw rows,\n\
               \x20                                      hourly rollups, churn analytics\n",
        spec: || {
            upin_core::pool::options(Spec::new(0, 0))
                .value("sim-days")
                .value("rounds-per-day")
                .value("retention-hours")
                .value("schedule")
                .value("out")
        },
        run: Run::Servers(cmd_longitudinal_run),
    },
    Command {
        name: "export dataset",
        help: "  export dataset --out DIR             write rollups.csv, paths.csv,\n\
               \x20                                      churn.json, manifest.json\n",
        spec: || Spec::new(0, 0).value("out"),
        run: Run::Session(cmd_export_dataset),
    },
    Command {
        name: "report telemetry",
        help: "  report telemetry <metrics.json>      summarize a --metrics-out export\n",
        spec: || Spec::new(1, 1),
        run: Run::Plain(|p| {
            Ok(read_parsed(&p.positional[0], upin_telemetry::MetricsDoc::parse)?.render_table())
        }),
    },
    Command {
        name: "report strategies",
        help: "  report strategies                    render the stored strategy scorecard\n",
        spec: || Spec::new(0, 0),
        run: Run::Session(|_, s| {
            let cards = upin_core::axioms::load_scorecards(&s.db)?;
            Ok(upin_core::report::render_strategies(&cards))
        }),
    },
    Command {
        name: "report chaos",
        help: "  report chaos <report.json>           render a chaos run saved with --out\n",
        spec: || Spec::new(1, 1),
        run: Run::Plain(|p| {
            let report = read_parsed(&p.positional[0], upin_core::ChaosReport::from_json_str)?;
            Ok(upin_core::report::render_chaos(&report))
        }),
    },
    Command {
        name: "report churn",
        help: "  report churn <report.json>           render churn from a longitudinal run\n",
        spec: || Spec::new(1, 1),
        run: Run::Plain(cmd_report_churn),
    },
];

fn recommend_spec() -> Spec {
    Spec::new(1, 1)
        .value("objective")
        .value("exclude-country")
        .value("exclude-isd")
        .value("exclude-as")
        .value("exclude-operator")
        .value("max-hops")
        .value("k")
        .flag("pareto")
        .value("weight")
}

/// Read `path`; a file that cannot be read is an I/O error.
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
}

/// Read `path` and parse its text; contents `parse` refuses are a
/// usage error naming the file.
fn read_parsed<T, E: std::fmt::Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    parse(&read_file(path)?).map_err(|e| CliError::Usage(format!("{path}: {e}")))
}

fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Answer one typed request through the service dispatcher and render
/// the typed response with the shared renderer.
fn dispatch(s: &Session, req: &ServiceRequest) -> Result<String, CliError> {
    Ok(api::render_response(&s.service().try_dispatch(req)?))
}

fn cmd_destinations(_: &Parsed, s: &Session) -> Result<String, CliError> {
    let dests = upin_core::collect::destinations(&s.db)?;
    let mut out = format!("{} measurable destinations:\n", dests.len());
    for (id, addr) in dests {
        let name = s
            .net
            .topology()
            .index_of(addr.ia)
            .map(|i| s.net.topology().node(i).name.clone())
            .unwrap_or_default();
        out.push_str(&format!("{id:>3}  {addr}  ({name})\n"));
    }
    Ok(out)
}

/// The SCION tools' rows read their options with the tool's own table
/// and reader — the ones `upin exec "scion ..."` goes through — so both
/// faces take the same options. Here the destination is a positional,
/// `showpaths` answers through the service, and `ping`/`bwtest` lead
/// with the path they used.
fn cmd_showpaths(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let opts = ShowpathsOptions::from_parsed(p)?;
    let req = ServiceRequest::ShowPaths(ShowPathsRequest {
        destination: parse_ia(&p.positional[0])?.to_string(),
        max_paths: opts.max_paths,
        extended: opts.extended,
    });
    dispatch(s, &req)
}

fn cmd_ping(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let dst = parse_addr(&p.positional[0])?;
    let r = scion_tools::ping::ping(&s.net, s.local, dst, &PingOptions::from_parsed(p)?)?;
    Ok(format!("using path: {}\n{}", r.path, r.render()))
}

fn cmd_traceroute(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let dst = parse_ia(&p.positional[0])?;
    let selection = PathSelection::from_parsed(p)?;
    Ok(scion_tools::traceroute::traceroute(&s.net, s.local, dst, &selection)?.render())
}

fn cmd_bwtest(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let dst = parse_addr(&p.positional[0])?;
    let r = scion_tools::bwtester::bwtest_parsed(&s.net, s.local, dst, p, "3,1000,?,12Mbps")?;
    Ok(format!("using path: {}\n{}", r.path, r.render()))
}

fn cmd_campaign(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let mut cfg = SuiteConfig::from_parsed(p)?;
    cfg.run_bwtests = !p.flag("no-bwtests");
    // Campaigns over a `--topology` file measure from that
    // network's user AS, not the SCIONLab replica's.
    cfg.local_as = s.local;
    let report = upin_core::TestSuite::new(&s.net, &s.db, cfg).run()?;
    s.persist()?;
    // Lead with what crash recovery had to repair, if anything:
    // the operator should know samples were dropped or replayed.
    // `--quiet` suppresses the banner (the report itself stays).
    let mut out = String::new();
    if !s.quiet {
        if let Some(rec) = s.recovery.as_ref().filter(|rec| !rec.clean()) {
            out.push_str(&rec.render());
            out.push('\n');
        }
    }
    out.push_str(&report.render());
    Ok(out)
}

/// `upin topo generate [--isds N] [--ases LO,HI] [--cores LO,HI] ...`:
/// write a BRITE-style random topology (preferential attachment, sparse
/// core meshes) as JSON — to stdout, or to `--out FILE` for later
/// `--topology FILE` runs.
fn cmd_topo_generate(p: &Parsed) -> Result<String, CliError> {
    use scion_sim::topology::random::{random_topology, RandomTopologyConfig};
    let mut cfg = RandomTopologyConfig::default();
    cfg.isds = p.get_or("isds", cfg.isds)?;
    if let Some(r) = p.opt("ases") {
        cfg.ases_per_isd = parse_range(r)?;
    }
    if let Some(r) = p.opt("cores") {
        cfg.cores_per_isd = parse_range(r)?;
    }
    for (name, field) in [
        ("core-mesh-density", &mut cfg.core_mesh_density as &mut f64),
        ("pref-attachment", &mut cfg.pref_attachment),
        ("extra-parent-prob", &mut cfg.extra_parent_prob),
        ("peering-prob", &mut cfg.peering_prob),
        ("server-prob", &mut cfg.server_prob),
    ] {
        *field = p.get_or(name, *field)?;
    }
    let (topo, user) = random_topology(p.get_or("seed", 42)?, &cfg)
        .map_err(|e| CliError::Usage(format!("bad topology: {e}")))?;
    let json = topo.to_json_string();
    match p.opt("out") {
        Some(path) => {
            write_file(path, &json)?;
            Ok(format!(
                "generated {} ASes in {} ISDs ({} links), user AS {user}\nwritten to {path}\n",
                topo.num_ases(),
                topo.isds().len(),
                topo.num_links(),
            ))
        }
        None => Ok(json),
    }
}

/// Parse `LO,HI` (inclusive) or a single `N` as the range `(N, N)`.
fn parse_range(s: &str) -> Result<(usize, usize), CliError> {
    let bad = || CliError::Usage(format!("expected N or LO,HI, got {s:?}"));
    match s.split_once(',') {
        Some((lo, hi)) => Ok((
            lo.trim().parse().map_err(|_| bad())?,
            hi.trim().parse().map_err(|_| bad())?,
        )),
        None => {
            let n = s.trim().parse().map_err(|_| bad())?;
            Ok((n, n))
        }
    }
}

/// One failover session: a probe is one tick of K SCMP echoes, so K
/// consecutive losses on the pinned path are what trigger the switch.
fn cmd_failover(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let dst = parse_addr(&p.positional[0])?;
    let cfg = FailoverConfig {
        local_as: s.local,
        ticks: p.get_or("probes", 30)?,
        tick_interval_ms: 100.0,
        probes: p.get_or("threshold", 3)?,
        max_paths: p.get_or("max-paths", 10)?,
        ..FailoverConfig::default()
    };
    cfg.validate()?;
    let mut session = upin_core::failover::Session::open(&s.net, &cfg, dst, None);
    if session.candidates().is_empty() {
        return Err(scion_tools::ToolError::NoPath(format!("no path to {}", dst.ia)).into());
    }
    for _ in 0..cfg.ticks {
        session.tick();
    }
    let r = session.into_report(0);
    let mut out = format!(
        "{} probes over {} candidate paths: {} served ({:.0}% degraded), {} switch(es), {} restore(s)\n",
        r.ticks,
        r.candidates,
        r.ok_ticks,
        (1.0 - r.availability()) * 100.0,
        r.switch_ms.len(),
        r.restores
    );
    match &r.serving {
        Some(p) if p.stale => out.push_str(&format!("final path: {} (stale)\n", p.sequence)),
        Some(p) => out.push_str(&format!("final path: {}\n", p.sequence)),
        None => out.push_str("final path: none was ever live\n"),
    }
    Ok(out)
}

/// `upin chaos run --schedule FILE [--sla-ms 500]`: run one long-lived
/// failover session per destination while the schedule's faults fire on
/// the simulated clock.
fn cmd_chaos_run(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let path = p.required("schedule", "chaos run needs --schedule FILE")?;
    let schedule = read_parsed(path, ChaosSchedule::from_json_str)?;
    let defaults = FailoverConfig::default();
    let cfg = FailoverConfig {
        local_as: s.local,
        sla_ms: p.get_or("sla-ms", defaults.sla_ms)?,
        ticks: p.get_or("ticks", defaults.ticks)?,
        tick_interval_ms: p.get_or("tick-interval-ms", defaults.tick_interval_ms)?,
        probes: p.get_or("probes", defaults.probes)?,
        max_paths: p.get_or("max-paths", defaults.max_paths)?,
        workers: upin_core::pool::workers_from(p)?,
    };
    let dests = upin_core::collect::destinations(&s.db)?;
    let report =
        upin_core::failover::run_chaos_campaign(&s.net, &schedule, &dests, &cfg, Some(&s.db))?;
    if let Some(out_path) = p.opt("out") {
        write_file(out_path, report.to_json_string())?;
    }
    Ok(upin_core::report::render_chaos(&report))
}

/// `upin longitudinal run --sim-days D [--schedule FILE]`: a multi-day
/// measurement campaign on the simulated clock — raw rows on a
/// retention window, hourly rollups forever, churn analytics from the
/// rollups at the end.
fn cmd_longitudinal_run(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let schedule = p
        .opt("schedule")
        .map(|path| read_parsed(path, ChaosSchedule::from_json_str))
        .transpose()?;
    let campaign = SuiteConfig {
        iterations: 1,
        some_only: true,
        ping_count: 3,
        run_bwtests: false,
        skip_collection: true,
        workers: upin_core::pool::workers_from(p)?,
        local_as: s.local,
        ..SuiteConfig::default()
    };
    if s.db.collection(upin_core::schema::PATHS).read().is_empty() {
        upin_core::collect::collect_paths(&s.db, &s.net, &campaign)?;
    }
    let defaults = upin_core::LongitudinalConfig::default();
    let cfg = upin_core::LongitudinalConfig {
        campaign,
        sim_days: p.get_or("sim-days", defaults.sim_days)?,
        rounds_per_day: p.get_or("rounds-per-day", defaults.rounds_per_day)?,
        retention_hours: p.get_or("retention-hours", defaults.retention_hours)?,
        schedule,
        ..defaults
    };
    let report = upin_core::run_longitudinal(&s.db, &s.net, &cfg)?;
    s.persist()?;
    if let Some(out_path) = p.opt("out") {
        write_file(out_path, report.to_json_string())?;
    }
    Ok(report.render())
}

/// `upin export dataset --out DIR`: write the longitudinal dataset
/// (rollups.csv, paths.csv, churn.json, manifest.json) from the session
/// database. Contents are byte-deterministic for a given database
/// state.
fn cmd_export_dataset(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let out_dir = p.required("out", "export dataset needs --out DIR")?;
    let files = upin_core::dataset_files(&s.db)?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Io(format!("cannot create {out_dir}: {e}")))?;
    let mut out = String::new();
    for f in &files {
        let path = Path::new(out_dir).join(&f.name);
        write_file(&path, &f.contents)?;
        out.push_str(&format!(
            "wrote {} ({} B)\n",
            path.display(),
            f.contents.len()
        ));
    }
    Ok(out)
}

/// The whole command is one typed request: ranked, Pareto (--pareto)
/// and weighted (--weight name=value, repeatable) modes all answer
/// through the service dispatcher, and the output is the shared
/// renderer over the typed response.
fn cmd_recommend(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let req = ServiceRequest::Recommend(RecommendRequest {
        destination: p.positional[0].clone(),
        objective: objective_from(p)?,
        constraints: constraints_from(p)?,
        k: p.get_or("k", 3)?,
        pareto: p.flag("pareto"),
        weights: weights_from(p)?,
    });
    dispatch(s, &req)
}

/// `upin evaluate <server|addr> [filters]`: the constraint funnel — how
/// many stored paths survive each stage of the selection pipeline under
/// the given constraints.
fn cmd_evaluate(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let req = ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
        destination: p.positional[0].clone(),
        objective: objective_from(p)?,
        constraints: constraints_from(p)?,
    });
    dispatch(s, &req)
}

/// `upin serve --db DIR [--threads N] [--requests FILE]`: answer JSON
/// request lines through the service, one JSON response line per
/// request, in input order. Without --requests, answer a single Health
/// probe — the smoke face of the daemon.
fn cmd_serve(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let threads = p.get_or("threads", 1)?.max(1);
    let service = s.service();
    let Some(path) = p.opt("requests") else {
        return Ok(service.dispatch_json(&ServiceRequest::Health.to_json_string()) + "\n");
    };
    let text = read_file(path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let chunk = lines.len().div_ceil(threads).max(1);
    let (answers, _) = upin_core::pool::run_pool(lines.chunks(chunk).collect(), threads, |work| {
        let mut out = String::new();
        for line in work {
            out.push_str(&service.dispatch_json(line));
            out.push('\n');
        }
        out
    })?;
    Ok(answers.concat())
}

fn cmd_verify(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let server_id = resolve_server(s, &p.positional[0])?;
    let objective = objective_from(p)?;
    let constraints = constraints_from(p)?;
    let recs = recommend(
        &s.db,
        &UserRequest {
            server_id,
            objective,
            constraints: constraints.clone(),
        },
        1,
    )?;
    let report = verify_recommendation(
        &s.db,
        &s.net,
        s.local,
        &recs[0],
        &constraints,
        objective,
        p.get_or("tolerance", 1.5)?,
    )?;
    s.persist()?;
    let mut out = format!("verifying {} ...\n", recs[0].aggregate.path_id);
    for (ia, rtt) in &report.trace {
        match rtt {
            Some(ms) => out.push_str(&format!("  {ia}  {ms:.2} ms\n")),
            None => out.push_str(&format!("  {ia}  *\n")),
        }
    }
    if report.satisfied() {
        out.push_str("intent satisfied: no violations\n");
        Ok(out)
    } else {
        for v in &report.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        Err(CliError::Verification(out))
    }
}

fn cmd_health(p: &Parsed, s: &Session) -> Result<String, CliError> {
    use upin_core::health::{detect, Anomaly, HealthConfig};
    let server_id = resolve_server(s, &p.positional[0])?;
    let defaults = HealthConfig::default();
    let cfg = HealthConfig {
        recent_window: p.get_or("window", defaults.recent_window)?,
        threshold_sigmas: p.get_or("sigmas", defaults.threshold_sigmas)?,
        ..defaults
    };
    let findings = detect(&s.db, server_id, &cfg)?;
    if findings.is_empty() {
        return Ok("all paths healthy\n".to_string());
    }
    let mut out = String::new();
    for f in findings {
        let what = match f.anomaly {
            Anomaly::Blackout => "BLACKOUT".to_string(),
            Anomaly::LossOnset {
                baseline_pct,
                recent_pct,
            } => {
                format!("loss onset {baseline_pct:.1}% -> {recent_pct:.1}%")
            }
            Anomaly::LatencyShift {
                baseline_ms,
                recent_ms,
                sigmas,
            } => {
                format!("latency shift {baseline_ms:.1}ms -> {recent_ms:.1}ms ({sigmas:.1} sigma)")
            }
        };
        out.push_str(&format!("{}: {what}\n", f.path_id));
    }
    Ok(out)
}

fn cmd_summary(_: &Parsed, s: &Session) -> Result<String, CliError> {
    let summary = upin_core::analysis::summary(&s.db)?;
    let hist = upin_core::analysis::reachability(&s.db)?;
    Ok(format!(
        "{}\n{}",
        upin_core::report::render_summary(&summary),
        upin_core::report::render_fig4(&hist)
    ))
}

/// Execute a literal SCION tool command line, exactly as the paper's
/// scripts spawn them:
///   upin exec "scion ping 16-ffaa:0:1002,[172.31.43.7] -c 30 --interval 0.1s"
fn cmd_exec(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let host = scion_sim::addr::HostAddr::new(10, 0, 2, 15);
    let line = &p.positional[0];
    Ok(scion_tools::shell::execute(&s.net, s.local, host, line)?)
}

fn cmd_evaluate_strategies(p: &Parsed, s: &Session) -> Result<String, CliError> {
    let cfg = upin_core::axioms::EvalConfig {
        epochs: p.get_or("epochs", 4)?,
        objective: objective_from(p)?,
        constraints: Constraints::default(),
        seed: s.seed,
        only: p.opt("strategy").map(String::from),
    };
    let cards = upin_core::axioms::evaluate_strategies(&s.db, &s.net, s.local, &cfg)?;
    upin_core::axioms::store_scorecards(&s.db, &cards, &cfg)?;
    s.persist()?;
    Ok(upin_core::report::render_strategies(&cards))
}

/// Accepts either a longitudinal report saved with `longitudinal run
/// --out` or a bare `churn.json` from `export dataset`.
fn cmd_report_churn(p: &Parsed) -> Result<String, CliError> {
    read_parsed(&p.positional[0], |text| {
        upin_core::LongitudinalReport::from_json_str(text)
            .map(|report| report.render())
            .or_else(|_| upin_core::ChurnReport::from_json_str(text).map(|churn| churn.render()))
    })
}

/// Parse repeated `--weight name=value` options into [`multi::Weights`].
fn weights_from(p: &Parsed) -> Result<Option<upin_core::multi::Weights>, CliError> {
    let specs = p.opt_all("weight");
    if specs.is_empty() {
        return Ok(None);
    }
    let mut w = upin_core::multi::Weights::default();
    for spec in specs {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| CliError::Usage(format!("--weight expects name=value, got {spec:?}")))?;
        let value: f64 = value
            .parse()
            .map_err(|_| CliError::Usage(format!("bad weight value in {spec:?}")))?;
        match name {
            "latency" => w.latency = value,
            "jitter" => w.jitter = value,
            "loss" => w.loss = value,
            "bw-down" => w.bw_down = value,
            "bw-up" => w.bw_up = value,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown weight {other:?} (latency|jitter|loss|bw-down|bw-up)"
                )))
            }
        }
    }
    Ok(Some(w))
}

fn parse_ia(s: &str) -> Result<IsdAsn, CliError> {
    s.parse()
        .map_err(|e| CliError::Usage(format!("bad ISD-AS {s:?}: {e}")))
}

fn parse_addr(s: &str) -> Result<ScionAddr, CliError> {
    s.parse()
        .map_err(|e| CliError::Usage(format!("bad SCION address {s:?}: {e}")))
}

fn objective_from(p: &Parsed) -> Result<Objective, CliError> {
    let name = p.opt("objective").unwrap_or("latency");
    Ok(api::parse_objective(name)?)
}

fn constraints_from(p: &Parsed) -> Result<Constraints, CliError> {
    let mut c = Constraints {
        exclude_countries: p.opt_all("exclude-country").to_vec(),
        exclude_ases: p.opt_all("exclude-as").to_vec(),
        exclude_operators: p.opt_all("exclude-operator").to_vec(),
        max_hops: p.get("max-hops")?,
        ..Constraints::default()
    };
    for isd in p.opt_all("exclude-isd") {
        c.exclude_isds.push(
            isd.parse()
                .map_err(|_| CliError::Usage(format!("bad ISD number {isd:?}")))?,
        );
    }
    Ok(c)
}

/// Resolve a destination given as a server id, a full SCION address, or
/// an ISD-AS (first server in that AS). One resolver for every surface:
/// the service owns the logic (and the error prose), the CLI borrows it.
fn resolve_server(s: &Session, token: &str) -> Result<u32, CliError> {
    Ok(s.service().resolve_destination(token)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&argv)
    }

    #[test]
    fn destinations_lists_21_servers() {
        let out = run_cli(&["destinations"]).unwrap();
        assert!(out.starts_with("21 measurable destinations"), "{out}");
        assert!(out.contains("16-ffaa:0:1002,[172.31.43.7]"));
    }

    #[test]
    fn showpaths_renders_extended() {
        let out = run_cli(&["showpaths", "16-ffaa:0:1002", "-m", "40", "--extended"]).unwrap();
        assert!(out.contains("Available paths"), "{out}");
        assert!(out.contains("MTU: 1472"), "{out}");
    }

    #[test]
    fn ping_with_paper_flags() {
        let out = run_cli(&[
            "ping",
            "16-ffaa:0:1002,[172.31.43.7]",
            "-c",
            "5",
            "--interval",
            "0.1s",
        ])
        .unwrap();
        assert!(out.contains("5 packets transmitted"), "{out}");
    }

    #[test]
    fn ping_refuses_a_count_above_the_probe_limit() {
        // Used to size two vectors by `-c` and abort on the allocation.
        let ireland = "16-ffaa:0:1002,[172.31.43.7]";
        let line = format!("scion ping {ireland} -c 4000000000");
        for args in [
            &["ping", ireland, "-c", "4000000000"][..],
            &["exec", line.as_str()][..],
        ] {
            let msg = run_cli(args).unwrap_err().to_string();
            assert!(
                msg.contains("ping count 4000000000 exceeds the limit of 100000"),
                "{msg}"
            );
        }
    }

    #[test]
    fn bwtest_with_mtu_spec() {
        let out = run_cli(&[
            "bwtest",
            "19-ffaa:0:1303,[141.44.25.144]",
            "-cs",
            "3,MTU,?,12Mbps",
        ])
        .unwrap();
        assert!(out.contains("Achieved bandwidth"), "{out}");
    }

    #[test]
    fn campaign_then_recommend_against_persistent_db() {
        let dir = std::env::temp_dir().join(format!("upin-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();

        let out = run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
        ])
        .unwrap();
        assert!(out.contains("measurement:"), "{out}");

        // A separate invocation reads the persisted database.
        let out = run_cli(&["recommend", "1", "--objective", "latency", "--db", dbflag]).unwrap();
        assert!(out.contains("#1"), "{out}");
        assert!(out.contains("via 17-ffaa:1:eaf"), "{out}");

        let out = run_cli(&["verify", "1", "--db", dbflag]).unwrap();
        assert!(out.contains("intent satisfied"), "{out}");

        let out = run_cli(&["summary", "--db", dbflag]).unwrap();
        assert!(out.contains("Campaign summary"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_with_wal_durability_survives_and_reports_torn_state() {
        let dir = std::env::temp_dir().join(format!("upin-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();

        let out = run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
            "--durability",
            "wal",
        ])
        .unwrap();
        assert!(out.contains("measurement:"), "{out}");
        assert!(dir.join("MANIFEST.json").exists());

        // Simulate a crash mid-write: a WAL tail that never committed.
        std::fs::write(dir.join("wal.999.log"), b"torn-mid-frame").unwrap();
        let out = run_cli(&[
            "campaign",
            "1",
            "--skip",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
            "--durability",
            "wal",
        ])
        .unwrap();
        assert!(out.contains("truncated 14 torn WAL byte(s)"), "{out}");
        assert!(out.contains("measurement:"), "{out}");

        // Third run: the torn tail was repaired, the banner is gone and
        // both campaigns' data is there.
        let out = run_cli(&["summary", "--db", dbflag, "--durability", "wal"]).unwrap();
        assert!(out.contains("Campaign summary"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_none_is_read_only() {
        let dir = std::env::temp_dir().join(format!("upin-cli-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
        ])
        .unwrap();
        let before = std::fs::read_dir(&dir).unwrap().count();

        // A campaign under `--durability none` must not write back.
        run_cli(&[
            "campaign",
            "1",
            "--skip",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
            "--durability",
            "none",
        ])
        .unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), before);

        let err = run_cli(&["campaign", "1", "--db", dbflag, "--durability", "lots"]);
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recommend_with_exclusions() {
        let dir = std::env::temp_dir().join(format!("upin-cli-x-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
        ])
        .unwrap();
        // Destination 1 is AWS Ireland; excluding the US is satisfiable
        // (EU-only paths exist), excluding Switzerland is not (every
        // path starts at MY_AS in Zurich).
        let out = run_cli(&[
            "recommend",
            "1",
            "--exclude-country",
            "United States",
            "--db",
            dbflag,
        ])
        .unwrap();
        assert!(out.contains("#1"));
        let err = run_cli(&[
            "recommend",
            "1",
            "--exclude-country",
            "Switzerland",
            "--db",
            dbflag,
        ]);
        // The classified failure names the stage: nothing matched the
        // metadata constraints at all.
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("matches the constraints"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_strategies_scores_the_full_registry() {
        let dir = std::env::temp_dir().join(format!("upin-cli-strat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        // Bandwidth stats included so widest-path has data to rank on.
        run_cli(&["campaign", "1", "--some-only", "--db", dbflag]).unwrap();

        let out = run_cli(&["evaluate-strategies", "--db", dbflag, "--epochs", "3"]).unwrap();
        assert!(out.contains("Strategy scorecard"), "{out}");
        for name in upin_core::strategy::names() {
            assert!(out.contains(name), "{name} missing from scorecard:\n{out}");
        }

        // The scorecard persists and `report strategies` re-renders it.
        let table = run_cli(&["report", "strategies", "--db", dbflag]).unwrap();
        assert!(table.contains("Strategy scorecard"), "{table}");
        assert!(table.contains("paper"), "{table}");

        // Restricting to one strategy keeps only that row.
        let one = run_cli(&[
            "evaluate-strategies",
            "--db",
            dbflag,
            "--epochs",
            "2",
            "--strategy",
            "shortest-path",
        ])
        .unwrap();
        assert!(one.contains("shortest-path"), "{one}");
        assert!(!one.contains("widest-path"), "{one}");

        let err = run_cli(&["evaluate-strategies", "--db", dbflag, "--strategy", "vibes"]);
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("unknown strategy"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exec_runs_literal_tool_command_lines() {
        let out = run_cli(&["exec", "scion showpaths 16-ffaa:0:1002 --extended -m 5"]).unwrap();
        assert!(out.contains("Available paths"), "{out}");
        let out = run_cli(&[
            "exec",
            "scion ping 16-ffaa:0:1002,[172.31.43.7] -c 3 --interval 0.1s",
        ])
        .unwrap();
        assert!(out.contains("3 packets transmitted"), "{out}");
        assert!(matches!(
            run_cli(&["exec", "rm -rf /"]),
            Err(CliError::Tool(_))
        ));
    }

    #[test]
    fn failover_command_reports_session() {
        let ireland = "16-ffaa:0:1002,[172.31.43.7]";
        let final_path = |out: &str| {
            let line = out.lines().find(|l| l.starts_with("final path:"));
            line.unwrap_or_else(|| panic!("{out}")).to_string()
        };
        let healthy = run_cli(&["failover", ireland, "--probes", "8"]).unwrap();
        assert!(healthy.contains("8 probes over"), "{healthy}");
        assert!(healthy.contains(" 0 switch(es)"), "{healthy}");

        // The same network, except that the link the top-ranked path
        // takes out of the ETHZ core drops every packet: the session
        // must detect it and finish on a path that avoids the link.
        let topo = scion_sim::topology::scionlab::scionlab_topology();
        let idx = |ia: &str| topo.index_of(ia.parse().unwrap()).unwrap();
        let ends = [idx("17-ffaa:0:1101"), idx("19-ffaa:0:1301")];
        let dead = topo
            .links()
            .position(|(_, l)| [l.a, l.b] == ends || [l.b, l.a] == ends)
            .unwrap();
        let mut json: serde_json::Value = serde_json::from_str(&topo.to_json_string()).unwrap();
        let Some(serde_json::Value::Array(links)) = json.as_object_mut().unwrap().get_mut("links")
        else {
            panic!("topology JSON has a links array");
        };
        for dir in ["ab", "ba"] {
            let attrs = links[dead].as_object_mut().unwrap().get_mut(dir).unwrap();
            let attrs = attrs.as_object_mut().unwrap();
            attrs.insert("base_loss".into(), serde_json::Value::from(1.0));
        }
        let file = std::env::temp_dir().join(format!("upin-cli-fo-{}.json", std::process::id()));
        std::fs::write(&file, serde_json::to_string(&json).unwrap()).unwrap();
        let out = run_cli(&["failover", ireland, "--topology", file.to_str().unwrap()]).unwrap();
        std::fs::remove_file(&file).unwrap();
        assert!(out.contains("30 probes over"), "{out}");
        assert!(!out.contains(" 0 switch(es)"), "{out}");
        assert_ne!(final_path(&out), final_path(&healthy), "{out}");
        assert!(
            !final_path(&out).contains("17-ffaa:0:1101#3,2 19-"),
            "{out}"
        );
    }

    #[test]
    fn longitudinal_run_exports_and_rerenders() {
        let dir = std::env::temp_dir().join(format!("upin-cli-longi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("db");
        let saved = dir.join("report.json");
        let data = dir.join("dataset");

        let out = run_cli(&[
            "longitudinal",
            "run",
            "--sim-days",
            "2",
            "--rounds-per-day",
            "2",
            "--retention-hours",
            "12",
            "--db",
            db.to_str().unwrap(),
            "--out",
            saved.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            out.contains("Longitudinal run: 2 sim-days, 4 rounds"),
            "{out}"
        );
        assert!(out.contains("Path churn"), "{out}");
        assert!(
            out.contains("disk:"),
            "durable run reports footprint: {out}"
        );

        // `report churn` re-renders the saved report byte-identically.
        let again = run_cli(&["report", "churn", saved.to_str().unwrap()]).unwrap();
        assert!(out.ends_with(&again), "{again}");

        // The dataset export rides the same database.
        let out = run_cli(&[
            "export",
            "dataset",
            "--out",
            data.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("rollups.csv"), "{out}");
        let rollups = std::fs::read_to_string(data.join("rollups.csv")).unwrap();
        assert!(rollups.lines().count() > 1, "{rollups}");
        let churn = std::fs::read_to_string(data.join("churn.json")).unwrap();
        let parsed = upin_core::ChurnReport::from_json_str(&churn).unwrap();
        assert!(parsed.tracked_paths > 0);

        // A bare churn.json renders through the fallback arm.
        let via_file =
            run_cli(&["report", "churn", data.join("churn.json").to_str().unwrap()]).unwrap();
        assert!(via_file.contains("Path churn"), "{via_file}");

        let err = run_cli(&["longitudinal", "sideways"]);
        assert!(matches!(err, Err(CliError::Usage(_))));
        let err = run_cli(&["export", "dataset"]);
        assert!(matches!(err, Err(CliError::Usage(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_run_exports_a_report_that_report_chaos_rerenders() {
        use scion_sim::chaos::{ChaosSchedule, Dwell, LinkFlap};
        use scion_sim::topology::scionlab::{ETHZ_AP, ETHZ_CORE};
        let dir = std::env::temp_dir().join(format!("upin-cli-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut schedule = ChaosSchedule::new(7, 60_000.0);
        schedule.flaps.push(LinkFlap {
            a: ETHZ_CORE,
            b: ETHZ_AP,
            first_down_ms: 5_000.0,
            down: Dwell::fixed(10_000.0),
            up: Dwell::fixed(600_000.0),
        });
        let sched = dir.join("flaps.json");
        std::fs::write(&sched, schedule.to_json_string()).unwrap();
        let saved = dir.join("report.json");

        let out = run_cli(&[
            "chaos",
            "run",
            "--schedule",
            sched.to_str().unwrap(),
            "--ticks",
            "8",
            "--tick-interval-ms",
            "1000",
            "--sla-ms",
            "500",
            "--out",
            saved.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("switch SLA 500 ms"), "{out}");
        assert!(out.contains("availability"), "{out}");

        // The exported JSON round-trips through `report chaos` and
        // renders the very same table.
        let again = run_cli(&["report", "chaos", saved.to_str().unwrap()]).unwrap();
        assert!(out.starts_with(&again), "{out}\n---\n{again}");

        let err = run_cli(&["chaos", "run", "--schedule", "/no/such/file.json"]);
        assert!(matches!(err, Err(CliError::Io(_))), "{err:?}");
        let err = run_cli(&["chaos", "wiggle", "--schedule", sched.to_str().unwrap()]);
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("unknown chaos subcommand"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ping_with_policy_flag() {
        let out = run_cli(&[
            "ping",
            "16-ffaa:0:1002,[172.31.43.7]",
            "-c",
            "3",
            "--policy",
            "- 16-ffaa:0:1004, +",
        ])
        .unwrap();
        assert!(out.contains("3 packets transmitted"), "{out}");
        assert!(!out.contains("16-ffaa:0:1004"), "{out}");
    }

    #[test]
    fn topology_renders_the_map() {
        let out = run_cli(&["topology"]).unwrap();
        assert!(out.contains("36 ASes in 8 ISDs"), "{out}");
        assert!(out.contains("[user] 17-ffaa:1:eaf"));
    }

    #[test]
    fn pareto_and_weighted_modes() {
        let dir = std::env::temp_dir().join(format!("upin-cli-p-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        // Bandwidth stats are needed for the default Pareto criteria.
        run_cli(&["campaign", "1", "--some-only", "--db", dbflag]).unwrap();

        let out = run_cli(&["recommend", "1", "--pareto", "--db", dbflag]).unwrap();
        assert!(out.contains("Pareto-optimal"), "{out}");
        assert!(out.contains("* 1_"), "{out}");

        let out = run_cli(&[
            "recommend",
            "1",
            "--weight",
            "latency=5",
            "--weight",
            "loss=1",
            "--db",
            dbflag,
        ])
        .unwrap();
        assert!(out.contains("#1 ["), "{out}");

        let err = run_cli(&["recommend", "1", "--weight", "vibes=1", "--db", dbflag]);
        assert!(matches!(err, Err(CliError::Usage(_))));
        let err = run_cli(&["recommend", "1", "--weight", "latency", "--db", dbflag]);
        assert!(matches!(err, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The service migration must not move a byte of CLI output. These
    /// literals were captured from the pre-service binary (seed 42,
    /// `campaign 1 --some-only --db DIR`, SCIONLab topology) — recommend
    /// in all three modes plus showpaths, full-string compared.
    #[test]
    fn service_migration_pins_pre_service_cli_output_bytes() {
        let dir = std::env::temp_dir().join(format!("upin-cli-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        run_cli(&["campaign", "1", "--some-only", "--db", dbflag]).unwrap();

        let out = run_cli(&["recommend", "1", "--objective", "latency", "--db", dbflag]).unwrap();
        assert_eq!(
            out,
            "#1 1_0  hops=6 samples=1 latency=25.2 ms loss=0.0% down=12.0 Mbps\n    \
             via 17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,1 17-ffaa:0:1101#3,2 19-ffaa:0:1301#1,3 16-ffaa:0:1001#1,3 16-ffaa:0:1002#1,0\n\
             #2 1_1  hops=6 samples=1 latency=27.2 ms loss=0.0% down=12.0 Mbps\n    \
             via 17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,2 17-ffaa:0:1102#3,2 19-ffaa:0:1301#2,3 16-ffaa:0:1001#1,3 16-ffaa:0:1002#1,0\n\
             #3 1_2  hops=7 samples=1 latency=27.5 ms loss=0.0% down=11.9 Mbps\n    \
             via 17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,1 17-ffaa:0:1101#3,1 17-ffaa:0:1102#1,2 19-ffaa:0:1301#2,3 16-ffaa:0:1001#1,3 16-ffaa:0:1002#1,0\n"
        );

        let out = run_cli(&["recommend", "1", "--pareto", "--db", dbflag]).unwrap();
        assert_eq!(
            out,
            "2 Pareto-optimal path(s) over latency/loss/downstream:\n\
             * 1_0  hops=6 samples=1 latency=25.2 ms loss=0.0% down=12.0 Mbps\n    \
             via 17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,1 17-ffaa:0:1101#3,2 19-ffaa:0:1301#1,3 16-ffaa:0:1001#1,3 16-ffaa:0:1002#1,0\n\
             * 1_6  hops=7 samples=1 latency=177.9 ms loss=3.3% down=12.0 Mbps\n    \
             via 17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,1 17-ffaa:0:1101#3,2 19-ffaa:0:1301#1,4 18-ffaa:0:1201#1,2 16-ffaa:0:1001#2,3 16-ffaa:0:1002#1,0\n"
        );

        let out = run_cli(&[
            "recommend",
            "1",
            "--weight",
            "latency=5",
            "--weight",
            "loss=1",
            "--db",
            dbflag,
        ])
        .unwrap();
        assert!(
            out.starts_with(
                "#1 [0.000] 1_0  hops=6 samples=1 latency=25.2 ms loss=0.0% down=12.0 Mbps"
            ),
            "{out}"
        );
        assert!(out.contains("#2 [0.007] 1_1 "), "{out}");
        assert!(out.contains("#3 [0.008] 1_2 "), "{out}");

        let out = run_cli(&["showpaths", "16-ffaa:0:1002", "-m", "3", "--extended"]).unwrap();
        assert_eq!(
            out,
            "Available paths to 16-ffaa:0:1002 (3 shown)\n\
             [ 0] 17-ffaa:1:eaf 1>3 17-ffaa:0:1107 1>3 17-ffaa:0:1101 2>1 19-ffaa:0:1301 3>1 16-ffaa:0:1001 3>1 16-ffaa:0:1002 MTU: 1472 Latency: 12.33ms Status: alive Hops: 6\n\
             [ 1] 17-ffaa:1:eaf 1>3 17-ffaa:0:1107 2>3 17-ffaa:0:1102 2>2 19-ffaa:0:1301 3>1 16-ffaa:0:1001 3>1 16-ffaa:0:1002 MTU: 1472 Latency: 13.35ms Status: alive Hops: 6\n\
             [ 2] 17-ffaa:1:eaf 1>3 17-ffaa:0:1107 1>3 17-ffaa:0:1101 1>1 17-ffaa:0:1102 2>2 19-ffaa:0:1301 3>1 16-ffaa:0:1001 3>1 16-ffaa:0:1002 MTU: 1472 Latency: 13.50ms Status: alive Hops: 7\n"
        );

        let out = run_cli(&["showpaths", "16-ffaa:0:1002"]).unwrap();
        assert!(
            out.starts_with("Available paths to 16-ffaa:0:1002 (10 shown)\n[ 0] 17-ffaa:1:eaf 1>3"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_reports_the_constraint_funnel() {
        let dir = std::env::temp_dir().join(format!("upin-cli-eval-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
        ])
        .unwrap();

        let out = run_cli(&["evaluate", "1", "--db", dbflag]).unwrap();
        assert!(out.contains("constraint funnel for destination 1"), "{out}");
        assert!(out.contains("stored paths:"), "{out}");
        assert!(out.contains("scorable (latency):"), "{out}");

        // An unsatisfiable exclusion shows up as zero matches, not an
        // error — the funnel is a diagnostic, not a selection.
        let out = run_cli(&[
            "evaluate",
            "1",
            "--exclude-country",
            "Switzerland",
            "--db",
            dbflag,
        ])
        .unwrap();
        assert!(out.contains("match constraints:   0"), "{out}");

        // A server id no snapshot holds is unknown, as an unregistered
        // ISD-AS is: no funnel, no "all paths healthy".
        for command in ["evaluate", "health", "recommend"] {
            let err = run_cli(&[command, "99", "--db", dbflag]).unwrap_err();
            assert!(
                matches!(&err, CliError::Service(e) if e.code == api::ErrorCode::UnknownDestination),
                "{command}: {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_answers_json_request_lines_in_order() {
        let dir = std::env::temp_dir().join(format!("upin-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dbflag = dir.to_str().unwrap();
        run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--db",
            dbflag,
        ])
        .unwrap();

        // No --requests: the daemon answers a single Health probe.
        let out = run_cli(&["serve", "--db", dbflag]).unwrap();
        assert!(out.contains("\"Health\""), "{out}");

        let reqs = dir.join("requests.jsonl");
        std::fs::write(
            &reqs,
            "\"Health\"\n\
             {\"Recommend\": {\"destination\": \"1\", \"k\": 2}}\n\
             {\"ShowPaths\": {\"destination\": \"16-ffaa:0:1002\", \"max_paths\": 2}}\n\
             {\"Recommend\": {\"destination\": \"no-such\", \"k\": 1}}\n\
             not even json\n\
             {\"Recommend\":{\"destination\":\"1\",\"k\":3,\"weights\":{\"latency\":1e999}}}\n\
             {\"Recommend\":{\"destination\":\"1\",\"k\":3,\"weights\":{\"latency\":-1}}}\n\
             {\"Recommend\":{\"destination\":\"1\",\"k\":3,\"weights\":{}}}\n\
             {\"EvaluateConstraint\": {\"destination\": \"1\"}}\n\
             {\"StrategyScore\": {\"destination\": \"1\", \"strategy\": \"paper\", \"k\": 3}}\n",
        )
        .unwrap();
        let serve = |threads: &str| {
            let reqs = reqs.to_str().unwrap();
            let args = [
                "serve",
                "--db",
                dbflag,
                "--threads",
                threads,
                "--requests",
                reqs,
            ];
            run_cli(&args).unwrap()
        };
        let out = serve("3");
        assert_eq!(out, serve("1"), "the pool must not move a byte");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 10, "{out}");
        assert!(lines[0].contains("\"Health\""), "{}", lines[0]);
        assert!(lines[1].contains("\"Recommend\""), "{}", lines[1]);
        assert!(lines[2].contains("\"ShowPaths\""), "{}", lines[2]);
        assert!(lines[3].contains("\"Error\""), "{}", lines[3]);
        assert!(lines[4].contains("\"InvalidRequest\""), "{}", lines[4]);
        // Hostile weights (an infinite one, a negative one, none at
        // all) are answered with an error, never a panic.
        assert!(lines[5].contains("\"InvalidRequest\""), "{}", lines[5]);
        assert!(lines[6].contains("\"InvalidRequest\""), "{}", lines[6]);
        assert!(lines[7].contains("\"Error\""), "{}", lines[7]);
        assert!(
            lines[8].starts_with("{\"EvaluateConstraint\""),
            "{}",
            lines[8]
        );
        assert!(lines[9].starts_with("{\"StrategyScore\""), "{}", lines[9]);
        // `--weight` goes through the same check.
        let err = run_cli(&["recommend", "1", "--weight", "latency=inf", "--db", dbflag]);
        assert!(
            matches!(&err, Err(CliError::Service(e)) if e.code == api::ErrorCode::InvalidRequest),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_some_only_spelling_is_gone() {
        // The hidden --some_only alias was removed with the service
        // migration; only the documented kebab-case spelling parses.
        let err = run_cli(&["campaign", "1", "--some_only", "--no-bwtests"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn metrics_out_is_deterministic_and_reportable() {
        let dir = std::env::temp_dir().join(format!("upin-cli-tel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("m1.json");
        let m2 = dir.join("m2.json");
        let trace = dir.join("trace.json");

        let out = run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--metrics-out",
            m1.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("telemetry: metrics written to"), "{out}");
        assert!(out.contains("telemetry: trace written to"), "{out}");

        // Same seed, same command → byte-identical metrics export; the
        // banner disappears under --quiet.
        let out = run_cli(&[
            "campaign",
            "1",
            "--some-only",
            "--no-bwtests",
            "--metrics-out",
            m2.to_str().unwrap(),
            "--quiet",
        ])
        .unwrap();
        assert!(!out.contains("telemetry:"), "{out}");
        let j1 = std::fs::read_to_string(&m1).unwrap();
        let j2 = std::fs::read_to_string(&m2).unwrap();
        assert_eq!(j1, j2, "same seed must export identical metrics");
        assert!(j1.contains("campaign.destination_ms"), "{j1}");

        // The trace export carries the span tree.
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"campaign\""), "{t}");
        assert!(t.contains("campaign.attempt"), "{t}");

        // `report telemetry` renders a human summary of the export.
        let table = run_cli(&["report", "telemetry", m1.to_str().unwrap()]).unwrap();
        assert!(table.contains("campaign.docs_inserted"), "{table}");
        let err = run_cli(&["report", "vibes", m1.to_str().unwrap()]);
        assert!(matches!(err, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn topo_generate_roundtrips_through_showpaths_and_campaign() {
        let dir = std::env::temp_dir().join(format!("upin-cli-topo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("topo.json");
        let path = file.to_str().unwrap();

        let out = run_cli(&[
            "topo", "generate", "--seed", "7", "--isds", "3", "--ases", "6,9", "--cores", "2",
            "--out", path,
        ])
        .unwrap();
        assert!(out.contains("ASes in 3 ISDs"), "{out}");
        assert!(out.contains("user AS"), "{out}");

        // The generated file drives DB-backed commands end to end; the
        // beacon cap bounds the control plane without breaking paths.
        let out = run_cli(&[
            "campaign",
            "1",
            "--no-bwtests",
            "--topology",
            path,
            "--beacon-cap",
            "4",
        ])
        .unwrap();
        assert!(out.contains("measurement:"), "{out}");

        // Without --out the raw JSON goes to stdout and reparses.
        let json = run_cli(&["topo", "generate", "--seed", "7", "--isds", "2"]).unwrap();
        assert!(scion_sim::topology::Topology::from_json_str(&json).is_ok());

        // Bad sub-knobs are usage errors, not panics.
        assert!(matches!(
            run_cli(&["topo", "generate", "--ases", "9,3"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&["topo", "generate", "--peering-prob", "1.5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&["topo", "list"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generated_topology_showpaths_reaches_a_core() {
        let dir = std::env::temp_dir().join(format!("upin-cli-topo-sp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("topo.json");
        let path = file.to_str().unwrap();
        run_cli(&["topo", "generate", "--seed", "11", "--out", path]).unwrap();

        // Find a destination AS from the file itself, then ask for paths
        // to it from the designated user AS.
        let text = std::fs::read_to_string(&file).unwrap();
        let topo = scion_sim::topology::Topology::from_json_str(&text).unwrap();
        let dst = topo
            .ases()
            .find(|(_, n)| n.kind.is_core())
            .map(|(_, n)| n.ia)
            .unwrap();
        let out = run_cli(&["showpaths", &dst.to_string(), "--topology", path]).unwrap();
        assert!(out.contains("Available paths"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_errors_are_friendly() {
        assert!(matches!(run_cli(&["wat"]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&["showpaths"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_cli(&["showpaths", "not-an-ia"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&["recommend", "1", "--objective", "vibes"]),
            Err(CliError::Usage(_))
        ));
        let help = run_cli(&["help"]).unwrap();
        assert!(help.contains("commands:"));
    }

    #[test]
    fn subcommands_are_one_lookup() {
        let msg = run_cli(&["report", "vibes"]).unwrap_err().to_string();
        assert!(
            msg.contains("(expected: telemetry, strategies, chaos, churn)"),
            "{msg}"
        );
        // Every family of `"<command> <sub>"` rows asks for the word it
        // is missing.
        let families: std::collections::BTreeSet<&str> = COMMANDS
            .iter()
            .filter_map(|c| Some(c.name.split_once(' ')?.0))
            .collect();
        assert!(families.contains("chaos"), "{families:?}");
        for family in families {
            let err = run_cli(&[family]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{family}: {err:?}");
            let msg = err.to_string();
            let wanted = format!("{family} needs a subcommand (expected: ");
            assert!(msg.contains(&wanted), "{msg}");
        }
        // A malformed invocation answers with the row's own help lines.
        let msg = run_cli(&["report", "telemetry"]).unwrap_err().to_string();
        assert!(msg.contains("report telemetry <metrics.json>"), "{msg}");
        assert!(!msg.contains("report chaos"), "{msg}");
    }

    /// Rows that open no session take none of its options: they used to
    /// be parsed and dropped (`report telemetry m.json --metrics-out
    /// x.json` wrote no `x.json`).
    #[test]
    fn report_rows_without_a_session_refuse_session_options() {
        for report in ["telemetry", "chaos", "churn"] {
            for option in [&["--metrics-out", "x.json"][..], &["--db", "nowhere"]] {
                let mut args = vec!["report", report, "/no/such/export.json"];
                args.extend(option);
                let err = run_cli(&args).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{report}: {err:?}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("unknown option {}", option[0])),
                    "{msg}"
                );
            }
        }
    }

    /// The option tokens (`--opt`, `-o`) in a piece of help text,
    /// dashes stripped.
    fn option_tokens(text: &str) -> Vec<&str> {
        text.split(|c: char| c.is_whitespace() || "[]()|*,".contains(c))
            .filter_map(|t| t.strip_prefix("--").or_else(|| t.strip_prefix('-')))
            .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic()))
            .collect()
    }

    #[test]
    fn every_row_agrees_with_its_help_lines() {
        let filters = COMMANDS.iter().find(|c| c.name == "recommend").unwrap();
        for (i, row) in COMMANDS.iter().enumerate() {
            let name = row.name;
            assert!(COMMANDS[..i].iter().all(|c| c.name != name), "{name} twice");
            assert!(row.help.trim_start().starts_with(name), "{name}");
            let session = !matches!(row.run, Run::Plain(_));
            let spec = if session {
                with_globals((row.spec)())
            } else {
                (row.spec)()
            };

            // Every option the row parses is mentioned in `upin help`:
            // in its own lines, in the filter block they point to, or
            // in the global block.
            let mut mentioned = option_tokens(row.help);
            if row.help.contains("[same filters]") {
                mentioned.extend(option_tokens(filters.help));
            }
            if session {
                mentioned.extend(option_tokens(GLOBAL_HELP));
            }
            for option in spec.names() {
                assert!(
                    mentioned.contains(&option),
                    "{name} parses --{option}, which `upin help` never mentions"
                );
            }

            // Every option the row's synopsis shows parses for the row.
            // The description column (after a wider gap) is prose.
            for line in row.help.lines() {
                let synopsis = line.trim_start().split("  ").next().unwrap();
                for option in option_tokens(synopsis) {
                    assert!(
                        spec.names().any(|n| n == option),
                        "`upin help` shows --{option} on {name}, which does not parse"
                    );
                }
            }
        }
    }

    /// `upin <tool> ...` and `upin exec "scion <tool> ..."` read their
    /// options through one table and one reader per tool, so the same
    /// option strings give the same report on both faces.
    #[test]
    fn tool_rows_and_exec_take_the_same_options() {
        let ireland = "16-ffaa:0:1002,[172.31.43.7]";
        let magdeburg = "19-ffaa:0:1303,[141.44.25.144]";
        let policy = "- 16-ffaa:0:1004, +";
        let sequence = scion_sim::net::ScionNetwork::scionlab(42)
            .paths(
                scion_sim::topology::scionlab::MY_AS,
                "16-ffaa:0:1002".parse().unwrap(),
                2,
            )
            .pop()
            .unwrap()
            .sequence();
        let cases: [(&str, &str, &[&str]); 12] = [
            ("ping", ireland, &["-c", "2", "--interval", "0.1s"]),
            ("ping", ireland, &["--count", "2", "--timeout", "1s"]),
            ("ping", ireland, &["-c", "2", "--policy", policy]),
            ("ping", ireland, &["-c", "2", "--sequence", &sequence]),
            ("ping", ireland, &["-c", "2", "--interactive", "3"]),
            ("traceroute", "16-ffaa:0:1002", &[]),
            ("traceroute", "16-ffaa:0:1002", &["--policy", policy]),
            ("traceroute", "16-ffaa:0:1002", &["--sequence", &sequence]),
            ("bwtest", magdeburg, &["-cs", "3,64,?,12Mbps"]),
            (
                "bwtest",
                ireland,
                &[
                    "-cs",
                    "1,64,?,5Mbps",
                    "-sc",
                    "1,MTU,?,8Mbps",
                    "--policy",
                    policy,
                ],
            ),
            ("showpaths", "16-ffaa:0:1002", &["-m", "5", "--extended"]),
            ("showpaths", "16-ffaa:0:1002", &["--maxpaths", "3"]),
        ];
        for (tool, dst, options) in cases {
            let mut args = vec![tool, dst];
            args.extend(options);
            let direct = run_cli(&args).unwrap();
            // The row leads `ping`/`bwtest` reports with the path used.
            let body = match direct.strip_prefix("using path: ") {
                Some(rest) => rest.split_once('\n').unwrap().1,
                None => &direct,
            };

            let mut line = match tool {
                "bwtest" => format!("scion-bwtestclient -s {dst}"),
                _ => format!("scion {tool} {dst}"),
            };
            for option in options {
                line.push_str(&format!(" '{option}'"));
            }
            let via_exec = run_cli(&["exec", &line]).unwrap();
            assert_eq!(body, via_exec, "{line}");
        }
    }
}
