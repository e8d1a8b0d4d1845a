//! CLI session state: the simulated network plus the persistent
//! database.

use pathdb::{Database, Durability, RecoveryReport};
use scion_sim::addr::IsdAsn;
use scion_sim::beacon::BeaconConfig;
use scion_sim::net::ScionNetwork;
use scion_sim::topology::scionlab::MY_AS;
use scion_sim::topology::{AsKind, Topology};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use upin_telemetry::Telemetry;

/// CLI-level errors, rendered to stderr by `main`.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Suite(upin_core::SuiteError),
    /// A request the typed service refused, printed as it renders it.
    Service(upin_core::ServiceError),
    Tool(scion_tools::ToolError),
    Db(pathdb::DbError),
    Verification(String),
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Suite(e) => write!(f, "{e}"),
            CliError::Service(e) => f.write_str(&e.render()),
            CliError::Tool(e) => write!(f, "{e}"),
            CliError::Db(e) => write!(f, "{e}"),
            CliError::Verification(m) => write!(f, "verification failed: {m}"),
            CliError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Every `Result<_, String>` the CLI meets is a message from an
/// argument reader or a configuration's `validate()`: a usage error.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}
impl From<upin_core::SuiteError> for CliError {
    fn from(e: upin_core::SuiteError) -> Self {
        CliError::Suite(e)
    }
}
impl From<scion_tools::ToolError> for CliError {
    fn from(e: scion_tools::ToolError) -> Self {
        CliError::Tool(e)
    }
}
impl From<pathdb::DbError> for CliError {
    fn from(e: pathdb::DbError) -> Self {
        CliError::Db(e)
    }
}

impl From<upin_core::ServiceError> for CliError {
    fn from(e: upin_core::ServiceError) -> Self {
        CliError::Service(e)
    }
}

/// Everything the global CLI options decide about a session.
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionOptions {
    pub seed: u64,
    pub db_dir: Option<String>,
    pub durability: Option<String>,
    /// `--trace-out FILE`: write the span tree as JSON on completion.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out FILE`: write the metrics registry as JSON.
    pub metrics_out: Option<PathBuf>,
    /// `--quiet`: suppress recovery and telemetry banners.
    pub quiet: bool,
    /// `--topology FILE`: run over a topology JSON (e.g. one written by
    /// `upin topo generate`) instead of the SCIONLab replica. The local
    /// AS becomes the file's designated user AS.
    pub topology: Option<PathBuf>,
    /// `--beacon-cap N`: keep at most N beacons per (origin,
    /// destination) pair during beaconing — the knob that makes
    /// 1000-AS topologies tractable. Default: exhaustive.
    pub beacon_cap: Option<usize>,
}

/// One CLI invocation's environment. The network and database are
/// `Arc`'d so the typed service (`Session::service`) can share them
/// across `upin serve`'s threads; `&s.db` / `&s.net` still deref to
/// plain references everywhere else.
pub struct Session {
    pub net: Arc<ScionNetwork>,
    pub db: Arc<Database>,
    pub local: IsdAsn,
    /// The `--seed` the session was opened with; seedable service
    /// requests default to it.
    pub seed: u64,
    /// What recovery found when opening a durable database — commands
    /// surface it to the user when it is not [`RecoveryReport::clean`].
    pub recovery: Option<RecoveryReport>,
    /// Collecting recorder, present when `--trace-out` or
    /// `--metrics-out` was given; attached to the database (before
    /// recovery) and the network.
    pub telemetry: Option<Arc<Telemetry>>,
    pub quiet: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

/// The vantage point of a loaded topology: the designated user AS when
/// one is marked, else the first non-core AS, else the first AS at all.
fn local_as_of(topo: &Topology) -> Option<IsdAsn> {
    topo.ases()
        .find(|(_, n)| n.kind == AsKind::User)
        .or_else(|| topo.ases().find(|(_, n)| !n.kind.is_core()))
        .or_else(|| topo.ases().next())
        .map(|(_, n)| n.ia)
}

impl Session {
    /// Open a session: bring up the simulated network (the SCIONLab
    /// replica, or `--topology FILE`) and open the database directory
    /// at the requested durability level (`--durability
    /// {none,snapshot,wal}`, default `snapshot`; without `--db` the
    /// database lives in memory).
    ///
    /// `none` keeps the legacy behavior — load the directory if it
    /// exists, never write back implicitly; `snapshot` and `wal` run
    /// crash recovery on open and persist on [`Session::persist`].
    ///
    /// When `--trace-out` or `--metrics-out` is requested, a collecting
    /// [`Telemetry`] recorder is attached to both the database (from
    /// the first moment of recovery, so WAL replay timings are
    /// captured) and the simulated network.
    pub(crate) fn open_with(opts: SessionOptions) -> Result<Session, CliError> {
        let telemetry = if opts.trace_out.is_some() || opts.metrics_out.is_some() {
            Some(Arc::new(Telemetry::new()))
        } else {
            None
        };
        let recorder = telemetry
            .clone()
            .map(|t| t as Arc<dyn upin_telemetry::Recorder>);

        let mut beacon_cfg = BeaconConfig::default();
        if let Some(cap) = opts.beacon_cap {
            beacon_cfg.beacons_per_pair = cap;
        }
        let (mut net, local) = match &opts.topology {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
                let topo = Topology::from_json_str(&text)
                    .map_err(|e| CliError::Usage(format!("{}: {e}", path.display())))?;
                let local = local_as_of(&topo).ok_or_else(|| {
                    CliError::Usage(format!(
                        "{}: topology has no usable local AS",
                        path.display()
                    ))
                })?;
                (
                    ScionNetwork::with_beacon_config(topo, opts.seed, &beacon_cfg),
                    local,
                )
            }
            None => (
                ScionNetwork::with_beacon_config(
                    scion_sim::topology::scionlab::scionlab_topology(),
                    opts.seed,
                    &beacon_cfg,
                ),
                MY_AS,
            ),
        };
        if let Some(rec) = &recorder {
            net.set_recorder(rec.clone());
        }
        let db_dir = opts.db_dir.as_deref().map(PathBuf::from);
        let durability = match opts.durability.as_deref() {
            Some(level) => level.parse::<Durability>().map_err(CliError::Usage)?,
            None => Durability::Snapshot,
        };
        let (db, recovery) = match &db_dir {
            Some(dir) if durability != Durability::None => {
                let mut open = pathdb::OpenOptions::new(durability);
                open.recorder = recorder.clone();
                let (db, report) = Database::open_durable_with(dir, open)?;
                (db, Some(report))
            }
            Some(dir) if Path::exists(dir) => {
                let mut db = Database::load_dir(dir)?;
                db.set_recorder(recorder.clone());
                (db, None)
            }
            _ => {
                let mut db = Database::new();
                db.set_recorder(recorder.clone());
                (db, None)
            }
        };
        Ok(Session {
            net: Arc::new(net),
            db: Arc::new(db),
            local,
            seed: opts.seed,
            recovery,
            telemetry,
            quiet: opts.quiet,
            trace_out: opts.trace_out,
            metrics_out: opts.metrics_out,
        })
    }

    /// Write the requested telemetry exports (`--trace-out`,
    /// `--metrics-out`). Returns the banner lines to show the user —
    /// empty under `--quiet` or when no export was requested.
    pub(crate) fn export_telemetry(&self) -> Result<String, CliError> {
        let Some(t) = &self.telemetry else {
            return Ok(String::new());
        };
        let mut banner = String::new();
        if let Some(path) = &self.trace_out {
            std::fs::write(path, t.trace_json())
                .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
            banner.push_str(&format!("telemetry: trace written to {}\n", path.display()));
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, t.metrics_json())
                .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
            banner.push_str(&format!(
                "telemetry: metrics written to {}\n",
                path.display()
            ));
        }
        if self.quiet {
            banner.clear();
        }
        Ok(banner)
    }

    /// Ensure `availableServers` is populated (idempotent bootstrap for
    /// DB-backed commands on a fresh database).
    pub(crate) fn ensure_servers(&self) -> Result<(), CliError> {
        if !self.db.has_collection(upin_core::schema::AVAILABLE_SERVERS)
            || self
                .db
                .collection(upin_core::schema::AVAILABLE_SERVERS)
                .read()
                .is_empty()
        {
            upin_core::collect::register_available_servers(&self.db, &self.net)?;
        }
        Ok(())
    }

    /// The typed path-intelligence service over this session's state —
    /// the one dispatcher `recommend`, `showpaths`, `evaluate` and
    /// `serve` all answer through.
    pub(crate) fn service(&self) -> upin_core::PathIntelService {
        upin_core::PathIntelService::new(
            Arc::clone(&self.db),
            Arc::clone(&self.net),
            self.local,
            self.seed,
        )
    }

    /// Run a measuring command (`campaign`, `longitudinal run`) on the
    /// network it appends with. On a database without samples that is
    /// the session's network. Otherwise the clock, which every process
    /// starts at 0, resumes past the newest stored sample, so the run
    /// mints no stat `_id` the database already holds; and the run goes
    /// on a fork salted with the resumed clock, so it draws afresh
    /// instead of replaying an earlier process's draws. The session
    /// clock follows the fork.
    pub(crate) fn measure<T>(&self, run: impl FnOnce(&ScionNetwork) -> T) -> T {
        let Some(newest) = newest_sample_ms(&self.db) else {
            return run(&self.net);
        };
        self.net.advance_ms(newest as f64 + 1.0 - self.net.now_ms());
        let fork = self.net.fork(self.net.now_ms().to_bits());
        let out = run(&fork);
        self.net.advance_ms(fork.now_ms() - self.net.now_ms());
        out
    }

    /// Persist the database if a directory was configured: an atomic
    /// checkpoint of what changed under `snapshot` and `wal` durability
    /// (which also truncates the WAL), nothing under `none`.
    pub(crate) fn persist(&self) -> Result<(), CliError> {
        self.db.checkpoint_if_durable()?;
        Ok(())
    }
}

/// The `timestamp_ms` of the newest stored sample, if any.
fn newest_sample_ms(db: &Database) -> Option<i64> {
    use upin_core::schema::PATHS_STATS;
    if !db.has_collection(PATHS_STATS) {
        return None;
    }
    let stats = db.collection(PATHS_STATS);
    let newest = stats
        .read()
        .query_all()
        .sort_by("timestamp_ms", pathdb::Order::Desc)
        .first()?;
    newest.get("timestamp_ms")?.as_int()
}
