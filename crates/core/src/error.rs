//! Error type of the measurement suite and selection engine.

use pathdb::DbError;
use scion_tools::ToolError;
use std::fmt;

/// Why a selection request produced an empty ranking — the three
/// distinguishable stages of [`crate::select::recommend`], with the
/// candidate counts at each stage so the caller (and the CLI user) can
/// tell "nothing matches your exclusions" apart from "everything was
/// gated" and "nothing carries the statistic you asked to rank by".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionFailure {
    /// No stored path passed the metadata constraints (exclusions, hop
    /// bound, liveness) at all.
    NoMatch { server_id: u32 },
    /// Paths matched the constraints, but every one was removed by the
    /// `min_samples` / `max_loss_pct` statistics gates.
    AllGated { server_id: u32, matched: usize },
    /// Paths survived the gates, but none carries the objective's
    /// statistic (e.g. a jitter ranking over ping-less paths).
    AllUnscorable {
        server_id: u32,
        matched: usize,
        gated: usize,
    },
}

impl fmt::Display for SelectionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The typed service payload owns the prose; this Display — and
        // through it the CLI — is a pure renderer over it.
        f.write_str(&crate::api::ServiceError::from_selection(self).message())
    }
}

/// Errors surfaced by the UPIN core.
#[derive(Debug)]
pub enum SuiteError {
    /// A tool invocation failed in a way the suite cannot absorb.
    Tool(ToolError),
    /// Database failure.
    Db(DbError),
    /// A stored document misses fields the schema requires.
    Schema(String),
    /// A user request is unsatisfiable (no candidate paths remain).
    NoCandidates(String),
    /// A selection request produced an empty ranking; the payload says
    /// at which stage the candidates ran out, with counts.
    Selection(SelectionFailure),
    /// A request was malformed before any path was considered (e.g.
    /// `k = 0`).
    InvalidRequest(String),
    /// The campaign runner itself failed (e.g. a worker thread died) —
    /// distinct from per-measurement tool errors, which are recorded as
    /// data, not raised.
    Campaign(String),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Tool(e) => write!(f, "tool error: {e}"),
            SuiteError::Db(e) => write!(f, "database error: {e}"),
            SuiteError::Schema(m) => write!(f, "schema error: {m}"),
            SuiteError::NoCandidates(m) => write!(f, "no candidate paths: {m}"),
            SuiteError::Selection(failure) => write!(f, "no candidate paths: {failure}"),
            SuiteError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            SuiteError::Campaign(m) => write!(f, "campaign runner error: {m}"),
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Tool(e) => Some(e),
            SuiteError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ToolError> for SuiteError {
    fn from(e: ToolError) -> Self {
        SuiteError::Tool(e)
    }
}

impl From<DbError> for SuiteError {
    fn from(e: DbError) -> Self {
        SuiteError::Db(e)
    }
}

/// Convenience alias.
pub(crate) type SuiteResult<T> = Result<T, SuiteError>;
