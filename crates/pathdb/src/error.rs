//! Error type shared across the database.

use std::fmt;

/// Errors produced by database operations.
#[derive(Debug)]
pub enum DbError {
    /// An `_id` already present in the collection was inserted again.
    DuplicateId(String),
    /// A document was missing a required field or had the wrong shape.
    BadDocument(String),
    /// Filesystem errors during persistence.
    Io(std::io::Error),
    /// A persisted file could not be parsed back into documents.
    Parse(String),
    /// The durability subsystem lost a write or was misused (e.g.
    /// checkpointing a database that was not opened durably).
    Durability(String),
    /// This file was written by an older build in a format this build
    /// does not read — a format-3 `MANIFEST.json`, whose slice files
    /// hold JSON lines, or a `wal.*.log` of JSON frames. Nothing in the
    /// directory is changed.
    OlderFormat(std::path::PathBuf),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateId(id) => write!(f, "duplicate _id {id:?}"),
            DbError::BadDocument(msg) => write!(f, "bad document: {msg}"),
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Parse(msg) => write!(f, "parse error: {msg}"),
            DbError::Durability(msg) => write!(f, "durability error: {msg}"),
            DbError::OlderFormat(path) => write!(
                f,
                "{}: written by an older build in JSON; \
                 this build reads only binary rows (format 4)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// Convenience alias.
pub(crate) type DbResult<T> = Result<T, DbError>;
