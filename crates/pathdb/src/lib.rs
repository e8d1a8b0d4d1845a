//! # pathdb — an embedded schemaless document database
//!
//! A MongoDB-workalike used as the storage layer of the UPIN path
//! measurement suite, replacing the MongoDB instance of the paper
//! (*Battipaglia et al., SC-W 2023*, §4.2.1) with an in-process engine:
//!
//! * insertion-ordered [`document::Document`]s with dotted-path access,
//! * [`query::Filter`] with Mongo operator semantics
//!   (`$eq/$ne/$gte/$lt/$lte/$nin/$exists`, substring match,
//!   `$and`, array-contains equality, numeric widening),
//! * [`update::Update`] (`$set`),
//! * unique `_id` plus secondary (multikey) indexes, kept as ordered
//!   maps over an order-preserving key encoding,
//! * a cost-based query planner ([`plan`]): each query is a point
//!   lookup, a range scan or a full scan, whichever touches the fewest
//!   documents, with a [`Query::explain`] API exposing the choice,
//! * atomic bulk insertion — the batched write path whose
//!   fault-tolerance/scalability trade-off the paper discusses,
//! * crash-safe persistence: JSON-lines slice files committed by a
//!   collection manifest, rewritten only where a mutation touched them
//!   ([`snapshot`], [`database::Database::checkpoint`]), an
//!   optional CRC32-framed write-ahead log with group commit
//!   ([`wal`]), and a recovery path
//!   ([`database::Database::open_durable_with`]) that replays the intact
//!   WAL prefix and truncates torn tails — all over an injectable
//!   [`storage::Storage`] backend so crashes are testable
//!   ([`storage::FaultyStorage`]).
//!
//! ```
//! use pathdb::{doc, Database, Filter};
//!
//! let db = Database::new();
//! let servers = db.collection("availableServers");
//! servers.write().insert_one(doc! {
//!     "_id" => "2",
//!     "address" => "16-ffaa:0:1003,[172.31.19.144]",
//! }).unwrap();
//! let hit = servers
//!     .read()
//!     .query(Filter::contains("address", "1003"))
//!     .first()
//!     .unwrap();
//! assert_eq!(hit.id(), Some("2"));
//! ```

mod arena;
pub mod builder;
pub mod collection;
pub mod database;
pub mod document;
pub mod error;
pub mod plan;
pub mod query;
pub mod rollup;
pub mod snapshot;
pub mod storage;
pub mod update;
pub mod value;
pub mod wal;

pub use builder::Query;
pub use collection::{Collection, Delta};
pub use database::{
    CollectionHandle, Database, Durability, OpenOptions, RecoveryReport, RetentionPolicy,
};
pub use document::{Document, RowRef};
pub use error::DbError;
pub use plan::{Access, QueryPlan};
pub use query::{Filter, FindOptions, Order};
pub use rollup::{read_rollup, BucketAgg, FieldAgg, RollupConfig, Sketch};
pub use snapshot::SkippedLines;
pub use storage::{DiskStorage, FaultyStorage, Storage};
pub use update::Update;
pub use value::{Value, ValueRef};
