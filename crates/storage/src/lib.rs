//! Abstractly-tagged annotated relations and database instances — the
//! storage substrate of `provmin` (paper §2.3 data model).
//!
//! Every tuple of every relation carries a distinct [`prov_semiring::Annotation`];
//! general `K`-relations are recovered by applying a [`Valuation`] to
//! computed provenance, and the non-abstractly-tagged databases of paper §6
//! are modeled by collapsing [`Renaming`]s.

#![warn(missing_docs)]

mod columnar;
mod database;
mod relation;
mod tuple;
mod valuation;
mod value;

pub mod durability;
pub mod generator;
pub mod snapshot;
pub mod textio;
pub mod wal;

pub use columnar::{ColumnarDatabase, ColumnarRelation};
pub use database::{ensure_generation_floor, Database, DeltaEvent, DeltaKind, DELTA_LOG_CAPACITY};
pub use durability::{
    recover_readonly, DurabilityCounters, DurabilityOptions, DurableStore, RecoveryReport,
};
pub use prov_semiring::Interner;
pub use relation::Relation;
pub use tuple::Tuple;
pub use valuation::{Renaming, Valuation};
pub use value::{RelName, Value};
pub use wal::FsyncPolicy;
