//! Provenance-annotated query evaluation — the execution substrate of
//! `provmin` (paper Def 2.6 / Def 2.12).
//!
//! Evaluates conjunctive queries and unions over abstractly-tagged
//! databases by enumerating assignments, producing an `N[X]` provenance
//! polynomial per output tuple, and optionally specializing into any
//! commutative semiring via a valuation.

#![warn(missing_docs)]

mod assignment;
mod batch;
mod cache;
mod eval;
mod index;
mod planner;
mod semijoin;
mod session;

pub use assignment::{assignments, eval_cq_naive, eval_ucq_naive, Assignment};
pub use cache::{CacheStats, EvalViews, IndexCache};
pub use eval::{
    eval_cq, eval_cq_with, eval_in_semiring, eval_ucq, eval_ucq_with, AnnotatedResult, EvalOptions,
    DEFAULT_CHUNK_ROWS, MAX_THREADS,
};
pub use index::{DatabaseIndex, RelationIndex};
pub use session::{EvalSession, MutationCachePath, MutationOutcome, SessionStats};
