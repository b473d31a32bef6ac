//! Compositional workload generation for `provmin` — the coverage layer
//! behind differential fuzzing, the engine soak suites, and the bench
//! matrix's shape families.
//!
//! Hand-built query families (qconj, triangles, chains/stars, the
//! Theorem 4.10 `Q_n` family) exercise the planner, batcher, and
//! minimizer on *known* shapes; bugs live on the unusual ones. This
//! crate replaces the bespoke per-test generators with one compositional
//! DSL (modeled on ruler's `enumo` combinators):
//!
//! * [`dsl::Workload`] — `Set`/`Plug`/`Append`/`Filter` over CQ/UCQ
//!   shape grammars, with monotone filters (max-atoms, max-vars,
//!   max-disjuncts) pushed into enumeration rather than applied post-hoc;
//! * [`scenario::ScenarioSpec`] — named crossings of a shape grammar
//!   with database skews (uniform / zipfian / adversarial-duplicate) and
//!   target semirings;
//! * [`scenario::Sampler`] — deterministic seed-keyed sampling: every
//!   scenario is reproducible from a printed `(spec, seed, case)` triple.
//!
//! Three consumers drive from one spec: `provmin fuzz` (differential
//! checking of every thread count × chunk size and every
//! minimize strategy), the soak suites in `crates/engine/tests`, and the
//! `workload_shapes/*` rows of `docs/BENCH_BASELINE.json`. See
//! `docs/FUZZING.md`.

#![warn(missing_docs)]

pub mod dsl;
pub mod scenario;

pub use dsl::{Filter, Workload};
pub use scenario::{MutationStep, Sampler, Scenario, ScenarioSpec, SemiringTag, Skew};
