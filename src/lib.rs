//! # provmin — On Provenance Minimization
//!
//! A Rust implementation of *"On Provenance Minimization"* (Amsterdamer,
//! Deutch, Milo, Tannen, PODS 2011): computing the **core provenance** of
//! query results — the part of the `N[X]` provenance polynomial that every
//! equivalent query must produce — both by rewriting queries into
//! p-minimal form (`MinProv`) and by direct manipulation of provenance
//! polynomials.
//!
//! ## Quick start
//!
//! ```
//! use provmin::prelude::*;
//!
//! // Table 2 of the paper: an abstractly-tagged relation R.
//! let mut db = Database::new();
//! db.add("R", &["a", "a"], "s1");
//! db.add("R", &["a", "b"], "s2");
//! db.add("R", &["b", "a"], "s3");
//! db.add("R", &["b", "b"], "s4");
//!
//! // Figure 1's Qconj: ans(x) :- R(x,y), R(y,x).
//! let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
//!
//! // Evaluate with provenance (Def 2.12).
//! let result = eval_cq(&q, &db);
//! let p = result.provenance(&Tuple::of(&["a"]));
//! assert_eq!(p.to_string(), "s1·s1 + s2·s3");
//!
//! // Rewrite to the p-minimal equivalent (Theorem 4.6) ...
//! let minimal = minprov_cq(&q);
//! let core = eval_ucq(&minimal, &db).provenance(&Tuple::of(&["a"]));
//! assert_eq!(core.to_string(), "s1 + s2·s3");
//!
//! // ... or compute the core provenance directly from the polynomial
//! // (Theorem 5.1), without touching the query.
//! let direct = core_polynomial(&p);
//! assert_eq!(direct, core);
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`semiring`] | `prov-semiring` | `N[X]` polynomials, the order relation, specializations |
//! | [`query`] | `prov-query` | CQ/CQ≠/UCQ≠ ADTs, parser, homomorphisms, containment, canonical rewriting |
//! | [`storage`] | `prov-storage` | abstractly-tagged relations and databases |
//! | [`engine`] | `prov-engine` | provenance-annotated evaluation |
//! | [`core`] | `prov-core` | standard & p-minimization, MinProv, direct core computation |
//! | [`server`] | `prov-server` | the long-running `provmin serve` HTTP query service |
//! | [`workload`] | `prov-workload` | compositional workload DSL + seed-keyed scenario sampling |
//! | [`fuzz`] | (facade) | the differential harness behind `provmin fuzz` |
//! | [`paper`] | `prov-paper` | the paper's figures/tables and the `repro` harness |

#![warn(missing_docs)]

pub mod fuzz;

pub use prov_algebra as algebra;
pub use prov_core as core;
pub use prov_datalog as datalog;
pub use prov_engine as engine;
pub use prov_paper as paper;
pub use prov_query as query;
pub use prov_semiring as semiring;
pub use prov_server as server;
pub use prov_storage as storage;
pub use prov_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use prov_core::direct::exact_core;
    pub use prov_core::minimize::{
        minimize_with, Budget, MinimizeOptions, MinimizeOutcome, Minimizer, Strategy,
    };
    pub use prov_core::minprov::{minprov, minprov_cq, minprov_trace};
    pub use prov_core::order::{compare_on, leq_p_on};
    pub use prov_core::pminimal::{p_minimize_auto, p_minimize_overall};
    pub use prov_core::standard::{minimize_complete, minimize_cq, minimize_ucq};
    pub use prov_engine::{
        eval_cq, eval_cq_with, eval_in_semiring, eval_ucq, eval_ucq_with, AnnotatedResult,
        EvalOptions,
    };
    pub use prov_query::containment::{contained_in, cq_equivalent, equivalent};
    pub use prov_query::{
        parse_cq, parse_ucq, Atom, ConjunctiveQuery, Diseq, Term, UnionQuery, Variable,
    };
    pub use prov_semiring::derivative::{derivative, sensitivity};
    pub use prov_semiring::direct::{core_polynomial, is_core_shape};
    pub use prov_semiring::order::{
        compare, leq_witness, poly_leq, poly_lt, OrderWitness, PolyOrder,
    };
    pub use prov_semiring::{
        Annotation, Boolean, Clearance, CommutativeSemiring, Confidence, Monomial, Natural,
        Polynomial, Tropical,
    };
    pub use prov_storage::{Database, RelName, Renaming, Tuple, Valuation, Value};
}
