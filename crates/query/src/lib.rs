//! Conjunctive queries with disequalities and unions thereof — the query
//! substrate of `provmin` (paper §2.1–2.2, §4.1).
//!
//! Provides the query ADTs ([`ConjunctiveQuery`], [`UnionQuery`]), a parser
//! for the paper's rule syntax ([`parser`]), homomorphism search
//! ([`homomorphism`], Def 2.10), containment and equivalence
//! ([`containment`], Thm 3.1 / Lemma 4.9), canonical rewritings
//! ([`canonical`], Def 4.1), and workload generators ([`generate`]).

#![warn(missing_docs)]

mod atom;
mod cq;
mod term;
mod ucq;

pub mod canonical;
pub mod containment;
pub mod generate;
pub mod homomorphism;
pub mod parser;

pub use atom::{Atom, Diseq};
pub use cq::{ConjunctiveQuery, QueryClass, QueryError};
pub use parser::{parse_cq, parse_ucq, ParseError};
pub use term::{Term, Variable};
pub use ucq::{UnionClass, UnionError, UnionQuery};
