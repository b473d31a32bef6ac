//! Provenance semirings and the terseness order on provenance polynomials.
//!
//! This crate is the algebraic substrate of `provmin`, a reproduction of
//! *"On Provenance Minimization"* (Amsterdamer, Deutch, Milo, Tannen,
//! PODS 2011). It provides:
//!
//! * the commutative-semiring abstraction and the concrete semirings that
//!   downstream data-management tools evaluate provenance in
//!   ([`CommutativeSemiring`] and the concrete semirings re-exported at
//!   the crate root: [`Natural`], [`Boolean`], [`Tropical`], …);
//! * the provenance semiring `N[X]` itself: interned [`Annotation`]s,
//!   [`Monomial`]s (one per assignment) and [`Polynomial`]s (paper §2.3);
//! * the [`Interner`] behind every symbol type of the workspace
//!   (annotations here; values, relation names and variables
//!   downstream), whose name lookups are lock-free;
//! * the terseness **order relation** `p ≤ p'` on polynomials
//!   (paper Definition 2.15), decided by bipartite b-matching ([`order`]);
//! * the PTIME **direct core-provenance** transformation of
//!   Corollary 5.6 ([`direct`]);
//! * the coarser provenance models the paper compares against in §7:
//!   [`why::WhyProvenance`] and [`trio::TrioLineage`].

#![warn(missing_docs)]

mod annotation;
mod flow;
mod intern;
mod kinds;
mod monomial;
mod polynomial;
mod semiring;

pub mod derivative;
pub mod direct;
pub mod order;
pub mod trio;
pub mod why;

pub use annotation::Annotation;
pub use flow::{saturating_b_matching, saturating_b_matching_flows, FlowNetwork};
pub use intern::Interner;
pub use kinds::{Boolean, Clearance, Confidence, Natural, Tropical};
pub use monomial::{Monomial, MonomialBuilder};
pub use polynomial::Polynomial;
pub use semiring::{CommutativeSemiring, IdempotentSemiring};
