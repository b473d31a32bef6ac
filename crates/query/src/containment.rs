//! Query containment and equivalence (paper Def 2.8), decided through the
//! homomorphism theorems:
//!
//! * CQ ⊆ CQ and cCQ≠ ⊆ CQ≠: `Q ⊆ Q'` iff there is a homomorphism
//!   `Q' → Q` (Theorem 3.1, Chandra–Merlin / Karvounarakis–Tannen);
//! * general UCQ≠ containment: rewrite the left side canonically so every
//!   adjunct is complete w.r.t. both queries' constants, then apply
//!   Lemma 4.9 — a complete query is contained in a union iff it is
//!   contained in one of its adjuncts.

use std::collections::BTreeSet;

use prov_storage::Value;

use crate::canonical::completions_iter;
use crate::cq::ConjunctiveQuery;
use crate::homomorphism::{homomorphism_exists, CompiledQuery};
use crate::ucq::UnionQuery;

/// Containment `q ⊆ q2` for CQ-or-complete left sides, by the homomorphism
/// theorem (Theorem 3.1). **Precondition**: either both queries are in CQ,
/// or `q` is complete w.r.t. the constants of `q2`; otherwise the result
/// may be a false negative (Example 3.2).
pub fn contained_via_homomorphism(q: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    homomorphism_exists(q2, q)
}

/// Containment of conjunctive queries without disequalities
/// (Chandra–Merlin). Panics if either query has disequalities.
pub fn cq_contained_in(q: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    assert!(
        q.is_cq() && q2.is_cq(),
        "cq_contained_in is only sound for disequality-free queries"
    );
    contained_via_homomorphism(q, q2)
}

/// General containment `q ⊆ q2` for UCQ≠ (sound and complete).
///
/// Exponential in the number of variables per adjunct of `q` (canonical
/// rewriting); this is expected — even CQ≠ containment is Π₂ᵖ-hard. The
/// completions of the left side are *streamed*, so the first
/// counterexample completion terminates the check without materializing
/// the rest of the exponential rewriting.
pub fn contained_in(q: &UnionQuery, q2: &UnionQuery) -> bool {
    let consts: BTreeSet<Value> = q.constants().union(&q2.constants()).copied().collect();
    let sources: Vec<CompiledQuery> = q2.adjuncts().iter().map(CompiledQuery::new).collect();
    q.adjuncts().iter().all(|adj| {
        completions_iter(adj, &consts).all(|completion| {
            let completion = CompiledQuery::new(&completion.query);
            sources.iter().any(|b| b.maps_to(&completion))
        })
    })
}

/// Containment of single conjunctive queries (general, sound and complete).
pub fn cq_diseq_contained_in(q: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_in(
        &UnionQuery::single(q.clone()),
        &UnionQuery::single(q2.clone()),
    )
}

/// Equivalence `q ≡ q2` (Def 2.8).
pub fn equivalent(q: &UnionQuery, q2: &UnionQuery) -> bool {
    contained_in(q, q2) && contained_in(q2, q)
}

/// Equivalence of single conjunctive queries.
pub fn cq_equivalent(q: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    equivalent(
        &UnionQuery::single(q.clone()),
        &UnionQuery::single(q2.clone()),
    )
}

/// Bag-semantics equivalence of conjunctive queries: `q ≡_bag q2` iff they
/// are isomorphic (Chaudhuri–Vardi 1993). Under `N[X]` provenance this is
/// the finest equivalence: bag-equivalent queries have identical
/// provenance up to nothing at all, so p-minimization is only interesting
/// for the coarser set-semantics equivalence the paper uses.
pub fn bag_equivalent(q: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    crate::homomorphism::are_isomorphic(q, q2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};

    #[test]
    fn example_2_9_q2_contained_in_qconj() {
        let q2 = parse_cq("ans(x) :- R(x,x)").unwrap();
        let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        assert!(cq_contained_in(&q2, &qconj));
        assert!(!cq_contained_in(&qconj, &q2));
    }

    #[test]
    fn example_2_18_qunion_equiv_qconj() {
        let qunion = parse_ucq(
            "ans(x) :- R(x,y), R(y,x), x != y\n\
             ans(x) :- R(x,x)",
        )
        .unwrap();
        let qconj = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        assert!(equivalent(&qunion, &qconj));
    }

    #[test]
    fn example_3_2_containment_without_homomorphism() {
        // Q ⊆ Q' holds semantically although no homomorphism Q' → Q exists.
        let q = parse_cq("ans() :- R(x,y), R(y,z), x != z").unwrap();
        let q_prime = parse_cq("ans() :- R(x2,y2), x2 != y2").unwrap();
        assert!(
            !contained_via_homomorphism(&q, &q_prime),
            "no hom (Example 3.2)"
        );
        assert!(cq_diseq_contained_in(&q, &q_prime), "yet Q ⊆ Q'");
        assert!(!cq_diseq_contained_in(&q_prime, &q));
    }

    #[test]
    fn self_containment() {
        let q = parse_ucq("ans(x) :- R(x,y), x != y").unwrap();
        assert!(contained_in(&q, &q));
        assert!(equivalent(&q, &q));
    }

    #[test]
    fn union_is_upper_bound_of_adjuncts() {
        let q1 = parse_ucq("ans(x) :- R(x,x)").unwrap();
        let q = parse_ucq("ans(x) :- R(x,x)\nans(x) :- S(x)").unwrap();
        assert!(contained_in(&q1, &q));
        assert!(!contained_in(&q, &q1));
    }

    #[test]
    fn constants_affect_containment() {
        let qa = parse_cq("ans() :- R('a')").unwrap();
        let qx = parse_cq("ans() :- R(x)").unwrap();
        assert!(cq_diseq_contained_in(&qa, &qx));
        assert!(!cq_diseq_contained_in(&qx, &qa));
    }

    #[test]
    fn diseq_makes_query_smaller() {
        let with = parse_cq("ans(x) :- R(x,y), x != y").unwrap();
        let without = parse_cq("ans(x) :- R(x,y)").unwrap();
        assert!(cq_diseq_contained_in(&with, &without));
        assert!(!cq_diseq_contained_in(&without, &with));
    }

    #[test]
    fn var_const_diseq_containment() {
        // ans(x):-R(x), x!='a'  ⊆  ans(x):-R(x); converse fails.
        let with = parse_cq("ans(x) :- R(x), x != 'a'").unwrap();
        let without = parse_cq("ans(x) :- R(x)").unwrap();
        assert!(cq_diseq_contained_in(&with, &without));
        assert!(!cq_diseq_contained_in(&without, &with));
    }

    #[test]
    fn inequivalent_when_heads_differ_in_shape() {
        let q1 = parse_ucq("ans(x) :- R(x,y)").unwrap();
        let q2 = parse_ucq("ans(y) :- R(x,y)").unwrap();
        // First projects the source column, second the target column.
        assert!(!equivalent(&q1, &q2));
    }

    #[test]
    fn bag_equivalence_is_isomorphism() {
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let q2 = parse_cq("ans(u) :- R(v,u), R(u,v)").unwrap();
        assert!(bag_equivalent(&q1, &q2));
        // Set-equivalent but not bag-equivalent: Qconj vs its union form
        // collapses under sets, not bags (different derivation counts).
        let folded = parse_cq("ans(x) :- R(x,y), R(y,x), R(x,y)").unwrap();
        assert!(cq_equivalent(&q1, &folded));
        assert!(!bag_equivalent(&q1, &folded));
    }

    #[test]
    fn theorem_4_3_canonical_rewriting_is_equivalent() {
        use crate::canonical::canonical_rewriting;
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x,y) :- R(x,y), x != 'a', x != y",
        ] {
            let q = parse_cq(text).unwrap();
            let can = canonical_rewriting(&q, &std::collections::BTreeSet::new());
            assert!(
                equivalent(&UnionQuery::single(q.clone()), &can),
                "Can(Q) must be equivalent to Q for {text}"
            );
        }
    }
}
