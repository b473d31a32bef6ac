//! "Standard" query minimization — minimizing the number of relational
//! atoms (joins) — the baseline the paper contrasts p-minimization with
//! (paper §2.4 Note; Chandra–Merlin \[9\] for CQ, Sagiv–Yannakakis \[26\] for
//! unions, Lemma 3.13 for complete queries).

use prov_query::homomorphism::CompiledQuery;
use prov_query::{Atom, ConjunctiveQuery, UnionQuery};

/// Minimizes a conjunctive query without disequalities by computing its
/// core: repeatedly remove an atom whenever the full query folds into the
/// remainder (Chandra–Merlin). The result is the unique (up to
/// isomorphism) minimal equivalent, and by Theorem 3.9 it is also the
/// p-minimal equivalent *within CQ*.
///
/// Panics if the query has disequalities (standard minimization of CQ≠ is
/// not homomorphism-based; see [`minimize_complete`] for cCQ≠).
pub fn minimize_cq(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    assert!(q.is_cq(), "minimize_cq requires a disequality-free query");
    let mut current = q.clone();
    'outer: loop {
        let compiled = CompiledQuery::new(&current);
        for i in 0..current.atoms().len() {
            // candidate ⊇ current always (fewer conjuncts); a homomorphism
            // current → candidate — one into current avoiding atom i —
            // proves candidate ⊆ current, i.e. equivalence, so the atom is
            // redundant.
            let redundant = compiled.maps_to_without(&compiled, Some(i));
            if let Some(candidate) = redundant.then(|| current.without_atom(i)).flatten() {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Whether a CQ is minimal in the standard sense (= its own core).
pub fn is_minimal_cq(q: &ConjunctiveQuery) -> bool {
    minimize_cq(q).atoms().len() == q.atoms().len()
}

/// Minimizes a *complete* conjunctive query in PTIME by removing
/// duplicated relational atoms (paper Lemma 3.13). By Theorem 3.12 the
/// result is p-minimal in cCQ≠ **and** overall in UCQ≠.
///
/// Panics if the query is not complete.
pub fn minimize_complete(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    assert!(
        q.is_complete(),
        "minimize_complete requires a complete query (Def 2.2)"
    );
    minimize_complete_unchecked(q)
}

/// [`minimize_complete`] without the completeness assertion — used by
/// MinProv step II, where adjuncts are complete w.r.t. a *larger* constant
/// set than their own (which `is_complete` cannot know about).
pub(crate) fn minimize_complete_unchecked(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut seen: Vec<&Atom> = Vec::new();
    let mut kept = Vec::new();
    for atom in q.atoms() {
        if seen.contains(&atom) {
            continue;
        }
        seen.push(atom);
        kept.push(atom.clone());
    }
    if kept.len() == q.atoms().len() {
        return q.clone();
    }
    ConjunctiveQuery::new(q.head().clone(), kept, q.diseqs().iter().copied())
        .expect("atom deduplication preserves well-formedness")
}

/// Whether a complete query is (p-)minimal: no duplicated atoms
/// (Lemma 3.13).
pub fn is_minimal_complete(q: &ConjunctiveQuery) -> bool {
    let atoms = q.atoms();
    atoms
        .iter()
        .enumerate()
        .all(|(i, a)| !atoms[..i].contains(a))
}

/// Standard minimization of a union of CQs (Sagiv–Yannakakis): minimize
/// each adjunct, then drop adjuncts contained in another adjunct. Runs as
/// the [`crate::minimize::Strategy::Standard`] strategy of the unified
/// engine (memoized containment checks, isomorphic-duplicate dedup).
///
/// Panics if any adjunct has disequalities.
pub fn minimize_ucq(q: &UnionQuery) -> UnionQuery {
    use crate::minimize::{minimize_with, MinimizeOptions, Strategy};
    minimize_with(q, MinimizeOptions::with_strategy(Strategy::Standard))
        .expect("minimize_ucq requires disequality-free adjuncts")
        .into_query()
}

/// Keeps a minimal sub-list of adjuncts: drops any adjunct contained in
/// another surviving adjunct; on mutual containment the earlier one wins.
pub(crate) fn prune_contained<T>(
    adjuncts: Vec<T>,
    mut contained: impl FnMut(&T, &T) -> bool,
) -> Vec<T> {
    let n = adjuncts.len();
    let mut alive = vec![true; n];
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !alive[j] {
                continue;
            }
            if contained(&adjuncts[j], &adjuncts[i]) {
                alive[j] = false;
            }
        }
    }
    adjuncts
        .into_iter()
        .zip(alive)
        .filter_map(|(q, keep)| keep.then_some(q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::containment::cq_equivalent;
    use prov_query::generate::star;
    use prov_query::{parse_cq, parse_ucq};

    #[test]
    fn folds_redundant_atoms() {
        // ans(x) :- R(x,y), R(x,z) folds to ans(x) :- R(x,y).
        let q = parse_cq("ans(x) :- R(x,y), R(x,z)").unwrap();
        let min = minimize_cq(&q);
        assert_eq!(min.atoms().len(), 1);
        assert!(cq_equivalent(&q, &min));
    }

    #[test]
    fn star_folds_to_single_atom() {
        let q = star(6);
        let min = minimize_cq(&q);
        assert_eq!(min.atoms().len(), 1);
        assert!(is_minimal_cq(&min));
        assert!(!is_minimal_cq(&q));
    }

    #[test]
    fn qconj_is_already_minimal() {
        // Figure 1's Qconj: no surjective fold exists.
        let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        assert!(is_minimal_cq(&q));
        assert_eq!(minimize_cq(&q), q);
    }

    #[test]
    fn triangle_with_free_head_is_minimal() {
        let q = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        assert!(is_minimal_cq(&q));
    }

    #[test]
    fn head_variables_block_folding() {
        // Without the head, R(x,y),R(z,y) folds; with head(x, z) it cannot.
        let q = parse_cq("ans(x,z) :- R(x,y), R(z,y)").unwrap();
        assert!(is_minimal_cq(&q));
        let q_free = parse_cq("ans() :- R(x,y), R(z,y)").unwrap();
        assert_eq!(minimize_cq(&q_free).atoms().len(), 1);
    }

    #[test]
    fn minimization_preserves_equivalence_on_chains() {
        // A cycle of length 4 folds to a self-loop? No — C4 (even cycle)
        // folds to a single R(x,x)? A cycle query with all-free head maps
        // onto any odd cycle... here: C2 = R(x,y),R(y,x) is its own core.
        let q = parse_cq("ans() :- R(x,y), R(y,x)").unwrap();
        assert!(is_minimal_cq(&q));
    }

    #[test]
    fn complete_minimization_dedupes_atoms() {
        // Q̂1 of Figure 3: R(v1,v1) three times → once (Lemma 3.13).
        let q = parse_cq("ans() :- R(v1,v1), R(v1,v1), R(v1,v1)").unwrap();
        assert!(q.is_complete()); // single variable, vacuously complete
        let min = minimize_complete(&q);
        assert_eq!(min.atoms().len(), 1);
        assert!(is_minimal_complete(&min));
        assert!(!is_minimal_complete(&q));
    }

    #[test]
    fn complete_minimization_keeps_distinct_atoms() {
        let q = parse_cq("ans() :- R(v1,v2), R(v2,v1), v1 != v2").unwrap();
        assert_eq!(minimize_complete(&q), q);
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn minimize_complete_rejects_incomplete() {
        let q = parse_cq("ans() :- R(x,y), R(y,z), x != z").unwrap();
        minimize_complete(&q);
    }

    #[test]
    #[should_panic(expected = "disequality-free")]
    fn minimize_cq_rejects_diseqs() {
        let q = parse_cq("ans() :- R(x,y), x != y").unwrap();
        minimize_cq(&q);
    }

    #[test]
    fn ucq_minimization_drops_contained_adjuncts() {
        // R(x,x) ⊆ R(x,y): the union minimizes to the general adjunct.
        let q = parse_ucq("ans(x) :- R(x,x)\nans(x) :- R(x,y)").unwrap();
        let min = minimize_ucq(&q);
        assert_eq!(min.len(), 1);
        assert_eq!(min.adjuncts()[0].atoms().len(), 1);
        assert_eq!(min.adjuncts()[0].variables().len(), 2);
    }

    #[test]
    fn ucq_minimization_keeps_one_of_equivalent_pair() {
        let q = parse_ucq("ans(x) :- R(x,y)\nans(x) :- R(x,z)").unwrap();
        assert_eq!(minimize_ucq(&q).len(), 1);
    }

    #[test]
    fn prune_contained_handles_chains() {
        let a = parse_cq("ans(x) :- R(x,x)").unwrap();
        let b = parse_cq("ans(x) :- R(x,y)").unwrap();
        let kept = prune_contained(vec![a, b.clone()], |small, big| {
            prov_query::homomorphism::homomorphism_exists(big, small)
        });
        assert_eq!(kept, vec![b]);
    }
}
