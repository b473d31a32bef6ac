//! The `MinProv` algorithm (paper Algorithm 1, §4.2): computes a p-minimal
//! equivalent of any UCQ≠ query, realizing the core provenance
//! (Theorem 4.6).
//!
//! Three steps:
//!   I.   replace each adjunct by its canonical rewriting w.r.t. the full
//!        constant set of the query (Def 4.1) — every adjunct becomes a
//!        complete query and provenance is preserved (Thm 4.4);
//!   II.  minimize each (complete) adjunct by atom deduplication
//!        (Lemma 3.13, PTIME per adjunct);
//!   III. remove every adjunct contained in another adjunct — removing a
//!        contained adjunct removes *containing* monomials from the
//!        provenance (Lemma 5.5).

use std::collections::BTreeSet;

use prov_query::canonical::canonical_rewriting_union;
use prov_query::homomorphism::CompiledQuery;
use prov_query::{ConjunctiveQuery, UnionQuery};

use crate::standard::{minimize_complete_unchecked, prune_contained};

/// The intermediate queries of a `MinProv` run (`Q_I`, `Q_II`, `Q_III` in
/// paper §5's notation), for inspection, testing and the figure-3
/// reproduction. The trace is deliberately *eager*: it is Algorithm 1
/// read literally, and the differential oracle the engine's tests compare
/// against. The production path ([`minprov`], via
/// [`crate::minimize::Minimizer`]) streams, memoizes and prunes instead,
/// and never materializes `Q_I`/`Q_II`.
#[derive(Clone, Debug)]
pub struct MinProvTrace {
    /// The input query.
    pub input: UnionQuery,
    /// After step I: the canonical rewriting (cUCQ≠, possibly exponential).
    pub canonical: UnionQuery,
    /// After step II: each adjunct minimized.
    pub minimized: UnionQuery,
    /// After step III: contained adjuncts removed — the p-minimal output.
    pub output: UnionQuery,
    /// Containment checks step III ran (one homomorphism search each).
    pub containment_checks: u64,
}

/// Runs `MinProv`, returning all intermediate queries.
pub fn minprov_trace(q: &UnionQuery) -> MinProvTrace {
    // Step I: canonical rewriting of every adjunct w.r.t. Const(Q).
    let canonical = canonical_rewriting_union(q, &BTreeSet::new());

    // Step II: minimize each adjunct. Each adjunct is complete w.r.t. the
    // full constant set by construction, so Lemma 3.13 applies.
    let minimized_adjuncts: Vec<ConjunctiveQuery> = canonical
        .adjuncts()
        .iter()
        .map(minimize_complete_unchecked)
        .collect();
    let minimized =
        UnionQuery::new(minimized_adjuncts.clone()).expect("step II preserves union shape");

    // Step III: remove adjuncts contained in other adjuncts. All adjuncts
    // are complete w.r.t. the same constant set, so containment Qj ⊆ Qi is
    // exactly the existence of a homomorphism Qi → Qj (Theorem 3.1).
    let mut containment_checks = 0u64;
    let compiled = minimized_adjuncts
        .into_iter()
        .map(|q| (CompiledQuery::new(&q), q))
        .collect();
    let kept = prune_contained(compiled, |small, big| {
        containment_checks += 1;
        big.0.maps_to(&small.0)
    });
    let output = UnionQuery::new(kept.into_iter().map(|(_, q)| q).collect())
        .expect("step III keeps at least one adjunct");

    MinProvTrace {
        input: q.clone(),
        canonical,
        minimized,
        output,
        containment_checks,
    }
}

/// Computes a p-minimal equivalent of `q` in UCQ≠ (paper Theorem 4.6).
///
/// The output realizes the **core provenance** of `q`: for every database
/// and output tuple its provenance is `≤` that of any equivalent UCQ≠
/// query (Proposition 4.8). Runtime and output size are exponential in the
/// number of variables per adjunct, which Theorem 4.10 shows unavoidable.
///
/// This entry point drives the unified engine
/// ([`crate::minimize::Minimizer`]) with its defaults: streaming
/// enumeration, orbit pruning and dominance pruning, no
/// budget. For bounded work (a sound partial result within a step or
/// deadline budget) use the engine directly with a
/// [`crate::minimize::Budget`].
pub fn minprov(q: &UnionQuery) -> UnionQuery {
    crate::minimize::minimize_with(q, crate::minimize::MinimizeOptions::default())
        .expect("the MinProv strategy accepts every UCQ≠ query")
        .into_query()
}

/// Convenience: `MinProv` on a single conjunctive query.
pub fn minprov_cq(q: &ConjunctiveQuery) -> UnionQuery {
    minprov(&UnionQuery::single(q.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::containment::equivalent;
    use prov_query::{parse_cq, parse_ucq};

    #[test]
    fn example_4_7_triangle_step_by_step() {
        // Q̂: ans() :- R(x,y), R(y,z), R(z,x).
        let q = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let trace = minprov_trace(&UnionQuery::single(q));
        // Step I: 5 completions (partitions of 3 variables).
        assert_eq!(trace.canonical.len(), 5);
        // Step II: the all-merged adjunct shrinks from 3 atoms to 1.
        assert!(trace
            .minimized
            .adjuncts()
            .iter()
            .any(|a| a.len() == 1 && a.variables().len() == 1));
        // Step III: only R(v,v) and the complete triangle survive.
        assert_eq!(
            trace.output.len(),
            2,
            "Q̂_III = Q̂_min1 ∪ Q̂_5, got:\n{}",
            trace.output
        );
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = trace.output.adjuncts().iter().map(|a| a.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn minprov_output_is_equivalent_to_input() {
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x) :- R(x,y), S(y)",
        ] {
            let q = parse_ucq(text).unwrap();
            let min = minprov(&q);
            assert!(
                equivalent(&q, &min),
                "MinProv must preserve equivalence for {text}"
            );
        }
    }

    #[test]
    fn figure_1_qconj_minimizes_to_qunion() {
        // MinProv(Qconj) should be (isomorphic to) Qunion of Figure 1.
        let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let min = minprov_cq(&qconj);
        assert_eq!(min.len(), 2);
        let mut shapes: Vec<(usize, usize)> = min
            .adjuncts()
            .iter()
            .map(|a| (a.len(), a.diseqs().len()))
            .collect();
        shapes.sort_unstable();
        // R(x,x) [1 atom, 0 diseqs] ∪ R(x,y),R(y,x),x≠y [2 atoms, 1 diseq].
        assert_eq!(shapes, vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn already_minimal_complete_query_is_untouched_in_shape() {
        let q = parse_cq("ans() :- R(v1,v2), v1 != v2").unwrap();
        let min = minprov_cq(&q);
        assert_eq!(min.len(), 1);
        assert_eq!(min.adjuncts()[0].len(), 1);
        assert_eq!(min.adjuncts()[0].diseqs().len(), 1);
    }

    #[test]
    fn minprov_with_constants() {
        // ans(x) :- R(x), with no constants: two cases collapse to one
        // (single variable, no partner) — output is R(v) itself.
        let q = parse_cq("ans(x) :- R(x)").unwrap();
        let min = minprov_cq(&q);
        assert_eq!(min.len(), 1);
        // With a constant in the query, the case split x='a' / x≠'a'
        // appears, but x='a' (head ans('a') :- R('a'),S('a')...) stays only
        // if not contained.
        let qc = parse_cq("ans(x) :- R(x), S('a')").unwrap();
        let minc = minprov(&UnionQuery::single(qc.clone()));
        assert!(equivalent(&UnionQuery::single(qc), &minc));
    }

    #[test]
    fn theorem_4_10_exponential_blowup() {
        // |MinProv(Q_n)| grows like 3^n adjuncts for the Q_n family
        // (each coordinate pair independently: x=y, or two orders of x≠y —
        // after step III pruning the count is exponential).
        use prov_query::generate::qn_family;
        let mut sizes = Vec::new();
        for n in 1..=3 {
            let out = minprov_cq(&qn_family(n));
            sizes.push(out.len());
        }
        assert!(
            sizes[1] >= 2 * sizes[0] && sizes[2] >= 2 * sizes[1],
            "adjunct count must grow exponentially: {sizes:?}"
        );
    }

    #[test]
    fn boolean_query_minprov() {
        let q = parse_cq("ans() :- R(x), R(y)").unwrap();
        let min = minprov_cq(&q);
        // Cases x=y and x≠y; R(v) (from x=y, deduped) contains the other.
        assert_eq!(min.len(), 1);
        assert_eq!(min.adjuncts()[0].len(), 1);
        assert!(min.adjuncts()[0].diseqs().is_empty());
    }
}
