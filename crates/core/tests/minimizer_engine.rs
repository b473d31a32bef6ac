//! Property tests for the unified minimization engine: for random
//! queries, the minimized output is equivalent to the input under every
//! [`Strategy`], the `MinProv` output matches the literal Algorithm 1
//! ([`minprov_trace`]) adjunct for adjunct up to isomorphism, and
//! budgeted `Partial` results are always sound (equivalent) and resume to
//! the unbudgeted fixpoint.

use proptest::prelude::*;

use prov_core::minimize::{
    minimize_with, Budget, MinimizeOptions, MinimizeOutcome, Minimizer, Strategy,
};
use prov_core::minprov::minprov_trace;
use prov_query::containment::equivalent;
use prov_query::generate::{random_cq, QuerySpec};
use prov_query::{ConjunctiveQuery, Diseq, UnionQuery};

/// A small random CQ≠ (3 atoms over ≤3 variables keeps the exponential
/// equivalence oracle affordable).
fn small_query(seed: u64, diseq_percent: u8) -> UnionQuery {
    let spec = QuerySpec {
        diseq_percent,
        ..QuerySpec::binary(3, 3)
    };
    UnionQuery::single(random_cq(&spec, seed))
}

/// Completes a random CQ by adding every pairwise variable disequality
/// (no constants are generated, so this suffices for Def 2.2).
fn small_complete_query(seed: u64) -> UnionQuery {
    let spec = QuerySpec::binary(3, 3);
    let q = random_cq(&spec, seed);
    let vars: Vec<_> = q.variables().into_iter().collect();
    let mut diseqs: Vec<Diseq> = q.diseqs().iter().copied().collect();
    for (i, &x) in vars.iter().enumerate() {
        for &y in &vars[i + 1..] {
            diseqs.push(Diseq::vars(x, y));
        }
    }
    let complete =
        ConjunctiveQuery::new(q.head().clone(), q.atoms().to_vec(), diseqs).expect("well-formed");
    assert!(complete.is_complete());
    UnionQuery::single(complete)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minprov_strategy_preserves_equivalence(seed in 0u64..400, dp in 0u8..50) {
        let q = small_query(seed, dp);
        let out = minimize_with(&q, MinimizeOptions::default())
            .expect("minprov is total")
            .into_query();
        prop_assert!(equivalent(&q, &out), "minprov broke equivalence for {q}");
        let oracle = minprov_trace(&q).output;
        prop_assert!(
            out.adjunct_wise_isomorphic(&oracle),
            "engine and literal Algorithm 1 disagree on {q}: {out}  vs  {oracle}"
        );
    }

    #[test]
    fn auto_strategy_preserves_equivalence(seed in 0u64..400, dp in 0u8..50) {
        let q = small_query(seed, dp);
        let out = minimize_with(&q, MinimizeOptions::with_strategy(Strategy::Auto))
            .expect("auto is total")
            .into_query();
        prop_assert!(equivalent(&q, &out), "auto broke equivalence for {q}");
    }

    #[test]
    fn standard_strategy_preserves_equivalence(seed in 0u64..400) {
        // Standard minimization is only defined for CQ (no disequalities).
        let q = small_query(seed, 0);
        let out = minimize_with(&q, MinimizeOptions::with_strategy(Strategy::Standard))
            .expect("CQ input")
            .into_query();
        prop_assert!(equivalent(&q, &out), "standard broke equivalence for {q}");
    }

    #[test]
    fn dedup_strategy_preserves_equivalence(seed in 0u64..400) {
        let q = small_complete_query(seed);
        let out = minimize_with(&q, MinimizeOptions::with_strategy(Strategy::CompleteDedup))
            .expect("complete input")
            .into_query();
        prop_assert!(equivalent(&q, &out), "dedup broke equivalence for {q}");
    }

    #[test]
    fn budgeted_partials_are_sound_at_every_cutoff(seed in 0u64..200, steps in 0u64..12) {
        // Whatever the cutoff point, the partial result must stay
        // equivalent to the input and within its step budget.
        let q = small_query(seed, 25);
        let options = MinimizeOptions::default().budgeted(Budget::steps(steps));
        match minimize_with(&q, options).expect("minprov is total") {
            MinimizeOutcome::Complete(out) => {
                prop_assert!(equivalent(&q, &out));
            }
            MinimizeOutcome::Partial(partial) => {
                prop_assert!(partial.steps_used <= steps);
                prop_assert!(
                    equivalent(&q, &partial.best),
                    "unsound partial at {steps} steps for {q}"
                );
            }
        }
    }

    #[test]
    fn resumed_runs_reach_the_unbudgeted_fixpoint(seed in 0u64..200, steps in 1u64..8) {
        let q = small_query(seed, 25);
        let reference = minimize_with(&q, MinimizeOptions::default())
            .expect("minprov is total")
            .into_query();
        // Drive the budgeted engine to completion, resuming as often as
        // needed; the fixpoint must match the one-shot run.
        let mut engine =
            Minimizer::new(MinimizeOptions::default().budgeted(Budget::steps(steps)));
        let mut outcome = engine.minimize(&q).expect("minprov is total");
        let mut rounds = 0;
        while let MinimizeOutcome::Partial(partial) = outcome {
            rounds += 1;
            prop_assert!(rounds < 10_000, "resume loop must terminate");
            outcome = engine.resume(&q, partial).expect("minprov is total");
        }
        let finished = outcome.into_query();
        prop_assert_eq!(finished.len(), reference.len());
        prop_assert!(equivalent(&finished, &reference));
    }
}
