//! Property-based tests of the paper's invariants over randomly generated
//! queries, databases and polynomials.

use std::collections::BTreeSet;

use proptest::prelude::*;

use provmin::prelude::*;
use provmin::query::generate::{random_cq, QuerySpec};
use provmin::semiring::order::{compare, PolyOrder};
use provmin::storage::generator::{random_database, DatabaseSpec};

/// Strategy: a small random polynomial described by (seed, monomials,
/// degree, vars).
fn poly(seed: u64, monomials: usize, degree: usize, vars: usize) -> Polynomial {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Polynomial::zero_poly();
    for _ in 0..monomials {
        let d = rng.random_range(1..=degree.max(1));
        let m = Monomial::from_annotations(
            (0..d).map(|_| Annotation::new(&format!("pp{}", rng.random_range(0..vars.max(1))))),
        );
        p.add_monomial(m);
    }
    p
}

/// Brute-force p ≤ p' by trying all injective monomial-occurrence
/// mappings (exponential; only for tiny polynomials).
fn brute_force_leq(p: &Polynomial, q: &Polynomial) -> bool {
    let left: Vec<&Monomial> = p
        .iter()
        .flat_map(|(m, c)| std::iter::repeat_n(m, c as usize))
        .collect();
    let right: Vec<&Monomial> = q
        .iter()
        .flat_map(|(m, c)| std::iter::repeat_n(m, c as usize))
        .collect();
    fn assign(i: usize, left: &[&Monomial], right: &[&Monomial], used: &mut Vec<bool>) -> bool {
        if i == left.len() {
            return true;
        }
        for j in 0..right.len() {
            if !used[j] && left[i].leq(right[j]) {
                used[j] = true;
                if assign(i + 1, left, right, used) {
                    return true;
                }
                used[j] = false;
            }
        }
        false
    }
    assign(0, &left, &right, &mut vec![false; right.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn order_is_reflexive(seed in 0u64..500, n in 1usize..6) {
        let p = poly(seed, n, 4, 5);
        prop_assert!(poly_leq(&p, &p));
    }

    #[test]
    fn order_matches_brute_force(sa in 0u64..200, sb in 0u64..200) {
        let p = poly(sa, 4, 3, 4);
        let q = poly(sb, 4, 3, 4);
        prop_assert_eq!(poly_leq(&p, &q), brute_force_leq(&p, &q));
        prop_assert_eq!(poly_leq(&q, &p), brute_force_leq(&q, &p));
    }

    #[test]
    fn order_is_transitive_on_grown_chains(seed in 0u64..200) {
        // Build p ≤ q ≤ r by construction, check p ≤ r.
        let p = poly(seed, 3, 3, 4);
        let grow = Monomial::parse("grown_extra");
        let mut q = p.clone();
        q.add_monomial(grow.clone());
        let mut r = Polynomial::zero_poly();
        for (m, c) in q.iter() {
            r.add_occurrences(m.mul(&Monomial::parse("grown_pad")), c);
        }
        prop_assert!(poly_leq(&p, &q));
        prop_assert!(poly_leq(&q, &r));
        prop_assert!(poly_leq(&p, &r));
    }

    #[test]
    fn core_polynomial_is_terser_and_idempotent(seed in 0u64..500) {
        let p = poly(seed, 5, 4, 4);
        let core = core_polynomial(&p);
        prop_assert!(poly_leq(&core, &p));
        prop_assert!(is_core_shape(&core));
        prop_assert_eq!(core_polynomial(&core), core);
    }

    #[test]
    fn specialization_is_a_homomorphism(sa in 0u64..200, sb in 0u64..200) {
        let p = poly(sa, 3, 3, 4);
        let q = poly(sb, 3, 3, 4);
        let mut val = |a: Annotation| Natural(u64::from(a.id() % 3) + 1);
        let sum_then_eval = p.add(&q).eval(&mut val);
        let eval_then_sum = p.eval(&mut val).add(&q.eval(&mut val));
        prop_assert_eq!(sum_then_eval, eval_then_sum);
        let mul_then_eval = p.mul(&q).eval(&mut val);
        let eval_then_mul = p.eval(&mut val).mul(&q.eval(&mut val));
        prop_assert_eq!(mul_then_eval, eval_then_mul);
    }
}

/// Query + database generators for the heavier pipeline properties.
fn small_query(seed: u64, diseq_percent: u8) -> ConjunctiveQuery {
    let spec = QuerySpec {
        num_atoms: 1 + (seed % 3) as usize,
        num_vars: 1 + ((seed / 3) % 3) as usize,
        relations: vec![("R".to_owned(), 2)],
        head_arity: (seed % 2) as usize,
        diseq_percent,
        const_percent: 0,
    };
    random_cq(&spec, seed)
}

fn small_db(seed: u64) -> Database {
    random_database(&DatabaseSpec::single_binary(5, 3), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minprov_preserves_equivalence(seed in 0u64..300, dp in 0u8..60) {
        let q = small_query(seed, dp);
        let min = minprov_cq(&q);
        prop_assert!(
            equivalent(&UnionQuery::single(q.clone()), &min),
            "MinProv changed semantics of {}", q
        );
    }

    #[test]
    fn minprov_output_is_terser_on_instances(seed in 0u64..200, db_seed in 0u64..50) {
        let q = small_query(seed, 30);
        let min = minprov_cq(&q);
        let db = small_db(db_seed);
        prop_assert!(
            leq_p_on(&db, &min, &UnionQuery::single(q.clone())),
            "MinProv({q}) not ≤_P original on db seed {db_seed}"
        );
    }

    #[test]
    fn theorem_5_1_direct_equals_query_based(seed in 0u64..150, db_seed in 0u64..40) {
        // For CQ inputs (no constants): exact core from the polynomial
        // alone equals evaluating the p-minimal rewriting.
        let q = small_query(seed, 0);
        let db = small_db(db_seed);
        let full = eval_cq(&q, &db);
        let minimal = minprov_cq(&q);
        let core_result = eval_ucq(&minimal, &db);
        for (t, p) in full.iter() {
            let direct = exact_core(p, &db, t, &BTreeSet::new()).unwrap();
            prop_assert_eq!(
                direct.clone(),
                core_result.provenance(t),
                "tuple {} of {}: direct {} vs query-based {}",
                t, q, direct, core_result.provenance(t)
            );
        }
    }

    #[test]
    fn canonical_rewriting_preserves_provenance(seed in 0u64..150, db_seed in 0u64..40) {
        use provmin::query::canonical::canonical_rewriting;
        let q = small_query(seed, 30);
        let can = canonical_rewriting(&q, &BTreeSet::new());
        let db = small_db(db_seed);
        let p = eval_cq(&q, &db);
        let p_can = eval_ucq(&can, &db);
        for (t, poly) in p.iter() {
            prop_assert_eq!(poly.clone(), p_can.provenance(t), "Thm 4.4 failed for {} on {}", q, t);
        }
        for (t, _) in p_can.iter() {
            prop_assert!(p.contains(t));
        }
    }

    #[test]
    fn standard_minimization_preserves_equivalence(seed in 0u64..300) {
        let q = small_query(seed, 0);
        let min = minimize_cq(&q);
        prop_assert!(cq_equivalent(&q, &min));
        prop_assert!(min.len() <= q.len());
        // Idempotent.
        prop_assert_eq!(minimize_cq(&min).len(), min.len());
    }

    #[test]
    fn evaluation_agrees_with_counting_semiring(seed in 0u64..100, db_seed in 0u64..30) {
        // num_occurrences of the polynomial = derivation count = eval
        // under the all-ones valuation.
        let q = small_query(seed, 20);
        let db = small_db(db_seed);
        let result = eval_cq(&q, &db);
        for (_t, p) in result.iter() {
            let n: Natural = p.eval(&mut |_| Natural(1));
            prop_assert_eq!(n.0, p.num_occurrences());
        }
    }

    #[test]
    fn minprov_is_provenance_idempotent(seed in 0u64..80, db_seed in 0u64..20) {
        // Running MinProv on its own output yields the same provenance
        // (both are p-minimal, so mutually ≤_P).
        let q = small_query(seed, 20);
        let once = minprov_cq(&q);
        let twice = provmin::core::minprov::minprov(&once);
        let db = small_db(db_seed);
        prop_assert!(leq_p_on(&db, &once, &twice));
        prop_assert!(leq_p_on(&db, &twice, &once));
    }
}

#[test]
fn compare_is_consistent_with_leq() {
    for sa in 0..30u64 {
        for sb in 0..10u64 {
            let p = poly(sa, 3, 3, 4);
            let q = poly(sb, 3, 3, 4);
            let expected = match (poly_leq(&p, &q), poly_leq(&q, &p)) {
                (true, true) => PolyOrder::Equivalent,
                (true, false) => PolyOrder::Less,
                (false, true) => PolyOrder::Greater,
                (false, false) => PolyOrder::Incomparable,
            };
            assert_eq!(compare(&p, &q), expected);
        }
    }
}
