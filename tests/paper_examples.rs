//! End-to-end checks of every numbered example in the paper, through the
//! public `provmin` facade.

use provmin::paper::artifacts;
use provmin::prelude::*;

#[test]
fn example_2_3_completeness() {
    let q = parse_cq("ans(x,y) :- R(x,y), S(y,'c'), x != y, y != 'c'").unwrap();
    let q_complete = parse_cq("ans(x,y) :- R(x,y), S(y,'c'), x != y, y != 'c', x != 'c'").unwrap();
    assert!(!q.is_complete());
    assert!(q_complete.is_complete());
}

#[test]
fn example_2_5_qunion_classes() {
    let qunion = artifacts::fig1_qunion();
    assert_eq!(qunion.len(), 2);
    assert!(qunion.is_complete(), "Qunion is in cUCQ≠");
}

#[test]
fn example_2_7_assignments() {
    use provmin::engine::assignments;
    let db = artifacts::table_2_database();
    let q1 = artifacts::fig1_q1();
    let q2 = artifacts::fig1_q2();
    assert_eq!(assignments(&q1, &db).len(), 2);
    assert_eq!(assignments(&q2, &db).len(), 2);
}

#[test]
fn example_2_9_containment() {
    let q2 = artifacts::fig1_q2();
    let qconj = artifacts::fig1_qconj();
    assert!(contained_in(
        &UnionQuery::single(q2),
        &UnionQuery::single(qconj)
    ));
}

#[test]
fn example_2_11_homomorphisms() {
    use provmin::query::homomorphism::find_homomorphism;
    let qconj = artifacts::fig1_qconj();
    let q2 = artifacts::fig1_q2();
    assert!(find_homomorphism(&qconj, &q2).is_some());
    assert!(find_homomorphism(&q2, &qconj).is_none());
}

/// Table 3, from both the batched evaluator and the Def 2.6 oracle: every
/// differential suite compares against that oracle, so it is pinned to the
/// paper's own numbers here.
#[test]
fn example_2_13_table_3() {
    use provmin::engine::eval_ucq_naive;
    let db = artifacts::table_2_database();
    let qunion = artifacts::fig1_qunion();
    for result in [eval_ucq(&qunion, &db), eval_ucq_naive(&qunion, &db)] {
        assert_eq!(result.len(), 2);
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("s2·s3 + s1")
        );
        assert_eq!(
            result.provenance(&Tuple::of(&["b"])),
            Polynomial::parse("s3·s2 + s4")
        );
    }
}

/// Qconj's provenance (Example 2.14), from both the evaluator and the
/// oracle.
#[test]
fn example_2_14_different_provenance_for_equivalent_queries() {
    use provmin::engine::eval_cq_naive;
    let db = artifacts::table_2_database();
    let qconj = artifacts::fig1_qconj();
    for conj in [eval_cq(&qconj, &db), eval_cq_naive(&qconj, &db)] {
        assert_eq!(conj.len(), 2);
        assert_eq!(
            conj.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("s2·s3 + s1·s1")
        );
        assert_eq!(
            conj.provenance(&Tuple::of(&["b"])),
            Polynomial::parse("s3·s2 + s4·s4")
        );
    }
}

#[test]
fn example_2_16_order() {
    let p1 = Polynomial::parse("s1·s2 + s3 + s3");
    let p2 = Polynomial::parse("s1·s2·s2 + s2·s3 + s3·s4 + s5");
    assert!(poly_lt(&p1, &p2));
    assert!(!poly_leq(&p2, &p1));
}

#[test]
fn example_2_18_qunion_strictly_terser() {
    let db = artifacts::table_2_database();
    let qunion = artifacts::fig1_qunion();
    let qconj = UnionQuery::single(artifacts::fig1_qconj());
    assert!(leq_p_on(&db, &qunion, &qconj));
    assert!(!leq_p_on(&db, &qconj, &qunion));
}

#[test]
fn example_3_2_containment_hom_gap() {
    use provmin::query::containment::{contained_via_homomorphism, cq_diseq_contained_in};
    let q = parse_cq("ans() :- R(x,y), R(y,z), x != z").unwrap();
    let q_prime = parse_cq("ans() :- R(x2,y2), x2 != y2").unwrap();
    assert!(cq_diseq_contained_in(&q, &q_prime));
    assert!(!contained_via_homomorphism(&q, &q_prime));
}

#[test]
fn example_3_4_no_surjective_hom() {
    use provmin::query::homomorphism::{find_homomorphism, find_surjective_homomorphism};
    let q = parse_cq("ans() :- R(x), R(y)").unwrap();
    let q_prime = parse_cq("ans() :- R(z)").unwrap();
    assert!(find_homomorphism(&q_prime, &q).is_some());
    assert!(find_surjective_homomorphism(&q_prime, &q).is_none());
    assert!(find_surjective_homomorphism(&q, &q_prime).is_some());
    // And the provenance consequence on a single-tuple relation:
    let mut db = Database::new();
    db.add("R", &["a"], "ex34_s");
    let p = eval_cq(&q, &db).boolean_provenance();
    let p_prime = eval_cq(&q_prime, &db).boolean_provenance();
    assert!(poly_lt(&p_prime, &p));
}

#[test]
fn example_4_2_five_completions() {
    use provmin::query::canonical::canonical_rewriting;
    use std::collections::BTreeSet;
    let q = artifacts::example_4_2_query();
    let consts: BTreeSet<Value> = [Value::new("a"), Value::new("b")].into();
    let can = canonical_rewriting(&q, &consts);
    assert_eq!(can.len(), 5);
}

#[test]
fn example_4_7_minprov_steps() {
    let trace = minprov_trace(&UnionQuery::single(artifacts::fig3_qhat()));
    assert_eq!(trace.canonical.len(), 5);
    assert_eq!(trace.output.len(), 2);
}

#[test]
fn examples_5_2_to_5_8_provenance_pipeline() {
    let db = artifacts::table_6_database();
    let trace = minprov_trace(&UnionQuery::single(artifacts::fig3_qhat()));
    let p = eval_ucq(&trace.input, &db).boolean_provenance();
    let p_i = eval_ucq(&trace.canonical, &db).boolean_provenance();
    let p_ii = eval_ucq(&trace.minimized, &db).boolean_provenance();
    let p_iii = eval_ucq(&trace.output, &db).boolean_provenance();
    assert_eq!(p, Polynomial::parse("s1·s1·s1 + 3·s1·s2·s3 + 3·s2·s4·s5"));
    assert_eq!(p_i, p);
    assert_eq!(p_ii, Polynomial::parse("s1 + 3·s1·s2·s3 + 3·s2·s4·s5"));
    assert_eq!(p_iii, Polynomial::parse("s1 + 3·s2·s4·s5"));
}
