//! Cross-crate integration scenarios: provenance through views, general
//! annotations via valuations, and the full storage→engine→core pipeline.

use std::collections::BTreeSet;

use provmin::prelude::*;
use provmin::storage::textio::{format_database, parse_database};

/// Provenance composes through views: evaluating a query over a
/// materialized view and substituting each view tuple's polynomial equals
/// evaluating the unfolded query over the base database (the semiring
/// composition property underlying §6's "result of a previous
/// computation").
#[test]
fn provenance_composes_through_views() {
    let mut base = Database::new();
    base.add("R", &["a", "b"], "vw_s1");
    base.add("R", &["b", "a"], "vw_s2");
    base.add("R", &["a", "a"], "vw_s3");

    // View V(x) := R(x,y), R(y,x).
    let view_def = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let view_result = eval_cq(&view_def, &base);

    // Materialize the view with fresh annotations, remembering each
    // annotation's defining polynomial.
    let mut materialized = Database::new();
    let mut definition: std::collections::BTreeMap<Annotation, Polynomial> =
        std::collections::BTreeMap::new();
    for (tuple, p) in view_result.iter() {
        let a = materialized.insert_fresh(RelName::new("V"), tuple.clone());
        definition.insert(a, p.clone());
    }

    // Query over the view: Q(x) := V(x), V(y)  (boolean-ish join).
    let over_view = parse_cq("ans() :- V(x), V(y)").unwrap();
    let composed = eval_cq(&over_view, &materialized)
        .boolean_provenance()
        .substitute(&mut |a| {
            definition
                .get(&a)
                .cloned()
                .unwrap_or_else(|| Polynomial::var(a))
        });

    // Unfolded query over the base database.
    let unfolded = parse_cq("ans() :- R(x,y), R(y,x), R(x2,y2), R(y2,x2)").unwrap();
    let direct = eval_cq(&unfolded, &base).boolean_provenance();

    assert_eq!(composed, direct, "substitution must equal unfolding");
}

/// The full CLI-ish pipeline: text database → evaluation → exact core →
/// valuation, with a round-trip through the text format.
#[test]
fn text_roundtrip_then_core_then_valuation() {
    let text = "\
        # Table 2\n\
        R(a, a) : s1\n\
        R(a, b) : s2\n\
        R(b, a) : s3\n\
        R(b, b) : s4\n";
    let db = parse_database(text).unwrap();
    let reparsed = parse_database(&format_database(&db)).unwrap();
    assert_eq!(db.num_tuples(), reparsed.num_tuples());

    let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let result = eval_cq(&q, &reparsed);
    let t = Tuple::of(&["a"]);
    let core = exact_core(&result.provenance(&t), &reparsed, &t, &BTreeSet::new()).unwrap();
    assert_eq!(core, Polynomial::parse("s1 + s2·s3"));

    // Counting semiring: the core has 2 derivations for (a).
    let count: Natural = core.eval(&mut |_| Natural(1));
    assert_eq!(count, Natural(2));
}

/// Theorem 6.1 through the pipeline: collapse annotations via a renaming
/// (general annotations), and the p-minimal query's provenance stays ≤.
#[test]
fn general_annotations_preserve_the_order() {
    let mut db = Database::new();
    db.add("R", &["a", "b"], "ga_1");
    db.add("R", &["b", "a"], "ga_2");
    db.add("R", &["a", "a"], "ga_3");
    let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let minimal = minprov_cq(&q);

    let shared = Annotation::new("ga_shared");
    let collapse = Renaming::identity()
        .rename(Annotation::new("ga_1"), shared)
        .rename(Annotation::new("ga_2"), shared);

    let full = eval_cq(&q, &db);
    let core = eval_ucq(&minimal, &db);
    for (t, p) in full.iter() {
        let p_collapsed = collapse.apply_poly(p);
        let core_collapsed = collapse.apply_poly(&core.provenance(t));
        assert!(
            poly_leq(&core_collapsed, &p_collapsed),
            "Thm 6.1 violated at {t}: {core_collapsed} vs {p_collapsed}"
        );
    }
}

/// Evaluation strategies and the direct/query-based core all agree on a
/// larger generated instance (differential end-to-end check).
#[test]
fn strategies_and_cores_agree_on_generated_instance() {
    use provmin::engine::eval_cq_naive;
    use provmin::storage::generator::{random_database, DatabaseSpec};
    let db = random_database(&DatabaseSpec::single_binary(30, 5), 99);
    let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();

    let naive = eval_cq_naive(&q, &db);
    let planned = eval_cq(&q, &db);
    assert_eq!(naive, planned);

    let minimal = minprov_cq(&q);
    let via_query = eval_ucq(&minimal, &db);
    for (t, p) in planned.iter() {
        let direct = exact_core(p, &db, t, &BTreeSet::new()).unwrap();
        assert_eq!(direct, via_query.provenance(t), "tuple {t}");
    }
}

/// Deletion propagation answers agree between full and core provenance on
/// generated instances (the examples/deletion_propagation.rs invariant,
/// as a test).
#[test]
fn deletion_answers_agree_between_full_and_core() {
    use provmin::storage::generator::{random_database, DatabaseSpec};
    let db = random_database(&DatabaseSpec::single_binary(12, 3), 5);
    let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let result = eval_cq(&q, &db);
    let annotations: Vec<Annotation> = db
        .relations()
        .flat_map(|r| r.iter().map(|(_, a)| *a))
        .collect();
    for (_t, p) in result.iter() {
        let core = core_polynomial(p);
        for &victim in &annotations {
            let survive_full = p.eval(&mut |a| Boolean(a != victim));
            let survive_core = core.eval(&mut |a| Boolean(a != victim));
            assert_eq!(survive_full, survive_core);
        }
    }
}
