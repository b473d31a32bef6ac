//! Soundness of the homomorphism and containment machinery against actual
//! evaluation on random instances: if we claim Q ⊆ Q', then Q(D) ⊆ Q'(D)
//! on every generated D.

use proptest::prelude::*;

use prov_query::containment::{contained_in, cq_diseq_contained_in};
use prov_query::generate::{random_cq, QuerySpec};
use prov_query::homomorphism::find_homomorphism;
use prov_query::UnionQuery;
use prov_storage::generator::{random_database, DatabaseSpec};
use prov_storage::{Database, Tuple};

fn small_query(seed: u64, diseq_percent: u8) -> prov_query::ConjunctiveQuery {
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

/// Provenance-free evaluation via the assignment semantics (duplicated
/// tiny evaluator to avoid depending on prov-engine from prov-query's
/// tests — also acts as a differential check of the engine).
fn result_set(
    q: &prov_query::ConjunctiveQuery,
    db: &Database,
) -> std::collections::BTreeSet<Tuple> {
    use prov_query::Term;
    fn extend(
        q: &prov_query::ConjunctiveQuery,
        db: &Database,
        i: usize,
        bindings: &mut std::collections::BTreeMap<prov_query::Variable, prov_storage::Value>,
        out: &mut std::collections::BTreeSet<Tuple>,
    ) {
        if i == q.atoms().len() {
            let ok = q.diseqs().iter().all(|d| {
                let l = bindings[&d.left()];
                let r = match d.right() {
                    Term::Var(v) => bindings[&v],
                    Term::Const(c) => c,
                };
                l != r
            });
            if ok {
                let tuple: Tuple = q
                    .head()
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => bindings[v],
                        Term::Const(c) => *c,
                    })
                    .collect();
                out.insert(tuple);
            }
            return;
        }
        let atom = &q.atoms()[i];
        let Some(rel) = db.relation(atom.relation) else {
            return;
        };
        'rows: for (tuple, _) in rel.iter() {
            if tuple.arity() != atom.arity() {
                continue;
            }
            let mut added = Vec::new();
            for (term, &value) in atom.args.iter().zip(tuple.values()) {
                match term {
                    Term::Const(c) => {
                        if *c != value {
                            for v in added.drain(..) {
                                bindings.remove(&v);
                            }
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => match bindings.get(v) {
                        Some(&b) => {
                            if b != value {
                                for v in added.drain(..) {
                                    bindings.remove(&v);
                                }
                                continue 'rows;
                            }
                        }
                        None => {
                            bindings.insert(*v, value);
                            added.push(*v);
                        }
                    },
                }
            }
            extend(q, db, i + 1, bindings, out);
            for v in added {
                bindings.remove(&v);
            }
        }
    }
    let mut out = std::collections::BTreeSet::new();
    extend(q, db, 0, &mut std::collections::BTreeMap::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn homomorphism_implies_containment_semantically(
        sa in 0u64..300, sb in 0u64..300, db_seed in 0u64..40
    ) {
        // hom q2 → q1 witnesses q1 ⊆ q2: check on instances.
        let q1 = small_query(sa, 0);
        let q2 = small_query(sb, 0);
        if q1.head().arity() != q2.head().arity() { return Ok(()); }
        if find_homomorphism(&q2, &q1).is_some() {
            let db = random_database(&DatabaseSpec::single_binary(6, 3), db_seed);
            let r1 = result_set(&q1, &db);
            let r2 = result_set(&q2, &db);
            prop_assert!(
                r1.is_subset(&r2),
                "hom {} -> {} exists but result sets not contained", q2, q1
            );
        }
    }

    #[test]
    fn general_containment_is_sound(
        sa in 0u64..200, sb in 0u64..200, db_seed in 0u64..30
    ) {
        let q1 = small_query(sa, 40);
        let q2 = small_query(sb, 40);
        if q1.head().arity() != q2.head().arity() { return Ok(()); }
        if cq_diseq_contained_in(&q1, &q2) {
            let db = random_database(&DatabaseSpec::single_binary(6, 3), db_seed);
            prop_assert!(
                result_set(&q1, &db).is_subset(&result_set(&q2, &db)),
                "claimed {} ⊆ {} but found counterexample instance", q1, q2
            );
        }
    }

    #[test]
    fn containment_is_complete_on_instances(
        sa in 0u64..150, sb in 0u64..150
    ) {
        // The contrapositive: if contained_in says NO, some instance must
        // separate them — we search the generated family for one and do
        // not require success, but if we *do* find a separating instance,
        // contained_in must have said NO.
        let q1 = small_query(sa, 20);
        let q2 = small_query(sb, 20);
        if q1.head().arity() != q2.head().arity() { return Ok(()); }
        let mut separated = false;
        for db_seed in 0..12u64 {
            let db = random_database(&DatabaseSpec::single_binary(6, 3), db_seed);
            if !result_set(&q1, &db).is_subset(&result_set(&q2, &db)) {
                separated = true;
                break;
            }
        }
        if separated {
            prop_assert!(
                !contained_in(&UnionQuery::single(q1.clone()), &UnionQuery::single(q2.clone())),
                "instance separates {} from {} but contained_in claimed containment", q1, q2
            );
        }
    }
}
