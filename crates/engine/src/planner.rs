//! Join planning: choosing the order in which a query's atoms are
//! extended during assignment enumeration (Def 2.6).
//!
//! One greedy cost planner: repeatedly visit the atom with the smallest
//! estimated candidate count under the variables bound so far. The
//! estimates read row counts and per-position distinct-value counts from
//! the [`DatabaseIndex`] the join then probes, so planning never scans a
//! row.
//!
//! Atom order never changes *what* is enumerated — every order yields
//! exactly the assignments of Def 2.6 and therefore identical provenance —
//! only how many partial assignments are touched along the way.

use std::collections::BTreeSet;

use prov_query::{Atom, ConjunctiveQuery, Term, Variable};

use crate::index::{DatabaseIndex, RelationIndex};

/// Estimated number of candidate rows for `atom` given the set of
/// already-bound variables: the relation cardinality scaled by the
/// selectivity `1/distinct(p)` of every bound position, assuming
/// independent columns (the classic System-R estimate). Missing relations
/// and arity mismatches estimate to 0 — they prune the whole enumeration,
/// so visiting them first is optimal.
fn estimate(atom: &Atom, index: Option<&RelationIndex>, bound: &BTreeSet<Variable>) -> f64 {
    let Some(index) = index else {
        return 0.0;
    };
    // An atom whose arity disagrees with the stored relation matches no
    // rows (same convention as evaluation).
    if atom.arity() != index.arity() {
        return 0.0;
    }
    let mut est = index.len() as f64;
    for (pos, term) in atom.args.iter().enumerate() {
        let is_bound = match term {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if is_bound {
            est /= index.distinct(pos).max(1) as f64;
        }
    }
    est.max(if index.is_empty() { 0.0 } else { 1.0 })
}

/// The atom visit order for `q` over the relations `index` covers, as a
/// permutation of `0..q.atoms().len()`.
///
/// `pinned` (a delta pass's atom, matching a single row) is visited first
/// with its variables bound. The rest go greedily: the smallest estimate
/// first, ties broken toward fewer newly-introduced variables, then
/// written order (for determinism).
pub(crate) fn plan(
    q: &ConjunctiveQuery,
    index: &DatabaseIndex,
    pinned: Option<usize>,
) -> Vec<usize> {
    let atoms = q.atoms();
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut order = Vec::with_capacity(atoms.len());
    let mut remaining: Vec<usize> = (0..atoms.len()).filter(|&i| Some(i) != pinned).collect();
    if let Some(j) = pinned {
        order.push(j);
        bound.extend(atoms[j].variables());
    }
    while !remaining.is_empty() {
        let key = |i: usize| {
            let atom = &atoms[i];
            let est = estimate(atom, index.relation(atom.relation), &bound);
            let new_vars = atom.variables().filter(|v| !bound.contains(v)).count();
            (est, new_vars, i)
        };
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &i), (_, &j)| {
                let (ei, ni, ii) = key(i);
                let (ej, nj, jj) = key(j);
                ei.total_cmp(&ej).then(ni.cmp(&nj)).then(ii.cmp(&jj))
            })
            .expect("remaining non-empty");
        order.push(best);
        bound.extend(atoms[best].variables());
        remaining.remove(pos);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::parse_cq;
    use prov_storage::{Database, RelName, Tuple};

    fn skewed_db() -> Database {
        let mut db = Database::new();
        // S is tiny and selective; R is wide.
        for i in 0..50 {
            db.add(
                "R",
                &[&format!("r{}", i % 10), &format!("r{}", (i + 1) % 10)],
                &format!("pl_r{i}"),
            );
        }
        db.add("S", &["r1"], "pl_s0");
        db
    }

    fn order(text: &str, db: &Database, pinned: Option<usize>) -> Vec<usize> {
        plan(&parse_cq(text).unwrap(), &DatabaseIndex::build(db), pinned)
    }

    #[test]
    fn every_planner_returns_a_permutation() {
        let db = skewed_db();
        let text = "ans(x) :- R(x,y), S(x), R(y,z)";
        for pinned in [None, Some(0), Some(1), Some(2)] {
            let mut order = order(text, &db, pinned);
            order.sort_unstable();
            assert_eq!(
                order,
                vec![0, 1, 2],
                "pinned {pinned:?} is not a permutation"
            );
        }
    }

    #[test]
    fn cost_based_starts_from_smallest_relation() {
        let db = skewed_db();
        // S has 1 row vs R's 10: the planner leads with S even though
        // written order and arity give no syntactic reason to.
        assert_eq!(order("ans(x) :- R(x,y), S(x)", &db, None)[0], 1);
    }

    #[test]
    fn mixed_arity_atoms_over_one_relation_name_do_not_panic() {
        // R is stored with arity 2; the second atom uses R with arity 3
        // and a bound constant beyond the stored arity. The planner must
        // estimate it as empty (like evaluation does), and a position
        // past the stored arity counts 0 distinct values instead of
        // indexing out of bounds.
        let db = skewed_db();
        let index = DatabaseIndex::build(&db);
        assert_eq!(index.relation(RelName::new("R")).unwrap().distinct(2), 0);
        let q = parse_cq("ans() :- R(x,y), R(x,y,'c')").unwrap();
        assert_eq!(plan(&q, &index, None).len(), 2);
        // And evaluation is empty, matching the oracle.
        use crate::eval::{eval_cq_with, EvalOptions};
        assert!(eval_cq_with(&q, &db, EvalOptions::default()).is_empty());
        assert!(crate::eval_cq_naive(&q, &db).is_empty());
    }

    #[test]
    fn single_atom_queries_skip_stats() {
        let db = skewed_db();
        assert_eq!(order("ans(x) :- R(x,y)", &db, None), vec![0]);
        assert_eq!(order("ans(x) :- R(x,y)", &db, Some(0)), vec![0]);
    }

    #[test]
    fn cost_based_visits_missing_relations_first() {
        let db = skewed_db();
        // A missing relation empties the result; probing it first is free.
        assert_eq!(order("ans(x) :- R(x,y), Missing(y)", &db, None)[0], 1);
    }

    #[test]
    fn relations_emptied_by_removals_are_visited_first() {
        // S is still indexed, with 0 rows: like a missing relation it
        // empties the result, so it leads even though it is written last.
        let mut db = skewed_db();
        db.remove(RelName::new("S"), &Tuple::of(&["r1"]));
        let index = DatabaseIndex::build(&db);
        assert!(index.relation(RelName::new("S")).unwrap().is_empty());
        let q = parse_cq("ans(x) :- R(x,y), R(y,z), S(z)").unwrap();
        assert_eq!(plan(&q, &index, None)[0], 2);
    }

    #[test]
    fn bound_positions_raise_selectivity() {
        let db = skewed_db();
        // After S(x) binds x, R(x,y) is cheaper than R(y,z) (no bound pos).
        let order = order("ans(x) :- R(y,z), R(x,y), S(x)", &db, None);
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 1);
    }

    #[test]
    fn pinned_atom_leads_and_binds_its_variables() {
        // R: 50 rows, 50 distinct values at position 0, 5 at position 1.
        // S: 3 rows.
        let mut db = Database::new();
        for i in 0..50 {
            db.add(
                "R",
                &[&format!("a{i}"), &format!("b{}", i % 5)],
                &format!("pp_r{i}"),
            );
        }
        for i in 0..3 {
            db.add("S", &[&format!("c{i}")], &format!("pp_s{i}"));
        }
        let text = "ans(x) :- R(x,y), R(y,z), S(w)";
        // Unpinned: S (3 rows), then the two R atoms at 50 each, in
        // written order.
        assert_eq!(order(text, &db, None), vec![2, 0, 1]);
        // Pinned R(x,y) goes first and binds y, so R(y,z) costs 50/50
        // and now beats S.
        assert_eq!(order(text, &db, Some(0)), vec![0, 1, 2]);
        // Pinned R(y,z) binds y, but R(x,y) still costs 50/5, more than S.
        assert_eq!(order(text, &db, Some(1)), vec![1, 2, 0]);
    }
}
