//! Join planning: choosing the order in which a query's atoms are
//! extended during assignment enumeration (Def 2.6).
//!
//! Two planners are provided, forming the B1 ablation axis:
//!
//! * [`PlannerKind::Syntactic`] — most-bound-first by syntax alone:
//!   constants and already-bound variables count, database ignored.
//! * [`PlannerKind::CostBased`] — greedy minimum estimated candidate
//!   count, using per-relation cardinality and per-column distinct-value
//!   statistics from the database instance.
//!
//! Atom order never changes *what* is enumerated — every planner yields
//! exactly the assignments of Def 2.6 and therefore identical provenance —
//! only how many partial assignments are touched along the way.

use std::collections::{BTreeSet, HashMap};

use prov_query::{ConjunctiveQuery, Term, Variable};
use prov_storage::{Database, RelName};

/// Which join planner orders the query's atoms.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlannerKind {
    /// Most-bound-first heuristic on query syntax only.
    Syntactic,
    /// Greedy cost-based ordering from relation/column cardinalities.
    #[default]
    CostBased,
}

impl PlannerKind {
    /// The atom visit order for `q` over `db` under this planner, as a
    /// permutation of `0..q.atoms().len()`.
    pub fn order(self, q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
        match self {
            PlannerKind::Syntactic => syntactic_order(q),
            PlannerKind::CostBased => cost_based_order(q, db),
        }
    }
}

/// Orders atoms most-bound-first: atoms with constants and already-bound
/// variables come earlier, shrinking the candidate sets.
fn syntactic_order(q: &ConjunctiveQuery) -> Vec<usize> {
    let n = q.atoms().len();
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let atom = &q.atoms()[i];
                let consts = atom.args.iter().filter(|t| !t.is_var()).count();
                let bound_vars = atom.variables().filter(|v| bound.contains(v)).count();
                let unbound = atom.variables().filter(|v| !bound.contains(v)).count();
                (consts + bound_vars, usize::MAX - unbound, usize::MAX - i)
            })
            .expect("remaining non-empty");
        order.push(best);
        bound.extend(q.atoms()[best].variables());
        remaining.remove(pos);
    }
    order
}

/// Per-relation statistics backing selectivity estimates.
struct RelStats {
    rows: usize,
    /// Distinct values per column (0 for an empty relation).
    column_cardinality: Vec<usize>,
}

fn stats_for(q: &ConjunctiveQuery, db: &Database) -> HashMap<RelName, RelStats> {
    let mut stats = HashMap::new();
    for atom in q.atoms() {
        if stats.contains_key(&atom.relation) {
            continue;
        }
        if let Some(rel) = db.relation(atom.relation) {
            if rel.arity() == atom.arity() {
                stats.insert(
                    atom.relation,
                    RelStats {
                        rows: rel.len(),
                        column_cardinality: (0..rel.arity())
                            .map(|p| rel.column_cardinality(p))
                            .collect(),
                    },
                );
            }
        }
    }
    stats
}

/// Estimated number of candidate rows for `atom` given the set of
/// already-bound variables: the relation cardinality scaled by the
/// selectivity `1/distinct(p)` of every bound position, assuming
/// independent columns (the classic System-R estimate). Missing relations
/// and arity mismatches estimate to 0 — they prune the whole enumeration,
/// so visiting them first is optimal.
fn estimate(atom: &prov_query::Atom, stats: Option<&RelStats>, bound: &BTreeSet<Variable>) -> f64 {
    let Some(stats) = stats else {
        return 0.0;
    };
    // Stats are keyed by relation name; an atom whose arity disagrees with
    // the stored relation matches no rows (same convention as evaluation).
    if atom.arity() != stats.column_cardinality.len() {
        return 0.0;
    }
    let mut est = stats.rows as f64;
    for (pos, term) in atom.args.iter().enumerate() {
        let is_bound = match term {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if is_bound {
            est /= stats.column_cardinality[pos].max(1) as f64;
        }
    }
    est.max(if stats.rows == 0 { 0.0 } else { 1.0 })
}

/// Greedy cost-based ordering: repeatedly pick the unvisited atom with
/// the smallest estimated candidate count under the current bound set,
/// breaking ties toward fewer newly-introduced variables, then written
/// order (for determinism).
fn cost_based_order(q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
    let n = q.atoms().len();
    if n <= 1 {
        // Nothing to order — skip the cardinality scan entirely.
        return (0..n).collect();
    }
    let stats = stats_for(q, db);
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &i), (_, &j)| {
                let key = |idx: usize| {
                    let atom = &q.atoms()[idx];
                    let est = estimate(atom, stats.get(&atom.relation), &bound);
                    let new_vars = atom.variables().filter(|v| !bound.contains(v)).count();
                    (est, new_vars, idx)
                };
                let (ei, ni, ii) = key(i);
                let (ej, nj, jj) = key(j);
                ei.total_cmp(&ej).then(ni.cmp(&nj)).then(ii.cmp(&jj))
            })
            .expect("remaining non-empty");
        order.push(best);
        bound.extend(q.atoms()[best].variables());
        remaining.remove(pos);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::parse_cq;

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

    #[test]
    fn every_planner_returns_a_permutation() {
        let db = skewed_db();
        let q = parse_cq("ans(x) :- R(x,y), S(x), R(y,z)").unwrap();
        for kind in [PlannerKind::Syntactic, PlannerKind::CostBased] {
            let mut order = kind.order(&q, &db);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2], "{kind:?} is not a permutation");
        }
    }

    #[test]
    fn cost_based_starts_from_smallest_relation() {
        let db = skewed_db();
        // S has 1 row vs R's 50: the cost-based planner leads with S even
        // though written order and arity give no syntactic reason to.
        let q = parse_cq("ans(x) :- R(x,y), S(x)").unwrap();
        assert_eq!(PlannerKind::CostBased.order(&q, &db)[0], 1);
    }

    #[test]
    fn mixed_arity_atoms_over_one_relation_name_do_not_panic() {
        // R is stored with arity 2; the second atom uses R with arity 3
        // and a bound constant beyond the stored arity. The planner must
        // estimate it as empty (like evaluation does), not index past the
        // per-column stats.
        let db = skewed_db();
        let q = parse_cq("ans() :- R(x,y), R(x,y,'c')").unwrap();
        let order = PlannerKind::CostBased.order(&q, &db);
        assert_eq!(order.len(), 2);
        // And evaluation under the default (cost-based) options is empty,
        // matching the oracle.
        use crate::eval::{eval_cq_with, EvalOptions};
        assert!(eval_cq_with(&q, &db, EvalOptions::default()).is_empty());
        assert!(crate::eval_cq_naive(&q, &db).is_empty());
    }

    #[test]
    fn single_atom_queries_skip_stats() {
        let db = skewed_db();
        let q = parse_cq("ans(x) :- R(x,y)").unwrap();
        assert_eq!(PlannerKind::CostBased.order(&q, &db), vec![0]);
    }

    #[test]
    fn cost_based_visits_missing_relations_first() {
        let db = skewed_db();
        let q = parse_cq("ans(x) :- R(x,y), Missing(y)").unwrap();
        // A missing relation empties the result; probing it first is free.
        assert_eq!(PlannerKind::CostBased.order(&q, &db)[0], 1);
    }

    #[test]
    fn bound_positions_raise_selectivity() {
        let db = skewed_db();
        // After S(x) binds x, R(x,y) is cheaper than R(y,z) (no bound pos).
        let q = parse_cq("ans(x) :- R(y,z), R(x,y), S(x)").unwrap();
        let order = PlannerKind::CostBased.order(&q, &db);
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 1);
    }
}
