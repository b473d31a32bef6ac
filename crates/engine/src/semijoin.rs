//! Semijoin reduction of constant-anchored bodies before the batched
//! join (Yannakakis, "Algorithms for acyclic database schemes", 1981).
//!
//! The greedy planner starts a join at one constant and carries every
//! partial path to the next constant, which may kill nearly all of them.
//! [`reduce`] first narrows each variable's set of possible values by
//! semijoins started from the atoms that carry constants; the pipeline
//! then only binds values inside those sets.
//!
//! * **Up sweep**: repeatedly visit the unvisited atom with the cheapest
//!   candidate set — its shortest constant posting list, or
//!   `|dom(v)| · len / distinct(pos)` for a variable that already has a
//!   domain — keep the candidate rows that agree with the atom's
//!   constants, repeated variables and the current domains, and make the
//!   surviving values each variable's domain. The sweep stops when the
//!   cheapest remaining atom would touch more than half its relation.
//! * **Down sweep**: revisit the same atoms in reverse order, skipping
//!   those that cannot narrow anything further.
//!
//! On an acyclic body this is the full reducer; on a cyclic body it is
//! sound but partial.
//!
//! Soundness: a value leaves a variable's domain only if no row of some
//! atom matches it together with the other atoms' domains, so the value
//! occurs in no assignment of `A(t,Q,D)` and `P(t,Q,D)` is unchanged
//! (Def 2.6 / Def 2.12).

use std::collections::BTreeMap;

use prov_query::{Atom, ConjunctiveQuery, Term, Variable};
use prov_storage::{ColumnarDatabase, ColumnarRelation, Value};

use crate::index::{DatabaseIndex, RelationIndex};

/// Each reached variable's possible values, as sorted, deduplicated
/// value ids ([`Value::id`]).
pub(crate) type Domains = BTreeMap<Variable, Vec<u32>>;

/// How an atom's candidate rows are fetched.
#[derive(Clone, Copy, Debug)]
enum Access {
    /// The posting list of a constant at a position.
    Const(usize, Value),
    /// The union of the posting lists of a domain's values at a position.
    Domain(usize, Variable),
    /// Every row of the relation.
    Scan,
}

/// Whether the reduction runs on `q`: at least 3 atoms, at least 2 of
/// which carry a constant. With one anchor the planner already expands
/// outward from it, so there is nothing to prune.
fn anchored(q: &ConjunctiveQuery) -> bool {
    q.atoms().len() >= 3
        && q.atoms()
            .iter()
            .filter(|a| a.constants().next().is_some())
            .count()
            >= 2
}

/// The cheapest access to `atom`'s rows and its estimated row count.
fn cheapest(atom: &Atom, index: &RelationIndex, domains: &Domains) -> (f64, Access) {
    let mut best = (index.len() as f64, Access::Scan);
    for (pos, term) in atom.args.iter().enumerate() {
        let candidate = match *term {
            Term::Const(c) => (index.matching(pos, c).len() as f64, Access::Const(pos, c)),
            Term::Var(v) => match domains.get(&v) {
                Some(dom) => (
                    dom.len() as f64 * index.len() as f64 / index.distinct(pos).max(1) as f64,
                    Access::Domain(pos, v),
                ),
                None => continue,
            },
        };
        if candidate.0 < best.0 {
            best = candidate;
        }
    }
    best
}

/// Semijoin-filters `atom` against the current domains and replaces the
/// domain of each of its variables by the values that survive. Returns
/// `false` when no row survives (the query's result is empty).
fn narrow(
    atom: &Atom,
    access: Access,
    index: &RelationIndex,
    rel: &ColumnarRelation,
    domains: &mut Domains,
) -> bool {
    let mut consts: Vec<(usize, u32)> = Vec::new();
    let mut repeats: Vec<(usize, usize)> = Vec::new();
    let mut vars: Vec<(usize, Variable)> = Vec::new();
    for (pos, term) in atom.args.iter().enumerate() {
        match *term {
            Term::Const(c) => consts.push((pos, c.id())),
            Term::Var(v) => match vars.iter().find(|&&(_, w)| w == v) {
                Some(&(p0, _)) => repeats.push((pos, p0)),
                None => vars.push((pos, v)),
            },
        }
    }
    let checks: Vec<(usize, &[u32])> = vars
        .iter()
        .filter_map(|&(pos, v)| domains.get(&v).map(|dom| (pos, dom.as_slice())))
        .collect();
    let id = |pos: usize, row: u32| rel.column_ids(pos)[row as usize];
    let ok = |row: u32| {
        consts.iter().all(|&(pos, c)| id(pos, row) == c)
            && repeats.iter().all(|&(pos, p0)| id(pos, row) == id(p0, row))
            && checks
                .iter()
                .all(|&(pos, dom)| dom.binary_search(&id(pos, row)).is_ok())
    };
    let mut matched = 0usize;
    let mut survivors: Vec<Vec<u32>> = vec![Vec::new(); vars.len()];
    let mut visit = |row: u32| {
        if ok(row) {
            matched += 1;
            for (values, &(pos, _)) in survivors.iter_mut().zip(&vars) {
                values.push(id(pos, row));
            }
        }
    };
    match access {
        Access::Const(pos, c) => index.matching(pos, c).iter().for_each(|&r| visit(r)),
        Access::Domain(pos, v) => {
            for &value in &domains[&v] {
                for &r in index.matching(pos, Value::from_id(value)) {
                    visit(r);
                }
            }
        }
        Access::Scan => (0..rel.len() as u32).for_each(visit),
    }
    for (mut values, (_, v)) in survivors.into_iter().zip(vars) {
        values.sort_unstable();
        values.dedup();
        domains.insert(v, values);
    }
    matched > 0
}

/// Narrows the possible values of `q`'s variables by semijoins from its
/// constant-anchored atoms (see the module docs). Returns `None` when
/// some atom matches no row under the domains — the result is then
/// empty — and an empty map when `q` is not anchored enough to prune.
/// Every relation `q` names must exist with a matching arity in both
/// `index` and `columnar`.
pub(crate) fn reduce(
    q: &ConjunctiveQuery,
    index: &DatabaseIndex,
    columnar: &ColumnarDatabase,
) -> Option<Domains> {
    let mut domains = Domains::new();
    if !anchored(q) {
        return Some(domains);
    }
    let atoms = q.atoms();
    let views = |ai: usize| {
        let rel = atoms[ai].relation;
        (
            index.relation(rel).expect("relation validated"),
            columnar.relation(rel).expect("relation validated"),
        )
    };
    let mut visited: Vec<usize> = Vec::with_capacity(atoms.len());
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    while !remaining.is_empty() {
        let (k, cost, access) = remaining
            .iter()
            .enumerate()
            .map(|(k, &ai)| {
                let (cost, access) = cheapest(&atoms[ai], views(ai).0, &domains);
                (k, cost, access)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("remaining non-empty");
        let ai = remaining[k];
        let (atom_index, rel) = views(ai);
        if cost * 2.0 > atom_index.len() as f64 {
            break;
        }
        if !narrow(&atoms[ai], access, atom_index, rel, &mut domains) {
            return None;
        }
        remaining.remove(k);
        visited.push(ai);
    }
    // The last atom of the up sweep already saw every final domain, and
    // an atom over one variable can only hand back that variable's
    // current domain, so neither is revisited.
    for &ai in visited.iter().rev().skip(1) {
        let mut vars = atoms[ai].variables();
        let Some(first) = vars.next() else { continue };
        if vars.all(|v| v == first) {
            continue;
        }
        let (atom_index, rel) = views(ai);
        let (_, access) = cheapest(&atoms[ai], atom_index, &domains);
        if !narrow(&atoms[ai], access, atom_index, rel, &mut domains) {
            return None;
        }
    }
    Some(domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::parse_cq;
    use prov_storage::Database;

    /// `R`: a = 'a' fans out to x ∈ {1,2,3}; only 1 → 4 → 6 reaches an
    /// `S(·,'b')` row. `T` repeats its last two positions only for x ≠ 4.
    fn db() -> Database {
        let mut db = Database::new();
        for (i, (x, y)) in [
            ("a", "1"),
            ("a", "2"),
            ("a", "3"),
            ("1", "4"),
            ("2", "5"),
            ("3", "3"),
            ("4", "6"),
            ("5", "7"),
            ("6", "8"),
            ("7", "9"),
        ]
        .into_iter()
        .enumerate()
        {
            db.add("R", &[x, y], &format!("sj_r{i}"));
        }
        for (i, (z, w)) in [("6", "b"), ("7", "c"), ("8", "b"), ("9", "c"), ("6", "c")]
            .into_iter()
            .enumerate()
        {
            db.add("S", &[z, w], &format!("sj_s{i}"));
        }
        for (i, row) in [
            ["a", "1", "1"],
            ["a", "4", "5"],
            ["a", "7", "7"],
            ["b", "1", "1"],
            ["b", "2", "2"],
            ["c", "3", "3"],
        ]
        .into_iter()
        .enumerate()
        {
            db.add("T", &row, &format!("sj_t{i}"));
        }
        db
    }

    fn reduce_text(text: &str, db: &Database) -> Option<Domains> {
        let q = parse_cq(text).unwrap();
        reduce(
            &q,
            &DatabaseIndex::build(db),
            &ColumnarDatabase::from_database(db),
        )
    }

    fn ids(values: &[&str]) -> Vec<u32> {
        let mut ids: Vec<u32> = values.iter().map(|v| Value::new(v).id()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn unmatched_second_anchor_empties_before_the_pipeline() {
        let db = db();
        let text = "ans(x) :- R('a', x), R(x, y), S(y, 'nowhere')";
        assert!(reduce_text(text, &db).is_none());
        let session = crate::EvalSession::new();
        assert!(session
            .eval_ucq(&prov_query::parse_ucq(text).unwrap(), &db)
            .is_empty());
        assert_eq!(session.stats().peak_frontier_rows, 0);
    }

    #[test]
    fn single_anchor_gets_no_domains() {
        let db = db();
        let domains = reduce_text("ans(z) :- R('a', x), R(x, y), R(y, z)", &db);
        assert_eq!(domains, Some(Domains::new()));
        // Two anchors but only two atoms: also left to the planner.
        let domains = reduce_text("ans(x) :- R('a', x), S(x, 'b')", &db);
        assert_eq!(domains, Some(Domains::new()));
    }

    #[test]
    fn path_domains_are_exactly_the_assigned_values() {
        let db = db();
        let text = "ans(x, z) :- R('a', x), R(x, y), R(y, z), S(z, 'b')";
        let domains = reduce_text(text, &db).expect("the path has an assignment");
        let mut assigned = Domains::new();
        for a in crate::assignments(&parse_cq(text).unwrap(), &db) {
            for (v, value) in a.bindings {
                assigned.entry(v).or_default().push(value.id());
            }
        }
        for values in assigned.values_mut() {
            values.sort_unstable();
            values.dedup();
        }
        assert_eq!(domains, assigned);
        let var = |name: &str| &domains[&Variable::new(name)];
        assert_eq!(
            (var("x"), var("y"), var("z")),
            (&ids(&["1"]), &ids(&["4"]), &ids(&["6"]))
        );
    }

    #[test]
    fn repeated_variables_in_an_anchored_atom_are_filtered() {
        // T('a', 4, 5) would reach S(6, 'c') through R(4, 6) if the
        // repeat of x were not checked.
        let db = db();
        let text = "ans(y) :- T('a', x, x), R(x, y), S(y, 'c')";
        let domains = reduce_text(text, &db).expect("x = 7 has an assignment");
        assert_eq!(domains[&Variable::new("x")], ids(&["7"]));
        assert_eq!(domains[&Variable::new("y")], ids(&["9"]));
        let q = parse_cq(text).unwrap();
        assert_eq!(
            crate::eval_cq_with(&q, &db, crate::EvalOptions::default()),
            crate::eval_cq_naive(&q, &db)
        );
    }
}
