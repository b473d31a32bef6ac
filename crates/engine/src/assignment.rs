//! Assignments of query atoms to database tuples (paper Def 2.6), and
//! the differential test oracle built on them.
//!
//! [`assignments`] reads Def 2.6 literally: a nested loop over the body
//! atoms in written order, each atom scanning its whole relation, with no
//! index, no planner and no threads. [`eval_cq_naive`] sums one monomial
//! per assignment (Def 2.12). Nothing in production calls them; fuzzing,
//! the proptests and the paper-example tests check the batched pipeline
//! against them, and the paper-example tests check them against the
//! paper's own tables.

use std::collections::BTreeMap;

use prov_query::{ConjunctiveQuery, Term, UnionQuery, Variable};
use prov_semiring::Monomial;
use prov_storage::{Database, Tuple, Value};

use crate::eval::AnnotatedResult;

/// An assignment: a mapping of the relational atoms of a query to tuples of
/// a database that respects relation names, induces a consistent argument
/// mapping, and satisfies the query's disequalities (Def 2.6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    /// `tuples[i]` is the database tuple atom `i` is mapped to.
    pub tuples: Vec<Tuple>,
    /// The induced mapping on variables.
    pub bindings: BTreeMap<Variable, Value>,
}

impl Assignment {
    /// `σ(head(Q))`: the output tuple this assignment yields (Def 2.6).
    pub fn head_tuple(&self, q: &ConjunctiveQuery) -> Tuple {
        q.head()
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => *self
                    .bindings
                    .get(v)
                    .expect("head variable bound (query safety)"),
                Term::Const(c) => *c,
            })
            .collect()
    }

    /// The provenance monomial of this assignment: the product of the
    /// annotations of the assigned tuples, multiplicities included
    /// (Def 2.12).
    pub fn monomial(&self, q: &ConjunctiveQuery, db: &Database) -> Monomial {
        Monomial::from_annotations(self.tuples.iter().zip(q.atoms()).map(|(t, atom)| {
            db.annotation_of(atom.relation, t)
                .expect("assigned tuple exists in the database")
        }))
    }
}

/// Every assignment of `q` into `db` (Def 2.6): atoms are mapped in
/// written order to same-relation, same-arity tuples whose values agree
/// with the constants and with the variables bound so far; a complete
/// mapping is kept when it satisfies every disequality.
pub fn assignments(q: &ConjunctiveQuery, db: &Database) -> Vec<Assignment> {
    let mut out = Vec::new();
    let mut tuples = Vec::with_capacity(q.atoms().len());
    extend(q, db, &mut tuples, &BTreeMap::new(), &mut out);
    out
}

/// Maps atom `tuples.len()` to each consistent tuple in turn and recurses.
fn extend(
    q: &ConjunctiveQuery,
    db: &Database,
    tuples: &mut Vec<Tuple>,
    bindings: &BTreeMap<Variable, Value>,
    out: &mut Vec<Assignment>,
) {
    let Some(atom) = q.atoms().get(tuples.len()) else {
        // Query safety: every disequality variable occurs in some atom,
        // so a complete mapping binds it.
        let value = |t: Term| match t {
            Term::Var(v) => bindings[&v],
            Term::Const(c) => c,
        };
        if q.diseqs()
            .iter()
            .all(|d| bindings[&d.left()] != value(d.right()))
        {
            out.push(Assignment {
                tuples: tuples.clone(),
                bindings: bindings.clone(),
            });
        }
        return;
    };
    let Some(relation) = db.relation(atom.relation) else {
        return;
    };
    for (tuple, _) in relation.iter() {
        if tuple.arity() != atom.arity() {
            continue;
        }
        let mut extended = bindings.clone();
        let consistent = atom
            .args
            .iter()
            .zip(tuple.values())
            .all(|(term, &value)| match term {
                Term::Const(c) => *c == value,
                Term::Var(v) => *extended.entry(*v).or_insert(value) == value,
            });
        if consistent {
            tuples.push(tuple.clone());
            extend(q, db, tuples, &extended, out);
            tuples.pop();
        }
    }
}

/// Evaluates `q` by the oracle: one monomial per assignment of
/// [`assignments`], summed per output tuple (Def 2.12).
pub fn eval_cq_naive(q: &ConjunctiveQuery, db: &Database) -> AnnotatedResult {
    let mut result = AnnotatedResult::default();
    for a in assignments(q, db) {
        result.record(a.head_tuple(q), a.monomial(q, db));
    }
    result
}

/// Evaluates a union by the oracle: the sum of [`eval_cq_naive`] over its
/// adjuncts (Def 2.12, union case).
pub fn eval_ucq_naive(q: &UnionQuery, db: &Database) -> AnnotatedResult {
    let mut result = AnnotatedResult::default();
    for adj in q.adjuncts() {
        result.merge(eval_cq_naive(adj, db));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::parse_cq;

    fn table_2_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "b"], "s4");
        db
    }

    #[test]
    fn example_2_7_assignment_enumeration() {
        let db = table_2_database();
        // First adjunct of Qunion: two assignments.
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        let assignments_q1 = assignments(&q1, &db);
        assert_eq!(assignments_q1.len(), 2);
        // Second adjunct: two assignments ((a,a) and (b,b)).
        let q2 = parse_cq("ans(x) :- R(x,x)").unwrap();
        assert_eq!(assignments(&q2, &db).len(), 2);
    }

    #[test]
    fn head_tuple_and_monomial() {
        let db = table_2_database();
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        let all = assignments(&q1, &db);
        let first = all
            .iter()
            .find(|a| a.head_tuple(&q1) == Tuple::of(&["a"]))
            .expect("assignment yielding (a)");
        assert_eq!(first.monomial(&q1, &db), Monomial::parse("s2·s3"));
    }
}
