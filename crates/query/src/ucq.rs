//! Unions of conjunctive queries with disequalities (paper Def 2.4).

use std::collections::BTreeSet;
use std::fmt;

use prov_storage::Value;

use crate::cq::{ConjunctiveQuery, QueryError};
use crate::term::Variable;

/// The union query classes of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnionClass {
    /// Union of CQ adjuncts.
    Ucq,
    /// Union of CQ≠ adjuncts.
    UcqDiseq,
    /// Union of complete CQ≠ adjuncts (cUCQ≠).
    CompleteUcqDiseq,
}

impl fmt::Display for UnionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnionClass::Ucq => "UCQ",
            UnionClass::UcqDiseq => "UCQ≠",
            UnionClass::CompleteUcqDiseq => "cUCQ≠",
        })
    }
}

/// A union of conjunctive queries `Q = Q1 ∪ ... ∪ Qm`; all adjunct heads
/// share the same relation and arity (paper Def 2.4).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct UnionQuery {
    adjuncts: Vec<ConjunctiveQuery>,
}

/// Errors raised by [`UnionQuery::new`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnionError {
    /// The union has no adjuncts.
    Empty,
    /// Two adjunct heads differ in relation or arity.
    HeadMismatch,
    /// An adjunct was itself ill-formed.
    Adjunct(QueryError),
}

impl fmt::Display for UnionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnionError::Empty => f.write_str("union query has no adjuncts"),
            UnionError::HeadMismatch => f.write_str("adjunct heads differ in relation or arity"),
            UnionError::Adjunct(e) => write!(f, "ill-formed adjunct: {e}"),
        }
    }
}

impl std::error::Error for UnionError {}

impl From<QueryError> for UnionError {
    fn from(e: QueryError) -> Self {
        UnionError::Adjunct(e)
    }
}

impl UnionQuery {
    /// Builds a union query, validating head compatibility.
    pub fn new(adjuncts: Vec<ConjunctiveQuery>) -> Result<Self, UnionError> {
        let first = adjuncts.first().ok_or(UnionError::Empty)?;
        let rel = first.head_relation();
        let arity = first.head().arity();
        for q in &adjuncts {
            if q.head_relation() != rel || q.head().arity() != arity {
                return Err(UnionError::HeadMismatch);
            }
        }
        Ok(UnionQuery { adjuncts })
    }

    /// A union with a single adjunct.
    pub fn single(q: ConjunctiveQuery) -> Self {
        UnionQuery { adjuncts: vec![q] }
    }

    /// `Adj(Q)`: the adjuncts.
    pub fn adjuncts(&self) -> &[ConjunctiveQuery] {
        &self.adjuncts
    }

    /// The number of adjuncts.
    pub fn len(&self) -> usize {
        self.adjuncts.len()
    }

    /// Always false (unions have at least one adjunct).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total number of relational atoms across adjuncts — the output-size
    /// measure of Theorem 4.10.
    pub fn total_atoms(&self) -> usize {
        self.adjuncts.iter().map(ConjunctiveQuery::len).sum()
    }

    /// `Var(Q) = ∪ Var(Qi)` (paper §2.1).
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.adjuncts.iter().flat_map(|q| q.variables()).collect()
    }

    /// `Const(Q) = ∪ Const(Qi)` (paper §2.1).
    pub fn constants(&self) -> BTreeSet<Value> {
        self.adjuncts.iter().flat_map(|q| q.constants()).collect()
    }

    /// Whether the union is boolean.
    pub fn is_boolean(&self) -> bool {
        self.adjuncts[0].is_boolean()
    }

    /// The most specific union class (Table 1 row).
    pub fn class(&self) -> UnionClass {
        if self.adjuncts.iter().all(ConjunctiveQuery::is_cq) {
            UnionClass::Ucq
        } else if self.is_complete() {
            UnionClass::CompleteUcqDiseq
        } else {
            UnionClass::UcqDiseq
        }
    }

    /// Whether every adjunct is complete (cUCQ≠ membership, paper Def 2.4).
    pub fn is_complete(&self) -> bool {
        self.adjuncts.iter().all(ConjunctiveQuery::is_complete)
    }

    /// Returns the union extended with another adjunct.
    pub fn union_with(&self, q: ConjunctiveQuery) -> Result<UnionQuery, UnionError> {
        let mut adjuncts = self.adjuncts.clone();
        adjuncts.push(q);
        UnionQuery::new(adjuncts)
    }

    /// Builds a union and drops isomorphic duplicate adjuncts (canonical
    /// form, first occurrence wins) — the constructor for *minimization
    /// outputs*, where a duplicate adjunct only duplicates provenance.
    ///
    /// [`UnionQuery::new`] deliberately keeps duplicates: a canonical
    /// rewriting (Def 4.1) must carry every completion — including
    /// isomorphic ones — for step I of `MinProv` to preserve provenance
    /// (Thm 4.4), so deduplication is opt-in, not universal.
    pub fn new_deduped(adjuncts: Vec<ConjunctiveQuery>) -> Result<Self, UnionError> {
        Ok(UnionQuery::new(adjuncts)?.dedup_isomorphic())
    }

    /// Returns the union with isomorphic duplicate adjuncts removed
    /// (first occurrence of each isomorphism class wins; order otherwise
    /// preserved).
    pub fn dedup_isomorphic(&self) -> UnionQuery {
        use crate::canonical::canonical_key;
        let mut seen = std::collections::BTreeSet::new();
        let kept: Vec<ConjunctiveQuery> = self
            .adjuncts
            .iter()
            .filter(|q| seen.insert(canonical_key(q)))
            .cloned()
            .collect();
        UnionQuery { adjuncts: kept }
    }

    /// Whether the two unions have the same adjuncts up to isomorphism:
    /// equally many, each adjunct of `self` isomorphic to a distinct
    /// adjunct of `other`. Isomorphism is an equivalence relation, so
    /// matching each adjunct to the first unmatched isomorphic one is
    /// exact.
    pub fn adjunct_wise_isomorphic(&self, other: &UnionQuery) -> bool {
        use crate::homomorphism::are_isomorphic;
        let mut unmatched: Vec<&ConjunctiveQuery> = other.adjuncts.iter().collect();
        self.len() == other.len()
            && self.adjuncts.iter().all(|a| {
                let found = unmatched.iter().position(|b| are_isomorphic(a, b));
                found.map(|i| unmatched.swap_remove(i)).is_some()
            })
    }
}

impl From<ConjunctiveQuery> for UnionQuery {
    fn from(q: ConjunctiveQuery) -> Self {
        UnionQuery::single(q)
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.adjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str("\n  ∪ ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};

    #[test]
    fn figure_1_qunion_structure() {
        let q = parse_ucq(
            "ans(x) :- R(x,y), R(y,x), x != y\n\
             ans(x) :- R(x,x)",
        )
        .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_atoms(), 3);
        assert!(!q.is_boolean());
    }

    #[test]
    fn head_mismatch_rejected() {
        let q1 = parse_cq("ans(x) :- R(x)").unwrap();
        let q2 = parse_cq("ans(x,y) :- R(x,y)").unwrap();
        assert_eq!(
            UnionQuery::new(vec![q1, q2]).unwrap_err(),
            UnionError::HeadMismatch
        );
    }

    #[test]
    fn empty_union_rejected() {
        assert_eq!(UnionQuery::new(vec![]).unwrap_err(), UnionError::Empty);
    }

    #[test]
    fn class_detection() {
        let ucq = parse_ucq("ans(x) :- R(x,y)\nans(x) :- S(x)").unwrap();
        assert_eq!(ucq.class(), UnionClass::Ucq);
        // R(x,y), x != y is in fact complete (single variable pair).
        let complete = parse_ucq("ans(x) :- R(x,y), x != y\nans(x) :- S(x)").unwrap();
        assert_eq!(complete.class(), UnionClass::CompleteUcqDiseq);
        // A path with only the end-points disequated is not complete.
        let incomplete = parse_ucq("ans(x) :- R(x,y), R(y,z), x != z\nans(x) :- S(x)").unwrap();
        assert_eq!(incomplete.class(), UnionClass::UcqDiseq);
    }

    #[test]
    fn new_deduped_drops_isomorphic_duplicates() {
        let q1 = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let q2 = parse_cq("ans(u) :- R(v,u), R(u,v)").unwrap(); // ≅ q1
        let q3 = parse_cq("ans(x) :- R(x,x)").unwrap();
        let deduped = UnionQuery::new_deduped(vec![q1.clone(), q2, q3.clone()]).unwrap();
        assert_eq!(deduped.adjuncts(), &[q1.clone(), q3.clone()]);
        // Plain `new` keeps duplicates (canonical rewritings need them).
        let q2_again = parse_cq("ans(u) :- R(v,u), R(u,v)").unwrap();
        let kept = UnionQuery::new(vec![q1, q2_again, q3]).unwrap();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.dedup_isomorphic().len(), 2);
    }

    #[test]
    fn adjunct_wise_isomorphism_matches_distinct_adjuncts() {
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x), x != y\nans(x) :- R(x,x)").unwrap();
        let renamed = parse_ucq("ans(u) :- R(u,u)\nans(u) :- R(v,u), R(u,v), v != u").unwrap();
        assert!(q.adjunct_wise_isomorphic(&renamed));
        // Same count, but both adjuncts of the left side would have to
        // match the one loop on the right.
        let loops = parse_ucq("ans(x) :- R(x,x)\nans(y) :- R(y,y)").unwrap();
        let mixed = parse_ucq("ans(x) :- R(x,x)\nans(x) :- R(x,y)").unwrap();
        assert!(!loops.adjunct_wise_isomorphic(&mixed));
        assert!(!mixed.adjunct_wise_isomorphic(&loops));
        let one = parse_ucq("ans(x) :- R(x,x)").unwrap();
        assert!(!one.adjunct_wise_isomorphic(&loops));
    }

    #[test]
    fn vars_and_consts_union() {
        let q = parse_ucq("ans(x) :- R(x,y)\nans(x) :- S(x,'c'), x != 'c'").unwrap();
        assert_eq!(q.variables().len(), 2);
        assert_eq!(q.constants().len(), 1);
    }
}
