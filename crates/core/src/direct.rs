//! Direct core-provenance computation (paper §5, Theorem 5.1): find the
//! core provenance of an output tuple from its polynomial, without
//! rewriting or re-evaluating the query.
//!
//! * The PTIME part (Corollary 5.6) is polynomial-only and lives in
//!   [`prov_semiring::direct::core_polynomial`]; re-exported here.
//! * The exact part computes the correct coefficient of each core monomial
//!   as the automorphism count of the adjunct the monomial corresponds to
//!   (Lemma 5.7), reconstructed from the monomial, the database, the output
//!   tuple and `Const(Q)` alone — the query itself is *not* needed
//!   (Lemma 5.9).

use std::collections::{BTreeMap, BTreeSet};

pub use prov_semiring::direct::{core_polynomial, is_core_shape};

use prov_query::homomorphism::count_automorphisms;
use prov_query::{Atom, ConjunctiveQuery, Diseq, Term, Variable};
use prov_semiring::{Monomial, Polynomial};
use prov_storage::{Database, Tuple, Value};

/// Errors raised by adjunct reconstruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirectError {
    /// An annotation in the monomial does not tag any tuple of the
    /// database.
    UnknownAnnotation(String),
    /// A head value neither equals a known constant nor appears in the
    /// monomial's witness tuples (the polynomial cannot have come from
    /// this database/tuple pair).
    UnboundHeadValue(Value),
}

impl std::fmt::Display for DirectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectError::UnknownAnnotation(a) => {
                write!(f, "annotation {a} tags no tuple of the database")
            }
            DirectError::UnboundHeadValue(v) => {
                write!(
                    f,
                    "head value {v} is neither a constant nor a witness value"
                )
            }
        }
    }
}

impl std::error::Error for DirectError {}

/// Reconstructs the p-minimal adjunct that yields core monomial `m` for
/// output tuple `t` (paper Lemma 5.9).
///
/// Every annotation of `m` identifies one tuple of `db` (abstract
/// tagging). Database values equal to a constant in `consts` must be that
/// constant in the adjunct — a p-minimal adjunct is complete, so its
/// variables are disequal to every constant — and all other values become
/// distinct variables. The adjunct is completed with all pairwise
/// disequalities.
pub fn adjunct_of_monomial(
    m: &Monomial,
    db: &Database,
    t: &Tuple,
    consts: &BTreeSet<Value>,
) -> Result<ConjunctiveQuery, DirectError> {
    let mut term_of: BTreeMap<Value, Term> = BTreeMap::new();
    let mut term_for = |v: Value| -> Term {
        if consts.contains(&v) {
            Term::Const(v)
        } else {
            *term_of
                .entry(v)
                .or_insert_with(|| Term::Var(Variable::new(&format!("w_{}", v.name()))))
        }
    };
    let mut atoms = Vec::new();
    for &a in m.support().iter() {
        let (rel, tuple) = db
            .tuple_of(a)
            .ok_or_else(|| DirectError::UnknownAnnotation(a.name().to_owned()))?;
        let args: Vec<Term> = tuple.values().iter().map(|&v| term_for(v)).collect();
        atoms.push(Atom::new(*rel, args));
    }
    // Head: t's values, mapped the same way; each non-constant head value
    // must occur in some witness tuple (query safety).
    let mut head_args = Vec::with_capacity(t.arity());
    for &v in t.values() {
        let term = term_for(v);
        if let Term::Var(var) = term {
            let occurs = atoms.iter().any(|a| a.variables().any(|x| x == var));
            if !occurs {
                return Err(DirectError::UnboundHeadValue(v));
            }
        }
        head_args.push(term);
    }
    let head = Atom::of("ans", &head_args);
    // Completeness: all pairwise variable disequalities plus variable ≠
    // constant for every constant.
    let vars: Vec<Variable> = term_of.values().filter_map(Term::as_var).collect();
    let mut diseqs = Vec::new();
    for (i, &x) in vars.iter().enumerate() {
        for &y in &vars[i + 1..] {
            diseqs.push(Diseq::vars(x, y));
        }
        for &c in consts {
            diseqs.push(Diseq::var_const(x, c));
        }
    }
    ConjunctiveQuery::new(head, atoms, diseqs)
        .map_err(|_| DirectError::UnboundHeadValue(t.values()[0]))
}

/// `Aut(m)`: the number of automorphisms of the adjunct corresponding to
/// core monomial `m` (paper Lemma 5.9) — computable without the query, in
/// time exponential in `|m|`.
pub fn monomial_automorphisms(
    m: &Monomial,
    db: &Database,
    t: &Tuple,
    consts: &BTreeSet<Value>,
) -> Result<u64, DirectError> {
    let adjunct = adjunct_of_monomial(m, db, t, consts)?;
    Ok(count_automorphisms(&adjunct))
}

/// The exact core provenance of `p = P(t, Q, D)` (paper Theorem 5.1,
/// part 2): the PTIME transformation of Corollary 5.6 determines the core
/// monomials, and each coefficient is replaced by the automorphism count
/// of its reconstructed adjunct (Lemmas 5.7 and 5.9). Needs `db`, `t` and
/// `Const(Q)` but not `Q` itself.
pub fn exact_core(
    p: &Polynomial,
    db: &Database,
    t: &Tuple,
    consts: &BTreeSet<Value>,
) -> Result<Polynomial, DirectError> {
    let shape = core_polynomial(p);
    let mut exact = Polynomial::zero_poly();
    for (m, _approx_coeff) in shape.iter() {
        let aut = monomial_automorphisms(m, db, t, consts)?;
        exact.add_occurrences(m.clone(), aut);
    }
    Ok(exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_engine::eval_cq;
    use prov_query::parse_cq;

    /// D̂ of Table 6.
    fn table_6_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "c"], "s4");
        db.add("R", &["c", "a"], "s5");
        db
    }

    #[test]
    fn example_5_2_provenance_of_triangle() {
        // P(Q̂, D̂) = s1³ + 3·s1·s2·s3 + 3·s2·s4·s5 (Example 5.2).
        let db = table_6_database();
        let q = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let p = eval_cq(&q, &db).boolean_provenance();
        assert_eq!(p, Polynomial::parse("s1·s1·s1 + 3·s1·s2·s3 + 3·s2·s4·s5"));
    }

    #[test]
    fn example_5_8_exact_core() {
        // Core provenance of Q̂ on D̂: s1 + 3·s2·s4·s5, with the coefficient
        // 3 equal to the automorphism count of the triangle adjunct.
        let db = table_6_database();
        let q = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let p = eval_cq(&q, &db).boolean_provenance();
        let core = exact_core(&p, &db, &Tuple::empty(), &BTreeSet::new()).unwrap();
        assert_eq!(core, Polynomial::parse("s1 + 3·s2·s4·s5"));
    }

    #[test]
    fn adjunct_reconstruction_of_triangle_monomial() {
        let db = table_6_database();
        let m = Monomial::parse("s2·s4·s5"); // tuples (a,b),(b,c),(c,a)
        let adjunct = adjunct_of_monomial(&m, &db, &Tuple::empty(), &BTreeSet::new()).unwrap();
        assert_eq!(adjunct.len(), 3);
        assert_eq!(adjunct.variables().len(), 3);
        assert_eq!(adjunct.diseqs().len(), 3); // complete on 3 variables
        assert_eq!(count_automorphisms(&adjunct), 3);
    }

    #[test]
    fn adjunct_reconstruction_of_loop_monomial() {
        let db = table_6_database();
        let m = Monomial::parse("s1"); // tuple (a,a)
        let adjunct = adjunct_of_monomial(&m, &db, &Tuple::empty(), &BTreeSet::new()).unwrap();
        assert_eq!(adjunct.len(), 1);
        assert_eq!(adjunct.variables().len(), 1);
        assert_eq!(count_automorphisms(&adjunct), 1);
    }

    #[test]
    fn constants_pin_values_in_reconstruction() {
        // With 'a' ∈ Const(Q), the value a becomes the constant 'a'.
        let db = table_6_database();
        let m = Monomial::parse("s2"); // tuple (a,b)
        let consts: BTreeSet<Value> = [Value::new("a")].into();
        let adjunct = adjunct_of_monomial(&m, &db, &Tuple::empty(), &consts).unwrap();
        assert_eq!(adjunct.variables().len(), 1); // only b is a variable
        assert_eq!(adjunct.constants().len(), 1);
        // Completeness includes w_b != 'a'.
        assert_eq!(adjunct.diseqs().len(), 1);
    }

    #[test]
    fn head_values_must_be_witnessed() {
        let db = table_6_database();
        let m = Monomial::parse("s1");
        let err = adjunct_of_monomial(&m, &db, &Tuple::of(&["zzz"]), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, DirectError::UnboundHeadValue(_)));
    }

    #[test]
    fn unknown_annotation_is_reported() {
        let db = table_6_database();
        let m = Monomial::parse("not_a_tag_anywhere");
        let err = adjunct_of_monomial(&m, &db, &Tuple::empty(), &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, DirectError::UnknownAnnotation(_)));
    }

    #[test]
    fn exact_core_with_projection_head() {
        // Non-boolean query: head values participate in the automorphism
        // count (head must be fixed).
        let db = table_6_database();
        let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let result = eval_cq(&q, &db);
        let t = Tuple::of(&["a"]);
        let p = result.provenance(&t);
        // P((a)) = s1·s1 + s2·s3 → core = s1 + s2·s3.
        let core = exact_core(&p, &db, &t, &BTreeSet::new()).unwrap();
        assert_eq!(core, Polynomial::parse("s1 + s2·s3"));
    }
}
