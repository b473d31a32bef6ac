//! Query terms: variables and constants (paper Def 2.1 arguments).

use std::fmt;

use prov_storage::{Interner, Value};

static VAR_POOL: Interner = Interner::new();

/// An interned query variable (`x`, `y`, `v1`, ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(u32);

impl Variable {
    /// Interns a variable by name.
    pub fn new(name: &str) -> Self {
        Variable(VAR_POOL.intern(name))
    }

    /// A fresh variable distinct from all existing ones (for canonical
    /// rewritings and completions).
    pub fn fresh() -> Self {
        Variable(VAR_POOL.fresh("#x"))
    }

    /// The variable's name.
    pub fn name(&self) -> &'static str {
        VAR_POOL.name(self.0)
    }

    /// The raw interned id.
    pub fn id(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An argument of a query: a variable or a constant (paper Def 2.1:
/// `lj ∈ V ∪ C`). Constants share the database value domain so that
/// assignments compare them directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A query variable.
    Var(Variable),
    /// A constant from the value domain.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: &str) -> Self {
        Term::Var(Variable::new(name))
    }

    /// Shorthand for a constant term.
    pub fn constant(name: &str) -> Self {
        Term::Const(Value::new(name))
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Variable> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(*c),
        }
    }

    /// Whether this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

/// Tags a constant's interned id in a [`Term::code`], above every
/// variable position.
pub(crate) const CONST_TAG: u64 = 1 << 32;

impl Term {
    /// The term as an integer code: a variable's position in `vars`
    /// (sorted, and holding it), or a constant's interned id tagged with
    /// [`CONST_TAG`]. Codes order like terms: variables first.
    pub(crate) fn code(self, vars: &[Variable]) -> u64 {
        match self {
            Term::Var(v) => vars.binary_search(&v).expect("variable indexed") as u64,
            Term::Const(c) => CONST_TAG | u64::from(c.id()),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Variable> for Term {
    fn from(v: Variable) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(c: Value) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_intern() {
        assert_eq!(Variable::new("x"), Variable::new("x"));
        assert_ne!(Variable::new("x"), Variable::new("y"));
    }

    #[test]
    fn fresh_variables_unique() {
        assert_ne!(Variable::fresh(), Variable::fresh());
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("x");
        let c = Term::constant("a");
        assert!(v.is_var());
        assert!(!c.is_var());
        assert_eq!(v.as_var(), Some(Variable::new("x")));
        assert_eq!(c.as_const(), Some(Value::new("a")));
        assert_eq!(v.as_const(), None);
        assert_eq!(c.as_var(), None);
    }

    #[test]
    fn display_distinguishes_constants() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::constant("a").to_string(), "'a'");
    }
}
