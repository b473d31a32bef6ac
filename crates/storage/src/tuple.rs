//! Tuples: fixed-arity vectors of values.

use std::fmt;

use crate::value::Value;

/// A database tuple (the values of one row; the relation is contextual).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Builds a tuple by interning value names, e.g. `Tuple::of(&["a", "b"])`.
    pub fn of(names: &[&str]) -> Self {
        Tuple {
            values: names.iter().map(|n| Value::new(n)).collect(),
        }
    }

    /// The empty tuple (result of a boolean query).
    pub fn empty() -> Self {
        Tuple { values: Vec::new() }
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> Value {
        self.values[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(v.name())?;
        }
        f.write_str(")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::borrow::Borrow<[Value]> for Tuple {
    /// A tuple borrows as its value slice. Derived `Eq`/`Ord`/`Hash` on the
    /// single `Vec<Value>` field all delegate to slice semantics, so map
    /// lookups keyed by `Tuple` may probe with a borrowed `&[Value]` —
    /// the batched evaluator's allocation-free result accumulation.
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::of(&["a", "b"]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), Value::new("a"));
        assert_eq!(t.get(1), Value::new("b"));
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(Tuple::of(&["a", "b"]).to_string(), "(a,b)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn equality_is_by_values() {
        assert_eq!(Tuple::of(&["a"]), Tuple::of(&["a"]));
        assert_ne!(Tuple::of(&["a"]), Tuple::of(&["b"]));
    }
}
