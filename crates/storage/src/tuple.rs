//! Tuples: fixed-arity vectors of values.

use std::fmt;

use crate::value::Value;

/// Tuples up to this arity keep their values in place, with no heap
/// allocation: cloning one (into a relation's index, the annotation index,
/// a result) is a copy, and dropping one frees nothing.
const INLINE_ARITY: usize = 4;

/// A database tuple (the values of one row; the relation is contextual).
///
/// Equality, order and hashing are those of the value slice, whichever
/// way the values are stored.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` values are the tuple's; the rest are unused.
    Inline {
        len: u8,
        values: [Value; INLINE_ARITY],
    },
    Heap(Box<[Value]>),
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        if values.len() <= INLINE_ARITY {
            values.into_iter().collect()
        } else {
            Tuple(Repr::Heap(values.into_boxed_slice()))
        }
    }

    /// Builds a tuple by interning value names, e.g. `Tuple::of(&["a", "b"])`.
    pub fn of(names: &[&str]) -> Self {
        names.iter().map(|n| Value::new(n)).collect()
    }

    /// The empty tuple (result of a boolean query).
    pub fn empty() -> Self {
        Tuple(Repr::Inline {
            len: 0,
            values: [Value::PADDING; INLINE_ARITY],
        })
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> Value {
        self.values()[i]
    }
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::empty()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values().iter().enumerate() {
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
    /// A tuple borrows as its value slice. `Eq`/`Ord`/`Hash` are the
    /// slice's, so map lookups keyed by `Tuple` may probe with a borrowed
    /// `&[Value]` — the batched evaluator's allocation-free result
    /// accumulation.
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut values = [Value::PADDING; INLINE_ARITY];
        let mut len = 0;
        while let Some(v) = iter.next() {
            if len == INLINE_ARITY {
                let mut spilled = values.to_vec();
                spilled.push(v);
                spilled.extend(iter);
                return Tuple(Repr::Heap(spilled.into_boxed_slice()));
            }
            values[len] = v;
            len += 1;
        }
        Tuple(Repr::Inline {
            len: len as u8,
            values,
        })
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

    #[test]
    fn inline_and_heap_tuples_behave_as_their_slices() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        for arity in 0..=INLINE_ARITY + 2 {
            let names: Vec<String> = (0..arity).map(|i| format!("in{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let values: Vec<Value> = names.iter().map(|n| Value::new(n)).collect();
            let t = Tuple::of(&names);
            assert_eq!(t.values(), &values[..]);
            assert_eq!(t, Tuple::new(values.clone()));
            assert_eq!(t.arity(), arity);
            assert_eq!(
                hash(&|s| t.hash(s)),
                hash(&|s| values[..].hash(s)),
                "arity {arity}"
            );
            let mut longer = values.clone();
            longer.push(Value::new("z"));
            assert!(t < Tuple::new(longer), "a prefix sorts first");
        }
        assert_eq!(Tuple::default(), Tuple::empty());
    }
}
