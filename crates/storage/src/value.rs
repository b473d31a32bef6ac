//! Database values and relation names (interned symbols).

use std::fmt;

use prov_semiring::{InternBatch, Interner};

static VALUE_POOL: Interner = Interner::new();
static REL_POOL: Interner = Interner::new();

/// A database value: an element of the value domain, interned.
///
/// The paper's examples use symbolic constants (`a`, `b`, `c`); values and
/// query constants share this type so that assignments can compare them
/// directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(u32);

impl Value {
    /// Fills unused slots of fixed-size storage; never read as a value.
    pub(crate) const PADDING: Value = Value(0);

    /// Interns a value by name.
    pub fn new(name: &str) -> Self {
        Value(VALUE_POOL.intern(name))
    }

    /// A fresh value distinct from all existing ones (for canonical
    /// databases and generators).
    pub fn fresh() -> Self {
        Value(VALUE_POOL.fresh("#v"))
    }

    /// The value's name.
    pub fn name(&self) -> &'static str {
        VALUE_POOL.name(self.0)
    }

    /// The raw interned id.
    pub fn id(&self) -> u32 {
        self.0
    }

    /// Decodes a raw interned id back into a `Value` — the inverse of
    /// [`Value::id`]. This is the dictionary-decode step of the columnar
    /// pipeline: blocks carry fixed-width `u32` id columns through the
    /// join schedule and only rematerialize `Value`s at the output
    /// boundary (tuple/monomial construction).
    ///
    /// `id` must have been minted by [`Value::id`] (or the columnar
    /// store's id columns, which hold exactly such ids); debug builds
    /// assert this against the interner.
    pub fn from_id(id: u32) -> Self {
        debug_assert!(
            (id as usize) < VALUE_POOL.count(),
            "value id {id} was not minted by the value interner"
        );
        Value(id)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&str> for Value {
    fn from(name: &str) -> Self {
        Value::new(name)
    }
}

/// An interned relation name (`R`, `S`, ..., and the reserved head `ans`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelName(u32);

impl RelName {
    /// Interns a relation name.
    pub fn new(name: &str) -> Self {
        RelName(REL_POOL.intern(name))
    }

    /// The relation's name.
    pub fn name(&self) -> &'static str {
        REL_POOL.name(self.0)
    }

    /// The raw interned id.
    pub fn id(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Debug for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&str> for RelName {
    fn from(name: &str) -> Self {
        RelName::new(name)
    }
}

/// Values and relation names interned under one holding of each pool's
/// writer lock, with ids in call order (see [`Interner::batch`]). The
/// value lock is taken before the relation-name lock; a caller that also
/// batches annotations takes that lock after this. While a batch lives,
/// this thread must not call [`Value::new`] or [`RelName::new`].
pub(crate) struct SymbolBatch {
    values: InternBatch<'static>,
    rels: InternBatch<'static>,
}

impl SymbolBatch {
    pub(crate) fn new() -> Self {
        let values = VALUE_POOL.batch();
        let rels = REL_POOL.batch();
        SymbolBatch { values, rels }
    }

    /// As [`Value::new`].
    pub(crate) fn value(&mut self, name: &str) -> Value {
        Value(self.values.intern(name))
    }

    /// As [`RelName::new`].
    pub(crate) fn rel(&mut self, name: &str) -> RelName {
        RelName(self.rels.intern(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_intern() {
        assert_eq!(Value::new("a"), Value::new("a"));
        assert_ne!(Value::new("a"), Value::new("b"));
        assert_eq!(Value::new("a").to_string(), "a");
    }

    #[test]
    fn rel_names_intern() {
        assert_eq!(RelName::new("R"), RelName::new("R"));
        assert_ne!(RelName::new("R"), RelName::new("S"));
    }

    #[test]
    fn fresh_values_unique() {
        assert_ne!(Value::fresh(), Value::fresh());
    }

    #[test]
    fn id_round_trips_through_from_id() {
        let v = Value::new("round-trip");
        assert_eq!(Value::from_id(v.id()), v);
        assert_eq!(Value::from_id(v.id()).name(), "round-trip");
    }
}
