//! Annotated relations: `N[X]`-relations in the abstractly-tagged style of
//! paper §2.3 — every tuple carries a distinct annotation from `X`.

use std::collections::HashMap;
use std::fmt;

use prov_semiring::Annotation;

use crate::tuple::Tuple;
use crate::value::RelName;

/// An abstractly-tagged annotated relation: a set of distinct tuples, each
/// carrying one annotation.
#[derive(Clone, Debug)]
pub struct Relation {
    name: RelName,
    arity: usize,
    rows: Vec<(Tuple, Annotation)>,
    index: HashMap<Tuple, usize>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: RelName, arity: usize) -> Self {
        Relation {
            name,
            arity,
            rows: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The relation name.
    pub fn name(&self) -> RelName {
        self.name
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a tuple with an explicit annotation. Panics on arity
    /// mismatch. Re-inserting an existing tuple keeps the old annotation
    /// (set semantics on tuples, as in the paper's data model).
    pub fn insert(&mut self, tuple: Tuple, annotation: Annotation) {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "arity mismatch inserting into {}",
            self.name
        );
        if self.index.contains_key(&tuple) {
            return;
        }
        self.index.insert(tuple.clone(), self.rows.len());
        self.rows.push((tuple, annotation));
    }

    /// Inserts a tuple with a fresh abstract annotation.
    pub fn insert_fresh(&mut self, tuple: Tuple) -> Annotation {
        if let Some(a) = self.annotation_of(&tuple) {
            return a;
        }
        let a = Annotation::fresh();
        self.insert(tuple, a);
        a
    }

    /// Whether the relation contains `tuple`.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.index.contains_key(tuple)
    }

    /// The annotation of `tuple`, if present.
    pub fn annotation_of(&self, tuple: &Tuple) -> Option<Annotation> {
        self.index.get(tuple).map(|&i| self.rows[i].1)
    }

    /// Iterates `(tuple, annotation)` rows in row order: insertion order,
    /// except that each removal moved the then-last row into the freed
    /// slot (see [`Relation::remove`]).
    pub fn iter(&self) -> impl Iterator<Item = &(Tuple, Annotation)> {
        self.rows.iter()
    }

    /// The `i`-th row in row order. Panics if out of range.
    pub fn row(&self, i: usize) -> &(Tuple, Annotation) {
        &self.rows[i]
    }

    /// Removes `tuple`, returning its annotation (for deletion-propagation
    /// scenarios). O(1): the last row moves into the removed row's slot
    /// (`Vec::swap_remove`), so only that one row changes id. Columnar
    /// views and posting-list indexes patched by the same removal apply
    /// the same swap, keeping row ids interchangeable.
    pub fn remove(&mut self, tuple: &Tuple) -> Option<Annotation> {
        let i = self.index.remove(tuple)?;
        let (_, annotation) = self.rows.swap_remove(i);
        if let Some((moved, _)) = self.rows.get(i) {
            *self.index.get_mut(moved).expect("moved row is indexed") = i;
        }
        Some(annotation)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}/{}:", self.name, self.arity)?;
        for (t, a) in &self.rows {
            writeln!(f, "  {t}  [{a}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut r = Relation::new(RelName::new("R"), 2);
        let s1 = Annotation::new("rel_s1");
        r.insert(Tuple::of(&["a", "b"]), s1);
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::of(&["a", "b"])));
        assert_eq!(r.annotation_of(&Tuple::of(&["a", "b"])), Some(s1));
        assert_eq!(r.annotation_of(&Tuple::of(&["b", "a"])), None);
    }

    #[test]
    fn duplicate_insert_keeps_first_annotation() {
        let mut r = Relation::new(RelName::new("R"), 1);
        let a1 = Annotation::new("dup_a1");
        let a2 = Annotation::new("dup_a2");
        r.insert(Tuple::of(&["a"]), a1);
        r.insert(Tuple::of(&["a"]), a2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.annotation_of(&Tuple::of(&["a"])), Some(a1));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_enforced() {
        let mut r = Relation::new(RelName::new("R"), 2);
        r.insert(Tuple::of(&["a"]), Annotation::fresh());
    }

    #[test]
    fn insert_fresh_gives_distinct_annotations() {
        let mut r = Relation::new(RelName::new("R"), 1);
        let a = r.insert_fresh(Tuple::of(&["a"]));
        let b = r.insert_fresh(Tuple::of(&["b"]));
        assert_ne!(a, b);
        // Re-inserting returns the existing annotation.
        assert_eq!(r.insert_fresh(Tuple::of(&["a"])), a);
    }

    #[test]
    fn remove_reindexes() {
        let mut r = Relation::new(RelName::new("R"), 1);
        let a = r.insert_fresh(Tuple::of(&["a"]));
        let _b = r.insert_fresh(Tuple::of(&["b"]));
        let c = r.insert_fresh(Tuple::of(&["c"]));
        let d = r.insert_fresh(Tuple::of(&["d"]));
        // Removing a middle row moves the last row ("d") into its slot.
        assert!(r.remove(&Tuple::of(&["b"])).is_some());
        assert_eq!(r.len(), 3);
        let order: Vec<&Tuple> = r.iter().map(|(t, _)| t).collect();
        assert_eq!(
            order,
            [&Tuple::of(&["a"]), &Tuple::of(&["d"]), &Tuple::of(&["c"])]
        );
        assert_eq!(r.annotation_of(&Tuple::of(&["a"])), Some(a));
        assert_eq!(r.annotation_of(&Tuple::of(&["c"])), Some(c));
        assert_eq!(r.annotation_of(&Tuple::of(&["d"])), Some(d));
        assert_eq!(r.remove(&Tuple::of(&["b"])), None);
        // The moved row is reachable at its new id; removing the last
        // row moves nothing.
        assert_eq!(r.remove(&Tuple::of(&["d"])), Some(d));
        assert_eq!(r.remove(&Tuple::of(&["c"])), Some(c));
        assert_eq!(r.row(0), &(Tuple::of(&["a"]), a));
        assert_eq!(r.remove(&Tuple::of(&["a"])), Some(a));
        assert!(r.is_empty());
    }
}
