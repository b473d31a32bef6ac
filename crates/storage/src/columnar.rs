//! Columnar views of annotated relations: per-position value columns plus
//! a parallel annotation column.
//!
//! The row-oriented [`Relation`] stores `(Tuple, Annotation)` pairs, which
//! is the right shape for set semantics and point lookups but makes the
//! evaluation inner loop chase a `Vec<Value>` allocation per row. A
//! [`ColumnarRelation`] transposes the rows once — one contiguous
//! **dictionary-encoded** `Vec<u32>` of interned value ids per argument
//! position and one `Vec<Annotation>` — so that batched assignment
//! extension ([`prov-engine`'s] batch pipeline) scans and gathers
//! contiguous columns of fixed-width integers: equality candidate checks
//! and disequality filters are plain `u32` compares the autovectorizer
//! can chew on, and values are decoded back ([`Value::from_id`]) only at
//! the output boundary. Views are plain owned data and therefore freely
//! borrowable by worker threads.
//!
//! Row order matches [`Relation::iter`]/[`Relation::row`] — insertion
//! order, with each removal moving the last row into the freed slot — so
//! row indices are interchangeable between a relation, its posting-list
//! indexes, and its columnar view.

use std::collections::HashMap;

use prov_semiring::Annotation;

use crate::database::Database;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::{RelName, Value};

/// A columnar view of one annotated relation: `columns[p][r]` is the
/// interned id ([`Value::id`]) of the value at position `p` of row `r`,
/// and `annotations[r]` is row `r`'s tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarRelation {
    name: RelName,
    /// Number of rows (kept explicitly: a nullary relation has no columns).
    len: usize,
    /// Dictionary-encoded value columns: interned ids, decoded back to
    /// [`Value`] only at the output boundary.
    columns: Vec<Vec<u32>>,
    annotations: Vec<Annotation>,
}

impl ColumnarRelation {
    /// Transposes `relation` into dictionary-encoded columns (row order
    /// preserved).
    pub fn from_relation(relation: &Relation) -> Self {
        let len = relation.len();
        let mut columns: Vec<Vec<u32>> = (0..relation.arity())
            .map(|_| Vec::with_capacity(len))
            .collect();
        let mut annotations = Vec::with_capacity(len);
        for (tuple, annotation) in relation.iter() {
            for (column, &value) in columns.iter_mut().zip(tuple.values()) {
                column.push(value.id());
            }
            annotations.push(*annotation);
        }
        ColumnarRelation {
            name: relation.name(),
            len,
            columns,
            annotations,
        }
    }

    /// Materializes the view back into a row-oriented [`Relation`]
    /// (inverse of [`ColumnarRelation::from_relation`]).
    pub fn to_relation(&self) -> Relation {
        let mut relation = Relation::new(self.name, self.arity());
        for row in 0..self.len {
            let tuple: Tuple = self
                .columns
                .iter()
                .map(|c| Value::from_id(c[row]))
                .collect();
            relation.insert(tuple, self.annotations[row]);
        }
        relation
    }

    /// The relation name.
    pub fn name(&self) -> RelName {
        self.name
    }

    /// The arity (number of columns).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dictionary-encoded value column at `position`: interned ids in
    /// row order (decode with [`Value::from_id`]). Panics if out of range.
    pub fn column_ids(&self, position: usize) -> &[u32] {
        &self.columns[position]
    }

    /// The annotation column (parallel to every value column).
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// The decoded value at `(row, position)`. Panics if out of range.
    pub fn value(&self, row: usize, position: usize) -> Value {
        Value::from_id(self.columns[position][row])
    }

    /// An empty view with the given name and arity (patch seed for a
    /// relation that appears after the view was built).
    pub fn empty(name: RelName, arity: usize) -> Self {
        ColumnarRelation {
            name,
            len: 0,
            columns: vec![Vec::new(); arity],
            annotations: Vec::new(),
        }
    }

    /// Appends one row, mirroring a [`Relation::insert`] (which appends in
    /// row order). Panics on arity mismatch.
    pub fn push_row(&mut self, tuple: &Tuple, annotation: Annotation) {
        assert_eq!(tuple.arity(), self.arity(), "columnar push arity mismatch");
        for (column, &value) in self.columns.iter_mut().zip(tuple.values()) {
            column.push(value.id());
        }
        self.annotations.push(annotation);
        self.len += 1;
    }

    /// Removes row `row` in O(arity), moving the last row into its slot —
    /// the same swap [`Relation::remove`] performs, keeping row ids
    /// interchangeable. Returns the removed row's annotation. Panics if
    /// `row` is out of range.
    pub fn swap_remove_row(&mut self, row: usize) -> Annotation {
        for column in &mut self.columns {
            column.swap_remove(row);
        }
        self.len -= 1;
        self.annotations.swap_remove(row)
    }
}

/// Columnar views for every relation of a database, keyed by name.
#[derive(Clone, Debug, Default)]
pub struct ColumnarDatabase {
    by_relation: HashMap<RelName, ColumnarRelation>,
}

impl ColumnarDatabase {
    /// Transposes every relation of `db`.
    pub fn from_database(db: &Database) -> Self {
        ColumnarDatabase {
            by_relation: db
                .relations()
                .map(|r| (r.name(), ColumnarRelation::from_relation(r)))
                .collect(),
        }
    }

    /// The columnar view of `rel`, if the relation exists.
    pub fn relation(&self, rel: RelName) -> Option<&ColumnarRelation> {
        self.by_relation.get(&rel)
    }

    /// Appends one row to `rel`'s view, creating an empty view (of the
    /// tuple's arity) when the relation is new — mirrors
    /// [`Database::insert`]'s create-on-first-use.
    pub fn push_row(&mut self, rel: RelName, tuple: &Tuple, annotation: Annotation) {
        self.by_relation
            .entry(rel)
            .or_insert_with(|| ColumnarRelation::empty(rel, tuple.arity()))
            .push_row(tuple, annotation);
    }

    /// The columnar view of `rel` for patching in place, if the relation
    /// exists.
    pub fn relation_mut(&mut self, rel: RelName) -> Option<&mut ColumnarRelation> {
        self.by_relation.get_mut(&rel)
    }

    /// Iterates all columnar views.
    pub fn relations(&self) -> impl Iterator<Item = &ColumnarRelation> {
        self.by_relation.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "b"], "col_1");
        db.add("R", &["a", "c"], "col_2");
        db.add("R", &["b", "c"], "col_3");
        db.add("S", &["x"], "col_4");
        db
    }

    #[test]
    fn columns_transpose_rows() {
        let db = sample();
        let view = ColumnarRelation::from_relation(db.relation(RelName::new("R")).unwrap());
        assert_eq!(view.len(), 3);
        assert_eq!(view.arity(), 2);
        assert_eq!(
            view.column_ids(0),
            &[
                Value::new("a").id(),
                Value::new("a").id(),
                Value::new("b").id()
            ]
        );
        assert_eq!(
            view.column_ids(1),
            &[
                Value::new("b").id(),
                Value::new("c").id(),
                Value::new("c").id()
            ]
        );
        assert_eq!(view.annotations()[2], Annotation::new("col_3"));
        assert_eq!(view.value(1, 1), Value::new("c"));
    }

    #[test]
    fn row_indices_match_relation_row_order() {
        let db = sample();
        let relation = db.relation(RelName::new("R")).unwrap();
        let view = ColumnarRelation::from_relation(relation);
        for (row, (tuple, annotation)) in relation.iter().enumerate() {
            for (pos, &value) in tuple.values().iter().enumerate() {
                assert_eq!(view.value(row, pos), value);
            }
            assert_eq!(view.annotations()[row], *annotation);
        }
    }

    #[test]
    fn round_trips_through_relation() {
        let db = sample();
        for relation in db.relations() {
            let back = ColumnarRelation::from_relation(relation).to_relation();
            assert_eq!(back.name(), relation.name());
            assert_eq!(back.arity(), relation.arity());
            assert_eq!(back.len(), relation.len());
            for (tuple, annotation) in relation.iter() {
                assert_eq!(back.annotation_of(tuple), Some(*annotation));
            }
        }
    }

    #[test]
    fn empty_relation_keeps_arity() {
        let relation = Relation::new(RelName::new("E"), 3);
        let view = ColumnarRelation::from_relation(&relation);
        assert_eq!(view.arity(), 3);
        assert!(view.is_empty());
        let back = view.to_relation();
        assert_eq!(back.arity(), 3);
        assert!(back.is_empty());
    }

    #[test]
    fn patched_view_matches_rebuilt_view() {
        let mut db = sample();
        let mut views = ColumnarDatabase::from_database(&db);
        // Insert into an existing relation, remove a middle row, and
        // create a brand-new relation — patching must track the row-order
        // semantics of Relation::insert/remove exactly.
        db.add("R", &["c", "d"], "col_5");
        views.push_row(
            RelName::new("R"),
            &Tuple::of(&["c", "d"]),
            Annotation::new("col_5"),
        );
        // Removing middle row 1 ("a","c") moves the last row ("c","d")
        // into its slot, in the relation and in the view alike.
        db.remove(RelName::new("R"), &Tuple::of(&["a", "c"]));
        let r = views.relation_mut(RelName::new("R")).unwrap();
        assert_eq!(r.swap_remove_row(1), Annotation::new("col_2"));
        assert_eq!(r.value(1, 0), Value::new("c"));
        assert_eq!(r.annotations()[1], Annotation::new("col_5"));
        // Removing the last row moves nothing.
        db.remove(RelName::new("R"), &Tuple::of(&["b", "c"]));
        assert_eq!(r.swap_remove_row(2), Annotation::new("col_3"));
        db.add("T", &["q", "r", "s"], "col_6");
        views.push_row(
            RelName::new("T"),
            &Tuple::of(&["q", "r", "s"]),
            Annotation::new("col_6"),
        );
        let rebuilt = ColumnarDatabase::from_database(&db);
        for relation in db.relations() {
            assert_eq!(
                views.relation(relation.name()),
                rebuilt.relation(relation.name()),
                "patched view diverges for {}",
                relation.name()
            );
        }
        assert!(views.relation_mut(RelName::new("Nope")).is_none());
    }

    #[test]
    fn swap_removing_the_only_row_keeps_an_empty_view() {
        let mut db = sample();
        let mut views = ColumnarDatabase::from_database(&db);
        db.remove(RelName::new("S"), &Tuple::of(&["x"]));
        let s = views.relation_mut(RelName::new("S")).unwrap();
        assert_eq!(s.swap_remove_row(0), Annotation::new("col_4"));
        assert!(s.is_empty());
        assert_eq!(s.arity(), 1);
        assert_eq!(
            views.relation(RelName::new("S")),
            ColumnarDatabase::from_database(&db).relation(RelName::new("S"))
        );
    }

    #[test]
    fn database_view_covers_all_relations() {
        let db = sample();
        let views = ColumnarDatabase::from_database(&db);
        assert_eq!(views.relations().count(), 2);
        assert_eq!(views.relation(RelName::new("S")).unwrap().len(), 1);
        assert!(views.relation(RelName::new("Nope")).is_none());
    }
}
