//! Per-relation position indexes for assignment enumeration.
//!
//! For every relation and argument position, a hash index from value to
//! the rows carrying it. Extending a partial assignment through an atom
//! with at least one bound argument then scans only the shortest matching
//! posting list instead of the whole relation.
//!
//! Indexes are plain owned data (row ids, no borrows into the database),
//! so one build can outlive a single evaluation: [`crate::IndexCache`]
//! keeps them keyed by the database's generation stamp and shares them
//! across evaluations, UCQ disjuncts, and worker threads. Row ids match
//! [`prov_storage::Relation::row`] / [`prov_storage::ColumnarRelation`]
//! row order, and a mutation patches all three in step: an insert appends
//! a row, a removal moves the last row into the freed slot.

use std::collections::HashMap;

use prov_storage::{Database, RelName, Relation, Value};

/// An index over one relation: `posting[position][value]` lists the row
/// indices whose tuple has `value` at `position`. The per-position maps
/// double as the join planner's statistics: a position's distinct-value
/// count is its map's size, exact after every append and removal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationIndex {
    len: usize,
    posting: Vec<HashMap<Value, Vec<u32>>>,
}

impl RelationIndex {
    /// Builds the index for `relation`.
    pub fn build(relation: &Relation) -> Self {
        let mut posting: Vec<HashMap<Value, Vec<u32>>> = vec![HashMap::new(); relation.arity()];
        for (row, (tuple, _)) in relation.iter().enumerate() {
            for (map, &value) in posting.iter_mut().zip(tuple.values()) {
                map.entry(value).or_default().push(row as u32);
            }
        }
        RelationIndex {
            len: relation.len(),
            posting,
        }
    }

    /// Number of rows in the indexed relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the indexed relation was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The indexed relation's arity (0 for an index no row reached yet).
    pub fn arity(&self) -> usize {
        self.posting.len()
    }

    /// Number of distinct values at `position` (0 past the arity).
    pub fn distinct(&self, position: usize) -> usize {
        self.posting.get(position).map_or(0, HashMap::len)
    }

    /// Rows whose tuple has `value` at `position` (empty slice if none).
    pub fn matching(&self, position: usize, value: Value) -> &[u32] {
        self.posting
            .get(position)
            .and_then(|map| map.get(&value))
            .map_or(&[], Vec::as_slice)
    }

    /// Of the given `(position, value)` constraints, returns the posting
    /// list of the most selective one, or `None` when unconstrained.
    pub fn most_selective(&self, constraints: &[(usize, Value)]) -> Option<&[u32]> {
        constraints
            .iter()
            .map(|&(pos, v)| self.matching(pos, v))
            .min_by_key(|rows| rows.len())
    }

    /// Appends one row (id = current length), mirroring a
    /// [`Relation::insert`] — inserts append in row order. An index
    /// created empty takes its arity from the first row.
    pub fn push_row(&mut self, values: &[Value]) {
        if self.posting.is_empty() {
            self.posting.resize_with(values.len(), HashMap::new);
        }
        let row = self.len as u32;
        for (map, &value) in self.posting.iter_mut().zip(values) {
            map.entry(value).or_default().push(row);
        }
        self.len += 1;
    }

    /// The row whose tuple is `values` and for which `is_row` holds (the
    /// caller checks the annotation column), found through the shortest
    /// of the tuple's posting lists rather than a scan of the relation.
    /// A nullary relation has no posting lists, and at most one row.
    pub(crate) fn find_row(
        &self,
        values: &[Value],
        is_row: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let shortest = values
            .iter()
            .enumerate()
            .map(|(pos, &value)| self.matching(pos, value))
            .min_by_key(|rows| rows.len());
        match shortest {
            Some(rows) => rows.iter().map(|&r| r as usize).find(|&r| is_row(r)),
            None => (0..self.len).find(|&r| is_row(r)),
        }
    }

    /// Removes row `row`, whose tuple is `removed`, and renames the last
    /// row, whose tuple is `moved`, to `row` — the same swap
    /// [`Relation::remove`] performs. Touches only the posting lists of
    /// those two tuples' values: a binary-searched removal, then a pop of
    /// the old last id plus a sorted insert, so every list stays sorted.
    /// A value whose list empties leaves its map.
    pub(crate) fn swap_remove_row(&mut self, row: usize, removed: &[Value], moved: &[Value]) {
        let row = row as u32;
        let last = (self.len - 1) as u32;
        for (map, value) in self.posting.iter_mut().zip(removed) {
            let posting = map.get_mut(value).expect("removed row is indexed");
            let at = posting.binary_search(&row).expect("removed row is listed");
            posting.remove(at);
            if posting.is_empty() {
                map.remove(value);
            }
        }
        if row != last {
            for (map, value) in self.posting.iter_mut().zip(moved) {
                let posting = map.get_mut(value).expect("moved row is indexed");
                debug_assert_eq!(posting.last(), Some(&last), "last row sorts last");
                posting.pop();
                let at = posting.partition_point(|&r| r < row);
                posting.insert(at, row);
            }
        }
        self.len -= 1;
    }
}

/// Indexes for every relation of a database. Owned and borrow-free —
/// cacheable across evaluations and shareable across threads.
#[derive(Clone, Debug, Default)]
pub struct DatabaseIndex {
    by_relation: HashMap<RelName, RelationIndex>,
}

impl DatabaseIndex {
    /// Builds indexes for all relations of `db`.
    pub fn build(db: &Database) -> Self {
        DatabaseIndex {
            by_relation: db
                .relations()
                .map(|r| (r.name(), RelationIndex::build(r)))
                .collect(),
        }
    }

    /// The index for `rel`, if the relation exists.
    pub fn relation(&self, rel: RelName) -> Option<&RelationIndex> {
        self.by_relation.get(&rel)
    }

    /// Appends one row to `rel`'s index, creating an empty index when the
    /// relation is new (mirrors [`prov_storage::Database::insert`]).
    pub fn push_row(&mut self, rel: RelName, values: &[Value]) {
        self.by_relation.entry(rel).or_default().push_row(values);
    }

    /// The index for `rel` for patching in place, if the relation exists.
    pub(crate) fn relation_mut(&mut self, rel: RelName) -> Option<&mut RelationIndex> {
        self.by_relation.get_mut(&rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_storage::Tuple;

    fn sample() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "b"], "ix1");
        db.add("R", &["a", "c"], "ix2");
        db.add("R", &["b", "c"], "ix3");
        db
    }

    #[test]
    fn posting_lists_are_correct() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.matching(0, Value::new("a")).len(), 2);
        assert_eq!(r.matching(1, Value::new("c")).len(), 2);
        assert_eq!(r.matching(0, Value::new("zz")).len(), 0);
    }

    #[test]
    fn most_selective_picks_shortest() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        let rows = r
            .most_selective(&[(0, Value::new("a")), (1, Value::new("b"))])
            .unwrap();
        assert_eq!(rows.len(), 1);
        let relation = db.relation(RelName::new("R")).unwrap();
        let (tuple, _) = relation.row(rows[0] as usize);
        assert_eq!(*tuple, Tuple::of(&["a", "b"]));
    }

    #[test]
    fn unconstrained_returns_none() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        assert!(r.most_selective(&[]).is_none());
    }

    #[test]
    fn patched_index_matches_rebuilt_index() {
        let mut db = sample();
        let mut idx = DatabaseIndex::build(&db);
        db.add("R", &["c", "d"], "ix4");
        idx.push_row(
            RelName::new("R"),
            db.relation(RelName::new("R")).unwrap().row(3).0.values(),
        );
        let rel = RelName::new("R");
        let values = |vs: &[&str]| -> Vec<Value> { vs.iter().map(|v| Value::new(v)).collect() };
        // The row of a tuple, found through its shortest posting list and
        // checked against the (not yet mutated) relation.
        let find = |idx: &DatabaseIndex, db: &Database, vs: &[&str]| {
            let tuple = Tuple::of(vs);
            let relation = db.relation(rel).unwrap();
            idx.relation(rel)
                .unwrap()
                .find_row(tuple.values(), |row| relation.row(row).0 == tuple)
        };
        // Remove the middle row (row id 1 = ("a","c")): the last row
        // ("c","d") moves into its slot, as in the relation.
        assert_eq!(find(&idx, &db, &["a", "c"]), Some(1));
        db.remove(rel, &Tuple::of(&["a", "c"]));
        let r = idx.relation_mut(rel).unwrap();
        r.swap_remove_row(1, &values(&["a", "c"]), &values(&["c", "d"]));
        assert_eq!(r.matching(0, Value::new("c")), &[1]);
        // Then ("a","b"), the last row carrying "a" at 0 and "b" at 1;
        // ("b","c") moves from row 2 to row 0.
        assert_eq!(find(&idx, &db, &["a", "b"]), Some(0));
        db.remove(rel, &Tuple::of(&["a", "b"]));
        let r = idx.relation_mut(rel).unwrap();
        r.swap_remove_row(0, &values(&["a", "b"]), &values(&["b", "c"]));
        assert_eq!(r.matching(1, Value::new("c")), &[0]);
        assert_eq!(find(&idx, &db, &["a", "b"]), None);
        db.add("S", &["q"], "ix5");
        idx.push_row(RelName::new("S"), &[Value::new("q")]);

        let rebuilt = DatabaseIndex::build(&db);
        let r = idx.relation(rel).unwrap();
        assert_eq!(r, rebuilt.relation(rel).unwrap());
        assert!(r.matching(0, Value::new("a")).is_empty());
        assert_eq!((r.distinct(0), r.distinct(1)), (2, 2));
        for relation in db.relations() {
            let patched = idx.relation(relation.name()).unwrap();
            let fresh = rebuilt.relation(relation.name()).unwrap();
            assert_eq!(patched.len(), fresh.len());
            assert_eq!(patched.arity(), fresh.arity());
            for pos in 0..=relation.arity() {
                assert_eq!(
                    patched.distinct(pos),
                    fresh.distinct(pos),
                    "distinct count at {pos} diverges for {}",
                    relation.name()
                );
            }
            for (row, (tuple, _)) in relation.iter().enumerate() {
                for (pos, &value) in tuple.values().iter().enumerate() {
                    assert_eq!(
                        patched.matching(pos, value),
                        fresh.matching(pos, value),
                        "posting ({pos}, {value}) diverges at row {row} of {}",
                        relation.name()
                    );
                }
            }
        }
    }

    #[test]
    fn missing_relation() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        assert!(idx.relation(RelName::new("Nope")).is_none());
    }
}
