//! Database instances: named annotated relations with a database-wide
//! annotation index (abstract tagging means annotations identify tuples).

use std::collections::{btree_map, hash_map, BTreeMap, HashMap};
use std::fmt;

use prov_semiring::Annotation;

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::{RelName, Value};

/// The process-wide generation counter behind [`next_generation`].
static GENERATION_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Hands out globally-unique generation stamps. Starting at 1 keeps 0 as
/// the shared stamp of never-mutated (hence empty, hence interchangeable)
/// databases.
fn next_generation() -> u64 {
    GENERATION_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Raises the process-wide generation counter so every stamp minted from
/// now on is strictly greater than `floor`.
///
/// Generation stamps are process-local, so a restarted process would mint
/// stamps that collide with the ones persisted by its predecessor (in a
/// snapshot header or write-ahead log). Recovery calls this with the
/// highest persisted stamp *before* rebuilding the database, which keeps
/// the "equal stamps imply equal content" invariant valid across process
/// lifetimes and keeps replay filters (`event.generation > snapshot
/// generation`) sound after a crash between snapshot rotation steps.
pub fn ensure_generation_floor(floor: u64) {
    GENERATION_COUNTER.fetch_max(
        floor.saturating_add(1),
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// Default number of mutation events a database retains in its delta log
/// (see [`Database::with_delta_capacity`] to pick a different window).
/// Older events are discarded; consumers asking for deltas reaching past
/// the retained window get `None` and must fall back to a full rebuild.
pub const DELTA_LOG_CAPACITY: usize = 64;

/// The kind of one logged mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A tuple was inserted.
    Insert,
    /// A tuple was removed.
    Remove,
}

/// One content mutation of a [`Database`], stamped with the generation the
/// database moved *to* when it was applied. Replaying the events of
/// [`Database::deltas_since`] on top of a snapshot at the asked-for
/// generation reproduces the current content exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEvent {
    /// The generation stamp the database carried after this mutation.
    pub generation: u64,
    /// Whether the tuple was inserted or removed.
    pub kind: DeltaKind,
    /// The relation mutated.
    pub rel: RelName,
    /// The tuple inserted or removed.
    pub tuple: Tuple,
    /// The tuple's annotation (abstract tagging makes this unambiguous).
    pub annotation: Annotation,
}

/// A database instance of abstractly-tagged `N[X]`-relations.
#[derive(Clone, Debug)]
pub struct Database {
    relations: BTreeMap<RelName, Relation>,
    /// Reverse index: annotation → (relation, tuple). Well-defined because
    /// the database is abstractly tagged. Only ever probed by key.
    by_annotation: HashMap<Annotation, (RelName, Tuple)>,
    /// Monotonic version stamp, bumped to a globally-unique value by every
    /// content mutation. Two databases sharing a stamp have equal content
    /// (either both are pristine-empty, or one is an unmutated clone of
    /// the other), so derived structures — indexes, columnar views — may
    /// be cached keyed by it and reused until the stamp moves.
    generation: u64,
    /// The most recent mutation events, oldest first, at most
    /// `delta_capacity` of them (older ones are discarded).
    delta_log: Vec<DeltaEvent>,
    /// The generation a replay of the whole retained log starts from:
    /// applying every `delta_log` event to a snapshot taken at `log_base`
    /// yields the current content.
    log_base: u64,
    /// How many events `delta_log` retains before the oldest is dropped
    /// (defaults to [`DELTA_LOG_CAPACITY`]).
    delta_capacity: usize,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_delta_capacity(DELTA_LOG_CAPACITY)
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates an empty database whose delta log retains up to `capacity`
    /// mutation events (instead of the default [`DELTA_LOG_CAPACITY`]).
    ///
    /// A larger window lets incremental consumers absorb bigger mutation
    /// batches before falling back to a full rebuild, at the cost of
    /// keeping more events in memory; capacity 0 disables the log (only
    /// same-generation asks succeed).
    pub fn with_delta_capacity(capacity: usize) -> Self {
        Database {
            relations: BTreeMap::new(),
            by_annotation: HashMap::new(),
            generation: 0,
            delta_log: Vec::new(),
            log_base: 0,
            delta_capacity: capacity,
        }
    }

    /// The delta log's retention window, in events.
    pub fn delta_capacity(&self) -> usize {
        self.delta_capacity
    }

    /// Changes the delta log's retention window. Shrinking below the
    /// current log length drops the oldest events immediately (moving the
    /// replay base past them), exactly as if they had aged out.
    pub fn set_delta_capacity(&mut self, capacity: usize) {
        self.delta_capacity = capacity;
        while self.delta_log.len() > capacity {
            let dropped = self.delta_log.remove(0);
            self.log_base = dropped.generation;
        }
    }

    /// Inserts a tuple with an explicit annotation, creating the relation
    /// on first use.
    ///
    /// Panics if the annotation already tags a *different* tuple (which
    /// would break abstract tagging, paper §2.3) or on arity mismatch.
    pub fn insert(&mut self, rel: RelName, tuple: Tuple, annotation: Annotation) {
        if let Some((r0, t0)) = self.by_annotation.get(&annotation) {
            assert!(
                *r0 == rel && *t0 == tuple,
                "annotation {annotation} already tags {r0}{t0}; database must be abstractly tagged"
            );
            return;
        }
        let relation = self
            .relations
            .entry(rel)
            .or_insert_with(|| Relation::new(rel, tuple.arity()));
        if relation.contains(&tuple) {
            return;
        }
        relation.insert(tuple.clone(), annotation);
        self.by_annotation.insert(annotation, (rel, tuple.clone()));
        self.generation = next_generation();
        self.log_event(DeltaEvent {
            generation: self.generation,
            kind: DeltaKind::Insert,
            rel,
            tuple,
            annotation,
        });
    }

    /// Appends a mutation event, discarding the oldest one when the log is
    /// full (which moves the replay base forward past it).
    fn log_event(&mut self, event: DeltaEvent) {
        self.delta_log.push(event);
        while self.delta_log.len() > self.delta_capacity {
            let dropped = self.delta_log.remove(0);
            self.log_base = dropped.generation;
        }
    }

    /// The mutation events that lead from the content the database had at
    /// generation `gen` to its current content, oldest first.
    ///
    /// Returns `None` when the log no longer reaches back to `gen` — the
    /// events were discarded ([`DELTA_LOG_CAPACITY`]), or `gen` belongs to
    /// a different database lineage (e.g. a replaced or diverged-clone
    /// instance). Callers must then fall back to recomputing from scratch.
    pub fn deltas_since(&self, gen: u64) -> Option<&[DeltaEvent]> {
        if gen == self.generation {
            return Some(&[]);
        }
        if gen == self.log_base {
            return Some(&self.delta_log);
        }
        // Generations are strictly increasing along the log, so a binary
        // search would do; the log is ≤ 64 entries, a scan is simpler.
        self.delta_log
            .iter()
            .position(|e| e.generation == gen)
            .map(|i| &self.delta_log[i + 1..])
    }

    /// The database's version stamp. Any mutation moves it to a fresh,
    /// globally-unique value; equal stamps imply equal content. Cache
    /// derived read structures (indexes, columnar views) keyed by this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts a tuple with a named annotation (convenience for tests and
    /// paper examples): `db.add("R", &["a", "b"], "s1")`.
    pub fn add(&mut self, rel: &str, values: &[&str], annotation: &str) {
        self.insert(
            RelName::new(rel),
            Tuple::of(values),
            Annotation::new(annotation),
        );
    }

    /// Inserts a tuple with a fresh abstract annotation.
    pub fn insert_fresh(&mut self, rel: RelName, tuple: Tuple) -> Annotation {
        if let Some(r) = self.relations.get(&rel) {
            if let Some(a) = r.annotation_of(&tuple) {
                return a;
            }
        }
        let a = Annotation::fresh();
        self.insert(rel, tuple, a);
        a
    }

    /// The relation named `rel`, if present.
    pub fn relation(&self, rel: RelName) -> Option<&Relation> {
        self.relations.get(&rel)
    }

    /// Iterates all relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Looks up the tuple an annotation tags (the inverse of tagging).
    pub fn tuple_of(&self, annotation: Annotation) -> Option<&(RelName, Tuple)> {
        self.by_annotation.get(&annotation)
    }

    /// The annotation of a tuple, if present.
    pub fn annotation_of(&self, rel: RelName, tuple: &Tuple) -> Option<Annotation> {
        self.relations.get(&rel)?.annotation_of(tuple)
    }

    /// Total number of tuples across relations.
    pub fn num_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The active domain: every value appearing in any tuple.
    pub fn active_domain(&self) -> std::collections::BTreeSet<Value> {
        self.relations
            .values()
            .flat_map(|r| r.iter().flat_map(|(t, _)| t.values().iter().copied()))
            .collect()
    }

    /// Removes a tuple, returning its annotation.
    pub fn remove(&mut self, rel: RelName, tuple: &Tuple) -> Option<Annotation> {
        let annotation = self.relations.get_mut(&rel)?.remove(tuple)?;
        self.by_annotation.remove(&annotation);
        self.generation = next_generation();
        self.log_event(DeltaEvent {
            generation: self.generation,
            kind: DeltaKind::Remove,
            rel,
            tuple: tuple.clone(),
            annotation,
        });
        Some(annotation)
    }
}

/// The error for a tuple whose arity differs from its relation's.
pub(crate) fn arity_mismatch(rel: RelName, arity: usize, tuple: &Tuple) -> String {
    format!("{rel} has arity {arity}, got a {}-tuple", tuple.arity())
}

/// The error for an annotation that would tag a second tuple.
pub(crate) fn retagged(annotation: Annotation, rel: RelName, tuple: &Tuple) -> String {
    format!(
        "annotation {annotation} already tags {rel}{tuple} \
         (databases must be abstractly tagged)"
    )
}

/// A new database lineage, filled from a whole file's tuples.
///
/// Each [`BulkLoad::insert`] applies the checks of
/// [`checked_insert`](crate::textio::checked_insert), as errors, but none
/// of a live database's bookkeeping: no delta events and no per-tuple
/// generation stamps. [`BulkLoad::finish`] mints one stamp for the whole
/// load (none for an empty one, which keeps stamp 0) and starts the delta
/// log empty at that stamp, so `deltas_since` any older stamp is `None`
/// and consumers rebuild, as they must for a new lineage.
pub(crate) struct BulkLoad<'t> {
    db: Database,
    /// Expected rows per relation name, to size each relation once.
    row_hints: HashMap<&'t str, usize>,
}

impl<'t> BulkLoad<'t> {
    /// An empty load whose database keeps `delta_capacity` delta events;
    /// a relation first seen here is sized for `row_hints[name]` rows.
    pub(crate) fn new(delta_capacity: usize, row_hints: HashMap<&'t str, usize>) -> Self {
        let mut db = Database::with_delta_capacity(delta_capacity);
        db.by_annotation.reserve(row_hints.values().sum());
        BulkLoad { db, row_hints }
    }

    /// Adds one tuple under `annotation`, or under `fresh()` when it has
    /// none and the tuple is new. A repeated tuple is a no-op. Errors, as
    /// `checked_insert` words them: an arity other than the relation's,
    /// an annotation that tags a different tuple. After an error the load
    /// is to be dropped.
    pub(crate) fn insert(
        &mut self,
        rel: RelName,
        tuple: Tuple,
        annotation: Option<Annotation>,
        fresh: impl FnOnce() -> Annotation,
    ) -> Result<(), String> {
        let relation = match self.db.relations.entry(rel) {
            btree_map::Entry::Occupied(slot) => {
                let relation = slot.into_mut();
                if relation.arity() != tuple.arity() {
                    return Err(arity_mismatch(rel, relation.arity(), &tuple));
                }
                relation
            }
            btree_map::Entry::Vacant(slot) => {
                let rows = self.row_hints.get(rel.name()).copied().unwrap_or(0);
                slot.insert(Relation::with_capacity(rel, tuple.arity(), rows))
            }
        };
        let by_annotation = &mut self.db.by_annotation;
        match annotation {
            Some(a) => match by_annotation.entry(a) {
                hash_map::Entry::Occupied(tagged) => {
                    let (r0, t0) = tagged.get();
                    if !(*r0 == rel && *t0 == tuple) {
                        return Err(retagged(a, *r0, t0));
                    }
                }
                hash_map::Entry::Vacant(slot) => {
                    if let Some(row) = relation.push_absent(tuple, || a) {
                        slot.insert((rel, relation.row(row).0.clone()));
                    }
                }
            },
            None => {
                if let Some(row) = relation.push_absent(tuple, fresh) {
                    let (tuple, a) = relation.row(row);
                    by_annotation.insert(*a, (rel, tuple.clone()));
                }
            }
        }
        Ok(())
    }

    /// The loaded database, stamped as one new lineage.
    pub(crate) fn finish(self) -> Database {
        let mut db = self.db;
        // Every inserted tuple is in the annotation index.
        if !db.by_annotation.is_empty() {
            db.generation = next_generation();
            db.log_base = db.generation;
        }
        db
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_2_relation_r() {
        // Table 2: R = {(a,a):s1, (a,b):s2, (b,a):s3, (b,b):s4}.
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "b"], "s4");
        assert_eq!(db.num_tuples(), 4);
        assert_eq!(
            db.annotation_of(RelName::new("R"), &Tuple::of(&["a", "b"])),
            Some(Annotation::new("s2"))
        );
        let (rel, tuple) = db.tuple_of(Annotation::new("s3")).unwrap();
        assert_eq!(*rel, RelName::new("R"));
        assert_eq!(*tuple, Tuple::of(&["b", "a"]));
    }

    #[test]
    #[should_panic(expected = "abstractly tagged")]
    fn abstract_tagging_is_enforced() {
        let mut db = Database::new();
        db.add("R", &["a"], "shared_tag");
        db.add("R", &["b"], "shared_tag");
    }

    #[test]
    fn reinserting_same_row_is_idempotent() {
        let mut db = Database::new();
        db.add("R", &["a"], "idem1");
        db.add("R", &["a"], "idem1");
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn active_domain_collects_values() {
        let mut db = Database::new();
        db.add("R", &["a", "b"], "ad1");
        db.add("S", &["c"], "ad2");
        let dom = db.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::new("a")));
        assert!(dom.contains(&Value::new("c")));
    }

    #[test]
    fn generation_moves_on_mutation_only() {
        let mut db = Database::new();
        assert_eq!(db.generation(), 0, "pristine databases share stamp 0");
        db.add("R", &["a"], "gen1");
        let g1 = db.generation();
        assert_ne!(g1, 0);
        // Idempotent re-insert does not change content — stamp holds.
        db.add("R", &["a"], "gen1");
        assert_eq!(db.generation(), g1);
        // A clone shares the stamp (equal content) until either mutates.
        let mut clone = db.clone();
        assert_eq!(clone.generation(), g1);
        clone.add("R", &["b"], "gen2");
        assert_ne!(clone.generation(), g1);
        assert_eq!(db.generation(), g1);
        // Removal is a mutation; removing a missing tuple is not.
        db.remove(RelName::new("R"), &Tuple::of(&["zz"]));
        assert_eq!(db.generation(), g1);
        db.remove(RelName::new("R"), &Tuple::of(&["a"]));
        assert_ne!(db.generation(), g1);
        assert_ne!(db.generation(), clone.generation());
    }

    #[test]
    fn generation_stamps_unique_under_concurrent_mutation() {
        // The serving path mutates databases from many threads (one write
        // lock per database, but several databases and sessions per
        // process). Stamps come from one process-wide atomic, so mutations
        // on *different* threads must still never collide — a collision
        // would let a generation-keyed index cache serve stale views.
        let stamps: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let stamps = &stamps;
                s.spawn(move || {
                    let mut db = Database::new();
                    let mut local = Vec::new();
                    for i in 0..64u32 {
                        db.add("R", &[&format!("v{i}")], &format!("cg_t{t}_g{i}"));
                        local.push(db.generation());
                    }
                    stamps.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = stamps.into_inner().unwrap();
        let n = all.len();
        assert_eq!(n, 4 * 64);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "generation stamps must be globally unique");
    }

    #[test]
    fn delta_log_replays_between_generations() {
        let mut db = Database::new();
        db.add("R", &["a"], "dl1");
        let g1 = db.generation();
        db.add("R", &["b"], "dl2");
        db.remove(RelName::new("R"), &Tuple::of(&["a"]));
        let g3 = db.generation();

        // Same-generation ask: empty delta.
        assert_eq!(db.deltas_since(g3), Some(&[][..]));
        // From g1: one insert, one remove, in order.
        let events = db.deltas_since(g1).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, DeltaKind::Insert);
        assert_eq!(events[0].tuple, Tuple::of(&["b"]));
        assert_eq!(events[0].annotation, Annotation::new("dl2"));
        assert_eq!(events[1].kind, DeltaKind::Remove);
        assert_eq!(events[1].annotation, Annotation::new("dl1"));
        assert!(events[0].generation > g1 && events[1].generation == g3);
        // From the pristine stamp: the whole history.
        assert_eq!(db.deltas_since(0).unwrap().len(), 3);
        // A stamp from a different lineage is not covered.
        let mut other = Database::new();
        other.add("R", &["z"], "dl_other");
        assert!(db.deltas_since(other.generation()).is_none());
    }

    #[test]
    fn delta_log_truncates_at_capacity() {
        let mut db = Database::new();
        db.add("R", &["seed"], "dt_seed");
        let early = db.generation();
        // Overflow the log by two: the first drop moves the replay base
        // exactly onto `early` (still covered); the second moves past it.
        for i in 0..DELTA_LOG_CAPACITY + 1 {
            db.add("R", &[&format!("v{i}")], &format!("dt_{i}"));
        }
        // `early` was pushed out of the window...
        assert!(db.deltas_since(early).is_none());
        assert!(db.deltas_since(0).is_none());
        // ...but recent generations are still replayable.
        let recent = db.deltas_since(db.generation()).unwrap();
        assert!(recent.is_empty());
        let events = db.deltas_since(db.delta_log[0].generation).unwrap();
        assert_eq!(events.len(), DELTA_LOG_CAPACITY - 1);
    }

    #[test]
    fn idempotent_mutations_do_not_log() {
        let mut db = Database::new();
        db.add("R", &["a"], "dn1");
        let g = db.generation();
        db.add("R", &["a"], "dn1"); // idempotent re-insert
        db.remove(RelName::new("R"), &Tuple::of(&["zz"])); // missing tuple
        assert_eq!(db.deltas_since(g), Some(&[][..]));
    }

    #[test]
    fn delta_capacity_is_configurable() {
        let mut db = Database::with_delta_capacity(4);
        assert_eq!(db.delta_capacity(), 4);
        db.add("R", &["seed"], "cap_seed");
        let early = db.generation();
        for i in 0..4 {
            db.add("R", &[&format!("v{i}")], &format!("cap_{i}"));
        }
        // Exactly 4 events after `early` fit the window...
        assert_eq!(db.deltas_since(early).map(<[_]>::len), Some(4));
        // ...one more pushes `early` out.
        db.add("R", &["overflow"], "cap_overflow");
        assert!(db.deltas_since(early).is_none());
        // Shrinking drops oldest events immediately.
        let mid = db.deltas_since(db.delta_log[1].generation).unwrap()[0].generation;
        db.set_delta_capacity(2);
        assert!(db.deltas_since(mid).is_some());
        assert_eq!(db.delta_log.len(), 2);
        // Capacity 0 disables the log: only same-generation asks succeed.
        db.set_delta_capacity(0);
        assert_eq!(db.deltas_since(db.generation()), Some(&[][..]));
        db.add("R", &["zero"], "cap_zero");
        let g = db.generation();
        assert_eq!(db.deltas_since(g), Some(&[][..]));
        assert!(db.deltas_since(early).is_none());
    }

    #[test]
    fn generation_floor_raises_future_stamps() {
        let mut db = Database::new();
        db.add("R", &["pre"], "floor_pre");
        let before = db.generation();
        // A floor well above anything minted so far: the next stamp must
        // clear it. (Other tests mint stamps concurrently, so only the
        // lower bound is checkable.)
        let floor = before + 1_000_000;
        ensure_generation_floor(floor);
        db.add("R", &["post"], "floor_post");
        assert!(db.generation() > floor);
        // A stale floor is a no-op: stamps keep moving forward.
        ensure_generation_floor(1);
        let g = db.generation();
        db.add("R", &["post2"], "floor_post2");
        assert!(db.generation() > g);
    }

    #[test]
    fn remove_clears_reverse_index() {
        let mut db = Database::new();
        db.add("R", &["a"], "rm1");
        let a = Annotation::new("rm1");
        assert!(db.tuple_of(a).is_some());
        db.remove(RelName::new("R"), &Tuple::of(&["a"]));
        assert!(db.tuple_of(a).is_none());
        assert_eq!(db.num_tuples(), 0);
    }
}
