//! A persistent index cache keyed by database generation.
//!
//! Building a [`DatabaseIndex`] (and, for the batched pipeline, the
//! columnar views) costs a full pass over the database — wasted work when
//! the same database is evaluated repeatedly: across the disjuncts of one
//! UCQ, across the queries of one CLI invocation or serving process, and
//! across benchmark iterations. An [`IndexCache`] keeps the most recent
//! build keyed by [`prov_storage::Database::generation`], the monotonic
//! version stamp every mutation bumps: a matching stamp guarantees equal
//! content, so the cached views are reused; a moved stamp forces a
//! rebuild (never a stale read).
//!
//! Views are built lazily inside a shared [`EvalViews`]: the batched
//! pipeline materializes the posting-list index and the columnar views on
//! its first evaluation; the test oracle builds nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use prov_storage::{ColumnarDatabase, Database, DeltaEvent, DeltaKind, Value};

use crate::index::DatabaseIndex;

/// Lazily-built derived read structures for one database generation.
///
/// Cheap to create (nothing is built until first use); shareable across
/// threads via `Arc`. Both views are memoized with [`OnceLock`], so
/// concurrent evaluations build each at most once. `Clone` backs the
/// copy-on-write patch of [`IndexCache`]: an entry is copied only while
/// someone else still holds it.
#[derive(Clone, Debug)]
pub struct EvalViews {
    generation: u64,
    index: OnceLock<DatabaseIndex>,
    columnar: OnceLock<ColumnarDatabase>,
}

impl EvalViews {
    /// Fresh (empty) views for `db`'s current generation.
    pub fn new(db: &Database) -> Self {
        EvalViews {
            generation: db.generation(),
            index: OnceLock::new(),
            columnar: OnceLock::new(),
        }
    }

    /// The generation stamp these views were created against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The posting-list index, built on first use. `db` must be the
    /// database these views were created for (same generation).
    pub fn database_index(&self, db: &Database) -> &DatabaseIndex {
        debug_assert_eq!(self.generation, db.generation(), "stale EvalViews");
        self.index.get_or_init(|| DatabaseIndex::build(db))
    }

    /// The columnar views, built on first use. `db` must be the database
    /// these views were created for (same generation).
    pub fn columnar(&self, db: &Database) -> &ColumnarDatabase {
        debug_assert_eq!(self.generation, db.generation(), "stale EvalViews");
        self.columnar
            .get_or_init(|| ColumnarDatabase::from_database(db))
    }

    /// Rolls these views forward to `db`'s current generation in place by
    /// replaying `events` (the deltas between these views' generation and
    /// `db`'s) onto whichever views are already built — an append per
    /// insert, a swap-remove per removal — in O(|events|) index probes,
    /// never a rebuild or a copy. Unbuilt views stay unbuilt (lazy as
    /// ever).
    ///
    /// Returns `None` when the patch cannot finish; the views are then
    /// unusable and the caller must drop them. A removal finds its row
    /// through the index and checks it against the columnar annotation
    /// column, so it needs both views or neither: a caller that built
    /// only one of them cannot replay removals.
    pub(crate) fn patch(&mut self, db: &Database, events: &[DeltaEvent]) -> Option<()> {
        let mut index = self.index.get_mut();
        let mut columnar = self.columnar.get_mut();
        let removes = events.iter().any(|e| e.kind == DeltaKind::Remove);
        if removes && index.is_some() != columnar.is_some() {
            return None;
        }
        for event in events {
            match event.kind {
                DeltaKind::Insert => {
                    if let Some(c) = columnar.as_deref_mut() {
                        c.push_row(event.rel, &event.tuple, event.annotation);
                    }
                    if let Some(ix) = index.as_deref_mut() {
                        ix.push_row(event.rel, event.tuple.values());
                    }
                }
                DeltaKind::Remove => {
                    if let (Some(ix), Some(c)) = (index.as_deref_mut(), columnar.as_deref_mut()) {
                        swap_remove(ix, c, event)?;
                    }
                }
            }
        }
        self.generation = db.generation();
        Some(())
    }
}

/// Removes `event`'s row from both views: found through the removed
/// tuple's shortest posting list and checked against the annotation
/// column, then swap-removed, with the moved last row's values read from
/// the columnar view before the swap. `None` if no row matches.
fn swap_remove(
    index: &mut DatabaseIndex,
    columnar: &mut ColumnarDatabase,
    event: &DeltaEvent,
) -> Option<()> {
    let ix = index.relation_mut(event.rel)?;
    let col = columnar.relation_mut(event.rel)?;
    let tags = col.annotations();
    let row = ix.find_row(event.tuple.values(), |r| tags[r] == event.annotation)?;
    let last = col.len() - 1;
    let moved: Vec<Value> = (0..col.arity()).map(|pos| col.value(last, pos)).collect();
    ix.swap_remove_row(row, event.tuple.values(), &moved);
    col.swap_remove_row(row);
    Some(())
}

/// Hit/miss counters of one [`IndexCache`] (cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served by the cached entry (generation matched).
    pub hits: u64,
    /// Lookups that created a fresh entry (first use or stale stamp).
    pub misses: u64,
}

/// A one-entry cache of [`EvalViews`] keyed by database generation.
///
/// One entry suffices for the serving patterns this accelerates — many
/// queries against one loaded database — and makes invalidation trivial:
/// a mutated database presents a new generation and atomically displaces
/// the stale entry. Thread-safe; cheap to share by reference.
#[derive(Debug, Default)]
pub struct IndexCache {
    entry: Mutex<Option<Arc<EvalViews>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// High-water mark of materialized frontier rows across every
    /// evaluation routed through this cache (see
    /// [`IndexCache::peak_frontier_rows`]).
    peak_frontier: AtomicU64,
}

impl IndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// The views for `db`'s current generation: the cached entry when its
    /// stamp matches; a stale entry the delta log still reaches is rolled
    /// forward (appends/swap-removes, no rebuild — counted as a hit);
    /// anything else is displaced by a fresh entry (a miss).
    ///
    /// The roll-forward is lineage-safe without further checks because
    /// generation stamps are globally unique: `deltas_since` on an
    /// unrelated database can never name another database's stamp.
    pub fn views(&self, db: &Database) -> Arc<EvalViews> {
        let mut entry = self.entry.lock().expect("index cache poisoned");
        if let Some(views) = entry.as_mut() {
            if views.generation() == db.generation() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(views);
            }
            if let Some(events) = db.deltas_since(views.generation()) {
                if Arc::make_mut(views).patch(db, events).is_some() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(views);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let views = Arc::new(EvalViews::new(db));
        *entry = Some(Arc::clone(&views));
        views
    }

    /// Carries the cached entry across a mutation: when the entry's stamp
    /// is `from_gen` (the generation the mutation started from), its
    /// already-built views are patched to `db`'s current generation (see
    /// `EvalViews::patch`), so the next lookup hits instead of
    /// rebuilding. Copy-on-write: the entry is patched in place unless
    /// someone still holds an `Arc` to it, who then keeps the old
    /// generation's views. An entry whose patch cannot finish is dropped,
    /// never left half-patched; any other entry is left to the normal
    /// miss-and-rebuild path.
    pub fn patch(&self, db: &Database, from_gen: u64, events: &[DeltaEvent]) {
        let mut entry = self.entry.lock().expect("index cache poisoned");
        let Some(views) = entry.as_mut() else { return };
        if views.generation() != from_gen {
            return;
        }
        if Arc::make_mut(views).patch(db, events).is_none() {
            *entry = None;
        }
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Records that an evaluation materialized a frontier of `rows`
    /// partial-assignment rows at once (one block of the batched
    /// pipeline). Keeps the maximum.
    pub(crate) fn observe_frontier(&self, rows: usize) {
        self.peak_frontier.fetch_max(rows as u64, Ordering::Relaxed);
    }

    /// High-water mark of materialized frontier rows across every
    /// evaluation routed through this cache — the memory-boundedness
    /// witness of the chunked batched pipeline: with
    /// `EvalOptions::chunk_rows = Some(c)` this stays O(c × max one-step
    /// fan-out) however large the intermediate joins grow.
    pub fn peak_frontier_rows(&self) -> u64 {
        self.peak_frontier.load(Ordering::Relaxed)
    }
}

// The serving path (`prov-server`) shares one `IndexCache` — and the
// `Arc<EvalViews>` handed out of it — across reader threads while a writer
// thread mutates the database behind an `RwLock`. Keep the thread-safety
// of the whole cache surface a compile-time guarantee, not an accident of
// the current field types: `OnceLock` gives once-only cross-thread view
// construction, `Mutex`/atomics give the entry swap and counters.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IndexCache>();
    assert_send_sync::<EvalViews>();
    assert_send_sync::<CacheStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::prop_assert_eq;
    use prov_semiring::Annotation;
    use prov_storage::{RelName, Tuple};

    fn sample() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "b"], "ca1");
        db.add("R", &["b", "c"], "ca2");
        db
    }

    #[test]
    fn repeated_lookups_hit() {
        let db = sample();
        let cache = IndexCache::new();
        let v1 = cache.views(&db);
        let v2 = cache.views(&db);
        assert!(Arc::ptr_eq(&v1, &v2), "same generation must share views");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn mutation_rolls_entry_forward_or_invalidates() {
        let mut db = sample();
        let cache = IndexCache::new();
        let before = cache.views(&db);
        assert_eq!(
            before
                .database_index(&db)
                .relation(RelName::new("R"))
                .unwrap()
                .len(),
            2
        );
        // An insert within the delta log: the entry is rolled forward in
        // place (a hit), never served stale.
        db.add("R", &["c", "d"], "ca3");
        let after = cache.views(&db);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "stale entry must be replaced, not reused"
        );
        assert_eq!(
            after
                .database_index(&db)
                .relation(RelName::new("R"))
                .unwrap()
                .len(),
            3
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A remove with only the index built cannot be replayed (the row
        // is checked against the columnar annotation column): fall back
        // to a fresh entry.
        db.remove(RelName::new("R"), &Tuple::of(&["c", "d"]));
        let rebuilt = cache.views(&db);
        assert_eq!(
            rebuilt
                .database_index(&db)
                .relation(RelName::new("R"))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn patch_carries_warm_views_across_mutations() {
        let mut db = sample();
        let cache = IndexCache::new();
        warm(&cache, &db);
        let from = db.generation();
        db.add("R", &["c", "d"], "cp1");
        db.remove(RelName::new("R"), &Tuple::of(&["a", "b"]));
        let events = db.deltas_since(from).unwrap();
        cache.patch(&db, from, events);

        // The patched entry serves the new generation as a *hit*, and its
        // contents equal a from-scratch build: the insert brought new
        // values ("c" at 0, "d" at 1), the remove took the last "a" at 0
        // and "b" at 1.
        let patched = cache.views(&db);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(patched.generation(), db.generation());
        assert_equals_fresh_build(&patched, &db);
        let patched_ix = patched.database_index(&db).relation(RelName::new("R"));
        assert!(patched_ix
            .unwrap()
            .matching(0, prov_storage::Value::new("a"))
            .is_empty());
    }

    #[test]
    fn patch_ignores_stale_or_missing_entries() {
        let mut db = sample();
        let cache = IndexCache::new();
        let from = db.generation();
        db.add("R", &["c", "d"], "cp2");
        let events: Vec<prov_storage::DeltaEvent> = db.deltas_since(from).unwrap().to_vec();
        // No entry yet: patch is a no-op, the next lookup is a miss.
        cache.patch(&db, from, &events);
        cache.views(&db);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
    }

    /// Both views built, as the batched pipeline leaves them.
    fn warm(cache: &IndexCache, db: &Database) -> Arc<EvalViews> {
        let views = cache.views(db);
        views.database_index(db);
        views.columnar(db);
        views
    }

    /// Asserts that `views` equal a fresh build of `db`: columnar views
    /// and posting lists, hence also the per-position distinct counts. A
    /// fresh build follows `Relation::iter`, so this pins the row order.
    fn assert_equals_fresh_build(views: &EvalViews, db: &Database) {
        let fresh = EvalViews::new(db);
        for relation in db.relations() {
            let rel = relation.name();
            assert_eq!(
                views.columnar(db).relation(rel),
                fresh.columnar(db).relation(rel),
                "{rel} columns"
            );
            assert_eq!(
                views.database_index(db).relation(rel),
                fresh.database_index(db).relation(rel),
                "{rel} posting lists"
            );
        }
    }

    #[test]
    fn held_views_keep_their_generation_across_a_patch() {
        let mut db = sample();
        let cache = IndexCache::new();
        let held = warm(&cache, &db);
        let rel = RelName::new("R");
        let old_gen = held.generation();
        let old_ix = held.database_index(&db).relation(rel).unwrap().clone();
        let old_col = held.columnar(&db).relation(rel).unwrap().clone();

        let from = db.generation();
        db.remove(rel, &Tuple::of(&["a", "b"]));
        db.add("R", &["c", "d"], "ch1");
        cache.patch(&db, from, db.deltas_since(from).unwrap());

        // The holder still answers for its own generation, untouched.
        assert_eq!(held.generation(), old_gen);
        assert_eq!(held.index.get().unwrap().relation(rel), Some(&old_ix));
        assert_eq!(held.columnar.get().unwrap().relation(rel), Some(&old_col));
        // The cache serves the new generation, from a copy.
        let current = cache.views(&db);
        assert!(!Arc::ptr_eq(&held, &current));
        assert_eq!(current.generation(), db.generation());
        assert_equals_fresh_build(&current, &db);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn unshared_entry_is_patched_in_place() {
        let mut db = sample();
        let cache = IndexCache::new();
        let before = Arc::as_ptr(&warm(&cache, &db));
        // Writer path: `IndexCache::patch` with no outside holder.
        let from = db.generation();
        db.remove(RelName::new("R"), &Tuple::of(&["a", "b"]));
        cache.patch(&db, from, db.deltas_since(from).unwrap());
        let patched = cache.views(&db);
        assert_eq!(Arc::as_ptr(&patched), before, "patch must not copy");
        drop(patched);
        // Reader path: the roll-forward inside `IndexCache::views`.
        db.add("R", &["c", "d"], "ip1");
        let rolled = cache.views(&db);
        assert_eq!(Arc::as_ptr(&rolled), before, "roll-forward must not copy");
        assert!(Arc::ptr_eq(&rolled, &cache.views(&db)));
        assert_equals_fresh_build(&rolled, &db);
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
    }

    #[test]
    fn unfinishable_patch_leaves_no_entry() {
        let rel = RelName::new("R");
        // Only one of the two views built: a removal cannot be replayed.
        for build_index in [true, false] {
            let mut db = sample();
            let cache = IndexCache::new();
            let views = cache.views(&db);
            if build_index {
                views.database_index(&db);
            } else {
                views.columnar(&db);
            }
            drop(views);
            let from = db.generation();
            db.remove(rel, &Tuple::of(&["a", "b"]));
            cache.patch(&db, from, db.deltas_since(from).unwrap());
            assert!(
                cache.entry.lock().unwrap().is_none(),
                "no half-patched entry"
            );
            assert_equals_fresh_build(&cache.views(&db), &db);
            assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        }
    }

    /// A tiny deterministic LCG driving the mutation scripts below.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn patched_views_equal_a_fresh_build(
            seed in 0u64..1_000_000,
            initial in 0usize..4,
            batches in 1usize..24,
        ) {
            let mut rng = seed;
            let mut fresh_tag = 0u32;
            let mut tag = || {
                fresh_tag += 1;
                Annotation::new(&format!("pv{seed}_{fresh_tag}"))
            };
            // A 3-value domain empties posting lists often; a few initial
            // rows make removing the only row and the last row common.
            let value = |rng: &mut u64| format!("v{}", lcg(rng) % 3);
            let mut db = Database::new();
            for _ in 0..initial {
                let t = Tuple::of(&[&value(&mut rng), &value(&mut rng)]);
                db.insert(RelName::new("R"), t, tag());
            }
            let cache = IndexCache::new();
            drop(warm(&cache, &db));
            for _ in 0..batches {
                let from = db.generation();
                for _ in 0..1 + lcg(&mut rng) % 3 {
                    // `T` only ever appears through an insert.
                    let rel = RelName::new(if lcg(&mut rng).is_multiple_of(4) { "T" } else { "R" });
                    let len = db.relation(rel).map_or(0, |r| r.len());
                    if len > 0 && lcg(&mut rng).is_multiple_of(2) {
                        let row = lcg(&mut rng) as usize % len;
                        let tuple = db.relation(rel).unwrap().row(row).0.clone();
                        db.remove(rel, &tuple);
                    } else if rel.name() == "T" {
                        db.insert(rel, Tuple::of(&[&value(&mut rng)]), tag());
                    } else {
                        let t = Tuple::of(&[&value(&mut rng), &value(&mut rng)]);
                        db.insert(rel, t, tag());
                    }
                }
                // Alternate the writer's patch and the reader's roll-forward.
                if lcg(&mut rng).is_multiple_of(2) {
                    cache.patch(&db, from, db.deltas_since(from).unwrap());
                }
                let views = cache.views(&db);
                prop_assert_eq!(cache.stats().misses, 1, "patched, never rebuilt");
                assert_equals_fresh_build(&views, &db);
            }
        }
    }

    #[test]
    fn views_build_lazily_and_once() {
        let db = sample();
        let views = EvalViews::new(&db);
        let i1: *const DatabaseIndex = views.database_index(&db);
        let i2: *const DatabaseIndex = views.database_index(&db);
        assert_eq!(i1, i2, "index is memoized");
        let c1: *const ColumnarDatabase = views.columnar(&db);
        let c2: *const ColumnarDatabase = views.columnar(&db);
        assert_eq!(c1, c2, "columnar views are memoized");
    }
}
