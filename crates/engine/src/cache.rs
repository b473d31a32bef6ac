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

use prov_storage::{ColumnarDatabase, Database, DeltaEvent, DeltaKind};

use crate::index::DatabaseIndex;

/// Lazily-built derived read structures for one database generation.
///
/// Cheap to create (nothing is built until first use); shareable across
/// threads via `Arc`. Both views are memoized with [`OnceLock`], so
/// concurrent evaluations build each at most once.
#[derive(Debug)]
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

    /// Views for `db`'s current generation obtained by replaying `events`
    /// (the deltas between these views' generation and `db`'s) onto
    /// whichever views are already built — appends for inserts, row
    /// removal with id reindexing for removes — instead of rebuilding
    /// them from scratch. Unbuilt views stay unbuilt (lazy as ever).
    ///
    /// Returns `None` when patching is impossible: a remove event needs
    /// the row id, recovered from the columnar annotation column, so views
    /// with only the index built (a caller that asked for
    /// [`EvalViews::database_index`] alone) cannot replay removes and fall
    /// back to a fresh (lazily rebuilt) entry.
    pub(crate) fn patched(&self, db: &Database, events: &[DeltaEvent]) -> Option<EvalViews> {
        let mut columnar = self.columnar.get().cloned();
        let mut index = self.index.get().cloned();
        for event in events {
            match event.kind {
                DeltaKind::Insert => {
                    if let Some(c) = &mut columnar {
                        c.push_row(event.rel, &event.tuple, event.annotation);
                    }
                    if let Some(ix) = &mut index {
                        ix.push_row(event.rel, event.tuple.values());
                    }
                }
                DeltaKind::Remove => {
                    let row = match &mut columnar {
                        Some(c) => Some(c.remove_row(event.rel, event.annotation)?),
                        None if index.is_some() => return None,
                        None => None,
                    };
                    if let (Some(ix), Some(row)) = (&mut index, row) {
                        ix.remove_row(event.rel, row);
                    }
                }
            }
        }
        let views = EvalViews::new(db);
        if let Some(c) = columnar {
            let _ = views.columnar.set(c);
        }
        if let Some(ix) = index {
            let _ = views.index.set(ix);
        }
        Some(views)
    }
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
    /// forward in place (appends/row removals, no rebuild — counted as a
    /// hit); anything else is displaced by a fresh entry (a miss).
    ///
    /// The roll-forward is lineage-safe without further checks because
    /// generation stamps are globally unique: `deltas_since` on an
    /// unrelated database can never name another database's stamp.
    pub fn views(&self, db: &Database) -> Arc<EvalViews> {
        let mut entry = self.entry.lock().expect("index cache poisoned");
        if let Some(views) = entry.as_ref() {
            if views.generation() == db.generation() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(views);
            }
            if let Some(patched) = db
                .deltas_since(views.generation())
                .and_then(|events| views.patched(db, events))
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let views = Arc::new(patched);
                *entry = Some(Arc::clone(&views));
                return views;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let views = Arc::new(EvalViews::new(db));
        *entry = Some(Arc::clone(&views));
        views
    }

    /// Carries the cached entry across a mutation: when the entry's stamp
    /// is `from_gen` (the generation the mutation started from), it is
    /// replaced by a patched entry for `db`'s current generation with the
    /// already-built views updated in place (see `EvalViews::patched`)
    /// — the next lookup hits instead of rebuilding. Any other entry (or
    /// an unpatchable one) is left to the normal miss-and-rebuild path.
    pub fn patch(&self, db: &Database, from_gen: u64, events: &[DeltaEvent]) {
        let mut entry = self.entry.lock().expect("index cache poisoned");
        let Some(views) = entry.as_ref() else { return };
        if views.generation() != from_gen {
            return;
        }
        match views.patched(db, events) {
            Some(patched) => *entry = Some(Arc::new(patched)),
            None => *entry = None,
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
        // id lives in the columnar view): fall back to a fresh entry.
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
        let warm = cache.views(&db);
        // Build both views so there is something to patch.
        warm.database_index(&db);
        warm.columnar(&db);
        let from = db.generation();
        db.add("R", &["c", "d"], "cp1");
        db.remove(RelName::new("R"), &Tuple::of(&["a", "b"]));
        let events = db.deltas_since(from).unwrap();
        cache.patch(&db, from, events);

        // The patched entry serves the new generation as a *hit*.
        let patched = cache.views(&db);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(patched.generation(), db.generation());
        // And its contents equal a from-scratch build.
        let fresh = EvalViews::new(&db);
        let rel = RelName::new("R");
        let patched_col = patched.columnar(&db).relation(rel).unwrap();
        let fresh_col = fresh.columnar(&db).relation(rel).unwrap();
        assert_eq!(patched_col, fresh_col);
        let patched_ix = patched.database_index(&db).relation(rel).unwrap();
        let fresh_ix = fresh.database_index(&db).relation(rel).unwrap();
        assert_eq!(patched_ix.len(), fresh_ix.len());
        // The insert brought new values ("c" at 0, "d" at 1); the remove
        // took the last "a" at 0 and "b" at 1. The planner's statistics
        // must match a fresh build all the same.
        assert!(patched_ix
            .matching(0, prov_storage::Value::new("a"))
            .is_empty());
        for pos in 0..patched_col.arity() {
            assert_eq!(
                patched_ix.distinct(pos),
                fresh_ix.distinct(pos),
                "position {pos}"
            );
        }
        for row in 0..patched_col.len() {
            for pos in 0..patched_col.arity() {
                let v = patched_col.value(row, pos);
                assert_eq!(patched_ix.matching(pos, v), fresh_ix.matching(pos, v));
            }
        }
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
