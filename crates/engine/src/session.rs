//! `EvalSession`: the cache-owning evaluation entry point with delta-aware
//! incremental maintenance of materialized results.
//!
//! A session owns the generation-keyed index/columnar cache
//! ([`IndexCache`]) *and* a bounded store of materialized
//! [`AnnotatedResult`]s, each keyed by query text and stamped with the
//! generation range it covers (created at one generation, rolled forward
//! to the current one). When the database mutates, the session does not
//! re-derive from scratch: it asks the database for the mutation events
//! since the entry's stamp ([`prov_storage::Database::deltas_since`]) and
//! reconciles incrementally —
//!
//! * **deletes** drop every monomial mentioning a removed annotation
//!   ([`AnnotatedResult::drop_annotation`]): by abstract tagging those are
//!   exactly the derivations that used the deleted tuple;
//! * **inserts** are evaluated as a **delta ⊕-join**: for each inserted
//!   tuple and each atom occurrence of its relation, the query is
//!   re-evaluated with that atom pinned to exactly the new row and the
//!   surrounding atoms windowed to the before/after database states
//!   (annotation-filtered passes over the final columnar view — see
//!   `batch::RowRestrict`), so each new derivation is ⊕-added exactly
//!   once via the in-place `Polynomial::add_occurrence` path.
//!
//! This is the paper's compositionality at work: `N[X]` provenance is a
//! free-semiring value, so `Q(D ⊎ Δ) = Q(D) ⊕ (delta-joins of Δ)` — the
//! ⊕-sum needs no recomputation of the `Q(D)` summand, and deletion is
//! monomial surgery because every monomial names the tuples it used.
//!
//! The fallback rule is total: whenever the delta log no longer reaches
//! back to an entry's stamp (log truncation, a replaced database, a
//! diverged clone), the session transparently re-evaluates from scratch.
//! Results are therefore always bit-identical to a fresh evaluation —
//! the `mutate` fuzz spec and the soak/proptest suites enforce this.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prov_query::{ConjunctiveQuery, UnionQuery};
use prov_semiring::Annotation;
use prov_storage::{Database, DeltaEvent, DeltaKind, RelName, Tuple};

use crate::batch::{eval_cq_batched_restricted, DeltaPass, RowRestrict};
use crate::cache::{CacheStats, IndexCache};
use crate::eval::{eval_cq_via_cache, AnnotatedResult, EvalOptions};

/// How many materialized query results a session retains (least recently
/// used entries are evicted first).
const RESULT_CACHE_CAPACITY: usize = 32;

/// Cumulative counters of one [`EvalSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Hit/miss counters of the underlying index/columnar view cache.
    pub views: CacheStats,
    /// Evaluations reconciled incrementally from a cached result by
    /// replaying the delta log (the cheap path).
    pub delta_applies: u64,
    /// Evaluations that ran the full pipeline: first sight of a query, or
    /// a cached entry whose generation the delta log no longer covers.
    pub full_rebuilds: u64,
    /// Distinct monomials dropped by deletion propagation across all
    /// delta applies.
    pub monomials_dropped: u64,
    /// Times the materialized-result store was wiped wholesale
    /// ([`EvalSession::invalidate_results`]): database replaced via
    /// `/load`, or a post-recovery state whose generation lineage the
    /// cached entries cannot roll forward to. Each wiped entry costs one
    /// later full rebuild — the counter says the fallback happened.
    pub invalidations: u64,
    /// High-water mark of materialized frontier rows across this
    /// session's evaluations: the largest partial-assignment block the
    /// batched pipeline held at once. With [`EvalOptions::chunk_rows`]
    /// set this stays bounded by chunk size × the largest one-step
    /// fan-out — the memory-boundedness witness reported on `/stats` and
    /// `--cache-stats`.
    pub peak_frontier_rows: u64,
}

/// Whether a mutation was absorbed incrementally or invalidated the warm
/// caches (see [`EvalSession::apply_mutation`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationCachePath {
    /// The delta log covers the mutation: warm views were patched in
    /// place and cached results will be rolled forward on next use.
    Delta,
    /// The mutation overflowed the delta log; subsequent evaluations
    /// rebuild from scratch.
    Rebuild,
}

impl MutationCachePath {
    /// The wire spelling used by the server's `/mutate` response.
    pub fn as_str(self) -> &'static str {
        match self {
            MutationCachePath::Delta => "delta",
            MutationCachePath::Rebuild => "rebuild",
        }
    }
}

/// The outcome of [`EvalSession::apply_mutation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The database's generation after the mutation.
    pub generation: u64,
    /// Tuples actually inserted (idempotent re-inserts don't count).
    pub inserted: usize,
    /// Tuples actually removed (missing tuples don't count).
    pub removed: usize,
    /// Whether the caches absorbed the mutation incrementally.
    pub cache: MutationCachePath,
}

/// One materialized result: the query's answer as of `generation`.
struct CachedResult {
    generation: u64,
    last_used: u64,
    result: Arc<AnnotatedResult>,
}

#[derive(Default)]
struct ResultStore {
    entries: HashMap<String, CachedResult>,
    tick: u64,
}

impl ResultStore {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The unified, cache-owning evaluation entry point (see the module docs).
///
/// A session is cheap to create but designed to be long-lived and shared:
/// the server keeps one per process, the CLI one per invocation. All
/// methods take `&self`; the session is `Send + Sync`.
///
/// Mutations may reach the database either through
/// [`EvalSession::apply_mutation`] (which additionally keeps the warm
/// index/columnar views patched) or directly — incremental result
/// maintenance only relies on the database's own delta log, so a session
/// handed a database mutated behind its back still reconciles correctly.
#[derive(Default)]
pub struct EvalSession {
    options: EvalOptions,
    views: IndexCache,
    results: Mutex<ResultStore>,
    delta_applies: AtomicU64,
    full_rebuilds: AtomicU64,
    monomials_dropped: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for EvalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSession")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalSession {
    /// A fresh session with default [`EvalOptions`].
    pub fn new() -> Self {
        EvalSession::default()
    }

    /// A fresh session whose parameterless `eval_*` methods use `options`.
    pub fn with_options(options: EvalOptions) -> Self {
        EvalSession {
            options,
            ..EvalSession::default()
        }
    }

    /// The session's default evaluation options.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// Cumulative session counters (view cache + incremental maintenance).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            views: self.views.stats(),
            delta_applies: self.delta_applies.load(Ordering::Relaxed),
            full_rebuilds: self.full_rebuilds.load(Ordering::Relaxed),
            monomials_dropped: self.monomials_dropped.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            peak_frontier_rows: self.views.peak_frontier_rows(),
        }
    }

    /// Drops every materialized result at once.
    ///
    /// The per-entry fallback in `eval_keyed` already
    /// rebuilds transparently whenever the delta log cannot reach an
    /// entry's generation, so correctness never *requires* this — but
    /// when the caller knows the whole database lineage changed (a
    /// `/load` replacement, a crash-recovered state), every cached entry
    /// is dead weight that would only decay out of the LRU. Wiping frees
    /// the memory immediately and records that the clean-rebuild path was
    /// taken in [`SessionStats::invalidations`].
    pub fn invalidate_results(&self) {
        let mut store = self.results.lock().expect("result store poisoned");
        store.entries.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluates a conjunctive query under the session defaults.
    pub fn eval_cq(&self, q: &ConjunctiveQuery, db: &Database) -> Arc<AnnotatedResult> {
        self.eval_cq_with(q, db, self.options)
    }

    /// Evaluates a conjunctive query under explicit options. The result
    /// is shared out of the session's materialized store; strategies are
    /// result-identical, so entries are keyed by query alone.
    pub fn eval_cq_with(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        options: EvalOptions,
    ) -> Arc<AnnotatedResult> {
        self.eval_keyed(format!("cq\u{1f}{q}"), std::slice::from_ref(q), db, options)
    }

    /// Evaluates a union of conjunctive queries under the session defaults.
    pub fn eval_ucq(&self, q: &UnionQuery, db: &Database) -> Arc<AnnotatedResult> {
        self.eval_ucq_with(q, db, self.options)
    }

    /// Evaluates a union of conjunctive queries under explicit options.
    pub fn eval_ucq_with(
        &self,
        q: &UnionQuery,
        db: &Database,
        options: EvalOptions,
    ) -> Arc<AnnotatedResult> {
        self.eval_keyed(format!("ucq\u{1f}{q}"), q.adjuncts(), db, options)
    }

    /// Applies a batch of removals and insertions to `db` (removals
    /// first, matching the server's `/mutate` contract), keeping the warm
    /// index/columnar views patched when the delta log covers the batch.
    ///
    /// Counting matches the database's idempotence rules: re-inserting an
    /// existing tuple or removing a missing one mutates nothing and is
    /// not counted. Like [`prov_storage::Database::insert`], this panics
    /// if an insert's annotation already tags a *different* tuple —
    /// callers exposed to untrusted input (the server) pre-validate.
    pub fn apply_mutation(
        &self,
        db: &mut Database,
        removes: &[(RelName, Tuple)],
        inserts: &[(RelName, Tuple, Annotation)],
    ) -> MutationOutcome {
        let from = db.generation();
        let mut removed = 0;
        for (rel, tuple) in removes {
            if db.remove(*rel, tuple).is_some() {
                removed += 1;
            }
        }
        let mut inserted = 0;
        for (rel, tuple, annotation) in inserts {
            let before = db.generation();
            db.insert(*rel, tuple.clone(), *annotation);
            if db.generation() != before {
                inserted += 1;
            }
        }
        let cache = match db.deltas_since(from) {
            Some(events) => {
                if !events.is_empty() {
                    self.views.patch(db, from, events);
                }
                MutationCachePath::Delta
            }
            None => MutationCachePath::Rebuild,
        };
        MutationOutcome {
            generation: db.generation(),
            inserted,
            removed,
            cache,
        }
    }

    /// The common cached-evaluation path over a list of adjuncts.
    fn eval_keyed(
        &self,
        key: String,
        adjuncts: &[ConjunctiveQuery],
        db: &Database,
        options: EvalOptions,
    ) -> Arc<AnnotatedResult> {
        {
            let mut store = self.results.lock().expect("result store poisoned");
            let tick = store.touch();
            if let Some(entry) = store.entries.get_mut(&key) {
                entry.last_used = tick;
                if entry.generation == db.generation() {
                    return Arc::clone(&entry.result);
                }
                if let Some(events) = db.deltas_since(entry.generation) {
                    let result = Arc::make_mut(&mut entry.result);
                    let dropped = apply_deltas(result, adjuncts, db, options, &self.views, events);
                    entry.generation = db.generation();
                    self.delta_applies.fetch_add(1, Ordering::Relaxed);
                    self.monomials_dropped.fetch_add(dropped, Ordering::Relaxed);
                    return Arc::clone(&entry.result);
                }
                // Delta log no longer reaches the entry's generation:
                // fall through to a full rebuild below.
            }
        }
        // Full evaluation runs outside the store lock, so callers of
        // *other* queries do not wait on it.
        let mut fresh = AnnotatedResult::default();
        for adj in adjuncts {
            fresh.merge(eval_cq_via_cache(adj, db, options, &self.views));
        }
        self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(fresh);
        let mut store = self.results.lock().expect("result store poisoned");
        let tick = store.touch();
        if store.entries.len() >= RESULT_CACHE_CAPACITY && !store.entries.contains_key(&key) {
            if let Some(evict) = store
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                store.entries.remove(&evict);
            }
        }
        store.entries.insert(
            key,
            CachedResult {
                generation: db.generation(),
                last_used: tick,
                result: Arc::clone(&result),
            },
        );
        result
    }
}

// Shared across server worker threads by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalSession>();
    assert_send_sync::<SessionStats>();
};

/// Rolls a cached result forward across `events`, returning the number of
/// monomials dropped by deletion propagation.
///
/// The event window is first netted out: an annotation's final state is
/// what matters, so only the *last* insert of each annotation is replayed
/// (earlier transient inserts would double-count) while every removed
/// annotation is dropped (dropping an annotation the cached result never
/// saw is a no-op). Inserts are then ⊕-added one tuple at a time: tuple
/// `uₗ` contributes, for each adjunct and each atom occurrence `j` of its
/// relation, the assignments where atom `j` is exactly `uₗ`, atoms before
/// `j` avoid `uₗ..u_p` (the state before `uₗ` arrived), and atoms after
/// `j` avoid `u_{l+1}..u_p` (the state after). Each new derivation is
/// counted exactly once — the pass is indexed by the last-inserted tuple
/// it uses and the first atom bound to it.
fn apply_deltas(
    result: &mut AnnotatedResult,
    adjuncts: &[ConjunctiveQuery],
    db: &Database,
    options: EvalOptions,
    views: &IndexCache,
    events: &[DeltaEvent],
) -> u64 {
    let mut removed: Vec<Annotation> = Vec::new();
    let mut inserted: Vec<&DeltaEvent> = Vec::new();
    for event in events {
        match event.kind {
            DeltaKind::Insert => {
                inserted.retain(|e| e.annotation != event.annotation);
                inserted.push(event);
            }
            DeltaKind::Remove => {
                if !removed.contains(&event.annotation) {
                    removed.push(event.annotation);
                }
            }
        }
    }

    let mut dropped = 0;
    for &a in &removed {
        dropped += result.drop_annotation(a);
    }

    if inserted.is_empty() {
        return dropped;
    }
    let eval_views = views.views(db);
    // Annotations of the not-yet-inserted suffix, kept sorted for the
    // binary-searched `RowRestrict::Exclude` filter.
    let mut suffix: Vec<Annotation> = inserted.iter().map(|e| e.annotation).collect();
    suffix.sort_unstable();
    for event in &inserted {
        let exclude_from = exclude(&suffix); // u_l..u_p: the pre-uₗ state
        let pos = suffix.binary_search(&event.annotation).expect("present");
        suffix.remove(pos);
        let exclude_after = exclude(&suffix); // u_{l+1}..u_p: the post-uₗ state
        for adj in adjuncts {
            for (j, atom) in adj.atoms().iter().enumerate() {
                if atom.relation != event.rel || atom.arity() != event.tuple.arity() {
                    continue;
                }
                let pass = DeltaPass {
                    pinned: j,
                    row: event.annotation,
                    values: event.tuple.values(),
                    before: &exclude_from,
                    after: &exclude_after,
                };
                result.merge(eval_cq_batched_restricted(
                    adj,
                    db,
                    options,
                    &eval_views,
                    views,
                    Some(&pass),
                ));
            }
        }
    }
    dropped
}

/// The `Exclude` restriction for `annotations`, collapsing the empty set
/// to `All` so the hot row filter skips the search entirely.
fn exclude(annotations: &[Annotation]) -> RowRestrict {
    if annotations.is_empty() {
        RowRestrict::All
    } else {
        RowRestrict::Exclude(annotations.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_cq_naive, eval_ucq_naive};
    use prov_query::{parse_cq, parse_ucq};

    fn table_2_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "b"], "s4");
        db
    }

    fn assert_matches_fresh(session: &EvalSession, q: &UnionQuery, db: &Database) {
        let incremental = session.eval_ucq(q, db);
        let fresh = eval_ucq_naive(q, db);
        assert_eq!(*incremental, fresh, "incremental != from-scratch for {q}");
    }

    #[test]
    fn insert_delta_matches_from_scratch() {
        let mut db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().full_rebuilds, 1);

        db.add("R", &["a", "c"], "sd1");
        db.add("R", &["c", "a"], "sd2");
        assert_matches_fresh(&session, &q, &db);
        let stats = session.stats();
        assert_eq!(stats.full_rebuilds, 1, "insert must not rebuild");
        assert_eq!(stats.delta_applies, 1);
    }

    #[test]
    fn delete_delta_drops_shared_annotation_everywhere() {
        // s1 backs (a) via s1·s1 *and* contributes nothing to (b): after
        // removing it, (a) must keep only its join derivation while other
        // tuples are untouched — and an annotation appearing in several
        // output tuples' polynomials (s2: in (a) and (b)) must vanish
        // from all of them at once.
        let mut db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        session.eval_ucq(&q, &db);

        db.remove(RelName::new("R"), &Tuple::of(&["a", "b"])); // s2
        assert_matches_fresh(&session, &q, &db);
        let stats = session.stats();
        assert_eq!(stats.full_rebuilds, 1, "delete must not rebuild");
        assert_eq!(stats.delta_applies, 1);
        // s2·s3 dropped from both (a) and (b).
        assert_eq!(stats.monomials_dropped, 2);
    }

    #[test]
    fn interleaved_mutations_and_transient_tuples_reconcile() {
        let mut db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq(
            "ans(x) :- R(x,y), R(y,x), x != y\n\
             ans(x) :- R(x,x)",
        )
        .unwrap();
        session.eval_ucq(&q, &db);

        // A transient tuple (inserted then removed), a remove + re-insert
        // under a fresh annotation, and a plain insert, all in one window.
        db.add("R", &["c", "c"], "tr1");
        db.remove(RelName::new("R"), &Tuple::of(&["c", "c"]));
        db.remove(RelName::new("R"), &Tuple::of(&["a", "a"]));
        db.add("R", &["a", "a"], "s1b");
        db.add("R", &["b", "c"], "tr2");
        db.add("R", &["c", "b"], "tr3");
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().full_rebuilds, 1);
        assert_eq!(session.stats().delta_applies, 1);
    }

    #[test]
    fn log_truncation_falls_back_to_full_rebuild() {
        let mut db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y)").unwrap();
        session.eval_ucq(&q, &db);
        for i in 0..prov_storage::DELTA_LOG_CAPACITY + 1 {
            db.add("R", &[&format!("t{i}"), "z"], &format!("lt_{i}"));
        }
        assert_matches_fresh(&session, &q, &db);
        let stats = session.stats();
        assert_eq!(stats.delta_applies, 0, "truncated log must not delta");
        assert_eq!(stats.full_rebuilds, 2);
        // The rebuilt entry delta-applies again afterwards.
        db.add("R", &["post", "z"], "lt_post");
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().delta_applies, 1);
    }

    #[test]
    fn zero_delta_capacity_degrades_to_rebuild_per_window() {
        // Capacity 0 truncates every window — the degenerate lower bound
        // of the fallback path. Each re-evaluation after a mutation must
        // cost exactly one full rebuild (never a panic, never a stale
        // serve, never more than one rebuild).
        let mut db = Database::with_delta_capacity(0);
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y)").unwrap();
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().full_rebuilds, 1);
        for round in 0..3u32 {
            db.add("R", &[&format!("c{round}"), "a"], &format!("z_{round}"));
            assert_matches_fresh(&session, &q, &db);
            let stats = session.stats();
            assert_eq!(stats.delta_applies, 0, "capacity 0 must never delta");
            assert_eq!(stats.full_rebuilds, u64::from(round) + 2);
        }
    }

    #[test]
    fn capacity_one_deltas_single_event_windows() {
        // Capacity 1 is the smallest log that can cover a window at all:
        // one event per re-evaluation stays on the delta path, while a
        // two-event window truncates and falls back to a rebuild.
        let mut db = Database::with_delta_capacity(1);
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y)").unwrap();
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().full_rebuilds, 1);

        db.add("R", &["c", "a"], "z_0");
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().delta_applies, 1);
        assert_eq!(session.stats().full_rebuilds, 1);

        db.remove(RelName::new("R"), &Tuple::of(&["c", "a"]));
        assert_matches_fresh(&session, &q, &db);
        assert_eq!(session.stats().delta_applies, 2);
        assert_eq!(session.stats().full_rebuilds, 1);

        db.add("R", &["d", "a"], "z_1");
        db.add("R", &["e", "a"], "z_2");
        assert_matches_fresh(&session, &q, &db);
        let stats = session.stats();
        assert_eq!(stats.delta_applies, 2, "overflowed window must not delta");
        assert_eq!(stats.full_rebuilds, 2);
    }

    #[test]
    fn apply_mutation_patches_warm_views_and_counts() {
        let mut db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        session.eval_ucq(&q, &db);
        let misses_before = session.stats().views.misses;

        let outcome = session.apply_mutation(
            &mut db,
            &[(RelName::new("R"), Tuple::of(&["b", "b"]))],
            &[
                (
                    RelName::new("R"),
                    Tuple::of(&["c", "a"]),
                    Annotation::new("am1"),
                ),
                // Idempotent re-insert: not counted.
                (
                    RelName::new("R"),
                    Tuple::of(&["a", "a"]),
                    Annotation::new("s1"),
                ),
            ],
        );
        assert_eq!(outcome.removed, 1);
        assert_eq!(outcome.inserted, 1);
        assert_eq!(outcome.generation, db.generation());
        assert_eq!(outcome.cache, MutationCachePath::Delta);

        assert_matches_fresh(&session, &q, &db);
        let stats = session.stats();
        assert_eq!(stats.delta_applies, 1);
        assert_eq!(
            stats.views.misses, misses_before,
            "warm views must be patched, not rebuilt"
        );
    }

    #[test]
    fn results_are_shared_until_invalidated() {
        let db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,x)").unwrap();
        let r1 = session.eval_ucq(&q, &db);
        let r2 = session.eval_ucq(&q, &db);
        assert!(Arc::ptr_eq(&r1, &r2), "generation hit must share");
        assert_eq!(session.stats().full_rebuilds, 1);
    }

    #[test]
    fn invalidate_results_forces_clean_rebuild_and_counts() {
        let db = table_2_database();
        let session = EvalSession::new();
        let q = parse_ucq("ans(x) :- R(x,x)").unwrap();
        let before = session.eval_ucq(&q, &db);
        session.invalidate_results();
        let after = session.eval_ucq(&q, &db);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a wiped store must not hand back the old Arc"
        );
        assert_eq!(*before, *after);
        let stats = session.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.full_rebuilds, 2, "post-wipe eval is a clean rebuild");
    }

    #[test]
    fn eval_cq_and_constants_and_diseqs_stay_consistent() {
        let mut db = table_2_database();
        let session = EvalSession::new();
        let cq = parse_cq("ans(x) :- R(x,y), R(y,x), x != y").unwrap();
        let first = session.eval_cq(&cq, &db);
        assert_eq!(*first, eval_cq_naive(&cq, &db));
        db.add("R", &["b", "c"], "cd1");
        db.add("R", &["c", "b"], "cd2");
        let second = session.eval_cq(&cq, &db);
        let fresh = eval_cq_naive(&cq, &db);
        assert_eq!(*second, fresh);
        assert_eq!(session.stats().delta_applies, 1);
        // New relations appearing through the delta path also reconcile.
        let cq2 = parse_cq("ans(x) :- R(x,y), S(y)").unwrap();
        session.eval_cq(&cq2, &db);
        db.add("S", &["c"], "cd3");
        let with_s = session.eval_cq(&cq2, &db);
        assert_eq!(*with_s, eval_cq_naive(&cq2, &db));
        assert!(with_s.provenance_ref(&Tuple::of(&["b"])).is_some());
    }
}
