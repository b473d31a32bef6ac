//! Provenance-annotated query evaluation (paper Def 2.12):
//! `P(t, Q, D) = Σ_{σ ∈ A(t,Q,D)} Π_{Ri ∈ body(Q)} P(σ(Ri))`.
//!
//! One evaluator computes this sum: the columnar batched pipeline of
//! `crate::batch`. [`EvalOptions`] choose its worker-thread count and
//! frontier chunk size; every choice enumerates exactly the assignments
//! of Def 2.6, so provenance is identical. The paper-literal
//! enumeration ([`crate::assignments`], [`crate::eval_cq_naive`]) is the
//! differential test oracle, not an option here.

use std::collections::BTreeMap;

use prov_query::{ConjunctiveQuery, UnionQuery};
use prov_semiring::{Annotation, CommutativeSemiring, Polynomial};
use prov_storage::{Database, Tuple, Valuation, Value};

use crate::cache::IndexCache;

/// The annotated result of a query: each output tuple with its provenance
/// polynomial. Boolean queries produce (at most) the empty tuple.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnnotatedResult {
    tuples: BTreeMap<Tuple, Polynomial>,
}

impl AnnotatedResult {
    /// The provenance of `t`, or the zero polynomial if `t` is not in the
    /// result. Clones; prefer [`AnnotatedResult::provenance_ref`] when a
    /// borrow suffices.
    pub fn provenance(&self, t: &Tuple) -> Polynomial {
        self.tuples
            .get(t)
            .cloned()
            .unwrap_or_else(Polynomial::zero_poly)
    }

    /// Borrows the provenance of `t`, or `None` if `t` is not in the
    /// result. Stored polynomials are never zero (every entry records at
    /// least one derivation), so `None` is exactly "zero provenance".
    pub fn provenance_ref(&self, t: &Tuple) -> Option<&Polynomial> {
        self.tuples.get(t)
    }

    /// For boolean queries: the provenance of the empty tuple
    /// (paper notation `P(Q, D)`).
    pub fn boolean_provenance(&self) -> Polynomial {
        self.provenance(&Tuple::empty())
    }

    /// Whether `t` is in the result.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains_key(t)
    }

    /// Iterates `(tuple, provenance)` pairs in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Polynomial)> {
        self.tuples.iter()
    }

    /// Iterates `(tuple, provenance)` pairs in tuple order, starting
    /// strictly *after* `after` (from the beginning for `None`). A
    /// resumable cursor: the server's streamed `/eval` serializer emits a
    /// bounded segment, remembers the last tuple written, and re-seeks
    /// here in O(log n) for the next segment — no O(n²) skip, no borrow
    /// held across segments.
    pub fn iter_from<'a>(
        &'a self,
        after: Option<&'a Tuple>,
    ) -> impl Iterator<Item = (&'a Tuple, &'a Polynomial)> {
        use std::ops::Bound;
        let lower = match after {
            Some(t) => Bound::Excluded(t),
            None => Bound::Unbounded,
        };
        self.tuples
            .range::<Tuple, (Bound<&Tuple>, Bound<&Tuple>)>((lower, Bound::Unbounded))
    }

    /// The output tuples (the ordinary, provenance-free query result).
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.keys()
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Adds the provenance of another result (union of derivations).
    /// This is ⊕ lifted to results: commutative and associative, so any
    /// merge order — in particular the nondeterministic arrival order of
    /// parallel per-thread partials — yields the same result.
    pub fn merge(&mut self, other: AnnotatedResult) {
        if self.tuples.is_empty() {
            self.tuples = other.tuples;
            return;
        }
        for (t, p) in other.tuples {
            match self.tuples.entry(t) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(p);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // In place: no clone of the accumulated polynomial.
                    e.get_mut().absorb(p);
                }
            }
        }
    }

    pub(crate) fn record(&mut self, t: Tuple, m: prov_semiring::Monomial) {
        self.tuples
            .entry(t)
            .or_insert_with(Polynomial::zero_poly)
            .add_monomial(m);
    }

    /// Deletion propagation: drops every monomial mentioning `a` from
    /// every output tuple's polynomial (removing tuples whose provenance
    /// becomes zero), returning the number of distinct monomials dropped.
    ///
    /// Over an abstractly-tagged database this maps `Q(D)` to
    /// `Q(D ∖ {tₐ})` exactly — the dropped monomials are precisely the
    /// derivations whose assignment used the tuple `a` tags (paper §2.3:
    /// monomial factors are the annotations of the tuples used) — which
    /// is what lets [`crate::EvalSession`] service deletes from its
    /// materialized results without re-evaluating.
    pub fn drop_annotation(&mut self, a: Annotation) -> u64 {
        let mut dropped = 0;
        self.tuples.retain(|_, p| {
            dropped += p.drop_mentioning(a);
            !p.is_zero_poly()
        });
        dropped
    }

    /// Records one derivation given as its head values and **sorted**
    /// monomial factor slice, allocating a `Tuple`/`Monomial` only when
    /// the entry is new — the batched pipeline's in-place accumulation.
    pub(crate) fn record_occurrence(&mut self, head: &[Value], factors: &[Annotation]) {
        match self.tuples.get_mut(head) {
            Some(p) => p.add_occurrence(factors),
            None => {
                let mut p = Polynomial::zero_poly();
                p.add_occurrence(factors);
                self.tuples.insert(Tuple::new(head.to_vec()), p);
            }
        }
    }
}

/// Default chunk size of the memory-bounded batched pipeline: how many
/// first-frontier rows flow through the whole atom schedule at once.
/// Large enough that chunking costs nothing on small workloads (the whole
/// evaluation is one chunk), small enough that a fan-out-heavy join's
/// peak frontier stays a bounded multiple of it.
pub const DEFAULT_CHUNK_ROWS: usize = 64 * 1024;

/// The largest worker-thread count the CLI and the server accept. Each
/// worker is a scoped OS thread, so an unbounded value would let one
/// request or command exhaust the process's memory for thread stacks;
/// anything past the machine's core count is overhead anyway.
pub const MAX_THREADS: usize = 64;

/// Evaluation strategy knobs. None of them changes a result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvalOptions {
    /// Number of worker threads the first atom's frontier is split
    /// across. `None` or `Some(0|1)` evaluates sequentially (the default).
    pub parallelism: Option<usize>,
    /// Memory bound of the batched pipeline: a frontier block larger than
    /// this is driven through the remaining atom schedule in
    /// `chunk_rows`-row slices, each accumulated into the shared result
    /// before the next slice starts, so peak frontier memory is
    /// O(`chunk_rows` × the largest one-step fan-out) instead of
    /// O(largest intermediate join). `None` (or `Some(0)`) disables
    /// chunking; results are bit-identical either way (⊕ is commutative
    /// and associative — the chunks are just a regrouping of the Def 2.6
    /// assignment sum). Defaults to [`DEFAULT_CHUNK_ROWS`].
    pub chunk_rows: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            parallelism: None,
            chunk_rows: Some(DEFAULT_CHUNK_ROWS),
        }
    }
}

impl EvalOptions {
    /// This strategy evaluated on `threads` worker threads.
    pub fn with_parallelism(self, threads: usize) -> Self {
        EvalOptions {
            parallelism: Some(threads),
            ..self
        }
    }

    /// This strategy with the batched pipeline's frontier chunked to
    /// `rows`-row slices (`0` disables chunking, like
    /// [`EvalOptions::unchunked`]). See [`EvalOptions::chunk_rows`].
    pub fn with_chunk_rows(self, rows: usize) -> Self {
        EvalOptions {
            chunk_rows: Some(rows),
            ..self
        }
    }

    /// This strategy with frontier chunking disabled: the batched
    /// pipeline materializes each full intermediate frontier (the
    /// pre-chunking behavior — fastest on workloads that fit in memory,
    /// unbounded peak on those that don't).
    pub fn unchunked(self) -> Self {
        EvalOptions {
            chunk_rows: None,
            ..self
        }
    }

    /// The worker-thread count this strategy actually runs with.
    pub(crate) fn effective_threads(&self) -> usize {
        self.parallelism.unwrap_or(1).max(1)
    }

    /// The chunk bound the batched pipeline actually applies
    /// (`usize::MAX` = unchunked).
    pub(crate) fn effective_chunk_rows(&self) -> usize {
        match self.chunk_rows {
            Some(rows) if rows > 0 => rows,
            _ => usize::MAX,
        }
    }
}

/// Evaluates a conjunctive query over an abstractly-tagged database,
/// producing each output tuple with its `N[X]` provenance (Def 2.12).
pub fn eval_cq(q: &ConjunctiveQuery, db: &Database) -> AnnotatedResult {
    eval_cq_with(q, db, EvalOptions::default())
}

/// [`eval_cq`] under explicit strategy options.
pub fn eval_cq_with(q: &ConjunctiveQuery, db: &Database, options: EvalOptions) -> AnnotatedResult {
    eval_cq_via_cache(q, db, options, &IndexCache::new())
}

/// The internal cached-views evaluation path: the full (non-incremental)
/// pipeline behind [`crate::EvalSession`] rebuilds.
pub(crate) fn eval_cq_via_cache(
    q: &ConjunctiveQuery,
    db: &Database,
    options: EvalOptions,
    cache: &IndexCache,
) -> AnnotatedResult {
    let views = cache.views(db);
    crate::batch::eval_cq_batched_restricted(q, db, options, &views, cache, None)
}

/// Evaluates a union of conjunctive queries: provenance sums over adjuncts
/// (Def 2.12, union case).
pub fn eval_ucq(q: &UnionQuery, db: &Database) -> AnnotatedResult {
    eval_ucq_with(q, db, EvalOptions::default())
}

/// [`eval_ucq`] under explicit strategy options. All disjuncts share one
/// index build through a query-local [`IndexCache`].
pub fn eval_ucq_with(q: &UnionQuery, db: &Database, options: EvalOptions) -> AnnotatedResult {
    eval_ucq_via_cache(q, db, options, &IndexCache::new())
}

/// The internal cached-views UCQ path (see [`eval_cq_via_cache`]).
pub(crate) fn eval_ucq_via_cache(
    q: &UnionQuery,
    db: &Database,
    options: EvalOptions,
    cache: &IndexCache,
) -> AnnotatedResult {
    let mut result = AnnotatedResult::default();
    for adj in q.adjuncts() {
        result.merge(eval_cq_via_cache(adj, db, options, cache));
    }
    result
}

/// Evaluates a union query directly into a semiring `K` by specializing
/// the provenance polynomials under `valuation` — the factorization of
/// `K`-relational semantics through `N[X]` (universal property).
pub fn eval_in_semiring<K: CommutativeSemiring>(
    q: &UnionQuery,
    db: &Database,
    valuation: &Valuation<K>,
) -> BTreeMap<Tuple, K> {
    eval_ucq(q, db)
        .iter()
        .map(|(t, p)| (t.clone(), valuation.eval(p)))
        .filter(|(_, k)| !k.is_zero())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::{parse_cq, parse_ucq};
    use prov_semiring::Natural;

    fn table_2_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "b"], "s4");
        db
    }

    #[test]
    fn example_2_13_qunion_provenance() {
        // Table 3: ans = {(a): s2·s3 + s1, (b): s3·s2 + s4}.
        let db = table_2_database();
        let qunion = parse_ucq(
            "ans(x) :- R(x,y), R(y,x), x != y\n\
             ans(x) :- R(x,x)",
        )
        .unwrap();
        let result = eval_ucq(&qunion, &db);
        assert_eq!(result.len(), 2);
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("s2·s3 + s1")
        );
        assert_eq!(
            result.provenance(&Tuple::of(&["b"])),
            Polynomial::parse("s3·s2 + s4")
        );
    }

    #[test]
    fn example_2_14_qconj_provenance() {
        // Qconj: (a) ↦ s2·s3 + s1·s1, (b) ↦ s3·s2 + s4·s4.
        let db = table_2_database();
        let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let result = eval_cq(&qconj, &db);
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("s2·s3 + s1·s1")
        );
        assert_eq!(
            result.provenance(&Tuple::of(&["b"])),
            Polynomial::parse("s3·s2 + s4·s4")
        );
    }

    #[test]
    fn example_3_4_exponent_from_duplicate_use() {
        // Q: ans():-R(x),R(y) on R = {(a):s}: provenance s·s.
        let mut db = Database::new();
        db.add("R", &["a"], "e34_s");
        let q = parse_cq("ans() :- R(x), R(y)").unwrap();
        let result = eval_cq(&q, &db);
        assert_eq!(
            result.boolean_provenance(),
            Polynomial::parse("e34_s·e34_s")
        );
        let q_single = parse_cq("ans() :- R(x)").unwrap();
        assert_eq!(
            eval_cq(&q_single, &db).boolean_provenance(),
            Polynomial::parse("e34_s")
        );
    }

    #[test]
    fn constants_filter_tuples() {
        let db = table_2_database();
        let q = parse_cq("ans(x) :- R(x,'b')").unwrap();
        let result = eval_cq(&q, &db);
        assert_eq!(result.len(), 2); // (a) from s2, (b) from s4
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("s2")
        );
    }

    #[test]
    fn empty_result_when_diseq_unsatisfied() {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "dq_s1");
        let q = parse_cq("ans(x) :- R(x,y), x != y").unwrap();
        assert!(eval_cq(&q, &db).is_empty());
    }

    #[test]
    fn missing_relation_yields_empty() {
        let db = table_2_database();
        let q = parse_cq("ans(x) :- Missing(x)").unwrap();
        assert!(eval_cq(&q, &db).is_empty());
    }

    #[test]
    fn arity_mismatch_yields_empty() {
        let db = table_2_database();
        let q = parse_cq("ans(x) :- R(x)").unwrap();
        assert!(eval_cq(&q, &db).is_empty());
    }

    #[test]
    fn semiring_evaluation_counts_derivations() {
        let db = table_2_database();
        let qconj = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let counts = eval_in_semiring(&qconj, &db, &Valuation::<Natural>::all_one());
        assert_eq!(counts[&Tuple::of(&["a"])], Natural(2));
        assert_eq!(counts[&Tuple::of(&["b"])], Natural(2));
    }

    #[test]
    fn merge_sums_provenance() {
        let db = table_2_database();
        let q = parse_ucq("ans(x) :- R(x,x)\nans(x) :- R(x,x)").unwrap();
        // Unioning a query with itself doubles each monomial.
        let result = eval_ucq(&q, &db);
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            Polynomial::parse("2·s1")
        );
    }

    #[test]
    fn strategies_agree_on_paper_queries() {
        let db = table_2_database();
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x) :- R(x,'b')",
            "ans(x) :- R(x,y), R(y,x), x != y",
        ] {
            let q = parse_cq(text).unwrap();
            let naive = crate::eval_cq_naive(&q, &db);
            for options in [
                EvalOptions::default(),
                EvalOptions::default().with_parallelism(2),
                EvalOptions::default().with_parallelism(4),
            ] {
                let planned = eval_cq_with(&q, &db, options);
                assert_eq!(naive, planned, "{options:?} disagrees on {text}");
            }
        }
    }

    #[test]
    fn strategies_agree_on_random_instances() {
        use prov_query::generate::{random_cq, QuerySpec};
        use prov_storage::generator::{random_database, DatabaseSpec};
        let spec = QuerySpec {
            diseq_percent: 30,
            ..QuerySpec::binary(3, 3)
        };
        for seed in 0..25u64 {
            let q = random_cq(&spec, seed);
            let db = random_database(&DatabaseSpec::single_binary(8, 3), seed);
            let naive = crate::eval_cq_naive(&q, &db);
            let planned = eval_cq_with(&q, &db, EvalOptions::default());
            assert_eq!(naive, planned, "strategies disagree on {q} (seed {seed})");
        }
    }
}
