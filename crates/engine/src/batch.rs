//! Columnar batched evaluation (Def 2.6 / Def 2.12 executed block-wise) —
//! the engine's only evaluator.
//!
//! Instead of extending one partial assignment at a time (a `BTreeMap`
//! binding update, a `Tuple` clone and a fresh `Monomial` per enumerated
//! assignment, as the oracle in `crate::assignment` does), the pipeline
//! carries a **block** of partial assignments in struct-of-arrays form:
//! one contiguous **dictionary-encoded** `Vec<u32>` column of interned
//! value ids per bound variable plus one `Vec<Annotation>` column per
//! matched atom (the factor columns of the eventual monomials). Each
//! planned atom maps a block to the next block with a probe/filter pass
//! over the relation's columnar view ([`prov_storage::ColumnarRelation`],
//! itself id-encoded — every equality and disequality check is a
//! fixed-width `u32` compare) followed by columnar gathers; ids are
//! decoded back to [`Value`]s only at the output boundary, where
//! provenance is accumulated in place through the reused factor buffer of
//! [`prov_semiring::MonomialBuilder`] and `Polynomial::add_occurrence` —
//! no per-derivation temporaries.
//!
//! Correctness: the pipeline enumerates exactly the assignments of
//! Def 2.6 in a different grouping, and ⊕ is commutative and associative
//! with a canonical coefficient-map representation, so the result is
//! *equal* — not merely equivalent — to the oracle's (checked by the
//! proptests in `tests/parallel_consistency.rs` and by `provmin fuzz`).
//! A full evaluation of a body with several constant anchors first
//! narrows each variable's values by semijoins (`crate::semijoin`) and
//! binds only values inside those domains; a value leaves a domain only
//! if it occurs in no assignment, so the enumerated set is unchanged.
//! Parallelism composes by splitting the first atom's block into chunks
//! work-stolen by scoped threads, each ⊕-accumulating a private partial
//! result; the partials are then ⊕-merged, so completion order cannot
//! change the output.
//!
//! Memory bound: a frontier larger than [`EvalOptions::chunk_rows`] is
//! split into chunk-sized slices, each driven through the *entire*
//! remaining atom schedule (accumulating into the shared result) before
//! the next slice starts. One extension step may still fan a chunk out
//! past the bound — that oversized block is re-chunked before the *next*
//! step — so peak frontier memory is O(`chunk_rows` × the largest
//! one-step fan-out) per schedule level instead of O(largest intermediate
//! join). The high-water mark is reported through
//! [`crate::IndexCache::peak_frontier_rows`] /
//! [`crate::SessionStats::peak_frontier_rows`]. Unchunked
//! (`chunk_rows: None`), each step materializes its full frontier — the
//! classic vectorized-executor trade.

use std::sync::atomic::{AtomicUsize, Ordering};

use prov_query::{ConjunctiveQuery, Term, Variable};
use prov_semiring::{Annotation, MonomialBuilder};
use prov_storage::{ColumnarRelation, Database, RelName, Value};

use crate::cache::{EvalViews, IndexCache};
use crate::eval::{AnnotatedResult, EvalOptions};
use crate::index::RelationIndex;
use crate::semijoin::Domains;

/// How many block chunks each worker thread gets on average;
/// over-partitioning lets the stealing cursor balance skewed chunks.
const CHUNKS_PER_THREAD: usize = 4;

/// A per-atom row restriction of a [`DeltaPass`], expressed as an
/// annotation filter over the final columnar view (annotations are in
/// bijection with tuples — abstract tagging).
#[derive(Clone, Debug, Default)]
pub(crate) enum RowRestrict {
    /// No restriction: every row of the relation is a candidate.
    #[default]
    All,
    /// Only the row tagged by this annotation.
    Exactly(Annotation),
    /// Every row except those tagged by these annotations (sorted).
    Exclude(Vec<Annotation>),
}

impl RowRestrict {
    /// Whether the row tagged `a` passes this restriction.
    #[inline]
    fn allows(&self, a: Annotation) -> bool {
        match self {
            RowRestrict::All => true,
            RowRestrict::Exactly(only) => a == *only,
            RowRestrict::Exclude(set) => set.binary_search(&a).is_err(),
        }
    }
}

/// One delta ⊕-join pass of incremental maintenance (see
/// [`crate::EvalSession`]): evaluating `Q(D ⊎ Δ)` incrementally pins atom
/// `pinned` to exactly the delta row tagged `row` and restricts the atoms
/// before/after it to the database states before/after that row arrived.
pub(crate) struct DeltaPass<'a> {
    /// The atom index matched against the delta row alone.
    pub(crate) pinned: usize,
    /// The delta row's annotation.
    pub(crate) row: Annotation,
    /// The delta row's values, position by position.
    pub(crate) values: &'a [Value],
    /// The restriction of every atom written before `pinned`.
    pub(crate) before: &'a RowRestrict,
    /// The restriction of every atom written after `pinned`.
    pub(crate) after: &'a RowRestrict,
}

impl DeltaPass<'_> {
    /// The row restriction of atom `atom`.
    fn restrict(&self, atom: usize) -> RowRestrict {
        match atom.cmp(&self.pinned) {
            std::cmp::Ordering::Less => self.before.clone(),
            std::cmp::Ordering::Equal => RowRestrict::Exactly(self.row),
            std::cmp::Ordering::Greater => self.after.clone(),
        }
    }
}

/// How to produce one value of an output tuple or disequality operand.
/// Constants are stored decoded; comparisons against id columns use
/// [`Value::id`] (a field read — same fixed-width compare).
#[derive(Clone, Copy, Debug)]
enum Fetch {
    /// Read the block column with this id.
    Col(usize),
    /// A constant.
    Const(Value),
}

/// A disequality scheduled at the first step where both sides are bound.
#[derive(Clone, Copy, Debug)]
struct DiseqPlan {
    /// The left side's block column.
    left: usize,
    /// The right side (column or constant).
    right: Fetch,
}

/// The compiled extension step for one planned atom: which relation to
/// probe and how each argument position constrains or extends the block.
struct AtomPlan {
    rel: RelName,
    /// Which rows of the relation this atom may match (delta passes pin
    /// or exclude rows by annotation; [`RowRestrict::All`] otherwise).
    restrict: RowRestrict,
    /// Positions that must equal a constant.
    const_checks: Vec<(usize, Value)>,
    /// Positions that must equal an already-bound block column.
    bound_checks: Vec<(usize, usize)>,
    /// Positions that must equal an earlier position of the same row
    /// (a variable repeated within this atom, first bound here).
    self_checks: Vec<(usize, usize)>,
    /// Newly bound positions whose value must lie in the variable's
    /// semijoin-reduced domain (sorted ids; see `crate::semijoin`).
    domain_checks: Vec<(usize, Vec<u32>)>,
    /// Positions whose values become new block columns, in column order.
    binds: Vec<usize>,
    /// Disequalities that become fully bound after this step.
    diseqs: Vec<DiseqPlan>,
}

/// A block of partial assignments in struct-of-arrays form, with value
/// columns dictionary-encoded to interned ids ([`Value::id`]).
#[derive(Clone, Debug, Default)]
struct Block {
    len: usize,
    /// One id column per bound variable, in binding order.
    cols: Vec<Vec<u32>>,
    /// One annotation column per matched atom (monomial factors).
    annot_cols: Vec<Vec<Annotation>>,
}

impl Block {
    /// The unit block: one empty partial assignment.
    fn unit() -> Self {
        Block {
            len: 1,
            cols: Vec::new(),
            annot_cols: Vec::new(),
        }
    }

    /// Copies the row range `[start, end)` out as its own block.
    fn slice(&self, start: usize, end: usize) -> Block {
        Block {
            len: end - start,
            cols: self.cols.iter().map(|c| c[start..end].to_vec()).collect(),
            annot_cols: self
                .annot_cols
                .iter()
                .map(|c| c[start..end].to_vec())
                .collect(),
        }
    }
}

/// Compiles the planned atom order into extension steps plus the head
/// fetch plan. `order` must be a permutation of the query's atom indices;
/// `domains` restricts the values each variable may be bound to.
fn build_plans(
    q: &ConjunctiveQuery,
    order: &[usize],
    delta: Option<&DeltaPass<'_>>,
    mut domains: Domains,
) -> (Vec<AtomPlan>, Vec<Fetch>) {
    let mut col_of: std::collections::BTreeMap<Variable, usize> = std::collections::BTreeMap::new();
    let mut scheduled = vec![false; q.diseqs().len()];
    let mut plans = Vec::with_capacity(order.len());
    for &ai in order {
        let atom = &q.atoms()[ai];
        let mut plan = AtomPlan {
            rel: atom.relation,
            restrict: delta.map_or(RowRestrict::All, |d| d.restrict(ai)),
            const_checks: Vec::new(),
            bound_checks: Vec::new(),
            self_checks: Vec::new(),
            domain_checks: Vec::new(),
            binds: Vec::new(),
            diseqs: Vec::new(),
        };
        // The pinned atom matches exactly the delta row, so its values
        // are constants too: the row is then found through a posting
        // list instead of a scan of the whole relation.
        if let Some(d) = delta.filter(|d| d.pinned == ai) {
            for (pos, (term, &value)) in atom.args.iter().zip(d.values).enumerate() {
                if let Term::Var(_) = term {
                    plan.const_checks.push((pos, value));
                }
            }
        }
        let mut first_pos: std::collections::BTreeMap<Variable, usize> =
            std::collections::BTreeMap::new();
        for (pos, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(c) => plan.const_checks.push((pos, *c)),
                Term::Var(v) => {
                    // A variable first bound by this very atom has no block
                    // column yet — repeats of it are within-row equality
                    // checks, not column probes.
                    if let Some(&p0) = first_pos.get(v) {
                        plan.self_checks.push((pos, p0));
                    } else if let Some(&col) = col_of.get(v) {
                        plan.bound_checks.push((pos, col));
                    } else {
                        first_pos.insert(*v, pos);
                        col_of.insert(*v, col_of.len());
                        plan.binds.push(pos);
                        if let Some(dom) = domains.remove(v) {
                            plan.domain_checks.push((pos, dom));
                        }
                    }
                }
            }
        }
        // Disequalities check as soon as both sides are bound (query
        // safety guarantees both sides are bound by the last step).
        for (di, d) in q.diseqs().iter().enumerate() {
            if scheduled[di] {
                continue;
            }
            let left = col_of.get(&d.left()).copied();
            let right = match d.right() {
                Term::Var(v) => col_of.get(&v).copied().map(Fetch::Col),
                Term::Const(c) => Some(Fetch::Const(c)),
            };
            if let (Some(left), Some(right)) = (left, right) {
                plan.diseqs.push(DiseqPlan { left, right });
                scheduled[di] = true;
            }
        }
        plans.push(plan);
    }
    let head = q
        .head()
        .args
        .iter()
        .map(|t| match t {
            Term::Var(v) => Fetch::Col(*col_of.get(v).expect("head variable bound (query safety)")),
            Term::Const(c) => Fetch::Const(*c),
        })
        .collect();
    (plans, head)
}

/// Maps `block` through one atom: probe the relation for matching rows per
/// partial assignment, then gather the surviving columns.
fn extend_block(
    block: &Block,
    plan: &AtomPlan,
    rel: &ColumnarRelation,
    index: &RelationIndex,
) -> Block {
    // Checks independent of the parent assignment. All value checks are
    // id compares over the dictionary-encoded columns.
    let row_tags = rel.annotations();
    let static_ok = |row: usize| {
        plan.restrict.allows(row_tags[row])
            && plan
                .const_checks
                .iter()
                .all(|&(pos, v)| rel.column_ids(pos)[row] == v.id())
            && plan
                .self_checks
                .iter()
                .all(|&(pos, p0)| rel.column_ids(pos)[row] == rel.column_ids(p0)[row])
            && plan
                .domain_checks
                .iter()
                .all(|(pos, dom)| dom.binary_search(&rel.column_ids(*pos)[row]).is_ok())
    };

    // The join phase: (parent, relation row) match pairs.
    let mut parents: Vec<u32> = Vec::new();
    let mut rows: Vec<u32> = Vec::new();
    if plan.bound_checks.is_empty() {
        // The candidate set is parent-independent: filter the column scan
        // (or the most selective constant posting list) once and fan it
        // out to every partial assignment in the block.
        let candidates: Vec<u32> = match index.most_selective(&plan.const_checks) {
            Some(posting) => posting
                .iter()
                .copied()
                .filter(|&r| static_ok(r as usize))
                .collect(),
            None => (0..rel.len() as u32)
                .filter(|&r| static_ok(r as usize))
                .collect(),
        };
        parents.reserve(block.len * candidates.len());
        rows.reserve(block.len * candidates.len());
        for parent in 0..block.len as u32 {
            for &r in &candidates {
                parents.push(parent);
                rows.push(r);
            }
        }
    } else {
        let mut constraints: Vec<(usize, Value)> =
            Vec::with_capacity(plan.const_checks.len() + plan.bound_checks.len());
        for parent in 0..block.len {
            let row_ok = |row: usize| {
                static_ok(row)
                    && plan
                        .bound_checks
                        .iter()
                        .all(|&(pos, col)| rel.column_ids(pos)[row] == block.cols[col][parent])
            };
            constraints.clear();
            constraints.extend_from_slice(&plan.const_checks);
            constraints.extend(
                plan.bound_checks
                    .iter()
                    .map(|&(pos, col)| (pos, Value::from_id(block.cols[col][parent]))),
            );
            let posting = index
                .most_selective(&constraints)
                .expect("bound checks are non-empty");
            for &r in posting {
                if row_ok(r as usize) {
                    parents.push(parent as u32);
                    rows.push(r);
                }
            }
        }
    }

    // The gather phase: existing columns follow the parent ids, new
    // columns and the new annotation column follow the matched rows.
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(block.cols.len() + plan.binds.len());
    for c in &block.cols {
        cols.push(parents.iter().map(|&p| c[p as usize]).collect());
    }
    for &pos in &plan.binds {
        let col = rel.column_ids(pos);
        cols.push(rows.iter().map(|&r| col[r as usize]).collect());
    }
    let mut annot_cols: Vec<Vec<Annotation>> = Vec::with_capacity(block.annot_cols.len() + 1);
    for c in &block.annot_cols {
        annot_cols.push(parents.iter().map(|&p| c[p as usize]).collect());
    }
    let annotations = rel.annotations();
    annot_cols.push(rows.iter().map(|&r| annotations[r as usize]).collect());
    Block {
        len: parents.len(),
        cols,
        annot_cols,
    }
}

/// Drops block rows violating any of the newly-bound disequalities,
/// compacting every column in place.
fn apply_diseqs(block: &mut Block, diseqs: &[DiseqPlan]) {
    if diseqs.is_empty() || block.len == 0 {
        return;
    }
    let keep: Vec<u32> = (0..block.len)
        .filter(|&i| {
            diseqs.iter().all(|d| {
                let left = block.cols[d.left][i];
                let right = match d.right {
                    Fetch::Col(c) => block.cols[c][i],
                    Fetch::Const(v) => v.id(),
                };
                left != right
            })
        })
        .map(|i| i as u32)
        .collect();
    if keep.len() == block.len {
        return;
    }
    for c in &mut block.cols {
        *c = keep.iter().map(|&i| c[i as usize]).collect();
    }
    for c in &mut block.annot_cols {
        *c = keep.iter().map(|&i| c[i as usize]).collect();
    }
    block.len = keep.len();
}

/// The read-only remainder of a batched schedule: the per-step plan,
/// relation, and index slices advance in lockstep; head layout, chunk
/// bound, and the frontier counter are shared by every level.
#[derive(Clone, Copy)]
struct Pipeline<'a> {
    plans: &'a [AtomPlan],
    rels: &'a [&'a ColumnarRelation],
    indexes: &'a [&'a RelationIndex],
    head: &'a [Fetch],
    chunk_rows: usize,
    cache: &'a IndexCache,
}

impl<'a> Pipeline<'a> {
    /// The pipeline after consuming one extension step.
    fn next_step(&self) -> Pipeline<'a> {
        Pipeline {
            plans: &self.plans[1..],
            rels: &self.rels[1..],
            indexes: &self.indexes[1..],
            ..*self
        }
    }
}

/// Runs `block` through the remaining steps and accumulates the surviving
/// assignments' provenance into `result` in place, never holding more
/// than `pipe.chunk_rows` input rows per extension step: an oversized
/// frontier is sliced and each slice driven through the *entire*
/// remaining schedule (depth-first over chunks) before the next slice
/// starts — correctness-neutral, since the slices partition the block's
/// rows and ⊕-accumulation into `result` is order-independent. A
/// `chunk_rows` of `usize::MAX` is the unchunked behavior.
fn finish_chunk(block: Block, pipe: &Pipeline<'_>, result: &mut AnnotatedResult) {
    let Some(plan) = pipe.plans.first() else {
        emit_block(&block, pipe.head, result);
        return;
    };
    if block.len == 0 {
        return;
    }
    if block.len > pipe.chunk_rows {
        // Re-chunk before extending: only the already-materialized
        // oversized block (bounded by chunk × one step's fan-out) plus
        // one chunk-sized slice chain is ever live at once.
        let mut start = 0;
        while start < block.len {
            let end = (start + pipe.chunk_rows).min(block.len);
            finish_chunk(block.slice(start, end), pipe, result);
            start = end;
        }
        return;
    }
    let mut next = extend_block(&block, plan, pipe.rels[0], pipe.indexes[0]);
    // The input chunk is dead once extended; free it before recursing so
    // the live set along the schedule stays one block per level.
    drop(block);
    apply_diseqs(&mut next, &plan.diseqs);
    pipe.cache.observe_frontier(next.len);
    finish_chunk(next, &pipe.next_step(), result);
}

/// Emits every row of a fully-extended block: decode the head ids back to
/// [`Value`]s, accumulate the annotation factors in place.
fn emit_block(block: &Block, head: &[Fetch], result: &mut AnnotatedResult) {
    let mut builder = MonomialBuilder::new();
    let mut head_buf: Vec<Value> = Vec::with_capacity(head.len());
    for i in 0..block.len {
        head_buf.clear();
        for f in head {
            head_buf.push(match *f {
                Fetch::Col(c) => Value::from_id(block.cols[c][i]),
                Fetch::Const(v) => v,
            });
        }
        builder.clear();
        for annot_col in &block.annot_cols {
            builder.push(annot_col[i]);
        }
        result.record_occurrence(&head_buf, builder.as_sorted());
    }
}

/// Evaluates `q` over `db` through the columnar batched pipeline. Every
/// evaluation outside the test oracle lands here: full evaluations pass
/// `delta: None`; the delta ⊕-join passes of [`crate::EvalSession`] pass
/// the [`DeltaPass`] that pins one atom to the freshly-inserted row and
/// windows the others.
pub(crate) fn eval_cq_batched_restricted(
    q: &ConjunctiveQuery,
    db: &Database,
    options: EvalOptions,
    views: &EvalViews,
    cache: &IndexCache,
    delta: Option<&DeltaPass<'_>>,
) -> AnnotatedResult {
    // `ConjunctiveQuery::new` rejects an empty body, so `plans[0]` exists.
    let mut result = AnnotatedResult::default();
    // An absent relation or an arity mismatch anywhere empties the result.
    for atom in q.atoms() {
        match db.relation(atom.relation) {
            Some(r) if r.arity() == atom.arity() => {}
            _ => return result,
        }
    }
    // A delta pass drives the join from its pinned atom: that candidate
    // set is one row, so every later atom extends a one-assignment block
    // through index probes and the pass stays O(|Δ| · index probes).
    let index = views.database_index(db);
    let columnar = views.columnar(db);
    // A full evaluation of a body with several constant anchors first
    // narrows every variable's values by semijoins; an atom that matches
    // nothing under them empties the result before the pipeline starts.
    let domains = match delta {
        Some(_) => Domains::new(),
        None => match crate::semijoin::reduce(q, index, columnar) {
            Some(domains) => domains,
            None => return result,
        },
    };
    let order = crate::planner::plan(q, index, delta.map(|d| d.pinned));
    let (plans, head) = build_plans(q, &order, delta, domains);
    let rels: Vec<&ColumnarRelation> = plans
        .iter()
        .map(|p| columnar.relation(p.rel).expect("relation validated above"))
        .collect();
    // Relations only come into being through an insert, so the index
    // (built or patched from the same events) covers every one of them.
    let indexes: Vec<&RelationIndex> = plans
        .iter()
        .map(|p| index.relation(p.rel).expect("relation validated above"))
        .collect();

    // First step from the unit block, shared by both execution modes.
    // Its fan-out is bounded by the first relation's size — within the
    // per-step bound chunking guarantees for every later step.
    let mut block = extend_block(&Block::unit(), &plans[0], rels[0], indexes[0]);
    apply_diseqs(&mut block, &plans[0].diseqs);
    cache.observe_frontier(block.len);
    let pipe = Pipeline {
        plans: &plans[1..],
        rels: &rels[1..],
        indexes: &indexes[1..],
        head: &head,
        chunk_rows: options.effective_chunk_rows(),
        cache,
    };

    let threads = options.effective_threads();
    if threads < 2 || plans.len() < 2 || block.len < 2 {
        finish_chunk(block, &pipe, &mut result);
        return result;
    }

    // Parallel mode: split the first-atom block into chunks, work-stolen
    // by scoped threads; ⊕-merge the private partial results. A chunk
    // wider than `chunk_rows` is re-sliced inside `finish_chunk`, so the
    // per-thread frontier bound holds regardless of chunk geometry. A
    // worker beyond the chunk count would find nothing to steal, so none
    // is spawned.
    let num_chunks = (threads * CHUNKS_PER_THREAD).min(block.len);
    let bounds: Vec<(usize, usize)> = (0..num_chunks)
        .map(|i| (i * block.len / num_chunks, (i + 1) * block.len / num_chunks))
        .collect();
    let cursor = AtomicUsize::new(0);
    let partials: Vec<AnnotatedResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(num_chunks))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = AnnotatedResult::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= bounds.len() {
                            break;
                        }
                        let (start, end) = bounds[i];
                        finish_chunk(block.slice(start, end), &pipe, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batched evaluation worker panicked"))
            .collect()
    });
    for partial in partials {
        result.merge(partial);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_cq_with;
    use prov_query::{parse_cq, parse_ucq};
    use prov_storage::Tuple;

    fn table_2_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "s1");
        db.add("R", &["a", "b"], "s2");
        db.add("R", &["b", "a"], "s3");
        db.add("R", &["b", "b"], "s4");
        db
    }

    #[test]
    fn batched_matches_paper_examples() {
        let db = table_2_database();
        let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let result = eval_cq_with(&qconj, &db, EvalOptions::default());
        assert_eq!(
            result.provenance(&Tuple::of(&["a"])),
            prov_semiring::Polynomial::parse("s2·s3 + s1·s1")
        );
        assert_eq!(
            result.provenance(&Tuple::of(&["b"])),
            prov_semiring::Polynomial::parse("s3·s2 + s4·s4")
        );
    }

    #[test]
    fn batched_equals_tuple_at_a_time_on_paper_queries() {
        let db = table_2_database();
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x) :- R(x,'b')",
            "ans(x) :- R(x,y), R(y,x), x != y",
            "ans(x,y) :- R(x,y), x != 'a'",
            "ans() :- R(x,x), R(x,y), R(y,y)",
        ] {
            let q = parse_cq(text).unwrap();
            // The oracle is the paper-literal tuple-at-a-time enumeration.
            let reference = crate::eval_cq_naive(&q, &db);
            for options in [
                EvalOptions::default(),
                EvalOptions::default().with_parallelism(3),
                EvalOptions::default().with_chunk_rows(1),
            ] {
                assert_eq!(
                    eval_cq_with(&q, &db, options),
                    reference,
                    "{options:?} disagrees on {text}"
                );
            }
        }
    }

    #[test]
    fn batched_handles_missing_relation_and_arity_mismatch() {
        let db = table_2_database();
        for text in ["ans(x) :- Missing(x)", "ans(x) :- R(x)"] {
            let q = parse_cq(text).unwrap();
            assert!(eval_cq_with(&q, &db, EvalOptions::default()).is_empty());
        }
    }

    #[test]
    fn batched_repeated_variable_within_atom() {
        // R(x,x) with x unbound exercises the self-check path.
        let db = table_2_database();
        let q = parse_cq("ans(x) :- R(x,x)").unwrap();
        let result = eval_cq_with(&q, &db, EvalOptions::default());
        assert_eq!(result, crate::eval_cq_naive(&q, &db));
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn batched_ucq_shares_one_index_build() {
        let db = table_2_database();
        let q = parse_ucq(
            "ans(x) :- R(x,y), R(y,x), x != y\n\
             ans(x) :- R(x,x)",
        )
        .unwrap();
        let session = crate::EvalSession::new();
        assert_eq!(*session.eval_ucq(&q, &db), crate::eval_ucq_naive(&q, &db));
        assert_eq!(session.stats().views.misses, 1);
    }

    #[test]
    fn chunking_bounds_the_peak_frontier() {
        // A deliberate fan-out: every R row shares x = 'h', so the
        // self-join's frontier after the second extension is n² rows
        // unchunked. With chunk c, each ≤c-row slice is extended by the
        // per-row fan-out n, so the counter must stay ≤ c·n — the
        // documented O(chunk × max one-step fan-out) bound — while the
        // result is bit-identical.
        let n = 64usize;
        let chunk = 8usize;
        let mut db = Database::new();
        for i in 0..n {
            db.add("R", &["h", &format!("b{i}")], &format!("fan_{i}"));
        }
        let q = parse_ucq("ans(y,z) :- R(x,y), R(x,z)").unwrap();

        let unchunked = crate::EvalSession::with_options(EvalOptions::default().unchunked());
        let full = unchunked.eval_ucq(&q, &db);
        let unchunked_peak = unchunked.stats().peak_frontier_rows;
        assert_eq!(unchunked_peak, (n * n) as u64);

        let chunked =
            crate::EvalSession::with_options(EvalOptions::default().with_chunk_rows(chunk));
        let bounded = chunked.eval_ucq(&q, &db);
        let chunked_peak = chunked.stats().peak_frontier_rows;
        assert_eq!(*bounded, *full);
        assert!(
            chunked_peak <= (chunk * n) as u64,
            "peak {chunked_peak} exceeds chunk × fan-out = {}",
            chunk * n
        );
        assert!(chunked_peak < unchunked_peak);
    }

    #[test]
    fn batched_unit_head_on_empty_body_result() {
        // A boolean query over an empty relation: zero provenance, no rows.
        let mut db = Database::new();
        db.add("S", &["a"], "bt_s");
        db.remove(prov_storage::RelName::new("S"), &Tuple::of(&["a"]));
        let q = parse_cq("ans() :- S(x)").unwrap();
        assert!(eval_cq_with(&q, &db, EvalOptions::default()).is_empty());
    }

    fn larger_db(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add(
                "R",
                &[&format!("d{}", i % 9), &format!("d{}", (i * 7 + 3) % 9)],
                &format!("par_{i}"),
            );
        }
        db
    }

    #[test]
    fn parallel_equals_sequential_on_joins() {
        let db = larger_db(60);
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x,z) :- R(x,y), R(y,z), x != z",
            "ans(x) :- R(x,'d1')",
        ] {
            let q = parse_cq(text).unwrap();
            let sequential = eval_cq_with(&q, &db, EvalOptions::default());
            for threads in [2usize, 3, 8] {
                let parallel =
                    eval_cq_with(&q, &db, EvalOptions::default().with_parallelism(threads));
                assert_eq!(parallel, sequential, "{threads} threads disagree on {text}");
            }
        }
    }

    #[test]
    fn parallel_handles_missing_relation_and_empty_db() {
        let q = parse_cq("ans(x) :- Missing(x)").unwrap();
        let db = larger_db(5);
        let options = EvalOptions::default().with_parallelism(4);
        assert!(eval_cq_with(&q, &db, options).is_empty());
        let empty = Database::new();
        let q2 = parse_cq("ans(x) :- R(x,y)").unwrap();
        assert!(eval_cq_with(&q2, &empty, options).is_empty());
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        // Two first-atom rows make two chunks, so only two of the 64
        // requested workers are spawned.
        let mut db = Database::new();
        db.add("R", &["a", "b"], "tiny_1");
        db.add("R", &["b", "a"], "tiny_2");
        let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let sequential = eval_cq_with(&q, &db, EvalOptions::default());
        let parallel = eval_cq_with(
            &q,
            &db,
            EvalOptions::default().with_parallelism(crate::MAX_THREADS),
        );
        assert_eq!(parallel, sequential);
    }
}
