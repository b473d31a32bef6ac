//! The unified, budget-bounded minimization engine.
//!
//! Every minimization entry point of this crate — `MinProv`
//! (Theorem 4.6), the per-class dispatcher behind Table 1, standard
//! Sagiv–Yannakakis union minimization, and complete-query atom dedup —
//! is a [`Strategy`] of one driver, [`Minimizer`]. The driver adds what
//! the paper's Algorithm 1 cannot avoid needing in a serving system
//! (Theorem 4.10 guarantees exponential worst cases):
//!
//! * **streaming enumeration** — candidate subqueries come from
//!   [`prov_query::canonical::completions_iter`], one at a time, never as
//!   a materialized exponential set;
//! * **memoization** — candidates are deduped by canonical form
//!   ([`prov_query::canonical::canonical_key`]) before any homomorphism
//!   search runs; inputs with at most 32 candidate completions are not
//!   keyed, as keying would cost more than it saves;
//! * **one compiled kernel** — each disjunct is compiled once
//!   ([`CompiledQuery`]) and every containment check runs the
//!   homomorphism kernel on the compiled pair;
//! * **dominance pruning** — a candidate subsumed by an already-accepted
//!   disjunct is skipped (after a cheap relation-signature pre-check)
//!   before the expensive check; accepted disjuncts subsumed by a new
//!   candidate are evicted;
//! * **budgets** — a step and/or wall-clock budget turns the exponential
//!   cliff into a bounded pass: exhaustion returns a
//!   [`MinimizeOutcome::Partial`] carrying a *sound* (equivalent to the
//!   input) partially-minimized query plus a resumable [`Cursor`].
//!
//! Soundness of partial results: every processed completion is contained
//! in some currently-accepted disjunct (containment is transitive across
//! evictions), and the not-yet-processed remainder is re-included in its
//! original form — so `accepted ∪ originals[cursor..]` is equivalent to
//! the input at every step boundary.
//!
//! The engine has one configuration per strategy. Algorithm 1 read
//! literally — eager steps I–III, no memo, no streaming pruning — is
//! [`crate::minprov::minprov_trace`], the oracle the engine's tests
//! compare against.

use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

use prov_query::canonical::{bell_number, canonical_key, completions_iter, CanonicalKey};
use prov_query::homomorphism::CompiledQuery;
use prov_query::{ConjunctiveQuery, UnionQuery};

use crate::standard::{minimize_complete_unchecked, minimize_cq, prune_contained};

/// Which minimization path the engine drives (the unified form of the
/// previously ad-hoc entry points).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// `MinProv` (Algorithm 1): p-minimal equivalent in UCQ≠ realizing
    /// the core provenance (Theorem 4.6). The only strategy with an
    /// exponential candidate space, hence the only one budgets interrupt.
    #[default]
    MinProv,
    /// Per-class dispatch (Table 1): complete unions take the PTIME dedup
    /// route (Thm 3.12), everything else goes through `MinProv`.
    Auto,
    /// Standard (join-count) minimization: Chandra–Merlin per adjunct +
    /// Sagiv–Yannakakis union pruning. Requires disequality-free adjuncts.
    Standard,
    /// Complete-query atom dedup (Lemma 3.13) + union pruning. Requires
    /// every adjunct to be complete.
    CompleteDedup,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::MinProv => "minprov",
            Strategy::Auto => "auto",
            Strategy::Standard => "standard",
            Strategy::CompleteDedup => "dedup",
        })
    }
}

/// A work bound for one [`Minimizer::minimize`] / [`Minimizer::resume`]
/// call. A *step* is one candidate completion drawn from the streaming
/// enumeration (each step's own work is bounded by the accepted-set size,
/// not by the lattice). Both limits may be combined; whichever trips
/// first ends the run. The default sets neither: the run completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum candidate completions to process (None = unbounded).
    pub max_steps: Option<u64>,
    /// Maximum wall-clock time (None = unbounded).
    pub max_duration: Option<Duration>,
}

impl Budget {
    /// A step bound.
    pub fn steps(max_steps: u64) -> Self {
        Budget {
            max_steps: Some(max_steps),
            max_duration: None,
        }
    }

    /// A wall-clock bound.
    pub fn duration(d: Duration) -> Self {
        Budget {
            max_steps: None,
            max_duration: Some(d),
        }
    }

    /// Whether any bound is set.
    pub fn is_bounded(&self) -> bool {
        self.max_steps.is_some() || self.max_duration.is_some()
    }
}

/// Configuration of one [`Minimizer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeOptions {
    /// The minimization path to drive.
    pub strategy: Strategy,
    /// Work bound per `minimize`/`resume` call.
    pub budget: Budget,
}

impl MinimizeOptions {
    /// Defaults with a different strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        MinimizeOptions {
            strategy,
            ..MinimizeOptions::default()
        }
    }

    /// Returns the options with the given budget.
    pub fn budgeted(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Errors raised when a strategy's precondition does not hold.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MinimizeError {
    /// [`Strategy::Standard`] requires disequality-free adjuncts.
    StandardNeedsCq,
    /// [`Strategy::CompleteDedup`] requires complete adjuncts.
    DedupNeedsComplete,
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::StandardNeedsCq => {
                f.write_str("standard strategy requires disequality-free adjuncts (CQ)")
            }
            MinimizeError::DedupNeedsComplete => {
                f.write_str("dedup strategy requires complete adjuncts (cCQ≠)")
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

/// A resumable position in the deterministic candidate enumeration:
/// `completion` candidates of adjunct `adjunct` have been consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cursor {
    /// Index of the input adjunct being enumerated.
    pub adjunct: usize,
    /// Number of completions of that adjunct already processed.
    pub completion: usize,
}

/// The result of a budget-exhausted run: a *sound* intermediate query
/// plus everything needed to continue.
#[derive(Clone, Debug)]
pub struct PartialMinimization {
    /// The best sound minimization found so far: the accepted (minimized,
    /// pruned) disjuncts united with the unprocessed input remainder.
    /// Always equivalent to the input.
    pub best: UnionQuery,
    /// Where to resume the enumeration.
    pub cursor: Cursor,
    /// The accepted disjuncts (internal state for [`Minimizer::resume`]).
    pub accepted: Vec<ConjunctiveQuery>,
    /// Steps consumed by the interrupted call.
    pub steps_used: u64,
}

/// The outcome of a [`Minimizer`] run.
#[derive(Clone, Debug)]
pub enum MinimizeOutcome {
    /// The minimization ran to completion.
    Complete(UnionQuery),
    /// The budget was exhausted; the result is sound but may not be
    /// minimal. Resume with [`Minimizer::resume`].
    Partial(PartialMinimization),
}

impl MinimizeOutcome {
    /// The (possibly partial) minimized query.
    pub fn query(&self) -> &UnionQuery {
        match self {
            MinimizeOutcome::Complete(q) => q,
            MinimizeOutcome::Partial(p) => &p.best,
        }
    }

    /// Whether the run finished within budget.
    pub fn is_complete(&self) -> bool {
        matches!(self, MinimizeOutcome::Complete(_))
    }

    /// Consumes the outcome, returning the query.
    pub fn into_query(self) -> UnionQuery {
        match self {
            MinimizeOutcome::Complete(q) => q,
            MinimizeOutcome::Partial(p) => p.best,
        }
    }
}

/// Work counters for one [`Minimizer`] (cumulative across calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Candidate completions processed (= budget steps consumed).
    pub steps: u64,
    /// Candidates skipped because an isomorphic candidate was already
    /// processed (canonical-key memo hit; zero hom searches spent).
    pub memo_dedup_skips: u64,
    /// Candidates skipped by the cheap relation-signature pre-check or a
    /// containment verdict against an accepted disjunct.
    pub dominance_skips: u64,
    /// Accepted disjuncts evicted by a later, more general candidate.
    pub accepted_evictions: u64,
    /// Containment checks that went past the cheap pre-check (each one
    /// homomorphism search).
    pub hom_checks: u64,
    /// Candidates keyed by canonical form (zero on inputs too small to
    /// key).
    pub keyed_candidates: u64,
}

/// An accepted/candidate disjunct with its precomputed containment-check
/// state: relation signature and the query compiled for the kernel.
struct Disjunct {
    query: ConjunctiveQuery,
    relations: BTreeSet<prov_storage::RelName>,
    compiled: CompiledQuery,
}

impl Disjunct {
    fn new(query: ConjunctiveQuery) -> Self {
        Disjunct {
            relations: query.atoms().iter().map(|a| a.relation).collect(),
            compiled: CompiledQuery::new(&query),
            query,
        }
    }
}

/// Candidate spaces at or below this many completions are not keyed:
/// ~2 disjuncts of Bell(4) = 15 completions each, the regime where the
/// fixed per-candidate keying cost (~5–7 µs, the `minprov_blowup/qn/2`
/// overhead documented in `docs/PERF.md`) can never be amortized by
/// dedup wins.
const TINY_CANDIDATE_THRESHOLD: u64 = 32;

/// Upper bound on the `MinProv` candidate space: completions of an
/// adjunct are variable-set partitions, so Σ Bell(#vars) over adjuncts
/// (saturating).
fn candidate_estimate(q: &UnionQuery) -> u64 {
    q.adjuncts()
        .iter()
        .map(|a| bell_number(a.variables().len()))
        .fold(0, u64::saturating_add)
}

/// The unified minimization engine; its counters accumulate across calls.
#[derive(Debug, Default)]
pub struct Minimizer {
    options: MinimizeOptions,
    stats: MinimizeStats,
    /// Whether the current call keys candidates by canonical form: off
    /// for inputs whose candidate estimate is at most
    /// [`TINY_CANDIDATE_THRESHOLD`].
    keyed: bool,
}

impl Minimizer {
    /// An engine with the given options.
    pub fn new(options: MinimizeOptions) -> Self {
        Minimizer {
            options,
            ..Minimizer::default()
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &MinimizeOptions {
        &self.options
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> MinimizeStats {
        self.stats
    }

    /// Minimizes `q` under the engine's strategy and budget.
    pub fn minimize(&mut self, q: &UnionQuery) -> Result<MinimizeOutcome, MinimizeError> {
        self.keyed = candidate_estimate(q) > TINY_CANDIDATE_THRESHOLD;
        match self.options.strategy {
            Strategy::MinProv => Ok(self.run_minprov(q, Cursor::default(), Vec::new())),
            Strategy::Auto => {
                if q.is_complete() {
                    Ok(MinimizeOutcome::Complete(
                        self.run_per_adjunct(q, minimize_complete_unchecked),
                    ))
                } else {
                    Ok(self.run_minprov(q, Cursor::default(), Vec::new()))
                }
            }
            Strategy::Standard => {
                if !q.adjuncts().iter().all(ConjunctiveQuery::is_cq) {
                    return Err(MinimizeError::StandardNeedsCq);
                }
                Ok(MinimizeOutcome::Complete(
                    self.run_per_adjunct(q, minimize_cq),
                ))
            }
            Strategy::CompleteDedup => {
                if !q.is_complete() {
                    return Err(MinimizeError::DedupNeedsComplete);
                }
                Ok(MinimizeOutcome::Complete(
                    self.run_per_adjunct(q, minimize_complete_unchecked),
                ))
            }
        }
    }

    /// Continues an interrupted `MinProv` run from a [`PartialMinimization`]
    /// against the *same* input query, with a fresh budget allowance.
    pub fn resume(
        &mut self,
        q: &UnionQuery,
        partial: PartialMinimization,
    ) -> Result<MinimizeOutcome, MinimizeError> {
        self.keyed = candidate_estimate(q) > TINY_CANDIDATE_THRESHOLD;
        Ok(self.run_minprov(q, partial.cursor, partial.accepted))
    }

    /// The streaming `MinProv` driver: steps I–III of Algorithm 1 fused
    /// over a lazy completion stream, with memo dedup, dominance pruning
    /// and budget accounting.
    fn run_minprov(
        &mut self,
        q: &UnionQuery,
        cursor: Cursor,
        accepted_seed: Vec<ConjunctiveQuery>,
    ) -> MinimizeOutcome {
        let consts = q.constants();
        let started = Instant::now();
        let deadline = self.options.budget.max_duration.map(|d| started + d);
        let mut steps_used = 0u64;

        // Canonical keys of every candidate processed so far on keyed runs
        // (rebuilt from the accepted seed on resume; skipped candidates
        // are covered by the dominance check, so this is an optimization,
        // not state).
        let mut seen: HashSet<CanonicalKey> = HashSet::new();
        if self.keyed {
            seen.extend(accepted_seed.iter().map(canonical_key));
        }
        // Accepted disjuncts with their precomputed containment-check
        // state — computed once per disjunct, not once per check.
        let mut accepted: Vec<Disjunct> = accepted_seed.into_iter().map(Disjunct::new).collect();

        for ai in cursor.adjunct..q.adjuncts().len() {
            let adjunct = &q.adjuncts()[ai];
            let mut stream = completions_iter(adjunct, &consts);
            let mut ci = 0usize;
            if ai == cursor.adjunct {
                // Skip already-processed completions (deterministic order).
                while ci < cursor.completion {
                    if stream.next().is_none() {
                        break;
                    }
                    ci += 1;
                }
            }
            // Draw first, budget-check second: a budget equal to the exact
            // candidate count must complete, not return a spurious Partial
            // after the enumeration is already done.
            for completion in stream {
                let budget_hit = self
                    .options
                    .budget
                    .max_steps
                    .is_some_and(|max| steps_used >= max)
                    || deadline.is_some_and(|d| Instant::now() >= d);
                if budget_hit {
                    // The drawn candidate is *not* processed (steps_used and
                    // ci unchanged); resume re-derives it from the cursor.
                    let accepted: Vec<ConjunctiveQuery> =
                        accepted.into_iter().map(|d| d.query).collect();
                    let best = partial_best(&accepted, &q.adjuncts()[ai..]);
                    return MinimizeOutcome::Partial(PartialMinimization {
                        best,
                        cursor: Cursor {
                            adjunct: ai,
                            completion: ci,
                        },
                        accepted,
                        steps_used,
                    });
                }
                ci += 1;
                steps_used += 1;
                self.stats.steps += 1;

                // Step II (Lemma 3.13): minimize the complete candidate by
                // atom dedup.
                let cand = minimize_complete_unchecked(&completion.query);

                // Memoized canonical-form dedup: isomorphic to an earlier
                // candidate ⇒ nothing new, zero hom searches.
                if self.keyed {
                    self.stats.keyed_candidates += 1;
                    if !seen.insert(canonical_key(&cand)) {
                        self.stats.memo_dedup_skips += 1;
                        continue;
                    }
                }
                let cand = Disjunct::new(cand);

                // Step III, streaming: skip the candidate if subsumed
                // by an accepted disjunct ...
                if accepted
                    .iter()
                    .any(|a| self.contains(a, &cand, consts.len()))
                {
                    self.stats.dominance_skips += 1;
                    continue;
                }
                // ... and evict accepted disjuncts the candidate
                // subsumes (collect first, commit once: the eviction
                // plus the push happen atomically w.r.t. budget exits).
                let mut survivors = Vec::with_capacity(accepted.len() + 1);
                for a in accepted.drain(..) {
                    if self.contains(&cand, &a, consts.len()) {
                        self.stats.accepted_evictions += 1;
                    } else {
                        survivors.push(a);
                    }
                }
                accepted = survivors;
                accepted.push(cand);
            }
        }

        let accepted: Vec<ConjunctiveQuery> = accepted.into_iter().map(|d| d.query).collect();
        // No accepted disjunct contains another: a candidate is accepted
        // only if no accepted disjunct contains it, and it evicts every
        // one it contains. Isomorphic queries contain each other, so the
        // output has no isomorphic duplicates to remove.
        MinimizeOutcome::Complete(
            UnionQuery::new(accepted).expect("minimization keeps at least one disjunct"),
        )
    }

    /// Containment `small ⊆ big` between completions (Theorem 3.1:
    /// existence of a homomorphism `big → small`), behind two cheap
    /// dominance pre-checks.
    fn contains(&mut self, big: &Disjunct, small: &Disjunct, num_consts: usize) -> bool {
        // Pre-check 1: a homomorphism maps every atom of `big` to an atom
        // of `small` over the same relation, so `big`'s relation set must
        // be a subset of `small`'s.
        if !big.relations.is_subset(&small.relations) {
            return false;
        }
        // Pre-check 2: `big` is complete w.r.t. the run's constant set, so
        // any homomorphism out of it is injective on variables (disequal
        // variables need disequal images) — impossible when `big` has more
        // variables than `small` has terms to offer.
        if big.compiled.num_vars() > small.compiled.num_vars() + num_consts {
            return false;
        }
        self.stats.hom_checks += 1;
        big.compiled.maps_to(&small.compiled)
    }

    /// The PTIME strategies: minimize each adjunct with `minimize_adjunct`
    /// (Chandra–Merlin cores for `Standard`, atom dedup per Lemma 3.13
    /// for complete adjuncts), then prune contained adjuncts
    /// (Sagiv–Yannakakis; p-minimal for complete unions by Theorem 3.12).
    /// Budgets don't apply — there is no exponential candidate axis to
    /// interrupt.
    fn run_per_adjunct(
        &mut self,
        q: &UnionQuery,
        minimize_adjunct: fn(&ConjunctiveQuery) -> ConjunctiveQuery,
    ) -> UnionQuery {
        let minimized = q
            .adjuncts()
            .iter()
            .map(|a| Disjunct::new(minimize_adjunct(a)))
            .collect();
        let kept = prune_contained(minimized, |small, big| {
            self.stats.hom_checks += 1;
            big.compiled.maps_to(&small.compiled)
        });
        UnionQuery::new(kept.into_iter().map(|d| d.query).collect())
            .expect("pruning keeps at least one adjunct")
            .dedup_isomorphic()
    }
}

/// The sound intermediate for a budget exit: accepted disjuncts united
/// with the unprocessed original adjuncts (the partially-enumerated
/// adjunct included in full).
fn partial_best(accepted: &[ConjunctiveQuery], rest: &[ConjunctiveQuery]) -> UnionQuery {
    let adjuncts: Vec<ConjunctiveQuery> = accepted.iter().chain(rest).cloned().collect();
    UnionQuery::new(adjuncts).expect("input has at least one adjunct")
}

/// Convenience: one-shot minimization on a fresh engine (what the CLI and
/// the server's `/minimize` call).
pub fn minimize_with(
    q: &UnionQuery,
    options: MinimizeOptions,
) -> Result<MinimizeOutcome, MinimizeError> {
    Minimizer::new(options).minimize(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minprov::minprov_trace;
    use prov_query::containment::equivalent;
    use prov_query::generate::qn_family;
    use prov_query::{parse_cq, parse_ucq};

    fn unbounded(strategy: Strategy) -> MinimizeOptions {
        MinimizeOptions::with_strategy(strategy)
    }

    #[test]
    fn minprov_strategy_matches_paper_example() {
        // Figure 1: MinProv(Qconj) ≅ Qunion.
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let out = minimize_with(&q, unbounded(Strategy::MinProv))
            .unwrap()
            .into_query();
        assert_eq!(out.len(), 2);
        assert!(equivalent(&q, &out));
    }

    #[test]
    fn engine_matches_the_literal_algorithm() {
        for text in [
            "ans(x) :- R(x,y), R(y,x)",
            "ans() :- R(x,y), R(y,z), R(z,x)",
            "ans(x) :- R(x,y), S(y)",
            "ans(x) :- R(x), S('a')",
        ] {
            let q = parse_ucq(text).unwrap();
            let memoized = minimize_with(&q, MinimizeOptions::default())
                .unwrap()
                .into_query();
            let oracle = minprov_trace(&q).output;
            assert!(memoized.adjunct_wise_isomorphic(&oracle), "{text}");
        }
    }

    #[test]
    fn memoization_skips_isomorphic_candidates() {
        let q = UnionQuery::single(qn_family(3));
        let mut engine = Minimizer::new(MinimizeOptions::default());
        let out = engine.minimize(&q).unwrap().into_query();
        assert!(engine.stats().memo_dedup_skips > 0, "{:?}", engine.stats());

        let oracle = minprov_trace(&q);
        assert!(out.adjunct_wise_isomorphic(&oracle.output));
        assert!(
            engine.stats().hom_checks < oracle.containment_checks,
            "memoized engine must spend fewer hom checks: {:?} vs {}",
            engine.stats(),
            oracle.containment_checks
        );
    }

    #[test]
    fn budget_returns_sound_partial_and_resumes() {
        let q = UnionQuery::single(qn_family(2));
        let budget = Budget::steps(4);
        let mut engine = Minimizer::new(MinimizeOptions::default().budgeted(budget));
        let outcome = engine.minimize(&q).unwrap();
        let MinimizeOutcome::Partial(partial) = outcome else {
            panic!("a 4-step budget cannot finish Bell(4)=15 completions");
        };
        assert!(partial.steps_used <= 4, "terminates within its step budget");
        assert_eq!(partial.cursor.completion, 4);
        assert!(
            equivalent(&partial.best, &q),
            "partial result must be sound (equivalent to input)"
        );

        // Resume with an unbounded allowance and match the one-shot run.
        let mut fresh = Minimizer::new(MinimizeOptions::default());
        let full = fresh.minimize(&q).unwrap().into_query();
        let mut resumer = Minimizer::new(MinimizeOptions::default());
        let resumed = resumer.resume(&q, partial).unwrap();
        assert!(resumed.is_complete());
        let resumed = resumed.into_query();
        assert_eq!(resumed.len(), full.len());
        assert!(equivalent(&resumed, &full));
    }

    #[test]
    fn budget_equal_to_candidate_count_completes() {
        // Q_2 has exactly Bell(4) = 15 completions: a 15-step budget must
        // finish (Complete, not a spurious Partial), and 14 must not.
        let q = UnionQuery::single(qn_family(2));
        let exact =
            minimize_with(&q, MinimizeOptions::default().budgeted(Budget::steps(15))).unwrap();
        assert!(exact.is_complete(), "budget == candidate count completes");
        let short =
            minimize_with(&q, MinimizeOptions::default().budgeted(Budget::steps(14))).unwrap();
        assert!(!short.is_complete(), "one step short must be Partial");
    }

    #[test]
    fn zero_step_budget_returns_input_shape() {
        let q = parse_ucq("ans(x) :- R(x,y), R(y,x)\nans(x) :- S(x)").unwrap();
        let outcome =
            minimize_with(&q, MinimizeOptions::default().budgeted(Budget::steps(0))).unwrap();
        let MinimizeOutcome::Partial(partial) = outcome else {
            panic!("zero budget must not complete");
        };
        assert_eq!(partial.cursor, Cursor::default());
        assert_eq!(partial.steps_used, 0);
        assert!(equivalent(&partial.best, &q));
    }

    #[test]
    fn deadline_budget_interrupts() {
        let q = UnionQuery::single(qn_family(3));
        let outcome = minimize_with(
            &q,
            MinimizeOptions::default().budgeted(Budget::duration(Duration::ZERO)),
        )
        .unwrap();
        assert!(!outcome.is_complete());
        assert!(equivalent(outcome.query(), &q));
    }

    #[test]
    fn standard_strategy_requires_cq() {
        let q = parse_ucq("ans(x) :- R(x,y), x != y").unwrap();
        assert_eq!(
            minimize_with(&q, unbounded(Strategy::Standard)).unwrap_err(),
            MinimizeError::StandardNeedsCq
        );
        let cq = parse_ucq("ans(x) :- R(x,x)\nans(x) :- R(x,y)").unwrap();
        let out = minimize_with(&cq, unbounded(Strategy::Standard))
            .unwrap()
            .into_query();
        assert_eq!(out.len(), 1);
        assert_eq!(out.adjuncts()[0].variables().len(), 2);
    }

    #[test]
    fn dedup_strategy_requires_complete() {
        let q = parse_ucq("ans() :- R(x,y)").unwrap();
        assert_eq!(
            minimize_with(&q, unbounded(Strategy::CompleteDedup)).unwrap_err(),
            MinimizeError::DedupNeedsComplete
        );
        let complete = parse_ucq("ans() :- R(v,v), R(v,v)").unwrap();
        let out = minimize_with(&complete, unbounded(Strategy::CompleteDedup))
            .unwrap()
            .into_query();
        assert_eq!(out.adjuncts()[0].len(), 1);
    }

    #[test]
    fn auto_strategy_dispatches_by_class() {
        let complete = parse_ucq("ans() :- R(v,v), R(v,v)").unwrap();
        let out = minimize_with(&complete, unbounded(Strategy::Auto))
            .unwrap()
            .into_query();
        assert_eq!(out.adjuncts()[0].len(), 1);

        let cq = parse_ucq("ans(x) :- R(x,y), R(y,x)").unwrap();
        let out = minimize_with(&cq, unbounded(Strategy::Auto))
            .unwrap()
            .into_query();
        assert_eq!(out.len(), 2, "MinProv route for incomplete queries");
    }

    #[test]
    fn tiny_inputs_skip_keying() {
        // Regression for the ~80 µs fixed overhead on minprov_blowup/qn/2:
        // tiny inputs must not pay per-candidate canonical keying.
        let tiny = UnionQuery::single(qn_family(2)); // 4 vars → Bell(4) = 15
        assert!(candidate_estimate(&tiny) <= TINY_CANDIDATE_THRESHOLD);
        let mut engine = Minimizer::new(MinimizeOptions::default());
        let out = engine.minimize(&tiny).unwrap().into_query();
        assert_eq!(
            engine.stats().keyed_candidates,
            0,
            "tiny input must skip canonical keying entirely: {:?}",
            engine.stats()
        );
        assert_eq!(engine.stats().memo_dedup_skips, 0);
        assert!(out.adjunct_wise_isomorphic(&minprov_trace(&tiny).output));

        // Above the threshold the memo must still engage (qn_family(3) has
        // 6 vars → Bell(6) = 203 candidates — the regime where it wins).
        let large = UnionQuery::single(qn_family(3));
        assert!(candidate_estimate(&large) > TINY_CANDIDATE_THRESHOLD);
        let mut engine = Minimizer::new(MinimizeOptions::default());
        engine.minimize(&large).unwrap();
        assert_eq!(engine.stats().keyed_candidates, 203, "large input must key");
        assert!(engine.stats().memo_dedup_skips > 0);
    }

    #[test]
    fn q3_work_counts_are_pinned() {
        // Every decision of a `/minimize` of Q_3, counted: the kernel and
        // the integer keys change what a step costs, never what it does.
        let mut engine = Minimizer::new(MinimizeOptions::default());
        let out = engine
            .minimize(&UnionQuery::single(qn_family(3)))
            .unwrap()
            .into_query();
        assert_eq!(out.len(), 66);
        assert_eq!(
            engine.stats(),
            MinimizeStats {
                steps: 203,
                memo_dedup_skips: 137,
                dominance_skips: 0,
                accepted_evictions: 0,
                hom_checks: 2734,
                keyed_candidates: 203,
            }
        );
    }

    #[test]
    fn output_carries_no_isomorphic_duplicates() {
        // An unkeyed input (5 candidates) and a keyed one (Q_3): neither
        // run dedups at the end; step III leaves no disjunct containing
        // another.
        let triangle = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
        for q in [triangle, qn_family(3)] {
            let out = minimize_with(&UnionQuery::single(q), MinimizeOptions::default())
                .unwrap()
                .into_query();
            let deduped = out.dedup_isomorphic();
            assert_eq!(out.len(), deduped.len());
        }
    }
}
