//! The differential fuzzing harness behind `provmin fuzz`.
//!
//! One DSL-generated scenario (see [`prov_workload`]) is checked across
//! every axis the engine and minimizer expose; a divergence anywhere is
//! a bug in exactly the guarantees the source paper proves:
//!
//! * **Evaluation** — `{1, 4 threads} × {chunk 1, default chunk,
//!   unchunked}` (`--chunk-rows` replaces the chunk axis) must be
//!   bit-identical to the paper-literal Def 2.6 oracle
//!   [`eval_ucq_naive`] (Def 2.6/2.12: every configuration enumerates the
//!   same assignments; ⊕-merge order is immaterial — chunked
//!   accumulation is just another regrouping of ⊕). Each configuration
//!   runs in its own [`EvalSession`] (a shared session would serve later
//!   configs the first one's materialized result and check nothing).
//! * **Incremental maintenance** — for scenarios carrying a mutation
//!   script (the `mutate` spec), one `EvalSession` is driven across the
//!   whole insert/delete interleaving and must stay bit-identical to
//!   the oracle at every observation point — the
//!   delta ⊕-join and deletion-propagation paths of `docs/CACHE.md`.
//!   Every other observation also drops the cached results and evaluates
//!   in full over the views `apply_mutation` patched in place.
//! * **Semirings** — specializing the `N[X]` result through a valuation
//!   must agree with [`eval_in_semiring`] for the scenario's semiring
//!   (the homomorphism property the polynomials are universal for).
//! * **Minimization** — every eligible strategy's output must be
//!   equivalent to the input (containment both ways), produce the same
//!   answer set on the scenario database, and — for `MinProv` — match
//!   the literal Algorithm 1 ([`minprov_trace`]) adjunct for adjunct up to
//!   isomorphism and have per-tuple provenance `≤` the original (the
//!   core-provenance guarantee of Theorem 4.6). A step-budgeted run must
//!   yield a *sound* partial.
//!
//! Every failure message carries the `(spec, seed, case)` triple, which
//! reproduces the scenario exactly (`provmin fuzz --spec S --seed N
//! --case K`); see `docs/FUZZING.md` for the replay workflow.

use std::collections::BTreeMap;

use prov_core::minimize::{minimize_with, Budget, MinimizeOptions, MinimizeOutcome, Strategy};
use prov_core::minprov::minprov_trace;
use prov_engine::{eval_in_semiring, eval_ucq_naive, EvalOptions, EvalSession, DEFAULT_CHUNK_ROWS};
use prov_query::containment::equivalent;
use prov_query::ConjunctiveQuery;
use prov_semiring::order::poly_leq;
use prov_semiring::{Boolean, CommutativeSemiring, Confidence, Natural, Tropical};
use prov_storage::{Database, RelName, Tuple, Valuation};
use prov_workload::{MutationStep, Sampler, Scenario, SemiringTag};

/// What `provmin fuzz` runs: a spec name, the replay seed, and the case
/// range `start..start + cases`.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Built-in spec name (see [`prov_workload::ScenarioSpec::names`]).
    pub spec: String,
    /// Replay seed.
    pub seed: u64,
    /// First case index (a replay of case `K` sets `start = K`).
    pub start: u64,
    /// Number of cases.
    pub cases: u64,
    /// `Some(n)`: run every eval configuration at chunk size `n` (0 =
    /// unchunked) instead of across the chunk axis. `None`: the full
    /// matrix.
    pub chunk_rows: Option<usize>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            spec: "mixed".to_owned(),
            seed: 1,
            start: 0,
            cases: 200,
            chunk_rows: None,
        }
    }
}

/// A reproducible disagreement between two configurations.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The reproducing triple, `spec=S seed=N case=K` form.
    pub replay: String,
    /// The spec name (for reconstructing the replay command).
    pub spec: String,
    /// The seed.
    pub seed: u64,
    /// The diverging case.
    pub case: u64,
    /// Which check failed and how.
    pub detail: String,
}

/// The outcome of a fuzzing run.
#[derive(Clone, Debug)]
pub enum FuzzVerdict {
    /// Every case agreed across every configuration.
    Agreement {
        /// Cases checked.
        cases: u64,
        /// Eval configurations differenced per case (excluding the
        /// oracle).
        eval_configs: usize,
    },
    /// A case diverged; fuzzing stopped at the first one.
    Diverged(Box<Divergence>),
}

/// The differential evaluation configurations (the oracle runs
/// separately): `{1, 4 threads} × {chunk 1, default chunk, unchunked}` =
/// 6 configs. Chunk 1 maximally exercises the re-chunking recursion;
/// unchunked materializes every full frontier. A `chunk_override` of
/// `Some(n)` replaces the chunk axis with `n` alone (0 = unchunked),
/// leaving 2 configs.
fn eval_configs(chunk_override: Option<usize>) -> Vec<(String, EvalOptions)> {
    let chunk_axis = match chunk_override {
        Some(rows) => vec![rows],
        None => vec![1, DEFAULT_CHUNK_ROWS, 0],
    };
    let mut configs = Vec::new();
    for threads in [1usize, 4] {
        for &rows in &chunk_axis {
            // `with_chunk_rows(0)` is unchunked.
            let options = EvalOptions::default()
                .with_parallelism(threads)
                .with_chunk_rows(rows);
            configs.push((format!("t{threads}/chunk{rows}"), options));
        }
    }
    configs
}

/// Runs the harness. `Err` is a *setup* failure (unknown spec, grammar
/// that fails to parse) — distinct from a divergence, which is reported
/// in the verdict.
pub fn run(options: &FuzzOptions) -> Result<FuzzVerdict, String> {
    let sampler = Sampler::named(&options.spec)?;
    let configs = eval_configs(options.chunk_rows);
    let inject = injected_case();
    for case in options.start..options.start.saturating_add(options.cases) {
        let scenario = sampler.scenario(options.seed, case);
        let result = if inject == Some(case) {
            Err("injected divergence (PROVMIN_FUZZ_INJECT_CASE is set; \
                 this exercises the reporting path, not a real bug)"
                .to_owned())
        } else {
            check_scenario(&scenario, &configs)
        };
        if let Err(detail) = result {
            return Ok(FuzzVerdict::Diverged(Box::new(Divergence {
                replay: scenario.replay(),
                spec: options.spec.clone(),
                seed: options.seed,
                case,
                detail,
            })));
        }
    }
    Ok(FuzzVerdict::Agreement {
        cases: options.cases,
        eval_configs: configs.len(),
    })
}

/// Test hook: `PROVMIN_FUZZ_INJECT_CASE=K` makes case `K` report a
/// divergence, so the exit-code contract and replay printing can be
/// asserted end to end without planting a real engine bug.
fn injected_case() -> Option<u64> {
    std::env::var("PROVMIN_FUZZ_INJECT_CASE")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// All differential checks for one scenario. `Err` carries the detail.
pub fn check_scenario(
    scenario: &Scenario,
    configs: &[(String, EvalOptions)],
) -> Result<(), String> {
    let query = &scenario.query;
    let db = &scenario.database;

    // 1. Every eval configuration, bit-identical against the oracle. One
    //    session per config: within it a union's disjuncts share an
    //    index/columnar build, while across configs every evaluation is
    //    genuinely re-run.
    let reference = eval_ucq_naive(query, db);
    for (name, options) in configs {
        let session = EvalSession::with_options(*options);
        let result = session.eval_ucq(query, db);
        if *result != reference {
            return Err(format!(
                "eval config {name} diverged from the Def 2.6 oracle on {} ({} vs {} tuples, skew {})",
                query,
                result.len(),
                reference.len(),
                scenario.skew,
            ));
        }
    }

    // 2. Semiring specialization commutes with evaluation.
    check_semiring(scenario, &reference)?;

    // 3. Every eligible minimize strategy agrees.
    let diseq_free = query.adjuncts().iter().all(ConjunctiveQuery::is_cq);
    let mut strategies = vec![Strategy::MinProv, Strategy::Auto];
    if diseq_free {
        strategies.push(Strategy::Standard);
    }
    if query.is_complete() {
        strategies.push(Strategy::CompleteDedup);
    }
    for strategy in strategies {
        let outcome = minimize_with(query, MinimizeOptions::with_strategy(strategy))
            .map_err(|e| format!("strategy {strategy} refused an eligible query {query}: {e}"))?;
        let minimized = outcome.into_query();
        if !equivalent(&minimized, query) {
            return Err(format!(
                "strategy {strategy} produced a non-equivalent rewriting: {query}  ⇏  {minimized}"
            ));
        }
        let min_result = eval_ucq_naive(&minimized, db);
        let answers: Vec<&Tuple> = reference.tuples().collect();
        let min_answers: Vec<&Tuple> = min_result.tuples().collect();
        if answers != min_answers {
            return Err(format!(
                "strategy {strategy} changed the answer set of {query}: {} vs {} tuples",
                min_answers.len(),
                answers.len(),
            ));
        }
        if strategy == Strategy::MinProv {
            // The engine must reproduce Algorithm 1 read literally, up to
            // adjunct order and variable names.
            let oracle = minprov_trace(query).output;
            if !minimized.adjunct_wise_isomorphic(&oracle) {
                return Err(format!(
                    "MinProv diverged from the literal Algorithm 1 on {query}: {minimized}  vs  {oracle}"
                ));
            }
            // Theorem 4.6: the p-minimal rewriting realizes the *core*
            // provenance — per tuple, ≤ the original polynomial.
            for (tuple, provenance) in reference.iter() {
                let core = min_result.provenance(tuple);
                if !poly_leq(&core, provenance) {
                    return Err(format!(
                        "MinProv provenance of {tuple} is not ≤ the original for {query}: [{core}] vs [{provenance}]"
                    ));
                }
            }
        }
    }

    // 4. Budget-bounded partials are sound (equivalent to the input) at
    //    an aggressive cutoff.
    match minimize_with(query, MinimizeOptions::default().budgeted(Budget::steps(2)))
        .map_err(|e| format!("budgeted MinProv errored on {query}: {e}"))?
    {
        MinimizeOutcome::Complete(_) => {}
        MinimizeOutcome::Partial(partial) => {
            if !equivalent(&partial.best, query) {
                return Err(format!(
                    "budgeted partial is unsound for {query}: {}",
                    partial.best
                ));
            }
        }
    }

    // 5. Incremental maintenance across the scenario's mutation script
    //    (non-empty only for the `mutate` spec).
    check_mutations(scenario)
}

/// Drives one [`EvalSession`] across the scenario's insert/delete
/// interleaving, asserting the incrementally-maintained result is
/// bit-identical to the oracle's from-scratch evaluation at every observation
/// point. Observations alternate between every-step and every-other-step
/// so some delta windows carry several events (including transients and
/// remove/re-insert pairs the netting logic must collapse).
fn check_mutations(scenario: &Scenario) -> Result<(), String> {
    if scenario.mutations.is_empty() {
        return Ok(());
    }
    let query = &scenario.query;
    let session = EvalSession::new();
    let rel = RelName::new("R");
    let mut db = scenario.database.clone();
    session.eval_ucq(query, &db);
    for (i, step) in scenario.mutations.iter().enumerate() {
        match step {
            MutationStep::Insert(tuple, annotation) => {
                session.apply_mutation(&mut db, &[], &[(rel, tuple.clone(), *annotation)]);
            }
            MutationStep::Remove(tuple) => {
                session.apply_mutation(&mut db, &[(rel, tuple.clone())], &[]);
            }
        }
        if i % 2 == 1 || i + 1 == scenario.mutations.len() {
            let incremental = session.eval_ucq(query, &db);
            let scratch = eval_ucq_naive(query, &db);
            if *incremental != scratch {
                return Err(format!(
                    "incremental session diverged from from-scratch after mutation step {i} \
                     (of {}) on {query}: {} vs {} tuples",
                    scenario.mutations.len(),
                    incremental.len(),
                    scratch.len(),
                ));
            }
            // Every other observation also runs a full evaluation over the
            // patched views: dropping the cached results keeps the views.
            if i % 4 == 3 {
                session.invalidate_results();
                let full = session.eval_ucq(query, &db);
                if *full != scratch {
                    return Err(format!(
                        "full evaluation over patched views diverged from from-scratch \
                         after mutation step {i} (of {}) on {query}: {} vs {} tuples",
                        scenario.mutations.len(),
                        full.len(),
                        scratch.len(),
                    ));
                }
            }
        }
    }
    // The script's bounded size keeps it inside the delta log, and step 0
    // always mutates for real — the delta path must actually have run.
    let stats = session.stats();
    if stats.delta_applies == 0 {
        return Err(format!(
            "mutation script for {query} never exercised the delta path \
             (full_rebuilds={})",
            stats.full_rebuilds
        ));
    }
    Ok(())
}

/// Checks that specializing the reference polynomials through a
/// deterministic valuation agrees with `eval_in_semiring` for the
/// scenario's semiring tag.
fn check_semiring(
    scenario: &Scenario,
    reference: &prov_engine::AnnotatedResult,
) -> Result<(), String> {
    match scenario.semiring {
        SemiringTag::Counting => check_semiring_in(scenario, reference, |h| Natural(1 + h % 3)),
        SemiringTag::Boolean => check_semiring_in(scenario, reference, |_| Boolean(true)),
        SemiringTag::Tropical => check_semiring_in(scenario, reference, |h| Tropical::cost(h % 7)),
        SemiringTag::Confidence => check_semiring_in(scenario, reference, |h| {
            Confidence::from_f64(0.25 + (h % 4) as f64 * 0.25)
        }),
    }
}

fn check_semiring_in<K, F>(
    scenario: &Scenario,
    reference: &prov_engine::AnnotatedResult,
    value_of: F,
) -> Result<(), String>
where
    K: CommutativeSemiring,
    F: Fn(u64) -> K,
{
    let valuation = scenario_valuation(&scenario.database, value_of);
    let direct = eval_in_semiring(&scenario.query, &scenario.database, &valuation);
    let specialized: BTreeMap<Tuple, K> = reference
        .iter()
        .map(|(t, p)| (t.clone(), valuation.eval(p)))
        .filter(|(_, k)| !k.is_zero())
        .collect();
    if direct != specialized {
        return Err(format!(
            "{} specialization disagrees with eval_in_semiring on {} ({} vs {} tuples)",
            scenario.semiring,
            scenario.query,
            direct.len(),
            specialized.len(),
        ));
    }
    Ok(())
}

/// A deterministic valuation over every annotation in the database,
/// keyed by a stable hash of the annotation's name.
fn scenario_valuation<K, F>(db: &Database, value_of: F) -> Valuation<K>
where
    K: CommutativeSemiring,
    F: Fn(u64) -> K,
{
    let mut valuation = Valuation::constant(K::one());
    for relation in db.relations() {
        for (_, annotation) in relation.iter() {
            valuation.set(*annotation, value_of(fnv(annotation.name())));
        }
    }
    valuation
}

/// FNV-1a — stable across platforms and runs (unlike `DefaultHasher`).
fn fnv(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1_0000_0193);
    }
    hash
}

/// Convenience for tests: differential-checks one `(spec, seed, case)`
/// triple with the full config matrix.
pub fn check_triple(spec: &str, seed: u64, case: u64) -> Result<(), String> {
    let sampler = Sampler::named(spec)?;
    check_scenario(&sampler.scenario(seed, case), &eval_configs(None))
}

/// Re-export used by the CLI to size its summary line.
pub fn eval_config_count() -> usize {
    eval_configs(None).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_of_every_spec_agrees() {
        for spec in prov_workload::ScenarioSpec::names() {
            let verdict = run(&FuzzOptions {
                spec: (*spec).to_owned(),
                seed: 7,
                start: 0,
                cases: 6,
                chunk_rows: None,
            })
            .expect("spec resolves");
            match verdict {
                FuzzVerdict::Agreement {
                    cases,
                    eval_configs,
                } => {
                    assert_eq!(cases, 6);
                    assert_eq!(eval_configs, 6);
                }
                FuzzVerdict::Diverged(d) => {
                    panic!("unexpected divergence: {} — {}", d.replay, d.detail)
                }
            }
        }
    }

    /// Chunk size 1 (the maximally re-chunked pipeline) must stay
    /// bit-identical to the Def 2.6 oracle on a slice of every spec,
    /// sequential and parallel.
    #[test]
    fn chunk_rows_one_matches_the_oracle_on_every_spec() {
        for spec in prov_workload::ScenarioSpec::names() {
            let sampler = Sampler::named(spec).expect("spec resolves");
            for case in 0..4 {
                let scenario = sampler.scenario(11, case);
                let oracle = eval_ucq_naive(&scenario.query, &scenario.database);
                for threads in [1usize, 4] {
                    let chunked = EvalSession::with_options(
                        EvalOptions::default()
                            .with_chunk_rows(1)
                            .with_parallelism(threads),
                    );
                    assert_eq!(
                        *chunked.eval_ucq(&scenario.query, &scenario.database),
                        oracle,
                        "chunk_rows=1 on {threads} thread(s) diverged from the oracle on {}",
                        scenario.replay(),
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_override_replaces_the_chunk_axis() {
        let configs = eval_configs(Some(3));
        assert_eq!(configs.len(), 2);
        assert!(configs.iter().all(|(_, o)| o.chunk_rows == Some(3)));
    }

    #[test]
    fn unknown_spec_is_a_setup_error() {
        assert!(run(&FuzzOptions {
            spec: "no-such-spec".to_owned(),
            ..FuzzOptions::default()
        })
        .is_err());
    }

    #[test]
    fn check_triple_replays_one_case() {
        check_triple("mixed", 7, 3).expect("case agrees");
    }
}
