//! The soak behind the batched-default flip, upgraded for incremental
//! maintenance: persistent [`EvalSession`]s carried across interleaved
//! database mutations, across {1, 4 threads} × {default, small chunks}
//! plus a UCQ session. Every incrementally-maintained result must be
//! bit-identical to the Def 2.6 oracle on the *current* database —
//! the mutations happen behind the sessions' backs (no
//! `apply_mutation`), so reconciliation rides purely on the database's
//! delta log. The counters must show the cheap path was actually taken:
//! exactly one full evaluation per session up front, one delta apply per
//! generation move, and — after a log-overflowing burst — exactly one
//! fallback rebuild.
//!
//! Scenarios come from the `prov-workload` DSL (`soak` spec): the same
//! shape grammar and skewed databases that `provmin fuzz` and the bench
//! matrix draw from, so a failing case replays as
//! `provmin fuzz --spec soak --seed S --case K`.

use std::sync::OnceLock;

use proptest::prelude::*;

use prov_engine::{eval_cq_naive, eval_ucq_naive, EvalOptions, EvalSession};
use prov_query::UnionQuery;
use prov_storage::{RelName, Tuple, DELTA_LOG_CAPACITY};
use prov_workload::Sampler;

/// The `soak` grammar is forced and parsed once for the whole suite.
fn sampler() -> &'static Sampler {
    static SAMPLER: OnceLock<Sampler> = OnceLock::new();
    SAMPLER.get_or_init(|| Sampler::named("soak").expect("built-in soak spec"))
}

/// A tiny deterministic LCG so mutation scripts replay under proptest
/// shrinking (the vendored rand shim is for value generation, not for
/// seedable per-case streams).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_sessions_survive_interleaved_mutations(
        seed in 0u64..300,
        case in 0u64..50,
        script_seed in 0u64..1_000,
    ) {
        let scenario = sampler().scenario(seed, case);
        let cq = scenario.query.adjuncts()[0].clone();
        // A two-disjunct union exercises disjunct sharing through one
        // session entry. The soak grammar enumerates both single rules
        // and self-unions; a single-rule draw falls back to a self-union.
        let union_q = if scenario.query.adjuncts().len() >= 2 {
            scenario.query.clone()
        } else {
            UnionQuery::new(vec![cq.clone(), cq.clone()]).expect("self-union shares a head")
        };
        let replay = scenario.replay();
        let mut db = scenario.database;
        let sessions: Vec<EvalSession> = [
            EvalOptions::default(),
            EvalOptions::default().with_parallelism(4),
            EvalOptions::default().with_chunk_rows(1),
            EvalOptions::default().with_parallelism(4).with_chunk_rows(7),
        ]
        .into_iter()
        .map(EvalSession::with_options)
        .collect();
        let union_session = EvalSession::new();
        let mut rng = script_seed.wrapping_add(1);

        // Warm every session, then count how often the generation moves
        // between observations: each move must cost each session exactly
        // one delta apply — never a rebuild.
        for session in &sessions {
            session.eval_cq(&cq, &db);
        }
        union_session.eval_ucq(&union_q, &db);
        let mut last_gen = db.generation();
        let mut gen_moves = 0u64;

        for step in 0..8u32 {
            // Interleave a mutation: usually an insert of a fresh tuple,
            // sometimes a removal of an existing row (whose annotation may
            // be shared across many output monomials). Idempotent inserts
            // (duplicate row) deliberately occur and must NOT invalidate.
            if lcg(&mut rng).is_multiple_of(4) {
                let rel = RelName::new("R");
                let existing: Vec<Tuple> = db
                    .relation(rel)
                    .map(|r| r.iter().map(|(t, _)| t.clone()).collect())
                    .unwrap_or_default();
                if !existing.is_empty() {
                    let victim = &existing[(lcg(&mut rng) as usize) % existing.len()];
                    db.remove(rel, victim);
                }
            } else {
                let a = format!("d{}", lcg(&mut rng) % 5);
                let b = format!("d{}", lcg(&mut rng) % 5);
                db.add("R", &[&a, &b], &format!("soak_{seed}_{case}_{script_seed}_{step}"));
            }
            if db.generation() != last_gen {
                last_gen = db.generation();
                gen_moves += 1;
            }

            let reference = eval_cq_naive(&cq, &db);
            for session in &sessions {
                let result = session.eval_cq(&cq, &db);
                prop_assert_eq!(
                    &*result,
                    &reference,
                    "{:?} diverged from the oracle after mutation step {} on {} ({})",
                    session.options(),
                    step,
                    &cq,
                    &replay
                );
            }
            // UCQ disjunct sharing: both disjuncts reconciled inside one
            // session entry, still identical to the oracle's union.
            let union_reference = eval_ucq_naive(&union_q, &db);
            let union_result = union_session.eval_ucq(&union_q, &db);
            prop_assert_eq!(&*union_result, &union_reference, "union diverged at step {}", step);
        }

        // The cheap path must actually have been taken: one full
        // evaluation per session (the warm-up), then one delta apply per
        // generation move — a rebuild anywhere here is a regression.
        for session in sessions.iter().chain([&union_session]) {
            let stats = session.stats();
            prop_assert_eq!(stats.full_rebuilds, 1, "mutations must delta-apply, not rebuild");
            prop_assert_eq!(stats.delta_applies, gen_moves, "one reconcile per generation move");
        }

        // Log-truncation fallback: a burst larger than the delta log
        // forces exactly one from-scratch rebuild, after which results
        // still match the oracle bit-for-bit.
        for i in 0..DELTA_LOG_CAPACITY + 1 {
            // Guaranteed-fresh tuples (`b{i}` is outside the scenario
            // domain), so every insert logs a real event.
            db.add("R", &[&format!("b{i}"), "d0"], &format!("burst_{seed}_{case}_{script_seed}_{i}"));
        }
        let reference = eval_cq_naive(&cq, &db);
        for session in &sessions {
            let result = session.eval_cq(&cq, &db);
            prop_assert_eq!(&*result, &reference, "post-truncation divergence ({})", &replay);
            prop_assert_eq!(session.stats().full_rebuilds, 2, "truncated log must rebuild once");
        }
    }
}
