//! Property: every configuration of the batched evaluator — sequential or
//! chunk-parallel, at any chunk size — is
//! *identical* (same tuples, same provenance polynomials, same
//! coefficients) to the paper-literal Def 2.6 oracle, on random CQ≠
//! queries and random databases. This is the ⊕-merge correctness argument
//! of the parallel mode and the regrouping argument of chunking checked
//! empirically.

use proptest::prelude::*;

use prov_engine::{
    eval_cq_naive, eval_cq_with, eval_ucq_naive, eval_ucq_with, EvalOptions, EvalSession,
    DEFAULT_CHUNK_ROWS,
};
use prov_query::generate::{random_cq, QuerySpec};
use prov_storage::generator::{random_database, DatabaseSpec};
use prov_storage::{RelName, DELTA_LOG_CAPACITY};
use prov_workload::{MutationStep, Sampler, ScenarioSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_strategies_match_naive(
        query_seed in 0u64..500,
        db_seed in 0u64..60,
        num_atoms in 1usize..=3,
        num_vars in 2usize..=4,
        diseq_percent in 0u8..=40,
    ) {
        let spec = QuerySpec {
            num_atoms,
            num_vars,
            diseq_percent,
            ..QuerySpec::binary(num_atoms, num_vars)
        };
        let q = random_cq(&spec, query_seed);
        let db = random_database(&DatabaseSpec::single_binary(24, 5), db_seed);
        let reference = eval_cq_naive(&q, &db);
        for threads in [1usize, 4] {
            // 1 and 7 force the re-chunking recursion constantly; 64Ki
            // is the default; None is the unbounded behaviour.
            for chunk in [Some(1), Some(7), Some(64 * 1024), None] {
                let mut options = EvalOptions::default().with_parallelism(threads);
                options = match chunk {
                    Some(rows) => options.with_chunk_rows(rows),
                    None => options.unchunked(),
                };
                let result = eval_cq_with(&q, &db, options);
                prop_assert_eq!(
                    &result,
                    &reference,
                    "{} threads × chunk {:?} diverges on {} (query seed {}, db seed {})",
                    threads,
                    chunk,
                    q,
                    query_seed,
                    db_seed
                );
            }
        }
    }

    #[test]
    fn wider_thread_counts_still_match(
        query_seed in 0u64..200,
        db_seed in 0u64..40,
    ) {
        // 2 and 8 threads, at the default chunk size and at chunk 1.
        let spec = QuerySpec {
            diseq_percent: 25,
            ..QuerySpec::binary(3, 4)
        };
        let q = random_cq(&spec, query_seed);
        let db = random_database(&DatabaseSpec::single_binary(24, 5), db_seed);
        let reference = eval_cq_naive(&q, &db);
        for threads in [2usize, 8] {
            for options in [
                EvalOptions::default().with_parallelism(threads),
                EvalOptions::default().with_parallelism(threads).with_chunk_rows(1),
            ] {
                prop_assert_eq!(
                    &eval_cq_with(&q, &db, options),
                    &reference,
                    "{:?} diverges on {} (query seed {}, db seed {})",
                    options,
                    q,
                    query_seed,
                    db_seed
                );
            }
        }
    }

    #[test]
    fn anchored_queries_match_naive(
        query_seed in 0u64..500,
        db_seed in 0u64..60,
        num_atoms in 3usize..=4,
        diseq_percent in 0u8..=40,
    ) {
        // Constants in about a third of the argument positions put two
        // or more anchored atoms in most bodies, so the semijoin
        // reduction runs before the pipeline on most cases.
        let spec = QuerySpec {
            relations: vec![("R".to_owned(), 2), ("S".to_owned(), 2)],
            diseq_percent,
            const_percent: 30,
            ..QuerySpec::binary(num_atoms, 4)
        };
        let q = random_cq(&spec, query_seed);
        let db = random_database(
            &DatabaseSpec {
                relations: vec![("R".to_owned(), 2, 24), ("S".to_owned(), 2, 12)],
                domain_size: 5,
                value_prefix: "d".to_owned(),
            },
            db_seed,
        );
        let reference = eval_cq_naive(&q, &db);
        for threads in [1usize, 4] {
            for chunk in [1usize, DEFAULT_CHUNK_ROWS] {
                let options = EvalOptions::default()
                    .with_parallelism(threads)
                    .with_chunk_rows(chunk);
                prop_assert_eq!(
                    &eval_cq_with(&q, &db, options),
                    &reference,
                    "{} threads × chunk {} diverges on {} (query seed {}, db seed {})",
                    threads,
                    chunk,
                    q,
                    query_seed,
                    db_seed
                );
            }
        }
        let session = EvalSession::new();
        prop_assert_eq!(
            &*session.eval_ucq(&prov_query::UnionQuery::single(q.clone()), &db),
            &reference,
            "a fresh session diverges on {} (query seed {}, db seed {})",
            q,
            query_seed,
            db_seed
        );
    }

    #[test]
    fn dsl_scenarios_match_naive(
        spec_index in 0usize..9,
        seed in 0u64..200,
        case in 0u64..40,
    ) {
        // The workload DSL's shape grammars (fan-out, cycles, UCQ
        // overlap, disequalities, constants, skewed databases) pushed
        // through the same strategy matrix — a failing case replays as
        // `provmin fuzz --spec NAME --seed S --case K`.
        let name = ScenarioSpec::names()[spec_index % ScenarioSpec::names().len()];
        let sampler = Sampler::named(name).expect(name);
        let scenario = sampler.scenario(seed, case);
        let reference = eval_ucq_naive(&scenario.query, &scenario.database);
        for threads in [1usize, 4] {
            // 0 = unchunked.
            for chunk in [1usize, DEFAULT_CHUNK_ROWS, 0] {
                let options = EvalOptions::default()
                    .with_parallelism(threads)
                    .with_chunk_rows(chunk);
                let result = eval_ucq_with(&scenario.query, &scenario.database, options);
                prop_assert_eq!(
                    &result,
                    &reference,
                    "{} threads × chunk {} diverges on {} ({})",
                    threads,
                    chunk,
                    &scenario.query,
                    scenario.replay()
                );
            }
        }
    }

    #[test]
    fn incremental_maintenance_matches_from_scratch(
        seed in 0u64..300,
        case in 0u64..60,
    ) {
        // A persistent EvalSession maintained through the
        // `mutate` spec's random insert/delete scripts must stay
        // bit-identical to from-scratch naive evaluation after every
        // mutation — including deletes of annotations shared across many
        // output monomials (step 0 of every script removes a present
        // tuple) and the log-truncation fallback at the end.
        let sampler = Sampler::named("mutate").expect("built-in mutate spec");
        let scenario = sampler.scenario(seed, case);
        let rel = RelName::new("R");
        let sessions: Vec<EvalSession> = [
            EvalOptions::default(),
            EvalOptions::default().with_parallelism(4).with_chunk_rows(1),
        ]
        .into_iter()
        .map(EvalSession::with_options)
        .collect();
        let mut dbs = vec![scenario.database.clone(), scenario.database.clone()];
        for (session, db) in sessions.iter().zip(&dbs) {
            session.eval_ucq(&scenario.query, db);
        }
        for (step_index, step) in scenario.mutations.iter().enumerate() {
            for (session, db) in sessions.iter().zip(&mut dbs) {
                match step {
                    MutationStep::Insert(tuple, annotation) => {
                        session.apply_mutation(db, &[], &[(rel, tuple.clone(), *annotation)])
                    }
                    MutationStep::Remove(tuple) => {
                        session.apply_mutation(db, &[(rel, tuple.clone())], &[])
                    }
                };
            }
            let scratch = eval_ucq_naive(&scenario.query, &dbs[0]);
            for (session, db) in sessions.iter().zip(&dbs) {
                prop_assert_eq!(
                    &*session.eval_ucq(&scenario.query, db),
                    &scratch,
                    "incremental {:?} diverged from from-scratch at step {} ({})",
                    session.options(),
                    step_index,
                    scenario.replay()
                );
            }
        }
        // Every script starts with a real removal, so the delta path must
        // have fired at least once per session.
        for session in &sessions {
            prop_assert!(
                session.stats().delta_applies >= 1,
                "mutation script never exercised the delta path ({})",
                scenario.replay()
            );
        }

        // Log truncation: overflow the delta log behind the sessions'
        // backs; the next evaluation must fall back to a full rebuild and
        // still match from-scratch exactly.
        for db in &mut dbs {
            for j in 0..DELTA_LOG_CAPACITY + 1 {
                db.add("R", &[&format!("t{j}"), "v0"], &format!("trunc_{seed}_{case}_{j}"));
            }
        }
        let scratch = eval_ucq_naive(&scenario.query, &dbs[0]);
        for (session, db) in sessions.iter().zip(&dbs) {
            let rebuilds_before = session.stats().full_rebuilds;
            prop_assert_eq!(
                &*session.eval_ucq(&scenario.query, db),
                &scratch,
                "post-truncation divergence ({})",
                scenario.replay()
            );
            prop_assert_eq!(
                session.stats().full_rebuilds,
                rebuilds_before + 1,
                "truncated log must force exactly one rebuild"
            );
        }
    }
}
