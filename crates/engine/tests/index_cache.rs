//! Integration tests for warm-view reuse through [`EvalSession`]:
//! sharing across evaluations and UCQ disjuncts, and — the safety
//! property — stale entries are patched or rebuilt after a database
//! mutation, never reused as-is. (These pins used to run against the
//! `eval_cq_cached`/`eval_ucq_cached` wrappers; those are gone, and the
//! session is the one public way to hold views warm.)

use prov_engine::{eval_cq_with, EvalOptions, EvalSession};
use prov_query::{parse_cq, parse_ucq};
use prov_semiring::Polynomial;
use prov_storage::{Database, RelName, Tuple};

fn table_2_database() -> Database {
    let mut db = Database::new();
    db.add("R", &["a", "a"], "s1");
    db.add("R", &["a", "b"], "s2");
    db.add("R", &["b", "a"], "s3");
    db.add("R", &["b", "b"], "s4");
    db
}

#[test]
fn mutation_invalidates_cached_index() {
    let db = table_2_database();
    let q = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();

    // Inserts within the delta log roll the warm entry forward via a
    // restricted delta pass; removals are monomial surgery on the
    // materialized result and never touch the view cache at all. Either
    // way the one cold build stays the only build.
    for options in [
        EvalOptions::default(),
        EvalOptions::default().with_parallelism(4),
    ] {
        let session = EvalSession::with_options(options);
        let before = session.eval_cq(&q, &db);
        assert_eq!(before.len(), 2);

        // Mutate: the warm views must never be served stale — a stale
        // index would miss the new tuple entirely.
        let mut mutated = db.clone();
        mutated.add("R", &["c", "c"], "inv_c");
        let after = session.eval_cq(&q, &mutated);
        assert_eq!(after.len(), 3, "stale index reused under {options:?}");
        assert_eq!(
            after.provenance(&Tuple::of(&["c"])),
            Polynomial::parse("inv_c·inv_c")
        );
        assert_eq!(*after, eval_cq_with(&q, &mutated, options));
        assert_eq!(
            session.stats().views.misses,
            1,
            "insert must patch the warm entry, not rebuild"
        );

        // Removal never serves stale either, and it is pure monomial
        // surgery: no view-cache traffic, no re-evaluation.
        mutated.remove(RelName::new("R"), &Tuple::of(&["c", "c"]));
        let back = session.eval_cq(&q, &mutated);
        assert_eq!(back, before);
        let stats = session.stats();
        assert_eq!(stats.views.misses, 1, "removal must not rebuild views");
        assert!(stats.monomials_dropped >= 1, "removal drops monomials");
    }

    // Unchanged database: repeated evaluations are materialized-result
    // hits — one view build total, and the repeat never re-enters the
    // view cache at all.
    let session = EvalSession::new();
    session.eval_cq(&q, &db);
    session.eval_cq(&q, &db);
    let stats = session.stats();
    assert_eq!((stats.views.misses, stats.full_rebuilds), (1, 1));
}

#[test]
fn ucq_disjuncts_share_one_build() {
    let db = table_2_database();
    let q = parse_ucq(
        "ans(x) :- R(x,y), R(y,x), x != y\n\
         ans(x) :- R(x,x)",
    )
    .unwrap();
    let session = EvalSession::new();
    let result = session.eval_ucq(&q, &db);
    assert_eq!(
        result.provenance(&Tuple::of(&["a"])),
        Polynomial::parse("s2·s3 + s1")
    );
    let stats = session.stats();
    assert_eq!(stats.views.misses, 1, "one index build for the whole union");
    assert_eq!(
        stats.views.hits, 1,
        "second disjunct reuses the first's build"
    );
}

#[test]
fn session_results_equal_uncached_across_strategies() {
    let db = table_2_database();
    for text in [
        "ans(x) :- R(x,y), R(y,x)",
        "ans() :- R(x,y), R(y,z), R(z,x)",
        "ans(x) :- R(x,'b')",
    ] {
        let q = parse_cq(text).unwrap();
        for options in [
            EvalOptions::default(),
            EvalOptions::default().with_parallelism(4),
            EvalOptions::default()
                .with_parallelism(4)
                .with_chunk_rows(1),
        ] {
            let session = EvalSession::with_options(options);
            assert_eq!(
                *session.eval_cq_with(&q, &db, options),
                eval_cq_with(&q, &db, options),
                "{options:?} diverges on {text}"
            );
        }
    }
}
