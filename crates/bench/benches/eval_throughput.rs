//! B1 — provenance-annotated evaluation throughput vs database size
//! (Def 2.12), for the paper's running queries on synthetic instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prov_bench::binary_db;
use prov_engine::{eval_cq, eval_ucq};
use prov_query::{parse_cq, parse_ucq};

fn bench_eval(c: &mut Criterion) {
    let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let qunion = parse_ucq(
        "ans(x) :- R(x,y), R(y,x), x != y\n\
         ans(x) :- R(x,x)",
    )
    .unwrap();
    let triangle = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();

    let mut group = c.benchmark_group("eval_cq_qconj");
    for &n in &[50usize, 200, 800] {
        let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| black_box(eval_cq(&qconj, db)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eval_ucq_qunion");
    for &n in &[50usize, 200, 800] {
        let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| black_box(eval_ucq(&qunion, db)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eval_cq_triangle");
    for &n in &[50usize, 200] {
        let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| black_box(eval_cq(&triangle, db)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eval,
    bench_parallel_eval,
    bench_batched_eval,
    bench_incremental_maintenance
);
criterion_main!(benches);

// Incremental maintenance through a warm EvalSession: one cycle inserts
// a self-loop tuple, absorbs it via the delta ⊕-join, removes it, and
// absorbs the removal — vs the same cycle paying a cold from-scratch
// evaluation after each mutation. (The calibrated quick-mode rows in
// `prov_bench::recorder` time the insert and delete halves separately;
// this criterion group tracks the full cycle.)
fn bench_incremental_maintenance(c: &mut Criterion) {
    use prov_engine::EvalSession;
    use prov_storage::{RelName, Tuple};
    let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let rel = RelName::new("R");
    let fresh = Tuple::of(&["inc_x", "inc_x"]);
    let db0 = binary_db(800, 30, 1);
    let mut group = c.benchmark_group("incremental_qconj");
    group.bench_function("delta_cycle/800", |b| {
        let session = EvalSession::new();
        let mut db = db0.clone();
        session.eval_cq(&qconj, &db);
        b.iter(|| {
            db.add("R", &["inc_x", "inc_x"], "inc_a");
            black_box(session.eval_cq(&qconj, &db));
            db.remove(rel, &fresh);
            black_box(session.eval_cq(&qconj, &db));
        })
    });
    group.bench_function("rebuild_cycle/800", |b| {
        let mut db = db0.clone();
        b.iter(|| {
            db.add("R", &["inc_x", "inc_x"], "inc_a");
            let cold = EvalSession::new();
            black_box(cold.eval_cq(&qconj, &db));
            db.remove(rel, &fresh);
        })
    });
    group.finish();
}

// The batched pipeline cold and through a warm persistent EvalSession.
fn bench_batched_eval(c: &mut Criterion) {
    use prov_engine::{eval_cq_with, EvalOptions, EvalSession};
    let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let triangle = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
    let mut group = c.benchmark_group("eval_batched_qconj");
    for &n in &[200usize, 800] {
        let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
        group.bench_with_input(BenchmarkId::new("batched", n), &db, |b, db| {
            b.iter(|| black_box(eval_cq_with(&qconj, db, EvalOptions::default())))
        });
        group.bench_with_input(BenchmarkId::new("session_warm", n), &db, |b, db| {
            let session = EvalSession::new();
            b.iter(|| black_box(session.eval_cq(&qconj, db)))
        });
        group.bench_with_input(BenchmarkId::new("batched_par4", n), &db, |b, db| {
            let options = EvalOptions::default().with_parallelism(4);
            b.iter(|| black_box(eval_cq_with(&qconj, db, options)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eval_batched_triangle");
    let db = binary_db(50, 9, 1);
    group.bench_with_input(BenchmarkId::new("batched", 50), &db, |b, db| {
        b.iter(|| black_box(eval_cq_with(&triangle, db, EvalOptions::default())))
    });
    group.finish();
}

// Chunk-parallel batched evaluation vs thread count on the large substrate.
// Results are bit-identical to sequential (⊕-commutativity); only
// wall-clock differs. On a single-vCPU host expect parity, not speedup.
fn bench_parallel_eval(c: &mut Criterion) {
    use prov_engine::{eval_cq_with, EvalOptions};
    let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let triangle = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
    let mut group = c.benchmark_group("eval_parallel_qconj");
    let n = 800usize;
    let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &db, |b, db| {
            let options = EvalOptions::default().with_parallelism(threads);
            b.iter(|| black_box(eval_cq_with(&qconj, db, options)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eval_parallel_triangle");
    let db = binary_db(200, 16, 1);
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &db, |b, db| {
            let options = EvalOptions::default().with_parallelism(threads);
            b.iter(|| black_box(eval_cq_with(&triangle, db, options)))
        });
    }
    group.finish();
}
