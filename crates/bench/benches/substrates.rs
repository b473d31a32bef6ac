//! X1/X2 — extension substrates: Datalog unfolding/evaluation scaling with
//! pipeline depth, and algebra compilation vs direct evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prov_algebra::{eval as alg_eval, to_query, Condition, Expr};
use prov_bench::binary_db;
use prov_datalog::{evaluate, unfold, Program};
use prov_engine::{eval_ucq, eval_ucq_with, EvalOptions};
use prov_storage::RelName;

/// A hop-pipeline of the given depth: hopK(x,z) :- hop{K-1}(x,y), E(y,z).
fn pipeline(depth: usize) -> Program {
    let mut text = String::from("hop1(x,y) :- E(x,y)\n");
    for k in 2..=depth {
        text.push_str(&format!("hop{k}(x,z) :- hop{}(x,y), E(y,z)\n", k - 1));
    }
    Program::parse(&text).expect("pipeline parses")
}

fn bench_datalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("datalog_pipeline_eval");
    group.sample_size(20);
    for &depth in &[2usize, 3, 4] {
        let program = pipeline(depth);
        let db = {
            // Rename R to E for the pipeline.
            let base = binary_db(40, 8, 2);
            let mut db = prov_storage::Database::new();
            if let Some(rel) = base.relation(RelName::new("R")) {
                for (t, a) in rel.iter() {
                    db.insert(RelName::new("E"), t.clone(), *a);
                }
            }
            db
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(depth),
            &(program, db),
            |b, (program, db)| b.iter(|| black_box(evaluate(program, db))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("datalog_unfold");
    group.sample_size(20);
    for &depth in &[2usize, 4, 6] {
        let program = pipeline(depth);
        let target = RelName::new(&format!("hop{depth}"));
        group.bench_with_input(
            BenchmarkId::from_parameter(depth),
            &program,
            |b, program| b.iter(|| black_box(unfold(program, target))),
        );
    }
    group.finish();
}

fn bench_algebra(c: &mut Criterion) {
    let plan = Expr::scan("R", 2)
        .product(Expr::scan("R", 2))
        .select(vec![Condition::EqCols(0, 3), Condition::EqCols(1, 2)])
        .project(vec![0]);
    let mut group = c.benchmark_group("algebra_qconj_plan");
    for &n in &[50usize, 200] {
        let db = binary_db(n, (n as f64).sqrt() as usize + 2, 1);
        group.bench_with_input(BenchmarkId::new("direct_eval", n), &db, |b, db| {
            b.iter(|| black_box(alg_eval(&plan, db).unwrap()))
        });
        let compiled = to_query(&plan).unwrap().unwrap();
        group.bench_with_input(BenchmarkId::new("compiled_eval", n), &db, |b, db| {
            b.iter(|| black_box(eval_ucq(&compiled, db)))
        });
        // Parallel variant of the compiled route: each adjunct's first
        // planned atom's frontier is split across 4 worker threads.
        group.bench_with_input(BenchmarkId::new("compiled_eval_par4", n), &db, |b, db| {
            let options = EvalOptions::default().with_parallelism(4);
            b.iter(|| black_box(eval_ucq_with(&compiled, db, options)))
        });
    }
    group.bench_function("compile_only", |b| b.iter(|| black_box(to_query(&plan))));
    group.finish();
}

criterion_group!(benches, bench_datalog, bench_algebra);
criterion_main!(benches);
