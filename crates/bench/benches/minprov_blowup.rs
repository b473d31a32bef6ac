//! B6 — MinProv runtime and output size on the Q_n family of
//! Theorem 4.10: both are exponential in n, unavoidably — and the
//! engine's step budgets measured against that cliff (bounded rows
//! returning sound partial results).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prov_core::minimize::{minimize_with, Budget, MinimizeOptions};
use prov_core::minprov::minprov_cq;
use prov_query::generate::qn_family;
use prov_query::{parse_cq, UnionQuery};

fn bench_minprov(c: &mut Criterion) {
    // Default path (memoized engine).
    let mut group = c.benchmark_group("minprov_qn_family");
    group.sample_size(10);
    for &n in &[1usize, 2, 3] {
        let q = qn_family(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &q, |b, q| {
            b.iter(|| black_box(minprov_cq(q)))
        });
    }
    group.finish();

    // Budgeted: the serving configuration — a step budget bounds work on
    // the blowup family and returns a sound partial result.
    let mut group = c.benchmark_group("minprov_budgeted");
    group.sample_size(10);
    for &(n, steps) in &[(3usize, 64u64), (4, 64)] {
        let q = UnionQuery::single(qn_family(n));
        group.bench_with_input(BenchmarkId::new("steps64", n), &q, |b, q| {
            b.iter(|| {
                let outcome =
                    minimize_with(q, MinimizeOptions::default().budgeted(Budget::steps(steps)))
                        .expect("total");
                black_box(outcome.into_query())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("minprov_paper_queries");
    group.sample_size(10);
    let qconj = parse_cq("ans(x) :- R(x,y), R(y,x)").unwrap();
    let triangle = parse_cq("ans() :- R(x,y), R(y,z), R(z,x)").unwrap();
    group.bench_function("qconj", |b| b.iter(|| black_box(minprov_cq(&qconj))));
    group.bench_function("triangle", |b| b.iter(|| black_box(minprov_cq(&triangle))));
    group.finish();
}

criterion_group!(benches, bench_minprov);
criterion_main!(benches);
