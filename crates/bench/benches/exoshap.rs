//! E4 timing: the `ExoShap` rewriting (Algorithm 1) and the full
//! Theorem 4.3 pipeline on the Example 4.1 scenario.

use std::time::Duration;

use cqshap_core::{rewrite, AnyQuery, ShapleyOptions, ShapleySession, Strategy};
use cqshap_workloads::academic::{citations_query, AcademicConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_rewrite(c: &mut Criterion) {
    let q = citations_query();
    let mut group = c.benchmark_group("exoshap/rewrite");
    for authors in [8usize, 32, 128] {
        let db = AcademicConfig {
            authors,
            seed: 9,
            ..Default::default()
        }
        .generate();
        group.bench_with_input(BenchmarkId::from_parameter(authors), &db, |b, db| {
            b.iter(|| rewrite(db, &q, 10_000_000).unwrap())
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let q = citations_query();
    let opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
    let mut group = c.benchmark_group("exoshap/report");
    for authors in [8usize, 16, 32] {
        let db = AcademicConfig {
            authors,
            seed: 9,
            ..Default::default()
        }
        .generate();
        group.bench_with_input(BenchmarkId::from_parameter(authors), &db, |b, db| {
            b.iter(|| {
                let report = ShapleySession::prepare(db, AnyQuery::Cq(&q), &opts)
                    .unwrap()
                    .report()
                    .unwrap();
                assert!(report.efficiency_holds());
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_rewrite, bench_full_pipeline
}
criterion_main!(benches);
