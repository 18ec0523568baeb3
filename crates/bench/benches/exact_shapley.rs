//! E3 timing: exact Shapley values for the hierarchical q1 (Theorem 3.1
//! positive side) vs the brute-force oracle (the only exact option on
//! the hardness side).

use std::time::Duration;

use cqshap_core::reference::shapley_report_per_fact;
use cqshap_core::{
    shapley_report, shapley_via_counts, AnyQuery, BruteForceCounter, ShapleyOptions,
};
use cqshap_workloads::queries;
use cqshap_workloads::university::UniversityConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_hierarchical_scaling(c: &mut Criterion) {
    let q1 = queries::q1();
    let mut group = c.benchmark_group("exact/hierarchical_report");
    for students in [8usize, 32, 128] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 42,
            ..Default::default()
        }
        .generate();
        group.bench_with_input(BenchmarkId::from_parameter(students), &db, |b, db| {
            b.iter(|| {
                let report = shapley_report(db, &q1, &ShapleyOptions::default()).unwrap();
                assert!(report.efficiency_holds());
            })
        });
    }
    group.finish();
}

fn bench_brute_force_wall(c: &mut Criterion) {
    let q1 = queries::q1();
    let mut group = c.benchmark_group("exact/brute_force_single_fact");
    for students in [4usize, 6, 8] {
        let db = UniversityConfig {
            students,
            courses: 3,
            regs_per_student: 1,
            declare_exogenous: false,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let f = db.endo_facts()[0];
        group.bench_with_input(BenchmarkId::new("endo", db.endo_count()), &db, |b, db| {
            b.iter(|| {
                shapley_via_counts(db, AnyQuery::Cq(&q1), f, &BruteForceCounter::default()).unwrap()
            })
        });
    }
    group.finish();
}

/// Batched compile-once engine vs the seed per-fact path on the
/// deterministic report workload — the `bench-report` harness emits the
/// same comparison as JSON for CI.
fn bench_batched_vs_per_fact(c: &mut Criterion) {
    let q1 = queries::q1();
    let mut group = c.benchmark_group("exact/report_engine");
    for m in [64usize, 256] {
        let db = cqshap_workloads::report_benchmark_db(m);
        group.bench_with_input(BenchmarkId::new("batched", m), &db, |b, db| {
            b.iter(|| shapley_report(db, &q1, &ShapleyOptions::default()).unwrap())
        });
        if m <= 64 {
            group.bench_with_input(BenchmarkId::new("per_fact", m), &db, |b, db| {
                b.iter(|| shapley_report_per_fact(db, &q1, &ShapleyOptions::default()).unwrap())
            });
        }
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
    targets = bench_hierarchical_scaling, bench_brute_force_wall, bench_batched_vs_per_fact
}
criterion_main!(benches);
