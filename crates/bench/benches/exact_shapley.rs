//! E3 timing: exact Shapley values for the hierarchical q1 (Theorem 3.1
//! positive side) vs the brute-force oracle (the only exact option on
//! the hardness side), and the batched all-facts reports of a CQ¬, a
//! UCQ¬ and an aggregate against their per-fact reference paths.

use std::time::Duration;

use cqshap_core::aggregates::AggregateFunction;
use cqshap_core::reference::{aggregate_shapley_per_fact, shapley_report_per_fact};
use cqshap_core::{
    shapley_via_counts, AnyQuery, BruteForceCounter, ShapleyOptions, ShapleyReport, ShapleySession,
};
use cqshap_db::Database;
use cqshap_workloads::university::UniversityConfig;
use cqshap_workloads::{queries, report_benchmark_db, union_benchmark_db};
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
                let report =
                    ShapleySession::prepare(db, AnyQuery::Cq(&q1), &ShapleyOptions::default())
                        .unwrap()
                        .report()
                        .unwrap();
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

/// Batched compile-once session reports against the per-fact reference
/// paths on the deterministic report workloads: `q1` over
/// `report_benchmark_db` (up to m = 4096), the 2-disjunct union over
/// `union_benchmark_db`, and the per-course count aggregate over
/// `report_benchmark_db`. The per-fact paths recompute every fact from
/// scratch, so they run at the smallest size only.
fn bench_batched_vs_per_fact(c: &mut Criterion) {
    let options = ShapleyOptions::default();
    let q1 = queries::q1();
    let union = queries::union_benchmark();
    let count = queries::per_course_count();
    batched_vs_per_fact(
        c,
        "exact/report_engine",
        &[64, 256, 1024, 4096],
        report_benchmark_db,
        |db| {
            ShapleySession::prepare(db, AnyQuery::Cq(&q1), &options)
                .unwrap()
                .report()
                .unwrap()
        },
        |db| shapley_report_per_fact(db, AnyQuery::Cq(&q1), &options).unwrap(),
    );
    batched_vs_per_fact(
        c,
        "exact/union_report",
        &[64, 256],
        union_benchmark_db,
        |db| {
            ShapleySession::prepare(db, AnyQuery::Union(&union), &options)
                .unwrap()
                .report()
                .unwrap()
        },
        |db| shapley_report_per_fact(db, AnyQuery::Union(&union), &options).unwrap(),
    );
    batched_vs_per_fact(
        c,
        "exact/aggregate_report",
        &[64, 256],
        report_benchmark_db,
        |db| {
            ShapleySession::prepare_aggregate(db, &count, AggregateFunction::Count, &options)
                .unwrap()
                .report()
                .unwrap()
        },
        |db| {
            db.endo_facts()
                .iter()
                .map(|&f| {
                    aggregate_shapley_per_fact(db, &count, &AggregateFunction::Count, f, &options)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        },
    );
}

/// One group timing `batched` on `workload(m)` for every `m` in
/// `sizes`, and `per_fact` at the smallest size.
fn batched_vs_per_fact<O>(
    c: &mut Criterion,
    name: &str,
    sizes: &[usize],
    workload: fn(usize) -> Database,
    batched: impl Fn(&Database) -> ShapleyReport,
    per_fact: impl Fn(&Database) -> O,
) {
    let mut group = c.benchmark_group(name);
    for (i, &m) in sizes.iter().enumerate() {
        let db = workload(m);
        group.bench_with_input(BenchmarkId::new("batched", m), &db, |b, db| {
            b.iter(|| batched(db))
        });
        if i == 0 {
            group.bench_with_input(BenchmarkId::new("per_fact", m), &db, |b, db| {
                b.iter(|| per_fact(db))
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
