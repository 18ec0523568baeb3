//! E12 timing: lifted probabilistic inference (Section 4.3 /
//! Theorem 4.10), one prepared session and probability read per
//! iteration, and the expected-marginal reads a compiled session
//! serves.

use std::time::Duration;

use cqshap_core::{AnyQuery, ShapleyOptions, ShapleySession};
use cqshap_db::Database;
use cqshap_numeric::BigRational;
use cqshap_query::ConjunctiveQuery;
use cqshap_workloads::academic::{citations_query, AcademicConfig};
use cqshap_workloads::university::UniversityConfig;
use cqshap_workloads::{queries, report_benchmark_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// `Pr[D ⊨ q]` with every endogenous fact present with probability
/// `p`: the session resolves the route (lifted inference, or the
/// `ExoShap` rewriting first) and compiles the probability terms.
fn probability(db: &Database, q: &ConjunctiveQuery, p: &BigRational) -> BigRational {
    let options = ShapleyOptions::auto().tuple_budget(10_000_000);
    let mut session = ShapleySession::prepare(db, AnyQuery::Cq(q), &options).unwrap();
    session.set_default_probability(p.clone()).unwrap();
    session.probability().unwrap()
}

fn bench_lifted_hierarchical(c: &mut Criterion) {
    let q1 = queries::q1();
    let p = BigRational::from_i64_ratio(1, 2);
    let mut group = c.benchmark_group("probdb/lifted_hierarchical");
    for students in [16usize, 64, 256] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 3,
            ..Default::default()
        }
        .generate();
        group.bench_with_input(BenchmarkId::from_parameter(students), &db, |b, db| {
            b.iter(|| probability(db, &q1, &p))
        });
    }
    group.finish();
}

fn bench_theorem_4_10(c: &mut Criterion) {
    let q = citations_query();
    let p = BigRational::from_i64_ratio(7, 20);
    let mut group = c.benchmark_group("probdb/rewrite_then_lift");
    for authors in [8usize, 32, 64] {
        let db = AcademicConfig {
            authors,
            seed: 3,
            ..Default::default()
        }
        .generate();
        group.bench_with_input(BenchmarkId::from_parameter(authors), &db, |b, db| {
            b.iter(|| probability(db, &q, &p))
        });
    }
    group.finish();
}

/// One expected marginal `Pr[q | f present] − Pr[q | f absent]` per
/// iteration, read from a session whose probability terms are already
/// compiled; the reads and the dyadic probabilities both cycle over
/// `Dn`. The two sizes show how the cost of one read grows with the
/// database.
fn bench_expected_shapley(c: &mut Criterion) {
    const DYADIC: [(i64, i64); 6] = [(1, 2), (1, 4), (3, 4), (1, 8), (5, 8), (7, 8)];
    let q1 = queries::q1();
    let mut group = c.benchmark_group("probdb/expected_shapley");
    for m in [1024usize, 4096] {
        let db = report_benchmark_db(m);
        let mut session =
            ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto()).unwrap();
        for (&f, &(n, d)) in db.endo_facts().iter().zip(DYADIC.iter().cycle()) {
            session
                .set_probability(f, BigRational::from_i64_ratio(n, d))
                .unwrap();
        }
        session.probability().unwrap();
        let mut facts = db.endo_facts().iter().copied().cycle();
        group.bench_function(BenchmarkId::from_parameter(m), |b| {
            b.iter(|| {
                let f = facts.next().unwrap();
                session.expected_shapley(f).unwrap()
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
    targets = bench_lifted_hierarchical, bench_theorem_4_10, bench_expected_shapley
}
criterion_main!(benches);
