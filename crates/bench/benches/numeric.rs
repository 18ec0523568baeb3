//! Substrate timing: the exact arithmetic under every Shapley value,
//! including the `poly` convolution backends and the leave-one-out
//! products the compile stage is built on.

use std::time::Duration;

use cqshap_numeric::poly::{self, Backend};
use cqshap_numeric::{
    factorial, BigRational, BigUint, BinomialCache, FactorialTable, RationalMatrix,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_factorials(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric/factorial_table");
    for n in [100usize, 400, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| FactorialTable::new(n))
        });
    }
    group.finish();
}

fn bench_bigint_ops(c: &mut Criterion) {
    let a = factorial(300); // ≈ 2500 bits
    let b_ = factorial(200);
    let mut group = c.benchmark_group("numeric/bigint");
    group.bench_function("mul_300!_200!", |b| b.iter(|| &a * &b_));
    group.bench_function("div_rem_300!_200!", |b| b.iter(|| a.div_rem(&b_)));
    group.bench_function("gcd_300!_200!", |b| b.iter(|| a.gcd(&b_)));
    group.bench_function("to_string_300!", |b| b.iter(|| a.to_string()));
    group.finish();
}

fn bench_rational_sum(c: &mut Criterion) {
    // The Shapley reduction sums m weighted terms; model that shape.
    let table = FactorialTable::new(120);
    c.benchmark_group("numeric/rational")
        .bench_function("shapley_weight_sum_m120", |b| {
            b.iter(|| {
                let mut acc = BigRational::zero();
                for k in 0..120 {
                    acc += &table.shapley_weight(120, k);
                }
                acc
            })
        });
}

fn bench_linear_solve(c: &mut Criterion) {
    // A Lemma B.3-shaped system (factorial coefficients), N = 8.
    let n = 8usize;
    let a = RationalMatrix::from_fn(n + 1, n + 1, |r, k| {
        BigRational::from(factorial(k) * factorial(n - k + r + 1))
    });
    let rhs: Vec<BigRational> = (0..=n)
        .map(|i| BigRational::from(BigUint::from_u64(i as u64 + 1)))
        .collect();
    c.benchmark_group("numeric/linalg")
        .bench_function("solve_9x9_factorial", |b| b.iter(|| a.solve(&rhs).unwrap()));
}

/// One product of a binomial row `C(n, ·)` with itself, through each
/// convolution backend: the shape of the engines' large products (at
/// n = 256 the coefficients reach ≈ 252 bits).
fn bench_poly_mul(c: &mut Criterion) {
    let rows = BinomialCache::new();
    let mut group = c.benchmark_group("poly/mul_with");
    for n in [256usize, 768] {
        let row = rows.row(n);
        for backend in [
            Backend::Auto,
            Backend::Schoolbook,
            Backend::Karatsuba,
            Backend::Ntt,
        ] {
            let id = BenchmarkId::new(format!("{backend:?}"), n + 1);
            group.bench_with_input(id, &row, |b, row| {
                b.iter(|| poly::mul_with(row, row, backend))
            });
        }
    }
    group.finish();
}

/// The compile stage's leave-one-out environments over one degree-4
/// unsatisfying-count polynomial per 4-fact root group (the shape
/// `report_benchmark_db(m)` produces), at one thread.
fn bench_leave_one_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("poly/leave_one_out_products");
    for m in [256usize, 1024] {
        let polys = group_polys(m);
        let refs: Vec<&[BigUint]> = polys.iter().map(Vec::as_slice).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &refs, |b, refs| {
            b.iter(|| poly::leave_one_out_products(refs, &[BigUint::one()], 1, None).unwrap())
        });
    }
    group.finish();
}

/// `m / 4` polynomials with `unsat[0] = 1` (the empty subset never
/// satisfies) and `unsat[k] ≤ C(4, k)`, varied by a deterministic
/// xorshift.
fn group_polys(m: usize) -> Vec<Vec<BigUint>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ m as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let binom4 = [1u64, 4, 6, 4, 1];
    (0..m / 4)
        .map(|_| {
            binom4
                .iter()
                .enumerate()
                .map(|(k, &c)| BigUint::from_u64(if k == 0 { 1 } else { next() % (c + 1) }))
                .collect()
        })
        .collect()
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_factorials, bench_bigint_ops, bench_rational_sum, bench_linear_solve,
        bench_poly_mul, bench_leave_one_out
}
criterion_main!(benches);
