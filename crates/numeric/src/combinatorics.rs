//! Exact factorials and binomial coefficients.
//!
//! The Shapley formula weights each coalition size `k` by
//! `k!(m-1-k)!/m!`, and the counting algorithms of Lemma 3.2 combine
//! binomial coefficients of free endogenous facts, so these show up in
//! every inner loop of the exact pipeline. [`FactorialTable`] amortizes
//! the factorials for a whole computation.
#![expect(
    clippy::indexing_slicing,
    reason = "Pascal rows are grown before they are indexed"
)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::bigint::BigInt;
use crate::biguint::BigUint;
use crate::rational::BigRational;

/// Computes `n!` exactly.
pub fn factorial(n: usize) -> BigUint {
    let mut acc = BigUint::one();
    for i in 2..=n as u64 {
        acc.mul_u64_assign(i);
    }
    acc
}

/// Computes the binomial coefficient `C(n, k)` exactly.
///
/// Uses the multiplicative formula with exact intermediate divisions, so
/// the working values never exceed the result by more than one factor.
pub fn binomial(n: usize, k: usize) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    let k = k.min(n - k);
    let mut acc = BigUint::one();
    for i in 1..=k {
        acc.mul_u64_assign((n - k + i) as u64);
        let rem = acc.div_rem_u64_assign(i as u64);
        debug_assert_eq!(rem, 0, "binomial partial products divide exactly");
    }
    acc
}

/// A cache of whole Pascal rows `[C(n, 0), …, C(n, n)]`, shared across
/// threads behind `Arc`s.
///
/// The counting engines consume binomial rows constantly — every free
/// or junk recount convolves against one — and rebuilding a row costs
/// `O(n)` exact divisions per *call*. The cache builds each row once
/// (incrementally, `C(n, k+1) = C(n, k)·(n−k)/(k+1)`) and hands out
/// shared references.
#[derive(Debug, Default)]
pub struct BinomialCache {
    rows: Mutex<HashMap<usize, Arc<Vec<BigUint>>>>,
}

impl BinomialCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row `[C(n, 0), …, C(n, n)]`, computed on first use.
    pub fn row(&self, n: usize) -> Arc<Vec<BigUint>> {
        let mut rows = self
            .rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rows.entry(n)
            .or_insert_with(|| {
                let mut row = Vec::with_capacity(n + 1);
                row.push(BigUint::one());
                for k in 0..n {
                    let mut next = row[k].mul_u64((n - k) as u64);
                    let rem = next.div_rem_u64_assign((k + 1) as u64);
                    debug_assert_eq!(rem, 0, "Pascal row entries divide exactly");
                    row.push(next);
                }
                Arc::new(row)
            })
            .clone()
    }
}

/// The primes `≤ n`, by Eratosthenes.
// cqshap-lint: allow(cancellation-reachability) -- bounded: sieve over 2..=n, n is the small factorial argument
fn primes_up_to(n: usize) -> Vec<u64> {
    if n < 2 {
        return Vec::new();
    }
    let mut composite = vec![false; n + 1];
    let mut out = Vec::new();
    for p in 2..=n {
        if composite[p] {
            continue;
        }
        out.push(p as u64);
        let mut q = p * p;
        while q <= n {
            composite[q] = true;
            q += p;
        }
    }
    out
}

/// Legendre's formula: `v_p(n!) = Σ_i ⌊n/pⁱ⌋`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: at most log_p(n) divisions
fn factorial_valuation(n: usize, p: u64) -> usize {
    let mut e = 0usize;
    let mut q = n as u64 / p;
    while q > 0 {
        e += q as usize;
        q /= p;
    }
    e
}

/// Divides out up to `max` factors of `p` from `v`, returning how many
/// were removed. Factors are stripped in the largest `p`-power chunks
/// that fit a `u64`, so high valuations cost a handful of short
/// divisions instead of one per factor.
fn strip_prime(v: &mut BigUint, p: u64, max: usize) -> usize {
    let mut chunk = p;
    let mut chunk_exp = 1usize;
    while chunk_exp < max {
        match chunk.checked_mul(p) {
            Some(next) if chunk_exp < max => {
                chunk = next;
                chunk_exp += 1;
            }
            _ => break,
        }
    }
    let mut count = 0usize;
    while count + chunk_exp <= max && v.rem_u64(chunk) == 0 {
        v.div_rem_u64_assign(chunk);
        count += chunk_exp;
    }
    while count < max && v.rem_u64(p) == 0 {
        v.div_rem_u64_assign(p);
        count += 1;
    }
    count
}

/// Coalition sizes per block of [`ShapleyWeights`]: the word-sized
/// cofactors then hold at most `WEIGHT_BLOCK − 1` factors `≤ m`.
const WEIGHT_BLOCK: usize = 32;

/// All Shapley weight numerators `w[k] = k!·(m-1-k)!`, `k < m`, of an
/// `m`-player game, in blocked form `w[k] = block[k / B] · step[k]`
/// with `B = 32`: one big factor `a!·(m-1-z)!` per block of sizes
/// `a..=z`, times a short cofactor. The cofactors follow the ratio
/// `w[k+1] = w[k]·(k+1)/(m-1-k)` inside a block, so building them
/// takes word-size multiplications and exact word-size divisions only.
///
/// [`ShapleyWeights::contract`] weights a whole count vector with one
/// short product per size and one big product per block, instead of a
/// big-by-big product per size.
#[derive(Debug, Clone, Default)]
pub struct ShapleyWeights {
    blocks: Vec<BigUint>,
    steps: Vec<BigUint>,
}

impl ShapleyWeights {
    /// The weights of an `m`-player game (none for `m = 0`).
    ///
    /// # Panics
    /// Panics if `m - 1` exceeds the table size.
    pub fn new(table: &FactorialTable, m: usize) -> Self {
        let Some(last) = m.checked_sub(1) else {
            return ShapleyWeights::default();
        };
        let mut blocks = Vec::with_capacity(m.div_ceil(WEIGHT_BLOCK));
        let mut steps = Vec::with_capacity(m);
        for a in (0..m).step_by(WEIGHT_BLOCK) {
            let z = (a + WEIGHT_BLOCK).min(m) - 1;
            blocks.push(table.factorial(a) * table.factorial(last - z));
            // w[a] = a!·(m-1-z)! · (m-z)·…·(m-1-a).
            let mut step = BigUint::one();
            for i in last - z + 1..=last - a {
                step.mul_u64_assign(i as u64);
            }
            steps.push(step.clone());
            for k in a..z {
                step.mul_u64_assign((k + 1) as u64);
                let rem = step.div_rem_u64_assign((last - k) as u64);
                debug_assert_eq!(rem, 0, "k!(m-1-k)! ratios divide exactly");
                steps.push(step.clone());
            }
        }
        ShapleyWeights { blocks, steps }
    }

    /// The number of players `m` (one weight per coalition size `< m`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is this the empty game?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// `Σ_k (plus[k] − minus[k])·w[k]` — a signed count vector, given
    /// as two unsigned halves of length `m`, weighted by the numerators.
    pub fn contract(&self, plus: &[BigUint], minus: &[BigUint]) -> BigInt {
        debug_assert_eq!(plus.len(), self.len());
        debug_assert_eq!(minus.len(), self.len());
        let mut pos = BigUint::zero();
        let mut neg = BigUint::zero();
        let chunks = plus
            .chunks(WEIGHT_BLOCK)
            .zip(minus.chunks(WEIGHT_BLOCK))
            .zip(self.steps.chunks(WEIGHT_BLOCK));
        for (((p, n), steps), block) in chunks.zip(&self.blocks) {
            let mut block_pos = BigUint::zero();
            let mut block_neg = BigUint::zero();
            for ((p, n), step) in p.iter().zip(n).zip(steps) {
                let diff = BigInt::signed_diff(p, n);
                if diff.is_zero() {
                    continue;
                }
                let term = diff.magnitude() * step;
                if diff.is_negative() {
                    block_neg += &term;
                } else {
                    block_pos += &term;
                }
            }
            if !block_pos.is_zero() {
                pos += &(&block_pos * block);
            }
            if !block_neg.is_zero() {
                neg += &(&block_neg * block);
            }
        }
        BigInt::signed_diff(&pos, &neg)
    }
}

/// A cache of `0! ..= n!` plus derived Shapley permutation weights.
#[derive(Debug, Clone)]
pub struct FactorialTable {
    facts: Vec<BigUint>,
    primes: Vec<u64>,
}

impl FactorialTable {
    /// Builds the table for factorials up to `n!` inclusive.
    pub fn new(n: usize) -> Self {
        let mut facts = Vec::with_capacity(n + 1);
        facts.push(BigUint::one());
        for i in 1..=n as u64 {
            #[expect(
                clippy::expect_used,
                reason = "the table is seeded with 0! so last() is always Some"
            )]
            let next = facts.last().expect("nonempty").mul_u64(i);
            facts.push(next);
        }
        FactorialTable {
            facts,
            primes: primes_up_to(n),
        }
    }

    /// Reduces `num / m!` to lowest terms *without* a general gcd:
    /// `m!`'s prime factorization is known in closed form (Legendre),
    /// so the common factor is found by stripping exactly those primes
    /// from `num` — chunked `u64` powers, a few short divisions per
    /// prime — instead of running a big-number gcd against `m!`. This
    /// is the per-fact normalization of every batched Shapley value, so
    /// its cost is the report's tail at large `m`.
    ///
    /// # Panics
    /// Panics if `m` exceeds the table size.
    pub fn reduce_over_factorial(&self, num: BigInt, m: usize) -> BigRational {
        assert!(m <= self.max_n(), "factorial {m}! beyond the table");
        if num.is_zero() {
            return BigRational::zero();
        }
        let sign = num.sign();
        let mut mag = num.into_magnitude();
        let mut den = BigUint::one();
        for &p in &self.primes {
            if p > m as u64 {
                break;
            }
            let e = factorial_valuation(m, p);
            let stripped = strip_prime(&mut mag, p, e);
            let mut rest = e - stripped;
            while rest > 0 {
                let mut chunk = p;
                let mut q = 1usize;
                while q < rest {
                    match chunk.checked_mul(p) {
                        Some(next) => {
                            chunk = next;
                            q += 1;
                        }
                        None => break,
                    }
                }
                den.mul_u64_assign(chunk);
                rest -= q;
            }
        }
        BigRational::from_coprime_parts(BigInt::from_sign_magnitude(sign, mag), den)
    }

    /// Largest `n` with `n!` in the table.
    pub fn max_n(&self) -> usize {
        self.facts.len() - 1
    }

    /// Returns `n!`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the table size.
    pub fn factorial(&self, n: usize) -> &BigUint {
        &self.facts[n]
    }

    /// Returns `C(n, k)` using the cached factorials.
    ///
    /// # Panics
    /// Panics if `n` exceeds the table size.
    pub fn binomial(&self, n: usize, k: usize) -> BigUint {
        if k > n {
            return BigUint::zero();
        }
        let num = self.factorial(n);
        let den = self.factorial(k) * self.factorial(n - k);
        let (q, r) = num.div_rem(&den);
        debug_assert!(r.is_zero());
        q
    }

    /// The numerator `k!·(m-1-k)!` of the Shapley permutation weight.
    ///
    /// Accumulating `Σ_k k!(m-1-k)!·diff_k` over the *common* denominator
    /// `m!` (one normalization at the end) avoids the per-term gcd that a
    /// rational-by-rational sum would pay on every coalition size.
    ///
    /// # Panics
    /// Panics if `k >= m` or `m - 1` exceeds the table size.
    pub fn shapley_weight_numerator(&self, m: usize, k: usize) -> BigUint {
        assert!(k < m, "coalition size {k} must be < number of players {m}");
        self.factorial(k) * self.factorial(m - 1 - k)
    }

    /// The Shapley permutation weight `k!·(m-1-k)!/m!`: the probability
    /// that a fixed player arrives exactly after a fixed `k`-subset of the
    /// remaining `m-1` players in a uniformly random permutation of `m`.
    ///
    /// # Panics
    /// Panics if `k >= m` or `m` exceeds the table size.
    pub fn shapley_weight(&self, m: usize, k: usize) -> BigRational {
        assert!(k < m, "coalition size {k} must be < number of players {m}");
        let num = self.factorial(k) * self.factorial(m - 1 - k);
        BigRational::from_parts(BigInt::from_biguint(num), self.factorial(m).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials() {
        assert_eq!(factorial(0), BigUint::one());
        assert_eq!(factorial(1), BigUint::one());
        assert_eq!(factorial(5), BigUint::from_u64(120));
        assert_eq!(factorial(20), BigUint::from_u64(2_432_902_008_176_640_000));
    }

    #[test]
    fn large_factorial_digits() {
        // 100! has 158 decimal digits and starts with 9332621544.
        let f = factorial(100);
        let s = f.to_string();
        assert_eq!(s.len(), 158);
        assert!(s.starts_with("9332621544"));
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(0, 0), BigUint::one());
        assert_eq!(binomial(5, 2), BigUint::from_u64(10));
        assert_eq!(binomial(10, 10), BigUint::one());
        assert_eq!(binomial(10, 11), BigUint::zero());
        assert_eq!(binomial(52, 5), BigUint::from_u64(2_598_960));
    }

    #[test]
    fn binomial_symmetry_and_pascal() {
        for n in 0..20usize {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
                if n > 0 && k > 0 {
                    assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
                }
            }
        }
    }

    #[test]
    fn row_sums_are_powers_of_two() {
        for n in 0..30usize {
            let sum = (0..=n).fold(BigUint::zero(), |acc, k| acc + binomial(n, k));
            assert_eq!(sum, BigUint::one() << n);
        }
    }

    #[test]
    fn binomial_cache_rows_match_free_function() {
        let cache = BinomialCache::new();
        for n in [0usize, 1, 5, 40] {
            let row = cache.row(n);
            assert_eq!(row.len(), n + 1);
            for (k, c) in row.iter().enumerate() {
                assert_eq!(*c, binomial(n, k), "C({n}, {k})");
            }
            // Second lookup shares the same allocation.
            assert!(Arc::ptr_eq(&row, &cache.row(n)));
        }
    }

    #[test]
    fn table_matches_free_functions() {
        let t = FactorialTable::new(40);
        assert_eq!(t.max_n(), 40);
        for n in 0..=40usize {
            assert_eq!(*t.factorial(n), factorial(n));
        }
        for n in 0..=40usize {
            for k in 0..=n {
                assert_eq!(t.binomial(n, k), binomial(n, k));
            }
        }
    }

    #[test]
    fn ratio_weights_match_factorial_products() {
        let t = FactorialTable::new(130);
        for m in (0..=64usize).chain([95, 96, 97, 130]) {
            let w = ShapleyWeights::new(&t, m);
            assert_eq!(w.len(), m, "m={m}");
            let zeros = vec![BigUint::zero(); m];
            for k in 0..m {
                // Contracting the unit vector e_k reads off w[k].
                let mut unit = zeros.clone();
                unit[k] = BigUint::one();
                let want = factorial(k) * factorial(m - 1 - k);
                assert_eq!(
                    w.contract(&unit, &zeros),
                    BigInt::from_biguint(want),
                    "m={m}, k={k}"
                );
            }
        }
    }

    #[test]
    fn blocked_contraction_matches_the_plain_dot_product() {
        let t = FactorialTable::new(100);
        for m in [0usize, 1, 2, 31, 32, 33, 64, 100] {
            let w = ShapleyWeights::new(&t, m);
            // Coefficients of mixed sign and size, with zero runs.
            let plus: Vec<BigUint> = (0..m)
                .map(|k| match k % 5 {
                    0 => BigUint::zero(),
                    1 => factorial(k % 23),
                    _ => BigUint::from_u64((k * k) as u64),
                })
                .collect();
            let minus: Vec<BigUint> = (0..m)
                .map(|k| match k % 3 {
                    0 => BigUint::from_u64(k as u64 + 7),
                    _ => BigUint::zero(),
                })
                .collect();
            let mut want = BigInt::zero();
            for k in 0..m {
                let weight = factorial(k) * factorial(m - 1 - k);
                want += &(BigInt::signed_diff(&plus[k], &minus[k]) * BigInt::from_biguint(weight));
            }
            assert_eq!(w.contract(&plus, &minus), want, "m={m}");
            assert_eq!(w.contract(&minus, &plus), -want, "m={m} negated");
        }
    }

    #[test]
    fn shapley_weights_sum_over_subsets_to_one() {
        // Σ_k C(m-1, k) · k!(m-1-k)!/m! = Σ_k 1/m = 1... no: it equals 1
        // because each of the m positions of the player is equally likely.
        let t = FactorialTable::new(12);
        for m in 1..=12usize {
            let sum = (0..m).fold(BigRational::zero(), |acc, k| {
                acc + BigRational::from(t.binomial(m - 1, k)) * t.shapley_weight(m, k)
            });
            assert_eq!(sum, BigRational::one(), "m={m}");
        }
    }
}
