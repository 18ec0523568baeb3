//! Exact factorials, binomial coefficients and Shapley weights.
//!
//! The Shapley formula weights each coalition size `k` by
//! `k!(m-1-k)!/m!`, and the counting algorithms of Lemma 3.2 combine
//! binomial coefficients of free endogenous facts, so these show up in
//! every inner loop of the exact pipeline. [`ShapleyWeights`] carries
//! the weights over their least common denominator `lcm(1..m)`;
//! [`FactorialTable`] amortizes the factorials of the `m!` route that
//! the per-fact oracles keep.

use std::cmp::Ordering;
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
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass building a Pascal row of n + 1 entries
    pub fn row(&self, n: usize) -> Arc<Vec<BigUint>> {
        let mut rows = self
            .rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rows.entry(n)
            .or_insert_with(|| {
                let mut row = Vec::with_capacity(n + 1);
                let mut entry = BigUint::one();
                for k in 0..n {
                    let mut next = entry.mul_u64((n - k) as u64);
                    let rem = next.div_rem_u64_assign((k + 1) as u64);
                    debug_assert_eq!(rem, 0, "Pascal row entries divide exactly");
                    row.push(std::mem::replace(&mut entry, next));
                }
                row.push(entry);
                Arc::new(row)
            })
            .clone()
    }
}

/// The primes `≤ n`, by Eratosthenes.
// cqshap-lint: allow(cancellation-reachability) -- bounded: a sieve up to the fact count, O(n log log n) word steps
fn primes_up_to(n: usize) -> Vec<u64> {
    let mut composite = vec![false; n + 1];
    let mut out = Vec::new();
    for p in 2..=n {
        if composite.get(p) == Some(&true) {
            continue;
        }
        out.push(p as u64);
        for slot in composite.iter_mut().skip(p.saturating_mul(p)).step_by(p) {
            *slot = true;
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
// cqshap-lint: allow(cancellation-reachability) -- bounded: at most `max` word divisions
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

/// `gcd(a, b)` of two words, by Euclid.
// cqshap-lint: allow(cancellation-reachability) -- bounded: Euclid on two words takes at most 93 steps
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Prime powers `p^e` of `lcm(1..m)` packed into one word modulus.
#[derive(Debug, Clone)]
struct PrimePowers {
    /// The product of the group's `p^e`, below `2^64`.
    modulus: u64,
    /// `(p, e)` with `p^e ≤ m < p^(e+1)`.
    primes: Vec<(u64, u32)>,
}

/// `lcm(1..m) = Π_{p ≤ m} p^⌊log_p m⌋`, its prime powers packed
/// greedily into word moduli.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the primes up to m, at most log_p(m) steps each
fn lcm_prime_powers(m: usize) -> Vec<PrimePowers> {
    let mut groups: Vec<PrimePowers> = Vec::new();
    for p in primes_up_to(m) {
        let e = prime_exponent(p, m);
        let power = p.pow(e);
        match groups.last_mut() {
            Some(g) if g.modulus.checked_mul(power).is_some() => {
                g.modulus *= power;
                g.primes.push((p, e));
            }
            _ => groups.push(PrimePowers {
                modulus: power,
                primes: vec![(p, e)],
            }),
        }
    }
    groups
}

/// The common denominator `lcm(1..m)` of an `m`-player game's Shapley
/// values, as its prime powers packed into word moduli. It reduces a
/// numerator over `lcm(1..m)` to lowest terms, and lifts a numerator
/// over a smaller game's `lcm(1..k)` to it.
#[derive(Debug, Clone, Default)]
pub struct LcmDenominator {
    /// The number of players `m`.
    players: usize,
    /// `lcm(1..m)`'s prime powers, packed into word moduli.
    moduli: Vec<PrimePowers>,
}

impl LcmDenominator {
    /// `lcm(1..m)` (the unit for `m = 0`).
    pub fn new(m: usize) -> Self {
        LcmDenominator {
            players: m,
            moduli: lcm_prime_powers(m),
        }
    }

    /// The number of players `m`.
    pub fn players(&self) -> usize {
        self.players
    }

    /// `lcm(1..m) / lcm(1..k)` for `k ≤ m`: the integer that carries a
    /// numerator over a `k`-player game's denominator to this one's.
    /// Each prime `p ≤ m` contributes `p^(⌊log_p m⌋ − ⌊log_p k⌋)`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over lcm(1..m)'s primes, at most log_p(m) word products each
    pub fn lift_from(&self, k: usize) -> BigUint {
        debug_assert!(
            k <= self.players,
            "lift from {k} to {} players",
            self.players
        );
        let mut lift = BigUint::one();
        let mut word = 1u64;
        for &(p, e) in self.moduli.iter().flat_map(|g| &g.primes) {
            for _ in prime_exponent(p, k)..e {
                word = match word.checked_mul(p) {
                    Some(w) => w,
                    None => {
                        lift.mul_u64_assign(word);
                        p
                    }
                };
            }
        }
        lift.mul_u64_assign(word);
        lift
    }

    /// `num / lcm(1..m)` in lowest terms, without a general gcd: each
    /// prime `p ≤ m` divides the denominator `⌊log_p m⌋` times, so one
    /// word remainder per packed group of prime powers tells how often
    /// each of its primes divides `num` (up to that bound), and one word
    /// division strips them all. This is the per-value normalization of
    /// every batched Shapley report.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over lcm(1..m)'s packed prime groups, at most log_p(m) steps per prime
    pub fn reduce(&self, num: BigInt) -> BigRational {
        if num.is_zero() {
            return BigRational::zero();
        }
        let sign = num.sign();
        let mut mag = num.into_magnitude();
        let mut den = BigUint::one();
        for group in &self.moduli {
            // p^j | num ⟺ p^j | num mod modulus, for every j ≤ e.
            let rem = mag.rem_u64(group.modulus);
            let mut strip = 1u64;
            for &(p, e) in &group.primes {
                let mut r = rem;
                for _ in 0..e {
                    if !r.is_multiple_of(p) {
                        break;
                    }
                    r /= p;
                    strip *= p;
                }
            }
            if strip > 1 {
                mag.div_rem_u64_assign(strip);
            }
            if strip < group.modulus {
                den.mul_u64_assign(group.modulus / strip);
            }
        }
        BigRational::from_coprime_parts(BigInt::from_sign_magnitude(sign, mag), den)
    }
}

/// `⌊log_p k⌋`: the exponent of the prime `p` in `lcm(1..k)`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: at most log_p(k) word products
fn prime_exponent(p: u64, k: usize) -> u32 {
    let (mut power, mut e) = (1u64, 0u32);
    while power.checked_mul(p).is_some_and(|q| q <= k as u64) {
        power *= p;
        e += 1;
    }
    e
}

/// All Shapley weights of an `m`-player game over their common
/// denominator `lcm(1..m)`: `ω_t = lcm(1..m)·t!(m−1−t)!/m!`, `t < m`.
/// Each `ω_t` is an integer, because `t!(m−1−t)!/m! = 1/(m·C(m−1,t))`
/// and `lcm_t C(m−1,t) = lcm(1..m)/m`. At `m = 1024` the weights have
/// 1,479 bits, where the `m!` numerators `t!(m−1−t)!` have up to 8,770.
///
/// The weights are stored in blocked form `ω_t = block[t / B]·step[t]`
/// with `B = ⌊64 / bitlen(m−1)⌋ + 1` sizes per block, so that every
/// cofactor is a word. Inside the block of sizes `a..=z`, the ratio
/// `ω_{t+1} = ω_t·(t+1)/(m−1−t)` gives `ω_t = ω_a·s_t/P` with the word
/// products `P = Π_{a≤k<z}(m−1−k)` and
/// `s_t = Π_{a≤k<t}(k+1) · Π_{t≤k<z}(m−1−k)` (`B − 1` factors each).
/// With `g = gcd(ω_a, P)` and `D = P/g`, `ω_t = (ω_a/g)·s_t/D` is an
/// integer and `ω_a/g` is coprime to `D`, so `D` divides every `s_t`:
/// the block factor is `ω_a/g` and the steps are `s_t/D`.
///
/// [`ShapleyWeights::contract_lifted`] weights the lift `d ⊛ E` of a
/// short difference vector through an environment in one pass over `E`,
/// with one big product per block; [`ShapleyWeights::contract`] weights
/// a materialized count vector with one word multiply-add per size; and
/// [`ShapleyWeights::reduce`] puts the result over `lcm(1..m)` in lowest
/// terms with one word remainder per packed group of prime powers.
#[derive(Debug, Clone, Default)]
pub struct ShapleyWeights {
    /// `ω_a / g` per block of sizes.
    blocks: Vec<BigUint>,
    /// `ω_t / block` per coalition size.
    steps: Vec<u64>,
    /// Coalition sizes per block, `B`.
    block_len: usize,
    /// `lcm(1..m)`, the weights' common denominator.
    denominator: LcmDenominator,
}

impl ShapleyWeights {
    /// The weights of an `m`-player game (none for `m = 0`).
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the m coalition sizes, one word product per block
    pub fn new(m: usize) -> Self {
        let Some(last) = m.checked_sub(1) else {
            return ShapleyWeights::default();
        };
        let denominator = LcmDenominator::new(m);
        // ω_0 = lcm(1..m)/m.
        let mut omega = BigUint::one();
        for g in &denominator.moduli {
            omega.mul_u64_assign(g.modulus);
        }
        let rem = omega.div_rem_u64_assign(m as u64);
        debug_assert_eq!(rem, 0, "m divides lcm(1..m)");
        let factor_bits = (usize::BITS - last.leading_zeros()).max(1) as usize;
        let block_len = 64 / factor_bits + 1;
        let mut blocks = Vec::with_capacity(m.div_ceil(block_len));
        let mut steps = Vec::with_capacity(m);
        for a in (0..m).step_by(block_len) {
            let z = (a + block_len).min(m) - 1;
            // P = Π_{a≤k<z}(m−1−k): at most B − 1 factors ≤ m − 1.
            let p: u64 = (a..z).map(|k| (last - k) as u64).product();
            let g = gcd_u64(omega.rem_u64(p), p);
            let d = p / g;
            let mut block = std::mem::take(&mut omega);
            let rem = block.div_rem_u64_assign(g);
            debug_assert_eq!(rem, 0, "g divides ω_a");
            // s_a = P, then s_{t+1} = s_t/(m−1−t)·(t+1).
            let mut s = p;
            let mut step = 0;
            for t in a..=z {
                debug_assert_eq!(s % d, 0, "D divides every cofactor of its block");
                step = s / d;
                steps.push(step);
                if t < z {
                    s = s / (last - t) as u64 * (t + 1) as u64;
                }
            }
            // ω_{z+1} = ω_z·(z+1)/(m−1−z), for the next block.
            if z < last {
                omega = block.mul_u64(step);
                omega.mul_u64_assign((z + 1) as u64);
                let rem = omega.div_rem_u64_assign((last - z) as u64);
                debug_assert_eq!(rem, 0, "ω_{{t+1}} = ω_t·(t+1)/(m−1−t) is an integer");
            }
            blocks.push(block);
        }
        ShapleyWeights {
            blocks,
            steps,
            block_len,
            denominator,
        }
    }

    /// The number of players `m` (one weight per coalition size `< m`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is this the empty game?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// `Σ_t (plus[t] − minus[t])·ω_t` — a signed count vector, given
    /// as two unsigned halves of length `m`, weighted over the common
    /// denominator `lcm(1..m)`. Each block accumulates both halves
    /// against its word steps and multiplies their difference by the
    /// block factor once. The materialized form of
    /// [`ShapleyWeights::contract_lifted`], kept as its oracle.
    pub fn contract(&self, plus: &[BigUint], minus: &[BigUint]) -> BigInt {
        debug_assert_eq!(plus.len(), self.len());
        debug_assert_eq!(minus.len(), self.len());
        let mut total = Signed::default();
        // The empty game has no blocks (and a zero block length).
        let b = self.block_len.max(1);
        let chunks = plus
            .chunks(b)
            .zip(minus.chunks(b))
            .zip(self.steps.chunks(b));
        for (((p, n), steps), block) in chunks.zip(&self.blocks) {
            let mut acc = Signed::default();
            for ((p, n), &step) in p.iter().zip(n).zip(steps) {
                acc.pos.add_mul_u64_assign(p, step);
                acc.neg.add_mul_u64_assign(n, step);
            }
            total.add_scaled(acc, block);
        }
        total.into_bigint()
    }

    /// `Σ_t (d ⊛ env)[t]·ω_t` over the common denominator `lcm(1..m)`,
    /// without materializing the lift `d ⊛ env`: the Shapley numerator
    /// of a fact whose masked difference vector is `d` and whose
    /// environment is `env` (`len(d) + len(env) − 1 = m`).
    ///
    /// Swapping the sums gives `Σ_s env[s]·Σ_j d_j·ω_{s+j}`. Per block
    /// `b` of sizes and per `s`, the coefficient
    /// `c_{s,b} = Σ_{j : s+j ∈ b} d_j·step_{s+j}` is a short sum of word
    /// products, accumulated in a `u128` and widened to a [`BigUint`]
    /// when it overflows or a `d_j` is wider than a word. `env[s]·c_{s,b}`
    /// is multiply-added into the block's positive or negative
    /// accumulator, and each block is multiplied by its big factor once,
    /// as in [`ShapleyWeights::contract`]. An entry `env[s]` feeds at
    /// most `1 + ⌈(len(d) − 1)/B⌉` blocks. The multiply-adds are counted
    /// under `compiled.contract.terms` when a recorder is installed.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the weight blocks, each over the environment entries that reach it
    pub fn contract_lifted(&self, d: &[BigInt], env: &[BigUint]) -> BigInt {
        debug_assert_eq!(d.len() + env.len(), self.len() + 1);
        let words: Option<Vec<(u64, bool)>> = d
            .iter()
            .map(|dj| dj.magnitude().to_u64().map(|w| (w, dj.is_negative())))
            .collect();
        let reach = d.len().saturating_sub(1);
        let b = self.block_len.max(1);
        let mut total = Signed::default();
        let mut terms = 0u64;
        for ((steps, block), a) in self.steps.chunks(b).zip(&self.blocks).zip((0..).step_by(b)) {
            // The block holds sizes `a..=z`; `env[s]` reaches it iff
            // `s ≤ z < s + len(d) + B − 1`, i.e. `a − reach ≤ s ≤ z`.
            let z = a + steps.len() - 1;
            let first = a.saturating_sub(reach);
            let mut acc = Signed::default();
            for (s, e) in env.iter().enumerate().take(z + 1).skip(first) {
                if e.is_zero() {
                    continue;
                }
                // Sizes `t = s + j` of this block that `d` reaches.
                let lo = a.max(s);
                let len = z.min(s + reach) + 1 - lo;
                let pairs = steps.iter().skip(lo - a).take(len);
                let coefficient = words
                    .as_deref()
                    .and_then(|w| word_coefficient(w.iter().skip(lo - s).zip(pairs.clone())))
                    .unwrap_or_else(|| wide_coefficient(d.iter().skip(lo - s).zip(pairs)));
                if acc.add_mul(e, coefficient) {
                    terms += 1;
                }
            }
            total.add_scaled(acc, block);
        }
        debug_assert!(terms <= (env.len() * (1 + reach.div_ceil(b))) as u64);
        if cqshap_obs::enabled() {
            cqshap_obs::counter(cqshap_obs::phase::CTR_CONTRACT_TERMS, terms);
        }
        total.into_bigint()
    }

    /// `num / lcm(1..m)` in lowest terms ([`LcmDenominator::reduce`]).
    pub fn reduce(&self, num: BigInt) -> BigRational {
        self.denominator.reduce(num)
    }
}

/// A signed sum kept as two unsigned halves, `pos − neg`.
#[derive(Default)]
struct Signed {
    pos: BigUint,
    neg: BigUint,
}

/// One contraction coefficient `c_{s,b}`: a sign (`true` when
/// negative) and a magnitude that fits a `u128` or was widened.
enum Coefficient {
    Word(bool, u128),
    Wide(bool, BigUint),
}

impl Signed {
    /// `self += e·c`; `false` when `c = 0` and nothing was added.
    fn add_mul(&mut self, e: &BigUint, c: Coefficient) -> bool {
        match c {
            Coefficient::Word(_, 0) => return false,
            Coefficient::Word(negative, c) => self.half(negative).add_mul_u128_assign(e, c),
            Coefficient::Wide(_, c) if c.is_zero() => return false,
            Coefficient::Wide(negative, c) => *self.half(negative) += &(e * &c),
        }
        true
    }

    fn half(&mut self, negative: bool) -> &mut BigUint {
        if negative {
            &mut self.neg
        } else {
            &mut self.pos
        }
    }

    /// `self += (block.pos − block.neg)·factor`, one big product.
    fn add_scaled(&mut self, block: Signed, factor: &BigUint) {
        match block.pos.cmp(&block.neg) {
            Ordering::Greater => self.pos += &(&(block.pos - block.neg) * factor),
            Ordering::Less => self.neg += &(&(block.neg - block.pos) * factor),
            Ordering::Equal => {}
        }
    }

    fn into_bigint(self) -> BigInt {
        BigInt::signed_diff(&self.pos, &self.neg)
    }
}

/// `Σ d_j·step` over signed word entries, in `u128`; `None` on overflow.
// cqshap-lint: allow(cancellation-reachability) -- bounded: at most one weight block's word products
fn word_coefficient<'a>(
    pairs: impl Iterator<Item = (&'a (u64, bool), &'a u64)>,
) -> Option<Coefficient> {
    let (mut pos, mut neg) = (0u128, 0u128);
    for (&(dj, negative), &step) in pairs {
        let term = dj as u128 * step as u128;
        let half = if negative { &mut neg } else { &mut pos };
        *half = half.checked_add(term)?;
    }
    Some(if pos >= neg {
        Coefficient::Word(false, pos - neg)
    } else {
        Coefficient::Word(true, neg - pos)
    })
}

/// `Σ d_j·step` with no width limit: the widened coefficient.
// cqshap-lint: allow(cancellation-reachability) -- bounded: at most one weight block's word products
fn wide_coefficient<'a>(pairs: impl Iterator<Item = (&'a BigInt, &'a u64)>) -> Coefficient {
    let mut sum = Signed::default();
    for (dj, &step) in pairs {
        sum.half(dj.is_negative())
            .add_mul_u64_assign(dj.magnitude(), step);
    }
    match sum.pos.cmp(&sum.neg) {
        Ordering::Less => Coefficient::Wide(true, sum.neg - sum.pos),
        _ => Coefficient::Wide(false, sum.pos - sum.neg),
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
    // cqshap-lint: allow(cancellation-reachability) -- bounded: n word multiplications
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
    /// prime — instead of running a big-number gcd against `m!`. The
    /// per-fact oracle normalizes through it; batched reports reduce
    /// over `lcm(1..m)` with [`ShapleyWeights::reduce`].
    ///
    /// # Panics
    /// Panics if `m` exceeds the table size.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the primes up to m, at most log_p(m) chunks each
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
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: n beyond the table is a caller bug"
    )]
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

    /// `lcm(1..m)` by a gcd fold, independent of the packed prime powers.
    fn lcm_upto(m: usize) -> BigUint {
        (1..=m as u64).fold(BigUint::one(), |acc, i| {
            let i = BigUint::from_u64(i);
            let g = acc.gcd(&i);
            (&acc * &i).div_rem(&g).0
        })
    }

    #[test]
    fn binomial_row_lcm_is_lcm_over_m_and_every_weight_is_an_integer() {
        let t = FactorialTable::new(200);
        for m in 1..200usize {
            let lcm = lcm_upto(m);
            let row_lcm = (0..m).fold(BigUint::one(), |acc, k| {
                let c = binomial(m - 1, k);
                let g = acc.gcd(&c);
                (&acc * &c).div_rem(&g).0
            });
            assert_eq!(row_lcm.mul_u64(m as u64), lcm, "m={m}");
            for k in 0..m {
                let (_, r) = (&lcm * &t.shapley_weight_numerator(m, k)).div_rem(t.factorial(m));
                assert!(r.is_zero(), "ω_{k} of m={m} is not an integer");
            }
        }
    }

    /// The sizes that stress the layout: the empty and tiny games,
    /// block boundaries (`B = 7` at `m = 65..=128`, `B = 6` up to 256),
    /// and `m = 127, 128, 129`, where `lcm(1..m)` gains `2^7`.
    const SIZES: [usize; 16] = [0, 1, 2, 3, 6, 7, 8, 13, 14, 15, 64, 65, 127, 128, 129, 130];

    #[test]
    fn unit_contractions_read_off_the_lcm_weights() {
        let t = FactorialTable::new(130);
        for m in SIZES {
            let w = ShapleyWeights::new(m);
            assert_eq!(w.len(), m, "m={m}");
            let lcm = lcm_upto(m);
            let zeros = vec![BigUint::zero(); m];
            for k in 0..m {
                // Contracting the unit vector e_k reads off ω_k.
                let mut unit = zeros.clone();
                unit[k] = BigUint::one();
                let (want, _) = (&lcm * &t.shapley_weight_numerator(m, k)).div_rem(t.factorial(m));
                let got = w.contract(&unit, &zeros);
                assert_eq!(got, BigInt::from_biguint(want), "m={m}, k={k}");
                assert_eq!(w.reduce(got), t.shapley_weight(m, k), "m={m}, k={k}");
            }
        }
    }

    #[test]
    fn lcm_route_matches_the_factorial_route() {
        let t = FactorialTable::new(130);
        for m in SIZES {
            let w = ShapleyWeights::new(m);
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
                let weight = t.shapley_weight_numerator(m, k);
                want += &(BigInt::signed_diff(&plus[k], &minus[k]) * BigInt::from_biguint(weight));
            }
            let want = t.reduce_over_factorial(want, m);
            assert_eq!(w.reduce(w.contract(&plus, &minus)), want, "m={m}");
            assert_eq!(w.reduce(w.contract(&minus, &plus)), -want, "m={m} negated");
        }
    }

    #[test]
    fn word_coefficients_refuse_to_overflow() {
        // Full-word entries against full-word steps overflow the u128
        // sum; the widened coefficient is exact.
        let d = [
            (u64::MAX, false),
            (u64::MAX, false),
            (u64::MAX, true),
            (u64::MAX, false),
        ];
        let steps = [u64::MAX; 4];
        assert!(word_coefficient(d.iter().zip(&steps)).is_none());
        let wide: Vec<BigInt> = d
            .iter()
            .map(|&(w, negative)| {
                let w = BigInt::from_biguint(BigUint::from_u64(w));
                if negative {
                    -w
                } else {
                    w
                }
            })
            .collect();
        let Coefficient::Wide(false, c) = wide_coefficient(wide.iter().zip(&steps)) else {
            panic!("expected a positive widened coefficient");
        };
        let w = BigUint::from_u64(u64::MAX);
        assert_eq!(c, &(&w * &w) * &BigUint::from_u64(2));
        // A sum that fits stays a word coefficient, with its sign.
        let fits = [(3, true), (1, false)];
        assert!(matches!(
            word_coefficient(fits.iter().zip(&[5, 7])),
            Some(Coefficient::Word(true, 8))
        ));
    }

    #[test]
    fn reduce_strips_each_prime_at_most_its_lcm_exponent() {
        // 2^7 | lcm(1..128); 2^8 does not.
        let w = ShapleyWeights::new(128);
        let over = |num: u64| w.reduce(BigInt::from_u64(num));
        assert_eq!(over(0), BigRational::zero());
        let lcm = BigRational::from(lcm_upto(128));
        assert_eq!(over(1), BigRational::one() / lcm.clone());
        assert_eq!(over(1 << 7), BigRational::from(1i64 << 7) / lcm.clone());
        assert_eq!(over(1 << 9), BigRational::from(1i64 << 9) / lcm);
        // The empty game's denominator is 1.
        assert_eq!(
            ShapleyWeights::new(0).reduce(BigInt::from_i64(-5)),
            BigRational::from(-5i64)
        );
    }

    #[test]
    fn lifts_are_quotients_of_the_lcms() {
        for m in [0usize, 1, 2, 7, 8, 9, 64, 127, 128, 129, 300] {
            let den = LcmDenominator::new(m);
            assert_eq!(den.players(), m);
            let lcm_m = lcm_upto(m);
            for k in [0, 1, m / 3, m / 2, m.saturating_sub(1), m]
                .into_iter()
                .filter(|&k| k <= m)
            {
                let (q, r) = lcm_m.div_rem(&lcm_upto(k));
                assert!(r.is_zero(), "lcm(1..{k}) divides lcm(1..{m})");
                assert_eq!(den.lift_from(k), q, "lcm(1..{m})/lcm(1..{k})");
            }
            // A value over the smaller game reduces identically once
            // lifted to the larger denominator.
            let small = LcmDenominator::new(m / 2);
            let num = BigInt::from_i64(-36);
            let lifted =
                BigInt::from_sign_magnitude(num.sign(), num.magnitude() * &den.lift_from(m / 2));
            assert_eq!(den.reduce(lifted), small.reduce(num), "m = {m}");
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
