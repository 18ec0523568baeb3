//! Fast polynomial arithmetic over [`BigUint`] coefficient vectors —
//! the convolution subsystem behind the counting engines.
//!
//! Every hierarchical Shapley computation reduces to products of
//! *count polynomials*: vectors `v` where `v[k]` counts the
//! `k`-subsets with some property, and composing counts over disjoint
//! fact sets is exactly polynomial multiplication. At small `m` the
//! schoolbook `O(n²)` product is unbeatable; the `m ≥ 4096` regime is
//! dominated by products of polynomials with thousands of coefficients
//! of thousands of bits each, where it is hopeless. This module
//! provides:
//!
//! * [`mul`] — size-dispatched multiplication: schoolbook for tiny
//!   operands, [Karatsuba](mul_with) in a middle band, and a
//!   multi-prime NTT (number-theoretic transform) over 62-bit primes
//!   with CRT reconstruction of the big coefficients for large ones.
//!   All backends are exact and produce identical vectors.
//! * [`exact_div`] — exact polynomial division (the factor-swap
//!   primitive of incremental engine maintenance).
//! * [`pascal_up`] / [`pascal_down`] — `O(n)` multiplication/division
//!   by the Pascal factor `[1, 1]` (binomial shifts of junk facts).
//! * [`product_tree`] / [`leave_one_out_products`] — products over many
//!   factors: repeated factors raised as powers, the rest multiplied
//!   by divide-and-conquer trees that fan the independent subtree
//!   products out across scoped threads. Both poll an optional
//!   [`CancelToken`] and return [`NumericError::Cancelled`] once it
//!   trips.
//!
//! ## Backend dispatch
//!
//! [`mul`] picks the backend from the operand *shapes* — lengths and
//! maximal coefficient bit lengths:
//!
//! * `min(len) <` [`KARATSUBA_MIN`] (= 24): schoolbook,
//!   unconditionally — the quadratic loop with no overhead wins
//!   outright on short operands, and it skips zero coefficients.
//! * otherwise a coarse work model compares the three candidates and
//!   picks the cheapest (`estimate` in the source):
//!   - schoolbook ≈ `la·lb·wa·wb` word multiplications
//!     (`w` = coefficient width in limbs),
//!   - Karatsuba ≈ `4·⌈max/min⌉·min^1.585·wa·wb` (balanced blocks of
//!     `O(n^1.585)` coefficient products),
//!   - NTT ≈ transforms `4·t·n·log n` + limb reductions
//!     `10·t·(la·wa + lb·wb)` + Garner CRT `t²·out`, where
//!     `t = ⌈bits/62⌉ + 1` is the prime count.
//!
//!   The model is what routes the *asymmetric* products of the
//!   leave-one-out descent (a long, huge-coefficient accumulator times
//!   a short, small-coefficient factor) back to schoolbook — a pure
//!   length threshold picks the NTT there and loses an order of
//!   magnitude, because the prime count is driven by the big side
//!   while schoolbook's cost shrinks with the small side.
//!
//! The NTT backend reduces the coefficients modulo `t` NTT-friendly
//! primes (`p = k·2^22 + 1 > 2^62`, generated once and cached
//! process-wide), convolves each residue vector in `O(n log n)` via
//! Montgomery arithmetic, and reconstructs the exact big coefficients
//! with Garner's mixed-radix CRT. The prime count adapts to the actual
//! coefficient magnitudes, so small-coefficient products near a
//! product tree's leaves stay cheap. Products whose result exceeds
//! `2^22` coefficients never dispatch to the NTT (no such polynomial
//! arises below `m ≈ 4` million).
//!
//! ## Repeated factors
//!
//! Isomorphic root groups contribute equal factors — a uniform
//! workload multiplies hundreds of copies of one short polynomial.
//! [`product_tree`] groups equal factors by content and raises each
//! repeated one to its multiplicity `n` with J.C.P. Miller's
//! recurrence: for `u = xˢ·v` with `v₀ ≠ 0` and `d = deg v`,
//! `P₀ = v₀ⁿ` and `k·v₀·P_k = Σ_{i=1..min(d,k)} ((n+1)·i − k)·v_i·P_{k−i}`.
//! Each coefficient costs `min(d, k)` word-by-bignum multiply-adds and
//! one exact word division — `O(n·d²)` word-by-bignum steps for the
//! whole power, against the `n − 1` bignum-polynomial products of a
//! tree over the copies. A factor whose coefficients, multipliers
//! `|(n+1)·i − k|·v_i` or divisors `k·v₀` leave the `u64` range takes
//! the tree over its copies instead. The powers (and the tree product
//! of the factors that occur once) are multiplied two shortest at a
//! time, Huffman's order: on a skewed mix of powers this beats a
//! shortest-first fold into one accumulator, which pays a long
//! accumulator product per part. The `poly.power.recurrence` counter
//! records each factor raised by the recurrence.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Mutex, OnceLock};

use cqshap_obs::{phase, Counter, Histogram};

use crate::biguint::BigUint;
use crate::cancel::CancelToken;
use crate::error::NumericError;

/// Below this `min(len)` the schoolbook loop wins outright and the
/// work model is not even consulted.
pub const KARATSUBA_MIN: usize = 24;

/// The 2-adicity of the generated NTT primes (`p ≡ 1 mod 2^22`):
/// transforms up to `2^22` points, i.e. results up to ~4M coefficients.
const MAX_TWO_ADICITY: u32 = 22;

/// An explicit multiplication backend (benchmarks and tests; normal
/// callers use [`mul`], which dispatches automatically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Dispatch by operand shape (the default).
    Auto,
    /// Force the quadratic schoolbook loop.
    Schoolbook,
    /// Force Karatsuba (with the schoolbook base case).
    Karatsuba,
    /// Force the multi-prime NTT.
    Ntt,
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// The product of two coefficient vectors (`out[k] = Σ_i a[i]·b[k-i]`,
/// length `a.len() + b.len() − 1`), backend-dispatched by shape.
/// Zero-length inputs yield the all-zero vector of the conventional
/// length, matching the schoolbook loop.
pub fn mul(a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    mul_with(a, b, Backend::Auto)
}

/// [`mul`] through an explicit [`Backend`]. Infallible: when the NTT
/// backend refuses the input (transform bound, prime supply) the
/// product is computed by Karatsuba instead — bit-identical, just
/// slower. Use [`try_mul_with`] to observe the refusal as an error.
pub fn mul_with(a: &[BigUint], b: &[BigUint], backend: Backend) -> Vec<BigUint> {
    // Without a token nothing cancels, so the `Err` arm never runs; it
    // recomputes by Karatsuba rather than panic.
    mul_impl(a, b, backend, None).unwrap_or_else(|_| mul_karatsuba(a, b))
}

/// [`mul_with`] without the silent fallback: an explicit
/// [`Backend::Ntt`] request that the NTT cannot honor — result longer
/// than the `2^22` transform bound, or (theoretically) prime-pool
/// exhaustion — comes back as a [`NumericError`] instead of being
/// rerouted through Karatsuba.
///
/// # Errors
/// [`NumericError::NttLengthExceeded`] /
/// [`NumericError::PrimePoolExhausted`] under [`Backend::Ntt`]; the
/// other backends (including [`Backend::Auto`], whose work model never
/// selects an out-of-bounds NTT) are total.
pub fn try_mul_with(
    a: &[BigUint],
    b: &[BigUint],
    backend: Backend,
) -> Result<Vec<BigUint>, NumericError> {
    if a.is_empty() || b.is_empty() {
        return Ok(vec![BigUint::zero(); (a.len() + b.len()).saturating_sub(1)]);
    }
    match backend {
        Backend::Ntt => try_mul_ntt(a, b, None),
        other => Ok(mul_with(a, b, other)),
    }
}

/// [`mul_with`] with an optional cooperative [`CancelToken`]: a tripped
/// token makes the NTT backend abandon its remaining prime passes and
/// return [`NumericError::Cancelled`]. No other error comes back — an
/// input the NTT refuses is multiplied by Karatsuba instead.
fn mul_impl(
    a: &[BigUint],
    b: &[BigUint],
    backend: Backend,
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    if a.is_empty() || b.is_empty() {
        return Ok(vec![BigUint::zero(); (a.len() + b.len()).saturating_sub(1)]);
    }
    let resolved = match backend {
        Backend::Auto => estimate(a, b),
        explicit => explicit,
    };
    record_dispatch(resolved, a, b);
    match resolved {
        Backend::Karatsuba => Ok(mul_karatsuba(a, b)),
        Backend::Ntt => match try_mul_ntt(a, b, cancel) {
            Err(NumericError::Cancelled) => Err(NumericError::Cancelled),
            Ok(out) => Ok(out),
            Err(_) => Ok(mul_karatsuba(a, b)),
        },
        _ => Ok(mul_schoolbook(a, b)),
    }
}

/// Observability tap on the backend dispatch: one counter per backend
/// plus a histogram of the longer operand's length, so a trace shows
/// what the `Auto` work model actually decided across a workload.
fn record_dispatch(resolved: Backend, a: &[BigUint], b: &[BigUint]) {
    static SCHOOLBOOK: Counter = Counter::new(phase::CTR_POLY_SCHOOLBOOK);
    static KARATSUBA: Counter = Counter::new(phase::CTR_POLY_KARATSUBA);
    static NTT: Counter = Counter::new(phase::CTR_POLY_NTT);
    static OPERAND_LEN: Histogram = Histogram::new(phase::HIST_POLY_OPERAND_LEN);
    match resolved {
        Backend::Karatsuba => KARATSUBA.incr(),
        Backend::Ntt => NTT.incr(),
        _ => SCHOOLBOOK.incr(),
    }
    OPERAND_LEN.record(a.len().max(b.len()) as u64);
}

/// The work-model dispatch behind [`Backend::Auto`] — see the module
/// docs for the three cost formulas.
fn estimate(a: &[BigUint], b: &[BigUint]) -> Backend {
    let (la, lb) = (a.len(), b.len());
    let small = la.min(lb);
    if small < KARATSUBA_MIN {
        return Backend::Schoolbook;
    }
    let out_len = la + lb - 1;
    let bits_a = max_bits(a);
    let bits_b = max_bits(b);
    let (wa, wb) = ((bits_a / 64 + 1) as f64, (bits_b / 64 + 1) as f64);
    let school = la as f64 * lb as f64 * wa * wb;
    let blocks = (la.max(lb) as f64 / small as f64).ceil();
    let kara = 4.0 * blocks * (small as f64).powf(1.585) * wa * wb;
    let ntt = if out_len > 1 << MAX_TWO_ADICITY {
        f64::INFINITY
    } else {
        let bits = bits_a + bits_b + (usize::BITS - small.leading_zeros()) as usize;
        let t = (bits / 62 + 1) as f64;
        let n = out_len.next_power_of_two() as f64;
        4.0 * t * n * n.log2()
            + 10.0 * t * (la as f64 * wa + lb as f64 * wb)
            + t * t * out_len as f64
    };
    if ntt <= school && ntt <= kara {
        Backend::Ntt
    } else if kara < school {
        Backend::Karatsuba
    } else {
        Backend::Schoolbook
    }
}

/// Exact polynomial division `num / den` over nonnegative integer
/// coefficient vectors (coefficient index = degree). Returns `None`
/// when `den` is zero or does not divide `num` exactly.
///
/// Divisors whose coefficients all fit in a `u64` (every count
/// polynomial of a group with at most 66 endogenous facts) take a
/// word-size kernel: the convolution sums accumulate `q[i]·d[k−i]` in
/// place, and the solved coefficient is divided by `d[0]` in place
/// (not at all when `d[0] = 1`). Both kernels return the same result,
/// `None` included.
pub fn exact_div(num: &[BigUint], den: &[BigUint]) -> Option<Vec<BigUint>> {
    divide(num, den, true)
}

/// [`exact_div`] with the word-size kernel admitted (`word_size`) or
/// not — the generic kernel is the fallback and the tests' oracle.
fn divide(num: &[BigUint], den: &[BigUint], word_size: bool) -> Option<Vec<BigUint>> {
    let s = den.iter().position(|c| !c.is_zero())?;
    if num.iter().all(|c| c.is_zero()) {
        // 0 / den — only well-defined with the right length.
        if num.len() >= den.len() {
            return Some(vec![BigUint::zero(); num.len() - den.len() + 1]);
        }
        return None;
    }
    if num.len() < den.len() {
        return None;
    }
    let (head, shifted) = num.split_at_checked(s)?;
    if head.iter().any(|c| !c.is_zero()) {
        return None;
    }
    let d = den.get(s..)?;
    let q_len = num.len() - den.len() + 1;
    if word_size {
        if let Some(words) = d.iter().map(BigUint::to_u64).collect::<Option<Vec<u64>>>() {
            return divide_by_words(shifted, &words, q_len);
        }
    }
    divide_generic(shifted, d, q_len)
}

/// The division kernel for a divisor with `d[0] ≠ 0`: for each `k`,
/// `num[k]` must equal `Σ_i q[i]·d[k−i]`; for `k < q_len` the `i = k`
/// term carries the unknown `q[k]`, solved against `d[0]`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the dividend, at most len(d) terms per coefficient
fn divide_generic(num: &[BigUint], d: &[BigUint], q_len: usize) -> Option<Vec<BigUint>> {
    let d0 = d.first()?;
    let mut q: Vec<BigUint> = Vec::with_capacity(q_len);
    for (k, nk) in num.iter().enumerate() {
        // Σ_{i<k} q[i]·d[k−i], as in `divide_by_words`.
        let lo = (k + 1).saturating_sub(d.len());
        let mut acc = BigUint::zero();
        for (qi, di) in q.iter().skip(lo).zip(d.iter().take(k - lo + 1).rev()) {
            if !qi.is_zero() && !di.is_zero() {
                acc += &(qi * di);
            }
        }
        if k < q_len {
            let rem = nk.checked_sub(&acc)?;
            let (quot, r) = rem.div_rem(d0);
            if !r.is_zero() {
                return None;
            }
            q.push(quot);
        } else if *nk != acc {
            return None;
        }
    }
    Some(q)
}

/// [`divide_generic`] for a divisor of `u64` words, in place: each
/// coefficient is cloned once and every `q[i]·d[k−i]` is subtracted
/// from it without allocating the product; `d[0] = 1` skips the
/// division. The terms are nonnegative, so the running difference
/// underflows iff their sum exceeds `num[k]`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the dividend, at most len(d) terms per coefficient
fn divide_by_words(num: &[BigUint], d: &[u64], q_len: usize) -> Option<Vec<BigUint>> {
    let &d0 = d.first()?;
    let mut q: Vec<BigUint> = Vec::with_capacity(q_len);
    for (k, nk) in num.iter().enumerate() {
        // Σ_{i<k} q[i]·d[k−i] over the terms both vectors reach: `q`
        // holds q[0..min(k, q_len)], so d[0] never enters.
        let lo = (k + 1).saturating_sub(d.len());
        let mut rem = nk.clone();
        for (qi, &di) in q.iter().skip(lo).zip(d.iter().take(k - lo + 1).rev()) {
            if !rem.sub_mul_u64_assign(qi, di) {
                return None;
            }
        }
        if k < q_len {
            if d0 != 1 && rem.div_rem_u64_assign(d0) != 0 {
                return None;
            }
            q.push(rem);
        } else if !rem.is_zero() {
            return None;
        }
    }
    Some(q)
}

/// `a ⊛ [1, 1]` in `O(n)` additions (Pascal's rule: growing a binomial
/// factor by one free fact).
pub fn pascal_up(a: &[BigUint]) -> Vec<BigUint> {
    let (Some(first), Some(last)) = (a.first(), a.last()) else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(a.len() + 1);
    out.push(first.clone());
    out.extend(a.iter().zip(a.iter().skip(1)).map(|(x, y)| x + y));
    out.push(last.clone());
    out
}

/// `a / [1, 1]` in `O(n)` subtractions, or `None` when `[1, 1]` does
/// not divide `a` exactly — bit-identical to
/// [`exact_div`]`(a, [1, 1])`.
pub fn pascal_down(a: &[BigUint]) -> Option<Vec<BigUint>> {
    let (first, rest) = a.split_first()?;
    let (last, mid) = rest.split_last()?;
    let mut q = Vec::with_capacity(a.len() - 1);
    let mut prev = first.clone();
    for c in mid {
        let next = c.checked_sub(&prev)?;
        q.push(prev);
        prev = next;
    }
    if *last != prev {
        return None;
    }
    q.push(prev);
    Some(q)
}

/// `⊛` over all polynomials (the empty product is `[1]`).
///
/// Equal factors are grouped by content, and each distinct factor that
/// repeats is raised to its multiplicity in one pass (see *Repeated
/// factors* in the module docs). The factors that occur once are
/// multiplied by a balanced divide-and-conquer tree whose independent
/// subtrees fan out across up to `threads` scoped threads (`0` = all
/// available cores); the powers and that tree's product are then
/// multiplied two shortest at a time. Inputs without a repeat take the
/// tree alone.
///
/// `cancel`, when given, is charged one unit per multiplication of two
/// parts (tree nodes included), per NTT prime pass, and per copy a
/// power absorbs — so a long power polls the token after every `d`
/// coefficients (`d` = the factor's degree), never after unbounded work.
///
/// # Errors
/// [`NumericError::Cancelled`] once `cancel` trips.
pub fn product_tree(
    polys: &[&[BigUint]],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    let (_, classes) = equal_classes(polys);
    grouped_product(polys, &classes, resolve_threads(threads), cancel)
}

/// The balanced tree of [`product_tree`] over every factor (equal
/// factors are not grouped) through an explicit [`Backend`], without a
/// token.
pub fn product_tree_with(polys: &[&[BigUint]], threads: usize, backend: Backend) -> Vec<BigUint> {
    // Without a token nothing cancels, so the `Err` arm never runs; it
    // recomputes by a sequential fold rather than panic.
    tree_product(polys, resolve_threads(threads), backend, None).unwrap_or_else(|_| {
        polys
            .iter()
            .fold(vec![BigUint::one()], |acc, p| mul_with(&acc, p, backend))
    })
}

/// For each `i`, `seed ⊛ ⊛_{j≠i} polys[j]` — the engines'
/// leave-one-out environments.
///
/// The classic prefix/suffix descent pays `O(L² log n)` coefficient
/// work (`L` = summed degree), dominated by long accumulator × short
/// sibling products no convolution backend can speed up. This
/// computes the *total* product once (parallel tree, fast backends)
/// and recovers each environment by one exact division,
/// `env_i = (seed ⊛ total) / polys[i]` — `O(L·deg_i)` per *distinct*
/// factor, with equal factors computed once. Inputs containing an
/// all-zero or empty polynomial fall back to the descent (a zero
/// factor cannot be divided out); either path returns bit-identical
/// vectors. Distinct divisions and tree subproducts fan out across up
/// to `threads` scoped threads (`0` = all available cores); `cancel` is
/// polled as in [`product_tree`].
///
/// # Errors
/// [`NumericError::Cancelled`] once `cancel` trips.
pub fn leave_one_out_products(
    polys: &[&[BigUint]],
    seed: &[BigUint],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<BigUint>>, NumericError> {
    leave_one_out_impl(polys, seed, resolve_threads(threads), cancel)
}

// ---------------------------------------------------------------------
// Schoolbook and Karatsuba
// ---------------------------------------------------------------------

// cqshap-lint: allow(cancellation-reachability) -- bounded: len(a)·len(b) coefficient products; Karatsuba and the product tree poll between multiplications
fn mul_schoolbook(a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    let mut out = vec![BigUint::zero(); a.len() + b.len() - 1];
    for (i, x) in a.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (slot, y) in out.iter_mut().skip(i).zip(b) {
            if !y.is_zero() {
                *slot += &(x * y);
            }
        }
    }
    out
}

/// Pointwise `acc[offset..] += add`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over a product half; Karatsuba polls between its recursive products
fn add_at(acc: &mut [BigUint], offset: usize, add: &[BigUint]) {
    for (slot, v) in acc.iter_mut().skip(offset).zip(add) {
        *slot += v;
    }
}

/// Pointwise `acc[offset..] -= sub` (never underflows for Karatsuba's
/// middle term: the cross products are a superset of the outer ones).
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over a product half; Karatsuba polls between its recursive products
fn sub_at(acc: &mut [BigUint], offset: usize, sub: &[BigUint]) {
    for (slot, v) in acc.iter_mut().skip(offset).zip(sub) {
        *slot -= v;
    }
}

/// Pointwise sum of two coefficient slices (length = the longer one).
fn add_polys(a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = long.to_vec();
    add_at(&mut out, 0, short);
    out
}

fn mul_karatsuba(a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    if a.len().min(b.len()) < KARATSUBA_MIN {
        return mul_schoolbook(a, b);
    }
    let split = a.len().max(b.len()).div_ceil(2);
    let mut out = vec![BigUint::zero(); a.len() + b.len() - 1];
    if b.len() <= split {
        // Unbalanced: split `a` only; b sees both halves directly.
        let (a0, a1) = a.split_at(split);
        let lo = mul_karatsuba(a0, b);
        let hi = mul_karatsuba(a1, b);
        add_at(&mut out, 0, &lo);
        add_at(&mut out, split, &hi);
        return out;
    }
    if a.len() <= split {
        let (b0, b1) = b.split_at(split);
        let lo = mul_karatsuba(a, b0);
        let hi = mul_karatsuba(a, b1);
        add_at(&mut out, 0, &lo);
        add_at(&mut out, split, &hi);
        return out;
    }
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);
    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    // z1 = (a0 + a1)(b0 + b1) − z0 − z2: with nonnegative coefficients
    // the mixed product dominates both pointwise, so plain `-` is safe.
    let mut z1 = mul_karatsuba(&add_polys(a0, a1), &add_polys(b0, b1));
    sub_at(&mut z1, 0, &z0);
    sub_at(&mut z1, 0, &z2);
    add_at(&mut out, 0, &z0);
    add_at(&mut out, split, &z1);
    add_at(&mut out, 2 * split, &z2);
    out
}

// ---------------------------------------------------------------------
// Montgomery arithmetic over generated NTT primes
// ---------------------------------------------------------------------

/// One NTT-friendly prime `p = k·2^22 + 1` (`2^62 < p < 2^63`) with its
/// Montgomery constants and a root of unity of order `2^22`.
#[derive(Debug, Clone, Copy)]
struct NttPrime {
    p: u64,
    /// `-p^{-1} mod 2^64` (the Montgomery reduction factor).
    neg_inv: u64,
    /// `2^64 mod p` — the Montgomery form of `1`.
    r1: u64,
    /// `2^128 mod p` — converts into Montgomery form.
    r2: u64,
    /// A root of unity of order exactly `2^22`, plain form.
    two_adic_root: u64,
}

/// `a·b mod p` via `u128` (setup paths only; hot loops use Montgomery).
fn mulmod(a: u64, b: u64, p: u64) -> u64 {
    ((a as u128 * b as u128) % p as u128) as u64
}

// cqshap-lint: allow(cancellation-reachability) -- bounded: at most 64 squarings
fn powmod(mut base: u64, mut exp: u64, p: u64) -> u64 {
    base %= p;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, p);
        }
        base = mulmod(base, base, p);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for `u64` (the first twelve prime bases
/// decide primality for every 64-bit integer).
// cqshap-lint: allow(cancellation-reachability) -- bounded: Miller-Rabin over 12 fixed witnesses, at most 64 squarings each
fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

impl NttPrime {
    // cqshap-lint: allow(cancellation-reachability) -- bounded: fixed iteration counts for one prime's constants
    fn new(p: u64) -> NttPrime {
        // p^{-1} mod 2^64 by Newton iteration (p is odd).
        let mut inv = p;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
        }
        debug_assert_eq!(p.wrapping_mul(inv), 1);
        let r1 = (((1u128 << 64) % p as u128) & u64::MAX as u128) as u64;
        let r2 = mulmod(r1, r1, p);
        // A root of order exactly 2^22: g^((p-1)/2^22) for the first
        // base g whose image does not collapse into the index-2
        // subgroup (checked via the half-order power).
        let odd = (p - 1) >> MAX_TWO_ADICITY;
        let mut root = 0u64;
        for g in 2u64.. {
            let w = powmod(g, odd, p);
            if powmod(w, 1 << (MAX_TWO_ADICITY - 1), p) != 1 {
                root = w;
                break;
            }
        }
        NttPrime {
            p,
            neg_inv: inv.wrapping_neg(),
            r1,
            r2,
            two_adic_root: root,
        }
    }

    /// Montgomery product: for `a, b < p` returns `a·b·2^{-64} mod p`.
    /// One plain factor and one Montgomery-form factor therefore yield
    /// a plain product — the trick the CRT evaluation leans on.
    #[inline]
    fn mont_mul(&self, a: u64, b: u64) -> u64 {
        let t = a as u128 * b as u128;
        let m = (t as u64).wrapping_mul(self.neg_inv);
        let u = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    /// Into Montgomery form: `x·2^64 mod p`.
    #[inline]
    fn encode(&self, x: u64) -> u64 {
        self.mont_mul(x, self.r2)
    }

    /// Out of Montgomery form.
    #[inline]
    fn decode(&self, x: u64) -> u64 {
        self.mont_mul(x, 1)
    }

    #[inline]
    fn add_mod(&self, a: u64, b: u64) -> u64 {
        let s = a + b; // both < p < 2^63: no overflow
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    #[inline]
    fn sub_mod(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// `c mod p` straight off the limbs: Horner over base `2^64`, with
    /// the scale factor folded into a Montgomery product per limb
    /// (`r2` *is* the Montgomery form of `2^64`). Several times faster
    /// than a `u128` division per limb, and the limb reduction is the
    /// NTT's second-biggest cost on big-coefficient inputs.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the coefficient's limbs
    fn reduce(&self, c: &BigUint) -> u64 {
        c.with_limbs(|limbs| {
            let mut acc = 0u64;
            for &limb in limbs.iter().rev() {
                // limb < 2^64 < 4p: two conditional subtracts reduce it.
                let mut r = limb;
                if r >= self.p << 1 {
                    r -= self.p << 1;
                }
                if r >= self.p {
                    r -= self.p;
                }
                acc = self.add_mod(self.mont_mul(acc, self.r2), r);
            }
            acc
        })
    }

    /// Montgomery-form power.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: at most 64 squarings
    fn mont_pow(&self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = self.r1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mont_mul(acc, base);
            }
            base = self.mont_mul(base, base);
            exp >>= 1;
        }
        acc
    }
}

/// The process-wide cache of generated NTT primes, grown on demand by
/// scanning `p = k·2^22 + 1` for `k` descending from the top of the
/// 63-bit range (so every prime exceeds `2^62` and carries ≥ 62 bits
/// of CRT capacity).
struct PrimePool {
    primes: Vec<NttPrime>,
    next_k: u64,
}

// cqshap-lint: allow(cancellation-reachability) -- bounded: one candidate per step until `count` primes are pooled (about one candidate in 44 near 2^63 is prime); the scan stops at 2^40 candidates
fn ntt_primes(count: usize) -> Result<Vec<NttPrime>, NumericError> {
    static POOL: OnceLock<Mutex<PrimePool>> = OnceLock::new();
    let pool = POOL.get_or_init(|| {
        Mutex::new(PrimePool {
            primes: Vec::new(),
            next_k: (1u64 << 41) - 1,
        })
    });
    // A poisoned lock means some worker panicked mid-scan; the pool is
    // append-only and every stored prime was fully constructed, so the
    // data is still coherent — recover the guard and keep going.
    let mut pool = pool.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    while pool.primes.len() < count {
        let k = pool.next_k;
        if k < 1 << 40 {
            return Err(NumericError::PrimePoolExhausted {
                requested: count,
                available: pool.primes.len(),
            });
        }
        pool.next_k -= 1;
        let p = (k << MAX_TWO_ADICITY) | 1;
        if is_prime_u64(p) {
            let prime = NttPrime::new(p);
            pool.primes.push(prime);
        }
    }
    let primes: Vec<NttPrime> = pool.primes.iter().take(count).copied().collect();
    // Bump the draw counter after releasing the pool lock so the obs
    // sink's own lock is never acquired while this one is held.
    drop(pool);
    static PRIME_DRAWS: Counter = Counter::new(phase::CTR_NTT_PRIME_DRAWS);
    PRIME_DRAWS.add(count as u64);
    Ok(primes)
}

// ---------------------------------------------------------------------
// The multi-prime NTT backend
// ---------------------------------------------------------------------

/// In-place radix-2 NTT of `a` (Montgomery form) with `w` a
/// Montgomery-form root of unity of order `a.len()`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: n·log(n) butterflies; `try_mul_ntt` polls once per prime pass
fn ntt_in_place(a: &mut [u64], w: u64, pr: &NttPrime) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2usize;
    while len <= n {
        let wlen = pr.mont_pow(w, (n / len) as u64);
        for block in a.chunks_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            let mut tw = pr.r1; // Montgomery 1
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let u = *x;
                let v = pr.mont_mul(*y, tw);
                *x = pr.add_mod(u, v);
                *y = pr.sub_mod(u, v);
                tw = pr.mont_mul(tw, wlen);
            }
        }
        len <<= 1;
    }
}

/// The residue vector of `poly` modulo `pr.p`, in Montgomery form,
/// zero-padded to `n`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the coefficients
fn residues_mont(poly: &[BigUint], n: usize, pr: &NttPrime) -> Vec<u64> {
    let mut out = vec![0u64; n];
    for (slot, c) in out.iter_mut().zip(poly) {
        if !c.is_zero() {
            *slot = pr.encode(pr.reduce(c));
        }
    }
    out
}

/// One prime's convolution: `NTT⁻¹(NTT(a) ⊙ NTT(b))`, returned as
/// plain (non-Montgomery) residues truncated to `out_len`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: pointwise passes over one transform; `try_mul_ntt` polls once per prime pass
fn convolve_mod(a: &[BigUint], b: &[BigUint], out_len: usize, pr: &NttPrime) -> Vec<u64> {
    let n = out_len.next_power_of_two();
    debug_assert!(n.trailing_zeros() <= MAX_TWO_ADICITY);
    let w = pr.encode(pr.two_adic_root);
    let w = pr.mont_pow(w, 1u64 << (MAX_TWO_ADICITY - n.trailing_zeros()));
    let mut fa = residues_mont(a, n, pr);
    let mut fb = residues_mont(b, n, pr);
    if n == 1 {
        // Degenerate single-point transform: a plain product.
        return fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| pr.decode(pr.mont_mul(x, y)))
            .collect();
    }
    ntt_in_place(&mut fa, w, pr);
    ntt_in_place(&mut fb, w, pr);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = pr.mont_mul(*x, *y);
    }
    let w_inv = pr.mont_pow(w, (n - 1) as u64); // w has order n
    ntt_in_place(&mut fa, w_inv, pr);
    let n_inv = pr.mont_pow(pr.encode(n as u64), pr.p - 2);
    fa.truncate(out_len);
    for x in fa.iter_mut() {
        // Collapses the n-scaling and the Montgomery factor in one go.
        *x = pr.decode(pr.mont_mul(*x, n_inv));
    }
    fa
}

/// The largest coefficient bit length in `poly`.
fn max_bits(poly: &[BigUint]) -> usize {
    poly.iter().map(BigUint::bit_len).max().unwrap_or(0)
}

fn try_mul_ntt(
    a: &[BigUint],
    b: &[BigUint],
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    let out_len = a.len() + b.len() - 1;
    if out_len > 1 << MAX_TWO_ADICITY {
        return Err(NumericError::NttLengthExceeded {
            out_len,
            max_len: 1 << MAX_TWO_ADICITY,
        });
    }
    // Every output coefficient is a sum of ≤ min(len) products, so its
    // bit length is bounded by the operand maxima plus the sum's log.
    let sum_terms = a.len().min(b.len());
    let need_bits = max_bits(a) + max_bits(b) + (usize::BITS - sum_terms.leading_zeros()) as usize;
    let t = need_bits / 62 + 1; // every prime exceeds 2^62
    let primes = ntt_primes(t)?;
    let mut residues: Vec<Vec<u64>> = Vec::with_capacity(t);
    for pr in &primes {
        // One checkpoint per prime pass: a tripped token abandons the
        // remaining transforms.
        if cancel.is_some_and(|c| c.charge(1)) {
            return Err(NumericError::Cancelled);
        }
        residues.push(convolve_mod(a, b, out_len, pr));
    }

    // Garner's mixed-radix CRT. Precomputed per prime i: the previous
    // primes in Montgomery form (one Montgomery factor per product
    // keeps the running value in the plain domain) and the inverse of
    // their product.
    let p_mont: Vec<Vec<u64>> = primes
        .iter()
        .enumerate()
        .map(|(i, pr)| {
            primes
                .iter()
                .take(i)
                .map(|q| pr.encode(q.p % pr.p))
                .collect()
        })
        .collect();
    let prod_inv_mont: Vec<u64> = primes
        .iter()
        .enumerate()
        .map(|(i, pr)| {
            let mut prod = pr.r1; // Montgomery 1
            for q in primes.iter().take(i) {
                prod = pr.mont_mul(prod, pr.encode(q.p % pr.p));
            }
            // prod^{-1}·R stays in Montgomery form, so multiplying a
            // plain value by it yields a plain result.
            pr.mont_pow(prod, pr.p - 2)
        })
        .collect();

    let mut digits = vec![0u64; t];
    Ok((0..out_len)
        .map(|c| {
            // Mixed-radix digits: digits[i] reconstructs the value mod
            // p_i given the digits below it (p_mont[i] has i entries).
            let per_prime = primes.iter().zip(&p_mont).zip(&prod_inv_mont);
            for (i, (((pr, p_prev), &inv), res)) in per_prime.zip(&residues).enumerate() {
                let mut acc = 0u64;
                for (&d, &pj) in digits.iter().zip(p_prev).rev() {
                    let d = if d >= pr.p { d - pr.p } else { d };
                    acc = pr.add_mod(pr.mont_mul(acc, pj), d);
                }
                let diff = pr.sub_mod(res.get(c).copied().unwrap_or(0), acc);
                if let Some(digit) = digits.get_mut(i) {
                    *digit = pr.mont_mul(diff, inv);
                }
            }
            // Horner evaluation x = v₀ + p₀(v₁ + p₁(v₂ + …)).
            let mut x = BigUint::zero();
            for (&d, pr) in digits.iter().zip(&primes).rev() {
                x.mul_u64_assign(pr.p);
                x += &BigUint::from_u64(d);
            }
            x
        })
        .collect())
}

// ---------------------------------------------------------------------
// Parallel trees
// ---------------------------------------------------------------------

/// Resolves a requested worker cap: `0` means "all available cores,
/// capped at 16", anything else is taken verbatim. The single source
/// of the policy — `cqshap-core`'s fan-outs delegate here so
/// `--threads 0` means the same width in every stage.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned `available_parallelism` probe"
)]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(16)
    } else {
        threads
    }
}

/// Total coefficient count — the recursion only forks when both halves
/// carry enough work to amortize a thread spawn.
fn work_size(polys: &[&[BigUint]]) -> usize {
    polys.iter().map(|p| p.len()).sum()
}

const PARALLEL_MIN_COEFFS: usize = 128;

fn tree_product(
    polys: &[&[BigUint]],
    threads: usize,
    backend: Backend,
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    match polys {
        [] => Ok(vec![BigUint::one()]),
        [p] => Ok(p.to_vec()),
        _ => {
            // One charge per internal node: the tree has O(n) nodes, so
            // the checkpoint overhead stays far below the convolution
            // work it bounds.
            if cancel.is_some_and(|c| c.charge(1)) {
                return Err(NumericError::Cancelled);
            }
            let (left, right) = polys.split_at(polys.len() / 2);
            let (lp, rp) = join_halves(
                threads,
                work_size(polys),
                || tree_product(left, threads - threads / 2, backend, cancel),
                || tree_product(right, threads / 2, backend, cancel),
            );
            mul_impl(&lp?, &rp?, backend, cancel)
        }
    }
}

/// Groups equal polynomials by content: each input's class index, and
/// per class (in first-seen order) its content and multiplicity.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the factors
fn equal_classes<'a>(polys: &[&'a [BigUint]]) -> (Vec<usize>, Vec<(&'a [BigUint], usize)>) {
    let mut class_of = Vec::with_capacity(polys.len());
    let mut classes: Vec<(&[BigUint], usize)> = Vec::new();
    let mut seen: HashMap<&[BigUint], usize> = HashMap::new();
    for &p in polys {
        let c = *seen.entry(p).or_insert_with(|| {
            classes.push((p, 0));
            classes.len() - 1
        });
        if let Some((_, n)) = classes.get_mut(c) {
            *n += 1;
        }
        class_of.push(c);
    }
    (class_of, classes)
}

/// The product of `polys`, given their [`equal_classes`]: the tree
/// alone when nothing repeats; otherwise one [`power`] per repeated
/// class and one tree over the classes that occur once, multiplied two
/// shortest at a time.
fn grouped_product(
    polys: &[&[BigUint]],
    classes: &[(&[BigUint], usize)],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    if classes.len() == polys.len() {
        return tree_product(polys, threads, Backend::Auto, cancel);
    }
    let singles: Vec<&[BigUint]> = classes
        .iter()
        .filter(|&&(_, n)| n == 1)
        .map(|&(u, _)| u)
        .collect();
    let mut parts = Vec::with_capacity(classes.len() - singles.len() + 1);
    for &(u, n) in classes.iter().filter(|&&(_, n)| n > 1) {
        parts.push(power(u, n, threads, cancel)?);
    }
    if !singles.is_empty() {
        parts.push(tree_product(&singles, threads, Backend::Auto, cancel)?);
    }
    // Always multiply the two shortest parts (Huffman's order): parts
    // of equal length pair up as in a balanced tree, and a long part
    // waits until the short ones have grown to match it instead of
    // meeting each of them in turn. The unique sequence number breaks
    // length ties, so the vectors themselves are never compared.
    let mut next = parts.len();
    let mut queue: BinaryHeap<Reverse<(usize, usize, Vec<BigUint>)>> = parts
        .into_iter()
        .enumerate()
        .map(|(i, p)| Reverse((p.len(), i, p)))
        .collect();
    while let Some(Reverse((_, _, a))) = queue.pop() {
        let Some(Reverse((_, _, b))) = queue.pop() else {
            return Ok(a);
        };
        if cancel.is_some_and(|c| c.charge(1)) {
            return Err(NumericError::Cancelled);
        }
        let product = mul_impl(&a, &b, Backend::Auto, cancel)?;
        queue.push(Reverse((product.len(), next, product)));
        next += 1;
    }
    Ok(vec![BigUint::one()])
}

/// `u^n` for `n ≥ 2`: by [`power_by_recurrence`] when its words fit,
/// else by the tree over `n` copies.
fn power(
    u: &[BigUint],
    n: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<BigUint>, NumericError> {
    static RECURRENCE: Counter = Counter::new(phase::CTR_POLY_POWER_RECURRENCE);
    if let Some(p) = power_by_recurrence(u, n, cancel)? {
        RECURRENCE.incr();
        return Ok(p);
    }
    tree_product(&vec![u; n], threads, Backend::Auto, cancel)
}

/// `u^n` by J.C.P. Miller's recurrence, or `None` when it does not
/// apply in words: `u` is zero or empty, a nonzero coefficient of `u`,
/// a multiplier `|(n+1)·i − k|·v_i` or a divisor `k·v₀` exceeds a
/// `u64`, or (never, for exact inputs) a division leaves a remainder.
///
/// With `u = xˢ·v`, `v₀ ≠ 0` and `d = deg v`, the coefficients of
/// `P = vⁿ` follow from `v·P' = n·v'·P`: `P₀ = v₀ⁿ` and
/// `k·v₀·P_k = Σ_{i=1..min(d,k)} ((n+1)·i − k)·v_i·P_{k−i}`. Each `P_k`
/// costs `min(d, k)` word-by-bignum multiply-adds into two unsigned
/// accumulators (the terms' signs split them) and one exact word
/// division. `cancel` is charged once per `d` coefficients — once per
/// copy of `v` absorbed.
fn power_by_recurrence(
    u: &[BigUint],
    n: usize,
    cancel: Option<&CancelToken>,
) -> Result<Option<Vec<BigUint>>, NumericError> {
    let (Some(s), Some(e)) = (
        u.iter().position(|c| !c.is_zero()),
        u.iter().rposition(|c| !c.is_zero()),
    ) else {
        return Ok(None);
    };
    let words: Option<Vec<u64>> = u
        .iter()
        .skip(s)
        .take(e + 1 - s)
        .map(BigUint::to_u64)
        .collect();
    let (Some(v), Ok(exp)) = (words, u32::try_from(n)) else {
        return Ok(None);
    };
    let Some((&v0, tail)) = v.split_first() else {
        return Ok(None);
    };
    let d = tail.len();
    let mut p = Vec::with_capacity(n * d + 1);
    p.push(BigUint::from_u64(v0).pow(exp));
    let n1 = n as u64 + 1;
    for copy in 0..n {
        if cancel.is_some_and(|c| c.charge(1)) {
            return Err(NumericError::Cancelled);
        }
        for k in copy * d + 1..=(copy + 1) * d {
            let k = k as u64;
            let (mut pos, mut neg) = (BigUint::zero(), BigUint::zero());
            // Terms i = 1..=min(d, k): v_i against P_{k−i}, the
            // computed coefficients read backwards.
            for (i, (&vi, prev)) in (1u64..).zip(tail.iter().zip(p.iter().rev())) {
                let (acc, c) = if n1 * i >= k {
                    (&mut pos, n1 * i - k)
                } else {
                    (&mut neg, k - n1 * i)
                };
                let Some(m) = c.checked_mul(vi) else {
                    return Ok(None);
                };
                if m != 0 {
                    acc.add_mul_u64_assign(prev, m);
                }
            }
            let (Some(mut pk), Some(div)) = (pos.checked_sub(&neg), k.checked_mul(v0)) else {
                return Ok(None);
            };
            if pk.div_rem_u64_assign(div) != 0 {
                return Ok(None);
            }
            p.push(pk);
        }
    }
    // uⁿ = x^{n·s}·vⁿ, padded to the conventional n·(len − 1) + 1.
    let mut out = vec![BigUint::zero(); n * s];
    out.append(&mut p);
    out.resize(n * (u.len() - 1) + 1, BigUint::zero());
    Ok(Some(out))
}

fn leave_one_out_impl(
    polys: &[&[BigUint]],
    seed: &[BigUint],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<BigUint>>, NumericError> {
    match polys {
        [] => return Ok(Vec::new()),
        [_] => return Ok(vec![seed.to_vec()]),
        _ => {}
    }
    // A zero factor cannot be divided back out of the (zero) total:
    // the descent handles it.
    let divisible = polys
        .iter()
        .all(|p| !p.is_empty() && p.iter().any(|c| !c.is_zero()));
    if divisible {
        // One representative per distinct polynomial: equal factors
        // have equal environments.
        let (class_of, classes) = equal_classes(polys);
        let total = grouped_product(polys, &classes, threads, cancel)?;
        let full = mul_impl(seed, &total, Backend::Auto, cancel)?;
        let rep_envs = par_map_chunks(threads, classes.len(), |r| {
            classes.get(r).and_then(|&(u, _)| exact_div(&full, u))
        });
        let envs = rep_envs
            .into_iter()
            .collect::<Option<Vec<Vec<BigUint>>>>()
            .and_then(|envs| class_of.into_iter().map(|c| envs.get(c).cloned()).collect());
        if let Some(envs) = envs {
            return Ok(envs);
        }
        // Unreachable for exact inputs, but the descent is always
        // correct — prefer a slow answer to a panic.
    }
    fill_leave_one_out(polys, seed.to_vec(), threads, cancel)
}

/// Maps `f` over `0..n` across up to `threads` scoped worker threads,
/// preserving order (sequential when the budget or size is trivial).
#[expect(
    clippy::disallowed_methods,
    reason = "a sanctioned fan-out: the worker count is capped by `threads`"
)]
fn par_map_chunks<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let f = &f;
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(chunk) => chunk,
                // A worker panic is a bug in `f`; re-raise it with its
                // original payload rather than a second-hand message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

fn fill_leave_one_out(
    polys: &[&[BigUint]],
    acc: Vec<BigUint>,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<BigUint>>, NumericError> {
    match polys {
        [] => Ok(Vec::new()),
        [_] => Ok(vec![acc]),
        _ => {
            let (left, right) = polys.split_at(polys.len() / 2);
            let size = work_size(polys);
            let (left_product, right_product) = join_halves(
                threads,
                size,
                || tree_product(left, threads - threads / 2, Backend::Auto, cancel),
                || tree_product(right, threads / 2, Backend::Auto, cancel),
            );
            let (left_product, right_product) = (left_product?, right_product?);
            let (lo, ro) = join_halves(
                threads,
                size,
                || {
                    let acc = mul_impl(&acc, &right_product, Backend::Auto, cancel)?;
                    fill_leave_one_out(left, acc, threads - threads / 2, cancel)
                },
                || {
                    let acc = mul_impl(&acc, &left_product, Backend::Auto, cancel)?;
                    fill_leave_one_out(right, acc, threads / 2, cancel)
                },
            );
            let mut lo = lo?;
            lo.extend(ro?);
            Ok(lo)
        }
    }
}

/// Runs the two closures — on this thread sequentially, or with the
/// second forked onto a scoped thread when the budget and the workload
/// justify it.
#[expect(
    clippy::disallowed_methods,
    reason = "a sanctioned fan-out: the fork happens only when `threads` allows it"
)]
fn join_halves<A: Send, B: Send>(
    threads: usize,
    size: usize,
    fa: impl FnOnce() -> A + Send,
    fb: impl FnOnce() -> B + Send,
) -> (A, B) {
    if threads > 1 && size >= PARALLEL_MIN_COEFFS {
        std::thread::scope(|s| {
            let hb = s.spawn(fb);
            let a = fa();
            match hb.join() {
                Ok(b) => (a, b),
                // Re-raise a worker panic with its original payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    } else {
        (fa(), fb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_ntt_is_a_typed_error_not_a_panic() {
        // out_len = 2^22 + 1 exceeds the transform bound by one.
        let a = vec![BigUint::zero(); 1 << MAX_TWO_ADICITY];
        let b = vec![BigUint::zero(); 2];
        match try_mul_with(&a, &b, Backend::Ntt) {
            Err(NumericError::NttLengthExceeded { out_len, max_len }) => {
                assert_eq!(out_len, (1 << MAX_TWO_ADICITY) + 1);
                assert_eq!(max_len, 1 << MAX_TWO_ADICITY);
            }
            other => panic!("expected NttLengthExceeded, got {other:?}"),
        }
    }

    #[test]
    fn infallible_ntt_entry_falls_back_instead_of_panicking() {
        // The same oversized request through the infallible entry point
        // reroutes to Karatsuba; zero inputs keep the fallback cheap.
        let a = vec![BigUint::zero(); 1 << MAX_TWO_ADICITY];
        let b = vec![BigUint::zero(); 2];
        let out = mul_with(&a, &b, Backend::Ntt);
        assert_eq!(out.len(), (1 << MAX_TWO_ADICITY) + 1);
        assert!(out.iter().all(BigUint::is_zero));
    }

    #[test]
    fn try_mul_matches_mul_in_bounds() {
        let a: Vec<BigUint> = (1..40u64).map(BigUint::from_u64).collect();
        let b: Vec<BigUint> = (3..50u64).map(BigUint::from_u64).collect();
        for backend in [
            Backend::Auto,
            Backend::Schoolbook,
            Backend::Karatsuba,
            Backend::Ntt,
        ] {
            assert_eq!(
                try_mul_with(&a, &b, backend).expect("in-bounds product"),
                mul_with(&a, &b, backend)
            );
        }
    }

    fn v(xs: &[u64]) -> Vec<BigUint> {
        xs.iter().map(|&x| BigUint::from_u64(x)).collect()
    }

    #[test]
    fn small_products_agree_across_backends() {
        let a = v(&[1, 2, 3]);
        let b = v(&[4, 0, 5, 6]);
        let want = mul_schoolbook(&a, &b);
        for backend in [Backend::Auto, Backend::Karatsuba, Backend::Ntt] {
            assert_eq!(mul_with(&a, &b, backend), want, "{backend:?}");
        }
        assert_eq!(want, v(&[4, 8, 17, 16, 27, 18]));
    }

    #[test]
    fn empty_and_identity_edges() {
        let a = v(&[3, 7]);
        assert_eq!(mul(&a, &[BigUint::one()]), a);
        assert_eq!(mul(&[], &a), vec![BigUint::zero(); 1]);
        assert_eq!(mul(&a, &[]), vec![BigUint::zero(); 1]);
        let z = vec![BigUint::zero(); 4];
        assert_eq!(mul_with(&z, &a, Backend::Ntt), vec![BigUint::zero(); 5]);
    }

    #[test]
    fn larger_sizes_agree_across_backends() {
        // Deterministic pseudo-random coefficients crossing the
        // KARATSUBA_MIN and NTT_MIN thresholds.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (la, lb) in [(25, 25), (70, 70), (70, 25), (64, 100), (1, 80)] {
            let a: Vec<BigUint> = (0..la).map(|_| BigUint::from_u64(next() >> 20)).collect();
            let b: Vec<BigUint> = (0..lb).map(|_| BigUint::from_u64(next() >> 20)).collect();
            let want = mul_schoolbook(&a, &b);
            assert_eq!(mul_with(&a, &b, Backend::Karatsuba), want, "kara {la}x{lb}");
            assert_eq!(mul_with(&a, &b, Backend::Ntt), want, "ntt {la}x{lb}");
            assert_eq!(mul(&a, &b), want, "auto {la}x{lb}");
        }
    }

    #[test]
    fn ntt_handles_coefficients_beyond_u128() {
        // > 2^128 coefficients force more CRT primes than a u128 fits.
        let big = (BigUint::one() << 200) + BigUint::from_u64(12345);
        let a = vec![big.clone(), BigUint::one() << 131, BigUint::from_u64(7)];
        let b = vec![BigUint::from_u64(3), big.clone()];
        let want = mul_schoolbook(&a, &b);
        assert_eq!(mul_with(&a, &b, Backend::Ntt), want);
        assert!(want.iter().any(|c| c.bit_len() > 256));
    }

    #[test]
    fn generated_primes_have_the_advertised_shape() {
        for pr in ntt_primes(3).expect("pool has at least 3 primes") {
            assert!(pr.p > 1 << 62 && pr.p < 1 << 63);
            assert_eq!((pr.p - 1) % (1 << MAX_TWO_ADICITY), 0);
            assert!(is_prime_u64(pr.p));
            // The stored root has order exactly 2^22.
            assert_eq!(powmod(pr.two_adic_root, 1 << MAX_TWO_ADICITY, pr.p), 1);
            assert_ne!(
                powmod(pr.two_adic_root, 1 << (MAX_TWO_ADICITY - 1), pr.p),
                1
            );
            // Montgomery round trip.
            assert_eq!(pr.decode(pr.encode(123456789)), 123456789);
        }
    }

    #[test]
    fn pascal_shifts_match_generic_paths() {
        let one_one = v(&[1, 1]);
        let a = v(&[2, 0, 5, 1]);
        let up = pascal_up(&a);
        assert_eq!(up, mul_schoolbook(&a, &one_one));
        assert_eq!(pascal_down(&up), Some(a.clone()));
        assert_eq!(pascal_down(&up), exact_div(&up, &one_one));
        // Non-divisible input: both paths refuse.
        let bad = v(&[1, 1, 1]);
        assert_eq!(pascal_down(&bad), None);
        assert_eq!(exact_div(&bad, &one_one), None);
        // Degenerate lengths.
        assert_eq!(pascal_down(&v(&[5])), None);
        assert_eq!(pascal_up(&[]), Vec::<BigUint>::new());
    }

    #[test]
    fn exact_division_round_trips() {
        let a = v(&[1, 4, 6, 4, 1]);
        let b = v(&[1, 2, 1]);
        assert_eq!(exact_div(&a, &b).unwrap(), b);
        // Leading-zero divisor (a shifted factor).
        let shifted = v(&[0, 1, 1]);
        let prod = mul(&shifted, &b);
        assert_eq!(exact_div(&prod, &shifted).unwrap(), b);
        // Non-divisor → None.
        assert!(exact_div(&a, &v(&[1, 3])).is_none());
        // Zero divisor → None.
        assert!(exact_div(&a, &vec![BigUint::zero(); 2]).is_none());
        // Zero numerator keeps the conventional length.
        let z = vec![BigUint::zero(); 5];
        assert_eq!(exact_div(&z, &b).unwrap(), vec![BigUint::zero(); 3]);
    }

    #[test]
    fn product_tree_and_leave_one_out_match_naive() {
        let polys = [v(&[1, 3]), v(&[2, 1, 1]), v(&[1, 0, 4]), v(&[5])];
        let refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        let naive = refs
            .iter()
            .fold(vec![BigUint::one()], |acc, p| mul_schoolbook(&acc, p));
        for threads in [1, 2, 4] {
            assert_eq!(product_tree(&refs, threads, None), Ok(naive.clone()));
        }
        assert_eq!(product_tree(&[], 1, None), Ok(vec![BigUint::one()]));
        let seed = v(&[1, 2, 1]);
        let envs = leave_one_out_products(&refs, &seed, 2, None).unwrap();
        assert_eq!(envs.len(), refs.len());
        for (i, env) in envs.iter().enumerate() {
            let mut want = seed.clone();
            for (j, p) in refs.iter().enumerate() {
                if j != i {
                    want = mul_schoolbook(&want, p);
                }
            }
            assert_eq!(env, &want, "environment {i}");
        }
    }

    #[test]
    fn leave_one_out_handles_equal_factors_and_zeros() {
        // Equal factors: one division per distinct polynomial, the
        // same environment for each copy.
        let p = v(&[1, 2, 1]);
        let q = v(&[1, 3]);
        let polys = [p.clone(), q.clone(), p.clone()];
        let refs: Vec<&[BigUint]> = polys.iter().map(|x| x.as_slice()).collect();
        let envs = leave_one_out_products(&refs, &v(&[1, 1]), 1, None).unwrap();
        assert_eq!(envs[0], envs[2]);
        assert_eq!(
            envs[0],
            mul_schoolbook(&v(&[1, 1]), &mul_schoolbook(&q, &p))
        );
        assert_eq!(
            envs[1],
            mul_schoolbook(&v(&[1, 1]), &mul_schoolbook(&p, &p))
        );
        // A zero factor forces the descent fallback; results (values
        // and lengths) must match the naive reference exactly.
        let zero = vec![BigUint::zero(); 3];
        let with_zero = [p.clone(), zero.clone(), q.clone()];
        let refs: Vec<&[BigUint]> = with_zero.iter().map(|x| x.as_slice()).collect();
        let envs = leave_one_out_products(&refs, &v(&[1]), 2, None).unwrap();
        for (i, env) in envs.iter().enumerate() {
            let mut want = v(&[1]);
            for (j, r) in refs.iter().enumerate() {
                if j != i {
                    want = mul_schoolbook(&want, r);
                }
            }
            assert_eq!(env, &want, "environment {i} with a zero factor");
        }
    }

    #[test]
    fn miller_recurrence_matches_the_schoolbook_fold() {
        // The uniform report's root-group factor, 512 copies.
        let u = v(&[1, 1, 3, 3, 1]);
        let fold = (0..512).fold(vec![BigUint::one()], |acc, _| mul_schoolbook(&acc, &u));
        assert_eq!(power_by_recurrence(&u, 512, None), Ok(Some(fold.clone())));
        let copies = vec![u.as_slice(); 512];
        assert_eq!(product_tree(&copies, 2, None), Ok(fold));
        // Leading and trailing zeros: u = x²·(2 + 5x) padded to length 6.
        let u = v(&[0, 0, 2, 5, 0, 0]);
        let fold = (0..7).fold(vec![BigUint::one()], |acc, _| mul_schoolbook(&acc, &u));
        assert_eq!(power_by_recurrence(&u, 7, None), Ok(Some(fold)));
        // Words that do not fit: the recurrence declines.
        let wide = vec![BigUint::one(), BigUint::one() << 64];
        assert_eq!(power_by_recurrence(&wide, 3, None), Ok(None));
        assert_eq!(power_by_recurrence(&v(&[0, 0]), 3, None), Ok(None));
    }

    #[test]
    fn cancelled_trees_return_errors() {
        let polys: Vec<Vec<BigUint>> = (0..16).map(|i| v(&[1, i + 1])).collect();
        let refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        let seed = v(&[1, 1]);

        let live = CancelToken::unlimited();
        assert_eq!(
            product_tree(&refs, 1, Some(&live)),
            product_tree(&refs, 1, None)
        );
        assert_eq!(
            leave_one_out_products(&refs, &seed, 1, Some(&live)),
            leave_one_out_products(&refs, &seed, 1, None)
        );
        assert!(!live.should_stop());

        let tripped = CancelToken::unlimited();
        tripped.cancel();
        assert_eq!(
            product_tree(&refs, 1, Some(&tripped)),
            Err(NumericError::Cancelled)
        );
        assert_eq!(
            leave_one_out_products(&refs, &seed, 2, Some(&tripped)),
            Err(NumericError::Cancelled)
        );
        // Trees too small to reach a checkpoint stay total.
        assert_eq!(
            product_tree(&refs[..1], 1, Some(&tripped)),
            Ok(polys[0].clone())
        );
        // A long power polls the token too.
        let copies = vec![refs[1]; 64];
        assert_eq!(
            product_tree(&copies, 1, Some(&tripped)),
            Err(NumericError::Cancelled)
        );
        let capped = CancelToken::new(None, Some(10));
        assert_eq!(
            product_tree(&copies, 1, Some(&capped)),
            Err(NumericError::Cancelled)
        );
        // A work cap that trips mid-tree also ends in the error, never
        // in a partial product.
        for cap in 0..15 {
            let capped = CancelToken::new(None, Some(cap));
            assert_eq!(
                product_tree(&refs, 2, Some(&capped)),
                Err(NumericError::Cancelled),
                "cap {cap}"
            );
        }
    }

    /// A divisor coefficient for the word-size kernel: zero, one, a
    /// small count, or a full 64-bit word.
    fn arb_word() -> impl proptest::prelude::Strategy<Value = BigUint> {
        use proptest::prelude::*;
        (0u64..4, any::<u64>()).prop_map(|(kind, x)| {
            BigUint::from_u64(match kind {
                0 => 0,
                1 => 1,
                2 => x % 7,
                _ => x,
            })
        })
    }

    /// A quotient coefficient from zero to ~2^228 (inline and limb
    /// representations both appear).
    fn arb_big() -> impl proptest::prelude::Strategy<Value = BigUint> {
        use proptest::prelude::*;
        (any::<u64>(), any::<u64>(), 0usize..=100).prop_map(|(lo, hi, shift)| {
            BigUint::from_u128(lo as u128 | (hi as u128) << 64) << shift
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The in-place word-size kernel returns exactly what the
        /// generic kernel returns — the quotient of a divisible input,
        /// `None` for one perturbed up or down (an underflowing running
        /// difference included) — across zero, unit, and full-word
        /// divisor coefficients (leading and trailing zeros included).
        #[test]
        fn word_size_division_matches_the_generic_kernel(
            q in proptest::prelude::prop::collection::vec(arb_big(), 1..=12),
            d in proptest::prelude::prop::collection::vec(arb_word(), 1..=6),
            at in 0usize..32,
            delta in 0u64..3,
        ) {
            let num = mul_schoolbook(&q, &d);
            let mut bent = num.clone();
            let len = bent.len();
            bent[at % len] += &BigUint::from_u64(delta);
            // Lowering a coefficient makes the in-place subtraction
            // underflow (or leave a remainder) where raising it cannot.
            let mut lowered = num.clone();
            let slot = &mut lowered[(at / 2) % len];
            *slot = slot.checked_sub(&BigUint::from_u64(delta)).unwrap_or_default();
            for n in [&num, &bent, &lowered] {
                proptest::prop_assert_eq!(divide(n, &d, true), divide(n, &d, false), "{:?} / {:?}", n, d);
            }
            if d.iter().any(|c| !c.is_zero()) {
                proptest::prop_assert_eq!(divide(&num, &d, true), Some(q.clone()), "{:?} / {:?}", num, d);
            }
        }
    }
}
