//! Arbitrary-precision unsigned integers with an inline small-value
//! representation.
//!
//! Values that fit in a `u128` are stored inline (`Repr::Small`) with
//! no heap allocation; only values of three or more 64-bit limbs spill
//! into a little-endian limb vector (`Repr::Large`, kept normalized:
//! at least three limbs, the last nonzero). The counting pipeline spends
//! almost all of its time on single-word magnitudes — binomials, small
//! group counts, convolution partial sums — so the inline path turns the
//! hot add/mul/sub operations into plain `u128` arithmetic and removes
//! an allocation per intermediate value.
//!
//! Large-value arithmetic is unchanged from the classic limb algorithms:
//! schoolbook multiplication via `u128` partial products, shift–subtract
//! division, Stein's binary GCD. Every constructor normalizes, so the
//! representation is canonical and the derived `Eq`/`Hash` are sound.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// The canonical representation: `Small` iff the value fits in `u128`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Any value `< 2^128`, stored inline.
    Small(u128),
    /// Little-endian limbs; invariant: `len >= 3` and the last limb is
    /// nonzero (so the value needs more than 128 bits).
    Large(Vec<u64>),
}

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    repr: Repr,
}

impl Default for BigUint {
    fn default() -> Self {
        Self::zero()
    }
}

/// Normalizes a limb vector into the canonical representation.
// cqshap-lint: allow(cancellation-reachability) -- bounded: pops the trailing zero limbs
fn from_limb_vec(mut limbs: Vec<u64>) -> BigUint {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
    match *limbs.as_slice() {
        [] => BigUint::zero(),
        [lo] => BigUint {
            repr: Repr::Small(lo as u128),
        },
        [lo, hi] => BigUint {
            repr: Repr::Small(lo as u128 | (hi as u128) << 64),
        },
        _ => BigUint {
            repr: Repr::Large(limbs),
        },
    }
}

/// `a + b` over little-endian limb slices.
fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (s1, c1) = ai.overflowing_add(bi);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b` over limb slices; the caller guarantees `a >= b`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
fn sub_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    out
}

/// Schoolbook `a * b` over limb slices.
// cqshap-lint: allow(cancellation-reachability) -- bounded: len(a)·len(b) limb products
fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        // Row `i` of the product starts at limb `i`; `b` leads the zip,
        // so `slots` then continues at limb `i + b.len()`.
        let mut slots = out.iter_mut().skip(i);
        let mut carry = 0u128;
        for (&bj, slot) in b.iter().zip(slots.by_ref()) {
            let cur = *slot as u128 + ai as u128 * bj as u128 + carry;
            *slot = cur as u64;
            carry = cur >> 64;
        }
        for slot in slots {
            if carry == 0 {
                break;
            }
            let cur = *slot as u128 + carry;
            *slot = cur as u64;
            carry = cur >> 64;
        }
    }
    out
}

/// `limbs += al · m · 2^(64·offset)`, growing `limbs` as needed.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
fn add_mul_word_at(limbs: &mut Vec<u64>, al: &[u64], m: u64, offset: usize) {
    if limbs.len() <= al.len() + offset {
        limbs.resize(al.len() + offset + 1, 0);
    }
    let mut carry = 0u128;
    let mut rest = limbs.iter_mut().skip(offset);
    // `al` leads the zip, so `rest` stops at the first slot past it.
    for (&x, slot) in al.iter().zip(rest.by_ref()) {
        // ≤ (2^64−1) + (2^64−1)² + (2^64−1) = 2^128 − 1: no overflow.
        let cur = *slot as u128 + x as u128 * m as u128 + carry;
        *slot = cur as u64;
        carry = cur >> 64;
    }
    for slot in rest {
        if carry == 0 {
            break;
        }
        let cur = *slot as u128 + carry;
        *slot = cur as u64;
        carry = cur >> 64;
    }
    if carry != 0 {
        limbs.push(carry as u64);
    }
}

/// `limbs −= al · m` modulo `2^(64·len)`; `true` iff no borrow left
/// the top limb (the difference is nonnegative). The caller guarantees
/// `limbs.len() >= al.len()`.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
fn sub_mul_word(limbs: &mut [u64], al: &[u64], m: u64) -> bool {
    let mut borrow = 0u64;
    let mut rest = limbs.iter_mut();
    // `al` leads the zip, so `rest` stops at the first slot past it.
    for (&x, slot) in al.iter().zip(rest.by_ref()) {
        // ≤ (2^64−1)² + (2^64−1) < 2^128, and its high word ≤ 2^64 − 2.
        let p = x as u128 * m as u128 + borrow as u128;
        let (diff, under) = slot.overflowing_sub(p as u64);
        *slot = diff;
        borrow = ((p >> 64) as u64) + under as u64;
    }
    for slot in rest {
        if borrow == 0 {
            break;
        }
        let (diff, under) = slot.overflowing_sub(borrow);
        *slot = diff;
        borrow = under as u64;
    }
    borrow == 0
}

// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {
            for (x, y) in a.iter().rev().zip(b.iter().rev()) {
                match x.cmp(y) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            Ordering::Equal
        }
        ord => ord,
    }
}

impl BigUint {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        BigUint {
            repr: Repr::Small(0),
        }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        BigUint {
            repr: Repr::Small(1),
        }
    }

    /// Builds from a `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        BigUint {
            repr: Repr::Small(v as u128),
        }
    }

    /// Builds from a `u128`.
    #[inline]
    pub fn from_u128(v: u128) -> Self {
        BigUint {
            repr: Repr::Small(v),
        }
    }

    /// Builds from a `usize`.
    #[inline]
    pub fn from_usize(v: usize) -> Self {
        Self::from_u64(v as u64)
    }

    /// Builds from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        from_limb_vec(limbs)
    }

    /// Calls `f` with the (normalized) little-endian limbs of `self`.
    /// Small values borrow a stack buffer; no allocation happens.
    /// Crate-internal: the polynomial NTT reduces coefficients modulo
    /// many primes straight off the limbs.
    pub(crate) fn with_limbs<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        match &self.repr {
            Repr::Small(v) => {
                let buf = [*v as u64, (*v >> 64) as u64];
                // The normalized limbs: significant words only.
                let len = (128 - v.leading_zeros() as usize).div_ceil(64);
                f(buf.get(..len).unwrap_or_default())
            }
            Repr::Large(l) => f(l),
        }
    }

    /// Is this zero?
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Is this one?
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small(1))
    }

    /// Is this even? Zero is even.
    #[inline]
    pub fn is_even(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => v & 1 == 0,
            Repr::Large(l) => l.first().is_none_or(|x| x & 1 == 0),
        }
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => 128 - v.leading_zeros() as usize,
            #[expect(
                clippy::expect_used,
                reason = "Repr::Large is nonempty by representation invariant"
            )]
            Repr::Large(l) => l.len() * 64 - l.last().expect("nonempty").leading_zeros() as usize,
        }
    }

    /// The value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        match &self.repr {
            Repr::Small(v) => i < 128 && (v >> i) & 1 == 1,
            Repr::Large(l) => {
                let (limb, off) = (i / 64, i % 64);
                l.get(limb).is_some_and(|x| (x >> off) & 1 == 1)
            }
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    pub fn trailing_zeros(&self) -> Option<usize> {
        match &self.repr {
            Repr::Small(0) => None,
            Repr::Small(v) => Some(v.trailing_zeros() as usize),
            #[expect(
                clippy::unreachable,
                reason = "Repr::Large is nonzero by representation invariant"
            )]
            Repr::Large(l) => {
                for (i, &x) in l.iter().enumerate() {
                    if x != 0 {
                        return Some(i * 64 + x.trailing_zeros() as usize);
                    }
                }
                unreachable!("Large is nonzero by invariant")
            }
        }
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small(v) => u64::try_from(*v).ok(),
            Repr::Large(_) => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Small(v) => Some(*v),
            Repr::Large(_) => None,
        }
    }

    /// Nearest `f64` (may overflow to `f64::INFINITY`).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(v) => *v as f64,
            Repr::Large(l) => {
                // Take the top 128 bits and scale by the discarded limbs.
                let top = l
                    .iter()
                    .rev()
                    .take(2)
                    .fold(0u128, |acc, &x| acc << 64 | x as u128);
                top as f64 * 2f64.powi(64 * (l.len() as i32 - 2))
            }
        }
    }

    /// Natural logarithm, as `f64` (`-inf` for zero).
    pub fn ln_f64(&self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        let bits = self.bit_len();
        if bits <= 1000 {
            self.to_f64().ln()
        } else {
            // Avoid f64 overflow: ln(x) = ln(x >> s) + s·ln 2.
            let shift = bits - 512;
            (self >> shift).to_f64().ln() + shift as f64 * std::f64::consts::LN_2
        }
    }

    fn add_ref(&self, other: &BigUint) -> BigUint {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            match a.checked_add(*b) {
                Some(s) => return BigUint::from_u128(s),
                None => {
                    let s = a.wrapping_add(*b);
                    return BigUint {
                        repr: Repr::Large(vec![s as u64, (s >> 64) as u64, 1]),
                    };
                }
            }
        }
        self.with_limbs(|a| other.with_limbs(|b| from_limb_vec(add_limbs(a, b))))
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.checked_sub(*b).map(BigUint::from_u128),
            (Repr::Small(_), Repr::Large(_)) => None,
            (Repr::Large(a), Repr::Small(_)) => {
                Some(other.with_limbs(|b| from_limb_vec(sub_limbs(a, b))))
            }
            (Repr::Large(a), Repr::Large(b)) => match cmp_limbs(a, b) {
                Ordering::Less => None,
                _ => Some(from_limb_vec(sub_limbs(a, b))),
            },
        }
    }

    fn mul_ref(&self, other: &BigUint) -> BigUint {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            if let Some(p) = a.checked_mul(*b) {
                return BigUint::from_u128(p);
            }
        }
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        self.with_limbs(|a| other.with_limbs(|b| from_limb_vec(mul_limbs(a, b))))
    }

    /// Multiplies by a `u64` in place.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    pub fn mul_u64_assign(&mut self, m: u64) {
        match &mut self.repr {
            Repr::Small(v) => match v.checked_mul(m as u128) {
                Some(p) => *v = p,
                None => {
                    *self = self.with_limbs(|a| from_limb_vec(mul_limbs(a, &[m])));
                }
            },
            Repr::Large(l) => {
                if m == 0 {
                    *self = BigUint::zero();
                    return;
                }
                let mut carry = 0u128;
                for limb in l.iter_mut() {
                    let cur = *limb as u128 * m as u128 + carry;
                    *limb = cur as u64;
                    carry = cur >> 64;
                }
                if carry != 0 {
                    l.push(carry as u64);
                }
            }
        }
    }

    /// `self += a · m` in place, without allocating the product: once
    /// `self` spills into limbs, repeated calls grow one limb vector.
    /// The word-size kernels of polynomial division and of the Shapley
    /// weight contraction accumulate their sums with it.
    pub fn add_mul_u64_assign(&mut self, a: &BigUint, m: u64) {
        if let (Repr::Small(acc), Repr::Small(av)) = (&mut self.repr, &a.repr) {
            if let Some(sum) = av.checked_mul(m as u128).and_then(|p| p.checked_add(*acc)) {
                *acc = sum;
                return;
            }
        }
        if m == 0 || a.is_zero() {
            return;
        }
        let mut limbs = self.take_limbs();
        a.with_limbs(|al| add_mul_word_at(&mut limbs, al, m, 0));
        *self = from_limb_vec(limbs);
    }

    /// `self += a · m` for a two-word multiplier, in place: the
    /// contraction kernel's coefficients are sums of word products, so
    /// most of them fit a `u128`. A multiplier that fits a word takes
    /// [`BigUint::add_mul_u64_assign`].
    pub fn add_mul_u128_assign(&mut self, a: &BigUint, m: u128) {
        let (lo, hi) = (m as u64, (m >> 64) as u64);
        if hi == 0 {
            self.add_mul_u64_assign(a, lo);
            return;
        }
        if let (Repr::Small(acc), Repr::Small(av)) = (&mut self.repr, &a.repr) {
            if let Some(sum) = av.checked_mul(m).and_then(|p| p.checked_add(*acc)) {
                *acc = sum;
                return;
            }
        }
        if a.is_zero() {
            return;
        }
        let mut limbs = self.take_limbs();
        a.with_limbs(|al| {
            add_mul_word_at(&mut limbs, al, lo, 0);
            add_mul_word_at(&mut limbs, al, hi, 1);
        });
        *self = from_limb_vec(limbs);
    }

    /// `self −= a · m` in place, without allocating the product. Returns
    /// `false`, leaving `self` unchanged, when `a · m > self`. Exact
    /// polynomial division subtracts each `q[i]·d[k−i]` from its
    /// coefficient with it.
    #[must_use]
    pub fn sub_mul_u64_assign(&mut self, a: &BigUint, m: u64) -> bool {
        if m == 0 || a.is_zero() {
            return true;
        }
        match (&mut self.repr, &a.repr) {
            (Repr::Small(acc), Repr::Small(av)) => {
                match av.checked_mul(m as u128).and_then(|p| acc.checked_sub(p)) {
                    Some(diff) => {
                        *acc = diff;
                        true
                    }
                    None => false,
                }
            }
            // A nonzero `a` of more limbs than `self` exceeds it.
            (Repr::Small(_), Repr::Large(_)) => false,
            (Repr::Large(limbs), _) => {
                let fits = a.with_limbs(|al| {
                    if limbs.len() < al.len() {
                        return false;
                    }
                    if sub_mul_word(limbs, al, m) {
                        return true;
                    }
                    // The wrapped difference plus `a·m` is `self` plus
                    // one carry past the top limb, which is dropped.
                    let len = limbs.len();
                    add_mul_word_at(limbs, al, m, 0);
                    limbs.truncate(len);
                    false
                });
                if fits && limbs.last() == Some(&0) {
                    *self = from_limb_vec(std::mem::take(limbs));
                }
                fits
            }
        }
    }

    /// Moves the limbs out of `self` (at least two, for the inline
    /// representation), leaving zero behind.
    fn take_limbs(&mut self) -> Vec<u64> {
        match std::mem::replace(&mut self.repr, Repr::Small(0)) {
            Repr::Small(v) => vec![v as u64, (v >> 64) as u64],
            Repr::Large(l) => l,
        }
    }

    /// `self * m` for a `u64` multiplier.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        let mut out = self.clone();
        out.mul_u64_assign(m);
        out
    }

    /// The remainder `self mod d` without modifying or cloning `self` —
    /// the allocation-free divisibility probe behind the
    /// factorial-denominator reduction's prime trials.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        match &self.repr {
            Repr::Small(v) => (*v % d as u128) as u64,
            Repr::Large(l) => {
                let mut rem = 0u128;
                for limb in l.iter().rev() {
                    rem = ((rem << 64) | *limb as u128) % d as u128;
                }
                rem as u64
            }
        }
    }

    /// Divides in place by a nonzero `u64`, returning the remainder.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    pub fn div_rem_u64_assign(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        match &mut self.repr {
            Repr::Small(v) => {
                let rem = *v % d as u128;
                *v /= d as u128;
                rem as u64
            }
            Repr::Large(l) => {
                let mut rem = 0u128;
                for limb in l.iter_mut().rev() {
                    let cur = (rem << 64) | *limb as u128;
                    *limb = (cur / d as u128) as u64;
                    rem = cur % d as u128;
                }
                let out = rem as u64;
                if l.last() == Some(&0) {
                    *self = from_limb_vec(std::mem::take(l));
                }
                out
            }
        }
    }

    /// Shift left by `bits`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        if let Repr::Small(v) = &self.repr {
            if bits < 128 && v.leading_zeros() as usize >= bits {
                return BigUint::from_u128(v << bits);
            }
        }
        self.with_limbs(|l| {
            let (limb_shift, bit_shift) = (bits / 64, bits % 64);
            let mut out = vec![0u64; limb_shift];
            if bit_shift == 0 {
                out.extend_from_slice(l);
            } else {
                let mut carry = 0u64;
                for &x in l {
                    out.push((x << bit_shift) | carry);
                    carry = x >> (64 - bit_shift);
                }
                if carry != 0 {
                    out.push(carry);
                }
            }
            from_limb_vec(out)
        })
    }

    /// Shift right by `bits`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the limbs
    fn shr_bits(&self, bits: usize) -> BigUint {
        if bits == 0 {
            return self.clone();
        }
        if let Repr::Small(v) = &self.repr {
            return if bits >= 128 {
                BigUint::zero()
            } else {
                BigUint::from_u128(v >> bits)
            };
        }
        self.with_limbs(|l| {
            let (limb_shift, bit_shift) = (bits / 64, bits % 64);
            // Shifting out every limb leaves zero.
            let mut out: Vec<u64> = l.get(limb_shift..).unwrap_or_default().to_vec();
            if bit_shift != 0 {
                let mut carry = 0u64;
                for x in out.iter_mut().rev() {
                    let new_carry = *x << (64 - bit_shift);
                    *x = (*x >> bit_shift) | carry;
                    carry = new_carry;
                }
            }
            from_limb_vec(out)
        })
    }

    /// Euclidean division: returns `(self / d, self % d)`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one shift-subtract step per quotient bit
    pub fn div_rem(&self, d: &BigUint) -> (BigUint, BigUint) {
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (BigUint::zero(), self.clone());
        }
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &d.repr) {
            return (BigUint::from_u128(a / b), BigUint::from_u128(a % b));
        }
        if let Some(small) = d.to_u64() {
            let mut q = self.clone();
            let r = q.div_rem_u64_assign(small);
            return (q, BigUint::from_u64(r));
        }
        // Shift–subtract long division over bits.
        let shift = self.bit_len() - d.bit_len();
        let mut rem = self.clone();
        let mut quotient_bits = vec![0u64; shift / 64 + 1];
        let mut divisor = d.shl_bits(shift);
        for i in (0..=shift).rev() {
            if let Some(diff) = rem.checked_sub(&divisor) {
                rem = diff;
                if let Some(word) = quotient_bits.get_mut(i / 64) {
                    *word |= 1u64 << (i % 64);
                }
            }
            divisor = divisor.shr_bits(1);
        }
        (from_limb_vec(quotient_bits), rem)
    }

    /// Greatest common divisor (binary / Stein algorithm; pure `u128`
    /// arithmetic when both values are small).
    // cqshap-lint: allow(cancellation-reachability) -- bounded: each binary-gcd step clears at least one bit, at most bit_len(a) + bit_len(b) steps
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            let (mut a, mut b) = (*a, *b);
            let k = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    return BigUint::from_u128(a << k);
                }
            }
        }
        let mut a = self.clone();
        let mut b = other.clone();
        #[expect(
            clippy::expect_used,
            reason = "both operands were checked nonzero at the top of gcd"
        )]
        let za = a.trailing_zeros().expect("nonzero");
        #[expect(
            clippy::expect_used,
            reason = "both operands were checked nonzero at the top of gcd"
        )]
        let zb = b.trailing_zeros().expect("nonzero");
        let k = za.min(zb);
        a = a.shr_bits(za);
        b = b.shr_bits(zb);
        loop {
            debug_assert!(!a.is_even() && !b.is_even());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            #[expect(
                clippy::expect_used,
                reason = "the branch above orders a <= b before subtracting"
            )]
            let diff = b.checked_sub(&a).expect("b >= a");
            b = diff;
            if b.is_zero() {
                return a.shl_bits(k);
            }
            #[expect(clippy::expect_used, reason = "b was checked nonzero just above")]
            let zb = b.trailing_zeros().expect("nonzero");
            b = b.shr_bits(zb);
        }
    }

    /// Raises to the power `exp` by square-and-multiply.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one squaring per exponent bit
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A canonical Large value always exceeds 2^128 - 1.
            (Repr::Small(_), Repr::Large(_)) => Ordering::Less,
            (Repr::Large(_), Repr::Small(_)) => Ordering::Greater,
            (Repr::Large(a), Repr::Large(b)) => cmp_limbs(a, b),
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from_u64(v as u64)
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        Self::from_usize(v)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$impl_method(rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$impl_method(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$impl_method(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$impl_method(&rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Mul, mul, mul_ref);

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    #[expect(
        clippy::expect_used,
        reason = "documented panic: Sub mirrors std unsigned underflow; checked_sub is the fallible path"
    )]
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub<BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        &self - rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        if let (Repr::Small(a), Repr::Small(b)) = (&mut self.repr, &rhs.repr) {
            if let Some(s) = a.checked_add(*b) {
                *a = s;
                return;
            }
        }
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_ref(rhs);
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            // Forward the formatter itself so width/fill/alignment apply.
            Repr::Small(v) => fmt::Display::fmt(v, f),
            Repr::Large(_) => {
                // Peel off 19 decimal digits at a time (10^19 fits in u64).
                const CHUNK: u64 = 10_000_000_000_000_000_000;
                let mut chunks = Vec::new();
                let mut cur = self.clone();
                while !cur.is_zero() {
                    chunks.push(cur.div_rem_u64_assign(CHUNK));
                }
                let mut s = String::new();
                for (i, c) in chunks.iter().rev().enumerate() {
                    if i == 0 {
                        s.push_str(&c.to_string());
                    } else {
                        s.push_str(&format!("{c:019}"));
                    }
                }
                // The Small arm forwards to u128's Display, which honors
                // width/fill/alignment — do the same here so formatting
                // is consistent across the 2^128 boundary.
                f.pad_integral(true, "", &s)
            }
        }
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

/// Error parsing a [`BigUint`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError(pub String);

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid unsigned integer literal: {:?}", self.0)
    }
}

impl std::error::Error for ParseBigUintError {}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigUintError(s.to_string()));
        }
        let mut out = BigUint::zero();
        for chunk in s.as_bytes().chunks(19) {
            #[expect(
                clippy::expect_used,
                reason = "the radix loop feeds only ascii digits here, and 19 decimal digits always fit in a u64"
            )]
            let part: u64 = std::str::from_utf8(chunk)
                .expect("ascii digits")
                .parse()
                .expect("chunk of <=19 digits fits u64");
            out.mul_u64_assign(10u64.pow(chunk.len() as u32));
            out += &BigUint::from_u64(part);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carry() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        assert_eq!(&a + &b, BigUint::from_u128(1u128 << 64));
    }

    #[test]
    fn add_across_the_inline_boundary() {
        let max = BigUint::from_u128(u128::MAX);
        let two_128 = &max + &BigUint::one();
        assert_eq!(two_128.bit_len(), 129);
        assert_eq!(two_128.to_u128(), None);
        assert_eq!(two_128.checked_sub(&BigUint::one()), Some(max.clone()));
        assert_eq!(&two_128 + &two_128, BigUint::one() << 129);
        // Re-entering the inline range after a large intermediate.
        assert_eq!((&two_128 - &BigUint::one()).to_u128(), Some(u128::MAX));
        let mut aa = max.clone();
        aa += &max;
        assert_eq!(aa, &max * &BigUint::from_u64(2));
    }

    #[test]
    fn sub_underflow_is_none() {
        let a = BigUint::from_u64(3);
        let b = BigUint::from_u64(5);
        assert!(a.checked_sub(&b).is_none());
        assert_eq!(b.checked_sub(&a), Some(BigUint::from_u64(2)));
        let large = BigUint::one() << 200;
        assert!(a.checked_sub(&large).is_none());
        assert_eq!(
            large.checked_sub(&large.clone()),
            Some(BigUint::zero()),
            "large - large normalizes back to the inline zero"
        );
    }

    #[test]
    fn mul_cross_limb() {
        let a = BigUint::from_u128(u128::MAX);
        let sq = &a * &a;
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expected = (&(&BigUint::one() << 256) - &(&BigUint::one() << 129)) + BigUint::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn mul_u64_promotes_and_demotes() {
        let mut v = BigUint::from_u128(u128::MAX / 2);
        v.mul_u64_assign(8); // spills past u128
        assert_eq!(v.bit_len(), 130);
        assert_eq!(v.div_rem_u64_assign(8), 0);
        assert_eq!(v.to_u128(), Some(u128::MAX / 2));
        let mut z = BigUint::one() << 200;
        z.mul_u64_assign(0);
        assert!(z.is_zero());
    }

    #[test]
    fn display_round_trip_large() {
        let s = "123456789012345678901234567890123456789012345678901234567890";
        assert_eq!(big(s).to_string(), s);
    }

    #[test]
    fn display_flags_consistent_across_the_boundary() {
        let small = BigUint::from_u64(42);
        let large = BigUint::one() << 130;
        assert_eq!(format!("{small:>6}"), "    42");
        assert_eq!(format!("{large:>45}"), format!("{:>45}", large.to_string()));
        assert_eq!(format!("{small:06}"), "000042");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
        assert!("-5".parse::<BigUint>().is_err());
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = big("1000000000000000000000000000007");
        let (q, r) = a.div_rem(&BigUint::from_u64(13));
        assert_eq!(&q * &BigUint::from_u64(13) + r, a);
    }

    #[test]
    fn div_rem_large_divisor() {
        let a = big("340282366920938463463374607431768211457123456789");
        let d = big("18446744073709551629");
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&q * &d + &r, a);
    }

    #[test]
    fn div_rem_multi_limb_divisor() {
        let a = BigUint::one() << 300;
        let d = (BigUint::one() << 140) + BigUint::from_u64(17);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&q * &d + &r, a);
    }

    #[test]
    fn div_by_zero_panics() {
        let a = BigUint::from_u64(10);
        let result = std::panic::catch_unwind(|| a.div_rem(&BigUint::zero()));
        assert!(result.is_err());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(36)),
            BigUint::from_u64(12)
        );
        assert_eq!(
            BigUint::zero().gcd(&BigUint::from_u64(7)),
            BigUint::from_u64(7)
        );
        assert_eq!(
            BigUint::from_u64(7).gcd(&BigUint::zero()),
            BigUint::from_u64(7)
        );
        let a = big("123456789012345678901234567890");
        assert_eq!(a.gcd(&a), a);
        // Mixed small/large and large/large agreement with the definition.
        let b = (BigUint::one() << 200) * BigUint::from_u64(12);
        assert_eq!(b.gcd(&BigUint::from_u64(36)), BigUint::from_u64(12));
        let g = (BigUint::one() << 130) * BigUint::from_u64(3);
        assert_eq!(
            (&g * &BigUint::from_u64(4)).gcd(&(&g * &BigUint::from_u64(6))),
            &g * &BigUint::from_u64(2)
        );
    }

    #[test]
    fn shifts() {
        let a = big("987654321987654321987654321");
        assert_eq!(&(&a << 131) >> 131, a);
        assert_eq!(&a >> 1000, BigUint::zero());
        assert_eq!(&a << 0, a);
        // Inline shift that stays inline vs one that spills.
        let b = BigUint::from_u64(3);
        assert_eq!((&b << 120).bit_len(), 122);
        assert_eq!((&b << 127).bit_len(), 129);
        assert_eq!(&(&b << 127) >> 127, b);
    }

    #[test]
    fn pow_small() {
        assert_eq!(BigUint::from_u64(2).pow(100), &BigUint::one() << 100);
        assert_eq!(BigUint::from_u64(7).pow(0), BigUint::one());
        assert_eq!(BigUint::zero().pow(5), BigUint::zero());
        assert_eq!(BigUint::zero().pow(0), BigUint::one());
    }

    #[test]
    fn to_f64_accuracy() {
        let a = BigUint::from_u64(1) << 200;
        let f = a.to_f64();
        assert!((f.log2() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn ln_large_values() {
        let a = BigUint::from_u64(1) << 5000;
        let expected = 5000.0 * std::f64::consts::LN_2;
        assert!((a.ln_f64() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(big("100000000000000000000") > big("99999999999999999999"));
        assert!(BigUint::zero() < BigUint::one());
        assert!(BigUint::from_u128(u128::MAX) < BigUint::one() << 128);
        assert!(BigUint::one() << 129 > BigUint::one() << 128);
    }

    #[test]
    fn bits() {
        let a = BigUint::from_u64(0b1010);
        assert!(a.bit(1));
        assert!(!a.bit(0));
        assert!(a.is_even());
        assert_eq!(a.trailing_zeros(), Some(1));
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        let l = BigUint::one() << 192;
        assert!(l.bit(192));
        assert!(!l.bit(0));
        assert_eq!(l.trailing_zeros(), Some(192));
    }

    #[test]
    fn from_limbs_normalizes_into_inline() {
        assert_eq!(BigUint::from_limbs(vec![5, 0, 0]), BigUint::from_u64(5));
        assert_eq!(BigUint::from_limbs(vec![]), BigUint::zero());
        assert_eq!(
            BigUint::from_limbs(vec![1, 2, 0, 0]),
            BigUint::from_u128(1 | 2u128 << 64)
        );
        let three = BigUint::from_limbs(vec![0, 0, 1]);
        assert_eq!(three, BigUint::one() << 128);
    }
}
