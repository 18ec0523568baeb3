//! Property tests for the in-place kernels of the Shapley contraction
//! and of exact division: the fused `ShapleyWeights::contract_lifted`
//! against the materialized lift `d ⊛ E` followed by
//! `ShapleyWeights::contract`, and the `BigUint` multiply-add /
//! multiply-subtract primitives against plain products.

use cqshap_numeric::{BigInt, BigUint, ShapleyWeights};
use proptest::prelude::*;

/// A `BigUint` of up to four limbs, with zeros and single words common.
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    (0u64..4, prop::collection::vec(any::<u64>(), 0..5)).prop_map(|(kind, limbs)| match kind {
        0 => BigUint::zero(),
        1 => BigUint::from_u64(limbs.first().copied().unwrap_or(7)),
        _ => BigUint::from_limbs(limbs),
    })
}

/// SplitMix64: the contraction cases' only randomness.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A signed difference vector of length `len`: runs of zeros, small
/// counts, entries at and just below `2^64`, and entries of two or
/// three limbs, each of either sign.
fn difference(seed: u64, len: usize) -> Vec<BigInt> {
    let mut next = stream(seed);
    let mut d = Vec::with_capacity(len);
    while d.len() < len {
        let magnitude = match next() % 6 {
            0 => {
                // A run of zeros.
                let run = (next() % 5 + 1) as usize;
                d.extend(std::iter::repeat_n(BigInt::zero(), run.min(len - d.len())));
                continue;
            }
            1 => BigUint::from_u64(next() % 50),
            2 => BigUint::from_u64(u64::MAX - next() % 3),
            3 => BigUint::from_u128(u64::MAX as u128 + 1 + (next() % 3) as u128),
            4 => BigUint::from_limbs((0..(next() % 2 + 2)).map(|_| next()).collect()),
            _ => BigUint::from_u64(next()),
        };
        let entry = BigInt::from_biguint(magnitude);
        d.push(if next().is_multiple_of(2) {
            entry
        } else {
            -entry
        });
    }
    d
}

/// An environment of length `len`: zeros, words and multi-limb counts.
fn environment(seed: u64, len: usize) -> Vec<BigUint> {
    let mut next = stream(seed ^ 0x5555);
    (0..len)
        .map(|_| match next() % 4 {
            0 => BigUint::zero(),
            1 => BigUint::from_u64(next() >> (next() % 64)),
            _ => BigUint::from_limbs((0..(next() % 4 + 1)).map(|_| next()).collect()),
        })
        .collect()
}

/// The materialized route: `d ⊛ env` split into its positive and
/// negative halves, then contracted.
fn materialized(weights: &ShapleyWeights, d: &[BigInt], env: &[BigUint]) -> BigInt {
    let m = weights.len();
    let mut plus = vec![BigUint::zero(); m];
    let mut minus = vec![BigUint::zero(); m];
    for (j, dj) in d.iter().enumerate() {
        let half = if dj.is_negative() {
            &mut minus
        } else {
            &mut plus
        };
        for (out, e) in half.iter_mut().skip(j).zip(env) {
            *out += &(dj.magnitude() * e);
        }
    }
    weights.contract(&plus, &minus)
}

/// The block length `B = ⌊64 / bitlen(m − 1)⌋ + 1` of the weights.
fn block_len(m: usize) -> usize {
    let bits = (usize::BITS - (m - 1).leading_zeros()).max(1) as usize;
    64 / bits + 1
}

/// `m` on both sides of the block-length changes (`bitlen(m − 1)` steps
/// at `m = 3, 5, 9, 17, 33, 65, 129, 257`) and of block boundaries.
const SIZES: [usize; 14] = [1, 2, 3, 5, 9, 16, 17, 33, 64, 65, 66, 129, 130, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused contraction equals the materialized lift followed by
    /// the two-half contraction, for every split `len(d) + len(E) − 1 =
    /// m`, including `len(d)` beyond the block length (one `E[s]` feeds
    /// several blocks).
    #[test]
    fn fused_contraction_matches_the_materialized_lift(
        pick in 0usize..SIZES.len(),
        extra in 0usize..40,
        split in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let m = SIZES[pick] + extra;
        let weights = ShapleyWeights::new(m);
        // Half the cases put len(d) past 2B, the rest anywhere in 1..=m.
        let len_d = if split.is_multiple_of(2) {
            (2 * block_len(m) + 1 + (split >> 1) as usize % 8).min(m)
        } else {
            1 + (split >> 1) as usize % m
        };
        let d = difference(seed, len_d);
        let env = environment(seed, m + 1 - len_d);
        prop_assert_eq!(
            weights.contract_lifted(&d, &env),
            materialized(&weights, &d, &env),
            "m = {}, len(d) = {}", m, len_d
        );
    }

    /// `sub_mul_u64_assign` subtracts `a·m` in place exactly when
    /// `checked_sub` would succeed, and leaves `self` untouched when it
    /// would underflow.
    #[test]
    fn sub_mul_matches_checked_sub(a in arb_biguint(), b in arb_biguint(), m in any::<u64>(), near in any::<bool>()) {
        // `near` puts `self` at `a·m ± b`, straddling the underflow edge.
        let product = &b * &BigUint::from_u64(m);
        let start = if near { &product + &a } else { a.clone() };
        let mut value = start.clone();
        let ok = value.sub_mul_u64_assign(&b, m);
        match start.checked_sub(&product) {
            Some(want) => {
                prop_assert!(ok);
                prop_assert_eq!(value, want);
            }
            None => {
                prop_assert!(!ok);
                prop_assert_eq!(value, start);
            }
        }
    }

    /// `add_mul_u128_assign` adds `a·m` for two-word multipliers.
    #[test]
    fn add_mul_u128_matches_the_product(acc in arb_biguint(), a in arb_biguint(), lo in any::<u64>(), hi in any::<u64>(), word in any::<bool>()) {
        let m = if word { lo as u128 } else { lo as u128 | (hi as u128) << 64 };
        let mut value = acc.clone();
        value.add_mul_u128_assign(&a, m);
        prop_assert_eq!(value, &acc + &(&a * &BigUint::from_u128(m)));
    }
}

/// A difference entry past `2^64` sends the contraction down the
/// widened coefficient; past `2^128` the coefficients themselves exceed
/// a `u128`. Long vectors of them, of one sign and of alternating
/// signs, must still match the materialized lift.
#[test]
fn differences_wider_than_a_word_widen_the_coefficient() {
    for m in [66, 127, 128, 200, 1024] {
        let weights = ShapleyWeights::new(m);
        for len_d in [block_len(m), 3 * block_len(m)] {
            for (shift, alternate) in [(64, false), (130, false), (130, true)] {
                let d: Vec<BigInt> = (0..len_d)
                    .map(|j| {
                        let dj = BigInt::from_biguint(
                            &(BigUint::one() << shift) + &BigUint::from_usize(j),
                        );
                        if alternate && j % 2 == 1 {
                            -dj
                        } else {
                            dj
                        }
                    })
                    .collect();
                let env = environment(m as u64, m + 1 - len_d);
                assert_eq!(
                    weights.contract_lifted(&d, &env),
                    materialized(&weights, &d, &env),
                    "m = {m}, len(d) = {len_d}, shift = {shift}"
                );
            }
        }
    }
}
