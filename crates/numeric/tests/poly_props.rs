//! Property tests pinning the `poly` subsystem's backends to each
//! other and to their inverses.
//!
//! The engines' correctness rests on every backend being *bit-identical*
//! to the schoolbook convolution — coefficient vectors are exact
//! subset counts, and a single off-by-one would silently corrupt
//! Shapley values. The strategies deliberately cross the
//! representation boundaries: coefficients range from zero through
//! multi-limb values beyond `2^128`, so the NTT's CRT reconstruction
//! must stitch several 62-bit primes back into inline *and* heap
//! `BigUint`s.

use std::collections::HashMap;

use cqshap_numeric::poly::{self, Backend};
use cqshap_numeric::BigUint;
use proptest::prelude::*;

/// A coefficient anywhere from 0 to ~2^200 (bit length varied so both
/// the inline `u128` and the multi-limb representations appear).
fn arb_coeff() -> impl Strategy<Value = BigUint> {
    (any::<u64>(), any::<u64>(), 0usize..=72).prop_map(|(lo, hi, extra_shift)| {
        // Shifting a u128 left by up to 72 bits crosses 2^128 — the
        // CRT must reconstruct more than two limbs.
        BigUint::from_u128(lo as u128 | (hi as u128) << 64) << extra_shift
    })
}

fn arb_poly(max_len: usize) -> impl Strategy<Value = Vec<BigUint>> {
    prop::collection::vec(arb_coeff(), 1..=max_len)
}

/// Small-coefficient polynomials shaped like the engines'
/// unsatisfying-count vectors.
fn arb_count_poly() -> impl Strategy<Value = Vec<BigUint>> {
    prop::collection::vec((0u64..=6).prop_map(BigUint::from_u64), 1..=5)
}

/// A factor for the repeated-factor pool: a count polynomial, one
/// shifted by `x` (`u₀ = 0`), an all-zero one, a constant, or one with
/// a coefficient past `2^64` (outside the power recurrence's words).
fn arb_pool_factor() -> impl Strategy<Value = Vec<BigUint>> {
    (0u8..5, arb_count_poly(), 1u64..=6).prop_map(|(kind, mut p, c)| {
        match kind {
            1 => p.insert(0, BigUint::zero()),
            2 => p.iter_mut().for_each(|x| *x = BigUint::zero()),
            3 => p = vec![BigUint::from_u64(c)],
            4 => {
                let at = c as usize % p.len();
                p[at] = (BigUint::one() << 64) + BigUint::from_u64(c);
            }
            _ => {}
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Karatsuba, the NTT, and the Auto dispatch agree with schoolbook
    /// bit-for-bit — including coefficients past 2^128 (multi-prime
    /// CRT) and interior zeros.
    #[test]
    fn backends_agree_with_schoolbook(a in arb_poly(40), b in arb_poly(40)) {
        let want = poly::mul_with(&a, &b, Backend::Schoolbook);
        prop_assert_eq!(&poly::mul_with(&a, &b, Backend::Karatsuba), &want);
        prop_assert_eq!(&poly::mul_with(&a, &b, Backend::Ntt), &want);
        prop_assert_eq!(&poly::mul(&a, &b), &want);
    }

    /// `exact_div` inverts every backend's product, and the Pascal
    /// fast paths match their generic counterparts.
    #[test]
    fn exact_div_round_trips(a in arb_poly(24), b in arb_poly(24)) {
        prop_assume!(a.iter().any(|c| !c.is_zero()));
        for backend in [Backend::Schoolbook, Backend::Karatsuba, Backend::Ntt] {
            let prod = poly::mul_with(&a, &b, backend);
            let quotient = poly::exact_div(&prod, &a);
            prop_assert_eq!(quotient.as_ref(), Some(&b));
        }
        let one_one = vec![BigUint::one(), BigUint::one()];
        let up = poly::pascal_up(&a);
        prop_assert_eq!(&up, &poly::mul_with(&a, &one_one, Backend::Schoolbook));
        let down = poly::pascal_down(&up);
        prop_assert_eq!(down.as_ref(), Some(&a));
        prop_assert_eq!(poly::pascal_down(&up), poly::exact_div(&up, &one_one));
    }

    /// The parallel product tree and the leave-one-out environments
    /// (division-based, with the descent fallback) match the naive
    /// fold for every thread cap — also when up to 3 pool factors
    /// repeat up to 40 times each, which raises them as powers.
    #[test]
    fn trees_match_naive_folds(
        polys in prop::collection::vec(arb_count_poly(), 0..=10),
        repeated in prop::collection::vec((arb_pool_factor(), 1usize..=40), 0..=3),
        seed in arb_count_poly(),
        threads in 1usize..=4,
    ) {
        let mut refs: Vec<&[BigUint]> = polys.iter().map(|p| p.as_slice()).collect();
        for (p, n) in &repeated {
            refs.extend(std::iter::repeat_n(p.as_slice(), *n));
        }
        let naive = refs.iter().fold(vec![BigUint::one()], |acc, p| {
            poly::mul_with(&acc, p, Backend::Schoolbook)
        });
        prop_assert_eq!(&poly::product_tree(&refs, threads, None).unwrap(), &naive);
        let envs = poly::leave_one_out_products(&refs, &seed, threads, None).unwrap();
        prop_assert_eq!(envs.len(), refs.len());
        // Copies of one factor have one environment: fold it once.
        let mut folded: HashMap<&[BigUint], Vec<BigUint>> = HashMap::new();
        for (i, env) in envs.iter().enumerate() {
            let want = folded.entry(refs[i]).or_insert_with(|| {
                let mut want = seed.clone();
                for (j, p) in refs.iter().enumerate() {
                    if j != i {
                        want = poly::mul_with(&want, p, Backend::Schoolbook);
                    }
                }
                want
            });
            prop_assert_eq!(env, &*want, "environment {}", i);
        }
    }
}
