//! Property-based tests for the exact arithmetic substrate.

use cqshap_numeric::{
    binomial, BigInt, BigRational, BigUint, FactorialTable, RationalMatrix, ShapleyWeights,
};
use proptest::prelude::*;

fn arb_biguint() -> impl Strategy<Value = BigUint> {
    // Mix of small values and multi-limb values.
    prop::collection::vec(any::<u64>(), 0..5).prop_map(BigUint::from_limbs)
}

fn arb_rational() -> impl Strategy<Value = BigRational> {
    (any::<i64>(), 1..=u32::MAX)
        .prop_map(|(p, q)| BigRational::new(BigInt::from_i64(p), BigInt::from_u64(q as u64)))
}

proptest! {
    #[test]
    fn uint_add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn uint_add_associates(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!((&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn uint_mul_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn uint_mul_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn uint_sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn uint_div_rem_invariant(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn uint_gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn uint_gcd_is_greatest_via_coprimality(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        let (qa, _) = a.div_rem(&g);
        let (qb, _) = b.div_rem(&g);
        prop_assert_eq!(qa.gcd(&qb), BigUint::one());
    }

    #[test]
    fn uint_string_round_trip(a in arb_biguint()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigUint>().unwrap(), a);
    }

    #[test]
    fn uint_shift_round_trip(a in arb_biguint(), s in 0usize..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn int_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from_i64(a), BigInt::from_i64(b));
        prop_assert_eq!((&ba + &bb).to_string(), (a as i128 + b as i128).to_string());
        prop_assert_eq!((&ba - &bb).to_string(), (a as i128 - b as i128).to_string());
        prop_assert_eq!((&ba * &bb).to_string(), (a as i128 * b as i128).to_string());
    }

    #[test]
    fn int_div_rem_truncated(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0);
        let (q, r) = BigInt::from_i64(a).div_rem(&BigInt::from_i64(b));
        prop_assert_eq!(q.to_i64().unwrap(), a / b);
        prop_assert_eq!(r.to_i64().unwrap(), a % b);
    }

    #[test]
    fn rational_add_commutes(a in arb_rational(), b in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn rational_add_associates(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!((&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn rational_mul_distributes(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn rational_sub_then_add_round_trips(a in arb_rational(), b in arb_rational()) {
        prop_assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    fn rational_div_inverts_mul(a in arb_rational(), b in arb_rational()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(&(&a * &b) / &b, a);
    }

    #[test]
    fn rational_normalized(a in arb_rational()) {
        prop_assert_eq!(
            a.numerator().magnitude().gcd(a.denominator()),
            if a.is_zero() { a.denominator().clone() } else { BigUint::one() }
        );
    }

    #[test]
    fn rational_to_f64_close(p in -100_000i64..100_000, q in 1i64..100_000) {
        let r = BigRational::from_i64_ratio(p, q);
        let f = p as f64 / q as f64;
        prop_assert!((r.to_f64() - f).abs() <= f.abs() * 1e-12 + 1e-300);
    }

    #[test]
    fn binomial_pascal(n in 1usize..40, k in 0usize..40) {
        prop_assume!(k <= n && k >= 1);
        prop_assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
    }

    /// The Legendre-factorization reduction of `num / m!` must equal the
    /// general gcd normalization bit for bit — including numerators that
    /// share big factorial chunks with the denominator (the typical
    /// Shapley shape) and negative ones.
    #[test]
    fn reduce_over_factorial_matches_gcd(
        m in 0usize..60,
        a in -1_000_000i64..1_000_000,
        k in 0usize..60,
    ) {
        let table = FactorialTable::new(m);
        let k = k.min(m);
        // num = a · k! — arbitrary sign, factorial-structured magnitude.
        let num = BigInt::from_i64(a) * BigInt::from_biguint(table.factorial(k).clone());
        let fast = table.reduce_over_factorial(num.clone(), m);
        let slow = BigRational::from_parts(num, table.factorial(m).clone());
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn solve_recovers_solution(seed in any::<u64>()) {
        // Build a small pseudo-random system from the seed; skip singular.
        let n = 4usize;
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % 19) - 9
        };
        let a = RationalMatrix::from_fn(n, n, |_, _| BigRational::from(next()));
        let x: Vec<_> = (0..n).map(|_| BigRational::from(next())).collect();
        if a.determinant().unwrap() != BigRational::zero() {
            let b = a.mul_vec(&x).unwrap();
            prop_assert_eq!(a.solve(&b).unwrap(), x);
        }
    }
}

/// The `m!` route the lcm weights replace, kept as a test oracle:
/// `Σ_t (plus[t] − minus[t])·t!(m−1−t)!` reduced over `m!`.
fn factorial_route(
    table: &FactorialTable,
    m: usize,
    plus: &[BigUint],
    minus: &[BigUint],
) -> BigRational {
    let mut num = BigInt::zero();
    for (t, (p, n)) in plus.iter().zip(minus).enumerate() {
        let weight = BigInt::from_biguint(table.shapley_weight_numerator(m, t));
        num += &(BigInt::signed_diff(p, n) * weight);
    }
    table.reduce_over_factorial(num, m)
}

/// A count vector of length `m` drawn from `seed`: zero runs, word
/// entries and multi-limb entries of up to three limbs.
fn counts(seed: u64, m: usize) -> Vec<BigUint> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..m)
        .map(|_| match next() % 4 {
            0 => BigUint::zero(),
            1 => BigUint::from_u64(next() >> (next() % 64)),
            _ => {
                let limbs = (next() % 3 + 1) as usize;
                BigUint::from_limbs((0..limbs).map(|_| next()).collect())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contracting against the `lcm(1..m)` weights and reducing gives the
    /// same value as the `m!` route, for signed count vectors of every
    /// shape.
    #[test]
    fn lcm_route_matches_the_factorial_route(m in 1usize..=300, a in any::<u64>(), b in any::<u64>()) {
        let (plus, minus) = (counts(a, m), counts(b, m));
        let weights = ShapleyWeights::new(m);
        let table = FactorialTable::new(m);
        prop_assert_eq!(
            weights.reduce(weights.contract(&plus, &minus)),
            factorial_route(&table, m, &plus, &minus)
        );
    }
}
