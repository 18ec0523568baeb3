//! The Shapley value's characterizing axioms, checked on query games.
//!
//! The Shapley value is the unique attribution scheme satisfying
//! efficiency, symmetry, the null-player axiom, and linearity. The
//! query game of the paper inherits all four — good, cheap invariants
//! over random inputs, independent of the paper's specific examples.

use cqshap::prelude::*;
use cqshap::workloads::random_db::RandomDbConfig;
use proptest::prelude::*;

/// `Shapley(D, q, f)`, served by a session prepared with the default
/// options.
fn value(db: &Database, q: &ConjunctiveQuery, f: FactId) -> BigRational {
    ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::default())
        .unwrap()
        .value(f)
        .unwrap()
}

const QUERIES: &[&str] = &[
    "q() :- A(x), !B(x), C(x, y)",
    "q() :- A(x), C(x, y), !D(x, y)",
    "q() :- A(x), B(x)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Null player: a fact whose presence never changes the answer has
    /// value exactly 0 — and for polarity-consistent queries that is
    /// precisely irrelevance (Section 5.2).
    #[test]
    fn null_player_axiom(qi in 0..QUERIES.len(), seed in 0u64..3000) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 4, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        for &f in db.endo_facts() {
            let relevant = is_relevant(&db, AnyQuery::Cq(&q), f).unwrap();
            let v = value(&db, &q, f);
            if !relevant {
                prop_assert!(v.is_zero(), "{} on\n{}", db.render_fact(f), db);
            } else {
                prop_assert!(!v.is_zero(), "{} on\n{}", db.render_fact(f), db);
            }
        }
    }

    /// Symmetry: interchangeable facts receive equal values. Two facts
    /// over unary relations with identical join behavior are symmetric;
    /// we construct them deliberately.
    #[test]
    fn symmetry_axiom(extra in 0usize..4, seed in 0u64..500) {
        // A(c1), A(c2) with identical C-neighborhoods are symmetric for
        // q() :- A(x), C(x, y), !B(y).
        let q = parse_cq("q() :- A(x), C(x, y), !B(y)").unwrap();
        let mut db = Database::new();
        let f1 = db.add_endo("A", &["c1"]).unwrap();
        let f2 = db.add_endo("A", &["c2"]).unwrap();
        // Same neighborhood for both, derived from the seed.
        for j in 0..=(seed % 3) {
            db.add_exo("C", &["c1", &format!("y{j}")]).unwrap();
            db.add_exo("C", &["c2", &format!("y{j}")]).unwrap();
        }
        for j in 0..extra {
            db.add_endo("B", &[&format!("y{j}")]).unwrap();
        }
        let a = value(&db, &q, f1);
        let b = value(&db, &q, f2);
        prop_assert_eq!(a, b);
    }

    /// Anti-monotone facts: in a polarity-consistent query, facts over
    /// positively-occurring relations have non-negative values and facts
    /// over negatively-occurring relations non-positive ones (the sign
    /// observation of Section 1 / Example 2.3).
    #[test]
    fn sign_pattern(qi in 0..QUERIES.len(), seed in 0u64..3000) {
        let q = parse_cq(QUERIES[qi]).unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 4, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
        let polarity = cqshap::query::analysis::polarity_map(&q);
        for &f in db.endo_facts() {
            let rel = db.schema().name(db.fact(f).rel).to_string();
            let v = value(&db, &q, f);
            match polarity.get(&rel) {
                Some(cqshap::query::analysis::Polarity::Positive) => {
                    prop_assert!(!v.is_negative(), "{} on\n{}", db.render_fact(f), db)
                }
                Some(cqshap::query::analysis::Polarity::Negative) => {
                    prop_assert!(!v.is_positive(), "{} on\n{}", db.render_fact(f), db)
                }
                _ => {}
            }
        }
    }

    /// Linearity over disjoint unions of games: if two queries touch
    /// disjoint relations, the value of a fact for the combined game
    /// v = v1 + v2 − v1·v2 is NOT the sum — but for the *numeric* game
    /// q1 + q2 it is. We check the exact additive identity through
    /// aggregate machinery instead: Shapley is additive over candidate
    /// answers (that is how an aggregate session plans), so
    /// re-summing per-answer values reproduces the whole.
    #[test]
    fn linearity_over_answers(seed in 0u64..1500) {
        use cqshap::core::aggregates::AggregateFunction;
        use cqshap::core::reference::aggregate_shapley_per_fact;
        let q = parse_cq("qa(y) :- A(x), C(x, y), !B(y)").unwrap();
        let cfg = RandomDbConfig { domain: 3, facts_per_relation: 4, seed, ..Default::default() };
        let db = cfg.generate(&q);
        prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 10);
        let opts = ShapleyOptions::default();
        for &f in db.endo_facts().iter().take(3) {
            let whole =
                aggregate_shapley_per_fact(&db, &q, &AggregateFunction::Count, f, &opts).unwrap();
            let mut sum = BigRational::zero();
            for a in cqshap::core::aggregates::candidate_answers(&db, &q) {
                // Rebuild the per-answer Boolean query by substitution.
                let name = db.interner().resolve(a[0]).to_string();
                let qa = parse_cq(&format!("qa() :- A(x), C(x, '{name}'), !B('{name}')")).unwrap();
                sum = sum + value(&db, &qa, f);
            }
            prop_assert_eq!(whole, sum, "{} on\n{}", db.render_fact(f), db);
        }
    }
}

/// Dummy-player sanity on the running example: TA(David) never matters.
#[test]
fn null_player_running_example() {
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let f = db.find_fact("TA", &["David"]).unwrap();
    let v = value(&db, &q1, f);
    assert!(v.is_zero());
    assert!(shapley_is_zero(&db, AnyQuery::Cq(&q1), f).unwrap());
}
