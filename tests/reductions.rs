//! Cross-crate validation of the executable hardness reductions.

use cqshap::gadgets::{embed, prop55, prop58, reduction_rst};
use cqshap::prelude::*;
use cqshap::workloads::{formulas, graphs};

/// Lemma B.3 end-to-end on random bipartite graphs: Shapley values of
/// `q_RS¬T` instances recover |IS(g)| exactly.
#[test]
fn lemma_b3_recovers_independent_set_counts() {
    for seed in 0..4u64 {
        let g = graphs::random_bipartite(2, 2, 0.45, seed);
        let truth = g.independent_set_count();
        let (recovered, counts) =
            reduction_rst::recover_is_count(&g, &reduction_rst::brute_force_oracle).unwrap();
        assert_eq!(recovered, truth, "seed {seed}");
        assert_eq!(counts, g.closed_subset_counts(), "seed {seed}");
    }
}

/// Proposition 5.5 against DPLL on generated (2+,2−,4+−) formulas, and
/// Corollary 5.6: zeroness of the T-fact matches satisfiability.
#[test]
fn prop_5_5_relevance_and_zeroness() {
    let q = prop55::qrst_nr_query();
    for seed in 0..6u64 {
        let formula = formulas::random_224(4, 5, seed);
        let (db, f) = prop55::build_relevance_instance(&formula).unwrap();
        let (pos, neg) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).unwrap();
        assert_eq!(pos, formula.is_satisfiable(), "seed {seed}: {formula}");
        assert!(
            !neg,
            "T occurs only positively; f cannot be negatively relevant"
        );
        // Corollary 5.6: Shapley zeroness coincides (T is polarity
        // consistent even though the query is not).
        let v =
            shapley_via_counts(&db, AnyQuery::Cq(&q), f, &BruteForceCounter::default()).unwrap();
        assert_eq!(v.is_zero(), !pos, "seed {seed}");
        if pos {
            assert!(v.is_positive(), "positive relevance only");
        }
    }
}

/// Proposition 5.8 against DPLL on random 3CNF formulas.
#[test]
fn prop_5_8_union_relevance() {
    let u = prop58::qsat_query();
    for seed in 0..6u64 {
        let f3 = formulas::random_3sat(3, 7 + (seed as usize % 6), seed);
        let (db, r0) = prop58::build_relevance_instance(&f3).unwrap();
        let (pos, _) = brute_force_relevance(&db, AnyQuery::Union(&u), r0, 24).unwrap();
        assert_eq!(pos, f3.is_satisfiable(), "seed {seed}: {f3}");
    }
    // Random 3-variable formulas are rarely unsatisfiable; pin the UNSAT
    // side with all eight sign patterns over {x0, x1, x2}.
    use cqshap::gadgets::{Clause, CnfFormula, Literal};
    let unsat = CnfFormula::new(
        3,
        (0u8..8)
            .map(|mask| {
                Clause(
                    (0..3)
                        .map(|i| Literal {
                            var: i,
                            positive: mask & (1 << i) != 0,
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    assert!(!unsat.is_satisfiable());
    let (db, r0) = prop58::build_relevance_instance(&unsat).unwrap();
    let (pos, neg) = brute_force_relevance(&db, AnyQuery::Union(&u), r0, 24).unwrap();
    assert!(!pos && !neg, "UNSAT formula must make R(0) irrelevant");
}

/// Lemma D.1's full chain: coloring → (3+,2−) → (2+,2−,4+−) → relevance.
#[test]
fn lemma_d1_chain_to_relevance() {
    use cqshap::gadgets::coloring::{coloring_to_3p2n, to_224};
    let q = prop55::qrst_nr_query();
    for (n, edge_prob, seed) in [(3usize, 0.8, 1u64), (4, 0.9, 2)] {
        let g = graphs::random_graph(n, edge_prob, seed);
        let f224 = to_224(&coloring_to_3p2n(&g));
        // The reduced formulas are large; check the SAT chain and, when
        // the variable count stays feasible, the relevance instance too.
        assert_eq!(g.is_three_colorable(), f224.is_satisfiable());
        if f224.num_vars <= 13 && f224.clauses.iter().any(|c| c.0.len() == 2) {
            if let Ok((db, f)) = prop55::build_relevance_instance(&f224) {
                if db.endo_count() <= 15 {
                    let (pos, _) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).unwrap();
                    assert_eq!(pos, g.is_three_colorable());
                }
            }
        }
    }
}

/// Lemma B.4 embedding on the farmer-exports query from the intro.
#[test]
fn lemma_b4_embedding_preserves_shapley() {
    let q = cqshap::workloads::queries::farmer_exports();
    // An admissible base instance.
    let mut base = Database::new();
    base.add_relation("S", 2).unwrap();
    base.add_endo("R", &["a0"]).unwrap();
    base.add_endo("R", &["a1"]).unwrap();
    base.add_endo("T", &["b0"]).unwrap();
    base.add_endo("T", &["b1"]).unwrap();
    for (a, b) in [("a0", "b0"), ("a0", "b1"), ("a1", "b1")] {
        base.add_exo("S", &[a, b]).unwrap();
    }
    let emb = embed::embed_triplet(&q, &base).unwrap();
    let oracle = BruteForceCounter::default();
    assert_eq!(emb.fact_map.len(), base.endo_count());
    for (&bf, &ef) in &emb.fact_map {
        let base_v = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).unwrap();
        let emb_v = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).unwrap();
        assert_eq!(base_v, emb_v, "{}", base.render_fact(bf));
    }
}

/// The path embedding (Theorem 4.3 hardness side) on Section 4.1's q'.
#[test]
fn appendix_c_path_embedding() {
    let q = cqshap::workloads::queries::section_4_1_hard();
    let exo: std::collections::HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    let mut base = Database::new();
    base.add_relation("S", 2).unwrap();
    base.add_endo("R", &["a0"]).unwrap();
    base.add_endo("R", &["a1"]).unwrap();
    base.add_endo("T", &["b0"]).unwrap();
    for (a, b) in [("a0", "b0"), ("a1", "b0")] {
        base.add_exo("S", &[a, b]).unwrap();
    }
    let emb = embed::embed_path(&q, &exo, &base, 1_000_000).unwrap();
    let oracle = BruteForceCounter::default();
    for (&bf, &ef) in &emb.fact_map {
        let base_v = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).unwrap();
        let emb_v = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).unwrap();
        assert_eq!(base_v, emb_v, "{}", base.render_fact(bf));
    }
}

/// The gap construction generalizes beyond the Section 5.1 query.
#[test]
fn theorem_5_1_generic_families() {
    for text in [
        "q() :- R(x), S(x, y), !R(y)",
        "q() :- A(x), S(x, y), !B(y)",
        "q() :- A(x), !B(x)",
        "q() :- E(x, y), !E(y, x)",
    ] {
        let q = parse_cq(text).unwrap();
        for n in 1..=2usize {
            let inst = build_gap_family(&q, n).unwrap();
            assert_eq!(inst.db.endo_count(), 2 * n + 1, "{text}");
            let v = shapley_via_counts(
                &inst.db,
                AnyQuery::Cq(&q),
                inst.f0,
                &BruteForceCounter::default(),
            )
            .unwrap();
            assert_eq!(v.abs(), inst.expected_abs, "{text}, n={n}");
            assert_eq!(inst.expected_abs, expected_gap_value(n));
        }
    }
}
