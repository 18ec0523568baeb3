//! End-to-end checks of the paper's worked examples, spanning all
//! crates through the facade.

use cqshap::prelude::*;
use std::collections::HashSet;

fn rat(p: i64, q: i64) -> BigRational {
    BigRational::from_i64_ratio(p, q)
}

/// Example 2.3: all eight exact Shapley values, by three independent
/// code paths (hierarchical CntSat, brute-force subsets, permutations).
#[test]
fn example_2_3_values_by_all_strategies() {
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let expected = [
        ("TA", vec!["Adam"], rat(-3, 28)),
        ("TA", vec!["Ben"], rat(-2, 35)),
        ("TA", vec!["David"], rat(0, 1)),
        ("Reg", vec!["Adam", "OS"], rat(37, 210)),
        ("Reg", vec!["Adam", "AI"], rat(37, 210)),
        ("Reg", vec!["Ben", "OS"], rat(27, 140)),
        ("Reg", vec!["Caroline", "DB"], rat(13, 42)),
        ("Reg", vec!["Caroline", "IC"], rat(13, 42)),
    ];
    for strategy in [
        Strategy::Hierarchical,
        Strategy::BruteForceSubsets,
        Strategy::BruteForcePermutations,
    ] {
        let opts = ShapleyOptions::with_strategy(strategy);
        for (rel, args, want) in &expected {
            let refs: Vec<&str> = args.to_vec();
            let f = db.find_fact(rel, &refs).unwrap();
            let got = shapley_value(&db, &q1, f, &opts).unwrap();
            assert_eq!(&got, want, "{rel}{args:?} under {strategy:?}");
        }
    }
}

/// The paper notes the sum of all values is 1 (efficiency).
#[test]
fn example_2_3_efficiency() {
    let db = cqshap::workloads::figure_1_database();
    let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
    let report = shapley_report(&db, &q1, &ShapleyOptions::default()).unwrap();
    assert_eq!(report.total, BigRational::one());
    assert!(report.efficiency_holds());
}

/// Section 4 / Example 4.1: exogenous relations flip q2 and the
/// citations query from FP#P-complete to PTIME, and the ExoShap values
/// agree with brute force.
#[test]
fn section_4_tractability_flip() {
    let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
    assert!(matches!(
        classify(&q2),
        ExactComplexity::FpSharpPComplete { .. }
    ));
    let exo: HashSet<String> = ["Stud", "Course"].iter().map(|s| s.to_string()).collect();
    assert_eq!(
        classify_with_exo(&q2, &exo),
        ExactComplexity::TractableViaExoShap
    );

    let mut db = cqshap::workloads::figure_1_database();
    for name in ["Stud", "Course", "Adv"] {
        let rel = db.schema().id(name).unwrap();
        db.declare_exogenous_relation(rel).unwrap();
    }
    let exo_opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
    let bf_opts = ShapleyOptions::with_strategy(Strategy::BruteForceSubsets);
    for &f in db.endo_facts() {
        assert_eq!(
            shapley_value(&db, &q2, f, &exo_opts).unwrap(),
            shapley_value(&db, &q2, f, &bf_opts).unwrap(),
            "{}",
            db.render_fact(f)
        );
    }
}

/// Example 4.2: `q` has a non-hierarchical path, `q'` does not.
#[test]
fn example_4_2_path_criterion() {
    let q = cqshap::workloads::queries::example_4_2_q();
    let x: HashSet<String> = ["Q", "S", "U", "P"].iter().map(|s| s.to_string()).collect();
    assert!(matches!(
        classify_with_exo(&q, &x),
        ExactComplexity::FpSharpPComplete { .. }
    ));
    let qp = cqshap::workloads::queries::example_4_2_qprime();
    let xp: HashSet<String> = ["R", "S", "O", "P", "V"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        classify_with_exo(&qp, &xp),
        ExactComplexity::TractableViaExoShap
    );
}

/// Section 4.1's twin queries differ only in one variable, yet land on
/// opposite sides of Theorem 4.3.
#[test]
fn section_4_1_twin_queries() {
    let x: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    let q = cqshap::workloads::queries::section_4_1_tractable();
    let qp = cqshap::workloads::queries::section_4_1_hard();
    assert_eq!(
        classify_with_exo(&q, &x),
        ExactComplexity::TractableViaExoShap
    );
    assert!(matches!(
        classify_with_exo(&qp, &x),
        ExactComplexity::FpSharpPComplete { .. }
    ));
}

/// Example 5.4's polarity observations across the query catalog.
#[test]
fn example_5_4_polarity_catalog() {
    use cqshap::workloads::queries;
    assert!(is_polarity_consistent(&queries::q1()));
    assert!(is_polarity_consistent(&queries::q2()));
    assert!(is_polarity_consistent(&queries::q3()));
    assert!(!is_polarity_consistent(&queries::q4()));
    assert!(!is_polarity_consistent(&queries::qrst_nr()));
    // Every q_SAT disjunct is consistent; the union is not.
    let u = queries::qsat();
    assert!(u.disjuncts().iter().all(is_polarity_consistent));
    assert!(!cqshap::query::analysis::is_polarity_consistent_union(&u));
}

/// Theorem 5.1 closed form vs the real computation, plus the 2^-n bound.
#[test]
fn theorem_5_1_gap() {
    for n in 1..=3usize {
        let (q, inst) = section_5_1_example(n);
        let v = shapley_via_counts(
            &inst.db,
            AnyQuery::Cq(&q),
            inst.f0,
            &BruteForceCounter::default(),
        )
        .unwrap();
        assert_eq!(v.abs(), inst.expected_abs);
        assert!(v.is_positive());
        assert!(v.abs() <= rat(1, 1 << n));
    }
}

/// The Section 3 remark: hardness generalizes to certain self-joins
/// (Theorem B.5's examples classify as hard; mixed polarity stays open).
#[test]
fn theorem_b5_self_join_catalog() {
    use cqshap::workloads::queries;
    assert!(matches!(
        classify(&queries::unemployed_couple()),
        ExactComplexity::SelfJoinHard { .. }
    ));
    assert!(matches!(
        classify(&queries::non_citizen_couple()),
        ExactComplexity::SelfJoinHard { .. }
    ));
    assert!(matches!(
        classify(&queries::example_5_3()),
        ExactComplexity::OpenSelfJoins
    ));
}

/// The four basic hard queries stay hard; q1 alone is tractable.
#[test]
fn basic_query_classification() {
    use cqshap::workloads::queries;
    assert_eq!(
        classify(&queries::q1()),
        ExactComplexity::TractableHierarchical
    );
    for q in [
        queries::qrst(),
        queries::qnrsnt(),
        queries::qrnst(),
        queries::qrsnt(),
    ] {
        assert!(
            matches!(classify(&q), ExactComplexity::FpSharpPComplete { .. }),
            "{q}"
        );
    }
}
