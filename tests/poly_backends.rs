//! End-to-end checks of the engines at sizes where the `poly`
//! subsystem's fast convolution backends actually engage.
//!
//! The unit and property tests pin the backends against schoolbook on
//! synthetic vectors; these tests pin the *engines* — compile, report,
//! and incremental maintenance run their polynomials through the
//! dispatched arithmetic (Karatsuba/NTT products, division-based
//! leave-one-out environments, Pascal shifts), and every answer must
//! be bit-identical to the independent per-fact counting path.

use cqshap::core::{
    count_sat_hierarchical, shapley_via_counts, AnyQuery, CompiledCount, HierarchicalCounter,
    ShapleyOptions, ShapleySession,
};
use cqshap::workloads::{self, queries};

/// Large enough that the compile-stage products leave the pure
/// schoolbook band (the leave-one-out total spans ~190 coefficients),
/// small enough for a quick per-fact cross-check.
const M: usize = 192;

#[test]
fn large_compile_matches_per_fact_counting() {
    let db = workloads::report_benchmark_db(M);
    let q1 = queries::q1();
    let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
    // The total counts recompose through a different convolution order
    // (sequential recursion vs leave-one-out division), so agreement
    // cross-validates the subsystem on real count polynomials.
    assert_eq!(
        compiled.total_counts(),
        &count_sat_hierarchical(&db, &q1).unwrap()[..]
    );
    // Spot-check a spread of facts against the independent reduction.
    for &f in db.endo_facts().iter().step_by(M / 8) {
        let want = shapley_via_counts(&db, AnyQuery::Cq(&q1), f, &HierarchicalCounter).unwrap();
        assert_eq!(
            compiled.value(&db, f).unwrap(),
            want,
            "{}",
            db.render_fact(f)
        );
    }
}

#[test]
fn large_report_is_efficient_across_thread_caps() {
    let db = workloads::report_benchmark_db(M);
    let q1 = queries::q1();
    let reference =
        ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &ShapleyOptions::auto().threads(1))
            .unwrap()
            .report()
            .unwrap();
    assert!(reference.efficiency_holds());
    for threads in [2usize, 4] {
        let report = ShapleySession::prepare(
            &db,
            AnyQuery::Cq(&q1),
            &ShapleyOptions::auto().threads(threads),
        )
        .unwrap()
        .report()
        .unwrap();
        for (a, b) in report.entries.iter().zip(&reference.entries) {
            assert_eq!(a.value, b.value, "{} with {threads} threads", a.rendered);
        }
    }
}

#[test]
fn large_session_updates_stay_bit_identical() {
    // Incremental maintenance at this size patches NTT-built
    // environments by exact division and Pascal shifts; the session
    // must keep agreeing with a fresh prepare bit-for-bit.
    let db = workloads::report_benchmark_db(M);
    let q1 = queries::q1();
    let opts = ShapleyOptions::auto();
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &opts).unwrap();
    let grouped = db.find_fact("TA", &["s0"]).unwrap();
    session.set_exogenous(grouped, true).unwrap();
    session.set_exogenous(grouped, false).unwrap();
    let inserted = session
        .insert_fact("Reg", &["s1", "c10"], cqshap::db::Provenance::Endogenous)
        .unwrap();
    session.retract_fact(inserted).unwrap();
    assert_eq!(session.stats().incremental_updates, 4);
    let fresh = ShapleySession::prepare(session.database(), AnyQuery::Cq(&q1), &opts).unwrap();
    let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(a.efficiency_holds());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.value, y.value, "{}", x.rendered);
    }
}
