//! A re-report after an update recounts only the touched root group.
//!
//! The masked-recount memo is keyed by a root group's canonical form
//! and the masked fact's role. Its values are group-local, so updates
//! keep it: after a flip, only the touched group's new canonical form
//! misses. This binary holds this single test, so the process-wide
//! trace counters see only its own reports.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

#[test]
fn re_report_after_a_flip_recounts_only_the_touched_group() {
    let trace = obs::install_trace().expect("only the trace recorder is installed in this binary");
    let misses = || trace.counter_value(obs::phase::CTR_RECOUNT_CACHE_MISS);
    // 16 isomorphic root groups of four endogenous facts each
    // (`TA(s)` plus three `Reg(s, c)`): one canonical form, four roles.
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let options = ShapleyOptions::auto().threads(1);
    let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).unwrap();

    let before = misses();
    assert!(session.report().unwrap().efficiency_holds());
    assert_eq!(
        misses() - before,
        4,
        "one recount per role of the shared form"
    );

    // Exogenizing TA(s0) gives s0's group a form of its own with three
    // endogenous Reg roles; the other fifteen groups keep theirs.
    let ta = session.database().find_fact("TA", &["s0"]).unwrap();
    session.set_exogenous(ta, true).unwrap();
    let before = misses();
    assert!(session.report().unwrap().efficiency_holds());
    assert_eq!(
        misses() - before,
        3,
        "only the touched group's roles recount"
    );

    // Flipping back restores the shared form, which is still memoized.
    session.set_exogenous(ta, false).unwrap();
    let before = misses();
    assert!(session.report().unwrap().efficiency_holds());
    assert_eq!(misses() - before, 0, "the restored form is still memoized");
    assert_eq!(session.stats().incremental_updates, 2);
}
