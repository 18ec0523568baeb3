//! The compiled engine's report memos compute every key exactly once,
//! however many report lanes ask for it at the same time.
//!
//! The masked-recount cache and the numerator memo count their misses
//! in process-wide counters. This binary holds this single test, so the
//! trace window sees only its own reports: a two-lane report must
//! record exactly the misses (and hits) of a one-lane report of the
//! same request, every time.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

#[test]
fn two_lane_reports_compute_each_memo_key_once() {
    let trace = obs::install_trace().expect("only the trace recorder is installed in this binary");
    // Uniform root groups: both lanes start on isomorphic groups and
    // race for the same keys from the first fact on.
    let db = workloads::report_benchmark_db(256);
    let q1 = queries::q1();
    let keys = [
        obs::phase::CTR_RECOUNT_CACHE_MISS,
        obs::phase::CTR_RECOUNT_CACHE_HIT,
        obs::phase::CTR_NUMERATOR_MEMO_MISS,
        obs::phase::CTR_NUMERATOR_MEMO_HIT,
    ];
    let report_counts = |threads: usize| -> Vec<u64> {
        let before: Vec<u64> = keys.iter().map(|&k| trace.counter_value(k)).collect();
        let options = ShapleyOptions::auto().threads(threads);
        let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).unwrap();
        assert!(session.report().unwrap().efficiency_holds());
        keys.iter()
            .zip(before)
            .map(|(&k, b)| trace.counter_value(k) - b)
            .collect()
    };
    let serial = report_counts(1);
    assert!(
        serial[0] >= 1 && serial[1] >= 1,
        "the cache must miss and hit: {serial:?}"
    );
    assert!(
        serial[2] >= 1 && serial[3] >= 1,
        "the memo must miss and hit: {serial:?}"
    );
    for round in 0..8 {
        assert_eq!(
            report_counts(2),
            serial,
            "round {round}: [recount miss, recount hit, numerator miss, numerator hit]"
        );
    }
}
