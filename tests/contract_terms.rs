//! The contraction kernel's term counter is a host-independent work
//! measure: a traced report records the multiply-adds of environment
//! entries into weight-block accumulators, and the same request records
//! the same count every time. This binary holds this single test, so
//! the process-wide trace counters see only its own reports.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

#[test]
fn traced_reports_count_contraction_terms_within_the_block_bound() {
    let trace = obs::install_trace().expect("only the trace recorder is installed in this binary");
    let counter = |key| trace.counter_value(key);
    // m = 64: 16 students, each a root group of one `TA` and three
    // `Reg` facts. A grouped fact's difference vector has one entry per
    // group-local coalition size, len(d) = 4, so its environment has
    // |E| = m − 3 = 61 entries; the weights have B = ⌊64/bitlen(63)⌋ + 1
    // = 11 sizes per block.
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let (m, len_d, block) = (64u64, 4u64, 11u64);
    let per_miss = (m + 1 - len_d) * (1 + (len_d - 1).div_ceil(block));
    let report_terms = || {
        let (terms, misses) = (
            counter(obs::phase::CTR_CONTRACT_TERMS),
            counter(obs::phase::CTR_NUMERATOR_MEMO_MISS),
        );
        let options = ShapleyOptions::auto().threads(1);
        let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).unwrap();
        assert!(session.report().unwrap().efficiency_holds());
        (
            counter(obs::phase::CTR_CONTRACT_TERMS) - terms,
            counter(obs::phase::CTR_NUMERATOR_MEMO_MISS) - misses,
        )
    };
    let (terms, misses) = report_terms();
    assert!(misses > 0, "a report contracts at least one numerator");
    assert!(terms > 0, "a contraction multiply-adds at least one term");
    assert!(
        terms <= misses * per_miss,
        "{terms} terms over {misses} contractions exceed {per_miss} per contraction"
    );
    assert_eq!(
        report_terms(),
        (terms, misses),
        "identical reports contract identical terms"
    );
}
