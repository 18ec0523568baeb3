//! The compiled engine's path-step counter is a host-independent work
//! measure: a traced report records the levels its masked walks visit,
//! and the same request records the same count every time. This binary
//! holds this single test, so the process-wide trace counters see only
//! its own reports.

use cqshap::obs;
use cqshap::prelude::*;
use cqshap::workloads::{self, queries};

#[test]
fn traced_reports_count_path_steps_reproducibly() {
    let trace = obs::install_trace().expect("only the trace recorder is installed in this binary");
    let steps = || trace.counter_value(obs::phase::CTR_PATH_STEPS);
    let db = workloads::report_benchmark_db(64);
    let q1 = queries::q1();
    let report_steps = || {
        let before = steps();
        let options = ShapleyOptions::auto().threads(1);
        let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q1), &options).unwrap();
        assert!(session.report().unwrap().efficiency_holds());
        steps() - before
    };
    let first = report_steps();
    assert!(first > 0, "a report walks at least one path");
    assert_eq!(
        report_steps(),
        first,
        "identical reports walk identical paths"
    );
}
