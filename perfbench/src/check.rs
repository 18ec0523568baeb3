//! Untimed small-size cross-checks: each workload's route against an
//! independent one, bit for bit.

use cqshap::core::{
    probability_by_enumeration, AnyQuery, AnytimeParams, ShapleyOptions, ShapleyReport,
    ShapleySession, Strategy,
};
use cqshap::db::Database;
use cqshap::workloads::{queries, report_benchmark_db, union_benchmark_db};

use crate::churn::Churn;
use crate::common::{report_digest, Ctx, Query};
use crate::gen;
use crate::stats::Outcome;

fn report_with(db: &Database, q: &Query, strategy: Strategy) -> ShapleyReport {
    ShapleySession::prepare(db, q.any(), &ShapleyOptions::with_strategy(strategy))
        .and_then(|s| s.report())
        .expect("small cross-check instances report")
}

/// Records one cross-check: a mismatch is a failed operation.
fn agree(out: &mut Outcome, what: &str, a: &ShapleyReport, b: &ShapleyReport) {
    out.attempt(report_digest(a) == report_digest(b), || {
        format!("cross-check {what}: the two routes disagree")
    });
}

/// The cold-report routes (compiled CQ¬, compiled UCQ¬, ExoShap) against
/// brute-force subset enumeration.
pub fn cold(ctx: &Ctx, out: &mut Outcome) {
    let union = queries::union_benchmark().to_string();
    let cases: [(&str, &str, Database); 4] = [
        ("cq", gen::Q1, gen::heavy_university(14, ctx.seed)),
        ("cq_uniform", gen::Q1, report_benchmark_db(12)),
        ("ucq", &union, union_benchmark_db(16)),
        (
            "exo",
            gen::Q_EXO,
            gen::exo_instance(ctx.seed, &gen::EXO_SMALL),
        ),
    ];
    for (name, text, db) in cases {
        let q = Query::parse_and_classify(text, &db);
        let fast = report_with(&db, &q, Strategy::Auto);
        let brute = report_with(&db, &q, Strategy::BruteForceSubsets);
        agree(
            out,
            &format!("{name} (m = {})", db.endo_count()),
            &fast,
            &brute,
        );
    }
}

/// Incremental maintenance against brute force and world enumeration
/// after every update of a short churn.
pub fn churn(ctx: &Ctx, out: &mut Outcome) {
    let db = gen::heavy_university(12, ctx.seed);
    let q = Query::parse_and_classify(gen::Q1, &db);
    let mut session = ShapleySession::prepare(&db, q.any(), &ctx.options())
        .expect("small cross-check instances prepare");
    session
        .probability()
        .expect("small instances have a probability");
    let mut churn = Churn::new(&db, ctx.seed);
    for i in 0..9 {
        let kind = churn
            .step(&mut session)
            .expect("small cross-check updates apply");
        let what = format!("churn update {i} ({})", crate::churn::OPS[kind]);
        let maintained = session.report().expect("small instances report");
        let brute = report_with(session.database(), &q, Strategy::BruteForceSubsets);
        agree(out, &what, &maintained, &brute);
        let p = session
            .probability()
            .expect("small instances have a probability");
        let Query::Cq(cq) = &q else {
            unreachable!("q1 is one rule")
        };
        let enumerated = probability_by_enumeration(
            session.database(),
            AnyQuery::Cq(cq),
            session.probabilities(),
            None,
            ShapleyOptions::auto().brute_force_limit,
        )
        .expect("small instances enumerate");
        out.attempt(p == enumerated, || {
            format!("cross-check {what}: maintained probability differs from enumeration")
        });
    }
}

/// Two exact routes on a small hard instance (subsets against
/// permutations), then the sampler against that exact answer: every
/// estimate within 3ε (about six standard errors).
pub fn hard(ctx: &Ctx, out: &mut Outcome) {
    let db = gen::hard_instance(ctx.seed, 2, 2);
    let q = Query::parse_and_classify(gen::Q_HARD, &db);
    let subsets = report_with(&db, &q, Strategy::BruteForceSubsets);
    let permutations = report_with(&db, &q, Strategy::BruteForcePermutations);
    agree(
        out,
        "hard (subsets vs permutations)",
        &subsets,
        &permutations,
    );
    let epsilon = 0.1;
    let mut session = ShapleySession::prepare_with_fallback(&db, q.any(), &ctx.options())
        .expect("small cross-check instances prepare");
    let sampled = session
        .anytime(&AnytimeParams {
            epsilon,
            ..AnytimeParams::default()
        })
        .expect("the sampler runs on small instances");
    let close = subsets.entries.iter().all(|e| {
        sampled
            .entry(e.fact)
            .is_some_and(|s| (s.estimate - e.value.to_f64()).abs() <= 3.0 * epsilon)
    });
    out.attempt(close, || {
        "cross-check hard: a sampled estimate is more than 3ε from the exact value".into()
    });
}
