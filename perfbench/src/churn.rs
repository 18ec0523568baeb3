//! `session-churn`: prepared `ShapleySession`s serving a seeded
//! round-robin of updates, each followed by a re-report and a
//! probability read.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cqshap::core::{CoreError, ShapleyReport, ShapleySession};
use cqshap::db::{Database, FactId, Provenance};
use cqshap::numeric::BigRational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{prepare, render_report, report_digest, timed, Ctx, Query};
use crate::gen;
use crate::stats::{Outcome, Samples};
use crate::sys;
use crate::trace;

/// Endogenous facts of each churned database.
const M: usize = 1024;

/// Sessions one end-to-end run serves round-robin, each on its own
/// seeded database: update cost depends on the database's shape, so a
/// run averages over several.
const INSTANCES: u64 = 3;

/// The three update kinds, applied round-robin.
pub const OPS: [&str; 3] = ["flip", "insert", "retract"];

/// The seeded update stream. Its choices depend only on the seed and
/// on the updates already applied, so replaying it on a fresh session
/// of the same database applies the same updates.
pub struct Churn {
    rng: StdRng,
    students: usize,
    courses: usize,
    /// `(student, course)` pairs that ever had a `Reg` fact; inserts
    /// pick fresh pairs so they never collide with retracted facts.
    used: HashSet<(usize, usize)>,
    /// Live `Reg` facts, the retraction candidates.
    regs: Vec<FactId>,
    /// Students whose `TA` fact is endogenous.
    endo_ta: HashSet<usize>,
    /// Live `Reg` facts of those students, the flip candidates. With
    /// flips drawn from every `TA` and `Reg` fact, whether a session
    /// refreshed in ~35 ms or ~300 ms varied with the seed, which
    /// dominated the spread; these flips kept every session measured on
    /// one path.
    flippable: Vec<FactId>,
    next: usize,
}

impl Churn {
    pub fn new(db: &Database, seed: u64) -> Churn {
        let mut churn = Churn {
            rng: StdRng::seed_from_u64(seed ^ 0x6368_7572_6e00),
            students: 0,
            courses: 0,
            used: HashSet::new(),
            regs: Vec::new(),
            endo_ta: HashSet::new(),
            flippable: Vec::new(),
            next: 0,
        };
        // Constants are `s<i>` and `c<j>`: strip the letter for the index.
        let index = |name: &str| name.get(1..).and_then(|i| i.parse().ok()).unwrap_or(0);
        let ta = db.schema().id("TA");
        for &f in ta.map_or(&[][..], |rel| db.relation_facts(rel)) {
            if db.fact(f).provenance.is_endogenous() {
                let text = db.render_fact(f);
                churn
                    .endo_ta
                    .insert(index(text.trim_start_matches("TA(").trim_end_matches(')')));
            }
        }
        for f in db.fact_ids() {
            let text = db.render_fact(f);
            let (rel, args) = text.split_once('(').expect("facts render as R(args)");
            match rel {
                "Stud" => churn.students += 1,
                "Course" => churn.courses += 1,
                "Reg" => {
                    let (s, c) = args
                        .trim_end_matches(')')
                        .split_once(", ")
                        .expect("Reg is binary");
                    churn.used.insert((index(s), index(c)));
                    churn.regs.push(f);
                    if churn.endo_ta.contains(&index(s)) {
                        churn.flippable.push(f);
                    }
                }
                _ => {}
            }
        }
        churn
    }

    /// Applies the next update; returns its kind (an index into [`OPS`]).
    /// A flip or retraction with no candidate left becomes an insert.
    pub fn step(&mut self, session: &mut ShapleySession) -> Result<usize, CoreError> {
        let kind = match self.next % OPS.len() {
            0 if self.flippable.is_empty() => 1,
            2 if self.regs.is_empty() => 1,
            k => k,
        };
        self.next += 1;
        match kind {
            0 => {
                let f = self.flippable[self.rng.gen_range(0..self.flippable.len())];
                let endogenous = session.database().fact(f).provenance.is_endogenous();
                session.set_exogenous(f, endogenous)?;
            }
            1 => {
                let (s, c) = loop {
                    let pair = (
                        self.rng.gen_range(0..self.students),
                        self.rng.gen_range(0..self.courses),
                    );
                    if self.used.insert(pair) {
                        break pair;
                    }
                };
                let f = session.insert_fact(
                    "Reg",
                    &[&format!("s{s}"), &format!("c{c}")],
                    Provenance::Endogenous,
                )?;
                self.regs.push(f);
                if self.endo_ta.contains(&s) {
                    self.flippable.push(f);
                }
            }
            _ => {
                let f = self
                    .regs
                    .swap_remove(self.rng.gen_range(0..self.regs.len()));
                self.flippable.retain(|&g| g != f);
                session.retract_fact(f)?;
            }
        }
        Ok(kind)
    }
}

/// A prepared session on `db` with its first report and probability
/// read done, so the probability engine is built and maintained from
/// here on.
fn ready(ctx: &Ctx, db: &Database) -> ShapleySession {
    let q = Query::parse_and_classify(gen::Q1, db);
    let mut session = prepare(db, &q, ctx);
    session.report().expect("the churn query reports");
    session
        .probability()
        .expect("the churn query has a probability");
    session
}

/// Timings of one refresh: the update, the re-report, the probability.
struct Refresh {
    kind: usize,
    update: Duration,
    report: Duration,
    probability: Duration,
    answer: Result<(ShapleyReport, BigRational), String>,
}

fn refresh(churn: &mut Churn, session: &mut ShapleySession) -> Refresh {
    let t0 = Instant::now();
    let stepped = churn.step(session);
    let t1 = Instant::now();
    let report = session.report();
    let t2 = Instant::now();
    let probability = session.probability();
    let t3 = Instant::now();
    let kind = *stepped.as_ref().unwrap_or(&((churn.next - 1) % OPS.len()));
    let answer = match (stepped, report, probability) {
        (Ok(_), Ok(r), Ok(p)) => Ok((r, p)),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.to_string()),
    };
    Refresh {
        kind,
        update: t1 - t0,
        report: t2 - t1,
        probability: t3 - t2,
        answer,
    }
}

/// Counts one refresh: it fails on an error or an efficiency violation.
fn check(out: &mut Outcome, r: &Refresh, i: usize) {
    let ok = matches!(&r.answer, Ok((report, _)) if report.efficiency_holds());
    out.attempt(ok, || match &r.answer {
        Err(e) => format!("refresh {i} ({}): {e}", OPS[r.kind]),
        Ok(_) => format!("refresh {i} ({}): efficiency violated", OPS[r.kind]),
    });
}

/// The final guard: the maintained answers equal a fresh prepare on the
/// final database.
fn check_against_fresh(ctx: &Ctx, session: &mut ShapleySession, out: &mut Outcome) {
    let maintained = session.report().expect("the churn query reports");
    let p = session
        .probability()
        .expect("the churn query has a probability");
    let mut fresh = ready(ctx, session.database());
    let ok = report_digest(&maintained) == report_digest(&fresh.report().expect("reports"))
        && p == fresh.probability().expect("has a probability");
    out.attempt(ok, || {
        "maintained report or probability differs from a fresh prepare on the final db".into()
    });
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut setup = Samples::default();
    let mut prepared = None;
    for _ in 0..3 {
        drop(prepared.take());
        let (lanes, took) = timed(|| {
            (0..INSTANCES)
                .map(|i| {
                    let seed = gen::sub_seed(ctx.seed, i);
                    let session = ready(ctx, &gen::heavy_university(M, seed));
                    let churn = Churn::new(session.database(), seed);
                    (session, churn)
                })
                .collect::<Vec<_>>()
        });
        setup.push(took);
        prepared = Some(lanes);
    }
    let mut lanes = prepared.expect("set up at least once");
    let mut refreshes = Samples::default();
    let mut cpu = Samples::default();
    let mut by_kind = [Samples::default(), Samples::default(), Samples::default()];
    let mut reports = Samples::default();
    let mut probabilities = Samples::default();
    let mut by_lane = vec![Samples::default(); lanes.len()];
    let start = Instant::now();
    // At least 110 samples, so the p90 has ten beyond it.
    while refreshes.len() < 110 || start.elapsed().as_secs_f64() < ctx.seconds {
        let lane = refreshes.len() % lanes.len();
        let (session, churn) = &mut lanes[lane];
        let cpu0 = sys::self_cpu();
        let r = refresh(churn, session);
        cpu.push(sys::self_cpu() - cpu0);
        check(out, &r, refreshes.len());
        refreshes.push(r.update + r.report + r.probability);
        by_lane[lane].push(r.update + r.report + r.probability);
        by_kind[r.kind].push(r.update);
        reports.push(r.report);
        probabilities.push(r.probability);
    }
    let peak_kib = sys::self_maxrss_kib();
    let recompiles: usize = lanes.iter().map(|(s, _)| s.stats().full_recompiles).sum();
    for (session, _) in &mut lanes {
        check_against_fresh(ctx, session, out);
    }

    let n = refreshes.len();
    out.metric(
        "setup_s",
        setup.median() / 1e3,
        "s",
        &format!("{INSTANCES} dbs: generate, prepare, first report and probability; median of 3"),
    );
    out.metric(
        "latency_p50_ms",
        refreshes.median(),
        "ms",
        &format!("refresh = update + report + probability, {n} over {INSTANCES} sessions"),
    );
    out.metric("cpu_p50_ms", cpu.median(), "ms", "user+sys per refresh");
    out.metric(
        "peak_rss_mb",
        peak_kib as f64 / 1024.0,
        "MB",
        "benchmark process, sessions in process",
    );
    out.show(
        "refresh_p50_ms",
        refreshes.median(),
        "ms",
        &format!("{n} samples"),
    );
    out.show(
        "refresh_p90_ms",
        refreshes.quantile(0.9),
        "ms",
        &format!("{n} samples"),
    );
    for (i, s) in by_lane.iter().enumerate() {
        out.show(&format!("refresh_p50_ms.session{i}"), s.median(), "ms", "");
    }
    for (kind, s) in OPS.iter().zip(&by_kind) {
        out.show(
            &format!("session.update_ms.{kind}"),
            s.median(),
            "ms",
            &format!("{} samples", s.len()),
        );
    }
    out.show("session.report_after_update_ms", reports.median(), "ms", "");
    out.show(
        "session.probability_ms",
        probabilities.median(),
        "ms",
        "maintained engine",
    );
    out.show(
        "session.full_recompiles",
        recompiles as f64,
        "count",
        &format!("of {n} updates"),
    );
}

pub fn run_traced(ctx: &Ctx, out: &mut Outcome) {
    let seed = gen::sub_seed(ctx.seed, 0);
    let db = gen::heavy_university(M, seed);
    let text = db.to_string();
    let mut parse = Samples::default();
    let mut classify = Samples::default();
    for _ in 0..3 {
        parse.push(timed(|| Database::parse(&text).expect("generated dbs parse")).1);
        classify.push(timed(|| Query::parse_and_classify(gen::Q1, &db)).1);
    }
    let (mut session, t) = timed(|| ready(ctx, &db));
    let prepare_ms = t.as_secs_f64() * 1e3;
    let mut churn = Churn::new(&db, seed);
    let mut untraced = Samples::default();
    let mut update = Samples::default();
    let mut report = Samples::default();
    let mut probability = Samples::default();
    let mut clone = Samples::default();
    let mut render = Samples::default();
    let start = Instant::now();
    while untraced.len() < 30 || start.elapsed().as_secs_f64() < ctx.seconds / 3.0 {
        let r = refresh(&mut churn, &mut session);
        check(out, &r, untraced.len());
        untraced.push(r.update + r.report + r.probability);
        update.push(r.update);
        report.push(r.report);
        probability.push(r.probability);
        if let Ok((rep, _)) = &r.answer {
            render.push(timed(|| std::hint::black_box(render_report(rep))).1);
        }
        clone.push(timed(|| std::hint::black_box(session.database().clone())).1);
    }
    let ops = untraced.len();
    let final_answer = |s: &mut ShapleySession| {
        (
            report_digest(&s.report().expect("reports")),
            s.probability().expect("has a probability"),
        )
    };
    let untraced_answer = final_answer(&mut session);

    // Two traced replays of the same updates: their counters must agree
    // update for update.
    trace::install();
    let mut traced = Samples::default();
    let mut reps = Vec::new();
    for _ in 0..2 {
        let mut session = ready(ctx, &db);
        let mut churn = Churn::new(&db, seed);
        let mut windows = Vec::with_capacity(ops);
        for i in 0..ops {
            let (r, w) = trace::record(|| refresh(&mut churn, &mut session));
            check(out, &r, i);
            traced.push(r.update + r.report + r.probability);
            windows.push(w);
        }
        out.attempt(final_answer(&mut session) == untraced_answer, || {
            "traced replay ends with a different answer than the untraced run".into()
        });
        reps.push(windows);
    }

    out.metric("db.parse_ms", parse.median(), "ms", "");
    out.metric(
        "db.clone_ms",
        clone.median(),
        "ms",
        "the snapshot every update takes",
    );
    out.metric("query.parse_classify_ms", classify.median(), "ms", "");
    out.metric(
        "session.prepare_ms",
        prepare_ms,
        "ms",
        "with first report and probability",
    );
    out.metric(
        "session.report_ms",
        report.median(),
        "ms",
        "after an update",
    );
    out.metric("render_ms", render.median(), "ms", "");
    out.show(
        "session.update_ms",
        update.median(),
        "ms",
        &format!("{ops} updates"),
    );
    out.show(
        "session.probability_ms",
        probability.median(),
        "ms",
        "maintained engine",
    );
    out.metric(
        "exoshap.rewritten_facts",
        0.0,
        "count",
        "no rewriting in this workload",
    );
    out.metric("approx.draws", 0.0, "count", "no sampling in this workload");
    out.metric(
        "approx.draws_per_s",
        0.0,
        "1/s",
        "no sampling in this workload",
    );
    trace::summarize(out, &reps, ops, &untraced, &traced);
}
