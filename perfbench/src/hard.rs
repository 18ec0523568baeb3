//! `hard-anytime`: `cqshap report --tier --epsilon 0.1` on instances of
//! the FP^#P-hard `q_RS¬T`, where exact answering is refused and the
//! sampled tier answers.

use std::time::{Duration, Instant};

use cqshap::core::{AnytimeParams, ShapleySession, TierPolicy, TieredAnswer};
use cqshap::db::Database;

use crate::common::{anytime_digest, parse_printed_anytime, render_anytime, timed, Ctx, Query};
use crate::gen;
use crate::stats::{Digest, Outcome, Samples};
use crate::sys;
use crate::trace;

const EPSILON: f64 = 0.1;

/// Instances one end-to-end run measures round-robin: the sampler's
/// cost per draw depends on how an instance is wired, so a run
/// averages over several seeded instances.
const INSTANCES: u64 = 4;

fn instance(seed: u64, i: u64) -> Database {
    gen::hard_instance(gen::sub_seed(seed, i), 24, 4)
}

/// The answer of the sampled tier: its printed lines and draw count.
#[derive(Clone, Copy, PartialEq)]
struct Sampled {
    digest: Digest,
    draws: u64,
}

/// The layers one in-process `report --tier` passes through.
#[derive(Default)]
struct Layers {
    parse: Samples,
    classify: Samples,
    clone: Samples,
    prepare: Samples,
    report: Samples,
    render: Samples,
}

/// One in-process `cqshap report --tier` on `text`, each layer timed.
/// `None` when a tier other than the converged sampled one answered.
fn request(ctx: &Ctx, text: &str, layers: &mut Layers) -> (Duration, Option<Sampled>) {
    let start = Instant::now();
    let (db, t) = timed(|| Database::parse(text).expect("generated dbs parse"));
    layers.parse.push(t);
    let (q, t) = timed(|| Query::parse_and_classify(gen::Q_HARD, &db));
    layers.classify.push(t);
    let (session, t) =
        timed(|| ShapleySession::prepare_with_fallback(&db, q.any(), &ctx.options()));
    layers.prepare.push(t);
    let mut session = session.expect("the hard query gets a fallback session");
    let policy = TierPolicy {
        epsilon: EPSILON,
        ..TierPolicy::default()
    };
    let (answer, t) = timed(|| session.report_tiered(&policy));
    layers.report.push(t);
    let sampled = match answer {
        Ok(TieredAnswer::Sampled(report)) if report.converged => {
            let (text, t) = timed(|| render_anytime(&report));
            layers.render.push(t);
            std::hint::black_box(text);
            Some(Sampled {
                digest: anytime_digest(&report),
                draws: report.spent_samples,
            })
        }
        _ => None,
    };
    let took = start.elapsed();
    layers
        .clone
        .push(timed(|| std::hint::black_box(db.clone())).1);
    (took, sampled)
}

fn check(out: &mut Outcome, got: Option<Sampled>, want: Sampled, what: &str) {
    out.attempt(got == Some(want), || match got {
        None => format!("{what}: the sampled tier did not answer with converged intervals"),
        Some(g) => format!(
            "{what}: {} draws, digest {} (expected {} draws, digest {})",
            g.draws, g.digest, want.draws, want.digest
        ),
    });
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    // Set-up: the inputs and the answers every process must print.
    let mut setup = Samples::default();
    let mut prepared = None;
    for _ in 0..3 {
        drop(prepared.take());
        let (p, took) = timed(|| {
            (0..INSTANCES)
                .map(|i| {
                    let text = instance(ctx.seed, i).to_string();
                    let reference = request(ctx, &text, &mut Layers::default()).1;
                    (text, reference)
                })
                .collect::<Vec<_>>()
        });
        setup.push(took);
        prepared = Some(p);
    }
    let mut paths = Vec::new();
    let mut refs = Vec::new();
    for (i, (text, reference)) in prepared.into_iter().flatten().enumerate() {
        let Some(reference) = reference else {
            out.problem(format!(
                "instance {i}: the in-process sampled tier did not answer"
            ));
            return;
        };
        let path = ctx.work.join(format!("hard{i}.db"));
        std::fs::write(&path, text).expect("the work directory is writable");
        paths.push(path.to_string_lossy().into_owned());
        refs.push(reference);
    }
    let threads = ctx.threads.to_string();
    let eps = EPSILON.to_string();
    let cli = |out: &mut Outcome, i: usize| {
        let args = [
            "report",
            &paths[i],
            gen::Q_HARD,
            "--tier",
            "--epsilon",
            &eps,
            "--threads",
            &threads,
        ];
        let run = sys::run(&ctx.cqshap, &args).expect("the cqshap binary runs");
        let (digest, draws) = parse_printed_anytime(&run.stdout);
        let answered = run.success && run.stdout.contains("tier: sampled");
        let got = draws
            .filter(|_| answered)
            .map(|draws| Sampled { digest, draws });
        check(
            out,
            got,
            refs[i],
            &format!("instance {i}: cqshap report --tier"),
        );
        run
    };
    cli(out, 0); // warm-up
    let mut wall = vec![Samples::default(); refs.len()];
    let mut cpu = vec![Samples::default(); refs.len()];
    let mut peak_kib = 0;
    let mut n = 0;
    let start = Instant::now();
    while n < 2 * refs.len() || start.elapsed().as_secs_f64() < ctx.seconds {
        let i = n % refs.len();
        let run = cli(out, i);
        wall[i].push(run.wall);
        cpu[i].push(run.cpu);
        peak_kib = peak_kib.max(run.maxrss_kib);
        n += 1;
    }
    let mean = |s: &[Samples]| s.iter().map(Samples::median).sum::<f64>() / s.len() as f64;
    out.metric(
        "setup_s",
        setup.median() / 1e3,
        "s",
        &format!("generate {INSTANCES} instances and their in-process answers, median of 3"),
    );
    out.metric(
        "latency_p50_ms",
        mean(&wall),
        "ms",
        &format!(
            "time to ±{EPSILON}: mean over {INSTANCES} instances of the median, {n} processes"
        ),
    );
    out.metric("cpu_p50_ms", mean(&cpu), "ms", "user+sys, the same way");
    out.metric(
        "peak_rss_mb",
        peak_kib as f64 / 1024.0,
        "MB",
        "largest cqshap process",
    );
    out.show(
        "time_to_eps_s",
        mean(&wall) / 1e3,
        "s",
        &format!("{n} processes"),
    );
    for (i, (w, r)) in wall.iter().zip(&refs).enumerate() {
        out.show(
            &format!("time_to_eps_s.instance{i}"),
            w.median() / 1e3,
            "s",
            &format!("median of {}, {} draws every time", w.len(), r.draws),
        );
    }
}

pub fn run_traced(ctx: &Ctx, out: &mut Outcome) {
    let db = instance(ctx.seed, 0);
    let text = db.to_string();
    let mut layers = Layers::default();
    let mut untraced = Samples::default();
    let mut anytime = Samples::default();
    let mut reference = None;
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let (took, got) = request(ctx, &text, &mut layers);
        untraced.push(took);
        let want = *reference.get_or_insert(got.unwrap_or(Sampled {
            digest: Digest::new(),
            draws: 0,
        }));
        check(out, got, want, "untraced request");
        // The sampler alone, through the session's public entry point.
        let q = Query::parse_and_classify(gen::Q_HARD, &db);
        let mut session = ShapleySession::prepare_with_fallback(&db, q.any(), &ctx.options())
            .expect("the hard query gets a fallback session");
        let params = AnytimeParams {
            epsilon: EPSILON,
            seed: TierPolicy::default().seed,
            ..AnytimeParams::default()
        };
        let (report, t) = timed(|| session.anytime(&params));
        anytime.push(t);
        out.attempt(
            report.is_ok_and(|r| r.converged && r.spent_samples == want.draws),
            || "direct anytime call disagrees with the tiered report".into(),
        );
    }
    let want = reference.expect("at least one request ran");

    trace::install();
    let mut traced = Samples::default();
    let mut reps = Vec::new();
    for _ in 0..untraced.len() {
        let ((took, got), w) = trace::record(|| request(ctx, &text, &mut Layers::default()));
        traced.push(took);
        check(out, got, want, "traced request");
        reps.push(vec![w]);
    }

    out.metric("db.parse_ms", layers.parse.median(), "ms", "");
    out.metric("db.clone_ms", layers.clone.median(), "ms", "");
    out.metric(
        "query.parse_classify_ms",
        layers.classify.median(),
        "ms",
        "",
    );
    out.metric(
        "session.prepare_ms",
        layers.prepare.median(),
        "ms",
        "exact refused: fallback session",
    );
    out.metric(
        "session.report_ms",
        layers.report.median(),
        "ms",
        "report_tiered: exact refused, then sampled",
    );
    out.metric("render_ms", layers.render.median(), "ms", "");
    out.show(
        "session.anytime_ms",
        anytime.median(),
        "ms",
        &format!("median of {}", anytime.len()),
    );
    out.metric(
        "exoshap.rewritten_facts",
        0.0,
        "count",
        "no rewriting in this workload",
    );
    out.metric(
        "approx.draws",
        want.draws as f64,
        "count",
        "exact, every repeat",
    );
    out.metric(
        "approx.draws_per_s",
        want.draws as f64 / (anytime.median() / 1e3),
        "1/s",
        "direct anytime call",
    );
    trace::summarize(out, &reps, 1, &untraced, &traced);
}
