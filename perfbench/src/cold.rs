//! `cold-report`: one `cqshap report` process per query kind, cold each
//! time — parse, prepare, report and print, end to end.

use std::time::{Duration, Instant};

use cqshap::core::rewrite;
use cqshap::db::Database;
use cqshap::workloads::{queries, report_benchmark_db, union_benchmark_db};

use crate::common::{parse_printed, prepare, render_report, report_digest, timed, Ctx, Query};
use crate::gen;
use crate::stats::{Digest, Outcome, Samples};
use crate::sys;
use crate::trace;

/// One query kind of the mix.
struct Kind {
    name: &'static str,
    query: String,
    db: Database,
    text: String,
    path: String,
}

/// The query mix: skewed and uniform CQ¬, a UCQ¬, and a negated
/// ExoShap instance, generated and rendered in the line format.
fn generate(ctx: &Ctx) -> Vec<Kind> {
    let union = queries::union_benchmark().to_string();
    let mix: [(&str, String, Database); 4] = [
        ("cq", gen::Q1.into(), gen::heavy_university(1536, ctx.seed)),
        ("cq_uniform", gen::Q1.into(), report_benchmark_db(2048)),
        ("ucq", union, union_benchmark_db(512)),
        (
            "exo",
            gen::Q_EXO.into(),
            gen::exo_instance(ctx.seed, &gen::EXO_FULL),
        ),
    ];
    mix.into_iter()
        .map(|(name, query, db)| Kind {
            name,
            query,
            text: db.to_string(),
            path: ctx
                .work
                .join(format!("{name}.db"))
                .to_string_lossy()
                .into_owned(),
            db,
        })
        .collect()
}

/// Writes every kind's db file for the CLI.
fn write(kinds: &[Kind]) {
    for k in kinds {
        std::fs::write(&k.path, &k.text).expect("the work directory is writable");
    }
}

/// The exact answer every process must print for each kind, computed
/// in process (untimed).
fn references(ctx: &Ctx, kinds: &[Kind], out: &mut Outcome) -> Vec<Digest> {
    kinds
        .iter()
        .map(|k| {
            let q = Query::parse_and_classify(&k.query, &k.db);
            let report = prepare(&k.db, &q, ctx).report().expect("benchmark reports");
            if !report.efficiency_holds() {
                out.problem(format!("{}: in-process report violates efficiency", k.name));
            }
            report_digest(&report)
        })
        .collect()
}

/// Runs the CLI once on `kind` and checks what it printed.
fn run_cli(ctx: &Ctx, kind: &Kind, reference: Digest, out: &mut Outcome) -> sys::Finished {
    let threads = ctx.threads.to_string();
    let run = sys::run(
        &ctx.cqshap,
        &["report", &kind.path, &kind.query, "--threads", &threads],
    )
    .expect("the cqshap binary runs");
    let printed = parse_printed(&run.stdout);
    let m = kind.db.endo_count();
    out.attempt(
        run.success
            && printed.efficiency_holds
            && printed.entries == m
            && printed.digest == reference,
        || {
            format!(
                "{}: exit ok {}, efficiency {}, {} of {m} entries, digest {} (expected {reference}); stderr: {}",
                kind.name,
                run.success,
                printed.efficiency_holds,
                printed.entries,
                printed.digest,
                run.stderr.trim()
            )
        },
    );
    run
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    // Set-up: the inputs and the answers every process must print.
    let mut setup = Samples::default();
    let mut prepared = None;
    for _ in 0..3 {
        drop(prepared.take());
        let (p, took) = timed(|| {
            let kinds = generate(ctx);
            let refs = references(ctx, &kinds, out);
            (kinds, refs)
        });
        setup.push(took);
        prepared = Some(p);
    }
    let (kinds, refs) = prepared.expect("set up at least once");
    write(&kinds);
    // Warm-up: one untimed process per kind loads the binary and fills
    // the page cache.
    for (k, r) in kinds.iter().zip(&refs) {
        run_cli(ctx, k, *r, out);
    }
    let mut wall = vec![Samples::default(); kinds.len()];
    let mut cpu = vec![Samples::default(); kinds.len()];
    let mut peak_kib = 0;
    let start = Instant::now();
    let mut cycles = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || cycles < 3 {
        for (i, (k, r)) in kinds.iter().zip(&refs).enumerate() {
            let run = run_cli(ctx, k, *r, out);
            wall[i].push(run.wall);
            cpu[i].push(run.cpu);
            peak_kib = peak_kib.max(run.maxrss_kib);
        }
        cycles += 1;
    }
    let sum = |s: &[Samples]| s.iter().map(Samples::median).sum::<f64>();
    out.metric(
        "setup_s",
        setup.median() / 1e3,
        "s",
        "generate the four dbs and their in-process answers, median of 3",
    );
    out.metric(
        "latency_p50_ms",
        sum(&wall),
        "ms",
        &format!("one report per kind: sum of per-kind medians, {cycles} cycles"),
    );
    out.metric(
        "cpu_p50_ms",
        sum(&cpu),
        "ms",
        "user+sys, sum of per-kind medians",
    );
    out.metric(
        "peak_rss_mb",
        peak_kib as f64 / 1024.0,
        "MB",
        "largest cqshap process",
    );
    for (k, (w, c)) in kinds.iter().zip(wall.iter().zip(&cpu)) {
        out.show(
            &format!("report_{}_s", k.name),
            w.median() / 1e3,
            "s",
            &format!("median of {}, m = {}", w.len(), k.db.endo_count()),
        );
        out.show(
            &format!("report_{}_cpu_s", k.name),
            c.median() / 1e3,
            "s",
            "",
        );
    }
}

/// Wall times of the layers one in-process report passes through.
#[derive(Default, Clone)]
struct Layers {
    parse: Samples,
    classify: Samples,
    clone: Samples,
    prepare: Samples,
    report: Samples,
    render: Samples,
}

/// One in-process report of `kind` as the CLI computes it, each layer
/// timed; returns the request time and the answer digest.
fn request(ctx: &Ctx, kind: &Kind, layers: &mut Layers) -> (Duration, Digest) {
    let start = Instant::now();
    let (db, t) = timed(|| Database::parse(&kind.text).expect("generated dbs parse"));
    layers.parse.push(t);
    let (q, t) = timed(|| Query::parse_and_classify(&kind.query, &db));
    layers.classify.push(t);
    let (session, t) = timed(|| prepare(&db, &q, ctx));
    layers.prepare.push(t);
    let (report, t) = timed(|| session.report().expect("benchmark reports"));
    layers.report.push(t);
    let (text, t) = timed(|| render_report(&report));
    layers.render.push(t);
    std::hint::black_box(text);
    let took = start.elapsed();
    let (copy, t) = timed(|| db.clone());
    layers.clone.push(t);
    drop(copy);
    (took, report_digest(&report))
}

pub fn run_traced(ctx: &Ctx, out: &mut Outcome) {
    let kinds = generate(ctx);
    let refs = references(ctx, &kinds, out);
    let mut layers = vec![Layers::default(); kinds.len()];
    let mut untraced = Samples::default();
    let mut rewrite_ms = Samples::default();
    let mut rewritten_facts = 0;
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let mut total = Duration::ZERO;
        for (i, k) in kinds.iter().enumerate() {
            let (took, digest) = request(ctx, k, &mut layers[i]);
            total += took;
            out.attempt(digest == refs[i], || {
                format!("{}: untraced answer differs", k.name)
            });
        }
        untraced.push(total);
        let exo = kinds
            .iter()
            .find(|k| k.name == "exo")
            .expect("exo is in the mix");
        let q = cqshap::query::parse_cq(&exo.query).expect("static query");
        let (outcome, t) = timed(|| rewrite(&exo.db, &q, ctx.options().tuple_budget));
        rewrite_ms.push(t);
        rewritten_facts =
            outcome.expect("the exo query rewrites").db.fact_count() - exo.db.fact_count();
    }

    trace::install();
    let mut traced = Samples::default();
    let mut windows = Vec::new();
    let mut scratch = vec![Layers::default(); kinds.len()];
    for _ in 0..untraced.len() {
        let mut total = Duration::ZERO;
        let mut per_kind = Vec::new();
        for (i, k) in kinds.iter().enumerate() {
            let ((took, digest), w) = trace::record(|| request(ctx, k, &mut scratch[i]));
            total += took;
            out.attempt(digest == refs[i], || {
                format!("{}: traced answer differs from untraced", k.name)
            });
            per_kind.push(w);
        }
        traced.push(total);
        windows.push(per_kind);
    }

    let sum = |f: fn(&Layers) -> &Samples| layers.iter().map(|l| f(l).median()).sum::<f64>();
    out.metric("db.parse_ms", sum(|l| &l.parse), "ms", "all kinds");
    out.metric("db.clone_ms", sum(|l| &l.clone), "ms", "all kinds");
    out.metric(
        "query.parse_classify_ms",
        sum(|l| &l.classify),
        "ms",
        "all kinds",
    );
    out.metric("session.prepare_ms", sum(|l| &l.prepare), "ms", "all kinds");
    out.metric("session.report_ms", sum(|l| &l.report), "ms", "all kinds");
    out.metric("render_ms", sum(|l| &l.render), "ms", "all kinds");
    for (k, l) in kinds.iter().zip(&layers) {
        for (layer, s) in [
            ("db.parse_ms", &l.parse),
            ("db.clone_ms", &l.clone),
            ("session.prepare_ms", &l.prepare),
            ("session.report_ms", &l.report),
            ("render_ms", &l.render),
        ] {
            out.show(&format!("{layer}.{}", k.name), s.median(), "ms", "");
        }
    }
    out.show("exoshap.rewrite_ms", rewrite_ms.median(), "ms", "exo kind");
    out.metric(
        "exoshap.rewritten_facts",
        rewritten_facts as f64,
        "count",
        "exo kind, exact",
    );
    out.metric("approx.draws", 0.0, "count", "no sampling in this workload");
    out.metric(
        "approx.draws_per_s",
        0.0,
        "1/s",
        "no sampling in this workload",
    );
    trace::summarize(out, &windows, 1, &untraced, &traced);
}
