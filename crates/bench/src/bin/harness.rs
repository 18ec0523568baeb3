//! The experiment harness: regenerates the experiment tables E1–E14,
//! printing Markdown to stdout. `main`'s `experiments` list names the
//! paper result each one reproduces (E1 is Example 2.3, E4 Theorem 4.3
//! and Algorithm 1, E12 Theorem 4.10, …).
//!
//! ```sh
//! cargo run -p cqshap-bench --release --bin harness            # all
//! cargo run -p cqshap-bench --release --bin harness -- e5 e6   # subset
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "experiment harness binary: its whole job is timing"
)]

use std::collections::HashSet;
use std::time::Instant;

use cqshap_bench::Table;
use cqshap_core::aggregates::{aggregate_value, AggregateFunction};
use cqshap_core::approx::{required_samples, shapley_sampled};
use cqshap_core::gap::section_5_1_example;
use cqshap_core::relevance::{
    brute_force_relevance, is_negatively_relevant, is_positively_relevant,
};
use cqshap_core::{
    rewrite, shapley_by_permutations, shapley_via_counts, AnyQuery, BruteForceCounter, CoreError,
    ResolvedStrategy, ShapleyOptions, ShapleyReport, ShapleySession, Strategy,
};
use cqshap_db::{Database, World};
use cqshap_gadgets::coloring::{coloring_to_3p2n, to_224};
use cqshap_gadgets::{embed, prop55, prop58, reduction_rst};
use cqshap_numeric::BigRational;
use cqshap_query::{classify_with_exo, parse_cq};
use cqshap_workloads::academic::AcademicConfig;
use cqshap_workloads::exports::ExportsConfig;
use cqshap_workloads::university::UniversityConfig;
use cqshap_workloads::{figure_1_database, formulas, graphs, queries};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let experiments: &[(&str, &str, fn())] = &[
        (
            "e1",
            "Example 2.3: exact Shapley values on the running example",
            e1,
        ),
        (
            "e2",
            "Theorems 3.1/4.3: dichotomy classification catalog",
            e2,
        ),
        (
            "e3",
            "Theorem 3.1 (positive side): polynomial vs exponential scaling",
            e3,
        ),
        (
            "e4",
            "Theorem 4.3 / Algorithm 1: ExoShap correctness and scaling",
            e4,
        ),
        (
            "e5",
            "Theorem 5.1: the gap property fails under negation",
            e5,
        ),
        (
            "e6",
            "Section 5.1: additive FPRAS vs multiplicative failure",
            e6,
        ),
        (
            "e7",
            "Proposition 5.5 + Lemma D.1: SAT ⟺ relevance for q_RST¬R",
            e7,
        ),
        ("e8", "Proposition 5.7: polynomial relevance scaling", e8),
        (
            "e9",
            "Proposition 5.8: SAT ⟺ relevance for the union q_SAT",
            e9,
        ),
        (
            "e10",
            "Lemma B.3: counting independent sets via a Shapley oracle",
            e10,
        ),
        (
            "e11",
            "Lemma B.4 / Appendix C: Shapley-preserving embeddings",
            e11,
        ),
        (
            "e12",
            "Theorem 4.10: probabilistic evaluation with deterministic relations",
            e12,
        ),
        ("e13", "Section 3 remarks: aggregate attribution", e13),
        (
            "e14",
            "Example 5.3: relevant facts with zero Shapley value",
            e14,
        ),
    ];
    for (name, title, run) in experiments {
        if want(name) {
            println!("\n## {} — {}\n", name.to_uppercase(), title);
            let t0 = Instant::now();
            run();
            println!("\n[{} completed in {:?}]", name, t0.elapsed());
        }
    }
}

fn opts() -> ShapleyOptions {
    ShapleyOptions::default()
}

/// The all-facts report of a session prepared for `q`.
fn session_report(
    db: &Database,
    q: AnyQuery<'_>,
    options: &ShapleyOptions,
) -> Result<ShapleyReport, CoreError> {
    ShapleySession::prepare(db, q, options)?.report()
}

fn ms(d: std::time::Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------

fn e1() {
    let db = figure_1_database();
    let q1 = queries::q1();
    let report = session_report(&db, AnyQuery::Cq(&q1), &opts()).expect("hierarchical");
    let paper = [
        ("TA(Adam)", "-3/28"),
        ("TA(Ben)", "-2/35"),
        ("TA(David)", "0"),
        ("Reg(Adam, OS)", "37/210"),
        ("Reg(Adam, AI)", "37/210"),
        ("Reg(Ben, OS)", "27/140"),
        ("Reg(Caroline, DB)", "13/42"),
        ("Reg(Caroline, IC)", "13/42"),
    ];
    let mut t = Table::new(&["fact", "paper (Ex. 2.3)", "computed", "match"]);
    for ((fact, want), entry) in paper.iter().zip(&report.entries) {
        assert_eq!(*fact, entry.rendered);
        let got = entry.value.to_string();
        let ok = if got == *want { "✓" } else { "✗" };
        t.row(&[fact.to_string(), want.to_string(), got, ok.to_string()]);
    }
    print!("{t}");
    println!(
        "\nefficiency: Σ = {} vs q(D) − q(Dx) = {} → {}",
        report.total,
        report.expected_total,
        if report.efficiency_holds() {
            "holds"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "note: the appendix's expansion for f_r1 misses the subset {{f_t2, f_t3}}; \
         the main text's 37/210 is correct and reproduced here."
    );
}

fn e2() {
    let mut t = Table::new(&["query", "X", "verdict"]);
    let none: HashSet<String> = HashSet::new();
    let row = |t: &mut Table, q: &cqshap_query::ConjunctiveQuery, x: &HashSet<String>| {
        let mut names: Vec<&str> = x.iter().map(|s| s.as_str()).collect();
        names.sort();
        t.row(&[
            q.to_string(),
            format!("{{{}}}", names.join(",")),
            classify_with_exo(q, x).to_string(),
        ]);
    };
    row(&mut t, &queries::q1(), &none);
    row(&mut t, &queries::q2(), &none);
    let x2: HashSet<String> = ["Stud", "Course"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::q2(), &x2);
    row(&mut t, &queries::q3(), &none);
    row(&mut t, &queries::q4(), &none);
    for q in [
        queries::qrst(),
        queries::qnrsnt(),
        queries::qrnst(),
        queries::qrsnt(),
    ] {
        row(&mut t, &q, &none);
    }
    let xs: HashSet<String> = ["S"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::qrnst(), &xs);
    row(&mut t, &queries::citations(), &none);
    let xc: HashSet<String> = ["Pub", "Citations"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::citations(), &xc);
    let xcit: HashSet<String> = ["Citations"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::citations(), &xcit);
    let x41: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::section_4_1_tractable(), &x41);
    row(&mut t, &queries::section_4_1_hard(), &x41);
    let x42: HashSet<String> = ["Q", "S", "U", "P"].iter().map(|s| s.to_string()).collect();
    row(&mut t, &queries::example_4_2_q(), &x42);
    let x42p: HashSet<String> = ["R", "S", "O", "P", "V"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    row(&mut t, &queries::example_4_2_qprime(), &x42p);
    row(&mut t, &queries::unemployed_couple(), &none);
    row(&mut t, &queries::non_citizen_couple(), &none);
    row(&mut t, &queries::farmer_exports(), &none);
    print!("{t}");
}

fn e3() {
    let q1 = queries::q1();
    let mut t = Table::new(&[
        "students",
        "|Dn|",
        "CntSat (all facts)",
        "brute force (one fact)",
    ]);
    for students in [4usize, 8, 16, 32, 64, 128] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 42,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let report = session_report(&db, AnyQuery::Cq(&q1), &opts()).expect("hierarchical");
        let fast = t0.elapsed();
        assert!(report.efficiency_holds());
        let brute = if db.endo_count() <= 22 {
            let f = db.endo_facts()[0];
            let t1 = Instant::now();
            let v = shapley_via_counts(&db, AnyQuery::Cq(&q1), f, &BruteForceCounter::default())
                .expect("small enough");
            assert_eq!(v, report.entries[0].value);
            ms(t1.elapsed())
        } else {
            format!("2^{} worlds — skipped", db.endo_count())
        };
        t.row(&[
            students.to_string(),
            db.endo_count().to_string(),
            ms(fast),
            brute,
        ]);
    }
    print!("{t}");
    println!("\n(CntSat grows polynomially; enumeration doubles per added fact.)");
}

fn e4() {
    // Correctness on the running example (vs brute force).
    let mut db = figure_1_database();
    for name in ["Stud", "Course", "Adv"] {
        let rel = db.schema().id(name).expect("exists");
        db.declare_exogenous_relation(rel).expect("exogenous-safe");
    }
    let q2 = queries::q2();
    let exo_opts = ShapleyOptions::with_strategy(Strategy::ExoShap);
    let bf_opts = ShapleyOptions::with_strategy(Strategy::BruteForceSubsets);
    let exo = ShapleySession::prepare(&db, AnyQuery::Cq(&q2), &exo_opts).expect("rewritable");
    let bf = ShapleySession::prepare(&db, AnyQuery::Cq(&q2), &bf_opts).expect("small");
    let mut t = Table::new(&["fact", "ExoShap", "brute force", "match"]);
    for &f in db.endo_facts() {
        let a = exo.value(f).expect("rewritable");
        let b = bf.value(f).expect("small");
        let ok = if a == b { "✓" } else { "✗" };
        t.row(&[
            db.render_fact(f),
            a.to_string(),
            b.to_string(),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    // Rewriting trace (Figure 3 analogue).
    let outcome = rewrite(&db, &q2, 10_000_000).expect("rewritable");
    println!("\nrewriting stages for q2:");
    for s in &outcome.stages {
        println!("  {s}");
    }

    // Scaling on the academic scenario.
    let q = queries::citations();
    let mut t2 = Table::new(&["authors", "|Dn|", "ExoShap report (all facts)"]);
    for authors in [8usize, 16, 32, 64] {
        let adb = AcademicConfig {
            authors,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let report = session_report(&adb, AnyQuery::Cq(&q), &exo_opts).expect("rewritable");
        assert!(report.efficiency_holds());
        t2.row(&[
            authors.to_string(),
            adb.endo_count().to_string(),
            ms(t0.elapsed()),
        ]);
    }
    println!();
    print!("{t2}");
}

fn e5() {
    let mut t = Table::new(&[
        "n",
        "|D_n| endo",
        "Shapley(D_n, q, f0)",
        "as float",
        "2^-n bound",
    ]);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (q, inst) = section_5_1_example(n);
        let value = if n <= 4 {
            // Verify the closed form against the actual computation.
            let v = shapley_via_counts(
                &inst.db,
                AnyQuery::Cq(&q),
                inst.f0,
                &BruteForceCounter::default(),
            )
            .expect("small");
            assert_eq!(v.abs(), inst.expected_abs);
            v.abs()
        } else {
            inst.expected_abs.clone()
        };
        t.row(&[
            n.to_string(),
            (2 * n + 1).to_string(),
            value.to_string(),
            format!("{:.3e}", value.to_f64()),
            format!("{:.3e}", 2f64.powi(-(n as i32))),
        ]);
    }
    print!("{t}");
    println!("\n(values ≤ 2^-n yet provably nonzero: the gap property fails — Theorem 5.1)");
}

fn e6() {
    let db = figure_1_database();
    let q1 = queries::q1();
    let exact = session_report(&db, AnyQuery::Cq(&q1), &opts()).expect("hierarchical");
    let mut t = Table::new(&[
        "ε",
        "δ",
        "samples",
        "max additive error (8 facts)",
        "within ε",
    ]);
    for (eps, delta) in [(0.2, 0.05), (0.1, 0.05), (0.05, 0.01), (0.02, 0.01)] {
        let samples = required_samples(eps, delta).expect("ε, δ in range");
        let mut max_err = 0f64;
        for entry in &exact.entries {
            let est = shapley_sampled(&db, AnyQuery::Cq(&q1), entry.fact, samples, 31337, 0)
                .expect("endogenous");
            max_err = max_err.max((est.estimate - entry.value.to_f64()).abs());
        }
        t.row(&[
            eps.to_string(),
            delta.to_string(),
            samples.to_string(),
            format!("{max_err:.5}"),
            (max_err <= eps).to_string(),
        ]);
    }
    print!("{t}");

    // Multiplicative failure on the gap family.
    println!("\nmultiplicative failure on the Theorem 5.1 family (ε = 0.05, δ = 0.01):");
    let samples = required_samples(0.05, 0.01).expect("ε, δ in range");
    let mut t2 = Table::new(&["n", "true value", "estimate", "relative error"]);
    for n in [2usize, 6, 10, 14] {
        let (q, inst) = section_5_1_example(n);
        let est = shapley_sampled(&inst.db, AnyQuery::Cq(&q), inst.f0, samples, 7, 0)
            .expect("endogenous");
        let truth = inst.expected_abs.to_f64();
        let rel = if est.estimate == 0.0 {
            "∞ (estimate is 0)".to_string()
        } else {
            format!("{:.2}", (est.estimate - truth).abs() / truth)
        };
        t2.row(&[
            n.to_string(),
            format!("{truth:.3e}"),
            format!("{:.3e}", est.estimate),
            rel,
        ]);
    }
    print!("{t2}");
}

fn e7() {
    let q = prop55::qrst_nr_query();
    println!("query: {q}\n");
    let mut t = Table::new(&["formula", "DPLL sat", "T(c) relevant", "agree"]);
    for seed in 0..8u64 {
        let f = formulas::random_224(4, 6, seed);
        let (db, fact) = prop55::build_relevance_instance(&f).expect("in shape");
        let (pos, _) = brute_force_relevance(&db, AnyQuery::Cq(&q), fact, 24).expect("small");
        let sat = f.is_satisfiable();
        t.row(&[
            f.to_string(),
            sat.to_string(),
            pos.to_string(),
            if sat == pos { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");
    println!("\nLemma D.1 chain (3-colorability → (3+,2−)-SAT → (2+,2−,4+−)-SAT):");
    let mut t2 = Table::new(&["graph", "3-colorable", "reduced formula sat", "agree"]);
    for (name, g) in [
        (
            "triangle",
            cqshap_gadgets::Graph::new(3, vec![(0, 1), (1, 2), (0, 2)]),
        ),
        (
            "K4",
            cqshap_gadgets::Graph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        ),
        (
            "C5",
            cqshap_gadgets::Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ),
        ("random(5, .7)", graphs::random_graph(5, 0.7, 3)),
    ] {
        let sat = to_224(&coloring_to_3p2n(&g)).is_satisfiable();
        let col = g.is_three_colorable();
        t2.row(&[
            name.to_string(),
            col.to_string(),
            sat.to_string(),
            if sat == col { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t2}");
}

fn e8() {
    let q1 = queries::q1();
    let mut t = Table::new(&[
        "students",
        "|Dn|",
        "IsPos+IsNeg (all facts)",
        "brute force (all facts)",
        "agreements",
    ]);
    for students in [4usize, 8, 12, 16, 32, 64] {
        let db = UniversityConfig {
            students,
            courses: (students / 2).max(2),
            declare_exogenous: false,
            seed: 13,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let mut fast: Vec<(bool, bool)> = Vec::new();
        for &f in db.endo_facts() {
            fast.push((
                is_positively_relevant(&db, AnyQuery::Cq(&q1), f).expect("consistent"),
                is_negatively_relevant(&db, AnyQuery::Cq(&q1), f).expect("consistent"),
            ));
        }
        let fast_time = t0.elapsed();
        let (brute_cell, agree_cell) = if db.endo_count() <= 16 {
            let t1 = Instant::now();
            let mut agree = 0usize;
            for (i, &f) in db.endo_facts().iter().enumerate() {
                let bf = brute_force_relevance(&db, AnyQuery::Cq(&q1), f, 24).expect("small");
                if bf == fast[i] {
                    agree += 1;
                }
            }
            (ms(t1.elapsed()), format!("{agree}/{}", db.endo_count()))
        } else {
            ("skipped".to_string(), "—".to_string())
        };
        t.row(&[
            students.to_string(),
            db.endo_count().to_string(),
            ms(fast_time),
            brute_cell,
            agree_cell,
        ]);
    }
    print!("{t}");
}

fn e9() {
    let u = prop58::qsat_query();
    println!("union:");
    for d in u.disjuncts() {
        println!("  {d}");
    }
    println!();
    let mut t = Table::new(&["3CNF formula", "DPLL sat", "R(0) relevant", "agree"]);
    let check = |t: &mut Table, f3: &cqshap_gadgets::CnfFormula| {
        let (db, r0) = prop58::build_relevance_instance(f3).expect("3CNF");
        let (pos, _) = brute_force_relevance(&db, AnyQuery::Union(&u), r0, 24).expect("small");
        let sat = f3.is_satisfiable();
        t.row(&[
            f3.to_string(),
            sat.to_string(),
            pos.to_string(),
            if sat == pos { "✓" } else { "✗" }.to_string(),
        ]);
    };
    for seed in 0..5u64 {
        check(&mut t, &formulas::random_3sat(3, 8, seed));
    }
    // Random short formulas over 3 variables are almost always
    // satisfiable; pin the UNSAT side with all eight sign patterns.
    use cqshap_gadgets::{Clause, CnfFormula, Literal};
    let unsat = CnfFormula::new(
        3,
        (0u8..8)
            .map(|mask| {
                Clause(
                    (0..3)
                        .map(|i| Literal {
                            var: i,
                            positive: mask & (1 << i) != 0,
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    check(&mut t, &unsat);
    print!("{t}");
}

fn e10() {
    println!("query: {}\n", reduction_rst::qrsnt_query());
    let mut t = Table::new(&[
        "bipartite graph",
        "|IS| direct",
        "|IS| via Shapley oracle",
        "match",
        "time",
    ]);
    for (l, r, p, seed) in [
        (2usize, 2usize, 0.5f64, 1u64),
        (3, 2, 0.4, 2),
        (2, 3, 0.6, 3),
        (3, 3, 0.5, 4),
    ] {
        let g = graphs::random_bipartite(l, r, p, seed);
        let truth = g.independent_set_count();
        let t0 = Instant::now();
        let (rec, _) = reduction_rst::recover_is_count(&g, &reduction_rst::brute_force_oracle)
            .expect("reduction");
        let dt = t0.elapsed();
        t.row(&[
            format!("{l}x{r}, {} edges", g.edges().len()),
            truth.to_string(),
            rec.to_string(),
            if truth == rec { "✓" } else { "✗" }.to_string(),
            ms(dt),
        ]);
    }
    print!("{t}");
}

fn e11() {
    let oracle = BruteForceCounter::default();
    let mut base = Database::new();
    base.add_relation("S", 2).expect("fresh");
    base.add_endo("R", &["a0"]).expect("fresh");
    base.add_endo("R", &["a1"]).expect("fresh");
    base.add_endo("T", &["b0"]).expect("fresh");
    base.add_endo("T", &["b1"]).expect("fresh");
    for (a, b) in [("a0", "b0"), ("a0", "b1"), ("a1", "b1")] {
        base.add_exo("S", &[a, b]).expect("fresh");
    }
    let targets = [
        "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
        "q() :- Farmer(m), Export(m, p, c), !Grows(c, p)",
        "q() :- A(x), B(x, y, z), C(y), D(z, w)",
        "q() :- !A(x), P(x), B(x, y), !C(y), Q(y)",
        "q() :- A(x), !B(x, y), C(y)",
    ];
    let mut t = Table::new(&["target query", "base", "facts checked", "Shapley preserved"]);
    for text in targets {
        let q = parse_cq(text).expect("parses");
        let emb = embed::embed_triplet(&q, &base).expect("embeds");
        let mut ok = true;
        for (&bf, &ef) in &emb.fact_map {
            let a = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).expect("ok");
            let b = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).expect("ok");
            ok &= a == b;
        }
        t.row(&[
            text.to_string(),
            emb.base.name().to_string(),
            emb.fact_map.len().to_string(),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");

    // Path version (Theorem 4.3 hardness side).
    let q = queries::section_4_1_hard();
    let exo: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
    let emb = embed::embed_path(&q, &exo, &base, 1_000_000).expect("embeds");
    let mut ok = true;
    for (&bf, &ef) in &emb.fact_map {
        let a = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).expect("ok");
        let b = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).expect("ok");
        ok &= a == b;
    }
    println!(
        "\npath embedding into {q} (X = {{S,P}}): base {}, {} facts, preserved: {}",
        emb.base.name(),
        emb.fact_map.len(),
        if ok { "✓" } else { "✗" }
    );
}

fn e12() {
    let q = queries::citations();
    println!("query: {q} with deterministic Pub, Citations\n");
    let mut t = Table::new(&[
        "authors",
        "Pr (lifted+rewrite)",
        "Pr (enumeration)",
        "time (lifted)",
    ]);
    // Every endogenous fact present with probability `p`: the session
    // routes the query through the ExoShap rewriting (Theorem 4.10).
    let probability = |db: &Database, p: (i64, i64)| {
        let options = ShapleyOptions::auto().tuple_budget(10_000_000);
        let mut session =
            ShapleySession::prepare(db, AnyQuery::Cq(&q), &options).expect("rewritable");
        assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
        session
            .set_default_probability(BigRational::from_i64_ratio(p.0, p.1))
            .expect("a probability");
        let pr = session.probability().expect("rewritable");
        (pr, session)
    };
    for authors in [6usize, 10, 14] {
        let adb = AcademicConfig {
            authors,
            seed: 77,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let (fast, session) = probability(&adb, (7, 20));
        let dt = t0.elapsed();
        let slow = cqshap_core::probability_by_enumeration(
            &adb,
            AnyQuery::Cq(&q),
            session.probabilities(),
            None,
            20,
        )
        .expect("small");
        assert_eq!(fast, slow);
        t.row(&[
            authors.to_string(),
            format!("{:.6}", fast.to_f64()),
            format!("{:.6}", slow.to_f64()),
            ms(dt),
        ]);
    }
    print!("{t}");
    let mut t2 = Table::new(&["authors", "Pr (lifted+rewrite)", "time"]);
    for authors in [50usize, 100, 200] {
        let adb = AcademicConfig {
            authors,
            cited_fraction: 0.2,
            seed: 77,
            ..Default::default()
        }
        .generate();
        let t0 = Instant::now();
        let (fast, _) = probability(&adb, (1, 20));
        t2.row(&[
            authors.to_string(),
            format!("{:.6}", fast.to_f64()),
            ms(t0.elapsed()),
        ]);
    }
    println!("\nscaling beyond enumeration reach (2^|Dn| worlds):");
    print!("{t2}");
}

fn e13() {
    let db = ExportsConfig {
        farmers: 4,
        products: 3,
        countries: 3,
        exports: 7,
        seed: 11,
        ..Default::default()
    }
    .generate();
    let q = cqshap_workloads::exports::exports_count_query();
    let agg = AggregateFunction::Count;
    let full = aggregate_value(&db, &World::full(&db), &q, &agg).expect("evaluates");
    let empty = aggregate_value(&db, &World::empty(&db), &q, &agg).expect("evaluates");
    println!("Count{{c | Farmer(m), Export(m,p,c), ¬Grows(c,p)}}: D → {full}, Dx → {empty}\n");
    let mut t = Table::new(&["fact", "aggregate Shapley value", "sign as predicted"]);
    let session = ShapleySession::prepare_aggregate(&db, &q, agg.clone(), &opts()).expect("small");
    let mut total = BigRational::zero();
    for &f in db.endo_facts() {
        let v = session.value(f).expect("small");
        let rel = db.schema().name(db.fact(f).rel).to_string();
        let sign_ok = match rel.as_str() {
            "Farmer" => !v.is_negative(),
            "Grows" => !v.is_positive(),
            _ => false,
        };
        total += &v;
        t.row(&[
            db.render_fact(f),
            v.to_string(),
            if sign_ok { "✓" } else { "✗" }.to_string(),
        ]);
    }
    print!("{t}");
    println!(
        "\nefficiency: Σ = {total} equals count(D) − count(Dx) = {} → {}",
        &full - &empty,
        if total == &full - &empty {
            "holds"
        } else {
            "VIOLATED"
        }
    );
}

fn e14() {
    let db = Database::parse("endo R(1, 2)\nendo R(2, 1)\n").expect("parses");
    let q = queries::example_5_3();
    println!("query: {q} over {{R(1,2), R(2,1)}} (both endogenous)\n");
    let mut t = Table::new(&["fact", "pos. relevant", "neg. relevant", "Shapley"]);
    for &f in db.endo_facts() {
        let (pos, neg) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).expect("small");
        let v = shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).expect("small");
        t.row(&[
            db.render_fact(f),
            pos.to_string(),
            neg.to_string(),
            v.to_string(),
        ]);
        assert!(pos && neg && v.is_zero());
    }
    print!("{t}");
    println!("\n(relevance does not imply a nonzero value once a relation is polarity-mixed)");
}
