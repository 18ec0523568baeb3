//! End-to-end smoke tests for the `cqshap` binary: spawn the real
//! executable against a Figure-1 database file on disk and check the
//! paper's numbers come out of stdout.

use std::path::PathBuf;
use std::process::{Command, Output};

use cqshap::prelude::*;
use cqshap::workloads::report_benchmark_db;

/// The database of Figure 1 in the on-disk line format of `cqshap-db`.
const FIGURE_1: &str = "\
# Figure 1 of the paper.
exo Stud(Adam)
exo Stud(Ben)
exo Stud(Caroline)
exo Stud(David)
endo TA(Adam)
endo TA(Ben)
endo TA(David)
exo Course(OS, EE)
exo Course(IC, EE)
exo Course(DB, CS)
exo Course(AI, CS)
endo Reg(Adam, OS)
endo Reg(Adam, AI)
endo Reg(Ben, OS)
endo Reg(Caroline, DB)
endo Reg(Caroline, IC)
exo Adv(Michael, Adam)
exo Adv(Michael, Ben)
exo Adv(Naomi, Caroline)
exo Adv(Michael, David)
";

const Q1: &str = "q1() :- Stud(x), !TA(x), Reg(x, y)";

/// A Figure-1 database file in a temp directory, removed on drop (also
/// during unwinding, so failed assertions don't leak directories).
struct TempDb {
    dir: PathBuf,
    path: PathBuf,
}

impl TempDb {
    fn path(&self) -> &str {
        self.path.to_str().unwrap()
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes `text` to a fresh temp database file and returns its path.
fn temp_db_file(tag: &str, text: &str) -> TempDb {
    let dir = std::env::temp_dir().join(format!("cqshap-cli-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("input.db");
    std::fs::write(&path, text).expect("write database file");
    TempDb { dir, path }
}

/// Writes the Figure-1 database to a fresh temp file and returns its path.
fn figure_1_file(tag: &str) -> TempDb {
    temp_db_file(tag, FIGURE_1)
}

fn cqshap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqshap"))
        .args(args)
        .output()
        .expect("spawn cqshap")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "cqshap failed: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn classify_reports_the_dichotomy() {
    let out = stdout_of(&cqshap(&["classify", Q1]));
    assert!(out.contains("hierarchical: true"), "stdout: {out}");
    assert!(out.contains("PTIME"), "stdout: {out}");

    // q2 of the paper is non-hierarchical: hard without exogenous help...
    let q2 = "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')";
    let out = stdout_of(&cqshap(&["classify", q2]));
    assert!(out.contains("hierarchical: false"), "stdout: {out}");
    assert!(out.contains("FP#P-complete"), "stdout: {out}");

    // ...and tractable once Stud and Course are declared exogenous
    // (Theorem 4.3).
    let out = stdout_of(&cqshap(&["classify", q2, "--exo", "Stud,Course"]));
    assert!(out.contains("Thm 4.3"), "stdout: {out}");
    assert!(out.contains("PTIME"), "stdout: {out}");
}

#[test]
fn shapley_single_fact_matches_example_2_3() {
    let db = figure_1_file("single");
    let out = stdout_of(&cqshap(&["shapley", db.path(), Q1, "--fact", "TA(Adam)"]));
    assert!(out.contains("-3/28"), "stdout: {out}");
}

#[test]
fn shapley_report_covers_every_fact_and_efficiency() {
    let db = figure_1_file("report");
    let out = stdout_of(&cqshap(&["shapley", db.path(), Q1]));
    // All five Example 2.3 values appear (two facts share 37/210 and two
    // share 13/42), and the efficiency check passes with Σ = 1.
    for value in ["-3/28", "-2/35", "37/210", "27/140", "13/42"] {
        assert!(out.contains(value), "missing {value} in stdout: {out}");
    }
    assert!(out.contains("efficiency holds"), "stdout: {out}");
}

#[test]
fn report_command_prints_values_and_timing() {
    let db = figure_1_file("batched-report");
    let out = stdout_of(&cqshap(&["report", db.path(), Q1]));
    for value in ["-3/28", "-2/35", "37/210", "27/140", "13/42"] {
        assert!(out.contains(value), "missing {value} in stdout: {out}");
    }
    assert!(out.contains("efficiency holds"), "stdout: {out}");
    assert!(out.contains("8 facts in"), "stdout: {out}");

    // A db whose 16 root groups are isomorphic, so values repeat: every
    // printed entry line equals the in-process report's entry.
    let uniform = report_benchmark_db(64);
    let file = temp_db_file("batched-report-uniform", &uniform.to_string());
    let out = stdout_of(&cqshap(&["report", file.path(), Q1]));
    let q = parse_cq(Q1).unwrap();
    let session = ShapleySession::prepare(&uniform, AnyQuery::Cq(&q), &ShapleyOptions::auto())
        .expect("q1 is hierarchical");
    let report = session.report().expect("exact report");
    let want: Vec<String> = report
        .entries
        .iter()
        .map(|e| {
            format!(
                "{:<32} {:>16} ≈ {:+.6}",
                e.rendered,
                e.value.to_string(),
                e.value.to_f64()
            )
        })
        .collect();
    let printed: Vec<&str> = out.lines().take(want.len()).collect();
    assert_eq!(printed, want, "stdout: {out}");
    assert!(out.contains("64 facts in"), "stdout: {out}");
}

/// A full stdout is an error the CLI reports, not a panic.
#[cfg(target_os = "linux")]
#[test]
fn full_stdout_is_an_error_not_a_panic() {
    let db = figure_1_file("dev-full");
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_cqshap"))
        .args(["report", db.path(), Q1])
        .stdout(full)
        .output()
        .expect("spawn cqshap");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("error: writing output:"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn report_command_accepts_unions() {
    let db = figure_1_file("union-report");
    // q1 unioned with a rule over relations absent from the database:
    // the union's values equal q1's own (the second disjunct never
    // fires), and they come out of the inclusion–exclusion engine.
    let union = "q1() :- Stud(x), !TA(x), Reg(x, y); q2() :- Lab(l), Asst(l, s), !Closed(l)";
    let out = stdout_of(&cqshap(&["report", db.path(), union]));
    for value in ["-3/28", "-2/35", "37/210", "27/140", "13/42"] {
        assert!(out.contains(value), "missing {value} in stdout: {out}");
    }
    assert!(out.contains("efficiency holds"), "stdout: {out}");
}

#[test]
fn report_command_accepts_aggregates() {
    let db = figure_1_file("agg-report");
    // Count{y | Stud(x), !TA(x), Reg(x, y)}: per-course counting. The
    // efficiency total is agg(D) − agg(Dx) = 4 − 0.
    let q = "qc(y) :- Stud(x), !TA(x), Reg(x, y)";
    let out = stdout_of(&cqshap(&["report", db.path(), q, "--agg", "count"]));
    assert!(out.contains("efficiency holds"), "stdout: {out}");
    assert!(out.contains("8 facts in"), "stdout: {out}");

    let out = cqshap(&["report", db.path(), q, "--agg", "avg"]);
    assert!(!out.status.success());
}

#[test]
fn shapley_strategies_agree() {
    let db = figure_1_file("strategies");
    for strategy in ["auto", "hierarchical", "brute", "permutations"] {
        let out = stdout_of(&cqshap(&[
            "shapley",
            db.path(),
            Q1,
            "--fact",
            "Reg(Caroline, DB)",
            "--strategy",
            strategy,
        ]));
        assert!(out.contains("13/42"), "strategy {strategy}: {out}");
    }
}

#[test]
fn bad_inputs_fail_with_nonzero_exit() {
    let out = cqshap(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");

    let db = figure_1_file("bad");
    let out = cqshap(&["shapley", db.path(), "not a query"]);
    assert!(!out.status.success());

    let out = cqshap(&["shapley", "/nonexistent/file.db", Q1]);
    assert!(!out.status.success());
}

/// The exact rational `cqshap prob` printed after `label = `.
fn printed_value(out: &str, label: &str) -> BigRational {
    let rest = out
        .split_once(&format!("{label} = "))
        .unwrap_or_else(|| panic!("no `{label} = ` in stdout: {out}"))
        .1;
    let (value, _) = rest
        .split_once(" ≈")
        .unwrap_or_else(|| panic!("no approximation after the value in stdout: {out}"));
    value.parse().expect("an exact rational")
}

/// `Pr[q]` by world enumeration at a uniform probability `p`.
fn enumerated(
    db: &Database,
    q: AnyQuery<'_>,
    p: BigRational,
    forced: Option<(FactId, bool)>,
) -> BigRational {
    probability_by_enumeration(db, q, &FactProbabilities::uniform(p), forced, 16).unwrap()
}

#[test]
fn prob_prints_the_exact_probability_of_a_cq() {
    let file = figure_1_file("prob-cq");
    let db = Database::parse(FIGURE_1).unwrap();
    let q1 = parse_cq(Q1).unwrap();
    for (arg, p) in [("0.5", (1, 2)), ("0.25", (1, 4)), ("0.3", (3, 10))] {
        let out = stdout_of(&cqshap(&["prob", file.path(), Q1, "--default-p", arg]));
        let p = BigRational::from_i64_ratio(p.0, p.1);
        assert_eq!(
            printed_value(&out, "Pr[D ⊨ q]"),
            enumerated(&db, AnyQuery::Cq(&q1), p, None),
            "p = {arg}: {out}"
        );
    }
}

#[test]
fn prob_answers_an_exoshap_cq() {
    // Not hierarchical, but R is exogenous: the session rewrites.
    let text = "exorel R\nexo R(a)\nexo R(b)\n\
                endo S(a, c)\nendo S(b, c)\nendo S(b, d)\nendo T(c)\nendo T(d)\n";
    let file = temp_db_file("prob-exoshap", text);
    let db = Database::parse(text).unwrap();
    let query = "q() :- R(x), S(x, y), T(y)";
    let q = parse_cq(query).unwrap();
    let session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
    assert_eq!(session.strategy(), Some(ResolvedStrategy::ExoShap));
    let out = stdout_of(&cqshap(&["prob", file.path(), query]));
    assert_eq!(
        printed_value(&out, "Pr[D ⊨ q]"),
        enumerated(
            &db,
            AnyQuery::Cq(&q),
            BigRational::from_i64_ratio(1, 2),
            None
        ),
        "{out}"
    );
}

#[test]
fn prob_answers_a_ucq() {
    let file = figure_1_file("prob-ucq");
    let db = Database::parse(FIGURE_1).unwrap();
    let query = "q1() :- Stud(x), !TA(x), Reg(x, y); q2() :- Adv(p, s), TA(s)";
    let u = parse_ucq(query).unwrap();
    let out = stdout_of(&cqshap(&[
        "prob",
        file.path(),
        query,
        "--default-p",
        "0.25",
    ]));
    assert_eq!(
        printed_value(&out, "Pr[D ⊨ q]"),
        enumerated(
            &db,
            AnyQuery::Union(&u),
            BigRational::from_i64_ratio(1, 4),
            None
        ),
        "{out}"
    );
}

#[test]
fn prob_fact_prints_the_expected_marginal() {
    let file = figure_1_file("prob-fact");
    let db = Database::parse(FIGURE_1).unwrap();
    let q1 = parse_cq(Q1).unwrap();
    let out = stdout_of(&cqshap(&["prob", file.path(), Q1, "--fact", "TA(Adam)"]));
    let f = db.find_fact("TA", &["Adam"]).unwrap();
    let half = || BigRational::from_i64_ratio(1, 2);
    let want = enumerated(&db, AnyQuery::Cq(&q1), half(), Some((f, true)))
        - enumerated(&db, AnyQuery::Cq(&q1), half(), Some((f, false)));
    assert_eq!(
        printed_value(&out, "E[marginal of TA(Adam)]"),
        want,
        "{out}"
    );
}
