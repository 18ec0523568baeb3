//! The budget contract, end to end: one armed token bounds a whole
//! public call, and a call cut short by its budget returns
//! `DeadlineExceeded` — never a different error, never a value that
//! differs from the unbudgeted answer.

use cqshap::core::reference::shapley_report_union_per_fact;
use cqshap::obs;
use cqshap::prelude::*;

/// Four endogenous facts; the union routes anywhere the strategy says.
fn union_db() -> (Database, UnionQuery) {
    let db = Database::parse(
        "exo Stud(a)\nexo Stud(b)\n\
         endo TA(a)\nendo Reg(a, c1)\nendo Reg(b, c2)\n\
         endo T(t0)\n",
    )
    .unwrap();
    let u = parse_ucq("q1() :- Stud(x), !TA(x), Reg(x, y)\nq2() :- T(z)\n").unwrap();
    (db, u)
}

fn assert_brute_force_deadline<T: std::fmt::Debug>(got: Result<T, CoreError>, what: &str) {
    match got {
        Err(CoreError::DeadlineExceeded { phase, .. }) => {
            assert_eq!(phase, obs::phase::BRUTE_FORCE, "{what}");
        }
        other => panic!("{what}: expected a brute-force deadline, got {other:?}"),
    }
}

/// Brute force charges one work unit per enumeration, two per fact, so
/// a cap of 2 covers one fact of the four. A per-fact token would let
/// every fact finish; the call's one token must trip.
#[test]
fn union_brute_force_budget_bounds_the_whole_report() {
    let (db, u) = union_db();
    let brute = ShapleyOptions::with_strategy(Strategy::BruteForceSubsets).threads(1);
    let capped = brute.budget(Budget::work_units(2));

    let session = ShapleySession::prepare(&db, AnyQuery::Union(&u), &capped).unwrap();
    assert_brute_force_deadline(session.report(), "session report");
    let facts: Vec<FactId> = db.endo_facts().to_vec();
    assert_brute_force_deadline(session.values(&facts), "session values");
    assert_brute_force_deadline(
        shapley_report_union_per_fact(&db, &u, &capped),
        "per-fact reference report",
    );

    // Uncapped, the brute-force report is unchanged: it matches the
    // compiled and permutation routes bit for bit.
    let full = ShapleySession::prepare(&db, AnyQuery::Union(&u), &brute)
        .unwrap()
        .report()
        .unwrap();
    assert!(full.efficiency_holds());
    for strategy in [Strategy::Hierarchical, Strategy::BruteForcePermutations] {
        let other =
            shapley_report_union(&db, &u, &ShapleyOptions::with_strategy(strategy)).unwrap();
        for e in &full.entries {
            assert_eq!(
                e.value,
                other.entry(e.fact).unwrap().value,
                "{strategy:?} {}",
                e.rendered
            );
        }
    }
    let reference = shapley_report_union_per_fact(&db, &u, &brute).unwrap();
    for e in &full.entries {
        assert_eq!(e.value, reference.entry(e.fact).unwrap().value);
    }
}

/// Twenty students with one to four courses each: the rooted component
/// of `q1` has twenty nonzero group factors, so the compile's product
/// tree has internal nodes for a budget to trip in.
fn many_groups() -> Database {
    let mut db = Database::new();
    for s in 0..20 {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).unwrap();
        db.add_endo("TA", &[&name]).unwrap();
        for c in 0..=s % 4 {
            db.add_endo("Reg", &[&name, &format!("c{c}")]).unwrap();
        }
    }
    db.add_exo("Stud", &["fresh"]).unwrap();
    db
}

const Q1: &str = "q1() :- Stud(x), !TA(x), Reg(x, y)";

/// The outcome of one budgeted read: the value, or `None` for a
/// deadline. Any other error fails the test.
fn exact_or_deadline<T>(got: Result<T, CoreError>, what: &str) -> Option<T> {
    match got {
        Ok(v) => Some(v),
        Err(CoreError::DeadlineExceeded { .. }) => None,
        Err(other) => panic!("{what}: expected a value or a deadline, got {other:?}"),
    }
}

fn values(report: &ShapleyReport) -> Vec<(FactId, BigRational)> {
    report
        .entries
        .iter()
        .map(|e| (e.fact, e.value.clone()))
        .collect()
}

/// Unbudgeted report values and probability of `q` on `db`.
fn reference(db: &Database, q: &ConjunctiveQuery) -> (Vec<(FactId, BigRational)>, BigRational) {
    let mut s =
        ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::auto().threads(1)).unwrap();
    (values(&s.report().unwrap()), s.probability().unwrap())
}

/// Under every work cap of a strided sweep, `prepare`, `report` and
/// `probability` each return the unbudgeted answer bit for bit or a
/// deadline; so does the session after one insert into an existing
/// root group (incremental maintenance) and one that founds a new root
/// group (a recompile). A rejected insert leaves the session serving
/// the pre-update database and report.
#[test]
fn capped_calls_are_exact_or_deadline() {
    let db = many_groups();
    let q = parse_cq(Q1).unwrap();
    let want = reference(&db, &q);
    let inserts: [(&str, [&str; 2]); 2] = [("Reg", ["s3", "c9"]), ("Reg", ["fresh", "c0"])];
    let want_after: Vec<_> = inserts
        .iter()
        .map(|(rel, args)| {
            let mut updated = db.clone();
            updated.add_endo(rel, args).unwrap();
            reference(&updated, &q)
        })
        .collect();

    let mut all_exact_from = None;
    for cap in (0..4000u64).step_by(3) {
        let options = ShapleyOptions::auto()
            .threads(1)
            .budget(Budget::work_units(cap));
        let what = format!("cap {cap}");
        let Some(mut session) = exact_or_deadline(
            ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options),
            &what,
        ) else {
            continue;
        };
        let report = exact_or_deadline(session.report(), &what).map(|r| values(&r));
        if let Some(v) = &report {
            assert_eq!(v, &want.0, "{what}: report");
        }
        let p = exact_or_deadline(session.probability(), &what);
        if let Some(p) = &p {
            assert_eq!(p, &want.1, "{what}: probability");
        }

        for ((rel, args), after) in inserts.iter().zip(&want_after) {
            let what = format!("{what}, insert {rel}{args:?}");
            let mut s = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &options).unwrap();
            match s.insert_fact(rel, args, Provenance::Endogenous) {
                Ok(_) => {
                    if let Some(r) = exact_or_deadline(s.report(), &what) {
                        assert_eq!(values(&r), after.0, "{what}: maintained report");
                    }
                    if let Some(p) = exact_or_deadline(s.probability(), &what) {
                        assert_eq!(p, after.1, "{what}: maintained probability");
                    }
                }
                Err(CoreError::DeadlineExceeded { .. }) => {
                    assert_eq!(s.database().endo_count(), db.endo_count(), "{what}");
                    assert!(!s.is_poisoned(), "{what}: a rejected update poisons");
                    // The work is deterministic at one thread, so the
                    // restored session trips (or not) exactly where the
                    // fresh one did.
                    let again = exact_or_deadline(s.report(), &what).map(|r| values(&r));
                    assert_eq!(again, report, "{what}: pre-update report");
                }
                Err(other) => panic!("{what}: expected a value or a deadline, got {other:?}"),
            }
        }

        if report.is_some() && p.is_some() {
            all_exact_from = Some(cap);
            break;
        }
    }
    assert!(
        all_exact_from.is_some_and(|cap| cap > 0),
        "the sweep never reached an uncut run"
    );
}
