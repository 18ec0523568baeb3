//! Property pinning of the compiled engine's on-demand Shapley
//! numerators.
//!
//! `CompiledCount` contracts each fact's masked difference vector with
//! its weight class's environment when a report asks for it, once per
//! `(component, weight class, difference)`. These tests drive that path
//! on skewed databases built to exercise every branch of it:
//!
//! * five pinned students with 1–5 `Reg` facts and an endogenous `TA`
//!   give five distinct root-group shapes, hence at least five weight
//!   classes, next to randomly shaped students;
//! * exogenous `TA` facts make whole root groups unsatisfiable, so
//!   their facts have zero difference vectors;
//! * `Lab(z)` is a disconnected atom, so the `Stud` component's own
//!   environment is not the unit, and `Flag('on')` is a ground
//!   component;
//! * `Closed` and `Other` facts lie outside the CQ¬'s scopes (free
//!   facts), and the union query adds `!Closed(z)`.
//!
//! Reports must equal the per-fact reference paths bit for bit, and a
//! session maintained across random flip / insert / retract sequences
//! must equal a fresh prepare after every step. The engine-level
//! version of the maintenance check (totals and values of the compiled
//! engine itself) is a unit test of `cqshap-core`'s `compiled` module.

mod common;

use common::{replay, Update};
use cqshap::core::reference::shapley_report_per_fact;
use cqshap::prelude::*;
use proptest::prelude::*;

const CQ: &str = "q() :- Stud(x), !TA(x), Reg(x, y), Lab(z), Flag('on')";
const UNION: &str = "q1() :- Stud(x), !TA(x), Reg(x, y), Flag('on'); q2() :- Lab(z), !Closed(z)";

/// SplitMix64 over `(seed, k)`: the test's only randomness.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn skewed_db(seed: u64, extra_students: usize) -> Database {
    let mut db = Database::new();
    for s in 0..5 + extra_students {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).unwrap();
        let r = mix(seed, s as u64);
        // Students 0..5 are pinned: Reg counts 1..=5, endogenous TA.
        let (regs, ta) = if s < 5 {
            (s + 1, 0)
        } else {
            (1 + (r % 4) as usize, (r >> 8) % 3)
        };
        match ta {
            0 => {
                db.add_endo("TA", &[&name]).unwrap();
            }
            1 => {
                db.add_exo("TA", &[&name]).unwrap();
            }
            _ => {}
        }
        for c in 0..regs {
            let course = format!("c{}", (s + c) % 7);
            db.add_endo("Reg", &[&name, &course]).unwrap();
        }
    }
    for l in 0..2 + (seed % 2) as usize {
        let lab = format!("l{l}");
        db.add_endo("Lab", &[&lab]).unwrap();
        if l % 2 == 0 {
            db.add_endo("Closed", &[&lab]).unwrap();
        }
    }
    db.add_endo("Flag", &["on"]).unwrap();
    db.add_endo("Other", &["o"]).unwrap();
    db
}

fn assert_reports_equal(got: &ShapleyReport, want: &ShapleyReport, what: &str, db: &Database) {
    assert!(got.efficiency_holds(), "efficiency of {what} on\n{db}");
    for &f in db.endo_facts() {
        assert_eq!(
            got.entry(f).unwrap().value,
            want.entry(f).unwrap().value,
            "{} under {what} on\n{db}",
            db.render_fact(f)
        );
    }
}

/// One deterministic update derived from `(seed, step)`: flip a live
/// fact's provenance, insert a fresh fact, or retract a live fact.
/// Returns `None` when the database rejects the drawn change.
fn apply_update(db: &mut Database, seed: u64, step: u64) -> Option<Update> {
    let r = mix(seed ^ 0xC0FF_EE00, step);
    let live: Vec<FactId> = (0..db.fact_count() as u32)
        .map(FactId)
        .filter(|&f| !db.is_retracted(f))
        .collect();
    let pick = live[(r >> 8) as usize % live.len()];
    match r % 3 {
        0 => {
            let to = if db.fact(pick).provenance == Provenance::Endogenous {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(pick, to).ok()?;
            Some(Update::Flipped(pick))
        }
        1 => {
            let student = format!("s{}", (r >> 16) % 9);
            let f = match (r >> 24) % 3 {
                0 => db.add_endo("Reg", &[&student, &format!("c{}", (r >> 32) % 9)]),
                1 => db.add_endo("TA", &[&student]),
                _ => db.add_endo("Lab", &[&format!("l{}", (r >> 32) % 4)]),
            }
            .ok()?;
            Some(Update::Inserted(f))
        }
        _ => {
            db.retract_fact(pick).ok()?;
            Some(Update::Retracted(pick))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The compiled CQ¬ report equals the seed per-fact path.
    #[test]
    fn cq_report_matches_per_fact_reference(seed in 0u64..10_000, extra in 0usize..5) {
        let db = skewed_db(seed, extra);
        let q = parse_cq(CQ).unwrap();
        let opts = ShapleyOptions::auto().threads(2);
        let batched = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap().report().unwrap();
        let reference = shapley_report_per_fact(&db, AnyQuery::Cq(&q), &opts).unwrap();
        assert_reports_equal(&batched, &reference, CQ, &db);
    }

    /// The compiled union report (inclusion–exclusion over compiled
    /// conjunctions) equals the per-fact union path.
    #[test]
    fn union_report_matches_per_fact_reference(seed in 0u64..10_000, extra in 0usize..5) {
        let db = skewed_db(seed, extra);
        let u = parse_ucq(UNION).unwrap();
        let opts = ShapleyOptions::auto().threads(2);
        let batched = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap().report().unwrap();
        let reference = shapley_report_per_fact(&db, AnyQuery::Union(&u), &opts).unwrap();
        assert_reports_equal(&batched, &reference, UNION, &db);
    }

    /// A maintained CQ¬ session equals a freshly prepared one after every
    /// step of a random flip / insert / retract sequence.
    #[test]
    fn maintained_engine_matches_fresh_compiles(seed in 0u64..10_000, extra in 0usize..5) {
        let db = skewed_db(seed, extra);
        let q = parse_cq(CQ).unwrap();
        let opts = ShapleyOptions::auto().threads(2);
        let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &opts).unwrap();
        for step in 0..8 {
            let mut next = session.database().clone();
            let Some(change) = apply_update(&mut next, seed, step) else {
                continue;
            };
            if replay(&mut session, &next, change).is_err() {
                continue;
            }
            let maintained = session.report().unwrap();
            let fresh = ShapleySession::prepare(session.database(), AnyQuery::Cq(&q), &opts)
                .unwrap()
                .report()
                .unwrap();
            assert_reports_equal(&maintained, &fresh, CQ, session.database());
        }
    }

    /// A maintained union session equals a freshly prepared one after
    /// every step of a random update sequence.
    #[test]
    fn maintained_union_session_matches_fresh_prepare(seed in 0u64..10_000) {
        let db = skewed_db(seed, 2);
        let u = parse_ucq(UNION).unwrap();
        let opts = ShapleyOptions::auto().threads(2);
        let mut session = ShapleySession::prepare(&db, AnyQuery::Union(&u), &opts).unwrap();
        for step in 0..6 {
            let mut next = session.database().clone();
            let applied = match apply_update(&mut next, seed, step) {
                Some(change) => replay(&mut session, &next, change).is_ok(),
                None => false,
            };
            if !applied {
                continue;
            }
            let maintained = session.report().unwrap();
            let fresh = ShapleySession::prepare(session.database(), AnyQuery::Union(&u), &opts)
                .unwrap()
                .report()
                .unwrap();
            assert_reports_equal(&maintained, &fresh, UNION, session.database());
        }
    }
}
