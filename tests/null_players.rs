//! Null players cost nothing and change nothing.
//!
//! Facts of a relation the query never mentions ("free") and facts
//! whose root value lacks positive support ("junk") are null players:
//! by Shapley's null-player axiom, adding or removing them leaves every
//! other fact's value unchanged, and their own value is exactly 0. The
//! compiled engines leave them out of every cached polynomial and
//! contract each term over its own non-null players, so these tests pin
//! the three things that must still hold:
//!
//! * on random CQ¬, UCQ¬ and ExoShap instances, inserting free and junk
//!   facts keeps every other value bit-identical and gives the new
//!   facts exactly 0;
//! * a session's `Pr[q]` at probability 1/2, which counts every
//!   satisfying coalition null players included, equals the
//!   hierarchical counter's totals over `2^m`, and each value equals
//!   the reduction over the per-fact counting oracle;
//! * that stays true after random flip / insert / retract sequences
//!   that create and remove free and junk facts.
//!
//! The compiled engine's own full-database counts and masked count
//! pairs, which multiply the null players' binomial row back in, are
//! pinned against the same oracles by a unit test of `cqshap-core`'s
//! `compiled` module.

mod common;

use std::collections::HashMap;

use common::{replay, Update};
use cqshap::core::count_sat_hierarchical;
use cqshap::prelude::Strategy;
use cqshap::prelude::*;
use proptest::prelude::*;

const Q1: &str = "q1() :- Stud(x), !TA(x), Reg(x, y)";
const Q2: &str = "q2() :- Lab(l), Asst(l, s), !Closed(l)";
const Q_EXO: &str = "qe() :- R(x), S(x, y), T(y)";

fn hash(seed: u64, k: u64) -> u64 {
    (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(29)
}

fn provenance(h: u64) -> Provenance {
    if h.is_multiple_of(3) {
        Provenance::Exogenous
    } else {
        Provenance::Endogenous
    }
}

/// Students with an endogenous, exogenous or absent `TA` fact and 1–3
/// `Reg` facts, plus labs with 1–2 `Asst` facts and an optional
/// endogenous `Closed` fact: every root value of `Q1` and `Q2` has full
/// positive support. The query relations and the free relation `Note`
/// are declared up front, so no later insert changes how a query
/// resolves.
fn university(seed: u64, students: u64, labs: u64) -> Database {
    let mut db = Database::new();
    for (rel, arity) in [("TA", 1), ("Closed", 1), ("Note", 1)] {
        db.add_relation(rel, arity).unwrap();
    }
    for s in 0..students {
        let name = format!("s{s}");
        let h = hash(seed, s);
        db.add_exo("Stud", &[&name]).unwrap();
        if !h.is_multiple_of(4) {
            db.insert("TA", &[&name], provenance(h >> 2)).unwrap();
        }
        for r in 0..1 + (h >> 8) % 3 {
            let course = format!("c{}", (h >> (12 + r)) % 5);
            if db.find_fact("Reg", &[&name, &course]).is_none() {
                db.insert("Reg", &[&name, &course], provenance(h >> (20 + r)))
                    .unwrap();
            }
        }
    }
    for l in 0..labs {
        let name = format!("l{l}");
        let h = hash(seed, 1000 + l);
        db.add_exo("Lab", &[&name]).unwrap();
        for a in 0..1 + (h >> 4) % 2 {
            db.insert("Asst", &[&name, &format!("a{a}")], provenance(h >> (8 + a)))
                .unwrap();
        }
        if h.is_multiple_of(2) {
            db.add_endo("Closed", &[&name]).unwrap();
        }
    }
    db
}

/// `exorel R`, so `Q_EXO` (not hierarchical) is answered by the
/// ExoShap rewriting: `R(a_i)` exogenous for a few `i`, endogenous
/// `S(a_i, b_j)` edges and `T(b_j)` facts.
fn exo_instance(seed: u64) -> Database {
    let mut text = String::from("exorel R\n");
    for i in 0..3 {
        text.push_str(&format!("exo R(a{i})\n"));
        for j in 0..3 {
            if !hash(seed, 10 * i + j).is_multiple_of(3) {
                text.push_str(&format!("endo S(a{i}, b{j})\n"));
            }
        }
    }
    let mut db = Database::parse(&text).unwrap();
    db.add_relation("Note", 1).unwrap();
    for j in 0..3 {
        db.insert("T", &[&format!("b{j}")], provenance(hash(seed, 100 + j)))
            .unwrap();
    }
    db
}

/// Every endogenous fact's value, keyed by its rendering.
fn values(db: &Database, q: AnyQuery<'_>, strategy: Strategy) -> HashMap<String, BigRational> {
    let session = ShapleySession::prepare(db, q, &ShapleyOptions::with_strategy(strategy))
        .unwrap_or_else(|e| panic!("{e} over\n{db}"));
    let report = session.report().unwrap();
    assert!(report.efficiency_holds(), "efficiency over\n{db}");
    report
        .entries
        .iter()
        .map(|e| (e.rendered.clone(), e.value.clone()))
        .collect()
}

/// `base` plus the null facts `nulls` (relation, args), each inserted
/// with a provenance drawn from `seed`: the other facts' values must
/// not move, and every inserted endogenous fact must get exactly 0.
fn assert_nulls_change_nothing(
    base: &Database,
    q: AnyQuery<'_>,
    strategy: Strategy,
    nulls: &[(&str, Vec<String>)],
    seed: u64,
) {
    let before = values(base, q, strategy);
    let mut db = base.clone();
    let mut added = Vec::new();
    for (i, (rel, args)) in nulls.iter().enumerate() {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let p = if i == 0 {
            Provenance::Endogenous
        } else {
            provenance(hash(seed, 500 + i as u64))
        };
        added.push(db.insert(rel, &args, p).unwrap());
    }
    let after = values(&db, q, strategy);
    for (fact, value) in &before {
        assert_eq!(after.get(fact), Some(value), "{fact} moved for {q:?}");
    }
    for &f in &added {
        if db.fact(f).provenance.is_endogenous() {
            let fact = db.render_fact(f);
            assert_eq!(
                after.get(&fact),
                Some(&BigRational::zero()),
                "{fact} for {q:?}"
            );
        }
    }
    assert_eq!(after.len(), db.endo_count());
}

fn args(values: &[&str]) -> Vec<String> {
    values.iter().map(|s| s.to_string()).collect()
}

/// The null facts of `Q1`/`Q2` over a university: free `Note` facts,
/// junk `TA`/`Reg` facts of a student without a `Stud` fact, and a junk
/// `Closed` fact of a lab without a `Lab` fact.
fn university_nulls(seed: u64) -> Vec<(&'static str, Vec<String>)> {
    let mut nulls = vec![
        ("Note", args(&["n0"])),
        ("TA", args(&["ghost"])),
        ("Reg", args(&["ghost", "c0"])),
        ("Closed", args(&["no_lab"])),
    ];
    for i in 1..1 + hash(seed, 7) % 3 {
        nulls.push(("Note", vec![format!("n{i}")]));
    }
    nulls
}

/// Maintained session ≡ fresh prepare ≡ the counting oracles: `Pr[q]`
/// at probability 1/2 against the hierarchical counter's totals over
/// `2^m`, each value against the reduction over the per-fact masked
/// counts, and each fact of `zero` valued exactly 0.
fn assert_counts_match_oracles(
    session: &mut ShapleySession,
    q: &ConjunctiveQuery,
    zero: &[FactId],
) {
    let db = session.database().clone();
    let totals = count_sat_hierarchical(&db, q).unwrap();
    let satisfying = totals
        .into_iter()
        .fold(BigRational::zero(), |acc, c| acc + BigRational::from(c));
    let worlds = (0..db.endo_count()).fold(BigRational::one(), |acc, _| {
        acc * BigRational::from_i64_ratio(2, 1)
    });
    assert_eq!(
        session.probability().unwrap(),
        satisfying / worlds,
        "totals for {q} over\n{db}"
    );
    let fresh = ShapleySession::prepare(&db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
    let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
    assert!(a.efficiency_holds(), "efficiency for {q} over\n{db}");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        let fact = &x.rendered;
        let want = shapley_via_counts(&db, AnyQuery::Cq(q), x.fact, &HierarchicalCounter).unwrap();
        assert_eq!(x.value, want, "{fact} for {q}");
        assert_eq!(x.value, y.value, "fresh {fact} for {q}");
    }
    for &f in zero {
        if db.endo_index(f).is_some() {
            let fact = db.render_fact(f);
            assert_eq!(
                a.entry(f).unwrap().value,
                BigRational::zero(),
                "null {fact} for {q}"
            );
        }
    }
}

/// One update that creates, flips or removes a free or junk fact, or
/// moves a non-null `Reg` fact, drawn from `h`. Returns the change.
fn null_step(db: &mut Database, nulls: &mut Vec<FactId>, h: u64, step: u64) -> Update {
    let p = provenance(h >> 16);
    match h % 6 {
        0 => {
            let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
            nulls.push(f);
            Update::Inserted(f)
        }
        1 => {
            let f = db.insert("TA", &[&format!("g{step}")], p).unwrap();
            nulls.push(f);
            Update::Inserted(f)
        }
        2 => {
            let ghost = format!("g{step}");
            let f = db.insert("Reg", &[&ghost, "c0"], p).unwrap();
            nulls.push(f);
            Update::Inserted(f)
        }
        3 if !nulls.is_empty() => {
            let f = nulls.swap_remove((h >> 8) as usize % nulls.len());
            db.retract_fact(f).unwrap();
            Update::Retracted(f)
        }
        4 if !nulls.is_empty() => {
            let f = nulls[(h >> 8) as usize % nulls.len()];
            let to = if db.fact(f).provenance.is_endogenous() {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(f, to).unwrap();
            Update::Flipped(f)
        }
        _ => {
            // Flip a `Reg` fact of a supported student: the non-null
            // player count moves while the null count stays.
            let regs: Vec<FactId> = db
                .endo_facts()
                .iter()
                .copied()
                .filter(|&f| {
                    let text = db.render_fact(f);
                    text.starts_with("Reg(s")
                })
                .collect();
            match regs.get((h >> 8) as usize % regs.len().max(1)) {
                Some(&f) => {
                    db.set_fact_provenance(f, Provenance::Exogenous).unwrap();
                    Update::Flipped(f)
                }
                None => {
                    let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
                    nulls.push(f);
                    Update::Inserted(f)
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Free and junk facts leave every other value of a CQ¬, a UCQ¬
    /// and an ExoShap CQ¬ bit-identical, and get exactly 0 themselves.
    #[test]
    fn null_players_change_no_value(
        seed in 0u64..1_000_000,
        students in 1u64..5,
        labs in 1u64..3,
    ) {
        let db = university(seed, students, labs);
        let nulls = university_nulls(seed);
        let q1 = parse_cq(Q1).unwrap();
        assert_nulls_change_nothing(&db, AnyQuery::Cq(&q1), Strategy::Hierarchical, &nulls, seed);
        let u = parse_ucq(&format!("{Q1}\n{Q2}\n")).unwrap();
        assert_nulls_change_nothing(&db, AnyQuery::Union(&u), Strategy::Auto, &nulls, seed);

        let exo = exo_instance(seed);
        let qe = parse_cq(Q_EXO).unwrap();
        // Junk for the rewriting: an `S` edge out of a value without an
        // `R` fact, and a `T` fact no `S` edge reaches.
        let exo_nulls = vec![
            ("Note", args(&["n0"])),
            ("S", args(&["no_r", "b0"])),
            ("T", args(&["unreached"])),
        ];
        assert_nulls_change_nothing(&exo, AnyQuery::Cq(&qe), Strategy::ExoShap, &exo_nulls, seed);
    }

    /// The full-database counts (through `Pr[q]` at 1/2) and the values
    /// equal the counting oracles on fresh sessions and after update
    /// sequences that create and remove free and junk facts, for a one-,
    /// two- and three-component query.
    #[test]
    fn counts_with_null_players_match_the_oracles(
        seed in 0u64..1_000_000,
        students in 1u64..4,
        steps in 1u64..7,
    ) {
        for text in [
            Q1,
            "q() :- Stud(x), !TA(x), Reg(x, y), Lab(l), Asst(l, s), !Closed(l)",
            "q() :- Reg(x, y), Lab(l), !Closed(l), Note('n0')",
        ] {
            let q = parse_cq(text).unwrap();
            let mut db = university(seed, students, 2);
            let mut nulls = Vec::new();
            for (rel, a) in university_nulls(seed) {
                let a: Vec<&str> = a.iter().map(String::as_str).collect();
                nulls.push(db.add_endo(rel, &a).unwrap());
            }
            let mut session = ShapleySession::prepare(&db, AnyQuery::Cq(&q), &ShapleyOptions::auto()).unwrap();
            session.set_default_probability(BigRational::from_i64_ratio(1, 2)).unwrap();
            // Free (`Note`, `Closed`) and junk (`TA`/`Reg` of a student
            // without `Stud`) facts alike are null players of `Q1`.
            let zero = |nulls: &[FactId]| if text == Q1 { nulls.to_vec() } else { Vec::new() };
            assert_counts_match_oracles(&mut session, &q, &zero(&nulls));
            for step in 0..steps {
                let mut next = session.database().clone();
                let change = null_step(&mut next, &mut nulls, hash(seed, 200 + step), step);
                replay(&mut session, &next, change).unwrap();
                assert_counts_match_oracles(&mut session, &q, &zero(&nulls));
            }
        }
    }
}
