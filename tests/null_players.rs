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
//! * the full-database counts (`total_counts`) and the masked count
//!   pairs (`counts_pair`), which multiply the null players' binomial
//!   row back in, equal the hierarchical counter and the per-fact
//!   counting oracle;
//! * that stays true after random flip / insert / retract sequences
//!   that create and remove free and junk facts.

use std::collections::HashMap;

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

/// Maintained engine ≡ fresh compile ≡ the counting oracles: totals
/// against the hierarchical counter, each count pair against the
/// per-fact masked counts, and every null fact's value exactly 0.
fn assert_counts_match_oracles(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
    let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
    let want = count_sat_hierarchical(db, q).unwrap();
    assert_eq!(
        engine.total_counts(),
        &want[..],
        "totals for {q} over\n{db}"
    );
    assert_eq!(fresh.total_counts(), &want[..], "fresh totals for {q}");
    let oracle = HierarchicalCounter;
    for &f in db.endo_facts() {
        let masked = |mask| oracle.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
        let pair = (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f)));
        let fact = db.render_fact(f);
        assert_eq!(engine.counts_pair(db, f).unwrap(), pair, "{fact} for {q}");
        assert_eq!(
            fresh.counts_pair(db, f).unwrap(),
            pair,
            "fresh {fact} for {q}"
        );
        let value = engine.value(db, f).unwrap();
        assert_eq!(value, fresh.value(db, f).unwrap(), "{fact} for {q}");
        if engine.is_structurally_null(f) {
            assert_eq!(value, BigRational::zero(), "null {fact} for {q}");
        }
    }
}

/// One update that creates, flips or removes a free or junk fact, or
/// moves a non-null `Reg` fact, drawn from `h`. Returns the change.
fn null_step(db: &mut Database, nulls: &mut Vec<FactId>, h: u64, step: u64) -> EngineUpdate {
    let p = provenance(h >> 16);
    match h % 6 {
        0 => {
            let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
            nulls.push(f);
            EngineUpdate::Inserted(f)
        }
        1 => {
            let f = db.insert("TA", &[&format!("g{step}")], p).unwrap();
            nulls.push(f);
            EngineUpdate::Inserted(f)
        }
        2 => {
            let ghost = format!("g{step}");
            let f = db.insert("Reg", &[&ghost, "c0"], p).unwrap();
            nulls.push(f);
            EngineUpdate::Inserted(f)
        }
        3 if !nulls.is_empty() => {
            let f = nulls.swap_remove((h >> 8) as usize % nulls.len());
            db.retract_fact(f).unwrap();
            EngineUpdate::Retracted(f)
        }
        4 if !nulls.is_empty() => {
            let f = nulls[(h >> 8) as usize % nulls.len()];
            let to = if db.fact(f).provenance.is_endogenous() {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(f, to).unwrap();
            EngineUpdate::ProvenanceFlipped(f)
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
                    EngineUpdate::ProvenanceFlipped(f)
                }
                None => {
                    let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
                    nulls.push(f);
                    EngineUpdate::Inserted(f)
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

    /// The full-database counts and masked count pairs equal the
    /// counting oracles on fresh engines and after update sequences
    /// that create and remove free and junk facts, for a one-, two- and
    /// three-component query.
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
            let mut engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
            if text == Q1 {
                // Free (`Note`, `Closed`) and junk (`TA`/`Reg` of a
                // student without `Stud`) alike.
                for &f in &nulls {
                    prop_assert!(engine.is_structurally_null(f), "{}", db.render_fact(f));
                }
            }
            assert_counts_match_oracles(&db, &q, &engine);
            for step in 0..steps {
                let change = null_step(&mut db, &mut nulls, hash(seed, 200 + step), step);
                if !engine.update(&db, change).unwrap() {
                    engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
                }
                assert_counts_match_oracles(&db, &q, &engine);
            }
        }
    }
}
