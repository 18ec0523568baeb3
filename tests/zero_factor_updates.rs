//! Always-satisfied root groups under incremental maintenance.
//!
//! For `q() :- Stud(x), !TA(x), Reg(x, y)`, a student with an
//! exogenous `Reg` fact and no `TA` fact satisfies the query in every
//! coalition: the root group's unsatisfying value is identically zero.
//! In the probability domain an endogenous `Reg` fact present with
//! probability 1 does the same, and conditioning on its absence makes
//! the group satisfiable-but-not-always again — the one read where an
//! always-satisfied group's own environment matters. The compiled
//! engines count such zero factors instead of multiplying
//! them into the component product, so creating or clearing one is an
//! ordinary incremental update. Random flip / insert / retract
//! sequences that keep creating and clearing them must leave the
//! maintained engines bit-identical to fresh compiles, and a session
//! driven through them must never recompile.

use cqshap::prelude::*;
use proptest::prelude::*;

const Q: &str = "q() :- Stud(x), !TA(x), Reg(x, y)";

/// The database under test plus the bookkeeping the update stream
/// draws from: every live `Reg` fact by student, every live `TA` fact.
struct Instance {
    db: Database,
    regs: Vec<Vec<FactId>>,
    tas: Vec<Option<FactId>>,
    courses: usize,
}

fn hash(seed: u64, k: u64) -> u64 {
    (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(29)
}

/// `students` students with 1–3 `Reg` facts each and an endogenous,
/// exogenous or absent `TA` fact. Student 0 starts always satisfied
/// (one exogenous `Reg`, no `TA`) and is the only such student: a
/// student without `TA` gets endogenous `Reg` facts only.
fn instance(seed: u64, students: usize) -> Instance {
    let mut db = Database::new();
    // Declared up front: a relation first seen after compiling would
    // change how the query resolves, which is structural.
    db.add_relation("TA", 1).unwrap();
    let mut regs = Vec::new();
    let mut tas = Vec::new();
    let mut courses = 0;
    for s in 0..students {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).unwrap();
        let h = hash(seed, s as u64);
        let ta = match (s, h % 3) {
            (0, _) | (_, 2) => None,
            (_, 0) => Some(db.add_endo("TA", &[&name]).unwrap()),
            _ => Some(db.add_exo("TA", &[&name]).unwrap()),
        };
        let mut mine = Vec::new();
        for r in 0..1 + (h >> 8) % 3 {
            let course = format!("c{courses}");
            courses += 1;
            let exo = if s == 0 {
                r == 0
            } else {
                ta.is_some() && (h >> (16 + r)).is_multiple_of(3)
            };
            mine.push(if exo {
                db.add_exo("Reg", &[&name, &course]).unwrap()
            } else {
                db.add_endo("Reg", &[&name, &course]).unwrap()
            });
        }
        regs.push(mine);
        tas.push(ta);
    }
    Instance {
        db,
        regs,
        tas,
        courses,
    }
}

/// Default probability 1/2, except student 0's first `Reg` fact at 1:
/// student 0 stays always satisfied in the probability domain whichever
/// way that fact is flipped, while any other student needs an
/// exogenous `Reg` fact for that.
fn probabilities(inst: &Instance) -> FactProbabilities {
    let mut probs = FactProbabilities::uniform(BigRational::from_i64_ratio(1, 2));
    probs.set(inst.regs[0][0], BigRational::one());
    probs
}

impl Instance {
    /// Applies the update drawn from `h` — flip a `Reg` or `TA` fact,
    /// insert a `Reg` or `TA` fact, or retract one — and returns it.
    /// Every update keeps each student's root group alive (a student
    /// keeps at least one `Reg`), so none of them is structural.
    fn step(&mut self, h: u64) -> EngineUpdate {
        let s = (h >> 4) as usize % self.regs.len();
        let name = format!("s{s}");
        let provenance = if (h >> 12).is_multiple_of(2) {
            Provenance::Endogenous
        } else {
            Provenance::Exogenous
        };
        let flip = |db: &mut Database, f: FactId| {
            let to = if db.fact(f).provenance.is_endogenous() {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            db.set_fact_provenance(f, to).unwrap();
            EngineUpdate::ProvenanceFlipped(f)
        };
        match h % 5 {
            0 | 1 => {
                let mine = &self.regs[s];
                let f = mine[(h >> 20) as usize % mine.len()];
                flip(&mut self.db, f)
            }
            2 => {
                let course = format!("c{}", self.courses);
                self.courses += 1;
                let f = self
                    .db
                    .insert("Reg", &[&name, &course], provenance)
                    .unwrap();
                self.regs[s].push(f);
                EngineUpdate::Inserted(f)
            }
            3 if self.regs[s].len() > 1 => {
                let len = self.regs[s].len();
                let f = self.regs[s].swap_remove((h >> 20) as usize % len);
                self.db.retract_fact(f).unwrap();
                EngineUpdate::Retracted(f)
            }
            _ => match self.tas[s].take() {
                Some(f) if (h >> 24).is_multiple_of(2) => {
                    self.tas[s] = Some(f);
                    flip(&mut self.db, f)
                }
                Some(f) => {
                    self.db.retract_fact(f).unwrap();
                    EngineUpdate::Retracted(f)
                }
                None => {
                    let f = self.db.insert("TA", &[&name], provenance).unwrap();
                    self.tas[s] = Some(f);
                    EngineUpdate::Inserted(f)
                }
            },
        }
    }

    /// Flips student 0's first `Reg` fact. Exogenous, it makes the
    /// student always satisfied (unless the stream gave it a `TA`
    /// fact); endogenous, it clears that. The sequences alternate these
    /// toggles with random updates, so zero factors keep appearing and
    /// disappearing, sometimes several at once.
    fn toggle_student_zero(&mut self) -> EngineUpdate {
        let f = self.regs[0][0];
        let to = if self.db.fact(f).provenance.is_endogenous() {
            Provenance::Exogenous
        } else {
            Provenance::Endogenous
        };
        self.db.set_fact_provenance(f, to).unwrap();
        EngineUpdate::ProvenanceFlipped(f)
    }
}

/// Maintained counting engine ≡ fresh compile, bit for bit, and its
/// masked counts ≡ the per-fact counting oracle.
fn assert_count_matches_fresh(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
    let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
    assert_eq!(
        engine.total_counts(),
        fresh.total_counts(),
        "totals over\n{db}"
    );
    let oracle = HierarchicalCounter;
    for &f in db.endo_facts() {
        assert_eq!(
            engine.value(db, f).unwrap(),
            fresh.value(db, f).unwrap(),
            "{} over\n{db}",
            db.render_fact(f)
        );
        let masked = |mask| oracle.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
        assert_eq!(
            engine.counts_pair(db, f).unwrap(),
            (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f))),
            "{} counts over\n{db}",
            db.render_fact(f)
        );
    }
}

/// Maintained probability engine ≡ fresh compile, bit for bit, and
/// each conditional ≡ `Pr[q]` of a fresh compile with the fact's
/// probability pinned to 0 or 1 — a total computed without deriving
/// any group environment.
fn assert_probability_matches_fresh(
    db: &Database,
    q: &ConjunctiveQuery,
    engine: &CompiledProbability,
) {
    let fresh =
        CompiledProbability::compile(db, q, engine.probabilities().clone(), 0, None).unwrap();
    assert_eq!(
        engine.probability(),
        fresh.probability(),
        "Pr[q] over\n{db}"
    );
    let pinned = |f: FactId, p: BigRational| {
        let mut probs = engine.probabilities().clone();
        probs.set(f, p);
        let pinned = CompiledProbability::compile(db, q, probs, 0, None).unwrap();
        pinned.probability().clone()
    };
    for &f in db.endo_facts() {
        let pair = engine.conditioned_pair(db, f).unwrap();
        assert_eq!(
            pair,
            fresh.conditioned_pair(db, f).unwrap(),
            "{} conditionals over\n{db}",
            db.render_fact(f)
        );
        assert_eq!(
            pair,
            (
                pinned(f, BigRational::zero()),
                pinned(f, BigRational::one())
            ),
            "{} conditionals vs pinned probabilities over\n{db}",
            db.render_fact(f)
        );
    }
}

/// Is some root group always satisfied, i.e. every coalition satisfies
/// the query (`|Sat(D, q, k)| = C(m, k)` for every `k`)?
fn always_satisfied(engine: &CompiledCount) -> bool {
    let m = engine.endo_count();
    let mut row = BigUint::one();
    for (k, count) in engine.total_counts().iter().enumerate() {
        if *count != row {
            return false;
        }
        row.mul_u64_assign((m - k) as u64);
        row.div_rem_u64_assign(k as u64 + 1);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both engines absorb every update incrementally — creating and
    /// clearing zero factors included — and stay bit-identical to
    /// fresh compiles.
    #[test]
    fn zero_factor_updates_stay_incremental_and_exact(
        seed in 0u64..1_000_000,
        students in 2usize..5,
        steps in 2usize..8,
    ) {
        let q = parse_cq(Q).unwrap();
        let mut inst = instance(seed, students);
        let mut count = CompiledCount::compile(&inst.db, &q, 0, None).unwrap();
        let mut prob =
            CompiledProbability::compile(&inst.db, &q, probabilities(&inst), 0, None).unwrap();
        prop_assert!(always_satisfied(&count), "student 0 starts always satisfied");
        let mut cleared = false;
        for step in 0..steps as u64 {
            let change = if step % 2 == 0 {
                inst.toggle_student_zero()
            } else {
                inst.step(hash(seed, 100 + step))
            };
            prop_assert!(count.update(&inst.db, change).unwrap(), "{change:?} recompiled");
            prop_assert!(prob.update(&inst.db, change).unwrap(), "{change:?} recompiled");
            assert_count_matches_fresh(&inst.db, &q, &count);
            assert_probability_matches_fresh(&inst.db, &q, &prob);
            cleared |= !always_satisfied(&count);
        }
        prop_assert!(cleared, "the zero factor was never cleared");
    }

    /// A session driven through the same updates never falls back to a
    /// full recompile, and its reports and probabilities match a
    /// freshly prepared session.
    #[test]
    fn sessions_keep_zero_factor_updates_incremental(
        seed in 0u64..1_000_000,
        students in 2usize..5,
        steps in 2usize..6,
    ) {
        let q = parse_cq(Q).unwrap();
        let inst = instance(seed, students);
        let opts = ShapleyOptions::auto();
        let mut session = ShapleySession::prepare(&inst.db, AnyQuery::Cq(&q), &opts).unwrap();
        session.set_default_probability(BigRational::one()).unwrap();
        session.probability().unwrap();
        // Replay the stream on a shadow instance to learn each update,
        // then apply it through the session's own entry points.
        let mut shadow = inst;
        for step in 0..steps as u64 {
            let change = if step % 2 == 0 {
                shadow.toggle_student_zero()
            } else {
                shadow.step(hash(seed, 100 + step))
            };
            match change {
                EngineUpdate::ProvenanceFlipped(f) => {
                    let exo = !shadow.db.fact(f).provenance.is_endogenous();
                    session.set_exogenous(f, exo).unwrap();
                }
                EngineUpdate::Retracted(f) => session.retract_fact(f).unwrap(),
                EngineUpdate::Inserted(f) => {
                    let text = shadow.db.render_fact(f);
                    let (rel, args) = text.trim_end_matches(')').split_once('(').unwrap();
                    let args: Vec<&str> = args.split(", ").collect();
                    let got = session
                        .insert_fact(rel, &args, shadow.db.fact(f).provenance)
                        .unwrap();
                    prop_assert_eq!(got, f, "the session assigns the shadow's fact id");
                }
            }
            let mut fresh = ShapleySession::prepare(session.database(), AnyQuery::Cq(&q), &opts)
                .unwrap();
            fresh.set_default_probability(BigRational::one()).unwrap();
            prop_assert_eq!(session.probability().unwrap(), fresh.probability().unwrap());
            let (a, b) = (session.report().unwrap(), fresh.report().unwrap());
            prop_assert!(a.efficiency_holds());
            for (x, y) in a.entries.iter().zip(&b.entries) {
                prop_assert_eq!(&x.value, &y.value, "{}", &x.rendered);
            }
        }
        let stats = session.stats();
        prop_assert_eq!(stats.full_recompiles, 0, "{stats:?}");
        prop_assert_eq!(stats.incremental_updates, stats.updates);
    }
}
