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
//! ordinary incremental update. A session driven through random flip /
//! insert / retract sequences that keep creating and clearing them must
//! never recompile and must stay bit-identical to fresh prepares. (The
//! same sequences on the bare compiled engines are a unit test of
//! `cqshap-core`'s `compiled` module.)

mod common;

use common::{replay, Update};
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
    fn step(&mut self, h: u64) -> Update {
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
            Update::Flipped(f)
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
                Update::Inserted(f)
            }
            3 if self.regs[s].len() > 1 => {
                let len = self.regs[s].len();
                let f = self.regs[s].swap_remove((h >> 20) as usize % len);
                self.db.retract_fact(f).unwrap();
                Update::Retracted(f)
            }
            _ => match self.tas[s].take() {
                Some(f) if (h >> 24).is_multiple_of(2) => {
                    self.tas[s] = Some(f);
                    flip(&mut self.db, f)
                }
                Some(f) => {
                    self.db.retract_fact(f).unwrap();
                    Update::Retracted(f)
                }
                None => {
                    let f = self.db.insert("TA", &[&name], provenance).unwrap();
                    self.tas[s] = Some(f);
                    Update::Inserted(f)
                }
            },
        }
    }

    /// Flips student 0's first `Reg` fact. Exogenous, it makes the
    /// student always satisfied (unless the stream gave it a `TA`
    /// fact); endogenous, it clears that. The sequences alternate these
    /// toggles with random updates, so zero factors keep appearing and
    /// disappearing, sometimes several at once.
    fn toggle_student_zero(&mut self) -> Update {
        let f = self.regs[0][0];
        let to = if self.db.fact(f).provenance.is_endogenous() {
            Provenance::Exogenous
        } else {
            Provenance::Endogenous
        };
        self.db.set_fact_provenance(f, to).unwrap();
        Update::Flipped(f)
    }
}

/// A session over `inst` at its probabilities, with both domains built
/// so that updates maintain them.
fn session(inst: &Instance, q: &ConjunctiveQuery) -> ShapleySession {
    let mut session =
        ShapleySession::prepare(&inst.db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
    set_probabilities(&mut session, &probabilities(inst));
    session.report().unwrap();
    session.probability().unwrap();
    session
}

fn set_probabilities(session: &mut ShapleySession, probs: &FactProbabilities) {
    session
        .set_default_probability(probs.default_probability().clone())
        .unwrap();
    let endo = session.database().endo_facts().to_vec();
    for f in endo {
        session.set_probability(f, probs.get(f).clone()).unwrap();
    }
}

/// Maintained session ≡ fresh prepare, bit for bit; every value ≡ the
/// per-fact counting oracle; and each expected marginal ≡ `Pr[q]` of a
/// fresh session with the fact's probability pinned to 1, minus pinned
/// to 0 — totals computed without deriving any group environment.
fn assert_session_matches_fresh(session: &mut ShapleySession, q: &ConjunctiveQuery) {
    let db = session.database().clone();
    let probs = session.probabilities().clone();
    let fresh = |probs: &FactProbabilities| {
        let mut fresh =
            ShapleySession::prepare(&db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
        set_probabilities(&mut fresh, probs);
        fresh
    };
    let mut same = fresh(&probs);
    let (a, b) = (session.report().unwrap(), same.report().unwrap());
    assert!(a.efficiency_holds(), "efficiency over\n{db}");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.value, y.value, "{} over\n{db}", x.rendered);
        let want = shapley_via_counts(&db, AnyQuery::Cq(q), x.fact, &HierarchicalCounter).unwrap();
        assert_eq!(
            x.value, want,
            "{} against the oracle over\n{db}",
            x.rendered
        );
    }
    assert_eq!(
        session.probability().unwrap(),
        same.probability().unwrap(),
        "Pr[q] over\n{db}"
    );
    let pinned = |f: FactId, p: BigRational| {
        let mut probs = probs.clone();
        probs.set(f, p);
        fresh(&probs).probability().unwrap()
    };
    for &f in db.endo_facts() {
        let marginal = session.expected_shapley(f).unwrap();
        assert_eq!(
            marginal,
            same.expected_shapley(f).unwrap(),
            "{} marginal over\n{db}",
            db.render_fact(f)
        );
        assert_eq!(
            marginal,
            pinned(f, BigRational::one()) - pinned(f, BigRational::zero()),
            "{} marginal vs pinned probabilities over\n{db}",
            db.render_fact(f)
        );
    }
}

/// Is some root group always satisfied, i.e. every coalition satisfies
/// the query? Exactly when `Pr[q] = 1` with every endogenous fact
/// present with probability 1/2 (`Σ_k |Sat(D, q, k)| = 2^m`).
fn always_satisfied(db: &Database, q: &ConjunctiveQuery) -> bool {
    let mut session =
        ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
    session
        .set_default_probability(BigRational::from_i64_ratio(1, 2))
        .unwrap();
    session.probability().unwrap() == BigRational::one()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A session absorbs every update incrementally — creating and
    /// clearing zero factors included — and stays bit-identical to
    /// fresh prepares and the per-fact oracles.
    #[test]
    fn zero_factor_updates_stay_incremental_and_exact(
        seed in 0u64..1_000_000,
        students in 2usize..5,
        steps in 2usize..8,
    ) {
        let q = parse_cq(Q).unwrap();
        let mut inst = instance(seed, students);
        let mut session = session(&inst, &q);
        prop_assert!(always_satisfied(&inst.db, &q), "student 0 starts always satisfied");
        let mut cleared = false;
        for step in 0..steps as u64 {
            let change = if step % 2 == 0 {
                inst.toggle_student_zero()
            } else {
                inst.step(hash(seed, 100 + step))
            };
            replay(&mut session, &inst.db, change).unwrap();
            prop_assert_eq!(session.stats().full_recompiles, 0, "{:?} recompiled", change);
            assert_session_matches_fresh(&mut session, &q);
            cleared |= !always_satisfied(&inst.db, &q);
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
            replay(&mut session, &shadow.db, change).unwrap();
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
