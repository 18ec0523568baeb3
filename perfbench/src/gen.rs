//! Seeded input generators.
//!
//! Every generator takes the workload seed, so one seed always yields
//! the same databases. The program under test only ever sees what these
//! produce: db files in the line format of `cqshap-db`, and query text.

use cqshap::db::{Database, Provenance, World};
use cqshap::engine::satisfies;
use cqshap::query::parse_cq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `q1` of Example 2.2: hierarchical, answered by compiled `CntSat`.
pub const Q1: &str = "q1() :- Stud(x), !TA(x), Reg(x, y)";
/// Section 4.1's tractable query; with `X = {S, P}` it has no
/// non-hierarchical path, so ExoShap answers it (Thm 4.3).
pub const Q_EXO: &str = "q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)";
/// `q_RS¬T`: FP^#P-hard, so only the sampled tier answers it.
pub const Q_HARD: &str = "q() :- R(x), S(x, y), !T(y)";

/// Derives an independent stream per generator from the workload seed.
fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// A university database with exactly `m` endogenous facts and a heavy
/// head: about half the students have the modal shape (endogenous `TA`
/// plus three `Reg`), the rest register for 1–12 courses with `TA`
/// endogenous, exogenous or absent. Root groups therefore fall into
/// many isomorphism classes, unlike the uniform
/// `report_benchmark_db`, where they all share one.
pub fn heavy_university(m: usize, seed: u64) -> Database {
    let mut rng = rng(seed, 0x756e_6976);
    let courses = (m / 10).max(16);
    let mut db = Database::new();
    for c in 0..courses {
        db.add_exo("Course", &[&format!("c{c}"), &format!("f{}", c % 3)])
            .expect("distinct courses");
    }
    let mut s = 0usize;
    while db.endo_count() < m {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).expect("distinct students");
        db.add_exo("Adv", &[&format!("adv{}", s % 5), &name])
            .expect("distinct students");
        // TA: 0 = endogenous, 1 = exogenous, 2 = absent.
        let (ta, regs) = if rng.gen_bool(0.5) {
            (0, 3)
        } else {
            (rng.gen_range(0..3u32), rng.gen_range(1..=12usize))
        };
        let remaining = m - db.endo_count();
        match ta {
            0 => {
                db.add_endo("TA", &[&name]).expect("fresh student");
            }
            1 => {
                db.add_exo("TA", &[&name]).expect("fresh student");
            }
            _ => {}
        }
        let regs = regs.min(remaining - usize::from(ta == 0));
        let mut picked: Vec<usize> = Vec::with_capacity(regs);
        while picked.len() < regs {
            let c = rng.gen_range(0..courses);
            if !picked.contains(&c) {
                picked.push(c);
                db.add_endo("Reg", &[&name, &format!("c{c}")])
                    .expect("distinct course per student");
            }
        }
        s += 1;
    }
    db
}

/// Sizes of an [`exo_instance`]: the domain, then how many tuples to
/// draw for `S`, `P`, `R` and `T` (duplicates are dropped).
pub struct ExoSize {
    pub domain: usize,
    pub tuples: [usize; 4],
}

/// The cold-report instance: about 600 endogenous facts.
pub const EXO_FULL: ExoSize = ExoSize {
    domain: 40,
    tuples: [120, 900, 900, 60],
};

/// The cross-check instance: about a dozen endogenous facts.
pub const EXO_SMALL: ExoSize = ExoSize {
    domain: 4,
    tuples: [4, 5, 7, 5],
};

/// A random instance of [`Q_EXO`] with `S` and `P` declared exogenous
/// relations, `R` mostly and `T` wholly endogenous. Seeds whose instance has
/// `q(D) = q(Dx)` (so every Shapley value is zero by efficiency) are
/// rejected, and the next derived seed is tried.
pub fn exo_instance(seed: u64, size: &ExoSize) -> Database {
    let q = parse_cq(Q_EXO).expect("static query");
    for attempt in 0u64.. {
        let mut rng = rng(seed, 0x65_786f ^ (attempt << 32));
        let domain = size.domain;
        let mut db = Database::new();
        for (name, arity) in [("R", 2), ("S", 2), ("P", 2), ("T", 2)] {
            let rel = db.add_relation(name, arity).expect("fresh schema");
            if name == "S" || name == "P" {
                db.declare_exogenous_relation(rel).expect("no facts yet");
            }
        }
        for (name, facts) in ["S", "P", "R", "T"].into_iter().zip(size.tuples) {
            for _ in 0..facts {
                let a = format!("d{}", rng.gen_range(0..domain));
                let b = format!("d{}", rng.gen_range(0..domain));
                // `T` stays endogenous, so `q(Dx)` is false and the
                // rejection below is rare.
                let provenance = if name == "S" || name == "P" || (name == "R" && rng.gen_bool(0.1))
                {
                    Provenance::Exogenous
                } else {
                    Provenance::Endogenous
                };
                // Duplicate tuples are skipped.
                let _ = db.insert(name, &[&a, &b], provenance);
            }
        }
        let with_all = satisfies(&db, &World::full(&db), &q);
        let exo_only = satisfies(&db, &World::empty(&db), &q);
        if with_all != exo_only {
            return db;
        }
    }
    unreachable!("the attempt counter is unbounded")
}

/// The seed of instance `i` of a run, for workloads that average a
/// figure over several instances because one instance's shape would
/// dominate it.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(256).wrapping_add(i)
}

/// A random instance of [`Q_HARD`], all facts endogenous: `R(x)` and
/// `T(y)` for each of `n` constants per side, and `d` distinct random
/// edges `S(x, y)` out of every `x`. Every `x` then looks alike to the
/// query, which keeps the sampler's cost per draw close across seeds;
/// only the wiring is random.
pub fn hard_instance(seed: u64, n: usize, d: usize) -> Database {
    let mut rng = rng(seed, 0x6861_7264);
    let mut db = Database::new();
    for x in 0..n {
        db.add_endo("R", &[&format!("x{x}")]).expect("distinct");
    }
    for x in 0..n {
        for y in distinct(&mut rng, n, d) {
            db.add_endo("S", &[&format!("x{x}"), &format!("y{y}")])
                .expect("distinct");
        }
    }
    for y in 0..n {
        db.add_endo("T", &[&format!("y{y}")]).expect("distinct");
    }
    db
}

/// `count` distinct values below `n`, ascending.
fn distinct(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.gen_range(0..n);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked.sort_unstable();
    picked
}
