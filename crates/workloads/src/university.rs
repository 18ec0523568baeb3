//! The running example (Figure 1) and scalable university databases.

use cqshap_db::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exact database of Figure 1: exogenous `Stud`, `Course`, `Adv`;
/// endogenous `TA` and `Reg`.
pub fn figure_1_database() -> Database {
    Database::parse(
        "# Figure 1 of the paper.\n\
         exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\nexo Stud(David)\n\
         endo TA(Adam)\nendo TA(Ben)\nendo TA(David)\n\
         exo Course(OS, EE)\nexo Course(IC, EE)\nexo Course(DB, CS)\nexo Course(AI, CS)\n\
         endo Reg(Adam, OS)\nendo Reg(Adam, AI)\nendo Reg(Ben, OS)\n\
         endo Reg(Caroline, DB)\nendo Reg(Caroline, IC)\n\
         exo Adv(Michael, Adam)\nexo Adv(Michael, Ben)\nexo Adv(Naomi, Caroline)\n\
         exo Adv(Michael, David)\n",
    )
    .expect("the static example parses")
}

/// A deterministic university workload with *exactly* `m` endogenous
/// facts, for the all-facts report benchmarks (the Criterion groups of
/// `cqshap-bench`): each of the `m / 4` students contributes
/// one endogenous `TA` fact and three endogenous `Reg` facts, so the
/// hierarchical `q1` recursion sees `m / 4` root groups of four facts.
///
/// # Panics
/// Panics unless `m` is a positive multiple of 4.
pub fn report_benchmark_db(m: usize) -> Database {
    assert!(
        m > 0 && m.is_multiple_of(4),
        "report_benchmark_db needs a positive multiple of 4, got {m}"
    );
    let students = m / 4;
    let courses = (students / 2).max(4);
    let mut db = Database::new();
    for c in 0..courses {
        db.add_exo("Course", &[&format!("c{c}"), &format!("f{}", c % 3)])
            .expect("distinct");
    }
    for s in 0..students {
        let name = format!("s{s}");
        db.add_exo("Stud", &[&name]).expect("distinct");
        db.add_exo("Adv", &[&format!("adv{}", s % 5), &name])
            .expect("distinct");
        db.add_endo("TA", &[&name]).expect("distinct");
        for j in 0..3 {
            db.add_endo("Reg", &[&name, &format!("c{}", (s + j) % courses)])
                .expect("distinct");
        }
    }
    db
}

/// A deterministic two-scenario workload with *exactly* `m` endogenous
/// facts for the union report benchmarks: the first half is the
/// [`report_benchmark_db`] student side (`TA`/`Reg`), the second half a
/// disjoint lab side (`Asst`/`Closed`) with the same group shape, so the
/// 2-disjunct union
/// [`crate::queries::union_benchmark`] is hierarchical disjunct-wise
/// *and* in every intersection (the sides share no relation).
///
/// # Panics
/// Panics unless `m` is a positive multiple of 8.
pub fn union_benchmark_db(m: usize) -> Database {
    assert!(
        m > 0 && m.is_multiple_of(8),
        "union_benchmark_db needs a positive multiple of 8, got {m}"
    );
    let mut db = report_benchmark_db(m / 2);
    let labs = m / 8;
    for l in 0..labs {
        let lab = format!("l{l}");
        db.add_exo("Lab", &[&lab]).expect("distinct");
        db.add_endo("Closed", &[&lab]).expect("distinct");
        for j in 0..3 {
            db.add_endo("Asst", &[&lab, &format!("a{l}_{j}")])
                .expect("distinct");
        }
    }
    db
}

/// Parameters for scalable university databases.
#[derive(Debug, Clone)]
pub struct UniversityConfig {
    /// Number of students.
    pub students: usize,
    /// Number of courses.
    pub courses: usize,
    /// Number of faculties (course attribute).
    pub faculties: usize,
    /// Probability a student is a TA.
    pub ta_fraction: f64,
    /// Registrations per student (distinct courses).
    pub regs_per_student: usize,
    /// Declare `Stud`, `Course`, `Adv` as exogenous relations (the
    /// Section 4 setting).
    pub declare_exogenous: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            students: 20,
            courses: 8,
            faculties: 3,
            ta_fraction: 0.4,
            regs_per_student: 2,
            declare_exogenous: true,
            seed: 1,
        }
    }
}

impl UniversityConfig {
    /// Generates the database: exogenous `Stud`/`Course`/`Adv` facts,
    /// endogenous `TA`/`Reg` facts.
    pub fn generate(&self) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = Database::new();
        let stud = db.add_relation("Stud", 1).expect("fresh schema");
        let course = db.add_relation("Course", 2).expect("fresh schema");
        let adv = db.add_relation("Adv", 2).expect("fresh schema");
        db.add_relation("TA", 1).expect("fresh schema");
        db.add_relation("Reg", 2).expect("fresh schema");
        if self.declare_exogenous {
            db.declare_exogenous_relation(stud).expect("no facts yet");
            db.declare_exogenous_relation(course).expect("no facts yet");
            db.declare_exogenous_relation(adv).expect("no facts yet");
        }
        for c in 0..self.courses {
            let f = rng.gen_range(0..self.faculties.max(1));
            db.add_exo("Course", &[&format!("c{c}"), &format!("f{f}")])
                .expect("distinct");
        }
        for s in 0..self.students {
            let name = format!("s{s}");
            db.add_exo("Stud", &[&name]).expect("distinct");
            db.add_exo("Adv", &[&format!("adv{}", s % 5), &name])
                .expect("distinct");
            if rng.gen_bool(self.ta_fraction) {
                db.add_endo("TA", &[&name]).expect("distinct");
            }
            let mut picked = Vec::new();
            while picked.len() < self.regs_per_student.min(self.courses) {
                let c = rng.gen_range(0..self.courses);
                if !picked.contains(&c) {
                    picked.push(c);
                    db.add_endo("Reg", &[&name, &format!("c{c}")])
                        .expect("distinct");
                }
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_shape() {
        let db = figure_1_database();
        assert_eq!(db.endo_count(), 8);
        assert_eq!(db.fact_count(), 20);
        assert!(db.find_fact("Reg", &["Caroline", "IC"]).is_some());
    }

    #[test]
    fn report_benchmark_db_has_exact_endo_count() {
        for m in [4usize, 64, 256, 1024, 4096] {
            let db = report_benchmark_db(m);
            assert_eq!(db.endo_count(), m, "m = {m}");
        }
    }

    #[test]
    fn union_benchmark_db_has_exact_endo_count_and_disjoint_sides() {
        for m in [8usize, 64, 256] {
            let db = union_benchmark_db(m);
            assert_eq!(db.endo_count(), m, "m = {m}");
            let asst = db.schema().id("Asst").unwrap();
            assert_eq!(db.relation_facts(asst).len(), 3 * (m / 8));
            let ta = db.schema().id("TA").unwrap();
            assert_eq!(db.relation_facts(ta).len(), m / 8);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = UniversityConfig::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn generator_respects_config() {
        let cfg = UniversityConfig {
            students: 10,
            courses: 5,
            regs_per_student: 3,
            declare_exogenous: true,
            seed: 7,
            ..Default::default()
        };
        let db = cfg.generate();
        let stud = db.schema().id("Stud").unwrap();
        assert!(db.is_exogenous_relation(stud));
        assert_eq!(db.relation_facts(stud).len(), 10);
        let reg = db.schema().id("Reg").unwrap();
        assert_eq!(db.relation_facts(reg).len(), 30);
        // Different seeds differ.
        let other = UniversityConfig { seed: 8, ..cfg }.generate();
        assert_ne!(db.to_string(), other.to_string());
    }
}
