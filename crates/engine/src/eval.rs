//! Satisfaction and homomorphism enumeration.
//!
//! There is one join: a depth-first walk of the positive atoms in join
//! order. Each atom probes its index (see the [crate docs](crate)) with
//! the values its key columns are bound to, and binds its remaining
//! variables from every visible row. Rows keep
//! [`Database::relation_facts`] order within a key, so homomorphisms
//! are enumerated in the order a scan of each relation would find them.
//! Negative atoms are then checked by one lookup of their ground tuple,
//! written into a reused probe buffer.
//!
//! Enumeration allocates nothing for queries with up to 16 variables,
//! positive atoms and key columns.

use std::collections::BTreeSet;

use cqshap_db::{ConstId, Database, FactId, World};
use cqshap_query::{ConjunctiveQuery, UnionQuery};

use crate::compile::{CompiledQuery, CompiledUnion};

/// Scratch buffers up to this length live on the stack.
const INLINE_SCRATCH: usize = 16;

/// Runs `f` on a buffer of `len` copies of `fill`, on the stack when it
/// is at most [`INLINE_SCRATCH`] long.
#[inline]
fn with_scratch<T: Copy, R>(len: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if len <= INLINE_SCRATCH {
        let mut buf = [fill; INLINE_SCRATCH];
        f(&mut buf[..len])
    } else {
        f(&mut vec![fill; len])
    }
}

/// Which facts are visible to matching.
#[derive(Debug, Clone, Copy)]
pub enum FactScope<'a> {
    /// `Dx ∪ E`: exogenous facts plus the world's endogenous facts. This
    /// is the evaluation scope of the Shapley wealth function.
    World(&'a World),
    /// Every fact of `D`, endogenous or not — the scope the relevance
    /// algorithms (Algorithms 2/3) enumerate homomorphisms over.
    All,
}

/// One homomorphism of the positive part of a query.
#[derive(Debug)]
pub struct PositiveMatch<'a> {
    /// Per-variable constants (every variable of a positive atom is
    /// bound; variables occurring only in the head or nowhere are `None`).
    pub assignment: &'a [Option<ConstId>],
    /// The fact matched by each positive atom, in *evaluation* order.
    pub matched_facts: &'a [FactId],
}

/// Enumerates homomorphisms of the positive atoms of `q` into the facts
/// visible under `scope`, calling `visitor` for each; the visitor returns
/// `false` to abort. Returns `true` when enumeration ran to completion.
///
/// Negative atoms are *not* checked here — callers (satisfaction, the
/// relevance algorithms) apply their own policy to them. `q` must have
/// been compiled against `db` in its current state.
pub fn for_each_positive_homomorphism(
    db: &Database,
    scope: FactScope<'_>,
    q: &CompiledQuery,
    visitor: &mut impl FnMut(PositiveMatch<'_>) -> bool,
) -> bool {
    debug_assert_eq!(
        q.shape,
        (db.fact_count(), db.endo_count()),
        "query compiled against a different database state"
    );
    with_scratch(q.var_count, None, |assignment| {
        with_scratch(q.joins.len(), FactId(0), |matched| {
            with_scratch(q.key_len, ConstId(0), |probe| {
                let mut frame = Frame {
                    assignment,
                    matched,
                    probe,
                };
                join(q, scope, 0, &mut frame, visitor)
            })
        })
    })
}

/// The mutable state of one enumeration.
struct Frame<'a> {
    assignment: &'a mut [Option<ConstId>],
    matched: &'a mut [FactId],
    probe: &'a mut [ConstId],
}

/// Matches the positive atoms from `depth` on. A variable first bound
/// at a deeper level keeps its stale value after backtracking; it is
/// rebound before any visitor can see it again.
// cqshap-lint: allow(cancellation-reachability) -- bounded by the positive matches: one index range per atom and level, and the visitor returns false to stop the walk
fn join(
    q: &CompiledQuery,
    scope: FactScope<'_>,
    depth: usize,
    frame: &mut Frame<'_>,
    visitor: &mut impl FnMut(PositiveMatch<'_>) -> bool,
) -> bool {
    let Some(index) = q.joins.get(depth) else {
        return visitor(PositiveMatch {
            assignment: frame.assignment,
            matched_facts: frame.matched,
        });
    };
    for i in index.lookup(frame.assignment, frame.probe) {
        let row = index.row(i);
        if !row.visible(scope) {
            continue;
        }
        index.bind(i, frame.assignment);
        frame.matched[depth] = row.fact;
        if !join(q, scope, depth + 1, frame, visitor) {
            return false;
        }
    }
    true
}

/// Does any negative atom of `q` fire (i.e. its ground fact is visible)
/// under the given assignment and scope?
fn negatives_violated(
    scope: FactScope<'_>,
    q: &CompiledQuery,
    assignment: &[Option<ConstId>],
    probe: &mut [ConstId],
) -> bool {
    q.checks.iter().any(|check| {
        check
            .ground(assignment, probe)
            .is_some_and(|row| row.visible(scope))
    })
}

/// Does `Dx ∪ E ⊨ q` hold, for a query compiled against `db`?
pub fn satisfies_compiled(db: &Database, world: &World, q: &CompiledQuery) -> bool {
    let scope = FactScope::World(world);
    with_scratch(q.key_len, ConstId(0), |probe| {
        let mut sat = false;
        for_each_positive_homomorphism(db, scope, q, &mut |m| {
            if negatives_violated(scope, q, m.assignment, probe) {
                true // keep searching
            } else {
                sat = true;
                false // abort: satisfied
            }
        });
        sat
    })
}

/// Does `Dx ∪ E ⊨ q` hold? Compiles on the fly; prefer
/// [`satisfies_compiled`] in loops over many worlds.
pub fn satisfies(db: &Database, world: &World, q: &ConjunctiveQuery) -> bool {
    satisfies_compiled(db, world, &CompiledQuery::compile(db, q))
}

/// Does `Dx ∪ E ⊨ q₁ ∨ ⋯ ∨ qₙ` hold?
pub fn satisfies_union(db: &Database, world: &World, u: &UnionQuery) -> bool {
    let c = CompiledUnion::compile(db, u);
    c.disjuncts.iter().any(|d| satisfies_compiled(db, world, d))
}

/// The distinct answers (head-variable tuples) of `q` over `Dx ∪ E`.
///
/// With negation, a tuple can be an answer in a strict sub-world without
/// being one in the full world, so callers interested in *possible*
/// answers should evaluate over the candidate worlds they care about (the
/// aggregate machinery enumerates positive-part homomorphisms over all of
/// `D` instead; see `cqshap-core`).
pub fn answers(db: &Database, world: &World, q: &ConjunctiveQuery) -> BTreeSet<Vec<ConstId>> {
    let c = CompiledQuery::compile(db, q);
    let scope = FactScope::World(world);
    let mut out = BTreeSet::new();
    let mut probe = vec![ConstId(0); c.key_len];
    for_each_positive_homomorphism(db, scope, &c, &mut |m| {
        if !negatives_violated(scope, &c, m.assignment, &mut probe) {
            let tuple: Option<Vec<ConstId>> =
                c.head().iter().map(|&v| m.assignment[v as usize]).collect();
            if let Some(t) = tuple {
                out.insert(t);
            }
        }
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::{parse_cq, parse_ucq};

    /// The running-example database of Figure 1.
    fn university() -> Database {
        let mut db = Database::new();
        for s in ["Adam", "Ben", "Caroline", "David"] {
            db.add_exo("Stud", &[s]).unwrap();
        }
        for t in ["Adam", "Ben", "David"] {
            db.add_endo("TA", &[t]).unwrap();
        }
        for (c, f) in [("OS", "EE"), ("IC", "EE"), ("DB", "CS"), ("AI", "CS")] {
            db.add_exo("Course", &[c, f]).unwrap();
        }
        for (n, c) in [
            ("Adam", "OS"),
            ("Adam", "AI"),
            ("Ben", "OS"),
            ("Caroline", "DB"),
            ("Caroline", "IC"),
        ] {
            db.add_endo("Reg", &[n, c]).unwrap();
        }
        for (a, s) in [
            ("Michael", "Adam"),
            ("Michael", "Ben"),
            ("Naomi", "Caroline"),
            ("Michael", "David"),
        ] {
            db.add_exo("Adv", &[a, s]).unwrap();
        }
        db
    }

    #[test]
    fn example_2_3_satisfaction_conditions() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();

        // Dx alone: no Reg facts present → false.
        assert!(!satisfies(&db, &World::empty(&db), &q1));

        // Condition (1): f_r4 (Caroline, DB) alone satisfies — Caroline
        // is not a TA anywhere.
        let fr4 = db.find_fact("Reg", &["Caroline", "DB"]).unwrap();
        let w = World::from_fact_ids(&db, &[fr4]);
        assert!(satisfies(&db, &w, &q1));

        // Condition (2): f_r1 (Adam, OS) satisfies only while f_t1 absent.
        let fr1 = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        let ft1 = db.find_fact("TA", &["Adam"]).unwrap();
        let mut w = World::from_fact_ids(&db, &[fr1]);
        assert!(satisfies(&db, &w, &q1));
        w.insert(&db, ft1);
        assert!(!satisfies(&db, &w, &q1));

        // Full world: Caroline not a TA and registered → true.
        assert!(satisfies(&db, &World::full(&db), &q1));
    }

    #[test]
    fn constants_in_queries() {
        let db = university();
        let q = parse_cq("q() :- Reg(x, 'DB'), !TA(x)").unwrap();
        let fr4 = db.find_fact("Reg", &["Caroline", "DB"]).unwrap();
        assert!(satisfies(&db, &World::from_fact_ids(&db, &[fr4]), &q));
        assert!(!satisfies(&db, &World::empty(&db), &q));
        // Unknown constant in a positive atom → unsatisfiable.
        let q2 = parse_cq("q() :- Reg(x, 'Quantum')").unwrap();
        assert!(!satisfies(&db, &World::full(&db), &q2));
        // Unknown constant in a negative atom → vacuously true negation.
        let q3 = parse_cq("q() :- Stud(x), !TA('Nobody')").unwrap();
        assert!(satisfies(&db, &World::empty(&db), &q3));
        // Unknown relation behaves likewise.
        let q4 = parse_cq("q() :- Stud(x), !Alien(x)").unwrap();
        assert!(satisfies(&db, &World::empty(&db), &q4));
        let q5 = parse_cq("q() :- Alien(x)").unwrap();
        assert!(!satisfies(&db, &World::full(&db), &q5));
    }

    #[test]
    fn self_join_with_mixed_polarity() {
        // Example 5.3: q() :- R(x,y), !R(y,x) over {R(1,2), R(2,1)}.
        let mut db = Database::new();
        let f12 = db.add_endo("R", &["1", "2"]).unwrap();
        let f21 = db.add_endo("R", &["2", "1"]).unwrap();
        let q = parse_cq("q() :- R(x, y), !R(y, x)").unwrap();
        assert!(!satisfies(&db, &World::empty(&db), &q));
        assert!(satisfies(&db, &World::from_fact_ids(&db, &[f12]), &q));
        assert!(satisfies(&db, &World::from_fact_ids(&db, &[f21]), &q));
        assert!(!satisfies(&db, &World::from_fact_ids(&db, &[f12, f21]), &q));
    }

    #[test]
    fn union_satisfaction() {
        let db = university();
        let u = parse_ucq(
            "qa() :- Reg(x, 'Quantum')\n\
             qb() :- Stud(x), !TA(x), Reg(x, y)\n",
        )
        .unwrap();
        let fr4 = db.find_fact("Reg", &["Caroline", "DB"]).unwrap();
        assert!(satisfies_union(&db, &World::from_fact_ids(&db, &[fr4]), &u));
        assert!(!satisfies_union(&db, &World::empty(&db), &u));
    }

    #[test]
    fn enumerate_positive_homs_all_scope() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), Reg(x, y)").unwrap();
        let c = CompiledQuery::compile(&db, &q);
        let mut count = 0;
        for_each_positive_homomorphism(&db, FactScope::All, &c, &mut |_| {
            count += 1;
            true
        });
        // One per Reg fact (each registered student is a Stud).
        assert_eq!(count, 5);

        // Abort works.
        let mut first_only = 0;
        let completed = for_each_positive_homomorphism(&db, FactScope::All, &c, &mut |_| {
            first_only += 1;
            false
        });
        assert!(!completed);
        assert_eq!(first_only, 1);
    }

    #[test]
    fn answers_projection() {
        let db = university();
        let q = parse_cq("qans(x) :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let full = answers(&db, &World::full(&db), &q);
        // Only Caroline is registered and not a TA in the full world.
        let caroline = db.interner().get("Caroline").unwrap();
        assert_eq!(full, BTreeSet::from([vec![caroline]]));

        let empty = answers(&db, &World::empty(&db), &q);
        assert!(empty.is_empty());
    }

    #[test]
    fn ground_only_negative_query() {
        // q() :- ¬R('a') — safe (no variables), satisfied iff R(a) absent.
        let mut db = Database::new();
        let ra = db.add_endo("R", &["a"]).unwrap();
        let q = parse_cq("q() :- !R('a')").unwrap();
        assert!(satisfies(&db, &World::empty(&db), &q));
        assert!(!satisfies(&db, &World::from_fact_ids(&db, &[ra]), &q));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = Database::new();
        db.add_endo("E", &["a", "a"]).unwrap();
        db.add_endo("E", &["a", "b"]).unwrap();
        let q = parse_cq("q() :- E(x, x)").unwrap();
        assert!(satisfies(&db, &World::full(&db), &q));
        let only_ab = db.find_fact("E", &["a", "b"]).unwrap();
        assert!(!satisfies(&db, &World::from_fact_ids(&db, &[only_ab]), &q));
    }
}
