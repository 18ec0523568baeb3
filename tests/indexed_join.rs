//! The engine's hash-indexed join against a naive reference: a
//! nested-loop scan of every relation, written here from the query's
//! AST and the database's public lookups.
//!
//! Beyond equal answers, the join must enumerate positive-part
//! homomorphisms in exactly the order a scan of each relation finds
//! them, since relevance witnesses, aggregate candidates and `ExoShap`
//! rewritings all consume that order. The checks run over random
//! CQ¬/UCQ¬ with constants (known and unknown), unknown relations,
//! repeated variables (`E(x, x)`) and self-joins of both polarities
//! (Example 5.3's `R(x, y), ¬R(y, x)`), on databases that have seen
//! retractions and provenance flips.

use std::collections::BTreeSet;

use cqshap::db::{ConstId, Database, FactId, Provenance, Tuple, World};
use cqshap::engine::{
    answers, for_each_positive_homomorphism, satisfies, satisfies_union, CompiledQuery, FactScope,
};
use cqshap::query::{parse_cq, parse_ucq, ConjunctiveQuery, Term, Var};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// SplitMix64: a small deterministic stream for the generators.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const RELATIONS: &[(&str, usize)] = &[("A", 1), ("B", 1), ("E", 2), ("F", 2)];
const CONSTANTS: usize = 4;

/// A random database over [`RELATIONS`], facts inserted in random
/// order, then a few retracted and a few flipped between endogenous and
/// exogenous.
fn random_db(rng: &mut Stream) -> Database {
    let mut candidates: Vec<(&str, Vec<String>)> = Vec::new();
    for &(rel, arity) in RELATIONS {
        for code in 0..CONSTANTS.pow(arity as u32) {
            let args = (0..arity)
                .map(|i| format!("c{}", code / CONSTANTS.pow(i as u32) % CONSTANTS))
                .collect();
            candidates.push((rel, args));
        }
    }
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.below(i + 1));
    }
    let mut db = Database::new();
    for (rel, args) in candidates {
        if rng.chance(45) {
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let provenance = if rng.chance(70) {
                Provenance::Endogenous
            } else {
                Provenance::Exogenous
            };
            db.insert(rel, &args, provenance).unwrap();
        }
    }
    let live: Vec<FactId> = db.fact_ids().collect();
    for f in live {
        match rng.below(12) {
            0 => db.retract_fact(f).unwrap(),
            1 => {
                let flipped = if db.fact(f).provenance.is_endogenous() {
                    Provenance::Exogenous
                } else {
                    Provenance::Endogenous
                };
                db.set_fact_provenance(f, flipped).unwrap();
            }
            _ => {}
        }
    }
    db
}

/// A random safe CQ¬ in the concrete syntax: one to three positive
/// atoms, up to two negative atoms over the positive variables, and a
/// head drawn from the positive variables.
fn random_cq_text(rng: &mut Stream, name: &str) -> String {
    let relation = |rng: &mut Stream| {
        if rng.chance(5) {
            ("Nope", 1)
        } else {
            RELATIONS[rng.below(RELATIONS.len())]
        }
    };
    let term = |rng: &mut Stream, vars: &[&'static str]| -> String {
        match rng.below(10) {
            0 => "'c1'".into(),
            1 if rng.chance(30) => "'zz'".into(),
            _ => vars[rng.below(vars.len())].into(),
        }
    };
    let mut body = Vec::new();
    let mut bound: BTreeSet<String> = BTreeSet::new();
    for _ in 0..1 + rng.below(3) {
        let (rel, arity) = relation(rng);
        let args: Vec<String> = (0..arity).map(|_| term(rng, &["x", "y", "z"])).collect();
        bound.extend(args.iter().filter(|a| !a.starts_with('\'')).cloned());
        body.push(format!("{rel}({})", args.join(", ")));
    }
    let bound: Vec<&'static str> = ["x", "y", "z"]
        .into_iter()
        .filter(|v| bound.contains(*v))
        .collect();
    for _ in 0..rng.below(3) {
        let (rel, arity) = relation(rng);
        let args: Vec<String> = (0..arity)
            .map(|_| {
                if bound.is_empty() {
                    "'c0'".into()
                } else {
                    term(rng, &bound)
                }
            })
            .collect();
        body.push(format!("!{rel}({})", args.join(", ")));
    }
    let head: Vec<&str> = bound.iter().copied().filter(|_| rng.chance(50)).collect();
    format!("{name}({}) :- {}", head.join(", "), body.join(", "))
}

fn random_world(db: &Database, rng: &mut Stream) -> World {
    let members: Vec<FactId> = db
        .endo_facts()
        .iter()
        .copied()
        .filter(|_| rng.chance(50))
        .collect();
    World::from_fact_ids(db, &members)
}

// ---------------------------------------------------------------------
// The reference: the nested-loop scan the index replaced.
// ---------------------------------------------------------------------

/// A resolved term: a variable, a known constant, or a constant the
/// database has never seen.
enum Ref {
    Var(usize),
    Const(ConstId),
    Unknown,
}

fn resolve(db: &Database, t: &Term) -> Ref {
    match t {
        Term::Var(Var(v)) => Ref::Var(*v as usize),
        Term::Const(c) => db.interner().get(c).map_or(Ref::Unknown, Ref::Const),
    }
}

type Match = (Vec<Option<ConstId>>, Vec<FactId>);

/// Every positive-part homomorphism, atoms matched in `order`, each
/// relation scanned in insertion order.
fn reference_matches(
    db: &Database,
    q: &ConjunctiveQuery,
    order: &[usize],
    visible: &dyn Fn(FactId) -> bool,
) -> Vec<Match> {
    fn go(
        db: &Database,
        q: &ConjunctiveQuery,
        order: &[usize],
        visible: &dyn Fn(FactId) -> bool,
        assignment: &mut Vec<Option<ConstId>>,
        matched: &mut Vec<FactId>,
        out: &mut Vec<Match>,
    ) {
        let Some(&atom_index) = order.get(matched.len()) else {
            out.push((assignment.clone(), matched.clone()));
            return;
        };
        let atom = &q.atoms()[atom_index];
        let Some(rel) = db.schema().id(&atom.relation) else {
            return;
        };
        for &fid in db.relation_facts(rel) {
            let tuple = db.fact(fid).tuple.values();
            if !visible(fid) || tuple.len() != atom.terms.len() {
                continue;
            }
            let saved = assignment.clone();
            let ok = atom
                .terms
                .iter()
                .zip(tuple)
                .all(|(t, &val)| match resolve(db, t) {
                    Ref::Const(c) => c == val,
                    Ref::Unknown => false,
                    Ref::Var(v) => match assignment[v] {
                        Some(bound) => bound == val,
                        None => {
                            assignment[v] = Some(val);
                            true
                        }
                    },
                });
            if ok {
                matched.push(fid);
                go(db, q, order, visible, assignment, matched, out);
                matched.pop();
            }
            *assignment = saved;
        }
    }
    let mut out = Vec::new();
    let mut assignment = vec![None; q.var_count()];
    go(
        db,
        q,
        order,
        visible,
        &mut assignment,
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// The facts of `D` the negative atoms of `q` ground to, in atom order.
fn reference_negative_facts(
    db: &Database,
    q: &ConjunctiveQuery,
    assignment: &[Option<ConstId>],
) -> Vec<FactId> {
    q.atoms()
        .iter()
        .filter(|a| a.negated)
        .filter_map(|atom| {
            let rel = db.schema().id(&atom.relation)?;
            let values: Option<Vec<ConstId>> = atom
                .terms
                .iter()
                .map(|t| match resolve(db, t) {
                    Ref::Const(c) => Some(c),
                    Ref::Unknown => None,
                    Ref::Var(v) => assignment[v],
                })
                .collect();
            db.lookup(rel, &Tuple::from(values?))
        })
        .collect()
}

fn in_world<'a>(db: &'a Database, world: &'a World) -> impl Fn(FactId) -> bool + 'a {
    move |f| !db.fact(f).provenance.is_endogenous() || world.contains(db, f)
}

fn indexed_matches(db: &Database, scope: FactScope<'_>, c: &CompiledQuery) -> Vec<Match> {
    let mut out = Vec::new();
    let completed = for_each_positive_homomorphism(db, scope, c, &mut |m| {
        out.push((m.assignment.to_vec(), m.matched_facts.to_vec()));
        true
    });
    assert!(completed);
    out
}

/// Checks one query on one database and world against the reference.
fn check_cq(db: &Database, world: &World, q: &ConjunctiveQuery) -> Result<(), TestCaseError> {
    let c = CompiledQuery::compile(db, q);
    let order = c.join_order();
    let everything = |_: FactId| true;
    let visible = in_world(db, world);

    let all = reference_matches(db, q, order, &everything);
    prop_assert_eq!(
        indexed_matches(db, FactScope::All, &c),
        all,
        "{} on\n{}",
        q,
        db
    );
    let seen = reference_matches(db, q, order, &visible);
    prop_assert_eq!(
        indexed_matches(db, FactScope::World(world), &c),
        seen.clone(),
        "{} on\n{}",
        q,
        db
    );

    let survivors: Vec<&Match> = seen
        .iter()
        .filter(|(a, _)| !reference_negative_facts(db, q, a).into_iter().any(&visible))
        .collect();
    prop_assert_eq!(satisfies(db, world, q), !survivors.is_empty(), "{}", q);
    let want: BTreeSet<Vec<ConstId>> = survivors
        .iter()
        .filter_map(|(a, _)| q.head().iter().map(|v| a[v.0 as usize]).collect())
        .collect();
    prop_assert_eq!(answers(db, world, q), want, "{}", q);

    for (assignment, _) in &all {
        prop_assert_eq!(
            c.negative_facts(assignment),
            reference_negative_facts(db, q, assignment),
            "{}",
            q
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn indexed_join_matches_the_reference_scan(seed in 0u64..1_000_000) {
        let mut rng = Stream(seed);
        let db = random_db(&mut rng);
        let world = random_world(&db, &mut rng);
        let text = random_cq_text(&mut rng, "q");
        let parsed = parse_cq(&text);
        prop_assume!(parsed.is_ok());
        check_cq(&db, &world, &parsed.unwrap())?;
    }

    #[test]
    fn union_satisfaction_matches_the_reference(seed in 0u64..1_000_000) {
        let mut rng = Stream(seed);
        let db = random_db(&mut rng);
        let world = random_world(&db, &mut rng);
        let text = format!("{}; {}", random_cq_text(&mut rng, "q"), random_cq_text(&mut rng, "q"));
        let parsed = parse_ucq(&text);
        prop_assume!(parsed.is_ok());
        let u = parsed.unwrap();
        let any = u.disjuncts().iter().any(|d| satisfies(&db, &world, d));
        prop_assert_eq!(satisfies_union(&db, &world, &u), any, "{}", text);
    }
}

#[test]
fn mixed_polarity_self_join_and_repeated_variables() {
    let mut rng = Stream(7);
    for _ in 0..40 {
        let db = random_db(&mut rng);
        let world = random_world(&db, &mut rng);
        for text in [
            "q() :- E(x, y), !E(y, x)",
            "q(x) :- E(x, x), A(x), !F(x, x)",
            "q(x, y) :- E(x, y), F(y, x), !E(x, x), !A('c1')",
            "q() :- E(x, 'c2'), !B(x), !Nope(x)",
        ] {
            check_cq(&db, &world, &parse_cq(text).unwrap()).unwrap();
        }
    }
}
