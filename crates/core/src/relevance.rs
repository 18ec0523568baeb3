//! The relevance problem (Section 5.2).
//!
//! A fact `f ∈ Dn` is *relevant* to `q` when `q(Dx ∪ E) ≠ q(Dx ∪ E ∪ {f})`
//! for some `E ⊆ Dn` (Definition 5.2) — positively relevant when adding
//! `f` turns the answer true, negatively when it turns it false.
//!
//! Relevance is the gateway to multiplicative approximation: for a fact
//! over a *polarity-consistent* relation, the Shapley value is nonzero
//! iff the fact is relevant, so NP-hardness of relevance (Propositions
//! 5.5 and 5.8) kills multiplicative FPRASes. Conversely, Proposition
//! 5.7 gives polynomial algorithms — `IsPosRelevant` (Algorithm 2) and
//! `IsNegRelevant` (Algorithm 3) — for polarity-consistent CQ¬s, and
//! Section 5.2 extends them to polarity-consistent UCQ¬s; both are
//! implemented here, together with brute-force relevance for
//! cross-validation.

use std::collections::BTreeSet;

use cqshap_db::{Database, FactId, World};
use cqshap_engine::{for_each_positive_homomorphism, CompiledQuery, FactScope};
use cqshap_query::analysis::Polarity;
use cqshap_query::ConjunctiveQuery;

use crate::anyquery::AnyQuery;
use crate::error::{CoreError, EnumerationLimit};

/// `Neg_q(Dn)`: the endogenous facts whose relation occurs negatively in
/// the (polarity-consistent) query.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the facts of the query's negated relations
fn negq_endo_facts(db: &Database, q: AnyQuery<'_>) -> Vec<FactId> {
    let mut out = Vec::new();
    for (rel_name, pol) in q.polarities() {
        if pol != Polarity::Negative {
            continue;
        }
        if let Some(rel) = db.schema().id(&rel_name) {
            out.extend(
                db.relation_facts(rel)
                    .iter()
                    .copied()
                    .filter(|&f| db.fact(f).provenance.is_endogenous()),
            );
        }
    }
    out
}

fn check_polarity_consistent(q: AnyQuery<'_>) -> Result<(), CoreError> {
    let consistent = match q {
        AnyQuery::Cq(cq) => cqshap_query::is_polarity_consistent(cq),
        AnyQuery::Union(u) => cqshap_query::analysis::is_polarity_consistent_union(u),
    };
    if consistent {
        Ok(())
    } else {
        Err(CoreError::NotPolarityConsistent {
            query: match q {
                AnyQuery::Cq(cq) => cq.to_string(),
                AnyQuery::Union(u) => u.to_string(),
            },
        })
    }
}

fn disjuncts_of(q: AnyQuery<'_>) -> Vec<&ConjunctiveQuery> {
    match q {
        AnyQuery::Cq(cq) => vec![cq],
        AnyQuery::Union(u) => u.disjuncts().iter().collect(),
    }
}

/// Grounds the negative atoms of `cq` under a homomorphism's assignment.
/// Returns `None` when some negative atom maps to an *exogenous* fact
/// (the homomorphism can never witness satisfaction); otherwise the set
/// `N` of endogenous facts hit by negative atoms.
fn negative_hits(
    db: &Database,
    compiled: &CompiledQuery,
    assignment: &[Option<cqshap_db::ConstId>],
) -> Option<BTreeSet<FactId>> {
    let mut n = BTreeSet::new();
    for fid in compiled.negative_facts(assignment) {
        if db.fact(fid).provenance.is_endogenous() {
            n.insert(fid);
        } else {
            return None;
        }
    }
    Some(n)
}

/// `IsPosRelevant` (Algorithm 2), generalized to polarity-consistent
/// unions: is there `E ⊆ Dn` with `Dx ∪ E ⊭ q` and `Dx ∪ E ∪ {f} ⊨ q`?
///
/// # Errors
/// [`CoreError::NotPolarityConsistent`] /
/// [`CoreError::FactNotEndogenous`] on violated preconditions.
pub fn is_positively_relevant(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
) -> Result<bool, CoreError> {
    check_polarity_consistent(q)?;
    if db.endo_index(f).is_none() {
        return Err(CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        });
    }
    let negq: Vec<FactId> = negq_endo_facts(db, q);
    let whole = q.compile(db);
    let mut relevant = false;
    for d in disjuncts_of(q) {
        let compiled = CompiledQuery::compile(db, d);
        for_each_positive_homomorphism(db, FactScope::All, &compiled, &mut |m| {
            if !m.matched_facts.contains(&f) {
                return true;
            }
            let Some(n) = negative_hits(db, &compiled, m.assignment) else {
                return true;
            };
            // E = (P ∖ {f}) ∪ (Neg_q(Dn) ∖ N)
            let mut world = World::empty(db);
            for &p in m.matched_facts {
                if p != f && db.fact(p).provenance.is_endogenous() {
                    world.insert(db, p);
                }
            }
            for &g in &negq {
                if !n.contains(&g) && g != f {
                    world.insert(db, g);
                }
            }
            if !whole.satisfied(db, &world) {
                relevant = true;
                return false;
            }
            true
        });
        if relevant {
            return Ok(true);
        }
    }
    Ok(false)
}

/// `IsNegRelevant` (Algorithm 3), generalized to polarity-consistent
/// unions: is there `E ⊆ Dn` with `Dx ∪ E ⊨ q` and `Dx ∪ E ∪ {f} ⊭ q`?
///
/// # Errors
/// Same preconditions as [`is_positively_relevant`].
pub fn is_negatively_relevant(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
) -> Result<bool, CoreError> {
    check_polarity_consistent(q)?;
    if db.endo_index(f).is_none() {
        return Err(CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        });
    }
    let negq: Vec<FactId> = negq_endo_facts(db, q);
    let whole = q.compile(db);
    let mut relevant = false;
    for d in disjuncts_of(q) {
        let compiled = CompiledQuery::compile(db, d);
        for_each_positive_homomorphism(db, FactScope::All, &compiled, &mut |m| {
            if m.matched_facts.contains(&f) {
                return true;
            }
            let Some(n) = negative_hits(db, &compiled, m.assignment) else {
                return true;
            };
            // E' = P ∪ (Neg_q(Dn) ∖ N) ∪ {f}; witness E = E' ∖ {f}.
            let mut world = World::empty(db);
            for &p in m.matched_facts {
                if db.fact(p).provenance.is_endogenous() {
                    world.insert(db, p);
                }
            }
            for &g in &negq {
                if !n.contains(&g) {
                    world.insert(db, g);
                }
            }
            world.insert(db, f);
            if !whole.satisfied(db, &world) {
                relevant = true;
                return false;
            }
            true
        });
        if relevant {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Is `f` relevant to the (polarity-consistent) query?
pub fn is_relevant(db: &Database, q: AnyQuery<'_>, f: FactId) -> Result<bool, CoreError> {
    Ok(is_positively_relevant(db, q, f)? || is_negatively_relevant(db, q, f)?)
}

/// Is `Shapley(D, q, f) = 0`? Polynomial for polarity-consistent
/// queries, where zeroness coincides with irrelevance (Section 5.2).
pub fn shapley_is_zero(db: &Database, q: AnyQuery<'_>, f: FactId) -> Result<bool, CoreError> {
    Ok(!is_relevant(db, q, f)?)
}

/// Brute-force relevance: enumerates all `E ⊆ Dn ∖ {f}`. Returns
/// `(positively, negatively)` relevant flags. The ground truth for
/// tests, and the only exact option for non-polarity-consistent queries
/// (where the problem is NP-hard by Proposition 5.5).
///
/// # Errors
/// [`CoreError::TooManyEndogenousFacts`] when `|Dn| - 1 > limit`.
pub fn brute_force_relevance(
    db: &Database,
    q: AnyQuery<'_>,
    f: FactId,
    limit: usize,
) -> Result<(bool, bool), CoreError> {
    let target = db
        .endo_index(f)
        .ok_or_else(|| CoreError::FactNotEndogenous {
            fact: db.render_fact(f),
        })?;
    let m = db.endo_count();
    if m - 1 > limit {
        return Err(CoreError::TooManyEndogenousFacts {
            count: m - 1,
            limit,
            kind: EnumerationLimit::Relevance,
        });
    }
    let compiled = q.compile(db);
    let others: Vec<usize> = (0..m).filter(|&p| p != target).collect();
    let (mut pos, mut neg) = (false, false);
    for mask in 0u64..(1u64 << others.len()) {
        let mut world = World::empty(db);
        for (bit, &p) in others.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "p enumerates positions of the endo-fact list itself"
                )]
                world.insert(db, db.endo_facts()[p]);
            }
        }
        let before = compiled.satisfied(db, &world);
        world.insert(db, f);
        let after = compiled.satisfied(db, &world);
        pos |= !before && after;
        neg |= before && !after;
        if pos && neg {
            break;
        }
    }
    Ok((pos, neg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::{parse_cq, parse_ucq};

    fn university() -> Database {
        Database::parse(
            "exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\nexo Stud(David)\n\
             endo TA(Adam)\nendo TA(Ben)\nendo TA(David)\n\
             exo Course(OS, EE)\nexo Course(IC, EE)\nexo Course(DB, CS)\nexo Course(AI, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Adam, AI)\nendo Reg(Ben, OS)\n\
             endo Reg(Caroline, DB)\nendo Reg(Caroline, IC)\n\
             exo Adv(Michael, Adam)\nexo Adv(Michael, Ben)\nexo Adv(Naomi, Caroline)\n\
             exo Adv(Michael, David)\n",
        )
        .unwrap()
    }

    /// Cross-checks the polynomial algorithms against brute force for
    /// every endogenous fact.
    fn cross_check(db: &Database, q: AnyQuery<'_>) {
        for &f in db.endo_facts() {
            let fast_pos = is_positively_relevant(db, q, f).unwrap();
            let fast_neg = is_negatively_relevant(db, q, f).unwrap();
            let (bf_pos, bf_neg) = brute_force_relevance(db, q, f, 24).unwrap();
            assert_eq!(
                fast_pos,
                bf_pos,
                "positive relevance of {}",
                db.render_fact(f)
            );
            assert_eq!(
                fast_neg,
                bf_neg,
                "negative relevance of {}",
                db.render_fact(f)
            );
        }
    }

    #[test]
    fn running_example_q1() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        cross_check(&db, AnyQuery::Cq(&q1));
        // f_t3 = TA(David) is irrelevant (David never registers).
        let ft3 = db.find_fact("TA", &["David"]).unwrap();
        assert!(shapley_is_zero(&db, AnyQuery::Cq(&q1), ft3).unwrap());
        // f_t1 = TA(Adam) is negatively but not positively relevant.
        let ft1 = db.find_fact("TA", &["Adam"]).unwrap();
        assert!(!is_positively_relevant(&db, AnyQuery::Cq(&q1), ft1).unwrap());
        assert!(is_negatively_relevant(&db, AnyQuery::Cq(&q1), ft1).unwrap());
        // f_r4 = Reg(Caroline, DB) is positively relevant.
        let fr4 = db.find_fact("Reg", &["Caroline", "DB"]).unwrap();
        assert!(is_positively_relevant(&db, AnyQuery::Cq(&q1), fr4).unwrap());
        assert!(!is_negatively_relevant(&db, AnyQuery::Cq(&q1), fr4).unwrap());
    }

    #[test]
    fn running_example_q2_and_q3() {
        let db = university();
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        cross_check(&db, AnyQuery::Cq(&q2));
        let q3 =
            parse_cq("q3() :- Adv(x, y), Adv(x, z), !TA(y), !TA(z), Reg(y, 'IC'), Reg(z, 'DB')")
                .unwrap();
        // q3 has self-joins but is polarity consistent — the algorithms
        // still apply (Prop. 5.7 needs only polarity consistency).
        cross_check(&db, AnyQuery::Cq(&q3));
    }

    #[test]
    fn non_polarity_consistent_rejected() {
        let db = university();
        let q4 =
            parse_cq("q4() :- Adv(x, y), Adv(x, z), TA(y), !TA(z), Reg(z, w), !Reg(y, w)").unwrap();
        let f = db.find_fact("TA", &["Adam"]).unwrap();
        assert!(matches!(
            is_relevant(&db, AnyQuery::Cq(&q4), f),
            Err(CoreError::NotPolarityConsistent { .. })
        ));
        // Brute force still works.
        let _ = brute_force_relevance(&db, AnyQuery::Cq(&q4), f, 24).unwrap();
    }

    #[test]
    fn example_5_3_relevant_but_zero_shapley() {
        // q() :- R(x,y), ¬R(y,x): R(1,2) is both positively and
        // negatively relevant, and its Shapley value is 0.
        let db = Database::parse("endo R(1, 2)\nendo R(2, 1)\n").unwrap();
        let q = parse_cq("q() :- R(x, y), !R(y, x)").unwrap();
        let f = db.find_fact("R", &["1", "2"]).unwrap();
        let (pos, neg) = brute_force_relevance(&db, AnyQuery::Cq(&q), f, 24).unwrap();
        assert!(pos && neg);
        let v = crate::shapley::shapley_by_permutations(&db, AnyQuery::Cq(&q), f, 9, None).unwrap();
        assert!(v.is_zero());
        // The polynomial algorithms refuse (R is not polarity consistent).
        assert!(is_relevant(&db, AnyQuery::Cq(&q), f).is_err());
    }

    #[test]
    fn polarity_consistent_union() {
        // Whole-union polarity consistent: R positive in both disjuncts,
        // S negative in the second.
        let db = Database::parse("endo R(a)\nendo R(b)\nendo S(a)\nexo T(a)\n").unwrap();
        let u = parse_ucq("q() :- R(x), !S(x); q() :- R(x), T(x)").unwrap();
        for &f in db.endo_facts() {
            let fast = is_relevant(&db, AnyQuery::Union(&u), f).unwrap();
            let (bp, bn) = brute_force_relevance(&db, AnyQuery::Union(&u), f, 24).unwrap();
            assert_eq!(fast, bp || bn, "{}", db.render_fact(f));
        }
    }

    #[test]
    fn qsat_union_not_polarity_consistent() {
        let db = Database::parse("endo R(0)\n").unwrap();
        let u = parse_ucq(
            "q1() :- C(x1, x2, x3, v1, v2, v3), T(x1, v1), T(x2, v2), T(x3, v3)\n\
             q2() :- V(x), !T(x, 1), !T(x, 0)\n\
             q3() :- T(x, 1), T(x, 0)\n\
             q4() :- R(0)\n",
        )
        .unwrap();
        let f = db.find_fact("R", &["0"]).unwrap();
        assert!(matches!(
            is_relevant(&db, AnyQuery::Union(&u), f),
            Err(CoreError::NotPolarityConsistent { .. })
        ));
    }

    #[test]
    fn zeroness_matches_exact_shapley() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let session = crate::session::ShapleySession::prepare(
            &db,
            AnyQuery::Cq(&q1),
            &crate::shapley::ShapleyOptions::default(),
        )
        .unwrap();
        for &f in db.endo_facts() {
            let zero = shapley_is_zero(&db, AnyQuery::Cq(&q1), f).unwrap();
            let v = session.value(f).unwrap();
            assert_eq!(zero, v.is_zero(), "{}", db.render_fact(f));
        }
    }
}
