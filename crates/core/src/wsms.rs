//! Weighted sums of minimal supports (WSMS) — the always-terminating
//! floor of the degradation ladder.
//!
//! When the exact Shapley engines reject a query (non-hierarchical,
//! self-joins, `FP^{#P}`-hard unions) and sampling cannot converge
//! inside the budget, WSMS still produces a principled attribution in
//! polynomial time (data complexity). Following the minimal-support
//! measures studied as tractable Shapley alternatives (arXiv
//! 2503.22358), define for a Boolean query `q` over `D = Dx ∪ Dn`:
//!
//! * a **support** is a set `S ⊆ Dn` with `Dx ∪ S ⊨ q`;
//! * a **minimal support** is a support no proper subset of which is a
//!   support;
//! * `WSMS(f) = Σ { w(S) : S minimal support, f ∈ S }` where the weight
//!   `w` is one of [`WsmsWeight`].
//!
//! Unlike the Shapley value, WSMS never needs the `|Sat|` counts that
//! make negation `#P`-hard: minimal supports are enumerated directly
//! from the *valuations* (homomorphisms) of each disjunct's positive
//! atoms. For a valuation `v`, let `S_v` be the endogenous facts in the
//! image of the positive atoms; `v` is *valid* when no instantiated
//! negated atom matches an exogenous fact or a member of `S_v`. Then:
//!
//! 1. every valid `v` yields a support (`v` itself satisfies
//!    `Dx ∪ S_v`: positive atoms map into it, negated atoms match
//!    nothing present);
//! 2. every minimal support `S` equals some `S_v`: a satisfying
//!    valuation of `Dx ∪ S` is valid and has `S_v ⊆ S`, so minimality
//!    forces equality;
//! 3. a subset-minimal candidate is a genuinely minimal support: a
//!    smaller support inside it would contribute its own, smaller,
//!    candidate.
//!
//! Hence the minimal supports are exactly the subset-minimal elements
//! of `{S_v : v valid}` — across all disjuncts for a union, since a
//! union is satisfied iff some disjunct is. The enumeration deliberately
//! skips the hierarchy and self-join-freeness preconditions of the exact
//! engines: WSMS is the tier that must work on precisely the queries
//! they refuse.
#![expect(
    clippy::indexing_slicing,
    reason = "support enumeration indexes within masks sized by the query"
)]

use std::collections::BTreeSet;

use cqshap_db::{ConstId, Database, FactId, RelId};
use cqshap_numeric::BigRational;
use cqshap_query::{ConjunctiveQuery, Term};

use crate::anyquery::AnyQuery;
use crate::budget::{self, CancelToken};
use crate::error::CoreError;
use crate::satcount::{PAtom, PTerm};

/// How a minimal support's credit is shared among its facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WsmsWeight {
    /// Every minimal support contributes `1` to each of its members:
    /// the score of `f` is the number of minimal supports containing it.
    Uniform,
    /// Every minimal support shares one unit equally among its members
    /// (`1/|S|` each), so the scores of all facts sum to the number of
    /// non-empty minimal supports — an efficiency axiom analogue.
    #[default]
    SizeInverse,
}

/// The WSMS score of one endogenous fact.
#[derive(Debug, Clone)]
pub struct WsmsEntry {
    /// The fact.
    pub fact: FactId,
    /// Human-readable rendering of the fact.
    pub rendered: String,
    /// The weighted sum over minimal supports containing the fact.
    pub score: BigRational,
    /// How many minimal supports contain the fact.
    pub supports: usize,
}

/// WSMS scores for every endogenous fact, in `Dn` order.
#[derive(Debug, Clone)]
pub struct WsmsReport {
    /// One entry per endogenous fact.
    pub entries: Vec<WsmsEntry>,
    /// Total number of minimal supports (the empty support included,
    /// when the query already holds under `Dx` alone).
    pub minimal_supports: usize,
    /// The weight scheme the scores were computed under.
    pub weight: WsmsWeight,
}

impl WsmsReport {
    /// The entry for `f`, if `f` is endogenous.
    pub fn entry(&self, f: FactId) -> Option<&WsmsEntry> {
        self.entries.iter().find(|e| e.fact == f)
    }
}

/// Computes the WSMS attribution of every endogenous fact.
///
/// Works for *any* CQ¬ or UCQ¬ — in particular the self-join and
/// non-hierarchical queries the exact engines reject. Runtime is
/// polynomial in the database for a fixed query (valuation enumeration),
/// though the number of minimal supports governs the constant.
///
/// # Errors
/// [`CoreError::Unsupported`] on arity clashes,
/// [`CoreError::DeadlineExceeded`] (phase `wsms`) when `cancel` trips.
pub fn wsms_report(
    db: &Database,
    q: AnyQuery<'_>,
    weight: WsmsWeight,
    cancel: Option<&CancelToken>,
) -> Result<WsmsReport, CoreError> {
    let disjuncts: Vec<&ConjunctiveQuery> = match q {
        AnyQuery::Cq(cq) => vec![cq],
        AnyQuery::Union(u) => u.disjuncts().iter().collect(),
    };
    let mut candidates: BTreeSet<Vec<FactId>> = BTreeSet::new();
    for d in disjuncts {
        collect_supports(db, d, cancel, &mut candidates)?;
    }
    let minimal = minimal_sets(candidates);

    let m = db.endo_facts().len();
    let mut scores = vec![BigRational::zero(); m];
    let mut counts = vec![0usize; m];
    for s in &minimal {
        if s.is_empty() {
            continue; // the empty support credits nobody
        }
        let w = match weight {
            WsmsWeight::Uniform => BigRational::one(),
            WsmsWeight::SizeInverse => BigRational::from_i64_ratio(1, s.len() as i64),
        };
        for &f in s {
            #[expect(
                clippy::expect_used,
                reason = "supports are built from endogenous facts only"
            )]
            let i = db
                .endo_index(f)
                .expect("supports consist of endogenous facts");
            scores[i] += &w;
            counts[i] += 1;
        }
    }
    let entries = db
        .endo_facts()
        .iter()
        .enumerate()
        .map(|(i, &f)| WsmsEntry {
            fact: f,
            rendered: db.render_fact(f),
            score: std::mem::take(&mut scores[i]),
            supports: counts[i],
        })
        .collect();
    Ok(WsmsReport {
        entries,
        minimal_supports: minimal.len(),
        weight,
    })
}

// ---------------------------------------------------------------------
// Disjunct resolution (no structural preconditions)
// ---------------------------------------------------------------------

/// One disjunct resolved against the database: positive patterns with
/// their matching-fact scopes, negated patterns with their relations.
struct ResolvedDisjunct {
    positives: Vec<(PAtom, Vec<FactId>)>,
    negatives: Vec<(RelId, PAtom)>,
}

/// Resolves a disjunct like `satcount::resolve_query` but *without* the
/// hierarchy / self-join-freeness checks. `None` means the disjunct is
/// unsatisfiable (a positive atom over an unknown relation or constant).
fn resolve_disjunct(
    db: &Database,
    q: &ConjunctiveQuery,
) -> Result<Option<ResolvedDisjunct>, CoreError> {
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    for atom in q.atoms() {
        let rel = db.schema().id(&atom.relation);
        let mut unknown_const = false;
        let terms: Vec<PTerm> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => PTerm::Var(v.0),
                Term::Const(name) => match db.interner().get(name) {
                    Some(c) => PTerm::Const(c),
                    None => {
                        unknown_const = true;
                        PTerm::Var(u32::MAX) // placeholder, never used
                    }
                },
            })
            .collect();
        if rel.is_none() || unknown_const {
            if atom.negated {
                continue; // never fires
            }
            return Ok(None);
        }
        #[expect(
            clippy::expect_used,
            reason = "the guard above returns early unless a relation matched"
        )]
        let rel = rel.expect("checked above");
        if db.schema().arity(rel) != terms.len() {
            return Err(CoreError::Unsupported(format!(
                "atom {} disagrees with the arity of relation {}",
                q.render_atom(atom),
                atom.relation
            )));
        }
        let p = PAtom {
            negated: atom.negated,
            terms,
        };
        if p.negated {
            negatives.push((rel, p));
        } else {
            let scope: Vec<FactId> = db
                .relation_facts(rel)
                .iter()
                .copied()
                .filter(|&fid| p.matches(db.fact(fid).tuple.values()))
                .collect();
            positives.push((p, scope));
        }
    }
    Ok(Some(ResolvedDisjunct {
        positives,
        negatives,
    }))
}

// ---------------------------------------------------------------------
// Valuation enumeration
// ---------------------------------------------------------------------

/// Enumerates the valid valuations of `q` and inserts each candidate
/// support `S_v` into `out`.
fn collect_supports(
    db: &Database,
    q: &ConjunctiveQuery,
    cancel: Option<&CancelToken>,
    out: &mut BTreeSet<Vec<FactId>>,
) -> Result<(), CoreError> {
    let Some(mut rq) = resolve_disjunct(db, q)? else {
        return Ok(());
    };
    // Tight scopes first: prunes the join tree near the root.
    rq.positives.sort_by_key(|(_, scope)| scope.len());
    let mut bindings: Vec<(u32, ConstId)> = Vec::new();
    let mut image: Vec<FactId> = Vec::new();
    descend(
        db,
        &rq.positives,
        &rq.negatives,
        0,
        &mut bindings,
        &mut image,
        cancel,
        out,
    )
}

/// Backtracking join over the positive atoms; at each leaf, the negated
/// atoms decide whether the valuation's support is admitted.
#[expect(
    clippy::too_many_arguments,
    reason = "the backtracking state is passed flat, one argument per join table"
)]
fn descend(
    db: &Database,
    positives: &[(PAtom, Vec<FactId>)],
    negatives: &[(RelId, PAtom)],
    depth: usize,
    bindings: &mut Vec<(u32, ConstId)>,
    image: &mut Vec<FactId>,
    cancel: Option<&CancelToken>,
    out: &mut BTreeSet<Vec<FactId>>,
) -> Result<(), CoreError> {
    if let Some(token) = cancel {
        if token.charge(1) {
            budget::check(token, cqshap_obs::phase::WSMS)?;
        }
    }
    if depth == positives.len() {
        if let Some(support) = leaf_support(db, negatives, bindings, image) {
            out.insert(support);
        }
        return Ok(());
    }
    let (atom, scope) = &positives[depth];
    for &fid in scope {
        let mark = bindings.len();
        if !match_atom(atom, db.fact(fid).tuple.values(), bindings) {
            continue;
        }
        image.push(fid);
        let r = descend(
            db,
            positives,
            negatives,
            depth + 1,
            bindings,
            image,
            cancel,
            out,
        );
        image.pop();
        bindings.truncate(mark);
        r?;
    }
    Ok(())
}

/// Extends `bindings` so that `atom` maps onto the tuple `values`;
/// restores `bindings` and returns `false` when it cannot.
fn match_atom(atom: &PAtom, values: &[ConstId], bindings: &mut Vec<(u32, ConstId)>) -> bool {
    let mark = bindings.len();
    for (t, &val) in atom.terms.iter().zip(values) {
        let ok = match t {
            PTerm::Const(c) => *c == val,
            PTerm::Var(v) => match bindings.iter().find(|(bv, _)| bv == v) {
                Some(&(_, bound)) => bound == val,
                None => {
                    bindings.push((*v, val));
                    true
                }
            },
        };
        if !ok {
            bindings.truncate(mark);
            return false;
        }
    }
    true
}

/// The candidate support of a complete valuation, or `None` when a
/// negated atom fires: an exogenous match falsifies `q` in *every*
/// world containing `Dx`, a match inside the support falsifies exactly
/// the world the support would certify.
fn leaf_support(
    db: &Database,
    negatives: &[(RelId, PAtom)],
    bindings: &[(u32, ConstId)],
    image: &[FactId],
) -> Option<Vec<FactId>> {
    let mut support: Vec<FactId> = image
        .iter()
        .copied()
        .filter(|&f| db.fact(f).provenance.is_endogenous())
        .collect();
    support.sort_unstable();
    support.dedup();
    for (rel, pattern) in negatives {
        let ground = instantiate(pattern, bindings);
        for &fid in db.relation_facts(*rel) {
            if !ground.matches(db.fact(fid).tuple.values()) {
                continue;
            }
            if !db.fact(fid).provenance.is_endogenous() {
                return None;
            }
            if support.binary_search(&fid).is_ok() {
                return None;
            }
            // An endogenous match outside the support is simply absent
            // from the world `Dx ∪ S_v` — it does not fire.
        }
    }
    Some(support)
}

/// Substitutes the current bindings into a pattern (safe negation makes
/// the result ground; unbound variables stay free and match anything).
fn instantiate(atom: &PAtom, bindings: &[(u32, ConstId)]) -> PAtom {
    PAtom {
        negated: atom.negated,
        terms: atom
            .terms
            .iter()
            .map(|t| match t {
                PTerm::Var(v) => match bindings.iter().find(|(bv, _)| bv == v) {
                    Some(&(_, c)) => PTerm::Const(c),
                    None => PTerm::Var(*v),
                },
                PTerm::Const(c) => PTerm::Const(*c),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Subset-minimal filtering
// ---------------------------------------------------------------------

/// The subset-minimal elements of `candidates` (each sorted ascending).
fn minimal_sets(candidates: BTreeSet<Vec<FactId>>) -> Vec<Vec<FactId>> {
    let mut by_size: Vec<Vec<FactId>> = candidates.into_iter().collect();
    by_size.sort_by_key(|s| s.len());
    let mut minimal: Vec<Vec<FactId>> = Vec::new();
    for cand in by_size {
        if minimal.iter().any(|m| is_subset(m, &cand)) {
            continue;
        }
        minimal.push(cand);
    }
    minimal
}

/// Is sorted `a` a subset of sorted `b`?
fn is_subset(a: &[FactId], b: &[FactId]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.by_ref().any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use cqshap_db::World;
    use cqshap_query::{parse_cq, parse_ucq};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, verbatim: enumerate all `2^m` subsets, keep the
    /// satisfying ones, filter to subset-minimal.
    fn brute_minimal_supports(db: &Database, q: AnyQuery<'_>) -> Vec<Vec<FactId>> {
        let m = db.endo_facts().len();
        assert!(m <= 16, "brute-force reference capped at 16 facts");
        let compiled = q.compile(db);
        let mut world = World::empty(db);
        let mut sat: Vec<u64> = Vec::new();
        for mask in 0..(1u64 << m) {
            world.assign_mask(mask);
            if compiled.satisfied(db, &world) {
                sat.push(mask);
            }
        }
        let mut minimal: Vec<Vec<FactId>> = Vec::new();
        'outer: for &mask in &sat {
            for &other in &sat {
                if other != mask && other & mask == other {
                    continue 'outer;
                }
            }
            minimal.push(
                db.endo_facts()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &f)| f)
                    .collect(),
            );
        }
        minimal
    }

    /// Checks `wsms_report` against the brute-force definition for both
    /// weight schemes.
    fn assert_matches_brute(db: &Database, q: AnyQuery<'_>) {
        let want = brute_minimal_supports(db, q);
        for weight in [WsmsWeight::Uniform, WsmsWeight::SizeInverse] {
            let report = wsms_report(db, q, weight, None).unwrap();
            assert_eq!(
                report.minimal_supports,
                want.len(),
                "support count for {} under {weight:?}",
                q.name()
            );
            for entry in &report.entries {
                let containing: Vec<&Vec<FactId>> =
                    want.iter().filter(|s| s.contains(&entry.fact)).collect();
                assert_eq!(entry.supports, containing.len(), "{}", entry.rendered);
                let mut score = BigRational::zero();
                for s in containing {
                    score += &match weight {
                        WsmsWeight::Uniform => BigRational::one(),
                        WsmsWeight::SizeInverse => BigRational::from_i64_ratio(1, s.len() as i64),
                    };
                }
                assert_eq!(entry.score, score, "{}", entry.rendered);
            }
        }
    }

    fn university() -> Database {
        Database::parse(
            "exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\n\
             endo TA(Adam)\nendo TA(Ben)\n\
             exo Course(OS, EE)\nexo Course(DB, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Ben, OS)\nendo Reg(Caroline, DB)\n",
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_brute_force_on_hierarchical_queries() {
        let db = university();
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
        ] {
            assert_matches_brute(&db, AnyQuery::Cq(&parse_cq(text).unwrap()));
        }
    }

    #[test]
    fn handles_self_joins_the_exact_engines_reject() {
        let db = university();
        // Two students registered for one course: a self-join on Reg.
        let q = parse_cq("q() :- Reg(x, y), Reg(z, y)").unwrap();
        assert!(crate::satcount::resolve_query(&db, &q).is_err());
        assert_matches_brute(&db, AnyQuery::Cq(&q));
        // The (Adam, OS) valuation with x = z shows single facts are
        // already supports: every minimal support is a singleton.
        let report = wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::SizeInverse, None).unwrap();
        assert_eq!(report.minimal_supports, 3);
    }

    #[test]
    fn handles_non_hierarchical_queries() {
        let db = Database::parse(
            "endo R(a)\nendo R(b)\nendo S(a, u)\nexo S(b, u)\nendo T(u)\nendo T(v)\nexo S(b, v)\n",
        )
        .unwrap();
        let q = parse_cq("q() :- R(x), S(x, y), T(y)").unwrap();
        assert!(crate::satcount::resolve_query(&db, &q).is_err());
        assert_matches_brute(&db, AnyQuery::Cq(&q));
    }

    #[test]
    fn agrees_with_brute_force_on_unions() {
        let db = university();
        let u = parse_ucq("q() :- TA(x), !Reg(x, 'OS'); q() :- Reg('Caroline', y)").unwrap();
        assert_matches_brute(&db, AnyQuery::Union(&u));
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0x575_u64);
        let consts = ["a", "b", "c"];
        let queries = [
            "q() :- R(x), S(x, y)",
            "q() :- R(x), S(x, y), !R(y)",
            "q() :- S(x, y), S(y, z)",
            "q() :- R(x), !S(x, x)",
        ];
        for round in 0..12 {
            let mut spec = String::new();
            for &c in &consts {
                if rng.gen_bool(0.7) {
                    let kind = if rng.gen_bool(0.5) { "endo" } else { "exo" };
                    spec.push_str(&format!("{kind} R({c})\n"));
                }
            }
            for &c in &consts {
                for &d in &consts {
                    if rng.gen_bool(0.4) {
                        let kind = if rng.gen_bool(0.7) { "endo" } else { "exo" };
                        spec.push_str(&format!("{kind} S({c}, {d})\n"));
                    }
                }
            }
            if spec.is_empty() {
                continue;
            }
            let db = Database::parse(&spec).unwrap();
            for text in queries {
                let q = parse_cq(text).unwrap();
                assert_matches_brute(&db, AnyQuery::Cq(&q));
            }
            let _ = round;
        }
    }

    #[test]
    fn size_inverse_scores_sum_to_nonempty_support_count() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let report = wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::SizeInverse, None).unwrap();
        let total = report
            .entries
            .iter()
            .fold(BigRational::zero(), |mut acc, e| {
                acc += &e.score;
                acc
            });
        assert_eq!(total, BigRational::from_int(report.minimal_supports as i64));
        assert!(report.minimal_supports > 0);
    }

    #[test]
    fn query_already_true_under_exogenous_facts_has_the_empty_support() {
        let db = university();
        // Stud is exogenous: the empty world satisfies, so the only
        // minimal support is empty and nobody gets credit.
        let q = parse_cq("q() :- Stud(x)").unwrap();
        let report = wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::Uniform, None).unwrap();
        assert_eq!(report.minimal_supports, 1);
        assert!(report.entries.iter().all(|e| e.score.is_zero()));
        assert_matches_brute(&db, AnyQuery::Cq(&q));
    }

    #[test]
    fn unknown_relations_and_unsatisfiable_disjuncts() {
        let db = university();
        let q = parse_cq("q() :- Ghost(x)").unwrap();
        let report = wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::Uniform, None).unwrap();
        assert_eq!(report.minimal_supports, 0);
        // A vacuous negation over an unknown relation is dropped,
        // leaving a tautology.
        let t = parse_cq("q() :- !Ghost('x')").unwrap();
        let report = wsms_report(&db, AnyQuery::Cq(&t), WsmsWeight::Uniform, None).unwrap();
        assert_eq!(report.minimal_supports, 1);
        assert_matches_brute(&db, AnyQuery::Cq(&q));
        assert_matches_brute(&db, AnyQuery::Cq(&t));
    }

    #[test]
    fn arity_clash_is_rejected() {
        let db = university();
        let q = parse_cq("q() :- TA(x, y)").unwrap();
        assert!(matches!(
            wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::Uniform, None),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn tripped_budget_aborts_with_the_wsms_phase() {
        let db = university();
        let q = parse_cq("q() :- Reg(x, y), Reg(z, y)").unwrap();
        let token = Budget::work_units(1).token();
        let err =
            wsms_report(&db, AnyQuery::Cq(&q), WsmsWeight::Uniform, Some(&token)).unwrap_err();
        match err {
            CoreError::DeadlineExceeded { phase, .. } => assert_eq!(phase, "wsms"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
