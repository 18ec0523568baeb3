//! Shapley-preserving hardness embeddings.
//!
//! The hardness sides of both dichotomies transfer hardness from the
//! four basic queries (`q_RST`, `q_¬RS¬T`, `q_R¬ST`, `q_RS¬T`) to
//! arbitrary queries by *embedding* an instance of the basic query into
//! an instance of the target query, preserving every fact's Shapley
//! value:
//!
//! * [`embed_triplet`] — Lemma B.4: the target's non-hierarchical
//!   triplet `(αx, αx,y, αy)` plays `(R, S, T)`; every other variable is
//!   pinned to the constant `⊙`.
//! * [`embed_path`] — Appendix C (Theorem 4.3's hardness side): the
//!   target's non-hierarchical *path* carries the `S(a,b)` connection as
//!   a pair constant `⟨a,b⟩`; relations of negated atoms are then
//!   complemented over the active domain.
//!
//! Instances are assumed to be shaped like the hardness proofs' inputs:
//! `S` fully exogenous, every `S(a,b)` supported by `R(a)` and `T(b)`,
//! and disjoint `R`/`T` domains ([`base_instance_is_admissible`]).

use std::collections::HashMap;

use cqshap_core::CoreError;
use cqshap_db::{Database, FactId, Provenance, Tuple};
use cqshap_query::{
    non_hierarchical_path, parse_cq, preferred_triplet, Atom, ConjunctiveQuery, Term,
    TripletVariant, Var,
};

/// The basic hard query a [`TripletVariant`] reduces from.
pub fn base_query(variant: TripletVariant) -> ConjunctiveQuery {
    let text = match variant {
        TripletVariant::Rst => "qRST() :- R(x), S(x, y), T(y)",
        TripletVariant::NegRSNegT => "qnRSnT() :- !R(x), S(x, y), !T(y)",
        TripletVariant::RNegST => "qRnST() :- R(x), !S(x, y), T(y)",
        TripletVariant::RSNegT => "qRSnT() :- R(x), S(x, y), !T(y)",
    };
    parse_cq(text).expect("static query parses")
}

/// An embedded instance: the target database plus the fact
/// correspondence for endogenous facts.
#[derive(Debug, Clone)]
pub struct EmbeddedInstance {
    /// The database for the target query.
    pub db: Database,
    /// Base endogenous fact → embedded endogenous fact.
    pub fact_map: HashMap<FactId, FactId>,
    /// The basic query the base instance is over.
    pub base: ConjunctiveQuery,
}

/// Checks the hardness-instance shape: relations `R/1`, `S/2`, `T/1`;
/// `S` exogenous; `R(a)`, `T(b)` present for every `S(a,b)`; disjoint
/// `R`/`T` domains.
pub fn base_instance_is_admissible(db: &Database) -> bool {
    let (Some(r), Some(s), Some(t)) = (
        db.schema().id("R"),
        db.schema().id("S"),
        db.schema().id("T"),
    ) else {
        return false;
    };
    if db.schema().arity(r) != 1 || db.schema().arity(s) != 2 || db.schema().arity(t) != 1 {
        return false;
    }
    let r_dom: Vec<_> = db
        .relation_facts(r)
        .iter()
        .map(|&f| db.fact(f).tuple.values()[0])
        .collect();
    let t_dom: Vec<_> = db
        .relation_facts(t)
        .iter()
        .map(|&f| db.fact(f).tuple.values()[0])
        .collect();
    if r_dom.iter().any(|c| t_dom.contains(c)) {
        return false;
    }
    db.relation_facts(s).iter().all(|&f| {
        let fact = db.fact(f);
        !fact.provenance.is_endogenous()
            && r_dom.contains(&fact.tuple.values()[0])
            && t_dom.contains(&fact.tuple.values()[1])
    })
}

fn insert_dedup(
    db: &mut Database,
    rel: cqshap_db::RelId,
    tuple: Tuple,
    provenance: Provenance,
) -> Result<Option<FactId>, CoreError> {
    match db.insert_tuple(rel, tuple, provenance) {
        Ok(f) => Ok(Some(f)),
        Err(cqshap_db::DbError::DuplicateFact { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Maps an atom's terms under `x → a, y → b, path vars → pair, others
/// → ⊙`; `pair` is `None` outside the path construction.
#[expect(
    clippy::too_many_arguments,
    reason = "a grounding context, passed flat on purpose"
)]
fn image_tuple(
    db: &mut Database,
    atom: &Atom,
    var_x: Var,
    a: &str,
    var_y: Var,
    b: &str,
    path_vars: &[Var],
    pair: Option<&str>,
) -> Tuple {
    let vals: Vec<cqshap_db::ConstId> = atom
        .terms
        .iter()
        .map(|term| match term {
            Term::Const(c) => db.intern(c),
            Term::Var(v) if *v == var_x => db.intern(a),
            Term::Var(v) if *v == var_y => db.intern(b),
            Term::Var(v) if path_vars.contains(v) => {
                db.intern(pair.expect("path construction supplies pair constants"))
            }
            Term::Var(_) => db.intern("⊙"),
        })
        .collect();
    Tuple::from(vals)
}

/// Lemma B.4: embeds a base instance of the triplet's basic query into
/// an instance of the non-hierarchical target `q`, preserving Shapley
/// values of all (mapped) endogenous facts.
///
/// # Errors
/// [`CoreError::Unsupported`] when `q` is hierarchical or the base
/// instance is not admissible.
pub fn embed_triplet(q: &ConjunctiveQuery, base: &Database) -> Result<EmbeddedInstance, CoreError> {
    let (triplet, variant) = preferred_triplet(q)
        .ok_or_else(|| CoreError::Unsupported(format!("{q} is hierarchical")))?;
    if !base_instance_is_admissible(base) {
        return Err(CoreError::Unsupported(
            "base instance is not admissible".into(),
        ));
    }
    let mut db = Database::new();
    for atom in q.atoms() {
        db.add_relation(&atom.relation, atom.terms.len())?;
    }
    let mut fact_map = HashMap::new();
    let (r, s, t) = (
        base.schema().id("R").expect("admissible"),
        base.schema().id("S").expect("admissible"),
        base.schema().id("T").expect("admissible"),
    );
    let atom_x = &q.atoms()[triplet.atom_x];
    let atom_y = &q.atoms()[triplet.atom_y];
    let (vx, vy) = (triplet.var_x, triplet.var_y);

    // R(a) facts → images under αx; T(b) facts → images under αy.
    for (base_rel, atom) in [(r, atom_x), (t, atom_y)] {
        let target_rel = db.schema().id(&atom.relation).expect("registered");
        for &bf in base.relation_facts(base_rel) {
            let fact = base.fact(bf);
            let name = base.interner().resolve(fact.tuple.values()[0]).to_string();
            let tuple = image_tuple(&mut db, atom, vx, &name, vy, &name, &[], None);
            if let Some(new) = insert_dedup(&mut db, target_rel, tuple, fact.provenance)? {
                if fact.provenance.is_endogenous() {
                    fact_map.insert(bf, new);
                }
            }
        }
    }

    // S(a,b) facts → exogenous images under αx,y and under every other
    // positive atom.
    for &bf in base.relation_facts(s) {
        let fact = base.fact(bf);
        let a = base.interner().resolve(fact.tuple.values()[0]).to_string();
        let b = base.interner().resolve(fact.tuple.values()[1]).to_string();
        for (i, atom) in q.atoms().iter().enumerate() {
            if i == triplet.atom_x || i == triplet.atom_y {
                continue;
            }
            if i != triplet.atom_xy && atom.negated {
                continue; // other negated relations stay empty
            }
            let target_rel = db.schema().id(&atom.relation).expect("registered");
            let tuple = image_tuple(&mut db, atom, vx, &a, vy, &b, &[], None);
            insert_dedup(&mut db, target_rel, tuple, Provenance::Exogenous)?;
        }
    }
    Ok(EmbeddedInstance {
        db,
        fact_map,
        base: base_query(variant),
    })
}

/// Appendix C: embeds a base instance along a non-hierarchical *path*
/// of `q` with respect to the exogenous relations `exo`, preserving
/// Shapley values. The base query is determined by the polarities of the
/// path-inducing atoms: both positive → `q_RST`; both negative →
/// `q_¬RS¬T`; mixed → `q_RS¬T`.
///
/// # Errors
/// [`CoreError::Unsupported`] when `q` has no non-hierarchical path, the
/// base is inadmissible, or a complement materialization exceeds
/// `tuple_budget`.
pub fn embed_path(
    q: &ConjunctiveQuery,
    exo: &std::collections::HashSet<String>,
    base: &Database,
    tuple_budget: usize,
) -> Result<EmbeddedInstance, CoreError> {
    let path = non_hierarchical_path(q, exo).ok_or_else(|| {
        CoreError::Unsupported(format!(
            "{q} has no non-hierarchical path w.r.t. the given X"
        ))
    })?;
    if !base_instance_is_admissible(base) {
        return Err(CoreError::Unsupported(
            "base instance is not admissible".into(),
        ));
    }
    // Orient so that a negated endpoint plays T when the other is
    // positive (the q_RS¬T case).
    let (mut ax, mut ay, mut vx, mut vy) = (path.atom_x, path.atom_y, path.var_x, path.var_y);
    let (nx, ny) = (q.atoms()[ax].negated, q.atoms()[ay].negated);
    if nx && !ny {
        std::mem::swap(&mut ax, &mut ay);
        std::mem::swap(&mut vx, &mut vy);
    }
    let variant = match (q.atoms()[ax].negated, q.atoms()[ay].negated) {
        (false, false) => TripletVariant::Rst,
        (true, true) => TripletVariant::NegRSNegT,
        (false, true) => TripletVariant::RSNegT,
        (true, false) => unreachable!("orientation fixed above"),
    };
    let inner: Vec<Var> = path
        .path
        .iter()
        .copied()
        .filter(|v| *v != path.var_x && *v != path.var_y)
        .collect();

    // ---- D′ ----
    let mut db = Database::new();
    for atom in q.atoms() {
        db.add_relation(&atom.relation, atom.terms.len())?;
    }
    let mut fact_map = HashMap::new();
    let (r, s, t) = (
        base.schema().id("R").expect("admissible"),
        base.schema().id("S").expect("admissible"),
        base.schema().id("T").expect("admissible"),
    );
    for (base_rel, atom_idx) in [(r, ax), (t, ay)] {
        let atom = &q.atoms()[atom_idx];
        let target_rel = db.schema().id(&atom.relation).expect("registered");
        for &bf in base.relation_facts(base_rel) {
            let fact = base.fact(bf);
            let name = base.interner().resolve(fact.tuple.values()[0]).to_string();
            let tuple = image_tuple(&mut db, atom, vx, &name, vy, &name, &[], None);
            if let Some(new) = insert_dedup(&mut db, target_rel, tuple, fact.provenance)? {
                if fact.provenance.is_endogenous() {
                    fact_map.insert(bf, new);
                }
            }
        }
    }
    for &bf in base.relation_facts(s) {
        let fact = base.fact(bf);
        let a = base.interner().resolve(fact.tuple.values()[0]).to_string();
        let b = base.interner().resolve(fact.tuple.values()[1]).to_string();
        let pair = format!("⟨{a},{b}⟩");
        for (i, atom) in q.atoms().iter().enumerate() {
            if i == ax || i == ay {
                continue;
            }
            let target_rel = db.schema().id(&atom.relation).expect("registered");
            let tuple = image_tuple(&mut db, atom, vx, &a, vy, &b, &inner, Some(&pair));
            insert_dedup(&mut db, target_rel, tuple, Provenance::Exogenous)?;
        }
    }

    // ---- D″: relations of negated atoms are *replaced* by their
    // complement over the domain of D′ (endogenous facts are copied
    // unchanged; exogenous facts of negated relations are dropped). ----
    let negated_rels: std::collections::HashSet<cqshap_db::RelId> = q
        .atoms()
        .iter()
        .filter(|a| a.negated)
        .map(|a| db.schema().id(&a.relation).expect("registered"))
        .collect();
    // A negated endpoint atom must carry only endogenous facts — this is
    // the shape of all the hardness-proof instances; an exogenous
    // endpoint fact would be erased by the complementation.
    for (atom_idx, base_rel) in [(ax, r), (ay, t)] {
        if q.atoms()[atom_idx].negated {
            let all_endo = base
                .relation_facts(base_rel)
                .iter()
                .all(|&f| base.fact(f).provenance.is_endogenous());
            if !all_endo {
                return Err(CoreError::Unsupported(
                    "a negated path endpoint requires an all-endogenous base relation".into(),
                ));
            }
        }
    }
    let domain = db.active_domain();
    let mut complements: Vec<(cqshap_db::RelId, Vec<Tuple>)> = Vec::new();
    for &rel in &negated_rels {
        complements.push((
            rel,
            cqshap_db::complement::complement_tuples(&db, rel, &domain, tuple_budget)?,
        ));
    }
    let mut out = Database::new();
    for atom in q.atoms() {
        out.add_relation(&atom.relation, atom.terms.len())?;
    }
    let mut out_map = HashMap::new();
    for fid in db.fact_ids() {
        let fact = db.fact(fid);
        if !fact.provenance.is_endogenous() && negated_rels.contains(&fact.rel) {
            continue; // replaced by the complement
        }
        // Re-intern tuple constants into the fresh database.
        let tuple: Vec<cqshap_db::ConstId> = fact
            .tuple
            .values()
            .iter()
            .map(|&c| out.intern(db.interner().resolve(c)))
            .collect();
        let rel = out
            .schema()
            .id(db.schema().name(fact.rel))
            .expect("registered");
        let new = out.insert_tuple(rel, Tuple::from(tuple), fact.provenance)?;
        out_map.insert(fid, new);
    }
    for (rel, tuples) in complements {
        let out_rel = out.schema().id(db.schema().name(rel)).expect("registered");
        for tuple in tuples {
            let re_interned: Vec<cqshap_db::ConstId> = tuple
                .values()
                .iter()
                .map(|&c| out.intern(db.interner().resolve(c)))
                .collect();
            out.insert_tuple(out_rel, Tuple::from(re_interned), Provenance::Exogenous)?;
        }
    }
    let fact_map = fact_map
        .into_iter()
        .map(|(base_f, d1_f)| (base_f, out_map[&d1_f]))
        .collect();
    Ok(EmbeddedInstance {
        db: out,
        fact_map,
        base: base_query(variant),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_core::{shapley_via_counts, AnyQuery, BruteForceCounter};
    use std::collections::HashSet;

    /// Builds an admissible base instance from bit patterns: left values
    /// `a0..`, right values `b0..`; `S ⊆ A × B` from `s_mask`.
    fn base_instance(la: usize, lb: usize, s_mask: u32, exo_t_mask: u32) -> Database {
        let mut db = Database::new();
        db.add_relation("R", 1).unwrap();
        db.add_relation("S", 2).unwrap();
        db.add_relation("T", 1).unwrap();
        for i in 0..la {
            db.add_endo("R", &[&format!("a{i}")]).unwrap();
        }
        for j in 0..lb {
            if exo_t_mask & (1 << j) != 0 {
                db.add_exo("T", &[&format!("b{j}")]).unwrap();
            } else {
                db.add_endo("T", &[&format!("b{j}")]).unwrap();
            }
        }
        let mut bit = 0;
        for i in 0..la {
            for j in 0..lb {
                if s_mask & (1 << bit) != 0 {
                    db.add_exo("S", &[&format!("a{i}"), &format!("b{j}")])
                        .unwrap();
                }
                bit += 1;
            }
        }
        db
    }

    fn check_embedding(q_text: &str, base: &Database) {
        let q = cqshap_query::parse_cq(q_text).unwrap();
        let emb = embed_triplet(&q, base).unwrap();
        assert_eq!(emb.db.endo_count(), base.endo_count(), "{q_text}");
        let oracle = BruteForceCounter::default();
        for (&bf, &ef) in &emb.fact_map {
            let base_v = shapley_via_counts(base, AnyQuery::Cq(&emb.base), bf, &oracle).unwrap();
            let emb_v = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).unwrap();
            assert_eq!(
                base_v,
                emb_v,
                "{q_text}: {} vs {}",
                base.render_fact(bf),
                emb.db.render_fact(ef)
            );
        }
    }

    #[test]
    fn embeds_into_q2_of_the_running_example() {
        // q2 is non-hierarchical with triplet variant RS¬T.
        let base = base_instance(2, 2, 0b0111, 0b00);
        check_embedding(
            "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')",
            &base,
        );
    }

    #[test]
    fn embeds_into_wider_queries() {
        let base = base_instance(2, 2, 0b1011, 0b01);
        // Positive triplet (q_RST shape) inside a 4-atom query.
        check_embedding("q() :- A(x), B(x, y, z), C(y), D(z, w)", &base);
        // Negative endpoints (q_¬RS¬T shape).
        check_embedding("q() :- !A(x), P(x), B(x, y), !C(y), Q(y)", &base);
        // Negative middle (q_R¬ST shape).
        check_embedding("q() :- A(x), !B(x, y), C(y)", &base);
    }

    #[test]
    fn exhaustive_small_bases_on_q_rs_not_t_variant() {
        // All S-subsets of a 2×1 base: the embedding must track exactly.
        for s_mask in 0u32..4 {
            let base = base_instance(2, 1, s_mask, 0);
            check_embedding("q() :- A(x), M(x, v, y), !C(y)", &base);
        }
    }

    #[test]
    fn hierarchical_target_rejected() {
        let base = base_instance(1, 1, 1, 0);
        let q = cqshap_query::parse_cq("q() :- A(x), B(x, y)").unwrap();
        assert!(matches!(
            embed_triplet(&q, &base),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn inadmissible_base_rejected() {
        // Endogenous S fact.
        let mut bad = Database::new();
        bad.add_endo("R", &["a0"]).unwrap();
        bad.add_endo("T", &["b0"]).unwrap();
        bad.add_endo("S", &["a0", "b0"]).unwrap();
        let q = cqshap_query::parse_cq("q() :- A(x), B(x, y), C(y)").unwrap();
        assert!(embed_triplet(&q, &bad).is_err());
        assert!(!base_instance_is_admissible(&bad));
    }

    #[test]
    fn path_embedding_section_4_1_query() {
        // q′ of Section 4.1: ¬R(x,w), S(z,x), ¬P(z,y), T(y,w) with
        // X = {S, P} has a non-hierarchical path; its inducing atoms are
        // ¬R and T (mixed polarity → base q_RS¬T... orientation may vary).
        let q = cqshap_query::parse_cq("q() :- !R(x, w), S(z, x), !P(z, y), T(y, w)").unwrap();
        let exo: HashSet<String> = ["S", "P"].iter().map(|s| s.to_string()).collect();
        let base = base_instance(2, 1, 0b11, 0);
        let emb = embed_path(&q, &exo, &base, 1_000_000).unwrap();
        let oracle = BruteForceCounter::default();
        for (&bf, &ef) in &emb.fact_map {
            let base_v = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).unwrap();
            let emb_v = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).unwrap();
            assert_eq!(
                base_v,
                emb_v,
                "{} vs {}",
                base.render_fact(bf),
                emb.db.render_fact(ef)
            );
        }
    }

    #[test]
    fn path_embedding_positive_chain() {
        // A positive 4-chain: path x - y - z - w between A(x) and D(w)
        // when B, C are exogenous.
        let q = cqshap_query::parse_cq("q() :- A(x), B(x, y), C(y, z), D(z)").unwrap();
        let exo: HashSet<String> = ["B", "C"].iter().map(|s| s.to_string()).collect();
        let base = base_instance(2, 2, 0b0110, 0b10);
        let emb = embed_path(&q, &exo, &base, 1_000_000).unwrap();
        let oracle = BruteForceCounter::default();
        for (&bf, &ef) in &emb.fact_map {
            let base_v = shapley_via_counts(&base, AnyQuery::Cq(&emb.base), bf, &oracle).unwrap();
            let emb_v = shapley_via_counts(&emb.db, AnyQuery::Cq(&q), ef, &oracle).unwrap();
            assert_eq!(base_v, emb_v);
        }
    }
}
