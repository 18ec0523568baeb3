//! The database: facts with an endogenous/exogenous partition.
#![expect(
    clippy::indexing_slicing,
    reason = "fact and relation tables are indexed by ids this database issued"
)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::DbError;
use crate::fact::{Fact, FactId, Provenance, Tuple};
use crate::interner::{ConstId, Interner};
use crate::schema::{RelId, Schema};

/// A database `D = Dx ∪ Dn` over a schema, with optional exogenous-relation
/// declarations (the set `X` of Section 4 of the paper).
#[derive(Debug, Clone, Default)]
pub struct Database {
    schema: Schema,
    interner: Interner,
    facts: Vec<Fact>,
    by_relation: Vec<RelationFacts>,
    endo: Vec<FactId>,
    /// Position within `endo` of each fact, indexed by [`FactId`];
    /// `None` for exogenous and retracted facts.
    endo_pos: Vec<Option<u32>>,
    exo_relations: HashSet<RelId>,
    /// Tombstones of retracted facts (indexed by [`FactId`]). Retraction
    /// keeps ids stable so compiled structures built before an update
    /// can be maintained incrementally instead of rebuilt.
    retracted: Vec<bool>,
}

/// The live facts of one relation.
#[derive(Debug, Clone, Default)]
struct RelationFacts {
    /// Fact ids in insertion order.
    ids: Vec<FactId>,
    /// Tuple → fact id.
    index: HashMap<Tuple, FactId>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Schema & constants
    // ------------------------------------------------------------------

    /// Declares (or re-declares) a relation.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Result<RelId, DbError> {
        let id = self.schema.add_relation(name, arity)?;
        if id.index() >= self.by_relation.len() {
            self.by_relation.push(RelationFacts::default());
        }
        Ok(id)
    }

    /// Declares `rel` as an exogenous relation (member of `X`).
    ///
    /// # Errors
    /// [`DbError::ExogenousViolation`] if it already has endogenous facts.
    pub fn declare_exogenous_relation(&mut self, rel: RelId) -> Result<(), DbError> {
        let has_endo = self.by_relation[rel.index()]
            .ids
            .iter()
            .any(|&f| self.facts[f.index()].provenance.is_endogenous());
        if has_endo {
            return Err(DbError::ExogenousViolation {
                relation: self.schema.name(rel).to_string(),
            });
        }
        self.exo_relations.insert(rel);
        Ok(())
    }

    /// Is `rel` declared exogenous?
    pub fn is_exogenous_relation(&self, rel: RelId) -> bool {
        self.exo_relations.contains(&rel)
    }

    /// Names of all declared exogenous relations.
    pub fn exogenous_relation_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self
            .exo_relations
            .iter()
            .map(|&r| self.schema.name(r).to_string())
            .collect();
        names.sort();
        names
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The constant interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner (gadget builders mint fresh
    /// constants through this).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Interns a constant.
    pub fn intern(&mut self, name: &str) -> ConstId {
        self.interner.intern(name)
    }

    // ------------------------------------------------------------------
    // Fact insertion
    // ------------------------------------------------------------------

    /// Inserts a fact with interned constants.
    pub fn insert_tuple(
        &mut self,
        rel: RelId,
        tuple: Tuple,
        provenance: Provenance,
    ) -> Result<FactId, DbError> {
        let def = self.schema.def(rel);
        if tuple.arity() != def.arity {
            return Err(DbError::ArityMismatch {
                relation: def.name.clone(),
                expected: def.arity,
                got: tuple.arity(),
            });
        }
        if provenance.is_endogenous() && self.exo_relations.contains(&rel) {
            return Err(DbError::ExogenousViolation {
                relation: def.name.clone(),
            });
        }
        let relation = &mut self.by_relation[rel.index()];
        if relation.index.contains_key(&tuple) {
            return Err(DbError::DuplicateFact {
                fact: self.render(rel, &tuple),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "documented capacity limit: the fact id space is u32"
        )]
        let id = FactId(u32::try_from(self.facts.len()).expect("too many facts"));
        relation.index.insert(tuple.clone(), id);
        relation.ids.push(id);
        self.endo_pos.push(None);
        if provenance.is_endogenous() {
            self.push_endo(id);
        }
        self.facts.push(Fact {
            rel,
            tuple,
            provenance,
        });
        self.retracted.push(false);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // In-place updates (stable fact ids)
    // ------------------------------------------------------------------
    //
    // Unlike the modified-copy constructors below, these mutate the
    // database while keeping every other fact's id unchanged, so a
    // compiled Shapley engine can be *maintained* across the update
    // (see `cqshap_core::session::ShapleySession`).

    /// Retracts a fact in place, leaving a tombstone so every other
    /// fact's id stays valid. The fact disappears from its relation,
    /// the tuple index, and (if endogenous) `Dn`; its tuple may later be
    /// re-inserted under a fresh id.
    ///
    /// # Errors
    /// [`DbError::UnknownFact`] on dangling or already-retracted ids.
    pub fn retract_fact(&mut self, f: FactId) -> Result<(), DbError> {
        if f.index() >= self.facts.len() || self.retracted[f.index()] {
            return Err(DbError::UnknownFact { id: f.0 });
        }
        let fact = &self.facts[f.index()];
        let relation = &mut self.by_relation[fact.rel.index()];
        relation.index.remove(&fact.tuple);
        relation.ids.retain(|&id| id != f);
        if fact.provenance.is_endogenous() {
            self.remove_endo(f);
        }
        self.retracted[f.index()] = true;
        Ok(())
    }

    /// Flips a fact's provenance in place (endogenous ⇄ exogenous),
    /// keeping every fact id stable. Making a fact endogenous respects
    /// the declared exogenous relations; flipping to the provenance a
    /// fact already has is a no-op.
    ///
    /// Endogenous order: a fact flipped to endogenous joins the *end* of
    /// [`Database::endo_facts`]; a fact flipped to exogenous leaves it,
    /// shifting later positions down by one.
    ///
    /// # Errors
    /// [`DbError::UnknownFact`] on dangling or retracted ids;
    /// [`DbError::ExogenousViolation`] when endogenizing a fact of a
    /// declared exogenous relation.
    pub fn set_fact_provenance(
        &mut self,
        f: FactId,
        provenance: Provenance,
    ) -> Result<(), DbError> {
        if f.index() >= self.facts.len() || self.retracted[f.index()] {
            return Err(DbError::UnknownFact { id: f.0 });
        }
        let fact = &self.facts[f.index()];
        if fact.provenance == provenance {
            return Ok(());
        }
        if provenance.is_endogenous() && self.exo_relations.contains(&fact.rel) {
            return Err(DbError::ExogenousViolation {
                relation: self.schema.name(fact.rel).to_string(),
            });
        }
        self.facts[f.index()].provenance = provenance;
        if provenance.is_endogenous() {
            self.push_endo(f);
        } else {
            self.remove_endo(f);
        }
        Ok(())
    }

    /// Has `f` been retracted in place?
    pub fn is_retracted(&self, f: FactId) -> bool {
        self.retracted.get(f.index()).copied().unwrap_or(false)
    }

    /// Appends `f` to the endogenous list.
    fn push_endo(&mut self, f: FactId) {
        if let Some(slot) = self.endo_pos.get_mut(f.index()) {
            // Positions fit in u32: they are bounded by the fact id space.
            *slot = Some(self.endo.len() as u32);
            self.endo.push(f);
        }
    }

    /// Removes `f` from the endogenous list, shifting later positions.
    fn remove_endo(&mut self, f: FactId) {
        let Some(pos) = self.endo_pos.get_mut(f.index()).and_then(Option::take) else {
            return;
        };
        let pos = pos as usize;
        self.endo.remove(pos);
        for later in &self.endo[pos..] {
            if let Some(Some(p)) = self.endo_pos.get_mut(later.index()) {
                *p -= 1;
            }
        }
    }

    /// Inserts a fact given constant names, interning as needed.
    pub fn insert(
        &mut self,
        rel_name: &str,
        constants: &[&str],
        provenance: Provenance,
    ) -> Result<FactId, DbError> {
        let rel = self.add_relation(rel_name, constants.len())?;
        let ids: Vec<ConstId> = constants.iter().map(|c| self.interner.intern(c)).collect();
        self.insert_tuple(rel, ids.into(), provenance)
    }

    /// Inserts an endogenous fact by names.
    pub fn add_endo(&mut self, rel_name: &str, constants: &[&str]) -> Result<FactId, DbError> {
        self.insert(rel_name, constants, Provenance::Endogenous)
    }

    /// Inserts an exogenous fact by names.
    pub fn add_exo(&mut self, rel_name: &str, constants: &[&str]) -> Result<FactId, DbError> {
        self.insert(rel_name, constants, Provenance::Exogenous)
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// The fact with id `id`.
    ///
    /// # Panics
    /// Panics on out-of-range ids — ids from *this* database are always
    /// in range, so this is the right entry point for internal callers.
    /// Code handling ids from user input should prefer
    /// [`Database::try_fact`].
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: a dangling id here is a caller bug; user-input paths go through try_fact"
    )]
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.index()]
    }

    /// The fact with id `id`, or [`DbError::UnknownFact`] when the id
    /// was never issued by this database (e.g. it arrived from user
    /// input or from a different database). Retracted facts still
    /// resolve — their tombstones keep the id space stable; check
    /// [`Database::is_retracted`] separately when liveness matters.
    pub fn try_fact(&self, id: FactId) -> Result<&Fact, DbError> {
        self.facts
            .get(id.index())
            .ok_or(DbError::UnknownFact { id: id.0 })
    }

    /// Total number of fact ids ever issued (the id-space bound;
    /// includes tombstones of retracted facts).
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Iterates all live (non-retracted) fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.facts.len() as u32)
            .map(FactId)
            .filter(|f| !self.retracted[f.index()])
    }

    /// The endogenous facts `Dn`, in insertion order.
    pub fn endo_facts(&self) -> &[FactId] {
        &self.endo
    }

    /// Number of endogenous facts `|Dn|`.
    pub fn endo_count(&self) -> usize {
        self.endo.len()
    }

    /// The position of `id` within [`Database::endo_facts`], if endogenous.
    pub fn endo_index(&self, id: FactId) -> Option<usize> {
        self.endo_pos
            .get(id.index())
            .copied()
            .flatten()
            .map(|p| p as usize)
    }

    /// Fact ids of `rel`, in insertion order.
    pub fn relation_facts(&self, rel: RelId) -> &[FactId] {
        &self.by_relation[rel.index()].ids
    }

    /// Looks up a fact by relation and tuple.
    pub fn lookup(&self, rel: RelId, tuple: &Tuple) -> Option<FactId> {
        self.by_relation.get(rel.index())?.index.get(tuple).copied()
    }

    /// Looks up a fact by relation name and constant names.
    pub fn find_fact(&self, rel_name: &str, constants: &[&str]) -> Option<FactId> {
        let rel = self.schema.id(rel_name)?;
        let mut ids = Vec::with_capacity(constants.len());
        for c in constants {
            ids.push(self.interner.get(c)?);
        }
        self.lookup(rel, &Tuple::from(ids))
    }

    /// All constants appearing in facts (the active domain `Dom(D)`),
    /// in first-appearance order, deduplicated.
    pub fn active_domain(&self) -> Vec<ConstId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for f in self.fact_ids().map(|id| self.fact(id)) {
            for &c in f.tuple.values() {
                if seen.insert(c) {
                    out.push(c);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Modified copies (used by the Shapley-via-|Sat| reduction)
    // ------------------------------------------------------------------

    /// A copy of the database with fact `removed` deleted.
    ///
    /// Returns the copy and a map from old ids to new ids (the removed
    /// fact is absent from the map).
    pub fn without_fact(
        &self,
        removed: FactId,
    ) -> Result<(Database, HashMap<FactId, FactId>), DbError> {
        if removed.index() >= self.facts.len() {
            return Err(DbError::UnknownFact { id: removed.0 });
        }
        self.rebuild(|id, fact| {
            if id == removed {
                None
            } else {
                Some(fact.provenance)
            }
        })
    }

    /// A copy of the database with fact `target` made exogenous.
    ///
    /// Note: `target`'s relation keeps its (non-)membership in `X`; this
    /// only flips the single fact's provenance, which is what the Shapley
    /// reduction requires.
    pub fn with_fact_exogenous(
        &self,
        target: FactId,
    ) -> Result<(Database, HashMap<FactId, FactId>), DbError> {
        if target.index() >= self.facts.len() {
            return Err(DbError::UnknownFact { id: target.0 });
        }
        self.rebuild(|id, fact| {
            Some(if id == target {
                Provenance::Exogenous
            } else {
                fact.provenance
            })
        })
    }

    fn rebuild(
        &self,
        mut keep: impl FnMut(FactId, &Fact) -> Option<Provenance>,
    ) -> Result<(Database, HashMap<FactId, FactId>), DbError> {
        let mut out = Database {
            schema: self.schema.clone(),
            interner: self.interner.clone(),
            by_relation: vec![RelationFacts::default(); self.by_relation.len()],
            // `exo_relations` is rebuilt below: flipping a fact to
            // exogenous never invalidates a declaration.
            exo_relations: self.exo_relations.clone(),
            ..Database::default()
        };
        let mut map = HashMap::new();
        for id in self.fact_ids() {
            let fact = self.fact(id);
            if let Some(provenance) = keep(id, fact) {
                let new_id = out.insert_tuple(fact.rel, fact.tuple.clone(), provenance)?;
                map.insert(id, new_id);
            }
        }
        Ok((out, map))
    }

    // ------------------------------------------------------------------
    // Rendering
    // ------------------------------------------------------------------

    /// Renders a `(relation, tuple)` pair, e.g. `Reg(Adam, OS)`.
    pub fn render(&self, rel: RelId, tuple: &Tuple) -> String {
        let args: Vec<&str> = tuple
            .values()
            .iter()
            .map(|&c| self.interner.resolve(c))
            .collect();
        format!("{}({})", self.schema.name(rel), args.join(", "))
    }

    /// Renders the fact with id `id`.
    pub fn render_fact(&self, id: FactId) -> String {
        let f = self.fact(id);
        self.render(f.rel, &f.tuple)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel_name in self.exogenous_relation_names() {
            writeln!(f, "exorel {rel_name}")?;
        }
        for id in self.fact_ids() {
            let fact = self.fact(id);
            let kind = if fact.provenance.is_endogenous() {
                "endo"
            } else {
                "exo "
            };
            writeln!(f, "{kind} {}", self.render_fact(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        db.add_exo("Stud", &["Adam"]).unwrap();
        db.add_endo("TA", &["Adam"]).unwrap();
        db.add_endo("Reg", &["Adam", "OS"]).unwrap();
        db
    }

    #[test]
    fn insert_and_lookup() {
        let db = sample();
        assert_eq!(db.fact_count(), 3);
        assert_eq!(db.endo_count(), 2);
        let f = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        assert_eq!(db.render_fact(f), "Reg(Adam, OS)");
        assert_eq!(db.endo_index(f), Some(1));
        assert!(db.find_fact("Reg", &["Ben", "OS"]).is_none());
        assert!(db.find_fact("Nope", &["x"]).is_none());
    }

    #[test]
    fn duplicates_rejected() {
        let mut db = sample();
        let err = db.add_endo("TA", &["Adam"]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateFact { .. }));
    }

    #[test]
    fn arity_enforced() {
        let mut db = sample();
        let err = db.add_endo("Reg", &["Adam"]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    #[test]
    fn exogenous_relation_constraint() {
        let mut db = Database::new();
        let rel = db.add_relation("Pub", 2).unwrap();
        db.declare_exogenous_relation(rel).unwrap();
        db.add_exo("Pub", &["p1", "x"]).unwrap();
        let err = db.add_endo("Pub", &["p2", "y"]).unwrap_err();
        assert!(matches!(err, DbError::ExogenousViolation { .. }));

        // Declaring after endogenous facts exist also fails.
        let mut db2 = Database::new();
        let rel2 = db2.add_relation("TA", 1).unwrap();
        db2.add_endo("TA", &["Adam"]).unwrap();
        assert!(db2.declare_exogenous_relation(rel2).is_err());
    }

    #[test]
    fn active_domain_dedupes() {
        let db = sample();
        let dom = db.active_domain();
        let names: Vec<&str> = dom.iter().map(|&c| db.interner().resolve(c)).collect();
        assert_eq!(names, vec!["Adam", "OS"]);
    }

    #[test]
    fn without_fact() {
        let db = sample();
        let ta = db.find_fact("TA", &["Adam"]).unwrap();
        let (db2, map) = db.without_fact(ta).unwrap();
        assert_eq!(db2.fact_count(), 2);
        assert_eq!(db2.endo_count(), 1);
        assert!(!map.contains_key(&ta));
        assert!(db2.find_fact("TA", &["Adam"]).is_none());
        assert!(db2.find_fact("Reg", &["Adam", "OS"]).is_some());
    }

    #[test]
    fn with_fact_exogenous() {
        let db = sample();
        let ta = db.find_fact("TA", &["Adam"]).unwrap();
        let (db2, map) = db.with_fact_exogenous(ta).unwrap();
        assert_eq!(db2.fact_count(), 3);
        assert_eq!(db2.endo_count(), 1);
        let new_ta = map[&ta];
        assert!(!db2.fact(new_ta).provenance.is_endogenous());
    }

    #[test]
    fn retract_fact_keeps_ids_stable() {
        let mut db = sample();
        let ta = db.find_fact("TA", &["Adam"]).unwrap();
        let reg = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        db.retract_fact(ta).unwrap();
        assert!(db.is_retracted(ta));
        assert!(db.find_fact("TA", &["Adam"]).is_none());
        // Other ids survive untouched; endogenous positions shift down.
        assert_eq!(db.find_fact("Reg", &["Adam", "OS"]), Some(reg));
        assert_eq!(db.endo_count(), 1);
        assert_eq!(db.endo_index(reg), Some(0));
        assert!(!db.fact_ids().any(|f| f == ta));
        // Double retraction and dangling ids are rejected.
        assert!(matches!(
            db.retract_fact(ta),
            Err(DbError::UnknownFact { .. })
        ));
        assert!(matches!(
            db.retract_fact(FactId(99)),
            Err(DbError::UnknownFact { .. })
        ));
        // The tuple can be re-inserted under a fresh id.
        let again = db.add_endo("TA", &["Adam"]).unwrap();
        assert_ne!(again, ta);
        assert_eq!(db.endo_index(again), Some(1));
        // Display only renders live facts.
        assert_eq!(db.to_string().matches("TA(Adam)").count(), 1);
    }

    #[test]
    fn set_fact_provenance_flips_in_place() {
        let mut db = sample();
        let ta = db.find_fact("TA", &["Adam"]).unwrap();
        let reg = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        db.set_fact_provenance(ta, Provenance::Exogenous).unwrap();
        assert_eq!(db.endo_count(), 1);
        assert_eq!(db.endo_index(reg), Some(0));
        assert!(!db.fact(ta).provenance.is_endogenous());
        // Flip back: the fact rejoins the end of Dn.
        db.set_fact_provenance(ta, Provenance::Endogenous).unwrap();
        assert_eq!(db.endo_index(ta), Some(1));
        // No-op flips are fine; exogenous-relation declarations hold.
        db.set_fact_provenance(ta, Provenance::Endogenous).unwrap();
        let mut db2 = Database::new();
        let rel = db2.add_relation("Pub", 1).unwrap();
        db2.declare_exogenous_relation(rel).unwrap();
        let p = db2.add_exo("Pub", &["x"]).unwrap();
        assert!(matches!(
            db2.set_fact_provenance(p, Provenance::Endogenous),
            Err(DbError::ExogenousViolation { .. })
        ));
    }

    #[test]
    fn active_domain_ignores_retracted_facts() {
        let mut db = sample();
        let reg = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        db.retract_fact(reg).unwrap();
        let names: Vec<&str> = db
            .active_domain()
            .iter()
            .map(|&c| db.interner().resolve(c))
            .collect();
        assert_eq!(names, vec!["Adam"]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let mut db = sample();
        let rel = db.add_relation("Course", 2).unwrap();
        db.declare_exogenous_relation(rel).unwrap();
        db.add_exo("Course", &["OS", "EE"]).unwrap();
        let text = db.to_string();
        let db2 = Database::parse(&text).unwrap();
        assert_eq!(db2.fact_count(), db.fact_count());
        assert_eq!(db2.endo_count(), db.endo_count());
        assert!(db2.is_exogenous_relation(db2.schema().id("Course").unwrap()));
    }
}
