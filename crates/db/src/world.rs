//! Worlds: subsets of the endogenous facts.
//!
//! A query is always evaluated over `Dx ∪ E` for some `E ⊆ Dn`
//! (Definition of the wealth function `v` in Section 2). A [`World`] is
//! such an `E`, stored as a bitset over endogenous *positions* (the index
//! of a fact within [`Database::endo_facts`]).

use crate::bitset::BitSet;
use crate::database::Database;
use crate::fact::FactId;

/// A subset `E ⊆ Dn`, positionally indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct World {
    bits: BitSet,
}

impl World {
    /// The empty world `E = ∅` for `db`.
    pub fn empty(db: &Database) -> Self {
        World {
            bits: BitSet::new(db.endo_count()),
        }
    }

    /// The full world `E = Dn` for `db`.
    pub fn full(db: &Database) -> Self {
        World {
            bits: BitSet::full(db.endo_count()),
        }
    }

    /// Builds a world from endogenous fact ids.
    ///
    /// # Panics
    /// Panics if some id is not endogenous in `db`.
    pub fn from_fact_ids(db: &Database, ids: &[FactId]) -> Self {
        let mut w = Self::empty(db);
        for &id in ids {
            w.insert(db, id);
        }
        w
    }

    /// Inserts an endogenous fact; returns whether it was new.
    ///
    /// # Panics
    /// Panics if `id` is not endogenous in `db`.
    pub fn insert(&mut self, db: &Database, id: FactId) -> bool {
        // cqshap-lint: allow(no-panic) -- documented precondition: World members are endogenous facts
        let pos = db.endo_index(id).expect("fact is not endogenous");
        self.bits.insert(pos)
    }

    /// Inserts the endogenous fact at position `pos` of
    /// [`Database::endo_facts`]; returns whether it was new. The
    /// allocation-free counterpart of [`World::insert`] for callers that
    /// already work in positions (samplers, enumerators).
    ///
    /// # Panics
    /// Panics if `pos` is not below the world's universe, `|Dn|`.
    pub fn insert_pos(&mut self, pos: usize) -> bool {
        self.bits.insert(pos)
    }

    /// Empties the world, keeping its universe (`E = ∅`).
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Removes an endogenous fact; returns whether it was present.
    ///
    /// # Panics
    /// Panics if `id` is not endogenous in `db`.
    pub fn remove(&mut self, db: &Database, id: FactId) -> bool {
        // cqshap-lint: allow(no-panic) -- documented precondition: World members are endogenous facts
        let pos = db.endo_index(id).expect("fact is not endogenous");
        self.bits.remove(pos)
    }

    /// Does the world contain the endogenous position `pos`?
    pub fn contains_pos(&self, pos: usize) -> bool {
        self.bits.contains(pos)
    }

    /// Does the world contain `id`? (False for exogenous facts; they are
    /// always present in evaluation but are not world members.)
    pub fn contains(&self, db: &Database, id: FactId) -> bool {
        db.endo_index(id).is_some_and(|p| self.bits.contains(p))
    }

    /// Number of endogenous facts in the world.
    pub fn len(&self) -> usize {
        self.bits.count()
    }

    /// Is the world empty?
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Iterates the member fact ids in endogenous order.
    pub fn iter_facts<'a>(&'a self, db: &'a Database) -> impl Iterator<Item = FactId> + 'a {
        // cqshap-lint: allow(no-panic-index) -- bit positions come from the world's own bitset, sized by endo_count
        self.bits.iter().map(move |pos| db.endo_facts()[pos])
    }

    /// Loads the low-64-bit mask (brute-force enumeration helper).
    ///
    /// # Panics
    /// Panics if `|Dn| > 64`.
    pub fn assign_mask(&mut self, mask: u64) {
        self.bits.assign_mask(mask);
    }

    /// The underlying bitset.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_exo("S", &["a"]).unwrap();
        db.add_endo("R", &["a"]).unwrap();
        db.add_endo("R", &["b"]).unwrap();
        db.add_endo("T", &["a"]).unwrap();
        db
    }

    #[test]
    fn empty_full() {
        let d = db();
        assert_eq!(World::empty(&d).len(), 0);
        assert_eq!(World::full(&d).len(), 3);
    }

    #[test]
    fn insert_remove_by_fact_id() {
        let d = db();
        let ra = d.find_fact("R", &["a"]).unwrap();
        let mut w = World::empty(&d);
        assert!(w.insert(&d, ra));
        assert!(!w.insert(&d, ra));
        assert!(w.contains(&d, ra));
        let members: Vec<_> = w.iter_facts(&d).collect();
        assert_eq!(members, vec![ra]);
        assert!(w.remove(&d, ra));
        assert!(w.is_empty());
    }

    #[test]
    fn insert_by_position_and_clear() {
        let d = db();
        let rb = d.find_fact("R", &["b"]).unwrap();
        let mut w = World::empty(&d);
        assert!(w.insert_pos(d.endo_index(rb).unwrap()));
        assert!(!w.insert_pos(d.endo_index(rb).unwrap()));
        assert_eq!(w, World::from_fact_ids(&d, &[rb]));
        w.clear();
        assert_eq!(w, World::empty(&d));
    }

    #[test]
    fn exogenous_fact_is_never_member() {
        let d = db();
        let s = d.find_fact("S", &["a"]).unwrap();
        let w = World::full(&d);
        assert!(!w.contains(&d, s));
    }

    #[test]
    #[should_panic(expected = "not endogenous")]
    fn inserting_exogenous_panics() {
        let d = db();
        let s = d.find_fact("S", &["a"]).unwrap();
        World::empty(&d).insert(&d, s);
    }
}
