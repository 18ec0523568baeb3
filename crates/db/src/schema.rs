//! Relational schemas: relation symbols with fixed arities.

use std::collections::HashMap;
use std::fmt;

use crate::error::DbError;

/// An interned relation symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Definition of one relation symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDef {
    /// Relation name, e.g. `"Reg"`.
    pub name: String,
    /// Number of attributes.
    pub arity: usize,
}

/// A collection of relation symbols (the paper's schema `S`).
#[derive(Debug, Clone, Default)]
pub struct Schema {
    relations: Vec<RelationDef>,
    by_name: HashMap<String, RelId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a relation, or returns the existing id when the same
    /// name/arity was already declared.
    ///
    /// # Errors
    /// [`DbError::ArityMismatch`] when `name` exists with another arity.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Result<RelId, DbError> {
        if let Some(&id) = self.by_name.get(name) {
            #[expect(
                clippy::indexing_slicing,
                reason = "by_name stores only ids issued by this schema"
            )]
            let existing = &self.relations[id.index()];
            if existing.arity != arity {
                return Err(DbError::ArityMismatch {
                    relation: name.to_string(),
                    expected: existing.arity,
                    got: arity,
                });
            }
            return Ok(id);
        }
        #[expect(
            clippy::expect_used,
            reason = "documented capacity limit: the relation id space is u32"
        )]
        let id = RelId(u32::try_from(self.relations.len()).expect("too many relations"));
        self.relations.push(RelationDef {
            name: name.to_string(),
            arity,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a relation by name.
    pub fn id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// The definition of `rel`.
    ///
    /// # Panics
    /// Panics if `rel` does not belong to this schema.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: def requires an id issued by this schema"
    )]
    pub fn def(&self, rel: RelId) -> &RelationDef {
        &self.relations[rel.index()]
    }

    /// The arity of `rel`.
    pub fn arity(&self, rel: RelId) -> usize {
        self.def(rel).arity
    }

    /// The name of `rel`.
    pub fn name(&self, rel: RelId) -> &str {
        &self.def(rel).name
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates `(id, def)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationDef)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, d)| (RelId(i as u32), d))
    }

    /// Mints a fresh relation name with the given prefix, distinct from
    /// every declared relation (used by the `ExoShap` rewriting).
    // cqshap-lint: allow(cancellation-reachability) -- bounded: terminates at the first unused suffix, at most |relations|+1 probes
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = 0u64;
        loop {
            let candidate = format!("{prefix}${i}");
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (_, def) in self.iter() {
            writeln!(f, "{}/{}", def.name, def.arity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = Schema::new();
        let r = s.add_relation("Reg", 2).unwrap();
        assert_eq!(s.id("Reg"), Some(r));
        assert_eq!(s.arity(r), 2);
        assert_eq!(s.name(r), "Reg");
        assert_eq!(s.id("Nope"), None);
    }

    #[test]
    fn redeclaration_same_arity_ok() {
        let mut s = Schema::new();
        let a = s.add_relation("R", 1).unwrap();
        let b = s.add_relation("R", 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arity_conflict_rejected() {
        let mut s = Schema::new();
        s.add_relation("R", 1).unwrap();
        assert!(matches!(
            s.add_relation("R", 2),
            Err(DbError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut s = Schema::new();
        s.add_relation("J$0", 1).unwrap();
        let n = s.fresh_name("J");
        assert_ne!(n, "J$0");
    }
}
