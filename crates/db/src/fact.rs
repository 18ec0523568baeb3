//! Facts: relation symbol + constant tuple + provenance.

use crate::interner::ConstId;
use crate::schema::RelId;

/// A tuple of interned constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(pub Box<[ConstId]>);

impl Tuple {
    /// Builds from a slice of constant ids.
    pub fn new(ids: &[ConstId]) -> Self {
        Tuple(ids.into())
    }

    /// The tuple arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The constants.
    pub fn values(&self) -> &[ConstId] {
        &self.0
    }
}

impl From<Vec<ConstId>> for Tuple {
    fn from(v: Vec<ConstId>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

/// Whether a fact is a Shapley player or part of the fixed context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// A member of `Dn`: a player in the cooperative game.
    Endogenous,
    /// A member of `Dx`: taken as given.
    Exogenous,
}

impl Provenance {
    /// Is this endogenous?
    pub fn is_endogenous(self) -> bool {
        matches!(self, Provenance::Endogenous)
    }
}

/// Stable identifier of a fact within one [`Database`](crate::Database).
///
/// Ids are *not* preserved across the modified-copy constructors
/// (`without_fact`, `with_fact_exogenous`); those return id mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

impl FactId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A stored fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// The relation symbol.
    pub rel: RelId,
    /// The constant tuple.
    pub tuple: Tuple,
    /// Endogenous or exogenous.
    pub provenance: Provenance,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_basics() {
        let t = Tuple::new(&[ConstId(3), ConstId(1)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values(), &[ConstId(3), ConstId(1)]);
        let t2: Tuple = vec![ConstId(3), ConstId(1)].into();
        assert_eq!(t, t2);
    }

    #[test]
    fn provenance_flags() {
        assert!(Provenance::Endogenous.is_endogenous());
        assert!(!Provenance::Exogenous.is_endogenous());
    }
}
