//! A uniform handle over CQ¬s and UCQ¬s.

use std::collections::BTreeMap;

use cqshap_db::{Database, World};
use cqshap_engine::{satisfies_compiled, CompiledQuery, CompiledUnion};
use cqshap_query::analysis::{polarity_map, polarity_map_union, Polarity};
use cqshap_query::{ConjunctiveQuery, UnionQuery};

/// Either a single CQ¬ or a union — everything the sampling, brute-force
/// and relevance machinery is generic over.
#[derive(Debug, Clone, Copy)]
pub enum AnyQuery<'a> {
    /// A conjunctive query with safe negation.
    Cq(&'a ConjunctiveQuery),
    /// A union of CQ¬s.
    Union(&'a UnionQuery),
}

impl<'a> AnyQuery<'a> {
    /// The conjunctive query, if this is one.
    pub fn as_cq(&self) -> Option<&'a ConjunctiveQuery> {
        match self {
            AnyQuery::Cq(q) => Some(q),
            AnyQuery::Union(_) => None,
        }
    }

    /// A display name.
    pub fn name(&self) -> &str {
        match self {
            AnyQuery::Cq(q) => q.name(),
            AnyQuery::Union(u) => u.name(),
        }
    }

    /// How each relation occurs across the query's atoms (all disjuncts,
    /// for a union). Relations the query never mentions are absent.
    pub fn polarities(&self) -> BTreeMap<String, Polarity> {
        match self {
            AnyQuery::Cq(q) => polarity_map(q),
            AnyQuery::Union(u) => polarity_map_union(u),
        }
    }

    /// Compiles against `db` (a CQ becomes a one-disjunct union).
    pub fn compile(&self, db: &Database) -> CompiledAnyQuery {
        match self {
            AnyQuery::Cq(q) => CompiledAnyQuery {
                disjuncts: vec![CompiledQuery::compile(db, q)],
            },
            AnyQuery::Union(u) => CompiledAnyQuery {
                disjuncts: CompiledUnion::compile(db, u).disjuncts,
            },
        }
    }
}

impl<'a> From<&'a ConjunctiveQuery> for AnyQuery<'a> {
    fn from(q: &'a ConjunctiveQuery) -> Self {
        AnyQuery::Cq(q)
    }
}

impl<'a> From<&'a UnionQuery> for AnyQuery<'a> {
    fn from(u: &'a UnionQuery) -> Self {
        AnyQuery::Union(u)
    }
}

/// A compiled [`AnyQuery`], cheap to evaluate over many worlds.
#[derive(Debug, Clone)]
pub struct CompiledAnyQuery {
    disjuncts: Vec<CompiledQuery>,
}

impl CompiledAnyQuery {
    /// Does `Dx ∪ E ⊨ q` hold?
    pub fn satisfied(&self, db: &Database, world: &World) -> bool {
        self.disjuncts
            .iter()
            .any(|d| satisfies_compiled(db, world, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::{parse_cq, parse_ucq};

    #[test]
    fn uniform_evaluation() {
        let mut db = Database::new();
        let ra = db.add_endo("R", &["a"]).unwrap();
        let q = parse_cq("q() :- R(x)").unwrap();
        let u = parse_ucq("q() :- R(x); q() :- S(x)").unwrap();
        let cq: AnyQuery = (&q).into();
        let cu: AnyQuery = (&u).into();
        assert_eq!(cq.name(), "q");
        assert!(cq.as_cq().is_some());
        assert!(cu.as_cq().is_none());
        let (ccq, ccu) = (cq.compile(&db), cu.compile(&db));
        let w = World::from_fact_ids(&db, &[ra]);
        assert!(ccq.satisfied(&db, &w));
        assert!(ccu.satisfied(&db, &w));
        assert!(!ccq.satisfied(&db, &World::empty(&db)));
    }
}
