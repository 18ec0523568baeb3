//! Compiling queries against a database.
//!
//! Compilation resolves relation names to [`RelId`]s and constant names to
//! [`ConstId`]s once, fixes a greedy join order for the positive atoms,
//! and builds a hash index per atom (see the [crate docs](crate)), so that
//! evaluating the same query over thousands of worlds (brute force,
//! sampling) does no repeated string work and no relation scans.
//!
//! The indexes are a snapshot: a [`CompiledQuery`] is valid only for the
//! database state it was compiled against. Compile again after inserting,
//! retracting or re-labelling a fact.

use cqshap_db::{ConstId, Database, FactId, RelId};
use cqshap_query::{Atom, ConjunctiveQuery, Term, UnionQuery, Var};

use crate::index::{NegativeIndex, PositiveIndex};

/// A term resolved against a database interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompiledTerm {
    /// A query variable (dense index).
    Var(u32),
    /// A constant known to the database.
    Const(ConstId),
    /// A constant the database has never seen: a positive atom with this
    /// term can never match; a negative atom with it never fires.
    UnknownConst,
}

/// An atom resolved against a database.
#[derive(Debug, Clone)]
pub(crate) struct CompiledAtom {
    /// Position of the atom within the source query's atom list.
    pub(crate) source_index: usize,
    /// The resolved relation; `None` when the database has no relation of
    /// this name (a positive atom is then unsatisfiable, a negative atom
    /// vacuously true).
    pub(crate) rel: Option<RelId>,
    /// Resolved terms.
    pub(crate) terms: Vec<CompiledTerm>,
    /// Negated?
    pub(crate) negated: bool,
}

impl CompiledAtom {
    fn compile(db: &Database, atom: &Atom, source_index: usize) -> Self {
        CompiledAtom {
            source_index,
            rel: db.schema().id(&atom.relation),
            terms: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(Var(v)) => CompiledTerm::Var(*v),
                    Term::Const(c) => match db.interner().get(c) {
                        Some(id) => CompiledTerm::Const(id),
                        None => CompiledTerm::UnknownConst,
                    },
                })
                .collect(),
            negated: atom.negated,
        }
    }

    /// Variables of this atom (deduplicated, ascending).
    pub(crate) fn variables(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .terms
            .iter()
            .filter_map(|t| match t {
                CompiledTerm::Var(v) => Some(*v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A query compiled against one database: its atoms resolved, its
/// positive atoms in join order, and one index per atom.
///
/// Valid only for the database state it was compiled against (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Source positions of the positive atoms, in join order.
    join_order: Vec<usize>,
    /// Number of query variables.
    pub(crate) var_count: usize,
    /// Head variables (dense indices).
    head: Vec<u32>,
    /// The join index of each positive atom, in join order.
    pub(crate) joins: Vec<PositiveIndex>,
    /// The lookup index of each negative atom, in source order.
    pub(crate) checks: Vec<NegativeIndex>,
    /// The longest probe key of any index.
    pub(crate) key_len: usize,
    /// `(fact_count, endo_count)` of the database compiled against: a
    /// cheap guard against evaluating over a database that changed since.
    pub(crate) shape: (usize, usize),
}

impl CompiledQuery {
    /// Compiles `q` against `db`.
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
    pub fn compile(db: &Database, q: &ConjunctiveQuery) -> Self {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for (i, atom) in q.atoms().iter().enumerate() {
            let c = CompiledAtom::compile(db, atom, i);
            if c.negated {
                negatives.push(c);
            } else {
                positives.push(c);
            }
        }
        order_positives(db, &mut positives);
        let var_count = q.var_count();
        let mut bound = vec![false; var_count];
        let joins: Vec<PositiveIndex> = positives
            .iter()
            .map(|atom| PositiveIndex::build(db, atom, &mut bound))
            .collect();
        // Negative atoms are checked once all their variables are bound.
        let checks: Vec<NegativeIndex> = negatives
            .iter()
            .map(|atom| NegativeIndex::build(db, atom))
            .collect();
        let key_len = joins
            .iter()
            .map(PositiveIndex::key_len)
            .chain(checks.iter().map(NegativeIndex::key_len))
            .max()
            .unwrap_or(0);
        CompiledQuery {
            join_order: positives.iter().map(|a| a.source_index).collect(),
            var_count,
            head: q.head().iter().map(|v| v.0).collect(),
            joins,
            checks,
            key_len,
            shape: (db.fact_count(), db.endo_count()),
        }
    }

    /// Head variables (dense indices), in head order.
    pub fn head(&self) -> &[u32] {
        &self.head
    }

    /// The join order: source-query positions of the positive atoms, in
    /// the order [`for_each_positive_homomorphism`] matches them (and
    /// reports their facts in [`PositiveMatch::matched_facts`]).
    ///
    /// [`for_each_positive_homomorphism`]: crate::for_each_positive_homomorphism
    /// [`PositiveMatch::matched_facts`]: crate::PositiveMatch::matched_facts
    pub fn join_order(&self) -> &[usize] {
        &self.join_order
    }

    /// The facts of `D` the negative atoms ground to under `assignment`,
    /// in atom order. An atom that grounds to no fact, leaves a variable
    /// unbound, or names an unknown relation or constant contributes
    /// nothing.
    pub fn negative_facts(&self, assignment: &[Option<ConstId>]) -> Vec<FactId> {
        let mut probe = vec![ConstId(0); self.key_len];
        self.checks
            .iter()
            .filter_map(|check| check.ground(assignment, &mut probe))
            .map(|row| row.fact)
            .collect()
    }
}

/// Greedy join order: repeatedly pick the atom with the most
/// already-bound variables, breaking ties toward smaller relations.
/// Keeps evaluation from degenerating into a full cross product.
// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
fn order_positives(db: &Database, positives: &mut Vec<CompiledAtom>) {
    let mut remaining: Vec<CompiledAtom> = std::mem::take(positives);
    let mut bound: Vec<bool> = Vec::new();
    let grow = |bound: &mut Vec<bool>, v: usize| {
        if v >= bound.len() {
            bound.resize(v + 1, false);
        }
    };
    while !remaining.is_empty() {
        let mut best = 0usize;
        let mut best_key = (usize::MAX, usize::MAX); // (unbound vars, relation size)
        for (i, atom) in remaining.iter().enumerate() {
            let unbound = atom
                .variables()
                .iter()
                .filter(|&&v| !bound.get(v as usize).copied().unwrap_or(false))
                .count();
            let size = atom.rel.map_or(0, |r| db.relation_facts(r).len());
            let key = (unbound, size);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        let atom = remaining.swap_remove(best);
        for v in atom.variables() {
            grow(&mut bound, v as usize);
            bound[v as usize] = true;
        }
        positives.push(atom);
    }
}

/// A union compiled against one database.
#[derive(Debug, Clone)]
pub struct CompiledUnion {
    /// Compiled disjuncts, in source order.
    pub disjuncts: Vec<CompiledQuery>,
}

impl CompiledUnion {
    /// Compiles `u` against `db`.
    pub fn compile(db: &Database, u: &UnionQuery) -> Self {
        CompiledUnion {
            disjuncts: u
                .disjuncts()
                .iter()
                .map(|d| CompiledQuery::compile(db, d))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::parse_cq;

    #[test]
    fn compiles_and_orders() {
        let mut db = Database::new();
        db.add_exo("S", &["a", "b"]).unwrap();
        db.add_endo("R", &["a"]).unwrap();
        db.add_endo("R", &["b"]).unwrap();
        db.add_endo("T", &["b"]).unwrap();
        let q = parse_cq("q() :- R(x), S(x, y), !T(y)").unwrap();
        let c = CompiledQuery::compile(&db, &q);
        // R(x) binds fewer variables than S(x, y), so it goes first.
        assert_eq!(c.join_order(), &[0, 1]);
        assert_eq!(c.checks.len(), 1);
        assert_eq!(c.var_count, 2);
    }

    #[test]
    fn unknown_relation_and_constant() {
        let mut db = Database::new();
        db.add_endo("R", &["a"]).unwrap();
        let q = parse_cq("q() :- R(x), !Missing(x), R('zzz')").unwrap();
        let c = CompiledQuery::compile(&db, &q);
        // The ground atom binds nothing, so it is matched first.
        assert_eq!(c.join_order(), &[2, 0]);
        let a = db.interner().get("a");
        assert_eq!(c.negative_facts(&[a]), Vec::new());
        let full = cqshap_db::World::full(&db);
        assert!(!crate::satisfies_compiled(&db, &full, &c));
    }
}
