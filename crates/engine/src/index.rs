//! Hash indexes over the facts a compiled atom can match.
//!
//! A positive atom is probed with the values of its *key columns*: the
//! columns whose variable an earlier atom of the join order has bound.
//! Columns holding a constant, and repeats of a variable within the
//! atom, are checked once when the index is built, so a probe returns
//! exactly the facts the atom matches under the current bindings, in
//! [`Database::relation_facts`] order. A negative atom is indexed by its
//! whole ground tuple.
//!
//! Every row records where its fact lives: an endogenous position (the
//! fact's index in [`Database::endo_facts`]) or [`EXOGENOUS`]. Deciding
//! whether a world sees a fact is then one bit test, with no lookup in
//! the database.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cqshap_db::{ConstId, Database, FactId};

use crate::compile::{CompiledAtom, CompiledTerm};
use crate::eval::FactScope;

/// The position of a fact that every world contains.
pub(crate) const EXOGENOUS: u32 = u32::MAX;

/// FxHash: one rotate, xor and multiply per word. Keys are short runs
/// of constant ids the interner hands out densely, not values a caller
/// picks, and the maps live only for one evaluation in this process, so
/// SipHash's flood resistance would buy little for its cost: with it, a
/// sampler draw on `q_RS¬T` takes about 1.8 times as long.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

type KeyMap<V> = HashMap<Box<[ConstId]>, V, BuildHasherDefault<FxHasher>>;

/// One fact an atom can match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// The fact.
    pub(crate) fact: FactId,
    /// Its endogenous position, or [`EXOGENOUS`].
    pub(crate) pos: u32,
}

impl Row {
    fn of(db: &Database, fact: FactId) -> Row {
        Row {
            fact,
            // Positions are below the fact count, which fits in u32.
            pos: db.endo_index(fact).map_or(EXOGENOUS, |p| p as u32),
        }
    }

    /// Is this row's fact in `Dx ∪ E` (or in `D`, for [`FactScope::All`])?
    #[inline]
    pub(crate) fn visible(self, scope: FactScope<'_>) -> bool {
        match scope {
            FactScope::All => true,
            FactScope::World(w) => self.pos == EXOGENOUS || w.contains_pos(self.pos as usize),
        }
    }
}

/// Does `atom` name a relation of `db` with as many columns as it has
/// terms? An atom that does not can match no fact.
fn arity_fits(db: &Database, atom: &CompiledAtom) -> bool {
    atom.rel
        .is_some_and(|rel| db.schema().arity(rel) == atom.terms.len())
}

/// What one column of a positive atom does in the join.
#[derive(Debug, Clone, Copy)]
enum ColumnRole {
    /// Checked against a constant at build time.
    Const(ConstId),
    /// Probed: the variable was bound by an earlier atom.
    Key(u32),
    /// Binds the variable, which first occurs here.
    Bind(u32),
    /// Must equal the value at an earlier column of the same atom.
    Repeat(usize),
}

/// The join index of one positive atom.
#[derive(Debug, Clone)]
pub(crate) struct PositiveIndex {
    /// Variables whose values form the probe key, in column order.
    key: Vec<u32>,
    /// Variables this atom binds, in column order.
    binds: Vec<u32>,
    /// Matching rows, grouped by key; insertion order within a group.
    rows: Vec<Row>,
    /// The values each row binds, `binds.len()` per row.
    values: Vec<ConstId>,
    /// Key → the half-open row range of its group. Unused (empty) when
    /// the key is empty: every row is then in the one group.
    groups: KeyMap<(u32, u32)>,
}

impl PositiveIndex {
    /// Indexes `atom`'s matches in `db`. `bound[v]` says whether an
    /// earlier atom binds variable `v`; this atom's variables are marked
    /// bound on return.
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the atom's relation, then over its rows
    pub(crate) fn build(db: &Database, atom: &CompiledAtom, bound: &mut [bool]) -> Self {
        // `None` when the atom names a constant the database lacks.
        let roles: Option<Vec<ColumnRole>> = atom
            .terms
            .iter()
            .enumerate()
            .map(|(col, term)| match *term {
                CompiledTerm::Const(c) => Some(ColumnRole::Const(c)),
                CompiledTerm::UnknownConst => None,
                CompiledTerm::Var(v) => {
                    Some(match atom.terms[..col].iter().position(|t| t == term) {
                        Some(earlier) => ColumnRole::Repeat(earlier),
                        None if bound[v as usize] => ColumnRole::Key(v),
                        None => ColumnRole::Bind(v),
                    })
                }
            })
            .collect();
        for v in atom.variables() {
            bound[v as usize] = true;
        }
        let facts = match (atom.rel, &roles) {
            (Some(rel), Some(_)) if arity_fits(db, atom) => db.relation_facts(rel),
            _ => &[],
        };
        let roles = roles.unwrap_or_default();
        let pick = |keep: fn(ColumnRole) -> Option<u32>| -> Vec<u32> {
            roles.iter().filter_map(|&r| keep(r)).collect()
        };
        let key = pick(|r| match r {
            ColumnRole::Key(v) => Some(v),
            _ => None,
        });
        let binds = pick(|r| match r {
            ColumnRole::Bind(v) => Some(v),
            _ => None,
        });

        // Matching facts as (group, row, offset of their bound values),
        // in relation order; groups are numbered by first appearance.
        let mut staged: Vec<(usize, Row, usize)> = Vec::new();
        let mut bound_values: Vec<ConstId> = Vec::new();
        let mut group_of: KeyMap<usize> = KeyMap::default();
        let mut probe: Vec<ConstId> = Vec::with_capacity(key.len());
        for &fact in facts {
            let tuple = db.fact(fact).tuple.values();
            let matches = roles.iter().zip(tuple).all(|(role, val)| match *role {
                ColumnRole::Const(c) => c == *val,
                ColumnRole::Repeat(earlier) => tuple.get(earlier) == Some(val),
                ColumnRole::Key(_) | ColumnRole::Bind(_) => true,
            });
            if !matches {
                continue;
            }
            probe.clear();
            let offset = bound_values.len();
            for (role, &val) in roles.iter().zip(tuple) {
                match role {
                    ColumnRole::Key(_) => probe.push(val),
                    ColumnRole::Bind(_) => bound_values.push(val),
                    _ => {}
                }
            }
            let group = match group_of.get(probe.as_slice()) {
                Some(&group) => group,
                None => {
                    let next = group_of.len();
                    group_of.insert(probe.as_slice().into(), next);
                    next
                }
            };
            staged.push((group, Row::of(db, fact), offset));
        }
        // A stable sort makes groups contiguous and keeps relation order
        // within each.
        staged.sort_by_key(|&(group, _, _)| group);
        let mut ranges = vec![(0u32, 0u32); group_of.len()];
        let mut start = 0;
        for run in staged.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len() as u32;
            ranges[run[0].0] = (start, end);
            start = end;
        }
        let n = binds.len();
        let rows = staged.iter().map(|&(_, row, _)| row).collect();
        let values = staged
            .iter()
            .flat_map(|&(_, _, offset)| &bound_values[offset..offset + n])
            .copied()
            .collect();
        let groups = if key.is_empty() {
            KeyMap::default()
        } else {
            group_of
                .into_iter()
                .map(|(k, group)| (k, ranges[group]))
                .collect()
        };
        PositiveIndex {
            key,
            binds,
            rows,
            values,
            groups,
        }
    }

    /// The rows matching the current bindings, as an index range.
    /// `probe` is scratch space of at least the key's length.
    #[inline]
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the join key's length
    pub(crate) fn lookup(
        &self,
        assignment: &[Option<ConstId>],
        probe: &mut [ConstId],
    ) -> std::ops::Range<usize> {
        if self.key.is_empty() {
            return 0..self.rows.len();
        }
        for (slot, &v) in probe.iter_mut().zip(&self.key) {
            match assignment[v as usize] {
                Some(c) => *slot = c,
                None => return 0..0,
            }
        }
        match self.groups.get(&probe[..self.key.len()]) {
            Some(&(lo, hi)) => lo as usize..hi as usize,
            None => 0..0,
        }
    }

    /// Row `i` of a [`PositiveIndex::lookup`] range.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> Row {
        self.rows[i]
    }

    /// Binds this atom's new variables to row `i`'s values.
    #[inline]
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the atom's arity
    pub(crate) fn bind(&self, i: usize, assignment: &mut [Option<ConstId>]) {
        let n = self.binds.len();
        for (&v, &c) in self.binds.iter().zip(&self.values[i * n..(i + 1) * n]) {
            assignment[v as usize] = Some(c);
        }
    }

    /// Length of the probe key.
    pub(crate) fn key_len(&self) -> usize {
        self.key.len()
    }
}

/// The lookup index of one negative atom: ground tuple → row.
#[derive(Debug, Clone)]
pub(crate) struct NegativeIndex {
    /// The atom's terms; `None` when the atom can never fire (its
    /// relation or one of its constants is unknown to the database).
    terms: Option<Vec<CompiledTerm>>,
    rows: KeyMap<Row>,
}

impl NegativeIndex {
    pub(crate) fn build(db: &Database, atom: &CompiledAtom) -> Self {
        let fires = atom
            .rel
            .filter(|_| arity_fits(db, atom) && !atom.terms.contains(&CompiledTerm::UnknownConst));
        let rows = fires.map_or_else(KeyMap::default, |rel| {
            db.relation_facts(rel)
                .iter()
                .map(|&f| (db.fact(f).tuple.values().into(), Row::of(db, f)))
                .collect()
        });
        NegativeIndex {
            terms: fires.map(|_| atom.terms.clone()),
            rows,
        }
    }

    /// The fact this atom grounds to under `assignment`, if it exists.
    /// `probe` is scratch space of at least the atom's arity.
    #[inline]
    // cqshap-lint: allow(cancellation-reachability) -- bounded by the atom's arity
    pub(crate) fn ground(
        &self,
        assignment: &[Option<ConstId>],
        probe: &mut [ConstId],
    ) -> Option<Row> {
        let terms = self.terms.as_deref()?;
        for (slot, term) in probe.iter_mut().zip(terms) {
            *slot = match *term {
                CompiledTerm::Const(c) => c,
                CompiledTerm::Var(v) => assignment[v as usize]?,
                CompiledTerm::UnknownConst => return None,
            };
        }
        self.rows.get(&probe[..terms.len()]).copied()
    }

    /// Length of the probe key.
    pub(crate) fn key_len(&self) -> usize {
        self.terms.as_ref().map_or(0, Vec::len)
    }
}
