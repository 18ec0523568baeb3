//! Lemma 3.2's counting recursion, compiled once per root group.
//!
//! [`crate::domain`]'s `eval_rec` evaluates a sub-query by re-deriving
//! its structure on every call: ground folds, connected components, root
//! candidates and their scopes. A [`Tree`] materializes that structure
//! once, as the recursion of Livshits et al. (arXiv 1904.08679) extended
//! to negation by the paper's Lemma 3.2, with three kinds of node:
//!
//! * a **fold** holds ground atoms, each matched by at most one fact (a
//!   fact *leaf*). Its value is the product of the leaves' `present` /
//!   `absent` contributions, derived from their provenance;
//! * a **product** composes sub-trees over disjoint fact sets (the
//!   disconnected case; the ground atoms of such a level share one
//!   fold);
//! * a **split** decomposes a connected sub-query over its root
//!   variable: `complement ∘ ⊛_c ∘ complement` over the root values with
//!   full positive support, times `free(junk)` for the endogenous facts
//!   no root value can use.
//!
//! Every product and split keeps the product of its children's
//! *nonzero* factors (a split's times `free(junk)`) and a count of the
//! zero ones, as the compiled engine does for a component's root groups.
//! The value its parent multiplies in (`sat` under a product and at the
//! root, `unsat` under a split) is that product or its complement. A
//! fold stores no value: its few leaves give it from their provenance
//! whenever it is needed, which keeps the most numerous nodes small.
//!
//! A fact's two masked values (`f` removed, `f` exogenized) then follow
//! from one walk from the fact's leaf to the root
//! ([`Tree::masked_pair`]): each level divides the changed child's old
//! factor out of its product once and combines the two new ones back
//! in; nothing is mutated. An update is the same walk with the new
//! values kept ([`Tree::update`]). An inserted fact that founds a new
//! root value below the root adds a child; a retracted fact that leaves
//! its root value without support turns that child's facts into junk.
//!
//! All arithmetic is exact, so every value equals what `eval_rec`
//! computes on the same (masked) database, bit for bit.

use std::borrow::Cow;

use cqshap_db::{ConstId, Database, FactId, FactMask};
use cqshap_obs::phase as obs_phase;

use crate::domain::EvalDomain;
use crate::error::CoreError;
use crate::satcount::{
    connected_components, find_root_var, root_candidates, scope_endo_count, MaskedDb, PAtom,
    RootGroups,
};

/// The compiled recursion of one root group (or ground component).
/// The atom indices its nodes record are positions in the atom list it
/// was built from; every method takes that list (and, for updates, its
/// scopes) again instead of keeping a copy.
#[derive(Debug)]
pub(crate) struct Tree<V> {
    root: Node<V>,
}

/// One node and the number of endogenous facts in its scopes.
#[derive(Debug)]
struct Node<V> {
    endo: usize,
    kind: Kind<V>,
}

#[derive(Debug)]
enum Kind<V> {
    /// Ground atoms, each with the fact matching it, if any.
    Fold(Vec<Slot>),
    /// Sub-trees over disjoint atom sets.
    Product(Box<Product<V>>),
    /// A connected sub-query split over its root variable.
    Split(Box<Split<V>>),
}

/// One ground atom of a fold and the fact matching it, if any.
#[derive(Debug)]
struct Slot {
    atom: usize,
    negated: bool,
    fact: Option<FactId>,
}

#[derive(Debug)]
struct Product<V> {
    /// `⊛` of the children's nonzero factors (their `sat`).
    prod: V,
    /// How many children have a zero factor.
    zeros: usize,
    children: Vec<Node<V>>,
    /// `(atom, child)`: which child holds each atom.
    route: Vec<(usize, usize)>,
}

#[derive(Debug)]
struct Split<V> {
    /// The root variable.
    var: u32,
    /// The atoms this node covers.
    atoms: Vec<usize>,
    /// `⊛` of the children's nonzero `unsat` factors and `free(junk)`.
    prod: V,
    /// How many children have a zero `unsat` (always satisfied).
    zeros: usize,
    /// Endogenous facts whose root value lacks full positive support.
    junk: usize,
    /// The supported root values, ascending, with their sub-trees.
    children: Vec<(ConstId, Node<V>)>,
}

/// How a node's value enters its parent.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Under a product, and at the root: the satisfying value.
    Sat,
    /// Under a split: the unsatisfying value.
    Unsat,
}

impl Role {
    fn of_sat<D: EvalDomain>(self, dom: &D, sat: D::Value, endo: usize) -> D::Value {
        match self {
            Role::Sat => sat,
            Role::Unsat => dom.complement(&sat, endo),
        }
    }

    fn of_unsat<D: EvalDomain>(self, dom: &D, unsat: D::Value, endo: usize) -> D::Value {
        match self {
            Role::Sat => dom.complement(&unsat, endo),
            Role::Unsat => unsat,
        }
    }
}

/// One in-place change to a fact of the tree, applied after the
/// database was mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Change {
    /// A freshly inserted fact.
    Insert,
    /// A retracted fact, endogenous before the retraction or not.
    Retract { was_endo: bool },
    /// A provenance flip, in either direction.
    Flip,
}

/// The fact a walk follows, with what it needs to find its leaf.
pub(crate) struct Site<'a> {
    pub(crate) db: &'a Database,
    /// The atom list the tree was built from.
    pub(crate) atoms: &'a [PAtom],
    pub(crate) fact: FactId,
    /// The fact's atom.
    pub(crate) atom: usize,
}

impl Site<'_> {
    /// The value the fact gives variable `var`.
    fn value_of(&self, var: u32) -> Result<ConstId, CoreError> {
        let atom = self
            .atoms
            .get(self.atom)
            .ok_or_else(|| broken("atom index"))?;
        Ok(atom.value_of(var, self.db.fact(self.fact).tuple.values()))
    }
}

/// How a fold sees a fact: `None` when it is absent, otherwise whether
/// it is endogenous.
type Seen<'a> = &'a dyn Fn(FactId) -> Option<bool>;

/// An update walk: the target plus the change and the tree's scopes
/// after the change (consulted where a root value gains or loses its
/// support).
struct Edit<'a> {
    target: Site<'a>,
    scopes: &'a [Vec<FactId>],
    change: Change,
    /// Whether the target is endogenous after the change.
    endo: bool,
}

impl Edit<'_> {
    /// How the endogenous count of every node above the fact moves.
    fn endo_shift(&self) -> isize {
        match self.change {
            Change::Insert => isize::from(self.endo),
            Change::Retract { was_endo } => -isize::from(was_endo),
            Change::Flip if self.endo => 1,
            Change::Flip => -1,
        }
    }

    /// How a fact looked before the change.
    fn before(&self, x: FactId) -> Option<bool> {
        if x != self.target.fact {
            return Some(FactMask::None.is_endogenous(self.target.db, x));
        }
        match self.change {
            Change::Insert => None,
            Change::Retract { was_endo } => Some(was_endo),
            Change::Flip => Some(!self.endo),
        }
    }

    /// Does fact `x` of atom `a` lie under the split values `path`?
    fn under(&self, a: usize, x: FactId, path: &[(u32, ConstId)]) -> bool {
        let Some(atom) = self.target.atoms.get(a) else {
            return false;
        };
        let values = self.target.db.fact(x).tuple.values();
        path.iter().all(|&(var, c)| atom.value_of(var, values) == c)
    }

    /// The facts of atom `a` under `path`.
    fn scope_under(&self, a: usize, path: &[(u32, ConstId)]) -> Vec<FactId> {
        self.scopes
            .get(a)
            .map(|scope| {
                scope
                    .iter()
                    .copied()
                    .filter(|&x| self.under(a, x, path))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Does positive atom `a` have a fact under `path`?
    fn supported(&self, a: usize, path: &[(u32, ConstId)]) -> bool {
        self.scopes
            .get(a)
            .is_some_and(|scope| scope.iter().any(|&x| self.under(a, x, path)))
    }

    fn positive(&self, a: usize) -> bool {
        self.target.atoms.get(a).is_some_and(|atom| !atom.negated)
    }
}

/// The error of a tree that no longer matches its own products: an
/// engine bug, not an input error.
fn broken(what: &str) -> CoreError {
    CoreError::Unsupported(format!("compiled recursion tree is inconsistent: {what}"))
}

/// Records `steps` tree levels on the installed recorder, if any.
fn record_steps(steps: u64) {
    if cqshap_obs::enabled() {
        cqshap_obs::counter(obs_phase::CTR_PATH_STEPS, steps);
    }
}

/// Charges the domain's budget one work unit per node evaluation, as
/// the uncompiled recursion does: a masked walk evaluates each node on
/// its path once per mask.
fn charge<D: EvalDomain>(dom: &D, evaluations: usize) -> Result<(), CoreError> {
    (0..evaluations).try_for_each(|_| dom.checkpoint(obs_phase::EVALUATE))
}

/// `(⊛ nonzero factors, number of zero factors)`.
fn product_of<D: EvalDomain>(dom: &D, factors: &[D::Value]) -> (D::Value, usize) {
    let mut prod = dom.one();
    let mut zeros = 0;
    for factor in factors {
        if dom.is_zero(factor) {
            zeros += 1;
        } else {
            prod = dom.combine(&prod, factor);
        }
    }
    (prod, zeros)
}

/// The product of every factor but `old` (one of the factors behind
/// `prod`/`zeros`), or `None` when another factor is zero.
fn siblings<'v, D: EvalDomain>(
    dom: &D,
    prod: &'v D::Value,
    zeros: usize,
    old: &D::Value,
) -> Result<Option<Cow<'v, D::Value>>, CoreError> {
    if dom.is_zero(old) {
        return Ok((zeros == 1).then_some(Cow::Borrowed(prod)));
    }
    if zeros > 0 {
        return Ok(None);
    }
    dom.try_divide(prod, old)
        .map(|q| Some(Cow::Owned(q)))
        .ok_or_else(|| broken("a child factor does not divide its parent's product"))
}

/// `siblings ⊛ new`, or the zero of `endo` facts when either side is.
fn rejoin<D: EvalDomain>(
    dom: &D,
    siblings: Option<&D::Value>,
    new: &D::Value,
    endo: usize,
) -> D::Value {
    match siblings {
        Some(s) if !dom.is_zero(new) => dom.combine(s, new),
        _ => dom.zero(endo),
    }
}

/// Divides factor `old` out of a maintained product (or uncounts it).
fn remove_factor<D: EvalDomain>(
    dom: &D,
    prod: &mut D::Value,
    zeros: &mut usize,
    old: &D::Value,
) -> Result<(), CoreError> {
    if dom.is_zero(old) {
        *zeros = zeros
            .checked_sub(1)
            .ok_or_else(|| broken("zero factor count"))?;
    } else {
        *prod = dom
            .try_divide(prod, old)
            .ok_or_else(|| broken("a child factor does not divide its parent's product"))?;
    }
    Ok(())
}

/// Multiplies factor `new` into a maintained product (or counts it).
fn add_factor<D: EvalDomain>(dom: &D, prod: &mut D::Value, zeros: &mut usize, new: &D::Value) {
    if dom.is_zero(new) {
        *zeros += 1;
    } else {
        *prod = dom.combine(prod, new);
    }
}

/// Moves `n` endogenous facts into (`grow`) or out of a split's junk
/// factor `free(junk)`.
fn shift_junk<D: EvalDomain>(
    dom: &D,
    prod: &mut D::Value,
    junk: &mut usize,
    n: usize,
    grow: bool,
) -> Result<(), CoreError> {
    if n == 0 {
        return Ok(());
    }
    let row = dom.free(n);
    if grow {
        *junk += n;
        *prod = dom.combine(prod, &row);
    } else {
        *junk = junk.checked_sub(n).ok_or_else(|| broken("junk count"))?;
        *prod = dom
            .try_divide(prod, &row)
            .ok_or_else(|| broken("junk does not divide its split's product"))?;
    }
    Ok(())
}

/// The value of a fold's ground atoms, each fact seen through `seen`.
fn fold_sat<D: EvalDomain>(dom: &D, slots: &[Slot], seen: Seen<'_>) -> D::Value {
    let mut acc = dom.one();
    for slot in slots {
        let fact = slot.fact.and_then(|f| Some((f, seen(f)?)));
        let factor = match (slot.negated, fact) {
            // A positive atom with no matching fact is unsatisfiable.
            (false, None) => dom.zero(0),
            (false, Some((f, endo))) => dom.present(f, endo),
            // A negative atom with no matching fact always holds.
            (true, None) => continue,
            (true, Some((f, endo))) => dom.absent(f, endo),
        };
        acc = dom.combine(&acc, &factor);
    }
    acc
}

/// How the facts of `db` look through `mask`.
fn through(db: &Database, mask: FactMask) -> impl Fn(FactId) -> Option<bool> + '_ {
    move |x| mask.admits(x).then(|| mask.is_endogenous(db, x))
}

impl<V: Clone> Tree<V> {
    /// Compiles the recursion over `atoms` with per-atom `scopes` (every
    /// fact of `scopes[i]` matches `atoms[i]`) on the unmasked `db`.
    ///
    /// # Errors
    /// [`CoreError::Unsupported`] for a connected sub-query without a
    /// root variable or a positive atom, and
    /// [`CoreError::DeadlineExceeded`] when the domain's token trips.
    pub(crate) fn build<D: EvalDomain<Value = V>>(
        dom: &D,
        db: &Database,
        atoms: &[PAtom],
        scopes: &[Vec<FactId>],
    ) -> Result<Self, CoreError> {
        let ids: Vec<usize> = (0..atoms.len()).collect();
        let view = MaskedDb::new(db, FactMask::None);
        Ok(Tree {
            root: Node::build(dom, view, atoms, &ids, scopes)?,
        })
    }

    /// The satisfying value of the whole tree on `db`.
    pub(crate) fn sat<D: EvalDomain<Value = V>>(&self, dom: &D, db: &Database) -> V {
        self.root
            .factor(dom, Role::Sat, &through(db, FactMask::None))
            .into_owned()
    }

    /// The satisfying values with the site's endogenous fact removed
    /// and with it exogenized, from one walk from its leaf to the root.
    ///
    /// # Errors
    /// [`CoreError::DeadlineExceeded`] when the domain's token trips;
    /// [`CoreError::Unsupported`] if a product no longer divides (an
    /// engine bug).
    pub(crate) fn masked_pair<D: EvalDomain<Value = V>>(
        &self,
        dom: &D,
        site: &Site<'_>,
    ) -> Result<(V, V), CoreError> {
        let mut steps = 0;
        let [minus, plus] = self.root.masked(dom, site, Role::Sat, &mut steps)?;
        record_steps(steps);
        Ok((minus, plus))
    }

    /// Applies `change` of the site's fact to the tree, after the
    /// database and `scopes` (the tree's per-atom scopes) were updated,
    /// by one walk from the fact's leaf to the root.
    ///
    /// # Errors
    /// As [`Tree::masked_pair`], plus the build errors of a sub-tree for
    /// a newly supported root value.
    pub(crate) fn update<D: EvalDomain<Value = V>>(
        &mut self,
        dom: &D,
        site: Site<'_>,
        scopes: &[Vec<FactId>],
        change: Change,
    ) -> Result<(), CoreError> {
        let edit = Edit {
            endo: FactMask::None.is_endogenous(site.db, site.fact),
            target: site,
            scopes,
            change,
        };
        let mut steps = 0;
        self.root
            .apply(dom, &edit, Role::Sat, &mut Vec::new(), &mut steps)?;
        record_steps(steps);
        Ok(())
    }
}

impl<V: Clone> Node<V> {
    /// Mirrors `eval_rec` on `atoms` (the original atoms `ids`, with the
    /// split variables above substituted) and their `scopes`.
    fn build<D: EvalDomain<Value = V>>(
        dom: &D,
        view: MaskedDb<'_>,
        atoms: &[PAtom],
        ids: &[usize],
        scopes: &[Vec<FactId>],
    ) -> Result<Self, CoreError> {
        charge(dom, 1)?;
        let endo = scope_endo_count(view, scopes);

        // Ground: the fold of the per-atom contributions.
        if atoms.iter().all(|a| !a.has_vars()) {
            let slots: Vec<Slot> = atoms
                .iter()
                .zip(ids)
                .zip(scopes)
                .map(|((a, &atom), scope)| {
                    debug_assert!(scope.len() <= 1, "ground pattern matches at most one fact");
                    Slot {
                        atom,
                        negated: a.negated,
                        fact: scope.first().copied(),
                    }
                })
                .collect();
            return Ok(Node {
                endo,
                kind: Kind::Fold(slots),
            });
        }
        let seen = through(view.db, FactMask::None);

        // Disconnected: the ground atoms share one fold, every other
        // component gets its own sub-tree.
        let components = connected_components(atoms);
        if components.len() > 1 {
            let (ground, open): (Vec<Vec<usize>>, Vec<Vec<usize>>) =
                components.into_iter().partition(|part| {
                    part.iter()
                        .all(|&i| atoms.get(i).is_some_and(|a| !a.has_vars()))
                });
            let ground: Vec<usize> = ground.into_iter().flatten().collect();
            let parts = (!ground.is_empty())
                .then_some(ground)
                .into_iter()
                .chain(open);
            let mut children = Vec::new();
            let mut route = Vec::new();
            for part in parts {
                let pick = |i: &usize| Some((atoms.get(*i)?, *ids.get(*i)?, scopes.get(*i)?));
                let picked: Vec<(&PAtom, usize, &Vec<FactId>)> =
                    part.iter().filter_map(pick).collect();
                let sub_atoms: Vec<PAtom> = picked.iter().map(|p| p.0.clone()).collect();
                let sub_ids: Vec<usize> = picked.iter().map(|p| p.1).collect();
                let sub_scopes: Vec<Vec<FactId>> = picked.iter().map(|p| p.2.clone()).collect();
                route.extend(sub_ids.iter().map(|&atom| (atom, children.len())));
                children.push(Node::build(dom, view, &sub_atoms, &sub_ids, &sub_scopes)?);
            }
            let factors: Vec<V> = children
                .iter()
                .map(|c| c.factor(dom, Role::Sat, &seen).into_owned())
                .collect();
            let (prod, zeros) = product_of(dom, &factors);
            let product = Product {
                prod,
                zeros,
                children,
                route,
            };
            return Ok(Node {
                endo,
                kind: Kind::Product(Box::new(product)),
            });
        }

        // Connected with variables: split over the root variable.
        let var = find_root_var(atoms).ok_or_else(|| {
            CoreError::Unsupported(
                "no root variable in a connected sub-query: the query is not hierarchical".into(),
            )
        })?;
        let mut children = Vec::new();
        let mut factors = Vec::new();
        let mut grouped = 0usize;
        let by_root = RootGroups::new(view, var, atoms, scopes);
        for c in root_candidates(view, var, atoms, scopes)? {
            let sub_atoms: Vec<PAtom> = atoms.iter().map(|a| a.substitute(var, c)).collect();
            let sub_scopes = by_root.group(c);
            let child = Node::build(dom, view, &sub_atoms, ids, &sub_scopes)?;
            grouped += child.endo;
            factors.push(child.factor(dom, Role::Unsat, &seen).into_owned());
            children.push((c, child));
        }
        let junk = endo
            .checked_sub(grouped)
            .ok_or_else(|| broken("grouped facts exceed the split's scopes"))?;
        factors.push(dom.free(junk));
        let (prod, zeros) = product_of(dom, &factors);
        let split = Split {
            var,
            atoms: ids.to_vec(),
            prod,
            zeros,
            junk,
            children,
        };
        Ok(Node {
            endo,
            kind: Kind::Split(Box::new(split)),
        })
    }

    /// The value the parent multiplies in when this node plays `role`:
    /// a product's `sat` and a split's `unsat` are their maintained
    /// products (zero when a factor is), the other role their
    /// complement, and a fold's value comes from its leaves (seen
    /// through `seen`).
    fn factor<D: EvalDomain<Value = V>>(&self, dom: &D, role: Role, seen: Seen<'_>) -> Cow<'_, V> {
        let endo = self.endo;
        match (&self.kind, role) {
            (Kind::Fold(slots), _) => {
                Cow::Owned(role.of_sat(dom, fold_sat(dom, slots, seen), endo))
            }
            (Kind::Product(p), Role::Sat) if p.zeros == 0 => Cow::Borrowed(&p.prod),
            (Kind::Product(p), _) => {
                let sat = if p.zeros == 0 {
                    p.prod.clone()
                } else {
                    dom.zero(endo)
                };
                Cow::Owned(role.of_sat(dom, sat, endo))
            }
            (Kind::Split(s), Role::Unsat) if s.zeros == 0 => Cow::Borrowed(&s.prod),
            (Kind::Split(s), _) => {
                let unsat = if s.zeros == 0 {
                    s.prod.clone()
                } else {
                    dom.zero(endo)
                };
                Cow::Owned(role.of_unsat(dom, unsat, endo))
            }
        }
    }

    /// This node's factors (in `role`) with the target removed and with
    /// it exogenized. The target is an endogenous fact below this node.
    fn masked<D: EvalDomain<Value = V>>(
        &self,
        dom: &D,
        t: &Site<'_>,
        role: Role,
        steps: &mut u64,
    ) -> Result<[V; 2], CoreError> {
        charge(dom, 2)?;
        *steps += 1;
        let endo = self
            .endo
            .checked_sub(1)
            .ok_or_else(|| broken("masked fact is not endogenous"))?;
        let now = through(t.db, FactMask::None);
        match &self.kind {
            Kind::Fold(slots) => Ok([FactMask::Removed(t.fact), FactMask::Exogenous(t.fact)]
                .map(|mask| role.of_sat(dom, fold_sat(dom, slots, &through(t.db, mask)), endo))),
            Kind::Product(p) => {
                let child = p
                    .route
                    .iter()
                    .find(|&&(atom, _)| atom == t.atom)
                    .and_then(|&(_, i)| p.children.get(i))
                    .ok_or_else(|| broken("product route"))?;
                let new = child.masked(dom, t, Role::Sat, steps)?;
                let old = child.factor(dom, Role::Sat, &now);
                let rest = siblings(dom, &p.prod, p.zeros, &old)?;
                Ok(new.map(|c| role.of_sat(dom, rejoin(dom, rest.as_deref(), &c, endo), endo)))
            }
            Kind::Split(s) => {
                let value = t.value_of(s.var)?;
                match s.children.binary_search_by_key(&value, |(c, _)| *c) {
                    Ok(i) => {
                        let (_, child) = s.children.get(i).ok_or_else(|| broken("split child"))?;
                        let new = child.masked(dom, t, Role::Unsat, steps)?;
                        let old = child.factor(dom, Role::Unsat, &now);
                        let rest = siblings(dom, &s.prod, s.zeros, &old)?;
                        Ok(new.map(|c| {
                            role.of_unsat(dom, rejoin(dom, rest.as_deref(), &c, endo), endo)
                        }))
                    }
                    Err(_) => {
                        // Junk here: either mask only drops one free fact.
                        let unsat = if s.zeros == 0 {
                            dom.try_divide(&s.prod, &dom.free(1))
                                .ok_or_else(|| broken("junk does not divide its split's product"))?
                        } else {
                            dom.zero(endo)
                        };
                        let factor = role.of_unsat(dom, unsat, endo);
                        Ok([factor.clone(), factor])
                    }
                }
            }
        }
    }

    /// Applies `edit` below this node (which covers the edited fact's
    /// atom, under the split values `path`) and returns the node's
    /// factor from before the edit.
    fn apply<D: EvalDomain<Value = V>>(
        &mut self,
        dom: &D,
        edit: &Edit<'_>,
        role: Role,
        path: &mut Vec<(u32, ConstId)>,
        steps: &mut u64,
    ) -> Result<V, CoreError> {
        charge(dom, 1)?;
        *steps += 1;
        let old = self.factor(dom, role, &|x| edit.before(x)).into_owned();
        let t = &edit.target;
        match &mut self.kind {
            Kind::Fold(slots) => {
                let slot = slots
                    .iter_mut()
                    .find(|s| s.atom == t.atom)
                    .ok_or_else(|| broken("fold slot"))?;
                match edit.change {
                    Change::Insert => slot.fact = Some(t.fact),
                    Change::Retract { .. } => slot.fact = None,
                    Change::Flip => {}
                }
            }
            Kind::Product(p) => {
                let Product {
                    prod,
                    zeros,
                    children,
                    route,
                } = &mut **p;
                let child = route
                    .iter()
                    .find(|&&(atom, _)| atom == t.atom)
                    .and_then(|&(_, i)| children.get_mut(i))
                    .ok_or_else(|| broken("product route"))?;
                let child_old = child.apply(dom, edit, Role::Sat, path, steps)?;
                remove_factor(dom, prod, zeros, &child_old)?;
                let new = child.factor(dom, Role::Sat, &through(t.db, FactMask::None));
                add_factor(dom, prod, zeros, &new);
            }
            Kind::Split(s) => {
                path.push((s.var, t.value_of(s.var)?));
                let result = s.edit(dom, edit, path, steps);
                path.pop();
                result?;
            }
        }
        self.endo = self
            .endo
            .checked_add_signed(edit.endo_shift())
            .ok_or_else(|| broken("endogenous count"))?;
        Ok(old)
    }
}

impl<V: Clone> Split<V> {
    /// The split level of [`Node::apply`]: `path` ends with the edited
    /// fact's root value here.
    fn edit<D: EvalDomain<Value = V>>(
        &mut self,
        dom: &D,
        edit: &Edit<'_>,
        path: &mut Vec<(u32, ConstId)>,
        steps: &mut u64,
    ) -> Result<(), CoreError> {
        let t = &edit.target;
        let positive = edit.positive(t.atom);
        let value = path
            .last()
            .map(|&(_, c)| c)
            .ok_or_else(|| broken("split path"))?;
        let found = self.children.binary_search_by_key(&value, |(c, _)| *c);
        match (found, edit.change) {
            // The fact was the last support of its root value here: the
            // child's remaining facts become junk.
            (Ok(i), Change::Retract { was_endo }) if positive && !edit.supported(t.atom, path) => {
                if i >= self.children.len() {
                    return Err(broken("split child"));
                }
                let (_, child) = self.children.remove(i);
                let old = child.factor(dom, Role::Unsat, &|x| edit.before(x));
                remove_factor(dom, &mut self.prod, &mut self.zeros, &old)?;
                let freed = child
                    .endo
                    .checked_sub(usize::from(was_endo))
                    .ok_or_else(|| broken("endogenous count"))?;
                shift_junk(dom, &mut self.prod, &mut self.junk, freed, true)
            }
            (Ok(i), _) => {
                let (_, child) = self
                    .children
                    .get_mut(i)
                    .ok_or_else(|| broken("split child"))?;
                let old = child.apply(dom, edit, Role::Unsat, path, steps)?;
                remove_factor(dom, &mut self.prod, &mut self.zeros, &old)?;
                let new = child.factor(dom, Role::Unsat, &through(t.db, FactMask::None));
                add_factor(dom, &mut self.prod, &mut self.zeros, &new);
                Ok(())
            }
            // An inserted positive fact completes the support of a new
            // root value: its facts leave the junk for a new child.
            (Err(i), Change::Insert)
                if positive
                    && self
                        .atoms
                        .iter()
                        .all(|&a| a == t.atom || !edit.positive(a) || edit.supported(a, path)) =>
            {
                let sub_atoms: Vec<PAtom> = self
                    .atoms
                    .iter()
                    .filter_map(|&a| {
                        let pattern = t.atoms.get(a)?;
                        Some(
                            path.iter()
                                .fold(pattern.clone(), |p, &(var, c)| p.substitute(var, c)),
                        )
                    })
                    .collect();
                let sub_scopes: Vec<Vec<FactId>> = self
                    .atoms
                    .iter()
                    .map(|&a| edit.scope_under(a, path))
                    .collect();
                let view = MaskedDb::new(t.db, FactMask::None);
                let child = Node::build(dom, view, &sub_atoms, &self.atoms, &sub_scopes)?;
                let absorbed = child
                    .endo
                    .checked_sub(usize::from(edit.endo))
                    .ok_or_else(|| broken("endogenous count"))?;
                shift_junk(dom, &mut self.prod, &mut self.junk, absorbed, false)?;
                let new = child.factor(dom, Role::Unsat, &through(t.db, FactMask::None));
                add_factor(dom, &mut self.prod, &mut self.zeros, &new);
                self.children.insert(i, (value, child));
                Ok(())
            }
            // A junk fact: only the free factor moves.
            (Err(_), _) => {
                let delta = edit.endo_shift();
                shift_junk(
                    dom,
                    &mut self.prod,
                    &mut self.junk,
                    delta.unsigned_abs(),
                    delta > 0,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{eval_rec, CountingDomain, FactProbabilities, ProbabilityDomain};
    use crate::satcount::{resolve_query, ResolvedQuery};
    use cqshap_db::Provenance;
    use cqshap_numeric::BigRational;
    use cqshap_query::parse_cq;

    /// Splits on x, y, z and w, with negated atoms at two levels.
    const DEEP: &str = "q() :- A(x), C(x, y), !D(x, y), E(x, y, z), F(x, y, z, w), !H(x, y, z, w)";
    const RELATIONS: [(&str, usize); 6] =
        [("A", 1), ("C", 2), ("D", 2), ("E", 3), ("F", 4), ("H", 4)];

    fn hash(k: u64) -> u64 {
        (k ^ 0x2545_F491_4F6C_DD1D)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }

    fn resolve(db: &Database) -> (Vec<PAtom>, Vec<Vec<FactId>>) {
        match resolve_query(db, &parse_cq(DEEP).unwrap()).unwrap() {
            ResolvedQuery::Atoms { atoms, scopes, .. } => (atoms, scopes),
            ResolvedQuery::Unsatisfiable => unreachable!("every relation is declared"),
        }
    }

    /// A dense random instance over two constants.
    fn instance(seed: u64) -> Database {
        let mut db = Database::new();
        for (rel, arity) in RELATIONS {
            db.add_relation(rel, arity).unwrap();
        }
        for k in 0..40 {
            let h = hash(seed * 1000 + k);
            let (rel, arity) = RELATIONS[(h % 6) as usize];
            let tuple: Vec<String> = (0..arity)
                .map(|i| format!("c{}", (h >> (8 + i)) & 1))
                .collect();
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            let provenance = if (h >> 20).is_multiple_of(3) {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            };
            let _ = db.insert(rel, &refs, provenance);
        }
        db
    }

    /// Every endogenous fact's masked pair equals the uncompiled
    /// recursion on the masked views.
    fn assert_walks_match_recursion<D: EvalDomain>(dom: &D, db: &Database, tree: &Tree<D::Value>) {
        let (atoms, scopes) = resolve(db);
        for (atom, scope) in scopes.iter().enumerate() {
            for &f in scope.iter().filter(|&&f| db.endo_index(f).is_some()) {
                let site = Site {
                    db,
                    atoms: &atoms,
                    fact: f,
                    atom,
                };
                let (minus, plus) = tree.masked_pair(dom, &site).unwrap();
                let removed: Vec<Vec<FactId>> = scopes
                    .iter()
                    .map(|s| s.iter().copied().filter(|&x| x != f).collect())
                    .collect();
                let view = |mask| MaskedDb::new(db, mask);
                assert_eq!(
                    minus,
                    eval_rec(dom, view(FactMask::Removed(f)), &atoms, &removed).unwrap()
                );
                assert_eq!(
                    plus,
                    eval_rec(dom, view(FactMask::Exogenous(f)), &atoms, &scopes).unwrap()
                );
            }
        }
    }

    /// Random flips, inserts and retractions keep a maintained tree
    /// identical, node for node, to a fresh build, and its walks equal
    /// to the uncompiled recursion.
    fn maintained_equals_fresh<D: EvalDomain>(dom: &D, seed: u64) {
        let mut db = instance(seed);
        let (atoms, scopes) = resolve(&db);
        let mut tree = Tree::build(dom, &db, &atoms, &scopes).unwrap();
        assert_walks_match_recursion(dom, &db, &tree);
        for step in 0..60 {
            let h = hash(seed * 7919 + step);
            let live: Vec<FactId> = db.fact_ids().collect();
            let (f, change) = match h % 3 {
                0 => {
                    let f = live[(h >> 8) as usize % live.len()];
                    let endo = db.endo_index(f).is_none();
                    let to = if endo {
                        Provenance::Endogenous
                    } else {
                        Provenance::Exogenous
                    };
                    db.set_fact_provenance(f, to).unwrap();
                    (f, Change::Flip)
                }
                1 => {
                    let f = live[(h >> 8) as usize % live.len()];
                    let was_endo = db.endo_index(f).is_some();
                    db.retract_fact(f).unwrap();
                    (f, Change::Retract { was_endo })
                }
                _ => {
                    let (rel, arity) = RELATIONS[((h >> 8) % 6) as usize];
                    let tuple: Vec<String> = (0..arity)
                        .map(|i| format!("c{}", (h >> (16 + i)) % 3))
                        .collect();
                    let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
                    let Ok(f) = db.insert(rel, &refs, Provenance::Endogenous) else {
                        continue;
                    };
                    (f, Change::Insert)
                }
            };
            let (atoms, scopes) = resolve(&db);
            let atom = RELATIONS
                .iter()
                .position(|&(rel, _)| db.schema().id(rel) == Some(db.fact(f).rel))
                .unwrap();
            let site = Site {
                db: &db,
                atoms: &atoms,
                fact: f,
                atom,
            };
            tree.update(dom, site, &scopes, change).unwrap();
            let fresh = Tree::build(dom, &db, &atoms, &scopes).unwrap();
            assert_eq!(
                format!("{tree:?}"),
                format!("{fresh:?}"),
                "step {step}: {change:?}"
            );
            assert_walks_match_recursion(dom, &db, &tree);
        }
    }

    #[test]
    fn counting_trees_stay_fresh_under_updates() {
        for seed in 0..12 {
            maintained_equals_fresh(&CountingDomain::new(None), seed);
        }
    }

    #[test]
    fn probability_trees_stay_fresh_under_updates() {
        let probs = FactProbabilities::uniform(BigRational::from_i64_ratio(2, 7));
        for seed in 0..6 {
            maintained_equals_fresh(&ProbabilityDomain::new(probs.clone(), None), seed);
        }
    }
}
