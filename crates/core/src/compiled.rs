//! The batched all-facts Shapley engine: compile-once `CntSat` with
//! incremental per-fact recounting and incremental maintenance across
//! database updates.
//!
//! [`crate::shapley::shapley_via_counts`] answers one fact by running
//! the full hierarchical DP twice; an all-facts report over `m`
//! endogenous facts therefore repeats atom resolution, relation
//! scoping, and the convolution of every *unchanged* root group `2m`
//! times. [`CompiledCount`] does that shared work **once per
//! `(db, query)`** and then answers each fact from the pieces that
//! actually change:
//!
//! 1. **Compile** — resolve the query's atoms, build per-relation
//!    scopes, split into connected components, and group each
//!    component's facts by their root value. Below the groups, Lemma
//!    3.2's recursion is compiled once into a tree per root group (and
//!    per ground component; see `crate::tree`): ground folds, products
//!    and root splits, each node holding its value.
//! 2. **Cache** — every component's satisfying-count polynomial, every
//!    root group's unsatisfying-count polynomial, per rooted component
//!    *one* product of its groups' factors, and per component the
//!    product of the other components' values (the prefix/suffix
//!    descent of [`EvalDomain::leave_one_out`]); plus the Shapley
//!    weights `ω[k] = lcm(1..m′)·k!·(m′−1−k)!/m′!`, integers over the
//!    common denominator `lcm(1..m′)` of the `m′` non-null players. A
//!    group's leave-one-out environment is derived from the component
//!    product on demand, and so is the full-database value
//!    ([`CompiledProbability::probability`], and the counting totals
//!    the tests read), which no report reads.
//! 3. **Recount** — for fact `f`, walk from `f`'s leaf in its group's
//!    tree to the tree's root under the two [`FactMask`] views (`f`
//!    removed, `f` exogenized; no database clones): one exact division
//!    and two short products per level, nothing mutated. The short
//!    difference vector `d` of the two group counts is zero for many
//!    facts; otherwise it is lifted through its environment and
//!    weighted, `Σ_t (d ⊛ E)[t]·ω[t]` (Theorem 3.1's contraction), in
//!    one pass over `E` that never materializes `d ⊛ E`
//!    ([`ShapleyWeights::contract_lifted`]), and carried to the common
//!    denominator `lcm(1..m)` by the integer `lcm(1..m)/lcm(1..m′)`.
//!
//! Facts outside every scope ("free") and facts whose root value lacks
//! positive support ("junk") are null players: their values are exact
//! zeros without any recounting, and, since a Shapley value does not
//! change when a null player joins or leaves the game, they enter no
//! cached value either. Every polynomial above runs over the non-null
//! facts only, and the binomial row `(1+x)^k` of the `k` null players
//! is multiplied in only where a full-database count is read (the
//! totals and masked count pairs the tests compare to the oracles).
//! For the contraction this is the identity
//! `Σ_t (d ⊛ (1+x)^k)[t]·t!(m−1−t)!/m! = Σ_s d[s]·s!(m′−1−s)!/m′!`
//! with `m′ = m − k`.
//!
//! The per-fact cost drops from `O(m)` full-database DP work (plus two
//! database clones) to one leaf-to-root path of one root group's tree,
//! and the contraction runs once per distinct `(weight class, d)` pair.
//!
//! ## Incremental maintenance
//!
//! The engine does not borrow the database: every query-time method
//! takes `&Database`, and [`CompiledCount::update`] *patches* the
//! compiled state after an in-place database update
//! ([`Database::retract_fact`] / [`Database::set_fact_provenance`] /
//! an insertion) instead of recompiling. Each rooted component keeps
//! `unsat_all`, the product of its groups' *nonzero* `unsat` factors,
//! and a count `zeros` of the always-satisfied groups (identically zero
//! `unsat`). A root group's leave-one-out environment
//! `genv_g = ⊛_{h≠g} unsat_h` is then `unsat_all / unsat_g` when
//! `zeros = 0`, `unsat_all` itself for the one always-satisfied group
//! when `zeros = 1`, and zero otherwise. A single-group change is a
//! factor swap on `unsat_all` alone — one exact division by the old
//! factor (or `zeros −= 1`) and one combination with the new one (or
//! `zeros += 1`) — and a free or junk fact moves only `m`. No update
//! touches the other groups: their environments are derived lazily by
//! the next report (one division per weight class) or conditional
//! read (one per group), so an update costs what it touches.
//! Inside the touched group, the update walks the same leaf-to-root
//! path of the group's tree as a recount and keeps the new values; a
//! root value appearing or dying *below* the group adds or drops one
//! child of that path. The report memos that depend on `m` or on the
//! environments are then cleared and, when `m′` moved, the weights
//! rebuilt (word-size ratio steps). Structural drift at the component
//! level — a root group appearing or dying, a query atom resolving
//! differently — makes `update` report that a full recompile is
//! needed.
//!
//! The resulting values are *bit-identical* to the per-fact oracle: the
//! weighted sums are accumulated as exact integers over the common
//! denominator `lcm(1..m)` and normalized once, and every maintained
//! polynomial is recomputed exactly (division of exact factors), so a
//! maintained engine agrees bit-for-bit with a freshly compiled one.
//!
//! Both engines are internal to the crate: a [`crate::ShapleySession`]
//! compiles, maintains and reads them through its routing plan, and the
//! engine-level checks (count pairs, totals, conditionals, raw update
//! sequences) are this module's unit tests.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cqshap_db::{ConstId, Database, FactId, FactMask, RelId};
use cqshap_numeric::{BigInt, BigRational, BigUint, LcmDenominator, ShapleyWeights};
use cqshap_obs::{phase as obs_phase, Counter, Span};
use cqshap_query::{ConjunctiveQuery, Term};

use crate::budget::CancelToken;
use crate::domain::{CountingDomain, EvalDomain, FactProbabilities, ProbabilityDomain};
use crate::error::CoreError;
use crate::satcount::{
    connected_components, find_root_var, resolve_query, root_candidates, scope_endo_count,
    MaskedDb, PAtom, ResolvedQuery, RootGroups,
};
use crate::tree::{Change, Site, Tree};

// Cache-effectiveness counters: the iso-class memo of the compile
// recursion and the masked-recount memo of the report path. Locally
// readable for tests, forwarded to the installed recorder when tracing.
static CLASS_MEMO_HIT: Counter = Counter::new(obs_phase::CTR_CLASS_MEMO_HIT);
static CLASS_MEMO_MISS: Counter = Counter::new(obs_phase::CTR_CLASS_MEMO_MISS);
static RECOUNT_CACHE_HIT: Counter = Counter::new(obs_phase::CTR_RECOUNT_CACHE_HIT);
static RECOUNT_CACHE_MISS: Counter = Counter::new(obs_phase::CTR_RECOUNT_CACHE_MISS);
static NUMERATOR_MEMO_HIT: Counter = Counter::new(obs_phase::CTR_NUMERATOR_MEMO_HIT);
static NUMERATOR_MEMO_MISS: Counter = Counter::new(obs_phase::CTR_NUMERATOR_MEMO_MISS);

/// One in-place database change, as seen by a compiled engine.
///
/// The database must be mutated *first*; the engine then patches its
/// caches from the post-update state (retracted facts stay readable
/// through their tombstones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineUpdate {
    /// A freshly inserted fact.
    Inserted(FactId),
    /// A fact retracted in place ([`Database::retract_fact`]).
    Retracted(FactId),
    /// A fact whose provenance flipped in either direction
    /// ([`Database::set_fact_provenance`]).
    ProvenanceFlipped(FactId),
}

impl EngineUpdate {
    fn fact(self) -> FactId {
        match self {
            EngineUpdate::Inserted(f)
            | EngineUpdate::Retracted(f)
            | EngineUpdate::ProvenanceFlipped(f) => f,
        }
    }
}

/// Where a non-null endogenous fact lives in the compiled structure.
/// Null players — facts outside every scope, and "junk" facts in a
/// component's scopes whose root value lacks full positive support —
/// have no location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In a ground (variable-free) component.
    Ground { comp: usize },
    /// In the root group `group` of component `comp`.
    Grouped { comp: usize, group: usize },
}

/// One root-value group of a connected component: the sub-query with
/// the root substituted, its fact scopes, and its cached values in the
/// engine's evaluation domain (`V = D::Value`).
struct RootGroup<V> {
    /// The root value of the group.
    value: ConstId,
    /// Endogenous facts in the group.
    endo: usize,
    /// The component's atoms with the root variable substituted.
    atoms: Vec<PAtom>,
    /// Per-atom scopes restricted to this root value.
    scopes: Vec<Vec<FactId>>,
    /// The group's unsatisfying value `complement(sat, endo)` on the
    /// unmodified db (counting: `[C(endo,j) − sat_j]`; probability:
    /// `1 − P_c`).
    unsat: V,
    /// The leave-one-out environment `⊛_{h≠g} unsat_h` over the other
    /// groups (no junk row: junk facts are null players), derived on
    /// first use from the component's product
    /// ([`CompiledEngine::group_env`]) and emptied whenever that product
    /// changes. `None` records a failed division (never for exact
    /// factors).
    env: OnceLock<Option<V>>,
    /// Canonical form of the group's atoms and scope facts (constants
    /// renamed by first occurrence, endogeneity flags included): groups
    /// with equal forms are isomorphic, so their counting recounts
    /// coincide role-for-role and share one cache entry (probabilities
    /// do *not* — see [`EvalDomain::canon_determines_value`]).
    canon: Arc<Vec<u32>>,
    /// The group's compiled recursion. Compile builds it unless the
    /// class memo supplied the group's value; then the group's first
    /// recount or update does.
    tree: OnceLock<Tree<V>>,
}

/// The shape of one connected component.
enum CompKind<V> {
    /// Entirely ground: a single fold of its atoms.
    Ground { tree: Tree<V> },
    /// Connected with a root variable: one [`RootGroup`] per root value
    /// with full positive support.
    Rooted {
        /// `⊛` of the groups' *nonzero* `unsat` factors: the
        /// component's unsatisfying value when `zeros = 0`, and the
        /// numerator every group environment is divided out of. An
        /// update swaps one factor: exact division by the old one,
        /// combination with the new one.
        unsat_all: V,
        /// How many groups have an identically zero `unsat` (always
        /// satisfied). Zero factors are counted, not multiplied in, so
        /// they never need dividing back out.
        zeros: usize,
        groups: Vec<RootGroup<V>>,
    },
}

/// A connected component of the query with its cached values.
struct Component<V> {
    /// The component's atom patterns (before root substitution).
    atoms: Vec<PAtom>,
    /// The relation of each atom (for locating updated facts).
    rels: Vec<RelId>,
    /// Per-atom scopes of the whole component (groups + junk).
    scopes: Vec<Vec<FactId>>,
    /// The root variable (rooted components only).
    root: Option<u32>,
    /// Non-null endogenous facts in the component's scopes: a ground
    /// component's all, a rooted one's grouped facts (junk excluded).
    endo: usize,
    /// Satisfying value over those `endo` facts on the unmodified
    /// database.
    sat: V,
    /// `⊛_{j≠i} sat_j` — every other component, and no null player.
    env: V,
    kind: CompKind<V>,
}

impl<V> Component<V> {
    /// The component's root groups (none for a ground component).
    fn groups(&self) -> &[RootGroup<V>] {
        match &self.kind {
            CompKind::Rooted { groups, .. } => groups,
            CompKind::Ground { .. } => &[],
        }
    }

    /// Rebuilds what a rooted component derives from its factor product
    /// — the endogenous count and the satisfying value — and empties the
    /// groups' environment slots. Compile and every update of one of
    /// the component's groups end here.
    fn refresh_rooted<D: EvalDomain<Value = V>>(&mut self, dom: &D) {
        let CompKind::Rooted {
            unsat_all,
            zeros,
            groups,
        } = &mut self.kind
        else {
            return;
        };
        self.endo = groups.iter().map(|g| g.endo).sum::<usize>();
        for g in groups.iter_mut() {
            g.env.take();
        }
        let _span = Span::enter(obs_phase::COMPLEMENT);
        self.sat = if *zeros == 0 {
            dom.complement(unsat_all, self.endo)
        } else {
            dom.complement(&dom.zero(self.endo), self.endo)
        };
    }
}

/// Where an updated fact landed during [`CompiledEngine::update`].
enum Placement {
    Free,
    Component { comp: usize, atom: usize },
}

/// A `(db, query)` pair compiled through Lemma 3.2's recursion into
/// resolution / scope / component / root-group structure, with every
/// cached value generic over the [`EvalDomain`]. This is the shared
/// kernel behind [`CompiledCount`] (exact Shapley counting) and
/// [`CompiledProbability`] (tuple-independent lifted inference): one
/// compile, incremental maintenance, per-fact masked tree walks —
/// the arithmetic is the only thing that differs.
struct CompiledEngine<D: EvalDomain> {
    dom: D,
    /// The compiled query (kept for update-time re-resolution checks).
    query: ConjunctiveQuery,
    /// Which atoms resolved (relation known, constants known) — any
    /// drift here after an update forces a recompile.
    fingerprint: Vec<(bool, bool)>,
    m: usize,
    /// `false` iff some positive atom can never match: the zero value.
    satisfiable: bool,
    /// Null endogenous facts: outside every atom scope (free), or junk
    /// in a rooted component. `m − null_endo` players are left.
    null_endo: usize,
    /// `⊛_i sat_i` over all components (no null player), derived on
    /// first read and emptied by every refresh.
    all_sat: OnceLock<D::Value>,
    /// The full-database value `all_sat ⊛ free(null_endo)` (counting:
    /// `[|Sat(D,q,k)|]`, length `m+1`; probability: `Pr[q]`), derived
    /// on first read and emptied by every refresh: no report reads it.
    total: OnceLock<D::Value>,
    components: Vec<Component<D::Value>>,
    locs: HashMap<FactId, Loc>,
}

/// A `(db, query)` pair compiled for batched all-facts Shapley
/// computation: the domain-generic engine instantiated at the exact
/// counting domain, plus the Shapley-specific machinery (the weights
/// over `lcm(1..m′)` of the `m′` non-null players, the lift to
/// `lcm(1..m)`, the weight classes, and the
/// recount/numerator/reduction memos). Shared immutably across report
/// worker threads; does not borrow the database — query-time methods
/// take `&Database`, and [`CompiledCount::update`] maintains the caches
/// across in-place database updates.
///
/// A fact's Shapley numerator over `lcm(1..m)` is the contraction
/// `Σ_t (d ⊛ E)[t]·ω[t]` of its masked difference vector
/// `d = N⁺ − N` (group-local for a grouped fact) with its environment
/// `E` — `genv ⊛ env` of the fact's root group, or `env` for a ground
/// component — and the weights `ω[k] = lcm(1..m′)·k!(m′−1−k)!/m′!`,
/// times the integer `lcm(1..m)/lcm(1..m′)`. It
/// runs on demand in the report, once per distinct
/// `(component, weight class, d)`: a weight class is the root groups of
/// a component with equal `unsat`, which share `genv` and therefore
/// `E`. `genv` itself is not stored: the report derives it per class
/// from the component's maintained factor product, so an update never
/// touches the untouched groups.
pub(crate) struct CompiledCount {
    eng: CompiledEngine<CountingDomain>,
    /// The Shapley weights of the non-null players,
    /// `ω[k] = lcm(1..m′)·k!(m′−1−k)!/m′!`, `k < m′`.
    weights: ShapleyWeights,
    /// `lcm(1..m)`, the denominator every numerator is returned over.
    denominator: LcmDenominator,
    /// `lcm(1..m)/lcm(1..m′)`: carries a contraction over the weights'
    /// denominator to `denominator`.
    lift: BigUint,
    /// Per component: its weight classes and their environments.
    classes: Vec<WeightClasses>,
    /// Numerator → reduced value memo: facts of isomorphic root groups
    /// share their Shapley numerator, so the `lcm(1..m)`-denominator
    /// reduction runs once per *distinct* numerator per (db, m) state.
    reduced: OnceMemo<BigInt, BigRational>,
    /// `(group canonical form, masked fact's role)` → the two masked
    /// count vectors of the reduction: the per-fact recount runs once
    /// per isomorphism class and role instead of once per fact. The
    /// entries are *not* cleared by updates. The canonical form records
    /// the group's atoms and every scope fact with its endogeneity, so
    /// it fixes the group-local counting recursion up to renaming; the
    /// role fixes the masked fact. The two count vectors are group-local
    /// — they depend on neither the sibling groups nor `m` — so a key
    /// keeps its value across updates, and only a touched group (whose
    /// canonical form is recomputed) can miss again.
    pairs: OnceMemo<PairKey, (Vec<BigUint>, Vec<BigUint>)>,
    /// `(component, weight class, d)` → the Shapley numerator.
    numerators: OnceMemo<(usize, usize, Vec<BigInt>), BigInt>,
}

/// The weight classes of one component: root groups with equal
/// `unsat` have equal leave-one-out environments, so they share one
/// contraction environment `E = genv ⊛ env`, derived once per class
/// and rebuilt with the layout after every update. Ground components
/// have a single class whose environment is `env` itself.
struct WeightClasses {
    /// The class of each root group (empty for a ground component).
    class_of: Vec<usize>,
    /// A representative root group per class.
    reps: Vec<usize>,
    /// Per class: `E`, built on first use by a report (`None` records
    /// a failed division).
    envs: Vec<OnceLock<Option<Vec<BigUint>>>>,
}

impl WeightClasses {
    fn new(comp: &Component<Vec<BigUint>>) -> Self {
        let mut class_of = Vec::new();
        let mut reps = Vec::new();
        if let CompKind::Rooted { groups, .. } = &comp.kind {
            let mut seen: HashMap<&[BigUint], usize> = HashMap::new();
            for (g, group) in groups.iter().enumerate() {
                let next = reps.len();
                let c = *seen.entry(group.unsat.as_slice()).or_insert(next);
                if c == next {
                    reps.push(g);
                }
                class_of.push(c);
            }
        }
        let envs = reps.iter().map(|_| OnceLock::new()).collect();
        WeightClasses {
            class_of,
            reps,
            envs,
        }
    }
}

/// A memo computing each key's value at most once. The map lock only
/// hands out the key's slot; the value is computed under the slot's own
/// lock, so concurrent callers of one key wait for the first one
/// instead of computing it again. A failed computation leaves the slot
/// empty for the next caller.
struct OnceMemo<K, V> {
    slots: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K: Hash + Eq, V: Clone> OnceMemo<K, V> {
    fn new() -> Self {
        OnceMemo {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The value of `key` and whether it was already present, running
    /// `compute` when it was not.
    fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = value.as_ref() {
            return Ok((v.clone(), true));
        }
        let v = compute()?;
        *value = Some(v.clone());
        Ok((v, false))
    }

    /// [`OnceMemo::get_or_try_insert_with`] for a computation that
    /// cannot fail.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        match self.get_or_try_insert_with(key, || Ok::<V, Infallible>(compute())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    fn clear(&mut self) {
        self.slots
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Lifted inference for a tuple-independent probabilistic database,
/// served from the *same* compiled structure as [`CompiledCount`]: the
/// domain-generic engine instantiated at the exact-rational probability
/// domain. `Pr[q]` is the engine's total, derived on first read;
/// conditionals `Pr[q | f present/absent]` are per-fact masked tree
/// walks; and [`CompiledProbability::update`] maintains the compile
/// across database updates exactly like the counting engine (a declined
/// update means the caller recompiles).
pub(crate) struct CompiledProbability {
    eng: CompiledEngine<ProbabilityDomain>,
}

/// Cache key: a group's canonical form plus the masked fact's role
/// (atom index, position within that atom's scope).
type PairKey = (Arc<Vec<u32>>, usize, usize);

/// The canonical form of `(atoms, scopes)`: atom patterns and scope
/// tuples with all constants renamed by first occurrence and each
/// fact's endogeneity recorded. Equal forms ⟹ the groups are related
/// by a constant-and-fact bijection that the counting recursion cannot
/// distinguish.
fn canonical_form(db: &Database, atoms: &[PAtom], scopes: &[Vec<FactId>]) -> Vec<u32> {
    use crate::satcount::PTerm;
    let mut rename: HashMap<ConstId, u32> = HashMap::new();
    let mut out: Vec<u32> = Vec::new();
    let canon = |c: ConstId, rename: &mut HashMap<ConstId, u32>| -> u32 {
        let next = rename.len() as u32;
        *rename.entry(c).or_insert(next)
    };
    for (atom, scope) in atoms.iter().zip(scopes) {
        out.push(u32::MAX);
        out.push(atom.negated as u32);
        for t in &atom.terms {
            match t {
                PTerm::Var(v) => {
                    out.push(u32::MAX - 1);
                    out.push(*v);
                }
                PTerm::Const(c) => {
                    out.push(u32::MAX - 2);
                    out.push(canon(*c, &mut rename));
                }
            }
        }
        for &f in scope {
            let fact = db.fact(f);
            out.push(u32::MAX - 3);
            out.push(fact.provenance.is_endogenous() as u32);
            for &c in fact.tuple.values() {
                out.push(canon(c, &mut rename));
            }
        }
    }
    out
}

/// The error of a group environment that could not be derived: the
/// component product no longer divides exactly (an engine bug, not an
/// input error).
fn env_unavailable() -> CoreError {
    CoreError::Unsupported(
        "a root group's environment does not divide its component product".into(),
    )
}

/// The error of a fact location that no longer matches the compiled
/// structure (an engine bug, not an input error).
fn stale_location() -> CoreError {
    CoreError::Unsupported("a fact's compiled location no longer matches the engine".into())
}

/// The atom of `f` within `scopes` and its position in that atom's
/// scope: the fact's role in its root group.
fn role_of(scopes: &[Vec<FactId>], f: FactId) -> Option<(usize, usize)> {
    scopes
        .iter()
        .enumerate()
        .find_map(|(ai, scope)| scope.iter().position(|&x| x == f).map(|pos| (ai, pos)))
}

/// Which atoms of `q` resolve against `db` (relation known, every
/// constant interned). Updates that change this change the resolved
/// atom list itself, which is beyond incremental maintenance.
fn resolution_fingerprint(db: &Database, q: &ConjunctiveQuery) -> Vec<(bool, bool)> {
    q.atoms()
        .iter()
        .map(|a| {
            (
                db.schema().id(&a.relation).is_some(),
                a.terms.iter().all(|t| match t {
                    Term::Const(name) => db.interner().get(name).is_some(),
                    Term::Var(_) => true,
                }),
            )
        })
        .collect()
}

impl<D: EvalDomain> CompiledEngine<D> {
    /// Compiles `q` against `db` in domain `dom` with a worker cap for
    /// the parallel product trees (`0` = all available cores).
    ///
    /// Root groups with equal canonical forms are isomorphic; when the
    /// domain's values are canon-determined (counting), each class's
    /// recursion tree is built once and its value shared across the
    /// class; the other groups build their trees when first recounted.
    fn compile(
        db: &Database,
        q: &ConjunctiveQuery,
        threads: usize,
        dom: D,
    ) -> Result<Self, CoreError> {
        let m = db.endo_count();
        let fingerprint = resolution_fingerprint(db, q);
        let view = MaskedDb::new(db, FactMask::None);
        let (atoms, rels, scopes) = match resolve_query(db, q)? {
            ResolvedQuery::Unsatisfiable => {
                return Ok(CompiledEngine {
                    dom,
                    query: q.clone(),
                    fingerprint,
                    m,
                    satisfiable: false,
                    null_endo: m,
                    all_sat: OnceLock::new(),
                    total: OnceLock::new(),
                    components: Vec::new(),
                    locs: HashMap::new(),
                });
            }
            ResolvedQuery::Atoms {
                atoms,
                rels,
                scopes,
            } => (atoms, rels, scopes),
        };

        let mut components: Vec<Component<D::Value>> = Vec::new();
        let mut locs: HashMap<FactId, Loc> = HashMap::new();
        // Per-isomorphism-class memo of the group recursion (only
        // consulted when the domain's values are canon-determined).
        let mut class_sat: HashMap<Vec<u32>, D::Value> = HashMap::new();
        for idxs in connected_components(&atoms) {
            let ci = components.len();
            let picked: Vec<(&PAtom, RelId, &Vec<FactId>)> = idxs
                .iter()
                .filter_map(|&i| Some((atoms.get(i)?, *rels.get(i)?, scopes.get(i)?)))
                .collect();
            let sub_atoms: Vec<PAtom> = picked.iter().map(|p| p.0.clone()).collect();
            let sub_rels: Vec<RelId> = picked.iter().map(|p| p.1).collect();
            let sub_scopes: Vec<Vec<FactId>> = picked.iter().map(|p| p.2.clone()).collect();
            if sub_atoms.iter().all(|a| !a.has_vars()) {
                let tree = Tree::build(&dom, db, &sub_atoms, &sub_scopes)?;
                for &f in sub_scopes.iter().flatten() {
                    if view.is_endo(f) {
                        locs.insert(f, Loc::Ground { comp: ci });
                    }
                }
                components.push(Component {
                    atoms: sub_atoms,
                    rels: sub_rels,
                    endo: scope_endo_count(view, &sub_scopes),
                    scopes: sub_scopes,
                    root: None,
                    sat: tree.sat(&dom, db),
                    env: dom.one(),
                    kind: CompKind::Ground { tree },
                });
                continue;
            }
            let root = find_root_var(&sub_atoms).ok_or_else(|| {
                CoreError::Unsupported(
                    "no root variable in a connected sub-query: the query is not hierarchical"
                        .into(),
                )
            })?;
            let candidates = root_candidates(view, root, &sub_atoms, &sub_scopes)?;
            let by_root = RootGroups::new(view, root, &sub_atoms, &sub_scopes);
            let mut groups: Vec<RootGroup<D::Value>> = Vec::new();
            for &c in &candidates {
                let _group_span = Span::enter(obs_phase::COMPILE);
                let g_atoms: Vec<PAtom> = sub_atoms.iter().map(|a| a.substitute(root, c)).collect();
                let g_scopes = by_root.group(c);
                let g_endo = scope_endo_count(view, &g_scopes);
                let canon = Arc::new(canonical_form(db, &g_atoms, &g_scopes));
                let tree = OnceLock::new();
                let memoized = if dom.canon_determines_value() {
                    let hit = class_sat.get(canon.as_ref()).cloned();
                    if hit.is_some() {
                        CLASS_MEMO_HIT.incr();
                    } else {
                        CLASS_MEMO_MISS.incr();
                    }
                    hit
                } else {
                    None
                };
                let sat_c = match memoized {
                    Some(v) => v,
                    None => {
                        let built = Tree::build(&dom, db, &g_atoms, &g_scopes)?;
                        let v = built.sat(&dom, db);
                        if dom.canon_determines_value() {
                            class_sat.insert(canon.as_ref().clone(), v.clone());
                        }
                        tree.get_or_init(|| built);
                        v
                    }
                };
                for &f in g_scopes.iter().flatten() {
                    if view.is_endo(f) {
                        locs.insert(
                            f,
                            Loc::Grouped {
                                comp: ci,
                                group: groups.len(),
                            },
                        );
                    }
                }
                let unsat = dom.complement(&sat_c, g_endo);
                groups.push(RootGroup {
                    value: c,
                    endo: g_endo,
                    atoms: g_atoms,
                    scopes: g_scopes,
                    unsat,
                    env: OnceLock::new(),
                    canon,
                    tree,
                });
            }
            let factors: Vec<&D::Value> = groups
                .iter()
                .map(|g| &g.unsat)
                .filter(|u| !dom.is_zero(u))
                .collect();
            let zeros = groups.len() - factors.len();
            let unsat_all = {
                let _span = Span::enter(obs_phase::COMPILE_PRODUCT);
                dom.product(&factors, threads, obs_phase::COMPILE)?
            };
            let mut comp = Component {
                atoms: sub_atoms,
                rels: sub_rels,
                scopes: sub_scopes,
                root: Some(root),
                endo: 0,
                sat: dom.one(),
                env: dom.one(),
                kind: CompKind::Rooted {
                    unsat_all,
                    zeros,
                    groups,
                },
            };
            comp.refresh_rooted(&dom);
            components.push(comp);
        }

        let null_endo = m - components.iter().map(|c| c.endo).sum::<usize>();

        let mut engine = CompiledEngine {
            dom,
            query: q.clone(),
            fingerprint,
            m,
            satisfiable: true,
            null_endo,
            all_sat: OnceLock::new(),
            total: OnceLock::new(),
            components,
            locs,
        };
        engine.refresh_envs(obs_phase::COMPILE)?;
        Ok(engine)
    }

    /// Recomputes what a report reads downstream of the per-component
    /// values: each component's environment `⊛_{j≠i} sat_j`, by the
    /// prefix/suffix descent (no product at all for one or two
    /// components). The full-database values are only emptied, to be
    /// derived by their first reader. Shared by
    /// [`CompiledEngine::compile`] and [`CompiledEngine::update`], which
    /// name themselves as `phase`.
    fn refresh_envs(&mut self, phase: &'static str) -> Result<(), CoreError> {
        self.all_sat.take();
        self.total.take();
        let _span = Span::enter(obs_phase::LEAVE_ONE_OUT);
        let sats: Vec<&D::Value> = self.components.iter().map(|c| &c.sat).collect();
        let envs = self.dom.leave_one_out(&sats, phase)?;
        for (comp, env) in self.components.iter_mut().zip(envs) {
            comp.env = env;
        }
        Ok(())
    }

    /// The number of non-null players, `m′ = m − null_endo`.
    fn players(&self) -> usize {
        self.m - self.null_endo
    }

    /// `v ⊛ free(n)`: a value over the non-null players, with `n` null
    /// players multiplied back in.
    fn with_nulls(&self, v: &D::Value, n: usize) -> D::Value {
        if n == 0 {
            v.clone()
        } else {
            self.dom.combine(v, &self.dom.free(n))
        }
    }

    /// `⊛_i sat_i` over the components, derived on first read.
    fn all_sat(&self) -> &D::Value {
        self.all_sat.get_or_init(|| {
            let mut sats = self.components.iter().map(|c| &c.sat);
            let first = sats.next().cloned().unwrap_or_else(|| self.dom.one());
            sats.fold(first, |acc, sat| self.dom.combine(&acc, sat))
        })
    }

    /// The full-database value, derived on first read.
    fn total(&self) -> &D::Value {
        self.total.get_or_init(|| {
            if self.satisfiable {
                self.with_nulls(self.all_sat(), self.null_endo)
            } else {
                self.dom.zero(self.m)
            }
        })
    }

    /// Patches the compiled caches after one in-place database update
    /// (the database must already be mutated). Returns `Ok(false)` when
    /// the change shifts the compiled *structure* — an atom resolving
    /// differently, a root group appearing or dying — in which case the
    /// caller must compile afresh; results after a successful update are
    /// bit-identical to that fresh compile.
    ///
    /// # Errors
    /// Anything the touched root group's tree walk (or build) raises.
    fn update(&mut self, db: &Database, change: EngineUpdate) -> Result<bool, CoreError> {
        if resolution_fingerprint(db, &self.query) != self.fingerprint {
            return Ok(false);
        }
        let f = change.fact();
        if !self.satisfiable {
            // Still unsatisfiable (the fingerprint pinned the unknown
            // positive atom): only the zero-value shell tracks m.
            if self.m != db.endo_count() {
                self.m = db.endo_count();
                self.null_endo = self.m;
                self.total.take();
            }
            return Ok(true);
        }
        let endo_now = db.endo_index(f).is_some();
        let ok = match change {
            EngineUpdate::Inserted(_) => self.apply_insert(db, f)?,
            EngineUpdate::Retracted(_) => self.apply_retract(db, f)?,
            EngineUpdate::ProvenanceFlipped(_) => self.apply_flip(db, f, endo_now)?,
        };
        if !ok {
            return Ok(false);
        }
        self.m = db.endo_count();
        self.null_endo = self.m - self.components.iter().map(|c| c.endo).sum::<usize>();
        self.refresh_envs(obs_phase::UPDATE)?;
        Ok(true)
    }

    /// Which component/atom (if any) matches fact `f`'s pattern.
    /// Self-join-freeness makes the match unique.
    fn place(&self, db: &Database, f: FactId) -> Placement {
        let fact = db.fact(f);
        for (ci, comp) in self.components.iter().enumerate() {
            for (ai, (&rel, atom)) in comp.rels.iter().zip(&comp.atoms).enumerate() {
                if rel == fact.rel && atom.matches(fact.tuple.values()) {
                    return Placement::Component { comp: ci, atom: ai };
                }
            }
        }
        Placement::Free
    }

    /// Applies `change` of fact `f` (of atom `ai`) to root group `gi`'s
    /// tree — one leaf-to-root walk, or a build when the class memo
    /// left the group without one — and swaps the group's updated
    /// `unsat` factor into the component's product: a zero factor is
    /// only counted, a nonzero one is divided out or multiplied in.
    /// Returns `false` when the division fails (never for exact
    /// factors), so the caller recompiles.
    fn recount_group(
        &mut self,
        db: &Database,
        (ci, gi): (usize, usize),
        (f, ai): (FactId, usize),
        change: Change,
    ) -> Result<bool, CoreError> {
        let _span = Span::enter(obs_phase::RECOUNT);
        let view = MaskedDb::new(db, FactMask::None);
        let dom = &self.dom;
        let Some(comp) = self.components.get_mut(ci) else {
            return Ok(false);
        };
        let CompKind::Rooted {
            unsat_all,
            zeros,
            groups,
            ..
        } = &mut comp.kind
        else {
            return Ok(false);
        };
        let Some(g) = groups.get_mut(gi) else {
            return Ok(false);
        };
        g.endo = scope_endo_count(view, &g.scopes);
        g.canon = Arc::new(canonical_form(db, &g.atoms, &g.scopes));
        let unsat_new = match g.tree.get_mut() {
            Some(tree) => {
                let site = Site {
                    db,
                    atoms: &g.atoms,
                    fact: f,
                    atom: ai,
                };
                tree.update(dom, site, &g.scopes, change)?;
                dom.complement(&tree.sat(dom, db), g.endo)
            }
            None => {
                let built = Tree::build(dom, db, &g.atoms, &g.scopes)?;
                let unsat = dom.complement(&built.sat(dom, db), g.endo);
                g.tree = OnceLock::from(built);
                unsat
            }
        };
        let unsat_old = std::mem::replace(&mut g.unsat, unsat_new);
        if dom.is_zero(&unsat_old) {
            *zeros -= 1;
        } else {
            let Some(quotient) = dom.try_divide(unsat_all, &unsat_old) else {
                return Ok(false);
            };
            *unsat_all = quotient;
        }
        if dom.is_zero(&g.unsat) {
            *zeros += 1;
        } else {
            *unsat_all = dom.combine(unsat_all, &g.unsat);
        }
        comp.refresh_rooted(dom);
        Ok(true)
    }

    /// Applies `change` of fact `f` (of atom `ai`) to the fold of ground
    /// component `ci`.
    fn recount_ground(
        &mut self,
        db: &Database,
        ci: usize,
        (f, ai): (FactId, usize),
        change: Change,
    ) -> Result<(), CoreError> {
        let view = MaskedDb::new(db, FactMask::None);
        let comp = self.components.get_mut(ci).ok_or_else(stale_location)?;
        let CompKind::Ground { tree } = &mut comp.kind else {
            return Err(stale_location());
        };
        let site = Site {
            db,
            atoms: &comp.atoms,
            fact: f,
            atom: ai,
        };
        tree.update(&self.dom, site, &comp.scopes, change)?;
        comp.endo = scope_endo_count(view, &comp.scopes);
        comp.sat = tree.sat(&self.dom, db);
        Ok(())
    }

    /// Where `f` (of atom `ai`) sits inside rooted component `ci`: its
    /// root value, and the root group for that value (`None`: the junk
    /// region). `None` altogether for a ground component.
    fn rooted_slot(
        &self,
        db: &Database,
        ci: usize,
        ai: usize,
        f: FactId,
    ) -> Option<(ConstId, Option<usize>)> {
        let comp = self.components.get(ci)?;
        let root = comp.root?;
        let value = comp
            .atoms
            .get(ai)?
            .value_of(root, db.fact(f).tuple.values());
        Some((value, comp.groups().iter().position(|g| g.value == value)))
    }

    /// The scopes of component `ci`'s atom `ai`, and those of root group
    /// `gi` when given.
    fn scopes_mut(
        &mut self,
        ci: usize,
        gi: Option<usize>,
        ai: usize,
    ) -> Result<(&mut Vec<FactId>, Option<&mut Vec<FactId>>), CoreError> {
        let comp = self.components.get_mut(ci).ok_or_else(stale_location)?;
        let scope = comp.scopes.get_mut(ai).ok_or_else(stale_location)?;
        let group = match (gi, &mut comp.kind) {
            (None, _) => None,
            (Some(gi), CompKind::Rooted { groups, .. }) => Some(
                groups
                    .get_mut(gi)
                    .and_then(|g| g.scopes.get_mut(ai))
                    .ok_or_else(stale_location)?,
            ),
            (Some(_), CompKind::Ground { .. }) => return Err(stale_location()),
        };
        Ok((scope, group))
    }

    fn apply_insert(&mut self, db: &Database, f: FactId) -> Result<bool, CoreError> {
        let Placement::Component { comp: ci, atom: ai } = self.place(db, f) else {
            return Ok(true); // free fact: a null player, only m moves
        };
        let endo = db.endo_index(f).is_some();
        let Some((value, slot)) = self.rooted_slot(db, ci, ai, f) else {
            self.scopes_mut(ci, None, ai)?.0.push(f);
            if endo {
                self.locs.insert(f, Loc::Ground { comp: ci });
            }
            self.recount_ground(db, ci, (f, ai), Change::Insert)?;
            return Ok(true);
        };
        match slot {
            Some(gi) => {
                let (scope, group) = self.scopes_mut(ci, Some(gi), ai)?;
                scope.push(f);
                group.ok_or_else(stale_location)?.push(f);
                if endo {
                    self.locs.insert(
                        f,
                        Loc::Grouped {
                            comp: ci,
                            group: gi,
                        },
                    );
                }
                self.recount_group(db, (ci, gi), (f, ai), Change::Insert)
            }
            None => {
                // `f` itself supports its (positive) atom; if every
                // other positive atom already has a fact with this root
                // value, a brand-new root group forms — recompile.
                let comp = self.components.get(ci).ok_or_else(stale_location)?;
                let root = comp.root.ok_or_else(stale_location)?;
                let supported =
                    comp.atoms
                        .iter()
                        .zip(&comp.scopes)
                        .enumerate()
                        .all(|(i, (atom, scope))| {
                            atom.negated
                                || i == ai
                                || scope.iter().any(|&x| {
                                    atom.value_of(root, db.fact(x).tuple.values()) == value
                                })
                        });
                if supported && comp.atoms.get(ai).is_some_and(|a| !a.negated) {
                    return Ok(false);
                }
                // A junk fact: a null player, so only `m` moves.
                self.scopes_mut(ci, None, ai)?.0.push(f);
                Ok(true)
            }
        }
    }

    fn apply_retract(&mut self, db: &Database, f: FactId) -> Result<bool, CoreError> {
        let Placement::Component { comp: ci, atom: ai } = self.place(db, f) else {
            return Ok(true); // free fact
        };
        let was_endo = self.locs.remove(&f).is_some();
        let Some((_, slot)) = self.rooted_slot(db, ci, ai, f) else {
            self.scopes_mut(ci, None, ai)?.0.retain(|&x| x != f);
            self.recount_ground(db, ci, (f, ai), Change::Retract { was_endo })?;
            return Ok(true);
        };
        let (scope, group) = self.scopes_mut(ci, slot, ai)?;
        scope.retain(|&x| x != f);
        match (slot, group) {
            (Some(gi), Some(group)) => {
                group.retain(|&x| x != f);
                let emptied = group.is_empty();
                let positive = self
                    .components
                    .get(ci)
                    .and_then(|c| c.atoms.get(ai))
                    .is_some_and(|a| !a.negated);
                if positive && emptied {
                    return Ok(false); // the root group lost its support
                }
                self.recount_group(db, (ci, gi), (f, ai), Change::Retract { was_endo })
            }
            // A junk fact: a null player, so only `m` moves.
            _ => Ok(true),
        }
    }

    fn apply_flip(&mut self, db: &Database, f: FactId, endo_now: bool) -> Result<bool, CoreError> {
        let Placement::Component { comp: ci, atom: ai } = self.place(db, f) else {
            return Ok(true); // free fact
        };
        let Some((_, slot)) = self.rooted_slot(db, ci, ai, f) else {
            if endo_now {
                self.locs.insert(f, Loc::Ground { comp: ci });
            } else {
                self.locs.remove(&f);
            }
            self.recount_ground(db, ci, (f, ai), Change::Flip)?;
            return Ok(true);
        };
        match slot {
            Some(gi) => {
                if endo_now {
                    self.locs.insert(
                        f,
                        Loc::Grouped {
                            comp: ci,
                            group: gi,
                        },
                    );
                } else {
                    self.locs.remove(&f);
                }
                self.recount_group(db, (ci, gi), (f, ai), Change::Flip)
            }
            // A junk fact: a null player, so only `m` moves.
            None => Ok(true),
        }
    }

    /// Is `f`'s influence known to be zero without any re-evaluation?
    /// (True for facts outside every atom scope and for junk facts.)
    fn is_structurally_null(&self, f: FactId) -> bool {
        !self.satisfiable || !self.locs.contains_key(&f)
    }

    /// The masked value pair of `f` — the full-query value of `D ∖ {f}`
    /// and of `D` with `f` exogenized (counting: the `(N_k, N⁺_k)`
    /// count vectors of the reduction, each of length `m`; probability:
    /// the conditionals `Pr[q | f absent]` / `Pr[q | f present]`).
    /// Equals what the per-fact oracles compute on the materialized
    /// modified databases.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    fn value_pair(&self, db: &Database, f: FactId) -> Result<(D::Value, D::Value), CoreError> {
        self.check_endogenous(db, f)?;
        if !self.satisfiable {
            let z = self.dom.zero(self.m - 1);
            return Ok((z.clone(), z));
        }
        let (minus, plus) = match self.locs.get(&f) {
            // A null player: both views drop it from the null row.
            None => {
                let v = self.with_nulls(self.all_sat(), self.null_endo - 1);
                return Ok((v.clone(), v));
            }
            Some(&Loc::Ground { comp }) => {
                let (sat_minus, sat_plus) = self.ground_pair(db, comp, f)?;
                let c = self.components.get(comp).ok_or_else(stale_location)?;
                (
                    self.dom.combine(&c.env, &sat_minus),
                    self.dom.combine(&c.env, &sat_plus),
                )
            }
            Some(&Loc::Grouped { comp, group }) => {
                let pair = self.group_pair(db, comp, group, f)?;
                self.lift_group_pair(comp, group, pair)?
            }
        };
        Ok((
            self.with_nulls(&minus, self.null_endo),
            self.with_nulls(&plus, self.null_endo),
        ))
    }

    /// Lifts a group-local masked pair to values over the non-null
    /// players through the group's environment and the component's
    /// environment.
    fn lift_group_pair(
        &self,
        ci: usize,
        gi: usize,
        pair: (D::Value, D::Value),
    ) -> Result<(D::Value, D::Value), CoreError> {
        let c = self.components.get(ci).ok_or_else(stale_location)?;
        let g = c.groups().get(gi).ok_or_else(stale_location)?;
        let genv = g
            .env
            .get_or_init(|| self.group_env(ci, gi))
            .as_ref()
            .ok_or_else(env_unavailable)?;
        let lift = |sat: &D::Value| {
            let unsat = self.dom.complement(sat, g.endo - 1);
            let comp_unsat = self.dom.combine(genv, &unsat);
            let comp_sat = self.dom.complement(&comp_unsat, c.endo - 1);
            self.dom.combine(&c.env, &comp_sat)
        };
        Ok((lift(&pair.0), lift(&pair.1)))
    }

    /// Root group `gi`'s leave-one-out environment `⊛_{h≠g} unsat_h`,
    /// derived from component `ci`'s maintained product:
    /// `unsat_all / unsat_g` when no group is always satisfied,
    /// `unsat_all` itself for the one always-satisfied group, and zero
    /// otherwise. `None` iff the exact division fails, which a
    /// consistent product never does.
    fn group_env(&self, ci: usize, gi: usize) -> Option<D::Value> {
        let _span = Span::enter(obs_phase::CLASS_ENV);
        let c = self.components.get(ci)?;
        let CompKind::Rooted {
            zeros,
            unsat_all,
            groups,
        } = &c.kind
        else {
            return None;
        };
        let g = groups.get(gi)?;
        match (*zeros, self.dom.is_zero(&g.unsat)) {
            (0, _) => self.dom.try_divide(unsat_all, &g.unsat),
            (1, true) => Some(unsat_all.clone()),
            _ => Some(self.dom.zero(c.endo - g.endo)),
        }
    }

    /// Ground component `ci`'s satisfying values with `f` removed and
    /// with it exogenized (for counting, both of length `endo`).
    fn ground_pair(
        &self,
        db: &Database,
        ci: usize,
        f: FactId,
    ) -> Result<(D::Value, D::Value), CoreError> {
        let c = self.components.get(ci).ok_or_else(stale_location)?;
        let CompKind::Ground { tree } = &c.kind else {
            return Err(stale_location());
        };
        let (atom, _) = role_of(&c.scopes, f).ok_or_else(stale_location)?;
        let site = Site {
            db,
            atoms: &c.atoms,
            fact: f,
            atom,
        };
        tree.masked_pair(&self.dom, &site)
    }

    /// Root group `gi`'s satisfying values with `f` removed and with it
    /// exogenized (for counting, both of length `endo` — the group's
    /// endogenous count drops by one): one walk of the group's tree,
    /// built first if the class memo left the group without one.
    fn group_pair(
        &self,
        db: &Database,
        ci: usize,
        gi: usize,
        f: FactId,
    ) -> Result<(D::Value, D::Value), CoreError> {
        let g = self
            .components
            .get(ci)
            .and_then(|c| c.groups().get(gi))
            .ok_or_else(stale_location)?;
        let tree = match g.tree.get() {
            Some(tree) => tree,
            None => {
                let built = Tree::build(&self.dom, db, &g.atoms, &g.scopes)?;
                g.tree.get_or_init(|| built)
            }
        };
        let (atom, _) = role_of(&g.scopes, f).ok_or_else(stale_location)?;
        let site = Site {
            db,
            atoms: &g.atoms,
            fact: f,
            atom,
        };
        tree.masked_pair(&self.dom, &site)
    }

    fn check_endogenous(&self, db: &Database, f: FactId) -> Result<(), CoreError> {
        if db.endo_index(f).is_none() {
            return Err(CoreError::FactNotEndogenous {
                fact: db.render_fact(f),
            });
        }
        Ok(())
    }
}

impl CompiledCount {
    /// Compiles `q` against `db` with a worker cap for the parallel
    /// product trees (`0` = all available cores), polling `cancel` (if
    /// any) from the counting recursion and the polynomial kernels. The
    /// token sticks to the engine: maintenance and recount paths reuse
    /// it.
    ///
    /// # Errors
    /// The same structural errors as
    /// [`crate::satcount::count_sat_hierarchical`]:
    /// [`CoreError::NotSelfJoinFree`] / [`CoreError::NotHierarchical`];
    /// [`CoreError::DeadlineExceeded`] when `cancel` trips.
    pub(crate) fn compile(
        db: &Database,
        q: &ConjunctiveQuery,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CoreError> {
        let dom = CountingDomain::new(cancel.cloned());
        let eng = CompiledEngine::compile(db, q, threads, dom)?;
        let mut compiled = CompiledCount {
            eng,
            weights: ShapleyWeights::default(),
            denominator: LcmDenominator::default(),
            lift: BigUint::one(),
            classes: Vec::new(),
            reduced: OnceMemo::new(),
            pairs: OnceMemo::new(),
            numerators: OnceMemo::new(),
        };
        compiled.refresh_weights();
        Ok(compiled)
    }

    /// Brings the Shapley-specific state in line with the engine after
    /// a compile or an update: the weights over `lcm(1..m′)` follow the
    /// non-null player count `m′`, the denominator `lcm(1..m)` follows
    /// `m` (each rebuilt only when its count moved, and the lift between
    /// them with it), the weight classes follow the groups' `unsat`
    /// values, and the memos that depend on `m` or on the environments
    /// are emptied. The recount memo survives: see
    /// [`CompiledCount::pairs`]. No contraction runs here — reports
    /// contract on demand.
    fn refresh_weights(&mut self) {
        let _span = Span::enter(obs_phase::WEIGHTS);
        self.reduced.clear();
        self.numerators.clear();
        let (m, players) = (self.eng.m, self.eng.players());
        let moved = self.weights.len() != players || self.denominator.players() != m;
        if self.weights.len() != players {
            self.weights = ShapleyWeights::new(players);
        }
        if self.denominator.players() != m {
            self.denominator = LcmDenominator::new(m);
        }
        if moved {
            self.lift = self.denominator.lift_from(players);
        }
        if !self.eng.satisfiable {
            self.classes.clear();
            return;
        }
        self.classes = self.eng.components.iter().map(WeightClasses::new).collect();
    }

    /// Patches the compiled caches after one in-place database update
    /// (the database must already be mutated). Returns `Ok(false)` when
    /// the change shifts the compiled *structure* — an atom resolving
    /// differently, a root group appearing or dying — in which case the
    /// caller must [`CompiledCount::compile`] afresh; results after a
    /// successful update are bit-identical to that fresh compile.
    ///
    /// # Errors
    /// Anything the touched root group's tree walk (or build) raises.
    pub(crate) fn update(
        &mut self,
        db: &Database,
        change: EngineUpdate,
    ) -> Result<bool, CoreError> {
        let _span = Span::enter(obs_phase::UPDATE);
        if !self.eng.update(db, change)? {
            return Ok(false);
        }
        self.refresh_weights();
        Ok(true)
    }

    /// The Shapley numerator of `f` over the common denominator
    /// `lcm(1..m)`: `value(f) = shapley_numerator(f) / lcm(1..m)`.
    /// Report paths accumulate these with plain integer additions
    /// (totals, inclusion–exclusion sums) and normalize once instead of
    /// reducing per operation.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn shapley_numerator(&self, db: &Database, f: FactId) -> Result<BigInt, CoreError> {
        self.eng.check_endogenous(db, f)?;
        if self.eng.is_structurally_null(f) {
            return Ok(BigInt::zero());
        }
        let (comp, class, (sat_minus, sat_plus)) = match self.eng.locs.get(&f) {
            Some(&Loc::Ground { comp }) => (comp, 0, self.eng.ground_pair(db, comp, f)?),
            Some(&Loc::Grouped { comp, group }) => {
                let class = self
                    .classes
                    .get(comp)
                    .and_then(|layout| layout.class_of.get(group))
                    .copied()
                    .ok_or_else(stale_location)?;
                (comp, class, self.cached_group_pair(db, comp, group, f)?)
            }
            // Null players are structurally null, returned above.
            None => return Ok(BigInt::zero()),
        };
        debug_assert_eq!(sat_minus.len(), sat_plus.len());
        let d: Vec<BigInt> = sat_plus
            .iter()
            .zip(&sat_minus)
            .map(|(p, mi)| BigInt::signed_diff(p, mi))
            .collect();
        if d.iter().all(BigInt::is_zero) {
            return Ok(BigInt::zero());
        }
        let env = self.class_env(comp, class)?;
        let (num, hit) = self
            .numerators
            .get_or_insert_with((comp, class, d.clone()), || self.contract(&d, env));
        if hit {
            NUMERATOR_MEMO_HIT.incr();
        } else {
            NUMERATOR_MEMO_MISS.incr();
        }
        Ok(num)
    }

    /// The contraction environment `E` of weight class `class` of
    /// component `comp`: `env` for a ground component; otherwise the
    /// class's group environment, derived from the component product
    /// by the first report that needs it, times the component's own
    /// `env` when that is not the unit.
    fn class_env(&self, comp: usize, class: usize) -> Result<&[BigUint], CoreError> {
        let c = self.eng.components.get(comp).ok_or_else(stale_location)?;
        if !matches!(c.kind, CompKind::Rooted { .. }) {
            return Ok(&c.env);
        }
        let layout = self.classes.get(comp).ok_or_else(stale_location)?;
        let rep = *layout.reps.get(class).ok_or_else(stale_location)?;
        layout
            .envs
            .get(class)
            .ok_or_else(stale_location)?
            .get_or_init(|| {
                let genv = self.eng.group_env(comp, rep)?;
                if matches!(c.env.as_slice(), [unit] if unit.is_one()) {
                    return Some(genv);
                }
                let _span = Span::enter(obs_phase::CLASS_ENV);
                Some(self.eng.dom.combine(&genv, &c.env))
            })
            .as_deref()
            .ok_or_else(env_unavailable)
    }

    /// `Σ_t (d ⊛ env)[t] · ω[t]`: the difference vector lifted to
    /// coalition sizes of the non-null players and weighted, in one pass
    /// over `env` ([`ShapleyWeights::contract_lifted`]; the lift is
    /// never materialized), then carried from `lcm(1..m′)` to
    /// `lcm(1..m)`.
    fn contract(&self, d: &[BigInt], env: &[BigUint]) -> BigInt {
        let _span = Span::enter(obs_phase::CONTRACT);
        let num = self.weights.contract_lifted(d, env);
        if self.lift.is_one() {
            return num;
        }
        BigInt::from_sign_magnitude(num.sign(), num.magnitude() * &self.lift)
    }

    /// `num / lcm(1..m)` in lowest terms, memoized per distinct
    /// numerator (facts of isomorphic root groups share theirs).
    pub(crate) fn normalize_numerator(&self, num: BigInt) -> BigRational {
        self.reduced
            .get_or_insert_with(num.clone(), || {
                let _span = Span::enter(obs_phase::NORMALIZE);
                self.denominator.reduce(num)
            })
            .0
    }

    /// [`CompiledEngine::group_pair`] for a grouped fact, memoized by
    /// `(group isomorphism class, role of f)`: uniform workloads
    /// recount one representative per class instead of every fact, and
    /// concurrent report workers asking for one key recount it once. The
    /// memo is sound because counting values are canon-determined —
    /// probability evaluation must not (and does not) use it.
    fn cached_group_pair(
        &self,
        db: &Database,
        ci: usize,
        gi: usize,
        f: FactId,
    ) -> Result<(Vec<BigUint>, Vec<BigUint>), CoreError> {
        let g = self
            .eng
            .components
            .get(ci)
            .and_then(|c| c.groups().get(gi))
            .ok_or_else(stale_location)?;
        let (atom, pos) = role_of(&g.scopes, f).ok_or_else(stale_location)?;
        let key = (g.canon.clone(), atom, pos);
        let (pair, hit) = self.pairs.get_or_try_insert_with(key, || {
            RECOUNT_CACHE_MISS.incr();
            let _span = Span::enter(obs_phase::RECOUNT);
            self.eng.group_pair(db, ci, gi, f)
        })?;
        if hit {
            RECOUNT_CACHE_HIT.incr();
        }
        Ok(pair)
    }
}

impl CompiledProbability {
    /// Compiles `q` against `db` for lifted inference at `probs`, with a
    /// worker cap (`0` = all available cores) and `cancel` (if any)
    /// polled from the lifted-inference recursion.
    ///
    /// # Errors
    /// The same errors as [`CompiledCount::compile`].
    pub(crate) fn compile(
        db: &Database,
        q: &ConjunctiveQuery,
        probs: FactProbabilities,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, CoreError> {
        let dom = ProbabilityDomain::new(probs, cancel.cloned());
        Ok(CompiledProbability {
            eng: CompiledEngine::compile(db, q, threads, dom)?,
        })
    }

    /// `Pr[q]` under the compiled per-fact probabilities: the product of
    /// the components' probabilities, derived on the first call after a
    /// compile or an update — no traversal.
    pub(crate) fn probability(&self) -> &BigRational {
        self.eng.total()
    }

    /// The expected influence of `f` on the query answer:
    /// `Pr[q | f present] − Pr[q | f absent]` — the probabilistic
    /// analogue of the Shapley reduction's masked difference.
    ///
    /// # Errors
    /// [`CoreError::FactNotEndogenous`] if `f ∉ Dn`.
    pub(crate) fn expected_marginal(
        &self,
        db: &Database,
        f: FactId,
    ) -> Result<BigRational, CoreError> {
        let (absent, present) = self.eng.value_pair(db, f)?;
        Ok(present - absent)
    }

    /// Patches the compiled caches after one in-place database update —
    /// identical contract to [`CompiledCount::update`]: `Ok(false)`
    /// means the structure shifted and the caller must compile afresh.
    /// A fact inserted while the engine is live evaluates at the
    /// compiled default probability until the caller rebuilds with an
    /// override.
    ///
    /// # Errors
    /// Anything the touched root group's tree walk (or build) raises.
    pub(crate) fn update(
        &mut self,
        db: &Database,
        change: EngineUpdate,
    ) -> Result<bool, CoreError> {
        let _span = Span::enter(obs_phase::UPDATE);
        self.eng.update(db, change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anyquery::AnyQuery;
    use crate::satcount::{count_sat_hierarchical, HierarchicalCounter, SatCountOracle};
    use crate::shapley::shapley_via_counts;
    use cqshap_db::Provenance;
    use cqshap_query::parse_cq;

    /// Reads that only the tests make: what the per-fact oracles and
    /// fresh compiles are compared against. No report reads them.
    impl CompiledCount {
        /// `[|Sat(D,q,k)|]_{k=0..m}` for the unmodified database — what
        /// [`count_sat_hierarchical`] computes. Derived on the first call
        /// after a compile or an update (the null players' binomial row
        /// is multiplied in here, once).
        pub(crate) fn total_counts(&self) -> &[BigUint] {
            self.eng.total()
        }

        /// The exact Shapley value of `f`.
        pub(crate) fn value(&self, db: &Database, f: FactId) -> Result<BigRational, CoreError> {
            let num = self.shapley_numerator(db, f)?;
            Ok(self.normalize_numerator(num))
        }

        /// The `(N_k, N⁺_k)` count vectors of the reduction for `f` — the
        /// counts of `D ∖ {f}` and of `D` with `f` exogenized, each of
        /// length `m`, as the per-fact oracles compute them on the
        /// materialized modified databases.
        pub(crate) fn counts_pair(
            &self,
            db: &Database,
            f: FactId,
        ) -> Result<(Vec<BigUint>, Vec<BigUint>), CoreError> {
            self.eng.value_pair(db, f)
        }
    }

    impl CompiledProbability {
        /// The per-fact probabilities the engine was compiled at.
        pub(crate) fn probabilities(&self) -> &FactProbabilities {
            self.eng.dom.probabilities()
        }

        /// The conditionals `(Pr[q | f absent], Pr[q | f present])`, by
        /// one masked walk of `f`'s root group's tree.
        pub(crate) fn conditioned_pair(
            &self,
            db: &Database,
            f: FactId,
        ) -> Result<(BigRational, BigRational), CoreError> {
            self.eng.value_pair(db, f)
        }
    }

    fn university() -> Database {
        Database::parse(
            "exo Stud(Adam)\nexo Stud(Ben)\nexo Stud(Caroline)\nexo Stud(David)\n\
             endo TA(Adam)\nendo TA(Ben)\nendo TA(David)\n\
             exo Course(OS, EE)\nexo Course(IC, EE)\nexo Course(DB, CS)\nexo Course(AI, CS)\n\
             endo Reg(Adam, OS)\nendo Reg(Adam, AI)\nendo Reg(Ben, OS)\n\
             endo Reg(Caroline, DB)\nendo Reg(Caroline, IC)\n\
             exo Adv(Michael, Adam)\nexo Adv(Michael, Ben)\nexo Adv(Naomi, Caroline)\n\
             exo Adv(Michael, David)\n",
        )
        .unwrap()
    }

    /// Batched values and count pairs must be bit-identical to the
    /// per-fact oracle on the materialized modified databases.
    fn agrees_with_per_fact(db: &Database, q: &ConjunctiveQuery) {
        let compiled = CompiledCount::compile(db, q, 0, None).unwrap();
        assert_eq!(
            compiled.total_counts(),
            &count_sat_hierarchical(db, q).unwrap()[..],
            "total counts for {q}"
        );
        let oracle = HierarchicalCounter;
        for &f in db.endo_facts() {
            let want = shapley_via_counts(db, AnyQuery::Cq(q), f, &oracle).unwrap();
            let got = compiled.value(db, f).unwrap();
            assert_eq!(got, want, "{} for {q} on\n{db}", db.render_fact(f));
            let (n_minus, n_plus) = compiled.counts_pair(db, f).unwrap();
            let want_minus = oracle
                .counts_masked(db, AnyQuery::Cq(q), FactMask::Removed(f))
                .unwrap();
            let want_plus = oracle
                .counts_masked(db, AnyQuery::Cq(q), FactMask::Exogenous(f))
                .unwrap();
            assert_eq!(n_minus, want_minus, "{} N_k", db.render_fact(f));
            assert_eq!(n_plus, want_plus, "{} N⁺_k", db.render_fact(f));
        }
    }

    /// A maintained engine must agree (bit-identically) with a fresh
    /// compile of the updated database, falling back when told to.
    fn assert_update_matches_fresh(
        db: &Database,
        compiled: &mut CompiledCount,
        q: &ConjunctiveQuery,
        change: EngineUpdate,
    ) {
        if !compiled.update(db, change).unwrap() {
            *compiled = CompiledCount::compile(db, q, 0, None).unwrap();
        }
        let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
        assert_eq!(
            compiled.total_counts(),
            fresh.total_counts(),
            "totals after {change:?} for {q}"
        );
        for &f in db.endo_facts() {
            assert_eq!(
                compiled.value(db, f).unwrap(),
                fresh.value(db, f).unwrap(),
                "{} after {change:?} for {q}",
                db.render_fact(f)
            );
        }
    }

    #[test]
    fn example_2_3_batched() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        let expect = [
            ("TA", vec!["Adam"], "-3/28"),
            ("TA", vec!["Ben"], "-2/35"),
            ("TA", vec!["David"], "0"),
            ("Reg", vec!["Adam", "OS"], "37/210"),
            ("Reg", vec!["Adam", "AI"], "37/210"),
            ("Reg", vec!["Ben", "OS"], "27/140"),
            ("Reg", vec!["Caroline", "DB"], "13/42"),
            ("Reg", vec!["Caroline", "IC"], "13/42"),
        ];
        for (rel, args, want) in expect {
            let refs: Vec<&str> = args.to_vec();
            let f = db.find_fact(rel, &refs).unwrap();
            assert_eq!(compiled.value(&db, f).unwrap().to_string(), want);
        }
    }

    #[test]
    fn agrees_across_query_shapes() {
        let db = university();
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- Stud(x), TA(x), Reg(x, y)",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- Reg(x, 'OS'), !TA(x)",
            "q() :- Stud(x), !TA(x), Reg(x, y), Adv(z, x)",
            "q() :- !TA('Nobody')",
            "q() :- Ghost(x)",
            "q() :- !Ghost('x'), TA('Adam')",
        ] {
            agrees_with_per_fact(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn structural_nulls() {
        let db = university();
        // TA(David) never joins a Reg fact: junk (no positive support
        // for root value David in Reg) — exactly zero, no recount.
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        let david = db.find_fact("TA", &["David"]).unwrap();
        assert!(compiled.eng.is_structurally_null(david));
        let adam = db.find_fact("TA", &["Adam"]).unwrap();
        assert!(!compiled.eng.is_structurally_null(adam));
        // Facts outside every scope are free.
        let q_ta = parse_cq("q() :- TA(x)").unwrap();
        let c2 = CompiledCount::compile(&db, &q_ta, 0, None).unwrap();
        let reg = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
        assert!(c2.eng.is_structurally_null(reg));
        assert_eq!(c2.value(&db, reg).unwrap(), BigRational::zero());
    }

    #[test]
    fn weight_classes_share_contractions() {
        // Students 0..6 have i % 3 + 1 courses each: three root-group
        // shapes, so three weight classes of two groups each.
        let mut db = Database::new();
        for s in 0..6 {
            let name = format!("s{s}");
            db.add_exo("Stud", &[&name]).unwrap();
            db.add_endo("TA", &[&name]).unwrap();
            for c in 0..=s % 3 {
                db.add_endo("Reg", &[&name, &format!("c{c}")]).unwrap();
            }
        }
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        agrees_with_per_fact(&db, &q1);
        let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        assert_eq!(compiled.classes[0].reps.len(), 3);
        for &f in db.endo_facts() {
            compiled.value(&db, f).unwrap();
        }
        // One contraction per class and distinct difference vector (a
        // TA fact's and a Reg fact's), not one per fact.
        let contracted = compiled
            .numerators
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        assert!(contracted <= 6, "{contracted} contractions");
        assert!(contracted < db.endo_count());
    }

    #[test]
    fn non_endogenous_fact_rejected() {
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        let stud = db.find_fact("Stud", &["Adam"]).unwrap();
        assert!(matches!(
            compiled.value(&db, stud),
            Err(CoreError::FactNotEndogenous { .. })
        ));
    }

    #[test]
    fn rejects_non_hierarchical() {
        let db = university();
        let q = parse_cq("q() :- Stud(x), Reg(x, y), Course(y, z)").unwrap();
        assert!(matches!(
            CompiledCount::compile(&db, &q, 0, None),
            Err(CoreError::NotHierarchical { .. })
        ));
    }

    #[test]
    fn repeated_variable_patterns_batched() {
        let mut db = Database::new();
        db.add_endo("E", &["a", "a"]).unwrap();
        db.add_endo("E", &["a", "b"]).unwrap();
        db.add_endo("E", &["b", "b"]).unwrap();
        db.add_endo("R", &["a"]).unwrap();
        for text in ["q() :- E(x, x)", "q() :- R(x), !E(x, x)"] {
            agrees_with_per_fact(&db, &parse_cq(text).unwrap());
        }
    }

    #[test]
    fn explicit_thread_caps_change_nothing() {
        // The worker cap steers the parallel trees only — results are
        // bit-identical across caps.
        let db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let reference = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        for threads in [1usize, 2, 4] {
            let capped = CompiledCount::compile(&db, &q1, threads, None).unwrap();
            assert_eq!(capped.total_counts(), reference.total_counts());
            for &f in db.endo_facts() {
                assert_eq!(
                    capped.value(&db, f).unwrap(),
                    reference.value(&db, f).unwrap(),
                    "{} with {threads} threads",
                    db.render_fact(f)
                );
            }
        }
    }

    #[test]
    fn incremental_updates_match_fresh_compiles() {
        let mut db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();

        // Insert into an existing root group.
        let f = db.add_endo("Reg", &["Adam", "DB"]).unwrap();
        assert_update_matches_fresh(&db, &mut compiled, &q1, EngineUpdate::Inserted(f));
        // Exogenize a grouped fact.
        let ben = db.find_fact("TA", &["Ben"]).unwrap();
        db.set_fact_provenance(ben, Provenance::Exogenous).unwrap();
        assert_update_matches_fresh(
            &db,
            &mut compiled,
            &q1,
            EngineUpdate::ProvenanceFlipped(ben),
        );
        // Flip it back.
        db.set_fact_provenance(ben, Provenance::Endogenous).unwrap();
        assert_update_matches_fresh(
            &db,
            &mut compiled,
            &q1,
            EngineUpdate::ProvenanceFlipped(ben),
        );
        // Retract a grouped fact (group keeps support through Reg(Adam, OS/AI)).
        db.retract_fact(f).unwrap();
        assert_update_matches_fresh(&db, &mut compiled, &q1, EngineUpdate::Retracted(f));
        // Insert a free fact (outside every scope).
        let free = db.add_endo("Unrelated", &["z"]).unwrap();
        assert_update_matches_fresh(&db, &mut compiled, &q1, EngineUpdate::Inserted(free));
        // Insert a junk fact (root value without Reg support).
        let junk = db.add_endo("TA", &["Nadia"]).unwrap();
        assert_update_matches_fresh(&db, &mut compiled, &q1, EngineUpdate::Inserted(junk));
        // Retract the junk fact again.
        db.retract_fact(junk).unwrap();
        assert_update_matches_fresh(&db, &mut compiled, &q1, EngineUpdate::Retracted(junk));
    }

    #[test]
    fn structural_updates_request_recompile() {
        let mut db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        // A new student with both Stud and Reg support forms a brand-new
        // root group → incremental maintenance must decline.
        db.add_exo("Stud", &["Eve"]).unwrap();
        let eve_stud = db.find_fact("Stud", &["Eve"]).unwrap();
        assert!(compiled
            .update(&db, EngineUpdate::Inserted(eve_stud))
            .unwrap());
        let f = db.add_endo("Reg", &["Eve", "OS"]).unwrap();
        assert!(!compiled.update(&db, EngineUpdate::Inserted(f)).unwrap());
        compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
        // Retracting the only Reg fact of a group kills the group.
        let ben_os = db.find_fact("Reg", &["Ben", "OS"]).unwrap();
        db.retract_fact(ben_os).unwrap();
        assert!(!compiled
            .update(&db, EngineUpdate::Retracted(ben_os))
            .unwrap());
        // A fact over a relation unknown at compile time changes atom
        // resolution (the fingerprint catches it).
        let mut db2 = Database::parse("endo R(a)\n").unwrap();
        let q2 = parse_cq("q() :- R(x), !Ghost(x)").unwrap();
        let mut c2 = CompiledCount::compile(&db2, &q2, 0, None).unwrap();
        let g = db2.add_exo("Ghost", &["a"]).unwrap();
        assert!(!c2.update(&db2, EngineUpdate::Inserted(g)).unwrap());
    }

    #[test]
    fn a_deadline_inside_the_component_leave_one_out_names_compile() {
        // Three components: the descent forms three products, and they
        // are the compile's last charges, so each of the three caps just
        // below the full compile's work trips inside the leave-one-out.
        let db = university();
        let q = parse_cq("q() :- TA(x), Reg(y, z), Course(w, 'CS')").unwrap();
        let token = CancelToken::unlimited();
        let compiled = CompiledCount::compile(&db, &q, 1, Some(&token)).unwrap();
        assert_eq!(compiled.eng.components.len(), 3);
        let work = token.work_done();
        assert!(work >= 3, "{work} units");
        for cap in work - 3..work {
            let capped = crate::Budget::work_units(cap).token();
            match CompiledCount::compile(&db, &q, 1, Some(&capped)) {
                Err(CoreError::DeadlineExceeded { phase, .. }) => {
                    assert_eq!(phase, obs_phase::COMPILE, "cap {cap}");
                }
                Err(other) => panic!("cap {cap}: unexpected error {other:?}"),
                Ok(_) => panic!("cap {cap} of {work} did not trip"),
            }
        }
        let enough = crate::Budget::work_units(work).token();
        assert!(CompiledCount::compile(&db, &q, 1, Some(&enough)).is_ok());
    }

    #[test]
    fn unsatisfiable_engine_tracks_m_across_updates() {
        let mut db = Database::parse("endo R(a)\n").unwrap();
        let q = parse_cq("q() :- Ghost(x), R(y)").unwrap();
        let mut compiled = CompiledCount::compile(&db, &q, 0, None).unwrap();
        let f = db.add_endo("R", &["b"]).unwrap();
        assert!(compiled.update(&db, EngineUpdate::Inserted(f)).unwrap());
        let fresh = CompiledCount::compile(&db, &q, 0, None).unwrap();
        assert_eq!(compiled.total_counts(), fresh.total_counts());
        assert_eq!(
            compiled.value(&db, f).unwrap(),
            fresh.value(&db, f).unwrap()
        );
    }

    // -----------------------------------------------------------------
    // Probability-domain instantiation
    // -----------------------------------------------------------------

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    /// A cycle of non-dyadic and dyadic probabilities over `Dn`.
    fn cycled_probs(db: &Database) -> FactProbabilities {
        let cycle = [
            rat(1, 10),
            rat(3, 10),
            rat(1, 2),
            rat(7, 10),
            rat(9, 10),
            rat(1, 4),
            rat(3, 4),
            rat(3, 5),
        ];
        let mut probs = FactProbabilities::uniform(rat(1, 2));
        for (i, &f) in db.endo_facts().iter().enumerate() {
            probs.set(f, cycle[i % cycle.len()].clone());
        }
        probs
    }

    #[test]
    fn probability_engine_matches_enumeration_across_shapes() {
        let db = university();
        let probs = cycled_probs(&db);
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- Stud(x), !TA(x)",
            "q() :- Stud(x), TA(x), Reg(x, y)",
            "q() :- TA('Adam'), !Reg('Ben', 'OS')",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- Reg(x, 'OS'), !TA(x)",
            "q() :- Stud(x), !TA(x), Reg(x, y), Adv(z, x)",
            "q() :- !TA('Nobody')",
            "q() :- Ghost(x)",
            "q() :- !Ghost('x'), TA('Adam')",
        ] {
            let q = parse_cq(text).unwrap();
            let engine = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
            let brute =
                crate::domain::probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, None, 26)
                    .unwrap();
            assert_eq!(engine.probability(), &brute, "{text}");
            for &f in db.endo_facts() {
                let (absent, present) = engine.conditioned_pair(&db, f).unwrap();
                let want_absent = crate::domain::probability_by_enumeration(
                    &db,
                    AnyQuery::Cq(&q),
                    &probs,
                    Some((f, false)),
                    26,
                )
                .unwrap();
                let want_present = crate::domain::probability_by_enumeration(
                    &db,
                    AnyQuery::Cq(&q),
                    &probs,
                    Some((f, true)),
                    26,
                )
                .unwrap();
                assert_eq!(absent, want_absent, "{} absent {text}", db.render_fact(f));
                assert_eq!(
                    present,
                    want_present,
                    "{} present {text}",
                    db.render_fact(f)
                );
                assert_eq!(
                    engine.expected_marginal(&db, f).unwrap(),
                    want_present - want_absent,
                    "{} marginal {text}",
                    db.render_fact(f)
                );
            }
        }
    }

    /// A maintained probability engine must agree bit-identically with a
    /// fresh compile of the updated database at the same probabilities.
    fn assert_prob_update_matches_fresh(
        db: &Database,
        engine: &mut CompiledProbability,
        q: &ConjunctiveQuery,
        change: EngineUpdate,
    ) {
        let probs = engine.probabilities().clone();
        if !engine.update(db, change).unwrap() {
            *engine = CompiledProbability::compile(db, q, probs.clone(), 0, None).unwrap();
        }
        let fresh = CompiledProbability::compile(db, q, probs, 0, None).unwrap();
        assert_eq!(
            engine.probability(),
            fresh.probability(),
            "Pr[q] after {change:?} for {q}"
        );
        for &f in db.endo_facts() {
            assert_eq!(
                engine.conditioned_pair(db, f).unwrap(),
                fresh.conditioned_pair(db, f).unwrap(),
                "{} after {change:?} for {q}",
                db.render_fact(f)
            );
        }
    }

    #[test]
    fn probability_updates_match_fresh_compiles() {
        let mut db = university();
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        let mut engine =
            CompiledProbability::compile(&db, &q1, cycled_probs(&db), 0, None).unwrap();

        // Insert into an existing root group (evaluates at the default
        // probability until the caller rebuilds with an override).
        let f = db.add_endo("Reg", &["Adam", "DB"]).unwrap();
        assert_prob_update_matches_fresh(&db, &mut engine, &q1, EngineUpdate::Inserted(f));
        // Exogenize a grouped fact: its probability pins to 1.
        let ben = db.find_fact("TA", &["Ben"]).unwrap();
        db.set_fact_provenance(ben, Provenance::Exogenous).unwrap();
        assert_prob_update_matches_fresh(
            &db,
            &mut engine,
            &q1,
            EngineUpdate::ProvenanceFlipped(ben),
        );
        db.set_fact_provenance(ben, Provenance::Endogenous).unwrap();
        assert_prob_update_matches_fresh(
            &db,
            &mut engine,
            &q1,
            EngineUpdate::ProvenanceFlipped(ben),
        );
        // Retraction with surviving group support.
        db.retract_fact(f).unwrap();
        assert_prob_update_matches_fresh(&db, &mut engine, &q1, EngineUpdate::Retracted(f));
        // Free and junk facts.
        let free = db.add_endo("Unrelated", &["z"]).unwrap();
        assert_prob_update_matches_fresh(&db, &mut engine, &q1, EngineUpdate::Inserted(free));
        let junk = db.add_endo("TA", &["Nadia"]).unwrap();
        assert_prob_update_matches_fresh(&db, &mut engine, &q1, EngineUpdate::Inserted(junk));
        // Structural change: a brand-new root group declines maintenance.
        db.add_exo("Stud", &["Eve"]).unwrap();
        let eve_stud = db.find_fact("Stud", &["Eve"]).unwrap();
        assert_prob_update_matches_fresh(&db, &mut engine, &q1, EngineUpdate::Inserted(eve_stud));
        let eve_reg = db.add_endo("Reg", &["Eve", "OS"]).unwrap();
        assert!(!engine.update(&db, EngineUpdate::Inserted(eve_reg)).unwrap());
    }

    #[test]
    fn update_sequences_on_varied_queries() {
        for text in [
            "q() :- Stud(x), !TA(x), Reg(x, y)",
            "q() :- Reg(x, y)",
            "q() :- TA(x), Course(y, 'CS')",
            "q() :- Stud(x), !TA(x), Reg(x, y), Adv(z, x)",
        ] {
            let q = parse_cq(text).unwrap();
            let mut db = university();
            let mut compiled = CompiledCount::compile(&db, &q, 0, None).unwrap();
            let adam_os = db.find_fact("Reg", &["Adam", "OS"]).unwrap();
            db.set_fact_provenance(adam_os, Provenance::Exogenous)
                .unwrap();
            assert_update_matches_fresh(
                &db,
                &mut compiled,
                &q,
                EngineUpdate::ProvenanceFlipped(adam_os),
            );
            let ic = db.find_fact("Reg", &["Caroline", "IC"]).unwrap();
            db.retract_fact(ic).unwrap();
            assert_update_matches_fresh(&db, &mut compiled, &q, EngineUpdate::Retracted(ic));
            let back = db.add_endo("Reg", &["Caroline", "IC"]).unwrap();
            assert_update_matches_fresh(&db, &mut compiled, &q, EngineUpdate::Inserted(back));
            db.set_fact_provenance(adam_os, Provenance::Endogenous)
                .unwrap();
            assert_update_matches_fresh(
                &db,
                &mut compiled,
                &q,
                EngineUpdate::ProvenanceFlipped(adam_os),
            );
        }
    }

    // -----------------------------------------------------------------
    // Engine-level property tests on random and generated instances
    // -----------------------------------------------------------------

    /// SplitMix-style mixer shared by the update streams below.
    fn hash(seed: u64, k: u64) -> u64 {
        (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(29)
    }

    /// The count pairs against materialized modified databases, and the
    /// compiled totals at sizes where the fast `poly` backends engage.
    mod counts {
        use super::*;
        use cqshap_workloads::random_db::RandomDbConfig;
        use cqshap_workloads::{queries, report_benchmark_db};
        use proptest::prelude::*;

        /// Hierarchical CQ¬s with positive atoms, negated atoms, and
        /// constants.
        const HIERARCHICAL: &[&str] = &[
            "q() :- A(x), !B(x), C(x, y)",
            "q() :- A(x), B(x)",
            "q() :- C(x, y), !D(x, y)",
            "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
            "q() :- A(x), !B(x), F(y), !G(y)",
            "q() :- C(x, 'd0'), !B(x)",
            "q() :- A(x), !B(x), C(x, y), !D(x, y)",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The batched counts pair is bit-identical to the per-fact
            /// oracle on the materialized modified databases.
            #[test]
            fn batched_counts_match_materialized_copies(
                qi in 0..HIERARCHICAL.len(),
                seed in 0u64..3000,
            ) {
                let q = parse_cq(HIERARCHICAL[qi]).unwrap();
                let db = RandomDbConfig {
                    domain: 3,
                    facts_per_relation: 4,
                    seed,
                    ..Default::default()
                }
                .generate(&q);
                prop_assume!(db.endo_count() >= 1 && db.endo_count() <= 12);
                let compiled = CompiledCount::compile(&db, &q, 0, None).unwrap();
                for &f in db.endo_facts() {
                    let (n_minus, n_plus) = compiled.counts_pair(&db, f).unwrap();
                    let (db_minus, _) = db.without_fact(f).unwrap();
                    let (db_plus, _) = db.with_fact_exogenous(f).unwrap();
                    let want_minus = HierarchicalCounter.counts(&db_minus, AnyQuery::Cq(&q)).unwrap();
                    let want_plus = HierarchicalCounter.counts(&db_plus, AnyQuery::Cq(&q)).unwrap();
                    prop_assert_eq!(&n_minus, &want_minus, "N_k of {} on\n{}", db.render_fact(f), db);
                    prop_assert_eq!(&n_plus, &want_plus, "N⁺_k of {} on\n{}", db.render_fact(f), db);
                }
            }
        }

        /// Large enough that the compile-stage products leave the pure
        /// schoolbook band, small enough for a per-fact cross-check.
        const M: usize = 192;

        #[test]
        fn large_compile_matches_per_fact_counting() {
            let db = report_benchmark_db(M);
            let q1 = queries::q1();
            let compiled = CompiledCount::compile(&db, &q1, 0, None).unwrap();
            // The total counts recompose through a different convolution
            // order (sequential recursion vs leave-one-out descent), so
            // agreement cross-validates the subsystem on real count
            // polynomials.
            assert_eq!(
                compiled.total_counts(),
                &count_sat_hierarchical(&db, &q1).unwrap()[..]
            );
            // Spot-check a spread of facts against the independent
            // reduction.
            for &f in db.endo_facts().iter().step_by(M / 8) {
                let want =
                    shapley_via_counts(&db, AnyQuery::Cq(&q1), f, &HierarchicalCounter).unwrap();
                assert_eq!(
                    compiled.value(&db, f).unwrap(),
                    want,
                    "{}",
                    db.render_fact(f)
                );
            }
        }
    }

    /// The cross-domain identity: with every endogenous fact at the same
    /// `p`, a session's `Pr[q]` equals the compiled counting engine's
    /// totals weighted by `p^k (1 − p)^(m − k)`.
    mod weighted_counts {
        use super::*;
        use crate::exoshap::rewrite;
        use crate::session::ShapleySession;
        use crate::shapley::ShapleyOptions;
        use cqshap_workloads::random_db::RandomDbConfig;
        use proptest::prelude::*;

        const CQS: &[&str] = &[
            "q() :- A(x), !B(x), C(x, y)",
            "q() :- A(x), B(x)",
            "q() :- C(x, y), !D(x, y)",
            "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
            "q() :- A(x), !B(x), F(y), !G(y)",
            "q() :- C(x, 'd0'), !B(x)",
            "q() :- A(x), C(x, y), E(x, y, z)",
        ];

        /// CQ¬s outside the hierarchical fragment that `ExoShap`
        /// rewrites once `A` is exogenous.
        const EXOSHAP_CQS: &[&str] = &["q() :- A(x), C(x, y), F(y)", "q() :- A(x), C(x, y), !F(y)"];

        /// `Σ_k counts[k] · p^k · (1 − p)^(m − k)` for `counts` of
        /// length `m + 1`.
        fn weighted_counts(counts: &[BigUint], p: &BigRational) -> BigRational {
            let m = counts.len() - 1;
            let q = BigRational::one() - p.clone();
            let power = |x: &BigRational, e: usize| {
                let mut acc = BigRational::one();
                for _ in 0..e {
                    acc = &acc * x;
                }
                acc
            };
            let mut total = BigRational::zero();
            for (k, c) in counts.iter().enumerate() {
                total += &(BigRational::from(c.clone()) * power(p, k) * power(&q, m - k));
            }
            total
        }

        fn session_probability(
            db: &Database,
            q: &ConjunctiveQuery,
            p: &BigRational,
        ) -> BigRational {
            let mut session =
                ShapleySession::prepare(db, AnyQuery::Cq(q), &ShapleyOptions::auto()).unwrap();
            session.set_default_probability(p.clone()).unwrap();
            session.probability().unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Counts from the compiled counting engine for hierarchical
            /// CQ¬s, and from it on the rewritten database for `ExoShap`
            /// CQ¬s, weighted at a dyadic and a non-dyadic `p`.
            #[test]
            fn cq_probability_matches_weighted_counts(
                qi in 0..CQS.len() + EXOSHAP_CQS.len(),
                pi in 0usize..2,
                seed in 0u64..4000,
            ) {
                let exoshap = qi >= CQS.len();
                let text = if exoshap { EXOSHAP_CQS[qi - CQS.len()] } else { CQS[qi] };
                let q = parse_cq(text).unwrap();
                let cfg = RandomDbConfig {
                    domain: 3,
                    facts_per_relation: 3,
                    seed,
                    exogenous_relations: if exoshap { vec!["A".to_string()] } else { Vec::new() },
                    ..Default::default()
                };
                let db = cfg.generate(&q);
                prop_assume!(db.endo_count() <= 10);
                let counts = if exoshap {
                    let outcome = rewrite(&db, &q, 1 << 16).unwrap();
                    if outcome.always_false {
                        vec![BigUint::zero(); db.endo_count() + 1]
                    } else {
                        CompiledCount::compile(&outcome.db, &outcome.query, 0, None)
                            .unwrap()
                            .total_counts()
                            .to_vec()
                    }
                } else {
                    CompiledCount::compile(&db, &q, 0, None).unwrap().total_counts().to_vec()
                };
                let p = [rat(1, 2), rat(3, 10)][pi].clone();
                prop_assert_eq!(
                    session_probability(&db, &q, &p),
                    weighted_counts(&counts, &p),
                    "{} over\n{}", text, db
                );
            }
        }
    }

    /// The on-demand numerator contraction under maintenance, on the
    /// skewed databases of the integration suite's contraction tests.
    mod contraction {
        use super::*;
        use proptest::prelude::*;

        const CQ: &str = "q() :- Stud(x), !TA(x), Reg(x, y), Lab(z), Flag('on')";

        /// SplitMix64 over `(seed, k)`.
        fn mix(seed: u64, k: u64) -> u64 {
            let mut z = seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Five pinned students with 1–5 `Reg` facts and an endogenous
        /// `TA`, random students beside them (some with exogenous `TA`),
        /// `Lab`/`Closed` facts, a ground `Flag('on')` and a free
        /// `Other` fact.
        fn skewed_db(seed: u64, extra_students: usize) -> Database {
            let mut db = Database::new();
            for s in 0..5 + extra_students {
                let name = format!("s{s}");
                db.add_exo("Stud", &[&name]).unwrap();
                let r = mix(seed, s as u64);
                let (regs, ta) = if s < 5 {
                    (s + 1, 0)
                } else {
                    (1 + (r % 4) as usize, (r >> 8) % 3)
                };
                match ta {
                    0 => {
                        db.add_endo("TA", &[&name]).unwrap();
                    }
                    1 => {
                        db.add_exo("TA", &[&name]).unwrap();
                    }
                    _ => {}
                }
                for c in 0..regs {
                    let course = format!("c{}", (s + c) % 7);
                    db.add_endo("Reg", &[&name, &course]).unwrap();
                }
            }
            for l in 0..2 + (seed % 2) as usize {
                let lab = format!("l{l}");
                db.add_endo("Lab", &[&lab]).unwrap();
                if l % 2 == 0 {
                    db.add_endo("Closed", &[&lab]).unwrap();
                }
            }
            db.add_endo("Flag", &["on"]).unwrap();
            db.add_endo("Other", &["o"]).unwrap();
            db
        }

        /// Flip a live fact's provenance, insert a fresh fact, or
        /// retract a live fact, drawn from `(seed, step)`.
        fn apply_update(db: &mut Database, seed: u64, step: u64) -> Option<EngineUpdate> {
            let r = mix(seed ^ 0xC0FF_EE00, step);
            let live: Vec<FactId> = (0..db.fact_count() as u32)
                .map(FactId)
                .filter(|&f| !db.is_retracted(f))
                .collect();
            let pick = live[(r >> 8) as usize % live.len()];
            match r % 3 {
                0 => {
                    let to = if db.fact(pick).provenance == Provenance::Endogenous {
                        Provenance::Exogenous
                    } else {
                        Provenance::Endogenous
                    };
                    db.set_fact_provenance(pick, to).ok()?;
                    Some(EngineUpdate::ProvenanceFlipped(pick))
                }
                1 => {
                    let student = format!("s{}", (r >> 16) % 9);
                    let f = match (r >> 24) % 3 {
                        0 => db.add_endo("Reg", &[&student, &format!("c{}", (r >> 32) % 9)]),
                        1 => db.add_endo("TA", &[&student]),
                        _ => db.add_endo("Lab", &[&format!("l{}", (r >> 32) % 4)]),
                    }
                    .ok()?;
                    Some(EngineUpdate::Inserted(f))
                }
                _ => {
                    db.retract_fact(pick).ok()?;
                    Some(EngineUpdate::Retracted(pick))
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// A maintained engine equals a fresh compile after every
            /// step of a random flip / insert / retract sequence.
            #[test]
            fn maintained_engine_matches_fresh_compiles(seed in 0u64..10_000, extra in 0usize..5) {
                let mut db = skewed_db(seed, extra);
                let q = parse_cq(CQ).unwrap();
                let mut engine = CompiledCount::compile(&db, &q, 2, None).unwrap();
                for step in 0..8 {
                    let Some(change) = apply_update(&mut db, seed, step) else {
                        continue;
                    };
                    if !engine.update(&db, change).unwrap() {
                        engine = CompiledCount::compile(&db, &q, 2, None).unwrap();
                    }
                    let fresh = CompiledCount::compile(&db, &q, 0, None).unwrap();
                    prop_assert_eq!(engine.total_counts(), fresh.total_counts(), "after {:?}", change);
                    for &f in db.endo_facts() {
                        prop_assert_eq!(
                            engine.value(&db, f).unwrap(),
                            fresh.value(&db, f).unwrap(),
                            "{} after {:?} on\n{}",
                            db.render_fact(f),
                            change,
                            db
                        );
                    }
                }
            }
        }
    }

    /// The compiled recursion trees against the uncompiled recursion
    /// and world enumeration, fresh and under maintenance, on a catalog
    /// that ends in a query four splits deep with negated atoms below
    /// the root-group level.
    mod recursion_tree {
        use super::*;
        use crate::domain::probability_by_enumeration;
        use crate::satcount::count_sat_hierarchical_masked;
        use cqshap_workloads::random_db::RandomDbConfig;
        use proptest::prelude::*;

        const QUERIES: &[&str] = &[
            "q() :- A(x), !B(x), C(x, y)",
            "q() :- A(x), B(x)",
            "q() :- C(x, y), !D(x, y)",
            "q() :- A(x), C(x, y), !D(x, y), E(x, y, z)",
            "q() :- A(x), !B(x), F(y), !G(y)",
            "q() :- C(x, 'd0'), !B(x)",
            // Splits on x (the root groups), y, z and w; `D` and `H` are
            // negated below the root-group level.
            "q() :- A(x), C(x, y), !D(x, y), E(x, y, z), F(x, y, z, w), !H(x, y, z, w)",
        ];

        fn random_db(q: &ConjunctiveQuery, seed: u64, facts: usize) -> Database {
            // Two constants keep the deep query's nested splits populated.
            RandomDbConfig {
                domain: 2,
                facts_per_relation: facts,
                seed,
                ..Default::default()
            }
            .generate(q)
        }

        /// Per-fact probabilities cycling through a few exact values.
        fn cycled_probs(db: &Database) -> FactProbabilities {
            let cycle = [rat(1, 3), rat(1, 2), rat(3, 4), rat(2, 5)];
            let mut probs = FactProbabilities::uniform(rat(1, 2));
            for (f, p) in db.endo_facts().iter().zip(cycle.iter().cycle()) {
                probs.set(*f, p.clone());
            }
            probs
        }

        /// Every endogenous fact's masked counts equal the uncompiled
        /// recursion on the masked database.
        fn assert_counts_match_recursion(
            db: &Database,
            q: &ConjunctiveQuery,
            engine: &CompiledCount,
        ) {
            for &f in db.endo_facts() {
                let masked = |mask| count_sat_hierarchical_masked(db, q, mask).unwrap();
                assert_eq!(
                    engine.counts_pair(db, f).unwrap(),
                    (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f))),
                    "{} for {q} over\n{db}",
                    db.render_fact(f)
                );
            }
        }

        /// A maintained counting engine equals a fresh compile and the
        /// uncompiled recursion.
        fn assert_count_matches_fresh(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
            let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
            assert_eq!(
                engine.total_counts(),
                fresh.total_counts(),
                "totals for {q} over\n{db}"
            );
            assert_counts_match_recursion(db, q, engine);
            for &f in db.endo_facts() {
                assert_eq!(
                    engine.value(db, f).unwrap(),
                    fresh.value(db, f).unwrap(),
                    "{} for {q} over\n{db}",
                    db.render_fact(f)
                );
            }
        }

        /// A maintained probability engine equals a fresh compile.
        fn assert_probability_matches_fresh(
            db: &Database,
            q: &ConjunctiveQuery,
            engine: &CompiledProbability,
        ) {
            let fresh =
                CompiledProbability::compile(db, q, engine.probabilities().clone(), 0, None)
                    .unwrap();
            assert_eq!(
                engine.probability(),
                fresh.probability(),
                "Pr[q] for {q} over\n{db}"
            );
            for &f in db.endo_facts() {
                assert_eq!(
                    engine.conditioned_pair(db, f).unwrap(),
                    fresh.conditioned_pair(db, f).unwrap(),
                    "{} conditionals for {q} over\n{db}",
                    db.render_fact(f)
                );
            }
        }

        /// Applies the update drawn from `h`: flip or retract a live
        /// fact of the query's relations, or insert a fresh tuple (over
        /// the two generated constants and one new one). `None` when the
        /// draw hits an existing tuple.
        fn random_update(db: &mut Database, q: &ConjunctiveQuery, h: u64) -> Option<EngineUpdate> {
            let live: Vec<FactId> = db.fact_ids().collect();
            match h % 3 {
                0 if !live.is_empty() => {
                    let f = live[(h >> 8) as usize % live.len()];
                    let to = if db.fact(f).provenance.is_endogenous() {
                        Provenance::Exogenous
                    } else {
                        Provenance::Endogenous
                    };
                    db.set_fact_provenance(f, to).ok()?;
                    Some(EngineUpdate::ProvenanceFlipped(f))
                }
                1 if !live.is_empty() => {
                    let f = live[(h >> 8) as usize % live.len()];
                    db.retract_fact(f).ok()?;
                    Some(EngineUpdate::Retracted(f))
                }
                _ => {
                    let atoms = q.atoms();
                    let atom = &atoms[(h >> 8) as usize % atoms.len()];
                    let names = ["d0", "d1", "n"];
                    let tuple: Vec<&str> = (0..atom.terms.len())
                        .map(|i| names[(h >> (16 + 2 * i)) as usize % names.len()])
                        .collect();
                    let provenance = if (h >> 40).is_multiple_of(3) {
                        Provenance::Exogenous
                    } else {
                        Provenance::Endogenous
                    };
                    let f = db.insert(&atom.relation, &tuple, provenance).ok()?;
                    Some(EngineUpdate::Inserted(f))
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// One walk per fact reproduces the uncompiled recursion under
            /// both masks.
            #[test]
            fn masked_walks_match_the_recursion(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..8) {
                let q = parse_cq(QUERIES[qi]).unwrap();
                let db = random_db(&q, seed, facts);
                let engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
                assert_counts_match_recursion(&db, &q, &engine);
            }

            /// The probability domain's walks are the conditionals of
            /// world enumeration.
            #[test]
            fn conditioned_walks_match_enumeration(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
                let q = parse_cq(QUERIES[qi]).unwrap();
                let db = random_db(&q, seed, facts);
                prop_assume!(db.endo_count() <= 12);
                let probs = cycled_probs(&db);
                let engine = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
                let enumerate = |forced| {
                    probability_by_enumeration(&db, AnyQuery::Cq(&q), &probs, forced, 16).unwrap()
                };
                prop_assert_eq!(engine.probability(), &enumerate(None), "{} over\n{}", q, db);
                for &f in db.endo_facts() {
                    prop_assert_eq!(
                        engine.conditioned_pair(&db, f).unwrap(),
                        (enumerate(Some((f, false))), enumerate(Some((f, true)))),
                        "{} for {} over\n{}",
                        db.render_fact(f),
                        q,
                        db
                    );
                }
            }

            /// Engines maintained through random flips, inserts and
            /// retractions equal fresh compiles after every step.
            #[test]
            fn maintained_trees_match_fresh_compiles(qi in 0..QUERIES.len(), seed in 0u64..5000, facts in 2usize..6) {
                let q = parse_cq(QUERIES[qi]).unwrap();
                let mut db = random_db(&q, seed, facts);
                let mut count = CompiledCount::compile(&db, &q, 0, None).unwrap();
                let probs = FactProbabilities::uniform(rat(1, 3));
                let mut prob = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
                for step in 0..12u64 {
                    let Some(change) = random_update(&mut db, &q, hash(seed, step)) else {
                        continue;
                    };
                    if !count.update(&db, change).unwrap() {
                        count = CompiledCount::compile(&db, &q, 0, None).unwrap();
                    }
                    if !prob.update(&db, change).unwrap() {
                        prob = CompiledProbability::compile(&db, &q, probs.clone(), 0, None).unwrap();
                    }
                    assert_count_matches_fresh(&db, &q, &count);
                    assert_probability_matches_fresh(&db, &q, &prob);
                }
            }
        }

        /// Root values appearing and dying below the root group are
        /// absorbed without a recompile: an insert founds a new `z` value
        /// inside the `y = b` child, another completes the support of
        /// `y = b2` out of a junk `E` fact, and retractions end both
        /// again.
        #[test]
        fn inner_root_values_come_and_go_without_recompiling() {
            let q = parse_cq("q() :- A(x), C(x, y), !D(x, y), E(x, y, z)").unwrap();
            let mut db = Database::parse(
                "exo A(a)\nendo C(a, b)\nendo D(a, b)\nendo E(a, b, z1)\n\
                 endo E(a, b2, z1)\nendo A(a2)\nendo C(a2, b)\nendo E(a2, b, z1)\n",
            )
            .unwrap();
            let mut count = CompiledCount::compile(&db, &q, 0, None).unwrap();
            let probs = FactProbabilities::uniform(rat(2, 5));
            let mut prob = CompiledProbability::compile(&db, &q, probs, 0, None).unwrap();
            let mut apply = |db: &Database, change: EngineUpdate| {
                assert!(count.update(db, change).unwrap(), "{change:?} recompiled");
                assert!(prob.update(db, change).unwrap(), "{change:?} recompiled");
                assert_count_matches_fresh(db, &q, &count);
                assert_probability_matches_fresh(db, &q, &prob);
            };
            // A new z value under y = b.
            let z2 = db.add_endo("E", &["a", "b", "z2"]).unwrap();
            apply(&db, EngineUpdate::Inserted(z2));
            // C(a, b2) gives the junk E(a, b2, z1) a root value y = b2.
            let b2 = db.add_endo("C", &["a", "b2"]).unwrap();
            apply(&db, EngineUpdate::Inserted(b2));
            // A negated fact inside the new child.
            let d2 = db.add_endo("D", &["a", "b2"]).unwrap();
            apply(&db, EngineUpdate::Inserted(d2));
            db.set_fact_provenance(d2, Provenance::Exogenous).unwrap();
            apply(&db, EngineUpdate::ProvenanceFlipped(d2));
            // Retracting z2's only E fact ends that z value ...
            db.retract_fact(z2).unwrap();
            apply(&db, EngineUpdate::Retracted(z2));
            // ... and retracting C(a, b2) turns y = b2's facts back into junk.
            db.retract_fact(b2).unwrap();
            apply(&db, EngineUpdate::Retracted(b2));
            // A junk fact flips and leaves.
            let junk = db.find_fact("E", &["a", "b2", "z1"]).unwrap();
            db.set_fact_provenance(junk, Provenance::Exogenous).unwrap();
            apply(&db, EngineUpdate::ProvenanceFlipped(junk));
            db.retract_fact(junk).unwrap();
            apply(&db, EngineUpdate::Retracted(junk));
        }
    }

    /// Always-satisfied root groups (identically zero `unsat` factors)
    /// under incremental maintenance: for `Stud(x), !TA(x), Reg(x, y)`,
    /// a student with an exogenous `Reg` fact and no `TA` fact satisfies
    /// the query in every coalition, and in the probability domain a
    /// `Reg` fact present with probability 1 does the same. Flip /
    /// insert / retract sequences that keep creating and clearing such
    /// groups must stay incremental and bit-identical to fresh compiles.
    mod zero_factors {
        use super::*;
        use proptest::prelude::*;

        const Q: &str = "q() :- Stud(x), !TA(x), Reg(x, y)";

        /// The database under test plus the bookkeeping the update stream
        /// draws from: every live `Reg` fact by student, every live `TA` fact.
        struct Instance {
            db: Database,
            regs: Vec<Vec<FactId>>,
            tas: Vec<Option<FactId>>,
            courses: usize,
        }

        /// `students` students with 1–3 `Reg` facts each and an endogenous,
        /// exogenous or absent `TA` fact. Student 0 starts always satisfied
        /// (one exogenous `Reg`, no `TA`) and is the only such student: a
        /// student without `TA` gets endogenous `Reg` facts only.
        fn instance(seed: u64, students: usize) -> Instance {
            let mut db = Database::new();
            // Declared up front: a relation first seen after compiling would
            // change how the query resolves, which is structural.
            db.add_relation("TA", 1).unwrap();
            let mut regs = Vec::new();
            let mut tas = Vec::new();
            let mut courses = 0;
            for s in 0..students {
                let name = format!("s{s}");
                db.add_exo("Stud", &[&name]).unwrap();
                let h = hash(seed, s as u64);
                let ta = match (s, h % 3) {
                    (0, _) | (_, 2) => None,
                    (_, 0) => Some(db.add_endo("TA", &[&name]).unwrap()),
                    _ => Some(db.add_exo("TA", &[&name]).unwrap()),
                };
                let mut mine = Vec::new();
                for r in 0..1 + (h >> 8) % 3 {
                    let course = format!("c{courses}");
                    courses += 1;
                    let exo = if s == 0 {
                        r == 0
                    } else {
                        ta.is_some() && (h >> (16 + r)).is_multiple_of(3)
                    };
                    mine.push(if exo {
                        db.add_exo("Reg", &[&name, &course]).unwrap()
                    } else {
                        db.add_endo("Reg", &[&name, &course]).unwrap()
                    });
                }
                regs.push(mine);
                tas.push(ta);
            }
            Instance {
                db,
                regs,
                tas,
                courses,
            }
        }

        /// Default probability 1/2, except student 0's first `Reg` fact at 1:
        /// student 0 stays always satisfied in the probability domain whichever
        /// way that fact is flipped, while any other student needs an
        /// exogenous `Reg` fact for that.
        fn probabilities(inst: &Instance) -> FactProbabilities {
            let mut probs = FactProbabilities::uniform(BigRational::from_i64_ratio(1, 2));
            probs.set(inst.regs[0][0], BigRational::one());
            probs
        }

        impl Instance {
            /// Applies the update drawn from `h` — flip a `Reg` or `TA` fact,
            /// insert a `Reg` or `TA` fact, or retract one — and returns it.
            /// Every update keeps each student's root group alive (a student
            /// keeps at least one `Reg`), so none of them is structural.
            fn step(&mut self, h: u64) -> EngineUpdate {
                let s = (h >> 4) as usize % self.regs.len();
                let name = format!("s{s}");
                let provenance = if (h >> 12).is_multiple_of(2) {
                    Provenance::Endogenous
                } else {
                    Provenance::Exogenous
                };
                let flip = |db: &mut Database, f: FactId| {
                    let to = if db.fact(f).provenance.is_endogenous() {
                        Provenance::Exogenous
                    } else {
                        Provenance::Endogenous
                    };
                    db.set_fact_provenance(f, to).unwrap();
                    EngineUpdate::ProvenanceFlipped(f)
                };
                match h % 5 {
                    0 | 1 => {
                        let mine = &self.regs[s];
                        let f = mine[(h >> 20) as usize % mine.len()];
                        flip(&mut self.db, f)
                    }
                    2 => {
                        let course = format!("c{}", self.courses);
                        self.courses += 1;
                        let f = self
                            .db
                            .insert("Reg", &[&name, &course], provenance)
                            .unwrap();
                        self.regs[s].push(f);
                        EngineUpdate::Inserted(f)
                    }
                    3 if self.regs[s].len() > 1 => {
                        let len = self.regs[s].len();
                        let f = self.regs[s].swap_remove((h >> 20) as usize % len);
                        self.db.retract_fact(f).unwrap();
                        EngineUpdate::Retracted(f)
                    }
                    _ => match self.tas[s].take() {
                        Some(f) if (h >> 24).is_multiple_of(2) => {
                            self.tas[s] = Some(f);
                            flip(&mut self.db, f)
                        }
                        Some(f) => {
                            self.db.retract_fact(f).unwrap();
                            EngineUpdate::Retracted(f)
                        }
                        None => {
                            let f = self.db.insert("TA", &[&name], provenance).unwrap();
                            self.tas[s] = Some(f);
                            EngineUpdate::Inserted(f)
                        }
                    },
                }
            }

            /// Flips student 0's first `Reg` fact. Exogenous, it makes the
            /// student always satisfied (unless the stream gave it a `TA`
            /// fact); endogenous, it clears that. The sequences alternate these
            /// toggles with random updates, so zero factors keep appearing and
            /// disappearing, sometimes several at once.
            fn toggle_student_zero(&mut self) -> EngineUpdate {
                let f = self.regs[0][0];
                let to = if self.db.fact(f).provenance.is_endogenous() {
                    Provenance::Exogenous
                } else {
                    Provenance::Endogenous
                };
                self.db.set_fact_provenance(f, to).unwrap();
                EngineUpdate::ProvenanceFlipped(f)
            }
        }

        /// Maintained counting engine ≡ fresh compile, bit for bit, and its
        /// masked counts ≡ the per-fact counting oracle.
        fn assert_count_matches_fresh(db: &Database, q: &ConjunctiveQuery, engine: &CompiledCount) {
            let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
            assert_eq!(
                engine.total_counts(),
                fresh.total_counts(),
                "totals over\n{db}"
            );
            let oracle = HierarchicalCounter;
            for &f in db.endo_facts() {
                assert_eq!(
                    engine.value(db, f).unwrap(),
                    fresh.value(db, f).unwrap(),
                    "{} over\n{db}",
                    db.render_fact(f)
                );
                let masked = |mask| oracle.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
                assert_eq!(
                    engine.counts_pair(db, f).unwrap(),
                    (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f))),
                    "{} counts over\n{db}",
                    db.render_fact(f)
                );
            }
        }

        /// Maintained probability engine ≡ fresh compile, bit for bit, and
        /// each conditional ≡ `Pr[q]` of a fresh compile with the fact's
        /// probability pinned to 0 or 1 — a total computed without deriving
        /// any group environment.
        fn assert_probability_matches_fresh(
            db: &Database,
            q: &ConjunctiveQuery,
            engine: &CompiledProbability,
        ) {
            let fresh =
                CompiledProbability::compile(db, q, engine.probabilities().clone(), 0, None)
                    .unwrap();
            assert_eq!(
                engine.probability(),
                fresh.probability(),
                "Pr[q] over\n{db}"
            );
            let pinned = |f: FactId, p: BigRational| {
                let mut probs = engine.probabilities().clone();
                probs.set(f, p);
                let pinned = CompiledProbability::compile(db, q, probs, 0, None).unwrap();
                pinned.probability().clone()
            };
            for &f in db.endo_facts() {
                let pair = engine.conditioned_pair(db, f).unwrap();
                assert_eq!(
                    pair,
                    fresh.conditioned_pair(db, f).unwrap(),
                    "{} conditionals over\n{db}",
                    db.render_fact(f)
                );
                assert_eq!(
                    pair,
                    (
                        pinned(f, BigRational::zero()),
                        pinned(f, BigRational::one())
                    ),
                    "{} conditionals vs pinned probabilities over\n{db}",
                    db.render_fact(f)
                );
            }
        }

        /// Is some root group always satisfied, i.e. every coalition satisfies
        /// the query (`|Sat(D, q, k)| = C(m, k)` for every `k`)?
        fn always_satisfied(engine: &CompiledCount) -> bool {
            let m = engine.total_counts().len() - 1;
            let mut row = BigUint::one();
            for (k, count) in engine.total_counts().iter().enumerate() {
                if *count != row {
                    return false;
                }
                row.mul_u64_assign((m - k) as u64);
                row.div_rem_u64_assign(k as u64 + 1);
            }
            true
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Both engines absorb every update incrementally — creating and
            /// clearing zero factors included — and stay bit-identical to
            /// fresh compiles.
            #[test]
            fn zero_factor_updates_stay_incremental_and_exact(
                seed in 0u64..1_000_000,
                students in 2usize..5,
                steps in 2usize..8,
            ) {
                let q = parse_cq(Q).unwrap();
                let mut inst = instance(seed, students);
                let mut count = CompiledCount::compile(&inst.db, &q, 0, None).unwrap();
                let mut prob =
                    CompiledProbability::compile(&inst.db, &q, probabilities(&inst), 0, None).unwrap();
                prop_assert!(always_satisfied(&count), "student 0 starts always satisfied");
                let mut cleared = false;
                for step in 0..steps as u64 {
                    let change = if step % 2 == 0 {
                        inst.toggle_student_zero()
                    } else {
                        inst.step(hash(seed, 100 + step))
                    };
                    prop_assert!(count.update(&inst.db, change).unwrap(), "{change:?} recompiled");
                    prop_assert!(prob.update(&inst.db, change).unwrap(), "{change:?} recompiled");
                    assert_count_matches_fresh(&inst.db, &q, &count);
                    assert_probability_matches_fresh(&inst.db, &q, &prob);
                    cleared |= !always_satisfied(&count);
                }
                prop_assert!(cleared, "the zero factor was never cleared");
            }
        }
    }

    /// Free facts (outside every scope) and junk facts (root values
    /// without positive support) are null players, left out of every
    /// cached polynomial: the full-database counts and the masked count
    /// pairs, which multiply their binomial row back in, must equal the
    /// counting oracles on fresh engines and after update sequences
    /// that create and remove them.
    mod null_players {
        use super::*;
        use proptest::prelude::*;

        const Q1: &str = "q1() :- Stud(x), !TA(x), Reg(x, y)";

        fn provenance(h: u64) -> Provenance {
            if h.is_multiple_of(3) {
                Provenance::Exogenous
            } else {
                Provenance::Endogenous
            }
        }

        /// Students with an endogenous, exogenous or absent `TA` fact and 1–3
        /// `Reg` facts, plus labs with 1–2 `Asst` facts and an optional
        /// endogenous `Closed` fact: every root value of `Q1` and `Q2` has full
        /// positive support. The query relations and the free relation `Note`
        /// are declared up front, so no later insert changes how a query
        /// resolves.
        fn university(seed: u64, students: u64, labs: u64) -> Database {
            let mut db = Database::new();
            for (rel, arity) in [("TA", 1), ("Closed", 1), ("Note", 1)] {
                db.add_relation(rel, arity).unwrap();
            }
            for s in 0..students {
                let name = format!("s{s}");
                let h = hash(seed, s);
                db.add_exo("Stud", &[&name]).unwrap();
                if !h.is_multiple_of(4) {
                    db.insert("TA", &[&name], provenance(h >> 2)).unwrap();
                }
                for r in 0..1 + (h >> 8) % 3 {
                    let course = format!("c{}", (h >> (12 + r)) % 5);
                    if db.find_fact("Reg", &[&name, &course]).is_none() {
                        db.insert("Reg", &[&name, &course], provenance(h >> (20 + r)))
                            .unwrap();
                    }
                }
            }
            for l in 0..labs {
                let name = format!("l{l}");
                let h = hash(seed, 1000 + l);
                db.add_exo("Lab", &[&name]).unwrap();
                for a in 0..1 + (h >> 4) % 2 {
                    db.insert("Asst", &[&name, &format!("a{a}")], provenance(h >> (8 + a)))
                        .unwrap();
                }
                if h.is_multiple_of(2) {
                    db.add_endo("Closed", &[&name]).unwrap();
                }
            }
            db
        }

        fn args(values: &[&str]) -> Vec<String> {
            values.iter().map(|s| s.to_string()).collect()
        }

        /// The null facts of `Q1`/`Q2` over a university: free `Note` facts,
        /// junk `TA`/`Reg` facts of a student without a `Stud` fact, and a junk
        /// `Closed` fact of a lab without a `Lab` fact.
        fn university_nulls(seed: u64) -> Vec<(&'static str, Vec<String>)> {
            let mut nulls = vec![
                ("Note", args(&["n0"])),
                ("TA", args(&["ghost"])),
                ("Reg", args(&["ghost", "c0"])),
                ("Closed", args(&["no_lab"])),
            ];
            for i in 1..1 + hash(seed, 7) % 3 {
                nulls.push(("Note", vec![format!("n{i}")]));
            }
            nulls
        }

        /// Maintained engine ≡ fresh compile ≡ the counting oracles: totals
        /// against the hierarchical counter, each count pair against the
        /// per-fact masked counts, and every null fact's value exactly 0.
        fn assert_counts_match_oracles(
            db: &Database,
            q: &ConjunctiveQuery,
            engine: &CompiledCount,
        ) {
            let fresh = CompiledCount::compile(db, q, 0, None).unwrap();
            let want = count_sat_hierarchical(db, q).unwrap();
            assert_eq!(
                engine.total_counts(),
                &want[..],
                "totals for {q} over\n{db}"
            );
            assert_eq!(fresh.total_counts(), &want[..], "fresh totals for {q}");
            let oracle = HierarchicalCounter;
            for &f in db.endo_facts() {
                let masked = |mask| oracle.counts_masked(db, AnyQuery::Cq(q), mask).unwrap();
                let pair = (masked(FactMask::Removed(f)), masked(FactMask::Exogenous(f)));
                let fact = db.render_fact(f);
                assert_eq!(engine.counts_pair(db, f).unwrap(), pair, "{fact} for {q}");
                assert_eq!(
                    fresh.counts_pair(db, f).unwrap(),
                    pair,
                    "fresh {fact} for {q}"
                );
                let value = engine.value(db, f).unwrap();
                assert_eq!(value, fresh.value(db, f).unwrap(), "{fact} for {q}");
                if engine.eng.is_structurally_null(f) {
                    assert_eq!(value, BigRational::zero(), "null {fact} for {q}");
                }
            }
        }

        /// One update that creates, flips or removes a free or junk fact, or
        /// moves a non-null `Reg` fact, drawn from `h`. Returns the change.
        fn null_step(
            db: &mut Database,
            nulls: &mut Vec<FactId>,
            h: u64,
            step: u64,
        ) -> EngineUpdate {
            let p = provenance(h >> 16);
            match h % 6 {
                0 => {
                    let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
                    nulls.push(f);
                    EngineUpdate::Inserted(f)
                }
                1 => {
                    let f = db.insert("TA", &[&format!("g{step}")], p).unwrap();
                    nulls.push(f);
                    EngineUpdate::Inserted(f)
                }
                2 => {
                    let ghost = format!("g{step}");
                    let f = db.insert("Reg", &[&ghost, "c0"], p).unwrap();
                    nulls.push(f);
                    EngineUpdate::Inserted(f)
                }
                3 if !nulls.is_empty() => {
                    let f = nulls.swap_remove((h >> 8) as usize % nulls.len());
                    db.retract_fact(f).unwrap();
                    EngineUpdate::Retracted(f)
                }
                4 if !nulls.is_empty() => {
                    let f = nulls[(h >> 8) as usize % nulls.len()];
                    let to = if db.fact(f).provenance.is_endogenous() {
                        Provenance::Exogenous
                    } else {
                        Provenance::Endogenous
                    };
                    db.set_fact_provenance(f, to).unwrap();
                    EngineUpdate::ProvenanceFlipped(f)
                }
                _ => {
                    // Flip a `Reg` fact of a supported student: the non-null
                    // player count moves while the null count stays.
                    let regs: Vec<FactId> = db
                        .endo_facts()
                        .iter()
                        .copied()
                        .filter(|&f| {
                            let text = db.render_fact(f);
                            text.starts_with("Reg(s")
                        })
                        .collect();
                    match regs.get((h >> 8) as usize % regs.len().max(1)) {
                        Some(&f) => {
                            db.set_fact_provenance(f, Provenance::Exogenous).unwrap();
                            EngineUpdate::ProvenanceFlipped(f)
                        }
                        None => {
                            let f = db.insert("Note", &[&format!("x{step}")], p).unwrap();
                            nulls.push(f);
                            EngineUpdate::Inserted(f)
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The full-database counts and masked count pairs equal the
            /// counting oracles on fresh engines and after update sequences
            /// that create and remove free and junk facts, for a one-, two- and
            /// three-component query.
            #[test]
            fn counts_with_null_players_match_the_oracles(
                seed in 0u64..1_000_000,
                students in 1u64..4,
                steps in 1u64..7,
            ) {
                for text in [
                    Q1,
                    "q() :- Stud(x), !TA(x), Reg(x, y), Lab(l), Asst(l, s), !Closed(l)",
                    "q() :- Reg(x, y), Lab(l), !Closed(l), Note('n0')",
                ] {
                    let q = parse_cq(text).unwrap();
                    let mut db = university(seed, students, 2);
                    let mut nulls = Vec::new();
                    for (rel, a) in university_nulls(seed) {
                        let a: Vec<&str> = a.iter().map(String::as_str).collect();
                        nulls.push(db.add_endo(rel, &a).unwrap());
                    }
                    let mut engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
                    if text == Q1 {
                        // Free (`Note`, `Closed`) and junk (`TA`/`Reg` of a
                        // student without `Stud`) alike.
                        for &f in &nulls {
                            prop_assert!(engine.eng.is_structurally_null(f), "{}", db.render_fact(f));
                        }
                    }
                    assert_counts_match_oracles(&db, &q, &engine);
                    for step in 0..steps {
                        let change = null_step(&mut db, &mut nulls, hash(seed, 200 + step), step);
                        if !engine.update(&db, change).unwrap() {
                            engine = CompiledCount::compile(&db, &q, 0, None).unwrap();
                        }
                        assert_counts_match_oracles(&db, &q, &engine);
                    }
                }
            }
        }
    }
}
