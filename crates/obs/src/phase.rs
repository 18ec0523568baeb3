//! The shared vocabulary of phase and metric keys.
//!
//! Span phases double as the `phase` labels in
//! `CoreError::DeadlineExceeded`, so a deadline trip and the trace name
//! the moment identically — `budget::check` takes these same
//! `&'static str` constants. Metric keys (counters, histograms, event
//! kinds) live here too so the `TRACE_report.json` vocabulary has one
//! authoritative home.

// ---------------------------------------------------------------------
// Span phases (also used as deadline-check labels).
// ---------------------------------------------------------------------

/// `ShapleySession::prepare`: classification and the routing plan (and,
/// for fallback sessions, their engines).
pub const PREPARE: &str = "prepare";
/// Prepare sub-phase: query classification (hierarchy / exogenous splits).
pub const PREPARE_CLASSIFY: &str = "prepare.classify";
/// Prepare sub-phase: choosing the evaluation strategy for the class.
pub const PREPARE_RESOLVE_STRATEGY: &str = "prepare.resolve-strategy";
/// Building the counting domain's compiled engines from the plan: under
/// `prepare` for fallback sessions, else under the first read or update
/// that needs them.
pub const PREPARE_COMPILE: &str = "prepare.compile";
/// `ShapleySession::report` / `report_with`: one full Shapley report.
pub const REPORT: &str = "report";
/// `ShapleySession::report_tiered`: the graceful-degradation ladder.
pub const REPORT_TIERED: &str = "report-tiered";
/// `ShapleySession::probability`: one `Pr[q]` read, including the
/// probability domain's compile on first use.
pub const PROBABILITY: &str = "probability";
/// `ShapleySession::expected_shapley`: one expected-marginal read,
/// including the probability domain's compile on first use.
pub const EXPECTED: &str = "expected";

/// Compiled-engine build of one root group's recursion tree (or its
/// class-memo lookup).
pub const COMPILE: &str = "compile";
/// Compiled-engine incremental update after an endogenous/exogenous flip.
pub const UPDATE: &str = "update";
/// Compiled-engine masked recount: one walk from a fact's leaf to its
/// root group's tree root (report misses of the recount memo, and
/// updates).
pub const RECOUNT: &str = "recount";
/// Compiled-engine component complement `C(endo, k) − unsat_k` (compile
/// and update).
pub const COMPLEMENT: &str = "compile.complement";
/// Compiled-engine product of a component's root-group factors
/// (compile).
pub const COMPILE_PRODUCT: &str = "compile.product";
/// Compiled-engine leave-one-out environments of the components
/// (compile and update).
pub const LEAVE_ONE_OUT: &str = "compile.leave-one-out";
/// Shapley weights `ω_k = lcm(1..m)·k!·(m−1−k)!/m!`, in word blocks, and
/// the weight-class layout of a counting engine (compile and update).
pub const WEIGHTS: &str = "compile.weights";
/// Report-time contraction of a fact's difference vector `d` with its
/// weight class's environment `E` and the Shapley weights,
/// `Σ_t ω_t·(d ⊛ E)[t]`, in one pass over `E` (numerator-memo misses
/// only).
pub const CONTRACT: &str = "report.contract";
/// Report-time derivation of a root group's leave-one-out environment
/// from its component's maintained factor product (one exact division
/// per weight class, or per group for conditional reads), and of a
/// weight class's environment `genv ⊛ env` when the component's own
/// environment is not the unit.
pub const CLASS_ENV: &str = "report.class-env";
/// Report-time reduction of a distinct Shapley numerator over
/// `lcm(1..m)` to lowest terms (memo misses only: once per distinct numerator).
pub const NORMALIZE: &str = "report.normalize";
/// Union (UCQ) compile: per-term engines plus inclusion–exclusion setup.
pub const UNION_COMPILE: &str = "union-compile";
/// Union (UCQ) per-term recount enumeration.
pub const UNION_TERMS: &str = "union-terms";
/// Aggregate-query Shapley evaluation by enumeration, polled between
/// candidates.
pub const AGGREGATE: &str = "aggregate";
/// Aggregate-query preparation: the per-candidate plan terms (and their
/// `ExoShap` rewritings) and their compile, polled between candidates
/// and between terms.
pub const AGGREGATE_PREPARE: &str = "aggregate-prepare";

/// The shared evaluation recursion over an evaluation domain (the
/// per-work-unit checkpoint label of `EvalDomain::checkpoint`).
pub const EVALUATE: &str = "evaluate";
/// Exact permutation-sum assembly from model counts.
pub const PERMUTATIONS: &str = "permutations";
/// Brute-force subset enumeration (small instances / oracle checks).
pub const BRUTE_FORCE: &str = "brute-force";
/// Weighted-sums-of-model-counts tier (WSMS).
pub const WSMS: &str = "wsms";

/// Anytime sampler: whole `shapley_anytime` call.
pub const ANYTIME: &str = "anytime";
/// Anytime sampler: the fixed bootstrap rounds of the per-fact draw
/// loop the permutation walks replaced. No span records it any more;
/// the key stays so readers of older traces and the benchmark's fixed
/// metric set keep resolving it.
pub const ANYTIME_BOOTSTRAP: &str = "anytime.bootstrap";
/// Anytime sampler: the deadline-bounded permutation walks.
pub const ANYTIME_REFINE: &str = "anytime.refine";

// ---------------------------------------------------------------------
// Counter keys.
// ---------------------------------------------------------------------

/// `poly::mul_with` dispatched to the schoolbook backend.
pub const CTR_POLY_SCHOOLBOOK: &str = "poly.mul.schoolbook";
/// `poly::mul_with` dispatched to the Karatsuba backend.
pub const CTR_POLY_KARATSUBA: &str = "poly.mul.karatsuba";
/// `poly::mul_with` dispatched to the NTT backend.
pub const CTR_POLY_NTT: &str = "poly.mul.ntt";
/// Primes drawn from the shared NTT prime pool.
pub const CTR_NTT_PRIME_DRAWS: &str = "poly.ntt.prime-pool.draws";
/// Repeated factors of a `poly::product_tree` raised to their
/// multiplicity by Miller's recurrence (one per distinct factor).
pub const CTR_POLY_POWER_RECURRENCE: &str = "poly.power.recurrence";

/// Iso-class memo hits during compiled recounts.
pub const CTR_CLASS_MEMO_HIT: &str = "compiled.class-memo.hit";
/// Iso-class memo misses during compiled recounts.
pub const CTR_CLASS_MEMO_MISS: &str = "compiled.class-memo.miss";
/// Masked-recount cache hits (unchanged root groups reused).
pub const CTR_RECOUNT_CACHE_HIT: &str = "compiled.recount-cache.hit";
/// Masked-recount cache misses (root groups recounted).
pub const CTR_RECOUNT_CACHE_MISS: &str = "compiled.recount-cache.miss";
/// Levels of a compiled recursion tree visited by masked walks and
/// updates (one per node on the path from a fact's leaf to its root
/// group). Host-independent; recorded only when a recorder is
/// installed.
pub const CTR_PATH_STEPS: &str = "compiled.path-steps";

/// Shapley-numerator memo hits (a `(weight class, difference)` pair
/// already contracted).
pub const CTR_NUMERATOR_MEMO_HIT: &str = "compiled.numerator-memo.hit";
/// Shapley-numerator memo misses (contractions run).
pub const CTR_NUMERATOR_MEMO_MISS: &str = "compiled.numerator-memo.miss";
/// Multiply-adds of an environment entry into a weight block's
/// accumulator, summed over the contractions run. An entry feeds at
/// most `1 + ⌈(len(d) − 1)/B⌉` blocks of `B` coalition sizes.
/// Host-independent; recorded only when a recorder is installed.
pub const CTR_CONTRACT_TERMS: &str = "compiled.contract.terms";

/// Query evaluations the permutation samplers ran: two per
/// single-fact draw and one per walk step, less the skipped ones.
pub const CTR_APPROX_EVALS: &str = "approx.evals";
/// Query evaluations the permutation samplers skipped because the
/// fact's relation occurs with one polarity and the coalition's own
/// answer already fixes the marginal at 0 (every evaluation of a fact
/// whose relation the query never mentions).
pub const CTR_APPROX_EVALS_SKIPPED: &str = "approx.evals.skipped";
/// Permutation walks of the anytime sampler (each yields one marginal
/// per endogenous fact).
pub const CTR_APPROX_WALKS: &str = "approx.walks";

/// Aggregate candidate groups discovered during prepare.
pub const CTR_AGG_CANDIDATES: &str = "aggregate.candidates";
/// Aggregate candidate groups pruned as irrelevant.
pub const CTR_AGG_PRUNED: &str = "aggregate.pruned";

// ---------------------------------------------------------------------
// Histogram keys.
// ---------------------------------------------------------------------

/// Operand length (max of the two factors) per `poly::mul_with` call.
pub const HIST_POLY_OPERAND_LEN: &str = "poly.mul.operand-len";
/// Permutation draws per stratum at anytime-sampler exit.
pub const HIST_ANYTIME_STRATUM_DRAWS: &str = "anytime.stratum.draws";
/// Confidence-interval half-width per fact at anytime-sampler exit,
/// in parts-per-million of the total playing weight.
pub const HIST_ANYTIME_HALF_WIDTH_PPM: &str = "anytime.interval.half-width-ppm";

// ---------------------------------------------------------------------
// Event kinds.
// ---------------------------------------------------------------------

/// A tier of `report_tiered` produced the answer; detail names the tier.
pub const EV_TIER_ANSWER: &str = "tier.answer";
/// `report_tiered` demoted past a tier; detail names the tier and the
/// `CoreError` that forced the demotion.
pub const EV_TIER_DEMOTE: &str = "tier.demote";
/// `budget::check` tripped a deadline; detail names the phase.
pub const EV_DEADLINE_TRIP: &str = "deadline.trip";
