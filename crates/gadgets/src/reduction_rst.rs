//! Lemma B.3, executably: counting independent sets of a bipartite
//! graph with a Shapley oracle for `q_RS¬T() :- R(x), S(x,y), ¬T(y)`.
//!
//! Given `g = (A ∪ B, E)` with `N = |A| + |B|`, the reduction builds
//! `N + 2` database instances:
//!
//! * `D⁰` — endogenous `R(a)` per left vertex, `T(b)` per right vertex,
//!   a fresh right vertex `z` with endogenous `f = T(z)`, exogenous
//!   `S(a,b)` per edge and `S(a,z)` for every `a ∈ A`;
//! * `Dʳ` (`r = 1..N+1`) — `D⁰` plus `r` fresh left vertices `oᵢ`, each
//!   with endogenous `R(oᵢ)` and exogenous `S(oᵢ, z)`.
//!
//! Writing `sᵣ = −Shapley(Dʳ, q_RS¬T, f)` (the value is non-positive:
//! `f` can only turn the answer false), the permutation-counting
//! identities of the proof give a linear system over the closed-subset
//! counts `|S(g,k)|`, whose coefficient matrix `[k!·(N−k+r)!]` is
//! invertible; `|IS(g)| = Σ_k |S(g,k)|`.

use cqshap_core::{shapley_via_counts, AnyQuery, BruteForceCounter, CoreError};
use cqshap_db::{Database, FactId};
use cqshap_numeric::{BigInt, BigRational, BigUint, FactorialTable, RationalMatrix};
use cqshap_query::{parse_cq, ConjunctiveQuery};

use crate::bipartite::BipartiteGraph;

/// The hard query `q_RS¬T`.
pub fn qrsnt_query() -> ConjunctiveQuery {
    parse_cq("qRSnT() :- R(x), S(x, y), !T(y)").expect("static query parses")
}

fn left_name(i: usize) -> String {
    format!("a{i}")
}

fn right_name(j: usize) -> String {
    format!("b{j}")
}

/// Builds the instance `Dʳ` (with `r = 0` giving `D⁰`); returns the
/// database and the distinguished fact `f = T(z)`.
pub fn build_instance(g: &BipartiteGraph, r: usize) -> (Database, FactId) {
    let mut db = Database::new();
    for i in 0..g.left() {
        db.add_endo("R", &[&left_name(i)]).expect("fresh");
    }
    for j in 0..g.right() {
        db.add_endo("T", &[&right_name(j)]).expect("fresh");
    }
    let f = db.add_endo("T", &["z"]).expect("fresh");
    for &(a, b) in g.edges() {
        db.add_exo("S", &[&left_name(a), &right_name(b)])
            .expect("fresh");
    }
    if r == 0 {
        // Only D⁰ connects the original left vertices to z; the Dʳ
        // instances connect z exclusively to the fresh vertices oᵢ.
        for i in 0..g.left() {
            db.add_exo("S", &[&left_name(i), "z"]).expect("fresh");
        }
    }
    for i in 1..=r {
        db.add_endo("R", &[&format!("o{i}")]).expect("fresh");
        db.add_exo("S", &[&format!("o{i}"), "z"]).expect("fresh");
    }
    (db, f)
}

/// A Shapley oracle: anything that produces `Shapley(D, q_RS¬T, f)`.
pub type ShapleyOracle<'a> = dyn Fn(&Database, FactId) -> Result<BigRational, CoreError> + 'a;

/// The brute-force oracle used to *realize* the reduction at small
/// scale (the query is `FP^{#P}`-hard, so no polynomial oracle exists
/// unless the hierarchy collapses).
pub fn brute_force_oracle(db: &Database, f: FactId) -> Result<BigRational, CoreError> {
    let q = qrsnt_query();
    shapley_via_counts(db, AnyQuery::Cq(&q), f, &BruteForceCounter::default())
}

/// Recovers `|IS(g)|` from `N + 2` Shapley values, following Lemma B.3
/// to the letter. Also returns the recovered `|S(g,k)|` vector.
///
/// # Errors
/// Propagates oracle errors; fails when the solved counts are not
/// non-negative integers (which would indicate an unfaithful oracle).
pub fn recover_is_count(
    g: &BipartiteGraph,
    oracle: &ShapleyOracle<'_>,
) -> Result<(BigUint, Vec<BigUint>), CoreError> {
    let m = g.left();
    let n_total = g.vertex_count(); // N
    let table = FactorialTable::new(2 * n_total + 2);
    let fact = |k: usize| BigRational::from(table.factorial(k).clone());

    // P₁→₁ from D⁰: s₀ = −Shapley(D⁰, f) = 1 − (P₀₀ + P₁₁)/(N+1)!,
    // with P₀₀ = (N+1)!/(m+1).
    let (d0, f0) = build_instance(g, 0);
    let s0 = -oracle(&d0, f0)?;
    let p00_d0 = fact(n_total + 1) / BigRational::from((m as i64) + 1);
    let p11 = (BigRational::one() - s0) * fact(n_total + 1) - p00_d0;

    // Rows r = 1..N+1:  Σ_k |S(g,k)|·k!·(N−k+r)! =
    //   (1 − sᵣ)·(N+r+1)! − P₁₁·mᵣ,   mᵣ = C(N+r+1, r)·r!.
    let rows = n_total + 1;
    let matrix = RationalMatrix::from_fn(rows, rows, |ri, k| {
        let r = ri + 1;
        fact(k) * fact(n_total - k + r)
    });
    let mut rhs = Vec::with_capacity(rows);
    for ri in 0..rows {
        let r = ri + 1;
        let (dr, fr) = build_instance(g, r);
        let sr = -oracle(&dr, fr)?;
        let m_r = BigRational::from(table.binomial(n_total + r + 1, r)) * fact(r);
        rhs.push((BigRational::one() - sr) * fact(n_total + r + 1) - &p11 * &m_r);
    }
    let solution = matrix
        .solve(&rhs)
        .map_err(|e| CoreError::Unsupported(format!("linear system: {e}")))?;

    let mut counts = Vec::with_capacity(rows);
    let mut total = BigUint::zero();
    for (k, v) in solution.iter().enumerate() {
        if !v.denominator().is_one() || v.is_negative() {
            return Err(CoreError::Unsupported(format!(
                "recovered |S(g,{k})| = {v} is not a non-negative integer"
            )));
        }
        let int: BigInt = v.numerator().clone();
        let mag = int.into_magnitude();
        total += &mag;
        counts.push(mag);
    }
    Ok((total, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate(g: &BipartiteGraph) {
        let (recovered_total, recovered_counts) = recover_is_count(g, &brute_force_oracle).unwrap();
        assert_eq!(
            recovered_total,
            g.independent_set_count(),
            "total |IS| for {g:?}"
        );
        assert_eq!(
            recovered_counts,
            g.closed_subset_counts(),
            "|S(g,k)| for {g:?}"
        );
    }

    #[test]
    fn single_edge_graph() {
        validate(&BipartiteGraph::new(1, 1, vec![(0, 0)]));
    }

    #[test]
    fn edgeless_graph() {
        validate(&BipartiteGraph::new(2, 1, vec![]));
    }

    #[test]
    fn path_graph() {
        // a0 - b0 - a1 (a path of length 2 through the right side).
        validate(&BipartiteGraph::new(2, 1, vec![(0, 0), (1, 0)]));
    }

    #[test]
    fn small_dense_graph() {
        validate(&BipartiteGraph::new(2, 2, vec![(0, 0), (0, 1), (1, 0)]));
    }

    #[test]
    fn shapley_of_f_is_never_positive() {
        // f = T(z) only ever flips the answer true → false.
        let g = BipartiteGraph::new(2, 2, vec![(0, 0), (1, 1)]);
        for r in 0..=2 {
            let (db, f) = build_instance(&g, r);
            let v = brute_force_oracle(&db, f).unwrap();
            assert!(!v.is_positive(), "r={r}: {v}");
            assert!(!v.is_zero(), "f is always relevant in these instances");
        }
    }

    #[test]
    fn instance_shape() {
        let g = BipartiteGraph::new(2, 3, vec![(0, 0), (1, 2)]);
        let (d0, f) = build_instance(&g, 0);
        // |Dn| = |A| + |B| + 1.
        assert_eq!(d0.endo_count(), 6);
        assert_eq!(d0.render_fact(f), "T(z)");
        let (d2, _) = build_instance(&g, 2);
        assert_eq!(d2.endo_count(), 8);
    }
}
