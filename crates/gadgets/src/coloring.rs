//! The Lemma D.1 reduction chain:
//! 3-colorability → `(3+,2−)`-SAT → `(2+,2−,4+−)`-SAT.
//!
//! Both reductions are implemented exactly as in the appendix, with the
//! direct solvers (brute-force coloring, DPLL) serving as the ground
//! truth for end-to-end validation.

use crate::cnf::{Clause, CnfFormula, Literal};

/// An undirected graph over vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop");
        }
        Graph { n, edges }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Brute-force 3-colorability.
    ///
    /// # Panics
    /// Panics when `n > 15`.
    pub fn is_three_colorable(&self) -> bool {
        assert!(self.n <= 15, "brute-force coloring caps n at 15");
        let mut colors = vec![0u8; self.n];
        self.try_color(0, &mut colors)
    }

    fn try_color(&self, v: usize, colors: &mut Vec<u8>) -> bool {
        if v == self.n {
            return true;
        }
        'next: for c in 0..3u8 {
            for &(a, b) in &self.edges {
                let (other, is_edge) = if a == v && b < v {
                    (b, true)
                } else if b == v && a < v {
                    (a, true)
                } else {
                    (0, false)
                };
                if is_edge && colors[other] == c {
                    continue 'next;
                }
            }
            colors[v] = c;
            if self.try_color(v + 1, colors) {
                return true;
            }
        }
        false
    }
}

/// Lemma D.1, step 1: 3-colorability → `(3+,2−)`-SAT.
///
/// Variable `x_v^c` (index `3v + c`) says "vertex `v` gets color `c`".
/// Clauses: each vertex gets a color (positive 3-clauses); adjacent
/// vertices disagree and no vertex gets two colors (negative 2-clauses).
pub fn coloring_to_3p2n(g: &Graph) -> CnfFormula {
    let var = |v: usize, c: usize| 3 * v + c;
    let mut clauses = Vec::new();
    for v in 0..g.vertex_count() {
        clauses.push(Clause(vec![
            Literal::pos(var(v, 0)),
            Literal::pos(var(v, 1)),
            Literal::pos(var(v, 2)),
        ]));
    }
    for &(u, w) in g.edges() {
        for c in 0..3 {
            clauses.push(Clause(vec![
                Literal::neg(var(u, c)),
                Literal::neg(var(w, c)),
            ]));
        }
    }
    for v in 0..g.vertex_count() {
        for c1 in 0..3 {
            for c2 in c1 + 1..3 {
                clauses.push(Clause(vec![
                    Literal::neg(var(v, c1)),
                    Literal::neg(var(v, c2)),
                ]));
            }
        }
    }
    CnfFormula::new(3 * g.vertex_count(), clauses)
}

/// Lemma D.1, step 2: `(3+,2−)`-SAT → `(2+,2−,4+−)`-SAT.
///
/// Negative 2-clauses pass through. Each positive 3-clause
/// `(x ∨ y ∨ z)` becomes, with a fresh variable `w`:
/// `(x ∨ y ∨ ¬w ∨ ¬w) ∧ (z ∨ w) ∧ (¬z ∨ ¬w)`.
///
/// # Panics
/// Panics when the input is not in `(3+,2−)` shape.
pub fn to_224(f: &CnfFormula) -> CnfFormula {
    assert!(f.is_3p2n_shape(), "input must be a (3+,2−) formula");
    let mut next_var = f.num_vars;
    let mut clauses = Vec::new();
    for c in &f.clauses {
        match c.0.as_slice() {
            [a, b] => clauses.push(Clause(vec![*a, *b])),
            [x, y, z] => {
                let w = next_var;
                next_var += 1;
                clauses.push(Clause(vec![*x, *y, Literal::neg(w), Literal::neg(w)]));
                clauses.push(Clause(vec![*z, Literal::pos(w)]));
                clauses.push(Clause(vec![Literal::neg(z.var), Literal::neg(w)]));
            }
            _ => unreachable!("shape validated"),
        }
    }
    CnfFormula::new(next_var, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::new(3, vec![(0, 1), (1, 2), (0, 2)])
    }

    fn k4() -> Graph {
        Graph::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    /// K4 plus a pendant vertex; still not 3-colorable.
    fn k4_plus() -> Graph {
        Graph::new(
            5,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
        )
    }

    #[test]
    fn coloring_ground_truth() {
        assert!(triangle().is_three_colorable());
        assert!(!k4().is_three_colorable());
        assert!(!k4_plus().is_three_colorable());
        assert!(Graph::new(1, vec![]).is_three_colorable());
        // C5 is 3-colorable.
        assert!(Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).is_three_colorable());
    }

    #[test]
    fn step1_preserves_satisfiability() {
        for (g, colorable) in [
            (triangle(), true),
            (k4(), false),
            (k4_plus(), false),
            (Graph::new(4, vec![(0, 1), (1, 2), (2, 3)]), true),
        ] {
            let f = coloring_to_3p2n(&g);
            assert!(f.is_3p2n_shape());
            assert_eq!(f.is_satisfiable(), colorable, "graph {g:?}");
        }
    }

    #[test]
    fn step2_preserves_satisfiability() {
        for g in [triangle(), k4(), Graph::new(4, vec![(0, 1), (2, 3)])] {
            let f = coloring_to_3p2n(&g);
            let f224 = to_224(&f);
            assert!(f224.is_224_shape());
            assert_eq!(f.is_satisfiable(), f224.is_satisfiable(), "graph {g:?}");
        }
    }

    #[test]
    fn full_chain_matches_coloring() {
        for (g, colorable) in [(triangle(), true), (k4(), false)] {
            let f224 = to_224(&coloring_to_3p2n(&g));
            assert_eq!(f224.is_satisfiable(), colorable);
        }
    }

    #[test]
    #[should_panic(expected = "(3+,2−)")]
    fn to_224_validates_shape() {
        let bad = CnfFormula::new(1, vec![Clause(vec![Literal::pos(0)])]);
        to_224(&bad);
    }
}
