//! Exact linear algebra over the rationals.
//!
//! The hardness proof of Lemma B.3 recovers the independent-set counts
//! `|S(g,k)|` of a bipartite graph from `n+1` Shapley values by solving a
//! linear system whose coefficients are products of factorials. The system
//! must be solved *exactly* — the unknowns are integers recovered from
//! rationals — so we implement fraction-free-enough Gaussian elimination
//! with full pivoting over [`BigRational`].
#![expect(
    clippy::indexing_slicing,
    reason = "elimination indexes within the matrix dimensions it validated"
)]

use crate::rational::BigRational;

/// A dense matrix of exact rationals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RationalMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BigRational>,
}

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (no unique solution).
    Singular,
    /// Dimension mismatch between operands.
    DimensionMismatch {
        /// The dimension the operation required.
        expected: usize,
        /// The dimension it was given.
        got: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl RationalMatrix {
    /// Builds a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RationalMatrix {
            rows,
            cols,
            data: vec![BigRational::zero(); rows * cols],
        }
    }

    /// Builds from a row-major closure.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> BigRational,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        RationalMatrix { rows, cols, data }
    }

    /// Builds from rows of rationals.
    ///
    /// # Panics
    /// Panics if rows are ragged.
    pub fn from_rows(rows: Vec<Vec<BigRational>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == ncols), "ragged rows");
        RationalMatrix {
            rows: nrows,
            cols: ncols,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> &BigRational {
        &self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut BigRational {
        &mut self.data[r * self.cols + c]
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[BigRational]) -> Result<Vec<BigRational>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                (0..self.cols).fold(BigRational::zero(), |acc, c| acc + self.get(r, c) * &v[c])
            })
            .collect())
    }

    /// Solves `A·x = b` exactly by Gaussian elimination with partial
    /// pivoting (pivot = first nonzero in column, which is exact-safe).
    ///
    /// Returns [`LinalgError::Singular`] when `A` is not invertible.
    #[expect(
        clippy::needless_range_loop,
        reason = "pivoting bookkeeping is index-driven"
    )]
    pub fn solve(&self, b: &[BigRational]) -> Result<Vec<BigRational>, LinalgError> {
        let n = self.rows;
        if self.cols != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: self.cols,
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        // Augmented working copy.
        let mut a = self.clone();
        let mut rhs = b.to_vec();
        let mut row_of_col = vec![usize::MAX; n];
        let mut used = vec![false; n];
        for col in 0..n {
            let pivot_row = (0..n).find(|&r| !used[r] && !a.get(r, col).is_zero());
            let Some(p) = pivot_row else {
                return Err(LinalgError::Singular);
            };
            used[p] = true;
            row_of_col[col] = p;
            let inv = a.get(p, col).reciprocal();
            for c in col..n {
                let v = a.get(p, c) * &inv;
                *a.get_mut(p, c) = v;
            }
            rhs[p] = &rhs[p] * &inv;
            for r in 0..n {
                if r == p || a.get(r, col).is_zero() {
                    continue;
                }
                let factor = a.get(r, col).clone();
                for c in col..n {
                    let v = a.get(r, c) - &factor * a.get(p, c);
                    *a.get_mut(r, c) = v;
                }
                rhs[r] = &rhs[r] - &factor * &rhs[p];
            }
        }
        Ok((0..n).map(|col| rhs[row_of_col[col]].clone()).collect())
    }

    /// The determinant, via triangularization.
    pub fn determinant(&self) -> Result<BigRational, LinalgError> {
        let n = self.rows;
        if self.cols != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: self.cols,
            });
        }
        let mut a = self.clone();
        let mut det = BigRational::one();
        for col in 0..n {
            let pivot = (col..n).find(|&r| !a.get(r, col).is_zero());
            let Some(p) = pivot else {
                return Ok(BigRational::zero());
            };
            if p != col {
                for c in 0..n {
                    let tmp = a.get(p, c).clone();
                    *a.get_mut(p, c) = a.get(col, c).clone();
                    *a.get_mut(col, c) = tmp;
                }
                det = -det;
            }
            let pv = a.get(col, col).clone();
            det = det * &pv;
            let inv = pv.reciprocal();
            for r in col + 1..n {
                if a.get(r, col).is_zero() {
                    continue;
                }
                let factor = a.get(r, col) * &inv;
                for c in col..n {
                    let v = a.get(r, c) - &factor * a.get(col, c);
                    *a.get_mut(r, c) = v;
                }
            }
        }
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(p: i64, q: i64) -> BigRational {
        BigRational::from_i64_ratio(p, q)
    }

    #[test]
    fn solve_2x2() {
        // x + 2y = 5 ; 3x - y = 1  →  x = 1, y = 2
        let a = RationalMatrix::from_rows(vec![
            vec![rat(1, 1), rat(2, 1)],
            vec![rat(3, 1), rat(-1, 1)],
        ]);
        let x = a.solve(&[rat(5, 1), rat(1, 1)]).unwrap();
        assert_eq!(x, vec![rat(1, 1), rat(2, 1)]);
    }

    #[test]
    fn solve_identity() {
        let n = 5;
        let a = RationalMatrix::from_fn(n, n, |r, c| if r == c { rat(1, 1) } else { rat(0, 1) });
        let b: Vec<_> = (0..n as i64).map(|i| rat(i, 7)).collect();
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn singular_detected() {
        let a =
            RationalMatrix::from_rows(vec![vec![rat(1, 1), rat(2, 1)], vec![rat(2, 1), rat(4, 1)]]);
        assert_eq!(a.solve(&[rat(1, 1), rat(2, 1)]), Err(LinalgError::Singular));
        assert_eq!(a.determinant().unwrap(), BigRational::zero());
    }

    #[test]
    fn solve_round_trip_random_like() {
        // A fixed "random-looking" invertible matrix with fractions.
        let a = RationalMatrix::from_rows(vec![
            vec![rat(1, 2), rat(3, 1), rat(-1, 3)],
            vec![rat(0, 1), rat(1, 5), rat(7, 2)],
            vec![rat(4, 1), rat(-2, 7), rat(1, 1)],
        ]);
        let x_true = vec![rat(3, 11), rat(-5, 13), rat(17, 4)];
        let b = a.mul_vec(&x_true).unwrap();
        assert_eq!(a.solve(&b).unwrap(), x_true);
    }

    #[test]
    fn lemma_b3_style_factorial_matrix_is_invertible() {
        // The coefficient matrix of Lemma B.3 for N=4:
        //   M[r][k] = k! · (N - k + r + 1)!   for r,k in 0..=N
        // (row r comes from the instance D^{r+1}). The proof asserts it is
        // nonsingular; verify exactly.
        let n = 4usize;
        let fact = |m: usize| crate::combinatorics::factorial(m);
        let a = RationalMatrix::from_fn(n + 1, n + 1, |r, k| {
            BigRational::from(fact(k) * fact(n - k + r + 1))
        });
        assert!(a.determinant().unwrap() != BigRational::zero());
    }

    #[test]
    fn dimension_mismatch() {
        let a = RationalMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[rat(0, 1), rat(0, 1)]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.mul_vec(&[rat(1, 1)]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
