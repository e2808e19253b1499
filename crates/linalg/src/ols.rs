//! Ordinary Least Squares for multi-output regression.
//!
//! This is the estimator behind the paper's VAR training (eq. 9):
//! `w = argmin_w Σ_i Σ_k (c_i^k − f^k({c_j}, w))²`, which separates per
//! output column into independent least-squares problems sharing one
//! design matrix.
//!
//! That design matrix is built only for the QR fallback: samples stream
//! row by row into [`NormalEquations`], which keeps only `XᵀX` and `XᵀY`. [`ols_rows`] drives it from a row generator (how VAR and VARMA
//! train); [`ols`] and [`ols_ridge`] push the rows of matrices the caller
//! already holds.

use crate::decomp::{cholesky, solve_cholesky, Qr};
use crate::Matrix;

/// Failure modes of the OLS solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsError {
    /// Fewer rows (samples) than columns (features): the system is
    /// underdetermined.
    Underdetermined {
        /// Number of samples provided.
        rows: usize,
        /// Number of features requested.
        cols: usize,
    },
    /// The design matrix is numerically rank-deficient and no ridge
    /// regularisation was requested.
    RankDeficient,
    /// Input contained NaN or infinite values.
    NonFinite,
}

impl std::fmt::Display for OlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OlsError::Underdetermined { rows, cols } => {
                write!(
                    f,
                    "underdetermined system: {rows} samples for {cols} features"
                )
            }
            OlsError::RankDeficient => write!(f, "design matrix is numerically rank-deficient"),
            OlsError::NonFinite => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for OlsError {}

/// The normal equations `XᵀX B = XᵀY` of a multi-output least-squares
/// problem, accumulated one sample row at a time.
///
/// Memory is `O(p² + p·q)` for `p` features and `q` targets, whatever the
/// number of samples: no design matrix is held. Each entry of `XᵀX` and
/// `XᵀY` sums its row products in push order, and a row whose feature `i`
/// is zero (`±0.0`) adds nothing to row `i` of either; only the upper
/// triangle of `XᵀX` is accumulated and it is mirrored when read. So a
/// given sequence of rows always yields the same bits.
///
/// # Example
///
/// ```
/// use foreco_linalg::NormalEquations;
///
/// // Fit y = 2x + 1 from four noiseless samples, streamed.
/// let mut normal = NormalEquations::new(2, 1);
/// for x in 0..4 {
///     let x = f64::from(x);
///     normal.push(&[1.0, x], &[2.0 * x + 1.0]);
/// }
/// let beta = normal.solve(0.0, || unreachable!("well conditioned")).unwrap();
/// assert!((beta[(0, 0)] - 1.0).abs() < 1e-9);
/// assert!((beta[(1, 0)] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct NormalEquations {
    /// `XᵀX`, upper triangle only until read.
    xtx: Matrix,
    /// `XᵀY`, `p × q`.
    xty: Matrix,
    /// Rows pushed so far.
    rows: usize,
    /// Whether every value pushed so far was finite.
    finite: bool,
}

impl NormalEquations {
    /// Empty normal equations for `p` features and `q` targets.
    pub fn new(p: usize, q: usize) -> Self {
        Self {
            xtx: Matrix::zeros(p, p),
            xty: Matrix::zeros(p, q),
            rows: 0,
            finite: true,
        }
    }

    /// Adds one sample: feature row `x` (length `p`) and target row `y`
    /// (length `q`).
    ///
    /// # Panics
    /// Panics if either row has the wrong length.
    pub fn push(&mut self, x: &[f64], y: &[f64]) {
        let (p, q) = (self.xtx.cols(), self.xty.cols());
        assert_eq!(x.len(), p, "ols: feature row of length {} for {p}", x.len());
        assert_eq!(y.len(), q, "ols: target row of length {} for {q}", y.len());
        self.rows += 1;
        self.finite &= x.iter().chain(y).all(|v| v.is_finite());
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (g, &xj) in self.xtx.row_mut(i)[i..].iter_mut().zip(&x[i..]) {
                *g += xi * xj;
            }
            for (t, &yj) in self.xty.row_mut(i).iter_mut().zip(y) {
                *t += xi * yj;
            }
        }
    }

    /// `XᵀX` over the rows pushed so far (symmetric, no ridge).
    pub fn xtx(&self) -> Matrix {
        let mut gram = self.xtx.clone();
        mirror_upper(&mut gram);
        gram
    }

    /// `XᵀY` over the rows pushed so far.
    pub fn xty(&self) -> &Matrix {
        &self.xty
    }

    /// Solves `(XᵀX + λI) B = XᵀY` with ridge `λ = ridge ≥ 0`, returning
    /// the `p × q` coefficients.
    ///
    /// Cholesky on the normal equations comes first: an order of
    /// magnitude faster than QR for the tall, thin problems VAR training
    /// poses (tens of thousands of rows, `1 + d·R` features). Only when the
    /// regularised Gram matrix is not numerically positive definite does
    /// `design` run: it must return the pushed rows as `(X, Y)` matrices,
    /// which Householder QR then solves without ridge (it tolerates worse
    /// conditioning, squaring it only implicitly).
    ///
    /// # Errors
    /// In this order: [`OlsError::Underdetermined`] with fewer rows than
    /// features, [`OlsError::NonFinite`] if any pushed value was NaN or
    /// infinite, [`OlsError::RankDeficient`] if QR finds a dependent
    /// column.
    ///
    /// # Panics
    /// Panics if `ridge` is negative.
    pub fn solve(
        mut self,
        ridge: f64,
        design: impl FnOnce() -> (Matrix, Matrix),
    ) -> Result<Matrix, OlsError> {
        assert!(ridge >= 0.0, "ols: ridge lambda must be non-negative");
        let (p, q) = self.xty.shape();
        if self.rows < p {
            return Err(OlsError::Underdetermined {
                rows: self.rows,
                cols: p,
            });
        }
        if !self.finite {
            return Err(OlsError::NonFinite);
        }
        mirror_upper(&mut self.xtx);
        if ridge > 0.0 {
            for i in 0..p {
                self.xtx[(i, i)] += ridge;
            }
        }

        let mut beta = Matrix::zeros(p, q);
        if let Some(ch) = cholesky(&self.xtx) {
            for col in 0..q {
                set_col(&mut beta, col, &solve_cholesky(&ch, &self.xty.col(col)));
            }
            return Ok(beta);
        }

        let (x, y) = design();
        let qr = Qr::new(&x).ok_or(OlsError::RankDeficient)?;
        for col in 0..q {
            set_col(&mut beta, col, &qr.solve_least_squares(&y.col(col)));
        }
        Ok(beta)
    }
}

/// Writes `values` down column `col` of `m`.
fn set_col(m: &mut Matrix, col: usize, values: &[f64]) {
    for (i, &v) in values.iter().enumerate() {
        m[(i, col)] = v;
    }
}

/// Copies the upper triangle of square `m` onto its lower triangle.
fn mirror_upper(m: &mut Matrix) {
    for i in 0..m.rows() {
        for j in 0..i {
            m[(i, j)] = m[(j, i)];
        }
    }
}

/// Least squares over `p`-feature, `q`-target samples that `rows`
/// produces: `rows` calls its argument once per sample, `(x, y)`, in the
/// same order every time it runs. It runs once to fill the
/// [`NormalEquations`], and once more only if the QR fallback needs the
/// design matrix — so a well-conditioned fit never holds it.
///
/// # Errors
/// As [`NormalEquations::solve`].
pub fn ols_rows(
    p: usize,
    q: usize,
    ridge: f64,
    rows: impl Fn(&mut dyn FnMut(&[f64], &[f64])),
) -> Result<Matrix, OlsError> {
    let mut normal = NormalEquations::new(p, q);
    rows(&mut |x, y| normal.push(x, y));
    normal.solve(ridge, || {
        let (mut x, mut y, mut n) = (Vec::new(), Vec::new(), 0);
        rows(&mut |xr, yr| {
            x.extend_from_slice(xr);
            y.extend_from_slice(yr);
            n += 1;
        });
        (Matrix::from_vec(n, p, x), Matrix::from_vec(n, q, y))
    })
}

/// Solves the multi-output least squares problem
/// `B = argmin ‖X B − Y‖_F`.
///
/// `x` is the `n x p` design matrix (n samples, p features), `y` the
/// `n x q` target matrix; the result is `p x q`. The rows stream through
/// [`NormalEquations`]; see [`NormalEquations::solve`] for the strategy.
pub fn ols(x: &Matrix, y: &Matrix) -> Result<Matrix, OlsError> {
    ols_ridge(x, y, 0.0)
}

/// [`ols`] with Tikhonov (ridge) regularisation `λ ≥ 0`:
/// `B = (XᵀX + λI)⁻¹ Xᵀ Y`.
///
/// A small positive `λ` makes the solve robust to collinear features (e.g.
/// a stationary robot joint producing a constant — hence collinear with the
/// bias — column).
pub fn ols_ridge(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Matrix, OlsError> {
    let (n, p) = x.shape();
    let (ny, q) = y.shape();
    assert_eq!(n, ny, "ols: X and Y row counts differ ({n} vs {ny})");
    ols_rows(p, q, lambda, |push| {
        for i in 0..n {
            push(x.row(i), y.row(i));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_map() {
        // y = X B with B known; noiseless OLS must return B.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[1.0, 2.0, 3.0],
            &[1.0, -1.0, 0.5],
        ]);
        let b_true = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0], &[-0.5, 3.0]]);
        let y = x.matmul(&b_true);
        let b = ols(&x, &y).unwrap();
        assert!((&b - &b_true).max_abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn underdetermined_rejected() {
        let x = Matrix::zeros(2, 5);
        let y = Matrix::zeros(2, 1);
        assert_eq!(
            ols(&x, &y),
            Err(OlsError::Underdetermined { rows: 2, cols: 5 })
        );
    }

    #[test]
    fn nonfinite_rejected() {
        let mut x = Matrix::filled(3, 2, 1.0);
        x[(1, 1)] = f64::NAN;
        let y = Matrix::zeros(3, 1);
        assert_eq!(ols(&x, &y), Err(OlsError::NonFinite));
    }

    #[test]
    fn collinear_without_ridge_fails_with_ridge_succeeds() {
        // Second column is 2x the first: rank 1.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(ols(&x, &y), Err(OlsError::RankDeficient));
        let b = ols_ridge(&x, &y, 1e-6).unwrap();
        // Ridge solution must still fit the data well.
        let pred = x.matmul(&b);
        assert!((&pred - &y).max_abs() < 1e-3);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]);
        let b0 = ols(&x, &y).unwrap()[(0, 0)];
        let b_big = ols_ridge(&x, &y, 100.0).unwrap()[(0, 0)];
        assert!((b0 - 2.0).abs() < 1e-10);
        assert!(b_big < b0 && b_big > 0.0);
    }

    #[test]
    fn gram_equals_xtx() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, -3.0, 2.0], &[2.0, 0.0, 1.0]]);
        let mut normal = NormalEquations::new(3, 0);
        for i in 0..x.rows() {
            normal.push(x.row(i), &[]);
        }
        let xtx = x.transpose().matmul(&x);
        assert!((&normal.xtx() - &xtx).max_abs() < 1e-12);
    }

    #[test]
    fn design_is_built_only_for_the_qr_fallback() {
        let fit = |x: &Matrix, y: &Matrix| {
            let mut normal = NormalEquations::new(x.cols(), y.cols());
            for i in 0..x.rows() {
                normal.push(x.row(i), y.row(i));
            }
            let mut built = false;
            let b = normal.solve(0.0, || {
                built = true;
                (x.clone(), y.clone())
            });
            (b.unwrap(), built)
        };
        let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let (_, built) = fit(
            &Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
            &y,
        );
        assert!(!built, "a positive-definite Gram needs no design matrix");
        // Full rank, but at 1e-7 scale every Gram pivot is below the
        // Cholesky threshold while QR's column norms are not.
        let x = Matrix::from_rows(&[&[1e-7, 0.0], &[0.0, 1e-7], &[1e-7, 1e-7]]);
        let (b, built) = fit(&x, &y);
        assert!(built, "the QR fallback reads the design matrix");
        let resid = &x.matmul(&b) - &y;
        assert!(x
            .transpose()
            .matvec(&resid.col(0))
            .iter()
            .all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn residuals_orthogonal_to_design() {
        let x = Matrix::from_rows(&[&[1.0, 0.3], &[1.0, -1.2], &[1.0, 2.2], &[1.0, 0.9]]);
        let y = Matrix::from_rows(&[&[1.0], &[0.0], &[3.5], &[1.7]]);
        let b = ols(&x, &y).unwrap();
        let resid = &x.matmul(&b) - &y;
        let xtres = x.transpose().matmul(&resid);
        assert!(xtres.max_abs() < 1e-9);
    }
}
