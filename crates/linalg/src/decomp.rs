//! Matrix decompositions: Cholesky (LLᵀ) and Householder QR.
//!
//! These are the two workhorses behind [`crate::ols`]: OLS normal equations
//! are solved with Cholesky when the Gram matrix is well conditioned, with a
//! QR least-squares fallback otherwise.

use crate::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// The lower-triangular factor (entries above the diagonal are zero).
    pub l: Matrix,
}

/// Computes the Cholesky factorisation of a symmetric positive-definite
/// matrix.
///
/// Returns `None` when a non-positive pivot is met, i.e. the matrix is not
/// numerically positive definite (within `1e-12` of singular).
///
/// # Panics
/// Panics if `a` is not square.
pub fn cholesky(a: &Matrix) -> Option<Cholesky> {
    assert_eq!(a.rows(), a.cols(), "cholesky: matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut diag = a[(j, j)];
        for k in 0..j {
            diag -= l[(j, k)] * l[(j, k)];
        }
        if diag <= 1e-12 {
            return None;
        }
        let ljj = diag.sqrt();
        l[(j, j)] = ljj;
        for i in j + 1..n {
            let mut v = a[(i, j)];
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = v / ljj;
        }
    }
    Some(Cholesky { l })
}

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// # Panics
/// Panics on shape mismatch or a zero diagonal element.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_lower: shape mismatch");
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut v = b[i];
        for (j, xj) in x.iter().enumerate().take(i) {
            v -= l[(i, j)] * xj;
        }
        assert!(l[(i, i)] != 0.0, "solve_lower: zero pivot at {i}");
        x[i] = v / l[(i, i)];
    }
    x
}

/// Solves `U x = b` for upper-triangular `U` by back substitution.
///
/// # Panics
/// Panics on shape mismatch or a zero diagonal element.
pub fn solve_upper(u: &Matrix, b: &[f64]) -> Vec<f64> {
    back_substitute(u.rows(), b, |i, j| u[(i, j)])
}

/// Back substitution on the `n × n` upper-triangular matrix whose `(i, j)`
/// entry is `u(i, j)`: the one body behind [`solve_upper`] and the `Lᵀ`
/// solve of [`solve_cholesky`], which reads `L` in place.
fn back_substitute(n: usize, b: &[f64], u: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    assert_eq!(b.len(), n, "solve_upper: shape mismatch");
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut v = b[i];
        for (j, xj) in x.iter().enumerate().skip(i + 1) {
            v -= u(i, j) * xj;
        }
        assert!(u(i, i) != 0.0, "solve_upper: zero pivot at {i}");
        x[i] = v / u(i, i);
    }
    x
}

/// Solves `A x = b` given the Cholesky factor of `A` (two triangular
/// solves; the `Lᵀ` one reads `L` transposed in place, copying nothing).
pub fn solve_cholesky(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
    let y = solve_lower(&ch.l, b);
    back_substitute(ch.l.rows(), &y, |i, j| ch.l[(j, i)])
}

/// Thin Householder QR factorisation of a tall matrix (`rows >= cols`).
///
/// Stores the Householder vectors implicitly and exposes
/// [`Qr::solve_least_squares`], which computes `argmin_x ‖A x − b‖₂`.
#[derive(Clone, Debug)]
pub struct Qr {
    /// Packed factorisation: `R` in the upper triangle, Householder
    /// vectors below the diagonal.
    packed: Matrix,
    /// Scalar `tau` coefficients for each Householder reflector.
    taus: Vec<f64>,
}

impl Qr {
    /// Factorises `a` (must have `rows >= cols`).
    ///
    /// Returns `None` if a column is (numerically) linearly dependent,
    /// which would make the triangular solve singular.
    ///
    /// # Panics
    /// Panics if `a.rows() < a.cols()`.
    #[allow(clippy::needless_range_loop)] // reflector loops touch v and r together
    pub fn new(a: &Matrix) -> Option<Qr> {
        let (m, n) = a.shape();
        assert!(m >= n, "qr: need rows >= cols, got {m}x{n}");
        let mut r = a.clone();
        let mut taus = Vec::with_capacity(n);
        // Reflector scratch, normalised so v[0] = 1 (LAPACK convention).
        let mut v = vec![0.0; m];
        for k in 0..n {
            // Column k below (and including) the diagonal.
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += r[(i, k)] * r[(i, k)];
            }
            let norm = norm2.sqrt();
            if norm < 1e-13 {
                return None; // numerically rank-deficient column
            }
            let xk = r[(k, k)];
            let alpha = if xk >= 0.0 { -norm } else { norm };
            let v0 = xk - alpha;
            if v0.abs() < 1e-300 {
                // Column already has the required shape; identity reflector.
                taus.push(0.0);
                continue;
            }
            for i in k + 1..m {
                v[i] = r[(i, k)] / v0;
            }
            // tau such that H = I − tau ṽ ṽᵀ with ṽ = [1, v_{k+1..}]:
            // tau = 2 / ṽᵀṽ · … reduces to (alpha − xk)/alpha.
            let tau = (alpha - xk) / alpha;
            // Apply H to trailing columns k+1..n.
            for j in k + 1..n {
                let mut w = r[(k, j)];
                for i in k + 1..m {
                    w += v[i] * r[(i, j)];
                }
                w *= tau;
                r[(k, j)] -= w;
                for i in k + 1..m {
                    let vi = v[i];
                    r[(i, j)] -= w * vi;
                }
            }
            // Write R's diagonal and stash the reflector under it.
            r[(k, k)] = alpha;
            for i in k + 1..m {
                r[(i, k)] = v[i];
            }
            taus.push(tau);
        }
        Some(Qr { packed: r, taus })
    }

    /// Least-squares solve: returns `x` minimising `‖A x − b‖₂`.
    ///
    /// # Panics
    /// Panics if `b.len() != rows`.
    #[allow(clippy::needless_range_loop)] // k/i walk y against the packed factor
    pub fn solve_least_squares(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = self.packed.shape();
        assert_eq!(b.len(), m, "qr solve: shape mismatch");
        let mut y = b.to_vec();
        // Apply Qᵀ = H_{n-1} … H_0 to b.
        for k in 0..n {
            let tau = self.taus[k];
            if tau == 0.0 {
                continue;
            }
            // v = [1, packed[k+1.., k]]
            let mut w = y[k];
            for i in k + 1..m {
                w += self.packed[(i, k)] * y[i];
            }
            w *= tau;
            y[k] -= w;
            for i in k + 1..m {
                y[i] -= w * self.packed[(i, k)];
            }
        }
        // Back-substitute R x = y[..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for j in i + 1..n {
                v -= self.packed[(i, j)] * x[j];
            }
            x[i] = v / self.packed[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn cholesky_reconstructs() {
        // A = B Bᵀ + I is SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let a = &b.matmul(&b.transpose()) + &Matrix::identity(2);
        let ch = cholesky(&a).expect("SPD");
        let rec = ch.l.matmul(&ch.l.transpose());
        assert!((&rec - &a).max_abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn cholesky_solve_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = cholesky(&a).unwrap();
        let x = solve_cholesky(&ch, &[8.0, 7.0]);
        // Verify A x = b.
        let back = a.matvec(&x);
        assert!(approx(back[0], 8.0, 1e-10) && approx(back[1], 7.0, 1e-10));
    }

    #[test]
    fn cholesky_solve_is_bit_identical_to_the_transpose_path() {
        // A deterministic spread of magnitudes and signs (signed zeros in
        // the right-hand sides included) over several sizes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((state % 7) as i32 - 3)
        };
        for n in [1, 2, 3, 7, 31] {
            let b = Matrix::from_fn(n + 2, n, |_, _| next());
            let a = &b.transpose().matmul(&b) + &Matrix::identity(n);
            let ch = cholesky(&a).expect("SPD");
            for k in 0..4 {
                let rhs: Vec<f64> = (0..n)
                    .map(|i| if (i + k) % 5 == 0 { -0.0 } else { next() })
                    .collect();
                let expected = solve_upper(&ch.l.transpose(), &solve_lower(&ch.l, &rhs));
                let got = solve_cholesky(&ch, &rhs);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "n = {n}, rhs {k}");
            }
        }
    }

    #[test]
    fn triangular_solves() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let x = solve_lower(&l, &[4.0, 11.0]);
        assert_eq!(x, vec![2.0, 3.0]);
        let u = l.transpose();
        let y = solve_upper(&u, &[7.0, 9.0]);
        assert!(approx(y[1], 3.0, 1e-12) && approx(y[0], 2.0, 1e-12));
    }

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&[5.0, 10.0]);
        let back = a.matvec(&x);
        assert!(approx(back[0], 5.0, 1e-10) && approx(back[1], 10.0, 1e-10));
    }

    #[test]
    fn qr_least_squares_matches_normal_equations() {
        // Overdetermined: fit y = 1 + 2x over 5 noisy-free points.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[1.0, 2.0],
            &[1.0, 3.0],
            &[1.0, 4.0],
        ]);
        let b = [1.0, 3.0, 5.0, 7.0, 9.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve_least_squares(&b);
        assert!(approx(x[0], 1.0, 1e-10) && approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn qr_residual_orthogonal_to_columns() {
        // For LS solutions, Aᵀ(Ax − b) = 0.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[2.0, 0.3], &[1.5, 1.5]]);
        let b = [1.0, -2.0, 0.5, 3.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b);
        let ax = a.matvec(&x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let atr = a.transpose().matvec(&resid);
        assert!(
            atr.iter().all(|v| v.abs() < 1e-10),
            "residual not orthogonal: {atr:?}"
        );
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(Qr::new(&a).is_none());
    }
}
