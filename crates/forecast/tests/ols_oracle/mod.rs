//! The test-tree oracle for training: the materialised least-squares
//! path the library streamed away, kept naive on purpose.
//!
//! It builds the whole `n × p` design matrix `X` and targets `Y` for a
//! regression, forms the Gram matrix by the loop `Matrix::gram` ran and
//! `XᵀY` as the explicit transpose times `Y`, then solves the way
//! `ols_ridge` did. Each performs the library's promised f64 operations in
//! the promised order, so its output must match the streaming
//! `NormalEquations` bit for bit:
//!
//! - `XᵀX`: rows in sequence, a `±0.0` feature skipped, the upper
//!   triangle accumulated and then mirrored;
//! - `XᵀY`: `out[i][j]` sums `X[k][i]·Y[k][j]` over rows `k` in order,
//!   skipping `X[k][i] == ±0.0` (the transpose-matmul zero skip);
//! - the ridge added to the diagonal after accumulation; Cholesky, or
//!   Householder QR on `X` when Cholesky fails;
//! - errors in the order `Underdetermined`, `NonFinite`, `RankDeficient`.
//!
//! The shared decompositions (`cholesky`, `solve_cholesky`, `Qr`) are the
//! library's: what is under test is how the normal equations are formed.

use foreco_linalg::{cholesky, solve_cholesky, Matrix, OlsError, Qr};

/// Rows of a matrix, oldest first.
pub type Rows = Vec<Vec<f64>>;

/// `XᵀX` the way `Matrix::gram` formed it.
#[allow(clippy::needless_range_loop)] // index loops, like the matrix code it mirrors
pub fn gram(x: &Rows, p: usize) -> Rows {
    let mut g = vec![vec![0.0; p]; p];
    for row in x {
        for i in 0..p {
            if row[i] == 0.0 {
                continue;
            }
            for j in i..p {
                g[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            g[i][j] = g[j][i];
        }
    }
    g
}

/// `XᵀY` as the explicit transpose of `X` times `Y`.
#[allow(clippy::needless_range_loop)] // index loops, like the matrix code it mirrors
pub fn xty(x: &Rows, y: &Rows, p: usize, q: usize) -> Rows {
    let xt: Rows = (0..p)
        .map(|i| x.iter().map(|row| row[i]).collect())
        .collect();
    let mut out = vec![vec![0.0; q]; p];
    for i in 0..p {
        for (k, &a) in xt[i].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for j in 0..q {
                out[i][j] += a * y[k][j];
            }
        }
    }
    out
}

fn to_matrix(rows: &Rows, cols: usize) -> Matrix {
    Matrix::from_vec(rows.len(), cols, rows.concat())
}

/// The ridge least-squares fit of `Y` on `X`, as `ols_ridge` computed it
/// from the materialised matrices.
pub fn ols_ridge(x: &Rows, y: &Rows, p: usize, q: usize, ridge: f64) -> Result<Matrix, OlsError> {
    let n = x.len();
    if n < p {
        return Err(OlsError::Underdetermined { rows: n, cols: p });
    }
    if x.iter().chain(y).flatten().any(|v| !v.is_finite()) {
        return Err(OlsError::NonFinite);
    }
    let mut g = gram(x, p);
    if ridge > 0.0 {
        for (i, row) in g.iter_mut().enumerate() {
            row[i] += ridge;
        }
    }
    let xty = xty(x, y, p, q);
    let mut beta = Matrix::zeros(p, q);
    if let Some(ch) = cholesky(&to_matrix(&g, p)) {
        for col in 0..q {
            let rhs: Vec<f64> = xty.iter().map(|row| row[col]).collect();
            for (i, v) in solve_cholesky(&ch, &rhs).into_iter().enumerate() {
                beta[(i, col)] = v;
            }
        }
        return Ok(beta);
    }
    let qr = Qr::new(&to_matrix(x, p)).ok_or(OlsError::RankDeficient)?;
    for col in 0..q {
        let ycol: Vec<f64> = y.iter().map(|row| row[col]).collect();
        for (i, v) in qr.solve_least_squares(&ycol).into_iter().enumerate() {
            beta[(i, col)] = v;
        }
    }
    Ok(beta)
}

/// The series a VAR regresses: the commands themselves (levels) or
/// their first differences.
pub fn series(commands: &Rows, differences: bool) -> Rows {
    if differences {
        commands
            .windows(2)
            .map(|w| w[1].iter().zip(&w[0]).map(|(a, b)| a - b).collect())
            .collect()
    } else {
        commands.clone()
    }
}

/// The differences-mode clamp: the largest |value| in the series.
pub fn clamp(series: &Rows) -> f64 {
    series.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// The VAR(R) design over `series`: each row is
/// `[1, s_t, …, s_{t+R−1}] → s_{t+R}`.
pub fn var_design(series: &Rows, r: usize) -> (Rows, Rows) {
    let n = series.len().saturating_sub(r);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for t in 0..n {
        let mut row = vec![1.0];
        for s in &series[t..t + r] {
            row.extend_from_slice(s);
        }
        x.push(row);
        y.push(series[t + r].clone());
    }
    (x, y)
}

/// The VARMA(R, Q) stage-2 design: each row is
/// `[1, c_{i−R}, …, c_{i−1}, ε_{i−Q}, …, ε_{i−1}] → c_i` from
/// `i = max(R, Q)` on.
pub fn varma_design(commands: &Rows, residuals: &Rows, r: usize, q: usize) -> (Rows, Rows) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in r.max(q)..commands.len() {
        let mut row = vec![1.0];
        for c in &commands[i - r..i] {
            row.extend_from_slice(c);
        }
        for e in &residuals[i - q..i] {
            row.extend_from_slice(e);
        }
        x.push(row);
        y.push(commands[i].clone());
    }
    (x, y)
}
