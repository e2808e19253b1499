//! Streaming training is bit-identical to the materialised path.
//!
//! `foreco-linalg`'s `NormalEquations` accumulates `XᵀX` and `XᵀY` one
//! sample row at a time, and VAR/VARMA training streams its windows into
//! it without building a design matrix. The reference in `ols_oracle/`
//! builds `X` and `Y` in full and forms the products the way the library
//! did before it streamed. Every check here compares `to_bits`, so a
//! reordered sum, a lost zero skip or a ridge added early is caught:
//!
//! - `XᵀX` and `XᵀY` on seeded rows salted with `+0.0` and `-0.0`;
//! - `ols_ridge` with ridge 0 and ridge > 0, and a design whose Gram
//!   matrix fails Cholesky so the QR fallback runs;
//! - the order of the three error kinds;
//! - `Var::fit`, `Var::fit_differenced` and `Varma::fit` coefficients
//!   (and the differences-mode clamp) on recorded teleoperation data.

mod ols_oracle;

use foreco_forecast::{Forecaster, Var, Varma};
use foreco_linalg::{cholesky, ols_ridge, Matrix, NormalEquations, OlsError};
use foreco_teleop::{Dataset, Skill};
use ols_oracle::Rows;
use serde::Value;

/// xorshift64*: seeded, platform-independent rows.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in [-1, 1), or an exact `+0.0` (1 in 5) or `-0.0` (1 in 10).
    fn value(&mut self) -> f64 {
        match self.next() % 10 {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        }
    }

    fn rows(&mut self, n: usize, cols: usize) -> Rows {
        (0..n)
            .map(|_| (0..cols).map(|_| self.value()).collect())
            .collect()
    }
}

fn to_matrix(rows: &Rows, cols: usize) -> Matrix {
    Matrix::from_vec(rows.len(), cols, rows.concat())
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn row_bits(rows: &Rows) -> Vec<u64> {
    rows.iter().flatten().map(|v| v.to_bits()).collect()
}

/// Asserts two fits agree: the same error, or coefficients bit for bit.
fn assert_same_fit(got: Result<Matrix, OlsError>, want: Result<Matrix, OlsError>, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.shape(), want.shape(), "{what}: shape");
            assert_eq!(bits(&got), bits(&want), "{what}: coefficient bits");
        }
        (got, want) => assert_eq!(got, want, "{what}"),
    }
}

/// Streams `x`/`y` into fresh normal equations.
fn stream(x: &Rows, y: &Rows, p: usize, q: usize) -> NormalEquations {
    let mut normal = NormalEquations::new(p, q);
    for (xr, yr) in x.iter().zip(y) {
        normal.push(xr, yr);
    }
    normal
}

#[test]
fn normal_equations_match_the_materialised_products() {
    for seed in 1..=4u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (n, p, q) = (40, 5, 3);
        let (x, y) = (rng.rows(n, p), rng.rows(n, q));
        assert!(has_negative_zero(&x));
        let normal = stream(&x, &y, p, q);
        assert_eq!(
            bits(&normal.xtx()),
            row_bits(&ols_oracle::gram(&x, p)),
            "seed {seed}: XᵀX"
        );
        assert_eq!(
            bits(normal.xty()),
            row_bits(&ols_oracle::xty(&x, &y, p, q)),
            "seed {seed}: XᵀY"
        );
    }
}

#[test]
fn ols_ridge_matches_the_oracle_with_and_without_ridge() {
    for seed in 1..=4u64 {
        let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let (n, p, q) = (40, 5, 3);
        let (x, y) = (rng.rows(n, p), rng.rows(n, q));
        for ridge in [0.0, 1e-6, 0.5] {
            assert_same_fit(
                ols_ridge(&to_matrix(&x, p), &to_matrix(&y, q), ridge),
                ols_oracle::ols_ridge(&x, &y, p, q, ridge),
                &format!("seed {seed}, ridge {ridge}"),
            );
        }
    }
}

#[test]
fn qr_fallback_matches_the_oracle() {
    // Full rank, but at 1e-7 scale every Gram pivot falls under the
    // Cholesky threshold while QR's column norms do not.
    let mut rng = Rng(7);
    let (n, p, q) = (12, 3, 2);
    let x: Rows = rng
        .rows(n, p)
        .into_iter()
        .map(|row| row.into_iter().map(|v| v * 1e-7).collect())
        .collect();
    let y = rng.rows(n, q);
    let mut fell_back = false;
    let got = stream(&x, &y, p, q).solve(0.0, || {
        fell_back = true;
        (to_matrix(&x, p), to_matrix(&y, q))
    });
    assert!(fell_back, "the design must fail Cholesky");
    let want = ols_oracle::ols_ridge(&x, &y, p, q, 0.0);
    assert!(want.is_ok(), "QR must solve it: {want:?}");
    assert_same_fit(got, want.clone(), "QR fallback via solve");
    assert_same_fit(
        ols_ridge(&to_matrix(&x, p), &to_matrix(&y, q), 0.0),
        want,
        "QR fallback via ols_ridge",
    );
}

#[test]
fn errors_come_in_the_materialised_order() {
    let collinear: Rows = (0..6).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
    let y: Rows = (0..6).map(|i| vec![i as f64]).collect();
    let mut nan_y = y.clone();
    // Row 0's features are zero, so no product ever reads this target.
    nan_y[0][0] = f64::NAN;
    let mut nan_x = collinear.clone();
    nan_x[3][1] = f64::INFINITY;
    let cases: [(&str, Rows, Rows, OlsError); 4] = [
        (
            "too few rows beats a NaN",
            nan_x[..1].to_vec(),
            nan_y[..1].to_vec(),
            OlsError::Underdetermined { rows: 1, cols: 2 },
        ),
        (
            "a NaN target beats rank deficiency",
            collinear.clone(),
            nan_y,
            OlsError::NonFinite,
        ),
        (
            "an infinite feature beats rank deficiency",
            nan_x,
            y.clone(),
            OlsError::NonFinite,
        ),
        ("collinear columns", collinear, y, OlsError::RankDeficient),
    ];
    for (what, x, y, expected) in cases {
        let want = ols_oracle::ols_ridge(&x, &y, 2, 1, 0.0);
        assert_eq!(want, Err(expected), "oracle: {what}");
        let got = stream(&x, &y, 2, 1).solve(0.0, || (to_matrix(&x, 2), to_matrix(&y, 1)));
        assert_eq!(got, want, "{what}");
    }
}

/// One recorded cycle with joint 5 pinned to `+0.0`, `-0.0`, `-0.0` on
/// three rows of every eight, so the levels carry both signed zeros and
/// the differences do too (`-0.0 − +0.0 = -0.0`, `-0.0 − -0.0 = +0.0`).
fn salted_dataset(seed: u64) -> Dataset {
    let mut train = Dataset::record(Skill::Experienced, 1, 0.02, seed);
    for (i, row) in train.commands.iter_mut().enumerate() {
        match i % 8 {
            0 => row[5] = 0.0,
            1 | 2 => row[5] = -0.0,
            _ => {}
        }
    }
    train
}

fn has_negative_zero(rows: &Rows) -> bool {
    rows.iter()
        .flatten()
        .any(|v| v.to_bits() == (-0.0f64).to_bits())
}

/// A serialised model's matrix field as its bits.
fn field_bits(model: &Value, key: &str) -> Vec<u64> {
    match model.get(key).and_then(|m| m.get("data")) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Number(n) => n.to_bits(),
                other => panic!("matrix entry {other:?}"),
            })
            .collect(),
        other => panic!("`{key}` is not a matrix: {other:?}"),
    }
}

#[test]
fn var_fits_match_the_oracle() {
    let mut cases = Vec::new();
    for seed in [1u64, 2] {
        cases.push((format!("seed {seed}"), salted_dataset(seed), 3, 0.0));
        cases.push((format!("seed {seed}"), salted_dataset(seed), 5, 1e-6));
    }
    // At 1e-7 scale the levels Gram fails Cholesky, so `fit_mode` has to
    // rebuild its rows for the QR fallback.
    let mut tiny = salted_dataset(3);
    for v in tiny.commands.iter_mut().flatten() {
        *v *= 1e-7;
    }
    cases.push(("1e-7 scale".into(), tiny, 3, 0.0));
    let mut qr_fits = 0;
    for (name, train, r, ridge) in &cases {
        let (d, r, ridge) = (train.dof(), *r, *ridge);
        let p = 1 + d * r;
        for differences in [false, true] {
            let what = format!("{name}, R {r}, ridge {ridge}, differences {differences}");
            let series = ols_oracle::series(&train.commands, differences);
            assert!(has_negative_zero(&series), "{what}: no -0.0 in the series");
            let (x, y) = ols_oracle::var_design(&series, r);
            let want = ols_oracle::ols_ridge(&x, &y, p, d, ridge);
            if ridge == 0.0
                && want.is_ok()
                && cholesky(&to_matrix(&ols_oracle::gram(&x, p), p)).is_none()
            {
                qr_fits += 1;
            }
            let got = if differences {
                Var::fit_differenced(train, r, ridge)
            } else {
                Var::fit(train, r, ridge)
            };
            let got = got.map(|var| {
                let clamp = serde_json::to_value(&var).get("diff_clamp").cloned();
                let want_clamp = differences.then(|| ols_oracle::clamp(&series));
                match (clamp, want_clamp) {
                    (Some(Value::Number(c)), Some(w)) => {
                        assert_eq!(c.to_bits(), w.to_bits(), "{what}: clamp")
                    }
                    (Some(Value::Null) | None, None) => {}
                    (c, w) => panic!("{what}: clamp {c:?} vs {w:?}"),
                }
                var.coefficients().clone()
            });
            assert_same_fit(got, want, &what);
        }
    }
    assert!(qr_fits > 0, "no VAR fit ran the QR fallback");
}

#[test]
fn varma_fit_matches_the_oracle() {
    for seed in [1u64, 2] {
        let train = salted_dataset(seed);
        let d = train.dof();
        let (r, q, ridge) = (3, 2, 1e-6);
        let (x1, y1) = ols_oracle::var_design(&train.commands, r);
        let beta1 = ols_oracle::ols_ridge(&x1, &y1, 1 + d * r, d, ridge).unwrap();
        let stage1 = Var::from_coefficients(r, d, beta1);
        let mut residuals = vec![vec![0.0; d]; train.len()];
        for (i, (hist, target)) in train.windows(r).enumerate() {
            let pred = stage1.forecast(hist);
            for k in 0..d {
                residuals[i + r][k] = target[k] - pred[k];
            }
        }
        let (x, y) = ols_oracle::varma_design(&train.commands, &residuals, r, q);
        let want = ols_oracle::ols_ridge(&x, &y, 1 + d * r + d * q, d, ridge).unwrap();

        let varma = serde_json::to_value(&Varma::fit(&train, r, q, ridge).unwrap());
        let stage1_got = varma.get("stage1").expect("stage 1");
        assert_eq!(
            field_bits(stage1_got, "beta"),
            bits(stage1.coefficients()),
            "seed {seed}: stage 1"
        );
        assert_eq!(
            field_bits(&varma, "beta"),
            bits(&want),
            "seed {seed}: stage 2"
        );
    }
}
