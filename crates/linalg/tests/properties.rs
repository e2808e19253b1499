//! Property-based tests for the linear-algebra substrate.

use foreco_linalg::{cholesky, ols, ols_ridge, stats, vector, Matrix, NormalEquations, Qr};
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 3), b in matrix(3, 3), c in matrix(3, 3)) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn transpose_reverses_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn gram_is_symmetric_psd_diag(x in matrix(6, 4)) {
        let mut normal = NormalEquations::new(4, 0);
        for i in 0..6 {
            normal.push(x.row(i), &[]);
        }
        let g = normal.xtx();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
            prop_assert!(g[(i, i)] >= -1e-12, "Gram diagonal must be non-negative");
        }
    }

    #[test]
    fn cholesky_reconstructs_spd(b in matrix(4, 4)) {
        // b bᵀ + 0.5 I is SPD by construction.
        let mut a = b.matmul(&b.transpose());
        for i in 0..4 { a[(i, i)] += 0.5; }
        let ch = cholesky(&a).expect("SPD by construction");
        let rec = ch.l.matmul(&ch.l.transpose());
        prop_assert!((&rec - &a).max_abs() < 1e-8);
    }

    #[test]
    fn qr_least_squares_residual_orthogonality(
        x in matrix(8, 3),
        y in proptest::collection::vec(-10.0f64..10.0, 8),
    ) {
        // Skip degenerate (rank-deficient) random draws.
        if let Some(qr) = Qr::new(&x) {
            let sol = qr.solve_least_squares(&y);
            let pred = x.matvec(&sol);
            let resid: Vec<f64> = pred.iter().zip(&y).map(|(p, q)| p - q).collect();
            let xtres = x.transpose().matvec(&resid);
            // Orthogonality scale depends on data magnitude; tolerance is loose.
            prop_assert!(xtres.iter().all(|v| v.abs() < 1e-6), "{:?}", xtres);
        }
    }

    #[test]
    fn ols_recovers_planted_coefficients(
        b_flat in proptest::collection::vec(-3.0f64..3.0, 3 * 2),
        x in matrix(12, 3),
    ) {
        let b_true = Matrix::from_vec(3, 2, b_flat);
        let y = x.matmul(&b_true);
        // Rank-deficient draws are acceptable and skipped.
        if let Ok(b) = ols(&x, &y) {
            let pred = x.matmul(&b);
            // Even if X is ill-conditioned and coefficients are not
            // unique, the fitted values must match (y is in range(X)).
            prop_assert!((&pred - &y).max_abs() < 1e-5);
        }
    }

    #[test]
    fn ridge_never_fails_on_finite_input(x in matrix(6, 3), yv in proptest::collection::vec(-5.0f64..5.0, 6)) {
        let y = Matrix::from_vec(6, 1, yv);
        let b = ols_ridge(&x, &y, 1e-3);
        prop_assert!(b.is_ok());
        prop_assert!(b.unwrap().is_finite());
    }

    #[test]
    fn rmse_is_a_metric_ish(a in proptest::collection::vec(-100.0f64..100.0, 10),
                            b in proptest::collection::vec(-100.0f64..100.0, 10)) {
        let d = stats::rmse(&a, &b);
        prop_assert!(d >= 0.0);
        prop_assert!((stats::rmse(&a, &a)).abs() < 1e-12);
        prop_assert!((d - stats::rmse(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
                           q1 in 0.0f64..100.0, q2 in 0.0f64..100.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(stats::percentile(&xs, lo) <= stats::percentile(&xs, hi) + 1e-12);
    }

    #[test]
    fn running_welford_matches_batch_mean(xs in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        let mut r = stats::Running::new();
        for &x in &xs { r.push(x); }
        prop_assert!((r.mean() - stats::mean(&xs)).abs() < 1e-9);
    }

    #[test]
    fn lerp_stays_in_segment(a in proptest::collection::vec(-5.0f64..5.0, 3),
                             b in proptest::collection::vec(-5.0f64..5.0, 3),
                             t in 0.0f64..1.0) {
        let p = vector::lerp(&a, &b, t);
        for i in 0..3 {
            let lo = a[i].min(b[i]) - 1e-12;
            let hi = a[i].max(b[i]) + 1e-12;
            prop_assert!(p[i] >= lo && p[i] <= hi);
        }
    }

    #[test]
    fn triangle_inequality_euclidean(a in proptest::collection::vec(-5.0f64..5.0, 4),
                                     b in proptest::collection::vec(-5.0f64..5.0, 4),
                                     c in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let ab = vector::euclidean(&a, &b);
        let bc = vector::euclidean(&b, &c);
        let ac = vector::euclidean(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }
}
