//! Dense linear algebra substrate for the FoReCo reproduction.
//!
//! The FoReCo paper trains its winning forecaster — a Vector Autoregression
//! (VAR) — with Ordinary Least Squares (paper eq. 9). The original prototype
//! leaned on Python's `statsmodels`; this crate provides the minimal,
//! self-contained replacement: a row-major [`Matrix`] type, Cholesky and
//! Householder-QR decompositions, a streaming multi-output least-squares
//! solver ([`NormalEquations`], driven by [`ols_rows`], [`ols`] and
//! [`ols_ridge`]) that never holds the design matrix unless its QR
//! fallback needs it, and the descriptive statistics used across the
//! workspace ([`stats`]).
//!
//! Design notes, following the workspace guides:
//! - simplicity over type tricks: one concrete `f64` matrix type, no
//!   generics over scalars, no `unsafe`;
//! - everything is deterministic and allocation patterns are obvious;
//! - numerical routines document their failure modes and return `Result`
//!   instead of panicking on singular input.
//!
//! # Example
//!
//! ```
//! use foreco_linalg::{Matrix, ols};
//!
//! // Fit y = 2x + 1 from four noiseless samples.
//! let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
//! let y = Matrix::from_rows(&[&[1.0], &[3.0], &[5.0], &[7.0]]);
//! let beta = ols(&x, &y).unwrap();
//! assert!((beta[(0, 0)] - 1.0).abs() < 1e-9);
//! assert!((beta[(1, 0)] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decomp;
mod matrix;
mod ols;
pub mod stats;
pub mod vector;

pub use decomp::{cholesky, solve_cholesky, solve_lower, solve_upper, Cholesky, Qr};
pub use matrix::Matrix;
pub use ols::{ols, ols_ridge, ols_rows, NormalEquations, OlsError};
