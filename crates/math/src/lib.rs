//! Dense linear-algebra substrate for the EUCON reproduction.
//!
//! The EUCON controller (ICDCS 2004) relies on MATLAB for two numerical
//! services: the `lsqlin` constrained least-squares solver and the eigenvalue
//! computations used by the closed-loop stability analysis.  This crate
//! provides the dense linear algebra both of those need, written from scratch
//! so the reproduction has no external numerical dependencies:
//!
//! * [`Matrix`] and [`Vector`] — simple row-major dense containers with the
//!   usual arithmetic.
//! * [`SparseRows`] — a compressed-row view of a [`Matrix`] whose row
//!   products are bit-identical to the dense ones and read only nonzeros.
//! * [`Lu`] — LU decomposition with partial pivoting (solves, determinant,
//!   inverse).
//! * [`Qr`] — Householder QR (least squares, orthonormal bases).
//! * [`Cholesky`] — for symmetric positive-definite systems.
//! * [`eig`](fn@eig) — eigenvalues of a general real matrix via balancing,
//!   Hessenberg reduction and the Francis implicit double-shift QR iteration;
//!   [`spectral_radius`] is the helper the stability analysis actually uses.
//!
//! All problems in this repository are small (tens of rows), so the textbook
//! algorithms here are entirely adequate and are validated by unit and
//! property tests against algebraic identities.
//!
//! # Example
//!
//! ```
//! use eucon_math::{Matrix, Vector};
//!
//! # fn main() -> Result<(), eucon_math::MathError> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let b = Vector::from_slice(&[3.0, 5.0]);
//! let x = a.solve(&b)?;
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod eig;
mod error;
pub mod kernel;
mod lu;
mod matrix;
mod qr;
mod sparse;
mod vector;

pub use cholesky::Cholesky;
pub use eig::{eig, spectral_radius, Complex};
pub use error::MathError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use sparse::SparseRows;
pub use vector::Vector;

/// Default absolute tolerance used by the comparison helpers in this crate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within `tol` of each other.
///
/// Non-finite inputs are never approximately equal.
///
/// # Example
///
/// ```
/// assert!(eucon_math::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!eucon_math::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= tol
}
