//! Constrained least-squares / quadratic-programming substrate.
//!
//! The EUCON controller (ICDCS 2004, §6.1) computes each control input by
//! solving a constrained least-squares problem with MATLAB's `lsqlin`, an
//! active-set solver.  This crate supplies that capability in pure Rust:
//!
//! * [`PreparedQp`] — a dual active-set solver (Goldfarb–Idnani, 1983) for
//!   strictly convex quadratic programs `min ½xᵀHx + fᵀx` subject to
//!   `Gx ≤ h`.  The dual method starts from the unconstrained minimum, needs
//!   no feasible initial point, and detects infeasibility — exactly the
//!   properties a model-predictive controller wants.
//! * [`PreparedLsq`] — the `lsqlin`-shaped front end: minimize
//!   `‖Cx − d‖₂²` subject to linear inequalities (box bounds are rows);
//!   it builds the QP (`H = CᵀC + εI`, `f = −Cᵀd`) on a [`PreparedQp`].
//!
//! Both are prepared for repeated solves with fixed `H`/`C` and
//! constraint matrix but varying linear term and right-hand side: the
//! Cholesky factorization is computed once at construction, each
//! constraint's back-solve once, by the first solve that touches it, and
//! each solve can warm-start from the previous active set.  This is the
//! controller hot path: once the closed loop settles, the active set
//! stops changing and a solve costs two triangular back-substitutions.
//! Their `solve_into` forms write into a caller-owned solution and work in
//! a per-instance workspace, so a steady-state solve does not allocate;
//! constraint rows are read through their nonzeros only, and their
//! `solve_prefix_into` forms solve the problem over the leading rows
//! alone on the same preparation.  A single solve is a fresh instance
//! solved once.
//!
//! Inputs must be finite: a NaN or infinite entry of `G` (at
//! construction) or of `f`, `h` or `d` (per solve) is
//! [`QpError::NonFiniteInput`], not a quietly wrong answer.
//!
//! Solutions report the active constraint set and Lagrange multipliers,
//! and [`PreparedQp::kkt_residual`] checks the KKT conditions from them;
//! a debug build checks every solve that way.
//!
//! # Example
//!
//! ```
//! use eucon_math::{Matrix, Vector};
//! use eucon_qp::PreparedLsq;
//!
//! # fn main() -> Result<(), eucon_qp::QpError> {
//! // Fit x to hit [1, 1] but keep x0 + x1 ≤ 1.
//! let lsq = PreparedLsq::new(Matrix::identity(2), Matrix::from_rows(&[&[1.0, 1.0]]), 0.0)?;
//! let d = Vector::from_slice(&[1.0, 1.0]);
//! let sol = lsq.solve_with(&d, &Vector::from_slice(&[1.0]), &[])?;
//! assert!((sol.x[0] - 0.5).abs() < 1e-9);
//! assert!((sol.x[1] - 0.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod factor;
mod lsq;
mod solver;

pub use error::QpError;
pub use lsq::{LsqSolution, PreparedLsq};
pub use solver::{FactorWork, PreparedQp, QpSolution};
