//! Hand-written dense linear algebra for the `sched-anomalies` workspace.
//!
//! The DATE 2017 reproduction mandates that *all* numerics be implemented
//! from scratch (no control or linear-algebra toolboxes). This crate is the
//! foundation: dense real/complex matrices plus the handful of structured
//! solvers sampled-data control needs. It sits at the bottom of the
//! workspace layering (DESIGN.md §2) and depends on nothing.
//!
//! # Contents
//!
//! * [`Mat`] — dense row-major `f64` matrices with the usual arithmetic.
//! * [`Cplx`], [`CMat`] — complex scalars/matrices for eigenvalues and
//!   frequency responses; [`SmithDivisor`] divides many numerators by
//!   one complex value with [`Cplx`]'s own Smith arithmetic.
//! * [`Lu`] — LU factorization with partial pivoting
//!   ([`Mat::solve`], [`Mat::inverse`], [`Mat::det`]), one-shot or as a
//!   reusable workspace ([`Lu::factor`], [`Lu::solve_into`]).
//! * [`eigenvalues`], [`spectral_radius`], [`is_schur_stable`],
//!   [`is_hurwitz_stable`] — Hessenberg + shifted-QR eigensolver, run on
//!   an [`EigScratch`] workspace.
//! * [`expm`], [`zoh`], [`van_loan_gramian`], [`noise_covariance`] — matrix
//!   exponential and Van Loan discretization integrals.
//! * [`dlyap`], [`dlyap_kron`] — discrete Lyapunov (Stein) equations.
//! * [`reachability_gramian`], [`reachability_measure`],
//!   [`reachability_rank`] — the reachability loss behind the paper's
//!   pathological sampling periods (Fig. 2).
//! * [`solve_dare`], [`solve_dare_fixed_point`] — discrete algebraic
//!   Riccati equations with cross weights: doubling on a [`DareScratch`]
//!   workspace, and value iteration as its independent check
//!   ([`dare_residual`]).
//!
//! Each kernel has one implementation. Where a workspace exists ([`Lu`],
//! [`EigScratch`], [`DareScratch`], and the [`Mat::mul_into`] family), it
//! *is* that implementation, and the one-shot function or operator runs it
//! on a fresh workspace, so a reused workspace returns a fresh one's bits.
//!
//! # Example: discretize and stabilize a double integrator
//!
//! ```
//! use csa_linalg::{is_schur_stable, solve_dare, zoh, Mat, StageCost};
//!
//! # fn main() -> Result<(), csa_linalg::Error> {
//! let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
//! let b = Mat::col_vec(&[0.0, 1.0]);
//! let p = zoh(&a, &b, 0.1)?;
//! let sol = solve_dare(&p.phi, &p.gamma, &StageCost::new(Mat::identity(2), Mat::scalar(1.0)))?;
//! let closed = &p.phi - &(&p.gamma * &sol.k);
//! assert!(is_schur_stable(&closed)?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cmat;
mod cplx;
mod dare;
mod eig;
mod error;
mod expm;
mod gram;
mod lu;
mod lyap;
mod mat;

pub use cmat::CMat;
pub use cplx::{Cplx, SmithDivisor};
pub use dare::{
    dare_residual, solve_dare, solve_dare_fixed_point, DareScratch, DareSolution, StageCost,
};
pub use eig::{eigenvalues, is_hurwitz_stable, is_schur_stable, spectral_radius, EigScratch};
pub use error::{Error, Result};
pub use expm::{expm, nested_gramian, noise_covariance, van_loan_gramian, zoh, ZohPair};
pub use gram::{reachability_gramian, reachability_measure, reachability_rank};
pub use lu::Lu;
pub use lyap::{dlyap, dlyap_kron, dlyap_residual};
pub use mat::Mat;
