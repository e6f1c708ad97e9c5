//! Dense linear-algebra substrate for the CAFFEINE reproduction.
//!
//! The CAFFEINE algorithm (McConaghy et al., DATE 2005) and its substrates
//! need a small but dependable set of numerical kernels:
//!
//! * dense matrices over `f64` and over [`Complex64`] (the circuit
//!   simulator's AC analysis works on complex MNA systems),
//! * LU factorization with partial pivoting ([`Lu`]) for square solves,
//! * Householder QR ([`Qr`]) and a robust least-squares driver
//!   ([`lstsq`], [`lstsq_ridge`]), and the Gram-space solver
//!   ([`GramSolver`], on [`Cholesky`], falling back to [`Qr`]) that learns
//!   the linear basis weights of every candidate model,
//! * non-negative least squares ([`nnls`]) for the posynomial baseline,
//! * the PRESS statistic and hat-matrix leverages ([`press`]) used by
//!   CAFFEINE's simplification-after-generation step,
//! * an incremental thin QR ([`IncrementalQr`]) that appends design
//!   columns one at a time — the engine behind SAG's forward regression
//!   scoring every candidate against a shared factorization, and
//! * the error metrics from the paper's evaluation ([`stats`]).
//!
//! Everything is implemented from scratch on top of `std`; there are no
//! native BLAS/LAPACK bindings, which keeps the workspace fully portable.
//!
//! # Example
//!
//! ```
//! use caffeine_linalg::{Matrix, lstsq};
//!
//! # fn main() -> Result<(), caffeine_linalg::LinalgError> {
//! // Fit y = 1 + 2*x with two regressors [1, x].
//! let a = Matrix::from_rows(&[
//!     vec![1.0, 0.0],
//!     vec![1.0, 1.0],
//!     vec![1.0, 2.0],
//! ]);
//! let y = vec![1.0, 3.0, 5.0];
//! let coef = lstsq(&a, &y)?;
//! assert!((coef[0] - 1.0).abs() < 1e-10);
//! assert!((coef[1] - 2.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cholesky;
mod complex;
mod error;
mod gram;
mod incremental;
mod lu;
mod matrix;
mod nnls;
pub mod press;
mod qr;
mod scalar;
pub mod stats;

pub use cholesky::Cholesky;
pub use complex::Complex64;
pub use error::LinalgError;
pub use gram::{GramColumn, GramSolver};
pub use incremental::{ColumnTrial, IncrementalQr};
pub use lu::Lu;
pub use matrix::Matrix;
pub use nnls::{nnls, NnlsSolution};
pub use press::{hat_diagonal, press_statistic, PressReport};
pub use qr::{lstsq, lstsq_ridge, lstsq_ridge_columns, InterceptReflector, Qr};
pub use scalar::Scalar;
