//! Design-of-experiments substrate for the CAFFEINE reproduction.
//!
//! The paper's experimental setup (Sec. 6.1) samples the 13-dimensional
//! design space with "full orthogonal-hypercube Design-Of-Experiments
//! sampling": 243 = 3⁵ design points at relative perturbation `dx = 0.10`
//! for training and another 243 at `dx = 0.03` for testing. This crate
//! provides:
//!
//! * [`gf3`] — arithmetic over the Galois field GF(3),
//! * [`OrthogonalArray`] — strength-2 orthogonal arrays `OA(3^k, q, 3, 2)`
//!   via the Rao–Hamming construction (243 runs ⇒ up to 121 columns, of
//!   which the OTA testbench uses 13),
//! * [`ScaledHypercube`] — mapping level indices to physical design-variable
//!   values around a nominal point,
//! * [`Dataset`] / [`SplitDataset`] — the `{x(t), y(t)}` sample tables the
//!   modeling algorithms consume, and
//! * [`PointMatrix`] — the column-major (structure-of-arrays) view of a
//!   point table that the batch expression evaluator streams over.
//!
//! # Example
//!
//! ```
//! use caffeine_doe::OrthogonalArray;
//!
//! let oa = OrthogonalArray::rao_hamming(5).unwrap(); // 243 runs
//! assert_eq!(oa.runs(), 243);
//! assert!(oa.columns() >= 13);
//! assert!(oa.verify_strength_two(&[0, 5, 12]));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod dataset;
mod error;
pub mod gf3;
mod oa;
mod points;
mod scaling;

pub use dataset::{Dataset, SplitDataset};
pub use error::DoeError;
pub use oa::OrthogonalArray;
pub use points::PointMatrix;
pub use scaling::ScaledHypercube;
