//! Posynomial performance-model baseline.
//!
//! Implements the fixed-template approach CAFFEINE is compared against in
//! the paper's Fig. 4 (Daems, Gielen, Sansen — "Simulation-based generation
//! of posynomial performance models for the sizing of analog integrated
//! circuits", IEEE TCAD 22(5), 2003).
//!
//! A posynomial is `f(x) = Σ_k c_k · Π_i x_i^{α_ik}` with `c_k > 0` and
//! `x_i > 0`. The simulation-based flow fits the coefficients of a *fixed
//! term template* (monomials up to order 2 with integer exponents) to
//! sampled data; positivity makes the fit a non-negative least-squares
//! problem, solved here with the workspace's Lawson–Hanson kernel.
//!
//! The two key properties the paper contrasts with CAFFEINE both emerge
//! naturally from this construction:
//!
//! * the functional form is **constrained by the template** (bias when the
//!   true response is not posynomial), and
//! * the fitted models have **dozens of terms**, hurting interpretability
//!   and generalization (Fig. 4: posynomial testing error exceeds training
//!   error).
//!
//! # Example
//!
//! ```
//! use caffeine_doe::Dataset;
//! use caffeine_posynomial::{fit_posynomial, TemplateSpec};
//!
//! # fn main() -> Result<(), caffeine_posynomial::PosynomialError> {
//! // y = 2·x0 + 3/x1 is posynomial; the template recovers it.
//! let xs: Vec<Vec<f64>> = (1..=20)
//!     .map(|i| vec![1.0 + i as f64 * 0.1, 2.0 + (i % 5) as f64 * 0.3])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 3.0 / x[1]).collect();
//! let data = Dataset::new(vec!["a".into(), "b".into()], xs, ys).unwrap();
//! let model = fit_posynomial(&data, &TemplateSpec::order2())?;
//! let err = model.relative_rms_error(&data, 0.0);
//! assert!(err < 1e-6, "err = {err}");
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod fit;
mod model;
mod template;

pub use error::PosynomialError;
pub use fit::fit_posynomial;
pub use model::{MonomialTerm, PosynomialModel};
pub use template::TemplateSpec;
