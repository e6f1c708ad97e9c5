//! CAFFEINE: Canonical Functional Form Expressions in Evolution.
//!
//! A faithful Rust implementation of the template-free symbolic modeling
//! method of McConaghy, Eeckelaert and Gielen (DATE 2005). Given a table of
//! `{design point, performance}` samples — in the paper, SPICE simulations
//! of an analog circuit — CAFFEINE evolves a *set* of symbolic models that
//! collectively trade off prediction error against expression complexity.
//!
//! The key ideas, all implemented here:
//!
//! * **Canonical functional form** ([`expr`]): every model is a linear sum
//!   of weighted basis functions; each basis function is a product of
//!   *variable combos* (integer-exponent monomials) and nonlinear operators
//!   whose arguments are again weighted sums of such products. The paper's
//!   grammar (`REPVC / REPOP / REPADD / 2ARGS / MAYBEW`) is enforced *by
//!   construction* through the typed expression tree.
//! * **Grammar-constrained GP** ([`grammar`], [`gp`]): random generation
//!   follows the derivation rules; crossover only exchanges subtrees with
//!   the same grammar root; weights mutate with zero-mean Cauchy noise;
//!   variable-combo exponent vectors have their own operators; and basis
//!   functions are added, deleted, and copied between individuals.
//! * **Multi-objective search** ([`nsga2`]): NSGA-II over (error,
//!   complexity) per Eq. (1) of the paper.
//! * **Linear learning** ([`fit`]): the top-level weights of each candidate
//!   are fit by least squares on every evaluation.
//! * **Post-processing** ([`sag`]): simplification-after-generation via the
//!   PRESS statistic and forward regression, then filtering to the
//!   (test-error, complexity) nondominated front.
//!
//! # Runtime integration: the step / evaluator split
//!
//! This crate has no run driver. The algorithm's surface is the pair
//! [`EngineState`] + [`Evaluator`]:
//!
//! * [`EngineState`] is the *complete* evolving state (population, RNG,
//!   generation counter, statistics). It serializes, so a snapshot is a
//!   checkpoint, and [`EngineState::step`] advances exactly one
//!   generation. External drivers — notably the `caffeine-runtime` crate's
//!   island runner — own the loop, which lets them interleave concerns the
//!   core knows nothing about: migration between island states, periodic
//!   checkpoint writes, live progress reporting.
//! * [`Evaluator`] decouples *what* fitness is (least-squares weight
//!   learning against a dataset — [`DatasetEvaluator`]) from *how* a
//!   population batch is scheduled. Evaluation is pure per individual and
//!   RNG-free, and [`EngineState::step`] generates all offspring before
//!   evaluating any of them, so an evaluator may compute the batch in any
//!   order — including across a thread pool — and the run remains
//!   bit-identical to the serial one.
//!
//! # Quickstart
//!
//! Searches run through `caffeine_runtime::IslandRunner`; the quickstart
//! in the `caffeine-runtime` crate docs fits `y = 3/x0` end to end. With
//! one island the runner is exactly the loop [`EngineState::new`] →
//! [`EngineState::step`] × generations → [`EngineState::harvest`] →
//! [`assemble_result`], evaluated by a [`DatasetEvaluator`].

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod artifact;
mod engine;
mod error;
pub mod expr;
pub mod fit;
pub mod gp;
pub mod grammar;
mod metrics;
mod model;
pub mod nsga2;
pub mod pareto;
pub mod phases;
pub mod sag;

pub use artifact::{ModelArtifact, MODEL_SCHEMA_VERSION};
pub use engine::{
    assemble_result, CaffeineResult, CaffeineSettings, DatasetEvaluator, EngineState, Evaluator,
    EvolutionStats, FitProblem, Produce,
};
pub use error::CaffeineError;
pub use fit::{fit_linear_weights, fit_linear_weights_cached, FitOutcome, FitScratch, LinearFit};
pub use grammar::GrammarConfig;
pub use metrics::ErrorMetric;
pub use model::Model;
