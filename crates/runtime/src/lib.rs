//! `caffeine-runtime` — the parallel island-model execution runtime for
//! the CAFFEINE engine.
//!
//! The core crate deliberately exposes evolution as *state + step +
//! evaluator* ([`caffeine_core::EngineState`], [`caffeine_core::Evaluator`]);
//! this crate supplies the execution policy around that surface:
//!
//! * [`ParallelEvaluator`]: evaluates a population on a persistent pool
//!   of parked workers plus the calling thread, each claiming one
//!   individual at a time. Fitness evaluation is pure per individual, so
//!   the result is **bit-identical** for 1 or N threads — parallelism is
//!   an execution detail, never an algorithmic one.
//! * [`IslandRunner`]: the island model. The population is split over K
//!   islands, each evolving under its own RNG stream derived from the
//!   master seed; every `migrate_every` generations each island's best
//!   nondominated individuals are cloned to its ring neighbor, replacing
//!   the neighbor's worst. With K = 1 the runner reduces exactly to the
//!   plain loop [`caffeine_core::EngineState::new`] →
//!   [`caffeine_core::EngineState::step`] × generations →
//!   [`caffeine_core::EngineState::harvest`] →
//!   [`caffeine_core::assemble_result`]. It is the one generation loop
//!   every search in the workspace runs through: the CLI, the daemon's
//!   jobs, the paper binaries and the examples.
//! * [`RuntimeCheckpoint`]: serde snapshots of the full runner state
//!   (every island's population *and* RNG position) written as JSON, with
//!   [`IslandRunner::from_checkpoint`] resuming a run bit-exactly — a
//!   5000-generation reference run survives interruption. Saves go
//!   through [`write_durable`], which fsyncs and renames without ever
//!   freeing a disk block.
//! * [`RunEvent`]: a live statistics channel; attach any
//!   `std::sync::mpsc::Sender<RunEvent>` to watch progress while a run is
//!   executing.
//! * [`RunController`]: a cloneable cancel handle with live
//!   [`ProgressSnapshot`]s, attached with [`IslandRunner::set_controller`]
//!   to a run on a background thread — the job-control surface the
//!   `caffeine-serve` daemon builds on.
//!
//! # Quickstart
//!
//! ```
//! use caffeine_core::{CaffeineSettings, GrammarConfig};
//! use caffeine_doe::Dataset;
//! use caffeine_runtime::{IslandRunner, RuntimeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let xs: Vec<Vec<f64>> = (1..=24).map(|i| vec![i as f64 * 0.25]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 / x[0]).collect();
//! let data = Dataset::new(vec!["x0".into()], xs, ys)?;
//!
//! let mut settings = CaffeineSettings::quick_test();
//! settings.seed = 7;
//! let config = RuntimeConfig { threads: 2, islands: 2, ..RuntimeConfig::default() };
//! let mut runner = IslandRunner::new(settings, GrammarConfig::rational(1), config, &data)?;
//! let result = runner.run(&data)?;
//! assert!(!result.models.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod checkpoint;
mod config;
mod control;
mod durable;
mod island;
mod pool;
mod stats;

pub use checkpoint::{RuntimeCheckpoint, RuntimeError};
pub use config::RuntimeConfig;
pub use control::{ProgressSnapshot, RunController, RunPhase};
pub use durable::write_durable;
pub use island::{derive_island_seed, IslandRunner};
pub use pool::ParallelEvaluator;
pub use stats::{FrontPoint, PhaseBreakdown, RunEvent};
