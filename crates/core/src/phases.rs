//! Engine-phase names: the shared vocabulary between the instrumentation
//! points (fit gather/solve, [`EngineState::step`]'s evaluation wall, the
//! runtime's migration and generation wall) and the runtime's per-interval
//! breakdown, which every sink reads. Selection has no cell: it is what
//! remains of a generation after evaluation and migration, so the runtime
//! derives it instead of timing it.
//!
//! All instrumentation is opt-in: an evaluator without an attached
//! [`PhaseAccumulator`] never reads the clock, so a step loop over it
//! runs uninstrumented.
//!
//! [`EngineState::step`]: crate::EngineState::step

use caffeine_obs::PhaseAccumulator;

/// Basis-column production: tape compile, cache lookup, and column
/// evaluation over the point matrix (nanoseconds).
pub const BASIS_EVAL: &str = "basis_eval";
/// Design-matrix assembly and the least-squares / ridge solve
/// (nanoseconds).
pub const LINEAR_SOLVE: &str = "linear_solve";
/// Wall time of whole offspring-batch evaluations, as seen by `step()`
/// (nanoseconds). With parallel evaluation this is wall time while
/// [`BASIS_EVAL`] / [`LINEAR_SOLVE`] sum CPU time across workers.
pub const EVAL_WALL: &str = "eval_wall";
/// Ring migration between islands (nanoseconds; recorded by the runtime).
pub const MIGRATION: &str = "migration";
/// Basis-column cache hits (count).
pub const CACHE_HITS: &str = "cache_hits";
/// Basis-column cache misses (count).
pub const CACHE_MISSES: &str = "cache_misses";
/// Wall time of whole generations as seen by the runtime: the island
/// steps plus migration, so every phase above nests inside it
/// (nanoseconds; recorded by the runtime).
pub const GENERATION: &str = "generation";

/// An accumulator with a cell for every engine phase above.
pub fn engine_accumulator() -> PhaseAccumulator {
    PhaseAccumulator::new(&[
        BASIS_EVAL,
        LINEAR_SOLVE,
        EVAL_WALL,
        MIGRATION,
        CACHE_HITS,
        CACHE_MISSES,
        GENERATION,
    ])
}
