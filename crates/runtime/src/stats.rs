//! Live progress events and per-interval phase telemetry.

use caffeine_core::{phases, EvolutionStats};
use caffeine_obs::PhaseAccumulator;
use serde::{Deserialize, Serialize};

/// Where one stats interval's wall time went, split along the engine's
/// phase vocabulary ([`caffeine_core::phases`]). All durations are
/// seconds.
///
/// A stats interval runs from the generation after one stats generation
/// (the engine's `stats_every` schedule) through the next one, so the
/// breakdowns of a run tile it: their sums are the run's totals. Every
/// island's `Progress` of one interval carries the same breakdown. With a
/// single worker thread the phase fields sum to at most `wall`, while
/// parallel evaluation makes `basis_eval` / `linear_solve` CPU-time sums
/// that can exceed the wall clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Completed generations at the end of the interval.
    pub generation: usize,
    /// Basis-column production (tape compile + cache + evaluation).
    pub basis_eval: f64,
    /// Design-matrix assembly and least-squares / ridge solves.
    pub linear_solve: f64,
    /// Evaluation wall time not covered by the two phases above
    /// (objective assembly, scratch bookkeeping, thread fan-out).
    pub eval_other: f64,
    /// Ranking, tournament variation, and environmental selection.
    pub selection: f64,
    /// Ring migration between islands (zero when no generation of the
    /// interval migrated).
    pub migration: f64,
    /// Wall time of the interval's generations (island steps plus
    /// migration); every phase above is timed inside it.
    pub wall: f64,
    /// Basis-column cache hits during the interval.
    pub cache_hits: u64,
    /// Basis-column cache misses during the interval.
    pub cache_misses: u64,
    /// Unix time (ns) when the interval's first generation started.
    pub start_unix_ns: u64,
    /// Unix time (ns) when the interval's breakdown was taken, after its
    /// last generation.
    pub end_unix_ns: u64,
}

impl PhaseBreakdown {
    /// Closes the interval opened at `start`: every field is the delta of
    /// `acc`'s cells since then, and `generation` the completed count.
    pub(crate) fn since(
        start: &IntervalStart,
        acc: &PhaseAccumulator,
        generation: usize,
    ) -> PhaseBreakdown {
        let delta = |name: &str| -> u64 {
            let prev = start
                .cells
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v);
            acc.get(name).saturating_sub(prev)
        };
        let secs = |ns: u64| ns as f64 / 1e9;
        let basis_eval = delta(phases::BASIS_EVAL);
        let linear_solve = delta(phases::LINEAR_SOLVE);
        PhaseBreakdown {
            generation,
            basis_eval: secs(basis_eval),
            linear_solve: secs(linear_solve),
            // Clamped: with parallel workers basis+solve sum CPU time
            // and can exceed the evaluation wall clock.
            eval_other: secs(delta(phases::EVAL_WALL).saturating_sub(basis_eval + linear_solve)),
            selection: secs(delta(phases::SELECTION)),
            migration: secs(delta(phases::MIGRATION)),
            wall: secs(delta(phases::GENERATION)),
            cache_hits: delta(phases::CACHE_HITS),
            cache_misses: delta(phases::CACHE_MISSES),
            start_unix_ns: start.unix_ns,
            // lint: allow(determinism) — telemetry side channel: the interval's end time rides only on the breakdown, never in evolution state
            end_unix_ns: caffeine_obs::trace::unix_ns(),
        }
    }

    /// Cache hits over total lookups, or `None` when nothing was looked
    /// up this interval.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// The opening of a stats interval: the accumulator's cells and the unix
/// time just before its first generation.
#[derive(Debug)]
pub(crate) struct IntervalStart {
    cells: Vec<(&'static str, u64)>,
    unix_ns: u64,
}

impl IntervalStart {
    /// Opens an interval on `acc` now.
    pub(crate) fn now(acc: &PhaseAccumulator) -> IntervalStart {
        IntervalStart {
            cells: acc.snapshot(),
            // lint: allow(determinism) — telemetry side channel: the interval's start time rides only on the breakdown, never in evolution state
            unix_ns: caffeine_obs::trace::unix_ns(),
        }
    }
}

/// One point of a live (error, complexity) Pareto front, as carried by
/// [`RunEvent::Progress`] for dashboards and watchers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// Normalized training error (objective 0).
    pub error: f64,
    /// Expression complexity (objective 1).
    pub complexity: f64,
}

/// One progress event emitted by [`crate::IslandRunner`] while a run is
/// executing (send half: any `std::sync::mpsc::Sender<RunEvent>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// Periodic per-island statistics (emitted on the engine's
    /// `stats_every` schedule).
    Progress {
        /// Which island the snapshot belongs to.
        island: usize,
        /// The snapshot.
        stats: EvolutionStats,
        /// Where the stats interval's time went.
        phases: PhaseBreakdown,
        /// The island's current nondominated (error, complexity) front,
        /// sorted by error and capped at
        /// [`crate::IslandRunner::FRONT_POINT_CAP`] points.
        front: Vec<FrontPoint>,
    },
    /// A migration round completed after this many total generations.
    Migrated {
        /// Completed generations at migration time.
        generation: usize,
    },
    /// A checkpoint was written.
    Checkpointed {
        /// Completed generations at checkpoint time.
        generation: usize,
        /// How long serializing + atomically writing the snapshot took.
        duration_secs: f64,
    },
    /// The run finished all generations.
    Finished {
        /// Total completed generations.
        generation: usize,
    },
}
