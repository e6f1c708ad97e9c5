//! Live progress events and per-interval phase telemetry.

use std::fmt;

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
/// island's `Progress` of one interval carries the same breakdown.
///
/// The phases tile `wall` by construction: `eval_other` and `selection`
/// are what remains of their enclosing span, so with a single worker
/// thread the five phase fields sum exactly to `wall` (in whole
/// nanoseconds). Parallel evaluation makes `basis_eval` / `linear_solve`
/// CPU-time sums that can exceed the wall clock.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Ranking, tournament variation, and environmental selection: what
    /// remains of `wall` after evaluation and migration.
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
        let eval_wall = delta(phases::EVAL_WALL);
        let migration = delta(phases::MIGRATION);
        let wall = delta(phases::GENERATION);
        PhaseBreakdown {
            generation,
            basis_eval: secs(basis_eval),
            linear_solve: secs(linear_solve),
            // Clamped: with parallel workers basis+solve sum CPU time
            // and can exceed the evaluation wall clock.
            eval_other: secs(eval_wall.saturating_sub(basis_eval + linear_solve)),
            // Evaluation and migration are timed inside the generation
            // span, so on a monotonic clock this never underflows.
            selection: secs(wall.saturating_sub(eval_wall + migration)),
            migration: secs(migration),
            wall: secs(wall),
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

    /// The duration fields as `(name, seconds)` pairs, in field order:
    /// the five phases, then `wall`. Sinks that label phases (the
    /// `/metrics` series) iterate this instead of naming them again.
    pub fn durations(&self) -> [(&'static str, f64); 6] {
        [
            ("basis_eval", self.basis_eval),
            ("linear_solve", self.linear_solve),
            ("eval_other", self.eval_other),
            ("selection", self.selection),
            ("migration", self.migration),
            ("wall", self.wall),
        ]
    }
}

/// The one-line timing summary `caffeine-cli jobs watch --timings`
/// prints for a progress frame: generation, wall, then each phase in
/// milliseconds (basis and solve also as a share of wall) and the cache
/// hit ratio.
impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |secs: f64| secs * 1e3;
        let pct = |part: f64| {
            if self.wall > 0.0 {
                format!(" ({:.0}%)", 100.0 * part / self.wall)
            } else {
                String::new()
            }
        };
        let cache = self
            .cache_hit_ratio()
            .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", 100.0 * r));
        write!(
            f,
            "gen {:>4}  wall {:.1}ms  basis {:.1}ms{}  solve {:.1}ms{}  \
             eval-other {:.1}ms  select {:.1}ms  migrate {:.1}ms  cache {cache}",
            self.generation,
            ms(self.wall),
            ms(self.basis_eval),
            pct(self.basis_eval),
            ms(self.linear_solve),
            pct(self.linear_solve),
            ms(self.eval_other),
            ms(self.selection),
            ms(self.migration),
        )
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_timings_line() {
        let b = PhaseBreakdown {
            generation: 40,
            basis_eval: 0.0071,
            linear_solve: 0.003,
            eval_other: 0.0011,
            selection: 0.0008,
            wall: 0.0123,
            cache_hits: 931,
            cache_misses: 69,
            ..PhaseBreakdown::default()
        };
        assert_eq!(
            b.to_string(),
            "gen   40  wall 12.3ms  basis 7.1ms (58%)  solve 3.0ms (24%)  eval-other 1.1ms  \
             select 0.8ms  migrate 0.0ms  cache 93.1%"
        );
        assert_eq!(
            PhaseBreakdown::default().to_string(),
            "gen    0  wall 0.0ms  basis 0.0ms  solve 0.0ms  eval-other 0.0ms  select 0.0ms  \
             migrate 0.0ms  cache -"
        );
    }
}
