//! The island model: K engine states evolving side by side with periodic
//! ring migration of nondominated individuals.

use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use rand::splitmix64;

use caffeine_core::gp::Individual;
use caffeine_core::phases;
use caffeine_core::{
    assemble_result, nsga2, CaffeineResult, CaffeineSettings, DatasetEvaluator, EngineState,
    EvolutionStats, GrammarConfig,
};
use caffeine_doe::Dataset;
use caffeine_obs::PhaseAccumulator;

use crate::checkpoint::{RuntimeCheckpoint, RuntimeError};
use crate::config::RuntimeConfig;
use crate::control::{RunController, RunPhase};
use crate::pool::ParallelEvaluator;
use crate::stats::{FrontPoint, IntervalStart, PhaseBreakdown, RunEvent};

/// Derives the RNG seed of island `island` from the master seed.
///
/// Island 0 keeps the master seed unchanged, so a 1-island run is
/// bit-identical to the plain loop [`EngineState::new`] →
/// [`EngineState::step`] × generations → [`EngineState::harvest`] →
/// [`assemble_result`] with the same settings; higher islands get
/// independent SplitMix64-derived streams.
pub fn derive_island_seed(master_seed: u64, island: usize) -> u64 {
    if island == 0 {
        master_seed
    } else {
        let mut state = master_seed ^ (island as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state)
    }
}

/// Splits a total population over `islands`, remainder to the first ones.
fn split_population(total: usize, islands: usize) -> Vec<usize> {
    let base = total / islands;
    let extra = total % islands;
    (0..islands)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

/// Drives K [`EngineState`] islands to completion with parallel fitness
/// evaluation, ring migration, optional checkpointing, live progress
/// events and optional cancel control. It is the one generation
/// loop every search runs through; see the crate docs for the
/// determinism guarantees.
#[derive(Debug)]
pub struct IslandRunner {
    master: CaffeineSettings,
    grammar: GrammarConfig,
    config: RuntimeConfig,
    islands: Vec<EngineState>,
    completed: usize,
    checkpoint_path: Option<PathBuf>,
    events: Option<Sender<RunEvent>>,
    controller: Option<RunController>,
    /// Telemetry side channel: never serialized into checkpoints and
    /// never compared, so instrumentation cannot perturb determinism.
    phases: Arc<PhaseAccumulator>,
    /// The stats interval in progress, opened before its first generation.
    interval: Option<IntervalStart>,
    last_phases: Option<PhaseBreakdown>,
}

impl IslandRunner {
    /// Maximum points in the live Pareto front a Progress event carries —
    /// keeps SSE frames small however large the population gets.
    pub const FRONT_POINT_CAP: usize = 64;

    /// Creates a runner: validates everything, splits the population over
    /// the islands, and draws + evaluates every island's initial
    /// population.
    ///
    /// # Errors
    ///
    /// Propagates settings/grammar/data validation failures; additionally
    /// rejects configurations whose per-island population would drop
    /// below 2.
    pub fn new(
        settings: CaffeineSettings,
        grammar: GrammarConfig,
        config: RuntimeConfig,
        data: &Dataset,
    ) -> Result<IslandRunner, RuntimeError> {
        settings.check()?;
        config.check()?;
        let shares = split_population(settings.population, config.islands);
        if shares.iter().any(|&s| s < 2) {
            return Err(caffeine_core::CaffeineError::InvalidSettings(format!(
                "population {} split over {} islands leaves fewer than 2 individuals per island",
                settings.population, config.islands
            ))
            .into());
        }
        let evaluator = ParallelEvaluator::new(
            DatasetEvaluator::new(&settings, &grammar, data)?,
            config.threads,
        );
        let mut islands = Vec::with_capacity(config.islands);
        for (i, &share) in shares.iter().enumerate() {
            let mut island_settings = settings.clone();
            island_settings.population = share;
            island_settings.seed = derive_island_seed(settings.seed, i);
            islands.push(EngineState::new(
                island_settings,
                grammar.clone(),
                &evaluator,
            )?);
        }
        Ok(IslandRunner {
            master: settings,
            grammar,
            config,
            islands,
            completed: 0,
            checkpoint_path: None,
            events: None,
            controller: None,
            phases: Arc::new(phases::engine_accumulator()),
            interval: None,
            last_phases: None,
        })
    }

    /// Rebuilds a runner from a checkpoint (see
    /// [`RuntimeCheckpoint::load`]), validating the dataset shape against
    /// the one recorded at save time.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Corrupt`] when the dataset does not match the
    /// checkpointed run.
    pub fn from_checkpoint(
        checkpoint: RuntimeCheckpoint,
        data: &Dataset,
    ) -> Result<IslandRunner, RuntimeError> {
        if checkpoint.n_vars != data.n_vars() || checkpoint.n_samples != data.n_samples() {
            return Err(RuntimeError::Corrupt(format!(
                "checkpoint was taken on a {}×{} dataset but the given one is {}×{}",
                checkpoint.n_samples,
                checkpoint.n_vars,
                data.n_samples(),
                data.n_vars()
            )));
        }
        Ok(IslandRunner {
            master: checkpoint.master,
            grammar: checkpoint.grammar,
            config: checkpoint.config,
            islands: checkpoint.islands,
            completed: checkpoint.completed,
            checkpoint_path: None,
            events: None,
            controller: None,
            phases: Arc::new(phases::engine_accumulator()),
            interval: None,
            last_phases: None,
        })
    }

    /// Attaches a checkpoint file path; snapshots are written there on the
    /// configured cadence and when the run completes.
    pub fn set_checkpoint_path(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// Retargets the total generation count (used to *extend* a resumed
    /// run past the total it was checkpointed with). The evolved state is
    /// untouched: extending a completed 20-generation run to 40 produces
    /// the same models as one uninterrupted 40-generation run, because the
    /// RNG streams continue from where they stopped.
    pub fn set_total_generations(&mut self, generations: usize) {
        self.master.generations = generations;
        for island in &mut self.islands {
            island.settings.generations = generations;
        }
    }

    /// Overrides the worker-thread count. Pure execution policy: any
    /// value reproduces the same result, so this is always safe — on
    /// resume included.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Overrides the checkpoint cadence (pure execution policy, safe on
    /// resume).
    pub fn set_checkpoint_every(&mut self, generations: usize) {
        self.config.checkpoint_every = generations;
    }

    /// Attaches a live progress channel.
    pub fn set_events(&mut self, sender: Sender<RunEvent>) {
        self.events = Some(sender);
    }

    /// Attaches a cancel/progress handle. The run then checks it before
    /// each generation (and once more before finishing), stops with
    /// [`RuntimeError::Cancelled`] once it is cancelled, and publishes a
    /// [`crate::ProgressSnapshot`] after every generation.
    pub fn set_controller(&mut self, controller: RunController) {
        self.controller = Some(controller);
    }

    /// Number of completed generations.
    pub fn completed_generations(&self) -> usize {
        self.completed
    }

    /// Total generations the run targets.
    pub fn total_generations(&self) -> usize {
        self.master.generations
    }

    /// The island states (for inspection/tests).
    pub fn islands(&self) -> &[EngineState] {
        &self.islands
    }

    /// The shared phase accumulator this runner's evaluators record into
    /// (cumulative over the whole run).
    pub fn phases(&self) -> &Arc<PhaseAccumulator> {
        &self.phases
    }

    /// The most recent stats interval's phase breakdown, once one
    /// interval has ended under this runner.
    pub fn last_phases(&self) -> Option<&PhaseBreakdown> {
        self.last_phases.as_ref()
    }

    /// Takes the current state as a serializable checkpoint value.
    pub fn checkpoint(&self, data: &Dataset) -> RuntimeCheckpoint {
        RuntimeCheckpoint {
            version: RuntimeCheckpoint::VERSION,
            master: self.master.clone(),
            grammar: self.grammar.clone(),
            config: self.config.clone(),
            completed: self.completed,
            islands: self.islands.clone(),
            n_vars: data.n_vars(),
            n_samples: data.n_samples(),
        }
    }

    fn emit(&self, event: RunEvent) {
        if let Some(tx) = &self.events {
            let _ = tx.send(event);
        }
    }

    /// Builds the parallel evaluator for one call of
    /// [`IslandRunner::run_generations`] or [`IslandRunner::run`];
    /// creation copies the dataset into column-major form.
    fn build_evaluator<'a>(
        &self,
        data: &'a Dataset,
    ) -> Result<ParallelEvaluator<'a>, RuntimeError> {
        let mut evaluator = ParallelEvaluator::new(
            DatasetEvaluator::new(&self.master, &self.grammar, data)?,
            self.config.threads,
        );
        evaluator.set_phases(Arc::clone(&self.phases));
        Ok(evaluator)
    }

    /// Advances the whole archipelago by at most `n` generations
    /// (stopping at the configured total), including migration and
    /// checkpoint writes on their schedules.
    ///
    /// # Errors
    ///
    /// Propagates dataset validation and checkpoint-write failures;
    /// [`RuntimeError::Cancelled`] when the attached controller cancels.
    pub fn run_generations(&mut self, data: &Dataset, n: usize) -> Result<(), RuntimeError> {
        let evaluator = self.build_evaluator(data)?;
        self.advance(&evaluator, data, n)
    }

    /// The generation loop: steps every island once per generation,
    /// checking the controller before each one.
    fn advance(
        &mut self,
        evaluator: &ParallelEvaluator,
        data: &Dataset,
        n: usize,
    ) -> Result<(), RuntimeError> {
        self.publish(RunPhase::Running);
        let target = self.master.generations.min(self.completed + n);
        while self.completed < target {
            self.proceed()?;
            let acc = Arc::clone(&self.phases);
            self.interval
                .get_or_insert_with(|| IntervalStart::now(&acc));
            let mut grown: Vec<(usize, EvolutionStats, Vec<FrontPoint>)> = Vec::new();
            for (idx, island) in self.islands.iter_mut().enumerate() {
                let before = island.stats.len();
                {
                    let _generation = acc.span(phases::GENERATION);
                    island.step(evaluator);
                }
                if island.stats.len() > before {
                    let stats = island.stats[island.stats.len() - 1].clone();
                    let front = live_front(&island.population);
                    grown.push((idx, stats, front));
                }
            }
            self.completed += 1;
            // Purely schedule-driven (never conditioned on the total), so
            // a resumed-and-extended run replays the exact migration
            // sequence of an uninterrupted longer run.
            let migration_due = self.islands.len() > 1
                && self.config.migrate_every > 0
                && self.completed.is_multiple_of(self.config.migrate_every);
            if migration_due {
                let _generation = acc.span(phases::GENERATION);
                let _migration = acc.span(phases::MIGRATION);
                self.migrate();
            }
            // A stats generation closes the interval. Progress first, then
            // Migrated — the event order consumers already rely on — with
            // every island's Progress carrying the interval's one
            // breakdown (migration time included).
            if let Some(interval) = self.interval.take_if(|_| !grown.is_empty()) {
                let breakdown = PhaseBreakdown::since(&interval, &acc, self.completed);
                for (idx, stats, front) in grown {
                    self.emit(RunEvent::Progress {
                        island: idx,
                        stats,
                        phases: breakdown.clone(),
                        front,
                    });
                }
                self.last_phases = Some(breakdown);
            }
            if migration_due {
                self.emit(RunEvent::Migrated {
                    generation: self.completed,
                });
            }
            let checkpoint_due = self.checkpoint_path.is_some()
                && self.config.checkpoint_every > 0
                && self.completed.is_multiple_of(self.config.checkpoint_every);
            if checkpoint_due {
                self.write_checkpoint(data)?;
            }
            self.publish(RunPhase::Running);
        }
        Ok(())
    }

    /// Runs to completion and harvests the combined result: every island's
    /// feasible individuals pooled, plus the constant anchor, filtered to
    /// the (train-error, complexity) front. Statistics come from island 0
    /// (the master-seed stream). A checkpoint path gets a final snapshot,
    /// and the events channel a [`RunEvent::Finished`].
    ///
    /// # Errors
    ///
    /// Propagates validation/IO failures and
    /// [`caffeine_core::CaffeineError::NoFeasibleModel`] when nothing
    /// evaluable evolved. [`RuntimeError::Cancelled`] when the attached
    /// controller cancels; a cancelled run writes no final checkpoint and
    /// emits no `Finished` event.
    pub fn run(&mut self, data: &Dataset) -> Result<CaffeineResult, RuntimeError> {
        let evaluator = self.build_evaluator(data)?;
        let remaining = self.master.generations.saturating_sub(self.completed);
        self.advance(&evaluator, data, remaining)?;
        self.proceed()?;
        if self.checkpoint_path.is_some() {
            self.write_checkpoint(data)?;
        }
        self.emit(RunEvent::Finished {
            generation: self.completed,
        });
        let mut models = Vec::new();
        for island in &self.islands {
            models.extend(island.harvest());
        }
        let anchor = evaluator.inner().constant_model(self.grammar.weights);
        let stats = self.islands[0].stats.clone();
        let result = assemble_result(models, anchor, stats)?;
        self.publish(RunPhase::Finished);
        Ok(result)
    }

    /// A cancel of the attached controller publishes the cancelled phase
    /// and ends the run.
    fn proceed(&self) -> Result<(), RuntimeError> {
        match &self.controller {
            Some(ctl) if ctl.is_cancelled() => {
                self.publish(RunPhase::Cancelled);
                Err(RuntimeError::Cancelled)
            }
            _ => Ok(()),
        }
    }

    /// Publishes the current progress to the attached controller, if any.
    fn publish(&self, phase: RunPhase) {
        if let Some(ctl) = &self.controller {
            ctl.publish(self, phase);
        }
    }

    fn write_checkpoint(&self, data: &Dataset) -> Result<(), RuntimeError> {
        if let Some(path) = &self.checkpoint_path {
            // lint: allow(determinism) — telemetry side channel: checkpoint write timing is reported on RunEvent::Checkpointed, never read back
            let started = Instant::now();
            self.checkpoint(data).save(path)?;
            self.emit(RunEvent::Checkpointed {
                generation: self.completed,
                duration_secs: started.elapsed().as_secs_f64(),
            });
        }
        Ok(())
    }

    /// One ring-migration round: island `i` sends clones of its best
    /// `migrants` individuals to island `(i+1) % K`, replacing the
    /// destination's worst. "Best"/"worst" use the NSGA-II crowded
    /// comparison with index order as the final tiebreak, so migration is
    /// fully deterministic.
    fn migrate(&mut self) {
        let k = self.islands.len();
        let emigrants: Vec<Vec<Individual>> = self
            .islands
            .iter()
            .map(|island| {
                let order = crowded_order(&island.population);
                order
                    .iter()
                    .take(self.config.migrants.min(island.population.len()))
                    .map(|&i| island.population[i].clone())
                    .collect()
            })
            .collect();
        for (src, movers) in emigrants.into_iter().enumerate() {
            let dst = (src + 1) % k;
            let island = &mut self.islands[dst];
            let order = crowded_order(&island.population);
            // Worst first: walk the crowded order from the back.
            for (mover, &slot) in movers.into_iter().zip(order.iter().rev()) {
                island.replace_member(slot, mover);
            }
        }
    }
}

/// The population's current nondominated (error, complexity) points,
/// sorted by error, deduplicated, and capped at
/// [`IslandRunner::FRONT_POINT_CAP`]. Read-only telemetry — no RNG, no
/// mutation — so carrying it on progress events cannot perturb the run.
fn live_front(population: &[Individual]) -> Vec<FrontPoint> {
    let objectives: Vec<[f64; 2]> = population.iter().map(Individual::objectives).collect();
    let ranked = nsga2::rank_population(&objectives);
    let mut points: Vec<FrontPoint> = objectives
        .iter()
        .enumerate()
        .filter(|(i, o)| ranked.rank[*i] == 0 && o.iter().all(|v| v.is_finite()))
        .map(|(_, &[error, complexity])| FrontPoint { error, complexity })
        .collect();
    points.sort_by(|a, b| {
        a.error
            .partial_cmp(&b.error)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.complexity
                    .partial_cmp(&b.complexity)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
    points.dedup_by(|a, b| a.error == b.error && a.complexity == b.complexity);
    points.truncate(IslandRunner::FRONT_POINT_CAP);
    points
}

/// Indices sorted best-to-worst under the NSGA-II crowded comparison
/// (rank ascending, crowding distance descending, index ascending).
fn crowded_order(population: &[Individual]) -> Vec<usize> {
    let objectives: Vec<[f64; 2]> = population.iter().map(Individual::objectives).collect();
    let ranked = nsga2::rank_population(&objectives);
    let mut order: Vec<usize> = (0..population.len()).collect();
    order.sort_by(|&a, &b| {
        ranked.rank[a]
            .cmp(&ranked.rank[b])
            .then_with(|| {
                ranked.crowding[b]
                    .partial_cmp(&ranked.crowding[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_seeds_are_distinct_streams() {
        let master = 42;
        assert_eq!(derive_island_seed(master, 0), master);
        let seeds: Vec<u64> = (0..8).map(|i| derive_island_seed(master, i)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "islands {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn population_split_covers_total() {
        assert_eq!(split_population(10, 3), vec![4, 3, 3]);
        assert_eq!(split_population(9, 3), vec![3, 3, 3]);
        assert_eq!(split_population(7, 1), vec![7]);
        for (total, k) in [(200, 8), (50, 3), (11, 5)] {
            let shares = split_population(total, k);
            assert_eq!(shares.iter().sum::<usize>(), total);
        }
    }
}
