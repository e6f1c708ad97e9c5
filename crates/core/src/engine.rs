//! The CAFFEINE evolutionary engine: NSGA-II over grammar-constrained
//! basis-function sets with least-squares linear learning.
//!
//! # Architecture: state / step / evaluator
//!
//! The engine is factored into three orthogonal pieces so that execution
//! policy (serial, thread-pooled, island-distributed, checkpointed) lives
//! *outside* the algorithm:
//!
//! * [`EngineState`] owns everything that evolves — the population, the
//!   RNG, the generation counter, and recorded statistics. It is fully
//!   serializable, which is what makes checkpoint/resume possible.
//! * [`EngineState::step`] advances exactly one generation. Driving the
//!   loop is the caller's job; `caffeine-runtime` drives many states
//!   (islands) side by side and injects migration between steps.
//! * [`Evaluator`] abstracts fitness evaluation. The engine only requires
//!   that after [`Evaluator::evaluate_all`] every individual carries an
//!   [`Evaluation`](crate::gp::Evaluation); *how* the batch is computed —
//!   serially ([`DatasetEvaluator`]) or fanned out over a worker pool —
//!   is pluggable. Evaluation is pure per individual, so any scheduling
//!   of the batch yields bit-identical populations.
//!
//! A whole search is `EngineState::new → step × generations → harvest →
//! `[`assemble_result`]. `caffeine-runtime`'s `IslandRunner` is the one
//! driver that runs it; with one island it is exactly that loop.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::DerefMut;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use caffeine_doe::{Dataset, PointMatrix};
use caffeine_obs::PhaseAccumulator;

use crate::expr::{bases_bits_eq, bases_bits_key, complexity, ComplexityWeights, EvalContext};
use crate::fit::{fit_linear_weights_cached, FitOutcome, FitScratch};
use crate::gp::{Evaluation, GpOperators, Individual, OperatorSettings};
use crate::metrics::ErrorMetric;
use crate::model::Model;
use crate::nsga2;
use crate::pareto;
use crate::phases;
use crate::{CaffeineError, GrammarConfig};

/// Run settings (defaults follow the paper's Sec. 6.1 where stated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaffeineSettings {
    /// Population size (paper: 200).
    pub population: usize,
    /// Number of generations (paper: 5000).
    pub generations: usize,
    /// Maximum basis functions per individual (paper: 15).
    pub max_bases: usize,
    /// Complexity weights `w_b`, `w_vc` (paper: 10 and 0.25).
    pub complexity: ComplexityWeights,
    /// Error metric (paper: relative RMS with `c = 0`).
    pub metric: ErrorMetric,
    /// Relative probability of parameter mutation (paper: 5×).
    pub param_mutation_weight: f64,
    /// RNG seed for reproducible runs.
    pub seed: u64,
    /// Sentinel error assigned to infeasible candidates.
    pub infeasible_error: f64,
    /// Record an [`EvolutionStats`] snapshot every this many generations.
    pub stats_every: usize,
}

impl Default for CaffeineSettings {
    fn default() -> Self {
        CaffeineSettings {
            population: 200,
            generations: 5000,
            max_bases: 15,
            complexity: ComplexityWeights::default(),
            metric: ErrorMetric::default(),
            param_mutation_weight: 5.0,
            seed: 0,
            infeasible_error: 1e30,
            stats_every: 100,
        }
    }
}

impl CaffeineSettings {
    /// The paper's full run settings (pop 200, 5000 generations, 15 bases).
    pub fn paper() -> CaffeineSettings {
        CaffeineSettings::default()
    }

    /// Small settings for unit tests and doc examples: seconds, not hours.
    pub fn quick_test() -> CaffeineSettings {
        CaffeineSettings {
            population: 50,
            generations: 40,
            max_bases: 6,
            stats_every: 10,
            ..CaffeineSettings::default()
        }
    }

    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// [`CaffeineError::InvalidSettings`] for degenerate values.
    pub fn check(&self) -> Result<(), CaffeineError> {
        if self.population < 2 {
            return Err(CaffeineError::InvalidSettings(
                "population must be at least 2".into(),
            ));
        }
        if self.max_bases == 0 {
            return Err(CaffeineError::InvalidSettings(
                "max_bases must be at least 1".into(),
            ));
        }
        if !(self.infeasible_error > 0.0) {
            return Err(CaffeineError::InvalidSettings(
                "infeasible_error must be positive".into(),
            ));
        }
        if self.stats_every == 0 {
            return Err(CaffeineError::InvalidSettings(
                "stats_every must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// A progress snapshot taken during evolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionStats {
    /// Generation index of the snapshot.
    pub generation: usize,
    /// Best (lowest) feasible training error in the population.
    pub best_error: f64,
    /// Lowest complexity among feasible individuals.
    pub min_complexity: f64,
    /// Number of nondominated individuals.
    pub front_size: usize,
    /// Number of feasible individuals.
    pub feasible: usize,
}

/// The result of a run: the evolved tradeoff set plus progress statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaffeineResult {
    /// Nondominated (train-error, complexity) models, sorted by
    /// complexity. Includes the zero-complexity constant model as the
    /// tradeoff anchor.
    pub models: Vec<Model>,
    /// Progress snapshots.
    pub stats: Vec<EvolutionStats>,
}

impl CaffeineResult {
    /// The model with the lowest training error.
    pub fn best_by_error(&self) -> Option<&Model> {
        self.models
            .iter()
            .min_by(|a, b| a.train_error.partial_cmp(&b.train_error).unwrap())
    }
}

/// Pluggable fitness evaluation.
///
/// Implementations must fill `ind.eval` for every individual whose cached
/// evaluation is `None`, and must be *pure per individual*: the outcome for
/// one individual may not depend on the others or on evaluation order.
/// That contract is what lets `caffeine-runtime` spread a batch over
/// worker threads while reproducing the serial run bit for bit.
pub trait Evaluator {
    /// Evaluates every not-yet-evaluated individual in the slice.
    fn evaluate_all(&self, population: &mut [Individual]);

    /// The phase accumulator this evaluator records into, if any.
    /// [`EngineState::step`] uses it to time its own segments; `None`
    /// (the default) keeps stepping completely uninstrumented.
    fn phases(&self) -> Option<&Arc<PhaseAccumulator>> {
        None
    }
}

/// Everything one fit reads, owned: the column-major training points, a
/// copy of the targets, the error metric, the complexity weights and the
/// optional phase accumulator.
///
/// It borrows nothing, so threads that outlive a single batch (the
/// runtime's parked evaluator workers) share it through an `Arc`; a
/// [`DatasetEvaluator`] is this plus the borrowed [`Dataset`].
#[derive(Debug, Clone)]
pub struct FitProblem {
    /// Column-major transpose of the training points, built once — the
    /// layout the compiled tape evaluator streams over.
    pm: PointMatrix,
    targets: Vec<f64>,
    metric: ErrorMetric,
    complexity: ComplexityWeights,
    infeasible_error: f64,
    ctx: EvalContext,
    phases: Option<Arc<PhaseAccumulator>>,
}

impl FitProblem {
    /// The attached phase accumulator, if any.
    pub fn phases(&self) -> Option<&Arc<PhaseAccumulator>> {
        self.phases.as_ref()
    }

    /// Fits the linear weights and fills the cached evaluation of one
    /// individual (no-op when already evaluated). Pure: depends only on
    /// the individual and this problem — the scratch is memoization only
    /// and never changes outcomes.
    fn evaluate(&self, ind: &mut Individual, scratch: &mut FitScratch) {
        if ind.eval.is_some() {
            return;
        }
        let cx = complexity(&ind.bases, &self.complexity);
        let eval = match fit_linear_weights_cached(
            &ind.bases,
            &self.pm,
            &self.targets,
            &self.ctx,
            scratch,
        ) {
            FitOutcome::Fit(fit) => {
                let err = self.metric.compute(&fit.predictions, &self.targets);
                let feasible = err.is_finite();
                Evaluation {
                    coefficients: fit.coefficients,
                    train_error: if feasible { err } else { self.infeasible_error },
                    complexity: cx,
                    feasible,
                }
            }
            FitOutcome::Infeasible => Evaluation {
                coefficients: vec![0.0; ind.bases.len() + 1],
                train_error: self.infeasible_error,
                complexity: cx,
                feasible: false,
            },
        };
        ind.eval = Some(eval);
    }

    /// Evaluates every individual the iterator yields through one
    /// scratch, so bases repeated across them (ubiquitous after
    /// crossover) are evaluated once while the scratch's cache lasts.
    /// The items may be plain `&mut Individual`s or guards of individuals
    /// claimed one at a time from a shared batch. Cache traffic is counted
    /// into the phase accumulator when one is attached.
    pub fn evaluate_each<I>(&self, individuals: I, scratch: &mut FitScratch)
    where
        I: IntoIterator,
        I::Item: DerefMut<Target = Individual>,
    {
        if let (Some(phases), None) = (&self.phases, scratch.telemetry()) {
            scratch.set_telemetry(Arc::clone(phases));
        }
        let (hits_before, misses_before) = (scratch.cache_hits(), scratch.cache_misses());
        for mut ind in individuals {
            self.evaluate(&mut ind, scratch);
        }
        if let Some(phases) = scratch.telemetry() {
            phases.incr(
                phases::CACHE_HITS,
                scratch.cache_hits().saturating_sub(hits_before),
            );
            phases.incr(
                phases::CACHE_MISSES,
                scratch.cache_misses().saturating_sub(misses_before),
            );
        }
    }
}

/// The reference serial [`Evaluator`]: least-squares weight learning plus
/// the complexity measure against one training [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetEvaluator<'a> {
    data: &'a Dataset,
    problem: Arc<FitProblem>,
}

impl<'a> DatasetEvaluator<'a> {
    /// Builds an evaluator, validating the dataset against the grammar.
    ///
    /// # Errors
    ///
    /// [`CaffeineError::InvalidData`] for an empty dataset, a variable
    /// count mismatching the grammar, or non-finite targets.
    pub fn new(
        settings: &CaffeineSettings,
        grammar: &GrammarConfig,
        data: &'a Dataset,
    ) -> Result<DatasetEvaluator<'a>, CaffeineError> {
        if data.n_samples() < 3 {
            return Err(CaffeineError::InvalidData(
                "need at least 3 training samples".into(),
            ));
        }
        if data.n_vars() != grammar.n_vars {
            return Err(CaffeineError::InvalidData(format!(
                "dataset has {} variables but the grammar expects {}",
                data.n_vars(),
                grammar.n_vars
            )));
        }
        if !data.targets().iter().all(|y| y.is_finite()) {
            return Err(CaffeineError::InvalidData(
                "targets contain non-finite values (drop them first)".into(),
            ));
        }
        let problem = FitProblem {
            pm: data.point_matrix(),
            targets: data.targets().to_vec(),
            metric: settings.metric,
            complexity: settings.complexity,
            infeasible_error: settings.infeasible_error,
            ctx: EvalContext::new(grammar.weights),
            phases: None,
        };
        Ok(DatasetEvaluator {
            data,
            problem: Arc::new(problem),
        })
    }

    /// The training dataset.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// The owned fit inputs, shareable with threads that outlive a batch.
    pub fn problem(&self) -> &Arc<FitProblem> {
        &self.problem
    }

    /// Attaches a phase accumulator: batch evaluations through this
    /// evaluator time their gather/solve stages and count basis-cache
    /// hits and misses into it. Telemetry never changes outcomes.
    pub fn set_phases(&mut self, phases: Arc<PhaseAccumulator>) {
        Arc::make_mut(&mut self.problem).phases = Some(phases);
    }

    /// Evaluates a batch through one shared scratch: the basis-column
    /// cache spans the whole batch, so bases repeated across individuals
    /// (ubiquitous after crossover) are evaluated once.
    pub fn evaluate_batch(&self, population: &mut [Individual], scratch: &mut FitScratch) {
        self.problem.evaluate_each(population.iter_mut(), scratch);
    }

    /// The zero-complexity anchor: intercept-only least squares.
    pub fn constant_model(&self, weights: crate::expr::WeightConfig) -> Model {
        let mean = self.data.targets().iter().sum::<f64>() / self.data.n_samples().max(1) as f64;
        let predictions = vec![mean; self.data.n_samples()];
        let err = self
            .problem
            .metric
            .compute(&predictions, self.data.targets());
        Model::new(vec![], vec![mean], weights).with_metrics(err, 0.0)
    }
}

impl Evaluator for DatasetEvaluator<'_> {
    fn evaluate_all(&self, population: &mut [Individual]) {
        // One scratch per batch: the column cache lives for exactly one
        // generation, matching the population the columns came from.
        let mut scratch = FitScratch::new();
        self.evaluate_batch(population, &mut scratch);
    }

    fn phases(&self) -> Option<&Arc<PhaseAccumulator>> {
        self.problem.phases()
    }
}

/// The complete evolving state of one CAFFEINE search.
///
/// Serializable: a snapshot of this struct *is* a checkpoint, and because
/// the vendored RNG's stream is a stability contract, deserializing a
/// snapshot and continuing reproduces the uninterrupted run exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineState {
    /// The run settings this state evolves under.
    pub settings: CaffeineSettings,
    /// The grammar configuration.
    pub grammar: GrammarConfig,
    /// Number of completed generations.
    pub generation: usize,
    /// The current population (always evaluated between steps).
    pub population: Vec<Individual>,
    /// The RNG, positioned exactly after the last completed step.
    pub rng: StdRng,
    /// Progress snapshots recorded so far.
    pub stats: Vec<EvolutionStats>,
}

impl EngineState {
    /// Initializes a state: validates settings/grammar, draws the initial
    /// population (1..=min(4, max_bases) random bases each), and evaluates
    /// it.
    ///
    /// # Errors
    ///
    /// * [`CaffeineError::InvalidSettings`] / [`CaffeineError::InvalidGrammar`]
    ///   for bad configuration.
    pub fn new(
        settings: CaffeineSettings,
        grammar: GrammarConfig,
        evaluator: &dyn Evaluator,
    ) -> Result<EngineState, CaffeineError> {
        settings.check()?;
        grammar.check()?;
        let mut rng = StdRng::seed_from_u64(settings.seed);
        let ops = GpOperators::new(&grammar, op_settings(&settings));
        let mut population: Vec<Individual> = (0..settings.population)
            .map(|_| {
                let n = rng.gen_range(1..=settings.max_bases.min(4));
                Individual::new(
                    (0..n)
                        .map(|_| ops.generator().gen_basis(&mut rng))
                        .collect(),
                )
            })
            .collect();
        evaluator.evaluate_all(&mut population);
        Ok(EngineState {
            settings,
            grammar,
            generation: 0,
            population,
            rng,
            stats: Vec::new(),
        })
    }

    /// `true` once `settings.generations` generations have completed.
    pub fn is_done(&self) -> bool {
        self.generation >= self.settings.generations
    }

    /// Advances exactly one generation: tournament selection + variation,
    /// batch evaluation of the offspring through `evaluator`, then elitist
    /// NSGA-II environmental selection. Records an [`EvolutionStats`]
    /// snapshot on the configured schedule.
    ///
    /// Offspring are generated *before* any of them is evaluated, so the
    /// RNG stream never depends on evaluation scheduling — the hook that
    /// makes parallel evaluation deterministic.
    ///
    /// An offspring whose basis list is bitwise equal to a population
    /// member's, or to an earlier offspring's, takes a clone of that
    /// evaluation instead of a fit; only the distinct rest reach
    /// `evaluator`. Evaluation is a pure function of the bases, so the
    /// resulting population is the same as if every offspring were fitted
    /// (see [`crate::fit`] for all levels of this reuse).
    pub fn step(&mut self, evaluator: &dyn Evaluator) {
        let generation = self.generation;
        let ops = GpOperators::new(&self.grammar, op_settings(&self.settings));

        let objectives: Vec<[f64; 2]> =
            self.population.iter().map(Individual::objectives).collect();
        let ranked = nsga2::rank_population(&objectives);

        // Offspring via binary tournament + the operator suite.
        let mut offspring: Vec<Individual> = Vec::with_capacity(self.settings.population);
        while offspring.len() < self.settings.population {
            let p1 = &self.population[ranked.tournament(&mut self.rng)];
            let p2 = &self.population[ranked.tournament(&mut self.rng)];
            offspring.push(ops.make_offspring(&mut self.rng, p1, p2));
        }
        let reuse = reuse_evaluations(&self.population, &mut offspring);
        {
            // Wall-clock telemetry lives entirely outside `self`: it is
            // never serialized, never compared, and never touches the RNG,
            // so instrumented and uninstrumented runs stay bit-identical.
            let _eval = evaluator.phases().map(|a| a.span(phases::EVAL_WALL));
            evaluate_distinct(&mut offspring, reuse, evaluator);
        }

        // Elitist environmental selection over parents + offspring.
        let mut combined = std::mem::take(&mut self.population);
        combined.append(&mut offspring);
        let combined_objs: Vec<[f64; 2]> = combined.iter().map(Individual::objectives).collect();
        let survivors = nsga2::environmental_selection(&combined_objs, self.settings.population);
        // Survivor indices are distinct: move each one out instead of
        // cloning it. The placeholders left behind allocate nothing and
        // are dropped with `combined`.
        self.population = survivors
            .into_iter()
            .map(|i| std::mem::replace(&mut combined[i], vacated()))
            .collect();

        if generation.is_multiple_of(self.settings.stats_every)
            || generation + 1 == self.settings.generations
        {
            let snap = snapshot(generation, &self.population);
            self.stats.push(snap);
        }
        self.generation = generation + 1;
    }

    /// Harvests the feasible individuals of the current population as
    /// fitted [`Model`]s (unfiltered — see [`assemble_result`]).
    pub fn harvest(&self) -> Vec<Model> {
        self.population
            .iter()
            .filter_map(|ind| {
                let eval = ind.eval.as_ref()?;
                if !eval.feasible {
                    return None;
                }
                Some(
                    Model::new(
                        ind.bases.clone(),
                        eval.coefficients.clone(),
                        self.grammar.weights,
                    )
                    .with_metrics(eval.train_error, eval.complexity),
                )
            })
            .collect()
    }
}

/// A placeholder left where an individual was moved out; allocates
/// nothing.
fn vacated() -> Individual {
    Individual {
        bases: Vec::new(),
        eval: None,
    }
}

/// Which offspring a step must evaluate, and which repeat an earlier one.
struct Reuse {
    /// Offspring to evaluate, ascending; no two are bitwise equal.
    distinct: Vec<usize>,
    /// `(copy, source)`: offspring `copy` repeats the earlier offspring
    /// `source` and takes its evaluation once the batch is done.
    repeats: Vec<(usize, usize)>,
}

/// Gives every offspring whose basis list is bitwise equal to an
/// evaluated population member a clone of that member's evaluation,
/// and sorts the rest into distinct offspring and repeats of an earlier
/// offspring. An evaluation is a pure function of the bases, so this
/// changes no outcome, only how many fits run. A hash collision between
/// unequal lists only forgoes a reuse.
fn reuse_evaluations(population: &[Individual], offspring: &mut [Individual]) -> Reuse {
    #[derive(Clone, Copy)]
    enum Seen {
        Member(usize),
        Offspring(usize),
    }
    let mut seen: HashMap<u64, Seen, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(population.len() + offspring.len(), Default::default());
    for (i, member) in population.iter().enumerate() {
        if member.eval.is_some() {
            seen.entry(bases_bits_key(&member.bases))
                .or_insert(Seen::Member(i));
        }
    }
    let mut reuse = Reuse {
        distinct: Vec::with_capacity(offspring.len()),
        repeats: Vec::new(),
    };
    for i in 0..offspring.len() {
        let key = bases_bits_key(&offspring[i].bases);
        match seen.get(&key).copied() {
            Some(Seen::Member(j)) if bases_bits_eq(&population[j].bases, &offspring[i].bases) => {
                offspring[i].eval = population[j].eval.clone();
            }
            Some(Seen::Offspring(j)) if bases_bits_eq(&offspring[j].bases, &offspring[i].bases) => {
                reuse.repeats.push((i, j));
            }
            Some(_) => reuse.distinct.push(i),
            None => {
                seen.insert(key, Seen::Offspring(i));
                reuse.distinct.push(i);
            }
        }
    }
    reuse
}

/// Evaluates the distinct offspring `reuse` names as one batch through
/// `evaluator`, then hands each repeat its source's evaluation.
fn evaluate_distinct(offspring: &mut [Individual], reuse: Reuse, evaluator: &dyn Evaluator) {
    let mut batch: Vec<Individual> = reuse
        .distinct
        .iter()
        .map(|&i| std::mem::replace(&mut offspring[i], vacated()))
        .collect();
    evaluator.evaluate_all(&mut batch);
    for (&i, ind) in reuse.distinct.iter().zip(batch) {
        offspring[i] = ind;
    }
    for (copy, source) in reuse.repeats {
        offspring[copy].eval = offspring[source].eval.clone();
    }
}

fn op_settings(settings: &CaffeineSettings) -> OperatorSettings {
    OperatorSettings {
        param_mutation_weight: settings.param_mutation_weight,
        max_bases: settings.max_bases,
        ..OperatorSettings::default()
    }
}

fn snapshot(generation: usize, population: &[Individual]) -> EvolutionStats {
    let feasible: Vec<&Individual> = population
        .iter()
        .filter(|i| i.eval.as_ref().is_some_and(|e| e.feasible))
        .collect();
    let best_error = feasible
        .iter()
        .map(|i| i.eval.as_ref().expect("evaluated").train_error)
        .fold(f64::INFINITY, f64::min);
    let min_complexity = feasible
        .iter()
        .map(|i| i.eval.as_ref().expect("evaluated").complexity)
        .fold(f64::INFINITY, f64::min);
    let objectives: Vec<[f64; 2]> = population.iter().map(Individual::objectives).collect();
    let front_size = nsga2::fast_nondominated_sort(&objectives)[0].len();
    EvolutionStats {
        generation,
        best_error,
        min_complexity,
        front_size,
        feasible: feasible.len(),
    }
}

/// Assembles a [`CaffeineResult`] from harvested models: appends the
/// zero-complexity constant anchor and filters to the (train-error,
/// complexity) nondominated front.
///
/// # Errors
///
/// [`CaffeineError::NoFeasibleModel`] when `models` is empty.
pub fn assemble_result(
    mut models: Vec<Model>,
    anchor: Model,
    stats: Vec<EvolutionStats>,
) -> Result<CaffeineResult, CaffeineError> {
    if models.is_empty() {
        return Err(CaffeineError::NoFeasibleModel);
    }
    // Anchor: the zero-complexity constant model of Fig. 3.
    models.push(anchor);
    let front = pareto::train_tradeoff(&models);
    Ok(CaffeineResult {
        models: front,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::expr::{
        BasisFunction, OpApplication, UnaryOp, VarCombo, Weight, WeightConfig, WeightedSum,
    };

    fn dataset(f: impl Fn(&[f64]) -> f64, n: usize, d: usize) -> Dataset {
        let mut xs = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<f64> = (0..d)
                .map(|j| 1.0 + ((i * 7 + j * 3) % 11) as f64 * 0.35)
                .collect();
            xs.push(row);
        }
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        let names = (0..d).map(|j| format!("x{j}")).collect();
        Dataset::new(names, xs, ys).unwrap()
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let data = dataset(|x| x[0], 10, 2);
        let evaluator = DatasetEvaluator::new(
            &CaffeineSettings::quick_test(),
            &GrammarConfig::rational(1),
            &data,
        );
        assert!(matches!(evaluator, Err(CaffeineError::InvalidData(_))));
    }

    #[test]
    fn nonfinite_targets_are_rejected() {
        let data = Dataset::new(
            vec!["x0".into()],
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, f64::NAN, 3.0],
        )
        .unwrap();
        let evaluator = DatasetEvaluator::new(
            &CaffeineSettings::quick_test(),
            &GrammarConfig::rational(1),
            &data,
        );
        assert!(matches!(evaluator, Err(CaffeineError::InvalidData(_))));
    }

    #[test]
    fn bad_settings_are_rejected() {
        let mut s = CaffeineSettings::quick_test();
        s.population = 1;
        assert!(s.check().is_err());
        let mut s = CaffeineSettings::quick_test();
        s.max_bases = 0;
        assert!(s.check().is_err());
        let mut s = CaffeineSettings::quick_test();
        s.stats_every = 0;
        assert!(s.check().is_err());
    }

    #[test]
    fn engine_state_serde_round_trip() {
        let data = dataset(|x| x[0] * x[0], 18, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 6;
        settings.population = 20;
        settings.seed = 23;
        let grammar = GrammarConfig::rational(1);
        let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let mut state = EngineState::new(settings, grammar, &evaluator).unwrap();
        for _ in 0..3 {
            state.step(&evaluator);
        }

        let value = serde::Serialize::to_value(&state);
        let mut restored: EngineState = serde::Deserialize::from_value(&value).unwrap();

        assert_eq!(state.generation, restored.generation);
        assert_eq!(state.population, restored.population);
        assert_eq!(state.settings, restored.settings);
        assert_eq!(state.stats, restored.stats);

        // Continuing both copies produces identical evolution — the RNG
        // state survived the round trip.
        let mut original = state.clone();
        for _ in 0..3 {
            original.step(&evaluator);
            restored.step(&evaluator);
        }
        assert_eq!(original.population, restored.population);
    }

    /// Wraps the dataset evaluator and records the basis lists of every
    /// batch it is handed.
    struct CountingEvaluator<'a> {
        inner: DatasetEvaluator<'a>,
        batches: RefCell<Vec<Vec<Vec<BasisFunction>>>>,
    }

    impl Evaluator for CountingEvaluator<'_> {
        fn evaluate_all(&self, population: &mut [Individual]) {
            let batch = population.iter().map(|i| i.bases.clone()).collect();
            self.batches.borrow_mut().push(batch);
            self.inner.evaluate_all(population);
        }
    }

    /// An evaluation as bits, so `-0.0`/`+0.0` and NaNs compare exactly.
    fn eval_bits(eval: &Option<Evaluation>) -> Option<(Vec<u64>, u64, u64, bool)> {
        eval.as_ref().map(|e| {
            (
                e.coefficients.iter().map(|c| c.to_bits()).collect(),
                e.train_error.to_bits(),
                e.complexity.to_bits(),
                e.feasible,
            )
        })
    }

    /// Asserts `ind`'s evaluation equals a fresh one of its bases.
    fn assert_fresh(evaluator: &DatasetEvaluator<'_>, ind: &Individual) {
        let mut fresh = [Individual::new(ind.bases.clone())];
        evaluator.evaluate_all(&mut fresh);
        assert!(ind.eval.is_some());
        assert_eq!(eval_bits(&ind.eval), eval_bits(&fresh[0].eval));
    }

    #[test]
    fn step_fits_only_offspring_unseen_bit_for_bit() {
        let data = dataset(|x| x[0] * x[0] + 1.0 / x[0], 16, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.population = 30;
        settings.seed = 5;
        let grammar = GrammarConfig::rational(1);
        let evaluator = CountingEvaluator {
            inner: DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
            batches: RefCell::new(Vec::new()),
        };
        let mut state = EngineState::new(settings.clone(), grammar, &evaluator).unwrap();
        let mut fitted = 0;
        for _ in 0..12 {
            let members = state.population.clone();
            evaluator.batches.borrow_mut().clear();
            state.step(&evaluator);
            let batches = evaluator.batches.take();
            assert_eq!(batches.len(), 1, "one batch per step");
            let batch = &batches[0];
            for (i, bases) in batch.iter().enumerate() {
                assert!(
                    batch[..i].iter().all(|b| !bases_bits_eq(b, bases)),
                    "batch repeats a basis list"
                );
                assert!(
                    members.iter().all(|m| !bases_bits_eq(&m.bases, bases)),
                    "batch repeats a population member"
                );
            }
            fitted += batch.len();
            // Survivors, copied evaluations among them, match fresh fits.
            for ind in &state.population {
                assert_fresh(&evaluator.inner, ind);
            }
        }
        assert!(
            fitted < 12 * settings.population,
            "no offspring reused an evaluation"
        );
    }

    #[test]
    fn every_copied_evaluation_equals_a_fresh_one() {
        let data = dataset(|x| 3.0 * x[0] - 2.0 / x[1], 20, 2);
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(2);
        let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let state = EngineState::new(settings, grammar, &evaluator).unwrap();
        let members = &state.population;
        // Repeats of members, repeats among themselves, and lists that are
        // `==` to a member but not bitwise equal (a `-0.0` weight).
        let mut offspring: Vec<Individual> = Vec::new();
        for m in members.iter().take(6) {
            offspring.push(Individual::new(m.bases.clone()));
            let mut twisted = m.bases.clone();
            twisted.push(BasisFunction::from_vc(VarCombo::from_exponents(vec![
                7, -7,
            ])));
            offspring.push(Individual::new(twisted.clone()));
            offspring.push(Individual::new(twisted));
        }
        let signed = |raw: f64| {
            let weight = Weight::from_raw(raw, &WeightConfig::default());
            Individual::new(vec![BasisFunction::from_op(
                2,
                OpApplication::Unary {
                    op: UnaryOp::Abs,
                    arg: WeightedSum::constant(weight),
                },
            )])
        };
        offspring.extend([signed(0.0), signed(-0.0), signed(0.0)]);

        let reuse = reuse_evaluations(members, &mut offspring);
        let copied_from_members: Vec<usize> = (0..offspring.len())
            .filter(|&i| offspring[i].eval.is_some())
            .collect();
        assert_eq!(copied_from_members, vec![0, 3, 6, 9, 12, 15]);
        assert_eq!(reuse.repeats.len(), 7, "{:?}", reuse.repeats);
        assert_eq!(reuse.distinct.len(), offspring.len() - 6 - 7);
        assert!(reuse.repeats.contains(&(20, 18)), "+0.0 repeats +0.0");
        assert!(reuse.distinct.contains(&19), "-0.0 is its own list");

        let counting = CountingEvaluator {
            inner: evaluator.clone(),
            batches: RefCell::new(Vec::new()),
        };
        evaluate_distinct(&mut offspring, reuse, &counting);
        assert_eq!(counting.batches.borrow().len(), 1);
        for ind in &offspring {
            assert_fresh(&evaluator, ind);
        }
    }

    #[test]
    fn settings_serde_round_trip() {
        let mut s = CaffeineSettings::paper();
        s.seed = u64::MAX; // exceeds f64's integer precision on purpose
        s.infeasible_error = 1e30;
        let v = serde::Serialize::to_value(&s);
        let back: CaffeineSettings = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(s, back);
    }
}
