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
//! [`CaffeineEngine::run`] remains the one-call serial entry point and is
//! exactly `init → step × generations → harvest`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use caffeine_doe::{Dataset, PointMatrix};
use caffeine_obs::PhaseAccumulator;

use crate::expr::{complexity, ComplexityWeights, EvalContext};
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

    /// The simplest model within `tolerance` of a target training error.
    pub fn simplest_within(&self, error_target: f64) -> Option<&Model> {
        self.models
            .iter()
            .filter(|m| m.train_error <= error_target)
            .min_by(|a, b| a.complexity.partial_cmp(&b.complexity).unwrap())
    }
}

/// Pluggable fitness evaluation.
///
/// Implementations must fill `ind.eval` for every individual whose cached
/// evaluation is `None`, and must be *pure per individual*: the outcome for
/// one individual may not depend on the others or on evaluation order.
/// That contract is what lets `caffeine-runtime` chunk a batch across
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

/// The reference serial [`Evaluator`]: least-squares weight learning plus
/// the complexity measure against one training [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetEvaluator<'a> {
    data: &'a Dataset,
    /// Column-major transpose of the training points, built once — the
    /// layout the compiled tape evaluator streams over.
    pm: PointMatrix,
    metric: ErrorMetric,
    complexity: ComplexityWeights,
    infeasible_error: f64,
    ctx: EvalContext,
    phases: Option<Arc<PhaseAccumulator>>,
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
        Ok(DatasetEvaluator {
            data,
            pm: data.point_matrix(),
            metric: settings.metric,
            complexity: settings.complexity,
            infeasible_error: settings.infeasible_error,
            ctx: EvalContext::new(grammar.weights),
            phases: None,
        })
    }

    /// The training dataset.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Attaches a phase accumulator: batch evaluations through this
    /// evaluator time their gather/solve stages and count basis-cache
    /// hits and misses into it. Telemetry never changes outcomes.
    pub fn set_phases(&mut self, phases: Arc<PhaseAccumulator>) {
        self.phases = Some(phases);
    }

    /// Fits the linear weights and fills the cached evaluation of one
    /// individual (no-op when already evaluated). Pure: depends only on
    /// the individual and this evaluator's immutable configuration —
    /// the scratch is memoization only and never changes outcomes.
    pub fn evaluate_one_with(&self, ind: &mut Individual, scratch: &mut FitScratch) {
        if ind.eval.is_some() {
            return;
        }
        let cx = complexity(&ind.bases, &self.complexity);
        let eval = match fit_linear_weights_cached(
            &ind.bases,
            &self.pm,
            self.data.targets(),
            &self.ctx,
            scratch,
        ) {
            FitOutcome::Fit(fit) => {
                let err = self.metric.compute(&fit.predictions, self.data.targets());
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

    /// Evaluates a batch through one shared scratch: the basis-column
    /// cache spans the whole batch, so bases repeated across individuals
    /// (ubiquitous after crossover) are evaluated once.
    pub fn evaluate_batch(&self, population: &mut [Individual], scratch: &mut FitScratch) {
        if let (Some(phases), None) = (&self.phases, scratch.telemetry()) {
            scratch.set_telemetry(Arc::clone(phases));
        }
        let (hits_before, misses_before) = (scratch.cache_hits(), scratch.cache_misses());
        for ind in population {
            self.evaluate_one_with(ind, scratch);
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

    /// The zero-complexity anchor: intercept-only least squares.
    pub fn constant_model(&self, weights: crate::expr::WeightConfig) -> Model {
        let mean = self.data.targets().iter().sum::<f64>() / self.data.n_samples().max(1) as f64;
        let predictions = vec![mean; self.data.n_samples()];
        let err = self.metric.compute(&predictions, self.data.targets());
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
        self.phases.as_ref()
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
    pub fn step(&mut self, evaluator: &dyn Evaluator) {
        // Wall-clock telemetry lives entirely outside `self`: it is never
        // serialized, never compared, and never touches the RNG, so
        // instrumented and uninstrumented runs stay bit-identical.
        let acc = evaluator.phases().cloned();
        let generation = self.generation;
        let ops = GpOperators::new(&self.grammar, op_settings(&self.settings));

        let variation = acc.as_deref().map(|a| a.span(phases::SELECTION));
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
        drop(variation);
        {
            let _eval = acc.as_deref().map(|a| a.span(phases::EVAL_WALL));
            evaluator.evaluate_all(&mut offspring);
        }
        let _selection = acc.as_deref().map(|a| a.span(phases::SELECTION));

        // Elitist environmental selection over parents + offspring.
        let mut combined = std::mem::take(&mut self.population);
        combined.append(&mut offspring);
        let combined_objs: Vec<[f64; 2]> = combined.iter().map(Individual::objectives).collect();
        let survivors = nsga2::environmental_selection(&combined_objs, self.settings.population);
        // Survivor indices are distinct: move each one out instead of
        // cloning it. The placeholders left behind allocate nothing and
        // are dropped with `combined`.
        let vacated = || Individual {
            bases: Vec::new(),
            eval: None,
        };
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

/// The CAFFEINE engine.
#[derive(Debug, Clone)]
pub struct CaffeineEngine {
    settings: CaffeineSettings,
    grammar: GrammarConfig,
}

impl CaffeineEngine {
    /// Creates an engine from settings and a grammar.
    pub fn new(settings: CaffeineSettings, grammar: GrammarConfig) -> CaffeineEngine {
        CaffeineEngine { settings, grammar }
    }

    /// The run settings.
    pub fn settings(&self) -> &CaffeineSettings {
        &self.settings
    }

    /// The grammar.
    pub fn grammar(&self) -> &GrammarConfig {
        &self.grammar
    }

    /// Runs the evolutionary search on a training dataset (serial
    /// reference driver: `init → step × generations → harvest`).
    ///
    /// # Errors
    ///
    /// * [`CaffeineError::InvalidSettings`] / [`CaffeineError::InvalidGrammar`]
    ///   for bad configuration.
    /// * [`CaffeineError::InvalidData`] for an empty dataset, a variable
    ///   count mismatching the grammar, or non-finite targets.
    /// * [`CaffeineError::NoFeasibleModel`] when nothing evaluable evolved
    ///   (pathological data).
    pub fn run(&self, data: &Dataset) -> Result<CaffeineResult, CaffeineError> {
        let evaluator = DatasetEvaluator::new(&self.settings, &self.grammar, data)?;
        let mut state = EngineState::new(self.settings.clone(), self.grammar.clone(), &evaluator)?;
        while !state.is_done() {
            state.step(&evaluator);
        }
        let anchor = evaluator.constant_model(state.grammar.weights);
        let stats = std::mem::take(&mut state.stats);
        assemble_result(state.harvest(), anchor, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn recovers_simple_rational_law() {
        let data = dataset(|x| 2.0 + 4.0 / x[0], 30, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.seed = 3;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let result = engine.run(&data).unwrap();
        let best = result.best_by_error().unwrap();
        assert!(best.train_error < 1e-6, "error = {}", best.train_error);
    }

    #[test]
    fn result_contains_constant_anchor() {
        let data = dataset(|x| x[0] * 3.0, 20, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 10;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let result = engine.run(&data).unwrap();
        let min_cx = result
            .models
            .iter()
            .map(|m| m.complexity)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_cx, 0.0, "constant anchor missing");
    }

    #[test]
    fn front_is_nondominated_and_sorted() {
        let data = dataset(|x| x[0] + 1.0 / x[1], 25, 2);
        let mut settings = CaffeineSettings::quick_test();
        settings.seed = 5;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(2));
        let result = engine.run(&data).unwrap();
        let ms = &result.models;
        assert!(!ms.is_empty());
        for w in ms.windows(2) {
            assert!(w[0].complexity <= w[1].complexity);
        }
        for i in 0..ms.len() {
            for j in 0..ms.len() {
                if i != j {
                    assert!(
                        !(ms[j].train_error <= ms[i].train_error
                            && ms[j].complexity <= ms[i].complexity
                            && (ms[j].train_error < ms[i].train_error
                                || ms[j].complexity < ms[i].complexity)),
                        "model {i} dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_same_front() {
        let data = dataset(|x| 1.0 / x[0] + x[0], 20, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 8;
        settings.seed = 11;
        let engine = CaffeineEngine::new(settings.clone(), GrammarConfig::rational(1));
        let r1 = engine.run(&data).unwrap();
        let engine2 = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let r2 = engine2.run(&data).unwrap();
        let errs1: Vec<f64> = r1.models.iter().map(|m| m.train_error).collect();
        let errs2: Vec<f64> = r2.models.iter().map(|m| m.train_error).collect();
        assert_eq!(errs1, errs2);
    }

    #[test]
    fn stats_are_recorded_and_monotone_in_generation() {
        let data = dataset(|x| x[0], 15, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 21;
        settings.stats_every = 5;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let result = engine.run(&data).unwrap();
        assert!(result.stats.len() >= 4);
        for w in result.stats.windows(2) {
            assert!(w[0].generation < w[1].generation);
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let data = dataset(|x| x[0], 10, 2);
        let engine =
            CaffeineEngine::new(CaffeineSettings::quick_test(), GrammarConfig::rational(1));
        assert!(matches!(
            engine.run(&data),
            Err(CaffeineError::InvalidData(_))
        ));
    }

    #[test]
    fn nonfinite_targets_are_rejected() {
        let data = Dataset::new(
            vec!["x0".into()],
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, f64::NAN, 3.0],
        )
        .unwrap();
        let engine =
            CaffeineEngine::new(CaffeineSettings::quick_test(), GrammarConfig::rational(1));
        assert!(matches!(
            engine.run(&data),
            Err(CaffeineError::InvalidData(_))
        ));
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
    fn simplest_within_returns_low_complexity_model() {
        let data = dataset(|x| 5.0 * x[0], 20, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.seed = 2;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let result = engine.run(&data).unwrap();
        let best = result.best_by_error().unwrap();
        let simplest = result.simplest_within(best.train_error.max(1e-9) * 2.0);
        assert!(simplest.is_some());
        assert!(simplest.unwrap().complexity <= best.complexity + 1e-12);
    }

    #[test]
    fn manual_stepping_matches_run() {
        let data = dataset(|x| 2.0 * x[0] + 1.0 / x[0], 24, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 12;
        settings.seed = 17;
        let grammar = GrammarConfig::rational(1);

        let engine = CaffeineEngine::new(settings.clone(), grammar.clone());
        let reference = engine.run(&data).unwrap();

        let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let mut state = EngineState::new(settings, grammar, &evaluator).unwrap();
        for _ in 0..12 {
            assert!(!state.is_done());
            state.step(&evaluator);
        }
        assert!(state.is_done());
        let anchor = evaluator.constant_model(state.grammar.weights);
        let manual = assemble_result(state.harvest(), anchor, state.stats.clone()).unwrap();

        let e1: Vec<f64> = reference.models.iter().map(|m| m.train_error).collect();
        let e2: Vec<f64> = manual.models.iter().map(|m| m.train_error).collect();
        assert_eq!(e1, e2);
        assert_eq!(reference.stats, manual.stats);
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

    #[test]
    fn result_front_serde_round_trip() {
        let data = dataset(|x| 1.0 + 2.0 * x[0], 20, 1);
        let mut settings = CaffeineSettings::quick_test();
        settings.generations = 6;
        let engine = CaffeineEngine::new(settings, GrammarConfig::rational(1));
        let result = engine.run(&data).unwrap();
        let v = serde::Serialize::to_value(&result);
        let back: CaffeineResult = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(result.models, back.models);
        assert_eq!(result.stats, back.stats);
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
