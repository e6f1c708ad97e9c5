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
//!   that after [`Evaluator::evaluate_all`] (or
//!   [`Evaluator::evaluate_streamed`], which the step uses to hand over
//!   offspring as they are bred) every individual carries an
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
use serde::{Deserialize, Map, Serialize, Value};

use caffeine_doe::{Dataset, PointMatrix};
use caffeine_obs::PhaseAccumulator;

use crate::expr::{bases_bits_eq, bases_bits_key, complexity, ComplexityWeights, EvalContext};
use crate::fit::{fit_bound, FitOutcome, FitScratch};
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

/// The producer of a streamed batch ([`Evaluator::evaluate_streamed`]):
/// called once, it hands each individual to its `publish` argument as
/// soon as the individual exists.
pub type Produce<'a> = dyn FnMut(&mut dyn FnMut(Individual)) + 'a;

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

    /// Evaluates a batch while it is being produced. `produce` is called
    /// once and hands each individual to `publish` as soon as it exists,
    /// at most `capacity` of them; they come back evaluated, in publish
    /// order. An evaluator with worker threads can fit the first
    /// individuals while the caller is still producing the rest
    /// ([`EngineState::step`] breeds offspring this way).
    ///
    /// The default collects the whole batch, then calls
    /// [`Evaluator::evaluate_all`].
    fn evaluate_streamed(&self, capacity: usize, produce: &mut Produce<'_>) -> Vec<Individual> {
        let mut batch = Vec::with_capacity(capacity);
        produce(&mut |ind| batch.push(ind));
        self.evaluate_all(&mut batch);
        batch
    }

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
    /// individual (no-op when already evaluated), through a scratch bound
    /// to this problem. Pure: depends only on the individual and this
    /// problem — the scratch is memoization only and never changes
    /// outcomes.
    fn evaluate(&self, ind: &mut Individual, scratch: &mut FitScratch) {
        if ind.eval.is_some() {
            return;
        }
        let cx = complexity(&ind.bases, &self.complexity);
        let eval = match fit_bound(&ind.bases, &self.pm, &self.targets, &self.ctx, scratch) {
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

    /// Evaluates one batch: every individual the iterator yields, through
    /// one scratch, so bases repeated across them (ubiquitous after
    /// crossover) are evaluated once. The scratch's cache also keeps the
    /// columns the scratch's previous batch looked up, and drops the rest
    /// (see [`FitScratch`]). The items may be plain `&mut Individual`s or
    /// guards of individuals claimed one at a time from a shared batch.
    /// The scratch is bound to this problem once, for the whole batch.
    /// Cache traffic is counted into the phase accumulator when one is
    /// attached.
    pub fn evaluate_each<I>(&self, individuals: I, scratch: &mut FitScratch)
    where
        I: IntoIterator,
        I::Item: DerefMut<Target = Individual>,
    {
        if let (Some(phases), None) = (&self.phases, scratch.telemetry()) {
            scratch.set_telemetry(Arc::clone(phases));
        }
        scratch.begin_batch();
        scratch.bind_problem(&self.pm, &self.ctx, &self.targets);
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
    /// (ubiquitous after crossover) are evaluated once, and keeps what
    /// the scratch's previous batch looked up
    /// ([`FitProblem::evaluate_each`]).
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
        // A fresh scratch per batch: this reference evaluator is shared
        // by reference and keeps no state, so its cache spans one batch.
        // The runtime's parallel evaluator keeps one scratch per thread
        // instead, whose cache also serves columns from the batch before.
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
///
/// Beside the population it carries a bitwise key of each member's
/// basis list, which [`EngineState::step`] needs to spot offspring that
/// repeat a member. The keys are never serialized: loading a snapshot
/// recomputes them. Replace members through
/// [`EngineState::replace_member`], which keeps the keys current; after
/// any other edit of `population` that keeps its length, keys go stale
/// until the next load. That can only forgo reuses (every key match is
/// confirmed bit for bit) and never moves a bit of the run; debug
/// builds assert at each step that the keys are current.
#[derive(Debug, Clone)]
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
    /// [`bases_bits_key`] of each member of `population`, in order.
    keys: Vec<u64>,
}

/// The six public fields, as a derive would write them; the carried keys
/// stay out (the vendored derive has no `skip`).
impl Serialize for EngineState {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("settings".into(), self.settings.to_value());
        m.insert("grammar".into(), self.grammar.to_value());
        m.insert("generation".into(), self.generation.to_value());
        m.insert("population".into(), self.population.to_value());
        m.insert("rng".into(), self.rng.to_value());
        m.insert("stats".into(), self.stats.to_value());
        Value::Object(m)
    }
}

impl Deserialize for EngineState {
    fn from_value(v: &Value) -> Result<EngineState, serde::Error> {
        let settings = serde::get_field(v, "settings")?;
        let grammar = serde::get_field(v, "grammar")?;
        let generation = serde::get_field(v, "generation")?;
        let population: Vec<Individual> = serde::get_field(v, "population")?;
        let rng = serde::get_field(v, "rng")?;
        let stats = serde::get_field(v, "stats")?;
        Ok(EngineState {
            settings,
            grammar,
            generation,
            keys: member_keys(&population),
            population,
            rng,
            stats,
        })
    }
}

/// The [`bases_bits_key`] of every member.
fn member_keys(population: &[Individual]) -> Vec<u64> {
    population
        .iter()
        .map(|ind| bases_bits_key(&ind.bases))
        .collect()
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
            keys: member_keys(&population),
            population,
            rng,
            stats: Vec::new(),
        })
    }

    /// Puts `member` at `slot` of the population (migration's
    /// replacement of a worst member), keeping the carried keys current.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range.
    pub fn replace_member(&mut self, slot: usize, member: Individual) {
        if self.keys.len() == self.population.len() {
            self.keys[slot] = bases_bits_key(&member.bases);
        }
        self.population[slot] = member;
    }

    /// `true` once `settings.generations` generations have completed.
    pub fn is_done(&self) -> bool {
        self.generation >= self.settings.generations
    }

    /// Advances exactly one generation: tournament selection + variation,
    /// evaluation of the offspring through `evaluator`, then elitist
    /// NSGA-II environmental selection. Records an [`EvolutionStats`]
    /// snapshot on the configured schedule.
    ///
    /// Each distinct offspring goes to the evaluator as soon as it is
    /// bred ([`Evaluator::evaluate_streamed`]), so a parallel evaluator's
    /// workers fit early offspring while later ones are bred. Breeding
    /// alone draws from the RNG, and an evaluation reads nothing but its
    /// own individual, so the RNG stream and every outcome are the same
    /// under any evaluation schedule — the hook that makes parallel
    /// evaluation deterministic.
    ///
    /// An offspring whose basis list is bitwise equal to a population
    /// member's, or to an earlier offspring's, takes a clone of that
    /// evaluation instead of a fit; only the distinct rest reach
    /// `evaluator`. Evaluation is a pure function of the bases, so the
    /// resulting population is the same as if every offspring were fitted
    /// (see [`crate::fit`] for all levels of this reuse). The members'
    /// keys are carried from the step that placed them; each offspring's
    /// is computed once, as it is placed.
    pub fn step(&mut self, evaluator: &dyn Evaluator) {
        let generation = self.generation;
        let ops = GpOperators::new(&self.grammar, op_settings(&self.settings));
        if self.keys.len() != self.population.len() {
            self.keys = member_keys(&self.population);
        }
        debug_assert!(
            self.keys == member_keys(&self.population),
            "carried member keys are stale"
        );

        let objectives: Vec<[f64; 2]> =
            self.population.iter().map(Individual::objectives).collect();
        let ranked = nsga2::rank_population(&objectives);

        let size = self.settings.population;
        let mut offspring: Vec<Individual> = Vec::with_capacity(size);
        let mut offspring_keys = {
            // Wall-clock telemetry lives entirely outside `self`: it is
            // never serialized, never compared, and never touches the RNG,
            // so instrumented and uninstrumented runs stay bit-identical.
            // Breeding runs inside the evaluation it feeds, so its time
            // counts here too.
            let _eval = evaluator.phases().map(|a| a.span(phases::EVAL_WALL));
            let (population, rng) = (&self.population, &mut self.rng);
            let mut reuse = Reuse::new(population, &self.keys);
            let evaluated = evaluator.evaluate_streamed(size, &mut |publish| {
                // Offspring via binary tournament + the operator suite.
                while offspring.len() < size {
                    let p1 = &population[ranked.tournament(rng)];
                    let p2 = &population[ranked.tournament(rng)];
                    let child = ops.make_offspring(rng, p1, p2);
                    reuse.place(child, &mut offspring, publish);
                }
            });
            reuse.finish(&mut offspring, evaluated, evaluator)
        };

        // Elitist environmental selection over parents + offspring.
        let mut combined = std::mem::take(&mut self.population);
        combined.append(&mut offspring);
        let mut combined_keys = std::mem::take(&mut self.keys);
        combined_keys.append(&mut offspring_keys);
        let combined_objs: Vec<[f64; 2]> = combined.iter().map(Individual::objectives).collect();
        let survivors = nsga2::environmental_selection(&combined_objs, self.settings.population);
        // Survivor indices are distinct: move each one out instead of
        // cloning it. The placeholders left behind allocate nothing and
        // are dropped with `combined`.
        self.keys = survivors.iter().map(|&i| combined_keys[i]).collect();
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

/// Sorts offspring as they are bred into those that reuse an
/// evaluation and those that need a fit.
struct Reuse<'p> {
    population: &'p [Individual],
    /// Every evaluated member, and every published offspring, under the
    /// [`bases_bits_key`] of its basis list.
    seen: HashMap<u64, Seen, BuildHasherDefault<DefaultHasher>>,
    /// The key of each placed offspring, in offspring order.
    keys: Vec<u64>,
    /// Published offspring, in publish order.
    distinct: Vec<usize>,
    /// `(copy, source)`: offspring `copy` has the key of the published
    /// offspring `source` and takes its evaluation once the batch is
    /// back and the two lists prove bitwise equal.
    repeats: Vec<(usize, usize)>,
}

#[derive(Clone, Copy)]
enum Seen {
    Member(usize),
    Offspring(usize),
}

impl<'p> Reuse<'p> {
    /// Files every evaluated member under its key (`keys`, aligned with
    /// `population`).
    fn new(population: &'p [Individual], keys: &[u64]) -> Reuse<'p> {
        let mut seen: HashMap<u64, Seen, BuildHasherDefault<DefaultHasher>> =
            HashMap::with_capacity_and_hasher(2 * population.len(), Default::default());
        for (i, (member, &key)) in population.iter().zip(keys).enumerate() {
            if member.eval.is_some() {
                seen.entry(key).or_insert(Seen::Member(i));
            }
        }
        Reuse {
            population,
            seen,
            keys: Vec::with_capacity(population.len()),
            distinct: Vec::with_capacity(population.len()),
            repeats: Vec::new(),
        }
    }

    /// Appends `child` to `offspring`: with a clone of the evaluation of
    /// a population member whose basis list is bitwise equal, as a
    /// tentative repeat of an earlier offspring with the same key, or
    /// else as a placeholder while `child` itself goes to `publish`.
    /// A key shared by unequal lists only forgoes a reuse.
    fn place(
        &mut self,
        mut child: Individual,
        offspring: &mut Vec<Individual>,
        publish: &mut dyn FnMut(Individual),
    ) {
        let i = offspring.len();
        let key = bases_bits_key(&child.bases);
        self.keys.push(key);
        match self.seen.get(&key).copied() {
            Some(Seen::Member(j)) if bases_bits_eq(&self.population[j].bases, &child.bases) => {
                child.eval = self.population[j].eval.clone();
                offspring.push(child);
                return;
            }
            // The source is away being evaluated, so equality is checked
            // in `finish`.
            Some(Seen::Offspring(j)) => {
                self.repeats.push((i, j));
                offspring.push(child);
                return;
            }
            Some(Seen::Member(_)) => {}
            None => {
                self.seen.insert(key, Seen::Offspring(i));
            }
        }
        self.distinct.push(i);
        offspring.push(vacated());
        publish(child);
    }

    /// Puts the evaluated offspring (in publish order) back in place and
    /// hands each confirmed repeat its source's evaluation. Repeats whose
    /// lists prove unequal (a hash collision) are evaluated afterwards.
    /// Returns the offspring's keys, in offspring order.
    fn finish(
        self,
        offspring: &mut [Individual],
        evaluated: Vec<Individual>,
        evaluator: &dyn Evaluator,
    ) -> Vec<u64> {
        for (&i, ind) in self.distinct.iter().zip(evaluated) {
            offspring[i] = ind;
        }
        let mut collided = Vec::new();
        for (copy, source) in self.repeats {
            if bases_bits_eq(&offspring[source].bases, &offspring[copy].bases) {
                offspring[copy].eval = offspring[source].eval.clone();
            } else {
                collided.push(copy);
            }
        }
        if !collided.is_empty() {
            let mut batch: Vec<Individual> = collided
                .iter()
                .map(|&i| std::mem::replace(&mut offspring[i], vacated()))
                .collect();
            evaluator.evaluate_all(&mut batch);
            for (&i, ind) in collided.iter().zip(batch) {
                offspring[i] = ind;
            }
        }
        self.keys
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

    #[test]
    fn carried_keys_equal_recomputed_keys() {
        let data = dataset(|x| x[0] + 2.0 / x[1], 18, 2);
        let mut settings = CaffeineSettings::quick_test();
        settings.population = 16;
        let grammar = GrammarConfig::paper_full(2);
        let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let current = |state: &EngineState| state.keys == member_keys(&state.population);
        let mut state = EngineState::new(settings.clone(), grammar.clone(), &evaluator).unwrap();
        assert!(current(&state));
        for _ in 0..5 {
            state.step(&evaluator);
            assert!(current(&state), "after a step");
        }

        let value = serde::Serialize::to_value(&state);
        assert!(value.as_object().unwrap().iter().all(|(k, _)| k != "keys"));
        let mut restored: EngineState = serde::Deserialize::from_value(&value).unwrap();
        assert!(current(&restored), "after a load");
        assert_eq!(restored.keys, state.keys);

        // A migrant from another run, as `IslandRunner` migration writes it.
        settings.seed = 77;
        let other = EngineState::new(settings, grammar, &evaluator).unwrap();
        for (slot, member) in [(3, 0), (0, 5), (15, 9)] {
            restored.replace_member(slot, other.population[member].clone());
            assert!(current(&restored), "after a migration");
        }
        restored.step(&evaluator);
        assert!(current(&restored), "after a step past a migration");

        // A population edited past `replace_member` to another length is
        // rekeyed by the next step.
        restored.population.truncate(10);
        restored.step(&evaluator);
        assert!(current(&restored), "after a length change");
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

        let mut reuse = Reuse::new(members, &member_keys(members));
        let mut placed = Vec::new();
        let mut published = Vec::new();
        for child in offspring {
            reuse.place(child, &mut placed, &mut |ind| published.push(ind));
        }
        let copied_from_members: Vec<usize> = (0..placed.len())
            .filter(|&i| placed[i].eval.is_some())
            .collect();
        assert_eq!(copied_from_members, vec![0, 3, 6, 9, 12, 15]);
        assert_eq!(reuse.repeats.len(), 7, "{:?}", reuse.repeats);
        assert_eq!(reuse.distinct.len(), placed.len() - 6 - 7);
        assert_eq!(published.len(), reuse.distinct.len());
        assert!(reuse.repeats.contains(&(20, 18)), "+0.0 repeats +0.0");
        assert!(reuse.distinct.contains(&19), "-0.0 is its own list");

        let counting = CountingEvaluator {
            inner: evaluator.clone(),
            batches: RefCell::new(Vec::new()),
        };
        counting.evaluate_all(&mut published);
        reuse.finish(&mut placed, published, &counting);
        assert_eq!(counting.batches.borrow().len(), 1);
        for ind in &placed {
            assert_fresh(&evaluator, ind);
        }
    }

    #[test]
    fn a_repeat_that_collides_is_evaluated_after_the_batch() {
        let data = dataset(|x| 2.0 * x[0] + 1.0 / x[0], 12, 1);
        let settings = CaffeineSettings::quick_test();
        let evaluator =
            DatasetEvaluator::new(&settings, &GrammarConfig::rational(1), &data).unwrap();
        let counting = CountingEvaluator {
            inner: evaluator.clone(),
            batches: RefCell::new(Vec::new()),
        };
        let basis = |e: i32| BasisFunction::from_vc(VarCombo::single(1, 0, e));
        // Offspring 1 filed as a repeat of offspring 0, as a shared key
        // would file it, though its basis list differs.
        let mut reuse = Reuse::new(&[], &[]);
        reuse.distinct.push(0);
        reuse.repeats.push((1, 0));
        let mut offspring = vec![vacated(), Individual::new(vec![basis(-1)])];
        let mut evaluated = vec![Individual::new(vec![basis(1)])];
        counting.evaluate_all(&mut evaluated);
        reuse.finish(&mut offspring, evaluated, &counting);
        let batches = counting.batches.take();
        assert_eq!(batches, vec![vec![vec![basis(1)]], vec![vec![basis(-1)]]]);
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
