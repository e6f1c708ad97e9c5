//! The search path: OTA simulation → GP → SAG → Table I pick, driven the
//! way `caffeine_bench::run_performance` and the `table1` binary do it,
//! but on one island with a 2-thread `ParallelEvaluator` and scheduled
//! checkpoints.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use caffeine_circuit::ota::{OtaDesign, OtaPerformance, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine_core::expr::FormatOptions;
use caffeine_core::gp::Individual;
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{
    assemble_result, phases, CaffeineSettings, DatasetEvaluator, EngineState, Evaluator,
    GrammarConfig, Model,
};
use caffeine_doe::{Dataset, OrthogonalArray, ScaledHypercube, SplitDataset};
use caffeine_obs::PhaseAccumulator;
use caffeine_runtime::{ParallelEvaluator, RuntimeCheckpoint, RuntimeConfig};

use crate::trace::Tracer;
use crate::THREADS;

/// The simulated experiment: one train/test split per performance.
#[derive(Debug)]
pub struct OtaData {
    /// Splits in the paper's performance order.
    pub splits: Vec<(PerfId, SplitDataset)>,
    /// Design points the simulator failed on.
    pub failures: usize,
    /// Wall time of each `OtaTestbench::simulate` call, in nanoseconds.
    pub simulate_ns: Vec<u64>,
}

/// Samples the paper's orthogonal-array plan (243 train points at ±10 %,
/// 243 test points at ±3 %) and simulates every point.
///
/// # Errors
///
/// A message when the sampling plan or the datasets cannot be built.
pub fn simulate_ota() -> Result<OtaData, String> {
    let tb = OtaTestbench::default_07um();
    let nominal = OtaDesign::nominal().to_vec();
    let oa = OrthogonalArray::rao_hamming(5).map_err(|e| e.to_string())?;
    let mut simulate_ns = Vec::with_capacity(2 * oa.runs());
    let mut failures = 0;
    let mut sample = |dx: f64| -> Result<(Vec<Vec<f64>>, Vec<OtaPerformance>), String> {
        let cube = ScaledHypercube::relative(&nominal, dx).map_err(|e| e.to_string())?;
        let points = cube.map_array(&oa).map_err(|e| e.to_string())?;
        let (mut rows, mut perfs) = (Vec::new(), Vec::new());
        for p in points {
            let Ok(design) = OtaDesign::from_slice(&p) else {
                failures += 1;
                continue;
            };
            let started = Instant::now();
            let outcome = tb.simulate(&design);
            simulate_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match outcome {
                Ok(perf) => {
                    rows.push(p);
                    perfs.push(perf);
                }
                Err(_) => failures += 1,
            }
        }
        Ok((rows, perfs))
    };
    let (train_rows, train_perf) = sample(0.10)?;
    let (test_rows, test_perf) = sample(0.03)?;

    let names: Vec<String> = OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect();
    let targets = |perfs: &[OtaPerformance], perf: PerfId| -> Vec<f64> {
        perfs
            .iter()
            .map(|p| {
                let v = p.get(perf);
                if perf.log_scaled() {
                    v.log10()
                } else {
                    v
                }
            })
            .collect()
    };
    let mut splits = Vec::with_capacity(PerfId::ALL.len());
    for perf in PerfId::ALL {
        let train = Dataset::new(
            names.clone(),
            train_rows.clone(),
            targets(&train_perf, perf),
        )
        .map_err(|e| e.to_string())?;
        let test = Dataset::new(names.clone(), test_rows.clone(), targets(&test_perf, perf))
            .map_err(|e| e.to_string())?;
        splits.push((
            perf,
            SplitDataset::new(train, test).map_err(|e| e.to_string())?,
        ));
    }
    Ok(OtaData {
        splits,
        failures,
        simulate_ns,
    })
}

/// Population size (the paper's).
const POPULATION: usize = 200;
/// Maximum bases per individual (the paper's).
const MAX_BASES: usize = 15;
/// Generations between checkpoints (one more is written at the end).
const CHECKPOINT_EVERY: usize = 100;

/// The GP seed of performance `index` (0-based, paper order) under the
/// workload seed: seed 1 gives the `table1` binary's 101, 202, …, 606.
pub fn perf_seed(seed: u64, index: usize) -> u64 {
    (101 * (index as u64 + 1)).wrapping_add(seed.wrapping_sub(1).wrapping_mul(1000))
}

/// One performance's search result.
#[derive(Debug)]
pub struct PerfOutcome {
    /// The performance.
    pub perf: PerfId,
    /// The engine's (train-error, complexity) front, before SAG.
    pub front: Vec<Model>,
    /// The SAG-simplified front with test errors.
    pub simplified: Vec<Model>,
    /// Table I target error.
    pub target: f64,
    /// The Table I row: the simplest model under target on both errors.
    pub row: Option<Model>,
}

impl PerfOutcome {
    /// Lowest test error on the simplified front.
    pub fn best_qtc(&self) -> f64 {
        self.simplified
            .iter()
            .filter_map(|m| m.test_error)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Counters of the traced search, read from the evaluator wrapper and the
/// phase accumulator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchCounters {
    /// Generations stepped.
    pub generations: u64,
    /// CPU nanoseconds in basis evaluation, summed over workers.
    pub basis_eval_ns: u64,
    /// CPU nanoseconds in the linear solve, summed over workers.
    pub linear_solve_ns: u64,
    /// Basis-column cache hits.
    pub cache_hits: u64,
    /// Basis-column cache misses.
    pub cache_misses: u64,
    /// Offspring that needed evaluation.
    pub evaluated: u64,
    /// Of those, the feasible ones.
    pub feasible: u64,
}

impl SearchCounters {
    /// Adds another search's counters.
    pub fn add(&mut self, o: &SearchCounters) {
        self.generations += o.generations;
        self.basis_eval_ns += o.basis_eval_ns;
        self.linear_solve_ns += o.linear_solve_ns;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.evaluated += o.evaluated;
        self.feasible += o.feasible;
    }
}

/// The whole search: every performance plus its wall time.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Per performance, in paper order.
    pub perfs: Vec<PerfOutcome>,
    /// Wall time of GP + SAG + pick over all performances.
    pub wall_s: f64,
    /// Traced-run counters (zero when untraced).
    pub counters: SearchCounters,
}

/// Times `Evaluator::evaluate_all` of the wrapped evaluator and counts
/// what it evaluated; used only in the traced run.
struct TimedEvaluator<'e, 'a, 't> {
    inner: &'e ParallelEvaluator<'a>,
    tracer: RefCell<&'t mut Tracer>,
    group: u64,
    evaluated: Cell<u64>,
    feasible: Cell<u64>,
}

impl Evaluator for TimedEvaluator<'_, '_, '_> {
    fn evaluate_all(&self, population: &mut [Individual]) {
        let fresh = population.iter().filter(|i| i.eval.is_none()).count() as u64;
        self.tracer
            .borrow_mut()
            .span("core.evaluate", self.group, |_| {
                self.inner.evaluate_all(population)
            });
        let feasible = population
            .iter()
            .filter(|i| i.eval.as_ref().is_some_and(|e| e.feasible))
            .count() as u64;
        self.evaluated.set(self.evaluated.get() + fresh);
        self.feasible.set(self.feasible.get() + feasible);
    }

    fn phases(&self) -> Option<&Arc<PhaseAccumulator>> {
        self.inner.phases()
    }
}

/// Called after each performance with the results so far.
pub type AfterEach<'a> = dyn FnMut(&[PerfOutcome], &mut Tracer) -> Result<(), String> + 'a;

/// Runs the search over every performance of `data`, calling
/// `after_each` with the results so far after each performance. Time spent
/// in `after_each` is not search time.
///
/// # Errors
///
/// A message when the engine rejects the configuration, a checkpoint
/// cannot be written, or `after_each` fails.
pub fn run_search(
    data: &OtaData,
    generations: usize,
    seed: u64,
    work_dir: &Path,
    tracer: &mut Tracer,
    after_each: &mut AfterEach<'_>,
) -> Result<SearchOutcome, String> {
    let accumulator = Arc::new(phases::engine_accumulator());
    let mut counters = SearchCounters::default();
    let mut perfs = Vec::with_capacity(data.splits.len());
    let mut wall_s = 0.0;
    for (i, (perf, split)) in data.splits.iter().enumerate() {
        let started = Instant::now();
        let out = tracer.span("search.perf", i as u64, |t| {
            search_one(
                *perf,
                split,
                generations,
                perf_seed(seed, i),
                work_dir,
                &accumulator,
                &mut counters,
                t,
            )
        })?;
        wall_s += started.elapsed().as_secs_f64();
        perfs.push(out);
        after_each(&perfs, tracer)?;
    }
    Ok(SearchOutcome {
        perfs,
        wall_s,
        counters,
    })
}

#[allow(clippy::too_many_arguments)]
fn search_one(
    perf: PerfId,
    split: &SplitDataset,
    generations: usize,
    seed: u64,
    work_dir: &Path,
    accumulator: &Arc<PhaseAccumulator>,
    counters: &mut SearchCounters,
    t: &mut Tracer,
) -> Result<PerfOutcome, String> {
    let mut settings = CaffeineSettings::paper();
    settings.population = POPULATION;
    settings.generations = generations;
    settings.max_bases = MAX_BASES;
    settings.seed = seed;
    settings.stats_every = (settings.generations / 10).max(1);
    let grammar = GrammarConfig::paper_full(OTA_VAR_NAMES.len());
    let config = RuntimeConfig {
        threads: THREADS,
        islands: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        ..RuntimeConfig::default()
    };
    let checkpoint_path = work_dir.join(format!("{}.ckpt", perf.name()));
    let group = perf as u64;

    let (evaluator, mut state) = t.span("core.init", group, |t| {
        let mut evaluator = ParallelEvaluator::new(
            DatasetEvaluator::new(&settings, &grammar, &split.train).map_err(|e| e.to_string())?,
            THREADS,
        );
        // Attaching the accumulator times every fit, so only the traced
        // run pays for it.
        if t.enabled() {
            evaluator.set_phases(Arc::clone(accumulator));
        }
        let state = EngineState::new(settings.clone(), grammar.clone(), &evaluator)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((evaluator, state))
    })?;
    // Cache and CPU counters cover the generations, not the initial
    // population.
    let before = (
        accumulator.get(phases::BASIS_EVAL),
        accumulator.get(phases::LINEAR_SOLVE),
        accumulator.get(phases::CACHE_HITS),
        accumulator.get(phases::CACHE_MISSES),
    );

    let save = |state: &EngineState, t: &mut Tracer| -> Result<(), String> {
        t.span("runtime.checkpoint", group, |_| {
            RuntimeCheckpoint {
                version: RuntimeCheckpoint::VERSION,
                master: settings.clone(),
                grammar: grammar.clone(),
                config: config.clone(),
                completed: state.generation,
                islands: vec![state.clone()],
                n_vars: split.train.n_vars(),
                n_samples: split.train.n_samples(),
            }
            .save(&checkpoint_path)
            .map_err(|e| e.to_string())
        })
    };
    while !state.is_done() {
        let generation = (group << 32) | state.generation as u64;
        if t.enabled() {
            t.span("core.generation", generation, |t| {
                let timed = TimedEvaluator {
                    inner: &evaluator,
                    tracer: RefCell::new(t),
                    group: generation,
                    evaluated: Cell::new(0),
                    feasible: Cell::new(0),
                };
                state.step(&timed);
                counters.evaluated += timed.evaluated.get();
                counters.feasible += timed.feasible.get();
            });
            counters.generations += 1;
        } else {
            state.step(&evaluator);
        }
        if state.generation % CHECKPOINT_EVERY == 0 {
            save(&state, t)?;
        }
    }
    save(&state, t)?;
    let _ = std::fs::remove_file(&checkpoint_path);
    if t.enabled() {
        counters.basis_eval_ns += accumulator.get(phases::BASIS_EVAL) - before.0;
        counters.linear_solve_ns += accumulator.get(phases::LINEAR_SOLVE) - before.1;
        counters.cache_hits += accumulator.get(phases::CACHE_HITS) - before.2;
        counters.cache_misses += accumulator.get(phases::CACHE_MISSES) - before.3;
    }

    let result = t.span("core.harvest", group, |_| {
        let anchor = evaluator.inner().constant_model(state.grammar.weights);
        let stats = std::mem::take(&mut state.stats);
        assemble_result(state.harvest(), anchor, stats).map_err(|e| e.to_string())
    })?;
    let sag = SagSettings {
        min_improvement: 1.0,
        metric: settings.metric,
        complexity: settings.complexity,
    };
    let simplified = t.span("core.sag", group, |_| {
        simplify_front(&result.models, &split.train, &split.test, &sag)
    });
    let (simplified, target, row) = t.span("core.pick", group, |_| {
        let simplified = caffeine_core::pareto::train_tradeoff(&simplified);
        let (target, row) = table1_pick(&simplified);
        (simplified, target, row)
    });
    Ok(PerfOutcome {
        perf,
        front: result.models,
        simplified,
        target,
        row,
    })
}

/// The `table1` binary's pick: target `min(10 %, 0.4 × constant-model
/// error)`, then the simplest model under target on train and test error.
fn table1_pick(simplified: &[Model]) -> (f64, Option<Model>) {
    let constant_err = simplified
        .iter()
        .find(|m| m.n_bases() == 0)
        .map_or(0.10, |m| m.train_error);
    let target = (0.4 * constant_err).min(0.10);
    let row = simplified
        .iter()
        .filter(|m| m.train_error < target && m.test_error.is_some_and(|t| t < target))
        .min_by(|a, b| a.complexity.total_cmp(&b.complexity))
        .cloned();
    (target, row)
}

/// The correctness gate for one Table I row: its qwc and qtc recomputed
/// with `Model::error_on` must match the recorded ones.
pub fn check_row(out: &PerfOutcome, split: &SplitDataset) -> Result<(), String> {
    let Some(row) = &out.row else {
        return Ok(());
    };
    let metric = CaffeineSettings::paper().metric;
    let qwc = row.error_on(split.train.points(), split.train.targets(), &metric);
    let qtc = row.error_on(split.test.points(), split.test.targets(), &metric);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let recorded_qtc = row.test_error.unwrap_or(f64::NAN);
    if close(qwc, row.train_error) && close(qtc, recorded_qtc) {
        Ok(())
    } else {
        Err(format!(
            "{}: recomputed qwc {qwc} / qtc {qtc} differ from recorded {} / {recorded_qtc}",
            out.perf.name(),
            row.train_error
        ))
    }
}

/// The Table I row as the `table1` binary prints it.
pub fn format_row(out: &PerfOutcome) -> String {
    let pct = |x: f64| format!("{:.2}%", 100.0 * x);
    let opts = FormatOptions::with_names(OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect());
    match &out.row {
        Some(m) => {
            let expr = if out.perf.log_scaled() {
                format!("10^( {} )", m.format(&opts))
            } else {
                m.format(&opts)
            };
            format!(
                "{:<8} {:>8} {:>8} {:>8}  {}",
                out.perf.name(),
                pct(out.target),
                pct(m.train_error),
                pct(m.test_error.unwrap_or(f64::NAN)),
                expr
            )
        }
        None => format!(
            "{:<8} {:>8} {:>8} {:>8}  (no model under target)",
            out.perf.name(),
            pct(out.target),
            "-",
            "-"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_table1_seeds() {
        let seeds: Vec<u64> = (0..6).map(|i| perf_seed(1, i)).collect();
        assert_eq!(seeds, vec![101, 202, 303, 404, 505, 606]);
        assert_ne!(perf_seed(2, 0), perf_seed(1, 0));
        assert_ne!(perf_seed(0, 5), perf_seed(1, 5));
    }
}
