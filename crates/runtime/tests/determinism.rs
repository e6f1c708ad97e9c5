//! Determinism guarantees of the runtime: thread count must never change
//! a result, the evaluator's run-long column caches must never change a
//! bit, islands must reduce to the plain serial step loop at K = 1, and a
//! resumed checkpoint must match the uninterrupted run.

use std::cell::RefCell;
use std::collections::HashSet;

use caffeine_core::expr::{complexity, EvalContext};
use caffeine_core::fit::{fit_linear_weights, FitOutcome};
use caffeine_core::gp::{Evaluation, Individual};
use caffeine_core::{
    assemble_result, CaffeineSettings, DatasetEvaluator, EngineState, Evaluator, FitScratch,
    GrammarConfig, Model,
};
use caffeine_doe::Dataset;
use caffeine_runtime::{IslandRunner, ParallelEvaluator, RuntimeCheckpoint, RuntimeConfig};

fn ota_like_dataset() -> Dataset {
    // 3 variables, multiplicative/rational target — the shape of the
    // paper's OTA performances, sized for test speed.
    let mut xs = Vec::new();
    for i in 0..36 {
        xs.push(vec![
            0.5 + (i % 6) as f64 * 0.4,
            1.0 + (i / 6) as f64 * 0.3,
            0.8 + ((i * 5) % 7) as f64 * 0.25,
        ]);
    }
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 3.0 * x[0] / x[1] + 0.5 * x[2] + 1.0 / (x[0] * x[2]))
        .collect();
    Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()], xs, ys).unwrap()
}

fn settings() -> CaffeineSettings {
    let mut s = CaffeineSettings::quick_test();
    s.population = 40;
    s.generations = 15;
    s.seed = 29;
    s.stats_every = 5;
    s
}

fn front_errors(models: &[caffeine_core::Model]) -> Vec<(u64, u64)> {
    models
        .iter()
        .map(|m| (m.train_error.to_bits(), m.complexity.to_bits()))
        .collect()
}

/// The reference evaluator: per-individual tree-walk fits, no tapes, no
/// cache, scored as `DatasetEvaluator` scores (the uncached side of
/// `caffeine-core`'s `tests/cache_determinism.rs`).
struct UncachedEvaluator<'a> {
    data: &'a Dataset,
    settings: &'a CaffeineSettings,
    ctx: EvalContext,
}

impl Evaluator for UncachedEvaluator<'_> {
    fn evaluate_all(&self, population: &mut [Individual]) {
        for ind in population.iter_mut().filter(|ind| ind.eval.is_none()) {
            let cx = complexity(&ind.bases, &self.settings.complexity);
            let fit = fit_linear_weights(
                &ind.bases,
                self.data.points(),
                self.data.targets(),
                &self.ctx,
            );
            let (coefficients, err) = match fit {
                FitOutcome::Fit(fit) => {
                    let err = self
                        .settings
                        .metric
                        .compute(&fit.predictions, self.data.targets());
                    (fit.coefficients, err)
                }
                FitOutcome::Infeasible => (vec![0.0; ind.bases.len() + 1], f64::NAN),
            };
            let feasible = err.is_finite();
            ind.eval = Some(Evaluation {
                coefficients,
                train_error: if feasible {
                    err
                } else {
                    self.settings.infeasible_error
                },
                complexity: cx,
                feasible,
            });
        }
    }
}

/// Every bit of a front's models that a caller reads.
fn front_bits(models: &[Model]) -> Vec<Vec<u64>> {
    models
        .iter()
        .map(|m| {
            m.coefficients
                .iter()
                .map(|c| c.to_bits())
                .chain([m.train_error.to_bits(), m.complexity.to_bits()])
                .collect()
        })
        .collect()
}

/// The persistent evaluator — one scratch per thread, each cache kept
/// from batch to batch — drives a run byte-identical to the uncached
/// tree-walk run: population after every generation, statistics and
/// harvested front.
#[test]
fn run_long_caches_match_the_uncached_run_bitwise() {
    let data = ota_like_dataset();
    let settings = settings();
    // The full paper grammar exercises every operator family.
    let grammar = GrammarConfig::paper_full(3);
    let uncached = UncachedEvaluator {
        data: &data,
        settings: &settings,
        ctx: EvalContext::new(grammar.weights),
    };
    let mut reference = EngineState::new(settings.clone(), grammar.clone(), &uncached).unwrap();
    let mut populations = Vec::new();
    while !reference.is_done() {
        reference.step(&uncached);
        populations.push(reference.population.clone());
    }
    assert!(populations.len() >= 15);
    let anchor = DatasetEvaluator::new(&settings, &grammar, &data)
        .unwrap()
        .constant_model(grammar.weights);
    let reference_front = assemble_result(reference.harvest(), anchor.clone(), vec![]).unwrap();

    for threads in [1, 3] {
        let evaluator = ParallelEvaluator::new(
            DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
            threads,
        );
        let mut state = EngineState::new(settings.clone(), grammar.clone(), &evaluator).unwrap();
        for (g, expect) in populations.iter().enumerate() {
            state.step(&evaluator);
            assert_eq!(
                &state.population, expect,
                "{threads} threads: population diverged at generation {g}"
            );
        }
        assert_eq!(state.stats, reference.stats, "{threads} threads: stats");
        let front = assemble_result(state.harvest(), anchor.clone(), vec![]).unwrap();
        assert_eq!(front.models, reference_front.models);
        assert_eq!(
            front_bits(&front.models),
            front_bits(&reference_front.models),
            "{threads} threads: front bits"
        );
    }
}

/// What one batch of [`Recording`] saw.
struct BatchRecord {
    /// The bases of the batch's unevaluated individuals, by their exact
    /// `Debug` text (which tells `-0.0` from `0.0`).
    bases: HashSet<String>,
    /// Columns the scratch held after the batch.
    cached: usize,
    /// Cache hits of the batch, and of the same batch on a fresh scratch.
    hits: u64,
    fresh_hits: u64,
}

/// `DatasetEvaluator` through one scratch kept for the whole run, as a
/// thread of `ParallelEvaluator` keeps its own; records every batch and
/// checks it against the same batch on a fresh scratch.
struct Recording<'a> {
    inner: DatasetEvaluator<'a>,
    scratch: RefCell<FitScratch>,
    batches: RefCell<Vec<BatchRecord>>,
}

impl Evaluator for Recording<'_> {
    fn evaluate_all(&self, population: &mut [Individual]) {
        let bases = population
            .iter()
            .filter(|ind| ind.eval.is_none())
            .flat_map(|ind| &ind.bases)
            .map(|b| format!("{b:?}"))
            .collect();
        let mut fresh = FitScratch::new();
        let mut expect = population.to_vec();
        self.inner.evaluate_batch(&mut expect, &mut fresh);
        let mut scratch = self.scratch.borrow_mut();
        let hits = scratch.cache_hits();
        self.inner.evaluate_batch(population, &mut scratch);
        assert_eq!(population, &expect[..], "a kept column changed a fit");
        self.batches.borrow_mut().push(BatchRecord {
            bases,
            cached: scratch.cached_columns(),
            hits: scratch.cache_hits() - hits,
            fresh_hits: fresh.cache_hits(),
        });
    }
}

/// The cache stays bounded as it outlives batches: after each batch it
/// holds no more columns than that batch and the one before it looked up
/// between them, and the columns it keeps do serve hits.
#[test]
fn a_kept_cache_holds_only_the_last_two_batches_columns() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::paper_full(3);
    let evaluator = Recording {
        inner: DatasetEvaluator::new(&settings(), &grammar, &data).unwrap(),
        scratch: RefCell::new(FitScratch::new()),
        batches: RefCell::new(Vec::new()),
    };
    let mut state = EngineState::new(settings(), grammar, &evaluator).unwrap();
    while !state.is_done() {
        state.step(&evaluator);
    }
    let batches = evaluator.batches.borrow();
    assert!(batches.len() > 15, "{} batches", batches.len());
    assert!(batches[0].cached <= batches[0].bases.len());
    for (b, pair) in batches.windows(2).enumerate() {
        let seen = pair[0].bases.union(&pair[1].bases).count();
        assert!(
            pair[1].cached <= seen,
            "batch {}: {} columns cached, {seen} bases in it and the batch before",
            b + 1,
            pair[1].cached
        );
    }
    let kept: u64 = batches.iter().map(|r| r.hits).sum();
    let fresh: u64 = batches.iter().map(|r| r.fresh_hits).sum();
    assert!(
        kept > fresh,
        "kept columns served no hits: {kept} vs {fresh}"
    );
}

#[test]
fn thread_count_never_changes_the_front() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let mut fronts = Vec::new();
    for threads in [1, 2, 8] {
        let config = RuntimeConfig {
            threads,
            islands: 1,
            ..RuntimeConfig::default()
        };
        let mut runner = IslandRunner::new(settings(), grammar.clone(), config, &data).unwrap();
        let result = runner.run(&data).unwrap();
        fronts.push((threads, front_errors(&result.models)));
    }
    for w in fronts.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "fronts differ between {} and {} threads",
            w[0].0, w[1].0
        );
    }
}

#[test]
fn islands_are_deterministic_across_thread_counts() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let run = |threads: usize| {
        let config = RuntimeConfig {
            threads,
            islands: 4,
            migrate_every: 4,
            migrants: 2,
            ..RuntimeConfig::default()
        };
        let mut runner = IslandRunner::new(settings(), grammar.clone(), config, &data).unwrap();
        front_errors(&runner.run(&data).unwrap().models)
    };
    assert_eq!(run(1), run(8), "island run depends on thread count");
}

#[test]
fn one_island_matches_the_serial_engine_exactly() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);

    // The reference is the engine's own surface, driven by hand:
    // init → step × generations → harvest → assemble.
    let evaluator = DatasetEvaluator::new(&settings(), &grammar, &data).unwrap();
    let mut state = EngineState::new(settings(), grammar.clone(), &evaluator).unwrap();
    while !state.is_done() {
        state.step(&evaluator);
    }
    let anchor = evaluator.constant_model(grammar.weights);
    let reference = assemble_result(state.harvest(), anchor, state.stats.clone()).unwrap();

    let config = RuntimeConfig {
        threads: 4,
        islands: 1,
        ..RuntimeConfig::default()
    };
    let mut runner = IslandRunner::new(settings(), grammar, config, &data).unwrap();
    let result = runner.run(&data).unwrap();

    assert_eq!(
        front_errors(&reference.models),
        front_errors(&result.models)
    );
    assert_eq!(reference.stats, result.stats);
}

#[test]
fn islands_change_the_search_but_keep_the_contract() {
    // Not an equivalence test — K islands is a *different* (coarser-
    // grained) search — but the result must still be a valid front.
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let config = RuntimeConfig {
        threads: 2,
        islands: 3,
        migrate_every: 5,
        migrants: 1,
        ..RuntimeConfig::default()
    };
    let mut runner = IslandRunner::new(settings(), grammar, config, &data).unwrap();
    let result = runner.run(&data).unwrap();
    assert!(!result.models.is_empty());
    for w in result.models.windows(2) {
        assert!(w[0].complexity <= w[1].complexity, "front not sorted");
    }
    // The constant anchor is present.
    assert!(result.models.iter().any(|m| m.complexity == 0.0));
}

#[test]
fn resumed_checkpoint_matches_uninterrupted_run() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let config = RuntimeConfig {
        threads: 2,
        islands: 2,
        migrate_every: 4,
        migrants: 1,
        ..RuntimeConfig::default()
    };

    // Uninterrupted reference.
    let mut full = IslandRunner::new(settings(), grammar.clone(), config.clone(), &data).unwrap();
    let reference = full.run(&data).unwrap();

    // Interrupted run: 7 generations, snapshot (through JSON text, the
    // same path the CLI uses), rebuild, continue.
    let mut first = IslandRunner::new(settings(), grammar.clone(), config.clone(), &data).unwrap();
    first.run_generations(&data, 7).unwrap();
    assert_eq!(first.completed_generations(), 7);
    let json = serde_json::to_string(&first.checkpoint(&data)).unwrap();
    drop(first);

    let checkpoint: RuntimeCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(checkpoint.completed, 7);
    let mut resumed = IslandRunner::from_checkpoint(checkpoint, &data).unwrap();
    let result = resumed.run(&data).unwrap();

    assert_eq!(
        front_errors(&reference.models),
        front_errors(&result.models)
    );
    assert_eq!(reference.stats, result.stats);
}

#[test]
fn checkpoint_file_round_trip_and_validation() {
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let mut runner =
        IslandRunner::new(settings(), grammar, RuntimeConfig::default(), &data).unwrap();
    runner.run_generations(&data, 3).unwrap();

    let dir = std::env::temp_dir().join("caffeine-runtime-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.json");
    runner.checkpoint(&data).save(&path).unwrap();
    let loaded = RuntimeCheckpoint::load(&path).unwrap();
    assert_eq!(loaded.completed, 3);

    // A mismatched dataset is rejected on resume.
    let other = Dataset::new(
        vec!["a".into()],
        vec![vec![1.0], vec![2.0], vec![3.0]],
        vec![1.0, 2.0, 3.0],
    )
    .unwrap();
    assert!(IslandRunner::from_checkpoint(loaded, &other).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn events_are_emitted_in_order() {
    use caffeine_runtime::RunEvent;
    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let config = RuntimeConfig {
        threads: 1,
        islands: 2,
        migrate_every: 5,
        migrants: 1,
        ..RuntimeConfig::default()
    };
    let mut runner = IslandRunner::new(settings(), grammar, config, &data).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    runner.set_events(tx);
    runner.run(&data).unwrap();
    let events: Vec<RunEvent> = rx.try_iter().collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RunEvent::Progress { .. })),
        "no progress events"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RunEvent::Migrated { .. })),
        "no migration events"
    );
    assert!(
        matches!(events.last(), Some(RunEvent::Finished { generation }) if *generation == 15),
        "missing final event: {:?}",
        events.last()
    );
}

#[test]
fn cancelled_run_resumes_to_the_uninterrupted_result() {
    use caffeine_runtime::{RunController, RunEvent, RuntimeError};

    let data = ota_like_dataset();
    let grammar = GrammarConfig::rational(3);
    let config = RuntimeConfig {
        checkpoint_every: 1,
        ..RuntimeConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("caffeine-cancel-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    for file in RuntimeCheckpoint::files(&path) {
        std::fs::remove_file(file).ok();
    }

    // A total the run cannot reach before the cancel lands; the cancel
    // waits for one completed generation, so a checkpoint exists.
    let mut long = settings();
    long.generations = 100_000;
    let mut runner = IslandRunner::new(long, grammar.clone(), config.clone(), &data).unwrap();
    runner.set_checkpoint_path(&path);
    let (tx, rx) = std::sync::mpsc::channel();
    runner.set_events(tx);
    let ctl = RunController::new();
    runner.set_controller(ctl.clone());
    let canceller = std::thread::spawn(move || {
        while ctl.snapshot().completed_generations == 0 {
            std::thread::yield_now();
        }
        ctl.cancel();
    });
    let outcome = runner.run(&data);
    canceller.join().unwrap();
    assert!(
        matches!(outcome, Err(RuntimeError::Cancelled)),
        "{outcome:?}"
    );
    let events: Vec<RunEvent> = rx.try_iter().collect();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RunEvent::Finished { .. })),
        "a cancelled run emitted Finished"
    );

    // Wherever the cancel landed, the last scheduled checkpoint holds
    // exactly the generations the runner completed.
    let cancelled_at = runner.completed_generations();
    let checkpoint = RuntimeCheckpoint::load(&path).unwrap();
    assert_eq!(checkpoint.completed, cancelled_at);
    assert!(cancelled_at >= 1 && cancelled_at < runner.total_generations());
    drop(runner);

    // Resuming and finishing a few generations past the cancel point
    // equals one uninterrupted run of that length.
    let total = cancelled_at + 5;
    let mut resumed = IslandRunner::from_checkpoint(checkpoint, &data).unwrap();
    resumed.set_total_generations(total);
    let result = resumed.run(&data).unwrap();

    let mut full_settings = settings();
    full_settings.generations = total;
    let mut full = IslandRunner::new(full_settings, grammar, config, &data).unwrap();
    let reference = full.run(&data).unwrap();

    assert_eq!(
        front_errors(&reference.models),
        front_errors(&result.models)
    );
    assert_eq!(reference.models, result.models);
    assert_eq!(reference.stats, result.stats);
    std::fs::remove_dir_all(&dir).ok();
}
