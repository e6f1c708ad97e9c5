//! Phase-telemetry integration: every progress event carries the
//! [`PhaseBreakdown`] of its stats interval, the intervals tile the run,
//! and the side channel never perturbs the evolved result.

use std::sync::mpsc;

use caffeine_core::{phases, CaffeineSettings, GrammarConfig};
use caffeine_doe::Dataset;
use caffeine_runtime::{IslandRunner, PhaseBreakdown, RunController, RunEvent, RuntimeConfig};

fn dataset() -> Dataset {
    let xs: Vec<Vec<f64>> = (1..=60)
        .map(|i| vec![0.4 + i as f64 * 0.1, 1.0 + (i % 7) as f64 * 0.3])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 3.0 / x[1]).collect();
    Dataset::new(vec!["x0".into(), "x1".into()], xs, ys).unwrap()
}

fn runner(
    threads: usize,
    islands: usize,
    generations: usize,
    stats_every: usize,
    data: &Dataset,
) -> IslandRunner {
    let mut settings = CaffeineSettings::quick_test();
    settings.population = 60;
    settings.generations = generations;
    settings.stats_every = stats_every;
    settings.seed = 23;
    let config = RuntimeConfig {
        threads,
        islands,
        migrate_every: 2,
        ..RuntimeConfig::default()
    };
    IslandRunner::new(settings, GrammarConfig::rational(2), config, data).unwrap()
}

/// The `(island, breakdown)` of every Progress event, in arrival order.
fn progress(rx: mpsc::Receiver<RunEvent>) -> Vec<(usize, PhaseBreakdown)> {
    rx.into_iter()
        .filter_map(|e| match e {
            RunEvent::Progress { island, phases, .. } => Some((island, phases)),
            _ => None,
        })
        .collect()
}

/// A duration field in whole nanoseconds, the unit the runtime records.
fn ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// On one worker thread the five phases tile the interval's wall time to
/// the nanosecond: every phase is timed inside a generation, and what the
/// spans leave over is `eval_other` or `selection` by construction.
fn assert_phases_tile_wall(b: &PhaseBreakdown) {
    let phases: u64 = [
        b.basis_eval,
        b.linear_solve,
        b.eval_other,
        b.selection,
        b.migration,
    ]
    .into_iter()
    .map(ns)
    .sum();
    assert_eq!(phases, ns(b.wall), "phases do not sum to wall: {b:?}");
}

#[test]
fn serial_phase_sums_account_for_generation_wall_time() {
    let data = dataset();
    let mut runner = runner(1, 1, 12, 1, &data);
    let (tx, rx) = mpsc::channel();
    runner.set_events(tx);
    runner.run_generations(&data, 12).unwrap();
    drop(runner);

    let breakdowns: Vec<PhaseBreakdown> = progress(rx).into_iter().map(|(_, b)| b).collect();
    assert_eq!(breakdowns.len(), 12, "one breakdown per generation");
    for b in &breakdowns {
        assert!(b.wall > 0.0, "wall must be measured: {b:?}");
        assert_eq!(b.migration, 0.0, "single island never migrates: {b:?}");
        assert_phases_tile_wall(b);
    }
    // The basis cache sees traffic every generation.
    let lookups: u64 = breakdowns
        .iter()
        .map(|b| b.cache_hits + b.cache_misses)
        .sum();
    assert!(lookups > 0, "no cache traffic recorded");
    let ratio = breakdowns
        .last()
        .and_then(PhaseBreakdown::cache_hit_ratio)
        .unwrap_or(0.0);
    assert!((0.0..=1.0).contains(&ratio), "ratio out of range: {ratio}");
}

#[test]
fn stats_intervals_tile_the_run() {
    let data = dataset();
    let mut runner = runner(1, 2, 12, 4, &data);
    let (tx, rx) = mpsc::channel();
    runner.set_events(tx);
    runner.run_generations(&data, 12).unwrap();
    let acc = std::sync::Arc::clone(runner.phases());
    drop(runner);

    let events = progress(rx);
    let island0: Vec<&PhaseBreakdown> = events
        .iter()
        .filter(|(island, _)| *island == 0)
        .map(|(_, b)| b)
        .collect();
    // Stats generations 0, 4, 8 and the last one close the intervals.
    let ends: Vec<usize> = island0.iter().map(|b| b.generation).collect();
    assert_eq!(ends, vec![1, 5, 9, 12]);
    // Every island's Progress of an interval carries the same breakdown.
    for (_, b) in &events {
        assert!(island0.contains(&b), "island breakdown differs: {b:?}");
    }
    // The intervals are disjoint and in order in real time, and on one
    // thread each one's phases, migration included, tile its wall time.
    for b in &island0 {
        assert!(b.start_unix_ns <= b.end_unix_ns, "{b:?}");
        assert_phases_tile_wall(b);
    }
    for pair in island0.windows(2) {
        assert!(pair[0].end_unix_ns <= pair[1].start_unix_ns, "{pair:?}");
    }

    // The intervals tile the run: their sums are the runner's totals.
    let wall_ns: u64 = island0.iter().map(|b| ns(b.wall)).sum();
    assert_eq!(wall_ns, acc.get(phases::GENERATION));
    let migration_ns: u64 = island0.iter().map(|b| ns(b.migration)).sum();
    assert_eq!(migration_ns, acc.get(phases::MIGRATION));
    let hits: u64 = island0.iter().map(|b| b.cache_hits).sum();
    let misses: u64 = island0.iter().map(|b| b.cache_misses).sum();
    assert_eq!(hits, acc.get(phases::CACHE_HITS));
    assert_eq!(misses, acc.get(phases::CACHE_MISSES));
    assert!(hits + misses > 0, "no cache traffic recorded");
}

#[test]
fn migration_generations_record_migration_time() {
    let data = dataset();
    let mut runner = runner(2, 2, 4, 1, &data);
    let (tx, rx) = mpsc::channel();
    runner.set_events(tx);
    runner.run_generations(&data, 4).unwrap();
    let last = runner.last_phases().cloned().expect("ran generations");
    drop(runner);
    // Generation 4 is a migrate_every=2 boundary.
    assert_eq!(last.generation, 4);
    assert!(
        last.migration > 0.0,
        "migration span not recorded: {last:?}"
    );

    // Progress events still arrive before the Migrated marker of the
    // same generation, now with phase payloads attached.
    let events: Vec<RunEvent> = rx.into_iter().collect();
    let first_migrated = events
        .iter()
        .position(|e| matches!(e, RunEvent::Migrated { generation: 2 }))
        .expect("migration event");
    let progress_gen2 = events
        .iter()
        .position(|e| matches!(e, RunEvent::Progress { phases, .. } if phases.generation == 2))
        .expect("gen-2 progress event");
    assert!(
        progress_gen2 < first_migrated,
        "Progress must precede Migrated"
    );
}

#[test]
fn controller_snapshot_exposes_last_breakdown() {
    let data = dataset();
    let mut runner = runner(1, 1, 3, 1, &data);
    let ctl = RunController::new();
    assert!(ctl.snapshot().phases.is_none(), "no phases before running");
    runner.set_controller(ctl.clone());
    runner.run(&data).unwrap();
    let snap = ctl.snapshot();
    let phases = snap.phases.expect("breakdown after a controlled run");
    assert_eq!(phases.generation, 3);
    assert!(phases.wall > 0.0);

    // The breakdown round-trips through JSON (it rides in SSE frames).
    let json = serde_json::to_string(&serde_json::to_value(&phases)).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let back: PhaseBreakdown = serde::Deserialize::from_value(&value).unwrap();
    assert_eq!(back, phases);
}

#[test]
fn telemetry_never_changes_the_evolved_result() {
    // The accumulator is a side channel: a run observed through events
    // and breakdowns is bit-identical to an unobserved one.
    let data = dataset();
    let mut observed = runner(2, 2, 6, 1, &data);
    let (tx, rx) = mpsc::channel();
    observed.set_events(tx);
    let with_events = observed.run(&data).unwrap();
    drop(rx);
    let mut plain = runner(2, 2, 6, 1, &data);
    let without = plain.run(&data).unwrap();
    assert_eq!(with_events.models, without.models);
}
