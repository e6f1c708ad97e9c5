//! Job control: a cloneable handle to cancel and observe a run while it
//! executes on another thread.
//!
//! A long-running service must be able to stop a run cleanly halfway
//! and show live progress to pollers. Attach a [`RunController`] to the
//! runner with [`IslandRunner::set_controller`] and keep a clone wherever
//! status queries or cancellation come from. [`IslandRunner::run`] then
//! checks the cancel flag before each generation and once more before
//! finishing, publishes a [`ProgressSnapshot`] after every generation,
//! and returns [`crate::RuntimeError::Cancelled`] when cancelled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use caffeine_core::EvolutionStats;

use crate::island::IslandRunner;
use crate::stats::PhaseBreakdown;

/// What the controller has most recently observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunPhase {
    /// Advancing generations.
    Running,
    /// A cancel request was honored; the run stopped early.
    Cancelled,
    /// Every generation completed.
    Finished,
}

impl RunPhase {
    /// Lowercase label (for JSON status endpoints).
    pub fn as_str(self) -> &'static str {
        match self {
            RunPhase::Running => "running",
            RunPhase::Cancelled => "cancelled",
            RunPhase::Finished => "finished",
        }
    }
}

/// A point-in-time view of a controlled run's progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Current phase.
    pub phase: RunPhase,
    /// Generations completed so far.
    pub completed_generations: usize,
    /// Total generations the run targets.
    pub total_generations: usize,
    /// The most recent island-0 statistics snapshot, when one exists.
    pub latest: Option<EvolutionStats>,
    /// Where the most recent stats interval's time went, once one
    /// interval has ended under this controller.
    pub phases: Option<PhaseBreakdown>,
}

#[derive(Debug)]
struct Shared {
    cancelled: AtomicBool,
    progress: Mutex<ProgressSnapshot>,
}

/// Shared cancel/progress handle for a run it is attached to with
/// [`IslandRunner::set_controller`]. Clones share state; every method is
/// safe to call from any thread at any time.
#[derive(Debug, Clone)]
pub struct RunController {
    inner: Arc<Shared>,
}

impl Default for RunController {
    fn default() -> Self {
        RunController::new()
    }
}

impl RunController {
    /// Creates a controller in the running phase with empty progress.
    pub fn new() -> RunController {
        RunController {
            inner: Arc::new(Shared {
                cancelled: AtomicBool::new(false),
                progress: Mutex::new(ProgressSnapshot {
                    phase: RunPhase::Running,
                    completed_generations: 0,
                    total_generations: 0,
                    latest: None,
                    phases: None,
                }),
            }),
        }
    }

    /// Requests cancellation; the driving thread stops before the next
    /// generation. Irreversible.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The current progress snapshot.
    pub fn snapshot(&self) -> ProgressSnapshot {
        self.inner.progress.lock().expect("controller lock").clone()
    }

    /// Whether cancellation was requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Records `runner`'s current progress under `phase`.
    pub(crate) fn publish(&self, runner: &IslandRunner, phase: RunPhase) {
        let latest = runner
            .islands()
            .first()
            .and_then(|i| i.stats.last().cloned());
        *self.inner.progress.lock().expect("controller lock") = ProgressSnapshot {
            phase,
            completed_generations: runner.completed_generations(),
            total_generations: runner.total_generations(),
            latest,
            phases: runner.last_phases().cloned(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_core::{CaffeineSettings, GrammarConfig};
    use caffeine_doe::Dataset;

    use crate::checkpoint::RuntimeError;
    use crate::config::RuntimeConfig;

    fn tiny_dataset() -> Dataset {
        let xs: Vec<Vec<f64>> = (1..=16).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 / x[0]).collect();
        Dataset::new(vec!["x0".into()], xs, ys).unwrap()
    }

    fn tiny_runner(generations: usize, data: &Dataset) -> IslandRunner {
        let mut settings = CaffeineSettings::quick_test();
        settings.population = 16;
        settings.generations = generations;
        settings.seed = 11;
        IslandRunner::new(
            settings,
            GrammarConfig::rational(1),
            RuntimeConfig::default(),
            data,
        )
        .unwrap()
    }

    #[test]
    fn controlled_run_matches_uncontrolled_run() {
        let data = tiny_dataset();
        let mut controlled = tiny_runner(6, &data);
        let mut plain = tiny_runner(6, &data);
        let ctl = RunController::new();
        controlled.set_controller(ctl.clone());
        let result = controlled.run(&data).unwrap();
        let reference = plain.run(&data).unwrap();
        assert_eq!(result.models, reference.models);
        let snap = ctl.snapshot();
        assert_eq!(snap.phase, RunPhase::Finished);
        assert_eq!(snap.completed_generations, 6);
        assert_eq!(snap.total_generations, 6);
    }

    #[test]
    fn cancel_stops_the_run_early() {
        let data = tiny_dataset();
        let mut runner = tiny_runner(5000, &data);
        let ctl = RunController::new();
        runner.set_controller(ctl.clone());
        let observer = ctl.clone();
        let handle = std::thread::spawn(move || {
            // Let a few generations pass, then cancel.
            loop {
                let snap = observer.snapshot();
                if snap.completed_generations >= 2 {
                    observer.cancel();
                    return;
                }
                std::thread::yield_now();
            }
        });
        let outcome = runner.run(&data);
        handle.join().unwrap();
        assert!(matches!(outcome, Err(RuntimeError::Cancelled)));
        let snap = ctl.snapshot();
        assert_eq!(snap.phase, RunPhase::Cancelled);
        assert!(snap.completed_generations < 5000);
    }

    #[test]
    fn phase_labels_are_lowercase() {
        assert_eq!(RunPhase::Running.as_str(), "running");
        assert_eq!(RunPhase::Cancelled.as_str(), "cancelled");
        assert_eq!(RunPhase::Finished.as_str(), "finished");
    }
}
