//! Checkpoint snapshots: the full runner state as JSON on disk.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use caffeine_core::{CaffeineError, CaffeineSettings, EngineState, GrammarConfig};

use crate::config::RuntimeConfig;
use crate::durable::{durable_files, write_durable};

/// Runtime error: the engine's own failures plus checkpoint IO/decode.
#[derive(Debug)]
pub enum RuntimeError {
    /// An engine/validation failure.
    Engine(CaffeineError),
    /// A checkpoint file could not be read or written.
    Io(std::io::Error),
    /// A checkpoint file was unreadable or inconsistent with the run.
    Corrupt(String),
    /// The attached [`crate::RunController`] cancelled the run before it
    /// finished. Not a failure of the run: no final checkpoint was
    /// written, so it can resume from its last scheduled one.
    Cancelled,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Engine(e) => write!(f, "{e}"),
            RuntimeError::Io(e) => write!(f, "checkpoint IO failure: {e}"),
            RuntimeError::Corrupt(msg) => write!(f, "checkpoint unusable: {msg}"),
            RuntimeError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Engine(e) => Some(e),
            RuntimeError::Io(e) => Some(e),
            RuntimeError::Corrupt(_) | RuntimeError::Cancelled => None,
        }
    }
}

impl From<CaffeineError> for RuntimeError {
    fn from(e: CaffeineError) -> Self {
        RuntimeError::Engine(e)
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

/// A complete, resumable snapshot of an [`crate::IslandRunner`].
///
/// Contains every island's population *and* RNG position, so resuming
/// reproduces the uninterrupted run bit for bit. The dataset itself is not
/// stored (it can be large and lives in the user's files); its shape is,
/// and is re-validated on resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeCheckpoint {
    /// Format version (see [`RuntimeCheckpoint::VERSION`]).
    pub version: u32,
    /// The master settings the run was started with.
    pub master: CaffeineSettings,
    /// The grammar configuration.
    pub grammar: GrammarConfig,
    /// The runtime configuration.
    pub config: RuntimeConfig,
    /// Completed generations.
    pub completed: usize,
    /// Every island's full engine state.
    pub islands: Vec<EngineState>,
    /// Variable count of the training dataset (resume validation).
    pub n_vars: usize,
    /// Sample count of the training dataset (resume validation).
    pub n_samples: usize,
}

impl RuntimeCheckpoint {
    /// Current checkpoint format version. Version 2 came with the
    /// Gram-space weight fit: a version-1 run resumed by it would
    /// continue with different arithmetic, so it is refused.
    pub const VERSION: u32 = 2;

    /// Writes the checkpoint as JSON through [`write_durable`]: when this
    /// returns `Ok`, `path` holds the complete, fsynced snapshot, and an
    /// interruption at any point leaves `path` as the previous or the new
    /// complete snapshot.
    ///
    /// The superseded snapshot is never deleted, because freeing its
    /// blocks costs far more than the write itself on some filesystems
    /// (tens of milliseconds on ext4 with `discard`). It stays on disk as
    /// `<path>.partial` and the next save overwrites it in place; when it
    /// is longer than the new snapshot, the tail is padded with spaces,
    /// which JSON ignores. So a reader holding `path` open across two
    /// saves can see its inode rewritten under it; [`RuntimeCheckpoint::load`]
    /// reads the file in one call. Each save also fsyncs the directory,
    /// so the renames are on disk before the next save overwrites the
    /// superseded inode in place. Saves to one `path` must not run
    /// concurrently. [`RuntimeCheckpoint::files`] names the checkpoint
    /// with its staging files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), RuntimeError> {
        let json = serde_json::to_string(self).map_err(|e| RuntimeError::Corrupt(e.to_string()))?;
        write_durable(path, json.as_bytes())?;
        Ok(())
    }

    /// The checkpoint at `path` and the staging files its saves keep
    /// beside it (`<path>.partial`, and `<path>.prev` after a crash
    /// mid-save), whether or not they exist: removing all of them
    /// removes every file a save leaves.
    pub fn files(path: &Path) -> [PathBuf; 3] {
        durable_files(path)
    }

    /// Reads a checkpoint back from disk.
    ///
    /// The `version` field is inspected *before* the typed decode, so a
    /// checkpoint written by a future format — which may have renamed or
    /// dropped fields — fails with a clear version message instead of a
    /// missing-field error.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] for filesystem failures,
    /// [`RuntimeError::Corrupt`] for undecodable or version-mismatched
    /// files.
    pub fn load(path: &Path) -> Result<RuntimeCheckpoint, RuntimeError> {
        let text = std::fs::read_to_string(path)?;
        let value: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| RuntimeError::Corrupt(format!("{}: {e}", path.display())))?;
        let declared = value["version"].as_u64().ok_or_else(|| {
            RuntimeError::Corrupt(format!(
                "{}: not a checkpoint (missing `version`)",
                path.display()
            ))
        })?;
        if declared != u64::from(RuntimeCheckpoint::VERSION) {
            return Err(RuntimeError::Corrupt(format!(
                "checkpoint version {declared} (this build reads {})",
                RuntimeCheckpoint::VERSION
            )));
        }
        serde::Deserialize::from_value(&value)
            .map_err(|e: serde::Error| RuntimeError::Corrupt(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_version_checkpoints_fail_with_the_version_not_a_field_error() {
        let dir = std::env::temp_dir().join(format!("caffeine-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A "future" checkpoint: right version field, unrecognizable rest.
        let path = dir.join("future.ckpt");
        std::fs::write(&path, "{\"version\": 99, \"archipelago\": {}}").unwrap();
        let err = RuntimeCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        // Not a checkpoint at all.
        let path = dir.join("not.ckpt");
        std::fs::write(&path, "{\"models\": []}").unwrap();
        let err = RuntimeCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("missing `version`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_checkpoints_are_refused_naming_both_versions() {
        use caffeine_core::DatasetEvaluator;
        use caffeine_doe::Dataset;

        let xs: Vec<Vec<f64>> = (1..=8).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 / x[0]).collect();
        let data = Dataset::new(vec!["x0".into()], xs, ys).unwrap();
        let mut settings = CaffeineSettings::quick_test();
        settings.population = 6;
        let grammar = GrammarConfig::rational(1);
        let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let state = EngineState::new(settings.clone(), grammar.clone(), &evaluator).unwrap();
        let checkpoint = RuntimeCheckpoint {
            version: 1,
            master: settings,
            grammar,
            config: RuntimeConfig::default(),
            completed: 0,
            islands: vec![state],
            n_vars: 1,
            n_samples: 8,
        };
        let dir = std::env::temp_dir().join(format!("caffeine-ckpt-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.ckpt");
        checkpoint.save(&path).unwrap();
        let err = RuntimeCheckpoint::load(&path).unwrap_err();
        assert_eq!(
            err.to_string(),
            RuntimeError::Corrupt("checkpoint version 1 (this build reads 2)".into()).to_string()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
