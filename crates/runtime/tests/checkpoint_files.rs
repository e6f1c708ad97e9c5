//! Checkpoint files on disk: every save publishes a complete snapshot,
//! recovers from whatever a crash mid-save left behind, and reuses the
//! superseded snapshot's inode instead of freeing it.

use std::path::{Path, PathBuf};

use caffeine_core::{CaffeineSettings, GrammarConfig};
use caffeine_doe::Dataset;
use caffeine_runtime::{IslandRunner, RuntimeCheckpoint, RuntimeConfig};

/// A fresh, empty directory for one test.
fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("caffeine-ckpt-files-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// A checkpoint of a short run, with `copies` copies of its island so
/// its size can be made to grow and shrink.
fn checkpoint(copies: usize) -> RuntimeCheckpoint {
    let xs: Vec<Vec<f64>> = (1..=24).map(|i| vec![0.5 + i as f64 * 0.2]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 / x[0]).collect();
    let data = Dataset::new(vec!["x0".into()], xs, ys).unwrap();
    let mut settings = CaffeineSettings::quick_test();
    settings.population = 12;
    settings.generations = 4;
    settings.seed = 5;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(1),
        RuntimeConfig::default(),
        &data,
    )
    .unwrap();
    runner.run_generations(&data, 2).unwrap();
    let mut ckpt = runner.checkpoint(&data);
    let island = ckpt.islands[0].clone();
    ckpt.islands = vec![island; copies];
    ckpt
}

fn json(ckpt: &RuntimeCheckpoint) -> String {
    serde_json::to_string(ckpt).unwrap()
}

/// `path` loads back as exactly `expected`.
fn assert_loads_as(path: &Path, expected: &RuntimeCheckpoint) {
    let loaded = RuntimeCheckpoint::load(path).unwrap();
    assert_eq!(json(&loaded), json(expected));
}

#[test]
fn saves_of_growing_and_shrinking_snapshots_each_load_back_identical() {
    let dir = test_dir("sizes");
    let path = dir.join("run.ckpt");
    for copies in [1, 3, 2, 5, 1, 4, 2, 6, 1, 3] {
        let ckpt = checkpoint(copies);
        ckpt.save(&path).unwrap();
        assert_loads_as(&path, &ckpt);
        // Whatever follows the JSON is padding, never a stale snapshot.
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = json(&ckpt);
        assert!(text.starts_with(&snapshot));
        assert!(text[snapshot.len()..].bytes().all(|b| b == b' '));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_longer_staging_file_is_overwritten_and_padded() {
    let dir = test_dir("padding");
    let path = dir.join("run.ckpt");
    let ckpt = checkpoint(1);
    let snapshot = json(&ckpt);
    let staging_len = 3 * snapshot.len();
    std::fs::write(with_suffix(&path, ".partial"), "x".repeat(staging_len)).unwrap();
    ckpt.save(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.len(), staging_len, "the staging file must not shrink");
    assert_eq!(&text[..snapshot.len()], snapshot);
    assert!(text[snapshot.len()..].bytes().all(|b| b == b' '));
    assert_loads_as(&path, &ckpt);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stale_prev_from_a_crash_between_link_and_rename_is_replaced() {
    let dir = test_dir("stale-prev");
    let path = dir.join("run.ckpt");
    let prev = with_suffix(&path, ".prev");
    checkpoint(1).save(&path).unwrap();
    // The crash: `path` was linked as `.prev`, the rename never ran.
    std::fs::hard_link(&path, &prev).unwrap();
    let next = checkpoint(2);
    next.save(&path).unwrap();
    assert_loads_as(&path, &next);
    assert!(!prev.exists(), "the stale `.prev` must be gone");
    assert!(with_suffix(&path, ".partial").exists());
    // A `.prev` no name reaches any more (an unrelated leftover) goes too.
    std::fs::write(&prev, "junk").unwrap();
    let last = checkpoint(3);
    last.save(&path).unwrap();
    assert_loads_as(&path, &last);
    assert!(!prev.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_prev_holding_the_only_link_after_a_crash_between_renames_is_recovered() {
    let dir = test_dir("orphan-prev");
    let path = dir.join("run.ckpt");
    let staging = with_suffix(&path, ".partial");
    let prev = with_suffix(&path, ".prev");
    let older = checkpoint(2);
    let newer = checkpoint(1);
    older.save(&path).unwrap();
    newer.save(&path).unwrap();
    // The crash: the new snapshot was published, but the superseded one
    // never moved from `.prev` to `.partial`.
    std::fs::rename(&staging, &prev).unwrap();
    assert_loads_as(&path, &newer);
    let next = checkpoint(3);
    next.save(&path).unwrap();
    assert_loads_as(&path, &next);
    assert!(!prev.exists(), "the orphaned `.prev` must be gone");
    assert!(staging.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn files_name_the_checkpoint_and_all_its_staging_files() {
    let dir = test_dir("files");
    let path = dir.join("run.ckpt");
    checkpoint(1).save(&path).unwrap();
    checkpoint(1).save(&path).unwrap();
    std::fs::write(with_suffix(&path, ".prev"), "crash leftover").unwrap();
    for file in RuntimeCheckpoint::files(&path) {
        std::fs::remove_file(&file).unwrap();
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The mechanism behind the cheap save: the superseded inode becomes the
/// next staging file, so `path` alternates between two inodes and no
/// block is ever freed.
#[cfg(unix)]
#[test]
fn saves_alternate_between_two_inodes() {
    use std::os::unix::fs::MetadataExt;
    let dir = test_dir("inodes");
    let path = dir.join("run.ckpt");
    let ckpt = checkpoint(1);
    ckpt.save(&path).unwrap();
    ckpt.save(&path).unwrap();
    let inode = || std::fs::metadata(&path).unwrap().ino();
    let (a, b) = (
        inode(),
        std::fs::metadata(with_suffix(&path, ".partial"))
            .unwrap()
            .ino(),
    );
    assert_ne!(a, b);
    for round in 0..6 {
        ckpt.save(&path).unwrap();
        let expected = if round % 2 == 0 { b } else { a };
        assert_eq!(inode(), expected, "save {} reused no inode", round + 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}
