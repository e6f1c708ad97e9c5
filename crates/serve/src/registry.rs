//! The versioned model registry: fitted fronts as content-hash-addressed
//! JSON artifacts, in memory and optionally mirrored to disk.
//!
//! Layout on disk (when a model directory is configured):
//!
//! ```text
//! <dir>/<id>/<hash>.json     one artifact per content hash
//! <dir>/<id>/latest          the hash the id currently points at
//! <dir>/<id>/latest.partial  the superseded pointer, which the next
//!                            publish overwrites in place
//! ```
//!
//! Every file is written through [`caffeine_runtime::write_durable`], so
//! readers accept (and trim) trailing whitespace.
//!
//! Publishing is idempotent: re-publishing byte-identical content under
//! the same id is a no-op that returns the existing version (and counts
//! as a registry cache hit). The in-memory map is the source of truth for
//! reads, so serving never touches the filesystem on the hot path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use caffeine_core::ModelArtifact;
use caffeine_runtime::write_durable;

use crate::error::ApiError;
use crate::router::valid_model_id;
use crate::sync::{PoisonlessMutex, PoisonlessRwLock};

/// One stored artifact version.
#[derive(Debug, Clone)]
pub struct StoredVersion {
    /// Content hash (the version id).
    pub version: String,
    /// The artifact (shared, cheap to hand to prediction workers).
    pub artifact: Arc<ModelArtifact>,
}

#[derive(Debug, Default)]
struct Shelf {
    /// Versions in publish order; the last one is `latest`.
    versions: Vec<StoredVersion>,
}

/// The registry.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: Option<PathBuf>,
    inner: RwLock<BTreeMap<String, Shelf>>,
    /// Serializes publishes (taken before `inner`). Reads never take it.
    publishing: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelRegistry {
    /// A purely in-memory registry (tests, benches, ephemeral servers).
    pub fn in_memory() -> ModelRegistry {
        ModelRegistry {
            dir: None,
            inner: RwLock::new(BTreeMap::new()),
            publishing: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a disk-backed registry and loads every
    /// persisted artifact into memory.
    ///
    /// Unreadable or schema-incompatible artifact files are skipped with
    /// a note on stderr rather than failing startup — one bad file must
    /// not take the whole registry down.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ModelRegistry> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut map: BTreeMap<String, Shelf> = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let id = entry.file_name().to_string_lossy().to_string();
            if !valid_model_id(&id) {
                continue;
            }
            if let Some(shelf) = load_shelf(&entry.path()) {
                map.insert(id, shelf);
            }
        }
        Ok(ModelRegistry {
            dir: Some(dir),
            inner: RwLock::new(map),
            publishing: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Publishes an artifact under `id`; returns `(version, created)`
    /// where `created` is `false` when byte-identical content was already
    /// present (idempotent re-publish).
    ///
    /// # Errors
    ///
    /// 400 for an invalid id, 500 for persistence failures.
    pub fn publish(&self, id: &str, artifact: ModelArtifact) -> Result<(String, bool), ApiError> {
        if !valid_model_id(id) {
            return Err(ApiError::bad_request(format!("model id `{id}` is invalid")));
        }
        let version = artifact.content_hash();

        // One publish at a time: `write_durable` must not race itself on
        // one path (two identical publishes share a version file, every
        // publish to an id rewrites its `latest`), and serial publishes
        // leave `latest` on disk in the same order as in memory. The
        // fsync'd writes happen outside the map's write lock, so
        // predict/get traffic (read locks) never stalls behind disk.
        let _publishing = self.publishing.plock();
        let already_present = {
            let map = self.inner.pread();
            map.get(id)
                .is_some_and(|s| s.versions.iter().any(|v| v.version == version))
        };
        if let (false, Some(dir)) = (already_present, &self.dir) {
            persist_version(&dir.join(id), &version, &artifact)
                .map_err(|e| ApiError::internal(format!("cannot persist artifact: {e}")))?;
        }

        let mut map = self.inner.pwrite();
        let shelf = map.entry(id.to_string()).or_default();
        let created = match shelf.versions.iter().position(|v| v.version == version) {
            Some(existing) => {
                // Idempotent: move the existing version to the latest
                // slot (covers both re-publishes and the race where
                // another thread inserted between our two lock scopes).
                let v = shelf.versions.remove(existing);
                shelf.versions.push(v);
                self.hits.fetch_add(1, Ordering::Relaxed);
                false
            }
            None => {
                shelf.versions.push(StoredVersion {
                    version: version.clone(),
                    artifact: Arc::new(artifact),
                });
                true
            }
        };
        drop(map);

        // The latest pointer is advisory: load_shelf falls back to a
        // deterministic order without it.
        if let Some(dir) = &self.dir {
            persist_latest(&dir.join(id), &version)
                .map_err(|e| ApiError::internal(format!("cannot update latest: {e}")))?;
        }
        Ok((version, created))
    }

    /// Fetches an artifact by id, at a specific version or the latest.
    pub fn get(&self, id: &str, version: Option<&str>) -> Option<StoredVersion> {
        let map = self.inner.pread();
        let found = map.get(id).and_then(|shelf| match version {
            None => shelf.versions.last(),
            Some(v) => shelf.versions.iter().find(|s| s.version == v),
        });
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Lists `(id, versions)` pairs, versions in publish order (latest
    /// last).
    pub fn list(&self) -> Vec<(String, Vec<String>)> {
        let map = self.inner.pread();
        map.iter()
            .map(|(id, shelf)| {
                (
                    id.clone(),
                    shelf.versions.iter().map(|v| v.version.clone()).collect(),
                )
            })
            .collect()
    }

    /// Total artifacts across all ids.
    pub fn total_versions(&self) -> usize {
        let map = self.inner.pread();
        map.values().map(|s| s.versions.len()).sum()
    }

    /// Lookup/publish hits so far (found ids, idempotent re-publishes).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The disk directory, when this registry persists.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

/// Loads every artifact of one id directory; returns `None` when nothing
/// loadable exists.
fn load_shelf(id_dir: &Path) -> Option<Shelf> {
    let mut versions = Vec::new();
    let entries = std::fs::read_dir(id_dir).ok()?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Some(stem) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
        else {
            continue;
        };
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| ModelArtifact::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(artifact) => versions.push(StoredVersion {
                version: stem,
                artifact: Arc::new(artifact),
            }),
            Err(e) => eprintln!("registry: skipping {}: {e}", path.display()),
        }
    }
    if versions.is_empty() {
        return None;
    }
    // Publish order is lost on disk; order deterministically by hash,
    // then move the recorded latest (when readable) to the back.
    versions.sort_by(|a, b| a.version.cmp(&b.version));
    if let Ok(latest) = std::fs::read_to_string(id_dir.join("latest")) {
        let latest = latest.trim();
        if let Some(i) = versions.iter().position(|v| v.version == latest) {
            let v = versions.remove(i);
            versions.push(v);
        }
    }
    Some(Shelf { versions })
}

fn persist_version(id_dir: &Path, version: &str, artifact: &ModelArtifact) -> std::io::Result<()> {
    std::fs::create_dir_all(id_dir)?;
    let path = id_dir.join(format!("{version}.json"));
    write_durable(&path, artifact.to_json().as_bytes())
}

fn persist_latest(id_dir: &Path, version: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(id_dir)?;
    write_durable(&id_dir.join("latest"), version.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
    use caffeine_core::Model;

    fn artifact(coefficient: f64) -> ModelArtifact {
        ModelArtifact::new(
            vec!["x".into()],
            vec![Model::new(
                vec![BasisFunction::from_vc(VarCombo::single(1, 0, -1))],
                vec![1.0, coefficient],
                WeightConfig::default(),
            )],
        )
        .unwrap()
    }

    #[test]
    fn publish_get_list_round_trip_in_memory() {
        let reg = ModelRegistry::in_memory();
        let (v1, created) = reg.publish("demo", artifact(2.0)).unwrap();
        assert!(created);
        let (v2, created) = reg.publish("demo", artifact(3.0)).unwrap();
        assert!(created);
        assert_ne!(v1, v2);
        // Latest is the most recent publish.
        assert_eq!(reg.get("demo", None).unwrap().version, v2);
        assert_eq!(reg.get("demo", Some(&v1)).unwrap().version, v1);
        assert!(reg.get("demo", Some("0000000000000000")).is_none());
        assert!(reg.get("ghost", None).is_none());
        assert_eq!(reg.list(), vec![("demo".into(), vec![v1, v2])]);
        assert_eq!(reg.total_versions(), 2);
        assert_eq!(reg.misses(), 2);
    }

    #[test]
    fn republish_is_idempotent_and_counts_as_hit() {
        let reg = ModelRegistry::in_memory();
        let (v1, _) = reg.publish("demo", artifact(2.0)).unwrap();
        let hits_before = reg.hits();
        let (v2, created) = reg.publish("demo", artifact(2.0)).unwrap();
        assert_eq!(v1, v2);
        assert!(!created);
        assert_eq!(reg.total_versions(), 1);
        assert!(reg.hits() > hits_before);
    }

    #[test]
    fn republish_retargets_latest() {
        let reg = ModelRegistry::in_memory();
        let (v1, _) = reg.publish("demo", artifact(2.0)).unwrap();
        let (v2, _) = reg.publish("demo", artifact(3.0)).unwrap();
        // Publishing the v1 content again makes it latest once more.
        let (again, created) = reg.publish("demo", artifact(2.0)).unwrap();
        assert_eq!(again, v1);
        assert!(!created);
        assert_eq!(reg.get("demo", None).unwrap().version, v1);
        assert_eq!(reg.get("demo", Some(&v2)).unwrap().version, v2);
    }

    #[test]
    fn invalid_ids_are_rejected() {
        let reg = ModelRegistry::in_memory();
        assert_eq!(reg.publish("", artifact(1.0)).unwrap_err().status, 400);
        assert_eq!(
            reg.publish("../sneaky", artifact(1.0)).unwrap_err().status,
            400
        );
    }

    #[test]
    fn disk_round_trip_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-registry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let reg = ModelRegistry::open(&dir).unwrap();
            reg.publish("ota-gain", artifact(2.0)).unwrap();
            reg.publish("ota-gain", artifact(3.0)).unwrap();
            reg.publish("ota-pm", artifact(4.0)).unwrap();
        }
        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.total_versions(), 3);
        let latest = reg.get("ota-gain", None).unwrap();
        assert_eq!(latest.artifact, Arc::new(artifact(3.0)));
        // A corrupt file is skipped, not fatal.
        std::fs::write(dir.join("ota-pm").join("garbage.json"), "{nope").unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.total_versions(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publishes_to_one_id_leave_a_consistent_latest() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-registry-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let reg = ModelRegistry::open(&dir).unwrap();
        // Threads 2k and 2k+1 publish identical content, so they also
        // race on one version file.
        let published: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|t| {
                    let reg = &reg;
                    s.spawn(move || {
                        (0..5)
                            .map(|round| {
                                let coefficient = (t / 2 * 10 + round) as f64;
                                reg.publish("race", artifact(coefficient)).unwrap().0
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let id_dir = dir.join("race");
        let on_disk = std::fs::read_to_string(id_dir.join("latest")).unwrap();
        let in_memory = reg.get("race", None).unwrap().version;
        assert_eq!(on_disk.trim(), in_memory);
        assert!(published.contains(&in_memory));
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            let ino = |name: &str| std::fs::metadata(id_dir.join(name)).unwrap().ino();
            assert_ne!(ino("latest"), ino("latest.partial"));
        }
        let reopened = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reopened.total_versions(), 15);
        assert_eq!(reopened.get("race", None).unwrap().version, in_memory);
        std::fs::remove_dir_all(&dir).ok();
    }
}
