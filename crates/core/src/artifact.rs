//! Persistable model artifacts: the schema-versioned JSON form of a
//! fitted Pareto front.
//!
//! A CAFFEINE run produces a *set* of [`Model`]s trading training error
//! against complexity. [`ModelArtifact`] is that set frozen for storage
//! and serving: the variable names the models were fitted over, the models
//! themselves, and an explicit `schema_version` so a reader confronted
//! with an artifact written by a future build fails with a clear error
//! instead of a shape-mismatch deserialization failure.
//!
//! Artifacts are content-addressable: [`ModelArtifact::content_hash`]
//! yields a stable 64-bit FNV-1a hash of the canonical JSON rendering,
//! which the serving registry uses as the artifact's version id — two
//! byte-identical fronts share a version, two different fronts never
//! collide in practice.

use serde::{Deserialize, Serialize};

use caffeine_doe::PointMatrix;

use crate::error::CaffeineError;
use crate::model::Model;

/// The artifact schema version this build writes and reads.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// A fitted Pareto front packaged for persistence and serving.
///
/// # Example
///
/// ```
/// use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
/// use caffeine_core::{Model, ModelArtifact};
///
/// // y = 1 + 2·w − 3/l over the variables (w, l).
/// let model = Model::new(
///     vec![
///         BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
///         BasisFunction::from_vc(VarCombo::single(2, 1, -1)),
///     ],
///     vec![1.0, 2.0, -3.0],
///     WeightConfig::default(),
/// )
/// .with_metrics(0.01, 9.0);
/// let artifact = ModelArtifact::new(vec!["w".into(), "l".into()], vec![model])?;
///
/// // Batched prediction through the compiled-tape path.
/// let ys = artifact.predict(None, &[vec![1.0, 1.0], vec![2.0, 0.5]])?;
/// assert_eq!(ys, vec![0.0, -1.0]);
///
/// // The JSON form round-trips, and the content hash (the serving
/// // registry's version id) pins the exact bytes.
/// let reread = ModelArtifact::from_json(&artifact.to_json())?;
/// assert_eq!(reread, artifact);
/// assert_eq!(reread.content_hash(), artifact.content_hash());
/// # Ok::<(), caffeine_core::CaffeineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Format version (see [`MODEL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Names of the design variables, in model input order. Their count
    /// is the exact input dimensionality every prediction must match.
    pub var_names: Vec<String>,
    /// The front, in the order the run produced it (sorted by
    /// complexity).
    pub models: Vec<Model>,
}

impl ModelArtifact {
    /// Packages a front, validating that it is nonempty and that no model
    /// references a variable beyond `var_names`.
    ///
    /// # Errors
    ///
    /// [`CaffeineError::InvalidData`] for an empty front or a model using
    /// more variables than `var_names` provides.
    pub fn new(var_names: Vec<String>, models: Vec<Model>) -> Result<ModelArtifact, CaffeineError> {
        let artifact = ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            var_names,
            models,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Structural validation shared by [`ModelArtifact::new`] and
    /// [`ModelArtifact::from_json`] — deserialized artifacts bypass
    /// [`Model::new`]'s assertions, so everything the prediction path
    /// indexes into must be revalidated here.
    fn validate(&self) -> Result<(), CaffeineError> {
        if self.models.is_empty() {
            return Err(CaffeineError::InvalidData(
                "a model artifact needs at least one model".into(),
            ));
        }
        for (i, m) in self.models.iter().enumerate() {
            if m.coefficients.len() != m.bases.len() + 1 {
                return Err(CaffeineError::InvalidData(format!(
                    "model {i} has {} bases but {} coefficients (need intercept + one per basis)",
                    m.bases.len(),
                    m.coefficients.len()
                )));
            }
            if m.min_vars() > self.var_names.len() {
                return Err(CaffeineError::InvalidData(format!(
                    "model {i} references variable {} but only {} variable names were given",
                    m.min_vars() - 1,
                    self.var_names.len()
                )));
            }
        }
        Ok(())
    }

    /// Input dimensionality of the artifact's models.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The model with the lowest training error (the default model a
    /// serving endpoint predicts with).
    pub fn best(&self) -> &Model {
        self.models
            .iter()
            .min_by(|a, b| {
                a.train_error
                    .partial_cmp(&b.train_error)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("artifacts are never empty")
    }

    /// Predicts a batch of row-major design points with the model at
    /// `model_index` (default: [`ModelArtifact::best`]); a wrapper over
    /// [`ModelArtifact::predict_matrix`].
    ///
    /// # Errors
    ///
    /// [`CaffeineError::InvalidData`] for a ragged batch and for every
    /// error of [`ModelArtifact::predict_matrix`].
    pub fn predict(
        &self,
        model_index: Option<usize>,
        points: &[Vec<f64>],
    ) -> Result<Vec<f64>, CaffeineError> {
        let pm = PointMatrix::try_from_rows(points)
            .map_err(|e| CaffeineError::InvalidData(e.to_string()))?;
        self.predict_matrix(model_index, &pm)
    }

    /// Predicts a column-major batch with the model at `model_index`
    /// (default: [`ModelArtifact::best`]) — the one prediction path, used
    /// directly by the serving daemon's decoder.
    ///
    /// # Errors
    ///
    /// [`CaffeineError::InvalidData`] for an out-of-range `model_index`,
    /// an empty batch, or points whose width differs from
    /// [`ModelArtifact::n_vars`].
    pub fn predict_matrix(
        &self,
        model_index: Option<usize>,
        points: &PointMatrix,
    ) -> Result<Vec<f64>, CaffeineError> {
        let model = match model_index {
            None => self.best(),
            Some(i) => self.models.get(i).ok_or_else(|| {
                CaffeineError::InvalidData(format!(
                    "model index {i} out of range (artifact has {} models)",
                    self.models.len()
                ))
            })?,
        };
        if points.n_points() == 0 {
            return Err(CaffeineError::InvalidData("empty prediction batch".into()));
        }
        if points.n_vars() != self.n_vars() {
            return Err(CaffeineError::InvalidData(format!(
                "points have {} values but the model takes {} variables",
                points.n_vars(),
                self.n_vars()
            )));
        }
        // `validate` guarantees every model reads only variables below
        // `n_vars`, so the exact-width check makes evaluation total.
        Ok(model.predict_matrix(points))
    }

    /// Renders the artifact as compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialization is infallible")
    }

    /// Parses an artifact, checking `schema_version` *before* decoding the
    /// full shape, so an artifact written by a newer build produces
    /// [`CaffeineError::UnsupportedSchema`] rather than a confusing
    /// missing-field error.
    ///
    /// # Errors
    ///
    /// [`CaffeineError::ArtifactDecode`] for malformed JSON or a missing
    /// `schema_version`; [`CaffeineError::UnsupportedSchema`] for a
    /// version this build does not read.
    pub fn from_json(text: &str) -> Result<ModelArtifact, CaffeineError> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| CaffeineError::ArtifactDecode(e.to_string()))?;
        let declared = value["schema_version"].as_u64().ok_or_else(|| {
            CaffeineError::ArtifactDecode("not a model artifact: missing `schema_version`".into())
        })?;
        if declared != u64::from(MODEL_SCHEMA_VERSION) {
            return Err(CaffeineError::UnsupportedSchema {
                found: declared.try_into().unwrap_or(u32::MAX),
                supported: MODEL_SCHEMA_VERSION,
            });
        }
        let artifact: ModelArtifact = serde::Deserialize::from_value(&value)
            .map_err(|e: serde::Error| CaffeineError::ArtifactDecode(e.to_string()))?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Stable content hash of the canonical JSON rendering (64-bit FNV-1a,
    /// 16 lowercase hex digits). Identical fronts hash identically; the
    /// serving registry uses this as the version id.
    pub fn content_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().as_bytes()))
    }
}

/// 64-bit FNV-1a over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BasisFunction, VarCombo, WeightConfig};

    fn front() -> Vec<Model> {
        vec![
            Model::new(
                vec![BasisFunction::from_vc(VarCombo::single(2, 0, 1))],
                vec![1.0, 2.0],
                WeightConfig::default(),
            )
            .with_metrics(0.10, 5.0),
            Model::new(
                vec![
                    BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
                    BasisFunction::from_vc(VarCombo::single(2, 1, -1)),
                ],
                vec![1.0, 2.0, -3.0],
                WeightConfig::default(),
            )
            .with_metrics(0.02, 9.0),
        ]
    }

    fn artifact() -> ModelArtifact {
        ModelArtifact::new(vec!["w".into(), "l".into()], front()).unwrap()
    }

    #[test]
    fn round_trips_through_json() {
        let a = artifact();
        let back = ModelArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn best_is_lowest_train_error() {
        let a = artifact();
        assert_eq!(a.best().n_bases(), 2);
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = artifact();
        assert_eq!(a.content_hash(), a.clone().content_hash());
        assert_eq!(a.content_hash().len(), 16);
        let mut b = a.clone();
        b.models[0].coefficients[0] += 1.0;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn unknown_schema_version_is_a_clear_error() {
        let mut text = artifact().to_json();
        text = text.replace("\"schema_version\":1", "\"schema_version\":999");
        match ModelArtifact::from_json(&text) {
            Err(CaffeineError::UnsupportedSchema { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, MODEL_SCHEMA_VERSION);
            }
            other => panic!("expected UnsupportedSchema, got {other:?}"),
        }
    }

    #[test]
    fn missing_schema_version_is_a_clear_error() {
        let err = ModelArtifact::from_json("{\"models\":[]}").unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
        let err = ModelArtifact::from_json("not json at all").unwrap_err();
        assert!(matches!(err, CaffeineError::ArtifactDecode(_)));
    }

    #[test]
    fn empty_fronts_are_rejected() {
        let err = ModelArtifact::new(vec!["x".into()], vec![]).unwrap_err();
        assert!(err.to_string().contains("at least one model"), "{err}");
    }

    #[test]
    fn variable_overflow_is_rejected() {
        let err = ModelArtifact::new(vec!["x".into()], front()).unwrap_err();
        assert!(err.to_string().contains("variable"), "{err}");
    }

    #[test]
    fn predict_guards_batch_shape() {
        let a = artifact();
        let err = a.predict(None, &[]).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let err = a.predict(None, &[vec![1.0]]).unwrap_err();
        assert!(err.to_string().contains("takes 2 variables"), "{err}");
        assert!(a.predict(None, &[vec![1.0, 2.0, 3.0]]).is_err());
        let err = a.predict(None, &[vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
        let err = a.predict(Some(7), &[vec![1.0, 2.0]]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let ys = a.predict(None, &[vec![2.0, 3.0]]).unwrap();
        assert_eq!(ys, a.models[1].predict(&[vec![2.0, 3.0]]));
    }

    #[test]
    fn predict_matrix_matches_row_major_predict() {
        let a = artifact();
        let rows = vec![vec![1.0, 1.0], vec![2.0, 3.0], vec![-0.5, 4.0]];
        let pm = PointMatrix::from_rows(&rows);
        for index in [None, Some(0), Some(1)] {
            assert_eq!(
                a.predict_matrix(index, &pm).unwrap(),
                a.predict(index, &rows).unwrap()
            );
        }
        let empty = PointMatrix::try_from_row_major(0, 2, &[]).unwrap();
        assert!(a.predict_matrix(None, &empty).is_err());
        let narrow = PointMatrix::try_from_row_major(1, 1, &[1.0]).unwrap();
        assert!(a.predict_matrix(None, &narrow).is_err());
    }
}
