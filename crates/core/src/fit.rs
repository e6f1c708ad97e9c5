//! Linear learning of the top-level basis weights.
//!
//! CAFFEINE's individuals only evolve the *shape* of the basis functions;
//! "basis functions are linearly weighted using least-squares learning" on
//! every fitness evaluation. This module builds the design matrix
//! `[1, f₁(x), …, f_k(x)]`, solves the least-squares problem (with a ridge
//! fallback for the collinear bases genetic search constantly produces),
//! and reports predictions.
//!
//! Two implementations share one solver, the Householder [`Qr`] kernel of
//! `caffeine-linalg`:
//!
//! * [`fit_linear_weights`] — the tree-walk reference path, kept as the
//!   oracle the compiled path is property-tested against;
//! * [`fit_linear_weights_cached`] — the production hot path: bases are
//!   lowered to [`Tape`]s, evaluated by the lane-chunked [`TapeVm`] over
//!   a [`PointMatrix`], and memoized in a per-generation [`FitScratch`]
//!   basis-column cache (GP populations are highly redundant after
//!   crossover, so identical subtrees are evaluated once per generation,
//!   not once per individual). The design is factored straight from the
//!   cached column slices, with no row-major matrix in between.
//!
//! Both paths produce bit-identical [`FitOutcome`]s — the tape's NaN
//! sign/payload latitude (see [`crate::expr::TapeVm`]) cannot leak in,
//! because any non-finite basis column is rejected as
//! [`FitOutcome::Infeasible`] before it can reach the solver.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use caffeine_doe::PointMatrix;
use caffeine_linalg::{lstsq, lstsq_ridge, lstsq_ridge_columns, LinalgError, Matrix, Qr};
use caffeine_obs::PhaseAccumulator;

use crate::expr::{eval_basis_all, BasisFunction, EvalContext, Tape, TapeVm};
use crate::phases;

/// Outcome of fitting the linear weights of one candidate model.
#[derive(Debug, Clone)]
pub enum FitOutcome {
    /// A successful fit.
    Fit(LinearFit),
    /// The candidate is unusable on this data: a basis evaluated to NaN /
    /// infinity / overflow-scale values, or the fit failed outright.
    Infeasible,
}

/// The learned linear model of one candidate.
#[derive(Debug, Clone)]
pub struct LinearFit {
    /// Intercept followed by one coefficient per basis function.
    pub coefficients: Vec<f64>,
    /// Predictions on the training points.
    pub predictions: Vec<f64>,
}

/// Magnitude above which a basis column is declared numerically unusable.
const COLUMN_LIMIT: f64 = 1e100;

/// Evaluates the basis functions on the points and returns the design
/// matrix `[1 | f₁ | … | f_k]`, or `None` if any column is non-finite or
/// absurdly scaled.
pub fn design_matrix(
    bases: &[BasisFunction],
    points: &[Vec<f64>],
    ctx: &EvalContext,
) -> Option<Matrix> {
    let n = points.len();
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(bases.len() + 1);
    columns.push(vec![1.0; n]);
    for b in bases {
        let col = eval_basis_all(b, points, ctx);
        if !column_ok(&col) {
            return None;
        }
        columns.push(col);
    }
    Some(Matrix::from_columns(&columns))
}

/// Fits the linear weights of a candidate model (tree-walk reference
/// path — see [`fit_linear_weights_cached`] for the production hot path).
///
/// Collinear bases fall back to a small ridge; any other failure (or a
/// non-finite design column) yields [`FitOutcome::Infeasible`].
pub fn fit_linear_weights(
    bases: &[BasisFunction],
    points: &[Vec<f64>],
    targets: &[f64],
    ctx: &EvalContext,
) -> FitOutcome {
    let Some(a) = design_matrix(bases, points, ctx) else {
        return FitOutcome::Infeasible;
    };
    if a.rows() < a.cols() {
        // More bases than samples: refuse rather than interpolate noise.
        return FitOutcome::Infeasible;
    }
    solve_design(&a, targets)
}

/// Relative ridge of the fallback fit for collinear designs.
const RIDGE_LAMBDA: f64 = 1e-9;

/// The least-squares stage of the reference path: plain QR with a small
/// ridge fallback for collinear designs.
fn solve_design(a: &Matrix, targets: &[f64]) -> FitOutcome {
    let coefficients = match lstsq(a, targets) {
        Ok(c) => c,
        Err(LinalgError::Singular { .. }) => match lstsq_ridge(a, targets, RIDGE_LAMBDA) {
            Ok(c) => c,
            Err(_) => return FitOutcome::Infeasible,
        },
        Err(_) => return FitOutcome::Infeasible,
    };
    if coefficients.iter().any(|c| !c.is_finite()) {
        return FitOutcome::Infeasible;
    }
    let predictions = match a.matvec(&coefficients) {
        Ok(p) => p,
        Err(_) => return FitOutcome::Infeasible,
    };
    FitOutcome::Fit(LinearFit {
        coefficients,
        predictions,
    })
}

/// [`solve_design`] on the design given by its columns `[1 | f₁ | … | f_k]`,
/// reusing `qr` and `rhs` across fits. Bit-identical to [`solve_design`]
/// on the assembled matrix: the QR kernel is shared, the ridge fallback
/// accumulates its Gram matrix in the same row order, and predictions
/// follow [`Matrix::matvec`]'s per-row order (`0.0`, then `+ a_ij·x_j` for
/// ascending `j`).
fn solve_columns(cols: &[&[f64]], targets: &[f64], qr: &mut Qr, rhs: &mut Vec<f64>) -> FitOutcome {
    if qr.factor_columns(cols).is_err() {
        return FitOutcome::Infeasible;
    }
    rhs.clear();
    rhs.extend_from_slice(targets);
    let coefficients = match qr.solve_lstsq_in_place(rhs) {
        Ok(c) => c,
        Err(LinalgError::Singular { .. }) => {
            match lstsq_ridge_columns(cols, targets, RIDGE_LAMBDA) {
                Ok(c) => c,
                Err(_) => return FitOutcome::Infeasible,
            }
        }
        Err(_) => return FitOutcome::Infeasible,
    };
    if coefficients.iter().any(|c| !c.is_finite()) {
        return FitOutcome::Infeasible;
    }
    let mut predictions = vec![0.0; targets.len()];
    for (col, &c) in cols.iter().zip(coefficients.iter()) {
        for (p, &a) in predictions.iter_mut().zip(col.iter()) {
            *p += a * c;
        }
    }
    FitOutcome::Fit(LinearFit {
        coefficients,
        predictions,
    })
}

/// `true` when a basis column is numerically usable (finite, below the
/// overflow guard).
#[inline]
fn column_ok(col: &[f64]) -> bool {
    col.iter().all(|v| v.is_finite() && v.abs() <= COLUMN_LIMIT)
}

/// Cheap identity fingerprint of a point matrix: dimensions, address, and
/// sampled values. Collisions would need a *different* point set with the
/// same shape, same location, and same sampled entries — the guard exists
/// to catch scratch reuse across point sets, where at least the samples
/// differ.
fn pm_fingerprint(pm: &PointMatrix) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pm.n_points().hash(&mut h);
    pm.n_vars().hash(&mut h);
    (pm as *const PointMatrix as usize).hash(&mut h);
    for j in 0..pm.n_vars().min(4) {
        let var = pm.var(j);
        for idx in [0, var.len() / 2, var.len().saturating_sub(1)] {
            if let Some(&x) = var.get(idx) {
                h.write_u64(x.to_bits());
            }
        }
    }
    h.finish()
}

/// One memoized basis column: the compiled tape that produced it (the
/// canonical cache key — compared bitwise on lookup, so a hash collision
/// costs a comparison, never correctness), the evaluated column, and
/// whether the column is numerically usable.
#[derive(Debug)]
struct CacheEntry {
    tape: Tape,
    column: Vec<f64>,
    ok: bool,
}

/// Where a gathered design column lives during one fit.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// In the cache, under this structural hash.
    Cached(u64),
    /// In the scratch's temporary store (hash-collision fallback).
    Temp(usize),
}

/// How a cache lookup resolved.
enum Lookup {
    Hit(bool),
    Miss,
    Collision,
}

/// Reusable state of the compiled fitness path: the lane-chunked tape VM
/// with its bounded column-buffer pool, recycled tapes, and the
/// per-generation basis-column cache.
///
/// One scratch serves one thread; [`crate::DatasetEvaluator`] creates one
/// per batch (so the cache naturally spans exactly one generation), while
/// each thread of the runtime's parallel evaluator keeps one for its
/// whole life and clears the cache at the start of every batch, so
/// memoization stays scoped to a generation while the VM's chunk stack
/// and buffer pool stay warm.
/// Steady-state evaluation through a warm scratch performs no allocation
/// beyond the solver's — `tests/alloc_growth.rs` pins that down.
#[derive(Debug, Default)]
pub struct FitScratch {
    vm: TapeVm,
    spare_tapes: Vec<Tape>,
    /// Fixed-key hashing (the keys are already structural hashes): the
    /// drain order of [`FitScratch::clear_cache`] then repeats run to run,
    /// so which recycled tape or buffer a later column reuses — and hence
    /// the allocation count `tests/alloc_growth.rs` pins — does too.
    cache: HashMap<u64, CacheEntry, BuildHasherDefault<DefaultHasher>>,
    /// Fingerprint of the [`PointMatrix`] the cached columns were
    /// evaluated on; a fit against a different point set resets the cache
    /// instead of serving stale columns.
    bound_to: Option<u64>,
    temp_cols: Vec<Vec<f64>>,
    slots: Vec<Slot>,
    /// The intercept column (all ones), as long as the last point set.
    ones: Vec<f64>,
    /// The least-squares factorization, refactored in place per fit.
    qr: Qr,
    /// Right-hand-side buffer the solve overwrites with `Qᵀy`.
    rhs: Vec<f64>,
    hits: u64,
    misses: u64,
    /// When attached, the fit path records gather/solve wall time into
    /// these cells ([`phases::BASIS_EVAL`] / [`phases::LINEAR_SOLVE`]).
    /// Detached scratches never read the clock.
    telemetry: Option<Arc<PhaseAccumulator>>,
}

impl FitScratch {
    /// A fresh scratch with an empty cache and buffer pool.
    pub fn new() -> FitScratch {
        FitScratch::default()
    }

    /// Number of cache hits since construction (diagnostic).
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses since construction (diagnostic).
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct basis columns currently cached.
    pub fn cached_columns(&self) -> usize {
        self.cache.len()
    }

    /// Attaches a phase accumulator; subsequent fits time their gather
    /// and solve stages into it.
    pub fn set_telemetry(&mut self, telemetry: Arc<PhaseAccumulator>) {
        self.telemetry = Some(telemetry);
    }

    /// The attached phase accumulator, if any.
    pub fn telemetry(&self) -> Option<&Arc<PhaseAccumulator>> {
        self.telemetry.as_ref()
    }

    /// Empties the basis-column cache, recycling every column buffer and
    /// tape for reuse. Call at generation boundaries when holding a
    /// scratch across batches; capacity is retained.
    pub fn clear_cache(&mut self) {
        // lint: allow(determinism) — drain order only decides which recycled buffer a future column reuses; contents are fully overwritten
        for (_, e) in self.cache.drain() {
            self.vm.recycle(e.column);
            self.spare_tapes.push(e.tape);
        }
    }

    /// Compiles, caches, and gathers the column of one basis; returns the
    /// slot or `None` when the column is unusable.
    fn gather(
        &mut self,
        basis: &BasisFunction,
        pm: &PointMatrix,
        ctx: &EvalContext,
    ) -> Option<Slot> {
        let mut tape = self.spare_tapes.pop().unwrap_or_default();
        tape.compile_into(basis, ctx);
        let h = tape.structural_hash();
        let lookup = match self.cache.get(&h) {
            Some(e) if e.tape == tape => Lookup::Hit(e.ok),
            Some(_) => Lookup::Collision,
            None => Lookup::Miss,
        };
        match lookup {
            Lookup::Hit(ok) => {
                self.hits += 1;
                self.spare_tapes.push(tape);
                ok.then_some(Slot::Cached(h))
            }
            Lookup::Miss => {
                self.misses += 1;
                let column = self.vm.eval(&tape, pm);
                let ok = column_ok(&column);
                self.cache.insert(h, CacheEntry { tape, column, ok });
                ok.then_some(Slot::Cached(h))
            }
            Lookup::Collision => {
                // A different tape owns this hash slot: evaluate without
                // caching (astronomically rare; correctness first).
                self.misses += 1;
                let column = self.vm.eval(&tape, pm);
                let ok = column_ok(&column);
                self.spare_tapes.push(tape);
                if ok {
                    self.temp_cols.push(column);
                    Some(Slot::Temp(self.temp_cols.len() - 1))
                } else {
                    self.vm.recycle(column);
                    None
                }
            }
        }
    }

    /// Returns per-fit temporaries to the pools.
    fn finish_fit(&mut self) {
        self.slots.clear();
        while let Some(col) = self.temp_cols.pop() {
            self.vm.recycle(col);
        }
    }
}

/// Fits the linear weights of a candidate model through the compiled
/// tape evaluator and the scratch's basis-column cache.
///
/// Bit-identical to [`fit_linear_weights`] on the same inputs (`pm` being
/// the column-major transpose of the reference path's `points`): columns
/// are produced by the compiled tapes, which the oracle property test
/// pins to the interpreter (bit for bit on non-NaN values; non-finite
/// columns never reach the solver — they are [`FitOutcome::Infeasible`]
/// in both paths), and both solving stages run the same QR kernel in the
/// same arithmetic order — the design is factored straight from the
/// cached column slices, never assembled into a matrix.
pub fn fit_linear_weights_cached(
    bases: &[BasisFunction],
    pm: &PointMatrix,
    targets: &[f64],
    ctx: &EvalContext,
    scratch: &mut FitScratch,
) -> FitOutcome {
    // Cached columns are only valid for the point set they were evaluated
    // on; a scratch reused against a different `PointMatrix` resets
    // itself rather than serving stale columns.
    let fp = pm_fingerprint(pm);
    if scratch.bound_to != Some(fp) {
        scratch.clear_cache();
        scratch.bound_to = Some(fp);
    }
    let telemetry = scratch.telemetry.clone();
    // Evaluate / look up every basis column, bailing on the first
    // unusable one exactly like the reference design-matrix builder.
    scratch.slots.clear();
    {
        let _gather = telemetry.as_deref().map(|t| t.span(phases::BASIS_EVAL));
        for b in bases {
            match scratch.gather(b, pm, ctx) {
                Some(slot) => scratch.slots.push(slot),
                None => {
                    scratch.finish_fit();
                    return FitOutcome::Infeasible;
                }
            }
        }
    }
    let n = pm.n_points();
    let k = bases.len();
    if n < k + 1 {
        // More bases than samples: refuse rather than interpolate noise.
        scratch.finish_fit();
        return FitOutcome::Infeasible;
    }
    let outcome = {
        let _solve = telemetry.as_deref().map(|t| t.span(phases::LINEAR_SOLVE));
        scratch.ones.resize(n, 1.0);
        let mut cols: Vec<&[f64]> = Vec::with_capacity(k + 1);
        cols.push(&scratch.ones);
        cols.extend(scratch.slots.iter().map(|s| match s {
            Slot::Cached(h) => scratch.cache[h].column.as_slice(),
            Slot::Temp(i) => scratch.temp_cols[*i].as_slice(),
        }));
        solve_columns(&cols, targets, &mut scratch.qr, &mut scratch.rhs)
    };
    scratch.finish_fit();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarCombo;

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn points_1d(n: usize) -> Vec<Vec<f64>> {
        (1..=n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn recovers_linear_combination_exactly() {
        // y = 2 + 3·x − 0.5/x with bases {x, 1/x}.
        let pts = points_1d(8);
        let targets: Vec<f64> = pts.iter().map(|p| 2.0 + 3.0 * p[0] - 0.5 / p[0]).collect();
        let bases = vec![
            BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
            BasisFunction::from_vc(VarCombo::single(1, 0, -1)),
        ];
        let FitOutcome::Fit(fit) = fit_linear_weights(&bases, &pts, &targets, &ctx()) else {
            panic!("expected a fit");
        };
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients[2] + 0.5).abs() < 1e-9);
        for (p, t) in fit.predictions.iter().zip(targets.iter()) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn nan_column_is_infeasible() {
        // 1/x at x = 0 -> infinite column.
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let bases = vec![BasisFunction::from_vc(VarCombo::single(1, 0, -1))];
        assert!(matches!(
            fit_linear_weights(&bases, &pts, &[1.0, 2.0, 3.0], &ctx()),
            FitOutcome::Infeasible
        ));
    }

    #[test]
    fn duplicate_bases_fall_back_to_ridge() {
        let pts = points_1d(6);
        let targets: Vec<f64> = pts.iter().map(|p| 4.0 * p[0]).collect();
        let b = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        let bases = vec![b.clone(), b];
        let FitOutcome::Fit(fit) = fit_linear_weights(&bases, &pts, &targets, &ctx()) else {
            panic!("ridge fallback should fit duplicates");
        };
        // The two duplicate columns share the weight; predictions match.
        for (p, t) in fit.predictions.iter().zip(targets.iter()) {
            assert!((p - t).abs() < 1e-3);
        }
    }

    #[test]
    fn more_bases_than_samples_is_infeasible() {
        let pts = points_1d(2);
        let bases: Vec<BasisFunction> = (1..=3)
            .map(|e| BasisFunction::from_vc(VarCombo::single(1, 0, e)))
            .collect();
        assert!(matches!(
            fit_linear_weights(&bases, &pts, &[1.0, 2.0], &ctx()),
            FitOutcome::Infeasible
        ));
    }

    #[test]
    fn huge_columns_are_rejected() {
        // x^3 at x = 1e40 exceeds the column limit.
        let pts = vec![vec![1e40], vec![1.0]];
        let bases = vec![BasisFunction::from_vc(VarCombo::single(1, 0, 3))];
        assert!(design_matrix(&bases, &pts, &ctx()).is_none());
    }

    #[test]
    fn empty_basis_set_fits_intercept_only() {
        let pts = points_1d(4);
        let targets = vec![5.0; 4];
        let FitOutcome::Fit(fit) = fit_linear_weights(&[], &pts, &targets, &ctx()) else {
            panic!("intercept-only fit must succeed");
        };
        assert_eq!(fit.coefficients.len(), 1);
        assert!((fit.coefficients[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cached_path_matches_reference_bitwise() {
        let pts = points_1d(9);
        let targets: Vec<f64> = pts.iter().map(|p| 1.5 + 2.0 * p[0] - 0.25 / p[0]).collect();
        let bases = vec![
            BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
            BasisFunction::from_vc(VarCombo::single(1, 0, -1)),
            BasisFunction::from_vc(VarCombo::single(1, 0, 2)),
        ];
        let reference = fit_linear_weights(&bases, &pts, &targets, &ctx());
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        let fast = fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch);
        let (FitOutcome::Fit(a), FitOutcome::Fit(b)) = (reference, fast) else {
            panic!("both paths must fit");
        };
        assert_eq!(a.coefficients, b.coefficients);
        assert_eq!(a.predictions, b.predictions);
    }

    #[test]
    fn cached_path_reuses_duplicate_columns() {
        let pts = points_1d(8);
        let targets: Vec<f64> = pts.iter().map(|p| 4.0 * p[0]).collect();
        let b = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        let bases = vec![b.clone(), b.clone(), b];
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        let _ = fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch);
        assert_eq!(scratch.cache_misses(), 1, "identical bases share one eval");
        assert_eq!(scratch.cache_hits(), 2);
        // A second individual with the same basis hits the warm cache.
        let more = vec![BasisFunction::from_vc(VarCombo::single(1, 0, 1))];
        let _ = fit_linear_weights_cached(&more, &pm, &targets, &ctx(), &mut scratch);
        assert_eq!(scratch.cache_misses(), 1);
        assert_eq!(scratch.cache_hits(), 3);
    }

    #[test]
    fn cached_path_rejects_bad_columns_and_caches_the_verdict() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let pm = PointMatrix::from_rows(&pts);
        let bases = vec![BasisFunction::from_vc(VarCombo::single(1, 0, -1))];
        let mut scratch = FitScratch::new();
        for _ in 0..2 {
            assert!(matches!(
                fit_linear_weights_cached(&bases, &pm, &[1.0, 2.0, 3.0], &ctx(), &mut scratch),
                FitOutcome::Infeasible
            ));
        }
        assert_eq!(scratch.cache_misses(), 1, "bad column is cached too");
        assert_eq!(scratch.cache_hits(), 1);
    }

    #[test]
    fn clear_cache_recycles_and_stays_correct() {
        let pts = points_1d(6);
        let targets: Vec<f64> = pts.iter().map(|p| 2.0 * p[0]).collect();
        let bases = vec![BasisFunction::from_vc(VarCombo::single(1, 0, 1))];
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        let FitOutcome::Fit(first) =
            fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch)
        else {
            panic!("fit");
        };
        scratch.clear_cache();
        assert_eq!(scratch.cached_columns(), 0);
        let FitOutcome::Fit(second) =
            fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch)
        else {
            panic!("fit");
        };
        assert_eq!(first.coefficients, second.coefficients);
        assert_eq!(scratch.cache_misses(), 2, "cleared cache re-evaluates");
    }

    #[test]
    fn scratch_reuse_across_point_sets_resets_the_cache() {
        // The same bases fit against two different point sets through one
        // scratch must not serve the first set's columns to the second.
        let bases = vec![BasisFunction::from_vc(VarCombo::single(1, 0, 1))];
        let pts_a = points_1d(6);
        let pts_b: Vec<Vec<f64>> = (1..=6).map(|i| vec![i as f64 * 10.0]).collect();
        let ya: Vec<f64> = pts_a.iter().map(|p| 2.0 * p[0]).collect();
        let yb: Vec<f64> = pts_b.iter().map(|p| 2.0 * p[0]).collect();
        let pm_a = PointMatrix::from_rows(&pts_a);
        let pm_b = PointMatrix::from_rows(&pts_b);
        let mut scratch = FitScratch::new();
        let FitOutcome::Fit(_) =
            fit_linear_weights_cached(&bases, &pm_a, &ya, &ctx(), &mut scratch)
        else {
            panic!("fit a");
        };
        let FitOutcome::Fit(fit_b) =
            fit_linear_weights_cached(&bases, &pm_b, &yb, &ctx(), &mut scratch)
        else {
            panic!("fit b");
        };
        let FitOutcome::Fit(reference) = fit_linear_weights(&bases, &pts_b, &yb, &ctx()) else {
            panic!("reference b");
        };
        assert_eq!(fit_b.coefficients, reference.coefficients);
        assert_eq!(fit_b.predictions, reference.predictions);
    }

    #[test]
    fn cached_path_handles_more_bases_than_samples() {
        let pts = points_1d(2);
        let pm = PointMatrix::from_rows(&pts);
        let bases: Vec<BasisFunction> = (1..=3)
            .map(|e| BasisFunction::from_vc(VarCombo::single(1, 0, e)))
            .collect();
        let mut scratch = FitScratch::new();
        assert!(matches!(
            fit_linear_weights_cached(&bases, &pm, &[1.0, 2.0], &ctx(), &mut scratch),
            FitOutcome::Infeasible
        ));
    }
}
