//! Linear learning of the top-level basis weights.
//!
//! CAFFEINE's individuals only evolve the *shape* of the basis functions;
//! "basis functions are linearly weighted using least-squares learning" on
//! every fitness evaluation. This module builds the design matrix
//! `[1, f₁(x), …, f_k(x)]`, solves the least-squares problem (with a ridge
//! fallback for the collinear bases genetic search constantly produces),
//! and reports predictions.
//!
//! # The solver
//!
//! The least-squares problem is solved in Gram space by
//! [`GramSolver`]. Each basis column `f_j` is first reflected through the
//! intercept's Householder reflector `H₀`, which maps the column of ones
//! to `α·e₀`; the targets are reflected once per problem. Below row 0 the
//! intercept has no entry, so the weights `w` of `f₁ … f_k` solve the
//! `k × k` normal equations of the images' rows `1..n`, and row 0 then
//! gives the intercept: `x₀ = ((H₀y)₀ − Σ_j (H₀f_j)₀·w_j) / α`. The Gram
//! matrix is scaled to unit diagonal, factored by Cholesky, and the
//! weights are refined once with the residual computed from the images.
//! A design that is ill-conditioned (a scaled pivot under `1e-10`) or
//! that QR's rank test might call singular, or whose solve produces a
//! non-finite value, is solved by the column-major Householder
//! [`caffeine_linalg::Qr`] from the same images instead; one that QR
//! finds singular takes a small ridge on the original columns. A design
//! that holds one image twice, bit for bit, takes the ridge at once
//! (level 5 below).
//!
//! Two implementations share this solver:
//!
//! * [`fit_linear_weights`] — the tree-walk reference path, kept as the
//!   oracle the compiled path is property-tested against;
//! * the compiled hot path, which production runs as
//!   [`crate::FitProblem::evaluate_each`] → `fit_bound`: bases are lowered
//!   to [`Tape`]s, evaluated by the lane-chunked [`TapeVm`] over a
//!   [`PointMatrix`], and memoized in a [`FitScratch`] basis-column cache
//!   that lives for the run (`evaluate_each` binds the scratch once per
//!   batch, then runs `fit_bound` per fit). The solver reads the cached
//!   column slices, their cached images and the images' cached Gram
//!   terms, with no design matrix in between. [`fit_linear_weights_cached`]
//!   binds a scratch and runs `fit_bound` once: it is the oracle tests'
//!   public entry to this path.
//!
//! Both paths produce bit-identical [`FitOutcome`]s — the tape's NaN
//! sign/payload latitude (see [`crate::expr::TapeVm`]) cannot leak in,
//! because any non-finite basis column is rejected as
//! [`FitOutcome::Infeasible`] before it can reach the solver.
//!
//! # Reuse without changing a bit
//!
//! GP populations are highly redundant after crossover, and each
//! generation is bred from the last one's survivors, so the hot path
//! skips work it has already done at five levels. Each is exact, because
//! each reuses the output of a pure function of inputs it compares bit
//! for bit:
//!
//! 1. **Whole evaluations.** [`crate::EngineState::step`] hands an
//!    offspring whose basis list is bitwise equal (same structure, weights
//!    compared by `to_bits`) to a population member or an earlier
//!    offspring a copy of that evaluation, and sends only the distinct
//!    rest to the evaluator. An evaluation is a pure function of the
//!    bases, the problem being fixed. The lists are found by a bitwise
//!    key of each: an offspring's is hashed once, when it is placed, and
//!    carried with it through selection, so the members' keys are not
//!    hashed again (the state recomputes them only on load).
//! 2. **Basis columns.** [`FitScratch`] keys its column cache on the same
//!    bitwise hash of each [`BasisFunction`] and confirms a hit with the
//!    same bitwise equality, so a tape is compiled only on a miss and a
//!    hash collision never serves a foreign column. Bitwise-equal bases
//!    compile to equal tapes and so to equal columns under one
//!    [`EvalContext`] and one point set — two of the three things the
//!    scratch is bound to (the targets are the third, for level 4).
//!    The cache outlives a batch: each batch binds the scratch once and
//!    starts by dropping only the columns the previous batch did not
//!    look up ([`crate::FitProblem::evaluate_each`]), so columns shared
//!    by the survivors and their offspring are evaluated once while
//!    every batch keeps using them, not once per generation, and the
//!    cache stays bounded by two batches' worth of columns.
//! 3. **The intercept reflection.** `H₀` depends only on the row count,
//!    and each column's image under it only on that column. So the cache
//!    stores every usable column next to its image (computed by the QR
//!    kernel's own update), and the targets are reflected once per
//!    problem. Predictions and the ridge fallback read the original
//!    columns.
//! 4. **Per-column Gram terms.** The Gram matrix's diagonal and the
//!    normal equations' right-hand side hold one number per column: the
//!    image's squared norm below row 0 and its dot with the reflected
//!    targets. A miss stores both after the image ([`GramColumn`]); each
//!    sums in the solver's own fixed order, so the Gram matrix and the
//!    right-hand side keep their bits. New targets reset the cache.
//! 5. **Repeated columns.** A design whose images are bitwise equal (the
//!    same cache slot, or equal values) is turned down by the Gram path
//!    and found singular by Householder QR (`tests/fit_oracle.rs` in
//!    `caffeine-bench` checks QR on 2000 such designs); it goes to the
//!    ridge without either attempt.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use caffeine_doe::PointMatrix;
use caffeine_linalg::{
    lstsq_ridge_columns, GramColumn, GramSolver, InterceptReflector, LinalgError, Matrix,
};
use caffeine_obs::PhaseAccumulator;

use crate::expr::{eval_basis_all, BasisFunction, EvalContext, Tape, TapeVm, WeightConfig};
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
    design_columns(bases, points, ctx).map(|columns| Matrix::from_columns(&columns))
}

/// The columns of [`design_matrix`], intercept first.
fn design_columns(
    bases: &[BasisFunction],
    points: &[Vec<f64>],
    ctx: &EvalContext,
) -> Option<Vec<Vec<f64>>> {
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
    Some(columns)
}

/// Fits the linear weights of a candidate model (tree-walk reference
/// path — see the module docs for the compiled hot path).
///
/// Collinear bases fall back to a small ridge; any other failure (or a
/// non-finite design column) yields [`FitOutcome::Infeasible`].
// lint: allow(test-only-api) — fit, tape and determinism oracle tests fit bases through it
pub fn fit_linear_weights(
    bases: &[BasisFunction],
    points: &[Vec<f64>],
    targets: &[f64],
    ctx: &EvalContext,
) -> FitOutcome {
    let Some(columns) = design_columns(bases, points, ctx) else {
        return FitOutcome::Infeasible;
    };
    let n = points.len();
    if n < columns.len() {
        // More bases than samples: refuse rather than interpolate noise.
        return FitOutcome::Infeasible;
    }
    let h0 = InterceptReflector::new(n);
    let mut rhs0 = targets.to_vec();
    if h0.reflect_rhs(&mut rhs0).is_err() {
        return FitOutcome::Infeasible;
    }
    let images: Vec<Vec<f64>> = columns[1..]
        .iter()
        .map(|col| {
            let mut image = col.clone();
            h0.reflect_column(&mut image);
            image
        })
        .collect();
    let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    let images: Vec<GramColumn> = images.iter().map(|g| GramColumn::new(g, &rhs0)).collect();
    solve_columns(
        &cols,
        &images,
        &h0,
        &rhs0,
        targets,
        &mut GramSolver::default(),
    )
}

/// Relative ridge of the fallback fit for collinear designs.
const RIDGE_LAMBDA: f64 = 1e-9;

/// The least-squares stage of both paths, on the design
/// `[1 | f₁ | … | f_k]` given by its columns `cols` (intercept first) and
/// the images of `f₁ … f_k` under the intercept reflector `h0` with their
/// Gram terms against the reflected targets `rhs0`: the [`GramSolver`],
/// with a small ridge on the original columns when its Householder
/// fallback finds the design singular. A design that repeats an image
/// bit for bit goes to the ridge at once ([`repeats_an_image`]).
/// Predictions follow [`Matrix::matvec`]'s per-row order (`0.0`, then
/// `+ a_ij·x_j` for ascending `j`).
fn solve_columns(
    cols: &[&[f64]],
    images: &[GramColumn<'_>],
    h0: &InterceptReflector,
    rhs0: &[f64],
    targets: &[f64],
    solver: &mut GramSolver,
) -> FitOutcome {
    let ridge = || lstsq_ridge_columns(cols, targets, RIDGE_LAMBDA).ok();
    let coefficients = if repeats_an_image(images) {
        ridge()
    } else {
        match solver.solve(h0, images, rhs0) {
            Ok(c) => Some(c),
            Err(LinalgError::Singular { .. }) => ridge(),
            Err(_) => None,
        }
    };
    let Some(coefficients) = coefficients else {
        return FitOutcome::Infeasible;
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

/// `true` when two of the images are equal bit for bit: the same cache
/// slot, or equal values. The Gram path's pivot floor turns such a
/// design down, and Householder QR reduces the second copy of the column
/// to rounding noise under its rank tolerance and calls it singular
/// (`tests/fit_oracle.rs` in `caffeine-bench` holds QR to that), so
/// answering with the ridge at once skips both attempts and changes no
/// bit. The stored terms are compared first, so distinct images rarely
/// cost more than two integer comparisons.
fn repeats_an_image(images: &[GramColumn<'_>]) -> bool {
    let bits = |c: &GramColumn<'_>| c.terms().map(f64::to_bits);
    images.iter().enumerate().any(|(j, a)| {
        images[..j].iter().any(|b| {
            bits(a) == bits(b)
                && (std::ptr::eq(a.image(), b.image())
                    || a.image()
                        .iter()
                        .zip(b.image())
                        .all(|(x, y)| x.to_bits() == y.to_bits()))
        })
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

/// The bits of everything in an [`EvalContext`] (destructured, so a new
/// field cannot be left out of the scratch's binding).
fn ctx_bits(ctx: &EvalContext) -> [u64; 2] {
    let EvalContext {
        weights: WeightConfig { b, zero_band },
    } = *ctx;
    [b.to_bits(), zero_band.to_bits()]
}

/// One memoized basis column: the basis that produced it (compared
/// bitwise on lookup, so a hash collision costs a comparison, never
/// correctness), its values if the column is numerically usable, and the
/// last batch that read it.
#[derive(Debug)]
struct CacheEntry {
    basis: BasisFunction,
    /// The column over the bound point set, followed by its image under
    /// the intercept reflector and the image's two
    /// [`GramColumn::terms`] (see [`column_parts`]); `None` for an
    /// unusable column, whose buffer went straight back to the VM's
    /// pool. One buffer per entry keeps the VM's bounded pool serving
    /// every cached column.
    values: Option<Vec<f64>>,
    /// The number of the last batch ([`FitScratch::begin_batch`]) that
    /// looked this column up.
    used_in: u64,
}

/// The column, its intercept image and the image's Gram terms, from a
/// usable column's buffer of `2n + 2` values.
fn column_parts(values: &[f64], n: usize) -> (&[f64], GramColumn<'_>) {
    let (col, rest) = values.split_at(n);
    let (image, terms) = rest.split_at(n);
    (col, GramColumn::with_terms(image, [terms[0], terms[1]]))
}

/// Where a gathered design column lives during one fit.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// In the cache, under this key.
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

/// What a scratch's cached state was computed for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Binding {
    /// [`pm_fingerprint`] of the point set the columns were evaluated on.
    points: u64,
    /// [`ctx_bits`] of the context the bases were compiled under.
    ctx: [u64; 2],
}

/// Reusable state of the compiled fitness path: the lane-chunked tape VM
/// with its bounded column-buffer pool, one recycled tape, the
/// basis-column cache, the constants of the intercept reflection, and
/// the solver's buffers.
///
/// The cache is keyed on each basis itself (its bitwise structural hash,
/// confirmed by bitwise equality), so a hit costs a hash and a comparison
/// and only a miss compiles a tape. A miss stores the evaluated column
/// and, when usable, its image under the intercept's Householder
/// reflector and the image's two Gram terms, the solver's input (see the
/// [module docs](self)). Cached state is bound to the [`PointMatrix`] and
/// the [`EvalContext`] it was computed for, and to the targets the terms
/// were computed against: a fit against any one of them changed resets
/// the cache instead of serving stale columns.
///
/// The cache lives for the scratch's whole life, bounded by batches:
/// [`crate::FitProblem::evaluate_each`] starts each batch by dropping the
/// columns the previous batch did not use, so after a batch the cache
/// holds only columns that batch or the one before it looked up.
/// Offspring are bred from the survivors' bases, so a generation finds
/// most of its columns already cached by the last.
///
/// One scratch serves one thread; [`crate::DatasetEvaluator`] creates one
/// per batch, while each thread of the runtime's parallel evaluator keeps
/// one for its whole life, so its cache, the VM's chunk stack and its
/// buffer pool stay warm from one generation to the next.
/// Steady-state evaluation through a warm scratch performs no allocation
/// beyond the solver's and one basis clone per cache miss —
/// `tests/alloc_growth.rs` pins down that the count does not grow.
#[derive(Debug, Default)]
pub struct FitScratch {
    vm: TapeVm,
    /// The tape a miss compiles into, reused across misses.
    tape: Tape,
    /// Fixed-key hashing (the keys are already structural hashes): the
    /// order in which [`FitScratch::begin_batch`] and
    /// [`FitScratch::clear_cache`] recycle buffers then repeats run to
    /// run, so which recycled buffer a later column reuses — and hence
    /// the allocation count `tests/alloc_growth.rs` pins — does too.
    cache: HashMap<u64, CacheEntry, BuildHasherDefault<DefaultHasher>>,
    /// The number of the current batch.
    batch: u64,
    bound_to: Option<Binding>,
    temp_cols: Vec<Vec<f64>>,
    slots: Vec<Slot>,
    /// The intercept column (all ones), as long as the bound point set.
    ones: Vec<f64>,
    /// The intercept's Householder reflector for the bound point set.
    h0: InterceptReflector,
    /// The targets [`FitScratch::rhs0`] was computed from.
    targets: Vec<f64>,
    /// `H₀·targets`, or `None` when the targets failed validation.
    rhs0: Option<Vec<f64>>,
    /// The least-squares solver, its buffers reused per fit.
    solver: GramSolver,
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
    // lint: allow(test-only-api) — fit's and runtime's determinism tests observe the column cache
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

    /// Starts a batch: drops the cached columns the previous batch did
    /// not look up, recycling their buffers, and keeps the rest for this
    /// one.
    pub(crate) fn begin_batch(&mut self) {
        let previous = self.batch;
        self.batch += 1;
        let vm = &mut self.vm;
        // lint: allow(determinism) — each entry's fate depends on that entry alone; the visit order only decides which recycled buffer a later column reuses, and every reuse overwrites it
        self.cache.retain(|_, e| {
            let keep = e.used_in == previous;
            if !keep {
                if let Some(values) = e.values.take() {
                    vm.recycle(values);
                }
            }
            keep
        });
    }

    /// Empties the basis-column cache, recycling every column buffer for
    /// reuse; capacity is retained.
    fn clear_cache(&mut self) {
        // lint: allow(determinism) — drain order only decides which recycled buffer a future column reuses; contents are fully overwritten
        for values in self.cache.drain().filter_map(|(_, e)| e.values) {
            self.vm.recycle(values);
        }
    }

    /// Binds the scratch to the point set and context of a fit, resetting
    /// the cache (and, for a new point count, the intercept constants)
    /// when either differs from the last fit's.
    fn bind(&mut self, pm: &PointMatrix, ctx: &EvalContext) {
        let binding = Binding {
            points: pm_fingerprint(pm),
            ctx: ctx_bits(ctx),
        };
        if self.bound_to == Some(binding) {
            return;
        }
        self.clear_cache();
        self.bound_to = Some(binding);
        let n = pm.n_points();
        if self.h0.rows() != n {
            self.h0 = InterceptReflector::new(n);
            self.ones.clear();
            self.ones.resize(n, 1.0);
            // The reflected targets belong to the old point count.
            self.targets.clear();
            self.rhs0 = None;
        }
    }

    /// Binds the scratch to everything a fit reads besides the bases:
    /// [`FitScratch::bind`] then [`FitScratch::bind_targets`]. A batch
    /// binds once for all its fits ([`crate::FitProblem::evaluate_each`]).
    pub(crate) fn bind_problem(&mut self, pm: &PointMatrix, ctx: &EvalContext, targets: &[f64]) {
        self.bind(pm, ctx);
        self.bind_targets(targets);
    }

    /// Reflects `targets` through the intercept reflector unless they
    /// are bitwise the ones reflected last; new targets reset the cache,
    /// whose Gram terms were computed against the old ones.
    fn bind_targets(&mut self, targets: &[f64]) {
        let same = self.targets.len() == targets.len()
            && self
                .targets
                .iter()
                .zip(targets)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if same {
            return;
        }
        self.clear_cache();
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        let mut rhs0 = self.rhs0.take().unwrap_or_default();
        rhs0.clear();
        rhs0.extend_from_slice(targets);
        self.rhs0 = self.h0.reflect_rhs(&mut rhs0).is_ok().then_some(rhs0);
    }

    /// Evaluates one basis over `pm` into a pooled buffer: the column,
    /// followed by its intercept image and the image's Gram terms against
    /// the bound targets (NaN when they failed validation; no fit reads
    /// them then). An unusable column's buffer goes back to the pool.
    fn evaluate(
        &mut self,
        basis: &BasisFunction,
        pm: &PointMatrix,
        ctx: &EvalContext,
    ) -> Option<Vec<f64>> {
        self.tape.compile_into(basis, ctx);
        let mut values = self.vm.eval(&self.tape, pm);
        let n = values.len();
        // Room for the image and its terms whether or not the column is
        // usable, so that any pooled buffer holds any later column
        // without growing.
        values.reserve_exact(n + 2);
        if !column_ok(&values) {
            self.vm.recycle(values);
            return None;
        }
        values.extend_from_within(..);
        self.h0.reflect_column(&mut values[n..]);
        let terms = self
            .rhs0
            .as_deref()
            .map_or([f64::NAN; 2], |z| GramColumn::new(&values[n..], z).terms());
        values.extend_from_slice(&terms);
        Some(values)
    }

    /// Looks up (or evaluates and caches) the column of one basis;
    /// returns the slot or `None` when the column is unusable.
    fn gather(
        &mut self,
        basis: &BasisFunction,
        pm: &PointMatrix,
        ctx: &EvalContext,
    ) -> Option<Slot> {
        let key = basis.bits_key();
        let lookup = match self.cache.get_mut(&key) {
            Some(e) if e.basis.bits_eq(basis) => {
                e.used_in = self.batch;
                Lookup::Hit(e.values.is_some())
            }
            Some(_) => Lookup::Collision,
            None => Lookup::Miss,
        };
        match lookup {
            Lookup::Hit(ok) => {
                self.hits += 1;
                ok.then_some(Slot::Cached(key))
            }
            Lookup::Miss => {
                self.misses += 1;
                let values = self.evaluate(basis, pm, ctx);
                let ok = values.is_some();
                let entry = CacheEntry {
                    basis: basis.clone(),
                    values,
                    used_in: self.batch,
                };
                self.cache.insert(key, entry);
                ok.then_some(Slot::Cached(key))
            }
            Lookup::Collision => {
                // A different basis owns this key: evaluate without
                // caching (astronomically rare; correctness first).
                self.misses += 1;
                let values = self.evaluate(basis, pm, ctx)?;
                self.temp_cols.push(values);
                Some(Slot::Temp(self.temp_cols.len() - 1))
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
/// in both paths), and both paths run the same solver on the same column
/// images — here read straight from the cache, never assembled into a
/// matrix.
// lint: allow(test-only-api) — tape_oracle and fit_oracle reach fit_bound's cached path by it
pub fn fit_linear_weights_cached(
    bases: &[BasisFunction],
    pm: &PointMatrix,
    targets: &[f64],
    ctx: &EvalContext,
    scratch: &mut FitScratch,
) -> FitOutcome {
    scratch.bind_problem(pm, ctx, targets);
    fit_bound(bases, pm, targets, ctx, scratch)
}

/// [`fit_linear_weights_cached`] through a scratch already bound to `pm`,
/// `ctx` and `targets` ([`FitScratch::bind_problem`]).
pub(crate) fn fit_bound(
    bases: &[BasisFunction],
    pm: &PointMatrix,
    targets: &[f64],
    ctx: &EvalContext,
    scratch: &mut FitScratch,
) -> FitOutcome {
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
    let Some(rhs0) = scratch.rhs0.as_deref() else {
        scratch.finish_fit();
        return FitOutcome::Infeasible;
    };
    let outcome = {
        let _solve = telemetry.as_deref().map(|t| t.span(phases::LINEAR_SOLVE));
        let mut cols: Vec<&[f64]> = Vec::with_capacity(k + 1);
        let mut images: Vec<GramColumn> = Vec::with_capacity(k);
        cols.push(&scratch.ones);
        for slot in &scratch.slots {
            let values = match *slot {
                Slot::Cached(key) => scratch.cache[&key]
                    .values
                    .as_deref()
                    .expect("only a usable column gets a slot"),
                Slot::Temp(i) => &scratch.temp_cols[i],
            };
            let (col, image) = column_parts(values, n);
            cols.push(col);
            images.push(image);
        }
        solve_columns(
            &cols,
            &images,
            &scratch.h0,
            rhs0,
            targets,
            &mut scratch.solver,
        )
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
    fn a_batch_keeps_the_columns_the_batch_before_it_looked_up() {
        let pts = points_1d(8);
        let targets: Vec<f64> = pts.iter().map(|p| 1.0 + p[0]).collect();
        let pm = PointMatrix::from_rows(&pts);
        let basis = |e| BasisFunction::from_vc(VarCombo::single(1, 0, e));
        let mut scratch = FitScratch::new();
        let batch = |bases: &[BasisFunction], scratch: &mut FitScratch| {
            scratch.begin_batch();
            for b in bases {
                let _ = fit_linear_weights_cached(
                    std::slice::from_ref(b),
                    &pm,
                    &targets,
                    &ctx(),
                    scratch,
                );
            }
            (scratch.cache_misses(), scratch.cached_columns())
        };
        assert_eq!(batch(&[basis(1), basis(2)], &mut scratch), (2, 2));
        // x² is kept from the batch before; x³ joins it.
        assert_eq!(batch(&[basis(2), basis(3)], &mut scratch), (3, 3));
        // x, unused last batch, was dropped: evaluated again.
        assert_eq!(batch(&[basis(3), basis(1)], &mut scratch), (4, 3));
        // Nothing looked up: only the last batch's columns stay.
        assert_eq!(batch(&[], &mut scratch), (4, 2));
        assert_eq!(batch(&[], &mut scratch), (4, 0));
    }

    #[test]
    fn scratch_reuse_across_targets_resets_the_cache() {
        // Each cached column stores its dot with the reflected targets;
        // a fit against new targets must not read the old dot.
        let pts = points_1d(7);
        let bases = vec![
            BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
            BasisFunction::from_vc(VarCombo::single(1, 0, -1)),
        ];
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        for slope in [2.0, -3.0] {
            let targets: Vec<f64> = pts.iter().map(|p| 1.0 + slope * p[0]).collect();
            let FitOutcome::Fit(fit) =
                fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch)
            else {
                panic!("fit");
            };
            let FitOutcome::Fit(reference) = fit_linear_weights(&bases, &pts, &targets, &ctx())
            else {
                panic!("reference fit");
            };
            assert_eq!(fit.coefficients, reference.coefficients);
            assert_eq!(fit.predictions, reference.predictions);
        }
        assert_eq!(scratch.cache_misses(), 4, "new targets re-evaluate");
    }

    #[test]
    fn scratch_reuse_across_contexts_resets_the_cache() {
        // The same basis under two weight mappings evaluates differently;
        // one scratch must not serve the first context's column to the
        // second.
        use crate::expr::{OpApplication, UnaryOp, Weight, WeightConfig, WeightedSum};
        let narrow = EvalContext::new(WeightConfig {
            b: 2.0,
            ..WeightConfig::default()
        });
        let basis = BasisFunction::from_op(
            1,
            OpApplication::Unary {
                op: UnaryOp::Square,
                arg: WeightedSum::constant(Weight::from_raw(3.0, &WeightConfig::default())),
            },
        );
        let bases = vec![basis, BasisFunction::from_vc(VarCombo::single(1, 0, 1))];
        let pts = points_1d(7);
        let targets: Vec<f64> = pts.iter().map(|p| 1.0 + 2.0 * p[0]).collect();
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        let _ = fit_linear_weights_cached(&bases, &pm, &targets, &ctx(), &mut scratch);
        let FitOutcome::Fit(narrow_fit) =
            fit_linear_weights_cached(&bases, &pm, &targets, &narrow, &mut scratch)
        else {
            panic!("fit under the second context");
        };
        assert_eq!(scratch.cache_misses(), 4, "the second context re-evaluates");
        let FitOutcome::Fit(reference) = fit_linear_weights(&bases, &pts, &targets, &narrow) else {
            panic!("reference fit");
        };
        assert_eq!(narrow_fit.coefficients, reference.coefficients);
        assert_eq!(narrow_fit.predictions, reference.predictions);
    }

    #[test]
    fn signed_zero_weights_never_share_a_cache_slot() {
        use crate::expr::{OpApplication, UnaryOp, Weight, WeightConfig, WeightedSum};
        // `inv(w + x)` with the offset `w` at raw +0.0 or -0.0: the two
        // trees are `==`, and both offsets interpret to 0.0.
        let with_offset = |raw: f64| {
            BasisFunction::from_op(
                1,
                OpApplication::Unary {
                    op: UnaryOp::Inv,
                    arg: WeightedSum {
                        offset: Weight::from_raw(raw, &WeightConfig::default()),
                        terms: vec![crate::expr::WeightedTerm {
                            weight: Weight::from_value(1.0, &WeightConfig::default()),
                            term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
                        }],
                    },
                },
            )
        };
        let (pos, neg) = (with_offset(0.0), with_offset(-0.0));
        assert_eq!(pos, neg);
        let pts = points_1d(6);
        let targets: Vec<f64> = pts.iter().map(|p| 2.0 + 1.0 / p[0]).collect();
        let pm = PointMatrix::from_rows(&pts);
        let mut scratch = FitScratch::new();
        let _ = fit_linear_weights_cached(
            std::slice::from_ref(&pos),
            &pm,
            &targets,
            &ctx(),
            &mut scratch,
        );
        let _ = fit_linear_weights_cached(&[neg], &pm, &targets, &ctx(), &mut scratch);
        assert_eq!(scratch.cache_misses(), 2);
        assert_eq!(scratch.cache_hits(), 0);
        assert_eq!(scratch.cached_columns(), 2);
        let _ = fit_linear_weights_cached(&[pos], &pm, &targets, &ctx(), &mut scratch);
        assert_eq!(scratch.cache_hits(), 1, "a bitwise repeat still hits");
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
