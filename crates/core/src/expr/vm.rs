//! The lane-chunked tape evaluator.
//!
//! [`TapeVm::eval`] runs a compiled [`Tape`] over a
//! [`PointMatrix`] in fixed-width chunks of [`LANE_WIDTH`] points: the
//! *entire* tape executes chunk by chunk, with the operand stack held in
//! `[f64; LANE_WIDTH]` registers-worth of state rather than whole-column
//! heap buffers. Compared to the previous column-at-a-time layout this
//!
//! * keeps the working set at `max_depth × LANE_WIDTH × 8` bytes — L1
//!   resident for any tape and any point count, where column buffers
//!   scale with `n` and thrash the cache on long tapes or big batches;
//! * turns every per-element branch into a branch-free select the
//!   autovectorizer can engage with: [`Instr::MulFactor`]'s non-finite
//!   mask is a per-chunk finiteness bitmask combined with arithmetic
//!   select (never an `if` per lane), and [`Instr::Lte`] selects among
//!   `if_less` / `otherwise` / NaN from two NaN-safe comparisons;
//! * dispatches each instruction once per chunk instead of applying
//!   `op.apply` element-wise, and strength-reduces the small `powi`
//!   exponents of [`Instr::PushVc`] into inline multiplies
//!   ([`powi_small`]).
//!
//! Semantics match the tree-walk interpreter
//! ([`super::eval::eval_basis`]): every **non-NaN** result is
//! **bit-identical**, and NaN results agree *as NaN* — per-point results
//! are independent of the chunking because every lane is independent.
//! NaN sign/payload is deliberately **not** part of the invariant: the
//! lane loops repeat the interpreter's exact scalar expressions, but the
//! optimizer may commute or vectorize them (NaN payloads are unspecified
//! to LLVM), and x86 `fmul` propagates the *first* NaN operand's bits —
//! so a release build can produce `-NaN` where the interpreter produces
//! `+NaN` for the same point. The oracle proptests in
//! `tests/tape_oracle.rs` pin this contract on every edge: remainder
//! tails (`n` not a multiple of the lane width, `n < LANE_WIDTH`,
//! `n = 0`), NaN/±inf propagation through `lte` and masked factors, and
//! the root-level all-lanes-dead early bail-out (checked against the
//! *live* lane mask, so a partial tail chunk's padding lanes can neither
//! force nor suppress it).

use caffeine_doe::PointMatrix;

use super::compile::{Instr, Tape};
use super::ops::{powi_small, BinaryOp, UnaryOp};

/// Number of `f64` lanes evaluated per chunk.
///
/// Eight lanes fill four SSE2 / two AVX registers per stack slot — wide
/// enough that instruction dispatch amortizes and the compiler unrolls
/// every lane loop with a compile-time trip count, narrow enough that a
/// deep tape's whole stack stays L1-resident.
pub const LANE_WIDTH: usize = 8;

/// One operand-stack slot: a chunk of values, one per lane.
type Lanes = [f64; LANE_WIDTH];

/// Most column buffers the pool retains; `recycle` drops the rest.
const MAX_POOLED_BUFFERS: usize = 128;

/// A recycled buffer whose capacity exceeds the last evaluation size by
/// this factor is dropped instead of pooled, so a burst of large batches
/// cannot pin memory through a long run of small ones.
const STALE_CAPACITY_FACTOR: usize = 4;

/// The tape evaluator: a lane-chunked stack machine with a bounded
/// output-buffer pool, so steady-state evaluation performs no allocation.
///
/// Not `Sync` by design — each worker thread owns its own VM (and the
/// scratch that wraps it), which is what keeps parallel fitness
/// evaluation lock-free.
#[derive(Debug, Default)]
pub struct TapeVm {
    /// Chunk operand stack, sized to the deepest tape seen.
    lanes: Vec<Lanes>,
    /// Recycled output columns (bounded; see [`TapeVm::recycle`]).
    pool: Vec<Vec<f64>>,
    /// Point count of the most recent evaluation — the yardstick for
    /// dropping over-capacity buffers on recycle.
    last_n: usize,
}

impl TapeVm {
    /// A fresh VM with an empty buffer pool.
    pub fn new() -> TapeVm {
        TapeVm::default()
    }

    fn take_buf(&mut self, n: usize) -> Vec<f64> {
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(n))
    }

    /// Returns a column to the buffer pool for reuse.
    ///
    /// The pool is bounded: at most `MAX_POOLED_BUFFERS` (128) buffers
    /// are retained, and a buffer whose capacity is more than
    /// `STALE_CAPACITY_FACTOR` (4)× the last evaluation's point count is
    /// dropped rather than kept — pooled buffers recycled across
    /// different batch sizes would otherwise keep their largest-ever
    /// capacity forever.
    pub fn recycle(&mut self, buf: Vec<f64>) {
        let keep_cap = self
            .last_n
            .max(LANE_WIDTH)
            .saturating_mul(STALE_CAPACITY_FACTOR);
        if self.pool.len() < MAX_POOLED_BUFFERS && buf.capacity() <= keep_cap {
            self.pool.push(buf);
        }
    }

    /// Number of buffers currently pooled (diagnostic).
    // lint: allow(test-only-api) — vm's tests assert the buffer pool stays bounded
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Evaluates the tape over every point of `pm`, returning the result
    /// column (length `pm.n_points()`).
    ///
    /// The returned buffer comes from the pool; hand it back with
    /// [`TapeVm::recycle`] when done to keep evaluation allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when the tape references a variable `pm` does not have, or
    /// when the tape is empty.
    pub fn eval(&mut self, tape: &Tape, pm: &PointMatrix) -> Vec<f64> {
        assert!(!tape.instrs.is_empty(), "empty tape");
        let n = pm.n_points();
        self.last_n = n;
        let mut out = self.take_buf(n);
        out.clear();
        if n == 0 {
            return out;
        }
        out.resize(n, 0.0);
        if self.lanes.len() < tape.max_depth {
            self.lanes.resize(tape.max_depth, [0.0; LANE_WIDTH]);
        }
        let mut c0 = 0;
        while c0 < n {
            let width = (n - c0).min(LANE_WIDTH);
            // Bit i set ⇔ lane i holds a real point; a partial tail
            // chunk's padding lanes are excluded from the bail-out test.
            let live = if width == LANE_WIDTH {
                (1u32 << LANE_WIDTH) - 1
            } else {
                (1u32 << width) - 1
            };
            run_chunk(tape, pm, c0, width, live, &mut self.lanes);
            out[c0..c0 + width].copy_from_slice(&self.lanes[0][..width]);
            c0 += width;
        }
        out
    }
}

/// Executes the whole tape for one chunk of points `[c0, c0 + width)`,
/// leaving the result in `lanes[0]`.
///
/// Padding lanes of a partial tail chunk compute on a neutral fill (the
/// `PushVc` monomial identity `1.0`); their values are garbage by the end
/// but are never copied out, and `live` masks them out of the root
/// bail-out decision.
fn run_chunk(
    tape: &Tape,
    pm: &PointMatrix,
    c0: usize,
    width: usize,
    live: u32,
    lanes: &mut [Lanes],
) {
    let mut sp = 0usize;
    for instr in &tape.instrs {
        match *instr {
            Instr::PushConst(c) => {
                lanes[sp] = [c; LANE_WIDTH];
                sp += 1;
            }
            Instr::PushVc { start, len } => {
                let mut acc = [1.0; LANE_WIDTH];
                for &(var, e) in &tape.vc_ops[start as usize..(start + len) as usize] {
                    let xs = &pm.var(var as usize)[c0..c0 + width];
                    mul_pow_lanes(&mut acc, xs, e);
                }
                lanes[sp] = acc;
                sp += 1;
            }
            Instr::AddTerm(w) => {
                sp -= 1;
                let term = lanes[sp];
                let acc = &mut lanes[sp - 1];
                for i in 0..LANE_WIDTH {
                    acc[i] += w * term[i];
                }
            }
            Instr::MulFactor { masked, root } => {
                sp -= 1;
                let factor = lanes[sp];
                let acc = &mut lanes[sp - 1];
                if masked {
                    // Branch-free: multiply every lane, keep the product
                    // only where the accumulator was still finite. Select,
                    // not `if` — the loop vectorizes.
                    for i in 0..LANE_WIDTH {
                        let keep = acc[i].is_finite();
                        let product = acc[i] * factor[i];
                        acc[i] = if keep { product } else { acc[i] };
                    }
                } else {
                    for i in 0..LANE_WIDTH {
                        acc[i] *= factor[i];
                    }
                }
                if root {
                    // Finiteness bitmask of the chunk; once no *live*
                    // lane is finite the chunk result is final — later
                    // root factors are masked out everywhere.
                    let mut finite = 0u32;
                    for (i, a) in acc.iter().enumerate() {
                        finite |= u32::from(a.is_finite()) << i;
                    }
                    if finite & live == 0 {
                        return;
                    }
                }
            }
            Instr::Unary(op) => unary_lanes(op, &mut lanes[sp - 1]),
            Instr::Binary(op) => {
                sp -= 1;
                let rhs = lanes[sp];
                binary_lanes(op, &mut lanes[sp - 1], &rhs);
            }
            Instr::Lte { has_cond } => {
                sp -= 1;
                let otherwise = lanes[sp];
                sp -= 1;
                let if_less = lanes[sp];
                let cond: Lanes = if has_cond {
                    sp -= 1;
                    lanes[sp]
                } else {
                    [0.0; LANE_WIDTH]
                };
                let test = &mut lanes[sp - 1];
                // Branch-free three-way select: `le` and `gt` are both
                // false exactly when either comparand is NaN, which is
                // the interpreter's NaN-propagation rule.
                for i in 0..LANE_WIDTH {
                    let le = test[i] <= cond[i];
                    let gt = test[i] > cond[i];
                    let selected = if le { if_less[i] } else { otherwise[i] };
                    test[i] = if le | gt { selected } else { f64::NAN };
                }
            }
        }
    }
    debug_assert_eq!(sp, 1, "a complete tape leaves exactly the result");
}

/// `acc[i] *= xs[i]^e` with small exponents strength-reduced
/// ([`powi_small`]); the exponent dispatch is hoisted out of the lane
/// loop so every arm is a plain multiply chain the vectorizer can take,
/// and the full-width case runs with a compile-time trip count.
///
/// Each arm computes exactly `powi_small(x, e)` before the multiply, so
/// non-NaN results stay bit-identical to the scalar path (in particular
/// `e = −1` is `acc · (1/x)`, never `acc / x` — those round differently).
#[inline]
fn mul_pow_lanes(acc: &mut Lanes, xs: &[f64], e: i32) {
    if xs.len() == LANE_WIDTH {
        let xs: &[f64; LANE_WIDTH] = xs.try_into().expect("full-width chunk");
        match e {
            1 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= xs[i];
                }
            }
            2 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= xs[i] * xs[i];
                }
            }
            3 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= xs[i] * (xs[i] * xs[i]);
                }
            }
            -1 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= 1.0 / xs[i];
                }
            }
            -2 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= 1.0 / (xs[i] * xs[i]);
                }
            }
            -3 => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= 1.0 / (xs[i] * (xs[i] * xs[i]));
                }
            }
            _ => {
                for i in 0..LANE_WIDTH {
                    acc[i] *= powi_small(xs[i], e);
                }
            }
        }
    } else {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a *= powi_small(x, e);
        }
    }
}

/// Applies a unary operator to every lane, dispatching the operator once
/// per chunk. Each arm repeats [`UnaryOp::apply`]'s exact expression so
/// non-NaN results stay bit-identical to the interpreter.
#[inline]
fn unary_lanes(op: UnaryOp, a: &mut Lanes) {
    match op {
        UnaryOp::Sqrt => {
            for v in a {
                *v = v.sqrt();
            }
        }
        UnaryOp::Ln => {
            for v in a {
                *v = v.ln();
            }
        }
        UnaryOp::Log10 => {
            for v in a {
                *v = v.log10();
            }
        }
        UnaryOp::Inv => {
            for v in a {
                *v = 1.0 / *v;
            }
        }
        UnaryOp::Abs => {
            for v in a {
                *v = v.abs();
            }
        }
        UnaryOp::Square => {
            for v in a {
                *v = *v * *v;
            }
        }
        UnaryOp::Sin => {
            for v in a {
                *v = v.sin();
            }
        }
        UnaryOp::Cos => {
            for v in a {
                *v = v.cos();
            }
        }
        UnaryOp::Tan => {
            for v in a {
                *v = v.tan();
            }
        }
        UnaryOp::Max0 => {
            for v in a {
                *v = v.max(0.0);
            }
        }
        UnaryOp::Min0 => {
            for v in a {
                *v = v.min(0.0);
            }
        }
        UnaryOp::Pow2 => {
            for v in a {
                *v = 2f64.powf(*v);
            }
        }
        UnaryOp::Pow10 => {
            for v in a {
                *v = 10f64.powf(*v);
            }
        }
    }
}

/// Applies a binary operator lane-wise, dispatching once per chunk.
#[inline]
fn binary_lanes(op: BinaryOp, a: &mut Lanes, b: &Lanes) {
    match op {
        BinaryOp::Divide => {
            for i in 0..LANE_WIDTH {
                a[i] /= b[i];
            }
        }
        BinaryOp::Pow => {
            for i in 0..LANE_WIDTH {
                a[i] = a[i].powf(b[i]);
            }
        }
        BinaryOp::Max => {
            for i in 0..LANE_WIDTH {
                a[i] = a[i].max(b[i]);
            }
        }
        BinaryOp::Min => {
            for i in 0..LANE_WIDTH {
                a[i] = a[i].min(b[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{
        eval_basis, BasisFunction, EvalContext, LteArgs, OpApplication, Tape, VarCombo, Weight,
        WeightedSum, WeightedTerm,
    };

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn w(v: f64) -> Weight {
        Weight::from_value(v, &ctx().weights)
    }

    fn x0_sum() -> WeightedSum {
        WeightedSum {
            offset: Weight::zero(),
            terms: vec![WeightedTerm {
                weight: w(1.0),
                term: BasisFunction::from_vc(VarCombo::single(1, 0, 1)),
            }],
        }
    }

    /// `1/x0 · sqrt(x0)`: all lanes die on the first root factor at 0.
    fn bailout_basis() -> BasisFunction {
        let inv = OpApplication::Unary {
            op: UnaryOp::Inv,
            arg: x0_sum(),
        };
        let sqrt = OpApplication::Unary {
            op: UnaryOp::Sqrt,
            arg: x0_sum(),
        };
        BasisFunction {
            vc: VarCombo::identity(1),
            factors: vec![inv, sqrt],
        }
    }

    fn assert_matches_interpreter(basis: &BasisFunction, points: &[Vec<f64>]) {
        let pm = PointMatrix::from_rows(points);
        let tape = Tape::compile(basis, &ctx());
        let mut vm = TapeVm::new();
        let col = vm.eval(&tape, &pm);
        assert_eq!(col.len(), points.len());
        for (t, p) in points.iter().enumerate() {
            let reference = eval_basis(basis, p, &ctx());
            // Bit-identical for non-NaN results; NaN compared by class
            // (sign/payload varies between scalar and vectorized code).
            assert!(
                reference.to_bits() == col[t].to_bits() || (reference.is_nan() && col[t].is_nan()),
                "point {t} ({p:?}): interpreter {reference:e} vs chunked {:e}",
                col[t]
            );
        }
        vm.recycle(col);
    }

    #[test]
    fn every_tail_length_matches_interpreter() {
        // n from empty through several full chunks, covering n = 0,
        // n < LANE_WIDTH, exact multiples, and every remainder.
        let basis = BasisFunction::from_vc(VarCombo::single(1, 0, -2));
        for n in 0..=(3 * LANE_WIDTH + 3) {
            let points: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 - 2.0]).collect();
            assert_matches_interpreter(&basis, &points);
        }
    }

    #[test]
    fn zero_point_eval_returns_empty_column() {
        let basis = bailout_basis();
        let tape = Tape::compile(&basis, &ctx());
        let pm = PointMatrix::from_rows(&[] as &[Vec<f64>]);
        let mut vm = TapeVm::new();
        let col = vm.eval(&tape, &pm);
        assert!(col.is_empty());
        vm.recycle(col);
    }

    #[test]
    #[should_panic(expected = "empty tape")]
    fn empty_tape_panics() {
        let mut vm = TapeVm::new();
        let _ = vm.eval(&Tape::default(), &PointMatrix::from_rows(&[vec![1.0]]));
    }

    #[test]
    fn all_lanes_dead_bailout_matches_across_tails() {
        // Full-chunk bail-out, partial-tail bail-out, and mixed chunks
        // where only some lanes die — all matching the oracle.
        let basis = bailout_basis();
        for n in [1, 3, LANE_WIDTH, LANE_WIDTH + 1, 2 * LANE_WIDTH + 5] {
            let all_dead: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0]).collect();
            assert_matches_interpreter(&basis, &all_dead);
            let mixed: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![if i % 3 == 0 { 0.0 } else { i as f64 }])
                .collect();
            assert_matches_interpreter(&basis, &mixed);
        }
    }

    #[test]
    fn masked_mulfactor_inf_times_zero_is_nan() {
        // The first factor multiplies unconditionally (the interpreter
        // checks finiteness only *after* the multiply): a VC of 1/x0 goes
        // infinite at 0, the zero-valued first factor turns it into NaN,
        // and the masked second factor must then leave the NaN alone —
        // the PR 2 edge.
        let zero = OpApplication::Unary {
            op: UnaryOp::Min0,
            arg: WeightedSum::constant(w(5.0)), // min(0, 5) = 0
        };
        let sqrt = OpApplication::Unary {
            op: UnaryOp::Sqrt,
            arg: x0_sum(),
        };
        let basis = BasisFunction {
            vc: VarCombo::single(1, 0, -1),
            factors: vec![zero, sqrt],
        };
        let points: Vec<Vec<f64>> = (0..11).map(|i| vec![i as f64]).collect();
        assert_matches_interpreter(&basis, &points);
        // And the interpreter really does produce NaN at x0 = 0 here.
        assert!(eval_basis(&basis, &[0.0], &ctx()).is_nan());
    }

    #[test]
    fn lte_nan_and_infinity_propagation_matches() {
        // ln(x0) test value: NaN for x0 < 0, -inf at 0 — exercised
        // against both lte forms over lengths spanning chunk boundaries.
        let test = WeightedSum {
            offset: Weight::zero(),
            terms: vec![WeightedTerm {
                weight: w(1.0),
                term: BasisFunction::from_op(
                    1,
                    OpApplication::Unary {
                        op: UnaryOp::Ln,
                        arg: x0_sum(),
                    },
                ),
            }],
        };
        for has_cond in [false, true] {
            let lte = OpApplication::Lte(LteArgs {
                test: Box::new(test.clone()),
                cond: has_cond.then(|| Box::new(WeightedSum::constant(w(1.5)))),
                if_less: Box::new(WeightedSum::constant(w(-7.0))),
                otherwise: Box::new(WeightedSum::constant(w(7.0))),
            });
            let basis = BasisFunction::from_op(1, lte);
            let points: Vec<Vec<f64>> = (0..19).map(|i| vec![(i as f64 - 6.0) * 0.8]).collect();
            assert_matches_interpreter(&basis, &points);
        }
    }

    #[test]
    fn vm_pool_is_reused_across_evaluations() {
        let b = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        let pm = PointMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let tape = Tape::compile(&b, &ctx());
        let mut vm = TapeVm::new();
        let c1 = vm.eval(&tape, &pm);
        let p1 = c1.as_ptr();
        vm.recycle(c1);
        let c2 = vm.eval(&tape, &pm);
        assert_eq!(c2, vec![1.0, 2.0]);
        assert_eq!(p1, c2.as_ptr(), "buffer was not recycled");
    }

    #[test]
    fn pool_is_bounded_in_count() {
        let mut vm = TapeVm::new();
        let b = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        let tape = Tape::compile(&b, &ctx());
        let pm = PointMatrix::from_rows(&vec![vec![1.0]; 4]);
        let _ = vm.eval(&tape, &pm); // set last_n
        for _ in 0..(2 * MAX_POOLED_BUFFERS) {
            vm.recycle(Vec::with_capacity(4));
        }
        assert_eq!(vm.pooled_buffers(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn recycle_drops_over_capacity_buffers() {
        let mut vm = TapeVm::new();
        let b = BasisFunction::from_vc(VarCombo::single(1, 0, 1));
        let tape = Tape::compile(&b, &ctx());
        // A big batch leaves a big buffer in the pool…
        let big: Vec<Vec<f64>> = (0..4096).map(|i| vec![i as f64 + 1.0]).collect();
        let pm_big = PointMatrix::from_rows(&big);
        let col = vm.eval(&tape, &pm_big);
        assert!(col.capacity() >= 4096);
        vm.recycle(col);
        // …until a small evaluation re-baselines `last_n`: recycling the
        // stale-capacity buffer now drops it instead of pooling it.
        let pm_small = PointMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let col = vm.eval(&tape, &pm_small); // pops the big buffer
        assert!(
            col.capacity() >= 4096,
            "pool should have served the big buffer"
        );
        vm.recycle(col);
        assert_eq!(
            vm.pooled_buffers(),
            0,
            "stale over-capacity buffer must be dropped on recycle"
        );
        // Small buffers sized to the current workload are still pooled.
        let col = vm.eval(&tape, &pm_small);
        vm.recycle(col);
        assert_eq!(vm.pooled_buffers(), 1);
    }
}
