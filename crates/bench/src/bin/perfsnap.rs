//! `perfsnap` — a machine-readable snapshot of the hot-path performance
//! trajectory.
//!
//! Measures the kernels this codebase lives in — basis evaluation,
//! population fitness per generation, SAG forward regression, the
//! least-squares solve behind every fitness evaluation, the
//! nondominated sort behind every selection, and the checkpoint save
//! between generations — each as *reference
//! implementation vs. current implementation*, and writes
//! the numbers to `BENCH_eval.json` so the repo carries a recorded,
//! diffable perf trajectory rather than anecdotes.
//!
//! ```text
//! cargo run --release -p caffeine-bench --bin perfsnap            # full
//! cargo run -p caffeine-bench --bin perfsnap -- --smoke           # CI
//! cargo run -p caffeine-bench --bin perfsnap -- --out path.json
//! ```
//!
//! `--smoke` runs one timed iteration per kernel — enough to prove the
//! harness works end to end (CI runs it on every push); timings from a
//! smoke run are not meaningful and are flagged as such in the output.
//!
//! The checkpoint saves write to `.perfsnap-work/` in the working
//! directory (not the system temp dir, which may be a tmpfs), removed
//! again at the end.

use std::time::Instant;

use serde::Serialize;

use caffeine_bench::perf;
use caffeine_core::expr::{eval_basis_all, EvalContext, Tape, TapeVm, LANE_WIDTH};
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::sag::{simplify_model, SagSettings};
use caffeine_core::{nsga2, CaffeineSettings, DatasetEvaluator, Evaluator, GrammarConfig};
use caffeine_linalg::{InterceptReflector, Matrix, Qr};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One before/after measurement.
#[derive(Debug, Serialize)]
struct Comparison {
    /// Reference (pre-optimization) implementation, seconds per op.
    reference_secs: f64,
    /// Current implementation, seconds per op.
    current_secs: f64,
    /// Reference throughput, operations per second.
    reference_ops_per_sec: f64,
    /// Current throughput, operations per second.
    current_ops_per_sec: f64,
    /// `reference_secs / current_secs`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Snapshot {
    /// Snapshot schema version. Schema 2 added the normalized-throughput
    /// block: `lane_width`, `cores`, `points_per_sec`,
    /// `points_per_sec_per_core`. Schema 3 added `least_squares` and
    /// `nondominated_sort`. Schema 4 added `checkpoint_save`.
    schema: u32,
    /// Unix timestamp (seconds) of the run.
    unix_time: u64,
    /// `true` when produced by `--smoke` (timings not meaningful).
    smoke: bool,
    /// Timed iterations per kernel.
    iterations: u32,
    /// The tape VM's lane-chunk width (points per chunk).
    lane_width: u32,
    /// Logical cores available on the measuring host.
    cores: u32,
    /// Whole-machine basis-evaluation throughput: evaluated points per
    /// second with one chunked VM running per core.
    points_per_sec: f64,
    /// `points_per_sec / cores` — the number that stays comparable when
    /// the host grows beyond 1 vCPU, keeping the perf trajectory honest.
    points_per_sec_per_core: f64,
    /// 15 random paper-grammar bases × 243 points: tree-walk vs tape.
    /// One "op" is one basis evaluated over the full point set.
    eval_basis_column: Comparison,
    /// Population-200 fitness batch over 243 × 13 points: per-individual
    /// tree-walk vs compiled + column-cached. One "op" is one generation
    /// batch.
    fitness_per_generation: Comparison,
    /// 26-basis SAG forward regression: from-scratch refactorization per
    /// candidate vs shared incremental QR. One "op" is one full
    /// `simplify_model`.
    sag_forward_regression: Comparison,
    /// A 243 × 7 design (intercept plus six bases, the OTA data's mean
    /// design size) solved by least squares: row-major QR of an assembled
    /// matrix vs the fitness path's column-major QR refactored in place
    /// from the six columns' intercept images, starting at step 1, with
    /// the reflected targets carried along (images and reflected targets
    /// made once, as the column cache does). One "op" is one factor +
    /// solve.
    least_squares: Comparison,
    /// NSGA-II environmental selection's sort of 400 GP-shaped
    /// (error, complexity) pairs: `O(N²)` count-down vs sort-and-sweep.
    /// One "op" is one full sort into ordered fronts.
    nondominated_sort: Comparison,
    /// A Standard-profile snapshot (pop 200 at generation 100) saved over
    /// the previous one: a fresh file renamed over it, which frees the
    /// old blocks, vs `RuntimeCheckpoint::save`, which reuses the old
    /// inode. Both serialize and fsync. The ratio depends on the
    /// filesystem. One "op" is one save.
    checkpoint_save: Comparison,
}

fn time_per_op(iters: u32, mut f: impl FnMut()) -> f64 {
    // One untimed warmup to populate caches/pools fairly.
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

fn comparison(
    iters: u32,
    ops_per_iter: f64,
    reference: impl FnMut(),
    current: impl FnMut(),
) -> Comparison {
    let reference_secs = time_per_op(iters, reference) / ops_per_iter;
    let current_secs = time_per_op(iters, current) / ops_per_iter;
    Comparison {
        reference_secs,
        current_secs,
        reference_ops_per_sec: 1.0 / reference_secs,
        current_ops_per_sec: 1.0 / current_secs,
        speedup: reference_secs / current_secs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_eval.json".into());
    let iterations: u32 = if smoke { 1 } else { 25 };

    let data = perf::ota_shaped_dataset();
    let grammar = GrammarConfig::paper_full(13);
    let settings = CaffeineSettings::paper();
    let ctx = EvalContext::new(grammar.weights);

    // Kernel 1: basis-column evaluation.
    let gen = RandomExprGen::new(&grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let bases: Vec<_> = (0..15).map(|_| gen.gen_basis(&mut rng)).collect();
    let pm = data.point_matrix();
    let tapes: Vec<Tape> = bases.iter().map(|b| Tape::compile(b, &ctx)).collect();
    let mut vm = TapeVm::new();
    let eval_basis_column = comparison(
        iterations,
        bases.len() as f64,
        || {
            for basis in &bases {
                std::hint::black_box(eval_basis_all(basis, data.points(), &ctx));
            }
        },
        || {
            for tape in &tapes {
                let col = vm.eval(tape, &pm);
                std::hint::black_box(col.len());
                vm.recycle(col);
            }
        },
    );

    // Normalized throughput (schema 2): every available core runs the
    // chunked tape kernel concurrently over the same point set, so
    // `points_per_sec` is whole-machine basis-evaluation throughput and
    // `points_per_sec_per_core` stays comparable across hosts with
    // different core counts.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    let n_points = data.points().len() as f64;
    let sweep_iters: u32 = if smoke { 1 } else { 2000 };
    let sweep_t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let mut vm = TapeVm::new();
                for _ in 0..sweep_iters {
                    for tape in &tapes {
                        let col = vm.eval(tape, &pm);
                        std::hint::black_box(col.len());
                        vm.recycle(col);
                    }
                }
            });
        }
    });
    let sweep_secs = sweep_t0.elapsed().as_secs_f64();
    let total_points = f64::from(cores) * f64::from(sweep_iters) * tapes.len() as f64 * n_points;
    let points_per_sec = total_points / sweep_secs;
    let points_per_sec_per_core = points_per_sec / f64::from(cores);

    // Kernel 2: one generation's fitness batch.
    let base_pop = perf::gp_population(&grammar, 200, 11);
    let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
    let fitness_per_generation = comparison(
        iterations,
        1.0,
        || {
            let mut pop = base_pop.clone();
            for ind in &mut pop {
                ind.invalidate();
            }
            perf::reference_fitness_eval(&mut pop, &data, &settings, &grammar);
            std::hint::black_box(pop.len());
        },
        || {
            let mut pop = base_pop.clone();
            for ind in &mut pop {
                ind.invalidate();
            }
            evaluator.evaluate_all(&mut pop);
            std::hint::black_box(pop.len());
        },
    );

    // Kernel 3: SAG forward regression.
    let (model, sag_data) = perf::sag_workload();
    let sag_settings = SagSettings::default();
    let sag_forward_regression = comparison(
        iterations,
        1.0,
        || {
            std::hint::black_box(perf::reference_sag(&model, &sag_data, &sag_settings).n_bases());
        },
        || {
            std::hint::black_box(
                simplify_model(&model, &sag_data, &sag_settings)
                    .unwrap()
                    .n_bases(),
            );
        },
    );

    // Kernel 4: the least-squares solve of one fitness evaluation. Both
    // sides give bit-identical solutions (tests/qr_oracle.rs).
    let ls_cols: Vec<Vec<f64>> = (0..7)
        .map(|j| {
            if j == 0 {
                vec![1.0; 243]
            } else {
                data.points().iter().map(|x| x[j - 1] / x[j + 5]).collect()
            }
        })
        .collect();
    let ls_design = Matrix::from_columns(&ls_cols);
    let ls_targets = data.targets();
    let h0 = InterceptReflector::new(243);
    let ls_images: Vec<Vec<f64>> = ls_cols[1..]
        .iter()
        .map(|c| {
            let mut image = c.clone();
            h0.reflect_column(&mut image);
            image
        })
        .collect();
    let ls_slices: Vec<&[f64]> = ls_images.iter().map(Vec::as_slice).collect();
    let mut ls_rhs0 = ls_targets.to_vec();
    h0.reflect_rhs(&mut ls_rhs0).unwrap();
    let mut qr = Qr::default();
    let mut rhs = Vec::new();
    // Enough solves per timed iteration that even a `--smoke` run's single
    // iteration lasts milliseconds, so its ratio is still meaningful.
    let ls_ops = 500;
    let least_squares = comparison(
        iterations,
        f64::from(ls_ops),
        || {
            for _ in 0..ls_ops {
                let qr = perf::ReferenceQr::factor(&ls_design).unwrap();
                std::hint::black_box(qr.solve_lstsq(ls_targets).unwrap());
            }
        },
        || {
            for _ in 0..ls_ops {
                rhs.clear();
                rhs.extend_from_slice(&ls_rhs0);
                qr.factor_reflected(&h0, &ls_slices, &mut rhs).unwrap();
                std::hint::black_box(qr.back_substitute(&rhs).unwrap());
            }
        },
    );

    // Kernel 5: the nondominated sort of environmental selection (parents
    // plus offspring at population 200). Identical fronts and order on
    // both sides (tests/nsga2_oracle.rs).
    let objectives = perf::gp_objectives(400, 5);
    let sort_ops = 40;
    let nondominated_sort = comparison(
        iterations,
        f64::from(sort_ops),
        || {
            for _ in 0..sort_ops {
                std::hint::black_box(perf::reference_nondominated_sort(&objectives));
            }
        },
        || {
            for _ in 0..sort_ops {
                std::hint::black_box(nsga2::fast_nondominated_sort(&objectives));
            }
        },
    );

    // Kernel 6: the checkpoint save, under the working directory so it
    // hits the disk that real checkpoints do.
    let checkpoint = perf::standard_checkpoint();
    let work_dir = std::path::PathBuf::from(".perfsnap-work");
    std::fs::create_dir_all(&work_dir).expect("create the checkpoint work dir");
    let reference_path = work_dir.join("reference.ckpt");
    let current_path = work_dir.join("current.ckpt");
    let checkpoint_save = comparison(
        iterations,
        1.0,
        || perf::reference_checkpoint_save(&checkpoint, &reference_path).unwrap(),
        || checkpoint.save(&current_path).unwrap(),
    );
    let checkpoint_kb = std::fs::metadata(&current_path).map_or(0, |m| m.len() / 1024);
    std::fs::remove_dir_all(&work_dir).ok();

    let snapshot = Snapshot {
        schema: 4,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        smoke,
        iterations,
        lane_width: LANE_WIDTH as u32,
        cores,
        points_per_sec,
        points_per_sec_per_core,
        eval_basis_column,
        fitness_per_generation,
        sag_forward_regression,
        least_squares,
        nondominated_sort,
        checkpoint_save,
    };

    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");

    println!(
        "perfsnap → {out_path}{}",
        if smoke { " (smoke)" } else { "" }
    );
    let row = |name: &str, c: &Comparison| {
        println!(
            "  {name:<24} {:>10.1} ops/s → {:>10.1} ops/s   ({:.1}x)",
            c.reference_ops_per_sec, c.current_ops_per_sec, c.speedup
        );
    };
    row("eval basis column", &snapshot.eval_basis_column);
    row("fitness / generation", &snapshot.fitness_per_generation);
    row("SAG forward regression", &snapshot.sag_forward_regression);
    row("least squares 243x7", &snapshot.least_squares);
    row("nondominated sort 400", &snapshot.nondominated_sort);
    row(
        &format!("checkpoint save {checkpoint_kb} KB"),
        &snapshot.checkpoint_save,
    );
    println!(
        "  throughput: {:.3}M points/s over {} core(s) ({:.3}M points/s/core, lane width {})",
        snapshot.points_per_sec / 1e6,
        snapshot.cores,
        snapshot.points_per_sec_per_core / 1e6,
        snapshot.lane_width
    );
}
