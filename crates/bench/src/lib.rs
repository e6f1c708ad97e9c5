//! Shared experiment harness for regenerating the paper's tables and
//! figures, mirroring the paper's Sec. 6.1 setup:
//!
//! 1. sample the OTA design space with the orthogonal array (243 training
//!    points at `dx = 0.10`, 243 testing points at `dx = 0.03`),
//! 2. simulate all six performances with the circuit substrate,
//! 3. run CAFFEINE per performance and SAG-simplify the front — all six
//!    at once in [`run_paper`], and
//! 4. read Table I, Fig. 3, Fig. 4 and Table II off those runs (the
//!    `paper` binary, with [`PerfRun::table1_pick`] and
//!    [`PerfRun::fig4_pick`]).
//!
//! The `ablation` binary reruns the PM search under design variants
//! through the same [`search`] and [`sag_tradeoff`]; `perfsnap` times the
//! kernels against the references in [`perf`].
//!
//! The run profile is controlled by `--profile quick|standard|paper` (or
//! the `CAFFEINE_PROFILE` environment variable): `paper` uses the paper's
//! pop 200 × 5000 generations; `standard` (default) is a calibrated
//! shorter run that preserves every qualitative conclusion; `quick` is a
//! smoke test. Any other argument, a repeated `--profile`, or an unknown
//! profile name exits with status 2 and a usage line.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod perf;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use caffeine_circuit::ota::{OtaDesign, OtaPerformance, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine_core::expr::FormatOptions;
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{pareto, CaffeineSettings, ErrorMetric, GrammarConfig, Model};
use caffeine_doe::{Dataset, OrthogonalArray, ScaledHypercube, SplitDataset};
use caffeine_runtime::{IslandRunner, RuntimeConfig};

/// A run profile: evolutionary budget preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Smoke test: seconds per performance.
    Quick,
    /// Default: minutes for all six performances; reproduces every
    /// qualitative result.
    Standard,
    /// The paper's full budget (pop 200 × 5000 generations).
    Paper,
}

impl Profile {
    /// Parses `quick|standard|paper` (case-insensitive).
    pub fn parse(s: &str) -> Option<Profile> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Profile::Quick),
            "standard" => Some(Profile::Standard),
            "paper" => Some(Profile::Paper),
            _ => None,
        }
    }

    /// Reads the profile from the process's arguments and the
    /// `CAFFEINE_PROFILE` environment variable ([`Profile::from_args`]).
    /// Anything else prints the error and a usage line naming the binary
    /// to stderr and exits with status 2, so a typo never runs the
    /// Standard profile in its place.
    pub fn from_env_args() -> Profile {
        let mut args = std::env::args_os().map(|a| a.to_string_lossy().into_owned());
        let binary = args
            .next()
            .and_then(|a| {
                std::path::Path::new(&a)
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "caffeine-bench".into());
        let args: Vec<String> = args.collect();
        let env = std::env::var_os("CAFFEINE_PROFILE").map(|v| v.to_string_lossy().into_owned());
        match Profile::from_args(&args, env.as_deref()) {
            Ok(profile) => profile,
            Err(e) => {
                eprintln!("{binary}: {e}");
                eprintln!("usage: {binary} [--profile quick|standard|paper]");
                std::process::exit(2);
            }
        }
    }

    /// Parses a paper binary's arguments (program name excluded) and the
    /// value of `CAFFEINE_PROFILE`, if set. The only argument is
    /// `--profile quick|standard|paper`, at most once; it wins over the
    /// variable, which must name a profile too. With neither, the profile
    /// is `Standard`.
    ///
    /// # Errors
    ///
    /// A message naming the argument or value that is not understood.
    pub fn from_args(args: &[String], env: Option<&str>) -> Result<Profile, String> {
        let from_env = env
            .map(|v| Profile::parse(v).ok_or_else(|| format!("unknown CAFFEINE_PROFILE {v:?}")))
            .transpose()?;
        let mut from_flag = None;
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if arg != "--profile" {
                return Err(format!("unexpected argument {arg:?}"));
            }
            if from_flag.is_some() {
                return Err("--profile given more than once".into());
            }
            let value = rest.next().ok_or("--profile needs a value")?;
            from_flag =
                Some(Profile::parse(value).ok_or_else(|| format!("unknown profile {value:?}"))?);
        }
        Ok(from_flag.or(from_env).unwrap_or(Profile::Standard))
    }

    /// The engine settings of this profile (paper Sec. 6.1 where stated).
    pub fn settings(self, seed: u64) -> CaffeineSettings {
        let mut s = CaffeineSettings::paper();
        match self {
            Profile::Quick => {
                s.population = 80;
                s.generations = 60;
                s.max_bases = 8;
            }
            Profile::Standard => {
                s.population = 200;
                s.generations = 600;
                s.max_bases = 15;
            }
            Profile::Paper => {
                s.population = 200;
                s.generations = 5000;
                s.max_bases = 15;
            }
        }
        s.seed = seed;
        s.stats_every = (s.generations / 10).max(1);
        s
    }
}

/// The simulated OTA experiment data: one [`SplitDataset`] per performance
/// (with `fu` already log10-scaled for learning, as in the paper).
#[derive(Debug, Clone)]
pub struct OtaExperiment {
    /// Per-performance train/test tables.
    pub data: BTreeMap<&'static str, SplitDataset>,
    /// Training samples that failed to simulate (the paper: "some of which
    /// did not converge").
    pub train_failures: usize,
    /// Testing samples that failed to simulate.
    pub test_failures: usize,
}

impl OtaExperiment {
    /// Builds the paper's sampling plan and simulates everything.
    ///
    /// # Panics
    ///
    /// Panics when the substrate cannot produce the experiment (an
    /// implementation bug, not a data condition).
    pub fn generate() -> OtaExperiment {
        let tb = OtaTestbench::default_07um();
        let (train_pts, test_pts) = sampling_plan();

        let (train_rows, train_perf, train_failures) = simulate_all(&tb, &train_pts);
        let (test_rows, test_perf, test_failures) = simulate_all(&tb, &test_pts);

        let names: Vec<String> = OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect();
        let mut data = BTreeMap::new();
        for perf in PerfId::ALL {
            let extract = |perfs: &[OtaPerformance]| -> Vec<f64> {
                perfs
                    .iter()
                    .map(|p| {
                        let v = p.get(perf);
                        if perf.log_scaled() {
                            v.log10()
                        } else {
                            v
                        }
                    })
                    .collect()
            };
            let train = Dataset::new(names.clone(), train_rows.clone(), extract(&train_perf))
                .expect("train dataset");
            let test = Dataset::new(names.clone(), test_rows.clone(), extract(&test_perf))
                .expect("test dataset");
            data.insert(
                perf.name(),
                SplitDataset::new(train, test).expect("matching names"),
            );
        }
        OtaExperiment {
            data,
            train_failures,
            test_failures,
        }
    }

    /// The split for one performance.
    ///
    /// # Panics
    ///
    /// Panics for an unknown performance name.
    pub fn split(&self, perf: PerfId) -> &SplitDataset {
        &self.data[perf.name()]
    }
}

/// The paper's sampling plan (Sec. 6.1): the 243 runs of the orthogonal
/// array `OA(243, 121, 3, 2)` mapped to ±10 % of the nominal design for
/// training and to ±3 % for testing, as `(train, test)` points.
///
/// # Panics
///
/// Panics when the array or the cubes cannot be built (an implementation
/// bug, not a data condition).
pub fn sampling_plan() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let nominal = OtaDesign::nominal().to_vec();
    let oa = OrthogonalArray::rao_hamming(5).expect("OA(243,121,3,2)");
    let train_cube = ScaledHypercube::relative(&nominal, 0.10).expect("train cube");
    let test_cube = ScaledHypercube::relative(&nominal, 0.03).expect("test cube");
    (
        train_cube.map_array(&oa).expect("train mapping"),
        test_cube.map_array(&oa).expect("test mapping"),
    )
}

/// Simulates one sample of the plan; `None` when the point is not a
/// valid design or its simulation fails (the paper: "some of which did
/// not converge").
pub fn simulate_point(tb: &OtaTestbench, point: &[f64]) -> Option<OtaPerformance> {
    let design = OtaDesign::from_slice(point).ok()?;
    tb.simulate(&design).ok()
}

fn simulate_all(
    tb: &OtaTestbench,
    points: &[Vec<f64>],
) -> (Vec<Vec<f64>>, Vec<OtaPerformance>, usize) {
    let mut rows = Vec::with_capacity(points.len());
    let mut perfs = Vec::with_capacity(points.len());
    let mut failures = 0;
    for p in points {
        match simulate_point(tb, p) {
            Some(perf) => {
                rows.push(p.clone());
                perfs.push(perf);
            }
            None => failures += 1,
        }
    }
    (rows, perfs, failures)
}

/// The outcome of one CAFFEINE run on one performance.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// The performance.
    pub perf: PerfId,
    /// SAG-simplified front with test errors recorded, sorted by
    /// complexity.
    pub simplified: Vec<Model>,
    /// The (test-error, complexity) filtered front — the rightmost column
    /// of the paper's Fig. 3, and Table II for PM.
    pub test_front: Vec<Model>,
}

/// A Table I row: the target and the model picked under it.
#[derive(Debug)]
pub struct Table1Pick<'a> {
    /// `min(10 %, 0.4 × constant_qwc)`.
    pub target: f64,
    /// The constant model's training error (10 % when the front has none).
    pub constant_qwc: f64,
    /// The simplest model with both qwc and qtc under `target`, or the
    /// note printed in its place.
    pub model: Result<&'a Model, String>,
}

impl PerfRun {
    /// The Table I pick. The paper used a fixed 10 % target with
    /// constant-model errors of 10–25 %; this substrate's constant models
    /// sit at 2–10 %, so the target is scaled to `min(10 %, 0.4 ×
    /// constant-model qwc)` — "a real model, not just the constant" at
    /// these error scales. Without a model under target, the note names
    /// the best-qwc model's errors.
    pub fn table1_pick(&self) -> Table1Pick<'_> {
        let constant = self.simplified.iter().find(|m| m.n_bases() == 0);
        let constant_qwc = constant.map_or(0.10, |m| m.train_error);
        let target = (0.4 * constant_qwc).min(0.10);
        let under = self
            .simplified
            .iter()
            .filter(|m| m.train_error < target && m.test_error.is_some_and(|t| t < target));
        let model = least(under, |m| m.complexity).ok_or_else(|| match self.best_qwc() {
            Some(m) => format!(
                "no model under target; best qwc {} qtc {}",
                pct(m.train_error),
                pct(m.test_error.unwrap_or(f64::NAN))
            ),
            None => "no model at all".to_string(),
        });
        Table1Pick {
            target,
            constant_qwc,
            model,
        }
    }

    /// The Fig. 4 pick. The paper "fixed the training error to what the
    /// posynomial achieved, then compared testing errors": the simplest
    /// model at or below `posynomial_qwc`, else the lowest-qwc model.
    /// `None` only for an empty front.
    pub fn fig4_pick(&self, posynomial_qwc: f64) -> Option<&Model> {
        let at_or_below = self
            .simplified
            .iter()
            .filter(|m| m.train_error <= posynomial_qwc);
        least(at_or_below, |m| m.complexity).or_else(|| self.best_qwc())
    }

    fn best_qwc(&self) -> Option<&Model> {
        least(self.simplified.iter(), |m| m.train_error)
    }
}

/// The first of `models` with the least `key`.
fn least<'a>(
    models: impl Iterator<Item = &'a Model>,
    key: impl Fn(&Model) -> f64,
) -> Option<&'a Model> {
    models.min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap())
}

/// Runs the six performances' searches ([`run_performance`]) and returns
/// their runs in [`PerfId::ALL`] order. The performances are spread over
/// `available_parallelism` scoped workers; each search keeps its own seed
/// and runs on one thread, so every front is the same as a serial run's.
///
/// # Panics
///
/// Panics when a search panics.
pub fn run_paper(exp: &OtaExperiment, profile: Profile) -> Vec<PerfRun> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<OnceLock<PerfRun>> = PerfId::ALL.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(runs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&perf) = PerfId::ALL.get(i) else {
                    break;
                };
                let t0 = std::time::Instant::now();
                runs[i].get_or_init(|| run_performance(exp, perf, profile));
                eprintln!("{perf}: run finished in {:.1?}", t0.elapsed());
            });
        }
    });
    runs.into_iter()
        .map(|run| run.into_inner().expect("every performance ran"))
        .collect()
}

/// Runs CAFFEINE on one performance of the experiment with its own seed
/// and post-processes per paper Sec. 5.1.
pub fn run_performance(exp: &OtaExperiment, perf: PerfId, profile: Profile) -> PerfRun {
    let split = exp.split(perf);
    let settings = profile.settings(seed_for(perf));
    let front = search(split, &settings, GrammarConfig::paper_full(13));
    let simplified = sag_tradeoff(&front, split, &settings);
    let test_front = pareto::test_tradeoff(&simplified);
    PerfRun {
        perf,
        simplified,
        test_front,
    }
}

/// Runs one CAFFEINE search on `split.train` on one thread and one island
/// ([`RuntimeConfig::default`]) and returns its (train-error,
/// complexity) front.
///
/// # Panics
///
/// Panics when the engine rejects the configuration (an implementation
/// bug in the harness).
pub fn search(
    split: &SplitDataset,
    settings: &CaffeineSettings,
    grammar: GrammarConfig,
) -> Vec<Model> {
    IslandRunner::new(
        settings.clone(),
        grammar,
        RuntimeConfig::default(),
        &split.train,
    )
    .and_then(|mut runner| runner.run(&split.train))
    .expect("engine run")
    .models
}

/// SAG-simplifies a front (paper Sec. 5.1), recording test errors, and
/// keeps its (train-error, complexity) tradeoff.
pub fn sag_tradeoff(
    front: &[Model],
    split: &SplitDataset,
    settings: &CaffeineSettings,
) -> Vec<Model> {
    let sag = SagSettings {
        metric: settings.metric,
        complexity: settings.complexity,
        ..SagSettings::default()
    };
    pareto::train_tradeoff(&simplify_front(front, &split.train, &split.test, &sag))
}

fn seed_for(perf: PerfId) -> u64 {
    match perf {
        PerfId::Alf => 101,
        PerfId::Fu => 202,
        PerfId::Pm => 303,
        PerfId::Voffset => 404,
        PerfId::Srp => 505,
        PerfId::Srn => 606,
    }
}

/// Formatting options with the OTA variable names.
pub fn ota_format_options() -> FormatOptions {
    FormatOptions::with_names(OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect())
}

/// The error metric used throughout (the paper's `qwc`/`qtc`).
pub fn paper_metric() -> ErrorMetric {
    ErrorMetric::RelativeRms { c: 0.0 }
}

/// Renders a percentage with two digits.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Writes a JSON artifact next to the binary outputs so EXPERIMENTS.md can
/// reference machine-readable results. Failures to write are reported but
/// not fatal.
pub fn write_artifact(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("artifact written: {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize artifact {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};

    #[test]
    fn profile_parsing() {
        assert_eq!(Profile::parse("quick"), Some(Profile::Quick));
        assert_eq!(Profile::parse("PAPER"), Some(Profile::Paper));
        assert_eq!(Profile::parse("nope"), None);
    }

    #[test]
    fn profile_arguments_accept_only_a_known_profile_once() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = |a: &[&str], env| Profile::from_args(&args(a), env);
        assert_eq!(ok(&[], None), Ok(Profile::Standard));
        assert_eq!(ok(&["--profile", "quick"], None), Ok(Profile::Quick));
        assert_eq!(ok(&[], Some("paper")), Ok(Profile::Paper));
        assert_eq!(
            ok(&["--profile", "quick"], Some("paper")),
            Ok(Profile::Quick)
        );
        for bad in [
            &["--help"][..],
            &["--profile", "quik"],
            &["--profile"],
            &["--profile", "quick", "--profile", "quick"],
            &["--profile", "quick", "extra"],
            &["--profile=quick"],
            &["quick"],
        ] {
            assert!(ok(bad, None).is_err(), "{bad:?} accepted");
        }
        assert!(ok(&[], Some("quik")).is_err());
        assert!(ok(&["--profile", "quick"], Some("")).is_err());
    }

    #[test]
    fn profile_settings_scale() {
        let q = Profile::Quick.settings(1);
        let p = Profile::Paper.settings(1);
        assert!(q.generations < p.generations);
        assert_eq!(p.population, 200);
        assert_eq!(p.generations, 5000);
        assert_eq!(p.max_bases, 15);
    }

    #[test]
    fn seeds_are_distinct_per_performance() {
        let mut seeds: Vec<u64> = PerfId::ALL.iter().map(|&p| seed_for(p)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
    }

    /// A model with `n_bases` copies of one basis and the given metrics.
    fn model(n_bases: usize, complexity: f64, qwc: f64, qtc: f64) -> Model {
        let bases = vec![BasisFunction::from_vc(VarCombo::single(2, 0, 1)); n_bases];
        let mut m = Model::new(bases, vec![1.0; n_bases + 1], WeightConfig::default())
            .with_metrics(qwc, complexity);
        m.test_error = Some(qtc);
        m
    }

    fn run(simplified: Vec<Model>) -> PerfRun {
        PerfRun {
            perf: PerfId::Pm,
            simplified,
            test_front: Vec::new(),
        }
    }

    /// A constant at 5 % qwc (target 2 %) and four models: the simplest
    /// misses on qwc, the next on qtc, and two are under on both.
    fn front() -> PerfRun {
        run(vec![
            model(0, 0.0, 0.05, 0.04),
            model(1, 4.0, 0.03, 0.01),
            model(2, 6.0, 0.01, 0.03),
            model(2, 9.0, 0.01, 0.015),
            model(3, 12.0, 0.005, 0.004),
        ])
    }

    #[test]
    fn table1_pick_is_the_simplest_model_under_target_on_both_errors() {
        let runs = front();
        let pick = runs.table1_pick();
        assert_eq!(pick.constant_qwc, 0.05);
        assert!((pick.target - 0.02).abs() < 1e-15);
        let m = pick.model.expect("a model under target");
        assert_eq!((m.complexity, m.n_bases()), (9.0, 2));
    }

    #[test]
    fn table1_pick_without_a_model_under_target_gives_the_note() {
        let runs = run(vec![model(0, 0.0, 0.05, 0.04), model(1, 4.0, 0.03, 0.025)]);
        assert_eq!(
            runs.table1_pick().model.unwrap_err(),
            "no model under target; best qwc 3.00% qtc 2.50%"
        );
        let empty = run(Vec::new());
        let pick = empty.table1_pick();
        assert_eq!(pick.constant_qwc, 0.10);
        assert_eq!(pick.model.unwrap_err(), "no model at all");
    }

    #[test]
    fn fig4_pick_is_the_simplest_model_at_or_below_the_posynomial_qwc() {
        let runs = front();
        assert_eq!(runs.fig4_pick(0.01).map(|m| m.complexity), Some(6.0));
        assert_eq!(runs.fig4_pick(0.009).map(|m| m.complexity), Some(12.0));
        assert_eq!(runs.fig4_pick(1.0).map(|m| m.complexity), Some(0.0));
    }

    #[test]
    fn fig4_pick_falls_back_to_the_lowest_qwc() {
        let runs = front();
        assert_eq!(runs.fig4_pick(0.001).map(|m| m.train_error), Some(0.005));
        assert!(run(Vec::new()).fig4_pick(0.01).is_none());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }
}
