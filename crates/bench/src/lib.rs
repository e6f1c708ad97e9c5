//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in this crate follows the same flow, mirroring the paper's
//! Sec. 6.1 setup:
//!
//! 1. sample the OTA design space with the orthogonal array (243 training
//!    points at `dx = 0.10`, 243 testing points at `dx = 0.03`),
//! 2. simulate all six performances with the circuit substrate,
//! 3. run CAFFEINE per performance, SAG-simplify the front, and
//! 4. print the table/figure the paper reports.
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

use caffeine_circuit::ota::{OtaDesign, OtaPerformance, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine_core::expr::FormatOptions;
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{CaffeineResult, CaffeineSettings, ErrorMetric, GrammarConfig, Model};
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
    /// Raw engine result (train-error/complexity front).
    pub result: CaffeineResult,
    /// SAG-simplified front with test errors recorded, sorted by
    /// complexity.
    pub simplified: Vec<Model>,
    /// The (test-error, complexity) filtered front — the rightmost column
    /// of the paper's Fig. 3.
    pub test_front: Vec<Model>,
}

/// Runs CAFFEINE on one performance of the experiment and post-processes
/// per paper Sec. 5.1.
///
/// # Panics
///
/// Panics when the engine rejects the configuration (an implementation
/// bug in the harness).
pub fn run_performance(exp: &OtaExperiment, perf: PerfId, profile: Profile) -> PerfRun {
    let split = exp.split(perf);
    let settings = profile.settings(seed_for(perf));
    let grammar = GrammarConfig::paper_full(13);
    let result = IslandRunner::new(
        settings.clone(),
        grammar,
        RuntimeConfig::default(),
        &split.train,
    )
    .and_then(|mut runner| runner.run(&split.train))
    .expect("engine run");

    let sag = SagSettings {
        min_improvement: 1.0,
        metric: settings.metric,
        complexity: settings.complexity,
    };
    let mut simplified = simplify_front(&result.models, &split.train, &split.test, &sag);
    simplified = caffeine_core::pareto::train_tradeoff(&simplified);
    let test_front = caffeine_core::pareto::test_tradeoff(&simplified);
    PerfRun {
        perf,
        result,
        simplified,
        test_front,
    }
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

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }
}
