//! Integration test of the full experimental pipeline on a reduced OTA
//! problem: orthogonal-array DOE → circuit simulation → CAFFEINE →
//! SAG → test filtering. This is the paper's flow end to end, scaled to
//! CI-friendly size (27 samples, small evolutionary budget).

use caffeine::circuit::ota::{OtaDesign, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{pareto, CaffeineSettings, GrammarConfig};
use caffeine::doe::{Dataset, OrthogonalArray, ScaledHypercube, SplitDataset};
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn build_split(perf: PerfId) -> SplitDataset {
    let tb = OtaTestbench::default_07um();
    let nominal = OtaDesign::nominal().to_vec();
    let oa = OrthogonalArray::rao_hamming(3).unwrap(); // 27 runs, 13 columns
    assert_eq!(oa.columns(), 13);

    let mut tables = Vec::new();
    for dx in [0.10, 0.03] {
        let cube = ScaledHypercube::relative(&nominal, dx).unwrap();
        let pts = cube.map_array(&oa).unwrap();
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for p in &pts {
            let d = OtaDesign::from_slice(p).unwrap();
            let sim = tb.simulate(&d).expect("reduced DOE must simulate");
            rows.push(p.clone());
            let v = sim.get(perf);
            ys.push(if perf.log_scaled() { v.log10() } else { v });
        }
        let names: Vec<String> = OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect();
        tables.push(Dataset::new(names, rows, ys).unwrap());
    }
    let test = tables.pop().unwrap();
    let train = tables.pop().unwrap();
    SplitDataset::new(train, test).unwrap()
}

#[test]
fn pm_pipeline_produces_interpretable_tradeoff() {
    let split = build_split(PerfId::Pm);
    assert_eq!(split.train.n_samples(), 27);
    assert_eq!(split.test.n_samples(), 27);

    let mut settings = CaffeineSettings::quick_test();
    settings.population = 80;
    settings.generations = 60;
    settings.seed = 303;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::paper_full(13),
        RuntimeConfig::default(),
        &split.train,
    )
    .unwrap();
    let result = runner.run(&split.train).unwrap();
    assert!(result.models.len() >= 2, "front too small");

    let simplified = simplify_front(
        &result.models,
        &split.train,
        &split.test,
        &SagSettings::default(),
    );
    let front = pareto::test_tradeoff(&simplified);
    assert!(!front.is_empty());

    // The constant model's error reflects PM's relative spread; more
    // complex models must do better on training data.
    let constant_err = simplified
        .iter()
        .find(|m| m.n_bases() == 0)
        .map(|m| m.train_error)
        .expect("constant anchor present");
    let best_err = simplified
        .iter()
        .map(|m| m.train_error)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_err < constant_err,
        "evolution failed to beat the constant: {best_err} vs {constant_err}"
    );
}

#[test]
fn fu_is_modeled_on_log_scale() {
    let split = build_split(PerfId::Fu);
    // log10(fu) for a ~3.4 MHz amplifier is ~6.5.
    let mean: f64 = split.train.targets().iter().sum::<f64>() / split.train.n_samples() as f64;
    assert!((5.5..7.5).contains(&mean), "mean log10(fu) = {mean}");
}

#[test]
fn interpolative_split_keeps_test_error_moderate() {
    // The dx=0.03 test set is interior to the dx=0.10 training shell; a
    // reasonable model should interpolate (the paper's key observation).
    let split = build_split(PerfId::Srp);
    let mut settings = CaffeineSettings::quick_test();
    settings.population = 60;
    settings.generations = 40;
    settings.seed = 505;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(13),
        RuntimeConfig::default(),
        &split.train,
    )
    .unwrap();
    let result = runner.run(&split.train).unwrap();
    let simplified = simplify_front(
        &result.models,
        &split.train,
        &split.test,
        &SagSettings::default(),
    );
    let best = simplified
        .iter()
        .min_by(|a, b| a.train_error.partial_cmp(&b.train_error).unwrap())
        .unwrap();
    let qwc = best.train_error;
    let qtc = best.test_error.unwrap();
    assert!(
        qtc < qwc * 3.0 + 0.05,
        "interpolation blew up: qwc {qwc}, qtc {qtc}"
    );
}
