//! Symbolic modeling of the OTA testbench — a miniature version of the
//! paper's headline experiment.
//!
//! Builds a reduced DOE (27 samples from OA(27, 13, 3, 2)), simulates the
//! phase margin with the circuit substrate, evolves symbolic models, and
//! prints the tradeoff with the paper's variable names (`id1`, `vsg1`, …).
//!
//! Run with `cargo run --release --example ota_modeling`.

use caffeine::circuit::ota::{OtaDesign, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine::core::expr::FormatOptions;
use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{pareto, CaffeineSettings, GrammarConfig};
use caffeine::doe::{Dataset, OrthogonalArray, ScaledHypercube};
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn simulate_table(
    tb: &OtaTestbench,
    points: &[Vec<f64>],
    perf: PerfId,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for p in points {
        if let Ok(design) = OtaDesign::from_slice(p) {
            if let Ok(result) = tb.simulate(&design) {
                rows.push(p.clone());
                ys.push(result.get(perf));
            }
        }
    }
    (rows, ys)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tb = OtaTestbench::default_07um();
    let nominal = OtaDesign::nominal().to_vec();

    // OA(27, 13, 3, 2): the smallest 3-level strength-2 plan that carries
    // all 13 design variables.
    let oa = OrthogonalArray::rao_hamming(3)?;
    let train_pts = ScaledHypercube::relative(&nominal, 0.10)?.map_array(&oa)?;
    let test_pts = ScaledHypercube::relative(&nominal, 0.03)?.map_array(&oa)?;

    let perf = PerfId::Pm;
    let (train_x, train_y) = simulate_table(&tb, &train_pts, perf);
    let (test_x, test_y) = simulate_table(&tb, &test_pts, perf);
    println!(
        "simulated {} train / {} test samples of {perf}",
        train_y.len(),
        test_y.len()
    );

    let names: Vec<String> = OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect();
    let train = Dataset::new(names.clone(), train_x, train_y)?;
    let test = Dataset::new(names, test_x, test_y)?;

    let mut settings = CaffeineSettings::quick_test();
    settings.population = 100;
    settings.generations = 120;
    settings.seed = 7;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::paper_full(13),
        RuntimeConfig::default(),
        &train,
    )?;
    let result = runner.run(&train)?;

    // SAG + test filtering, as in the paper's post-processing.
    let simplified = simplify_front(&result.models, &train, &test, &SagSettings::default());
    let front = pareto::test_tradeoff(&simplified);

    let opts = FormatOptions::with_names(OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect());
    println!();
    println!("{:>8} {:>8}  PM expression", "qtc", "qwc");
    for m in &front {
        println!(
            "{:>7.2}% {:>7.2}%  {}",
            100.0 * m.test_error.unwrap_or(f64::NAN),
            100.0 * m.train_error,
            m.format(&opts)
        );
    }
    Ok(())
}
