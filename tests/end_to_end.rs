//! End-to-end integration tests of the full CAFFEINE stack: engine + SAG +
//! Pareto filtering + serialization, across crates.

use caffeine::core::expr::FormatOptions;
use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{pareto, CaffeineSettings, GrammarConfig, Model};
use caffeine::doe::Dataset;
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn grid(n: usize, jitter: f64, f: impl Fn(&[f64]) -> f64) -> Dataset {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                0.8 + ((i * 5) % 13) as f64 * 0.23 + jitter,
                1.1 + ((i * 11) % 7) as f64 * 0.31 + jitter,
            ]
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
    Dataset::new(vec!["u".into(), "v".into()], xs, ys).unwrap()
}

#[test]
fn recovers_rational_ground_truth_through_full_pipeline() {
    let law = |x: &[f64]| 7.0 + 2.5 * x[0] / x[1] - 1.25 / x[0];
    let train = grid(60, 0.0, law);
    let test = grid(60, 0.05, law);

    let mut settings = CaffeineSettings::quick_test();
    settings.population = 120;
    settings.generations = 120;
    settings.seed = 31;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(2),
        RuntimeConfig::default(),
        &train,
    )
    .unwrap();
    let result = runner.run(&train).unwrap();

    let simplified = simplify_front(&result.models, &train, &test, &SagSettings::default());
    let front = pareto::test_tradeoff(&simplified);
    assert!(!front.is_empty());

    let best = front
        .iter()
        .min_by(|a, b| a.test_error.partial_cmp(&b.test_error).unwrap())
        .unwrap();
    assert!(
        best.test_error.unwrap() < 0.01,
        "test error {} too high",
        best.test_error.unwrap()
    );
    // The pipeline recovered an interpretable rational expression.
    let opts = FormatOptions::with_names(vec!["u".into(), "v".into()]);
    let text = best.format(&opts);
    assert!(text.contains('u') || text.contains('v'), "model: {text}");
}

#[test]
fn front_quality_improves_with_complexity() {
    let law = |x: &[f64]| 3.0 + 1.0 / x[0] + 0.5 * x[1] + 0.1 * x[0] * x[1];
    let train = grid(50, 0.0, law);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 8;
    settings.generations = 80;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(2),
        RuntimeConfig::default(),
        &train,
    )
    .unwrap();
    let result = runner.run(&train).unwrap();

    // Along the sorted front, training error must be non-increasing.
    for w in result.models.windows(2) {
        assert!(
            w[1].train_error <= w[0].train_error + 1e-12,
            "front not monotone: {} then {}",
            w[0].train_error,
            w[1].train_error
        );
    }
    // The constant anchor is present and is the worst model.
    assert_eq!(result.models[0].complexity, 0.0);
    assert_eq!(result.models[0].n_bases(), 0);
}

#[test]
fn models_serialize_and_round_trip_predictions() {
    let law = |x: &[f64]| 2.0 * x[0] + 1.0 / x[1];
    let train = grid(40, 0.0, law);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 12;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(2),
        RuntimeConfig::default(),
        &train,
    )
    .unwrap();
    let result = runner.run(&train).unwrap();
    let best = result.best_by_error().unwrap();

    let json = serde_json::to_string(best).unwrap();
    let restored: Model = serde_json::from_str(&json).unwrap();
    let p1 = best.predict(train.points());
    let p2 = restored.predict(train.points());
    for (a, b) in p1.iter().zip(p2.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn sag_prunes_overfitted_fronts_without_hurting_error_much() {
    let law = |x: &[f64]| 4.0 + 3.0 / x[0];
    let train = grid(40, 0.0, law);
    let test = grid(40, 0.03, law);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 77;
    settings.max_bases = 10;
    settings.generations = 80;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(2),
        RuntimeConfig::default(),
        &train,
    )
    .unwrap();
    let result = runner.run(&train).unwrap();

    let simplified = simplify_front(&result.models, &train, &test, &SagSettings::default());
    // SAG output models never use more bases than their input models had
    // available, and the best test error stays tight.
    let best_test = simplified
        .iter()
        .filter_map(|m| m.test_error)
        .fold(f64::INFINITY, f64::min);
    assert!(best_test < 0.01, "best test error {best_test}");
    let max_bases = simplified.iter().map(Model::n_bases).max().unwrap_or(0);
    assert!(max_bases <= 10);
}

#[test]
fn paper_error_measure_matches_across_crates() {
    // The engine's ErrorMetric and the posynomial crate's quality measure
    // are the same q function.
    let data = grid(30, 0.0, |x| 5.0 + x[0]);
    let model =
        caffeine::posynomial::fit_posynomial(&data, &caffeine::posynomial::TemplateSpec::order1())
            .unwrap();
    let q_posyn = model.relative_rms_error(&data, 0.0);
    let metric = caffeine::core::ErrorMetric::RelativeRms { c: 0.0 };
    let q_core = metric.compute(&model.predict(data.points()), data.targets());
    assert!((q_posyn - q_core).abs() < 1e-15);
}
