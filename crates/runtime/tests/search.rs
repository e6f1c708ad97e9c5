//! Search-level behaviour of a one-island, one-thread run — the plain
//! NSGA-II loop the paper describes: it recovers a simple law, anchors
//! the front at the constant model, keeps the front nondominated, is
//! reproducible from its seed, and records statistics on schedule.

use caffeine_core::{CaffeineResult, CaffeineSettings, GrammarConfig};
use caffeine_doe::Dataset;
use caffeine_runtime::{IslandRunner, RuntimeConfig};

fn dataset(f: impl Fn(&[f64]) -> f64, n: usize, d: usize) -> Dataset {
    let mut xs = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..d)
            .map(|j| 1.0 + ((i * 7 + j * 3) % 11) as f64 * 0.35)
            .collect();
        xs.push(row);
    }
    let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
    let names = (0..d).map(|j| format!("x{j}")).collect();
    Dataset::new(names, xs, ys).unwrap()
}

fn run(settings: CaffeineSettings, grammar: GrammarConfig, data: &Dataset) -> CaffeineResult {
    let mut runner = IslandRunner::new(settings, grammar, RuntimeConfig::default(), data).unwrap();
    runner.run(data).unwrap()
}

#[test]
fn recovers_simple_rational_law() {
    let data = dataset(|x| 2.0 + 4.0 / x[0], 30, 1);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 3;
    let result = run(settings, GrammarConfig::rational(1), &data);
    let best = result.best_by_error().unwrap();
    assert!(best.train_error < 1e-6, "error = {}", best.train_error);
}

#[test]
fn result_contains_constant_anchor() {
    let data = dataset(|x| x[0] * 3.0, 20, 1);
    let mut settings = CaffeineSettings::quick_test();
    settings.generations = 10;
    let result = run(settings, GrammarConfig::rational(1), &data);
    let min_cx = result
        .models
        .iter()
        .map(|m| m.complexity)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(min_cx, 0.0, "constant anchor missing");
}

#[test]
fn front_is_nondominated_and_sorted() {
    let data = dataset(|x| x[0] + 1.0 / x[1], 25, 2);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 5;
    let result = run(settings, GrammarConfig::rational(2), &data);
    let ms = &result.models;
    assert!(!ms.is_empty());
    for w in ms.windows(2) {
        assert!(w[0].complexity <= w[1].complexity);
    }
    for i in 0..ms.len() {
        for j in 0..ms.len() {
            if i != j {
                assert!(
                    !(ms[j].train_error <= ms[i].train_error
                        && ms[j].complexity <= ms[i].complexity
                        && (ms[j].train_error < ms[i].train_error
                            || ms[j].complexity < ms[i].complexity)),
                    "model {i} dominated by {j}"
                );
            }
        }
    }
}

#[test]
fn same_seed_reproduces_same_front() {
    let data = dataset(|x| 1.0 / x[0] + x[0], 20, 1);
    let mut settings = CaffeineSettings::quick_test();
    settings.generations = 8;
    settings.seed = 11;
    let r1 = run(settings.clone(), GrammarConfig::rational(1), &data);
    let r2 = run(settings, GrammarConfig::rational(1), &data);
    let errs1: Vec<f64> = r1.models.iter().map(|m| m.train_error).collect();
    let errs2: Vec<f64> = r2.models.iter().map(|m| m.train_error).collect();
    assert_eq!(errs1, errs2);
}

#[test]
fn stats_are_recorded_and_monotone_in_generation() {
    let data = dataset(|x| x[0], 15, 1);
    let mut settings = CaffeineSettings::quick_test();
    settings.generations = 21;
    settings.stats_every = 5;
    let result = run(settings, GrammarConfig::rational(1), &data);
    assert!(result.stats.len() >= 4);
    for w in result.stats.windows(2) {
        assert!(w[0].generation < w[1].generation);
    }
}

#[test]
fn result_front_serde_round_trip() {
    let data = dataset(|x| 1.0 + 2.0 * x[0], 20, 1);
    let mut settings = CaffeineSettings::quick_test();
    settings.generations = 6;
    let result = run(settings, GrammarConfig::rational(1), &data);
    let v = serde::Serialize::to_value(&result);
    let back: CaffeineResult = serde::Deserialize::from_value(&v).unwrap();
    assert_eq!(result.models, back.models);
    assert_eq!(result.stats, back.stats);
}
