//! The error/complexity tradeoff and the paper's post-processing flow:
//! evolve → SAG (PRESS + forward regression) → filter on testing error.
//!
//! Run with `cargo run --release --example pareto_tradeoffs`.

use caffeine::core::expr::FormatOptions;
use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{pareto, CaffeineSettings, GrammarConfig};
use caffeine::doe::Dataset;
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn sample(n: usize, offset: f64) -> Dataset {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                1.0 + offset + (i % 8) as f64 * 0.3,
                0.5 + offset + (i / 8) as f64 * 0.45,
            ]
        })
        .collect();
    // Two main effects plus a weak second-order coupling.
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 10.0 + 4.0 / x[0] + 0.8 * x[1] + 0.05 * x[1] / x[0])
        .collect();
    Dataset::new(vec!["a".into(), "b".into()], xs, ys).unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = sample(64, 0.0);
    let test = sample(64, 0.07); // slightly shifted: interpolation check

    let mut settings = CaffeineSettings::quick_test();
    settings.population = 120;
    settings.generations = 150;
    settings.max_bases = 10;
    settings.seed = 4;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::rational(2),
        RuntimeConfig::default(),
        &train,
    )?;
    let result = runner.run(&train)?;

    println!("evolved front: {} models", result.models.len());
    let simplified = simplify_front(&result.models, &train, &test, &SagSettings::default());
    let front = pareto::test_tradeoff(&simplified);
    println!("after SAG + test filtering: {} models", front.len());
    println!();

    let opts = FormatOptions::with_names(vec!["a".into(), "b".into()]);
    println!("{:>12} {:>9} {:>9}  expression", "complexity", "qwc", "qtc");
    for m in &front {
        println!(
            "{:>12.2} {:>8.3}% {:>8.3}%  {}",
            m.complexity,
            100.0 * m.train_error,
            100.0 * m.test_error.unwrap_or(f64::NAN),
            m.format(&opts)
        );
    }
    println!();
    println!("note the macro-effects appear first; extra bases refine second-order terms");
    Ok(())
}
