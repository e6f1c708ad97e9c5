//! Quickstart: template-free symbolic regression in a few lines.
//!
//! We hand CAFFEINE samples of an unknown law (here `y = 3 + 2/x − 0.5·x`,
//! but the engine does not know that) and get back a *set* of symbolic
//! models trading off error against complexity.
//!
//! Run with `cargo run --example quickstart`.

use caffeine::core::expr::FormatOptions;
use caffeine::core::{CaffeineSettings, GrammarConfig};
use caffeine::doe::Dataset;
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Sample the unknown response (kept away from zero so the
    //    relative-error metric reads naturally).
    let xs: Vec<Vec<f64>> = (1..=40).map(|i| vec![0.6 + i as f64 * 0.08]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 / x[0] - 0.5 * x[0]).collect();
    let data = Dataset::new(vec!["x".into()], xs, ys)?;

    // 2. Configure: a rational-function grammar and a small budget.
    let grammar = GrammarConfig::rational(1);
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = 42;
    settings.generations = 80;

    // 3. Evolve.
    let mut runner = IslandRunner::new(settings, grammar, RuntimeConfig::default(), &data)?;
    let result = runner.run(&data)?;

    // 4. Inspect the error/complexity tradeoff.
    let opts = FormatOptions::with_names(vec!["x".into()]);
    println!(
        "error/complexity tradeoff ({} models):",
        result.models.len()
    );
    println!("{:>10} {:>12}  expression", "error", "complexity");
    for model in &result.models {
        println!(
            "{:>9.4}% {:>12.2}  {}",
            100.0 * model.train_error,
            model.complexity,
            model.format(&opts)
        );
    }

    let best = result.best_by_error().expect("nonempty front");
    println!();
    println!("best model: {}", best.format(&opts));
    println!("training error: {:.3e}", best.train_error);
    Ok(())
}
