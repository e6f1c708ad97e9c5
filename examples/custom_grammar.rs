//! Grammar configuration from a text file — the paper: "The grammar was
//! defined in a separate text file and parsed by the CAFFEINE system" and
//! "the designer can turn off any of the rules".
//!
//! Fits the same data under three grammars (full, no-trig, rationals) and
//! shows how the restriction trades search power for interpretability.
//!
//! Run with `cargo run --release --example custom_grammar`.

use caffeine::core::expr::FormatOptions;
use caffeine::core::grammar::parse_grammar;
use caffeine::core::{CaffeineSettings, GrammarConfig};
use caffeine::doe::Dataset;
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The target has a genuine logarithmic term: rationals can only
    // approximate it, the full grammar can represent it.
    let xs: Vec<Vec<f64>> = (1..=60)
        .map(|i| vec![0.5 + (i % 10) as f64 * 0.35, 1.0 + (i / 10) as f64 * 0.5])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (x[0]).ln() + 3.0 / x[1]).collect();
    let data = Dataset::new(vec!["w".into(), "l".into()], xs, ys)?;

    // A designer-written grammar file: logarithms allowed, trig removed.
    let grammar_text = "
        # two design variables; keep ln/log10, drop sin/cos/tan and lte
        vars = 2
        unary = ln log10 inv sqrt abs sqr
        binary = div
        lte = off
        lte0 = off
        max_exponent = 2
        max_depth = 6
    ";
    let custom = parse_grammar(grammar_text)?;

    let grammars: Vec<(&str, GrammarConfig)> = vec![
        ("custom (ln allowed)", custom),
        ("rational", GrammarConfig::rational(2)),
        ("polynomial", GrammarConfig::polynomial(2)),
    ];

    let opts = FormatOptions::with_names(vec!["w".into(), "l".into()]);
    for (label, grammar) in grammars {
        let mut settings = CaffeineSettings::quick_test();
        settings.population = 120;
        settings.generations = 150;
        settings.seed = 9;
        let mut runner = IslandRunner::new(settings, grammar, RuntimeConfig::default(), &data)?;
        let result = runner.run(&data)?;
        let best = result.best_by_error().expect("front");
        println!(
            "{label:<22} error {:>9.4}%  model: {}",
            100.0 * best.train_error,
            best.format(&opts)
        );
    }
    println!();
    println!("the restricted grammars cannot express ln(w); their residual error shows the bias");
    Ok(())
}
