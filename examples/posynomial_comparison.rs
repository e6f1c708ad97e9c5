//! CAFFEINE versus the posynomial template on a deliberately
//! non-posynomial response — the essence of the paper's Fig. 4 argument:
//! a fixed template imposes bias, and "one might never know in advance"
//! whether the data fits it.
//!
//! Run with `cargo run --release --example posynomial_comparison`.

use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{CaffeineSettings, GrammarConfig};
use caffeine::doe::Dataset;
use caffeine::posynomial::{fit_posynomial, TemplateSpec};
use caffeine::runtime::{IslandRunner, RuntimeConfig};

fn sample(n: usize, spread: f64) -> Dataset {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                1.0 + spread * ((i * 13) % 11) as f64,
                1.0 + spread * ((i * 7) % 9) as f64,
            ]
        })
        .collect();
    // A piecewise-linear kink (a saturating-device signature): no
    // monomial template can represent it, while CAFFEINE's grammar has
    // max(0, ·) available.
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 10.0 + 4.0 * (x[0] - 2.0).max(0.0) + 1.0 / x[1])
        .collect();
    Dataset::new(vec!["p".into(), "q".into()], xs, ys).unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = sample(60, 0.25);
    let test = sample(60, 0.21);

    // Baseline: the fixed template.
    let posyn = fit_posynomial(&train, &TemplateSpec::order2())?;
    let p_train = posyn.relative_rms_error(&train, 0.0);
    let p_test = posyn.relative_rms_error(&test, 0.0);
    println!(
        "posynomial: qwc {:.3}%  qtc {:.3}%  ({} terms)",
        100.0 * p_train,
        100.0 * p_test,
        posyn.n_terms()
    );

    // CAFFEINE with a grammar that can discover the log.
    let mut settings = CaffeineSettings::quick_test();
    settings.population = 150;
    settings.generations = 200;
    settings.seed = 21;
    let mut runner = IslandRunner::new(
        settings,
        GrammarConfig::no_trig(2),
        RuntimeConfig::default(),
        &train,
    )?;
    let result = runner.run(&train)?;
    let simplified = simplify_front(&result.models, &train, &test, &SagSettings::default());
    let best = simplified
        .iter()
        .filter(|m| m.train_error <= p_train)
        .min_by(|a, b| a.complexity.partial_cmp(&b.complexity).unwrap())
        .or_else(|| {
            simplified
                .iter()
                .min_by(|a, b| a.train_error.partial_cmp(&b.train_error).unwrap())
        })
        .expect("front nonempty");
    println!(
        "caffeine (matched at posynomial qwc): qwc {:.3}%  qtc {:.3}%  ({} bases)",
        100.0 * best.train_error,
        100.0 * best.test_error.unwrap_or(f64::NAN),
        best.n_bases()
    );
    // The open-ended grammar can also go far beyond the template's floor:
    let unconstrained = simplified
        .iter()
        .min_by(|a, b| a.test_error.partial_cmp(&b.test_error).unwrap())
        .expect("front nonempty");
    println!(
        "caffeine (best on the front):         qwc {:.3}%  qtc {:.3}%  ({} bases)",
        100.0 * unconstrained.train_error,
        100.0 * unconstrained.test_error.unwrap_or(f64::NAN),
        unconstrained.n_bases()
    );
    println!();
    println!(
        "testing-error ratio posynomial/caffeine-best: {:.1}x",
        p_test / unconstrained.test_error.unwrap_or(f64::NAN)
    );
    println!("the kink max(0, p-2) is outside every monomial template's reach");
    Ok(())
}
