//! Ablation studies of CAFFEINE's design choices (DESIGN.md §7) on the
//! OTA phase-margin task:
//!
//! 1. **SAG on/off** — does PRESS-guided forward regression improve
//!    out-of-sample error (the paper's motivation for Sec. 5.1)?
//! 2. **Parameter-mutation bias** — the paper runs Cauchy weight mutation
//!    at 5× the structural operators' probability; compare 0× / 1× / 5×.
//! 3. **Grammar restriction** — full canonical-form grammar versus the
//!    rational and polynomial restrictions the paper suggests.
//! 4. **Basis budget** — max 15 bases (paper) versus a tight budget of 5.
//!
//! Run with `cargo run --release -p caffeine-bench --bin ablation
//! [--profile quick|standard|paper]`.

use caffeine_bench::{paper_metric, pct, write_artifact, OtaExperiment, Profile};
use caffeine_circuit::ota::PerfId;
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{pareto, CaffeineSettings, GrammarConfig, Model};
use caffeine_doe::SplitDataset;
use caffeine_runtime::{IslandRunner, RuntimeConfig};

struct Outcome {
    label: String,
    best_train: f64,
    best_test: f64,
    front_size: usize,
}

fn evaluate_models(models: &[Model], split: &SplitDataset) -> (f64, f64) {
    let metric = paper_metric();
    let mut best_train = f64::INFINITY;
    let mut best_test = f64::INFINITY;
    for m in models {
        best_train = best_train.min(m.train_error);
        let t = m
            .test_error
            .unwrap_or_else(|| m.error_on(split.test.points(), split.test.targets(), &metric));
        best_test = best_test.min(t);
    }
    (best_train, best_test)
}

fn run_variant(
    label: &str,
    split: &SplitDataset,
    settings: CaffeineSettings,
    grammar: GrammarConfig,
    apply_sag: bool,
) -> Outcome {
    let result = IslandRunner::new(
        settings.clone(),
        grammar,
        RuntimeConfig::default(),
        &split.train,
    )
    .and_then(|mut runner| runner.run(&split.train))
    .expect("engine run");
    let models: Vec<Model> = if apply_sag {
        let sag = SagSettings {
            metric: settings.metric,
            complexity: settings.complexity,
            ..SagSettings::default()
        };
        pareto::train_tradeoff(&simplify_front(
            &result.models,
            &split.train,
            &split.test,
            &sag,
        ))
    } else {
        // Record test errors without simplification.
        let metric = paper_metric();
        result
            .models
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.test_error = Some(m.error_on(split.test.points(), split.test.targets(), &metric));
                m
            })
            .collect()
    };
    let (best_train, best_test) = evaluate_models(&models, split);
    Outcome {
        label: label.to_string(),
        best_train,
        best_test,
        front_size: models.len(),
    }
}

fn main() {
    let profile = Profile::from_env_args();
    eprintln!("ablation: profile {profile:?}; simulating the OTA dataset...");
    let exp = OtaExperiment::generate();
    let split = exp.split(PerfId::Pm);
    let base = profile.settings(303);

    let mut outcomes: Vec<Outcome> = Vec::new();

    // 1. SAG on/off.
    outcomes.push(run_variant(
        "baseline (full grammar, 5x param, SAG)",
        split,
        base.clone(),
        GrammarConfig::paper_full(13),
        true,
    ));
    outcomes.push(run_variant(
        "no SAG",
        split,
        base.clone(),
        GrammarConfig::paper_full(13),
        false,
    ));

    // 2. Parameter-mutation bias.
    for bias in [0.0, 1.0] {
        let mut s = base.clone();
        s.param_mutation_weight = bias;
        outcomes.push(run_variant(
            &format!("param mutation {bias}x"),
            split,
            s,
            GrammarConfig::paper_full(13),
            true,
        ));
    }

    // 3. Grammar restrictions.
    outcomes.push(run_variant(
        "rational grammar",
        split,
        base.clone(),
        GrammarConfig::rational(13),
        true,
    ));
    outcomes.push(run_variant(
        "polynomial grammar",
        split,
        base.clone(),
        GrammarConfig::polynomial(13),
        true,
    ));

    // 4. Basis budget.
    let mut tight = base.clone();
    tight.max_bases = 5;
    outcomes.push(run_variant(
        "max 5 bases",
        split,
        tight,
        GrammarConfig::paper_full(13),
        true,
    ));

    println!();
    println!("=== Ablations on PM ===");
    println!(
        "{:<42} {:>10} {:>10} {:>7}",
        "variant", "best qwc", "best qtc", "front"
    );
    let mut artifact = Vec::new();
    for o in &outcomes {
        println!(
            "{:<42} {:>10} {:>10} {:>7}",
            o.label,
            pct(o.best_train),
            pct(o.best_test),
            o.front_size
        );
        artifact.push(serde_json::json!({
            "variant": o.label,
            "best_qwc": o.best_train,
            "best_qtc": o.best_test,
            "front_size": o.front_size,
        }));
    }
    write_artifact("ablation", &serde_json::Value::Array(artifact));
}
