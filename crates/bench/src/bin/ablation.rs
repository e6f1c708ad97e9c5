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

use caffeine_bench::{
    paper_metric, pct, sag_tradeoff, search, write_artifact, OtaExperiment, Profile,
};
use caffeine_circuit::ota::PerfId;
use caffeine_core::{CaffeineSettings, GrammarConfig, Model};
use caffeine_doe::SplitDataset;

struct Outcome {
    best_train: f64,
    best_test: f64,
    front_size: usize,
}

fn run_variant(
    split: &SplitDataset,
    settings: CaffeineSettings,
    grammar: GrammarConfig,
    apply_sag: bool,
) -> Outcome {
    let front = search(split, &settings, grammar);
    let models: Vec<Model> = if apply_sag {
        sag_tradeoff(&front, split, &settings)
    } else {
        // Record test errors without simplification.
        let metric = paper_metric();
        front
            .into_iter()
            .map(|mut m| {
                m.test_error = Some(m.error_on(split.test.points(), split.test.targets(), &metric));
                m
            })
            .collect()
    };
    let best = |error: fn(&Model) -> f64| models.iter().map(error).fold(f64::INFINITY, f64::min);
    Outcome {
        best_train: best(|m| m.train_error),
        best_test: best(|m| m.test_error.unwrap_or(f64::INFINITY)),
        front_size: models.len(),
    }
}

fn main() {
    let profile = Profile::from_env_args();
    eprintln!("ablation: profile {profile:?}; simulating the OTA dataset...");
    let exp = OtaExperiment::generate();
    let split = exp.split(PerfId::Pm);
    let base = profile.settings(303);
    let with = |change: fn(&mut CaffeineSettings)| {
        let mut s = base.clone();
        change(&mut s);
        s
    };
    let full = GrammarConfig::paper_full(13);
    let variants = [
        // 1. SAG on/off.
        (
            "baseline (full grammar, 5x param, SAG)",
            base.clone(),
            full.clone(),
            true,
        ),
        ("no SAG", base.clone(), full.clone(), false),
        // 2. Parameter-mutation bias.
        (
            "param mutation 0x",
            with(|s| s.param_mutation_weight = 0.0),
            full.clone(),
            true,
        ),
        (
            "param mutation 1x",
            with(|s| s.param_mutation_weight = 1.0),
            full.clone(),
            true,
        ),
        // 3. Grammar restrictions.
        (
            "rational grammar",
            base.clone(),
            GrammarConfig::rational(13),
            true,
        ),
        (
            "polynomial grammar",
            base.clone(),
            GrammarConfig::polynomial(13),
            true,
        ),
        // 4. Basis budget.
        ("max 5 bases", with(|s| s.max_bases = 5), full, true),
    ];

    println!();
    println!("=== Ablations on PM ===");
    println!(
        "{:<42} {:>10} {:>10} {:>7}",
        "variant", "best qwc", "best qtc", "front"
    );
    let mut artifact = Vec::new();
    for (label, settings, grammar, apply_sag) in variants {
        let o = run_variant(split, settings, grammar, apply_sag);
        println!(
            "{:<42} {:>10} {:>10} {:>7}",
            label,
            pct(o.best_train),
            pct(o.best_test),
            o.front_size
        );
        artifact.push(serde_json::json!({
            "variant": label,
            "best_qwc": o.best_train,
            "best_qtc": o.best_test,
            "front_size": o.front_size,
        }));
    }
    write_artifact("ablation", &serde_json::Value::Array(artifact));
}
