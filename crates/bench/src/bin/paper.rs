//! Reproduces the paper's experiments (Sec. 6) in one pass: the OTA
//! dataset is simulated once, each of the six performances is searched
//! once ([`run_paper`]), and four views are read off those runs, each
//! printed and written to `experiments/<name>.json`:
//!
//! * **Table I** (`table1`) — per performance, a compact model meeting a
//!   target error on *both* training and testing data
//!   ([`PerfRun::table1_pick`]). `fu` is displayed as `10^(model)`
//!   because it is learned on a log10 scale.
//! * **Figure 3** (`fig3`) — the tradeoff of training error (`qwc`),
//!   testing error (`qtc`) and number of bases versus complexity, plus
//!   the front filtered on (testing error, complexity).
//! * **Figure 4** (`fig4`) — CAFFEINE versus the posynomial template
//!   baseline fit on the same training data: a CAFFEINE model is picked
//!   by the posynomial's training error ([`PerfRun::fig4_pick`]) and the
//!   testing errors are compared. The paper finds CAFFEINE's testing
//!   error 2–5× lower (voffset at parity), and that the posynomial
//!   overfits (qtc > qwc) while CAFFEINE does not.
//! * **Table II** (`table2`) — the PM models of the test-filtered front,
//!   in order of decreasing error and increasing complexity: "low-
//!   complexity models show the macro-effects; error improvements show
//!   second-order refinements".
//!
//! Where the reproduction departs from the paper:
//!
//! * the voffset qtc ratio of Fig. 4 is 4.05×, not parity: the
//!   posynomial here is fit by one-signed NNLS and underfits voffset and
//!   SRp (its qwc is above its qtc);
//! * CAFFEINE's qtc ≤ qwc fails for PM and SRn at the Standard profile
//!   (and narrowly for PM at Quick);
//! * the bit-exact goldens (`crates/bench/golden/*_quick.json`) rest on
//!   the platform libm (`powf`, `ln`, `log10` in the expression
//!   evaluators), so a host with another libm may need its own goldens.
//!
//! Run with `cargo run --release -p caffeine-bench --bin paper [--profile
//! quick|standard|paper]`.

use caffeine_bench::{
    ota_format_options, pct, run_paper, write_artifact, OtaExperiment, PerfRun, Profile,
};
use caffeine_circuit::ota::PerfId;
use caffeine_core::expr::FormatOptions;
use caffeine_core::Model;
use caffeine_posynomial::{fit_posynomial, TemplateSpec};
use serde_json::{json, Map, Value};

fn main() {
    let profile = Profile::from_env_args();
    eprintln!("paper: profile {profile:?}; simulating the OTA dataset...");
    let exp = OtaExperiment::generate();
    eprintln!(
        "dataset ready: {} train / {} test failures dropped",
        exp.train_failures, exp.test_failures
    );
    let runs = run_paper(&exp, profile);
    let opts = ota_format_options();
    table1(&runs, &opts);
    fig3(&runs);
    fig4(&exp, &runs);
    table2(&runs, &opts);
}

fn table1(runs: &[PerfRun], opts: &FormatOptions) {
    println!();
    println!("=== Table I — simplest models with qwc, qtc under the target ===");
    println!(
        "{:<8} {:>8} {:>8} {:>8}  expression",
        "perf", "target", "qwc", "qtc"
    );
    let mut artifact = Map::new();
    for run in runs {
        let perf = run.perf;
        let pick = run.table1_pick();
        let (qwc, qtc, expr, row) = match pick.model {
            Ok(m) => {
                let expr = if perf.log_scaled() {
                    format!("10^( {} )", m.format(opts))
                } else {
                    m.format(opts)
                };
                let row = json!({
                    "target": pick.target,
                    "constant_qwc": pick.constant_qwc,
                    "qwc": m.train_error,
                    "qtc": m.test_error,
                    "bases": m.n_bases(),
                    "complexity": m.complexity,
                    "expression": expr,
                });
                let qtc = pct(m.test_error.unwrap_or(f64::NAN));
                (pct(m.train_error), qtc, expr, row)
            }
            Err(note) => {
                let expr = format!("({note})");
                ("-".into(), "-".into(), expr, json!({ "note": note }))
            }
        };
        println!(
            "{:<8} {:>8} {:>8} {:>8}  {expr}",
            perf.name(),
            pct(pick.target),
            qwc,
            qtc
        );
        artifact.insert(perf.name().to_string(), row);
    }
    write_artifact("table1", &Value::Object(artifact));
}

fn fig3(runs: &[PerfRun]) {
    let mut artifact = Map::new();
    for run in runs {
        println!();
        println!("=== Figure 3 — {} ===", run.perf);
        println!(
            "tradeoff of training error vs complexity ({} models):",
            run.simplified.len()
        );
        print_front(&run.simplified);
        println!(
            "filtered to the (testing error, complexity) tradeoff ({} models):",
            run.test_front.len()
        );
        print_front(&run.test_front);

        // Shape checks the paper states explicitly.
        let best = run
            .simplified
            .iter()
            .map(|m| m.train_error)
            .fold(f64::INFINITY, f64::min);
        if let Some(c0) = run.simplified.iter().find(|m| m.complexity == 0.0) {
            let c0 = c0.train_error;
            let reduction = if best > 0.0 {
                (c0 / best).round()
            } else {
                f64::INFINITY
            };
            println!(
                "shape: constant-model qwc {} -> best qwc {} ({reduction}x reduction)",
                pct(c0),
                pct(best)
            );
        }
        artifact.insert(
            run.perf.name().to_string(),
            json!({
                "tradeoff": front_json(&run.simplified),
                "test_filtered": front_json(&run.test_front),
            }),
        );
    }
    write_artifact("fig3", &Value::Object(artifact));
}

fn print_front(models: &[Model]) {
    println!(
        "{:>12} {:>10} {:>10} {:>8}",
        "complexity", "qwc", "qtc", "bases"
    );
    for m in models {
        println!(
            "{:>12.2} {:>10} {:>10} {:>8}",
            m.complexity,
            pct(m.train_error),
            pct(m.test_error.unwrap_or(f64::NAN)),
            m.n_bases()
        );
    }
}

fn front_json(models: &[Model]) -> Vec<Value> {
    models
        .iter()
        .map(|m| {
            json!({
                "complexity": m.complexity,
                "qwc": m.train_error,
                "qtc": m.test_error,
                "bases": m.n_bases(),
            })
        })
        .collect()
}

fn fig4(exp: &OtaExperiment, runs: &[PerfRun]) {
    let template = TemplateSpec::order2();
    println!();
    println!("=== Figure 4 — CAFFEINE vs posynomial ===");
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>11} {:>9} {:>7}",
        "perf", "posyn qwc", "posyn qtc", "caff qwc", "caff qtc", "qtc ratio", "terms"
    );
    let mut artifact = Map::new();
    for run in runs {
        let perf = run.perf;
        let split = exp.split(perf);
        let posyn = match fit_posynomial(&split.train, &template) {
            Ok(m) => m,
            Err(e) => {
                println!("{:<8} posynomial fit failed: {e}", perf.name());
                continue;
            }
        };
        let p_train = posyn.relative_rms_error(&split.train, 0.0);
        let p_test = posyn.relative_rms_error(&split.test, 0.0);
        let Some(m) = run.fig4_pick(p_train) else {
            println!("{:<8} no CAFFEINE model available", perf.name());
            continue;
        };
        let c_train = m.train_error;
        let c_test = m.test_error.unwrap_or(f64::NAN);
        let ratio = p_test / c_test;
        println!(
            "{:<8} {:>11} {:>11} {:>11} {:>11} {:>9.2} {:>7}",
            perf.name(),
            pct(p_train),
            pct(p_test),
            pct(c_train),
            pct(c_test),
            ratio,
            posyn.n_terms(),
        );
        artifact.insert(
            perf.name().to_string(),
            json!({
                "posynomial": { "qwc": p_train, "qtc": p_test, "terms": posyn.n_terms() },
                "caffeine": { "qwc": c_train, "qtc": c_test, "bases": m.n_bases() },
                "qtc_ratio_posyn_over_caffeine": ratio,
            }),
        );
    }
    println!();
    println!("paper shape: ratio > 1 everywhere except voffset (~parity);");
    println!("             posynomial qtc > qwc (overfits), CAFFEINE qtc <= qwc.");
    write_artifact("fig4", &Value::Object(artifact));
}

fn table2(runs: &[PerfRun], opts: &FormatOptions) {
    let pm = &runs
        .iter()
        .find(|run| run.perf == PerfId::Pm)
        .expect("a PM run")
        .test_front;
    println!();
    println!("=== Table II — PM models, decreasing error / increasing complexity ===");
    println!("{:>10} {:>10}  expression", "qtc", "qwc");
    // The paper lists the models of the *test-filtered* front from the
    // constant down to the most refined expression.
    let mut rows = Vec::new();
    for m in pm {
        println!(
            "{:>10} {:>10}  {}",
            pct(m.test_error.unwrap_or(f64::NAN)),
            pct(m.train_error),
            m.format(opts)
        );
        rows.push(json!({
            "qtc": m.test_error,
            "qwc": m.train_error,
            "bases": m.n_bases(),
            "complexity": m.complexity,
            "expression": m.format(opts),
        }));
    }
    // Shape check: the interpolative split should keep qtc <= qwc for
    // most models (the paper's "testing error lower than training error").
    let below = pm
        .iter()
        .filter(|m| m.test_error.unwrap_or(f64::INFINITY) <= m.train_error)
        .count();
    println!(
        "shape: {}/{} models have qtc <= qwc (paper: almost all)",
        below,
        pm.len()
    );
    write_artifact(
        "table2",
        &json!({ "pm_models": rows, "qtc_le_qwc": below, "total": pm.len() }),
    );
}
