//! Golden bits of the simulated OTA dataset.
//!
//! Simulates the paper's sampling plan exactly as `OtaExperiment::generate`
//! does (`sampling_plan` + `simulate_point`: the orthogonal array
//! `OA(243, 121, 3, 2)` at ±10 % for training and ±3 % for testing) and
//! compares every one of the six performances of every point, by its
//! IEEE-754 bits, and which points failed, with
//! `crates/bench/golden/ota_dataset.txt`. A simulator change that moves
//! one bit of the data fails here, by point and performance, before it
//! shows up as a changed Table I.
//!
//! Debug builds simulate about 20× slower, so the test runs in release
//! (`cargo test --release -p caffeine-bench --test ota_dataset`). On a
//! mismatch the test writes the simulated lines to a file under the
//! target directory and names it; after a deliberate change to the
//! simulated data, copy that file over the golden and commit it with the
//! change.

use caffeine_bench::{sampling_plan, simulate_point};
use caffeine_circuit::ota::{OtaTestbench, PerfId};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/ota_dataset.txt");

/// One line per point: the split, the point's index in the plan, then the
/// six performances in `PerfId::ALL` order as hex bit patterns, or
/// `failed`.
fn dataset_lines() -> Vec<String> {
    let tb = OtaTestbench::default_07um();
    let (train, test) = sampling_plan();
    let header = format!(
        "# split index {} (f64 bits, hex)",
        PerfId::ALL.map(PerfId::name).join(" ")
    );
    let mut lines = vec![header];
    for (split, points) in [("train", &train), ("test", &test)] {
        for (i, p) in points.iter().enumerate() {
            let values = match simulate_point(&tb, p) {
                Some(perf) => PerfId::ALL
                    .map(|id| format!("{:016x}", perf.get(id).to_bits()))
                    .join(" "),
                None => "failed".into(),
            };
            lines.push(format!("{split} {i:03} {values}"));
        }
    }
    lines
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "simulates 486 designs; run it with --release"
)]
fn simulated_dataset_matches_its_golden_bits() {
    let actual = dataset_lines();
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden");
    let golden: Vec<&str> = golden.lines().collect();
    if actual == golden {
        return;
    }
    let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ota_dataset.txt");
    std::fs::write(&written, actual.join("\n") + "\n").expect("write the simulated lines");
    let moved: Vec<String> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a != g)
        .map(|(a, g)| format!("  golden {g}\n  actual {a}"))
        .collect();
    panic!(
        "{} of {} points moved ({} golden lines, {} simulated); the first:\n{}\n\
         the simulated lines are in {}",
        moved.len(),
        actual.len() - 1,
        golden.len(),
        actual.len(),
        moved[..moved.len().min(5)].join("\n"),
        written.display()
    );
}
