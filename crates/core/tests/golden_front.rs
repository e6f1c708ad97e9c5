//! Golden bits of two complete searches.
//!
//! Each run is folded, value by value, into one 64-bit digest over the
//! IEEE-754 bit patterns (`f64::to_bits`) of
//!
//! * every model on the harvested (train-error, complexity) front: its
//!   training error, complexity and every coefficient, in front order;
//! * the final population's objectives, in population order.
//!
//! The fold is spelled out here (FNV-1a over the little-endian bytes of
//! each word) rather than borrowed from `std::hash`, whose output is not a
//! stability contract. Any change to the least-squares arithmetic, the
//! nondominated ranking or its within-front order, or survivor selection
//! moves at least one bit and fails this test. Speed work on those layers
//! must leave the digests exactly as they are.

use caffeine_core::{
    assemble_result, CaffeineSettings, DatasetEvaluator, EngineState, GrammarConfig,
};
use caffeine_doe::Dataset;

/// FNV-1a over the bytes of a stream of 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// A three-variable rational target on a coarse grid, so designs with
/// duplicate or collinear columns (the ridge-fallback case) are common.
fn dataset() -> Dataset {
    let xs: Vec<Vec<f64>> = (0..36)
        .map(|i| {
            vec![
                0.5 + (i % 4) as f64 * 0.5,
                1.0 + ((i / 4) % 3) as f64 * 0.75,
                0.2 + (i % 9) as f64 * 0.3,
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 3.0 * x[0] / x[1] + 0.5 * x[2] * x[2] - 1.0 / (x[0] + x[2]))
        .collect();
    Dataset::new(vec!["a".into(), "b".into(), "c".into()], xs, ys).unwrap()
}

/// Runs `quick_test` (100 generations) under `seed` and `grammar`; returns the digest plus
/// the front length and population size, which make a mismatch easier to
/// read.
fn digest(seed: u64, grammar: GrammarConfig) -> (u64, usize, usize) {
    let data = dataset();
    let mut settings = CaffeineSettings::quick_test();
    settings.seed = seed;
    settings.generations = 100;
    let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
    let mut state = EngineState::new(settings, grammar, &evaluator).unwrap();
    while !state.is_done() {
        state.step(&evaluator);
    }
    let anchor = evaluator.constant_model(state.grammar.weights);
    let front = assemble_result(state.harvest(), anchor, vec![]).unwrap();

    let mut fold = Fold::new();
    for m in &front.models {
        fold.f64(m.train_error);
        fold.f64(m.complexity);
        fold.word(m.coefficients.len() as u64);
        for &c in &m.coefficients {
            fold.f64(c);
        }
    }
    for ind in &state.population {
        let [error, complexity] = ind.objectives();
        fold.f64(error);
        fold.f64(complexity);
    }
    (fold.0, front.models.len(), state.population.len())
}

#[test]
fn paper_grammar_run_is_bit_stable() {
    assert_eq!(
        digest(7, GrammarConfig::paper_full(3)),
        (307_958_900_763_536_158, 12, 50),
        "front or final population moved"
    );
}

#[test]
fn rational_grammar_run_is_bit_stable() {
    assert_eq!(
        digest(1234, GrammarConfig::rational(3)),
        (16_870_916_890_529_961_416, 6, 50),
        "front or final population moved"
    );
}
