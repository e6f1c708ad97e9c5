//! Pins the fitness path's allocation discipline: with a reused
//! [`FitScratch`], repeatedly evaluating generation-sized batches settles
//! into a constant allocation count per round — the scratch's buffer
//! pool, tape recycling, and cache capacity absorb all per-generation
//! churn (columns the cache drops between batches included), so
//! allocations do not grow as a run proceeds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use caffeine_core::gp::Individual;
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::{CaffeineSettings, DatasetEvaluator, FitScratch, GrammarConfig};
use caffeine_doe::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. Per thread, so a harness thread
    /// allocating mid-round cannot inflate the test thread's count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn fitness_path_allocations_do_not_grow_per_generation() {
    let xs: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![0.5 + (i % 9) as f64 * 0.22, 1.0 + (i % 6) as f64 * 0.4])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] * 1.7 + 0.5 / x[1]).collect();
    let data = Dataset::new(vec!["a".into(), "b".into()], xs, ys).unwrap();
    let settings = CaffeineSettings::quick_test();
    let grammar = GrammarConfig::paper_full(2);
    let evaluator = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();

    // Two generation-sized batches with deliberate cross-individual
    // redundancy (shared bases), like real post-crossover populations.
    // Each also has bases of its own, which the cache drops while the
    // other batch runs and evaluates again when its batch returns, as a
    // run's cache drops the columns a generation no longer uses.
    let gen = RandomExprGen::new(&grammar);
    let mut rng = StdRng::seed_from_u64(9);
    let shared: Vec<_> = (0..6).map(|_| gen.gen_basis(&mut rng)).collect();
    let mut population = || -> Vec<Individual> {
        (0..60)
            .map(|i| {
                Individual::new(vec![
                    shared[i % shared.len()].clone(),
                    shared[(i * 3 + 1) % shared.len()].clone(),
                    gen.gen_basis(&mut rng),
                ])
            })
            .collect()
    };
    let mut batches = [population(), population()];

    let mut scratch = FitScratch::new();
    let mut misses = Vec::new();
    let rounds: Vec<usize> = (0..10)
        .map(|round| {
            // A fresh generation: evaluations invalidated, scratch
            // retained (the batch boundary is the evaluator's).
            let batch = &mut batches[round % 2];
            for ind in batch.iter_mut() {
                ind.eval = None;
            }
            let (before, missed) = (allocations(), scratch.cache_misses());
            evaluator.evaluate_batch(batch, &mut scratch);
            let allocated = allocations() - before;
            misses.push(scratch.cache_misses() - missed);
            allocated
        })
        .collect();

    // Rounds 0–3 warm the pools and map capacity; from then on each
    // batch's count must be flat — any monotone growth means the scratch
    // is leaking per-generation allocations. The two batches allocate
    // different amounts, so each round compares with the round two
    // before, which ran the same batch.
    assert!(
        (6..rounds.len()).all(|r| rounds[r] <= rounds[r - 2]),
        "allocation count grew across generations: {rounds:?}"
    );
    assert!(
        rounds[8] <= rounds[2] && rounds[9] <= rounds[3],
        "steady state allocates more than warmup: {rounds:?}"
    );
    // Every round evaluates the columns the other batch's round dropped.
    assert!(
        misses[2..].iter().all(|&m| m > 0),
        "no column was dropped and evaluated again: {misses:?}"
    );
    // And the cache actually worked: far fewer misses than basis slots.
    assert!(
        scratch.cache_hits() > scratch.cache_misses(),
        "hits {} misses {}",
        scratch.cache_hits(),
        scratch.cache_misses()
    );
}
