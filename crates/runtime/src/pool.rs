//! Deterministic parallel fitness evaluation on a persistent worker pool.

use std::any::Any;
use std::fmt;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use caffeine_core::gp::Individual;
use caffeine_core::{DatasetEvaluator, Evaluator, FitProblem, FitScratch, Produce};
use caffeine_obs::PhaseAccumulator;

/// Name of every parked evaluator worker thread.
const WORKER_NAME: &str = "caffeine-eval";

/// An [`Evaluator`] that spreads a population batch over a persistent
/// pool of worker threads.
///
/// `threads − 1` workers are spawned once, when the evaluator is built;
/// they park between batches, are woken for each one, and are joined
/// when the evaluator is dropped. The calling thread works alongside
/// them. Every thread claims one individual at a time from a shared
/// cursor until the batch runs out, so a thread that drew cheap fits
/// simply claims more of them — a fit costs ∝ k² in its basis count k,
/// and fixed chunks would leave one thread idle behind another.
///
/// Each thread keeps its own [`FitScratch`] for the evaluator's lifetime,
/// so the tape VM's chunk stack, its column-buffer pool and the spare
/// tapes stay warm from one generation to the next, and so does its
/// basis-column cache: each batch a thread runs keeps the columns the
/// thread's previous batch looked up and drops the rest. Which thread
/// fits which individual varies, and with it which columns hit; the
/// cache only skips work whose result it holds bit for bit. (When K
/// islands share one evaluator, a column survives from the previous
/// island's batch.) Per-individual evaluation is pure (no RNG, no
/// cross-individual state) and the cache never changes outcomes, so the
/// filled-in evaluations — and hence the whole run — are bit-identical
/// for any thread count and any claim order. A panic in any thread's
/// evaluation is re-raised on the caller once every thread has finished
/// the batch; the workers survive it.
///
/// A streamed batch ([`Evaluator::evaluate_streamed`]) is posted to the
/// workers before the calling thread starts producing it: they claim
/// each individual as soon as it is published and wait for the next,
/// while the caller joins in once it has published the last one.
pub struct ParallelEvaluator<'a> {
    inner: DatasetEvaluator<'a>,
    threads: usize,
    pool: WorkerPool,
    /// The calling thread's scratch. Holding its lock for a whole batch
    /// also keeps batches from overlapping when callers share the
    /// evaluator across threads.
    scratch: Mutex<FitScratch>,
}

impl<'a> ParallelEvaluator<'a> {
    /// Wraps a serial evaluator with a thread count (clamped to ≥ 1) and
    /// spawns its `threads − 1` workers. Should the OS refuse a thread,
    /// the evaluator runs with the workers it got.
    pub fn new(inner: DatasetEvaluator<'a>, threads: usize) -> ParallelEvaluator<'a> {
        let threads = threads.max(1);
        ParallelEvaluator {
            inner,
            threads,
            pool: WorkerPool::new(threads - 1),
            scratch: Mutex::new(FitScratch::new()),
        }
    }

    /// The wrapped serial evaluator.
    pub fn inner(&self) -> &DatasetEvaluator<'a> {
        &self.inner
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a phase accumulator; every thread's scratch records
    /// basis/solve time and cache traffic into it. Telemetry only — the
    /// evaluation results are unchanged.
    pub fn set_phases(&mut self, phases: Arc<PhaseAccumulator>) {
        self.inner.set_phases(phases);
    }
}

impl fmt::Debug for ParallelEvaluator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelEvaluator")
            .field("inner", &self.inner)
            .field("threads", &self.threads)
            .field("workers", &self.pool.workers.len())
            .finish_non_exhaustive()
    }
}

impl Evaluator for ParallelEvaluator<'_> {
    fn phases(&self) -> Option<&Arc<PhaseAccumulator>> {
        self.inner.phases()
    }

    fn evaluate_all(&self, population: &mut [Individual]) {
        let mut scratch = lock(&self.scratch);
        // The workers outlive this call, so they cannot borrow the slice:
        // the individuals move into the batch and back out afterwards.
        let batch = Arc::new(Batch::new(
            Arc::clone(self.inner.problem()),
            population.len(),
        ));
        for ind in population.iter_mut() {
            batch.publish(mem::replace(ind, vacated()));
        }
        batch.close();
        let outcome = self.pool.run(batch.task(), || batch.run(&mut scratch));
        for (slot, ind) in population.iter_mut().zip(batch.take()) {
            *slot = ind;
        }
        finish(outcome, scratch);
    }

    fn evaluate_streamed(&self, capacity: usize, produce: &mut Produce<'_>) -> Vec<Individual> {
        let mut scratch = lock(&self.scratch);
        let batch = Arc::new(Batch::new(Arc::clone(self.inner.problem()), capacity));
        let outcome = self.pool.run(batch.task(), || {
            {
                // Closes the batch even if `produce` panics, so the
                // workers waiting for more can finish.
                let _closing = Closing(&batch);
                produce(&mut |ind| batch.publish(ind));
            }
            batch.run(&mut scratch);
        });
        let evaluated = batch.take();
        finish(outcome, scratch);
        evaluated
    }
}

/// Re-raises a batch's panic on the caller, first replacing the calling
/// thread's scratch: a fit that panicked may have left it mid-update.
fn finish(outcome: thread::Result<()>, mut scratch: MutexGuard<'_, FitScratch>) {
    if let Err(payload) = outcome {
        *scratch = FitScratch::new();
        drop(scratch);
        panic::resume_unwind(payload);
    }
}

/// An empty stand-in for an individual that is away in a batch; it
/// allocates nothing.
fn vacated() -> Individual {
    Individual {
        bases: Vec::new(),
        eval: None,
    }
}

/// Locks a mutex, recovering the data from a poisoned one: every lock in
/// this module guards data a panic cannot leave torn (an individual whose
/// fit panicked is simply still unevaluated), and panics are re-raised on
/// the caller anyway.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One population batch, owned so that parked workers can reach it. It
/// is filled while the threads evaluate it: they claim published
/// individuals in publish order and wait for more until it is closed.
struct Batch {
    problem: Arc<FitProblem>,
    /// Room for every individual the batch can take; the first
    /// `Cursor::published` hold published ones.
    items: Vec<Mutex<Individual>>,
    cursor: Mutex<Cursor>,
    /// Wakes threads waiting for an individual or for the close.
    more: Condvar,
}

#[derive(Default)]
struct Cursor {
    published: usize,
    /// The next unclaimed index into `items`.
    next: usize,
    closed: bool,
    /// Threads waiting on `more`: a publish wakes one only when there is
    /// one, and otherwise costs no system call.
    waiting: usize,
}

/// Closes a batch when dropped.
struct Closing<'a>(&'a Batch);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Batch {
    fn new(problem: Arc<FitProblem>, capacity: usize) -> Batch {
        Batch {
            problem,
            items: (0..capacity).map(|_| Mutex::new(vacated())).collect(),
            cursor: Mutex::new(Cursor::default()),
            more: Condvar::new(),
        }
    }

    /// The work every pool thread runs on this batch.
    fn task(self: &Arc<Self>) -> Task {
        let batch = Arc::clone(self);
        Arc::new(move |scratch: &mut FitScratch| batch.run(scratch))
    }

    /// Appends an individual for the threads to claim.
    ///
    /// # Panics
    ///
    /// When the batch already holds as many individuals as it has room
    /// for.
    fn publish(&self, ind: Individual) {
        let mut cursor = lock(&self.cursor);
        let slot = self
            .items
            .get(cursor.published)
            .expect("a batch holds at most its capacity");
        // Unpublished, so no thread can be holding this lock.
        *lock(slot) = ind;
        cursor.published += 1;
        if cursor.waiting > 0 {
            self.more.notify_one();
        }
    }

    /// Publishes nothing more: threads that find no individual left stop.
    fn close(&self) {
        lock(&self.cursor).closed = true;
        self.more.notify_all();
    }

    /// The next published individual nobody has claimed, waiting for one
    /// until the batch is closed. Each index is claimed exactly once, so
    /// the item locks are never contended.
    fn claim(&self) -> Option<MutexGuard<'_, Individual>> {
        let mut cursor = lock(&self.cursor);
        loop {
            if cursor.next < cursor.published {
                let i = cursor.next;
                cursor.next += 1;
                drop(cursor);
                return Some(lock(&self.items[i]));
            }
            if cursor.closed {
                return None;
            }
            cursor.waiting += 1;
            cursor = self
                .more
                .wait(cursor)
                .unwrap_or_else(PoisonError::into_inner);
            cursor.waiting -= 1;
        }
    }

    /// Claims and evaluates one individual at a time until the batch is
    /// closed and drained: one batch of the thread's scratch, whose cache
    /// keeps what the thread's previous batch looked up.
    fn run(&self, scratch: &mut FitScratch) {
        self.problem
            .evaluate_each(std::iter::from_fn(|| self.claim()), scratch);
    }

    /// Moves the published individuals out, in publish order.
    fn take(&self) -> Vec<Individual> {
        let published = lock(&self.cursor).published;
        self.items[..published]
            .iter()
            .map(|item| mem::replace(&mut *lock(item), vacated()))
            .collect()
    }
}

/// Work that every thread of a [`WorkerPool`] runs once per batch.
type Task = Arc<dyn Fn(&mut FitScratch) + Send + Sync>;

/// Parked worker threads that each run a posted [`Task`] once, beside
/// the thread that posted it.
struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Wakes the workers: a task was posted, or the pool is shutting down.
    posted: Condvar,
    /// Wakes the caller: the last busy worker finished the task.
    finished: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Bumped per posted task; a worker runs each epoch's task once.
    epoch: u64,
    task: Option<Task>,
    /// Workers that have not finished the current task yet.
    busy: usize,
    /// The first panic a worker caught in the current task.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

impl WorkerPool {
    /// Spawns up to `workers` parked threads; a thread the OS refuses is
    /// simply left out.
    fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared::default());
        let workers = (0..workers)
            .filter_map(|_| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(WORKER_NAME.into())
                    .spawn(move || work(&shared))
                    .ok()
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Runs `task` once on every worker while the calling thread runs
    /// `own`, returning when all of them have finished. The first panic —
    /// the caller's own, else a worker's — comes back as the error.
    fn run(&self, task: Task, own: impl FnOnce()) -> thread::Result<()> {
        {
            let mut state = lock(&self.shared.state);
            state.epoch += 1;
            state.task = Some(task);
            state.busy = self.workers.len();
        }
        self.shared.posted.notify_all();
        let own = panic::catch_unwind(AssertUnwindSafe(own));
        let mut state = lock(&self.shared.state);
        while state.busy > 0 {
            state = self
                .shared
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.task = None;
        let worker_panic = state.panic.take();
        own.and(worker_panic.map_or(Ok(()), Err))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.posted.notify_all();
        for worker in self.workers.drain(..) {
            // Task panics are caught inside `work`, so a join error would
            // mean a bug in the loop itself; there is nothing to re-raise
            // it into while dropping.
            let _ = worker.join();
        }
    }
}

/// A worker's loop: park until a task is posted, run it on this thread's
/// own scratch, report back; exit on shutdown.
fn work(shared: &Shared) {
    let mut scratch = FitScratch::new();
    let mut seen = 0;
    loop {
        let task = {
            let mut state = lock(&shared.state);
            while state.epoch == seen && !state.shutdown {
                state = shared
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.shutdown {
                return;
            }
            seen = state.epoch;
            state.task.clone()
        };
        let outcome = match task {
            Some(task) => panic::catch_unwind(AssertUnwindSafe(|| task(&mut scratch))),
            None => Ok(()),
        };
        let mut state = lock(&shared.state);
        if let Err(payload) = outcome {
            scratch = FitScratch::new();
            state.panic.get_or_insert(payload);
        }
        state.busy -= 1;
        if state.busy == 0 {
            shared.finished.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_core::expr::{BasisFunction, VarCombo};
    use caffeine_core::grammar::RandomExprGen;
    use caffeine_core::{CaffeineSettings, GrammarConfig};
    use caffeine_doe::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn data() -> Dataset {
        let xs: Vec<Vec<f64>> = (1..=20).map(|i| vec![0.5 + i as f64 * 0.2]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 / x[0]).collect();
        Dataset::new(vec!["x0".into()], xs, ys).unwrap()
    }

    fn population(seed: u64, n: usize) -> Vec<Individual> {
        let grammar = GrammarConfig::rational(1);
        let gen = RandomExprGen::new(&grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                // 1..=6 bases, so the fits differ in cost.
                let k = 1 + i % 6;
                Individual::new((0..k).map(|_| gen.gen_basis(&mut rng)).collect())
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let population = population(5, 37);

        let serial = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let mut expect = population.clone();
        serial.evaluate_all(&mut expect);

        for threads in [2, 3, 8, 64] {
            let par = ParallelEvaluator::new(
                DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
                threads,
            );
            let mut got = population.clone();
            par.evaluate_all(&mut got);
            assert_eq!(expect, got, "thread count {threads} diverged");
        }
    }

    #[test]
    fn reused_evaluator_stays_bit_identical_across_batches() {
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let serial = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        // Different batches, so every round after the first runs on warm
        // scratches whose caches held another generation's columns.
        let batches: Vec<Vec<Individual>> = (0..6).map(|b| population(17 + b, 24)).collect();
        let expected: Vec<Vec<Individual>> = batches
            .iter()
            .map(|batch| {
                let mut batch = batch.clone();
                serial.evaluate_all(&mut batch);
                batch
            })
            .collect();

        for threads in [1, 2, 3, 8, 64] {
            let par = ParallelEvaluator::new(
                DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
                threads,
            );
            for round in 0..2 {
                for (b, (batch, expect)) in batches.iter().zip(&expected).enumerate() {
                    let mut got = batch.clone();
                    par.evaluate_all(&mut got);
                    assert_eq!(
                        expect, &got,
                        "{threads} threads diverged on batch {b} of round {round}"
                    );
                }
            }
        }
    }

    /// Streams `population` into `evaluator` one individual at a time.
    fn streamed(evaluator: &dyn Evaluator, population: &[Individual]) -> Vec<Individual> {
        evaluator.evaluate_streamed(population.len(), &mut |publish| {
            for ind in population {
                publish(ind.clone());
            }
        })
    }

    #[test]
    fn streamed_batches_match_serial_bitwise() {
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let serial = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = ParallelEvaluator::new(
                DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
                threads,
            );
            // Batches of every size up to the capacity, on warm scratches.
            for (b, n) in [0, 1, 37, 12].into_iter().enumerate() {
                let population = population(40 + b as u64, n);
                let mut expect = population.clone();
                serial.evaluate_all(&mut expect);
                assert_eq!(streamed(&serial, &population), expect);
                assert_eq!(
                    streamed(&par, &population),
                    expect,
                    "{threads} threads diverged on batch {b}"
                );
            }
        }
    }

    #[test]
    fn a_panic_while_producing_closes_the_stream() {
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let par = ParallelEvaluator::new(
            DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
            3,
        );
        let population = population(8, 20);
        // Workers are waiting for a sixth individual when production
        // fails; overflowing the capacity fails the same way.
        for capacity in [20, 4] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                par.evaluate_streamed(capacity, &mut |publish| {
                    for ind in &population[..5] {
                        publish(ind.clone());
                    }
                    panic!("breeding failed");
                })
            }));
            assert!(caught.is_err(), "the panic must reach the caller");
        }
        // The evaluator survives and stays bit-identical.
        let serial = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let mut expect = population.clone();
        serial.evaluate_all(&mut expect);
        assert_eq!(streamed(&par, &population), expect);
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(3);
        let mut scratch = FitScratch::new();
        let ran = Arc::new(AtomicUsize::new(0));

        // Panics on every worker and never on the calling thread, so the
        // error can only have come from a worker.
        let task: Task = Arc::new(|_: &mut FitScratch| {
            if thread::current().name() == Some(WORKER_NAME) {
                panic!("worker task failed");
            }
        });
        let payload = pool
            .run(Arc::clone(&task), || task(&mut scratch))
            .unwrap_err();
        assert_eq!(payload.downcast_ref(), Some(&"worker task failed"));

        // The workers caught their panics and still take the next task.
        let counter = Arc::clone(&ran);
        let task: Task = Arc::new(move |_: &mut FitScratch| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        pool.run(Arc::clone(&task), || task(&mut scratch)).unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 4);

        // End to end: a basis over a variable the data lacks makes the
        // tape VM index out of bounds. The caller stops claiming at its
        // first panic, so the workers claim the rest and panic too.
        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let par = ParallelEvaluator::new(
            DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
            4,
        );
        let bad: Vec<Individual> = (0..16)
            .map(|_| Individual::new(vec![BasisFunction::from_vc(VarCombo::single(3, 2, 1))]))
            .collect();
        let mut got = bad.clone();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| par.evaluate_all(&mut got)));
        assert!(caught.is_err(), "an out-of-range variable must panic");
        assert_eq!(bad, got, "individuals must come back unevaluated");

        let serial = DatasetEvaluator::new(&settings, &grammar, &data).unwrap();
        let mut expect = population(3, 40);
        let mut got = expect.clone();
        serial.evaluate_all(&mut expect);
        par.evaluate_all(&mut got);
        assert_eq!(expect, got, "the evaluator must keep working after a panic");
    }

    /// `Threads:` from `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn os_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
            .unwrap()
    }

    /// `Threads:` once it equals `want`, or its reading when a 10 s
    /// deadline passes. `JoinHandle::join` returns as soon as the kernel
    /// clears the exiting thread's id, a few microseconds before the
    /// kernel drops the thread from this count, so a just-joined worker
    /// can still be counted; a leaked worker is never dropped from it.
    #[cfg(target_os = "linux")]
    fn os_threads_settled_at(want: usize) -> usize {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let n = os_threads();
            if n == want || std::time::Instant::now() > deadline {
                return n;
            }
            thread::yield_now();
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropped_evaluators_leave_no_threads_behind() {
        const CHILD: &str = "CAFFEINE_POOL_THREADS_CHILD";
        const NAME: &str = "pool::tests::dropped_evaluators_leave_no_threads_behind";
        if std::env::var_os(CHILD).is_none() {
            // Other tests in this binary start and stop threads while this
            // one counts, so the count runs in a child process that runs
            // this test alone.
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([NAME, "--exact", "--test-threads=1", "--nocapture"])
                .env(CHILD, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
            return;
        }

        let settings = CaffeineSettings::quick_test();
        let grammar = GrammarConfig::rational(1);
        let data = data();
        let mut batch = population(9, 8);
        let before = os_threads();
        for _ in 0..50 {
            let par = ParallelEvaluator::new(
                DatasetEvaluator::new(&settings, &grammar, &data).unwrap(),
                4,
            );
            assert_eq!(
                os_threads_settled_at(before + 3),
                before + 3,
                "four threads = caller + 3 workers"
            );
            for ind in &mut batch {
                ind.invalidate();
            }
            par.evaluate_all(&mut batch);
            drop(par);
        }
        assert_eq!(os_threads_settled_at(before), before);
    }
}
