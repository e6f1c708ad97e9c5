//! A bounded worker thread pool with backpressure and draining shutdown.
//!
//! Tasks (accepted connections) are handed to a fixed set of worker
//! threads through a bounded queue. When the queue is full,
//! [`WorkerPool::try_execute`] returns the task so the acceptor can
//! answer `503` on it instead of buffering unboundedly. Dropping the
//! sender on shutdown lets workers drain everything already queued
//! before exiting — in-flight requests finish, nothing new is admitted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A pool of workers applying one shared handler to queued tasks.
#[derive(Debug)]
pub struct WorkerPool<T: Send + 'static> {
    tx: Option<SyncSender<T>>,
    workers: Vec<JoinHandle<()>>,
    queued: Arc<AtomicUsize>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads sharing a queue of at most `backlog`
    /// pending tasks (both clamped to ≥ 1), each task handled by
    /// `handler`.
    pub fn new<F>(workers: usize, backlog: usize, handler: F) -> WorkerPool<T>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<T>(backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handler = Arc::new(handler);
        let queued = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let queued = Arc::clone(&queued);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, handler.as_ref(), &queued))
                    // lint: allow(panic-freedom) — startup-time: runs once in WorkerPool::new before the listener accepts requests
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: handles,
            queued,
        }
    }

    /// Queues a task, or returns it when the pool is saturated or
    /// shutting down so the caller can still respond.
    ///
    /// # Errors
    ///
    /// The rejected task.
    pub fn try_execute(&self, task: T) -> Result<(), T> {
        let Some(tx) = &self.tx else {
            return Err(task);
        };
        match tx.try_send(task) {
            Ok(()) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(t) | TrySendError::Disconnected(t)) => Err(t),
        }
    }

    /// Tasks accepted but not yet picked up by a worker — an approximate
    /// backpressure signal for the acceptor.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Stops admitting work and joins every worker after the queue
    /// drains.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.tx.take(); // closes the channel; workers exit when drained
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop<T>(rx: &Mutex<Receiver<T>>, handler: &(impl Fn(T) + ?Sized), queued: &AtomicUsize) {
    loop {
        // Hold the lock only while dequeuing, never while handling.
        let task = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a worker panicked while holding the lock
        };
        match task {
            Ok(task) => {
                queued.fetch_sub(1, Ordering::Relaxed);
                handler(task);
            }
            Err(_) => return, // channel closed and drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_tasks_on_workers_and_drains_on_shutdown() {
        let counter = Arc::new(AtomicUsize::new(0));
        let sum = Arc::clone(&counter);
        let pool = WorkerPool::new(4, 64, move |n: usize| {
            sum.fetch_add(n, Ordering::SeqCst);
        });
        for _ in 0..50 {
            pool.try_execute(1).expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn saturation_returns_the_task_instead_of_blocking() {
        let gate = Arc::new(Mutex::new(()));
        let worker_gate = Arc::clone(&gate);
        let held = gate.lock().unwrap();
        let (started_tx, started) = std::sync::mpsc::channel();
        let started_tx = Mutex::new(started_tx);
        // The single worker reports each task it holds, then blocks on
        // the gate.
        let pool = WorkerPool::new(1, 1, move |task: u32| {
            let _ = started_tx.lock().unwrap().send(task);
            let _g = worker_gate.lock().unwrap();
        });
        pool.try_execute(0).expect("first task fits");
        assert_eq!(started.recv(), Ok(0), "the worker holds task 0");
        assert!(pool.try_execute(1).is_ok(), "backlog slot fits");
        // Now both worker and backlog are occupied: the next task
        // bounces back.
        assert_eq!(
            pool.try_execute(7),
            Err(7),
            "saturated pool must hand the task back"
        );
        assert_eq!(pool.queued(), 1, "one task waits in the backlog slot");
        drop(held);
        pool.shutdown();
    }
}
