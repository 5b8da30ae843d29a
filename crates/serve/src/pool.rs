//! The daemon's resident worker pool.
//!
//! Unlike the scoped fan-out in `ohm_core::par` — which owns a fixed
//! index range and joins at the end of one grid — the daemon needs a
//! *resident* pool that accepts work forever, interleaves cells from
//! concurrent jobs, and lets a re-enqueued (un-parked) task run on any
//! worker. Every worker takes the oldest task from one shared FIFO
//! queue.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared by submitters and workers.
struct PoolState {
    /// Submitted tasks not yet started, oldest first.
    queue: VecDeque<Task>,
    /// When set, workers drain nothing further and exit.
    shutdown: bool,
}

/// Shared interior of a [`WorkerPool`].
struct Shared {
    state: Mutex<PoolState>,
    available: Condvar,
    /// Workers currently executing a task — the `/stats` occupancy
    /// gauge.
    busy: AtomicUsize,
}

/// A resident pool of worker threads over one FIFO task queue.
/// Dropping the pool shuts it down: queued-but-unstarted tasks are
/// discarded (exactly the semantics of killing a server), running
/// tasks finish, and the threads are joined.
pub struct WorkerPool {
    shared: Arc<Shared>,
    count: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` (clamped to at least 1) resident worker
    /// threads.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            busy: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ohm-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            shared,
            count: workers,
            workers: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.count
    }

    /// Workers currently executing a task.
    pub fn busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Appends `task` to the queue and wakes the idle workers. Tasks
    /// submitted after shutdown are silently dropped (the accept loop
    /// may race a stopping server).
    pub fn submit(&self, task: Task) {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.shutdown {
            return;
        }
        state.queue.push_back(task);
        drop(state);
        self.shared.available.notify_all();
    }

    /// Stops the pool: discards queued tasks, lets running tasks
    /// finish, and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
            state.queue.clear();
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = self.workers.lock().expect("pool lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: run the oldest queued task, sleep while the queue is
/// empty, exit on shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                state = shared.available.wait(state).expect("pool lock");
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        task();
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn runs_every_submitted_task_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let sum = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn one_worker_runs_tasks_in_submission_order() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..20 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i).unwrap()));
        }
        let order: Vec<i32> = (0..20)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap())
            .collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn a_pinned_worker_does_not_strand_queued_tasks() {
        // Two workers, one pinned by a long task: every task queued
        // behind it still runs, on the other worker.
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Pin one worker.
        pool.submit(Box::new(move || {
            block_rx.recv().unwrap();
        }));
        for _ in 0..20 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(()).unwrap()));
        }
        for _ in 0..20 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        block_tx.send(()).unwrap();
    }

    #[test]
    fn shutdown_discards_queued_tasks_and_joins() {
        let pool = WorkerPool::new(1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let ran = Arc::new(AtomicU64::new(0));
        pool.submit(Box::new(move || {
            let _ = block_rx.recv();
        }));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            pool.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Unblock the running task, then stop; queued tasks may or may
        // not have started, but shutdown must return with all workers
        // joined either way.
        block_tx.send(()).unwrap();
        pool.shutdown();
        pool.submit(Box::new(|| panic!("submitted after shutdown")));
    }
}
