//! A reusable worker pool for independent jobs.
//!
//! The paper's implementation (§5) runs one ingest worker process per stream
//! and parallelizes a query's GT-CNN work across idle worker processes. The
//! [`WorkerPool`] here reproduces that structure with threads and serves both
//! sides of the system: the query path maps the GT-CNN over cluster
//! centroids and the segmented ingest driver maps one pipeline over each
//! stream shard with [`map`](WorkerPool::map), itself built on the
//! heterogeneous-job primitive [`run_jobs`](WorkerPool::run_jobs).
//!
//! Jobs are distributed over crossbeam channels; results are gathered and
//! returned **in submission order** regardless of which worker finished
//! first, so callers stay deterministic under any scheduling. The pool never
//! spawns more threads than there are jobs.

use crossbeam::channel;

/// A job with its submission index, travelling to a worker thread.
type IndexedJob<'scope, R> = (usize, Box<dyn FnOnce() -> R + Send + 'scope>);

/// A fixed-size pool of worker threads executing independent jobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool that will use at most `workers` threads per batch.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        Self { workers }
    }

    /// Maximum number of worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of threads a batch of `jobs` jobs will actually spawn: never
    /// more than there are jobs. This is the capacity rule `run_jobs`
    /// spawns with, exposed so the cap is directly testable.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        self.workers.min(jobs)
    }

    /// Executes a batch of independent jobs across the pool and returns
    /// their results in submission order.
    ///
    /// At most `min(workers, jobs.len())` threads are spawned; a worker that
    /// finishes its job pulls the next unstarted one, so slow jobs never
    /// starve the rest of the batch. Results are reassembled by submission
    /// index, making the output deterministic no matter how jobs were
    /// scheduled.
    pub fn run_jobs<'scope, R>(&self, jobs: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>) -> Vec<R>
    where
        R: Send + 'scope,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let n = jobs.len();
        let (task_tx, task_rx) = channel::unbounded::<IndexedJob<'scope, R>>();
        let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
        for pair in jobs.into_iter().enumerate() {
            task_tx.send(pair).expect("task channel open");
        }
        drop(task_tx);
        let workers = self.effective_workers(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let task_rx = task_rx.clone();
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    while let Ok((idx, job)) = task_rx.recv() {
                        let result = job();
                        if result_tx.send((idx, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            drop(task_rx);
        });
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        while let Ok((idx, result)) = result_rx.recv() {
            slots[idx] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job produced a result"))
            .collect()
    }

    /// Executes `job` for every item of `items` across the pool and returns
    /// the results in the original item order.
    ///
    /// The job function must be `Sync` because multiple worker threads call
    /// it concurrently. This is a homogeneous-batch convenience wrapper over
    /// [`run_jobs`](Self::run_jobs).
    pub fn map<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let job = &job;
        self.run_jobs(
            items
                .into_iter()
                .map(|item| Box::new(move || job(&item)) as Box<dyn FnOnce() -> R + Send + '_>)
                .collect(),
        )
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let results = pool.map(items.clone(), |x| x * 2);
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn map_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(8);
        let counter = AtomicUsize::new(0);
        let results = pool.map((0..500).collect::<Vec<_>>(), |_| {
            counter.fetch_add(1, Ordering::SeqCst)
        });
        assert_eq!(results.len(), 500);
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = WorkerPool::new(2);
        let results: Vec<u64> = pool.map(Vec::<u64>::new(), |x| *x);
        assert!(results.is_empty());
        let no_jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = Vec::new();
        assert!(pool.run_jobs(no_jobs).is_empty());
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let results = pool.map(vec![1, 2, 3], |x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    fn default_pool_has_workers() {
        assert!(WorkerPool::default().workers() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn never_spawns_more_threads_than_jobs() {
        // The spawn count is exactly `effective_workers(jobs)`; asserting on
        // that rule guards the cap directly (job-executing thread IDs can't:
        // only threads that receive a job would be observable).
        let pool = WorkerPool::new(64);
        assert_eq!(pool.effective_workers(2), 2);
        assert_eq!(pool.effective_workers(0), 0);
        assert_eq!(pool.effective_workers(64), 64);
        assert_eq!(pool.effective_workers(1000), 64);
        assert_eq!(WorkerPool::new(3).effective_workers(8), 3);

        // And the capped batch still completes correctly.
        let thread_ids = Mutex::new(HashSet::new());
        let results = pool.map(vec![5u64, 6], |x| {
            thread_ids
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(10));
            x * x
        });
        assert_eq!(results, vec![25, 36]);
        assert!(thread_ids.lock().unwrap().len() <= 2);
    }

    #[test]
    fn run_jobs_supports_heterogeneous_closures() {
        let pool = WorkerPool::new(3);
        let base = 40usize;
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || base + 2),
            Box::new(|| "seven".len()),
            Box::new(|| (0..4usize).sum()),
        ];
        assert_eq!(pool.run_jobs(jobs), vec![42, 5, 6]);
    }

    #[test]
    fn results_come_back_in_submission_order_under_adversarial_durations() {
        // The earliest-submitted jobs sleep the longest, so completion order
        // is the reverse of submission order; the pool must still return
        // results by submission index.
        let pool = WorkerPool::new(4);
        let durations: Vec<u64> = vec![40, 30, 20, 10, 0, 0, 0, 0];
        let results = pool.map(durations.clone(), |ms| {
            std::thread::sleep(Duration::from_millis(*ms));
            *ms
        });
        assert_eq!(results, durations);

        // Same property for heterogeneous jobs.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(25 - 4 * i as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(pool.run_jobs(jobs), vec![0, 1, 2, 3, 4, 5]);
    }
}
