#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-parallel
//!
//! A persistent work-stealing worker pool plus scoped work-stealing
//! sessions, behind one small deterministic API.
//!
//! This is the foundation crate of the workspace's parallel kernel layer: it
//! sits *below* `hyflex-tensor` and `hyflex-rram` so that the numeric hot
//! paths (packed GEMM kernels, the tiled crossbar GEMV, the pooled
//! gradient-redistribution factorization) and the evaluation surfaces (noise
//! sweeps, figure binaries, the serving sims) all share one dependency-free
//! parallel driver.
//!
//! ## Two execution engines, one scheduling discipline
//!
//! Both engines use the same work-stealing discipline: a global FIFO
//! *injector* queue, per-worker deques (locked `VecDeque`s — no `unsafe`,
//! per invariant D4), LIFO pop on the owner's side for cache locality, FIFO
//! steal from the opposite end by everyone else.
//!
//! * **The persistent core** ([`JobPool::par_map_owned`]) keeps long-lived
//!   OS workers parked on a condvar between calls, one core per worker
//!   count, shared process-wide. Submitting work wakes them; going idle
//!   parks them again. Jobs must be `'static` (they own their inputs), so
//!   there is **zero thread spawning** on this path after first use —
//!   this is what the pooled [`GradientRedistribution::apply`] layer
//!   factorization rides on.
//! * **Scoped sessions** ([`JobPool::scope`], [`JobPool::par_map`]) accept
//!   jobs that *borrow* the caller's environment. Safe Rust cannot hand a
//!   non-`'static` closure to an already-running thread — the completion
//!   guarantee that makes such a borrow sound is exactly what
//!   [`std::thread::scope`] provides *at spawn time*, and reproducing it
//!   for persistent workers requires `unsafe` lifetime erasure (what rayon
//!   does), which invariant D4 forbids. So borrowed entry points spawn
//!   scoped workers per call, but the **calling thread participates as
//!   worker 0**: a `workers = 2` pool spawns one helper thread per call,
//!   not two, and single-worker pools spawn nothing at all.
//!
//! Nested calls never over-subscribe: a job already running on any pool
//! worker that re-enters `scope`/`par_map`/`par_map_owned` executes inline
//! and serially on that worker (tracked by a thread-local), so a
//! `par_map` of jobs that each `scope` internally costs exactly one level
//! of parallelism, never `W²` threads.
//!
//! ## Determinism contract
//!
//! [`JobPool::par_map`] and [`JobPool::par_map_owned`] return results **in
//! input order**, so their output is bit-identical to the serial
//! `iter().map().collect()` for every worker count and any steal schedule.
//! Jobs must not share mutable state, and every per-job RNG must be seeded
//! from the job's own input (as `NoiseSimulator::evaluate` and the
//! per-layer-name SVD seeds do), never from a shared stream.
//!
//! `hyflex-runtime` re-exports [`JobPool`] and [`PoolScope`] (they lived
//! there before the kernel layer needed them), so `hyflex_runtime::JobPool`
//! imports keep working.
//!
//! [`GradientRedistribution::apply`]: https://docs.rs/hyflex-pim

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// A job that borrows from the caller's environment (scoped sessions).
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A job that owns its inputs (persistent core).
type StaticJob = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True while this thread is executing jobs for any pool (persistent
    /// worker or scoped-session worker, including the participating
    /// caller). Nested parallel entry points run inline when set.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every queue this crate locks stays structurally valid across a panic
/// (pushes and pops are single `VecDeque` operations), so poison recovery
/// is safe and keeps the pool panic-free itself.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width pool handle.
///
/// The handle itself is a plain `Copy` value (the worker count); the
/// persistent workers behind [`JobPool::par_map_owned`] are shared
/// process-wide per worker count and created lazily on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    workers: usize,
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::with_default_parallelism()
    }
}

impl JobPool {
    /// A pool with exactly `workers` worker threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        JobPool {
            workers: workers.max(1),
        }
    }

    /// A single-worker pool that runs every job inline on the calling thread
    /// without spawning. This is the zero-overhead default for library entry
    /// points that accept a pool but are usually called serially.
    pub fn serial() -> Self {
        JobPool::new(1)
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn with_default_parallelism() -> Self {
        JobPool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a [`PoolScope`], then drains every spawned job on a
    /// scoped work-stealing session (caller participates as worker 0)
    /// before returning. Borrows in jobs only need to outlive the `scope`
    /// call, mirroring `std::thread::scope`.
    pub fn scope<'env, T>(&self, f: impl FnOnce(&mut PoolScope<'env>) -> T) -> T {
        let mut scope = PoolScope { jobs: Vec::new() };
        let out = f(&mut scope);
        self.run_jobs(scope.jobs);
        out
    }

    /// Applies `f` to every element of `items` in parallel and returns the
    /// results in input order (bit-identical to the serial map).
    ///
    /// The work is split into chunks claimed dynamically by the session
    /// workers, so long and short jobs rebalance; the calling thread claims
    /// chunks too, so a `workers = N` pool spawns only `N − 1` scoped
    /// helpers per call.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 || IN_POOL.with(Cell::get) {
            return items.iter().map(f).collect();
        }
        // Chunked dynamic claiming: small enough chunks that uneven job costs
        // rebalance, large enough that the atomic claim is not the hot path.
        let chunk = items.len().div_ceil(self.workers * 4).max(1);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
        let f = &f;
        let next = &next;
        let claim_chunks = |sink: &mpsc::Sender<(usize, Vec<R>)>| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            let results: Vec<R> = items[start..end].iter().map(f).collect();
            if sink.send((start, results)).is_err() {
                break;
            }
        };
        let helpers = self.workers.min(items.len()) - 1;
        let mut pieces: Vec<(usize, Vec<R>)> = Vec::with_capacity(self.workers * 4 + 1);
        thread::scope(|s| {
            for _ in 0..helpers {
                let tx = tx.clone();
                s.spawn(move || {
                    let was = IN_POOL.with(|c| c.replace(true));
                    claim_chunks(&tx);
                    IN_POOL.with(|c| c.set(was));
                });
            }
            // The caller is worker 0: claim chunks until the range is
            // exhausted, then drain what the helpers produced.
            let was = IN_POOL.with(|c| c.replace(true));
            claim_chunks(&tx);
            IN_POOL.with(|c| c.set(was));
            drop(tx);
            for piece in rx {
                pieces.push(piece);
            }
        });
        assemble_in_order(pieces, items.len()).unwrap_or_else(|| items.iter().map(f).collect())
    }

    /// Applies `f` to every element of `items` on the **persistent**
    /// work-stealing core and returns the results in input order
    /// (bit-identical to the serial map for every worker count).
    ///
    /// Unlike [`JobPool::par_map`], the inputs are owned and the closure is
    /// `'static`, so the chunks run on long-lived workers that were parked
    /// between calls — no threads are spawned. Use this on hot paths that
    /// can hand over (or cheaply clone) their inputs; the pooled
    /// gradient-redistribution factorization is the canonical caller.
    ///
    /// If a chunk's closure panics, the panic is re-raised on the caller
    /// (matching [`std::thread::scope`] semantics) and the affected worker
    /// survives for subsequent calls.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        if self.workers == 1 || items.len() <= 1 || IN_POOL.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }
        let Some(core) = PoolCore::for_workers(self.workers) else {
            // Worker spawning failed (resource exhaustion): degrade serially.
            return items.into_iter().map(f).collect();
        };
        let total = items.len();
        let chunk = total.div_ceil(self.workers * 4).max(1);
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
        let mut submitted = 0usize;
        let mut start = 0usize;
        let mut rest = items;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let tail = rest.split_off(take);
            let head = rest;
            rest = tail;
            let f = Arc::clone(&f);
            let tx = tx.clone();
            core.submit(Box::new(move || {
                let out: Vec<R> = head.into_iter().map(|t| f(t)).collect();
                let _ = tx.send((start, out));
            }));
            start += take;
            submitted += 1;
        }
        drop(tx);
        let mut pieces: Vec<(usize, Vec<R>)> = Vec::with_capacity(submitted);
        for piece in rx {
            pieces.push(piece);
        }
        match assemble_in_order(pieces, total) {
            Some(out) => out,
            // A missing piece means a chunk closure panicked on a worker;
            // surface it to the caller like a scoped join would.
            None => resume_unwind(Box::new("par_map_owned job panicked")),
        }
    }

    /// Drains `jobs` on a scoped work-stealing session.
    ///
    /// Jobs are dealt round-robin into per-worker deques; each worker pops
    /// its own deque LIFO and steals FIFO from the others when empty, so
    /// uneven job costs rebalance without a single contended queue. The
    /// calling thread participates as worker 0.
    fn run_jobs<'env>(&self, jobs: Vec<Job<'env>>) {
        if self.workers == 1 || jobs.len() <= 1 || IN_POOL.with(Cell::get) {
            for job in jobs {
                job();
            }
            return;
        }
        let worker_count = self.workers.min(jobs.len());
        let deques: Vec<Mutex<VecDeque<Job<'env>>>> = (0..worker_count)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        for (i, job) in jobs.into_iter().enumerate() {
            lock(&deques[i % worker_count]).push_back(job);
        }
        let deques = &deques;
        let work = move |me: usize| {
            let was = IN_POOL.with(|c| c.replace(true));
            loop {
                // LIFO on the owner's side: the most recently dealt job is
                // the one most likely to be cache-hot.
                let mine = lock(&deques[me]).pop_back();
                let job = mine.or_else(|| {
                    // FIFO steal from the opposite end of the victims.
                    (1..worker_count)
                        .find_map(|offset| lock(&deques[(me + offset) % worker_count]).pop_front())
                });
                match job {
                    Some(job) => job(),
                    None => break,
                }
            }
            IN_POOL.with(|c| c.set(was));
        };
        thread::scope(|s| {
            for me in 1..worker_count {
                s.spawn(move || work(me));
            }
            work(0);
        });
    }
}

/// Reassembles order-tagged chunks into a single in-order vector.
///
/// Returns `None` when the pieces do not cover every input element (a chunk
/// was lost to a panic) so the caller can decide how to recover — this path
/// is infallible by itself, replacing the old per-slot
/// `expect("every par_map slot is filled")`.
fn assemble_in_order<R>(mut pieces: Vec<(usize, Vec<R>)>, expected: usize) -> Option<Vec<R>> {
    pieces.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(expected);
    for (start, piece) in pieces {
        if start != out.len() {
            return None;
        }
        out.extend(piece);
    }
    (out.len() == expected).then_some(out)
}

/// Collects jobs spawned inside [`JobPool::scope`].
pub struct PoolScope<'env> {
    jobs: Vec<Job<'env>>,
}

impl<'env> PoolScope<'env> {
    /// Queues `job` for execution when the scope closure returns.
    pub fn spawn(&mut self, job: impl FnOnce() + Send + 'env) {
        self.jobs.push(Box::new(job));
    }

    /// Number of jobs queued so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job has been queued yet.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Shared state of one persistent work-stealing core.
struct CoreState {
    /// Global FIFO injector: submissions land here.
    injector: Mutex<VecDeque<StaticJob>>,
    /// Per-worker deques: owner pops LIFO, thieves steal FIFO.
    deques: Vec<Mutex<VecDeque<StaticJob>>>,
    /// Wake generation: bumped (under the lock) on every submission so a
    /// parked worker that raced a push never sleeps through it.
    generation: Mutex<u64>,
    /// Parked workers wait here; submissions notify it.
    wake: Condvar,
}

impl CoreState {
    /// One scheduling round for worker `me`: own deque LIFO, then the
    /// injector, then a FIFO steal sweep over the other workers.
    fn find_job(&self, me: usize) -> Option<StaticJob> {
        if let Some(job) = lock(&self.deques[me]).pop_back() {
            return Some(job);
        }
        if let Some(job) = lock(&self.injector).pop_front() {
            return Some(job);
        }
        let n = self.deques.len();
        (1..n).find_map(|offset| lock(&self.deques[(me + offset) % n]).pop_front())
    }
}

/// A persistent pool of parked worker threads for `'static` jobs.
///
/// One core exists per worker count, created lazily and shared
/// process-wide; idle workers block on [`CoreState::wake`] and cost
/// nothing until the next submission.
struct PoolCore {
    state: Arc<CoreState>,
}

impl PoolCore {
    /// Returns the shared core for `workers` threads, spawning them on
    /// first use. `None` if the OS refused to spawn the workers (the
    /// caller degrades to serial execution).
    fn for_workers(workers: usize) -> Option<Arc<PoolCore>> {
        static CORES: OnceLock<Mutex<BTreeMap<usize, Option<Arc<PoolCore>>>>> = OnceLock::new();
        let registry = CORES.get_or_init(|| Mutex::new(BTreeMap::new()));
        lock(registry)
            .entry(workers)
            .or_insert_with(|| PoolCore::spawn(workers))
            .clone()
    }

    /// Spawns `workers` persistent threads around a fresh [`CoreState`].
    fn spawn(workers: usize) -> Option<Arc<PoolCore>> {
        let state = Arc::new(CoreState {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            generation: Mutex::new(0),
            wake: Condvar::new(),
        });
        for me in 0..workers {
            let state = Arc::clone(&state);
            let spawned = thread::Builder::new()
                .name(format!("hyflex-pool-{workers}-{me}"))
                .spawn(move || worker_loop(&state, me));
            if spawned.is_err() {
                // Give up on the whole core: a partially-spawned pool would
                // silently run narrower than requested.
                return None;
            }
        }
        Some(Arc::new(PoolCore { state }))
    }

    /// Enqueues one job on the injector and wakes a parked worker.
    fn submit(&self, job: StaticJob) {
        lock(&self.state.injector).push_back(job);
        *lock(&self.state.generation) += 1;
        self.state.wake.notify_all();
    }
}

/// The persistent worker loop: run everything findable, then park.
fn worker_loop(state: &CoreState, me: usize) {
    IN_POOL.with(|c| c.set(true));
    loop {
        // Snapshot the wake generation *before* scanning, so a submission
        // that lands between a failed scan and parking is never missed.
        let seen = *lock(&state.generation);
        if let Some(job) = state.find_job(me) {
            // A panicking job must not kill the persistent worker; the
            // submitting call detects the lost chunk and re-raises.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        let mut generation = lock(&state.generation);
        while *generation == seen {
            generation = state
                .wake
                .wait(generation)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_serial_order_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = JobPool::new(workers);
            let got = pool.par_map(&items, |x| x.wrapping_mul(2654435761));
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_owned_matches_serial_order_for_every_worker_count() {
        let expected: Vec<u64> = (0..257u64).map(|x| x.wrapping_mul(2654435761)).collect();
        for workers in [1, 2, 3, 8] {
            let pool = JobPool::new(workers);
            let items: Vec<u64> = (0..257).collect();
            let got = pool.par_map_owned(items, |x| x.wrapping_mul(2654435761));
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_owned_reuses_persistent_workers_across_calls() {
        let pool = JobPool::new(2);
        for round in 0..50u64 {
            let items: Vec<u64> = (0..64).collect();
            let expected: Vec<u64> = items.iter().map(|x| x + round).collect();
            assert_eq!(pool.par_map_owned(items, move |x| x + round), expected);
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        let pool = JobPool::new(4);
        assert_eq!(pool.par_map(&[] as &[i32], |x| *x), Vec::<i32>::new());
        assert_eq!(pool.par_map(&[41], |x| x + 1), vec![42]);
        assert_eq!(
            pool.par_map_owned(Vec::<i32>::new(), |x| x),
            Vec::<i32>::new()
        );
        assert_eq!(pool.par_map_owned(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn scope_runs_every_spawned_job() {
        let pool = JobPool::new(4);
        let counter = AtomicU64::new(0);
        let total = pool.scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
            s.len()
        });
        assert_eq!(total, 100);
        assert_eq!(counter.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn scope_jobs_may_borrow_from_the_environment() {
        let pool = JobPool::new(2);
        let inputs = [1usize, 2, 3, 4];
        let results: Vec<Mutex<usize>> = inputs.iter().map(|_| Mutex::new(0)).collect();
        pool.scope(|s| {
            for (input, slot) in inputs.iter().zip(&results) {
                s.spawn(move || {
                    *lock(slot) = input * input;
                });
            }
        });
        let values: Vec<usize> = results.iter().map(|m| *lock(m)).collect();
        assert_eq!(values, vec![1, 4, 9, 16]);
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_thread_explosion() {
        let pool = JobPool::new(4);
        let items: Vec<u64> = (0..40).collect();
        // Each outer job runs a nested par_map and a nested scope; the
        // nested calls execute inline on the session worker.
        let expected: Vec<u64> = items.iter().map(|x| 3 * x + 1).collect();
        let got = pool.par_map(&items, |&x| {
            let inner = pool.par_map(&[x, x, x], |y| *y);
            let sum = AtomicU64::new(1);
            pool.scope(|s| {
                for y in &inner {
                    let sum = &sum;
                    s.spawn(move || {
                        sum.fetch_add(*y, Ordering::Relaxed);
                    });
                }
            });
            sum.load(Ordering::Relaxed)
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn assemble_in_order_detects_missing_chunks() {
        assert_eq!(
            assemble_in_order(vec![(2, vec![3, 4]), (0, vec![1, 2])], 4),
            Some(vec![1, 2, 3, 4])
        );
        assert_eq!(assemble_in_order(vec![(1, vec![2])], 2), None::<Vec<i32>>);
        assert_eq!(assemble_in_order(vec![(0, vec![1])], 2), None::<Vec<i32>>);
        assert_eq!(
            assemble_in_order(Vec::<(usize, Vec<i32>)>::new(), 0),
            Some(vec![])
        );
    }

    #[test]
    fn pool_reports_workers_and_clamps_zero() {
        assert_eq!(JobPool::new(0).workers(), 1);
        assert_eq!(JobPool::serial().workers(), 1);
        assert!(JobPool::with_default_parallelism().workers() >= 1);
        assert!(JobPool::default().workers() >= 1);
    }
}
