//! The work-stealing parallel orchestrator behind every sweep in the
//! workspace.
//!
//! Sweeps are embarrassingly parallel — a `(shift × seed)` or pair grid of
//! independent kernel evaluations over shared read-only schedule tables —
//! but their per-task cost is wildly uneven (a rendezvous can take 2 slots
//! or 2 million, depending on the shift). Static chunking therefore leaves
//! cores idle behind the unluckiest chunk. This module shards a task list
//! into an injector queue plus per-worker deques (the vendored
//! [`crossbeam::deque`] stand-in) and lets idle workers steal, so the
//! longest task — not the longest *chunk* — bounds the critical path.
//!
//! One scheduler runs that discipline, [`run_indexed`]: a flat task list,
//! results in task order. [`run_indexed_quarantined`] is the same run with
//! each task's panic recorded as a [`TaskPanic`] in its slot and a
//! completion sink fired per task, the runner the faulted pipeline grid
//! journals through.
//!
//! Multi-level jobs run as **two flat waves**. A sweep grid first builds
//! every cell's plan in one [`run_indexed`] call, then evaluates the
//! `(cell, sample range)` chunks of all planned cells in a second one, so
//! stealing crosses cell boundaries. The arena engine's block step first
//! fills every agent chunk's rows in one call, then resolves all pending
//! pairs over those rows in a second. The join between the waves is the
//! barrier: the second wave borrows the first wave's owned outputs
//! read-only, with no shared mutable state and no atomics.
//!
//! # Determinism
//!
//! Results are **bit-identical across thread counts** by construction:
//!
//! * every task carries its index and results are merged back in index
//!   order, so downstream consumers never observe scheduling order;
//! * tasks never share mutable state — schedules are compiled once before
//!   the fan-out and shared read-only (see
//!   [`rdv_core::compiled::PreparedSchedule`]);
//! * randomized tasks derive their RNG stream from [`stream_seed`], a
//!   SplitMix64 mix of the experiment seed and the task's position — a
//!   pure function of *which* task, never of *where* or *when* it ran.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

/// Thread-count policy for the parallel orchestrator.
///
/// The default (`threads: 0`) auto-detects, with the `RDV_THREADS`
/// environment variable as an override between the two (the CI test
/// matrix pins it to 1 and 8 so every push exercises the thread-count
/// determinism contract, not only the dedicated determinism tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads to use. `0` means the `RDV_THREADS` environment
    /// override when set to a positive integer, else auto-detect
    /// ([`std::thread::available_parallelism`]).
    pub threads: usize,
}

impl ParallelConfig {
    /// A fixed thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The requested worker count before any task-count clamp: an explicit
    /// `threads`, else the `RDV_THREADS` environment override, else
    /// [`std::thread::available_parallelism`]. This is what sizes the
    /// chunks of a job whose task count is only known after its first
    /// wave (a sweep grid's sample chunks).
    pub fn requested_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("RDV_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4)
    }

    /// The worker count to actually spawn for `tasks` tasks: the requested
    /// (or detected) thread count, never more than the number of tasks,
    /// never zero.
    pub fn effective_threads(&self, tasks: usize) -> usize {
        self.requested_threads().min(tasks).max(1)
    }
}

/// Task-chunk size for sharding `items` uniform work items across
/// `threads` workers.
///
/// Aims at roughly four chunks per worker: fine enough that the
/// work-stealing deques can rebalance an uneven tail, coarse enough to
/// amortize queue traffic and per-task bookkeeping over many items. The
/// result is clamped to `[1, 4096]` so tiny inputs still form tasks and
/// huge inputs cannot collapse into a handful of unstealable chunks.
///
/// This is the one chunking policy of the workspace: pair lists, agent
/// lists, and slot ranges are all sharded through it, replacing the
/// former fixed pairs-per-task constant that over-fragmented large
/// populations and under-split small ones.
pub fn chunk_size(items: usize, threads: usize) -> usize {
    items.div_ceil(threads.max(1) * 4).clamp(1, 4096)
}

/// Derives the RNG stream seed of task `task_index` within experiment
/// `base` — the SplitMix64 finalizer over the pair, as recommended for
/// splitting one seed into independent streams.
///
/// The map is bijective in `task_index` for a fixed `base` (every step is
/// invertible), so distinct tasks of one experiment can never collide; the
/// avalanche mixing keeps streams of adjacent indices statistically
/// independent. `tests/parallel_determinism.rs` property-tests both claims.
pub fn stream_seed(base: u64, task_index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(task_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One round of the work-stealing discipline: the worker's own deque,
/// then a batch refill from the injector, then robbing a sibling,
/// retrying lost races. Returns `None` only when every queue was
/// observed empty with no steal in flight — at which point any remaining
/// task is already in some worker's hands and will be finished by it.
fn find_task<T>(
    me: usize,
    worker: &Worker<T>,
    injector: &Injector<T>,
    stealers: &[Stealer<T>],
) -> Option<T> {
    worker.pop().or_else(|| 'find: loop {
        match injector.steal_batch_and_pop(worker) {
            Steal::Success(t) => break 'find Some(t),
            Steal::Retry => continue 'find,
            Steal::Empty => {}
        }
        let mut retry = false;
        for (other, stealer) in stealers.iter().enumerate() {
            if other == me {
                continue;
            }
            match stealer.steal() {
                Steal::Success(t) => break 'find Some(t),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            break 'find None;
        }
    })
}

/// Runs `f` over every `(index, task)` on a work-stealing thread pool and
/// returns the results **in task order**, regardless of thread count or
/// scheduling.
///
/// `f` must be a pure function of its arguments (plus shared read-only
/// captures) for the cross-thread-count determinism guarantee to hold —
/// which every sweep satisfies by deriving randomness via [`stream_seed`].
///
/// Single-task and single-thread calls run inline on the caller's thread
/// (no spawn overhead), making `threads = 1` the literal sequential
/// semantics the parallel runs are tested against.
///
/// # Panics
///
/// Panics if a worker thread panics (the task panic propagates).
pub fn run_indexed<T, R, F>(tasks: Vec<T>, cfg: &ParallelConfig, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n_tasks = tasks.len();
    let threads = cfg.effective_threads(n_tasks);
    if threads <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let injector = Injector::new();
    for task in tasks.into_iter().enumerate() {
        injector.push(task);
    }
    let workers: Vec<Worker<(usize, T)>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(usize, T)>> = workers.iter().map(Worker::stealer).collect();

    let mut indexed: Vec<(usize, R)> = crossbeam::scope(|scope| {
        let injector = &injector;
        let stealers = &stealers;
        let f = &f;
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(me, worker)| {
                scope.spawn(move |_| {
                    let mut out: Vec<(usize, R)> = Vec::with_capacity(n_tasks / threads + 1);
                    while let Some((i, t)) = find_task(me, &worker, injector, stealers) {
                        out.push((i, f(i, t)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    debug_assert_eq!(indexed.len(), n_tasks, "orchestrator lost tasks");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------
// Orchestrator hardening: panic quarantine and deterministic bounded
// retry — the fault-tolerant layer grid pipelines run on so one poisoned
// cell degrades the artifact instead of killing the whole submission.
// ---------------------------------------------------------------------

/// A quarantined task panic: the deterministic payload message of a task
/// that panicked inside [`quarantine`] instead of propagating through the
/// pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, when it was a string (the only payloads this
    /// workspace produces); `"opaque panic payload"` otherwise. Callers
    /// recording quarantined failures in artifacts rely on panic messages
    /// being deterministic.
    pub message: String,
}

impl TaskPanic {
    /// A panic record carrying the given deterministic message.
    pub fn new(message: impl Into<String>) -> Self {
        TaskPanic {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Runs `f`, converting a panic into a typed [`TaskPanic`] instead of
/// unwinding. This is the quarantine primitive behind
/// [`run_indexed_quarantined`]: no task ever panics *as seen by the
/// pool*, so the workers complete normally and the poisoned cell surfaces
/// as an `Err` in its result slot rather than killing its grid neighbors.
pub fn quarantine<R>(f: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        TaskPanic { message }
    })
}

/// [`run_indexed`] with per-task panic quarantine and a **completion
/// sink**: a panicking task yields `Err(TaskPanic)` in its slot and every
/// other task completes, results in task order. `sink(i, &r)` runs on the
/// worker thread the moment task `i`'s quarantined result is known —
/// before the pool joins, so a crash mid-grid loses at most the in-flight
/// tasks. This is the seam checkpointing pipelines journal completed
/// cells through; pass `|_, _| {}` when nothing needs to observe
/// completions.
///
/// The sink observes completions in scheduling order (non-deterministic
/// across thread counts); consumers that need determinism key on the task
/// index, never on arrival order. The sink itself is *not* quarantined —
/// a sink failure (e.g. an unwritable journal) is fatal to the run, like
/// an unwritable artifact.
pub fn run_indexed_quarantined<T, R, F, S>(
    tasks: Vec<T>,
    cfg: &ParallelConfig,
    f: F,
    sink: S,
) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: Fn(usize, &Result<R, TaskPanic>) + Sync,
{
    run_indexed(tasks, cfg, |i, t| {
        let r = quarantine(|| f(i, t));
        sink(i, &r);
        r
    })
}

/// Deterministic bounded retry with exponential **backoff-in-attempts**:
/// calls `attempt(round, budget)` with a budget that doubles every round
/// (`base_budget`, `2·base_budget`, `4·base_budget`, …) for up to
/// `rounds` rounds, returning the first `Ok` or — once every round has
/// failed — the last error together with the number of rounds used.
///
/// Backoff here widens the *work budget*, never a wall-clock sleep:
/// transient failures in this workspace (e.g. a scenario sampler
/// exhausting its draw budget) are functions of how hard the task tried,
/// not of when it ran, so retried work stays a pure function of
/// `(attempt, round)` and grid artifacts stay byte-identical. Note a zero
/// `base_budget` stays zero through every doubling — the deterministic
/// exhaustion seam the degradation tests sabotage cells with.
pub fn retry_with_backoff<R, E>(
    rounds: u32,
    base_budget: u32,
    mut attempt: impl FnMut(u32, u32) -> Result<R, E>,
) -> Result<R, (E, u32)> {
    let rounds = rounds.max(1);
    let mut budget = base_budget;
    let mut last = None;
    for round in 0..rounds {
        match attempt(round, budget) {
            Ok(r) => return Ok(r),
            Err(e) => last = Some(e),
        }
        budget = budget.saturating_mul(2);
    }
    Err((last.expect("at least one round ran"), rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1usize, 2, 8] {
            let tasks: Vec<u64> = (0..257).collect();
            let out = run_indexed(
                tasks.clone(),
                &ParallelConfig::with_threads(threads),
                |i, t| {
                    assert_eq!(i as u64, t);
                    t * t
                },
            );
            let expected: Vec<u64> = tasks.iter().map(|t| t * t).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(
            vec![(); 1000],
            &ParallelConfig::with_threads(4),
            |_i, ()| counter.fetch_add(1, Ordering::Relaxed),
        );
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn uneven_tasks_balance_across_workers() {
        // One task 1000× heavier than the rest: stealing must still finish
        // everything and keep order.
        let weights: Vec<u64> = (0..64)
            .map(|i| if i == 0 { 100_000 } else { 100 })
            .collect();
        let out = run_indexed(weights.clone(), &ParallelConfig::with_threads(4), |_, w| {
            (0..w).map(std::hint::black_box).sum::<u64>()
        });
        for (w, got) in weights.iter().zip(&out) {
            assert_eq!(*got, w * (w - 1) / 2);
        }
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let empty: Vec<u64> = run_indexed(vec![], &ParallelConfig::default(), |_, t: u64| t);
        assert!(empty.is_empty());
        let one = run_indexed(vec![7u64], &ParallelConfig::with_threads(8), |i, t| {
            t + i as u64
        });
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(ParallelConfig::with_threads(8).effective_threads(3), 3);
        assert_eq!(ParallelConfig::with_threads(2).effective_threads(100), 2);
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(0), 1);
        assert!(ParallelConfig::default().effective_threads(100) >= 1);
    }

    #[test]
    fn chunk_size_targets_four_chunks_per_worker() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(64, 2), 8);
        assert_eq!(chunk_size(37_000, 8), 1157);
        // Huge inputs stay stealable…
        assert_eq!(chunk_size(10_000_000, 8), 4096);
        // …and a zero thread count cannot divide by zero.
        assert_eq!(chunk_size(100, 0), 25);
    }

    #[test]
    fn chunk_size_crossover_points_are_pinned() {
        // Degenerate edges: no items still forms a (single, empty-range)
        // chunk; a single worker targets four chunks.
        assert_eq!(chunk_size(0, 1), 1);
        assert_eq!(chunk_size(1, 1), 1);
        assert_eq!(chunk_size(16, 1), 4);
        assert_eq!(chunk_size(17, 1), 5);
        // The low clamp: at items ≤ 4·threads every item is its own chunk,
        // and the first item past the boundary doubles the chunk.
        assert_eq!(chunk_size(4 * 8, 8), 1);
        assert_eq!(chunk_size(4 * 8 + 1, 8), 2);
        // Below the high clamp the policy is exactly ⌈items / 4·threads⌉…
        assert_eq!(chunk_size(100_000, 8), 3125);
        // …and the 4096 cap engages exactly at items = 4·threads·4096.
        assert_eq!(chunk_size(4 * 8 * 4096 - 1, 8), 4096);
        assert_eq!(chunk_size(4 * 8 * 4096, 8), 4096);
        assert_eq!(chunk_size(4 * 8 * 4096 + 1, 8), 4096);
    }

    #[test]
    fn stream_seeds_are_collision_free_per_base() {
        for base in [0u64, 1, 42, u64::MAX] {
            let seeds: HashSet<u64> = (0..4096).map(|i| stream_seed(base, i)).collect();
            assert_eq!(seeds.len(), 4096, "collision under base {base}");
        }
    }

    #[test]
    fn indexed_sink_sees_every_completion_exactly_once() {
        use std::sync::Mutex;
        for threads in [1usize, 4] {
            let seen: Mutex<Vec<(usize, Result<u64, String>)>> = Mutex::new(Vec::new());
            let out = run_indexed_quarantined(
                (0..57u64).collect(),
                &ParallelConfig::with_threads(threads),
                |i, t| {
                    if i == 13 {
                        panic!("cell 13 down");
                    }
                    t * 2
                },
                |i, r| {
                    seen.lock()
                        .unwrap()
                        .push((i, r.clone().map_err(|e| e.message)));
                },
            );
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|&(i, _)| i);
            assert_eq!(seen.len(), 57, "threads = {threads}");
            for (i, r) in &seen {
                // The sink observed exactly the result merged into slot i —
                // including the quarantined panic.
                assert_eq!(
                    r.clone().map_err(|m| TaskPanic { message: m }),
                    out[*i],
                    "threads = {threads}"
                );
            }
            assert_eq!(out[13], Err(TaskPanic::new("cell 13 down")));
        }
    }
}
