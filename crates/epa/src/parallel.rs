//! The sweep scheduler: a memory-bounded worker pool over OS threads.
//!
//! The scenario space is embarrassingly parallel, but it is not uniform:
//! the conditional well-founded model decides plain scenarios in
//! microseconds while contested margin queries take milliseconds of CDCL
//! search. Static contiguous chunks would let one hard run of scenarios
//! idle every other core. The pool therefore shares **one queue** of
//! batches of [`SweepOptions::batch`] consecutive items: a worker pulls
//! the next batch the moment it finishes one, so a slow run of items
//! spreads over every worker that runs dry.
//!
//! The calling thread produces the batches from an iterator, keeping at
//! most [`SweepOptions::max_in_flight`] items materialized at a time, and
//! hands the results to the caller in input order with their global
//! index. Each worker builds one state (its own solvers) on its own thread
//! when it takes its first batch, and keeps it for the whole run. A materialized sweep is the same run with the window set to the
//! input length. The output is therefore **bit-identical to the
//! sequential sweep at any thread count, batch size and window**, with no
//! unsafe code and no per-slot locks.
//!
//! A panic inside one item stays in that item: the pool catches it, hands
//! its message to the caller in the item's slot, and the worker rebuilds
//! its state before its next item. One bad query therefore fails alone
//! instead of ending a long sweep. A panic while building a state ends the
//! run, and the caller's thread panics with the same payload.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, Once};
use std::time::{Duration, Instant};

/// Default number of consecutive items per batch.
pub const DEFAULT_BATCH: usize = 16;

/// Default bound on materialized scenarios in streaming sweeps.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 4096;

/// Knobs for a parallel sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
    /// Consecutive items per batch (≥ 1). Small batches balance skewed
    /// workloads better; large batches amortize queue traffic on uniform
    /// ones.
    pub batch: usize,
    /// Upper bound on scenarios materialized at once in streaming sweeps
    /// (≥ 1). Memory use of the streaming form is `O(max_in_flight)`
    /// regardless of stream length.
    pub max_in_flight: usize,
}

impl SweepOptions {
    /// Exactly `threads` workers, default batching and streaming bounds.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SweepOptions {
            threads: threads.max(1),
            batch: DEFAULT_BATCH,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        }
    }

    /// Replace the batch size.
    #[must_use]
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Replace the streaming in-flight bound.
    #[must_use]
    pub fn max_in_flight(mut self, bound: usize) -> Self {
        self.max_in_flight = bound.max(1);
        self
    }

    /// Thread count from the `CPSRISK_THREADS` environment variable if
    /// set to a positive integer, else the machine's available
    /// parallelism. A malformed value (e.g. `CPSRISK_THREADS=abc` or `0`)
    /// falls back to the machine default and warns once on stderr, naming
    /// the rejected value.
    #[must_use]
    pub fn from_env() -> Self {
        SweepOptions::with_threads(default_threads())
    }
}

/// The sweep pool's default size: see [`SweepOptions::from_env`].
fn default_threads() -> usize {
    let available = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    match parse_threads(std::env::var("CPSRISK_THREADS").ok().as_deref()) {
        Ok(Some(t)) => t,
        Ok(None) => available(),
        Err(raw) => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "cpsrisk: ignoring CPSRISK_THREADS={raw:?} (expected a \
                     positive integer); using available parallelism"
                );
            });
            available()
        }
    }
}

/// Interpret a raw `CPSRISK_THREADS` value: `Ok(None)` when unset,
/// `Ok(Some(t))` for a positive integer, `Err(raw)` for anything else
/// (the caller warns and falls back).
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(t) if t > 0 => Ok(Some(t)),
            _ => Err(v.to_owned()),
        },
    }
}

impl Default for SweepOptions {
    /// Same as [`SweepOptions::from_env`].
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

/// Observability counters from one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Work batches the input was split into.
    pub batches: usize,
    /// Always 0: the pool has no steal operation. Kept only because the
    /// benchmark still reads it.
    #[doc(hidden)]
    pub steals: u64,
    /// Items processed per worker (sums to the input length).
    pub processed: Vec<usize>,
    /// Time each worker spent evaluating items (excludes waiting).
    pub busy: Vec<Duration>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Peak number of items materialized at once. Equals the input length
    /// for materialized sweeps; bounded by
    /// [`SweepOptions::max_in_flight`] for streaming sweeps.
    pub peak_in_flight: usize,
}

impl SweepStats {
    /// Per-worker busy fraction of the sweep's wall-clock time, in
    /// `[0, 1]` per worker.
    #[must_use]
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64();
        self.busy
            .iter()
            .map(|b| {
                if wall > 0.0 {
                    (b.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Shared state of the worker pool: a bounded queue of pending batches
/// plus finished batches awaiting in-order emission.
struct PoolState<T, R> {
    /// Pending batches, in input order: `(first item index, items)`.
    jobs: VecDeque<(usize, Vec<T>)>,
    /// Finished batches keyed by their first item index.
    done: BTreeMap<usize, Vec<R>>,
    /// Index of the next result to emit: the first item of the batch
    /// emission waits for.
    next_emit: usize,
    /// Items materialized and not yet emitted (pending + in evaluation +
    /// finished). Bounded by [`SweepOptions::max_in_flight`].
    in_flight: usize,
    /// The input stream is dry; workers exit once `jobs` drains.
    exhausted: bool,
    /// A worker panicked outside an item (building its state): its
    /// batch never finishes, so the producer stops waiting and the scope
    /// re-raises the panic.
    aborted: bool,
}

impl<T, R> PoolState<T, R> {
    /// Emit every finished batch that is next in input order; returns
    /// whether anything was emitted (i.e. in-flight budget was freed).
    fn try_emit(&mut self, emit: &mut impl FnMut(usize, R)) -> bool {
        let mut any = false;
        while let Some(results) = self.done.remove(&self.next_emit) {
            self.in_flight -= results.len();
            for r in results {
                emit(self.next_emit, r);
                self.next_emit += 1;
            }
            any = true;
        }
        any
    }
}

/// Held by each worker: if the worker unwinds, it marks the pool aborted
/// and wakes the producer, which would otherwise wait forever for the
/// worker's batch.
struct AbortOnPanic<'a, T, R> {
    state: &'a Mutex<PoolState<T, R>>,
    progress: &'a Condvar,
}

impl<T, R> Drop for AbortOnPanic<'_, T, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.state.lock() {
                st.aborted = true;
            }
            self.progress.notify_one();
        }
    }
}

/// The message a panic payload carries (`panic!` with a literal or with a
/// formatted string).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

/// Run `f` over `stream` on a pool of [`SweepOptions::threads`] workers:
/// the calling thread cuts the stream into [`SweepOptions::batch`]-sized
/// batches on one shared queue, holding at most
/// [`SweepOptions::max_in_flight`] items at any moment, and hands every
/// result to `emit` in input order with its global index. Each worker
/// calls `init` on its own thread before its first item, and threads that
/// state through every batch it runs; a worker that gets no batch never
/// calls it. Returns the scheduler stats; `stats.peak_in_flight` is the
/// largest window actually materialized.
///
/// A panic in `f` is caught: `emit` receives `Err` with the panic's
/// message in that item's slot, and the worker replaces its state with a
/// fresh `init()` before its next item, since the panic may have left the
/// old one half-updated. A panic in `init` itself ends the run and is
/// re-raised on the calling thread with its payload.
///
/// `f` must be a pure function of the item for the output to be
/// schedule-independent (solver reuse qualifies: reused solving is pinned
/// to fresh solving by the differential suites).
pub(crate) fn run_pool<T, R, S, I, F, E>(
    stream: impl Iterator<Item = T>,
    opts: &SweepOptions,
    init: I,
    f: F,
    mut emit: E,
) -> SweepStats
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
    E: FnMut(usize, Result<R, String>),
{
    let threads = opts.threads.max(1);
    let cap = opts.max_in_flight.max(1);
    // A batch may never exceed the in-flight bound or it could never be
    // admitted.
    let batch_size = opts.batch.clamp(1, cap);
    let start = Instant::now();

    let state = Mutex::new(PoolState::<T, Result<R, String>> {
        jobs: VecDeque::new(),
        done: BTreeMap::new(),
        next_emit: 0,
        in_flight: 0,
        exhausted: false,
        aborted: false,
    });
    let work_ready = Condvar::new(); // producer -> workers: jobs queued / stream dry
    let progress = Condvar::new(); // workers -> producer: the next batch to emit finished
    let mut batches = 0usize;
    let mut peak_in_flight = 0usize;
    let mut processed = vec![0usize; threads];
    let mut busy = vec![Duration::ZERO; threads];

    let mut stream = stream.fuse();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let state = &state;
            let (work_ready, progress) = (&work_ready, &progress);
            let (init, f) = (&init, &f);
            handles.push(scope.spawn(move || {
                let _abort = AbortOnPanic { state, progress };
                // Built before the worker's first item; a panic there is
                // not caught.
                let mut worker: Option<S> = None;
                let mut done = 0usize;
                let mut active = Duration::ZERO;
                loop {
                    let job = {
                        let mut st = state.lock().expect("pool state poisoned");
                        loop {
                            if let Some(job) = st.jobs.pop_front() {
                                break Some(job);
                            }
                            if st.exhausted {
                                break None;
                            }
                            st = work_ready.wait(st).expect("pool state poisoned");
                        }
                    };
                    let Some((first, items)) = job else {
                        return (done, active);
                    };
                    let t0 = Instant::now();
                    let results: Vec<Result<R, String>> = items
                        .iter()
                        .map(|item| {
                            let s = worker.get_or_insert_with(init);
                            catch_unwind(AssertUnwindSafe(|| f(s, item))).map_err(|payload| {
                                *s = init();
                                panic_message(payload.as_ref())
                            })
                        })
                        .collect();
                    active += t0.elapsed();
                    done += items.len();
                    let mut st = state.lock().expect("pool state poisoned");
                    st.done.insert(first, results);
                    // Only this batch can unblock the producer, which waits
                    // for emission to make progress.
                    if first == st.next_emit {
                        progress.notify_one();
                    }
                }
            }));
        }

        // Producer: refill the queue batch by batch, blocking only when
        // the in-flight bound is reached and nothing is emittable yet.
        let mut next_index = 0usize;
        loop {
            let batch: Vec<T> = stream.by_ref().take(batch_size).collect();
            if batch.is_empty() {
                break;
            }
            let len = batch.len();
            let mut st = state.lock().expect("pool state poisoned");
            while st.in_flight + len > cap && !st.aborted {
                if !st.try_emit(&mut emit) {
                    st = progress.wait(st).expect("pool state poisoned");
                }
            }
            if st.aborted {
                break;
            }
            st.in_flight += len;
            peak_in_flight = peak_in_flight.max(st.in_flight);
            st.jobs.push_back((next_index, batch));
            next_index += len;
            batches += 1;
            work_ready.notify_one();
            drop(st);
        }
        {
            let mut st = state.lock().expect("pool state poisoned");
            st.exhausted = true;
            work_ready.notify_all();
            while st.in_flight > 0 && !st.aborted {
                if !st.try_emit(&mut emit) {
                    st = progress.wait(st).expect("pool state poisoned");
                }
            }
        }
        let mut panicked = None;
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((done, active)) => {
                    processed[w] = done;
                    busy[w] = active;
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });

    SweepStats {
        threads,
        batches,
        steals: 0,
        processed,
        busy,
        wall: start.elapsed(),
        peak_in_flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioSpace};
    use crate::session::{Answer, Query, Session};
    use crate::workload::chain_problem;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn from_env_rejects_malformed_thread_counts() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some(" 2 ")), Ok(Some(2)));
        // Malformed values are surfaced (the one-time warning names them),
        // never silently swallowed.
        assert_eq!(parse_threads(Some("abc")), Err("abc".to_owned()));
        assert_eq!(parse_threads(Some("0")), Err("0".to_owned()));
        assert_eq!(parse_threads(Some("-3")), Err("-3".to_owned()));
        assert_eq!(parse_threads(Some("")), Err(String::new()));
    }

    /// Run the pool over `items`, collecting `(index, result)` pairs in
    /// emission order.
    fn collect<T: Send + Copy, R: Send>(
        items: &[T],
        opts: &SweepOptions,
        f: impl Fn(&T) -> R + Sync,
    ) -> (Vec<(usize, R)>, SweepStats) {
        let mut out = Vec::new();
        let stats = run_pool(
            items.iter().copied(),
            opts,
            || (),
            |(), x| f(x),
            |i, r| out.push((i, r.expect("no item panics"))),
        );
        (out, stats)
    }

    #[test]
    fn run_pool_preserves_order_for_any_thread_count_batch_and_window() {
        let items: Vec<u32> = (0..97).collect();
        let expected: Vec<(usize, u32)> = items.iter().map(|&x| (x as usize, x * 2)).collect();
        for threads in [1, 2, 3, 8, 64] {
            for batch in [1, 7, 64] {
                // Window below the input (the producer blocks and refills)
                // and at or above it (admission never blocks).
                for window in [5, 64, 97, 200] {
                    let opts = SweepOptions::with_threads(threads)
                        .batch(batch)
                        .max_in_flight(window);
                    let (out, stats) = collect(&items, &opts, |&x| x * 2);
                    let tag = format!("threads={threads} batch={batch} window={window}");
                    assert_eq!(out, expected, "{tag}");
                    assert_eq!(stats.processed.iter().sum::<usize>(), items.len(), "{tag}");
                    assert_eq!(
                        stats.batches,
                        items.len().div_ceil(batch.min(window)),
                        "{tag}"
                    );
                    assert!(stats.peak_in_flight <= window, "{tag}");
                    if window >= items.len() {
                        assert_eq!(stats.peak_in_flight, items.len(), "{tag}");
                    }
                }
            }
        }
        let (empty, stats) = collect(&[] as &[u32], &SweepOptions::with_threads(4), |&x| x);
        assert!(empty.is_empty());
        assert_eq!((stats.batches, stats.peak_in_flight), (0, 0));
    }

    #[test]
    fn skewed_tail_runs_on_several_workers() {
        // One run of slow items at the tail of the input: a static split
        // would give them all to the last worker. On the shared queue an
        // idle worker takes the next slow item while the first one still
        // runs. The first slow item waits (bounded) until a second one has
        // started, so the test does not depend on timing.
        let items: Vec<u64> = (0..64).collect();
        let started = AtomicUsize::new(0);
        let opts = SweepOptions::with_threads(4).batch(1);
        let (out, stats) = collect(&items, &opts, |&x| {
            if x >= 48 && started.fetch_add(1, Ordering::SeqCst) == 0 {
                let t0 = Instant::now();
                while started.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            (x + 1, std::thread::current().id())
        });
        let values: Vec<u64> = out.iter().map(|(_, (v, _))| *v).collect();
        assert_eq!(values, (1..=64).collect::<Vec<_>>());
        let tail_workers: HashSet<_> = out[48..].iter().map(|(_, (_, id))| *id).collect();
        assert!(
            tail_workers.len() >= 2,
            "the slow tail ran on one worker: {tail_workers:?}"
        );
        assert_eq!(stats.processed.iter().sum::<usize>(), 64);
    }

    #[test]
    fn streaming_matches_materialized_and_bounds_the_window() {
        let items: Vec<u32> = (0..217).collect();
        let opts = SweepOptions::with_threads(3).batch(4).max_in_flight(32);
        let (emitted, stats) = collect(&items, &opts, |&x| x * 3);
        let expected: Vec<(usize, u32)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        assert_eq!(emitted, expected, "in-order emission");
        assert!(stats.peak_in_flight <= 32, "peak {}", stats.peak_in_flight);
        assert_eq!(stats.processed.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn a_panicking_item_fails_alone_and_its_worker_recovers() {
        // Each worker's state is the items it ran since its last `init`;
        // item 7 panics after marking its state, and an item that finds a
        // marked state answers wrongly, so every other item answering
        // right shows the worker was rebuilt.
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 2] {
            for window in [4, 40] {
                let opts = SweepOptions::with_threads(threads)
                    .batch(2)
                    .max_in_flight(window);
                let mut out = Vec::new();
                let stats = run_pool(
                    items.iter().copied(),
                    &opts,
                    Vec::new,
                    |seen: &mut Vec<u32>, &x| {
                        seen.push(x);
                        assert_ne!(x, 7, "item 7 fails");
                        if seen.contains(&7) {
                            u32::MAX
                        } else {
                            x
                        }
                    },
                    |i, r| out.push((i, r)),
                );
                let tag = format!("threads={threads} window={window}");
                assert_eq!(out.len(), items.len(), "{tag}");
                for (slot, (i, r)) in out.into_iter().enumerate() {
                    assert_eq!(slot, i, "{tag}");
                    if i == 7 {
                        let message = r.expect_err("item 7 panicked");
                        assert!(message.contains("item 7 fails"), "{tag}: {message}");
                    } else {
                        assert_eq!(r, Ok(i as u32), "{tag}");
                    }
                }
                assert_eq!(stats.processed.iter().sum::<usize>(), items.len(), "{tag}");
            }
        }
    }

    #[test]
    fn a_panicking_rebuild_ends_the_run_instead_of_hanging_it() {
        // Item 7 panics, and rebuilding the worker's state panics too: the
        // worker is lost, so the run must end, not wait for its batch. A
        // worker builds its first state on its own thread, so a build on a
        // thread that has built before is a rebuild.
        let items: Vec<u32> = (0..40).collect();
        for window in [4, 40] {
            let opts = SweepOptions::with_threads(2).batch(2).max_in_flight(window);
            let built = Mutex::new(HashSet::new());
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_pool(
                    items.iter().copied(),
                    &opts,
                    || {
                        let first = (built.lock().unwrap()).insert(std::thread::current().id());
                        assert!(first, "rebuild fails");
                    },
                    |(), &x| assert_ne!(x, 7, "item 7 fails"),
                    |_, _| {},
                )
            }));
            let payload = run.expect_err("the run ends");
            assert_eq!(
                panic_message(payload.as_ref()),
                "rebuild fails",
                "window={window}"
            );
        }
    }

    #[test]
    fn a_panicking_first_build_ends_the_run_and_re_raises_its_panic() {
        // Every worker's state fails to build: no item can run, so the run
        // must end, and the caller sees the build's own panic.
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 2] {
            for window in [4, 40] {
                let opts = SweepOptions::with_threads(threads)
                    .batch(2)
                    .max_in_flight(window);
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_pool(
                        items.iter().copied(),
                        &opts,
                        || -> () { panic!("state build fails") },
                        |(), &x| x,
                        |_, _| {},
                    )
                }));
                let payload = run.expect_err("the run ends");
                assert_eq!(
                    panic_message(payload.as_ref()),
                    "state build fails",
                    "threads={threads} window={window}"
                );
            }
        }
    }

    #[test]
    fn a_worker_builds_its_state_on_its_own_thread_once() {
        let items: Vec<u32> = (0..64).collect();
        let caller = std::thread::current().id();
        let builds = Mutex::new(Vec::new());
        let opts = SweepOptions::with_threads(2).batch(4);
        let mut out = Vec::new();
        run_pool(
            items.iter().copied(),
            &opts,
            || builds.lock().unwrap().push(std::thread::current().id()),
            |(), &x| x,
            |i, r| out.push((i, r.expect("no item panics"))),
        );
        assert_eq!(out.len(), items.len());
        let builds = builds.into_inner().unwrap();
        assert!(!builds.is_empty() && builds.len() <= 2, "{builds:?}");
        assert!(!builds.contains(&caller), "a state was built on the caller");
        let distinct: HashSet<_> = builds.iter().collect();
        assert_eq!(distinct.len(), builds.len(), "one build per worker");
    }

    #[test]
    fn utilization_is_bounded() {
        let stats = SweepStats {
            threads: 2,
            busy: vec![Duration::from_millis(5), Duration::from_millis(20)],
            wall: Duration::from_millis(10),
            ..SweepStats::default()
        };
        let u = stats.utilization();
        assert_eq!(u.len(), 2);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)), "{u:?}");
    }

    #[test]
    fn parallel_sweep_equals_sequential() {
        let p = chain_problem(2);
        let scenarios: Vec<Scenario> = ScenarioSpace::new(&p, usize::MAX).iter().collect();
        let queries: Vec<Query> = scenarios.iter().cloned().map(Query::Outcome).collect();
        let sequential: Vec<Answer> = scenarios
            .iter()
            .map(|s| Answer::Outcome(crate::encode::analyze_fixed(&p, s).unwrap()))
            .collect();
        let session = Session::new(&p, None).unwrap();
        for threads in [1, 4] {
            let (parallel, _) = session
                .sweep(&queries, &SweepOptions::with_threads(threads))
                .expect("sweep succeeds");
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Results are index-addressed: a task that fails hands its error
        /// to `emit` at exactly its input index, for every thread count,
        /// batch size and window — so callers that stop at the first error
        /// emitted always surface the first *input-order* failure, no
        /// matter which worker hit it first on the wall clock.
        #[test]
        fn errors_land_in_input_order_slots(
            n in 1usize..40,
            fail_mask in proptest::prelude::any::<u64>(),
            threads_ix in 0usize..3,
            batch_ix in 0usize..3,
            window_ix in 0usize..3,
        ) {
            let threads = [1usize, 2, 8][threads_ix];
            let batch = [1usize, 7, 64][batch_ix];
            // Below, at and above the input length.
            let window = [3usize, n, 64][window_ix];
            let items: Vec<usize> = (0..n).collect();
            let fails = |i: usize| fail_mask & (1 << (i % 64)) != 0;
            let opts = SweepOptions::with_threads(threads).batch(batch).max_in_flight(window);
            let (out, _) = collect(&items, &opts, |&i| {
                if fails(i) { Err(format!("task {i} failed")) } else { Ok(i * 2) }
            });
            proptest::prop_assert_eq!(out.len(), n);
            for (slot, (i, r)) in out.iter().enumerate() {
                proptest::prop_assert_eq!(slot, *i);
                match r {
                    Ok(v) => {
                        proptest::prop_assert!(!fails(*i));
                        proptest::prop_assert_eq!(*v, i * 2);
                    }
                    Err(e) => {
                        proptest::prop_assert!(fails(*i));
                        proptest::prop_assert_eq!(e, &format!("task {i} failed"));
                    }
                }
            }
            // The first error emitted is the first in input order.
            let first = out.into_iter().map(|(_, r)| r).collect::<Result<Vec<_>, _>>();
            match (0..n).find(|&i| fails(i)) {
                None => proptest::prop_assert!(first.is_ok()),
                Some(i) => {
                    proptest::prop_assert_eq!(first.unwrap_err(), format!("task {i} failed"));
                }
            }
        }
    }
}
