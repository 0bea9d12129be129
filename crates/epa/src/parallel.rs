//! Work-stealing, memory-bounded scenario sweeps over OS threads.
//!
//! The scenario space is embarrassingly parallel, but it is no longer
//! uniform: the conditional well-founded model decides plain scenarios in
//! microseconds while contested margin queries take milliseconds of CDCL
//! search. Static contiguous chunks would let one hard run of scenarios
//! idle every other core. The sweep therefore runs a **work-stealing
//! scheduler**: the input is pre-split into batches of
//! [`SweepOptions::steal_batch`] consecutive items, each worker owns a
//! deque of batches, pops from the front, and — when empty — steals half
//! of a victim's remaining batches from the back.
//!
//! Results are written into preallocated index-addressed slots (each batch
//! carries its own disjoint `&mut` window of the output), so the output
//! order equals the input order and the result is **bit-identical to the
//! sequential sweep at any thread count and any steal schedule** — no
//! unsafe code, no per-slot locks.
//!
//! For inputs too large to materialize, `run_stealing_stream` consumes
//! scenarios from an iterator into a **persistent** worker pool, keeping
//! at most [`SweepOptions::max_in_flight`] items in memory at a time: the
//! producer refills the shared queue in [`SweepOptions::steal_batch`]-
//! sized batches as in-order emission frees budget, so workers never idle
//! at a window barrier.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use crate::error::EpaError;
use crate::incremental::IncrementalAnalysis;
use crate::problem::EpaProblem;
use crate::scenario::{Scenario, ScenarioOutcome};

/// Default number of consecutive items per work-stealing batch.
pub const DEFAULT_STEAL_BATCH: usize = 16;

/// Default bound on materialized scenarios in streaming sweeps.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 4096;

/// Knobs for a parallel sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
    /// Consecutive items per work-stealing batch (≥ 1). Small batches
    /// balance skewed workloads better; large batches amortize deque
    /// traffic on uniform ones.
    pub steal_batch: usize,
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
            steal_batch: DEFAULT_STEAL_BATCH,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        }
    }

    /// Replace the work-stealing batch size.
    #[must_use]
    pub fn steal_batch(mut self, batch: usize) -> Self {
        self.steal_batch = batch.max(1);
        self
    }

    /// Replace the streaming in-flight bound.
    #[must_use]
    pub fn max_in_flight(mut self, bound: usize) -> Self {
        self.max_in_flight = bound.max(1);
        self
    }

    /// Thread count from the `CPSRISK_THREADS` environment variable if set
    /// to a positive integer, else the machine's available parallelism. A
    /// malformed value (e.g. `CPSRISK_THREADS=abc` or `0`) falls back to
    /// the machine default and emits a one-time stderr warning naming the
    /// rejected value.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = match parse_threads(std::env::var("CPSRISK_THREADS").ok().as_deref()) {
            Ok(Some(t)) => t,
            Ok(None) => default_parallelism(),
            Err(raw) => {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "cpsrisk: ignoring CPSRISK_THREADS={raw:?} (expected a \
                         positive integer); using available parallelism"
                    );
                });
                default_parallelism()
            }
        };
        SweepOptions::with_threads(threads)
    }
}

impl Default for SweepOptions {
    /// Same as [`SweepOptions::from_env`].
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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

/// Observability counters from one work-stealing sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Work batches the input was split into.
    pub batches: usize,
    /// Successful steal operations (each moves half a victim's deque).
    pub steals: u64,
    /// Items processed per worker (sums to the input length).
    pub processed: Vec<usize>,
    /// Time each worker spent evaluating items (excludes idle scanning).
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

/// One unit of schedulable work: a run of consecutive input items plus
/// the matching disjoint window of output slots.
struct Batch<'a, T, R> {
    items: &'a [T],
    slots: &'a mut [Option<R>],
}

/// Run the work-stealing scheduler over `items` with caller-provided
/// per-worker states (one `&mut S` per worker, reused across every batch
/// the worker processes or steals). `out` must have the same length as
/// `items`; slot `i` receives `f(state, &items[i])`.
fn stealing_round<'env, T, R, S, F>(
    items: &'env [T],
    out: &'env mut [Option<R>],
    states: &mut [S],
    steal_batch: usize,
    f: &F,
) -> SweepStats
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    debug_assert_eq!(items.len(), out.len());
    let threads = states.len().max(1);
    let start = Instant::now();
    if items.is_empty() {
        return SweepStats {
            threads,
            processed: vec![0; threads],
            busy: vec![Duration::ZERO; threads],
            wall: start.elapsed(),
            peak_in_flight: 0,
            ..SweepStats::default()
        };
    }
    let batch = steal_batch.max(1);
    let mut batches: Vec<Batch<'_, T, R>> = items
        .chunks(batch)
        .zip(out.chunks_mut(batch))
        .map(|(items, slots)| Batch { items, slots })
        .collect();
    let n_batches = batches.len();

    // Deal contiguous runs of batches to the workers (the same split the
    // static scheme used, at batch granularity) — locality first, stealing
    // only when a worker runs dry.
    let deques: Vec<Mutex<VecDeque<Batch<'_, T, R>>>> = {
        let per = n_batches.div_ceil(threads);
        let mut dqs: Vec<VecDeque<Batch<'_, T, R>>> = Vec::with_capacity(threads);
        dqs.resize_with(threads, VecDeque::new);
        for (i, b) in batches.drain(..).enumerate() {
            dqs[(i / per).min(threads - 1)].push_back(b);
        }
        dqs.into_iter().map(Mutex::new).collect()
    };
    let steals = AtomicU64::new(0);
    let deques = &deques;
    let steals_ref = &steals;
    let f = &f;

    let mut processed = vec![0usize; threads];
    let mut busy = vec![Duration::ZERO; threads];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (w, state) in states.iter_mut().enumerate() {
            handles.push(scope.spawn(move || {
                let mut done = 0usize;
                let mut active = Duration::ZERO;
                loop {
                    // Own work first, front to back.
                    let mine = deques[w].lock().expect("deque poisoned").pop_front();
                    if let Some(b) = mine {
                        let t0 = Instant::now();
                        for (slot, item) in b.slots.iter_mut().zip(b.items) {
                            *slot = Some(f(state, item));
                        }
                        done += b.items.len();
                        active += t0.elapsed();
                        continue;
                    }
                    // Empty: scan the other workers round-robin and steal
                    // the back half of the first non-empty deque found.
                    let mut stolen: Option<VecDeque<Batch<'_, T, R>>> = None;
                    for off in 1..threads {
                        let v = (w + off) % threads;
                        let mut dq = deques[v].lock().expect("deque poisoned");
                        let len = dq.len();
                        if len > 0 {
                            let take = len.div_ceil(2);
                            stolen = Some(dq.split_off(len - take));
                            break;
                        }
                    }
                    match stolen {
                        Some(batches) => {
                            steals_ref.fetch_add(1, Ordering::Relaxed);
                            deques[w].lock().expect("deque poisoned").extend(batches);
                        }
                        // Every deque was empty at scan time: no work is
                        // left for this worker (batches in flight are
                        // finished by whoever holds them).
                        None => break,
                    }
                }
                (done, active)
            }));
        }
        for (w, h) in handles.into_iter().enumerate() {
            let (done, active) = h.join().expect("sweep worker panicked");
            processed[w] = done;
            busy[w] = active;
        }
    });

    SweepStats {
        threads,
        batches: n_batches,
        steals: steals.into_inner(),
        processed,
        busy,
        wall: start.elapsed(),
        peak_in_flight: items.len(),
    }
}

fn collect_slots<R>(out: Vec<Option<R>>) -> Vec<R> {
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Apply `f` to every item across work-stealing workers, preserving input
/// order in the output.
pub(crate) fn run_stealing<T, R, F>(items: &[T], opts: &SweepOptions, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_stealing_with(items, opts, || (), |(), item| f(item)).0
}

/// [`run_stealing`] with per-worker state: each worker calls `init` once
/// (on its own thread before the round starts) and threads the state
/// through every batch it processes or steals. This is how the
/// incremental sweep gives every worker its own reusable
/// [`Solver`](cpsrisk_asp::Solver) over the shared ground program.
///
/// `f` must be a pure function of the item for the output to be
/// schedule-independent (solver reuse qualifies: reused solving is pinned
/// to fresh solving by the PR 3 differential suite).
pub(crate) fn run_stealing_with<T, R, S, I, F>(
    items: &[T],
    opts: &SweepOptions,
    init: I,
    f: F,
) -> (Vec<R>, SweepStats)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = opts.threads.clamp(1, items.len().max(1));
    let mut states: Vec<S> = std::iter::repeat_with(&init).take(threads).collect();
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let stats = stealing_round(items, &mut out, &mut states, opts.steal_batch, &f);
    (collect_slots(out), stats)
}

/// Shared state of the persistent streaming pool: a bounded queue of
/// pending batches plus finished batches awaiting in-order emission.
struct StreamState<T, R> {
    /// Pending batches, in input order: `(first item index, items)`.
    jobs: VecDeque<(usize, Vec<T>)>,
    /// Finished batches keyed by their first item index.
    done: BTreeMap<usize, Vec<R>>,
    /// Items materialized and not yet emitted (pending + in evaluation +
    /// finished). Bounded by [`SweepOptions::max_in_flight`].
    in_flight: usize,
    /// The input stream is dry; workers exit once `jobs` drains.
    exhausted: bool,
}

/// Memory-bounded streaming sweep: consume `stream` into
/// [`SweepOptions::steal_batch`]-sized batches feeding one **persistent**
/// worker pool (at most [`SweepOptions::max_in_flight`] items
/// materialized at any moment), with per-worker states that persist for
/// the whole stream, and hand every result to `emit` in input order with
/// its global index. Returns the scheduler stats;
/// `stats.peak_in_flight` is the largest window actually materialized.
///
/// Unlike the materialized sweep there is no window barrier: workers pull
/// the next batch the moment they finish one, and the producer refills
/// the queue batch by batch as emission frees in-flight budget. (The old
/// scheme re-spawned a full scheduler round per window, idling every
/// worker at each window boundary; on the catalog stream that overhead
/// was ~1.5x the materialized sweep.)
pub(crate) fn run_stealing_stream<T, R, S, I, F, E>(
    stream: impl Iterator<Item = T>,
    opts: &SweepOptions,
    init: I,
    f: F,
    mut emit: E,
) -> SweepStats
where
    T: Send,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
    E: FnMut(usize, R),
{
    let threads = opts.threads.max(1);
    let cap = opts.max_in_flight.max(1);
    // A batch may never exceed the in-flight bound or it could never be
    // admitted.
    let batch_size = opts.steal_batch.clamp(1, cap);
    let start = Instant::now();
    let mut states: Vec<S> = std::iter::repeat_with(&init).take(threads).collect();

    let state = Mutex::new(StreamState::<T, R> {
        jobs: VecDeque::new(),
        done: BTreeMap::new(),
        in_flight: 0,
        exhausted: false,
    });
    let work_ready = Condvar::new(); // producer -> workers: jobs queued / stream dry
    let progress = Condvar::new(); // workers -> producer: a batch finished
    let mut batches = 0usize;
    let mut peak_in_flight = 0usize;
    let mut processed = vec![0usize; threads];
    let mut busy = vec![Duration::ZERO; threads];

    // Emit every finished batch that is next in input order; returns
    // whether anything was emitted (i.e. in-flight budget was freed).
    let mut next_emit = 0usize;
    let mut try_emit = |st: &mut StreamState<T, R>, emit: &mut E| -> bool {
        let mut any = false;
        while let Some(results) = st.done.remove(&next_emit) {
            st.in_flight -= results.len();
            for r in results {
                emit(next_emit, r);
                next_emit += 1;
            }
            any = true;
        }
        any
    };

    let mut stream = stream.fuse();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for state_w in &mut states {
            let state = &state;
            let (work_ready, progress) = (&work_ready, &progress);
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut done = 0usize;
                let mut active = Duration::ZERO;
                loop {
                    let job = {
                        let mut st = state.lock().expect("stream state poisoned");
                        loop {
                            if let Some(job) = st.jobs.pop_front() {
                                break Some(job);
                            }
                            if st.exhausted {
                                break None;
                            }
                            st = work_ready.wait(st).expect("stream state poisoned");
                        }
                    };
                    let Some((first, items)) = job else {
                        return (done, active);
                    };
                    let t0 = Instant::now();
                    let results: Vec<R> = items.iter().map(|item| f(state_w, item)).collect();
                    active += t0.elapsed();
                    done += items.len();
                    let mut st = state.lock().expect("stream state poisoned");
                    st.done.insert(first, results);
                    progress.notify_all();
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
            let mut st = state.lock().expect("stream state poisoned");
            while st.in_flight + len > cap {
                if !try_emit(&mut st, &mut emit) {
                    st = progress.wait(st).expect("stream state poisoned");
                }
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
            let mut st = state.lock().expect("stream state poisoned");
            st.exhausted = true;
            work_ready.notify_all();
            while st.in_flight > 0 {
                if !try_emit(&mut st, &mut emit) {
                    st = progress.wait(st).expect("stream state poisoned");
                }
            }
        }
        for (w, h) in handles.into_iter().enumerate() {
            let (done, active) = h.join().expect("stream worker panicked");
            processed[w] = done;
            busy[w] = active;
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

/// Evaluate every scenario through the ASP back-end across work-stealing
/// worker threads: the problem is encoded and grounded **once**
/// ([`IncrementalAnalysis`]), then each worker reuses its own solver over
/// the shared ground program. `outcomes[i]` corresponds to
/// `scenarios[i]`; the result is bit-identical to the sequential sweep at
/// any thread count and steal schedule.
///
/// # Errors
///
/// The first (in input order) [`EpaError`] any scenario produced.
pub fn sweep_fixed(
    problem: &EpaProblem,
    scenarios: &[Scenario],
    opts: &SweepOptions,
) -> Result<Vec<ScenarioOutcome>, EpaError> {
    IncrementalAnalysis::new(problem)?.sweep(scenarios, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpace;
    use crate::workload::chain_problem;

    #[test]
    fn run_stealing_preserves_order_for_any_thread_count_and_batch() {
        let items: Vec<u32> = (0..97).collect();
        let expected: Vec<u32> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            for batch in [1, 7, 64] {
                let opts = SweepOptions::with_threads(threads).steal_batch(batch);
                let (out, stats) = run_stealing_with(&items, &opts, || (), |(), &x| x * 2);
                assert_eq!(out, expected, "threads={threads} batch={batch}");
                assert_eq!(stats.processed.iter().sum::<usize>(), items.len());
                assert_eq!(stats.batches, items.len().div_ceil(batch));
                assert_eq!(stats.peak_in_flight, items.len());
            }
        }
        assert!(run_stealing(&[] as &[u32], &SweepOptions::with_threads(4), |&x| x).is_empty());
    }

    #[test]
    fn skewed_items_are_stolen() {
        // One pathological run of slow items at the tail of the input: a
        // static split gives them all to the last worker; stealing must
        // spread them. With batch size 1 and 4 workers over 64 items where
        // the last 16 are slow, at least one steal must occur.
        let items: Vec<u64> = (0..64).collect();
        let opts = SweepOptions::with_threads(4).steal_batch(1);
        let (out, stats) = run_stealing_with(
            &items,
            &opts,
            || (),
            |(), &x| {
                if x >= 48 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                x + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert!(stats.steals > 0, "no steals on a skewed workload");
        assert_eq!(stats.processed.iter().sum::<usize>(), 64);
    }

    #[test]
    fn streaming_matches_materialized_and_bounds_the_window() {
        let items: Vec<u32> = (0..217).collect();
        let opts = SweepOptions::with_threads(3)
            .steal_batch(4)
            .max_in_flight(32);
        let mut emitted: Vec<(usize, u32)> = Vec::new();
        let stats = run_stealing_stream(
            items.iter().copied(),
            &opts,
            || (),
            |(), &x| x * 3,
            |i, r| emitted.push((i, r)),
        );
        let expected: Vec<(usize, u32)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        assert_eq!(emitted, expected, "in-order emission");
        assert!(stats.peak_in_flight <= 32, "peak {}", stats.peak_in_flight);
        assert_eq!(stats.processed.iter().sum::<usize>(), items.len());
    }

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
        let sequential: Vec<ScenarioOutcome> = scenarios
            .iter()
            .map(|s| crate::encode::analyze_fixed(&p, s).unwrap())
            .collect();
        for threads in [1, 4] {
            let parallel = sweep_fixed(&p, &scenarios, &SweepOptions::with_threads(threads))
                .expect("sweep succeeds");
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Result slots are index-addressed: a task that fails lands its
        /// error in exactly its input slot, for every thread count and
        /// batch size — so callers that take the first error in slot
        /// order always surface the first *input-order* failure, no
        /// matter which worker hit it first on the wall clock.
        #[test]
        fn errors_land_in_input_order_slots(
            n in 1usize..40,
            fail_mask in proptest::prelude::any::<u64>(),
            threads_ix in 0usize..3,
            batch_ix in 0usize..3,
        ) {
            let threads = [1usize, 2, 8][threads_ix];
            let batch = [1usize, 7, 64][batch_ix];
            let items: Vec<usize> = (0..n).collect();
            let fails = |i: usize| fail_mask & (1 << (i % 64)) != 0;
            let opts = SweepOptions::with_threads(threads).steal_batch(batch);
            let (out, _) = run_stealing_with(&items, &opts, || (), |(), &i| {
                if fails(i) { Err(format!("task {i} failed")) } else { Ok(i * 2) }
            });
            proptest::prop_assert_eq!(out.len(), n);
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => {
                        proptest::prop_assert!(!fails(i));
                        proptest::prop_assert_eq!(*v, i * 2);
                    }
                    Err(e) => {
                        proptest::prop_assert!(fails(i));
                        proptest::prop_assert_eq!(e, &format!("task {i} failed"));
                    }
                }
            }
            // The selection rule every sweep wrapper applies.
            let first = out.into_iter().collect::<Result<Vec<_>, _>>();
            match (0..n).find(|&i| fails(i)) {
                None => proptest::prop_assert!(first.is_ok()),
                Some(i) => {
                    proptest::prop_assert_eq!(first.unwrap_err(), format!("task {i} failed"));
                }
            }
        }
    }
}
