//! Differential testing: the pooled sweep scheduler vs the sequential
//! reference, on every public sweep surface.
//!
//! The scheduler's contract is that thread count, batch size, and
//! streaming window bound are *performance* knobs — none of them may
//! change a single answer, the order answers come back in, or any
//! aggregate computed from them. These properties pin that contract on
//! randomized scenario streams (including permuted input orders), on the
//! catalog workload's skewed cheap-outcome/expensive-margin mix, and on
//! the mutation-screening entry point that routes through the same
//! worker pool.

use proptest::prelude::*;

use cpsrisk_epa::workload::{
    catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked,
    chain_problem,
};
use cpsrisk_epa::{
    screen_mutations, Answer, Query, Scenario, ScenarioSpace, Session, SweepOptions,
};

/// The scheduler configurations the properties sweep over: every
/// combination of a thread count that under-, exactly-, and
/// over-subscribes typical hardware with a batch size from one item per
/// queue pull to most of the input in one batch.
const THREADS: [usize; 3] = [1, 2, 8];
const BATCHES: [usize; 3] = [1, 7, 64];

fn opts(threads: usize, batch: usize) -> SweepOptions {
    SweepOptions::with_threads(threads).batch(batch)
}

/// Deterministic pseudo-shuffle: permute `items` by a seed so the
/// properties exercise arbitrary input orders, not just the generator's.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        // splitmix64 step
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z as usize) % (i + 1));
    }
}

/// Aggregates a caller might fold a sweep into; equality of the streams
/// implies equality here, but asserting them separately documents that
/// totals (hazard counts, violation mass) are scheduler-independent.
fn totals(answers: &[Answer]) -> (usize, usize) {
    let outcomes = answers.iter().filter_map(|a| match a {
        Answer::Outcome(o) => Some(o),
        Answer::Margin(_) => None,
    });
    outcomes.fold((0, 0), |(hazards, violations), o| {
        (
            hazards + usize::from(o.is_hazard()),
            violations + o.violated.len(),
        )
    })
}

/// The outcome queries of `p`'s scenario space, permuted by `seed`.
fn permuted_queries(p: &cpsrisk_epa::EpaProblem, max_faults: usize, seed: u64) -> Vec<Query> {
    let mut scenarios: Vec<Scenario> = ScenarioSpace::new(p, max_faults).iter().collect();
    permute(&mut scenarios, seed);
    scenarios.into_iter().map(Query::Outcome).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On randomly permuted chain-workload scenario streams, the
    /// pooled sweep reproduces the sequential outcome stream bit for
    /// bit, for every thread count and batch size.
    #[test]
    fn stealing_matches_sequential_on_permuted_streams(
        n in 1usize..=3,
        seed in any::<u64>(),
        max_faults in 1usize..=2,
    ) {
        let p = chain_problem(n);
        let session = Session::new(&p, None).expect("grounds");
        let queries = permuted_queries(&p, max_faults, seed);
        let (sequential, _) = session
            .sweep(&queries, &opts(1, 1))
            .expect("sequential sweep");
        let expected_totals = totals(&sequential);
        for threads in THREADS {
            for batch in BATCHES {
                let o = opts(threads, batch);
                let (stolen, stats) = session.sweep(&queries, &o).expect("stealing");
                prop_assert_eq!(&stolen, &sequential, "threads={} batch={}", threads, batch);
                prop_assert_eq!(totals(&stolen), expected_totals);
                prop_assert_eq!(stats.processed.iter().sum::<usize>(), queries.len());
            }
        }
    }

    /// The memory-bounded streaming pass emits exactly the materialized
    /// answers, indexed by input position, and never materializes more
    /// than `max_in_flight` queries at once.
    #[test]
    fn streaming_matches_materialized_within_its_window(
        seed in any::<u64>(),
        threads_ix in 0usize..THREADS.len(),
        batch_ix in 0usize..BATCHES.len(),
        bound_ix in 0usize..3,
    ) {
        let (threads, batch) = (THREADS[threads_ix], BATCHES[batch_ix]);
        let bound = [1usize, 5, 32][bound_ix];
        let p = chain_problem(2);
        let session = Session::new(&p, None).expect("grounds");
        let queries = permuted_queries(&p, usize::MAX, seed);
        let o = opts(threads, batch).max_in_flight(bound);
        let (materialized, _) = session.sweep(&queries, &o).expect("materialized");
        let mut streamed: Vec<Option<Answer>> = vec![None; queries.len()];
        let stats = session
            .sweep_streaming(queries.iter().cloned(), &o, |i, out| {
                streamed[i] = Some(out);
            })
            .expect("streaming");
        let streamed: Vec<Answer> =
            streamed.into_iter().map(|s| s.expect("every slot emitted")).collect();
        prop_assert_eq!(streamed, materialized);
        prop_assert!(
            stats.peak_in_flight <= bound,
            "peak {} exceeds bound {}", stats.peak_in_flight, bound
        );
    }
}

/// The catalog workload's query stream is the adversarial case for a
/// scheduler: statically-decided outcome queries are orders of magnitude
/// cheaper than the margin SAT calls clustered at the stream tail. Every
/// scheduler configuration must still agree with the sequential answers.
#[test]
fn catalog_mixed_queries_agree_across_all_scheduler_configs() {
    let chains = 4;
    let p = catalog_problem(30, chains, 11);
    let budget = catalog_margin_budget(chains);
    let analysis = Session::new(&p, Some(budget)).expect("grounds");
    let ranked = catalog_requirements_ranked(&p, budget);
    let space = ScenarioSpace::new(&p, 1);
    let queries: Vec<_> = catalog_queries(&space, &ranked, 4).collect();
    assert!(
        queries.len() > ranked.len(),
        "outcomes plus sampled margins"
    );

    let (sequential, _) = analysis.sweep(&queries, &opts(1, 1)).expect("sequential");
    for threads in THREADS {
        for batch in BATCHES {
            let o = opts(threads, batch).max_in_flight(16);
            let (stolen, _) = analysis.sweep(&queries, &o).expect("stealing");
            assert_eq!(stolen, sequential, "threads={threads} batch={batch}");
            let mut streamed = vec![None; queries.len()];
            let stats = analysis
                .sweep_streaming(catalog_queries(&space, &ranked, 4), &o, |i, a| {
                    streamed[i] = Some(a);
                })
                .expect("streaming");
            let streamed: Vec<_> = streamed
                .into_iter()
                .map(|s| s.expect("every slot emitted"))
                .collect();
            assert_eq!(streamed, sequential, "threads={threads} batch={batch}");
            assert!(stats.peak_in_flight <= 16);
        }
    }
}

/// Mutation screening routes through the same scheduler; its screening
/// outcomes must be independent of every scheduler knob.
#[test]
fn sensitivity_and_screening_are_scheduler_independent() {
    let p = chain_problem(2);
    let sequential_screen = screen_mutations(&p, &opts(1, 1)).expect("screens");
    for threads in THREADS {
        for batch in BATCHES {
            let o = opts(threads, batch);
            assert_eq!(
                screen_mutations(&p, &o).expect("screens"),
                sequential_screen,
                "threads={threads} batch={batch}"
            );
        }
    }
}
