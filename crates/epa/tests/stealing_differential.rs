//! Differential testing: the work-stealing sweep scheduler vs the
//! sequential reference, on every public sweep surface.
//!
//! The scheduler's contract is that thread count, steal batch size, and
//! streaming window bound are *performance* knobs — none of them may
//! change a single answer, the order answers come back in, or any
//! aggregate computed from them. These properties pin that contract on
//! randomized scenario streams (including permuted input orders), on the
//! catalog workload's skewed cheap-outcome/expensive-margin mix, and on
//! the sensitivity and mutation-screening entry points that route
//! through the same scheduler.

use proptest::prelude::*;

use cpsrisk_epa::workload::{
    catalog_margin_budget, catalog_problem, catalog_queries, catalog_requirements_ranked,
    chain_problem, CatalogAnalysis,
};
use cpsrisk_epa::{
    screen_mutations, sensitivity_sweep, sensitivity_sweep_parallel, IncrementalAnalysis, Scenario,
    ScenarioOutcome, ScenarioSpace, SweepOptions,
};

/// The scheduler configurations the properties sweep over: every
/// combination of a thread count that under-, exactly-, and
/// over-subscribes typical hardware with a batch size that maximizes,
/// mixes, and effectively disables stealing granularity.
const THREADS: [usize; 3] = [1, 2, 8];
const BATCHES: [usize; 3] = [1, 7, 64];

fn opts(threads: usize, batch: usize) -> SweepOptions {
    SweepOptions::with_threads(threads).steal_batch(batch)
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
fn totals(outcomes: &[ScenarioOutcome]) -> (usize, usize) {
    (
        outcomes.iter().filter(|o| o.is_hazard()).count(),
        outcomes.iter().map(|o| o.violated.len()).sum(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On randomly permuted chain-workload scenario streams, the
    /// stealing sweep reproduces the sequential outcome stream bit for
    /// bit, for every thread count and batch size.
    #[test]
    fn stealing_matches_sequential_on_permuted_streams(
        n in 1usize..=3,
        seed in any::<u64>(),
        max_faults in 1usize..=2,
    ) {
        let p = chain_problem(n);
        let analysis = IncrementalAnalysis::new(&p).expect("grounds");
        let mut scenarios: Vec<Scenario> =
            ScenarioSpace::new(&p, max_faults).iter().collect();
        permute(&mut scenarios, seed);
        let sequential = analysis
            .sweep(&scenarios, &opts(1, 1))
            .expect("sequential sweep");
        let expected_totals = totals(&sequential);
        for threads in THREADS {
            for batch in BATCHES {
                let o = opts(threads, batch);
                let (stolen, stats) =
                    analysis.sweep_with_stats(&scenarios, &o).expect("stealing");
                prop_assert_eq!(&stolen, &sequential, "threads={} batch={}", threads, batch);
                prop_assert_eq!(totals(&stolen), expected_totals);
                prop_assert_eq!(stats.processed.iter().sum::<usize>(), scenarios.len());
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
        let analysis = IncrementalAnalysis::new(&p).expect("grounds");
        let mut scenarios: Vec<Scenario> =
            ScenarioSpace::new(&p, usize::MAX).iter().collect();
        permute(&mut scenarios, seed);
        let o = opts(threads, batch).max_in_flight(bound);
        let materialized = analysis.sweep(&scenarios, &o).expect("materialized");
        let mut streamed: Vec<Option<ScenarioOutcome>> = vec![None; scenarios.len()];
        let stats = analysis
            .sweep_streaming(scenarios.iter().cloned(), &o, |i, out| {
                streamed[i] = Some(out);
            })
            .expect("streaming");
        let streamed: Vec<ScenarioOutcome> =
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
    let analysis = CatalogAnalysis::new(&p, budget).expect("grounds");
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

/// Sensitivity analysis and mutation screening route through the same
/// scheduler; their ranked findings and screening outcomes must be
/// independent of every scheduler knob.
#[test]
fn sensitivity_and_screening_are_scheduler_independent() {
    let p = chain_problem(2);
    let sequential_findings = sensitivity_sweep(&p, 1);
    let sequential_screen = screen_mutations(&p, &opts(1, 1)).expect("screens");
    for threads in THREADS {
        for batch in BATCHES {
            let o = opts(threads, batch);
            assert_eq!(
                sensitivity_sweep_parallel(&p, 1, &o),
                sequential_findings,
                "threads={threads} batch={batch}"
            );
            assert_eq!(
                screen_mutations(&p, &o).expect("screens"),
                sequential_screen,
                "threads={threads} batch={batch}"
            );
        }
    }
}
