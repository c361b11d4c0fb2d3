//! Global-metrics integration: the `treesim-obs` registry and the flight
//! recorder are projections of the per-query [`SearchStats`] and must
//! agree with it exactly.
//!
//! This file deliberately holds a SINGLE test: cargo runs each integration
//! test file in its own process, so nothing else touches the global
//! registry here, and delta assertions can be exact. (Do not add more
//! `#[test]` functions — they would run as parallel threads of this
//! process and race on the globals, and the final `metrics::reset()`
//! would corrupt their deltas.)

use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_obs::MetricsSnapshot;
use treesim_search::{
    BiBranchFilter, BiBranchMode, DynamicIndex, PostingsFilter, SearchEngine, SearchStats,
    ShardedEngine, ShardedForest,
};
use treesim_tree::{Forest, Tree, TreeId};

fn histogram_count(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.count)
}

fn histogram_sum(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.sum)
}

/// Runs one query and checks that both projections of its returned stats
/// agree with them: the newest flight record field by field, and the
/// registry deltas of the refinement counters and the per-query
/// histogram sums. Returns the stats.
fn check_projections(case: &str, query: impl FnOnce() -> SearchStats) -> SearchStats {
    let before = treesim_obs::metrics::snapshot();
    let stats = query();
    let after = treesim_obs::metrics::snapshot();
    let record = *treesim_obs::recorder::global()
        .records()
        .last()
        .expect("the query deposited a flight record");
    let record_funnel: Vec<(&str, u64, u64)> = record
        .stages()
        .iter()
        .map(|s| (s.name, s.evaluated, s.pruned))
        .collect();
    let stats_funnel: Vec<(&str, u64, u64)> = stats
        .stages
        .iter()
        .map(|s| (s.name, s.evaluated as u64, s.pruned as u64))
        .collect();
    assert_eq!(record_funnel, stats_funnel, "{case}: record stages");
    assert_eq!(
        (
            record.propt_iters,
            record.refined,
            record.refine_cutoffs,
            record.bands_skipped,
            record.zs_nodes,
            record.results,
            record.dataset,
        ),
        (
            stats.propt_iters,
            stats.refined as u64,
            stats.refine_cutoffs as u64,
            stats.refine_bands_skipped,
            stats.zs_nodes,
            stats.results as u64,
            stats.dataset_size as u64,
        ),
        "{case}: record fields"
    );
    assert_eq!(
        after.counter_delta(&before, "refine.bounded.cutoffs"),
        stats.refine_cutoffs as u64,
        "{case}: refine.bounded.cutoffs"
    );
    assert_eq!(
        after.counter_delta(&before, "refine.bounded.bands_skipped"),
        stats.refine_bands_skipped,
        "{case}: refine.bounded.bands_skipped"
    );
    assert_eq!(
        histogram_sum(&after, "cascade.propt.iters")
            - histogram_sum(&before, "cascade.propt.iters"),
        stats.propt_iters,
        "{case}: cascade.propt.iters sum"
    );
    assert_eq!(
        histogram_sum(&after, "refine.zs.nodes") - histogram_sum(&before, "refine.zs.nodes"),
        stats.zs_nodes,
        "{case}: refine.zs.nodes sum"
    );
    stats
}

#[test]
fn registry_matches_search_stats_exactly() {
    let mut forest = Forest::new();
    for i in 0..16 {
        forest
            .parse_bracket(&format!("a(b{} c(d{}) e)", i % 4, i % 3))
            .unwrap();
    }
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let query = forest.tree(TreeId(0));

    // --- one knn query: exact per-stage funnel deltas -------------------
    let before = treesim_obs::metrics::snapshot();
    let (_, stats) = engine.knn(query, 3);
    let after = treesim_obs::metrics::snapshot();

    assert_eq!(after.counter_delta(&before, "engine.knn.queries"), 1);
    assert_eq!(
        after.counter_delta(&before, "engine.knn.refined"),
        stats.refined as u64
    );
    assert_eq!(
        after.counter_delta(&before, "engine.knn.results"),
        stats.results as u64
    );
    for stage in &stats.stages {
        assert_eq!(
            after.counter_delta(&before, &format!("cascade.{}.evaluated", stage.name)),
            stage.evaluated as u64,
            "cascade.{}.evaluated disagrees with SearchStats",
            stage.name
        );
        assert_eq!(
            after.counter_delta(&before, &format!("cascade.{}.pruned", stage.name)),
            stage.pruned as u64,
            "cascade.{}.pruned disagrees with SearchStats",
            stage.name
        );
    }
    // One Zhang–Shasha size/latency sample per refined candidate, one
    // propt iteration sample per final-stage bound.
    assert_eq!(
        histogram_count(&after, "refine.zs.nodes") - histogram_count(&before, "refine.zs.nodes"),
        stats.refined as u64
    );
    assert_eq!(
        histogram_count(&after, "refine.zs.us") - histogram_count(&before, "refine.zs.us"),
        stats.refined as u64
    );
    assert_eq!(
        histogram_count(&after, "cascade.propt.iters")
            - histogram_count(&before, "cascade.propt.iters"),
        stats.final_stage_evaluated() as u64
    );
    assert_eq!(histogram_count(&after, "engine.knn.us"), 1);

    // --- one range query ------------------------------------------------
    let before = treesim_obs::metrics::snapshot();
    let (_, stats) = engine.range(query, 2);
    let after = treesim_obs::metrics::snapshot();
    assert_eq!(after.counter_delta(&before, "engine.range.queries"), 1);
    for stage in &stats.stages {
        assert_eq!(
            after.counter_delta(&before, &format!("cascade.{}.evaluated", stage.name)),
            stage.evaluated as u64
        );
    }

    // --- batch: totals equal the per-query sums, gauges drain to zero ---
    let queries: Vec<&Tree> = forest.iter().map(|(_, t)| t).take(6).collect();
    let before = treesim_obs::metrics::snapshot();
    let batch = engine.knn_batch_threads(&queries, 2, 3);
    let after = treesim_obs::metrics::snapshot();
    assert_eq!(
        after.counter_delta(&before, "engine.knn.queries"),
        queries.len() as u64
    );
    let refined_total: usize = batch.iter().map(|(_, s)| s.refined).sum();
    assert_eq!(
        after.counter_delta(&before, "engine.knn.refined"),
        refined_total as u64
    );
    assert_eq!(after.gauge("engine.batch.pending"), Some(0));
    assert_eq!(after.gauge("engine.batch.workers.active"), Some(0));
    assert_eq!(
        histogram_count(&after, "engine.batch.worker.us")
            - histogram_count(&before, "engine.batch.worker.us"),
        3
    );

    // --- dynamic index: push counter and size gauge ---------------------
    let mut dynamic = DynamicIndex::new(2);
    dynamic.push_bracket("a(b c)").unwrap();
    dynamic.push_bracket("a(b d)").unwrap();
    let snapshot = treesim_obs::metrics::snapshot();
    assert_eq!(snapshot.counter("dynamic.push"), Some(2));
    assert_eq!(snapshot.gauge("dynamic.trees"), Some(2));
    let probe = dynamic.forest().tree(TreeId(0));
    let before = treesim_obs::metrics::snapshot();
    let (_, dyn_stats) = dynamic.knn(probe, 1);
    dynamic.range(probe, 1);
    let after = treesim_obs::metrics::snapshot();
    assert_eq!(after.counter_delta(&before, "dynamic.knn.queries"), 1);
    assert_eq!(after.counter_delta(&before, "dynamic.range.queries"), 1);
    assert_eq!(
        after.counter_delta(&before, "dynamic.knn.refined"),
        dyn_stats.refined as u64
    );

    // --- every query path: registry and recorder project its stats -----
    // A varied synthetic forest, so refinements get cut off at the budget.
    let forest = generate(&SyntheticConfig {
        fanout: Normal::new(2.5, 1.0),
        size: Normal::new(9.0, 3.0),
        label_count: 4,
        decay: 0.3,
        seed_count: 3,
        tree_count: 30,
        rng_seed: 11,
    });
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let index = DynamicIndex::from_forest(forest.clone(), 2);
    let splits = [1usize, 3].map(|shards| ShardedForest::split(&forest, shards));
    let sharded: Vec<_> = splits
        .iter()
        .map(|split| ShardedEngine::new(split, |shard| PostingsFilter::build(shard, 2)))
        .collect();
    let mut totals = SearchStats::default();
    for query in forest.iter().map(|(_, t)| t).take(4) {
        let mut cases = vec![
            check_projections("engine knn", || engine.knn(query, 3).1),
            check_projections("engine range", || engine.range(query, 2).1),
            check_projections("dynamic knn", || index.knn(query, 3).1),
            check_projections("dynamic range", || index.range(query, 2).1),
        ];
        for engine in &sharded {
            let shards = engine.shard_count();
            cases.push(check_projections(&format!("S={shards} knn"), || {
                engine.knn(query, 3).1
            }));
            cases.push(check_projections(&format!("S={shards} range"), || {
                engine.range(query, 2).1
            }));
        }
        for stats in &cases {
            totals.refine_cutoffs += stats.refine_cutoffs;
            totals.propt_iters += stats.propt_iters;
            totals.zs_nodes += stats.zs_nodes;
        }
    }
    // The checks above must not hold vacuously.
    assert!(totals.refine_cutoffs > 0, "no query cut a refinement off");
    assert!(totals.propt_iters > 0, "no query ran a propt bound");
    assert!(totals.zs_nodes > 0, "no query refined");

    // --- reset wipes values but keeps registrations ---------------------
    treesim_obs::metrics::reset();
    let wiped = treesim_obs::metrics::snapshot();
    assert_eq!(wiped.counter("engine.knn.queries"), Some(0));
    assert_eq!(wiped.counter("dynamic.push"), Some(0));
    assert_eq!(wiped.gauge("dynamic.trees"), Some(0));
    assert_eq!(histogram_count(&wiped, "refine.zs.us"), 0);
}
