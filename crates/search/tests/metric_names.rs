//! Runtime half of the metric-name contract.
//!
//! The `xtask analyze` metric-name lint checks name *literals* statically;
//! this test closes the loop at runtime: it drives every metric-emitting
//! engine path (static engine, batch, dynamic index, all filters), drains
//! the global registry, and validates each name that actually materialized
//! against the **same** grammar (`treesim_obs::naming`) the lint uses.
//! A `format!`-built name the lint could only check as a template is fully
//! expanded here.
//!
//! This is an integration test on purpose: it runs in its own process, so
//! the registry contains exactly what this binary emitted.

use treesim_obs::naming::{is_test_name, validate_metric_name, CASCADE_STAGES, KNOWN_PREFIXES};
use treesim_search::{
    BiBranchFilter, BiBranchMode, DynamicIndex, Filter, HistogramFilter, NoFilter, PostingsFilter,
    SearchEngine, ShardedEngine, ShardedForest,
};
use treesim_tree::Forest;

fn sample_forest() -> Forest {
    let mut forest = Forest::new();
    for spec in [
        "a(b(c(d)) b e)",
        "a(c(d) b e)",
        "a(b(c d) b e)",
        "x(y z)",
        "a(b e)",
        "x(y(z) z)",
    ] {
        forest.parse_bracket(spec).expect("valid bracket spec");
    }
    forest
}

/// Runs knn, range and batch queries through `filter`'s cascade (each
/// query flushes its stats into the registry).
fn drive_engine<F: Filter + Sync>(forest: &Forest, filter: F) {
    let engine = SearchEngine::new(forest, filter);
    let query = forest.tree(treesim_tree::TreeId(0));
    let (knn, _) = engine.knn(query, 3);
    assert!(!knn.is_empty());
    let (range, _) = engine.range(query, 2);
    assert!(!range.is_empty());
    let batch = engine.knn_batch(&[query, forest.tree(treesim_tree::TreeId(3))], 2);
    assert_eq!(batch.len(), 2);
}

#[test]
fn every_emitted_metric_name_parses_under_the_grammar() {
    let forest = sample_forest();
    drive_engine(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    drive_engine(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Plain),
    );
    drive_engine(&forest, HistogramFilter::build(&forest));
    drive_engine(&forest, NoFilter::build(&forest));
    drive_engine(&forest, PostingsFilter::build(&forest, 2));

    // Sharded execution materializes the `shard.*` namespace.
    let sharded = ShardedForest::split(&forest, 3);
    let engine = ShardedEngine::new(&sharded, |shard| PostingsFilter::build(shard, 2));
    let query = forest.tree(treesim_tree::TreeId(0));
    let (hits, _) = engine.knn(query, 3);
    assert!(!hits.is_empty());
    let (hits, _) = engine.range(query, 2);
    assert!(!hits.is_empty());
    let report = engine.explain_knn(query, 2);
    report
        .check_consistency()
        .expect("sharded explain telescopes");

    let mut index = DynamicIndex::new(2);
    for spec in ["a(b c)", "a(b(c) c)", "a(c)"] {
        index.push_bracket(spec).expect("valid bracket spec");
    }
    index.knn(forest.tree(treesim_tree::TreeId(0)), 2);
    index.range(forest.tree(treesim_tree::TreeId(0)), 3);

    // The SLO engine's published series: the full `<op>.errors` catalog
    // plus the `slo.*` gauges minted by an evaluation over the traffic
    // above — every format!-built name expands and validates here.
    treesim_search::ops::register();
    assert!(treesim_search::ops::record_error("engine.knn"));
    let report = treesim_obs::slo::evaluate();
    assert!(!report.verdicts.is_empty());

    let snapshot = treesim_obs::metrics::snapshot();
    let names: Vec<&str> = snapshot
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .chain(snapshot.gauges.iter().map(|g| g.name.as_str()))
        .chain(snapshot.histograms.iter().map(|h| h.name.as_str()))
        .collect();
    // The drivers above must have populated the registry; an empty
    // snapshot would vacuously "pass".
    assert!(
        names.len() >= 10,
        "expected a populated registry, got {names:?}"
    );
    // The arena-backed batched sweeps ran above, so their mechanism
    // counter and the CSR footprint gauges must have materialized (and
    // validate below like every other name).
    for expected in ["cascade.batch.evaluated", "arena.trees", "arena.entries"] {
        assert!(
            names.contains(&expected),
            "expected {expected:?} in the drained registry, got {names:?}"
        );
    }
    for name in names {
        if is_test_name(name) {
            continue; // reserved namespace for test-only metrics
        }
        if let Err(violation) = validate_metric_name(name, false) {
            panic!(
                "metric {name:?} escaped the naming contract: {violation} \
                 (grammar: treesim_obs::naming; static half: xtask analyze)"
            );
        }
    }
}

#[test]
fn filter_stage_names_match_the_contract_table() {
    let forest = sample_forest();
    let positional = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
    let plain = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
    let histogram = HistogramFilter::build(&forest);
    let scan = NoFilter::build(&forest);
    let postings = PostingsFilter::build(&forest, 2);

    let mut seen = std::collections::BTreeSet::new();
    for filter in [
        &positional as &dyn StageNames,
        &plain,
        &histogram,
        &scan,
        &postings,
    ] {
        for stage in 0..filter.stage_count() {
            let name = filter.stage(stage);
            assert!(
                CASCADE_STAGES.contains(&name),
                "Filter stage {name:?} is missing from naming::CASCADE_STAGES"
            );
            seen.insert(name);
        }
    }
    // …and the table lists nothing the filters no longer produce.
    for stage in CASCADE_STAGES {
        assert!(
            seen.contains(stage),
            "naming::CASCADE_STAGES lists {stage:?} but no filter returns it"
        );
    }
    // The funnel prefix itself must be a known prefix.
    assert!(KNOWN_PREFIXES.contains(&"cascade"));
}

/// Object-safe view of the stage portion of [`Filter`] (the full trait has
/// an associated `Query` type, so `&dyn Filter` is not usable directly).
trait StageNames {
    fn stage_count(&self) -> usize;
    fn stage(&self, stage: usize) -> &'static str;
}

impl<F: Filter> StageNames for F {
    fn stage_count(&self) -> usize {
        self.stages()
    }
    fn stage(&self, stage: usize) -> &'static str {
        self.stage_name(stage)
    }
}
