//! Smoke-scale tests of the benchmark itself: the tail-percentile rule,
//! failure counting, replay-vs-engine identity, and that both run modes
//! report exactly the metrics `BENCHMARK.json` declares.

use treesim_edit::TreeInfo;
use treesim_perfbench::modes;
use treesim_perfbench::oracle::{Kind, Ledger, Oracle, Query};
use treesim_perfbench::replay;
use treesim_perfbench::stats::{self, Percentile, MIN_BEYOND};
use treesim_perfbench::workload::{self, Source};
use treesim_search::{Neighbor, PostingsFilter, SearchEngine};
use treesim_tree::{Forest, TreeId};

fn small_synthetic() -> Forest {
    Source::Synthetic { trees: 80 }.generate(7)
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(Percentile::P99.min_samples(), 1000);
    assert_eq!(Percentile::P90.min_samples(), 100);
    for p in [Percentile::P90, Percentile::P99, Percentile(9990)] {
        let n = p.min_samples();
        assert!(p.beyond(n) >= MIN_BEYOND);
        assert!(p.beyond(n - 1) < MIN_BEYOND);
        let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let tail = stats::tail(&samples, p).unwrap();
        let beyond = samples.iter().filter(|&&s| s > tail).count();
        assert_eq!(beyond, p.beyond(n));
        assert!(stats::tail(&samples[..n - 1], p).is_err());
    }
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(stats::tail(&samples, Percentile::P99), Ok(990.0));
    assert_eq!(stats::percentile(&samples, Percentile::P50), 500.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn error_rate_counts_wrong_and_panicked_answers() {
    let forest = small_synthetic();
    let mut oracle = Oracle::new(&forest);
    let queries: Vec<Query> = [(3, Kind::Knn(5)), (4, Kind::Range(9)), (5, Kind::Knn(5))]
        .iter()
        .map(|&(tree, kind)| Query {
            kind,
            tree: TreeId(tree),
            indexed: forest.len(),
        })
        .collect();
    let truth: Vec<Vec<Neighbor>> = queries.iter().map(|q| oracle.brute_force(q)).collect();

    let clean = |answers: Vec<Option<Vec<Neighbor>>>| {
        let mut ledger = Ledger::default();
        for (q, a) in queries.iter().zip(answers) {
            ledger.record(*q, a);
        }
        ledger
    };
    let correct: Vec<Option<Vec<Neighbor>>> = truth.iter().cloned().map(Some).collect();
    assert_eq!(clean(correct.clone()).verify(&forest, &[0, 1, 2]).0, 0);

    // A wrong distance is caught without the exhaustive check.
    let mut wrong = correct.clone();
    wrong[0].as_mut().unwrap()[1].distance += 1;
    let ledger = clean(wrong);
    assert_eq!(ledger.verify(&forest, &[]).0, 1);
    assert_eq!(ledger.attempted(), 3);

    // A plausible answer that skips the true nearest neighbor (all its
    // distances exact) is caught by the exhaustive check.
    let mut skipped = correct.clone();
    let far = oracle.brute_force(&Query {
        kind: Kind::Knn(6),
        ..queries[2]
    });
    skipped[2] = Some(far[1..].to_vec());
    assert_eq!(clean(skipped.clone()).verify(&forest, &[]).0, 0);
    assert_eq!(clean(skipped).verify(&forest, &[2]).0, 1);

    // A panic (no answer) and a failed push both count.
    let mut panicked = clean(vec![None, correct[1].clone(), correct[2].clone()]);
    panicked.other_attempted = 4;
    panicked.other_failed = 1;
    assert_eq!(panicked.verify(&forest, &[1]).0, 2);
    assert_eq!(panicked.attempted(), 7);
}

fn assert_replay_matches(forest: &Forest, k: usize, tau: u32) {
    let engine = SearchEngine::new(forest, PostingsFilter::build(forest, 2));
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
    for &id in ids.iter().step_by(7) {
        let query = forest.tree(id);
        let knn = replay::replay_knn(engine.filter(), &infos, &ids, id, query, k);
        let (results, stats) = engine.knn(query, k);
        knn.check_against(&results, &stats).unwrap();
        assert_eq!(knn.done.len() + knn.cut.len(), stats.refined);

        let range = replay::replay_range(engine.filter(), &infos, &ids, id, query, tau);
        let (results, stats) = engine.range(query, tau);
        range.check_against(&results, &stats).unwrap();

        // A replay that differs from the engine is reported, not accepted.
        let mut tampered = range.clone();
        tampered.pruned[0] += 1;
        assert!(tampered.check_against(&results, &stats).is_err());

        // The timed sweep re-executes exactly the recorded calls.
        let times = replay::sweep(
            engine.filter(),
            &infos,
            &ids,
            &[query],
            &[knn],
            Kind::Knn(k),
        );
        assert_eq!(times.stages.len(), 4);
    }
}

#[test]
fn replay_matches_engine_on_synthetic_trees() {
    assert_replay_matches(&small_synthetic(), 5, 9);
}

#[test]
fn replay_matches_engine_on_dblp_records() {
    assert_replay_matches(&Source::Dblp { records: 120 }.generate(3), 5, 2);
}

/// The metric names listed in one array (`end_to_end` or `per_layer`) of
/// the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).unwrap().to_string())
        .collect()
}

fn names(outcome: &modes::Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let workloads: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(declared("workloads"), workloads);
    for w in workload::all() {
        let w = w.scaled(200);
        let outcome = modes::end_to_end(&w, 5, 0.0).unwrap();
        assert_eq!(outcome.failed, 0, "{}: {:?}", w.name, outcome.notes);
        assert_eq!(names(&outcome), end_to_end, "{}", w.name);
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name,
            outcome.metrics
        );

        let traced = modes::traced(&w, 5, 0.0).unwrap();
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.notes);
        assert_eq!(names(&traced), per_layer, "{}", w.name);
        // Count metrics repeat exactly for a seed.
        let again = modes::traced(&w, 5, 0.0).unwrap();
        for (a, b) in traced.metrics.iter().zip(&again.metrics) {
            if a.unit == "count" || a.unit == "ratio" {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{}: {}",
                    w.name,
                    a.name
                );
            }
        }
    }
}
