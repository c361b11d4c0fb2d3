//! Property tests: filter-and-refine answers are exactly the sequential
//! scan's answers (completeness + correctness), for every filter — over
//! random forests mixed with adversarial shapes (deep chains, combs,
//! stars, single nodes, size-skewed pairs).

use proptest::prelude::*;
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_edit::edit_distance;
use treesim_search::{
    BiBranchFilter, BiBranchMode, Filter, HistogramFilter, MaxFilter, NoFilter, PostingsFilter,
    SearchEngine,
};
use treesim_tree::{Forest, Tree, TreeId};

fn random_forest(seed: u64, count: usize) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(2.5, 1.0),
        size: Normal::new(9.0, 3.0),
        label_count: 4,
        decay: 0.3,
        seed_count: 3.min(count),
        tree_count: count,
        rng_seed: seed,
    })
}

/// A random forest of `count` trees followed by the fragile shapes: a deep
/// chain (height ≥ 30), a comb, a star, a single node and a size-skewed
/// pair (a two-node tree next to a 40-node one). Labels come from the
/// same four-label universe, varied by `seed`.
fn adversarial_forest(seed: u64, count: usize) -> Forest {
    let mut forest = random_forest(seed, count);
    let label = |i: u64| ((seed + i) % 4).to_string();
    let depth = 30 + seed % 5;
    let chain = (0..depth)
        .rev()
        .fold(label(depth), |inner, i| format!("{}({inner})", label(i)));
    // Each spine node holds a leaf and the rest of the spine.
    let comb = (0..12).rev().fold(label(12), |inner, i| {
        format!("{}({} {inner})", label(i), label(i + 1))
    });
    let star = format!(
        "{}({})",
        label(0),
        (1..=20).map(label).collect::<Vec<_>>().join(" ")
    );
    let bushy = format!(
        "{}({})",
        label(3),
        (0..13)
            .map(|i| format!("{}({} {})", label(i), label(i + 1), label(i + 2)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let pair = format!("{}({})", label(1), label(2));
    for spec in [chain, comb, star, label(2), pair, bushy] {
        forest
            .parse_bracket(&spec)
            .expect("adversarial shape parses");
    }
    let shapes: Vec<&Tree> = forest.iter().skip(count).map(|(_, t)| t).collect();
    assert!(shapes[0].height() > 30, "deep chain");
    assert_eq!(shapes[3].len(), 1, "single node");
    assert_eq!(
        (shapes[4].len(), shapes[5].len()),
        (2, 40),
        "size-skewed pair"
    );
    forest
}

fn check_engine<F: Filter>(forest: &Forest, filter: F, seed: u64) -> Result<(), TestCaseError> {
    let engine = SearchEngine::new(forest, filter);
    let query_id = TreeId((seed % forest.len() as u64) as u32);
    let query = forest.tree(query_id);

    // Ground truth by brute force.
    let mut truth: Vec<(u64, TreeId)> = forest
        .iter()
        .map(|(id, t)| (edit_distance(query, t), id))
        .collect();
    truth.sort_unstable();

    // k-NN distances agree for several k.
    for k in [1, 3, forest.len()] {
        let (got, stats) = engine.knn(query, k);
        let got_d: Vec<u64> = got.iter().map(|n| n.distance).collect();
        let want_d: Vec<u64> = truth.iter().take(k).map(|&(d, _)| d).collect();
        prop_assert_eq!(got_d, want_d, "knn mismatch at k={}", k);
        prop_assert!(stats.refined <= forest.len());
    }

    // Range results agree exactly for several radii, up to one as large
    // as the largest tree.
    let largest = forest.iter().map(|(_, t)| t.len()).max().unwrap_or(0) as u32;
    for tau in [0u32, 1, 2, 4, 8, largest] {
        let (got, _) = engine.range(query, tau);
        let want: Vec<(u64, TreeId)> = truth
            .iter()
            .copied()
            .filter(|&(d, _)| d <= u64::from(tau))
            .collect();
        prop_assert_eq!(got.len(), want.len(), "range size mismatch at tau={}", tau);
        for (n, &(d, id)) in got.iter().zip(&want) {
            prop_assert_eq!(n.distance, d);
            prop_assert_eq!(n.tree, id);
        }
    }
    Ok(())
}

/// The bounded refinement's τ-cutoffs are observable and change nothing:
/// a sequential scan refines every tree, so at a small radius most
/// refinements are cut off at τ — and the results still equal brute force
/// (each surviving refinement also passes the strict-checks oracle).
#[test]
fn range_cutoffs_populate_without_changing_results() {
    let forest = random_forest(7, 40);
    let engine = SearchEngine::new(&forest, NoFilter::build(&forest));
    let query = forest.tree(TreeId(0));
    let (got, stats) = engine.range(query, 1);
    assert!(stats.refine_cutoffs > 0, "expected τ-cutoffs: {stats:?}");
    assert_eq!(stats.refined, forest.len(), "scan refines everything");
    let want: Vec<(u64, TreeId)> = {
        let mut w: Vec<(u64, TreeId)> = forest
            .iter()
            .map(|(id, t)| (edit_distance(query, t), id))
            .filter(|&(d, _)| d <= 1)
            .collect();
        w.sort_unstable();
        w
    };
    assert_eq!(got.len(), want.len());
    for (n, &(d, id)) in got.iter().zip(&want) {
        assert_eq!((n.distance, n.tree), (d, id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bibranch_positional_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 12);
        check_engine(&forest, BiBranchFilter::build(&forest, 2, BiBranchMode::Positional), seed)?;
    }

    #[test]
    fn bibranch_plain_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 12);
        check_engine(&forest, BiBranchFilter::build(&forest, 2, BiBranchMode::Plain), seed)?;
    }

    #[test]
    fn bibranch_q3_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 10);
        check_engine(&forest, BiBranchFilter::build(&forest, 3, BiBranchMode::Positional), seed)?;
    }

    #[test]
    fn histogram_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 12);
        check_engine(&forest, HistogramFilter::build(&forest), seed)?;
    }

    #[test]
    fn postings_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 12);
        check_engine(&forest, PostingsFilter::build(&forest, 2), seed)?;
    }

    #[test]
    fn stacked_filter_engine_is_exact(seed in 0u64..10_000) {
        let forest = adversarial_forest(seed, 10);
        let filter = MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        };
        check_engine(&forest, filter, seed)?;
    }
}
