//! The growable postings filter round-trips: after any sequence of
//! pushes, the dynamic index's CSR arena is exactly the arena a
//! from-scratch [`treesim_core::InvertedFileIndex`] build would produce,
//! and [`PostingsFilter::build`] (the append fold) equals
//! [`PostingsFilter::from_index`] (the conversion of a persisted index) in
//! vectors, arena and every stage bound — including 100%-out-of-vocabulary
//! queries and single-node trees.

use proptest::prelude::*;
use treesim_core::{InvertedFileIndex, VectorArena};
use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_search::{DynamicIndex, Filter, PostingsFilter};
use treesim_tree::{Forest, Tree, TreeId};

/// Asserts the two construction routes give the same filter over
/// `forest`, observed through every query in `queries`.
fn assert_build_equals_from_index(forest: &Forest, queries: &[&Tree]) {
    let built = PostingsFilter::build(forest, 2);
    let converted = PostingsFilter::from_index(InvertedFileIndex::build(forest, 2));
    assert_eq!(built.arena(), converted.arena());
    assert_eq!(
        built.arena(),
        &VectorArena::from_index(&InvertedFileIndex::build(forest, 2))
    );
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    for &id in &ids {
        assert_eq!(built.vector(id), converted.vector(id), "tree {id:?}");
    }
    for query in queries {
        let (a, b) = (built.prepare_query(query), converted.prepare_query(query));
        assert_eq!(a.candidate_count(), b.candidate_count());
        for stage in 0..built.stages() {
            assert_eq!(built.stage_name(stage), converted.stage_name(stage));
            let (mut batch_a, mut batch_b) = (Vec::new(), Vec::new());
            built.stage_bound_batch(&a, &ids, stage, &mut batch_a);
            converted.stage_bound_batch(&b, &ids, stage, &mut batch_b);
            assert_eq!(batch_a, batch_b, "stage {stage}");
            for (&id, &bound) in ids.iter().zip(&batch_a) {
                assert_eq!(built.stage_bound(&a, id, stage), bound);
                assert_eq!(converted.stage_bound(&b, id, stage), bound);
            }
        }
        for &id in &ids {
            for tau in [0u32, 1, 3] {
                assert_eq!(
                    built.prunes_range(&a, id, tau),
                    converted.prunes_range(&b, id, tau)
                );
            }
        }
    }
}

/// A query sharing no label with `forest`, interned in a scratch copy of
/// its interner so every branch is out of vocabulary.
fn oov_query(forest: &Forest) -> Tree {
    let mut scratch = Forest::new();
    *scratch.interner_mut() = forest.interner().clone();
    let id = scratch
        .parse_bracket("zoov0(zoov1(zoov2) zoov3)")
        .expect("valid bracket spec");
    scratch.tree(id).clone()
}

#[test]
fn pushed_arena_equals_static_build() {
    let mut index = DynamicIndex::new(2);
    for spec in [
        "a(b(c(d)) b e)",
        "a(c(d) b e)",
        "a",
        "a(b c)",
        "x(y z)",
        "a(b(c d e) f)",
        "q(r(s))",
    ] {
        index.push_bracket(spec).unwrap();
        // After EVERY push, the incrementally grown arena matches the
        // from-scratch CSR build over the same forest.
        let rebuilt = VectorArena::from_index(&InvertedFileIndex::build(index.forest(), 2));
        assert_eq!(index.arena(), &rebuilt);
        let oov = oov_query(index.forest());
        let mut queries: Vec<&Tree> = index.forest().iter().map(|(_, t)| t).collect();
        queries.push(&oov);
        assert_build_equals_from_index(index.forest(), &queries);
    }
    assert_eq!(index.arena().len(), index.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Same round-trips over synthetic forests bulk-loaded tree by tree,
    /// with a single-node tree appended to the dataset.
    #[test]
    fn pushed_arena_equals_static_build_on_synthetic_forests(
        seed in 0u64..100_000,
        count in 1usize..8,
    ) {
        let mut forest = generate(&SyntheticConfig {
            fanout: Normal::new(2.5, 1.0),
            size: Normal::new(9.0, 3.0),
            label_count: 5,
            decay: 0.25,
            seed_count: 2.min(count),
            tree_count: count,
            rng_seed: seed,
        });
        forest.parse_bracket("0").expect("valid bracket spec");
        let index = DynamicIndex::from_forest(forest.clone(), 2);
        let rebuilt = VectorArena::from_index(&InvertedFileIndex::build(index.forest(), 2));
        prop_assert_eq!(index.arena(), &rebuilt);
        prop_assert_eq!(index.arena().len(), index.len());
        prop_assert_eq!(index.arena().q(), 2);
        let oov = oov_query(&forest);
        let mut queries: Vec<&Tree> = forest.iter().map(|(_, t)| t).collect();
        queries.push(&oov);
        assert_build_equals_from_index(&forest, &queries);
    }
}
