//! Ablations for the design choices DESIGN.md calls out — not part of the
//! paper's figures, but quantifying its two tuning knobs:
//!
//! * **q-level** (§3.4): higher q encodes more structure per branch but
//!   divides by a larger factor `4(q−1)+1`; the paper argues q = 2 is the
//!   sweet spot except on deep trees.
//! * **bound mode** (§4.2): the positional optimistic bound is tighter than
//!   `⌈BDist/5⌉` but costs a binary search over `PosBDist`; stacking the
//!   histogram filter on top (`MaxFilter`) tests whether the baselines add
//!   anything once binary branches are in play.

use treesim_datagen::normal::Normal;
use treesim_datagen::synthetic::{generate, SyntheticConfig};
use treesim_search::{
    BiBranchFilter, BiBranchMode, HistogramFilter, MaxFilter, PostingsFilter, SearchEngine,
    ShardedEngine, ShardedForest,
};
use treesim_tree::Forest;

use crate::experiments::{estimate_range_radius, sample_queries};
use crate::runner::{run_workload, MethodSummary, QueryMode};
use crate::scale::Scale;
use crate::table::{f2, ms, Table};

fn synthetic(scale: &Scale) -> Forest {
    generate(&SyntheticConfig {
        fanout: Normal::new(4.0, 0.5),
        size: Normal::new(50.0, 2.0),
        label_count: 8,
        decay: 0.05,
        seed_count: 10,
        tree_count: scale.dataset_size,
        rng_seed: scale.rng_seed ^ 0xab1,
    })
}

/// Ablation A: branch level q ∈ {2, 3, 4} on synthetic and DBLP data,
/// range + k-NN.
pub fn q_level_ablation(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation-q",
        "Ablation: branch level q",
        &[
            "dataset", "q", "range %", "knn %", "range ms", "knn ms", "param",
        ],
    );
    let datasets: Vec<(&str, Forest)> = vec![
        ("synthetic", synthetic(scale)),
        ("dblp", crate::experiments::dblp::dblp_forest(scale)),
    ];
    for (name, forest) in &datasets {
        let queries = sample_queries(forest, scale, q_salt(name));
        let (_, tau) = estimate_range_radius(forest, scale, q_salt(name));
        let k = scale.knn_k();
        for q in 2..=4usize {
            let engine = SearchEngine::new(
                forest,
                BiBranchFilter::build(forest, q, BiBranchMode::Positional),
            );
            let range = run_workload(&engine, &queries, QueryMode::Range(tau));
            let knn = run_workload(&engine, &queries, QueryMode::Knn(k));
            table.push_row(vec![
                (*name).to_owned(),
                q.to_string(),
                f2(range.accessed_percent),
                f2(knn.accessed_percent),
                ms(range.total_time()),
                ms(knn.total_time()),
                format!("τ={tau}, k={k}"),
            ]);
        }
    }
    table.push_note(
        "expected: q=2 best or tied on shallow data (DBLP), higher q only helps when deep structure dominates; factor 4(q−1)+1 dilutes the bound as q grows",
    );
    table
}

fn q_salt(name: &str) -> u64 {
    name.bytes().fold(0xa1u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    })
}

/// Ablation B: bound mode — plain ⌈BDist/5⌉ vs positional propt vs
/// positional stacked with the histogram filter.
pub fn bound_mode_ablation(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation-bound",
        "Ablation: lower-bound mode (synthetic range queries)",
        &["mode", "accessed %", "result %", "filter ms", "refine ms"],
    );
    let forest = synthetic(scale);
    let queries = sample_queries(&forest, scale, 0xb0);
    let (_, tau) = estimate_range_radius(&forest, scale, 0xb0);

    let plain_engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Plain),
    );
    let plain = run_workload(&plain_engine, &queries, QueryMode::Range(tau));
    drop(plain_engine);

    let positional_engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let positional = run_workload(&positional_engine, &queries, QueryMode::Range(tau));
    drop(positional_engine);

    let stacked_engine = SearchEngine::new(
        &forest,
        MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        },
    );
    let stacked = run_workload(&stacked_engine, &queries, QueryMode::Range(tau));

    for summary in [&plain, &positional, &stacked] {
        table.push_row(vec![
            summary.name.to_owned(),
            f2(summary.accessed_percent),
            f2(summary.result_percent),
            ms(summary.filter_time),
            ms(summary.refine_time),
        ]);
    }
    table.push_note(format!(
        "τ={tau}; expected: positional ≤ plain in accesses at slightly higher filter cost; stacking Histo on top should add little once binary branches filter"
    ));
    table
}

/// Ablation C: scalability — index build time and per-query cost as the
/// dataset grows (the paper's "massive datasets" claim, quantified).
pub fn scalability_ablation(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation-scale",
        "Ablation: dataset-size scaling (synthetic, k-NN k=5)",
        &[
            "trees",
            "build ms",
            "build ms (4 threads)",
            "knn %",
            "knn ms",
            "seq ms",
        ],
    );
    for factor in [1usize, 2, 4] {
        let mut sized = *scale;
        sized.dataset_size = scale.dataset_size * factor;
        let forest = synthetic(&sized);
        let queries = sample_queries(&forest, scale, 0x5ca1e);

        let build_start = std::time::Instant::now();
        let index = treesim_core::InvertedFileIndex::build(&forest, 2);
        let build_serial = build_start.elapsed();
        let build_start = std::time::Instant::now();
        let _ = treesim_core::InvertedFileIndex::build_parallel(&forest, 2, 4);
        let build_parallel = build_start.elapsed();

        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::from_index(&index, BiBranchMode::Positional),
        );
        let knn = run_workload(&engine, &queries, QueryMode::Knn(5));
        drop(engine);
        let sequential = SearchEngine::new(&forest, treesim_search::NoFilter::build(&forest));
        let seq = run_workload(&sequential, &queries, QueryMode::Knn(5));

        table.push_row(vec![
            forest.len().to_string(),
            ms(build_serial),
            ms(build_parallel),
            f2(knn.accessed_percent),
            ms(knn.total_time()),
            ms(seq.total_time()),
        ]);
    }
    table.push_note(
        "expected: build time linear in total nodes; accessed % roughly flat; sequential per-query time linear in dataset size",
    );
    table
}

/// Ablation D: the staged bound cascade — per-stage candidate funnel and
/// batch thread scaling.
///
/// Quantifies the tentpole claim: with the cascade, the expensive `propt`
/// binary search runs only for candidates the O(1) size difference and the
/// `⌈BDist/5⌉` merge could not prune, so final-stage bound computations are
/// **strictly fewer** than the dataset size (the pre-cascade engine computed
/// `propt` for every tree on every query) while results stay identical.
pub fn cascade_ablation(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation-cascade",
        "Ablation: staged bound cascade (synthetic, positional q=2)",
        &["workload", "stage", "avg bounds", "avg pruned", "ms"],
    );
    let forest = synthetic(scale);
    let query_ids = sample_queries(&forest, scale, 0xca5c);
    let (_, tau) = estimate_range_radius(&forest, scale, 0xca5c);
    let k = scale.knn_k();
    let engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );

    let knn = run_workload(&engine, &query_ids, QueryMode::Knn(k));
    let range = run_workload(&engine, &query_ids, QueryMode::Range(tau));
    for (workload, summary) in [
        (format!("knn k={k}"), &knn),
        (format!("range τ={tau}"), &range),
    ] {
        for stage in &summary.stages {
            table.push_row(vec![
                workload.clone(),
                stage.name.to_owned(),
                f2(stage.avg_evaluated),
                f2(stage.avg_pruned),
                ms(stage.avg_time),
            ]);
        }
        // The same funnel, rendered by AveragedStage's Display impl (the
        // format the CLI prints) so table and CLI reports stay in sync.
        table.push_note(format!(
            "{workload}: {}",
            summary
                .stages
                .iter()
                .map(|stage| stage.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }

    // Batch scaling: identical per-query work, wall-clock divided across
    // the pool.
    let queries: Vec<&treesim_tree::Tree> = query_ids.iter().map(|&id| forest.tree(id)).collect();
    for threads in [1usize, 2, 4] {
        let start = std::time::Instant::now();
        let results = engine.knn_batch_threads(&queries, k, threads);
        let wall = start.elapsed();
        table.push_row(vec![
            format!("knn batch ×{threads}"),
            "all".to_owned(),
            f2(results
                .iter()
                .map(|(_, s)| s.final_stage_evaluated() as f64)
                .sum::<f64>()
                / queries.len().max(1) as f64),
            "-".to_owned(),
            ms(wall),
        ]);
    }

    table.push_note(format!(
        "dataset = {} trees; final-stage (propt) bounds per query must stay below the dataset size — the pre-cascade engine computed propt for all {} trees on every query; batch rows report total wall-clock for {} queries across {} available core(s) (wall-clock only drops with >1 core; per-query results are identical at every thread count)",
        forest.len(),
        forest.len(),
        queries.len(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    table
}

/// Ablation G: the dense cascade kernels vs the sparse originals.
///
/// Micro-benchmarks the two `BDist` kernel paths (the sparse SoA merge and
/// the arena's dense lookup the hot path runs) and the two stage −1
/// postings merges (k-way heap vs dense scatter), on the same query ×
/// dataset sweep — asserting bit-identical checksums across every
/// variant. The engine rows then report the per-stage µs the batched
/// arena-order sweeps actually achieve end to end. (The id is historical:
/// an explicitly chunked 8-lane variant measured within noise of the
/// dense kernel and was removed.)
pub fn simd_kernel_ablation(scale: &Scale) -> Table {
    use std::hint::black_box;
    use treesim_core::{DenseQuery, InvertedFileIndex, VectorArena};

    let mut table = Table::new(
        "ablation-simd",
        "Ablation: dense kernels vs sparse originals (synthetic, q=2)",
        &["kernel", "calls", "total µs", "checksum"],
    );
    let forest = synthetic(scale);
    let index = InvertedFileIndex::build(&forest, 2);
    let arena = VectorArena::from_index(&index);
    let vectors = index.positional_vectors();
    let query_ids = sample_queries(&forest, scale, 0x51d);
    // Query artifacts are built outside the timed loops, as the engine's
    // prepare_query does.
    let dense_queries: Vec<DenseQuery> = query_ids
        .iter()
        .map(|&id| {
            let vector = &vectors[id.index()];
            DenseQuery::new(
                index.vocab().len(),
                vector.iter_counts(),
                u64::from(vector.tree_size()),
            )
        })
        .collect();
    let calls = query_ids.len() * arena.len();

    let mut time_sweep = |name: &str, kernel: &mut dyn FnMut(usize, u32) -> u64| -> u64 {
        let tick = std::time::Instant::now();
        let mut checksum = 0u64;
        for qi in 0..query_ids.len() {
            for raw in 0..arena.len() as u32 {
                checksum = checksum.wrapping_add(black_box(kernel(qi, raw)));
            }
        }
        let elapsed = tick.elapsed();
        table.push_row(vec![
            name.to_owned(),
            calls.to_string(),
            f2(elapsed.as_secs_f64() * 1e6),
            checksum.to_string(),
        ]);
        checksum
    };

    let sparse = time_sweep("bdist sparse SoA merge", &mut |qi, raw| {
        vectors[query_ids[qi].index()].bdist(&vectors[raw as usize])
    });
    let dense = time_sweep("bdist arena dense lookup", &mut |qi, raw| {
        arena.bdist(raw, &dense_queries[qi])
    });
    assert_eq!(sparse, dense, "dense lookup kernel diverged");

    // The stage −1 postings merge: k-way heap (the sparse original) vs the
    // dense scatter that replaced it, over the same per-query run sets.
    let runs_for = |qi: usize| {
        vectors[query_ids[qi].index()]
            .iter_counts()
            .map(|(branch, count)| {
                (
                    count,
                    index
                        .postings(branch)
                        .iter()
                        .map(|posting| (posting.tree, posting.count())),
                )
            })
            .collect::<Vec<(u32, _)>>()
    };
    let merge_checksum = |merged: &[(treesim_tree::TreeId, u64)]| -> u64 {
        merged
            .iter()
            .map(|&(tree, mass)| mass.wrapping_mul(u64::from(tree.0) + 1))
            .fold(0u64, u64::wrapping_add)
    };
    let tick = std::time::Instant::now();
    let mut heap_sum = 0u64;
    for qi in 0..query_ids.len() {
        let merged = treesim_core::merge_shared_mass_sparse(black_box(runs_for(qi)));
        heap_sum = heap_sum.wrapping_add(merge_checksum(&merged));
    }
    let heap_time = tick.elapsed();
    table.push_row(vec![
        "postings merge k-way heap".to_owned(),
        query_ids.len().to_string(),
        f2(heap_time.as_secs_f64() * 1e6),
        heap_sum.to_string(),
    ]);
    let tick = std::time::Instant::now();
    let mut scatter_sum = 0u64;
    for qi in 0..query_ids.len() {
        let merged = treesim_core::merge_shared_mass(arena.len(), black_box(runs_for(qi)));
        scatter_sum = scatter_sum.wrapping_add(merge_checksum(&merged));
    }
    let scatter_time = tick.elapsed();
    table.push_row(vec![
        "postings merge dense scatter".to_owned(),
        query_ids.len().to_string(),
        f2(scatter_time.as_secs_f64() * 1e6),
        scatter_sum.to_string(),
    ]);
    assert_eq!(heap_sum, scatter_sum, "scatter merge diverged");

    // End to end: the per-stage µs the batched arena-order sweeps achieve
    // through the full cascade (the numbers the kernel deltas must move).
    let engine = SearchEngine::new(&forest, PostingsFilter::build(&forest, 2));
    let (_, tau) = estimate_range_radius(&forest, scale, 0x51d);
    let k = scale.knn_k();
    let knn = run_workload(&engine, &query_ids, QueryMode::Knn(k));
    let range = run_workload(&engine, &query_ids, QueryMode::Range(tau));
    for (workload, summary) in [
        (format!("knn k={k}"), &knn),
        (format!("range τ={tau}"), &range),
    ] {
        for stage in &summary.stages {
            table.push_row(vec![
                format!("stage {} ({workload})", stage.name),
                f2(stage.avg_evaluated),
                f2(stage.avg_time.as_secs_f64() * 1e6),
                "-".to_owned(),
            ]);
        }
        table.push_note(format!(
            "{workload} per-stage µs: {}",
            summary
                .stages
                .iter()
                .map(|stage| format!("{} {:.2}", stage.name, stage.avg_time.as_secs_f64() * 1e6))
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    table.push_note(
        "all kernel variants are asserted bit-identical (equal checksums); merge rows time one whole k-way merge per query",
    );
    table
}

/// One table row per cascade stage of `summary`.
fn push_funnel_rows(table: &mut Table, engine: &str, workload: &str, summary: &MethodSummary) {
    for stage in &summary.stages {
        table.push_row(vec![
            engine.to_owned(),
            workload.to_owned(),
            stage.name.to_owned(),
            f2(stage.avg_evaluated),
            f2(stage.avg_pruned),
            ms(stage.avg_time),
        ]);
    }
}

/// Ablation E: the inverted-list stage −1 candidate generator, and shard
/// scaling.
///
/// Side-by-side funnels of the plain positional cascade (size → bdist →
/// propt) and the postings-fronted cascade (postings → size → bdist →
/// propt) on the same workload. Because the stage −1 bound equals the
/// exact BDist bound and runs *first*, every candidate it prunes never
/// reaches the `bdist` merge: `bdist` avg bounds must not exceed the
/// plain cascade's, with identical results. The shard rows then answer
/// the same k-NN workload through [`ShardedEngine`] at S ∈ {1, 2, 4},
/// reporting wall-clock for the whole query set (per-query work is
/// identical; only wall-clock drops with more cores).
pub fn postings_ablation(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation-postings",
        "Ablation: inverted-list stage -1 (postings) and shard scaling",
        &[
            "engine",
            "workload",
            "stage",
            "avg bounds",
            "avg pruned",
            "ms",
        ],
    );
    let forest = synthetic(scale);
    let query_ids = sample_queries(&forest, scale, 0x9057);
    let (_, tau) = estimate_range_radius(&forest, scale, 0x9057);
    let k = scale.knn_k();

    let bibranch_engine = SearchEngine::new(
        &forest,
        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
    );
    let postings_engine = SearchEngine::new(&forest, PostingsFilter::build(&forest, 2));
    for (workload, mode) in [
        (format!("knn k={k}"), QueryMode::Knn(k)),
        (format!("range τ={tau}"), QueryMode::Range(tau)),
    ] {
        let plain = run_workload(&bibranch_engine, &query_ids, mode);
        let fronted = run_workload(&postings_engine, &query_ids, mode);
        push_funnel_rows(&mut table, "BiBranch", &workload, &plain);
        push_funnel_rows(&mut table, "Postings", &workload, &fronted);
    }

    // Shard scaling: identical answers, wall-clock split across workers.
    let queries: Vec<&treesim_tree::Tree> = query_ids.iter().map(|&id| forest.tree(id)).collect();
    let reference: Vec<_> = queries
        .iter()
        .map(|q| postings_engine.knn(q, k).0)
        .collect();
    for shards in [1usize, 2, 4] {
        let sharded_forest = ShardedForest::split(&forest, shards);
        let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
        let start = std::time::Instant::now();
        let answers: Vec<_> = queries.iter().map(|q| sharded.knn(q, k).0).collect();
        let wall = start.elapsed();
        assert_eq!(answers, reference, "sharded results diverged at S={shards}");
        table.push_row(vec![
            format!("sharded ×{shards}"),
            format!("knn k={k}"),
            "all".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
            ms(wall),
        ]);
    }

    table.push_note(format!(
        "dataset = {} trees; stage -1 prunes before the ⌈BDist/5⌉ merge, so the Postings engine's bdist avg bounds must not exceed BiBranch's; sharded rows are total wall-clock for {} k-NN queries, results identical at every S ({} core(s) available)",
        forest.len(),
        queries.len(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_ablation_smoke() {
        let table = q_level_ablation(&Scale::smoke());
        assert_eq!(table.rows.len(), 6);
    }

    #[test]
    fn scalability_ablation_smoke() {
        let table = scalability_ablation(&Scale::smoke());
        assert_eq!(table.rows.len(), 3);
        // Dataset sizes multiply.
        let n0: usize = table.rows[0][0].parse().unwrap();
        let n2: usize = table.rows[2][0].parse().unwrap();
        assert_eq!(n2, 4 * n0);
    }

    #[test]
    fn bound_ablation_smoke() {
        let table = bound_mode_ablation(&Scale::smoke());
        assert_eq!(table.rows.len(), 3);
        // Positional must never access more than plain.
        let plain: f64 = table.rows[0][1].parse().unwrap();
        let positional: f64 = table.rows[1][1].parse().unwrap();
        let stacked: f64 = table.rows[2][1].parse().unwrap();
        assert!(positional <= plain + 1e-9);
        assert!(stacked <= positional + 1e-9);
    }

    #[test]
    fn postings_ablation_demonstrates_bdist_savings() {
        let table = postings_ablation(&Scale::smoke());
        // 2 workloads × (3 BiBranch stages + 4 Postings stages) + 3 shard rows.
        assert_eq!(table.rows.len(), 17);
        // Range workload (deterministic sweep): the stage −1 generator
        // prunes before the ⌈BDist/5⌉ merge, so the Postings engine
        // evaluates strictly fewer bdist bounds than the plain cascade.
        let bdist = |engine: &str, workload_prefix: &str| -> f64 {
            table
                .rows
                .iter()
                .find(|r| r[0] == engine && r[1].starts_with(workload_prefix) && r[2] == "bdist")
                .expect("bdist row present")[3]
                .parse()
                .unwrap()
        };
        let plain = bdist("BiBranch", "range");
        let fronted = bdist("Postings", "range");
        assert!(
            fronted < plain,
            "postings saved no bdist work: {fronted} vs {plain}"
        );
        // The shard rows cover S = 1, 2, 4 (result equality is asserted
        // inside postings_ablation itself).
        let shard_rows = table
            .rows
            .iter()
            .filter(|r| r[0].starts_with("sharded"))
            .count();
        assert_eq!(shard_rows, 3);
    }

    #[test]
    fn simd_ablation_kernels_are_bit_identical() {
        let table = simd_kernel_ablation(&Scale::smoke());
        // 2 bdist kernel rows + 2 merge rows + 2 workloads × 4 postings
        // cascade stages.
        assert_eq!(table.rows.len(), 12);
        // Bit-identity across both bdist kernel paths: equal checksums
        // (the function itself asserts; the table must show it too).
        assert_eq!(table.rows[0][3], table.rows[1][3]);
        // …and across the two postings merges.
        assert_eq!(table.rows[2][3], table.rows[3][3]);
        // The per-stage µs deltas ride in the notes, plus the identity note.
        assert!(table.notes.iter().any(|n| n.contains("per-stage µs")));
        assert!(table.notes.iter().any(|n| n.contains("bit-identical")));
    }

    #[test]
    fn cascade_ablation_demonstrates_savings() {
        let scale = Scale::smoke();
        let table = cascade_ablation(&scale);
        // 3 cascade stages × 2 workloads + 3 batch rows.
        assert_eq!(table.rows.len(), 9);
        // The funnel narrows: stage s+1 never evaluates more bounds than
        // stage s, and the final (propt) stage evaluates strictly fewer
        // than the size stage did — i.e. strictly fewer propt computations
        // than the pre-cascade engine, which bounded every tree.
        for workload in 0..2 {
            let base = workload * 3;
            let evaluated: Vec<f64> = (base..base + 3)
                .map(|r| table.rows[r][2].parse().unwrap())
                .collect();
            assert!(evaluated[1] <= evaluated[0]);
            assert!(evaluated[2] <= evaluated[1]);
            assert!(
                evaluated[2] < evaluated[0],
                "cascade saved no propt work: {evaluated:?}"
            );
        }
    }
}
