//! Sharded forest execution: partition the dataset into S shards, each
//! owning its own filter index (for [`PostingsFilter`], its own inverted
//! file index and postings stage), answer each query on every shard
//! concurrently via scoped worker threads, and merge the per-shard
//! answers.
//!
//! # Result equivalence
//!
//! Shards are **contiguous, ascending tree-id ranges** of the original
//! forest, so a shard-local id plus the shard's base offset is the
//! original [`TreeId`]. For k-NN every shard returns its own top-k
//! (computed by the same [`SearchEngine`] core as the single-engine
//! path); the global top-k is a subset of that union, and sorting the
//! union by `(distance, global id)` before truncating to `k` reproduces
//! the single-engine smallest-id tie-breaking exactly. Range queries
//! simply union the per-shard result sets. A proptest pins down that
//! `S = 1` and `S = 4` return identical results.
//!
//! # Observability
//!
//! Per-shard [`SearchStats`] merge by *summing* the funnels: each shard
//! runs the same cascade (stage names are asserted to match), so stage
//! `s`'s merged `evaluated`/`pruned` are the sums over shards and the
//! telescoping invariant (survivors of stage `s` = evaluated of stage
//! `s + 1`) survives the merge. The merged stats also sum the per-shard
//! filter and refine times, so `shard.*.filter.us` and
//! `shard.*.refine.us` can exceed the query's wall clock `shard.*.us`.
//! Merged queries flush under the `shard.knn.*` / `shard.range.*` metric
//! prefixes, deposit [`QueryKind::ShardedKnn`]/[`QueryKind::ShardedRange`]
//! flight records, and each worker runs under a `shard.worker` span with
//! the `shard.workers.active` gauge tracking live workers.
//!
//! [`PostingsFilter`]: crate::filter::PostingsFilter

use treesim_edit::UnitCost;
use treesim_obs::QueryKind;
use treesim_tree::{Forest, Tree, TreeId};

use crate::engine::{observe, Neighbor, QueryObserver, SearchEngine};
use crate::explain::{ExplainObserver, ExplainReport};
use crate::filter::Filter;
use crate::stats::SearchStats;

/// A forest partitioned into contiguous shards, each a self-contained
/// [`Forest`] sharing the original label interner.
#[derive(Debug)]
pub struct ShardedForest {
    shards: Vec<Forest>,
    /// `bases[s]` is the original id of shard `s`'s first tree.
    bases: Vec<u32>,
    total: usize,
}

impl ShardedForest {
    /// Splits `forest` into (up to) `shard_count` contiguous shards of
    /// near-equal size. The count is clamped to `[1, forest.len()]` (an
    /// empty forest yields one empty shard so engines can still be
    /// built).
    pub fn split(forest: &Forest, shard_count: usize) -> Self {
        let shard_count = shard_count.clamp(1, forest.len().max(1));
        let chunk = forest.len().div_ceil(shard_count).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut bases = Vec::with_capacity(shard_count);
        let mut base = 0u32;
        let trees: Vec<&Tree> = forest.iter().map(|(_, tree)| tree).collect();
        for chunk_trees in trees.chunks(chunk) {
            let mut shard = Forest::new();
            *shard.interner_mut() = forest.interner().clone();
            for tree in chunk_trees {
                shard.push((*tree).clone());
            }
            bases.push(base);
            base += chunk_trees.len() as u32;
            shards.push(shard);
        }
        if shards.is_empty() {
            let mut shard = Forest::new();
            *shard.interner_mut() = forest.interner().clone();
            shards.push(shard);
            bases.push(0);
        }
        ShardedForest {
            shards,
            bases,
            total: forest.len(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total trees across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the (whole) forest is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The shard forests, in ascending id order.
    pub fn shards(&self) -> &[Forest] {
        &self.shards
    }

    /// Maps a shard-local id back to the original forest's id.
    pub fn global_id(&self, shard: usize, local: TreeId) -> TreeId {
        TreeId(self.bases[shard] + local.0)
    }
}

/// A sharded query and its parameter.
#[derive(Debug, Clone, Copy)]
enum Ask {
    /// k nearest neighbors.
    Knn(usize),
    /// Every tree within edit distance τ.
    Range(u32),
}

/// A search engine running one [`SearchEngine`] per shard on scoped
/// worker threads and merging the per-shard answers. Results are
/// bit-identical to a single engine over the unsplit forest with the
/// same filter (see the module docs for why).
pub struct ShardedEngine<'a, F: Filter> {
    engines: Vec<SearchEngine<'a, F, UnitCost>>,
    bases: Vec<u32>,
    total: usize,
}

impl<'a, F: Filter + Send + Sync> ShardedEngine<'a, F> {
    /// Builds one engine per shard, constructing each shard's filter
    /// index with `build` (e.g. `|shard| PostingsFilter::build(shard, 2)`)
    /// on its own scoped thread.
    pub fn new(forest: &'a ShardedForest, build: impl Fn(&Forest) -> F + Sync) -> Self {
        treesim_obs::gauge!("shard.count").set(forest.shard_count() as i64);
        let engines: Vec<SearchEngine<'a, F, UnitCost>> = std::thread::scope(|scope| {
            let build = &build;
            let handles: Vec<_> = forest
                .shards()
                .iter()
                .map(|shard| scope.spawn(move || SearchEngine::new(shard, build(shard))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build thread panicked"))
                .collect()
        });
        ShardedEngine {
            engines,
            bases: forest.bases.clone(),
            total: forest.len(),
        }
    }

    /// Number of shards (= worker threads per query).
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Total trees across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the sharded dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The per-shard engines, in ascending id order.
    pub fn engines(&self) -> &[SearchEngine<'a, F, UnitCost>] {
        &self.engines
    }

    /// k-nearest neighbors over all shards; same contract as
    /// [`SearchEngine::knn`] on the unsplit forest.
    pub fn knn(&self, query: &Tree, k: usize) -> (Vec<Neighbor>, SearchStats) {
        let (results, stats, _) = self.merged(query, Ask::Knn(k), || ());
        (results, stats)
    }

    /// Range query over all shards; same contract as
    /// [`SearchEngine::range`] on the unsplit forest.
    pub fn range(&self, query: &Tree, tau: u32) -> (Vec<Neighbor>, SearchStats) {
        let (results, stats, _) = self.merged(query, Ask::Range(tau), || ());
        (results, stats)
    }

    /// EXPLAIN for a sharded k-NN query: replays every shard's core with
    /// a recording observer and stitches the per-shard candidate rows
    /// (remapped to global ids) into one report whose verdicts telescope
    /// to the merged stats funnel.
    pub fn explain_knn(&self, query: &Tree, k: usize) -> ExplainReport {
        // Own the trace so its id is still current when the report is
        // assembled (the replay's own start is then inert).
        let trace = treesim_obs::trace::start_trace();
        let trace_id = trace.id();
        let (results, stats, observers) = self.merged(query, Ask::Knn(k), ExplainObserver::new);
        let candidates = self.merge_candidates(observers, &results, |_, _| 0);
        ExplainReport {
            kind: "knn",
            param: k as u64,
            stats,
            results,
            stage_names: self.stage_names(),
            candidates,
            trace_id,
        }
    }

    /// EXPLAIN for a sharded range query; see
    /// [`ShardedEngine::explain_knn`] and
    /// [`SearchEngine::explain_range`] for the range-predicate bound
    /// recomputation.
    pub fn explain_range(&self, query: &Tree, tau: u32) -> ExplainReport {
        // Trace ownership as in `explain_knn`.
        let trace = treesim_obs::trace::start_trace();
        let trace_id = trace.id();
        let (results, stats, observers) = self.merged(query, Ask::Range(tau), ExplainObserver::new);
        // Recompute final-stage bounds for predicate-pruned rows, per
        // shard (display only — the replay stats are already final). The
        // engines are unit-cost, so no bound scaling applies.
        let artifacts: Vec<F::Query> = self
            .engines
            .iter()
            .map(|engine| engine.filter().prepare_query(query))
            .collect();
        let last_stage = self.stages() - 1;
        let candidates = self.merge_candidates(observers, &results, |shard, local| {
            self.engines[shard]
                .filter()
                .stage_bound(&artifacts[shard], local, last_stage)
        });
        ExplainReport {
            kind: "range",
            param: u64::from(tau),
            stats,
            results,
            stage_names: self.stage_names(),
            candidates,
            trace_id,
        }
    }

    /// Runs `run` once per shard on scoped worker threads and returns the
    /// per-shard outputs in shard order.
    fn run_shards<R, Run>(&self, run: Run) -> Vec<R>
    where
        R: Send,
        Run: Fn(&SearchEngine<'a, F, UnitCost>) -> R + Sync,
    {
        let active = treesim_obs::gauge!("shard.workers.active");
        // Carry the caller's trace (started by the merged query's
        // emitter) onto the shard workers: each worker's spans land under
        // the query span with the 1-based shard index as the Chrome-trace
        // `pid`.
        let trace_handle = treesim_obs::trace::current_handle();
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = self
                .engines
                .iter()
                .enumerate()
                .map(|(worker, engine)| {
                    let trace_handle = trace_handle.clone();
                    scope.spawn(move || {
                        let _trace = trace_handle.map(|h| h.install(worker as u32 + 1, 0));
                        let _span = treesim_obs::span!(
                            "shard.worker",
                            worker = worker,
                            trees = engine.forest().len()
                        );
                        active.add(1);
                        let out = run(engine);
                        active.sub(1);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker thread panicked"))
                .collect()
        })
    }

    /// The sharded query pipeline under its `shard.knn` / `shard.range`
    /// emission: run `ask` on every shard's core, merge, and keep the best
    /// `k` results of a k-NN query. Each shard returned its own top-k, and
    /// sorting the union by (distance, global id) before truncating
    /// reproduces the single-engine tie-breaking because shard id ranges
    /// are contiguous and ascending; range queries keep the whole union.
    /// Returns the per-shard observers (in shard order) for EXPLAIN.
    fn merged<O>(
        &self,
        query: &Tree,
        ask: Ask,
        make: impl Fn() -> O + Sync,
    ) -> (Vec<Neighbor>, SearchStats, Vec<O>)
    where
        O: QueryObserver + Send,
    {
        let (kind, param, limit) = match ask {
            Ask::Knn(k) => (QueryKind::ShardedKnn, k as u64, k),
            Ask::Range(tau) => (QueryKind::ShardedRange, u64::from(tau), usize::MAX),
        };
        let mut observers = Vec::new();
        let shards = Some(self.engines.len());
        let (results, stats) = observe(kind, param, self.total, shards, || {
            let per_shard = self.run_shards(|engine| {
                let mut observer = make();
                let (results, stats) = match ask {
                    Ask::Knn(k) => engine.core().knn(query, k, &mut observer),
                    Ask::Range(tau) => engine.core().range(query, tau, &mut observer),
                };
                (results, stats, observer)
            });
            let _merge_span = treesim_obs::trace::span("shard.merge");
            let (mut results, mut stats, shard_observers) = self.merge(per_shard);
            results.sort_unstable_by_key(|n| (n.distance, n.tree));
            results.truncate(limit);
            stats.results = results.len();
            observers = shard_observers;
            (results, stats)
        });
        (results, stats, observers)
    }

    /// Merges per-shard outputs: remaps neighbor ids to global and sums
    /// the per-shard work ([`SearchStats::add_work`]; shards run identical
    /// cascades, so the telescoping invariant survives the sum). The
    /// merged `dataset_size` is the whole forest and `results` is left for
    /// the caller to take from the merged result set.
    fn merge<O>(
        &self,
        per_shard: Vec<(Vec<Neighbor>, SearchStats, O)>,
    ) -> (Vec<Neighbor>, SearchStats, Vec<O>) {
        let mut stats = SearchStats {
            dataset_size: self.total,
            threads: self.engines.len().max(1),
            ..Default::default()
        };
        let mut results = Vec::new();
        let mut observers = Vec::with_capacity(per_shard.len());
        for (shard, (shard_results, shard_stats, observer)) in per_shard.into_iter().enumerate() {
            let base = self.bases[shard];
            results.extend(shard_results.into_iter().map(|n| Neighbor {
                tree: TreeId(base + n.tree.0),
                distance: n.distance,
            }));
            stats.add_work(&shard_stats);
            observers.push(observer);
        }
        (results, stats, observers)
    }

    /// Stitches per-shard EXPLAIN rows into one globally-id'd candidate
    /// list. `range_bound(shard, local_id)` resolves predicate-pruned
    /// bounds (pass a constant for k-NN reports, which have none).
    fn merge_candidates(
        &self,
        observers: Vec<ExplainObserver>,
        results: &[Neighbor],
        range_bound: impl Fn(usize, TreeId) -> u64,
    ) -> Vec<crate::explain::CandidateExplain> {
        let mut candidates = Vec::new();
        for (shard, observer) in observers.into_iter().enumerate() {
            let base = self.bases[shard];
            let shard_len = self.engines[shard].forest().len() as u32;
            // Result membership is judged against the *merged* result
            // set, localized to this shard's id range.
            let local_results: Vec<Neighbor> = results
                .iter()
                .filter(|n| n.tree.0 >= base && n.tree.0 < base + shard_len)
                .map(|n| Neighbor {
                    tree: TreeId(n.tree.0 - base),
                    distance: n.distance,
                })
                .collect();
            let mut rows = observer.into_candidates(&local_results, |id| range_bound(shard, id));
            for row in &mut rows {
                row.tree = TreeId(row.tree.0 + base);
            }
            candidates.extend(rows);
        }
        // Per-shard rows are ascending and bases ascend, so this is
        // already sorted; keep the sort as a cheap invariant guard.
        candidates.sort_by_key(|c| c.tree);
        candidates
    }

    /// Cascade depth (identical across shards).
    fn stages(&self) -> usize {
        self.engines
            .first()
            .map_or(1, |engine| engine.filter().stages())
    }

    /// Cascade stage names, coarsest first (identical across shards).
    fn stage_names(&self) -> Vec<&'static str> {
        self.engines.first().map_or_else(Vec::new, |engine| {
            (0..engine.filter().stages())
                .map(|s| engine.filter().stage_name(s))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PostingsFilter;
    use crate::SearchEngine;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
            "a(b(c(d)) b e f)",
            "q(r(s))",
            "a(b c d)",
            "x(y(z) w)",
            "a(a(a) a)",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn single_engine(forest: &Forest) -> SearchEngine<'_, PostingsFilter> {
        SearchEngine::new(forest, PostingsFilter::build(forest, 2))
    }

    #[test]
    fn split_covers_the_forest_contiguously() {
        let forest = forest();
        for shard_count in [1usize, 2, 3, 4, 10, 100] {
            let sharded = ShardedForest::split(&forest, shard_count);
            assert_eq!(sharded.len(), forest.len());
            assert!(sharded.shard_count() <= shard_count.max(1));
            let mut seen = 0usize;
            for (shard, part) in sharded.shards().iter().enumerate() {
                for (local, tree) in part.iter() {
                    let global = sharded.global_id(shard, local);
                    assert_eq!(global, TreeId(seen as u32));
                    assert_eq!(tree.len(), forest.tree(global).len());
                    seen += 1;
                }
            }
            assert_eq!(seen, forest.len());
        }
    }

    #[test]
    fn sharded_knn_matches_single_engine() {
        let forest = forest();
        let single = single_engine(&forest);
        for shard_count in [1usize, 2, 4] {
            let sharded_forest = ShardedForest::split(&forest, shard_count);
            let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
            assert_eq!(sharded.shard_count(), shard_count);
            for (_, query) in forest.iter() {
                for k in [1usize, 3, forest.len(), forest.len() + 5] {
                    let (want, _) = single.knn(query, k);
                    let (got, stats) = sharded.knn(query, k);
                    assert_eq!(got, want, "S={shard_count} k={k}");
                    assert_eq!(stats.dataset_size, forest.len());
                    assert_eq!(stats.threads, shard_count);
                }
            }
        }
    }

    #[test]
    fn sharded_range_matches_single_engine() {
        let forest = forest();
        let single = single_engine(&forest);
        for shard_count in [1usize, 3, 4] {
            let sharded_forest = ShardedForest::split(&forest, shard_count);
            let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
            for (_, query) in forest.iter() {
                for tau in 0..=5u32 {
                    let (want, _) = single.range(query, tau);
                    let (got, stats) = sharded.range(query, tau);
                    assert_eq!(got, want, "S={shard_count} tau={tau}");
                    assert_eq!(stats.results, want.len());
                }
            }
        }
    }

    #[test]
    fn merged_stats_telescope_and_account_for_every_tree() {
        let forest = forest();
        let sharded_forest = ShardedForest::split(&forest, 3);
        let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
        for (_, query) in forest.iter() {
            let (_, stats) = sharded.range(query, 2);
            assert_eq!(
                stats.stages.iter().map(|s| s.name).collect::<Vec<_>>(),
                vec!["postings", "size", "bdist", "propt"]
            );
            assert_eq!(stats.stages[0].evaluated, forest.len());
            for pair in stats.stages.windows(2) {
                assert_eq!(pair[0].survivors(), pair[1].evaluated);
            }
            assert_eq!(stats.stages.last().unwrap().survivors(), stats.refined);

            let (_, stats) = sharded.knn(query, 3);
            assert_eq!(stats.stages[0].evaluated, forest.len());
            let pruned: usize = stats.stages.iter().map(|s| s.pruned).sum();
            assert_eq!(pruned + stats.refined, forest.len());
        }
    }

    #[test]
    fn sharded_explain_telescopes_and_matches_query() {
        let forest = forest();
        let sharded_forest = ShardedForest::split(&forest, 4);
        let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
        for (_, query) in forest.iter().take(4) {
            let report = sharded.explain_knn(query, 3);
            let (plain, _) = sharded.knn(query, 3);
            assert_eq!(report.results, plain);
            report.check_consistency().unwrap();
            assert_eq!(report.candidates.len(), forest.len());
            for pair in report.candidates.windows(2) {
                assert!(pair[0].tree < pair[1].tree, "rows out of order");
            }

            let report = sharded.explain_range(query, 2);
            let (plain, _) = sharded.range(query, 2);
            assert_eq!(report.results, plain);
            report.check_consistency().unwrap();
            assert_eq!(report.stage_names[0], "postings");
        }
    }

    #[test]
    fn degenerate_forests() {
        let empty = Forest::new();
        let sharded_forest = ShardedForest::split(&empty, 4);
        assert!(sharded_forest.is_empty());
        assert_eq!(sharded_forest.shard_count(), 1);
        let sharded = ShardedEngine::new(&sharded_forest, |s| PostingsFilter::build(s, 2));
        assert!(sharded.is_empty());
        let mut one = Forest::new();
        let query = {
            one.parse_bracket("a(b)").unwrap();
            one.tree(TreeId(0)).clone()
        };
        let (results, stats) = sharded.knn(&query, 3);
        assert!(results.is_empty());
        assert_eq!(stats.dataset_size, 0);

        let sharded_one = ShardedForest::split(&one, 5);
        assert_eq!(sharded_one.shard_count(), 1);
        let engine = ShardedEngine::new(&sharded_one, |s| PostingsFilter::build(s, 2));
        assert_eq!(engine.len(), 1);
        let (results, _) = engine.knn(&query, 1);
        assert_eq!(
            results,
            vec![Neighbor {
                tree: TreeId(0),
                distance: 0
            }]
        );
        let (results, _) = engine.range(&query, 0);
        assert_eq!(results.len(), 1);
    }
}
