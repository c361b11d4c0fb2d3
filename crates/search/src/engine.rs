//! The filter-and-refine similarity search engine (Algorithm 2 and §4.3),
//! with a staged lower-bound cascade and scoped-thread batch execution.
//!
//! * **k-NN** follows the optimal multi-step strategy of Seidl & Kriegel
//!   \[13\], which the paper adopts: process candidates in ascending
//!   lower-bound order, refine with the real Zhang–Shasha distance, and
//!   stop as soon as the next lower bound exceeds the current k-th
//!   distance — completeness is guaranteed by the lower-bound property.
//!   Bounds are evaluated **lazily through the filter's cascade**
//!   ([`Filter::stage_bound`]): every candidate starts with the coarsest
//!   stage (for the positional filter, the O(1) size difference) and only
//!   escalates to the next, more expensive stage when its current bound is
//!   the smallest outstanding one. Candidates pruned by a cheap stage
//!   never pay for `⌈BDist/5⌉` merges or `propt` binary searches.
//! * **Range queries** sweep the cascade stage by stage, discarding at
//!   each stage every candidate whose bound already exceeds `τ`, and
//!   refine only the survivors of the final (sharpest) stage.
//!
//! Both return results **bit-identical** to an exhaustive sequential scan
//! (ties broken by ascending [`TreeId`]); the cascade only changes how
//! much work the filtering step performs. Per-stage candidate counts,
//! prune counts and wall-clock live in [`SearchStats::stages`].
//!
//! Per-tree Zhang–Shasha precomputation ([`TreeInfo`]) is parallelized
//! across scoped threads at engine construction, and the batch entry
//! points ([`SearchEngine::knn_batch`], [`SearchEngine::range_batch`])
//! fan independent queries out over a scoped thread pool.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use treesim_edit::{bounded_zhang_shasha, CostModel, TreeInfo, UnitCost, ZsWorkspace};
use treesim_obs::{recorder, QueryKind};
use treesim_tree::{Forest, Tree, TreeId};

use crate::filter::Filter;
use crate::stats::{kind_name, KindMetrics, SearchStats, StageStats};

/// Per-candidate hooks the EXPLAIN replay taps into. The production path
/// runs with the no-op `()` impl, so the hooks cost nothing there; the
/// query cores call them at exactly the points the per-query
/// [`SearchStats`] counters are bumped, which is what makes EXPLAIN
/// verdicts telescope to the stats funnel.
pub(crate) trait QueryObserver {
    /// A cascade stage computed `bound` (scaled to cost space) for `id`.
    fn on_stage_bound(&mut self, _id: TreeId, _stage: usize, _bound: u64) {}
    /// `id` was eliminated at `stage`; `bound` is the value that did it.
    fn on_pruned(&mut self, _id: TreeId, _stage: usize, _bound: u64) {}
    /// The final-stage range predicate examined `id`.
    fn on_range_checked(&mut self, _id: TreeId, _stage: usize) {}
    /// The final-stage range predicate certified `EDist > τ` for `id`.
    fn on_range_pruned(&mut self, _id: TreeId, _stage: usize) {}
    /// `id` was refined to exact distance `distance`.
    fn on_refined(&mut self, _id: TreeId, _distance: u64) {}
    /// `id` reached refinement but the bounded DP proved its distance
    /// exceeds the live budget `budget` without computing it exactly.
    fn on_refine_cutoff(&mut self, _id: TreeId, _budget: u64) {}
}

/// The production observer: all hooks are no-ops.
impl QueryObserver for () {}

/// The one emitter around a query core call: opens the query's trace
/// and its `<kind>` span (fields `k`/`tau`, `shards` when given, and
/// `dataset`), times the wall clock, runs `core`, then projects the
/// returned [`SearchStats`] into the registry ([`SearchStats::flush`])
/// and the flight recorder ([`SearchStats::flight_record`]).
/// [`SearchEngine`], [`crate::DynamicIndex`] and
/// [`crate::ShardedEngine`] all emit through it.
pub(crate) fn observe(
    kind: QueryKind,
    param: u64,
    dataset: usize,
    shards: Option<usize>,
    core: impl FnOnce() -> (Vec<Neighbor>, SearchStats),
) -> (Vec<Neighbor>, SearchStats) {
    // The trace guard is declared before the span so the span closes
    // (and deposits itself) before the guard finalizes the trace. Inside
    // a batch/sharded/nested query this is inert — the query joins the
    // enclosing trace instead of starting its own.
    let _trace = treesim_obs::trace::start_trace();
    // The capture is live from here on, so the span's fields are always
    // formatted (as `span!` would).
    let name = kind_name(kind);
    let param_key = if name.ends_with("knn") { "k" } else { "tau" };
    let mut fields = vec![(param_key, param.to_string())];
    fields.extend(shards.map(|n| ("shards", n.to_string())));
    fields.push(("dataset", dataset.to_string()));
    let _span = treesim_obs::SpanGuard::enter(name, KindMetrics::of(kind).span_us, fields);
    let wall_start = Instant::now();
    let (results, stats) = core();
    stats.flush(kind);
    recorder::record_query(stats.flight_record(kind, param, &results, wall_start.elapsed()));
    (results, stats)
}

/// Maps a cascade stage name (as reported by [`Filter::stage_name`]) to
/// the `cascade.*` span name used for that stage's node in a query's
/// span tree. Returning `&'static str` keeps trace span names
/// allocation-free; unknown stages fall back to the generic scan name.
pub(crate) fn stage_trace_name(stage: &'static str) -> &'static str {
    match stage {
        "size" => "cascade.size",
        "postings" => "cascade.postings",
        "bdist" => "cascade.bdist",
        "propt" => "cascade.propt",
        "histo" => "cascade.histo",
        _ => "cascade.scan",
    }
}

/// One query answer: a tree and its exact edit distance to the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The matching tree.
    pub tree: TreeId,
    /// Its unit-cost edit distance to the query.
    pub distance: u64,
}

/// Picks a worker count for scoped-thread fan-out: the available
/// parallelism, capped by the number of work items.
fn default_threads(work_items: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(work_items.max(1))
}

/// A similarity search engine over a fixed dataset with a pluggable filter
/// and cost model.
///
/// Filters produce lower bounds in *operation counts*; under a non-unit
/// [`CostModel`] the engine scales them by
/// [`CostModel::min_operation_cost`] (§2.1 of the paper: the approach
/// extends to general costs given a lower bound on per-operation cost).
///
/// # Determinism
///
/// For fixed inputs every query method is fully deterministic: results
/// are sorted by `(distance, tree id)` and k-NN tie-breaking keeps the
/// **smallest tree ids** among equal distances, regardless of filter,
/// cascade shape, or thread count.
pub struct SearchEngine<'a, F: Filter, C: CostModel = UnitCost> {
    forest: &'a Forest,
    filter: F,
    infos: Vec<TreeInfo>,
    cost: C,
}

impl<'a, F: Filter> SearchEngine<'a, F, UnitCost> {
    /// Builds a unit-cost engine: the filter indexes the dataset and the
    /// Zhang–Shasha per-tree tables are precomputed (in parallel).
    pub fn new(forest: &'a Forest, filter: F) -> Self {
        Self::with_cost(forest, filter, UnitCost)
    }
}

impl<'a, F: Filter, C: CostModel> SearchEngine<'a, F, C> {
    /// Builds an engine refining with an arbitrary cost model. The
    /// per-tree [`TreeInfo`] precomputation fans out across all available
    /// cores.
    pub fn with_cost(forest: &'a Forest, filter: F, cost: C) -> Self {
        Self::with_cost_threads(forest, filter, cost, default_threads(forest.len()))
    }

    /// Like [`SearchEngine::with_cost`] with an explicit worker count
    /// (`threads = 1` recovers the fully serial build). The assembled
    /// engine is identical regardless of `threads`.
    pub fn with_cost_threads(forest: &'a Forest, filter: F, cost: C, threads: usize) -> Self {
        let threads = threads.max(1);
        let trees: Vec<&Tree> = forest.iter().map(|(_, t)| t).collect();
        let chunk_size = trees.len().div_ceil(threads).max(1);
        // Parallel precomputation, sequential in-order assembly — same
        // scheme as `InvertedFileIndex::build_parallel`, so `infos[i]`
        // always belongs to `TreeId(i)`.
        let infos: Vec<TreeInfo> = if threads == 1 || trees.len() <= 1 {
            trees.iter().map(|t| TreeInfo::new(t)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = trees
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk.iter().map(|t| TreeInfo::new(t)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("tree-info thread panicked"))
                    .collect()
            })
        };
        SearchEngine {
            forest,
            filter,
            infos,
            cost,
        }
    }

    /// The shared query core over this engine's filter, tables and cost.
    pub(crate) fn core(&self) -> QueryCore<'_, F, C> {
        QueryCore {
            filter: &self.filter,
            infos: &self.infos,
            cost: &self.cost,
        }
    }

    /// The underlying dataset.
    pub fn forest(&self) -> &'a Forest {
        self.forest
    }

    /// The filter in use.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// k-nearest-neighbor query (Algorithm 2). Returns up to `k` neighbors
    /// in ascending distance order — ties broken by **smallest tree id**,
    /// a guarantee the tie-handling tests pin down — and the query
    /// statistics.
    ///
    /// Candidates escalate lazily through the filter's bound cascade: an
    /// escalation heap keyed by `(bound, stage, id)` always advances the
    /// candidate with the smallest outstanding bound, either sharpening
    /// its bound with the next cascade stage or (once fully bounded)
    /// refining it. When the smallest outstanding bound exceeds the
    /// current k-th distance, no remaining candidate — at any stage — can
    /// enter the result, and the search stops. The comparison is strict
    /// (`>`), so candidates whose bound *equals* the current k-th distance
    /// are still refined; dropping them could lose a tied neighbor with a
    /// smaller id.
    pub fn knn(&self, query: &Tree, k: usize) -> (Vec<Neighbor>, SearchStats) {
        self.knn_observed(query, k, &mut ())
    }

    /// The observed k-NN entry point: runs [`QueryCore::knn`] under the
    /// `engine.knn` emission ([`observe`]). The production path passes
    /// `&mut ()`, EXPLAIN passes a recording observer — the algorithm is
    /// byte-for-byte the same either way.
    pub(crate) fn knn_observed<O: QueryObserver>(
        &self,
        query: &Tree,
        k: usize,
        observer: &mut O,
    ) -> (Vec<Neighbor>, SearchStats) {
        observe(QueryKind::Knn, k as u64, self.forest.len(), None, || {
            self.core().knn(query, k, observer)
        })
    }

    /// Range query: all trees within edit distance `tau` of `query`,
    /// ascending by distance (ties by tree id).
    ///
    /// The candidate set is narrowed stage by stage: stage `s` drops every
    /// candidate whose stage-`s` bound already exceeds `τ`, and only the
    /// final-stage survivors are refined. The final stage uses the
    /// filter's sharpest range predicate ([`Filter::prunes_range`], which
    /// for the positional filter adds the Proposition 4.2 test at
    /// `pr = τ` on top of the `propt` bound).
    pub fn range(&self, query: &Tree, tau: u32) -> (Vec<Neighbor>, SearchStats) {
        self.range_observed(query, tau, &mut ())
    }

    /// The observed range entry point, mirroring
    /// [`SearchEngine::knn_observed`]: [`QueryCore::range`] under the
    /// `engine.range` emission.
    pub(crate) fn range_observed<O: QueryObserver>(
        &self,
        query: &Tree,
        tau: u32,
        observer: &mut O,
    ) -> (Vec<Neighbor>, SearchStats) {
        observe(
            QueryKind::Range,
            u64::from(tau),
            self.forest.len(),
            None,
            || self.core().range(query, tau, observer),
        )
    }

    /// Cascade stage names, coarsest first.
    fn stage_names(&self) -> Vec<&'static str> {
        (0..self.filter.stages())
            .map(|s| self.filter.stage_name(s))
            .collect()
    }

    /// EXPLAIN for a k-NN query: replays [`SearchEngine::knn`] through the
    /// same core with a recording observer and returns a per-candidate
    /// report — which stage pruned each dataset tree (and the bound value
    /// that did it), or its refined distance. The report's `stats` and
    /// `results` are identical to a production `knn` call, and the
    /// per-candidate verdicts telescope exactly to the stats funnel
    /// ([`crate::explain::ExplainReport::check_consistency`]).
    ///
    /// The replay runs the real query path, so it also updates the global
    /// metrics registry and deposits a flight record.
    pub fn explain_knn(&self, query: &Tree, k: usize) -> crate::explain::ExplainReport {
        // Own the trace here (the replay's own start is then inert) so
        // the id is still current when the report is assembled.
        let trace = treesim_obs::trace::start_trace();
        let trace_id = trace.id();
        let mut observer = crate::explain::ExplainObserver::new();
        let (results, stats) = self.knn_observed(query, k, &mut observer);
        let candidates = observer.into_candidates(&results, |_| 0);
        crate::explain::ExplainReport {
            kind: "knn",
            param: k as u64,
            stats,
            results,
            stage_names: self.stage_names(),
            candidates,
            trace_id,
        }
    }

    /// EXPLAIN for a range query; see [`SearchEngine::explain_knn`].
    ///
    /// The final cascade stage prunes through a predicate
    /// ([`Filter::prunes_range`]) that certifies `EDist > τ` without
    /// materializing a bound, so for predicate-pruned candidates the
    /// report recomputes that stage's generic lower bound afterwards,
    /// purely for display — the replay's statistics stay identical to a
    /// production [`SearchEngine::range`] call.
    pub fn explain_range(&self, query: &Tree, tau: u32) -> crate::explain::ExplainReport {
        // Trace ownership as in `explain_knn`.
        let trace = treesim_obs::trace::start_trace();
        let trace_id = trace.id();
        let mut observer = crate::explain::ExplainObserver::new();
        let (results, stats) = self.range_observed(query, tau, &mut observer);
        let scale = self.cost.min_operation_cost();
        let last_stage = self.filter.stages() - 1;
        let query_artifact = self.filter.prepare_query(query);
        let candidates = observer.into_candidates(&results, |id| {
            self.filter.stage_bound(&query_artifact, id, last_stage) * scale
        });
        crate::explain::ExplainReport {
            kind: "range",
            param: u64::from(tau),
            stats,
            results,
            stage_names: self.stage_names(),
            candidates,
            trace_id,
        }
    }
}

/// The query core: what the k-NN and range algorithms need of an index —
/// its filter, the per-tree Zhang–Shasha tables (one per indexed tree, so
/// their count is the dataset size) and the cost model. [`SearchEngine`],
/// [`crate::DynamicIndex`] and every shard of [`crate::ShardedEngine`]
/// answer queries through this one core; the one emitter ([`observe`])
/// wraps each engine and dynamic query, and each merged sharded query.
pub(crate) struct QueryCore<'i, F, C> {
    pub(crate) filter: &'i F,
    pub(crate) infos: &'i [TreeInfo],
    pub(crate) cost: &'i C,
}

impl<F: Filter, C: CostModel> QueryCore<'_, F, C> {
    /// Edit distance between `query_info` and dataset tree `id`, bounded
    /// by the caller's live `budget` (the range τ or the current k-th heap
    /// distance). Returns `Some(d)` with the exact distance iff `d ≤
    /// budget`; `None` means the distance provably exceeds the budget (a
    /// *cutoff* — the candidate cannot affect the result).
    ///
    /// Each call records its **effective refinement volume** into the
    /// `refine.zs.nodes` histogram — the problem size (total nodes on both
    /// sides) scaled by the fraction of DP cells the bounded DP actually
    /// evaluated, so budget savings show up in the §4.3 cost profile — and
    /// its wall-clock into `refine.zs.us`. Into `stats` it adds that
    /// volume (`zs_nodes`), its duration (`refine_time`), its skipped
    /// cells and, for a cutoff, one `refine_cutoffs`; `refined` is the
    /// caller's.
    fn refine(
        &self,
        query_info: &TreeInfo,
        id: TreeId,
        budget: u64,
        workspace: &mut ZsWorkspace,
        stats: &mut SearchStats,
    ) -> Option<u64> {
        let data_info = &self.infos[id.index()];
        // Trace-only span (no histogram — `refine.zs.us` below already
        // carries the timing): one `refine.call` node per refined
        // candidate, with the live budget and the cutoff verdict.
        let mut trace_span = treesim_obs::trace::span("refine.call");
        trace_span.push_field("tree", || id.0.to_string());
        trace_span.push_field("budget", || budget.to_string());
        let start = Instant::now();
        let (distance, bounded) =
            bounded_zhang_shasha(query_info, data_info, self.cost, budget, workspace);
        let elapsed = start.elapsed();
        treesim_obs::histogram!("refine.zs.us").record_duration(elapsed);
        stats.refine_time += elapsed;
        trace_span.push_field("verdict", || match distance {
            Some(d) => format!("refined d={d}"),
            None => format!("cutoff (d > {budget})"),
        });
        #[cfg(feature = "strict-checks")]
        {
            let oracle = treesim_edit::zhang_shasha(
                query_info,
                data_info,
                self.cost,
                &mut ZsWorkspace::new(),
            );
            match distance {
                Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
                None => debug_assert!(
                    oracle > budget,
                    "bounded DP cut off a within-budget pair: oracle {oracle} ≤ budget {budget}"
                ),
            }
        }
        let nodes = (query_info.len() + data_info.len()) as u64;
        let effective = (nodes * bounded.cells_computed)
            .checked_div(bounded.cells_full)
            .unwrap_or(0);
        treesim_obs::histogram!("refine.zs.nodes").record(effective);
        stats.zs_nodes += effective;
        stats.refine_bands_skipped += bounded.cells_skipped;
        if distance.is_none() {
            stats.refine_cutoffs += 1;
        }
        distance
    }

    /// Fresh per-query stats: the dataset size and one named, zeroed
    /// accumulator per cascade stage.
    fn fresh_stats(&self) -> SearchStats {
        SearchStats {
            dataset_size: self.infos.len(),
            stages: (0..self.filter.stages())
                .map(|s| StageStats::named(self.filter.stage_name(s)))
                .collect(),
            ..Default::default()
        }
    }

    /// Every indexed tree id, ascending (= arena order).
    fn all_ids(&self) -> Vec<TreeId> {
        (0..self.infos.len() as u32).map(TreeId).collect()
    }

    /// The bare k-NN algorithm (see [`SearchEngine::knn`]): answers the
    /// query and fills the per-query [`SearchStats`], but emits
    /// **nothing** — no span, no registry metrics, no flight record; the
    /// caller wraps it in [`observe`].
    ///
    /// Both cores time alike: `refine_time` sums the refinements'
    /// durations and `filter_time` is the rest of the core's wall clock.
    pub(crate) fn knn<O: QueryObserver>(
        &self,
        query: &Tree,
        k: usize,
        observer: &mut O,
    ) -> (Vec<Neighbor>, SearchStats) {
        let core_start = Instant::now();
        let mut stats = self.fresh_stats();
        if k == 0 || self.infos.is_empty() {
            return (Vec::new(), stats);
        }

        let scale = self.cost.min_operation_cost();
        let stage_count = self.filter.stages();
        let query_artifact = self.filter.prepare_query(query);

        // Stage 0 for every tree, in bulk: one batched sweep in ascending
        // tree-id (= arena) order, so arena-backed filters touch their CSR
        // slabs sequentially. The heap keys escalations by (bound, next
        // stage, id): of equally bounded entries the one with fewer stages
        // left runs first, reaching refinement sooner.
        let stage0_start = Instant::now();
        let sweep = self.all_ids();
        let mut bounds: Vec<u64> = Vec::with_capacity(sweep.len());
        self.filter
            .stage_bound_batch(&query_artifact, &sweep, 0, &mut bounds);
        let mut escalation: BinaryHeap<Reverse<(u64, usize, TreeId)>> =
            BinaryHeap::with_capacity(sweep.len());
        for (&id, &raw_bound) in sweep.iter().zip(&bounds) {
            let bound = raw_bound * scale;
            observer.on_stage_bound(id, 0, bound);
            escalation.push(Reverse((bound, 1, id)));
        }
        if let Some(stage0) = stats.stages.first_mut() {
            stage0.evaluated = sweep.len();
            stage0.time = stage0_start.elapsed();
        }

        let query_info = TreeInfo::new(query);
        let mut workspace = ZsWorkspace::new();
        // Max-heap of the k best (distance, tree) pairs seen so far; the
        // push-then-pop below evicts the largest (distance, id), so among
        // equal distances the smallest ids survive.
        let mut heap: BinaryHeap<(u64, TreeId)> = BinaryHeap::with_capacity(k + 1);
        while let Some(&Reverse((bound, next_stage, id))) = escalation.peek() {
            if let Some(&(worst, _)) = heap.peek().filter(|_| heap.len() == k) {
                if bound > worst {
                    break; // no outstanding candidate can improve the result
                }
            }
            escalation.pop();
            if next_stage < stage_count {
                // Sharpen with the next cascade stage; keep the running
                // max (stages need not be pointwise monotone).
                let stage_start = Instant::now();
                let sharper = self.filter.stage_bound(&query_artifact, id, next_stage) * scale;
                stats.stages[next_stage].time += stage_start.elapsed();
                stats.stages[next_stage].evaluated += 1;
                observer.on_stage_bound(id, next_stage, sharper);
                escalation.push(Reverse((bound.max(sharper), next_stage + 1, id)));
            } else {
                // The live budget is the current k-th distance once the
                // heap is full: a candidate strictly beyond it would be
                // pushed and immediately evicted, so the bounded DP may
                // cut it off; at exactly the budget the exact distance is
                // still needed for the `(distance, id)` tie-break.
                let budget = match heap.peek() {
                    Some(&(worst, _)) if heap.len() == k => worst,
                    _ => u64::MAX,
                };
                let refined = self.refine(&query_info, id, budget, &mut workspace, &mut stats);
                stats.refined += 1;
                match refined {
                    Some(distance) => {
                        observer.on_refined(id, distance);
                        heap.push((distance, id));
                        if heap.len() > k {
                            heap.pop();
                        }
                    }
                    None => observer.on_refine_cutoff(id, budget),
                }
            }
        }
        // Whatever is still queued was pruned by its last evaluated stage.
        for &Reverse((bound, next_stage, id)) in escalation.iter() {
            stats.stages[next_stage - 1].pruned += 1;
            observer.on_pruned(id, next_stage - 1, bound);
        }

        let mut results: Vec<Neighbor> = heap
            .into_iter()
            .map(|(distance, tree)| Neighbor { tree, distance })
            .collect();
        results.sort_unstable_by_key(|n| (n.distance, n.tree));
        self.finish(&mut stats, &results, &query_artifact, core_start);
        (results, stats)
    }

    /// Completes a core's stats: the result count, the `propt` iterations
    /// the query artifact counted, and `filter_time` as the core's wall
    /// clock minus the summed refinement time.
    fn finish(
        &self,
        stats: &mut SearchStats,
        results: &[Neighbor],
        query_artifact: &F::Query,
        core_start: Instant,
    ) {
        stats.results = results.len();
        stats.propt_iters = self.filter.propt_iters(query_artifact);
        stats.filter_time = core_start.elapsed().saturating_sub(stats.refine_time);
    }

    /// The bare range algorithm (see [`SearchEngine::range`]) —
    /// emission-free and timed like [`QueryCore::knn`].
    pub(crate) fn range<O: QueryObserver>(
        &self,
        query: &Tree,
        tau: u32,
        observer: &mut O,
    ) -> (Vec<Neighbor>, SearchStats) {
        let core_start = Instant::now();
        let mut stats = self.fresh_stats();
        let scale = self.cost.min_operation_cost();
        let stage_count = self.filter.stages();
        let query_artifact = self.filter.prepare_query(query);
        // Filters prune in operation counts: EDist_cost ≥ ops · scale, so a
        // candidate is safe to drop when ops > ⌊tau / scale⌋.
        let ops_tau = u32::try_from(u64::from(tau) / scale).unwrap_or(u32::MAX);
        let mut candidates = self.all_ids();
        let mut bounds: Vec<u64> = Vec::new();
        for stage in 0..stage_count {
            // Trace-only stage span (the `cascade.<stage>.us` histograms
            // already time these sweeps via the stats flush): one child
            // per cascade stage under the `engine.range` span, so the
            // funnel reads straight off the trace tree.
            let mut stage_span =
                treesim_obs::trace::span(stage_trace_name(self.filter.stage_name(stage)));
            let stage_start = Instant::now();
            let before = candidates.len();
            if stage + 1 == stage_count {
                candidates.retain(|&id| {
                    observer.on_range_checked(id, stage);
                    let pruned = self.filter.prunes_range(&query_artifact, id, ops_tau);
                    if pruned {
                        observer.on_range_pruned(id, stage);
                    }
                    !pruned
                });
            } else {
                // Candidates stay in ascending id order across stages, so
                // every non-final sweep is one batched arena-order walk.
                bounds.clear();
                self.filter
                    .stage_bound_batch(&query_artifact, &candidates, stage, &mut bounds);
                let mut kept = Vec::with_capacity(candidates.len());
                for (&id, &raw_bound) in candidates.iter().zip(&bounds) {
                    let bound = raw_bound * scale;
                    observer.on_stage_bound(id, stage, bound);
                    if bound <= u64::from(ops_tau) * scale {
                        kept.push(id);
                    } else {
                        observer.on_pruned(id, stage, bound);
                    }
                }
                candidates = kept;
            }
            stats.stages[stage].evaluated = before;
            stats.stages[stage].pruned = before - candidates.len();
            stats.stages[stage].time = stage_start.elapsed();
            let survivors = candidates.len();
            stage_span.push_field("evaluated", || before.to_string());
            stage_span.push_field("pruned", || (before - survivors).to_string());
        }

        let query_info = TreeInfo::new(query);
        let mut workspace = ZsWorkspace::new();
        let mut results = Vec::new();
        for id in candidates {
            // The range radius is the refinement budget: `Some(d)` implies
            // `d ≤ τ` (a hit), `None` is exactly the old `distance > τ`
            // rejection without paying for the full DP.
            let refined = self.refine(&query_info, id, u64::from(tau), &mut workspace, &mut stats);
            stats.refined += 1;
            match refined {
                Some(distance) => {
                    observer.on_refined(id, distance);
                    results.push(Neighbor { tree: id, distance });
                }
                None => observer.on_refine_cutoff(id, u64::from(tau)),
            }
        }
        results.sort_unstable_by_key(|n| (n.distance, n.tree));
        self.finish(&mut stats, &results, &query_artifact, core_start);
        (results, stats)
    }
}

impl<F, C> SearchEngine<'_, F, C>
where
    F: Filter + Sync,
    C: CostModel + Sync,
{
    /// Answers many k-NN queries, fanning out over all available cores.
    /// Results are in query order and each is identical to what
    /// [`SearchEngine::knn`] returns for that query alone.
    pub fn knn_batch(&self, queries: &[&Tree], k: usize) -> Vec<(Vec<Neighbor>, SearchStats)> {
        self.knn_batch_threads(queries, k, default_threads(queries.len()))
    }

    /// [`SearchEngine::knn_batch`] with an explicit worker count.
    pub fn knn_batch_threads(
        &self,
        queries: &[&Tree],
        k: usize,
        threads: usize,
    ) -> Vec<(Vec<Neighbor>, SearchStats)> {
        let threads = threads.clamp(1, queries.len().max(1));
        let mut results = self.batch(queries, threads, |query| self.knn(query, k));
        Self::stamp_threads(&mut results, threads);
        results
    }

    /// Answers many range queries, fanning out over all available cores.
    /// Results are in query order and each is identical to what
    /// [`SearchEngine::range`] returns for that query alone.
    pub fn range_batch(&self, queries: &[&Tree], tau: u32) -> Vec<(Vec<Neighbor>, SearchStats)> {
        self.range_batch_threads(queries, tau, default_threads(queries.len()))
    }

    /// [`SearchEngine::range_batch`] with an explicit worker count.
    pub fn range_batch_threads(
        &self,
        queries: &[&Tree],
        tau: u32,
        threads: usize,
    ) -> Vec<(Vec<Neighbor>, SearchStats)> {
        let threads = threads.clamp(1, queries.len().max(1));
        let mut results = self.batch(queries, threads, |query| self.range(query, tau));
        Self::stamp_threads(&mut results, threads);
        results
    }

    /// Shared batch driver: splits `queries` into `threads` contiguous
    /// chunks, answers each chunk on a scoped worker thread, and stitches
    /// the per-query results back together in input order. Each worker
    /// prepares its own query artifacts and Zhang–Shasha workspace, so no
    /// state is shared beyond the immutable engine.
    ///
    /// Each worker runs under an `engine.batch.worker` span (carrying its
    /// index and chunk size), the `engine.batch.workers.active` gauge
    /// tracks live workers, and `engine.batch.pending` drains from the
    /// batch size to zero as queries complete.
    fn batch<R, Run>(&self, queries: &[&Tree], threads: usize, run: Run) -> Vec<(Vec<Neighbor>, R)>
    where
        R: Send,
        Run: Fn(&Tree) -> (Vec<Neighbor>, R) + Sync,
    {
        let threads = threads.clamp(1, queries.len().max(1));
        let chunk_size = queries.len().div_ceil(threads).max(1);
        // One trace for the whole batch: the handle captured below carries
        // the trace across the scoped-thread boundary, so every worker's
        // spans (and each query's spans under them) reassemble into a
        // single tree with the `engine.batch` span at the root.
        let _trace = treesim_obs::trace::start_trace();
        let _span = treesim_obs::span!("engine.batch", queries = queries.len(), workers = threads);
        let trace_handle = treesim_obs::trace::current_handle();
        let pending = treesim_obs::gauge!("engine.batch.pending");
        let active = treesim_obs::gauge!("engine.batch.workers.active");
        pending.add(queries.len() as i64);
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = queries
                .chunks(chunk_size)
                .enumerate()
                .map(|(worker, chunk)| {
                    let trace_handle = trace_handle.clone();
                    scope.spawn(move || {
                        // Join the batch trace from this worker thread;
                        // worker index becomes the Chrome-trace `tid` row
                        // (the coordinator thread is tid 0).
                        let _trace = trace_handle.map(|h| h.install(0, worker as u32 + 1));
                        let _span = treesim_obs::span!(
                            "engine.batch.worker",
                            worker = worker,
                            queries = chunk.len()
                        );
                        // Flight records deposited by this worker's queries
                        // are tagged as batch work (thread-local context,
                        // so it must be entered on the worker thread).
                        let _batch = recorder::BatchContext::enter();
                        active.add(1);
                        let answers = chunk
                            .iter()
                            .map(|q| {
                                let answer = run(q);
                                pending.sub(1);
                                answer
                            })
                            .collect::<Vec<_>>();
                        active.sub(1);
                        answers
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch query thread panicked"))
                .collect()
        })
    }

    /// Stamps `threads` into a batch's per-query stats (the batch APIs
    /// report the pool size they actually used).
    fn stamp_threads(results: &mut [(Vec<Neighbor>, SearchStats)], threads: usize) {
        for (_, stats) in results {
            stats.threads = threads;
        }
    }

    /// Worker count the auto-sizing batch APIs would use for `n` queries.
    pub fn batch_threads_for(&self, n: usize) -> usize {
        default_threads(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{BiBranchFilter, BiBranchMode, HistogramFilter, MaxFilter, NoFilter};
    use treesim_edit::edit_distance;

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
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn sequential_knn(forest: &Forest, query: &Tree, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = forest
            .iter()
            .map(|(tree, t)| Neighbor {
                tree,
                distance: edit_distance(query, t),
            })
            .collect();
        all.sort_unstable_by_key(|n| (n.distance, n.tree));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_sequential_scan() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        for (_, query) in forest.iter() {
            for k in 1..=forest.len() {
                let (got, stats) = engine.knn(query, k);
                let expected = sequential_knn(&forest, query, k);
                let got_dists: Vec<u64> = got.iter().map(|n| n.distance).collect();
                let expected_dists: Vec<u64> = expected.iter().map(|n| n.distance).collect();
                assert_eq!(got_dists, expected_dists, "k={k}");
                assert!(stats.refined <= forest.len());
                assert_eq!(stats.results, k.min(forest.len()));
            }
        }
    }

    #[test]
    fn knn_ties_keep_smallest_ids() {
        // Three exact duplicates: every k must return the k smallest ids.
        let mut forest = Forest::new();
        for spec in ["a(b c)", "a(b c)", "a(b c)", "x(y z)", "a(b d)"] {
            forest.parse_bracket(spec).unwrap();
        }
        for build_filter in 0..2 {
            let results_for = |k: usize| -> Vec<(TreeId, u64)> {
                let query = forest.tree(TreeId(1));
                let neighbors = if build_filter == 0 {
                    let engine = SearchEngine::new(
                        &forest,
                        BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
                    );
                    engine.knn(query, k).0
                } else {
                    let engine = SearchEngine::new(&forest, NoFilter::build(&forest));
                    engine.knn(query, k).0
                };
                neighbors.iter().map(|n| (n.tree, n.distance)).collect()
            };
            assert_eq!(results_for(1), vec![(TreeId(0), 0)]);
            assert_eq!(results_for(2), vec![(TreeId(0), 0), (TreeId(1), 0)]);
            assert_eq!(
                results_for(3),
                vec![(TreeId(0), 0), (TreeId(1), 0), (TreeId(2), 0)]
            );
            // A tie at the boundary distance: ids decide who enters.
            assert_eq!(
                results_for(4),
                vec![
                    (TreeId(0), 0),
                    (TreeId(1), 0),
                    (TreeId(2), 0),
                    (TreeId(4), 1)
                ]
            );
        }
    }

    #[test]
    fn knn_self_query_returns_self_first() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (results, _) = engine.knn(forest.tree(TreeId(0)), 1);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].distance, 0);
        assert_eq!(results[0].tree, TreeId(0));
    }

    #[test]
    fn range_matches_sequential_scan() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        for (_, query) in forest.iter() {
            for tau in 0..=6u32 {
                let (got, stats) = engine.range(query, tau);
                let mut expected: Vec<Neighbor> = forest
                    .iter()
                    .map(|(tree, t)| Neighbor {
                        tree,
                        distance: edit_distance(query, t),
                    })
                    .filter(|n| n.distance <= u64::from(tau))
                    .collect();
                expected.sort_unstable_by_key(|n| (n.distance, n.tree));
                assert_eq!(got.len(), expected.len(), "τ={tau}");
                for (a, b) in got.iter().zip(&expected) {
                    assert_eq!(a.tree, b.tree);
                    assert_eq!(a.distance, b.distance);
                }
                assert!(stats.refined >= stats.results);
            }
        }
    }

    #[test]
    fn cascade_stage_stats_are_consistent() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        for (_, query) in forest.iter() {
            let (_, stats) = engine.range(query, 1);
            assert_eq!(stats.stages.len(), 3);
            assert_eq!(stats.stages[0].name, "size");
            assert_eq!(stats.stages[0].evaluated, forest.len());
            // Survivors of stage s are exactly what stage s+1 evaluates.
            for pair in stats.stages.windows(2) {
                assert_eq!(pair[0].survivors(), pair[1].evaluated);
            }
            // Final-stage survivors are the refinement candidates.
            assert_eq!(stats.stages.last().unwrap().survivors(), stats.refined);

            let (_, stats) = engine.knn(query, 2);
            assert_eq!(stats.stages.len(), 3);
            assert_eq!(stats.stages[0].evaluated, forest.len());
            // Lazy escalation: later stages never evaluate more than
            // earlier ones, and propt computations never exceed the
            // dataset size (the pre-cascade behavior).
            for pair in stats.stages.windows(2) {
                assert!(pair[1].evaluated <= pair[0].evaluated);
            }
            assert!(stats.final_stage_evaluated() <= forest.len());
            // Every candidate is accounted for: refined or pruned at some
            // stage.
            let pruned: usize = stats.stages.iter().map(|s| s.pruned).sum();
            assert_eq!(pruned + stats.refined, forest.len());
        }
    }

    #[test]
    fn cascade_saves_final_stage_work() {
        // A query far from most of the dataset: the size stage alone
        // prunes, so strictly fewer propt bounds than trees are computed.
        let mut forest = forest();
        for i in 0..8 {
            forest
                .parse_bracket(&format!("z{i}(w x y v u t s r p o n m l)"))
                .unwrap();
        }
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (_, stats) = engine.knn(forest.tree(TreeId(6)), 1);
        assert!(
            stats.final_stage_evaluated() < forest.len(),
            "cascade should skip propt for size-pruned candidates: {} vs {}",
            stats.final_stage_evaluated(),
            forest.len()
        );
        let (_, stats) = engine.range(forest.tree(TreeId(6)), 1);
        assert!(stats.final_stage_evaluated() < forest.len());
    }

    #[test]
    fn histogram_engine_is_also_complete() {
        let forest = forest();
        let engine = SearchEngine::new(&forest, HistogramFilter::build(&forest));
        let query = forest.tree(TreeId(1));
        let (got, _) = engine.knn(query, 3);
        let expected = sequential_knn(&forest, query, 3);
        let got_dists: Vec<u64> = got.iter().map(|n| n.distance).collect();
        let expected_dists: Vec<u64> = expected.iter().map(|n| n.distance).collect();
        assert_eq!(got_dists, expected_dists);
    }

    #[test]
    fn stacked_filter_cascade_is_complete() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            MaxFilter {
                first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
                second: HistogramFilter::build(&forest),
            },
        );
        for (_, query) in forest.iter() {
            let (got, stats) = engine.knn(query, 4);
            let expected = sequential_knn(&forest, query, 4);
            assert_eq!(
                got.iter().map(|n| n.distance).collect::<Vec<_>>(),
                expected.iter().map(|n| n.distance).collect::<Vec<_>>()
            );
            assert_eq!(stats.stages.len(), 3);
            for tau in 0..=4 {
                let (hits, _) = engine.range(query, tau);
                let want = forest
                    .iter()
                    .filter(|(_, t)| edit_distance(query, t) <= u64::from(tau))
                    .count();
                assert_eq!(hits.len(), want);
            }
        }
    }

    #[test]
    fn no_filter_refines_everything_for_range() {
        let forest = forest();
        let engine = SearchEngine::new(&forest, NoFilter::build(&forest));
        let (_, stats) = engine.range(forest.tree(TreeId(0)), 2);
        assert_eq!(stats.refined, forest.len());
        assert!((stats.accessed_percent() - 100.0).abs() < 1e-12);
        assert_eq!(stats.stages.len(), 1);
    }

    #[test]
    fn bibranch_filters_more_than_nothing() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (_, stats) = engine.range(forest.tree(TreeId(6)), 1);
        // q(r(s)) is far from everything except itself; the filter should
        // prune most of the dataset.
        assert!(stats.refined < forest.len(), "filter pruned nothing");
        assert_eq!(stats.results, 1);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (results, stats) = engine.knn(forest.tree(TreeId(0)), 0);
        assert!(results.is_empty());
        assert_eq!(stats.refined, 0);
        let (results, _) = engine.knn(forest.tree(TreeId(0)), 100);
        assert_eq!(results.len(), forest.len());
    }

    #[test]
    fn range_zero_finds_exact_duplicates() {
        let mut forest = forest();
        forest.parse_bracket("a(b c)").unwrap(); // duplicate of tree 2
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (results, _) = engine.range(forest.tree(TreeId(2)), 0);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|n| n.distance == 0));
    }

    #[test]
    fn external_query_not_in_dataset() {
        let mut forest = forest();
        // Build a query sharing the interner but not inserted as data.
        let query = {
            let interner = forest.interner_mut();
            let mut i2 = interner.clone();
            let t = treesim_tree::parse::bracket::parse(&mut i2, "a(b(c(d)) z)").unwrap();
            *interner = i2;
            t
        };
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let (got, _) = engine.knn(&query, 3);
        let expected = sequential_knn(&forest, &query, 3);
        let got_dists: Vec<u64> = got.iter().map(|n| n.distance).collect();
        let expected_dists: Vec<u64> = expected.iter().map(|n| n.distance).collect();
        assert_eq!(got_dists, expected_dists);
    }

    #[test]
    fn weighted_cost_engine_matches_weighted_scan() {
        use treesim_edit::{edit_distance_with, WeightedCost};
        let forest = forest();
        let weighted = WeightedCost {
            relabel: 3,
            delete: 2,
            insert: 2,
        };
        let engine = SearchEngine::with_cost(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            weighted,
        );
        for (_, query) in forest.iter() {
            // Ground truth under the weighted model.
            let mut truth: Vec<(u64, TreeId)> = forest
                .iter()
                .map(|(id, t)| (edit_distance_with(query, t, &weighted), id))
                .collect();
            truth.sort_unstable();

            let (got, _) = engine.knn(query, 3);
            let got_d: Vec<u64> = got.iter().map(|n| n.distance).collect();
            let want_d: Vec<u64> = truth.iter().take(3).map(|&(d, _)| d).collect();
            assert_eq!(got_d, want_d);

            for tau in [0u32, 2, 4, 8, 12] {
                let (range_hits, _) = engine.range(query, tau);
                let expected = truth.iter().filter(|&&(d, _)| d <= u64::from(tau)).count();
                assert_eq!(range_hits.len(), expected, "τ={tau}");
            }
        }
    }

    #[test]
    fn weighted_engine_still_prunes() {
        use treesim_edit::WeightedCost;
        let forest = forest();
        let weighted = WeightedCost {
            relabel: 2,
            delete: 2,
            insert: 2,
        };
        let engine = SearchEngine::with_cost(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            weighted,
        );
        let (_, stats) = engine.range(forest.tree(TreeId(6)), 2);
        assert!(stats.refined < forest.len(), "filter pruned nothing");
    }

    #[test]
    fn serial_and_parallel_construction_agree() {
        let forest = forest();
        let serial = SearchEngine::with_cost_threads(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            UnitCost,
            1,
        );
        let parallel = SearchEngine::with_cost_threads(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            UnitCost,
            4,
        );
        for (_, query) in forest.iter() {
            let (a, _) = serial.knn(query, 4);
            let (b, _) = parallel.knn(query, 4);
            assert_eq!(
                a.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>(),
                b.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let queries: Vec<&Tree> = forest.iter().map(|(_, t)| t).collect();
        for threads in [1usize, 2, 4, 16] {
            let knn_batch = engine.knn_batch_threads(&queries, 3, threads);
            let range_batch = engine.range_batch_threads(&queries, 2, threads);
            assert_eq!(knn_batch.len(), queries.len());
            assert_eq!(range_batch.len(), queries.len());
            for (i, query) in queries.iter().enumerate() {
                let (single, single_stats) = engine.knn(query, 3);
                assert_eq!(
                    knn_batch[i]
                        .0
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                    single
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                    "threads={threads} query={i}"
                );
                // The cascade is deterministic, so even the work counters
                // agree between batch and single execution.
                assert_eq!(knn_batch[i].1.threads, threads.min(queries.len()));
                assert_eq!(knn_batch[i].1.refined, single_stats.refined);
                assert_eq!(
                    knn_batch[i].1.final_stage_evaluated(),
                    single_stats.final_stage_evaluated()
                );

                let (single, _) = engine.range(query, 2);
                assert_eq!(
                    range_batch[i]
                        .0
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                    single
                        .iter()
                        .map(|n| (n.tree, n.distance))
                        .collect::<Vec<_>>(),
                    "threads={threads} query={i}"
                );
            }
        }
    }

    #[test]
    fn batch_handles_empty_and_auto_threads() {
        let forest = forest();
        let engine = SearchEngine::new(
            &forest,
            BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
        );
        let none: Vec<&Tree> = Vec::new();
        assert!(engine.knn_batch(&none, 3).is_empty());
        assert!(engine.range_batch(&none, 1).is_empty());
        assert!(engine.batch_threads_for(100) >= 1);
        let queries: Vec<&Tree> = forest.iter().map(|(_, t)| t).take(2).collect();
        assert_eq!(engine.knn_batch(&queries, 1).len(), 2);
    }
}
