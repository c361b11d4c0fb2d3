//! The traced run: a per-layer split of k-NN and range query time, taken
//! from outside the library.
//!
//! Timing a ~40 ns bound evaluation with its own `Instant` pair would
//! mostly measure the timer, so the split is taken in two passes:
//!
//! 1. [`replay_knn`] / [`replay_range`] re-run the engine's algorithm
//!    through the public [`Filter`] API (`prepare_query`,
//!    `stage_bound_batch`, `stage_bound`, `prunes_range`) and
//!    [`bounded_zhang_shasha`], untimed, and record every call with its
//!    live budget. [`Trace::check_against`] asserts that the replay's
//!    answer and funnel equal those of `SearchEngine::knn` / `range` for
//!    the same query, so the recorded calls are the engine's calls.
//! 2. [`sweep`] re-executes the recorded calls one layer at a time, each
//!    layer as one timed sweep over a chunk of queries, so timer cost is
//!    paid once per chunk and layer rather than once per call.
//!
//! Layers are named after the modules that do the work: `filter.prepare`
//! and `filter.<stage>` (treesim-search filters over treesim-core
//! vectors), `edit.treeinfo` and `edit.refine_{done,cut}` (treesim-edit).
//! What the engine spends outside these calls (escalation heap, result
//! assembly, observability emission, its own stage timers) is the
//! residual: untraced engine wall time minus the sum of the layers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use treesim_edit::{bounded_zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_search::{Filter, Neighbor, SearchStats};
use treesim_tree::{Tree, TreeId};

use crate::oracle::Kind;

/// Every call one query's replay made, grouped by layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The query tree.
    pub query: TreeId,
    /// Per cascade stage, the candidates it evaluated, in call order.
    /// Stage 0 always evaluates the whole dataset in one batch and is left
    /// empty here.
    pub stage_ids: Vec<Vec<TreeId>>,
    /// Per cascade stage, how many candidates it evaluated.
    pub evaluated: Vec<usize>,
    /// Per cascade stage, how many candidates it eliminated.
    pub pruned: Vec<usize>,
    /// Refinements that returned the exact distance: `(tree, budget)`.
    pub done: Vec<(TreeId, u64)>,
    /// Refinements cut off at the budget: `(tree, budget)`.
    pub cut: Vec<(TreeId, u64)>,
    /// DP cells computed by the completed refinements.
    pub cells_done: u64,
    /// DP cells computed by the cut-off refinements.
    pub cells_cut: u64,
    /// DP cells the bounded refinement skipped.
    pub cells_skipped: u64,
    /// The replay's answer.
    pub results: Vec<Neighbor>,
}

impl Trace {
    fn new(query: TreeId, stages: usize) -> Self {
        Trace {
            query,
            stage_ids: vec![Vec::new(); stages],
            evaluated: vec![0; stages],
            pruned: vec![0; stages],
            done: Vec::new(),
            cut: Vec::new(),
            cells_done: 0,
            cells_cut: 0,
            cells_skipped: 0,
            results: Vec::new(),
        }
    }

    fn refine(
        &mut self,
        query: &TreeInfo,
        data: &TreeInfo,
        id: TreeId,
        budget: u64,
        ws: &mut ZsWorkspace,
    ) -> Option<u64> {
        let (distance, stats) = bounded_zhang_shasha(query, data, &UnitCost, budget, ws);
        self.cells_skipped += stats.cells_skipped;
        if distance.is_some() {
            self.done.push((id, budget));
            self.cells_done += stats.cells_computed;
        } else {
            self.cut.push((id, budget));
            self.cells_cut += stats.cells_computed;
        }
        distance
    }

    /// Checks that the replay reproduced the engine's answer and funnel
    /// for the same query exactly.
    pub fn check_against(&self, results: &[Neighbor], stats: &SearchStats) -> Result<(), String> {
        let funnel: Vec<(usize, usize)> = stats
            .stages
            .iter()
            .map(|s| (s.evaluated, s.pruned))
            .collect();
        let mine: Vec<(usize, usize)> = self
            .evaluated
            .iter()
            .copied()
            .zip(self.pruned.iter().copied())
            .collect();
        let checks = [
            (results == self.results.as_slice(), "results"),
            (funnel == mine, "stage funnel"),
            (stats.refined == self.done.len() + self.cut.len(), "refined"),
            (stats.refine_cutoffs == self.cut.len(), "refine cutoffs"),
            (
                stats.refine_bands_skipped == self.cells_skipped,
                "cells skipped",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            None => Ok(()),
            Some((_, what)) => Err(format!(
                "replay of query tree {} disagrees with the engine on {what}: \
                 engine funnel {funnel:?} refined {} cutoffs {} skipped {}, \
                 replay funnel {mine:?} refined {} cutoffs {} skipped {}",
                self.query.0,
                stats.refined,
                stats.refine_cutoffs,
                stats.refine_bands_skipped,
                self.done.len() + self.cut.len(),
                self.cut.len(),
                self.cells_skipped
            )),
        }
    }
}

/// Replays `SearchEngine::knn` (unit cost): the batched stage-0 sweep, then
/// lazy escalation through the cascade in `(bound, next stage, id)` order,
/// refining with the live k-th distance as budget, until the smallest
/// outstanding bound exceeds the k-th distance.
pub fn replay_knn<F: Filter>(
    filter: &F,
    infos: &[TreeInfo],
    ids: &[TreeId],
    id: TreeId,
    query: &Tree,
    k: usize,
) -> Trace {
    let stages = filter.stages();
    let mut trace = Trace::new(id, stages);
    if k == 0 || ids.is_empty() {
        return trace;
    }
    let artifact = filter.prepare_query(query);
    let mut bounds = Vec::with_capacity(ids.len());
    filter.stage_bound_batch(&artifact, ids, 0, &mut bounds);
    trace.evaluated[0] = ids.len();
    let mut escalation: BinaryHeap<Reverse<(u64, usize, TreeId)>> = ids
        .iter()
        .zip(&bounds)
        .map(|(&id, &bound)| Reverse((bound, 1, id)))
        .collect();
    let query_info = TreeInfo::new(query);
    let mut ws = ZsWorkspace::new();
    let mut heap: BinaryHeap<(u64, TreeId)> = BinaryHeap::with_capacity(k + 1);
    while let Some(&Reverse((bound, next_stage, id))) = escalation.peek() {
        let kth = heap
            .peek()
            .filter(|_| heap.len() == k)
            .map(|&(worst, _)| worst);
        if kth.is_some_and(|worst| bound > worst) {
            break;
        }
        escalation.pop();
        if next_stage < stages {
            let sharper = filter.stage_bound(&artifact, id, next_stage);
            trace.stage_ids[next_stage].push(id);
            trace.evaluated[next_stage] += 1;
            escalation.push(Reverse((bound.max(sharper), next_stage + 1, id)));
        } else if let Some(distance) = trace.refine(
            &query_info,
            &infos[id.index()],
            id,
            kth.unwrap_or(u64::MAX),
            &mut ws,
        ) {
            heap.push((distance, id));
            if heap.len() > k {
                heap.pop();
            }
        }
    }
    for &Reverse((_, next_stage, _)) in escalation.iter() {
        trace.pruned[next_stage - 1] += 1;
    }
    trace.results = heap
        .into_iter()
        .map(|(distance, tree)| Neighbor { tree, distance })
        .collect();
    trace.results.sort_unstable_by_key(|n| (n.distance, n.tree));
    trace
}

/// Replays `SearchEngine::range` (unit cost): each non-final stage is one
/// batched sweep over the survivors, the final stage is the filter's range
/// predicate, and every final survivor is refined with budget τ.
pub fn replay_range<F: Filter>(
    filter: &F,
    infos: &[TreeInfo],
    ids: &[TreeId],
    id: TreeId,
    query: &Tree,
    tau: u32,
) -> Trace {
    let stages = filter.stages();
    let mut trace = Trace::new(id, stages);
    let artifact = filter.prepare_query(query);
    let mut candidates = ids.to_vec();
    let mut bounds = Vec::new();
    for stage in 0..stages {
        if stage > 0 {
            trace.stage_ids[stage] = candidates.clone();
        }
        let before = candidates.len();
        if stage + 1 == stages {
            candidates.retain(|&id| !filter.prunes_range(&artifact, id, tau));
        } else {
            bounds.clear();
            filter.stage_bound_batch(&artifact, &candidates, stage, &mut bounds);
            let mut survivors = bounds.iter().map(|&bound| bound <= u64::from(tau));
            candidates.retain(|_| survivors.next().unwrap_or(false));
        }
        trace.evaluated[stage] = before;
        trace.pruned[stage] = before - candidates.len();
    }
    let query_info = TreeInfo::new(query);
    let mut ws = ZsWorkspace::new();
    for id in candidates {
        if let Some(distance) =
            trace.refine(&query_info, &infos[id.index()], id, u64::from(tau), &mut ws)
        {
            trace.results.push(Neighbor { tree: id, distance });
        }
    }
    trace.results.sort_unstable_by_key(|n| (n.distance, n.tree));
    trace
}

/// Time spent per layer by one sweep over a set of queries.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `Filter::prepare_query`.
    pub prepare: Duration,
    /// Per cascade stage.
    pub stages: Vec<Duration>,
    /// `TreeInfo::new` of the query.
    pub treeinfo: Duration,
    /// Completed refinements.
    pub refine_done: Duration,
    /// Cut-off refinements.
    pub refine_cut: Duration,
}

impl LayerTimes {
    /// Sum over all layers.
    pub fn total(&self) -> Duration {
        self.prepare
            + self.stages.iter().sum::<Duration>()
            + self.treeinfo
            + self.refine_done
            + self.refine_cut
    }
}

/// Queries per timed chunk: large enough that one `Instant` pair per chunk
/// and layer is noise, small enough that a chunk's query artifacts stay
/// cache- and memory-friendly.
pub const CHUNK: usize = 16;

/// Re-executes the calls recorded in `traces` layer by layer, timing each
/// layer over chunks of [`CHUNK`] queries. `kind` names the path the
/// traces replayed: k-NN evaluates later stages candidate by candidate,
/// range batches the non-final stages and ends with the range predicate.
pub fn sweep<F: Filter>(
    filter: &F,
    infos: &[TreeInfo],
    ids: &[TreeId],
    queries: &[&Tree],
    traces: &[Trace],
    kind: Kind,
) -> LayerTimes {
    let stages = filter.stages();
    let mut times = LayerTimes {
        stages: vec![Duration::ZERO; stages],
        ..LayerTimes::default()
    };
    let mut sink = 0u64;
    let mut bounds = Vec::with_capacity(ids.len());
    let mut ws = ZsWorkspace::new();
    for (chunk, chunk_traces) in queries.chunks(CHUNK).zip(traces.chunks(CHUNK)) {
        let start = Instant::now();
        let artifacts: Vec<F::Query> = chunk.iter().map(|q| filter.prepare_query(q)).collect();
        times.prepare += start.elapsed();
        for stage in 0..stages {
            let start = Instant::now();
            for (artifact, trace) in artifacts.iter().zip(chunk_traces) {
                let input = if stage == 0 {
                    ids
                } else {
                    &trace.stage_ids[stage]
                };
                match kind {
                    Kind::Range(tau) if stage + 1 == stages => {
                        sink += input
                            .iter()
                            .filter(|&&id| filter.prunes_range(artifact, id, tau))
                            .count() as u64;
                    }
                    Kind::Knn(_) if stage > 0 => {
                        for &id in input {
                            sink = sink.wrapping_add(filter.stage_bound(artifact, id, stage));
                        }
                    }
                    _ => {
                        bounds.clear();
                        filter.stage_bound_batch(artifact, input, stage, &mut bounds);
                        sink = sink.wrapping_add(bounds.iter().sum::<u64>());
                    }
                }
            }
            times.stages[stage] += start.elapsed();
        }
        let start = Instant::now();
        let query_infos: Vec<TreeInfo> = chunk.iter().map(|q| TreeInfo::new(q)).collect();
        times.treeinfo += start.elapsed();
        for (calls, time) in [(0, &mut times.refine_done), (1, &mut times.refine_cut)] {
            let start = Instant::now();
            for (query_info, trace) in query_infos.iter().zip(chunk_traces) {
                let recorded = if calls == 0 { &trace.done } else { &trace.cut };
                for &(id, budget) in recorded {
                    let (distance, _) = bounded_zhang_shasha(
                        query_info,
                        &infos[id.index()],
                        &UnitCost,
                        budget,
                        &mut ws,
                    );
                    sink = sink.wrapping_add(distance.unwrap_or(1));
                }
            }
            *time += start.elapsed();
        }
        black_box(&artifacts);
    }
    black_box(sink);
    times
}
