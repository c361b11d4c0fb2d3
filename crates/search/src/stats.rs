//! Per-query statistics — the quantities reported in the paper's figures,
//! plus per-stage observability for the staged bound cascade.
//!
//! [`SearchStats`] is the one *per-call* record handed back with every
//! query. The global `treesim-obs` registry and the flight recorder are
//! projections of it: after each query the emitter flushes the stats into
//! the registry (`SearchStats::flush`, so long-running processes
//! accumulate process-wide funnels and latency histograms) and deposits
//! the flight record built from the same stats
//! (`SearchStats::flight_record`).

use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

use treesim_obs::metrics::{counter, histogram};
use treesim_obs::naming::CASCADE_STAGES;
use treesim_obs::{Counter, Histogram, QueryKind, QueryRecord};

use crate::engine::Neighbor;

/// Measurements for one stage of the lower-bound cascade.
///
/// A cascade evaluates bounds coarsest-first; a candidate only reaches
/// stage `s + 1` if stage `s` could not prune it, so `evaluated` is
/// non-increasing across stages and `evaluated − pruned` of the final
/// stage is the refinement candidate set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name ("size", "bdist", "propt", …).
    pub name: &'static str,
    /// Candidates whose bound was computed at this stage.
    pub evaluated: usize,
    /// Candidates this stage eliminated (never saw later stages).
    pub pruned: usize,
    /// Wall-clock time spent computing this stage's bounds.
    pub time: Duration,
}

impl StageStats {
    /// A fresh accumulator for the named stage.
    pub fn named(name: &'static str) -> Self {
        StageStats {
            name,
            ..Default::default()
        }
    }

    /// Candidates that survived this stage.
    pub fn survivors(&self) -> usize {
        self.evaluated.saturating_sub(self.pruned)
    }
}

/// A sparse log₂ histogram of per-query total latencies (microseconds),
/// sharing `treesim-obs`'s bucket geometry ([`treesim_obs::bucket_index`]
/// / [`treesim_obs::bucket_upper_edge`]), so its quantiles carry the same
/// factor-of-2 error bound as the registry's histograms.
///
/// Empty on a fresh per-query [`SearchStats`];
/// [`SearchStats::accumulate`] records one sample per accumulated query
/// (or merges buckets when accumulating pre-accumulated totals), so
/// workload accumulators grow a latency distribution for free and
/// [`AveragedStats`] can report tail latencies, not just means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBuckets {
    /// `(bucket index, count)` pairs, ascending by index, counts > 0.
    buckets: Vec<(u8, u64)>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyBuckets {
    /// Records one query latency (in microseconds).
    pub fn record_micros(&mut self, us: u64) {
        let index = treesim_obs::bucket_index(us) as u8;
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (index, 1)),
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(us);
        self.max = self.max.max(us);
    }

    /// Merges another accumulator's samples into this one.
    pub fn merge(&mut self, other: &LatencyBuckets) {
        for &(index, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += count,
                Err(pos) => self.buckets.insert(pos, (index, count)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded latency (µs); 0 when empty.
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Estimated `q`-quantile latency in microseconds (same estimator as
    /// [`treesim_obs::HistogramSnapshot::quantile`]: the upper edge of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the
    /// observed maximum). Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return treesim_obs::bucket_upper_edge(usize::from(index)).min(self.max);
            }
        }
        self.max
    }

    /// Median latency estimate (µs).
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 90th-percentile latency estimate (µs).
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// 99th-percentile latency estimate (µs).
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// Measurements collected while answering one similarity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of trees in the dataset.
    pub dataset_size: usize,
    /// Trees whose real edit distance was computed (true + false positives —
    /// the "% of accessed data" numerator of Figures 7–14). Includes
    /// refinements the bounded DP cut off at the budget.
    pub refined: usize,
    /// Refinements the bounded Zhang–Shasha cut off at the live budget:
    /// the distance was proven `> τ` (or beyond the current k-th heap
    /// distance) without being computed exactly. Always `≤ refined`.
    pub refine_cutoffs: usize,
    /// DP cells the bounded refinement skipped via its band / subproblem
    /// pruning, summed over this query's refinements.
    pub refine_bands_skipped: u64,
    /// Effective Zhang–Shasha problem size refined: per refinement, the
    /// nodes on both sides scaled by the fraction of DP cells the bounded
    /// DP evaluated, summed over this query's refinements.
    pub zs_nodes: u64,
    /// Binary-search iterations the `propt` bounds of this query took.
    pub propt_iters: u64,
    /// Trees in the final result set (true positives).
    pub results: usize,
    /// Query time outside refinement: the query core's wall-clock minus
    /// [`SearchStats::refine_time`] (query preparation, every cascade
    /// stage, result assembly).
    pub filter_time: Duration,
    /// Time spent computing real edit distances: the sum of the
    /// per-refinement durations.
    pub refine_time: Duration,
    /// Per-stage cascade breakdown, coarsest stage first. Empty for
    /// engines that do not run a cascade.
    pub stages: Vec<StageStats>,
    /// Worker threads that produced these numbers (1 for a single query;
    /// the batch APIs record the pool size).
    pub threads: usize,
    /// Per-query total-latency distribution. Empty on a single query's
    /// stats; populated by [`SearchStats::accumulate`] (one sample per
    /// accumulated query), so workload totals carry p50/p90/p99 tails.
    pub latency: LatencyBuckets,
}

impl Default for SearchStats {
    fn default() -> Self {
        SearchStats {
            dataset_size: 0,
            refined: 0,
            refine_cutoffs: 0,
            refine_bands_skipped: 0,
            zs_nodes: 0,
            propt_iters: 0,
            results: 0,
            filter_time: Duration::ZERO,
            refine_time: Duration::ZERO,
            stages: Vec::new(),
            threads: 1,
            latency: LatencyBuckets::default(),
        }
    }
}

impl SearchStats {
    /// The paper's headline metric:
    /// `(|TruePositive| + |FalsePositive|) / |Dataset| × 100 %`.
    pub fn accessed_percent(&self) -> f64 {
        if self.dataset_size == 0 {
            return 0.0;
        }
        self.refined as f64 / self.dataset_size as f64 * 100.0
    }

    /// Fraction of the result set within the accessed data (selectivity).
    pub fn result_percent(&self) -> f64 {
        if self.dataset_size == 0 {
            return 0.0;
        }
        self.results as f64 / self.dataset_size as f64 * 100.0
    }

    /// Total query time.
    pub fn total_time(&self) -> Duration {
        self.filter_time + self.refine_time
    }

    /// Bounds computed at the final (most expensive) cascade stage — for
    /// the positional filter, the number of `propt` binary searches.
    pub fn final_stage_evaluated(&self) -> usize {
        self.stages.last().map_or(0, |s| s.evaluated)
    }

    /// Accumulates another query's stats (for workload averages).
    ///
    /// Accumulation only makes sense across queries against the **same
    /// dataset**: `accessed_percent`/`result_percent` divide by one shared
    /// `dataset_size`.
    ///
    /// # Panics
    ///
    /// Panics if both sides carry a non-zero `dataset_size` and they
    /// disagree (mixing stats from different datasets), or if both carry
    /// a funnel from different cascades. A zero `dataset_size` means "not
    /// yet attributed" (the `Default` accumulator) and adopts the other
    /// side's size.
    pub fn accumulate(&mut self, other: &SearchStats) {
        if self.dataset_size == 0 {
            self.dataset_size = other.dataset_size;
        } else if other.dataset_size != 0 {
            assert_eq!(
                self.dataset_size, other.dataset_size,
                "accumulating stats from different datasets"
            );
        }
        self.add_work(other);
        self.results += other.results;
        self.threads = self.threads.max(other.threads);
        if other.latency.is_empty() {
            // `other` is one query's stats: its total time is one sample.
            self.latency
                .record_micros(u64::try_from(other.total_time().as_micros()).unwrap_or(u64::MAX));
        } else {
            // `other` is itself an accumulator: merge its distribution.
            self.latency.merge(&other.latency);
        }
    }

    /// Sums `other`'s work into `self`: the refinement counters, the
    /// `propt` iterations, both times and, stage by stage, the cascade
    /// funnel (an empty funnel adopts `other`'s). Shared by
    /// [`SearchStats::accumulate`] (many queries, one dataset) and the
    /// sharded merge (one query, many partitions), which each keep their
    /// own `dataset_size` and `results` rules.
    ///
    /// # Panics
    ///
    /// Panics if both sides carry a funnel and the cascades differ in
    /// length or stage order.
    pub(crate) fn add_work(&mut self, other: &SearchStats) {
        self.refined += other.refined;
        self.refine_cutoffs += other.refine_cutoffs;
        self.refine_bands_skipped += other.refine_bands_skipped;
        self.zs_nodes += other.zs_nodes;
        self.propt_iters += other.propt_iters;
        self.filter_time += other.filter_time;
        self.refine_time += other.refine_time;
        if self.stages.is_empty() {
            self.stages = other.stages.clone();
        } else if !other.stages.is_empty() {
            assert_eq!(
                self.stages.len(),
                other.stages.len(),
                "summing stats from different cascades"
            );
            for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
                assert_eq!(mine.name, theirs.name, "cascade stage order changed");
                mine.evaluated += theirs.evaluated;
                mine.pruned += theirs.pruned;
                mine.time += theirs.time;
            }
        }
    }

    /// The registry projection: flushes this query's numbers under
    /// `kind`'s metric prefix (`engine.knn`, `dynamic.range`, `shard.knn`,
    /// …) — the per-prefix query/refined/cutoff/result counters and
    /// filter/refine latency histograms, the shared per-stage funnel
    /// (`cascade.<stage>.evaluated` / `.pruned` counters and `.us`
    /// histograms) and the `refine.bounded.{cutoffs,bands_skipped}`
    /// counters.
    ///
    /// Handles are resolved once per kind and per stage, so a flush
    /// formats nothing and takes no registry lock.
    pub(crate) fn flush(&self, kind: QueryKind) {
        let metrics = KindMetrics::of(kind);
        metrics.queries.inc();
        metrics.refined.add(self.refined as u64);
        metrics.cutoffs.add(self.refine_cutoffs as u64);
        metrics.results.add(self.results as u64);
        metrics.filter_us.record_duration(self.filter_time);
        metrics.refine_us.record_duration(self.refine_time);
        for stage in &self.stages {
            let funnel = StageMetrics::of(stage.name);
            funnel.evaluated.add(stage.evaluated as u64);
            funnel.pruned.add(stage.pruned as u64);
            funnel.us.record_duration(stage.time);
        }
        // Registered by the first refinement and the first cutoff.
        if self.refined > 0 {
            treesim_obs::counter!("refine.bounded.bands_skipped").add(self.refine_bands_skipped);
        }
        if self.refine_cutoffs > 0 {
            treesim_obs::counter!("refine.bounded.cutoffs").add(self.refine_cutoffs as u64);
        }
    }

    /// The flight-recorder projection: the record of a `kind` query with
    /// parameter `param` (`k` or `τ`) that answered `results` in `wall`.
    pub(crate) fn flight_record(
        &self,
        kind: QueryKind,
        param: u64,
        results: &[Neighbor],
        wall: Duration,
    ) -> QueryRecord {
        let mut record = QueryRecord::new(kind);
        record.param = param;
        record.dataset = self.dataset_size as u64;
        for stage in &self.stages {
            record.push_stage(stage.name, stage.evaluated as u64, stage.pruned as u64);
        }
        record.propt_iters = self.propt_iters;
        record.refined = self.refined as u64;
        record.refine_cutoffs = self.refine_cutoffs as u64;
        record.bands_skipped = self.refine_bands_skipped;
        record.zs_nodes = self.zs_nodes;
        record.results = self.results as u64;
        record.best = results.first().map(|n| n.distance);
        record.worst = results.last().map(|n| n.distance);
        record.wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        record
    }

    /// Divides accumulated counters by the number of queries.
    pub fn averaged(&self, queries: usize) -> AveragedStats {
        let q = queries.max(1) as f64;
        AveragedStats {
            queries,
            dataset_size: self.dataset_size,
            avg_refined: self.refined as f64 / q,
            avg_results: self.results as f64 / q,
            avg_accessed_percent: self.accessed_percent() / q,
            avg_result_percent: self.result_percent() / q,
            avg_filter_time: self.filter_time.div_f64(q),
            avg_refine_time: self.refine_time.div_f64(q),
            avg_stages: self
                .stages
                .iter()
                .map(|s| AveragedStage {
                    name: s.name,
                    avg_evaluated: s.evaluated as f64 / q,
                    avg_pruned: s.pruned as f64 / q,
                    avg_time: s.time.div_f64(q),
                })
                .collect(),
            latency: self.latency.clone(),
        }
    }
}

/// The span name and metric prefix of each query kind.
pub(crate) fn kind_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Knn => "engine.knn",
        QueryKind::Range => "engine.range",
        QueryKind::DynamicKnn => "dynamic.knn",
        QueryKind::DynamicRange => "dynamic.range",
        QueryKind::ShardedKnn => "shard.knn",
        QueryKind::ShardedRange => "shard.range",
    }
}

/// Registry handles of one query kind: its span histogram and what
/// [`SearchStats::flush`] feeds under its prefix.
pub(crate) struct KindMetrics {
    /// `<prefix>.us`, the query span's histogram.
    pub(crate) span_us: &'static Histogram,
    queries: &'static Counter,
    refined: &'static Counter,
    cutoffs: &'static Counter,
    results: &'static Counter,
    filter_us: &'static Histogram,
    refine_us: &'static Histogram,
}

impl KindMetrics {
    /// `kind`'s handles, resolved by its first query.
    pub(crate) fn of(kind: QueryKind) -> &'static KindMetrics {
        static KINDS: [OnceLock<KindMetrics>; QueryKind::ALL.len()] =
            [const { OnceLock::new() }; QueryKind::ALL.len()];
        KINDS[kind.index()].get_or_init(|| {
            let prefix = kind_name(kind);
            KindMetrics {
                span_us: histogram(&format!("{prefix}.us")),
                queries: counter(&format!("{prefix}.queries")),
                refined: counter(&format!("{prefix}.refined")),
                cutoffs: counter(&format!("{prefix}.cutoffs")),
                results: counter(&format!("{prefix}.results")),
                filter_us: histogram(&format!("{prefix}.filter.us")),
                refine_us: histogram(&format!("{prefix}.refine.us")),
            }
        })
    }
}

/// Registry handles of one cascade stage's funnel.
struct StageMetrics {
    evaluated: &'static Counter,
    pruned: &'static Counter,
    us: &'static Histogram,
}

impl StageMetrics {
    /// The handles of stage `name`, resolved by its first flush. Stage
    /// names come from [`CASCADE_STAGES`] (the metric-name contract); an
    /// unknown name counts as the generic `scan` stage, as its trace span
    /// does.
    fn of(name: &str) -> &'static StageMetrics {
        static STAGES: [OnceLock<StageMetrics>; CASCADE_STAGES.len()] =
            [const { OnceLock::new() }; CASCADE_STAGES.len()];
        let position = |wanted: &str| CASCADE_STAGES.iter().position(|&s| s == wanted);
        let index = position(name).or_else(|| position("scan")).unwrap_or(0);
        STAGES[index].get_or_init(|| {
            let stage = CASCADE_STAGES[index];
            StageMetrics {
                evaluated: counter(&format!("cascade.{stage}.evaluated")),
                pruned: counter(&format!("cascade.{stage}.pruned")),
                us: histogram(&format!("cascade.{stage}.us")),
            }
        })
    }
}

impl fmt::Display for StageStats {
    /// One funnel line: `stage   size: evaluated     60, pruned     40 (1.2µs)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {:>6}: evaluated {:>6}, pruned {:>6} ({:.1?})",
            self.name, self.evaluated, self.pruned, self.time
        )
    }
}

impl fmt::Display for SearchStats {
    /// The CLI/report rendering: a summary line, then — for multi-stage
    /// cascades — one indented funnel line per stage. No trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "-- {} results; accessed {}/{} trees ({:.2}%); filter {:.1?}, refine {:.1?}",
            self.results,
            self.refined,
            self.dataset_size,
            self.accessed_percent(),
            self.filter_time,
            self.refine_time,
        )?;
        if self.refine_cutoffs > 0 {
            write!(
                f,
                "; {} refinements cut off at τ ({} cells skipped)",
                self.refine_cutoffs, self.refine_bands_skipped,
            )?;
        }
        if !self.latency.is_empty() {
            write!(
                f,
                "; latency p50 {}µs, p90 {}µs, p99 {}µs",
                self.latency.p50_us(),
                self.latency.p90_us(),
                self.latency.p99_us(),
            )?;
        }
        if self.stages.len() > 1 {
            for stage in &self.stages {
                write!(f, "\n--   {stage}")?;
            }
        }
        Ok(())
    }
}

/// One cascade stage averaged over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedStage {
    /// Stage name.
    pub name: &'static str,
    /// Mean bounds computed per query at this stage.
    pub avg_evaluated: f64,
    /// Mean candidates pruned per query at this stage.
    pub avg_pruned: f64,
    /// Mean wall-clock per query at this stage.
    pub avg_time: Duration,
}

/// Workload-averaged statistics (the paper averages over 100 queries).
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedStats {
    /// Number of queries averaged over.
    pub queries: usize,
    /// Dataset size.
    pub dataset_size: usize,
    /// Mean number of refined (accessed) trees per query.
    pub avg_refined: f64,
    /// Mean result-set size per query.
    pub avg_results: f64,
    /// Mean accessed-data percentage per query.
    pub avg_accessed_percent: f64,
    /// Mean result percentage per query.
    pub avg_result_percent: f64,
    /// Mean filtering time per query.
    pub avg_filter_time: Duration,
    /// Mean refinement time per query.
    pub avg_refine_time: Duration,
    /// Mean per-stage cascade breakdown.
    pub avg_stages: Vec<AveragedStage>,
    /// The accumulated per-query latency distribution (quantiles are not
    /// averaged — they come straight from the accumulator's buckets).
    pub latency: LatencyBuckets,
}

impl AveragedStats {
    /// Mean total time per query.
    pub fn avg_total_time(&self) -> Duration {
        self.avg_filter_time + self.avg_refine_time
    }
}

impl fmt::Display for AveragedStage {
    /// One averaged funnel line:
    /// `stage   size: avg evaluated    400.00, avg pruned    340.00 (1.2µs)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {:>6}: avg evaluated {:>9.2}, avg pruned {:>9.2} ({:.1?})",
            self.name, self.avg_evaluated, self.avg_pruned, self.avg_time
        )
    }
}

impl fmt::Display for AveragedStats {
    /// Workload rendering: one summary line, then — for multi-stage
    /// cascades — one indented funnel line per stage. No trailing newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "-- {} queries over {} trees; avg accessed {:.2}% ({:.1} trees), avg results {:.1}; avg filter {:.1?}, avg refine {:.1?}",
            self.queries,
            self.dataset_size,
            self.avg_accessed_percent,
            self.avg_refined,
            self.avg_results,
            self.avg_filter_time,
            self.avg_refine_time,
        )?;
        if !self.latency.is_empty() {
            write!(
                f,
                "\n--   latency p50 {}µs, p90 {}µs, p99 {}µs (max {}µs over {} samples)",
                self.latency.p50_us(),
                self.latency.p90_us(),
                self.latency.p99_us(),
                self.latency.max_us(),
                self.latency.count(),
            )?;
        }
        if self.avg_stages.len() > 1 {
            for stage in &self.avg_stages {
                write!(f, "\n--   {stage}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessed_percent_basic() {
        let stats = SearchStats {
            dataset_size: 200,
            refined: 10,
            results: 5,
            ..Default::default()
        };
        assert!((stats.accessed_percent() - 5.0).abs() < 1e-12);
        assert!((stats.result_percent() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_zero_percent() {
        let stats = SearchStats::default();
        assert_eq!(stats.accessed_percent(), 0.0);
        assert_eq!(stats.result_percent(), 0.0);
        assert_eq!(stats.final_stage_evaluated(), 0);
    }

    #[test]
    fn accumulate_and_average() {
        let mut total = SearchStats::default();
        for refined in [10, 20] {
            total.accumulate(&SearchStats {
                dataset_size: 100,
                refined,
                results: 5,
                filter_time: Duration::from_millis(2),
                refine_time: Duration::from_millis(8),
                ..Default::default()
            });
        }
        assert_eq!(total.refined, 30);
        assert_eq!(total.dataset_size, 100);
        let averaged = total.averaged(2);
        assert!((averaged.avg_refined - 15.0).abs() < 1e-12);
        assert!((averaged.avg_accessed_percent - 15.0).abs() < 1e-12);
        assert_eq!(averaged.avg_total_time(), Duration::from_millis(10));
    }

    #[test]
    fn accumulate_merges_stages() {
        let per_query = |evaluated, pruned| SearchStats {
            dataset_size: 50,
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated,
                    pruned,
                    time: Duration::from_micros(3),
                },
                StageStats {
                    name: "propt",
                    evaluated: evaluated - pruned,
                    pruned: 1,
                    time: Duration::from_micros(9),
                },
            ],
            ..Default::default()
        };
        let mut total = SearchStats::default();
        total.accumulate(&per_query(50, 30));
        total.accumulate(&per_query(50, 10));
        assert_eq!(total.stages[0].evaluated, 100);
        assert_eq!(total.stages[0].pruned, 40);
        assert_eq!(total.stages[1].evaluated, 60);
        assert_eq!(total.final_stage_evaluated(), 60);
        assert_eq!(total.stages[0].survivors(), 60);
        let averaged = total.averaged(2);
        assert_eq!(averaged.avg_stages.len(), 2);
        assert!((averaged.avg_stages[0].avg_evaluated - 50.0).abs() < 1e-12);
        assert!((averaged.avg_stages[1].avg_pruned - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_cutoff_fields_and_display_reports_them() {
        let mut total = SearchStats::default();
        for (cutoffs, bands) in [(3usize, 40u64), (2, 17)] {
            total.accumulate(&SearchStats {
                dataset_size: 100,
                refined: 10,
                refine_cutoffs: cutoffs,
                refine_bands_skipped: bands,
                zs_nodes: bands * 2,
                propt_iters: bands + 1,
                ..Default::default()
            });
        }
        assert_eq!(total.refine_cutoffs, 5);
        assert_eq!(total.refine_bands_skipped, 57);
        assert_eq!((total.zs_nodes, total.propt_iters), (114, 59));
        let rendered = format!("{total}");
        assert!(
            rendered.contains("5 refinements cut off") && rendered.contains("57 cells skipped"),
            "missing cutoff clause in: {rendered}"
        );
        // The clause is omitted entirely when no refinement was cut off.
        let quiet = format!("{}", SearchStats::default());
        assert!(!quiet.contains("cut off"));
    }

    #[test]
    #[should_panic(expected = "different datasets")]
    fn accumulate_rejects_mixed_datasets() {
        let mut total = SearchStats {
            dataset_size: 10,
            ..Default::default()
        };
        total.accumulate(&SearchStats {
            dataset_size: 20,
            ..Default::default()
        });
    }

    #[test]
    fn display_renders_summary_and_funnel() {
        let stats = SearchStats {
            dataset_size: 200,
            refined: 10,
            refine_cutoffs: 0,
            refine_bands_skipped: 0,
            zs_nodes: 0,
            propt_iters: 0,
            results: 5,
            filter_time: Duration::from_micros(120),
            refine_time: Duration::from_micros(480),
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated: 200,
                    pruned: 150,
                    time: Duration::from_micros(20),
                },
                StageStats {
                    name: "propt",
                    evaluated: 50,
                    pruned: 40,
                    time: Duration::from_micros(100),
                },
            ],
            threads: 1,
            latency: LatencyBuckets::default(),
        };
        let rendered = format!("{stats}");
        assert!(rendered.starts_with("-- 5 results; accessed 10/200 trees (5.00%)"));
        assert!(rendered.contains("stage   size: evaluated    200, pruned    150"));
        assert!(rendered.contains("stage  propt: evaluated     50, pruned     40"));
        assert!(!rendered.ends_with('\n'));

        // Single-stage engines render just the summary line.
        let mut flat = stats.clone();
        flat.stages.truncate(1);
        assert!(!format!("{flat}").contains("stage"));

        let averaged = stats.averaged(2);
        let rendered = format!("{averaged}");
        assert!(rendered.starts_with("-- 2 queries over 200 trees"));
        assert!(rendered.contains("avg evaluated    100.00"));
        assert!(rendered.contains("avg pruned     20.00"));
    }

    #[test]
    fn flush_and_flight_record_project_the_stats() {
        // Handles resolve once per kind and per stage, under the names the
        // per-query format! calls used to build.
        for kind in QueryKind::ALL {
            let metrics = KindMetrics::of(kind);
            assert!(std::ptr::eq(metrics, KindMetrics::of(kind)));
            assert_eq!(
                metrics.queries.name(),
                format!("{}.queries", kind_name(kind))
            );
            assert_eq!(metrics.span_us.name(), format!("{}.us", kind_name(kind)));
        }
        assert_eq!(
            StageMetrics::of("propt").evaluated.name(),
            "cascade.propt.evaluated"
        );
        assert_eq!(
            StageMetrics::of("unknown").pruned.name(),
            "cascade.scan.pruned"
        );

        let stats = SearchStats {
            dataset_size: 100,
            refined: 7,
            refine_cutoffs: 2,
            refine_bands_skipped: 40,
            zs_nodes: 90,
            propt_iters: 33,
            results: 3,
            stages: vec![
                StageStats {
                    name: "size",
                    evaluated: 100,
                    pruned: 80,
                    time: Duration::from_micros(5),
                },
                StageStats {
                    name: "propt",
                    evaluated: 20,
                    pruned: 13,
                    time: Duration::from_micros(15),
                },
            ],
            ..Default::default()
        };
        let before = treesim_obs::metrics::snapshot();
        stats.flush(QueryKind::DynamicRange);
        let after = treesim_obs::metrics::snapshot();
        // Engine tests running in parallel bump the same registry, so
        // deltas are lower bounds here (obs_metrics.rs checks them exactly).
        for (name, at_least) in [
            ("dynamic.range.queries", 1),
            ("dynamic.range.refined", 7),
            ("dynamic.range.cutoffs", 2),
            ("dynamic.range.results", 3),
            ("cascade.size.evaluated", 100),
            ("cascade.propt.pruned", 13),
            ("refine.bounded.cutoffs", 2),
            ("refine.bounded.bands_skipped", 40),
        ] {
            assert!(after.counter_delta(&before, name) >= at_least, "{name}");
        }
        assert!(after
            .histogram("dynamic.range.filter.us")
            .is_some_and(|h| h.count >= 1));

        let neighbors = [
            Neighbor {
                tree: treesim_tree::TreeId(4),
                distance: 1,
            },
            Neighbor {
                tree: treesim_tree::TreeId(2),
                distance: 5,
            },
        ];
        let record = stats.flight_record(
            QueryKind::DynamicRange,
            9,
            &neighbors,
            Duration::from_micros(77),
        );
        assert_eq!(record.kind, QueryKind::DynamicRange);
        assert_eq!((record.param, record.dataset), (9, 100));
        assert_eq!(
            record
                .stages()
                .iter()
                .map(|s| (s.name, s.evaluated, s.pruned))
                .collect::<Vec<_>>(),
            vec![("size", 100, 80), ("propt", 20, 13)]
        );
        assert_eq!(
            (
                record.propt_iters,
                record.refined,
                record.refine_cutoffs,
                record.bands_skipped,
                record.zs_nodes,
                record.results
            ),
            (33, 7, 2, 40, 90, 3)
        );
        assert_eq!((record.best, record.worst), (Some(1), Some(5)));
        assert_eq!(record.wall_us, 77);
    }

    #[test]
    fn accumulate_builds_latency_distribution() {
        let mut total = SearchStats::default();
        assert!(total.latency.is_empty());
        // 9 fast queries (~100µs) and one slow outlier (~100ms).
        for _ in 0..9 {
            total.accumulate(&SearchStats {
                dataset_size: 50,
                filter_time: Duration::from_micros(40),
                refine_time: Duration::from_micros(60),
                ..Default::default()
            });
        }
        total.accumulate(&SearchStats {
            dataset_size: 50,
            refine_time: Duration::from_millis(100),
            ..Default::default()
        });
        assert_eq!(total.latency.count(), 10);
        assert_eq!(total.latency.max_us(), 100_000);
        // p50/p90 land in the fast bucket (log₂ upper edge ≥ the 100µs
        // sample), p99 is the outlier clamped to the observed max.
        assert!(total.latency.p50_us() >= 100 && total.latency.p50_us() < 100_000);
        assert_eq!(total.latency.p90_us(), total.latency.p50_us());
        assert_eq!(total.latency.p99_us(), 100_000);

        // Merging two accumulators combines distributions.
        let mut grand = SearchStats::default();
        grand.accumulate(&total);
        grand.accumulate(&total);
        assert_eq!(grand.latency.count(), 20);
        assert_eq!(grand.latency.p99_us(), 100_000);

        // The averaged view carries the distribution and renders it.
        let averaged = total.averaged(10);
        let rendered = format!("{averaged}");
        assert!(rendered.contains("latency p50"), "{rendered}");
        assert!(rendered.contains("p99 100000µs"), "{rendered}");

        // Per-query stats (empty buckets) never render a latency clause.
        assert!(!format!("{}", SearchStats::default()).contains("latency"));
        let rendered = format!("{total}");
        assert!(rendered.contains("latency p50"), "{rendered}");
    }

    #[test]
    fn latency_quantiles_edge_cases() {
        let empty = LatencyBuckets::default();
        assert_eq!(empty.quantile_us(0.5), 0);
        assert_eq!(empty.count(), 0);
        let mut one = LatencyBuckets::default();
        one.record_micros(250);
        assert_eq!(one.p50_us(), 250);
        assert_eq!(one.p99_us(), 250);
        assert_eq!(one.quantile_us(0.0), 250); // rank clamps to 1
        assert_eq!(one.quantile_us(1.0), 250);
    }

    #[test]
    fn accumulate_tracks_thread_pool_size() {
        let mut total = SearchStats::default();
        assert_eq!(total.threads, 1);
        total.accumulate(&SearchStats {
            dataset_size: 5,
            threads: 4,
            ..Default::default()
        });
        assert_eq!(total.threads, 4);
    }
}
