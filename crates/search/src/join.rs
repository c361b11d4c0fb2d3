//! Approximate similarity join — one of the operations the paper's
//! introduction motivates (approximate join, data cleansing, integration).
//!
//! A τ-join reports every pair of trees within edit distance τ. The
//! filter-and-refine strategy applies per pair: the O(1) size bound, then
//! the filter's lower bound (Proposition 4.2 pruning for the binary branch
//! filter), and only then the refinement — which runs the *bounded*
//! Zhang–Shasha DP ([`treesim_edit::bounded_zhang_shasha`]) with the join
//! radius (or, for [`closest_pairs`], the running k-th pair distance) as
//! its budget, so pairs whose distance provably exceeds the threshold
//! abandon the DP early without changing any result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use treesim_edit::{bounded_zhang_shasha, TreeInfo, UnitCost, ZsWorkspace};
use treesim_tree::{Forest, TreeId};

use crate::filter::Filter;

/// One join result: a pair of trees within the join radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPair {
    /// The pair. For self-joins, `left < right`. For cross-joins the pair
    /// keeps its (left-partition, right-partition) orientation — except
    /// that self-pairs (`l == r`) are never emitted, and when the
    /// partitions overlap so that *both* orientations of a pair qualify,
    /// only the `left < right` copy is reported.
    pub left: TreeId,
    /// Right partner.
    pub right: TreeId,
    /// Exact edit distance (≤ τ).
    pub distance: u64,
}

/// Counters describing the join's filtering effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate pairs considered (after the trivial size pre-filter).
    pub pairs_considered: usize,
    /// Pairs surviving the filter (refinement DPs started).
    pub pairs_refined: usize,
    /// Pairs in the result.
    pub pairs_joined: usize,
    /// Refinements the bounded DP cut off at the live threshold without
    /// producing an exact distance (counted in `pairs_refined` too).
    pub pairs_cutoff: usize,
    /// DP cells the bounded refinement skipped across all pairs (band +
    /// subproblem pruning).
    pub cells_skipped: u64,
}

impl JoinStats {
    /// Fraction of considered pairs that needed refinement.
    pub fn refine_fraction(&self) -> f64 {
        if self.pairs_considered == 0 {
            0.0
        } else {
            self.pairs_refined as f64 / self.pairs_considered as f64
        }
    }

    /// Flushes the counters into the global `treesim-obs` registry under
    /// `prefix` (the join operations record as `"join"`), following the
    /// `treesim_obs::naming` grammar: `{prefix}.queries` counts join
    /// invocations, `{prefix}.pairs.{considered,refined,joined,cutoffs}`
    /// mirror the per-call fields, and `{prefix}.cells_skipped` totals the
    /// bounded-DP savings.
    pub fn record_into(&self, prefix: &str) {
        use treesim_obs::metrics::counter;
        counter(&format!("{prefix}.queries")).inc();
        counter(&format!("{prefix}.pairs.considered")).add(self.pairs_considered as u64);
        counter(&format!("{prefix}.pairs.refined")).add(self.pairs_refined as u64);
        counter(&format!("{prefix}.pairs.joined")).add(self.pairs_joined as u64);
        counter(&format!("{prefix}.pairs.cutoffs")).add(self.pairs_cutoff as u64);
        counter(&format!("{prefix}.cells_skipped")).add(self.cells_skipped);
    }
}

/// Memoizes `TreeInfo::new(forest.tree(id))` in `infos[id]`, so only
/// trees that actually reach a refinement pay artifact construction.
fn ensure_info(infos: &mut [Option<TreeInfo>], forest: &Forest, id: TreeId) {
    if infos[id.index()].is_none() {
        infos[id.index()] = Some(TreeInfo::new(forest.tree(id)));
    }
}

/// Similarity self-join: all unordered pairs `{i, j}` with
/// `EDist(Ti, Tj) ≤ tau`, reported with `left < right`.
///
/// # Examples
///
/// ```
/// use treesim_search::{similarity_self_join, BiBranchFilter, BiBranchMode};
/// use treesim_tree::Forest;
///
/// let mut forest = Forest::new();
/// forest.parse_bracket("a(b c)").unwrap();
/// forest.parse_bracket("a(b d)").unwrap(); // 1 edit away from the first
/// forest.parse_bracket("x(y z w)").unwrap();
///
/// let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
/// let (pairs, stats) = similarity_self_join(&forest, &filter, 1);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].distance, 1);
/// assert!(stats.pairs_refined <= stats.pairs_considered);
/// ```
pub fn similarity_self_join<F: Filter>(
    forest: &Forest,
    filter: &F,
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span (the span must close before the trace finalizes);
    // inert when an enclosing trace is already live.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!("join.self", tau = tau, trees = forest.len());
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    join_partitions(forest, filter, &ids, None, tau)
}

/// Similarity join between two id sets over the same forest (e.g., two
/// sources loaded into one label space for data integration):
/// all pairs `(l, r)` with `l ∈ left`, `r ∈ right`, `EDist ≤ tau`.
pub fn similarity_join<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: &[TreeId],
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span, as in `similarity_self_join`.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!(
        "join.cross",
        tau = tau,
        left = left.len(),
        right = right.len()
    );
    join_partitions(forest, filter, left, Some(right), tau)
}

/// The `k` closest pairs of distinct trees (a top-k self-join): optimal
/// multi-step over pair lower bounds, refining in ascending-bound order and
/// stopping once no remaining pair can beat the current k-th distance.
///
/// The pair bounds are *heapified*, not fully sorted — only the pairs
/// actually popped before the stop condition pay ordering cost — and
/// [`TreeInfo`] artifacts are built lazily, only for trees that reach a
/// refinement. Each refinement runs the bounded DP with the running k-th
/// pair distance as its budget, so provably-worse pairs abandon early.
pub fn closest_pairs<F: Filter>(
    forest: &Forest,
    filter: &F,
    k: usize,
) -> (Vec<JoinPair>, JoinStats) {
    // Trace before span, as in `similarity_self_join`.
    let _trace = treesim_obs::trace::start_trace();
    let _span = treesim_obs::span!("join.closest", k = k, trees = forest.len());
    let mut stats = JoinStats::default();
    if k == 0 || forest.len() < 2 {
        stats.record_into("join");
        return (Vec::new(), stats);
    }
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    // Pair lower bounds (each query artifact prepared once). `Reverse`
    // makes the max-heap pop in ascending (bound, l, r) order — the same
    // order the previous full sort visited, so results and refinement
    // counts are identical.
    let mut bounds: Vec<Reverse<(u64, TreeId, TreeId)>> = Vec::new();
    for (position, &l) in ids.iter().enumerate() {
        let query = filter.prepare_query(forest.tree(l));
        for &r in &ids[position + 1..] {
            bounds.push(Reverse((filter.lower_bound(&query, r), l, r)));
            stats.pairs_considered += 1;
        }
    }
    let mut frontier = BinaryHeap::from(bounds);

    let mut infos: Vec<Option<TreeInfo>> = (0..forest.len()).map(|_| None).collect();
    let mut workspace = ZsWorkspace::new();
    let mut heap: BinaryHeap<(u64, TreeId, TreeId)> = BinaryHeap::with_capacity(k + 1);
    while let Some(Reverse((bound, l, r))) = frontier.pop() {
        // The running k-th distance is both the optimal multi-step stop
        // condition and the refinement budget. Equal distances must still
        // refine exactly: a pair at `worst` can evict the incumbent on the
        // (distance, l, r) tie-break, and `bounded_zhang_shasha` returns
        // the exact distance whenever it is ≤ the budget.
        let budget = match heap.peek() {
            Some(&(worst, _, _)) if heap.len() == k => {
                if bound > worst {
                    break;
                }
                worst
            }
            _ => u64::MAX,
        };
        ensure_info(&mut infos, forest, l);
        ensure_info(&mut infos, forest, r);
        let (Some(info_l), Some(info_r)) = (infos[l.index()].as_ref(), infos[r.index()].as_ref())
        else {
            continue; // unreachable: both slots were just memoized
        };
        let (refined, bstats) =
            bounded_zhang_shasha(info_l, info_r, &UnitCost, budget, &mut workspace);
        stats.pairs_refined += 1;
        stats.cells_skipped += bstats.cells_skipped;
        #[cfg(feature = "strict-checks")]
        {
            let oracle = treesim_edit::zhang_shasha(info_l, info_r, &UnitCost, &mut workspace);
            match refined {
                Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
                None => debug_assert!(oracle > budget, "false dismissal: {oracle} <= {budget}"),
            }
        }
        match refined {
            Some(distance) => {
                heap.push((distance, l, r));
                if heap.len() > k {
                    heap.pop();
                }
            }
            None => stats.pairs_cutoff += 1,
        }
    }
    let mut results: Vec<JoinPair> = heap
        .into_iter()
        .map(|(distance, left, right)| JoinPair {
            left,
            right,
            distance,
        })
        .collect();
    results.sort_unstable_by_key(|p| (p.distance, p.left, p.right));
    stats.pairs_joined = results.len();
    stats.record_into("join");
    (results, stats)
}

fn join_partitions<F: Filter>(
    forest: &Forest,
    filter: &F,
    left: &[TreeId],
    right: Option<&[TreeId]>,
    tau: u32,
) -> (Vec<JoinPair>, JoinStats) {
    let sizes: Vec<u64> = forest.iter().map(|(_, t)| t.len() as u64).collect();
    let mut infos: Vec<Option<TreeInfo>> = (0..forest.len()).map(|_| None).collect();
    let mut workspace = ZsWorkspace::new();
    let mut stats = JoinStats::default();
    let mut results = Vec::new();

    // Overlapping cross-join partitions can present the same unordered
    // pair in both orientations; membership masks detect that case so the
    // mirrored copy is skipped before it is even counted.
    let membership: Option<(Vec<bool>, Vec<bool>)> = right.map(|right_ids| {
        let mut in_left = vec![false; forest.len()];
        for &id in left {
            in_left[id.index()] = true;
        }
        let mut in_right = vec![false; forest.len()];
        for &id in right_ids {
            in_right[id.index()] = true;
        }
        (in_left, in_right)
    });

    for (position, &l) in left.iter().enumerate() {
        let query = filter.prepare_query(forest.tree(l));
        // Self-join: only partners after `l` in the id list; cross-join:
        // the whole right side.
        let partners: &[TreeId] = match right {
            Some(r) => r,
            None => &left[position + 1..],
        };
        for &r in partners {
            if r == l {
                continue;
            }
            if let Some((in_left, in_right)) = &membership {
                // Both orientations of this pair qualify for emission;
                // keep only the `left < right` copy.
                if l > r && in_right[l.index()] && in_left[r.index()] {
                    continue;
                }
            }
            // Trivial size pre-filter (EDist ≥ | |T1|−|T2| |).
            if sizes[l.index()].abs_diff(sizes[r.index()]) > u64::from(tau) {
                continue;
            }
            stats.pairs_considered += 1;
            if filter.prunes_range(&query, r, tau) {
                continue;
            }
            stats.pairs_refined += 1;
            ensure_info(&mut infos, forest, l);
            ensure_info(&mut infos, forest, r);
            let (Some(info_l), Some(info_r)) =
                (infos[l.index()].as_ref(), infos[r.index()].as_ref())
            else {
                continue; // unreachable: both slots were just memoized
            };
            // The join radius is the refinement budget: `Some(d)` iff
            // `d ≤ τ`, so every completed refinement is a join result.
            let (refined, bstats) =
                bounded_zhang_shasha(info_l, info_r, &UnitCost, u64::from(tau), &mut workspace);
            stats.cells_skipped += bstats.cells_skipped;
            #[cfg(feature = "strict-checks")]
            {
                let oracle = treesim_edit::zhang_shasha(info_l, info_r, &UnitCost, &mut workspace);
                match refined {
                    Some(d) => debug_assert_eq!(d, oracle, "bounded DP disagrees with oracle"),
                    None => debug_assert!(
                        oracle > u64::from(tau),
                        "false dismissal: {oracle} <= {tau}"
                    ),
                }
            }
            match refined {
                Some(distance) => {
                    stats.pairs_joined += 1;
                    let (a, b) = if right.is_none() && r < l {
                        (r, l)
                    } else {
                        (l, r)
                    };
                    results.push(JoinPair {
                        left: a,
                        right: b,
                        distance,
                    });
                }
                None => stats.pairs_cutoff += 1,
            }
        }
    }
    results.sort_unstable_by_key(|p| (p.left, p.right));
    stats.record_into("join");
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{BiBranchFilter, BiBranchMode, HistogramFilter, NoFilter};
    use treesim_edit::edit_distance;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b(c(d)) b e)", // duplicate of 0
            "x(y z)",
            "a(b c)",
            "a(b(c(d)) b e f)",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn brute_force_pairs(forest: &Forest, tau: u32) -> Vec<(TreeId, TreeId, u64)> {
        let mut out = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j <= i {
                    continue;
                }
                let d = edit_distance(t1, t2);
                if d <= u64::from(tau) {
                    out.push((i, j, d));
                }
            }
        }
        out
    }

    #[test]
    fn self_join_matches_brute_force() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for tau in [0u32, 1, 2, 4] {
            let (pairs, stats) = similarity_self_join(&forest, &filter, tau);
            let expected = brute_force_pairs(&forest, tau);
            let got: Vec<(TreeId, TreeId, u64)> = pairs
                .iter()
                .map(|p| (p.left, p.right, p.distance))
                .collect();
            assert_eq!(got, expected, "τ={tau}");
            assert_eq!(stats.pairs_joined, expected.len());
            assert!(stats.pairs_refined <= stats.pairs_considered);
        }
    }

    #[test]
    fn zero_tau_finds_duplicates() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let (pairs, _) = similarity_self_join(&forest, &filter, 0);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].left, pairs[0].right), (TreeId(0), TreeId(2)));
    }

    #[test]
    fn filter_reduces_refinements() {
        let forest = forest();
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let none = NoFilter::build(&forest);
        let (_, with_filter) = similarity_self_join(&forest, &bibranch, 1);
        let (_, without) = similarity_self_join(&forest, &none, 1);
        assert!(with_filter.pairs_refined < without.pairs_refined);
        assert_eq!(with_filter.pairs_joined, without.pairs_joined);
        assert!(with_filter.refine_fraction() <= 1.0);
    }

    #[test]
    fn cross_join_partitions() {
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        let left = [TreeId(0), TreeId(1)];
        let right = [TreeId(2), TreeId(3), TreeId(5)];
        let (pairs, _) = similarity_join(&forest, &filter, &left, &right, 2);
        // Verify against direct computation.
        for pair in &pairs {
            assert!(left.contains(&pair.left));
            assert!(right.contains(&pair.right));
            assert_eq!(
                pair.distance,
                edit_distance(forest.tree(pair.left), forest.tree(pair.right))
            );
            assert!(pair.distance <= 2);
        }
        // (0,2) duplicate pair at distance 0, (1,2)? EDist(1,2)=1, (0,5) d=1, (1,5) d=2.
        assert!(pairs
            .iter()
            .any(|p| p.left == TreeId(0) && p.right == TreeId(2) && p.distance == 0));
        assert!(pairs
            .iter()
            .any(|p| p.left == TreeId(0) && p.right == TreeId(5) && p.distance == 1));
    }

    #[test]
    fn empty_partitions() {
        let forest = forest();
        let filter = NoFilter::build(&forest);
        let (pairs, stats) = similarity_join(&forest, &filter, &[], &[TreeId(0)], 3);
        assert!(pairs.is_empty());
        assert_eq!(stats.pairs_considered, 0);
        assert_eq!(stats.refine_fraction(), 0.0);
    }

    #[test]
    fn overlapping_partitions_dedup_and_skip_self_pairs() {
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        let left = [TreeId(0), TreeId(1), TreeId(2)];
        let right = [TreeId(1), TreeId(2), TreeId(3), TreeId(0)];
        let (pairs, stats) = similarity_join(&forest, &filter, &left, &right, 4);
        // Never a self-pair, and each unordered pair appears exactly once.
        assert!(pairs.iter().all(|p| p.left != p.right));
        let mut unordered: Vec<(TreeId, TreeId)> = pairs
            .iter()
            .map(|p| (p.left.min(p.right), p.left.max(p.right)))
            .collect();
        let emitted = unordered.len();
        unordered.sort_unstable();
        unordered.dedup();
        assert_eq!(emitted, unordered.len(), "duplicate orientations emitted");
        // Pairs whose mirror also qualifies are reported `left < right`.
        for p in &pairs {
            if right.contains(&p.left) && left.contains(&p.right) {
                assert!(p.left < p.right);
            }
        }
        // The normalized result set matches brute force over all
        // qualifying unordered pairs.
        let mut expected: Vec<(TreeId, TreeId, u64)> = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j <= i {
                    continue;
                }
                let qualifies = (left.contains(&i) && right.contains(&j))
                    || (left.contains(&j) && right.contains(&i));
                if !qualifies {
                    continue;
                }
                let d = edit_distance(t1, t2);
                if d <= 4 {
                    expected.push((i, j, d));
                }
            }
        }
        expected.sort_unstable();
        let mut got: Vec<(TreeId, TreeId, u64)> = pairs
            .iter()
            .map(|p| (p.left.min(p.right), p.left.max(p.right), p.distance))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(stats.pairs_refined <= stats.pairs_considered);
    }

    #[test]
    fn join_counts_cutoffs_and_records_registry_counters() {
        // The `join.*` registry deltas are asserted in the single-test
        // `tests/join_registry.rs` binary: sibling tests here bump the
        // same process-global counters in parallel.
        let forest = forest();
        let filter = NoFilter::build(&forest);
        let (pairs, stats) = similarity_self_join(&forest, &filter, 1);
        // NoFilter sends every size-compatible pair to refinement; at τ=1
        // most exceed the radius, so the bounded DP cuts them off — and a
        // completed refinement is always a join result (`Some(d)` ⇔ d ≤ τ).
        assert!(stats.pairs_cutoff > 0);
        assert_eq!(stats.pairs_refined, stats.pairs_joined + stats.pairs_cutoff);
        assert_eq!(stats.pairs_joined, pairs.len());
    }

    #[test]
    fn closest_pairs_match_brute_force() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        // Brute-force all pair distances.
        let mut all: Vec<(u64, TreeId, TreeId)> = Vec::new();
        for (i, t1) in forest.iter() {
            for (j, t2) in forest.iter() {
                if j > i {
                    all.push((edit_distance(t1, t2), i, j));
                }
            }
        }
        all.sort_unstable();
        for k in [1usize, 3, 5, all.len()] {
            let (pairs, stats) = closest_pairs(&forest, &filter, k);
            // Exact tuples, not just distances: the lazy-artifact +
            // heapified-frontier implementation must reproduce the eager
            // sort's output bit for bit, ties included.
            let got: Vec<(u64, TreeId, TreeId)> = pairs
                .iter()
                .map(|p| (p.distance, p.left, p.right))
                .collect();
            let want: Vec<(u64, TreeId, TreeId)> = all.iter().take(k).copied().collect();
            assert_eq!(got, want, "k={k}");
            assert!(stats.pairs_refined <= stats.pairs_considered);
        }
    }

    #[test]
    fn closest_pairs_edge_cases() {
        let forest = forest();
        let filter = NoFilter::build(&forest);
        assert!(closest_pairs(&forest, &filter, 0).0.is_empty());
        let mut tiny = Forest::new();
        tiny.parse_bracket("a").unwrap();
        let tiny_filter = NoFilter::build(&tiny);
        assert!(closest_pairs(&tiny, &tiny_filter, 3).0.is_empty());
    }
}
