//! A mutable, self-contained index: trees can be appended over time and
//! queried immediately — the shape a production ingest pipeline needs,
//! complementing the immutable [`crate::SearchEngine`] (build once, query
//! many).
//!
//! The index is a [`Forest`], a growable [`PostingsFilter`] and the
//! per-tree Zhang–Shasha tables. Appending a tree costs one branch
//! extraction (`O(|T|)`), one posting-list append per distinct branch
//! (tree ids only ever grow, so every list stays a sorted run), one CSR
//! arena segment and the Zhang–Shasha precomputation — never a rebuild.
//! Queries run the static engine's own query core over that filter, so
//! results **and** the four-stage `postings → size → bdist → propt`
//! funnel equal an engine rebuilt from scratch (tested after every push).

use treesim_core::VectorArena;
use treesim_edit::{TreeInfo, UnitCost};
use treesim_obs::QueryKind;
use treesim_tree::{Forest, LabelInterner, Tree, TreeId};

use crate::engine::{observe, Neighbor, QueryCore};
use crate::filter::PostingsFilter;
use crate::stats::SearchStats;

/// An appendable similarity index over rooted, ordered, labeled trees.
///
/// # Examples
///
/// ```
/// use treesim_search::DynamicIndex;
///
/// let mut index = DynamicIndex::new(2);
/// index.push_bracket("a(b c)").unwrap();
/// index.push_bracket("a(b d)").unwrap();
///
/// let query = index.forest().tree(treesim_tree::TreeId(0));
/// let (hits, _) = index.knn(query, 2);
/// assert_eq!(hits[0].distance, 0);
/// assert_eq!(hits[1].distance, 1);
/// ```
pub struct DynamicIndex {
    forest: Forest,
    filter: PostingsFilter,
    infos: Vec<TreeInfo>,
}

impl DynamicIndex {
    /// Creates an empty index with q-level binary branches.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    pub fn new(q: usize) -> Self {
        DynamicIndex {
            forest: Forest::new(),
            filter: PostingsFilter::new(q),
            infos: Vec::new(),
        }
    }

    /// Bulk-loads an existing forest.
    pub fn from_forest(forest: Forest, q: usize) -> Self {
        let mut index = DynamicIndex::new(q);
        *index.forest.interner_mut() = forest.interner().clone();
        for (_, tree) in forest.iter() {
            index.push(tree.clone());
        }
        index
    }

    /// Number of indexed trees.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    /// The underlying dataset.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The shared label interner (intern query labels through this).
    pub fn interner_mut(&mut self) -> &mut LabelInterner {
        self.forest.interner_mut()
    }

    /// The CSR arena mirroring the pushed vectors (one segment per push).
    pub fn arena(&self) -> &VectorArena {
        self.filter.arena()
    }

    /// Appends a tree (labels must come from this index's interner) and
    /// returns its id. The tree is immediately searchable.
    ///
    /// Observability: bumps the `dynamic.push` counter, keeps the
    /// `dynamic.trees` gauge at the index size, and records the append
    /// cost (vectorization + Zhang–Shasha tables) in `dynamic.push.us`.
    pub fn push(&mut self, tree: Tree) -> TreeId {
        let _span = treesim_obs::span!("dynamic.push", nodes = tree.len());
        treesim_obs::counter!("dynamic.push").inc();
        self.filter.push(&tree);
        self.infos.push(TreeInfo::new(&tree));
        let id = self.forest.push(tree);
        treesim_obs::gauge!("dynamic.trees").set(self.len() as i64);
        id
    }

    /// Parses and appends a bracket-notation tree.
    ///
    /// # Errors
    ///
    /// Propagates parser errors.
    pub fn push_bracket(&mut self, spec: &str) -> Result<TreeId, treesim_tree::ParseError> {
        let tree = {
            let mut interner = self.forest.interner().clone();
            let tree = treesim_tree::parse::bracket::parse(&mut interner, spec)?;
            *self.forest.interner_mut() = interner;
            tree
        };
        Ok(self.push(tree))
    }

    /// The shared query core over this index's filter and tables.
    fn core(&self) -> QueryCore<'_, PostingsFilter, UnitCost> {
        QueryCore {
            filter: &self.filter,
            infos: &self.infos,
            cost: &UnitCost,
        }
    }

    /// k-nearest neighbors of `query` (same semantics, results and funnel
    /// as [`crate::SearchEngine::knn`] over a [`PostingsFilter`], including
    /// smallest-id tie-breaking), emitted under the `dynamic.knn` span and
    /// metric prefix.
    pub fn knn(&self, query: &Tree, k: usize) -> (Vec<Neighbor>, SearchStats) {
        observe(QueryKind::DynamicKnn, k as u64, self.len(), None, || {
            self.core().knn(query, k, &mut ())
        })
    }

    /// Range query (same semantics as [`crate::SearchEngine::range`]),
    /// emitted under the `dynamic.range` span and metric prefix.
    pub fn range(&self, query: &Tree, tau: u32) -> (Vec<Neighbor>, SearchStats) {
        observe(
            QueryKind::DynamicRange,
            u64::from(tau),
            self.len(),
            None,
            || self.core().range(query, tau, &mut ()),
        )
    }
}

impl std::fmt::Debug for DynamicIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicIndex")
            .field("trees", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::filter::{BiBranchFilter, BiBranchMode};

    fn specs() -> Vec<&'static str> {
        vec![
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
            "q(r(s))",
        ]
    }

    #[test]
    fn matches_static_engine_after_incremental_loads() {
        let mut dynamic = DynamicIndex::new(2);
        let mut forest = Forest::new();
        for spec in specs() {
            dynamic.push_bracket(spec).unwrap();
            forest.parse_bracket(spec).unwrap();

            // After EVERY insert, results must match a from-scratch engine.
            let engine = SearchEngine::new(
                &forest,
                BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            );
            for (_, query) in forest.iter() {
                let (a, _) = dynamic.knn(query, 3);
                let (b, _) = engine.knn(query, 3);
                let av: Vec<u64> = a.iter().map(|n| n.distance).collect();
                let bv: Vec<u64> = b.iter().map(|n| n.distance).collect();
                assert_eq!(av, bv);
                for tau in [0u32, 1, 3] {
                    let (ra, _) = dynamic.range(query, tau);
                    let (rb, _) = engine.range(query, tau);
                    assert_eq!(
                        ra.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>(),
                        rb.iter().map(|n| (n.tree, n.distance)).collect::<Vec<_>>()
                    );
                }
            }
        }
        assert_eq!(dynamic.len(), specs().len());
        assert!(!dynamic.is_empty());
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let mut forest = Forest::new();
        for spec in specs() {
            forest.parse_bracket(spec).unwrap();
        }
        let bulk = DynamicIndex::from_forest(forest.clone(), 2);
        let mut incremental = DynamicIndex::new(2);
        for spec in specs() {
            incremental.push_bracket(spec).unwrap();
        }
        let query = forest.tree(TreeId(0));
        let a: Vec<u64> = bulk.knn(query, 4).0.iter().map(|n| n.distance).collect();
        let b: Vec<u64> = incremental
            .knn(query, 4)
            .0
            .iter()
            .map(|n| n.distance)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_index_behaves() {
        let index = DynamicIndex::new(2);
        let mut probe = DynamicIndex::new(2);
        let id = probe.push_bracket("a").unwrap();
        let query = probe.forest().tree(id);
        let (hits, stats) = index.knn(query, 3);
        assert!(hits.is_empty());
        assert_eq!(stats.dataset_size, 0);
        let (hits, _) = index.range(query, 5);
        assert!(hits.is_empty());
        assert!(format!("{index:?}").contains("DynamicIndex"));
    }

    /// The per-query funnel without its wall-clock fields.
    fn funnel(stats: &SearchStats) -> impl PartialEq + std::fmt::Debug {
        (
            stats.dataset_size,
            stats
                .stages
                .iter()
                .map(|s| (s.name, s.evaluated, s.pruned))
                .collect::<Vec<_>>(),
            stats.refined,
            stats.refine_cutoffs,
            stats.refine_bands_skipped,
            stats.results,
        )
    }

    #[test]
    fn interleaved_pushes_extend_postings_stage() {
        // Pushes extend the filter in place (never a rebuild), and after
        // every push each query's answer AND its whole funnel equal a
        // static engine rebuilt from scratch over the same forest: the
        // same four-stage postings cascade through the same query core.
        let mut index = DynamicIndex::new(2);
        let mut forest = Forest::new();
        for (round, spec) in specs().iter().enumerate() {
            index.push_bracket(spec).unwrap();
            forest.parse_bracket(spec).unwrap();
            let engine = SearchEngine::new(&forest, PostingsFilter::build(&forest, 2));
            assert_eq!(index.arena(), engine.filter().arena(), "round {round}");
            for (id, query) in forest.iter() {
                for k in [1, 2, forest.len()] {
                    let (hits, stats) = index.knn(query, k);
                    let (want, want_stats) = engine.knn(query, k);
                    assert_eq!(hits, want, "round {round} query {id:?} k={k}");
                    assert_eq!(funnel(&stats), funnel(&want_stats), "round {round} k={k}");
                }
                for tau in [0u32, 2, 5] {
                    let (hits, stats) = index.range(query, tau);
                    let (want, want_stats) = engine.range(query, tau);
                    assert_eq!(hits, want, "round {round} query {id:?} tau={tau}");
                    assert_eq!(funnel(&stats), funnel(&want_stats), "round {round} τ={tau}");
                }
            }
        }
    }

    #[test]
    fn queries_see_new_data_immediately() {
        let mut index = DynamicIndex::new(2);
        index.push_bracket("a(b c)").unwrap();
        let query = {
            let mut interner = index.forest().interner().clone();
            let t = treesim_tree::parse::bracket::parse(&mut interner, "a(b c d)").unwrap();
            *index.interner_mut() = interner;
            t
        };
        let (hits, _) = index.knn(&query, 1);
        assert_eq!(hits[0].distance, 1);
        index.push_bracket("a(b c d)").unwrap();
        let (hits, _) = index.knn(&query, 1);
        assert_eq!(hits[0].distance, 0);
    }
}
