//! The extended inverted file index `IFI` of Algorithm 1.
//!
//! The vocabulary holds every distinct binary branch of the dataset; the
//! inverted list of a branch records, per tree, the number of occurrences
//! and the (preorder, postorder) positions at which it occurs. Vector
//! construction (Algorithm 1) is a single pass over the dataset followed by
//! a scan of the index; both are `O(Σ|Tᵢ|)` time and space.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};
use treesim_tree::{Forest, LabelId, TreeId};

use crate::branch::extract_branches;
use crate::matching::Pos;
use crate::positional::PositionalVector;
use crate::vector::BranchVector;
use crate::vocab::{BranchId, BranchVocab};

/// Merge of per-branch posting runs, accumulating per-tree shared branch
/// mass `Σ_b min(count_q(b), count_t(b))`.
///
/// Each run is `(query_count, postings)` for one of the query's branches:
/// `query_count` occurrences on the query side and an iterator of
/// `(tree, count)` pairs **sorted by tree id** (the inverted-list order
/// [`InvertedFileIndex`] maintains). The output is sorted by tree id and
/// contains exactly the trees that share at least one branch with the
/// query — trees sharing nothing never appear, which is what makes the
/// postings candidate generator sub-linear on selective queries. Tree ids
/// at or past `tree_count` are ignored (they cannot be indexed trees).
///
/// The `min` clamp makes the accumulated mass exactly the shared-mass term
/// of the binary branch distance:
/// `BDist(q,t) = |BRV(q)| + |BRV(t)| − 2·Σ_b min(count_q(b), count_t(b))`,
/// so a caller holding the total masses recovers `BDist` itself (see
/// DESIGN §10).
///
/// Internally this is a dense scatter-accumulate over a `tree_count`-lane
/// table rather than a `BinaryHeap` k-way merge: each run streams straight
/// into its trees' lanes (no per-element heap traffic), touched lanes are
/// remembered and sorted once at the end. Exact `u64` accumulation in any
/// order is associative, so the output is identical to the heap merge —
/// which survives as [`merge_shared_mass_sparse`], the `strict-checks`
/// oracle.
pub fn merge_shared_mass<I>(tree_count: usize, runs: Vec<(u32, I)>) -> Vec<(TreeId, u64)>
where
    I: Iterator<Item = (TreeId, u32)>,
{
    // u64::MAX marks an untouched lane so that trees reached only through
    // zero-mass pairs (query_count == 0) still appear in the output, the
    // same membership semantics the heap merge had.
    const UNSEEN: u64 = u64::MAX;
    let mut mass: Vec<u64> = vec![UNSEEN; tree_count];
    let mut touched: Vec<TreeId> = Vec::new();
    for (query_count, run) in runs {
        for (tree, count) in run {
            let Some(lane) = mass.get_mut(tree.index()) else {
                continue;
            };
            let shared = u64::from(count.min(query_count));
            if *lane == UNSEEN {
                *lane = shared;
                touched.push(tree);
            } else {
                *lane += shared;
            }
        }
    }
    touched.sort_unstable();
    touched
        .into_iter()
        .map(|tree| {
            let shared = mass.get(tree.index()).copied().unwrap_or(0);
            (tree, shared)
        })
        .collect()
}

/// The original `BinaryHeap` k-way formulation of [`merge_shared_mass`],
/// kept as the allocation-free-per-tree reference: property tests and the
/// postings filter's `strict-checks` assertion compare the dense scatter
/// kernel against it, and the `ablation-simd` bench reports both.
pub fn merge_shared_mass_sparse<I>(runs: Vec<(u32, I)>) -> Vec<(TreeId, u64)>
where
    I: Iterator<Item = (TreeId, u32)>,
{
    // Cursor state per run: the pending (tree, count) head plus the rest.
    let mut cursors: Vec<(u32, I)> = Vec::with_capacity(runs.len());
    let mut heap: BinaryHeap<Reverse<(TreeId, usize)>> = BinaryHeap::with_capacity(runs.len());
    let mut heads: Vec<Option<(TreeId, u32)>> = Vec::with_capacity(runs.len());
    for (query_count, mut run) in runs {
        let head = run.next();
        let index = cursors.len();
        cursors.push((query_count, run));
        heads.push(head);
        if let Some((tree, _)) = head {
            heap.push(Reverse((tree, index)));
        }
    }
    let mut out: Vec<(TreeId, u64)> = Vec::new();
    while let Some(Reverse((tree, index))) = heap.pop() {
        let Some((head_tree, count)) = heads.get(index).copied().flatten() else {
            continue;
        };
        debug_assert_eq!(head_tree, tree, "heap key drifted from cursor head");
        let Some((query_count, run)) = cursors.get_mut(index) else {
            continue;
        };
        let shared = u64::from(count.min(*query_count));
        match out.last_mut() {
            Some((last, mass)) if *last == tree => *mass += shared,
            _ => out.push((tree, shared)),
        }
        let next = run.next();
        if let Some((next_tree, _)) = next {
            debug_assert!(next_tree > tree, "posting run not sorted by tree id");
            heap.push(Reverse((next_tree, index)));
        }
        if let Some(slot) = heads.get_mut(index) {
            *slot = next;
        }
    }
    out
}

/// One inverted-list component: a tree containing the branch, with counts
/// and positions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// The tree containing the branch.
    pub tree: TreeId,
    /// Occurrence positions within that tree, sorted by preorder position.
    pub positions: Vec<Pos>,
}

impl Posting {
    /// Number of occurrences of the branch in [`Posting::tree`].
    pub fn count(&self) -> u32 {
        self.positions.len() as u32
    }
}

/// The inverted file index over a forest's binary branches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedFileIndex {
    vocab: BranchVocab,
    /// Indexed by `BranchId`; postings sorted by tree id.
    postings: Vec<Vec<Posting>>,
    tree_count: usize,
    tree_sizes: Vec<u32>,
}

impl InvertedFileIndex {
    /// Builds the index over every tree of `forest` with q-level branches
    /// (Algorithm 1, lines 1–5).
    pub fn build(forest: &Forest, q: usize) -> Self {
        let mut vocab = BranchVocab::new(q);
        let mut postings: Vec<Vec<Posting>> = Vec::new();
        let mut tree_sizes = Vec::with_capacity(forest.len());
        for (tree_id, tree) in forest.iter() {
            tree_sizes.push(tree.len() as u32);
            for occurrence in extract_branches(tree, q) {
                let branch = vocab.intern(&occurrence.key);
                if branch.index() == postings.len() {
                    postings.push(Vec::new());
                }
                let list = &mut postings[branch.index()];
                match list.last_mut() {
                    Some(last) if last.tree == tree_id => {
                        last.positions.push((occurrence.pre, occurrence.post));
                    }
                    _ => list.push(Posting {
                        tree: tree_id,
                        positions: vec![(occurrence.pre, occurrence.post)],
                    }),
                }
            }
        }
        InvertedFileIndex {
            vocab,
            postings,
            tree_count: forest.len(),
            tree_sizes,
        }
    }

    /// Parallel bulk construction: branch extraction (the dominant cost)
    /// fans out across `threads`; vocabulary interning and posting-list
    /// assembly stay sequential in tree order, so the result is **bit
    /// identical** to [`InvertedFileIndex::build`].
    pub fn build_parallel(forest: &Forest, q: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let trees: Vec<(TreeId, &treesim_tree::Tree)> = forest.iter().collect();
        let chunk_size = trees.len().div_ceil(threads).max(1);
        let extracted: Vec<Vec<(TreeId, Vec<crate::branch::BranchOccurrence>)>> =
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for chunk in trees.chunks(chunk_size) {
                    handles.push(scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&(id, tree)| (id, extract_branches(tree, q)))
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("extraction thread panicked"))
                    .collect()
            });

        let mut vocab = BranchVocab::new(q);
        let mut postings: Vec<Vec<Posting>> = Vec::new();
        let mut tree_sizes = Vec::with_capacity(forest.len());
        for (tree_id, occurrences) in extracted.into_iter().flatten() {
            tree_sizes.push(forest.tree(tree_id).len() as u32);
            for occurrence in occurrences {
                let branch = vocab.intern(&occurrence.key);
                if branch.index() == postings.len() {
                    postings.push(Vec::new());
                }
                let list = &mut postings[branch.index()];
                match list.last_mut() {
                    Some(last) if last.tree == tree_id => {
                        last.positions.push((occurrence.pre, occurrence.post));
                    }
                    _ => list.push(Posting {
                        tree: tree_id,
                        positions: vec![(occurrence.pre, occurrence.post)],
                    }),
                }
            }
        }
        InvertedFileIndex {
            vocab,
            postings,
            tree_count: forest.len(),
            tree_sizes,
        }
    }

    /// The branch vocabulary Γ of the dataset.
    pub fn vocab(&self) -> &BranchVocab {
        &self.vocab
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.vocab.q()
    }

    /// Number of indexed trees.
    pub fn tree_count(&self) -> usize {
        self.tree_count
    }

    /// Size (node count) of an indexed tree.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is out of range.
    pub fn tree_size(&self, tree: TreeId) -> u32 {
        self.tree_sizes[tree.index()]
    }

    /// Reassembles an index from its stored parts (used by the codec).
    pub(crate) fn from_parts(
        vocab: BranchVocab,
        postings: Vec<Vec<Posting>>,
        tree_count: usize,
        tree_sizes: Vec<u32>,
    ) -> Self {
        InvertedFileIndex {
            vocab,
            postings,
            tree_count,
            tree_sizes,
        }
    }

    /// The inverted list of `branch`.
    pub fn postings(&self, branch: BranchId) -> &[Posting] {
        &self.postings[branch.index()]
    }

    /// Trees containing the branch with the given label key, if interned.
    pub fn trees_containing(&self, key: &[LabelId]) -> impl Iterator<Item = TreeId> + '_ {
        self.vocab
            .lookup(key)
            .into_iter()
            .flat_map(|id| self.postings(id).iter().map(|p| p.tree))
    }

    /// Materializes the sparse positional vector of every tree
    /// (Algorithm 1, lines 6–13: one scan of the index).
    pub fn positional_vectors(&self) -> Vec<PositionalVector> {
        let mut tagged: Vec<Vec<(BranchId, Pos)>> =
            (0..self.tree_count).map(|_| Vec::new()).collect();
        for (raw, list) in self.postings.iter().enumerate() {
            let branch = BranchId(raw as u32);
            for posting in list {
                let bucket = &mut tagged[posting.tree.index()];
                for &pos in &posting.positions {
                    bucket.push((branch, pos));
                }
            }
        }
        tagged
            .into_iter()
            .enumerate()
            .map(|(i, t)| PositionalVector::from_tagged(self.q(), self.tree_sizes[i], t))
            .collect()
    }

    /// Materializes the plain branch vectors of every tree.
    pub fn branch_vectors(&self, forest: &Forest) -> Vec<BranchVector> {
        // Plain vectors are cheap to rebuild from the trees through the
        // frozen vocabulary; reuse the query path with a clone guard.
        forest
            .iter()
            .map(|(_, tree)| {
                let mut query = crate::vocab::QueryVocab::new(&self.vocab);
                let vector = BranchVector::build_query(tree, &mut query);
                debug_assert_eq!(query.novel_count(), 0, "dataset tree had novel branch");
                vector
            })
            .collect()
    }

    /// Total number of postings (≈ total nodes in the dataset) — the
    /// `O(Σ|Tᵢ|)` space bound of §4.4.
    pub fn posting_count(&self) -> usize {
        self.postings
            .iter()
            .map(|list| list.iter().map(|p| p.positions.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        forest.parse_bracket("a(b(c(d)) b e)").unwrap();
        forest.parse_bracket("a(c(d) b e)").unwrap();
        forest.parse_bracket("a(b c)").unwrap();
        forest
    }

    #[test]
    fn posting_count_equals_total_nodes() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        assert_eq!(index.posting_count(), forest.stats().total_nodes);
        assert_eq!(index.tree_count(), 3);
        assert_eq!(index.q(), 2);
    }

    #[test]
    fn trees_containing_shared_branch() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        // Branch ⟨c, ε, d⟩? In tree 0: c has child d → ⟨c, d, ...⟩. The
        // leaf-with-no-sibling branch ⟨e, ε, ε⟩ occurs in trees 0 and 1.
        let interner = forest.interner();
        let e = interner.get("e").unwrap();
        let eps = LabelId::EPSILON;
        let hits: Vec<TreeId> = index.trees_containing(&[e, eps, eps]).collect();
        assert_eq!(hits, vec![TreeId(0), TreeId(1)]);
        // Unknown branch → empty.
        let z_hits: Vec<TreeId> = index.trees_containing(&[eps, eps, eps]).collect();
        assert!(z_hits.is_empty());
    }

    #[test]
    fn positional_vectors_match_direct_construction() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        let from_index = index.positional_vectors();
        // Rebuild directly with the same vocabulary order.
        let mut vocab = BranchVocab::new(2);
        let direct: Vec<PositionalVector> = forest
            .iter()
            .map(|(_, t)| PositionalVector::build(t, &mut vocab))
            .collect();
        assert_eq!(from_index.len(), direct.len());
        for (a, b) in from_index.iter().zip(&direct) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn branch_vectors_cover_all_trees() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        let vectors = index.branch_vectors(&forest);
        assert_eq!(vectors.len(), 3);
        for ((_, tree), vector) in forest.iter().zip(&vectors) {
            assert_eq!(vector.total_count(), tree.len() as u64);
        }
    }

    #[test]
    fn q3_index_builds() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 3);
        assert_eq!(index.posting_count(), forest.stats().total_nodes);
        let vectors = index.positional_vectors();
        assert_eq!(vectors[0].q(), 3);
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let mut forest = forest();
        for i in 0..40 {
            forest
                .parse_bracket(&format!("a(b{} c(d e{}) f)", i % 7, i % 3))
                .unwrap();
        }
        let serial = InvertedFileIndex::build(&forest, 2);
        for threads in [1, 2, 4, 7] {
            let parallel = InvertedFileIndex::build_parallel(&forest, 2, threads);
            assert_eq!(parallel.vocab().len(), serial.vocab().len());
            assert_eq!(parallel.posting_count(), serial.posting_count());
            // Identical vectors (ids included) because interning order is
            // preserved.
            assert_eq!(
                parallel.positional_vectors(),
                serial.positional_vectors(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn merged_postings_recover_exact_bdist() {
        // The shared-mass identity over real posting lists:
        // |BRV(q)| + |BRV(t)| − 2·shared(q,t) = BDist(q,t) for every pair.
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        let vectors = index.positional_vectors();
        for (query_id, _) in forest.iter() {
            let query = &vectors[query_id.index()];
            let runs: Vec<(u32, _)> = query
                .iter_counts()
                .map(|(branch, count)| {
                    let list = index.postings(branch);
                    (count, list.iter().map(|p| (p.tree, p.count())))
                })
                .collect();
            let shared = merge_shared_mass(index.tree_count(), runs);
            assert!(shared.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
            for (tree_id, _) in forest.iter() {
                let mass = shared
                    .binary_search_by_key(&tree_id, |&(t, _)| t)
                    .map(|i| shared[i].1)
                    .unwrap_or(0);
                let est = u64::from(query.tree_size() + index.tree_size(tree_id)) - 2 * mass;
                let exact = query.bdist(&vectors[tree_id.index()]);
                assert_eq!(est, exact, "query {query_id:?} vs {tree_id:?}");
            }
        }
    }

    #[test]
    fn merge_kernel_handles_duplicate_trees_across_runs() {
        // Two runs both naming tree 1: masses accumulate, min-clamped.
        let runs = || {
            vec![
                (2u32, vec![(TreeId(0), 5u32), (TreeId(1), 1)].into_iter()),
                (3u32, vec![(TreeId(1), 4u32), (TreeId(2), 3)].into_iter()),
            ]
        };
        let merged = merge_shared_mass(3, runs());
        assert_eq!(merged, vec![(TreeId(0), 2), (TreeId(1), 4), (TreeId(2), 3)]);
        assert_eq!(merged, merge_shared_mass_sparse(runs()));
        let empty = || Vec::<(u32, std::vec::IntoIter<(TreeId, u32)>)>::new();
        assert!(merge_shared_mass(3, empty()).is_empty());
        assert!(merge_shared_mass(0, runs()).is_empty());
        assert!(merge_shared_mass_sparse(empty()).is_empty());
        // A zero-count query branch still marks membership at zero mass —
        // dense and sparse agree on the zero-mass-entry semantics.
        let zero_run = || vec![(0u32, vec![(TreeId(1), 9u32)].into_iter())];
        assert_eq!(merge_shared_mass(3, zero_run()), vec![(TreeId(1), 0)]);
        assert_eq!(merge_shared_mass_sparse(zero_run()), vec![(TreeId(1), 0)]);
    }

    #[test]
    fn vocabulary_is_shared_across_trees() {
        let forest = forest();
        let index = InvertedFileIndex::build(&forest, 2);
        // |Γ| is far below the total node count because branches repeat.
        assert!(index.vocab().len() < forest.stats().total_nodes);
        assert!(!index.vocab().is_empty());
    }
}
