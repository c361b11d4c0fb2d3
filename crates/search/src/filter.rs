//! Lower-bound filters pluggable into the filter-and-refine engine.
//!
//! A [`Filter`] precomputes per-tree artifacts at indexing time and, given a
//! query, produces a lower bound of the edit distance to any dataset tree.
//! Correctness contract: `lower_bound(query, t) ≤ EDist(query, t)` — the
//! engine's completeness (no false negatives) rests on it.

use std::cell::Cell;

use treesim_core::{
    BranchVocab, DenseQuery, InvertedFileIndex, PositionalVector, QueryVocab, VectorArena,
};
use treesim_histogram::{BinBudget, HistogramVector};
use treesim_tree::{Forest, Tree, TreeId};

/// Publishes an arena's footprint gauges (`arena.trees`, `arena.entries`)
/// — refreshed whenever a filter builds or grows its CSR arena.
fn publish_arena_gauges(arena: &VectorArena) {
    treesim_obs::gauge!("arena.trees").set(arena.len() as i64);
    treesim_obs::gauge!("arena.entries").set(arena.entry_count() as i64);
}

/// A lower-bound filter over an indexed dataset.
pub trait Filter {
    /// Per-query artifact (typically the query's vector under the dataset
    /// vocabulary).
    type Query;

    /// Human-readable name for reports ("BiBranch", "Histo", …).
    fn name(&self) -> &'static str;

    /// Vectorizes a query tree.
    fn prepare_query(&self, query: &Tree) -> Self::Query;

    /// A lower bound on `EDist(query, candidate)`.
    fn lower_bound(&self, query: &Self::Query, candidate: TreeId) -> u64;

    /// Number of cascade stages, coarsest (cheapest) first. Stage
    /// `stages() − 1` must compute [`Filter::lower_bound`]; earlier stages
    /// may be arbitrarily looser but must each be valid lower bounds of
    /// `EDist(query, candidate)` on their own — the engine prunes on any
    /// of them.
    fn stages(&self) -> usize {
        1
    }

    /// Short name of cascade stage `stage`, for per-stage reporting.
    fn stage_name(&self, stage: usize) -> &'static str {
        debug_assert!(stage < self.stages());
        self.name()
    }

    /// The stage-`stage` lower bound on `EDist(query, candidate)`.
    ///
    /// Stages need not be pointwise monotone (a cheap stage may exceed a
    /// later one on some pairs); the engine keeps the running maximum,
    /// which is itself a valid lower bound.
    fn stage_bound(&self, query: &Self::Query, candidate: TreeId, stage: usize) -> u64 {
        debug_assert!(stage < self.stages());
        self.lower_bound(query, candidate)
    }

    /// Range-query pruning: `true` only if `EDist(query, candidate) > tau`
    /// is certain. The default tests the generic lower bound; filters with
    /// sharper range predicates (Proposition 4.2) override this.
    fn prunes_range(&self, query: &Self::Query, candidate: TreeId, tau: u32) -> bool {
        self.lower_bound(query, candidate) > u64::from(tau)
    }

    /// Appends `stage_bound(query, id, stage)` for every id in
    /// `candidates` (in order) to `out`.
    ///
    /// `candidates` must be ascending by tree id — the engine's bulk
    /// sweeps always are — so arena-backed filters can override this to
    /// walk their CSR slabs strictly sequentially (and, for the postings
    /// stage, replace per-candidate binary searches with one merged walk).
    /// Results are exactly the per-candidate bounds in the same order;
    /// overrides count their batched evaluations in
    /// `cascade.batch.evaluated`.
    fn stage_bound_batch(
        &self,
        query: &Self::Query,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        out.extend(
            candidates
                .iter()
                .map(|&id| self.stage_bound(query, id, stage)),
        );
    }

    /// Binary-search iterations the `propt` bound has spent on `query` so
    /// far: the per-query count the engine reports as
    /// [`crate::SearchStats::propt_iters`]. Filters without a `propt`
    /// stage report 0.
    fn propt_iters(&self, _query: &Self::Query) -> u64 {
        0
    }
}

/// How the binary branch filter derives its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BiBranchMode {
    /// `⌈BDist/(4(q−1)+1)⌉` — counts only (§3).
    Plain,
    /// The positional optimistic bound `propt` of §4.2 (tighter, slightly
    /// more expensive).
    #[default]
    Positional,
}

/// The paper's filter: binary branch vectors with optional positional
/// tightening. The counts-only data additionally lives in a CSR
/// [`VectorArena`], which the `size`/`bdist` stages read — batched
/// candidate sweeps then touch one contiguous slab in tree-id order.
#[derive(Debug)]
pub struct BiBranchFilter {
    vocab: BranchVocab,
    vectors: Vec<PositionalVector>,
    arena: VectorArena,
    mode: BiBranchMode,
}

/// Per-query artifact of [`BiBranchFilter`]: the query's positional vector
/// plus its counts scattered into a dense lookup for the arena kernels.
#[derive(Debug)]
pub struct BiBranchQuery {
    vector: PositionalVector,
    dense: DenseQuery,
    /// `propt` binary-search iterations spent on this query so far.
    propt_iters: Cell<u64>,
}

impl BiBranchQuery {
    /// Vectorizes `query` under the dataset vocabulary `vocab`.
    fn new(query: &Tree, vocab: &BranchVocab) -> Self {
        let vector = PositionalVector::build_query(query, &mut QueryVocab::new(vocab));
        let total = u64::from(vector.tree_size());
        BiBranchQuery {
            dense: DenseQuery::new(vocab.len(), vector.iter_counts(), total),
            vector,
            propt_iters: Cell::new(0),
        }
    }

    /// The query's positional vector under the dataset vocabulary.
    pub fn vector(&self) -> &PositionalVector {
        &self.vector
    }

    /// The `bdist` stage bound through `arena`'s dense shared-mass kernel
    /// — bit-identical to the sparse merge against `vectors` (asserted
    /// under `strict-checks`), but reads only the candidate's contiguous
    /// slab run.
    #[cfg_attr(not(feature = "strict-checks"), allow(unused_variables))]
    fn bdist_bound(
        &self,
        arena: &VectorArena,
        vectors: &[PositionalVector],
        candidate: TreeId,
    ) -> u64 {
        let bdist = arena.bdist(candidate.index() as u32, &self.dense);
        #[cfg(feature = "strict-checks")]
        debug_assert_eq!(
            bdist,
            self.vector.bdist(&vectors[candidate.index()]),
            "arena dense BDist diverged from the sparse merge for tree {candidate:?}"
        );
        treesim_core::edit_lower_bound(bdist, arena.q())
    }

    /// The `propt` bound against `data`, with observability: records how
    /// many binary-search iterations the §4.2 probe took into the
    /// `cascade.propt.iters` histogram and into this query's count (read
    /// through [`Filter::propt_iters`]). [`BiBranchFilter`] and
    /// [`PostingsFilter`] both bound through it, so every propt
    /// evaluation is counted the same way.
    fn propt_bound(&self, data: &PositionalVector) -> u64 {
        let (bound, iterations) = self.vector.optimistic_bound_counted(data);
        treesim_obs::histogram!("cascade.propt.iters").record(u64::from(iterations));
        self.propt_iters
            .set(self.propt_iters.get() + u64::from(iterations));
        bound
    }
}

impl BiBranchFilter {
    /// Indexes `forest` with q-level branches via the inverted file index
    /// (Algorithm 1).
    pub fn build(forest: &Forest, q: usize, mode: BiBranchMode) -> Self {
        Self::from_index(&InvertedFileIndex::build(forest, q), mode)
    }

    /// Builds from an existing inverted file index.
    pub fn from_index(index: &InvertedFileIndex, mode: BiBranchMode) -> Self {
        let arena = VectorArena::from_index(index);
        publish_arena_gauges(&arena);
        BiBranchFilter {
            vocab: index.vocab().clone(),
            vectors: index.positional_vectors(),
            arena,
            mode,
        }
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.vocab.q()
    }

    /// The dataset vector of `tree` (for inspection / experiments).
    pub fn vector(&self, tree: TreeId) -> &PositionalVector {
        &self.vectors[tree.index()]
    }

    /// The CSR arena backing the `size`/`bdist` stages.
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// The `bdist` stage bound (see [`BiBranchQuery::bdist_bound`]).
    fn bdist_bound(&self, query: &BiBranchQuery, candidate: TreeId) -> u64 {
        query.bdist_bound(&self.arena, &self.vectors, candidate)
    }
}

impl Filter for BiBranchFilter {
    type Query = BiBranchQuery;

    fn name(&self) -> &'static str {
        match self.mode {
            BiBranchMode::Plain => "BiBranch(plain)",
            BiBranchMode::Positional => "BiBranch",
        }
    }

    fn prepare_query(&self, query: &Tree) -> BiBranchQuery {
        BiBranchQuery::new(query, &self.vocab)
    }

    fn lower_bound(&self, query: &BiBranchQuery, candidate: TreeId) -> u64 {
        match self.mode {
            BiBranchMode::Plain => self.bdist_bound(query, candidate),
            BiBranchMode::Positional => query.propt_bound(&self.vectors[candidate.index()]),
        }
    }

    /// Cascade: O(1) size difference, then `⌈BDist/(4(q−1)+1)⌉` (one
    /// sorted-entry merge), then — in positional mode — the `propt` binary
    /// search of §4.2, which only unpruned candidates reach.
    fn stages(&self) -> usize {
        match self.mode {
            BiBranchMode::Plain => 2,
            BiBranchMode::Positional => 3,
        }
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match stage {
            0 => "size",
            1 => "bdist",
            _ => "propt",
        }
    }

    fn stage_bound(&self, query: &BiBranchQuery, candidate: TreeId, stage: usize) -> u64 {
        match stage {
            0 => u64::from(
                query
                    .vector
                    .tree_size()
                    .abs_diff(self.arena.tree_size(candidate.index() as u32)),
            ),
            1 => self.bdist_bound(query, candidate),
            _ => query.propt_bound(&self.vectors[candidate.index()]),
        }
    }

    fn stage_bound_batch(
        &self,
        query: &BiBranchQuery,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        match stage {
            // Both arena-backed stages walk the slabs in tree-id order —
            // candidates ascend, so memory is touched sequentially.
            0 => {
                let query_size = query.vector.tree_size();
                out.extend(candidates.iter().map(|&id| {
                    u64::from(query_size.abs_diff(self.arena.tree_size(id.index() as u32)))
                }));
            }
            1 => out.extend(candidates.iter().map(|&id| self.bdist_bound(query, id))),
            // propt stays per-candidate: its binary search touches the
            // sparse positional vectors, not the arena.
            _ => {
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| self.stage_bound(query, id, stage)),
                );
                return;
            }
        }
        treesim_obs::counter!("cascade.batch.evaluated").add(candidates.len() as u64);
    }

    fn prunes_range(&self, query: &BiBranchQuery, candidate: TreeId, tau: u32) -> bool {
        match self.mode {
            BiBranchMode::Plain => self.bdist_bound(query, candidate) > u64::from(tau),
            BiBranchMode::Positional => query
                .vector
                .exceeds_range(&self.vectors[candidate.index()], tau),
        }
    }

    fn propt_iters(&self, query: &BiBranchQuery) -> u64 {
        query.propt_iters.get()
    }
}

/// The paper's space-matching bin budget (§5): the total histogram
/// dimensionality per tree equals the average binary branch vector size
/// plus twice the average tree size.
fn paper_matched_budget(forest: &Forest) -> BinBudget {
    let stats = forest.stats();
    // Average number of nonzero branch-vector dimensions per tree.
    let mut vocab = treesim_core::BranchVocab::new(2);
    let total_dims: usize = forest
        .iter()
        .map(|(_, t)| treesim_core::BranchVector::build(t, &mut vocab).nonzero_dims())
        .sum();
    let avg_dims = total_dims as f64 / forest.len().max(1) as f64;
    BinBudget::paper_matched(avg_dims, stats.avg_size)
}

/// The default production filter: the positional cascade of
/// [`BiBranchFilter`] fronted by a **stage −1 inverted-list candidate
/// generator**. At query time the query's branch posting lists are k-way
/// merged ([`treesim_core::merge_shared_mass`]) into a sorted per-tree
/// shared-branch-mass table, from which stage 0 derives
///
/// ```text
/// BDist(q, t) ≥ |BRV(q)| + |BRV(t)| − 2·shared(q, t)
/// ```
///
/// without ever touching the candidate's vector (DESIGN §10). With
/// min-clamped shared mass the inequality is an *equality*, so the stage
/// is exactly as tight as the `bdist` stage at posting-merge cost, and
/// trees sharing no branch with the query are bounded from their stored
/// size alone. Out-of-vocabulary query branches have no posting list and
/// therefore contribute zero to `shared` — but their mass stays in
/// `|BRV(q)|`, which keeps the bound sound (the no-false-negative edge
/// case the `strict-checks` assertion pins down).
///
/// The filter is **growable**: [`PostingsFilter::push`] appends a tree as
/// the next id, extending the vocabulary, the posting lists, the
/// positional vectors and the CSR arena in place. Ids only ever grow, so
/// every posting list stays a sorted run; [`PostingsFilter::build`] and
/// [`PostingsFilter::from_index`] are folds over the same append path.
#[derive(Debug)]
pub struct PostingsFilter {
    vocab: BranchVocab,
    /// Per-branch posting lists, indexed by branch id: `(tree, count)`,
    /// ascending by tree id.
    postings: Vec<Vec<(TreeId, u32)>>,
    vectors: Vec<PositionalVector>,
    arena: VectorArena,
}

/// Per-query artifact of [`PostingsFilter`]: the positional query
/// artifact the later stages share with [`BiBranchFilter`], plus the
/// merged posting table.
#[derive(Debug)]
pub struct PostingsQuery {
    positional: BiBranchQuery,
    /// `(tree, Σ_b min(count_q(b), count_t(b)))`, ascending by tree id;
    /// trees absent from every query posting list are absent here and
    /// share mass 0.
    shared: Vec<(TreeId, u64)>,
    /// `|BRV(q)|` — total query branch mass, OOV branches included.
    total: u64,
}

impl PostingsQuery {
    /// Number of trees sharing at least one branch with the query.
    pub fn candidate_count(&self) -> usize {
        self.shared.len()
    }
}

impl PostingsFilter {
    /// An empty filter over q-level branches, grown by
    /// [`PostingsFilter::push`].
    pub fn new(q: usize) -> Self {
        PostingsFilter {
            vocab: BranchVocab::new(q),
            postings: Vec::new(),
            vectors: Vec::new(),
            arena: VectorArena::new(q),
        }
    }

    /// Indexes `forest` with q-level branches (Algorithm 1): one
    /// [`PostingsFilter::push`] per tree in id order.
    pub fn build(forest: &Forest, q: usize) -> Self {
        let mut filter = Self::new(q);
        for (_, tree) in forest.iter() {
            filter.push(tree);
        }
        filter
    }

    /// Converts an inverted file index (e.g. a persisted one): adopts its
    /// vocabulary and appends its positional vectors in tree order. The
    /// result equals [`PostingsFilter::build`] over the indexed forest.
    pub fn from_index(index: InvertedFileIndex) -> Self {
        let mut filter = Self::new(index.q());
        filter.vocab = index.vocab().clone();
        for vector in index.positional_vectors() {
            filter.append(vector);
        }
        publish_arena_gauges(&filter.arena);
        filter
    }

    /// Appends `tree` (labels from the dataset's interner) as the next
    /// tree id and returns that id; it is bounded by every later query.
    pub fn push(&mut self, tree: &Tree) -> TreeId {
        let vector = PositionalVector::build(tree, &mut self.vocab);
        let id = self.append(vector);
        publish_arena_gauges(&self.arena);
        id
    }

    /// The one growth path: the new tree's distinct branches each append
    /// one posting (its id is the largest so far, so every list stays
    /// sorted), and its counts become a new arena segment.
    fn append(&mut self, vector: PositionalVector) -> TreeId {
        let id = TreeId(self.vectors.len() as u32);
        self.postings.resize_with(self.vocab.len(), Vec::new);
        for (branch, count) in vector.iter_counts() {
            self.postings[branch.index()].push((id, count));
        }
        self.arena
            .push_tree(vector.iter_counts(), vector.tree_size());
        self.vectors.push(vector);
        id
    }

    /// The branch level `q`.
    pub fn q(&self) -> usize {
        self.vocab.q()
    }

    /// The dataset vector of `tree` (for inspection / experiments).
    pub fn vector(&self, tree: TreeId) -> &PositionalVector {
        &self.vectors[tree.index()]
    }

    /// The CSR arena backing the `size`/`bdist` stages.
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// K-way merges the posting lists of the query's in-vocabulary
    /// branches into the per-tree shared branch mass table, ascending by
    /// tree id. Out-of-vocabulary branches (ids past the dataset
    /// vocabulary) have no list and are skipped — their mass stays in
    /// `|BRV(q)|`. Under `strict-checks` the dense scatter kernel is
    /// asserted equal to the k-way heap merge.
    fn shared_mass(&self, query: &PositionalVector) -> Vec<(TreeId, u64)> {
        let runs = || {
            query
                .iter_counts()
                .filter_map(|(branch, count)| {
                    Some((count, self.postings.get(branch.index())?.iter().copied()))
                })
                .collect::<Vec<_>>()
        };
        let merged = treesim_core::merge_shared_mass(self.vectors.len(), runs());
        #[cfg(feature = "strict-checks")]
        debug_assert_eq!(
            merged,
            treesim_core::merge_shared_mass_sparse(runs()),
            "dense shared-mass scatter diverged from the k-way heap merge"
        );
        merged
    }

    /// The `bdist` stage bound (see [`BiBranchQuery::bdist_bound`]).
    fn bdist_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        query
            .positional
            .bdist_bound(&self.arena, &self.vectors, candidate)
    }

    /// The stage-0 bound: `|BRV(q)| + |BRV(t)| − 2·shared(q, t)` scaled to
    /// edit operations. O(log candidates) per tree — one binary search
    /// into the merged posting table.
    fn postings_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        let shared = match query
            .shared
            .binary_search_by_key(&candidate, |&(tree, _)| tree)
        {
            Ok(found) => query.shared[found].1,
            Err(_) => 0,
        };
        let bdist_floor = query.total + u64::from(self.arena.tree_size(candidate.0)) - 2 * shared;
        #[cfg(feature = "strict-checks")]
        debug_assert!(
            bdist_floor
                <= query
                    .positional
                    .vector
                    .bdist(&self.vectors[candidate.index()]),
            "stage -1 bound {bdist_floor} above exact BDist {} for tree {candidate:?} \
             (OOV query mass must never enter shared)",
            query
                .positional
                .vector
                .bdist(&self.vectors[candidate.index()]),
        );
        treesim_core::edit_lower_bound(bdist_floor, self.q())
    }
}

impl Filter for PostingsFilter {
    type Query = PostingsQuery;

    fn name(&self) -> &'static str {
        "Postings"
    }

    fn prepare_query(&self, query: &Tree) -> PostingsQuery {
        let positional = BiBranchQuery::new(query, &self.vocab);
        let shared = self.shared_mass(&positional.vector);
        treesim_obs::histogram!("cascade.postings.candidates").record(shared.len() as u64);
        PostingsQuery {
            total: u64::from(positional.vector.tree_size()),
            shared,
            positional,
        }
    }

    fn lower_bound(&self, query: &PostingsQuery, candidate: TreeId) -> u64 {
        query
            .positional
            .propt_bound(&self.vectors[candidate.index()])
    }

    /// Cascade: the posting-merge bound, the O(1) size screen, then
    /// `⌈BDist/(4(q−1)+1)⌉` and the `propt` binary search of §4.2.
    /// (`postings` and `bdist` are pointwise equal under min-clamped shared
    /// mass; keeping both stages makes the funnel report how much of the
    /// pruning needed no per-candidate vector work.)
    fn stages(&self) -> usize {
        4
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match stage {
            0 => "postings",
            1 => "size",
            2 => "bdist",
            _ => "propt",
        }
    }

    fn stage_bound(&self, query: &PostingsQuery, candidate: TreeId, stage: usize) -> u64 {
        match stage {
            0 => self.postings_bound(query, candidate),
            1 => u64::from(
                query
                    .positional
                    .vector
                    .tree_size()
                    .abs_diff(self.arena.tree_size(candidate.0)),
            ),
            2 => self.bdist_bound(query, candidate),
            _ => self.lower_bound(query, candidate),
        }
    }

    fn stage_bound_batch(
        &self,
        query: &PostingsQuery,
        candidates: &[TreeId],
        stage: usize,
        out: &mut Vec<u64>,
    ) {
        debug_assert!(candidates.windows(2).all(|w| matches!(w, [a, b] if a < b)));
        #[cfg(feature = "strict-checks")]
        let check_from = out.len();
        match stage {
            // Stage −1 batched: candidates and the merged posting table
            // both ascend by tree id, so one forward walk over `shared`
            // replaces the per-candidate binary searches.
            0 => {
                let mut table = query.shared.iter().peekable();
                out.extend(candidates.iter().map(|&id| {
                    while table.peek().is_some_and(|&&(tree, _)| tree < id) {
                        table.next();
                    }
                    let shared = match table.peek() {
                        Some(&&(tree, mass)) if tree == id => mass,
                        _ => 0,
                    };
                    let floor = query.total + u64::from(self.arena.tree_size(id.0)) - 2 * shared;
                    treesim_core::edit_lower_bound(floor, self.q())
                }));
            }
            1 => {
                let query_size = query.positional.vector.tree_size();
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| u64::from(query_size.abs_diff(self.arena.tree_size(id.0)))),
                );
            }
            2 => out.extend(candidates.iter().map(|&id| self.bdist_bound(query, id))),
            // propt stays per-candidate.
            _ => {
                out.extend(
                    candidates
                        .iter()
                        .map(|&id| self.stage_bound(query, id, stage)),
                );
                return;
            }
        }
        #[cfg(feature = "strict-checks")]
        debug_assert!(
            candidates
                .iter()
                .zip(out.iter().skip(check_from))
                .all(|(&id, &bound)| bound == self.stage_bound(query, id, stage)),
            "batched stage-{stage} bounds diverged from the per-candidate path"
        );
        treesim_obs::counter!("cascade.batch.evaluated").add(candidates.len() as u64);
    }

    fn prunes_range(&self, query: &PostingsQuery, candidate: TreeId, tau: u32) -> bool {
        query
            .positional
            .vector
            .exceeds_range(&self.vectors[candidate.index()], tau)
    }

    fn propt_iters(&self, query: &PostingsQuery) -> u64 {
        query.positional.propt_iters.get()
    }
}

/// The baseline histogram filter (Kailing et al., reference \[7\]).
#[derive(Debug)]
pub struct HistogramFilter {
    vectors: Vec<HistogramVector>,
    budget: BinBudget,
}

impl HistogramFilter {
    /// Builds the histograms under the paper's space-matching rule (§5,
    /// `paper_matched_budget`). On small label universes this is
    /// effectively exact; on label-rich data it blurs the label histogram,
    /// as in the paper's evaluation.
    pub fn build(forest: &Forest) -> Self {
        Self::build_with_budget(forest, paper_matched_budget(forest))
    }

    /// Builds exact (unbucketed) histograms.
    pub fn build_exact(forest: &Forest) -> Self {
        Self::build_with_budget(forest, BinBudget::UNLIMITED)
    }

    /// Builds histograms under an explicit bin budget.
    pub fn build_with_budget(forest: &Forest, budget: BinBudget) -> Self {
        HistogramFilter {
            vectors: forest
                .iter()
                .map(|(_, tree)| HistogramVector::build_bucketed(tree, budget))
                .collect(),
            budget,
        }
    }

    /// The bin budget in effect.
    pub fn budget(&self) -> BinBudget {
        self.budget
    }

    /// The dataset histogram vector of `tree`.
    pub fn vector(&self, tree: TreeId) -> &HistogramVector {
        &self.vectors[tree.index()]
    }
}

impl Filter for HistogramFilter {
    type Query = HistogramVector;

    fn name(&self) -> &'static str {
        "Histo"
    }

    fn prepare_query(&self, query: &Tree) -> HistogramVector {
        HistogramVector::build_bucketed(query, self.budget)
    }

    fn lower_bound(&self, query: &HistogramVector, candidate: TreeId) -> u64 {
        query.lower_bound(&self.vectors[candidate.index()])
    }

    /// Cascade: O(1) size difference, then the full histogram bound.
    fn stages(&self) -> usize {
        2
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        match stage {
            0 => "size",
            _ => "histo",
        }
    }

    fn stage_bound(&self, query: &HistogramVector, candidate: TreeId, stage: usize) -> u64 {
        let data = &self.vectors[candidate.index()];
        match stage {
            0 => u64::from(query.size.abs_diff(data.size)),
            _ => query.lower_bound(data),
        }
    }
}

/// The no-op filter: a lower bound of 0 everywhere, turning the engine into
/// the sequential-scan baseline.
#[derive(Debug, Default)]
pub struct NoFilter {
    size: usize,
}

impl NoFilter {
    /// Creates a no-op filter for a dataset of `forest.len()` trees.
    pub fn build(forest: &Forest) -> Self {
        NoFilter { size: forest.len() }
    }

    /// Number of trees covered.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }
}

impl Filter for NoFilter {
    type Query = ();

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn stage_name(&self, _stage: usize) -> &'static str {
        // The metric-name contract requires stage names from
        // `treesim_obs::naming::CASCADE_STAGES` (the default would leak
        // the display name "Sequential" into `cascade.*` metrics).
        "scan"
    }

    fn prepare_query(&self, _query: &Tree) {}

    fn lower_bound(&self, _query: &(), _candidate: TreeId) -> u64 {
        0
    }
}

/// Combines two filters by taking the larger lower bound — used for
/// ablations (e.g., BiBranch + Histogram stacking).
#[derive(Debug)]
pub struct MaxFilter<A, B> {
    /// First component.
    pub first: A,
    /// Second component.
    pub second: B,
}

impl<A: Filter, B: Filter> Filter for MaxFilter<A, B> {
    type Query = (A::Query, B::Query);

    fn name(&self) -> &'static str {
        "Max"
    }

    fn prepare_query(&self, query: &Tree) -> Self::Query {
        (
            self.first.prepare_query(query),
            self.second.prepare_query(query),
        )
    }

    fn lower_bound(&self, query: &Self::Query, candidate: TreeId) -> u64 {
        self.first
            .lower_bound(&query.0, candidate)
            .max(self.second.lower_bound(&query.1, candidate))
    }

    /// Components' cascades run aligned from the *end*, so the final stage
    /// is `max(first.lower_bound, second.lower_bound)` = `lower_bound` and
    /// the shorter cascade simply starts later.
    fn stages(&self) -> usize {
        self.first.stages().max(self.second.stages())
    }

    fn stage_name(&self, stage: usize) -> &'static str {
        // Attribute the stage to the longer cascade (ties: first).
        if self.first.stages() >= self.second.stages() {
            self.first.stage_name(stage)
        } else {
            self.second.stage_name(stage)
        }
    }

    fn stage_bound(&self, query: &Self::Query, candidate: TreeId, stage: usize) -> u64 {
        let total = self.stages();
        let mut bound = 0u64;
        let offset = total - self.first.stages();
        if stage >= offset {
            bound = bound.max(self.first.stage_bound(&query.0, candidate, stage - offset));
        }
        let offset = total - self.second.stages();
        if stage >= offset {
            bound = bound.max(self.second.stage_bound(&query.1, candidate, stage - offset));
        }
        bound
    }

    fn prunes_range(&self, query: &Self::Query, candidate: TreeId, tau: u32) -> bool {
        self.first.prunes_range(&query.0, candidate, tau)
            || self.second.prunes_range(&query.1, candidate, tau)
    }

    fn propt_iters(&self, query: &Self::Query) -> u64 {
        self.first.propt_iters(&query.0) + self.second.propt_iters(&query.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesim_edit::edit_distance;

    fn forest() -> Forest {
        let mut forest = Forest::new();
        for spec in [
            "a(b(c(d)) b e)",
            "a(c(d) b e)",
            "a(b c)",
            "x(y z)",
            "a(b(c d e) f)",
        ] {
            forest.parse_bracket(spec).unwrap();
        }
        forest
    }

    fn check_filter<F: Filter>(filter: &F, forest: &Forest) {
        assert!(filter.stages() >= 1);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            for (id, data_tree) in forest.iter() {
                let edist = edit_distance(query_tree, data_tree);
                let bound = filter.lower_bound(&query, id);
                assert!(
                    bound <= edist,
                    "{}: bound {bound} > EDist {edist}",
                    filter.name()
                );
                // Every cascade stage is a sound lower bound on its own,
                // and the final stage computes lower_bound exactly.
                for stage in 0..filter.stages() {
                    let staged = filter.stage_bound(&query, id, stage);
                    assert!(
                        staged <= edist,
                        "{} stage {stage} ({}): bound {staged} > EDist {edist}",
                        filter.name(),
                        filter.stage_name(stage),
                    );
                }
                assert_eq!(
                    filter.stage_bound(&query, id, filter.stages() - 1),
                    bound,
                    "{}: final stage must equal lower_bound",
                    filter.name()
                );
                for tau in 0..=4u32 {
                    if filter.prunes_range(&query, id, tau) {
                        assert!(edist > u64::from(tau), "{} pruned a result", filter.name());
                    }
                }
            }
        }
    }

    #[test]
    fn bibranch_positional_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(filter.name(), "BiBranch");
        assert_eq!(filter.q(), 2);
        check_filter(&filter, &forest);
    }

    #[test]
    fn bibranch_plain_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        assert_eq!(filter.name(), "BiBranch(plain)");
        check_filter(&filter, &forest);
    }

    #[test]
    fn bibranch_q3_is_sound() {
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 3, BiBranchMode::Positional);
        check_filter(&filter, &forest);
    }

    #[test]
    fn postings_filter_is_sound() {
        let forest = forest();
        let filter = PostingsFilter::build(&forest, 2);
        assert_eq!(filter.name(), "Postings");
        assert_eq!(filter.q(), 2);
        check_filter(&filter, &forest);
    }

    #[test]
    fn posting_lists_are_sorted_runs_covering_every_node() {
        // The merge kernel's input contract: every list ascends by tree
        // id, and the lists hold exactly the forest's branch mass.
        let forest = forest();
        let filter = PostingsFilter::build(&forest, 2);
        let mass: usize = filter
            .postings
            .iter()
            .flatten()
            .map(|&(_, count)| count as usize)
            .sum();
        assert_eq!(mass, forest.stats().total_nodes);
        for list in &filter.postings {
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "unsorted run");
        }
    }

    #[test]
    fn postings_stage_equals_bdist_stage() {
        // With min-clamped shared mass the posting-merge identity
        // |BRV(q)| + |BRV(t)| − 2·Σ min(count_q, count_t) = BDist(q, t)
        // is exact, so stage −1 must be pointwise equal to the bdist stage
        // (which recomputes BDist from the candidate's vector).
        let forest = forest();
        let filter = PostingsFilter::build(&forest, 2);
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            let bquery = bibranch.prepare_query(query_tree);
            for (id, _) in forest.iter() {
                assert_eq!(
                    filter.stage_bound(&query, id, 0),
                    bibranch.stage_bound(&bquery, id, 1),
                    "postings bound diverged from bdist for tree {id:?}"
                );
            }
        }
    }

    #[test]
    fn postings_oov_query_keeps_guarantee() {
        // A query whose branches are 100% out-of-vocabulary: the merged
        // posting table is empty, yet every stage bound must stay a sound
        // lower bound (the unmatched query mass is accounted via |BRV(q)|).
        let mut forest = forest();
        let query = {
            let mut interner = forest.interner().clone();
            let t = treesim_tree::parse::bracket::parse(&mut interner, "m(n(o) p q)").unwrap();
            *forest.interner_mut() = interner;
            t
        };
        let filter = PostingsFilter::build(&forest, 2);
        let artifact = filter.prepare_query(&query);
        assert_eq!(
            artifact.candidate_count(),
            0,
            "OOV query generated candidates"
        );
        for (id, data_tree) in forest.iter() {
            let edist = edit_distance(&query, data_tree);
            for stage in 0..filter.stages() {
                let bound = filter.stage_bound(&artifact, id, stage);
                assert!(
                    bound <= edist,
                    "stage {stage} bound {bound} > EDist {edist} on an OOV query"
                );
            }
        }
    }

    #[test]
    fn histogram_filter_is_sound() {
        let forest = forest();
        let filter = HistogramFilter::build(&forest);
        assert_eq!(filter.name(), "Histo");
        check_filter(&filter, &forest);
    }

    #[test]
    fn no_filter_never_prunes() {
        let forest = forest();
        let filter = NoFilter::build(&forest);
        assert_eq!(filter.len(), 5);
        assert!(!filter.is_empty());
        filter.prepare_query(forest.tree(TreeId(0)));
        let query = ();
        for (id, _) in forest.iter() {
            assert_eq!(filter.lower_bound(&query, id), 0);
            assert!(!filter.prunes_range(&query, id, 0));
        }
    }

    #[test]
    fn max_filter_dominates_components() {
        let forest = forest();
        let combined = MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        };
        check_filter(&combined, &forest);
        let query_tree = forest.tree(TreeId(0));
        let query = combined.prepare_query(query_tree);
        for (id, _) in forest.iter() {
            let bound = combined.lower_bound(&query, id);
            assert!(bound >= combined.first.lower_bound(&query.0, id));
            assert!(bound >= combined.second.lower_bound(&query.1, id));
        }
    }

    #[test]
    fn positional_at_least_as_tight_as_plain() {
        let forest = forest();
        let positional = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        let plain = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        let query_tree = forest.tree(TreeId(3));
        let pq = positional.prepare_query(query_tree);
        let sq = plain.prepare_query(query_tree);
        for (id, _) in forest.iter() {
            assert!(positional.lower_bound(&pq, id) >= plain.lower_bound(&sq, id));
        }
    }

    #[test]
    fn cascade_shapes() {
        let forest = forest();
        let positional = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(positional.stages(), 3);
        assert_eq!(
            (0..3).map(|s| positional.stage_name(s)).collect::<Vec<_>>(),
            vec!["size", "bdist", "propt"]
        );
        let plain = BiBranchFilter::build(&forest, 2, BiBranchMode::Plain);
        assert_eq!(plain.stages(), 2);
        assert_eq!(plain.stage_name(1), "bdist");
        let histogram = HistogramFilter::build(&forest);
        assert_eq!(histogram.stages(), 2);
        assert_eq!(histogram.stage_name(0), "size");
        let none = NoFilter::build(&forest);
        assert_eq!(none.stages(), 1);
        let stacked = MaxFilter {
            first: BiBranchFilter::build(&forest, 2, BiBranchMode::Positional),
            second: HistogramFilter::build(&forest),
        };
        assert_eq!(stacked.stages(), 3);
        assert_eq!(stacked.stage_name(2), "propt");
        let postings = PostingsFilter::build(&forest, 2);
        assert_eq!(postings.stages(), 4);
        assert_eq!(
            (0..4).map(|s| postings.stage_name(s)).collect::<Vec<_>>(),
            vec!["postings", "size", "bdist", "propt"]
        );
    }

    #[test]
    fn positional_cascade_is_monotone() {
        // For the positional bi-branch filter specifically, later stages
        // are pointwise at least as tight: propt ≥ ⌈BDist/5⌉ and
        // propt ≥ pr_min = size difference.
        let forest = forest();
        let filter = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        for (_, query_tree) in forest.iter() {
            let query = filter.prepare_query(query_tree);
            for (id, _) in forest.iter() {
                let size = filter.stage_bound(&query, id, 0);
                let bdist = filter.stage_bound(&query, id, 1);
                let propt = filter.stage_bound(&query, id, 2);
                assert!(propt >= size, "propt {propt} < size bound {size}");
                assert!(propt >= bdist, "propt {propt} < bdist bound {bdist}");
            }
        }
    }

    #[test]
    fn filter_vector_accessors() {
        let forest = forest();
        let bibranch = BiBranchFilter::build(&forest, 2, BiBranchMode::Positional);
        assert_eq!(bibranch.vector(TreeId(0)).tree_size(), 6);
        let histogram = HistogramFilter::build(&forest);
        assert_eq!(histogram.vector(TreeId(0)).size, 6);
    }
}
