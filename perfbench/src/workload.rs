//! The benchmark's workloads: which datasets each one generates from the
//! seed and with which parameters it queries them.
//!
//! Both workloads time all three operation kinds, so every end-to-end
//! metric exists on both: per dataset draw a [`SearchEngine`] answers a
//! fixed number of k-NN and range queries (dataset trees as queries) in a
//! closed loop, while an ingest probe, a fresh [`DynamicIndex`], grows by
//! `push` through the whole draw.
//!
//! [`SearchEngine`]: treesim_search::SearchEngine
//! [`DynamicIndex`]: treesim_search::DynamicIndex

use treesim_datagen::dblp::{self, DblpConfig};
use treesim_datagen::synthetic::{self, SyntheticConfig};
use treesim_tree::Forest;

use crate::rng::SplitMix64;
use crate::stats::Percentile;

/// Binary branch level of every index.
pub const Q: usize = 2;
/// k of every k-NN query.
pub const K: usize = 5;
/// Traced ingest pass: one k-NN after every this many pushes.
pub const KNN_EVERY: usize = 10;
/// Traced ingest pass: one range query after every this many pushes.
pub const RANGE_EVERY: usize = 100;
/// Reported tail percentile of k-NN and range latency. p99 of the ~1500
/// query samples a run takes rests on ~15 samples and moved by 30–55 %
/// between seeds; p90 rests on ~150.
pub const QUERY_TAIL: Percentile = Percentile::P90;
/// Answers of each kind a run recomputes by brute force: the first one of
/// each draw visit on this many visits (in the traced run, the first this
/// many of each query path).
pub const ORACLE_SAMPLE: usize = 8;
/// Reported tail percentile of push latency (tens of thousands of samples a
/// run).
pub const PUSH_TAIL: Percentile = Percentile::P99;

/// Where a workload's trees come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The paper's default synthetic shape `N{4,0.5}N{50,2}L8D0.05`
    /// ([`SyntheticConfig::paper_default`]) with `trees` trees.
    Synthetic {
        /// Dataset size.
        trees: usize,
    },
    /// DBLP-style bibliographic records with text leaves
    /// ([`DblpConfig::with_count`]).
    Dblp {
        /// Dataset size.
        records: usize,
    },
}

impl Source {
    /// The generator parameters, as printed in the run header.
    pub fn describe(self) -> String {
        match self {
            Source::Synthetic { trees } => format!(
                "synthetic {} x{trees}",
                SyntheticConfig::paper_default().spec_string()
            ),
            Source::Dblp { records } => format!("dblp records x{records}"),
        }
    }

    /// Generates the dataset for `seed`. Same seed, same forest.
    pub fn generate(self, seed: u64) -> Forest {
        match self {
            Source::Synthetic { trees } => synthetic::generate(&SyntheticConfig {
                tree_count: trees,
                rng_seed: seed,
                ..SyntheticConfig::paper_default()
            }),
            Source::Dblp { records } => {
                dblp::generate_forest(&DblpConfig::with_count(records, seed))
            }
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The dataset generator.
    pub source: Source,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// τ of every range query.
    pub tau: u32,
    /// Query trees asked per draw visit, each with a k-NN query. A run
    /// visits as many independent draws as fit its time, so the random
    /// cluster structure of a single generator draw does not decide its
    /// figures.
    pub queries: usize,
    /// Every this many query trees also get a range query.
    pub range_every: usize,
    /// Queries of each kind in the traced replay.
    pub trace_queries: usize,
}

/// All workloads, as listed in `BENCHMARK.json`.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "synth-2k",
            source: Source::Synthetic { trees: 2000 },
            default_seed: 0x5eed,
            tau: 9,
            queries: 36,
            range_every: 3,
            trace_queries: 120,
        },
        Workload {
            name: "dblp-10k",
            source: Source::Dblp { records: 10_000 },
            default_seed: 0xdb1f,
            tau: 2,
            queries: 1000,
            range_every: 1,
            trace_queries: 600,
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Seed of dataset `dataset` of a run with seed `seed`: output
/// `dataset + 1` of a [`SplitMix64`] stream seeded with `seed`.
///
/// The generators' own RNG is SplitMix64 as well, seeded with the raw
/// state, which it steps by the golden-ratio increment. Seeds that differ by
/// multiples of that increment, such as `seed + d·increment`, would give
/// each draw the previous draw's stream shifted by one value, so draws
/// would share almost all their structure; hashed seeds do not.
pub fn dataset_seed(seed: u64, dataset: usize) -> u64 {
    let mut rng = SplitMix64::new(seed);
    (0..dataset).for_each(|_| {
        rng.next_u64();
    });
    rng.next_u64()
}

impl Workload {
    /// Draw `dataset` of a run with seed `seed`.
    pub fn generate(&self, seed: u64, dataset: usize) -> Forest {
        self.source.generate(dataset_seed(seed, dataset))
    }

    /// The same workload over smaller draws, asking at most one query per
    /// tree of a draw (smoke tests).
    pub fn scaled(mut self, trees: usize) -> Workload {
        self.queries = self.queries.min(trees);
        self.source = match self.source {
            Source::Synthetic { .. } => Source::Synthetic { trees },
            Source::Dblp { .. } => Source::Dblp { records: trees },
        };
        self
    }
}
