//! The correctness oracle: every timed answer is checked after the timed
//! window, and a seeded sample is recomputed exhaustively.
//!
//! * Every answer must be sorted by `(distance, id)` without duplicates,
//!   hold exactly `min(k, n)` neighbors (k-NN) or only distances `≤ τ`
//!   (range), and every reported distance must equal
//!   [`treesim_edit::edit_distance`] of the pair (memoized across repeats).
//! * A sampled answer must equal the brute-force answer: the `k` smallest
//!   by `(d, id)`, or every tree with `d ≤ τ`, over the trees indexed when
//!   the query ran.

use std::collections::HashMap;

use treesim_edit::edit_distance;
use treesim_search::Neighbor;
use treesim_tree::{Forest, TreeId};

/// A query kind with its parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// k-NN with this k.
    Knn(usize),
    /// Range with this τ.
    Range(u32),
}

impl Kind {
    /// `knn` or `range`, as in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Knn(_) => "knn",
            Kind::Range(_) => "range",
        }
    }
}

/// One timed query: which dataset tree was the query, and how many trees
/// (a prefix of the dataset, in id order) were indexed when it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Query kind and parameter.
    pub kind: Kind,
    /// The query tree (a dataset tree).
    pub tree: TreeId,
    /// Indexed trees at query time: ids `0..indexed`.
    pub indexed: usize,
}

/// Checks answers against exact edit distances over `forest`.
pub struct Oracle<'f> {
    forest: &'f Forest,
    memo: HashMap<(u32, u32), u64>,
}

impl<'f> Oracle<'f> {
    /// An oracle over `forest` (query and data trees both come from it).
    pub fn new(forest: &'f Forest) -> Self {
        Oracle {
            forest,
            memo: HashMap::new(),
        }
    }

    /// `edit_distance(query, data)`, memoized.
    pub fn distance(&mut self, query: TreeId, data: TreeId) -> u64 {
        let forest = self.forest;
        *self
            .memo
            .entry((query.0, data.0))
            .or_insert_with(|| edit_distance(forest.tree(query), forest.tree(data)))
    }

    /// The exhaustive answer to `query`.
    pub fn brute_force(&mut self, query: &Query) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = (0..query.indexed as u32)
            .map(|id| Neighbor {
                tree: TreeId(id),
                distance: self.distance(query.tree, TreeId(id)),
            })
            .collect();
        all.sort_unstable_by_key(|n| (n.distance, n.tree));
        match query.kind {
            Kind::Knn(k) => all.truncate(k),
            Kind::Range(tau) => all.retain(|n| n.distance <= u64::from(tau)),
        }
        all
    }

    /// Checks `answer` to `query`; with `exhaustive`, also against the
    /// brute-force answer. Returns what is wrong, if anything.
    pub fn check(
        &mut self,
        query: &Query,
        answer: &[Neighbor],
        exhaustive: bool,
    ) -> Result<(), String> {
        if !answer
            .windows(2)
            .all(|w| (w[0].distance, w[0].tree) < (w[1].distance, w[1].tree))
        {
            return Err("answer not strictly ascending by (distance, id)".into());
        }
        match query.kind {
            Kind::Knn(k) if answer.len() != k.min(query.indexed) => {
                return Err(format!(
                    "{} neighbors, expected {}",
                    answer.len(),
                    k.min(query.indexed)
                ));
            }
            Kind::Range(tau) if answer.iter().any(|n| n.distance > u64::from(tau)) => {
                return Err(format!("range answer beyond tau {tau}"));
            }
            _ => {}
        }
        for n in answer {
            if n.tree.index() >= query.indexed {
                return Err(format!("tree {} was not indexed yet", n.tree.0));
            }
            let exact = self.distance(query.tree, n.tree);
            if exact != n.distance {
                return Err(format!(
                    "tree {}: reported d={}, exact {exact}",
                    n.tree.0, n.distance
                ));
            }
        }
        if exhaustive {
            let expected = self.brute_force(query);
            if expected != answer {
                return Err(format!(
                    "differs from brute force: {answer:?} vs {expected:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Timed answers of one run and the bookkeeping to verify them.
///
/// An answer is `None` when the operation panicked; that, like a wrong
/// answer, counts as a failure.
#[derive(Default)]
pub struct Ledger {
    /// Every timed query, in execution order.
    pub queries: Vec<Query>,
    /// The answer each query returned.
    pub answers: Vec<Option<Vec<Neighbor>>>,
    /// Operations attempted other than queries (pushes).
    pub other_attempted: usize,
    /// Failed operations other than queries.
    pub other_failed: usize,
}

impl Ledger {
    /// Records one timed query and its answer.
    pub fn record(&mut self, query: Query, answer: Option<Vec<Neighbor>>) {
        self.queries.push(query);
        self.answers.push(answer);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.queries.len() + self.other_attempted
    }

    /// Checks every recorded answer against `forest`, the dataset the
    /// queries ran on; `sample` positions (indices into `queries`) are also
    /// checked exhaustively. Identical repeats of a query are checked once.
    /// The ledger is split over two threads. Returns the failure count and
    /// the first few failure messages.
    pub fn verify(&self, forest: &Forest, sample: &[usize]) -> (usize, Vec<String>) {
        let mid = self.queries.len() / 2;
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| self.verify_span(forest, sample, 0..mid));
            let second = self.verify_span(forest, sample, mid..self.queries.len());
            (first.join().expect("oracle thread panicked"), second)
        });
        let mut messages = first.1;
        messages.extend(second.1);
        messages.truncate(5);
        (self.other_failed + first.0 + second.0, messages)
    }

    fn verify_span(
        &self,
        forest: &Forest,
        sample: &[usize],
        span: std::ops::Range<usize>,
    ) -> (usize, Vec<String>) {
        let mut oracle = Oracle::new(forest);
        let mut passed: HashMap<Query, &[Neighbor]> = HashMap::new();
        let mut failed = 0;
        let mut messages = Vec::new();
        for i in span {
            let (query, answer) = (&self.queries[i], &self.answers[i]);
            let exhaustive = sample.contains(&i);
            let verdict = match answer {
                None => Err("operation panicked".to_string()),
                Some(answer) if !exhaustive && passed.get(query) == Some(&answer.as_slice()) => {
                    Ok(())
                }
                Some(answer) => oracle.check(query, answer, exhaustive),
            };
            if let (Some(answer), Ok(())) = (answer, &verdict) {
                passed.insert(*query, answer);
            }
            if let Err(message) = verdict {
                failed += 1;
                if messages.len() < 5 {
                    messages.push(format!("{query:?}: {message}"));
                }
            }
        }
        (failed, messages)
    }
}

/// Verification totals over the ledgers of a run (one per dataset draw).
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Answers checked.
    pub checked: usize,
    /// Answers also checked by brute force.
    pub exhaustive: usize,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Verdict {
    /// Verifies `ledger` against `forest` (see [`Ledger::verify`]) and adds
    /// the result.
    pub fn settle(&mut self, ledger: &Ledger, forest: &Forest, mut sample: Vec<usize>) {
        sample.sort_unstable();
        sample.dedup();
        let (failed, messages) = ledger.verify(forest, &sample);
        self.attempted += ledger.attempted();
        self.failed += failed;
        self.checked += ledger.queries.len();
        self.exhaustive += sample.len();
        self.messages.extend(messages);
        self.messages.truncate(5);
    }
}
