//! The host-speed reference: fixed work in the benchmark's own code, timed
//! throughout a run so its times can be put on a steady scale.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed moves in
//! steps: for minutes at a time the same code runs about a quarter faster
//! or slower, the library's queries, pushes and builds alike. Two runs of
//! the same code therefore differ by more than any useful regression bound,
//! whatever the run does inside. The run probes the host with the work
//! below — trees, hashing, allocation and a tree edit distance dynamic
//! program, like the library's own work, but written here and on fixed
//! inputs, so no change to the library moves it — and reports every time
//! scaled by [`REFERENCE_MS`] / (the median probe time of the run): the
//! time the operation would take on the host in the state in which a probe
//! takes [`REFERENCE_MS`]. A change to the library moves the scaled
//! figures as it moves the measured ones; a change of the host's state
//! moves the probe too and cancels out. The measured figures and the
//! probe's median are printed on standard error.

use std::collections::HashMap;
use std::hint::black_box;

use crate::rng::SplitMix64;
use crate::run::thread_cpu_s;
use crate::stats;

/// Median probe CPU time, in ms, of the host state the reported figures
/// are scaled to: the slower, more common of the two states of the 2-vCPU
/// Xeon VM the benchmark was tuned on (≈ 2.2 ms in the faster one).
pub const REFERENCE_MS: f64 = 3.0;

/// Trees of the reference input.
const TREES: usize = 24;
/// Nodes per reference tree.
const NODES: usize = 48;
/// Distinct labels of the reference trees.
const LABELS: u64 = 8;

/// A tree in postorder: per node its label, first child, next sibling
/// (`NONE` if absent) and leftmost leaf, plus the Zhang–Shasha keyroots.
struct Flat {
    labels: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    leftmost: Vec<usize>,
    keyroots: Vec<usize>,
}

const NONE: u32 = u32::MAX;

impl Flat {
    /// A random tree: node `i` hangs below a uniformly chosen earlier node.
    fn random(rng: &mut SplitMix64) -> Flat {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); NODES];
        let mut labels = [0u32; NODES];
        for (i, label) in labels.iter_mut().enumerate() {
            *label = rng.below(LABELS as usize) as u32;
            if i > 0 {
                children[rng.below(i)].push(i);
            }
        }
        // Postorder numbering.
        let mut post = vec![0usize; NODES];
        let mut order = Vec::with_capacity(NODES);
        let mut stack = vec![(0usize, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                post[node] = order.len();
                order.push(node);
            } else {
                stack.push((node, true));
                stack.extend(children[node].iter().rev().map(|&c| (c, false)));
            }
        }
        let mut flat = Flat {
            labels: order.iter().map(|&n| labels[n]).collect(),
            first_child: vec![NONE; NODES],
            next_sibling: vec![NONE; NODES],
            leftmost: vec![0; NODES],
            keyroots: Vec::new(),
        };
        for (p, &node) in order.iter().enumerate() {
            let kids = &children[node];
            if let Some(&first) = kids.first() {
                flat.first_child[p] = post[first] as u32;
                flat.leftmost[p] = flat.leftmost[post[first]];
            } else {
                flat.leftmost[p] = p;
            }
            for pair in kids.windows(2) {
                flat.next_sibling[post[pair[0]]] = post[pair[1]] as u32;
            }
        }
        // A keyroot is the highest node with its leftmost leaf.
        let mut highest = HashMap::new();
        for p in 0..NODES {
            highest.insert(flat.leftmost[p], p);
        }
        flat.keyroots = highest.into_values().collect();
        flat.keyroots.sort_unstable();
        flat
    }

    /// Counts of the tree's binary branches (label, first-child label,
    /// next-sibling label).
    fn branches(&self) -> HashMap<(u32, u32, u32), u32> {
        let label = |n: u32| {
            if n == NONE {
                NONE
            } else {
                self.labels[n as usize]
            }
        };
        let mut counts = HashMap::new();
        for p in 0..self.labels.len() {
            let key = (
                self.labels[p],
                label(self.first_child[p]),
                label(self.next_sibling[p]),
            );
            *counts.entry(key).or_insert(0) += 1;
        }
        counts
    }
}

/// Unit-cost tree edit distance (Zhang & Shasha).
fn edit_distance(a: &Flat, b: &Flat) -> u32 {
    let (n, m) = (a.labels.len(), b.labels.len());
    let mut tree = vec![0u32; n * m];
    let mut forest = vec![0u32; (n + 1) * (m + 1)];
    for &i in &a.keyroots {
        for &j in &b.keyroots {
            let (li, lj) = (a.leftmost[i], b.leftmost[j]);
            let w = j - lj + 2;
            forest[0] = 0;
            for x in 1..=i - li + 1 {
                forest[x * w] = forest[(x - 1) * w] + 1;
            }
            for y in 1..=j - lj + 1 {
                forest[y] = forest[y - 1] + 1;
            }
            for x in 1..=i - li + 1 {
                let ni = li + x - 1;
                for y in 1..=j - lj + 1 {
                    let nj = lj + y - 1;
                    let edit = (forest[(x - 1) * w + y] + 1).min(forest[x * w + y - 1] + 1);
                    let cell = if a.leftmost[ni] == li && b.leftmost[nj] == lj {
                        let rename = u32::from(a.labels[ni] != b.labels[nj]);
                        let d = edit.min(forest[(x - 1) * w + y - 1] + rename);
                        tree[ni * m + nj] = d;
                        d
                    } else {
                        let (p, q) = (a.leftmost[ni] - li, b.leftmost[nj] - lj);
                        edit.min(forest[p * w + q] + tree[ni * m + nj])
                    };
                    forest[x * w + y] = cell;
                }
            }
        }
    }
    tree[n * m - 1]
}

/// The reference input and the probes taken so far.
pub struct Reference {
    trees: Vec<Flat>,
    /// CPU time of each probe, ms.
    pub probes_ms: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The fixed reference input (the same on every run, whatever the
    /// seed).
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x7265_6665_7265_6e63);
        Reference {
            trees: (0..TREES).map(|_| Flat::random(&mut rng)).collect(),
            probes_ms: Vec::new(),
        }
    }

    /// The probe's work: the branch profile of every reference tree and the
    /// edit distance of each tree to the next.
    fn work(&self) -> u64 {
        let mut sum = 0u64;
        for (i, tree) in self.trees.iter().enumerate() {
            sum += black_box(tree.branches()).len() as u64;
            let next = &self.trees[(i + 1) % self.trees.len()];
            sum += u64::from(edit_distance(black_box(tree), next));
        }
        sum
    }

    /// One probe: the work, timed in CPU time. It runs straight after a
    /// chunk of the workload, from the caches and heap the workload left,
    /// as the library's own calls do; a probe warmed up by an untimed run
    /// of the same work answered a change of the host's state by about a
    /// third more than the library's calls did.
    pub fn probe(&mut self) {
        let start = thread_cpu_s();
        black_box(self.work());
        self.probes_ms.push((thread_cpu_s() - start) * 1e3);
    }

    /// Median probe time, ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.probes_ms)
    }

    /// The factor that scales a time measured in this run to the reference
    /// host state: [`REFERENCE_MS`] / median probe time.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(labels: &[u32]) -> Flat {
        // A chain: node p's only child is p - 1 (postorder).
        let n = labels.len();
        let mut first_child = vec![NONE; n];
        for (p, child) in first_child.iter_mut().enumerate().skip(1) {
            *child = p as u32 - 1;
        }
        Flat {
            labels: labels.to_vec(),
            first_child,
            next_sibling: vec![NONE; n],
            leftmost: vec![0; n],
            keyroots: vec![n - 1],
        }
    }

    #[test]
    fn edit_distance_of_chains_is_string_edit_distance() {
        assert_eq!(edit_distance(&path(&[1, 2, 3]), &path(&[1, 2, 3])), 0);
        assert_eq!(edit_distance(&path(&[1, 2, 3]), &path(&[1, 4, 3])), 1);
        assert_eq!(edit_distance(&path(&[1, 2, 3]), &path(&[1, 3])), 1);
        assert_eq!(edit_distance(&path(&[1]), &path(&[2, 3, 4])), 3);
    }

    #[test]
    fn random_trees_are_postordered_and_distances_symmetric() {
        let r = Reference::new();
        for t in &r.trees {
            assert_eq!(t.labels.len(), NODES);
            assert_eq!(t.leftmost[NODES - 1], 0);
            assert_eq!(*t.keyroots.last().unwrap(), NODES - 1);
            assert_eq!(t.branches().values().sum::<u32>() as usize, NODES);
        }
        let (a, b) = (&r.trees[0], &r.trees[1]);
        assert_eq!(edit_distance(a, a), 0);
        assert_eq!(edit_distance(a, b), edit_distance(b, a));
        assert!(edit_distance(a, b) <= 2 * NODES as u32);
    }
}
