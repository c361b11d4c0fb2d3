//! The timed phases of a run: index set-up, the closed-loop query phase
//! with its ingest probe, and the ingest pass of the traced run.
//!
//! Every phase runs on the calling thread, one operation at a time (one
//! closed-loop client); only [`SearchEngine::new`] fans its per-tree
//! precomputation out over the machine's cores. Queries and pushes are
//! timed in the calling thread's CPU time ([`thread_cpu_s`]), index builds
//! in wall-clock time. Each timed operation is wrapped in `catch_unwind`,
//! so a panic is recorded as a failed operation instead of ending the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use treesim_search::{DynamicIndex, PostingsFilter, SearchEngine, SearchStats};
use treesim_tree::{Forest, TreeId};

use crate::oracle::{Kind, Ledger, Query, Verdict};
use crate::reference::Reference;
use crate::rng::SplitMix64;
use crate::stats;
use crate::workload::{
    dataset_seed, Workload, K, KNN_EVERY, ORACLE_SAMPLE, PUSH_TAIL, Q, QUERY_TAIL, RANGE_EVERY,
};

/// Stream tags, so each use of the run seed draws an independent stream.
pub const ORDER_STREAM: u64 = 0x6f72_6465_7200_0001;
/// See [`ORDER_STREAM`].
pub const INGEST_STREAM: u64 = 0x696e_6765_7374_0002;
/// See [`ORDER_STREAM`].
pub const SAMPLE_STREAM: u64 = 0x7361_6d70_6c65_0003;

/// How long one index build took, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTime {
    /// `PostingsFilter::build`.
    pub index_s: f64,
    /// `SearchEngine::new` (the per-tree Zhang–Shasha tables).
    pub treeinfo_s: f64,
}

impl BuildTime {
    /// The whole build: what `setup_s` reports.
    pub fn total_s(self) -> f64 {
        self.index_s + self.treeinfo_s
    }
}

/// Builds the static index over `forest`, timing both parts.
pub fn build(forest: &Forest, q: usize) -> (SearchEngine<'_, PostingsFilter>, BuildTime) {
    let start = Instant::now();
    let filter = PostingsFilter::build(forest, q);
    let built = Instant::now();
    let engine = SearchEngine::new(forest, filter);
    let time = BuildTime {
        index_s: (built - start).as_secs_f64(),
        treeinfo_s: built.elapsed().as_secs_f64(),
    };
    (engine, time)
}

/// Set-up samples of a traced run: it builds its index several times and
/// reports medians.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes(pub Vec<BuildTime>);

impl SetupTimes {
    /// Builds the static index over `forest`, recording the time.
    pub fn build<'f>(&mut self, forest: &'f Forest, q: usize) -> SearchEngine<'f, PostingsFilter> {
        let (engine, time) = build(forest, q);
        self.0.push(time);
        engine
    }

    /// Median over builds of `f`.
    pub fn median(&self, f: fn(BuildTime) -> f64) -> f64 {
        stats::median(&self.0.iter().map(|&b| f(b)).collect::<Vec<_>>())
    }
}

/// CPU time consumed so far by the calling thread, in seconds.
///
/// The operations the benchmark times run on the calling thread alone and
/// never wait on another thread or on I/O, so their CPU time is their
/// latency on an otherwise idle machine. Unlike wall-clock time it leaves
/// out the time the hypervisor gave this vCPU to other guests (the kernel
/// subtracts steal time from task clocks), which on a shared host moves
/// whole runs by tens of percent. Page faults and allocation inside the
/// call are included.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets the benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One timed operation: its result (`None` if it panicked), its CPU time
/// ([`thread_cpu_s`]) and its wall-clock time, both in seconds.
fn timed<T>(op: impl FnOnce() -> T) -> (Option<T>, f64, f64) {
    let wall = Instant::now();
    let cpu = thread_cpu_s();
    let out = catch_unwind(AssertUnwindSafe(op)).ok();
    let cpu = thread_cpu_s() - cpu;
    (out, cpu, wall.elapsed().as_secs_f64())
}

/// Samples of the static phase, pooled over every draw visit.
#[derive(Default)]
pub struct StaticPhase {
    /// Every build's time.
    pub builds: Vec<BuildTime>,
    /// Per-query k-NN latency (CPU time), ms.
    pub knn_ms: Vec<f64>,
    /// Per-query range latency (CPU time), ms.
    pub range_ms: Vec<f64>,
    /// Per-push latency (CPU time) of the ingest probe, µs.
    pub push_us: Vec<f64>,
    /// CPU time inside query calls, s.
    pub query_cpu_s: f64,
    /// Wall-clock time inside query calls, s.
    pub query_wall_s: f64,
    /// Draws visited.
    pub visits: usize,
    /// Wall-clock time spent checking answers, s.
    pub check_s: f64,
    /// Host-speed probes taken between chunks of every visit.
    pub reference: Reference,
    /// The oracle's verdict over every timed answer and push.
    pub verdict: Verdict,
}

impl StaticPhase {
    /// Whether every latency series has enough samples for its tail.
    fn has_tails(&self) -> bool {
        self.knn_ms.len() >= QUERY_TAIL.min_samples()
            && self.range_ms.len() >= QUERY_TAIL.min_samples()
            && self.push_us.len() >= PUSH_TAIL.min_samples()
    }
}

/// The seeded query order over dataset `dataset`: every tree once,
/// shuffled.
pub fn query_order(forest: &Forest, seed: u64, dataset: usize) -> Vec<TreeId> {
    let mut order: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    SplitMix64::new(dataset_seed(seed, dataset) ^ ORDER_STREAM).shuffle(&mut order);
    order
}

/// An empty `DynamicIndex` sharing `forest`'s label interner.
fn fresh_index(forest: &Forest, q: usize) -> DynamicIndex {
    let mut index = DynamicIndex::new(q);
    *index.interner_mut() = forest.interner().clone();
    index
}

/// Ingest-probe chunks per draw visit (see [`static_phase`]).
pub const PUSH_CHUNKS: usize = 16;

/// A host-speed probe ([`Reference::probe`]) follows every this many
/// chunks of a visit.
pub const PROBE_EVERY: usize = 4;

/// Closed-loop static phase: visits draws `0, 1, 2, …` of the workload's
/// seed in turn until `seconds` have passed (and every latency series has
/// enough samples for its tail). A visit generates its draw, builds its
/// index (timed) and, for each of the first [`Workload::queries`] trees of
/// its seeded query order, asks one k-NN query, and for every
/// [`Workload::range_every`]-th of them one range query too. Meanwhile an
/// ingest probe, a fresh `DynamicIndex`, grows by `push` through the whole
/// draw in id order, in [`PUSH_CHUNKS`] chunks evenly interleaved with the
/// queries, and after every [`PROBE_EVERY`] chunks the host's speed is
/// probed. What a visit does depends on the seed alone; how many draws a
/// run visits depends on how fast it goes.
///
/// After each visit, outside the timed calls, its answers are checked by
/// the oracle (the first answer of each kind by brute force on the first
/// [`ORACLE_SAMPLE`] draws), and the draw is dropped before the next one
/// is generated.
pub fn static_phase(w: &Workload, seed: u64, seconds: f64) -> StaticPhase {
    let start = Instant::now();
    let mut phase = StaticPhase::default();
    while phase.visits == 0 || start.elapsed().as_secs_f64() < seconds || !phase.has_tails() {
        visit(w, seed, phase.visits, &mut phase);
        phase.visits += 1;
    }
    phase
}

/// One visit of [`static_phase`] to draw `d`.
fn visit(w: &Workload, seed: u64, d: usize, phase: &mut StaticPhase) {
    let forest = w.generate(seed, d);
    let mut ledger = Ledger::default();
    // The engine and the probe are dropped at the end of this block,
    // before the oracle runs.
    {
        let (engine, built) = build(&forest, Q);
        phase.builds.push(built);
        let order = query_order(&forest, seed, d);
        let mut probe = fresh_index(&forest, Q);
        let mut asked = 0;
        for chunk in 1..=PUSH_CHUNKS {
            while asked < w.queries * chunk / PUSH_CHUNKS {
                let (i, id) = (asked, order[asked % order.len()]);
                asked += 1;
                let tree = forest.tree(id);
                let kinds = if i % w.range_every == 0 {
                    &[Kind::Knn(K), Kind::Range(w.tau)][..]
                } else {
                    &[Kind::Knn(K)][..]
                };
                for &kind in kinds {
                    let (answer, cpu, wall) = match kind {
                        Kind::Knn(k) => timed(|| engine.knn(tree, k).0),
                        Kind::Range(tau) => timed(|| engine.range(tree, tau).0),
                    };
                    phase.query_cpu_s += cpu;
                    phase.query_wall_s += wall;
                    match kind {
                        Kind::Knn(_) => phase.knn_ms.push(cpu * 1e3),
                        Kind::Range(_) => phase.range_ms.push(cpu * 1e3),
                    }
                    let query = Query {
                        kind,
                        tree: id,
                        indexed: forest.len(),
                    };
                    ledger.record(query, answer);
                }
            }
            while probe.len() < forest.len() * chunk / PUSH_CHUNKS {
                let next = TreeId(probe.len() as u32);
                let tree = forest.tree(next).clone();
                let (pushed, cpu, _) = timed(|| probe.push(tree));
                phase.push_us.push(cpu * 1e6);
                ledger.other_attempted += 1;
                ledger.other_failed += usize::from(pushed != Some(next));
            }
            if chunk % PROBE_EVERY == 0 {
                phase.reference.probe();
            }
        }
    }
    // The first k-NN and range answers of the visit: a seeded sample, as
    // query orders are shuffled.
    let sample = if d < ORACLE_SAMPLE {
        vec![0, 1]
    } else {
        Vec::new()
    };
    let checking = Instant::now();
    phase.verdict.settle(&ledger, &forest, sample);
    phase.check_s += checking.elapsed().as_secs_f64();
}

/// Summed funnel counters of a series of queries, taken from the
/// [`SearchStats`] each query returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Queries summed.
    pub queries: usize,
    /// Per stage: `(name, evaluated, pruned)`.
    pub stages: Vec<(&'static str, usize, usize)>,
    /// Refinements (completed and cut off).
    pub refined: usize,
    /// Refinements cut off at the live budget.
    pub cutoffs: usize,
    /// DP cells skipped by the bounded refinement.
    pub cells_skipped: u64,
}

impl Funnel {
    /// Adds one query's stats.
    pub fn add(&mut self, stats: &SearchStats) {
        if self.stages.is_empty() {
            self.stages = stats.stages.iter().map(|s| (s.name, 0, 0)).collect();
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&stats.stages) {
            mine.1 += theirs.evaluated;
            mine.2 += theirs.pruned;
        }
        self.queries += 1;
        self.refined += stats.refined;
        self.cutoffs += stats.refine_cutoffs;
        self.cells_skipped += stats.refine_bands_skipped;
    }
}

/// Latencies and funnel totals of one ingest pass.
#[derive(Default)]
pub struct IngestPass {
    /// Per-push latency (CPU time), µs.
    pub push_us: Vec<f64>,
    /// Per-query k-NN latency (CPU time), ms.
    pub knn_ms: Vec<f64>,
    /// Per-query range latency (CPU time), ms.
    pub range_ms: Vec<f64>,
    /// Funnel of the k-NN queries.
    pub knn_funnel: Funnel,
    /// Funnel of the range queries.
    pub range_funnel: Funnel,
    /// Ledger positions of this pass's k-NN answers.
    pub knn_positions: Vec<usize>,
    /// Ledger positions of this pass's range answers.
    pub range_positions: Vec<usize>,
}

impl IngestPass {
    /// Times one dynamic query for a seeded choice among the `indexed`
    /// trees pushed so far and records its answer.
    fn query(
        &mut self,
        index: &DynamicIndex,
        kind: Kind,
        indexed: usize,
        rng: &mut SplitMix64,
        ledger: &mut Ledger,
    ) {
        let tree = TreeId(rng.below(indexed) as u32);
        let query = index.forest().tree(tree);
        let (answer, cpu, _) = match kind {
            Kind::Knn(k) => timed(|| index.knn(query, k)),
            Kind::Range(tau) => timed(|| index.range(query, tau)),
        };
        let (latencies, funnel, positions) = match kind {
            Kind::Knn(_) => (
                &mut self.knn_ms,
                &mut self.knn_funnel,
                &mut self.knn_positions,
            ),
            Kind::Range(_) => (
                &mut self.range_ms,
                &mut self.range_funnel,
                &mut self.range_positions,
            ),
        };
        latencies.push(cpu * 1e3);
        positions.push(ledger.queries.len());
        let answer = answer.map(|(answer, stats)| {
            funnel.add(&stats);
            answer
        });
        ledger.record(
            Query {
                kind,
                tree,
                indexed,
            },
            answer,
        );
    }
}

/// One ingest pass over `forest`: a fresh `DynamicIndex` grows by `push`
/// through the whole dataset in id order; after every [`KNN_EVERY`] pushes
/// it answers one k-NN, after every [`RANGE_EVERY`] one range query, each
/// for a seeded choice among the trees pushed so far. Every pass over the
/// same dataset with the same seed performs the same operations.
pub fn ingest_pass(forest: &Forest, w: &Workload, seed: u64, ledger: &mut Ledger) -> IngestPass {
    let mut index = fresh_index(forest, Q);
    let mut rng = SplitMix64::new(seed ^ INGEST_STREAM);
    let mut pass = IngestPass::default();
    for (id, tree) in forest.iter() {
        let tree = tree.clone();
        let (pushed, cpu, _) = timed(|| index.push(tree));
        pass.push_us.push(cpu * 1e6);
        ledger.other_attempted += 1;
        ledger.other_failed += usize::from(pushed != Some(id));
        let indexed = id.index() + 1;
        if indexed % KNN_EVERY == 0 {
            pass.query(&index, Kind::Knn(K), indexed, &mut rng, ledger);
        }
        if indexed % RANGE_EVERY == 0 {
            pass.query(&index, Kind::Range(w.tau), indexed, &mut rng, ledger);
        }
    }
    pass
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cost of one `Instant::now()` + `elapsed()` pair, in ns (median of
/// several batches).
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PAIRS {
                std::hint::black_box(Instant::now().elapsed());
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
        })
        .collect();
    stats::median(&batches)
}
