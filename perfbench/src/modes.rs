//! The two kinds of run: the end-to-end run (`--trace 0`), measured with
//! nothing but per-operation timers, and the traced run (`--trace 1`),
//! which reports the per-layer split.

use std::time::{Duration, Instant};

use treesim_edit::TreeInfo;
use treesim_search::{Filter, PostingsFilter, SearchEngine};
use treesim_tree::{Tree, TreeId};

use crate::oracle::{Kind, Ledger, Query, Verdict};
use crate::reference;
use crate::replay::{self, LayerTimes, Trace};
use crate::rng::SplitMix64;
use crate::run::{self, Funnel, IngestPass, SetupTimes};
use crate::stats::{self, Percentile};
use crate::workload::{Workload, K, ORACLE_SAMPLE, PUSH_TAIL, Q, QUERY_TAIL};

/// Ingest-pass answers of each kind a traced run checks exhaustively.
const INGEST_SAMPLE: usize = 2;

/// Index builds of a traced run; the `setup.*` layers are their medians.
const BUILDS: usize = 7;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (queries and pushes).
    pub attempted: usize,
    /// Operations that panicked or returned a wrong answer.
    pub failed: usize,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (sample counts, percentiles, failures).
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Takes the oracle's counts and failure messages.
    fn absorb(&mut self, verdict: &Verdict) {
        self.attempted += verdict.attempted;
        self.failed += verdict.failed;
        self.notes.push(format!(
            "oracle: {} answers checked, {} exhaustively",
            verdict.checked, verdict.exhaustive
        ));
        let failures = verdict.messages.iter().map(|m| format!("FAILED {m}"));
        self.notes.extend(failures);
    }
}

/// p50 and the workload's tail percentile of one latency series.
fn p50_and_tail(samples: &[f64], tail: Percentile, what: &str) -> Result<(f64, f64), String> {
    let mut samples = samples.to_vec();
    stats::sort(&mut samples);
    let tail = stats::tail(&samples, tail).map_err(|e| format!("{what}: {e}"))?;
    Ok((stats::percentile(&samples, Percentile::P50), tail))
}

/// Picks `count` of `positions` with `rng`.
fn pick(rng: &mut SplitMix64, positions: &[usize], count: usize) -> Vec<usize> {
    rng.sample(positions.len(), count)
        .into_iter()
        .map(|i| positions[i])
        .collect()
}

/// The end-to-end run: the workload's static phase (index builds, timed
/// queries and probe pushes, one draw at a time, each draw's answers
/// checked before the next draw is generated), reported as medians and
/// tails over every sample of the run.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let phase = run::static_phase(w, seed, seconds);
    let peak_rss_mb = run::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut outcome = Outcome::default();
    outcome.absorb(&phase.verdict);
    outcome.notes.push(format!(
        "phases: {:.1}s in all over {} draws ({:.1}s checking answers, {:.1}s inside query calls); inside query calls CPU time was {:.1}% of wall-clock time",
        start.elapsed().as_secs_f64(),
        phase.visits,
        phase.check_s,
        phase.query_wall_s,
        100.0 * phase.query_cpu_s / phase.query_wall_s
    ));

    let (knn_p50, knn_tail) = p50_and_tail(&phase.knn_ms, QUERY_TAIL, "knn")?;
    let (range_p50, range_tail) = p50_and_tail(&phase.range_ms, QUERY_TAIL, "range")?;
    let (push_p50, push_tail) = p50_and_tail(&phase.push_us, PUSH_TAIL, "push")?;
    let queries = phase.knn_ms.len() + phase.range_ms.len();
    let setup_s: Vec<f64> = phase.builds.iter().map(|&b| b.total_s()).collect();
    let times = [
        ("setup_s", stats::median(&setup_s), "s"),
        ("knn_p50_ms", knn_p50, "ms"),
        ("knn_tail_ms", knn_tail, "ms"),
        ("range_p50_ms", range_p50, "ms"),
        ("range_tail_ms", range_tail, "ms"),
        ("qps", phase.query_cpu_s / queries as f64, "1/s"),
        ("push_p50_us", push_p50, "us"),
        ("push_tail_us", push_tail, "us"),
    ];
    // Every time is put on the reference host state's scale; qps is the
    // inverse of the time per query.
    let scale = phase.reference.scale();
    let mut measured = Vec::with_capacity(times.len());
    for (name, value, unit) in times {
        let (measured_value, reported) = if name == "qps" {
            (1.0 / value, 1.0 / (value * scale))
        } else {
            (value, value * scale)
        };
        measured.push(format!("{name} {measured_value:.4}"));
        outcome.push(name, reported, unit);
    }
    outcome.notes.push(format!(
        "host speed: median probe {:.4} ms over {} probes (reference {} ms), so times are scaled by {:.4}; as measured: {}",
        phase.reference.median_ms(),
        phase.reference.probes_ms.len(),
        reference::REFERENCE_MS,
        scale,
        measured.join(", ")
    ));
    outcome.push("peak_rss_mb", peak_rss_mb, "MB");
    outcome.notes.push(format!(
        "samples: knn {} (tail {}), range {} (tail {}), push {} (tail {}), builds {}",
        phase.knn_ms.len(),
        QUERY_TAIL.label(),
        phase.range_ms.len(),
        QUERY_TAIL.label(),
        phase.push_us.len(),
        PUSH_TAIL.label(),
        setup_s.len()
    ));
    Ok(outcome)
}

/// One query path's replay: the recorded traces and the per-repetition
/// timings.
struct PathReplay<'t> {
    kind: Kind,
    queries: Vec<&'t Tree>,
    traces: Vec<Trace>,
    engine: Vec<Duration>,
    layers: Vec<LayerTimes>,
}

/// Pass 1 for one path: replay every query, check it against the engine,
/// and record the engine's answers for the oracle.
fn record_path<'t>(
    engine: &SearchEngine<'t, PostingsFilter>,
    infos: &[TreeInfo],
    ids: &[TreeId],
    order: &[TreeId],
    kind: Kind,
    ledger: &mut Ledger,
) -> Result<PathReplay<'t>, String> {
    let forest = engine.forest();
    let queries: Vec<&Tree> = order.iter().map(|&id| forest.tree(id)).collect();
    let mut traces = Vec::with_capacity(order.len());
    for (&id, query) in order.iter().zip(&queries) {
        let (trace, (results, stats)) = match kind {
            Kind::Knn(k) => (
                replay::replay_knn(engine.filter(), infos, ids, id, query, k),
                engine.knn(query, k),
            ),
            Kind::Range(tau) => (
                replay::replay_range(engine.filter(), infos, ids, id, query, tau),
                engine.range(query, tau),
            ),
        };
        trace.check_against(&results, &stats)?;
        let indexed = forest.len();
        ledger.record(
            Query {
                kind,
                tree: id,
                indexed,
            },
            Some(results),
        );
        traces.push(trace);
    }
    Ok(PathReplay {
        kind,
        queries,
        traces,
        engine: Vec::new(),
        layers: Vec::new(),
    })
}

/// Pass 2, one repetition for one path: the untraced engine over every
/// query, then the layer sweeps over the same queries.
fn time_path(
    engine: &SearchEngine<'_, PostingsFilter>,
    infos: &[TreeInfo],
    ids: &[TreeId],
    replay: &mut PathReplay<'_>,
) {
    let start = Instant::now();
    for query in &replay.queries {
        std::hint::black_box(match replay.kind {
            Kind::Knn(k) => engine.knn(query, k),
            Kind::Range(tau) => engine.range(query, tau),
        });
    }
    replay.engine.push(start.elapsed());
    let layers = replay::sweep(
        engine.filter(),
        infos,
        ids,
        &replay.queries,
        &replay.traces,
        replay.kind,
    );
    replay.layers.push(layers);
}

/// Per-layer metrics of one path.
fn report_path(outcome: &mut Outcome, filter: &PostingsFilter, replay: &PathReplay<'_>) {
    let per_query = |d: Duration| d.as_secs_f64() * 1e6 / replay.queries.len() as f64;
    let median_us = |f: &dyn Fn(&LayerTimes) -> Duration| {
        stats::median(
            &replay
                .layers
                .iter()
                .map(|l| per_query(f(l)))
                .collect::<Vec<_>>(),
        )
    };
    let mean = |f: &dyn Fn(&Trace) -> u64| {
        replay.traces.iter().map(f).sum::<u64>() as f64 / replay.traces.len() as f64
    };
    let kind = replay.kind.name();
    let engine: Vec<f64> = replay.engine.iter().map(|&d| per_query(d)).collect();
    let residual: Vec<f64> = replay
        .engine
        .iter()
        .zip(&replay.layers)
        .map(|(&e, l)| per_query(e) - per_query(l.total()))
        .collect();
    outcome.push(format!("{kind}.engine.us"), stats::median(&engine), "us");
    outcome.push(
        format!("{kind}.engine.residual.us"),
        stats::median(&residual),
        "us",
    );
    outcome.push(
        format!("{kind}.filter.prepare.us"),
        median_us(&|l| l.prepare),
        "us",
    );
    let stages = filter.stages();
    for stage in 0..stages {
        let name = filter.stage_name(stage);
        let evaluated = mean(&|t| t.evaluated[stage] as u64);
        let pruned = mean(&|t| t.pruned[stage] as u64);
        outcome.push(
            format!("{kind}.filter.{name}.us"),
            median_us(&|l| l.stages[stage]),
            "us",
        );
        outcome.push(
            format!("{kind}.filter.{name}.evaluated"),
            evaluated,
            "count",
        );
        outcome.push(format!("{kind}.filter.{name}.pruned"), pruned, "count");
        if stage + 1 == stages {
            let rate = if evaluated > 0.0 {
                pruned / evaluated
            } else {
                0.0
            };
            outcome.push(format!("{kind}.filter.{name}.prune_rate"), rate, "ratio");
        }
    }
    outcome.push(
        format!("{kind}.edit.treeinfo.us"),
        median_us(&|l| l.treeinfo),
        "us",
    );
    let done = mean(&|t| t.done.len() as u64);
    let cut = mean(&|t| t.cut.len() as u64);
    outcome.push(
        format!("{kind}.edit.refine_done.us"),
        median_us(&|l| l.refine_done),
        "us",
    );
    outcome.push(format!("{kind}.edit.refine_done.calls"), done, "count");
    outcome.push(
        format!("{kind}.edit.refine_done.cells"),
        mean(&|t| t.cells_done),
        "count",
    );
    outcome.push(
        format!("{kind}.edit.refine_cut.us"),
        median_us(&|l| l.refine_cut),
        "us",
    );
    outcome.push(format!("{kind}.edit.refine_cut.calls"), cut, "count");
    outcome.push(
        format!("{kind}.edit.refine_cut.cells"),
        mean(&|t| t.cells_cut),
        "count",
    );
    let ratio = if done + cut > 0.0 {
        cut / (done + cut)
    } else {
        0.0
    };
    outcome.push(format!("{kind}.edit.cut_ratio"), ratio, "ratio");
    outcome.push(
        format!("{kind}.edit.cells_skipped"),
        mean(&|t| t.cells_skipped),
        "count",
    );
}

/// Per-query means of one dynamic query series' funnel.
fn report_funnel(outcome: &mut Outcome, kind: &str, funnel: &Funnel) {
    let per_query = |n: u64| n as f64 / funnel.queries.max(1) as f64;
    for &(stage, evaluated, pruned) in &funnel.stages {
        outcome.push(
            format!("dynamic.{kind}.{stage}.evaluated"),
            per_query(evaluated as u64),
            "count",
        );
        outcome.push(
            format!("dynamic.{kind}.{stage}.pruned"),
            per_query(pruned as u64),
            "count",
        );
    }
    outcome.push(
        format!("dynamic.{kind}.refined"),
        per_query(funnel.refined as u64),
        "count",
    );
    outcome.push(
        format!("dynamic.{kind}.refine_cutoffs"),
        per_query(funnel.cutoffs as u64),
        "count",
    );
    outcome.push(
        format!("dynamic.{kind}.cells_skipped"),
        per_query(funnel.cells_skipped),
        "count",
    );
}

/// The traced run, on the run's first draw: the dynamic path's push and
/// query layers over repeated ingest passes, then the per-layer split of
/// the static query paths (replay, then timed layer sweeps repeated until
/// `seconds` have passed).
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    const MIN_REPS: usize = 3;
    let forest = &w.generate(seed, 0);
    let mut ledger = Ledger::default();
    let passes: Vec<IngestPass> = (0..MIN_REPS)
        .map(|_| run::ingest_pass(forest, w, seed, &mut ledger))
        .collect();
    if let Some(pass) = passes
        .iter()
        .find(|p| p.knn_funnel != passes[0].knn_funnel || p.range_funnel != passes[0].range_funnel)
    {
        return Err(format!(
            "ingest passes disagree on their funnels: {:?} vs {:?}",
            passes[0].knn_funnel, pass.knn_funnel
        ));
    }
    let mut rng = SplitMix64::new(seed ^ run::SAMPLE_STREAM);
    let mut sample = pick(&mut rng, &passes[0].knn_positions, INGEST_SAMPLE);
    sample.extend(pick(&mut rng, &passes[0].range_positions, INGEST_SAMPLE));

    let mut setup = SetupTimes::default();
    for _ in 1..BUILDS {
        drop(setup.build(forest, Q));
    }
    let engine = &setup.build(forest, Q);
    let ids: Vec<TreeId> = forest.iter().map(|(id, _)| id).collect();
    let infos: Vec<TreeInfo> = forest.iter().map(|(_, t)| TreeInfo::new(t)).collect();
    let mut order = run::query_order(forest, seed, 0);
    order.truncate(w.trace_queries);
    // The first query trees of the shuffled order, on both paths.
    let base = ledger.queries.len();
    sample.extend(base..base + ORACLE_SAMPLE);
    sample.extend(base + order.len()..base + order.len() + ORACLE_SAMPLE);
    let mut paths = [
        record_path(engine, &infos, &ids, &order, Kind::Knn(K), &mut ledger)?,
        record_path(
            engine,
            &infos,
            &ids,
            &order,
            Kind::Range(w.tau),
            &mut ledger,
        )?,
    ];
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while paths[0].engine.len() < MIN_REPS || start.elapsed() < budget {
        for replay in &mut paths {
            time_path(engine, &infos, &ids, replay);
        }
    }
    let mut verdict = Verdict::default();
    verdict.settle(&ledger, forest, sample);
    let mut outcome = Outcome::default();
    outcome.absorb(&verdict);

    for replay in &paths {
        report_path(&mut outcome, engine.filter(), replay);
    }
    let pass_mean = |f: fn(&IngestPass) -> &Vec<f64>, scale: f64| {
        let means: Vec<f64> = passes
            .iter()
            .map(|p| f(p).iter().sum::<f64>() * scale / f(p).len().max(1) as f64)
            .collect();
        stats::median(&means)
    };
    outcome.push("dynamic.push.us", pass_mean(|p| &p.push_us, 1.0), "us");
    outcome.push("dynamic.knn.us", pass_mean(|p| &p.knn_ms, 1e3), "us");
    outcome.push("dynamic.range.us", pass_mean(|p| &p.range_ms, 1e3), "us");
    report_funnel(&mut outcome, "knn", &passes[0].knn_funnel);
    report_funnel(&mut outcome, "range", &passes[0].range_funnel);
    outcome.push("setup.index_s", setup.median(|b| b.index_s), "s");
    outcome.push("setup.treeinfo_s", setup.median(|b| b.treeinfo_s), "s");
    outcome.push("timer_ns", run::timer_ns(), "ns");
    outcome.notes.push(format!(
        "traced: {} queries per path x {} repetitions, {} ingest passes",
        order.len(),
        paths[0].engine.len(),
        passes.len()
    ));
    Ok(outcome)
}
