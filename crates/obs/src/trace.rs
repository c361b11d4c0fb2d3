//! Per-query trace assembly: spans from every thread a query touches are
//! reassembled into one tree, held in a bounded ring next to the flight
//! recorder, and exported as Chrome trace-event JSON (`/trace.json`), an
//! indented CLI tree, and histogram exemplars.
//!
//! The flight recorder answers "which query was slow"; a trace answers
//! "where inside *that* query the wall-time went". Every query entry
//! point calls [`start_trace`], which installs a thread-local capture
//! context and hands back an RAII guard. While the context is live, every
//! [`crate::span!`] guard (and every lighter [`span`] trace-only guard)
//! deposits one [`TraceSpan`] carrying its parent span id, so the flat
//! deposit order reassembles into the query's call tree. Worker threads
//! join the same trace through a [`TraceHandle`] captured before spawn
//! and installed with the worker's `pid` (shard) / `tid` (worker) — the
//! same propagation idiom as [`crate::recorder::BatchContext`].
//!
//! # Sampling: capture always, retain selectively
//!
//! Capture is always on and deliberately cheap: a span deposit is a
//! thread-local stack push on enter and a `Vec` push (under the trace's
//! own mutex) on exit — no formatting beyond what the span already does,
//! no global locks. Whether the finished trace is *retained* in the ring
//! is decided once, at [`TraceGuard`] drop:
//!
//! * the trace is interesting: `spans × max_depth` reached the weight
//!   budget ([`set_weight_budget`], default 64), or
//! * it lost the 1-in-N lottery ([`set_sample_every`], default 16; `1`
//!   retains everything, `0` disables the lottery), or
//! * it was slow: wall time reached the SLO threshold ([`set_slo_us`],
//!   default 10 000 µs).
//!
//! Everything else is dropped on the floor (`trace.captured` vs
//! `trace.retained` counters measure the ratio). Because the three
//! conditions are only knowable when the query finishes, the sampler
//! cannot decide at query start — which is exactly why capture must stay
//! cheap enough to leave on.
//!
//! # Exemplars
//!
//! While a capture context is live, [`current_trace_id`] is nonzero and
//! every histogram bucket update remembers it (see
//! [`crate::Histogram`]) — so the `p99` bucket of a latency histogram in
//! `/metrics` names the trace id of the last query that landed there,
//! and the flight-recorder record carrying the same `trace_id` links the
//! two views.
//!
//! # Memory-model contracts (checked by `xtask analyze` happens-before)
//!
//! atomic-role: next_span = counter — per-trace span-id source;
//! `fetch_add` is unique and monotone under Relaxed, the span payload
//! travels through the trace mutex
//!
//! atomic-role: NEXT_TRACE_ID = counter — global trace-id source, same
//! contract
//!
//! atomic-role: WEIGHT_BUDGET = cell — retention tuning knob; readers
//! tolerate a stale value for one decision
//!
//! atomic-role: SAMPLE_EVERY = cell — retention lottery knob, same
//! contract
//!
//! atomic-role: SLO_US = cell — slow-query threshold knob, same contract

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Retained traces kept in the global ring (oldest evicted first).
pub const RING_CAPACITY: usize = 32;

/// Maximum spans captured per trace; beyond this, spans are counted in
/// `trace.spans.dropped` instead of captured (a batch driver tracing
/// thousands of sub-queries would otherwise grow without bound).
pub const MAX_TRACE_SPANS: u64 = 2048;

/// One completed span inside a trace: an interval with a parent pointer,
/// placed on the worker that ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span id, 1-based and unique within the trace (deposit order of
    /// span *entries*, not exits).
    pub id: u64,
    /// Parent span id; 0 for the trace's root span.
    pub parent: u64,
    /// Span name (same contract as metric names).
    pub name: &'static str,
    /// Start offset in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Shard index of the thread that ran the span (0 = unsharded).
    pub pid: u32,
    /// Worker index of the thread that ran the span (0 = coordinator).
    pub tid: u32,
    /// Formatted `key = value` fields attached to the span.
    pub fields: Vec<(&'static str, String)>,
}

impl TraceSpan {
    /// End offset (µs since the trace epoch).
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// One reassembled per-query span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Globally unique trace id (nonzero; also stamped into flight
    /// records and histogram exemplars produced during the query).
    pub id: u64,
    /// Wall-clock of the whole traced scope in microseconds.
    pub wall_us: u64,
    /// Completed spans, in completion order. Reassemble with the
    /// `parent` pointers; [`Trace::render_tree`] does.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// The root span's name (the first span entered), or `"(empty)"`.
    pub fn root(&self) -> &'static str {
        self.spans
            .iter()
            .min_by_key(|s| s.id)
            .map_or("(empty)", |s| s.name)
    }

    /// The span with id `id`, if present.
    pub fn span(&self, id: u64) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Maximum nesting depth over all spans (a root span has depth 1).
    pub fn max_depth(&self) -> usize {
        self.spans
            .iter()
            .map(|s| {
                let mut depth = 1usize;
                let mut parent = s.parent;
                // Parent chains are acyclic by construction (a span's
                // parent is always an earlier id); the bound is belt and
                // braces against a malformed trace.
                while parent != 0 && depth <= self.spans.len() {
                    depth += 1;
                    parent = self.span(parent).map_or(0, |p| p.parent);
                }
                depth
            })
            .max()
            .unwrap_or(0)
    }

    /// The sampler's interest weight: `spans × max_depth`.
    pub fn weight(&self) -> u64 {
        self.spans.len() as u64 * self.max_depth() as u64
    }

    /// Chrome trace-event objects (`ph:"X"` complete events) for every
    /// span, ready to be placed in a `traceEvents` array.
    pub fn chrome_events(&self) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("trace", Json::U64(self.id)),
                    ("span", Json::U64(s.id)),
                    ("parent", Json::U64(s.parent)),
                ];
                for (key, value) in &s.fields {
                    args.push((key, Json::Str(value.clone())));
                }
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_owned())),
                    ("cat", Json::Str("treesim".to_owned())),
                    ("ph", Json::Str("X".to_owned())),
                    ("ts", Json::U64(s.start_us)),
                    ("dur", Json::U64(s.dur_us)),
                    ("pid", Json::U64(u64::from(s.pid))),
                    ("tid", Json::U64(u64::from(s.tid))),
                    ("args", Json::obj(args)),
                ])
            })
            .collect()
    }

    /// Renders the span tree as an indented text table: one line per
    /// span with total and self time (total minus direct children),
    /// worker placement, and fields.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {}: {} — wall {}µs, {} spans, depth {}",
            self.id,
            self.root(),
            self.wall_us,
            self.spans.len(),
            self.max_depth()
        );
        // Children grouped by parent, ordered by start (ties: id).
        let mut order: Vec<&TraceSpan> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_us, s.id));
        let children = |parent: u64| -> Vec<&TraceSpan> {
            order
                .iter()
                .copied()
                .filter(|s| {
                    s.parent == parent
                        // Orphans (parent span lost to the span cap)
                        // render at the root level rather than vanishing.
                        || (parent == 0 && s.parent != 0 && self.span(s.parent).is_none())
                })
                .collect()
        };
        let mut stack: Vec<(&TraceSpan, usize)> =
            children(0).into_iter().rev().map(|s| (s, 0usize)).collect();
        while let Some((span, depth)) = stack.pop() {
            let kids = children(span.id);
            let child_total: u64 = kids.iter().map(|c| c.dur_us).sum();
            let self_us = span.dur_us.saturating_sub(child_total);
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{}", span.name);
            let _ = write!(
                out,
                "  {label:<40} total {:>8}µs  self {:>8}µs",
                span.dur_us, self_us
            );
            if span.pid != 0 || span.tid != 0 {
                let _ = write!(out, "  [shard {} worker {}]", span.pid, span.tid);
            }
            if !span.fields.is_empty() {
                let fields: Vec<String> = span
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let _ = write!(out, "  {{{}}}", fields.join(", "));
            }
            let _ = writeln!(out);
            for kid in kids.into_iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
        out
    }
}

/// Per-trace shared state: worker threads holding a [`TraceHandle`]
/// deposit into the same span vector as the coordinator.
#[derive(Debug)]
struct TraceShared {
    id: u64,
    next_span: AtomicU64,
    spans: Mutex<Vec<TraceSpan>>,
}

/// Mutex poisoning only means another thread panicked mid-deposit; the
/// spans already pushed are intact, so recover rather than propagate.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An open (not yet exited) span on this thread's capture stack.
#[derive(Debug)]
struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
}

/// The thread-local capture context.
#[derive(Debug)]
struct TraceCtx {
    shared: Arc<TraceShared>,
    /// Open spans on this thread, innermost last.
    stack: Vec<Frame>,
    /// Parent id for this thread's outermost spans (the handle's capture
    /// point on worker threads; 0 on the coordinator).
    base_parent: u64,
    pid: u32,
    tid: u32,
}

thread_local! {
    static TRACE_CTX: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
    /// Mirror of the installed context's trace id, for the hot-path
    /// [`current_trace_id`] check (a `Cell` read, no `RefCell` borrow).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Trace ids are globally unique and never 0.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

/// Sampler knob: retain traces whose `spans × max_depth` reaches this.
static WEIGHT_BUDGET: AtomicU64 = AtomicU64::new(64);
/// Sampler knob: retain every N-th trace (1 = all, 0 = never by lottery).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(16);
/// Sampler knob: retain traces at least this slow (µs).
static SLO_US: AtomicU64 = AtomicU64::new(10_000);

/// Sets the interest-weight retention budget (`spans × max_depth`).
pub fn set_weight_budget(weight: u64) {
    WEIGHT_BUDGET.store(weight, Ordering::Relaxed);
}

/// Sets the 1-in-N retention lottery period (`1` retains every trace,
/// `0` disables the lottery entirely).
pub fn set_sample_every(every: u64) {
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Sets the slow-query retention threshold in microseconds.
pub fn set_slo_us(slo_us: u64) {
    SLO_US.store(slo_us, Ordering::Relaxed);
}

/// The current interest-weight retention budget.
pub fn weight_budget() -> u64 {
    WEIGHT_BUDGET.load(Ordering::Relaxed)
}

/// The current 1-in-N retention lottery period.
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// The current slow-query retention threshold in microseconds.
pub fn slo_us() -> u64 {
    SLO_US.load(Ordering::Relaxed)
}

/// The process trace epoch: all `start_us` offsets count from here, so
/// spans from different traces and threads share one Chrome timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The trace id active on this thread, or 0 when no capture is live.
/// Cheap enough for per-sample call sites (one thread-local `Cell` read).
#[inline]
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// Whether a trace capture is live on this thread.
#[inline]
pub fn trace_active() -> bool {
    current_trace_id() != 0
}

/// RAII guard for one query's trace capture. Returned by [`start_trace`];
/// finalizes the trace (sampler decision + ring deposit) on drop. Inert
/// when a capture was already live — nested query paths (a clustering
/// run calling `engine.range`, a batch worker running `knn`) join the
/// enclosing trace instead of fragmenting it.
#[must_use = "a trace guard captures until it is dropped"]
#[derive(Debug)]
pub struct TraceGuard {
    state: Option<(Arc<TraceShared>, Instant)>,
}

impl TraceGuard {
    /// The captured trace's id (the enclosing trace's id when this guard
    /// is inert; never 0 inside a capture).
    pub fn id(&self) -> u64 {
        current_trace_id()
    }
}

/// Starts (or joins) a trace capture on this thread. The first span
/// entered under the returned guard becomes the trace's root.
pub fn start_trace() -> TraceGuard {
    if trace_active() {
        return TraceGuard { state: None };
    }
    let id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let shared = Arc::new(TraceShared {
        id,
        next_span: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    });
    TRACE_CTX.with(|ctx| {
        *ctx.borrow_mut() = Some(TraceCtx {
            shared: Arc::clone(&shared),
            stack: Vec::new(),
            base_parent: 0,
            pid: 0,
            tid: 0,
        });
    });
    CURRENT_TRACE.with(|c| c.set(id));
    crate::counter!("trace.captured").inc();
    TraceGuard {
        state: Some((shared, Instant::now())),
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some((shared, start)) = self.state.take() else {
            return;
        };
        TRACE_CTX.with(|ctx| ctx.borrow_mut().take());
        CURRENT_TRACE.with(|c| c.set(0));
        let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let spans = std::mem::take(&mut *recover(&shared.spans));
        finalize(Trace {
            id: shared.id,
            wall_us,
            spans,
        });
    }
}

/// The sampler: retain a finished trace iff it is interesting (weight),
/// lottery-selected (1-in-N), or slow (SLO). See the module docs.
fn finalize(trace: Trace) {
    if trace.spans.is_empty() {
        return;
    }
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    let keep = trace.weight() >= WEIGHT_BUDGET.load(Ordering::Relaxed)
        || (every > 0 && trace.id % every == 0)
        || trace.wall_us >= SLO_US.load(Ordering::Relaxed);
    if !keep {
        return;
    }
    crate::counter!("trace.retained").inc();
    let mut ring = recover(ring());
    while ring.len() >= RING_CAPACITY {
        ring.pop_front();
        crate::counter!("trace.evicted").inc();
    }
    ring.push_back(trace);
}

fn ring() -> &'static Mutex<VecDeque<Trace>> {
    static RING: OnceLock<Mutex<VecDeque<Trace>>> = OnceLock::new();
    RING.get_or_init(|| {
        crate::metrics::gauge("trace.ring.capacity").set(RING_CAPACITY as i64);
        Mutex::new(VecDeque::with_capacity(RING_CAPACITY))
    })
}

/// Copies out every retained trace, oldest first.
pub fn retained() -> Vec<Trace> {
    recover(ring()).iter().cloned().collect()
}

/// The retained trace with id `id`, if still in the ring.
pub fn find(id: u64) -> Option<Trace> {
    recover(ring()).iter().find(|t| t.id == id).cloned()
}

/// The most recently retained trace, if any.
pub fn latest() -> Option<Trace> {
    recover(ring()).back().cloned()
}

/// Empties the ring (tests and benchmarks isolating their own traffic).
pub fn clear() {
    recover(ring()).clear();
}

/// The `/trace.json` document: every retained trace's spans as Chrome
/// trace-event format, loadable in `chrome://tracing` / Perfetto.
pub fn chrome_trace_json() -> Json {
    let traces = retained();
    let events: Vec<Json> = traces.iter().flat_map(Trace::chrome_events).collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        (
            "otherData",
            Json::obj(vec![
                ("schema", Json::Str("treesim-trace/v1".to_owned())),
                ("traces", Json::U64(traces.len() as u64)),
                ("ring_capacity", Json::U64(RING_CAPACITY as u64)),
            ]),
        ),
    ])
}

/// A capture point handed to worker threads: carries the trace and the
/// span under which the worker's spans should hang. Capture with
/// [`current_handle`] *before* spawning, install inside the worker.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    shared: Arc<TraceShared>,
    parent: u64,
}

/// Captures this thread's live trace and innermost span as a
/// [`TraceHandle`], or `None` when no capture is live.
pub fn current_handle() -> Option<TraceHandle> {
    TRACE_CTX.with(|ctx| {
        let borrow = ctx.borrow();
        let ctx = borrow.as_ref()?;
        Some(TraceHandle {
            shared: Arc::clone(&ctx.shared),
            parent: ctx.stack.last().map_or(ctx.base_parent, |f| f.id),
        })
    })
}

impl TraceHandle {
    /// Joins the trace on the current (worker) thread: spans entered
    /// until the returned guard drops are deposited under the handle's
    /// capture point, stamped with `pid` (shard) and `tid` (worker).
    pub fn install(&self, pid: u32, tid: u32) -> WorkerTraceGuard {
        let prev = TRACE_CTX.with(|ctx| {
            ctx.borrow_mut().replace(TraceCtx {
                shared: Arc::clone(&self.shared),
                stack: Vec::new(),
                base_parent: self.parent,
                pid,
                tid,
            })
        });
        let prev_id = current_trace_id();
        CURRENT_TRACE.with(|c| c.set(self.shared.id));
        WorkerTraceGuard { prev, prev_id }
    }
}

/// RAII guard for a worker thread's membership in a trace; restores the
/// thread's previous capture state on drop.
#[derive(Debug)]
#[must_use = "a worker trace guard keeps the thread in the trace until dropped"]
pub struct WorkerTraceGuard {
    prev: Option<TraceCtx>,
    prev_id: u64,
}

impl Drop for WorkerTraceGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        TRACE_CTX.with(|ctx| *ctx.borrow_mut() = prev);
        CURRENT_TRACE.with(|c| c.set(self.prev_id));
    }
}

/// Hook for [`crate::SpanGuard::enter`]: opens a capture frame for the
/// span if a trace is live. Returns whether the span is being traced
/// (the guard passes it back to [`on_span_exit`] so a trace started
/// mid-span never pops a frame it did not push).
pub(crate) fn on_span_enter(name: &'static str) -> bool {
    TRACE_CTX.with(|ctx| {
        let mut borrow = ctx.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return false;
        };
        let id = ctx.shared.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        if id > MAX_TRACE_SPANS {
            crate::counter!("trace.spans.dropped").inc();
            return false;
        }
        let parent = ctx.stack.last().map_or(ctx.base_parent, |f| f.id);
        ctx.stack.push(Frame {
            id,
            parent,
            name,
            start: Instant::now(),
            start_us: micros_since_epoch(),
        });
        true
    })
}

/// Hook for [`crate::SpanGuard`]'s drop: completes the innermost capture
/// frame and deposits the finished [`TraceSpan`], which takes `fields`.
pub(crate) fn on_span_exit(name: &'static str, mut fields: Vec<(&'static str, String)>) {
    TRACE_CTX.with(|ctx| {
        let mut borrow = ctx.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return;
        };
        let Some(frame) = ctx.stack.pop() else {
            return;
        };
        debug_assert_eq!(frame.name, name, "trace frame stack out of order");
        // Fields pushed after enter leave spare capacity; retained traces
        // hold their spans for a long time, so keep only what is used.
        fields.shrink_to_fit();
        let span = TraceSpan {
            id: frame.id,
            parent: frame.parent,
            name: frame.name,
            start_us: frame.start_us,
            dur_us: u64::try_from(frame.start.elapsed().as_micros()).unwrap_or(u64::MAX),
            pid: ctx.pid,
            tid: ctx.tid,
            fields,
        };
        recover(&ctx.shared.spans).push(span);
    });
}

/// A trace-only span guard: participates in trace capture exactly like
/// [`crate::SpanGuard`] but records no histogram and emits no sink
/// events — for spans on hot inner paths (per-candidate refinement,
/// per-stage funnel sweeps) whose timing histograms already exist under
/// other names, where a full span would double-count them. Free when no
/// trace is live.
#[must_use = "a trace span measures until it is dropped"]
#[derive(Debug)]
pub struct TraceSpanGuard {
    name: &'static str,
    traced: bool,
    fields: Vec<(&'static str, String)>,
}

impl TraceSpanGuard {
    /// Attaches a field; the value closure only runs when the span is
    /// actually being traced.
    pub fn push_field(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if self.traced {
            self.fields.push((key, value()));
        }
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        if self.traced {
            on_span_exit(self.name, std::mem::take(&mut self.fields));
        }
    }
}

/// Opens a trace-only span (see [`TraceSpanGuard`]). The name obeys the
/// same [`crate::naming`] contract as metric names.
pub fn span(name: &'static str) -> TraceSpanGuard {
    TraceSpanGuard {
        name,
        traced: on_span_enter(name),
        fields: Vec::new(),
    }
}

/// Capture contexts are thread-local but the ring and sampler knobs are
/// global: tests (anywhere in the crate) that depend on them serialize
/// through this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_lock as trace_lock;

    fn retain_all() {
        set_sample_every(1);
        set_weight_budget(64);
        set_slo_us(10_000);
    }

    #[test]
    fn spans_assemble_into_a_tree() {
        let _lock = trace_lock();
        retain_all();
        clear();
        let id = {
            let trace = start_trace();
            let id = trace.id();
            assert_ne!(id, 0);
            assert_eq!(current_trace_id(), id);
            {
                let _root = crate::span!("engine.knn", k = 3);
                {
                    let mut refine = span("refine.call");
                    refine.push_field("verdict", || "hit".to_owned());
                }
                let _other = span("cascade.size");
            }
            id
        };
        assert_eq!(current_trace_id(), 0);
        let trace = find(id).expect("retained with sample_every=1");
        assert_eq!(trace.root(), "engine.knn");
        assert_eq!(trace.spans.len(), 3);
        let root = trace.span(1).unwrap();
        assert_eq!(root.parent, 0);
        let refine = trace
            .spans
            .iter()
            .find(|s| s.name == "refine.call")
            .unwrap();
        assert_eq!(refine.parent, root.id);
        assert_eq!(refine.fields, vec![("verdict", "hit".to_owned())]);
        assert!(trace.max_depth() >= 2);
        // Children telescope inside the root interval.
        assert!(refine.start_us >= root.start_us);
        assert!(refine.end_us() <= root.end_us() + 2);
        let rendered = trace.render_tree();
        assert!(rendered.contains("engine.knn"), "{rendered}");
        assert!(rendered.contains("verdict=hit"), "{rendered}");
    }

    #[test]
    fn nested_start_is_inert_and_joins_the_outer_trace() {
        let _lock = trace_lock();
        retain_all();
        clear();
        let outer_id = {
            let outer = start_trace();
            let outer_id = outer.id();
            let _root = crate::span!("engine.knn");
            {
                let inner = start_trace();
                assert_eq!(inner.id(), outer_id, "inner guard joins the outer trace");
                let _span = span("refine.call");
            }
            // Dropping the inert inner guard must not end the capture.
            assert_eq!(current_trace_id(), outer_id);
            outer_id
        };
        let trace = find(outer_id).expect("one merged trace");
        assert_eq!(trace.spans.len(), 2);
    }

    #[test]
    fn handle_propagates_to_worker_threads_with_pid_tid() {
        let _lock = trace_lock();
        retain_all();
        clear();
        let id = {
            let trace = start_trace();
            let _root = crate::span!("shard.knn");
            let handle = current_handle().expect("capture live");
            std::thread::scope(|scope| {
                for shard in 1..=2u32 {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let _worker = handle.install(shard, shard);
                        let _span = span("shard.worker");
                    });
                }
            });
            trace.id()
        };
        let trace = find(id).expect("retained");
        assert_eq!(trace.spans.len(), 3);
        let root = trace.spans.iter().find(|s| s.name == "shard.knn").unwrap();
        let workers: Vec<&TraceSpan> = trace
            .spans
            .iter()
            .filter(|s| s.name == "shard.worker")
            .collect();
        assert_eq!(workers.len(), 2);
        for worker in workers {
            assert_eq!(worker.parent, root.id);
            assert!(worker.pid == 1 || worker.pid == 2);
            assert_eq!(worker.pid, worker.tid);
        }
        assert_eq!(current_handle().map(|_| ()), None);
    }

    #[test]
    fn sampler_retains_by_weight_lottery_and_slo() {
        let _lock = trace_lock();
        clear();
        // Lottery off, huge budget, huge SLO: a small trace is dropped.
        set_sample_every(0);
        set_weight_budget(u64::MAX);
        set_slo_us(u64::MAX);
        let dropped = {
            let trace = start_trace();
            let _span = span("engine.knn");
            trace.id()
        };
        assert!(
            find(dropped).is_none(),
            "sampler must drop the boring trace"
        );

        // Weight path: budget 2 retains a 2-deep, 2-span trace (weight 4).
        set_weight_budget(2);
        let kept = {
            let trace = start_trace();
            let _root = span("engine.knn");
            let _child = span("refine.call");
            trace.id()
        };
        assert!(find(kept).is_some(), "weight budget must retain");

        // SLO path: everything else off, a 0µs threshold keeps any trace.
        set_weight_budget(u64::MAX);
        set_slo_us(0);
        let slow = {
            let trace = start_trace();
            let _span = span("engine.knn");
            trace.id()
        };
        assert!(find(slow).is_some(), "SLO threshold must retain");
        retain_all();
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let _lock = trace_lock();
        retain_all();
        clear();
        let mut ids = Vec::new();
        for _ in 0..(RING_CAPACITY + 5) {
            let trace = start_trace();
            let _span = span("engine.knn");
            ids.push(trace.id());
        }
        let held = retained();
        assert_eq!(held.len(), RING_CAPACITY);
        // The oldest five were evicted; the newest are all present.
        for id in &ids[..5] {
            assert!(find(*id).is_none());
        }
        for id in &ids[5..] {
            assert!(find(*id).is_some());
        }
        assert_eq!(latest().map(|t| t.id), ids.last().copied());
    }

    #[test]
    fn chrome_export_has_complete_events() {
        let _lock = trace_lock();
        retain_all();
        clear();
        {
            let _trace = start_trace();
            let _root = crate::span!("engine.range", tau = 2);
            let _child = span("cascade.propt");
        }
        let doc = chrome_trace_json();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            for key in ["ts", "dur", "pid", "tid"] {
                assert!(event.get(key).and_then(Json::as_u64).is_some(), "{key}");
            }
            assert!(event.get("name").and_then(Json::as_str).is_some());
            assert!(event
                .get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_u64)
                .is_some());
        }
        // The document round-trips through our own parser.
        let text = doc.to_string_pretty();
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn span_cap_drops_excess_spans() {
        let _lock = trace_lock();
        retain_all();
        clear();
        let id = {
            let trace = start_trace();
            let _root = span("engine.knn");
            for _ in 0..MAX_TRACE_SPANS + 10 {
                let _s = span("refine.call");
            }
            trace.id()
        };
        let trace = find(id).expect("retained");
        assert_eq!(trace.spans.len() as u64, MAX_TRACE_SPANS);
    }
}
