//! In-memory span tracing from outside the program: decorators over the
//! public `SchedulePolicy` and `RoutePolicy` traits plus spans the benchmark
//! opens around calls into each layer's public functions.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use edgemm::fleet::{ReplicaView, RoutePolicy};
use edgemm::serve::{QueuedRequest, SchedulePolicy, ServeRequest};

/// One timed call. Spans of one op share `op`; `parent` indexes the span
/// that was open when this one started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call handled: candidates scanned, requests re-served, ...
    pub items: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory for the whole run; they are written out once,
/// when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a new op: spans opened from now on carry its id.
    pub fn begin_op(&self) -> u32 {
        self.op.set(self.op.get() + 1);
        self.open.borrow_mut().clear();
        self.op.get()
    }

    /// Open a span; returns its index for [`Self::exit`].
    pub fn enter(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            name,
            op: self.op.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            items: 0,
        });
        self.open.borrow_mut().push(index);
        index
    }

    /// Close span `index`, recording the work it handled.
    pub fn exit(&self, index: usize, items: u64) {
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end;
        spans[index].items = items;
        let mut open = self.open.borrow_mut();
        if open.last() == Some(&index) {
            open.pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn in_span<T>(&self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let value = f();
        self.exit(span, items);
        value
    }

    /// Per-name totals over the spans of op `op`.
    pub fn layers(&self, op: u32) -> BTreeMap<&'static str, Layer> {
        let spans = self.spans.borrow();
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for span in spans.iter().filter(|s| s.op == op) {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (index, span) in spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            let layer = layers.entry(span.name).or_default();
            let duration = span.duration_ns();
            layer.calls += 1;
            layer.items += span.items;
            layer.total_ns += duration;
            layer.self_ns += duration.saturating_sub(child_ns.get(&index).copied().unwrap_or(0));
        }
        layers
    }

    /// Write the spans of op `op` as tab-separated lines (index, parent,
    /// name, start and end in ns since the run began, items).
    pub fn write_op(&self, op: u32, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\tname\tstart_ns\tend_ns\titems")?;
        for (index, span) in self.spans.borrow().iter().enumerate() {
            if span.op == op {
                let parent = span
                    .parent
                    .map_or_else(|| "-".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{index}\t{parent}\t{}\t{}\t{}\t{}",
                    span.name, span.start_ns, span.end_ns, span.items
                )?;
            }
        }
        out.flush()
    }
}

/// Totals of one span name within one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    /// Total minus the time the spans' children cover.
    pub self_ns: u64,
}

impl Layer {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// A [`SchedulePolicy`] that records one `serve.policy` span per call, with
/// the candidate count as its items, and defers every decision to `inner`.
#[derive(Debug)]
pub struct TracedPolicy<'a> {
    pub inner: &'static dyn SchedulePolicy,
    pub recorder: &'a Recorder,
}

impl SchedulePolicy for TracedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        let span = self.recorder.enter("serve.policy");
        let pick = self.inner.choose(queued);
        self.recorder.exit(span, queued.len() as u64);
        pick
    }

    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
        let span = self.recorder.enter("serve.policy");
        let pick = self.inner.choose_join(ready);
        self.recorder.exit(span, ready.len() as u64);
        pick
    }
}

/// A [`RoutePolicy`] that records one `fleet.route` span per call and
/// defers every decision to `inner`. Its items are the requests the target
/// replica re-serves for this dispatch: its sub-trace so far plus the new
/// request.
#[derive(Debug)]
pub struct TracedRoute<'a> {
    pub inner: Box<dyn RoutePolicy>,
    pub recorder: &'a Recorder,
}

impl RoutePolicy for TracedRoute<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &ServeRequest, views: &[ReplicaView]) -> usize {
        let span = self.recorder.enter("fleet.route");
        let target = self.inner.route(request, views);
        let reserved = views.get(target).map_or(0, |v| v.dispatched as u64 + 1);
        self.recorder.exit(span, reserved);
        target
    }
}
