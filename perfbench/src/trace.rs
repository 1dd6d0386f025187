//! The traced run's recorder: spans and counters kept in memory on the
//! benchmark's own thread and written out when the run ends.
//!
//! Spans are recorded *around* calls into the repository's public API, not
//! inside it: a span covers exactly one call (or one group of calls) made
//! by the benchmark. Nested spans name their parent, and spans that belong
//! to one cell or one request share the id of that root span.

use dagchkpt_core::{CostSummary, Objective, Schedule};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (the cell or request).
    pub root: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
        counters: BTreeMap::new(),
    });
}

/// Turns recording on or off for this thread. While off, [`span`] and
/// [`add`] cost one thread-local flag check.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

fn now_ns(r: &Recorder) -> u64 {
    r.epoch.elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let id = r.spans.len();
        let parent = r.open.last().copied();
        let root = parent.map_or(id, |p| r.spans[p].root);
        let start_ns = now_ns(&r);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = now_ns(&r);
                r.spans[id].end_ns = end;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(id), "spans close in LIFO order");
            });
        }
    }
}

/// Adds `v` to the counter `name`.
pub fn add(name: &'static str, v: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.counters.entry(name).or_insert(0.0) += v;
        }
    });
}

/// Everything recorded so far, leaving the recorder empty.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() with spans still open");
        (
            std::mem::take(&mut r.spans),
            std::mem::take(&mut r.counters),
        )
    })
}

/// Per-name totals of a span list: span count and total nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
    }
    out
}

/// Writes spans as JSON lines: `{"id","name","start_ns","end_ns","parent","root"}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"root\":{}}}",
            s.name, s.start_ns, s.end_ns, s.root
        )?;
    }
    w.flush()
}

/// An [`Objective`] wrapper that counts calls and the busy time spent in
/// them, across every thread the sweep fans out to. Every method forwards
/// to the wrapped backend unchanged, so results stay bit-identical.
pub struct Counted<'a, O: ?Sized> {
    inner: &'a O,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl<'a, O: Objective + ?Sized> Counted<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        Counted {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

impl<O: Objective + ?Sized> Objective for Counted<'_, O> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.timed(|| self.inner.cost(schedule))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn cost_summary(&self, schedule: &Schedule) -> CostSummary {
        self.timed(|| self.inner.cost_summary(schedule))
    }

    fn cost_quantile(&self, schedule: &Schedule, q: f64) -> f64 {
        self.timed(|| self.inner.cost_quantile(schedule, q))
    }
}
