//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the simulator is instrumented: every span brackets a
//! public call the benchmark makes (`Machine::step`, `run_suite`, ...),
//! or a `GuestProgram::step` reached through [`TimedProgram`]. Spans
//! stay in memory and are written out once, after the run.

use sim_obs::json::JsonWriter;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vswap_core::Machine;
use vswap_guestos::{GuestCtx, GuestError, GuestProgram, StepOutcome};

/// Names of the counters whose per-step deltas are stored on each
/// `Machine::step` span, in [`snapshot`] order.
pub const DELTA_NAMES: [&str; 16] = [
    "swap_ins",
    "swap_outs",
    "pages_scanned",
    "reclaim_runs",
    "named_discards",
    "named_refaults",
    "zero_fills",
    "virtual_io_requests",
    "false_swap_reads",
    "silent_swap_writes",
    "disk_ops",
    "disk_seeks",
    "mapper_mapped_reads",
    "mapper_mapped_writes",
    "preventer_buffers_opened",
    "preventer_merges",
];

/// Host, disk, Mapper and Preventer counters in [`DELTA_NAMES`] order.
pub fn snapshot(m: &Machine) -> [u64; 16] {
    let h = m.host().stats();
    let d = m.host().disk_stats();
    let mp = m.mapper().stats();
    let p = m.preventer().stats();
    [
        h.swap_ins,
        h.swap_outs,
        h.pages_scanned,
        h.reclaim_runs,
        h.named_discards,
        h.named_refaults,
        h.zero_fills,
        h.virtual_io_requests,
        h.false_swap_reads,
        h.silent_swap_writes,
        d.ops,
        d.seeks,
        mp.mapped_reads,
        mp.mapped_writes,
        p.buffers_opened,
        p.merges,
    ]
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The called function.
    pub name: &'static str,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counter deltas over the span ([`DELTA_NAMES`] order), for step spans.
    pub deltas: Option<[u64; 16]>,
}

impl Span {
    /// The span's duration.
    pub fn len(&self) -> Duration {
        self.end - self.start
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A tracer shared between the benchmark loop and [`TimedProgram`].
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// An empty tracer whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            deltas: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Attaches counter deltas to a closed span.
    pub fn set_deltas(&mut self, id: usize, deltas: [u64; 16]) {
        self.spans[id].deltas = Some(deltas);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as JSON lines (offsets in nanoseconds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_u64("id", id as u64);
            w.key("parent");
            match s.parent {
                Some(p) => w.value_u64(p as u64),
                None => w.value_null(),
            }
            w.field_str("name", s.name);
            w.field_u64("start_ns", nanos(s.start));
            w.field_u64("end_ns", nanos(s.end));
            if let Some(d) = &s.deltas {
                w.key("deltas");
                w.begin_object();
                for (name, v) in DELTA_NAMES.iter().zip(d) {
                    w.field_u64(name, *v);
                }
                w.end_object();
            }
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Wraps a launched program so each of its steps is a span, parented
/// under the `Machine::step` span that is open when it runs.
pub struct TimedProgram {
    inner: Box<dyn GuestProgram>,
    tracer: SharedTracer,
}

impl TimedProgram {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn GuestProgram>, tracer: SharedTracer) -> Self {
        TimedProgram { inner, tracer }
    }
}

impl GuestProgram for TimedProgram {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> Result<StepOutcome, GuestError> {
        let id = self.tracer.borrow_mut().open("GuestProgram::step");
        let out = self.inner.step(ctx);
        self.tracer.borrow_mut().close(id);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Bins `Machine::step` time by the work each step did, from the
/// counter deltas on its span: steps that swapped, steps that only
/// served the virtual disk, steps that only reclaimed, and the rest.
/// Writes one object of `{"steps", "ms"}` per bin.
pub fn write_step_bins(w: &mut JsonWriter, tracer: &Tracer) {
    let idx = |name: &str| DELTA_NAMES.iter().position(|n| *n == name).expect("a delta counter");
    let (ins, outs, scanned, discards, vio) = (
        idx("swap_ins"),
        idx("swap_outs"),
        idx("pages_scanned"),
        idx("named_discards"),
        idx("virtual_io_requests"),
    );
    let mut bins = [
        ("swap", 0u64, Duration::ZERO),
        ("virtual_disk", 0, Duration::ZERO),
        ("reclaim", 0, Duration::ZERO),
        ("other", 0, Duration::ZERO),
    ];
    for s in tracer.spans() {
        let Some(d) = &s.deltas else { continue };
        let bin = if d[ins] + d[outs] > 0 {
            0
        } else if d[vio] > 0 {
            1
        } else if d[scanned] + d[discards] > 0 {
            2
        } else {
            3
        };
        bins[bin].1 += 1;
        bins[bin].2 += s.len();
    }
    w.begin_object();
    for (name, steps, time) in bins {
        w.key(name);
        w.begin_object();
        w.field_u64("steps", steps);
        w.field_f64("ms", time.as_secs_f64() * 1e3);
        w.end_object();
    }
    w.end_object();
}
