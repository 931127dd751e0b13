//! Section timers and the in-memory span recorder.
//!
//! Every call the benchmark makes into the engine runs inside a *section*
//! ([`Tracer::timed`]): two clock reads whose difference feeds the
//! end-to-end metrics. In a traced run each section is additionally kept as
//! a [`Span`] (kind, start, end, parent) and the device wrapper
//! ([`crate::device::TracedDevice`]) charges the time of every device call
//! to the innermost open span of the calling thread, so that a span's
//! *self time* — duration minus child spans minus device time — is the CPU
//! the `core` and `lsm` layers spent on it. Spans stay in memory until the
//! workload ends.

use std::cell::Cell;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// What a section is doing; doubles as the span name and as the bucket the
/// device wrapper counts its calls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Not inside any section (set-up, teardown).
    Idle,
    /// Root span of the writer/main thread: generator + simulator + the
    /// benchmark's own bookkeeping are its self time.
    Workload,
    /// Root span of the `mixed_2t` query client thread.
    QueryClient,
    /// Replaying one CP interval's staged callbacks into the engine.
    Callback,
    /// One `consistency_point` call.
    Cp,
    /// One maintenance call.
    Maint,
    /// One batch of point queries through `core`'s `live_owners`.
    Query,
    /// One range query through `core`'s `query_range`.
    RangeQuery,
    /// Direct `lsm` table reads on a sample of query keys (traced runs only).
    LsmProbe,
    /// `BacklogEngine::open`.
    Open,
    /// `replay_recovered_journal`.
    JournalReplay,
    /// Output checks (sampled comparisons, tree-walk verification).
    Check,
}

/// Number of [`Kind`] variants.
pub const KINDS: usize = 12;

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; KINDS] = [
        Kind::Idle,
        Kind::Workload,
        Kind::QueryClient,
        Kind::Callback,
        Kind::Cp,
        Kind::Maint,
        Kind::Query,
        Kind::RangeQuery,
        Kind::LsmProbe,
        Kind::Open,
        Kind::JournalReplay,
        Kind::Check,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Idle => "idle",
            Kind::Workload => "workload",
            Kind::QueryClient => "query_client",
            Kind::Callback => "callback",
            Kind::Cp => "cp",
            Kind::Maint => "maint",
            Kind::Query => "query",
            Kind::RangeQuery => "range_query",
            Kind::LsmProbe => "lsm_probe",
            Kind::Open => "open",
            Kind::JournalReplay => "journal_replay",
            Kind::Check => "check",
        }
    }
}

/// Parent of a root span.
pub const NO_SPAN: u32 = u32::MAX;

thread_local! {
    /// Kind of the innermost open section on this thread.
    static CURRENT_KIND: Cell<Kind> = const { Cell::new(Kind::Idle) };
    /// Span id of the innermost open section on this thread.
    static CURRENT_SPAN: Cell<u32> = const { Cell::new(NO_SPAN) };
    /// Device time charged on this thread so far.
    static DEVICE_NS: Cell<u64> = const { Cell::new(0) };
}

/// The kind of the innermost open section on the calling thread.
pub fn current_kind() -> Kind {
    CURRENT_KIND.with(Cell::get)
}

/// Charges `ns` of device time to the calling thread's innermost section.
pub fn charge_device_ns(ns: u64) {
    DEVICE_NS.with(|d| d.set(d.get() + ns));
}

/// One recorded section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the section did.
    pub kind: Kind,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Device time charged while the span was open, children included.
    pub device_ns: u64,
}

/// An open section; hand it back to [`Tracer::exit`].
#[derive(Debug)]
pub struct Open {
    id: u32,
    start_ns: u64,
    device_at_start: u64,
    outer_kind: Kind,
    outer_span: u32,
}

/// Times sections and, when recording, keeps them as spans.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Creates a tracer; `recording` selects the traced mode.
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether sections are kept as spans.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a section of `kind` on the calling thread.
    pub fn enter(&self, kind: Kind) -> Open {
        let outer_kind = CURRENT_KIND.with(|k| k.replace(kind));
        let outer_span = CURRENT_SPAN.with(Cell::get);
        let mut id = NO_SPAN;
        if self.recording {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            id = spans.len() as u32;
            spans.push(Span {
                kind,
                parent: outer_span,
                start_ns: 0,
                end_ns: 0,
                device_ns: 0,
            });
            CURRENT_SPAN.with(|s| s.set(id));
        }
        Open {
            id,
            device_at_start: DEVICE_NS.with(Cell::get),
            outer_kind,
            outer_span,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a section and returns its duration in nanoseconds.
    pub fn exit(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        CURRENT_KIND.with(|k| k.set(open.outer_kind));
        if self.recording {
            CURRENT_SPAN.with(|s| s.set(open.outer_span));
            let device_ns = DEVICE_NS.with(Cell::get) - open.device_at_start;
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            let span = &mut spans[open.id as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
            span.device_ns = device_ns;
        }
        end_ns - open.start_ns
    }

    /// Runs `f` inside a section of `kind`; returns its result and duration.
    pub fn timed<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(kind);
        let out = f();
        (out, self.exit(open))
    }

    /// Forgets every span recorded so far. No section may be open.
    pub fn reset(&self) {
        self.spans.lock().expect("span list lock poisoned").clear();
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Per-kind sums over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Spans of this kind.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: duration − child spans − directly charged device time.
    pub self_ns: u64,
    /// Device time charged directly to spans of this kind (children excluded).
    pub device_ns: u64,
}

/// Folds a span list into per-kind totals (indexed by `Kind as usize`).
/// With `root`, only spans in trees whose root span is of that kind count.
pub fn totals(spans: &[Span], root: Option<Kind>) -> [KindTotals; KINDS] {
    let mut child_total = vec![0u64; spans.len()];
    let mut child_device = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            child_total[span.parent as usize] += span.end_ns - span.start_ns;
            child_device[span.parent as usize] += span.device_ns;
        }
    }
    // Parents are recorded before their children.
    let mut root_kind = Vec::with_capacity(spans.len());
    for span in spans {
        root_kind.push(match span.parent {
            NO_SPAN => span.kind,
            parent => root_kind[parent as usize],
        });
    }
    let mut out = [KindTotals::default(); KINDS];
    for (i, span) in spans.iter().enumerate() {
        if root.is_some_and(|r| r != root_kind[i]) {
            continue;
        }
        let duration = span.end_ns - span.start_ns;
        let direct_device = span.device_ns.saturating_sub(child_device[i]);
        let t = &mut out[span.kind as usize];
        t.count += 1;
        t.total_ns += duration;
        t.device_ns += direct_device;
        t.self_ns += duration
            .saturating_sub(child_total[i])
            .saturating_sub(direct_device);
    }
    out
}

/// Writes the spans as one JSON document:
/// `{"workload": W, "spans": [{"id", "name", "parent", "start_ns", "end_ns", "device_ns"}, ...]}`
/// (`parent` is `null` for a root span).
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_SPAN {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"device_ns\": {}}}{comma}",
            span.kind.name(),
            span.start_ns,
            span.end_ns,
            span.device_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64, device_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
            device_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_direct_device_time() {
        // workload [0, 1000)
        //   cp [100, 400)       device 120 in total, 20 of it inside the probe
        //     lsm_probe [150, 200)  device 20
        //   query [500, 900)    device 250
        let spans = [
            span(Kind::Workload, NO_SPAN, 0, 1000, 370),
            span(Kind::Cp, 0, 100, 400, 120),
            span(Kind::LsmProbe, 1, 150, 200, 20),
            span(Kind::Query, 0, 500, 900, 250),
        ];
        let t = totals(&spans, None);
        let of = |k: Kind| t[k as usize];
        assert_eq!(of(Kind::LsmProbe).self_ns, 50 - 20);
        assert_eq!(of(Kind::LsmProbe).device_ns, 20);
        assert_eq!(of(Kind::Cp).device_ns, 100);
        assert_eq!(of(Kind::Cp).self_ns, 300 - 50 - 100);
        assert_eq!(of(Kind::Query).self_ns, 400 - 250);
        // The root was charged nothing directly: 370 = 120 + 250.
        assert_eq!(of(Kind::Workload).device_ns, 0);
        assert_eq!(of(Kind::Workload).self_ns, 1000 - 300 - 400);
        // Self times and device times partition the root's duration.
        let sum: u64 = t.iter().map(|k| k.self_ns + k.device_ns).sum();
        assert_eq!(sum, 1000);
        assert_eq!(of(Kind::Cp).count, 1);
        assert_eq!(of(Kind::Maint).count, 0);
    }

    #[test]
    fn totals_can_be_limited_to_one_root() {
        let spans = [
            span(Kind::Workload, NO_SPAN, 0, 100, 0),
            span(Kind::QueryClient, NO_SPAN, 0, 90, 30),
            span(Kind::Query, 1, 10, 60, 30),
            span(Kind::Query, 0, 20, 40, 0),
        ];
        let main = totals(&spans, Some(Kind::Workload));
        assert_eq!(main[Kind::Query as usize].count, 1);
        assert_eq!(main[Kind::Query as usize].self_ns, 20);
        assert_eq!(main[Kind::QueryClient as usize].count, 0);
        let client = totals(&spans, Some(Kind::QueryClient));
        assert_eq!(client[Kind::Query as usize].self_ns, 20);
        assert_eq!(client[Kind::Query as usize].device_ns, 30);
        assert_eq!(totals(&spans, None)[Kind::Query as usize].count, 2);
    }

    #[test]
    fn recorded_sections_nest_and_collect_device_charges() {
        let tracer = Tracer::new(true);
        let ((), outer_ns) = tracer.timed(Kind::Workload, || {
            assert_eq!(current_kind(), Kind::Workload);
            charge_device_ns(5);
            tracer.timed(Kind::Cp, || {
                assert_eq!(current_kind(), Kind::Cp);
                charge_device_ns(7);
            });
            assert_eq!(current_kind(), Kind::Workload);
        });
        assert_eq!(current_kind(), Kind::Idle);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_SPAN);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].device_ns, 12);
        assert_eq!(spans[1].device_ns, 7);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer_ns);
        let t = totals(&spans, None);
        assert_eq!(t[Kind::Workload as usize].device_ns, 5);
        assert_eq!(t[Kind::Cp as usize].device_ns, 7);
    }

    #[test]
    fn untraced_sections_time_but_keep_nothing() {
        let tracer = Tracer::new(false);
        let (v, _ns) = tracer.timed(Kind::Query, || 42);
        assert_eq!(v, 42);
        assert!(tracer.spans().is_empty());
    }
}
