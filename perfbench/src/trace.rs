//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each crate's public functions: name, start, end, parent
//! and request id. A layer's self time is its span time minus the time
//! its child spans cover. Spans whose name starts with `root.` mark one
//! traced end-to-end operation; their self time is work no layer span
//! covered (benchmark glue), which the attribution check bounds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Time covered by direct children.
    child_ns: u64,
}

struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Instant::now(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

/// Turns recording on or off for the calling thread.
pub fn enable(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Tags the spans opened from now on with request id `id`.
pub fn set_request(id: u64) {
    TRACER.with(|t| t.borrow_mut().request = id);
}

/// Runs `f` inside a span named `name` (a no-op wrapper when recording
/// is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let now = t.origin.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        let request = t.request;
        t.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            child_ns: 0,
        });
        let id = t.spans.len() - 1;
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let now = t.origin.elapsed().as_nanos() as u64;
            let popped = t.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            t.spans[id].end_ns = now;
            let dur = now - t.spans[id].start_ns;
            if let Some(p) = t.spans[id].parent {
                t.spans[p].child_ns += dur;
            }
        });
    }
    out
}

/// Takes the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time in milliseconds summed per span name.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Total duration in milliseconds of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Attribution check: across all `root.*` spans, layer spans must cover
/// all but `bound` of the traced end-to-end time. Returns the unattributed
/// share in percent, failing the run loudly beyond the bound.
pub fn check_attribution(spans: &[Span], bound: f64) -> f64 {
    let selfs = self_ms(spans);
    let (mut root_total, mut root_self) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name.starts_with("root.")) {
        root_total += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    for (name, ms) in &selfs {
        if name.starts_with("root.") {
            root_self += ms;
        }
    }
    if root_total <= 0.0 {
        return 0.0;
    }
    let layers: f64 = selfs
        .iter()
        .filter(|(n, _)| !n.starts_with("root."))
        .map(|(_, ms)| ms)
        .sum();
    let share = root_self / root_total;
    if share > bound {
        crate::util::fail(&format!(
            "layer self times ({layers:.1} ms) explain only {:.1}% of the traced total \
             ({root_total:.1} ms); bound is {:.0}%",
            100.0 * (1.0 - share),
            100.0 * (1.0 - bound)
        ));
    }
    100.0 * share
}

/// Appends spans to the TSV file at `path` (`id name start_ns end_ns
/// parent request`, ids local to each appended batch).
pub fn append_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let fresh = file.metadata()?.len() == 0;
    let mut out = std::io::BufWriter::new(file);
    if fresh {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}
