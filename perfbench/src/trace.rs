//! The traced run's span recorder: one span around every call the
//! benchmark makes into a crate, kept in memory and written out when
//! the run ends. Off (a single flag test per call) in untraced runs.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::self_time;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `neural.conv`.
    pub name: &'static str,
    /// Host start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Host end, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark op the call belongs to (0 = set-up).
    pub op: u64,
}

impl Span {
    /// Host duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns recording on or off.
pub fn set_on(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Tags later spans with op id `op`.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let span = Span {
            name,
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.stack.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = now;
            r.stack.pop();
        });
    }
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Self time of span `idx`: its duration minus what its children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let children: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.parent == Some(idx)).map(|s| (s.start_ns, s.end_ns)).collect();
    self_time((spans[idx].start_ns, spans[idx].end_ns), &children)
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Writes the spans as JSON lines under `path`.
pub fn write(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_ns_subtracts_only_direct_children() {
        let spans = vec![
            span("serve.fleet_run", 0, 100, None),
            span("backend.serve", 10, 30, Some(0)),
            span("backend.serve", 50, 60, Some(0)),
            // A grandchild is already inside its parent's interval.
            span("inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 1), 12);
        assert_eq!(self_ns(&spans, 3), 8);
        assert_eq!(total_ns(&spans, "backend.serve"), 30);
    }
}
