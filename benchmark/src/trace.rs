//! The benchmark's own span recorder. Spans are taken in `benchmark/`
//! code around calls into each crate's public functions — `ks_trace`
//! span collection stays off — kept in memory, and written out as
//! JSON-lines when the run ends.
//!
//! Two kinds of span exist. A **boundary** span wraps a public call the
//! workload itself makes on the clock (`Pipeline::refresh`,
//! `Pipeline::run`, `Compiler::with_store_scrubbed`). A **replay** span
//! wraps the same inputs re-issued, off the clock and right after the
//! op, to the public functions of the layers beneath that call; its
//! parent is the boundary span it explains.

use ks_trace::Json;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Boundary,
    Replay,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation (1-based, per run) this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle to an open (or just-closed) span; `None` while tracing is off.
pub type SpanId = Option<u32>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    /// Parent given to spans opened while the stack is empty: the closed
    /// boundary span a replay explains.
    adopted: SpanId,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            adopted: None,
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start the next operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. With tracing off this reads no clock and records
    /// nothing, so untraced runs pay one branch per call site.
    pub fn enter(&mut self, name: &'static str, kind: Kind) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().or(self.adopted),
            op: self.op,
            name,
            kind,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as one span (for calls that open no spans themselves).
    pub fn span<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, kind);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span the caller timed itself (inside a callback that
    /// cannot borrow the tracer).
    pub fn record(&mut self, name: &'static str, kind: Kind, from: Instant, to: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.stack.last().copied().or(self.adopted),
            op: self.op,
            name,
            kind,
            start_ns: ns(from),
            end_ns: ns(to),
        });
    }

    /// Parent the following top-level spans to `parent` (a closed
    /// boundary span) until called again with `None`.
    pub fn adopt(&mut self, parent: SpanId) {
        self.adopted = parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// One JSON object per span: name, kind, start, end, parent, op.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::u64(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                ),
                ("op", Json::u64(s.op)),
                ("name", Json::str(s.name)),
                (
                    "kind",
                    Json::str(match s.kind {
                        Kind::Boundary => "boundary",
                        Kind::Replay => "replay",
                    }),
                ),
                ("start_ns", Json::u64(s.start_ns)),
                ("end_ns", Json::u64(s.end_ns)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_adoption_and_off_mode() {
        let mut t = Tracer::new(true);
        t.next_op();
        let run = t.enter("pf.run", Kind::Boundary);
        t.exit(run);
        t.adopt(run);
        let launch = t.enter("sim.launch", Kind::Replay);
        t.span("inner", Kind::Replay, || ());
        t.exit(launch);
        t.adopt(None);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0), "replay adopts the closed boundary");
        assert_eq!(s[2].parent, Some(1), "open spans parent innermost");
        assert!(s.iter().all(|s| s.op == 1));
        assert_eq!(t.durations_us("sim.launch").len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.enter("x", Kind::Boundary), None);
        off.exit(None);
        assert!(off.spans().is_empty());
    }
}
