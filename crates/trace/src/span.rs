//! Span-based tracing: monotonic, nested timing records.
//!
//! Spans form a per-thread stack: a [`SpanGuard`] created while another
//! guard is live on the same thread records that guard's span as its
//! parent. Records land in a process-wide collector on drop, so the
//! full tree (across compile phases, cache lookups, launches, and
//! pipeline iterations) can be drained, validated, and exported at any
//! point. Tracing is **disabled by default**: a disabled guard never
//! reads the clock, takes no lock, and allocates nothing.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span tracing currently enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable span tracing. Metrics (counters, gauges,
/// histograms) are always on; only spans are gated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (process-lifetime) span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    pub name: String,
    /// Nesting depth (root = 0); always `parent.depth + 1` for children.
    pub depth: u32,
    /// Start, in nanoseconds since the collector epoch (monotonic clock).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Free-form key/value annotations.
    pub fields: Vec<(String, String)>,
}

struct Collector {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        records: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// (span id, depth) stack of live spans on this thread.
    static STACK: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// RAII guard for a live span; records the span when dropped. Inert
/// (and allocation-free) when tracing is disabled at creation time.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    depth: u32,
    name: String,
    start: Instant,
    start_ns: u64,
    fields: Vec<(String, String)>,
}

/// Start a span. See [`span_fields`] to attach annotations.
pub fn span(name: &str) -> SpanGuard {
    span_fields(name, Vec::new)
}

/// Start a span with lazily built key/value fields; `fields` is only
/// invoked when tracing is enabled, so call sites pay nothing for the
/// annotation strings while tracing is off.
pub fn span_fields(name: &str, fields: impl FnOnce() -> Vec<(String, String)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let c = collector();
    let start = Instant::now();
    let start_ns = start.saturating_duration_since(c.epoch).as_nanos() as u64;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, depth) = match s.last() {
            Some(&(pid, pdepth)) => (Some(pid), pdepth + 1),
            None => (None, 0),
        };
        s.push((id, depth));
        (parent, depth)
    });
    SpanGuard {
        live: Some(LiveSpan {
            id,
            parent,
            depth,
            name: name.to_string(),
            start,
            start_ns,
            fields: fields(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_ns = live.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop LIFO under normal use; tolerate out-of-order
            // drops by removing this span's entry wherever it sits.
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == live.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            depth: live.depth,
            start_ns: live.start_ns,
            dur_ns,
            thread: THREAD_ID.with(|t| *t),
            fields: live.fields,
        };
        collector().records.lock().push(record);
    }
}

/// Record an already-timed interval as a completed span, parented to
/// the innermost live span on this thread. Used where RAII guards
/// cannot wrap the timed region — e.g. per-pass timing inside the
/// optimizer's observer callback. No-op while tracing is disabled.
pub fn complete_span(name: &str, started: Instant) {
    if !enabled() {
        return;
    }
    let c = collector();
    let dur_ns = started.elapsed().as_nanos() as u64;
    let start_ns = started.saturating_duration_since(c.epoch).as_nanos() as u64;
    let (parent, depth) = STACK.with(|s| match s.borrow().last() {
        Some(&(pid, pdepth)) => (Some(pid), pdepth + 1),
        None => (None, 0),
    });
    let record = SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name: name.to_string(),
        depth,
        start_ns,
        dur_ns,
        thread: THREAD_ID.with(|t| *t),
        fields: Vec::new(),
    };
    c.records.lock().push(record);
}

/// Take every finished span recorded so far, clearing the collector.
pub fn drain_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().records.lock())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector and the enabled flag are process-global; span tests
    /// serialize on this lock so they never steal each other's records.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        drain_spans();
        {
            let s = span_fields("nope", || vec![("k".into(), "v".into())]);
            assert!(s.live.is_none());
        }
        complete_span("also-nope", Instant::now());
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn nesting_links_parent_and_depth() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        drain_spans();
        {
            let _outer = span_fields("outer", || vec![("kernel".into(), "k".into())]);
            {
                let _inner = span("inner");
                complete_span("leaf", Instant::now());
            }
        }
        set_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.fields, vec![("kernel".to_string(), "k".to_string())]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert_eq!(leaf.parent, Some(inner.id));
        assert_eq!(leaf.depth, 2);
        // Children close before (or when) their parents do, on the same
        // monotonic clock: strict containment.
        assert!(inner.start_ns >= outer.start_ns);
        let end = |s: &SpanRecord| s.start_ns + s.dur_ns;
        assert!(end(inner) <= end(outer));
        assert!(end(leaf) <= end(inner));
    }

    #[test]
    fn drain_clears_the_collector() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        drain_spans();
        drop(span("one"));
        set_enabled(false);
        assert_eq!(drain_spans().len(), 1);
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn threads_record_independent_stacks() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        drain_spans();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span_fields("worker", || vec![("i".into(), i.to_string())]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 4);
        // All roots: no cross-thread parenting.
        assert!(spans.iter().all(|s| s.parent.is_none() && s.depth == 0));
        let threads: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4);
    }
}
