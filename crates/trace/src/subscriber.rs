//! The bounded streaming sink for JSONL lines.

use parking_lot::Mutex;

/// Bounded, never-blocking streaming JSONL sink.
///
/// Producers [`offer`](StreamSink::offer) pre-rendered JSONL lines. When
/// the ring is full the **newest offer is dropped** — the hot path never
/// waits on a slow consumer — and the loss is self-accounted: a local
/// drop counter plus the `ks_trace.sink.dropped` registry counter, so
/// overflow is visible in the same exposition the sink feeds.
pub struct StreamSink {
    queue: Mutex<std::collections::VecDeque<String>>,
    cap: usize,
    dropped: std::sync::atomic::AtomicU64,
    dropped_counter: crate::Counter,
}

impl StreamSink {
    /// A sink retaining at most `cap` pending lines (`cap >= 1`),
    /// accounting drops into `registry`.
    fn with_registry(cap: usize, registry: &crate::Registry) -> Self {
        StreamSink {
            queue: Mutex::new(std::collections::VecDeque::new()),
            cap: cap.max(1),
            dropped: std::sync::atomic::AtomicU64::new(0),
            dropped_counter: registry.counter(crate::names::SINK_DROPPED),
        }
    }

    /// A sink accounting drops into the process-wide registry.
    pub fn new(cap: usize) -> Self {
        Self::with_registry(cap, crate::registry())
    }

    /// Enqueue one line; returns `false` (and counts the drop) when the
    /// ring is full. Never blocks beyond the queue mutex.
    pub fn offer(&self, line: impl Into<String>) -> bool {
        let line = line.into();
        {
            let mut q = self.queue.lock();
            if q.len() < self.cap {
                q.push_back(line);
                return true;
            }
        }
        self.dropped
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.dropped_counter.inc();
        false
    }

    /// Lines dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Take every pending line, oldest first.
    pub fn drain(&self) -> Vec<String> {
        self.queue.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stream_sink_bounds_drops_and_accounts_them() {
        let r = crate::Registry::new();
        let sink = StreamSink::with_registry(4, &r);
        for i in 0..10 {
            sink.offer(format!("{{\"i\":{i}}}"));
        }
        assert_eq!(sink.dropped(), 6);
        assert_eq!(r.counter_value(crate::names::SINK_DROPPED), 6);
        // Oldest lines survive; each drained line is valid JSON.
        let lines = sink.drain();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"i\":0}");
        for l in &lines {
            crate::Json::parse(l).unwrap();
        }
        // Draining frees capacity again.
        assert!(sink.offer("{}"));
        assert_eq!(sink.drain(), vec!["{}".to_string()]);
    }

    #[test]
    fn stream_sink_never_blocks_under_contention() {
        let r = crate::Registry::new();
        let sink = Arc::new(StreamSink::with_registry(16, &r));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        sink.offer(format!("{{\"t\":{t},\"i\":{i}}}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Conservation: everything offered is either pending or counted
        // as dropped.
        let pending = sink.drain().len();
        assert_eq!(pending as u64 + sink.dropped(), 800);
        assert_eq!(pending, 16);
    }
}
