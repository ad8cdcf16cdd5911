//! Rolling-window aggregation over registry snapshots.
//!
//! The registry is cumulative-since-process-start; continuous traffic
//! wants "the last N ticks". [`History`] keeps a bounded ring of
//! per-tick **deltas** — counter increases and sparse histogram bucket
//! increases — and [`History::window`] merges the most recent N into a
//! [`WindowView`] with windowed counts and quantiles.
//!
//! Ticks are driven by the caller ([`History::tick`]); nothing here
//! reads the clock.

use crate::metrics::{HistogramCells, Registry};
use std::collections::BTreeMap;

/// One tick's worth of metric deltas.
struct TickDelta {
    /// 1-based tick sequence number within this `History`.
    seq: u64,
    /// Counter increases since the previous tick (zero rows dropped).
    counters: BTreeMap<String, u64>,
    /// Histogram bucket/count/sum increases since the previous tick
    /// (histograms with no new samples dropped).
    histograms: BTreeMap<String, HistogramCells>,
}

/// Bounded ring of tick deltas plus the cumulative baselines needed to
/// produce the next delta.
pub struct History {
    cap: usize,
    ticks: std::collections::VecDeque<TickDelta>,
    seq: u64,
    last_counters: BTreeMap<String, u64>,
    last_cells: BTreeMap<String, HistogramCells>,
}

impl History {
    /// A history retaining the most recent `cap` ticks (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        History {
            cap: cap.max(1),
            ticks: std::collections::VecDeque::new(),
            seq: 0,
            last_counters: BTreeMap::new(),
            last_cells: BTreeMap::new(),
        }
    }

    /// Snapshot `registry`, record the delta against the previous tick,
    /// and rotate out the oldest tick past capacity.
    pub fn tick(&mut self, registry: &Registry) {
        let counters_now = registry.snapshot().counters;
        let cells_now = registry.cells_snapshot();

        let mut counters = BTreeMap::new();
        for (name, now) in &counters_now {
            let before = self.last_counters.get(name).copied().unwrap_or(0);
            let d = now.saturating_sub(before);
            if d != 0 {
                counters.insert(name.clone(), d);
            }
        }

        let mut histograms = BTreeMap::new();
        for (name, now) in &cells_now {
            let delta = match self.last_cells.get(name) {
                Some(before) => diff_cells(now, before),
                None => now.clone(),
            };
            if delta.count != 0 || !delta.cells.is_empty() {
                histograms.insert(name.clone(), delta);
            }
        }

        self.seq += 1;
        self.ticks.push_back(TickDelta {
            seq: self.seq,
            counters,
            histograms,
        });
        while self.ticks.len() > self.cap {
            self.ticks.pop_front();
        }
        self.last_counters = counters_now;
        self.last_cells = cells_now;
    }

    /// Merge the most recent `n` ticks (all of them if fewer) into one
    /// aggregated view.
    pub fn window(&self, n: usize) -> WindowView {
        let take = n.min(self.ticks.len());
        let mut view = WindowView {
            ticks: take,
            last_seq: self.ticks.back().map_or(0, |t| t.seq),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for t in self.ticks.iter().rev().take(take) {
            for (name, d) in &t.counters {
                *view.counters.entry(name.clone()).or_insert(0) += d;
            }
            for (name, d) in &t.histograms {
                merge_cells(view.histograms.entry(name.clone()).or_default(), d);
            }
        }
        view
    }
}

/// `now - before` per bucket (and count/sum), saturating so a torn read
/// under concurrency can never go negative.
fn diff_cells(now: &HistogramCells, before: &HistogramCells) -> HistogramCells {
    let before_map: BTreeMap<u32, u64> = before.cells.iter().copied().collect();
    let cells = now
        .cells
        .iter()
        .filter_map(|&(i, n)| {
            let d = n.saturating_sub(before_map.get(&i).copied().unwrap_or(0));
            (d != 0).then_some((i, d))
        })
        .collect();
    HistogramCells {
        count: now.count.saturating_sub(before.count),
        sum: now.sum.saturating_sub(before.sum),
        cells,
    }
}

fn merge_cells(acc: &mut HistogramCells, d: &HistogramCells) {
    acc.count += d.count;
    acc.sum += d.sum;
    let mut map: BTreeMap<u32, u64> = acc.cells.iter().copied().collect();
    for &(i, n) in &d.cells {
        *map.entry(i).or_insert(0) += n;
    }
    acc.cells = map.into_iter().collect();
}

/// Aggregated deltas over the last N ticks of a [`History`].
pub struct WindowView {
    /// Ticks actually merged (≤ the requested window size).
    pub ticks: usize,
    /// Sequence number of the newest merged tick.
    pub(crate) last_seq: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramCells>,
}

impl WindowView {
    /// Total increase of `name` across the window.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Windowed nearest-rank quantile of histogram `name` (`None` if it
    /// recorded nothing inside the window).
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        self.histograms.get(name)?.quantile(q)
    }

    /// Windowed sample count, p50 and p95 of histogram `name`.
    pub fn summary(&self, name: &str) -> Option<WindowSummary> {
        let h = self.histograms.get(name)?;
        Some(WindowSummary {
            count: h.cells.iter().map(|&(_, n)| n).sum(),
            p50: h.quantile(0.50).unwrap_or(0),
            p95: h.quantile(0.95).unwrap_or(0),
        })
    }
}

/// Windowed histogram summary (delta-only, unlike the cumulative
/// [`crate::HistogramSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowSummary {
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn ticks_capture_deltas_not_cumulatives() {
        let r = Registry::new();
        let mut h = History::new(8);
        r.counter("c").add(5);
        h.tick(&r);
        r.counter("c").add(2);
        h.tick(&r);
        let w = h.window(1);
        assert_eq!(w.counter("c"), 2);
        let w2 = h.window(2);
        assert_eq!(w2.counter("c"), 7);
    }

    #[test]
    fn rotation_drops_oldest_ticks() {
        let r = Registry::new();
        let mut h = History::new(2);
        for _ in 0..5 {
            r.counter("c").inc();
            h.tick(&r);
        }
        let w = h.window(10);
        assert_eq!(w.ticks, 2);
        assert_eq!(w.counter("c"), 2);
        assert_eq!(w.last_seq, 5);
    }

    #[test]
    fn windowed_quantiles_see_only_recent_samples() {
        let r = Registry::new();
        let mut h = History::new(8);
        let lat = r.histogram("lat");
        for _ in 0..100 {
            lat.record(10);
        }
        h.tick(&r);
        for _ in 0..5 {
            lat.record(100_000);
        }
        h.tick(&r);
        // The cumulative p95 is still dominated by the 10s (5 spikes in
        // 105 samples sit above the p95 rank)...
        assert_eq!(lat.quantile(0.95), Some(10));
        // ...but the last tick saw only the spike.
        let w = h.window(1);
        let spike = Histogram::bucket_value(Histogram::bucket_index(100_000));
        assert_eq!(w.quantile("lat", 0.95), Some(spike));
        let s = w.summary("lat").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, spike);
    }

    #[test]
    fn empty_and_quiet_ticks_are_cheap() {
        let r = Registry::new();
        let mut h = History::new(4);
        r.counter("c").inc();
        h.tick(&r);
        h.tick(&r); // nothing changed
        let w = h.window(1);
        assert!(w.counters.is_empty());
        assert!(w.histograms.is_empty());
        assert_eq!(w.quantile("absent", 0.5), None);
        assert_eq!(w.summary("absent"), None);
    }
}
