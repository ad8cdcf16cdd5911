//! Process-wide metrics registry: named counters, gauges, and
//! log-scale histograms.
//!
//! Unlike spans, metrics are **always on** — each publish is one or two
//! atomic operations, cheap enough for the compile and launch hot
//! paths. Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s
//! into the registry, so call sites can look a metric up once (e.g. in
//! a `OnceLock`) and publish lock-free afterwards.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

struct CounterInner {
    value: AtomicU64,
    /// Scoped metrics chain to their parent (the next-outer label set,
    /// ending at the unlabeled global), so one publish lands in every
    /// aggregate: roll-up parity is exact at quiescence, and in flight a
    /// cell never reads ahead of an aggregate it chains into — publishes
    /// go root-first with `Release`, [`Registry::snapshot`] reads cells
    /// before aggregates with `Acquire`.
    parent: Option<Counter>,
}

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    fn new(parent: Option<Counter>) -> Self {
        Counter(Arc::new(CounterInner {
            value: AtomicU64::new(0),
            parent,
        }))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        // Aggregates first (the chain is a few levels at most), so that
        // whoever sees this cell's increment also sees its aggregates'.
        if let Some(p) = &self.0.parent {
            p.add(n);
        }
        self.0.value.fetch_add(n, Ordering::Release);
    }

    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Acquire)
    }

    /// A per-instance leaf under this counter: it chains into `self`
    /// (and so into every aggregate `self` chains into) exactly as a
    /// labeled cell does, but has no name and never enters a registry,
    /// so snapshots and exports do not see it. The owner of an instance
    /// (one cache, one pipeline) counts each event once, through its
    /// cell, and reads its own share back with [`Counter::get`].
    pub fn cell(&self) -> Counter {
        Counter::new(Some(self.clone()))
    }

    /// Number of aggregates this counter chains into.
    fn depth(&self) -> usize {
        self.0.parent.as_ref().map_or(0, |p| 1 + p.depth())
    }
}

struct GaugeInner {
    bits: AtomicU64,
    parent: Option<Gauge>,
}

/// Last-write-wins floating-point level (e.g. occupancy).
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    fn new(parent: Option<Gauge>) -> Self {
        Gauge(Arc::new(GaugeInner {
            bits: AtomicU64::new(0f64.to_bits()),
            parent,
        }))
    }

    pub fn set(&self, v: f64) {
        let mut cur = self;
        loop {
            cur.0.bits.store(v.to_bits(), Ordering::Relaxed);
            match &cur.0.parent {
                Some(p) => cur = p,
                None => break,
            }
        }
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

/// Subbucket resolution: 2^4 = 16 subbuckets per power of two, i.e.
/// bucket boundaries track values to within ~6.25% relative error.
const SUB_BITS: u32 = 4;
const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Values below `SUBBUCKETS` get one exact bucket each; above that,
/// each octave `[2^m, 2^(m+1))` for `m in 4..=63` splits into 16.
const BUCKETS: usize = SUBBUCKETS + (64 - SUB_BITS as usize) * SUBBUCKETS;

struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    parent: Option<Histogram>,
}

/// Fixed-memory log-scale histogram of `u64` samples (HDR-style:
/// 16 subbuckets per octave, so quantile answers carry at most ~6.25%
/// relative error). Recording is lock-free.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(parent: Option<Histogram>) -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            parent,
        }))
    }

    /// Bucket index for a value: exact below 16, then
    /// `(msb - 3) * 16 + subbucket` where the subbucket is the 4 bits
    /// below the most significant one.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUBBUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) as usize - SUBBUCKETS;
        (msb - (SUB_BITS - 1)) as usize * SUBBUCKETS + sub
    }

    /// Largest value mapping to `index` — the representative returned
    /// by quantile queries, so reported quantiles never understate.
    pub(crate) fn bucket_value(index: usize) -> u64 {
        if index < SUBBUCKETS {
            return index as u64;
        }
        let msb = (index / SUBBUCKETS) as u32 + (SUB_BITS - 1);
        let sub = (index % SUBBUCKETS) as u64;
        let lower = (SUBBUCKETS as u64 + sub) << (msb - SUB_BITS);
        lower + ((1u64 << (msb - SUB_BITS)) - 1)
    }

    pub fn record(&self, v: u64) {
        self.record_in(Self::bucket_index(v), v);
    }

    /// Aggregates first, like [`Counter::add`]; every field is its own
    /// `Release` publish, so each one reads cell ≤ aggregate (min: ≥).
    fn record_in(&self, bucket: usize, v: u64) {
        let inner = &self.0;
        if let Some(p) = &inner.parent {
            p.record_in(bucket, v);
        }
        inner.buckets[bucket].fetch_add(1, Ordering::Release);
        inner.count.fetch_add(1, Ordering::Release);
        inner.sum.fetch_add(v, Ordering::Release);
        inner.min.fetch_min(v, Ordering::Release);
        inner.max.fetch_max(v, Ordering::Release);
    }

    /// Number of aggregates this histogram chains into.
    fn depth(&self) -> usize {
        self.0.parent.as_ref().map_or(0, |p| 1 + p.depth())
    }

    /// Record a `Duration` in whole microseconds.
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Acquire)
    }

    fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Acquire)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), answered from the
    /// bucket containing the ranked sample and reported as that
    /// bucket's upper bound. Returns `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Acquire);
            if seen >= rank {
                return Some(Self::bucket_value(i));
            }
        }
        // Counts are bumped after the bucket cell under concurrency;
        // fall back to the recorded max.
        Some(self.0.max.load(Ordering::Acquire))
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Acquire)
            },
            max: self.0.max.load(Ordering::Acquire),
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }

    /// Sparse copy of the non-empty buckets, the raw material for
    /// windowed (delta) quantiles in [`crate::window`]. Cell indices
    /// invert through [`Histogram::bucket_value`].
    pub(crate) fn cells(&self) -> HistogramCells {
        let cells: Vec<(u32, u64)> = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Acquire);
                (n != 0).then_some((i as u32, n))
            })
            .collect();
        HistogramCells {
            count: self.count(),
            sum: self.sum(),
            cells,
        }
    }
}

/// Sparse bucket-level copy of one histogram: `(bucket index, count)`
/// pairs for every non-empty bucket, plus the cumulative count/sum.
/// Two of these subtract into an exact per-interval delta because
/// bucket counts are monotone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HistogramCells {
    pub count: u64,
    pub sum: u64,
    pub cells: Vec<(u32, u64)>,
}

impl HistogramCells {
    /// Nearest-rank quantile over the cells, using the cell total (not
    /// `count`, which can transiently run ahead under concurrency).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.cells.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for &(i, n) in &self.cells {
            seen += n;
            if seen >= rank {
                return Some(Histogram::bucket_value(i as usize));
            }
        }
        None
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Named-metric store. Obtain the process-wide instance via
/// [`registry()`]; fresh instances (for tests) via [`Registry::new`].
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Fetch-or-create the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with_parent(name, None)
    }

    pub(crate) fn counter_with_parent(&self, name: &str, parent: Option<Counter>) -> Counter {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::new(parent);
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Fetch-or-create the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with_parent(name, None)
    }

    pub(crate) fn gauge_with_parent(&self, name: &str, parent: Option<Gauge>) -> Gauge {
        let mut map = self.gauges.lock();
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::new(parent);
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// Fetch-or-create the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_parent(name, None)
    }

    pub(crate) fn histogram_with_parent(&self, name: &str, parent: Option<Histogram>) -> Histogram {
        let mut map = self.histograms.lock();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::new(parent);
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Current value of a counter, without creating it (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().get(name).map_or(0, Counter::get)
    }

    /// Sparse bucket-level copy of every registered histogram — the
    /// input [`crate::History::tick`] diffs per tick.
    pub(crate) fn cells_snapshot(&self) -> BTreeMap<String, HistogramCells> {
        let map = self.histograms.lock();
        read_cells_first(&map, Histogram::depth, Histogram::cells)
    }

    /// Point-in-time copy of every registered metric. Publishers are not
    /// stopped, so the copy is exact only at quiescence; in flight it
    /// still never shows a labeled cell ahead of an aggregate it chains
    /// into.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_cells_first(&self.counters.lock(), Counter::depth, Counter::get),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read_cells_first(
                &self.histograms.lock(),
                Histogram::depth,
                Histogram::snapshot,
            ),
        }
    }
}

/// Read every metric of `map`, deepest label level first: a cell is read
/// (`Acquire`) before the aggregates its publishes reached first
/// (`Release`), so no cell can read ahead of its aggregate.
fn read_cells_first<T, V>(
    map: &BTreeMap<String, T>,
    depth: impl Fn(&T) -> usize,
    read: impl Fn(&T) -> V,
) -> BTreeMap<String, V> {
    let depths: Vec<usize> = map.values().map(depth).collect();
    let mut values: Vec<Option<V>> = map.values().map(|_| None).collect();
    for level in (0..=depths.iter().copied().max().unwrap_or(0)).rev() {
        for ((metric, d), slot) in map.values().zip(&depths).zip(&mut values) {
            if *d == level {
                *slot = Some(read(metric));
            }
        }
    }
    map.keys()
        .cloned()
        .zip(values.into_iter().flatten())
        .collect()
}

/// Point-in-time copy of the registry, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The process-wide registry every subsystem publishes into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c").get(), 5);
        assert_eq!(r.counter_value("c"), 5);
        assert_eq!(r.counter_value("absent"), 0);
        let g = r.gauge("g");
        g.set(0.75);
        assert_eq!(r.gauge("g").get(), 0.75);
    }

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut prev = 0usize;
        for v in 0u64..4096 {
            let i = Histogram::bucket_index(v);
            assert!(i >= prev, "index must not decrease: v={v}");
            prev = i;
            let rep = Histogram::bucket_value(i);
            assert!(rep >= v, "representative below sample: v={v} rep={rep}");
            assert_eq!(Histogram::bucket_index(rep), i, "v={v}");
        }
        // Extremes stay in range.
        assert!(Histogram::bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(
            Histogram::bucket_index(Histogram::bucket_value(BUCKETS - 1)),
            BUCKETS - 1
        );
    }

    #[test]
    fn small_values_are_exact() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(7));
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 16);
        assert_eq!(snap.min, 3);
        assert_eq!(snap.max, 7);
        assert_eq!(snap.p50, 3);
        assert!((snap.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let r = Registry::new();
        let h = r.histogram("empty");
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn quantiles_respect_relative_error_bound() {
        let r = Registry::new();
        let h = r.histogram("lat");
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let approx = h.quantile(q).unwrap();
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            assert!(
                (approx - exact) as f64 <= exact as f64 / 16.0 + 1.0,
                "q={q}: approx {approx} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Registry::new();
        let h = r.histogram("h");
        let c = r.counter("c");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(c.get(), 8000);
    }
}
