//! Labeled metric scopes with exact roll-up.
//!
//! [`Registry::scoped`] returns a [`Scope`] — a labeled view of the
//! registry. A metric obtained through a scope is registered under
//! `name{k=v,...}` (label keys sorted) and its handle chains to the
//! parent scope's handle and ultimately to the plain, unlabeled global
//! metric. Every publish walks that chain, so **the sum of the child
//! scopes equals the global aggregate exactly once publishers are
//! quiescent**. The subsystem stats (`CacheStats`, `AsyncStats`, …) are
//! one more level of the same chain: unregistered per-instance leaves
//! ([`Counter::cell`]) under these cells, read back by their owner —
//! one counter per event, not a second copy. While publishes are in flight a
//! snapshot is not a cut, but it is ordered: a publish reaches its
//! aggregates before its cell, and [`Registry::snapshot`] reads cells
//! before aggregates, so no cell (or sum of sibling cells) ever reads
//! ahead of an aggregate it chains into.
//!
//! ```
//! use ks_trace::Registry;
//!
//! let r = Registry::new();
//! let p0 = r.scoped(&[("pipeline", "p0")]);
//! let p1 = r.scoped(&[("pipeline", "p1")]);
//! p0.counter("gpu_pf.iterations").add(3);
//! p1.counter("gpu_pf.iterations").add(4);
//! assert_eq!(r.counter_value("gpu_pf.iterations"), 7);
//! assert_eq!(r.counter_value("gpu_pf.iterations{pipeline=p0}"), 3);
//! ```
//!
//! Scopes nest: `scope.scoped(&[("module", "2")])` adds a label level;
//! publishes then land in the module cell, the pipeline cell, and the
//! global, keeping parity at every level of the tree.

use crate::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};

/// Replace characters that would collide with the `name{k=v,...}`
/// encoding (or Prometheus label syntax) so hostile label values cannot
/// forge metrics.
fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':' | '-' | '/') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a scoped metric name: `base{k=v,k2=v2}` with keys sorted.
/// The empty label set renders as the bare base name.
pub fn scoped_name(base: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let rendered: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{base}{{{}}}", rendered.join(","))
}

/// Split a (possibly scoped) metric name into its base and label pairs.
/// Unlabeled names return an empty label list.
fn parse_scoped_name(full: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(open) = full.find('{') else {
        return (full, Vec::new());
    };
    let Some(inner) = full[open..]
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
    else {
        return (full, Vec::new());
    };
    let labels = inner
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .collect();
    (&full[..open], labels)
}

/// A labeled view of a [`Registry`]. Cheap to create (one small Vec per
/// level); metric lookups go through the registry's fetch-or-create
/// maps, so hold the returned handles on hot paths just like global
/// ones.
#[derive(Clone)]
pub struct Scope<'r> {
    registry: &'r Registry,
    /// Cumulative label sets, outermost first. Each level's metrics
    /// parent into the previous level's (level 0 parents into the
    /// unlabeled global).
    levels: Vec<Vec<(String, String)>>,
}

impl Registry {
    /// A labeled child scope of this registry. Metrics published
    /// through it roll up exactly into the unlabeled global metrics.
    pub fn scoped(&self, labels: &[(&str, &str)]) -> Scope<'_> {
        Scope {
            registry: self,
            levels: Vec::new(),
        }
        .scoped(labels)
    }
}

impl<'r> Scope<'r> {
    /// A nested scope carrying this scope's labels plus `labels`
    /// (same-key labels override, keys stay sorted).
    pub fn scoped(&self, labels: &[(&str, &str)]) -> Scope<'r> {
        let mut merged = self.labels().to_vec();
        for (k, v) in labels {
            let (k, v) = (sanitize(k), sanitize(v));
            match merged.binary_search_by(|(mk, _)| mk.as_str().cmp(&k)) {
                Ok(i) => merged[i].1 = v,
                Err(i) => merged.insert(i, (k, v)),
            }
        }
        let mut levels = self.levels.clone();
        levels.push(merged);
        Scope {
            registry: self.registry,
            levels,
        }
    }

    /// The full (cumulative) label set of this scope, sorted by key.
    pub fn labels(&self) -> &[(String, String)] {
        self.levels.last().map_or(&[], Vec::as_slice)
    }

    /// Fetch-or-create the scoped counter `name{...}`, chained through
    /// every enclosing scope down to the global `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut handle = self.registry.counter(name);
        for level in &self.levels {
            handle = self
                .registry
                .counter_with_parent(&scoped_name(name, level), Some(handle));
        }
        handle
    }

    /// Fetch-or-create the scoped gauge `name{...}` (sets also write
    /// through to the enclosing scopes, last-write-wins).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut handle = self.registry.gauge(name);
        for level in &self.levels {
            handle = self
                .registry
                .gauge_with_parent(&scoped_name(name, level), Some(handle));
        }
        handle
    }

    /// Fetch-or-create the scoped histogram `name{...}`, chained so a
    /// recorded sample lands in every enclosing aggregate.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut handle = self.registry.histogram(name);
        for level in &self.levels {
            handle = self
                .registry
                .histogram_with_parent(&scoped_name(name, level), Some(handle));
        }
        handle
    }
}

/// All labeled variants of `base` in a snapshot's counters, as
/// `(labels, value)` rows.
fn scoped_counters<'s>(
    snapshot: &'s MetricsSnapshot,
    base: &str,
) -> Vec<(Vec<(&'s str, &'s str)>, u64)> {
    snapshot
        .counters
        .iter()
        .filter_map(|(name, v)| {
            let (b, labels) = parse_scoped_name(name);
            (b == base && !labels.is_empty()).then_some((labels, *v))
        })
        .collect()
}

/// Sum of `base` over the single-label scopes keyed by `label_key` —
/// the roll-up parity probe's left-hand side. Nested (multi-label)
/// cells are excluded so nothing is double-counted.
pub fn scoped_counter_sum(snapshot: &MetricsSnapshot, base: &str, label_key: &str) -> u64 {
    scoped_counters(snapshot, base)
        .into_iter()
        .filter(|(labels, _)| labels.len() == 1 && labels[0].0 == label_key)
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_counters_roll_up_exactly() {
        let r = Registry::new();
        let a = r.scoped(&[("pipeline", "a")]);
        let b = r.scoped(&[("pipeline", "b")]);
        a.counter("it").add(5);
        b.counter("it").add(7);
        assert_eq!(r.counter_value("it"), 12);
        assert_eq!(r.counter_value("it{pipeline=a}"), 5);
        assert_eq!(r.counter_value("it{pipeline=b}"), 7);
        let snap = r.snapshot();
        assert_eq!(scoped_counter_sum(&snap, "it", "pipeline"), 12);
        assert_eq!(snap.counter("it"), 12);
    }

    #[test]
    fn nested_scopes_chain_through_every_level() {
        let r = Registry::new();
        let pipe = r.scoped(&[("pipeline", "p0")]);
        let m0 = pipe.scoped(&[("module", "0")]);
        let m1 = pipe.scoped(&[("module", "1")]);
        m0.counter("x").add(2);
        m1.counter("x").add(3);
        assert_eq!(r.counter_value("x{module=0,pipeline=p0}"), 2);
        assert_eq!(r.counter_value("x{module=1,pipeline=p0}"), 3);
        assert_eq!(r.counter_value("x{pipeline=p0}"), 5);
        assert_eq!(r.counter_value("x"), 5);
        // The single-label sum sees only the pipeline level.
        assert_eq!(scoped_counter_sum(&r.snapshot(), "x", "pipeline"), 5);
    }

    #[test]
    fn scoped_histograms_aggregate_samples() {
        let r = Registry::new();
        let a = r.scoped(&[("lane", "a")]);
        let b = r.scoped(&[("lane", "b")]);
        for v in [10u64, 20, 30] {
            a.histogram("lat").record(v);
        }
        b.histogram("lat").record(1000);
        let global = r.histogram("lat").snapshot();
        assert_eq!(global.count, 4);
        assert_eq!(global.sum, 1060);
        let a_snap = r.histogram("lat{lane=a}").snapshot();
        assert_eq!(a_snap.count, 3);
        assert_eq!(a_snap.max, 30);
    }

    #[test]
    fn gauge_writes_through_scopes() {
        let r = Registry::new();
        let s = r.scoped(&[("dev", "c2070")]);
        s.gauge("occ").set(0.5);
        assert_eq!(r.gauge("occ").get(), 0.5);
        assert_eq!(r.gauge("occ{dev=c2070}").get(), 0.5);
    }

    #[test]
    fn labels_sort_dedup_and_sanitize() {
        let r = Registry::new();
        let s = r.scoped(&[("b", "2"), ("a", "1")]);
        assert_eq!(scoped_name("m", s.labels()), "m{a=1,b=2}");
        let s2 = s.scoped(&[("a", "overridden")]);
        assert_eq!(scoped_name("m", s2.labels()), "m{a=overridden,b=2}");
        let hostile = r.scoped(&[("k=y", "v{1,2}")]);
        assert_eq!(scoped_name("m", hostile.labels()), "m{k_y=v_1_2_}");
    }

    #[test]
    fn scoped_name_parses_back() {
        let full = scoped_name(
            "gpu_pf.iterations",
            &[
                ("module".to_string(), "3".to_string()),
                ("pipeline".to_string(), "p0".to_string()),
            ],
        );
        let (base, labels) = parse_scoped_name(&full);
        assert_eq!(base, "gpu_pf.iterations");
        assert_eq!(labels, vec![("module", "3"), ("pipeline", "p0")]);
        assert_eq!(parse_scoped_name("plain"), ("plain", vec![]));
    }
}
