//! Renderers: a kernel profile as human-readable text or Prometheus
//! exposition (JSON-lines is [`KernelProfile::to_jsonl`]), a span list
//! or a metrics snapshot as text, and the exposition's schema check.

use crate::metrics::MetricsSnapshot;
use crate::profile::KernelProfile;
use crate::span::SpanRecord;
use std::fmt::Write as _;

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

/// One line per span, indented by depth, sorted by thread then start
/// time — children follow their parents because a child starts no
/// earlier.
pub fn spans_to_text(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.thread, s.start_ns, s.id));
    let mut out = String::new();
    for s in ordered {
        let _ = write!(
            out,
            "{:indent$}{} {}",
            "",
            s.name,
            fmt_ns(s.dur_ns),
            indent = 2 * s.depth as usize
        );
        for (k, v) in &s.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Counters, gauges and histogram summaries, one metric per line.
pub fn metrics_to_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snapshot.gauges {
            let _ = writeln!(out, "  {name} = {v:.4}");
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name}: n={} mean={:.1} min={} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max
            );
        }
    }
    out
}

impl KernelProfile {
    /// Human-readable report: identity, compiles with their phases, the
    /// cache and exec counters, diagnostics, and the span tree.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel profile: {} (device {}, variant {})",
            self.kernel, self.device, self.variant
        );
        if !self.defines.is_empty() {
            let defs: Vec<String> = self
                .defines
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(out, "  defines: {}", defs.join(" "));
        }
        for c in &self.compiles {
            let _ = writeln!(
                out,
                "  compile {}: {}µs{}",
                c.module,
                c.total_us,
                if c.cached { " (cached)" } else { "" }
            );
            for (phase, us) in &c.phases {
                let _ = writeln!(out, "    {phase:<10} {us}µs");
            }
        }
        let [hits, misses, dedup_waits, evictions, ..] = self.cache_rows().map(|(_, v)| v);
        let _ = writeln!(
            out,
            "  cache: {hits} hits / {misses} misses ({:.1}% hit rate), {dedup_waits} dedup waits, \
             {evictions} evictions",
            100.0 * self.hit_rate(),
        );
        let [launches, dyn_insts, bytes, divergent, barriers, sim_us] =
            self.exec_rows().map(|(_, v)| v);
        let _ = writeln!(
            out,
            "  exec: {launches} launches, {dyn_insts} dyn insts, {bytes} global bytes, \
             {divergent} divergent branches, {barriers} barriers, {sim_us}µs sim time, \
             occupancy {:.2}",
            self.occupancy()
        );
        let [checks, diffs, inconclusive, fallbacks] = self.verify_rows().map(|(_, v)| v);
        let _ = writeln!(
            out,
            "  verify: {checks} checks, {diffs} diffs, {inconclusive} inconclusive, \
             {fallbacks} block fallbacks",
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  diagnostic: {d}");
        }
        if !self.spans.is_empty() {
            out.push_str("  spans:\n");
            for line in spans_to_text(&self.spans).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }

    /// Prometheus text exposition of the cache and exec counters and the
    /// occupancy gauge, each sample labeled with the kernel identity.
    pub fn to_prometheus(&self) -> String {
        let quote = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"");
        let labels = format!(
            "{{kernel=\"{}\",variant=\"{}\",device=\"{}\"}}",
            quote(&self.kernel),
            quote(&self.variant),
            quote(&self.device)
        );
        let mut out = String::new();
        let cache = self.cache_rows();
        let cache = cache[..4]
            .iter()
            .map(|(k, v)| (format!("ks_core_cache_{k}"), *v));
        let exec = self
            .exec_rows()
            .map(|(k, v)| (format!("ks_sim_{}", k.trim_start_matches("sim_")), v));
        for (name, v) in cache.chain(exec) {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{labels} {v}");
        }
        let _ = writeln!(out, "# TYPE ks_sim_occupancy gauge");
        let _ = writeln!(out, "ks_sim_occupancy{labels} {}", self.occupancy());
        out
    }
}

/// Schema check for Prometheus text exposition: every sample line must
/// be `name[{k="v",...}] value` with a legal metric name, quoted label
/// values, and a numeric value; every sample must belong to a family
/// announced by a preceding `# TYPE` line (summaries own their `_sum` /
/// `_count` series). Returns the first offending line on failure.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut families: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("prometheus line {}: {msg}: {line}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return err("malformed TYPE");
            };
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram") {
                return err("unknown metric kind");
            }
            families.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(line.len());
        if name_end == 0 || line.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return err("bad metric name");
        }
        let name = &line[..name_end];
        let rest = &line[name_end..];
        let value = if let Some(rest) = rest.strip_prefix('{') {
            let Some(close) = rest.find('}') else {
                return err("unterminated label set");
            };
            for pair in rest[..close].split(',') {
                let Some((_k, v)) = pair.split_once('=') else {
                    return err("label without '='");
                };
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return err("unquoted label value");
                }
            }
            rest[close + 1..].trim()
        } else {
            rest.trim()
        };
        if value.parse::<f64>().is_err() {
            return err("non-numeric sample value");
        }
        let family = families.get(name).map(String::as_str).or_else(|| {
            name.strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .and_then(|base| families.get(base).map(String::as_str))
                .filter(|kind| matches!(*kind, "summary" | "histogram"))
        });
        if family.is_none() {
            return err("sample without a preceding # TYPE");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::profile::CompileProfile;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "parse".to_string(),
                depth: 1,
                start_ns: 100,
                dur_ns: 400,
                thread: 0,
                fields: vec![("module".to_string(), "m".to_string())],
            },
            SpanRecord {
                id: 1,
                parent: None,
                name: "compile".to_string(),
                depth: 0,
                start_ns: 0,
                dur_ns: 1_000,
                thread: 0,
                fields: vec![],
            },
        ]
    }

    #[test]
    fn text_spans_indent_by_depth() {
        let text = spans_to_text(&sample_spans());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("compile "), "{text}");
        assert!(lines[1].starts_with("  parse "), "{text}");
        assert!(lines[1].contains("module=m"), "{text}");
    }

    #[test]
    fn metric_exports_cover_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(0.5);
        r.histogram("h").record(9);
        let text = metrics_to_text(&r.snapshot());
        assert!(text.contains("c = 7"), "{text}");
        assert!(text.contains("g = 0.5000"), "{text}");
        assert!(text.contains("h: n=1"), "{text}");
    }

    #[test]
    fn format_parsing_and_dispatch() {
        let p = KernelProfile {
            kernel: "k".to_string(),
            device: "c2070".to_string(),
            variant: "v".to_string(),
            compiles: vec![CompileProfile {
                module: "m".to_string(),
                cached: false,
                total_us: 10,
                phases: vec![("parse".to_string(), 10)],
            }],
            sim_time_us: 0,
            ..Default::default()
        };
        for rendered in [p.to_text(), p.to_jsonl(), p.to_prometheus()] {
            assert!(rendered.contains("c2070"), "{rendered}");
        }
    }

    #[test]
    fn prometheus_validator_rejects_schema_violations() {
        validate_prometheus("# TYPE m counter\nm 1\nm{k=\"v\"} 2\n").unwrap();
        validate_prometheus("# TYPE h summary\nh{quantile=\"0.5\"} 1\nh_sum 1\nh_count 1\n")
            .unwrap();
        assert!(validate_prometheus("orphan 1\n").is_err());
        assert!(validate_prometheus("# TYPE m counter\nm notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE m counter\nm{k=unquoted} 1\n").is_err());
        assert!(validate_prometheus("# TYPE m widget\nm 1\n").is_err());
        assert!(validate_prometheus("# TYPE c counter\nc_sum 1\n").is_err());
    }

    #[test]
    fn prometheus_profile_exposes_labeled_counters() {
        let p = KernelProfile {
            kernel: "template_match".to_string(),
            device: "c2070".to_string(),
            variant: "v1".to_string(),
            ..Default::default()
        };
        let out = p.to_prometheus();
        assert!(
            out.contains(
                "ks_core_cache_hits{kernel=\"template_match\",variant=\"v1\",device=\"c2070\"} 0"
            ),
            "{out}"
        );
        validate_prometheus(&out).unwrap();
    }
}
