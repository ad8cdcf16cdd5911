//! `KernelProfile`: the joined observability report for one
//! specialized kernel, plus schema validation for its JSON-lines
//! export.
//!
//! A profile stitches together what the subsystems each know about a
//! single kernel specialization: per-phase compile timing (ks-core's
//! `CompileMetrics`), analysis diagnostics, the raw span tree, and a
//! registry snapshot. Cache behaviour and simulated execution counters
//! are not copied in: every export reads them from that snapshot, the
//! cells ks-core and ks-sim publish into.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::names;
use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// One module compilation's phase breakdown (all times in µs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileProfile {
    /// Module / kernel-source name.
    pub module: String,
    /// True when this request was served from the binary cache.
    pub cached: bool,
    /// End-to-end compile latency.
    pub total_us: u64,
    /// Ordered `(phase, µs)` pairs: preproc, parse, sema, lower, opt,
    /// analysis, regalloc.
    pub phases: Vec<(String, u64)>,
}

/// The full observability report for one specialized kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    pub kernel: String,
    pub device: String,
    pub variant: String,
    /// The specialization `-D` defines, name-sorted.
    pub defines: Vec<(String, String)>,
    pub compiles: Vec<CompileProfile>,
    /// Total simulated kernel time of the profiled run, µs (the run's own
    /// sum; the registry's `ks_sim.time_us` truncates per launch).
    pub sim_time_us: u64,
    /// Analysis diagnostics (empty for a clean kernel).
    pub diagnostics: Vec<String>,
    /// Span tree captured while profiling (empty if tracing was off).
    pub spans: Vec<SpanRecord>,
    /// Registry snapshot at capture time — where the cache and execution
    /// sections of every export come from.
    pub metrics: MetricsSnapshot,
}

impl KernelProfile {
    /// Binary-cache counters as `(export key, value)`, in export order.
    pub fn cache_rows(&self) -> [(&'static str, u64); 8] {
        [
            ("hits", names::CACHE_HITS),
            ("misses", names::CACHE_MISSES),
            ("dedup_waits", names::CACHE_DEDUP_WAITS),
            ("evictions", names::CACHE_EVICTIONS),
            ("failures", names::CACHE_FAILURES),
            ("quarantined", names::CACHE_QUARANTINED),
            ("retries", names::COMPILE_RETRIES),
            ("breaker_opens", names::BREAKER_OPEN),
        ]
        .map(|(key, name)| (key, self.metrics.counter(name)))
    }

    /// Share of successful compile requests served without compiling.
    pub(crate) fn hit_rate(&self) -> f64 {
        let [(_, hits), (_, misses), ..] = self.cache_rows();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Simulator execution counters as `(export key, value)`, in export
    /// order.
    pub fn exec_rows(&self) -> [(&'static str, u64); 6] {
        let counter = |name| self.metrics.counter(name);
        [
            ("launches", counter(names::SIM_LAUNCHES)),
            ("dyn_insts", counter(names::SIM_DYN_INSTS)),
            ("global_bytes", counter(names::SIM_GLOBAL_BYTES)),
            ("divergent_branches", counter(names::SIM_DIVERGENT_BRANCHES)),
            ("barriers", counter(names::SIM_BARRIERS)),
            ("sim_time_us", self.sim_time_us),
        ]
    }

    /// Translation-validation counters as `(export key, value)`, in
    /// export order.
    pub fn verify_rows(&self) -> [(&'static str, u64); 4] {
        [
            ("checks", names::VERIFY_CHECKS),
            ("diffs", names::VERIFY_DIFFS),
            ("inconclusive", names::VERIFY_INCONCLUSIVE),
            ("block_fallbacks", names::VERIFY_BLOCK_FALLBACKS),
        ]
        .map(|(key, name)| (key, self.metrics.counter(name)))
    }

    /// Occupancy of the last launch, `0..=1`.
    pub(crate) fn occupancy(&self) -> f64 {
        self.metrics
            .gauges
            .get(names::SIM_OCCUPANCY)
            .copied()
            .unwrap_or(0.0)
    }

    /// JSON-lines rendering: one `profile` header line, then one line
    /// per compile, the `cache` and `exec` counter lines, and one line
    /// per span. [`validate_profile_jsonl`] checks this schema.
    pub fn to_jsonl(&self) -> String {
        let mut lines = Vec::new();
        lines.push(
            Json::obj(vec![
                ("type", Json::str("profile")),
                ("kernel", Json::str(&self.kernel)),
                ("device", Json::str(&self.device)),
                ("variant", Json::str(&self.variant)),
                (
                    "defines",
                    Json::Obj(
                        self.defines
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::str(v)))
                            .collect(),
                    ),
                ),
                ("diagnostics", Json::u64(self.diagnostics.len() as u64)),
            ])
            .render(),
        );
        for c in &self.compiles {
            lines.push(
                Json::obj(vec![
                    ("type", Json::str("compile")),
                    ("module", Json::str(&c.module)),
                    ("cached", Json::Bool(c.cached)),
                    ("total_us", Json::u64(c.total_us)),
                    (
                        "phases",
                        Json::Obj(
                            c.phases
                                .iter()
                                .map(|(k, us)| (k.clone(), Json::u64(*us)))
                                .collect(),
                        ),
                    ),
                ])
                .render(),
            );
        }
        let section = |ty, rows: &[(&'static str, u64)], last| {
            let mut fields = vec![("type", Json::str(ty))];
            fields.extend(rows.iter().map(|&(k, v)| (k, Json::u64(v))));
            fields.push(last);
            Json::obj(fields).render()
        };
        lines.push(section(
            "cache",
            &self.cache_rows(),
            ("hit_rate", Json::num(self.hit_rate())),
        ));
        lines.push(section(
            "exec",
            &self.exec_rows(),
            ("occupancy", Json::num(self.occupancy())),
        ));
        for d in &self.diagnostics {
            lines.push(
                Json::obj(vec![
                    ("type", Json::str("diagnostic")),
                    ("message", Json::str(d)),
                ])
                .render(),
            );
        }
        for s in &self.spans {
            lines.push(span_to_json(s).render());
        }
        lines.join("\n") + "\n"
    }
}

fn span_to_json(s: &SpanRecord) -> Json {
    Json::obj(vec![
        ("type", Json::str("span")),
        ("id", Json::u64(s.id)),
        ("parent", s.parent.map_or(Json::Null, Json::u64)),
        ("name", Json::str(&s.name)),
        ("depth", Json::u64(s.depth as u64)),
        ("start_ns", Json::u64(s.start_ns)),
        ("dur_ns", Json::u64(s.dur_ns)),
        ("thread", Json::u64(s.thread)),
        (
            "fields",
            Json::Obj(
                s.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Slack allowed when checking span containment and phase coverage.
const NESTING_SLACK_NS: u64 = 1_000;

/// Validate a [`KernelProfile::to_jsonl`] document:
///
/// * every line parses as a JSON object with a known `type`;
/// * exactly one `profile` header with `kernel` and `device`;
/// * `cache` / `exec` lines present with all counter keys as
///   non-negative integers;
/// * every `span` line has non-negative integral timing, its `parent`
///   refers to an emitted span, `depth == parent.depth + 1`, and the
///   child's interval lies within its parent's (same-thread nesting);
/// * for each `compile` span with phase children, the children's
///   durations sum to no more than the compile span and cover it to
///   within `max(total/4, 1ms)` — the per-phase breakdown must
///   account for the total.
pub fn validate_profile_jsonl(text: &str) -> Result<(), String> {
    let mut profile_headers = 0usize;
    let mut cache_lines = 0usize;
    let mut exec_lines = 0usize;
    let mut spans: Vec<(u64, Option<u64>, String, u64, u64, u64)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing \"type\""))?;
        match ty {
            "profile" => {
                profile_headers += 1;
                for key in ["kernel", "device", "variant"] {
                    if doc.get(key).and_then(Json::as_str).is_none() {
                        return Err(format!("line {lineno}: profile missing \"{key}\""));
                    }
                }
            }
            "compile" => {
                let total = req_u64(&doc, "total_us", lineno)?;
                let phases = doc
                    .get("phases")
                    .ok_or_else(|| format!("line {lineno}: compile missing \"phases\""))?;
                let Json::Obj(fields) = phases else {
                    return Err(format!("line {lineno}: \"phases\" is not an object"));
                };
                let mut sum = 0u64;
                for (name, v) in fields {
                    sum += v
                        .as_u64()
                        .ok_or_else(|| format!("line {lineno}: phase \"{name}\" not a u64"))?;
                }
                let cached = matches!(doc.get("cached"), Some(Json::Bool(true)));
                if !cached && sum > total {
                    return Err(format!(
                        "line {lineno}: phase sum {sum}µs exceeds total {total}µs"
                    ));
                }
            }
            "cache" => {
                cache_lines += 1;
                let hits = req_u64(&doc, "hits", lineno)?;
                let misses = req_u64(&doc, "misses", lineno)?;
                req_u64(&doc, "dedup_waits", lineno)?;
                req_u64(&doc, "evictions", lineno)?;
                req_u64(&doc, "failures", lineno)?;
                req_u64(&doc, "quarantined", lineno)?;
                req_u64(&doc, "retries", lineno)?;
                req_u64(&doc, "breaker_opens", lineno)?;
                let rate = doc
                    .get("hit_rate")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {lineno}: cache missing \"hit_rate\""))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("line {lineno}: hit_rate {rate} out of [0,1]"));
                }
                if hits + misses > 0 {
                    let expect = hits as f64 / (hits + misses) as f64;
                    if (rate - expect).abs() > 1e-9 {
                        return Err(format!(
                            "line {lineno}: hit_rate {rate} != hits/(hits+misses) {expect}"
                        ));
                    }
                }
            }
            "exec" => {
                exec_lines += 1;
                for key in [
                    "launches",
                    "dyn_insts",
                    "global_bytes",
                    "divergent_branches",
                    "barriers",
                    "sim_time_us",
                ] {
                    req_u64(&doc, key, lineno)?;
                }
                let occ = doc
                    .get("occupancy")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("line {lineno}: exec missing \"occupancy\""))?;
                if !(0.0..=1.0).contains(&occ) {
                    return Err(format!("line {lineno}: occupancy {occ} out of [0,1]"));
                }
            }
            "diagnostic" => {
                if doc.get("message").and_then(Json::as_str).is_none() {
                    return Err(format!("line {lineno}: diagnostic missing \"message\""));
                }
            }
            "span" => {
                let id = req_u64(&doc, "id", lineno)?;
                let depth = req_u64(&doc, "depth", lineno)?;
                let start = req_u64(&doc, "start_ns", lineno)?;
                let dur = req_u64(&doc, "dur_ns", lineno)?;
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {lineno}: span missing \"name\""))?;
                let parent =
                    match doc.get("parent") {
                        Some(Json::Null) | None => None,
                        Some(p) => Some(p.as_u64().ok_or_else(|| {
                            format!("line {lineno}: span parent not a u64 or null")
                        })?),
                    };
                spans.push((id, parent, name.to_string(), depth, start, dur));
            }
            other => return Err(format!("line {lineno}: unknown type \"{other}\"")),
        }
    }

    if profile_headers != 1 {
        return Err(format!(
            "expected 1 profile header, found {profile_headers}"
        ));
    }
    if cache_lines != 1 || exec_lines != 1 {
        return Err(format!(
            "expected 1 cache and 1 exec line, found {cache_lines} and {exec_lines}"
        ));
    }

    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".to_string());
    }
    for (id, parent, name, depth, start, dur) in &spans {
        let Some(pid) = parent else {
            if *depth != 0 {
                return Err(format!("root span {id} (\"{name}\") has depth {depth}"));
            }
            continue;
        };
        let pi = by_id
            .get(pid)
            .ok_or_else(|| format!("span {id} (\"{name}\") parent {pid} not emitted"))?;
        let (_, _, pname, pdepth, pstart, pdur) = &spans[*pi];
        if *depth != pdepth + 1 {
            return Err(format!(
                "span {id} (\"{name}\") depth {depth} != parent \"{pname}\" depth {pdepth} + 1"
            ));
        }
        if *start + NESTING_SLACK_NS < *pstart || start + dur > pstart + pdur + NESTING_SLACK_NS {
            return Err(format!(
                "span {id} (\"{name}\") [{start}, {}] escapes parent \"{pname}\" [{pstart}, {}]",
                start + dur,
                pstart + pdur
            ));
        }
    }

    // Per-phase coverage: a compile span's direct children must
    // account for its duration.
    for (id, _, name, _, _, dur) in &spans {
        if name != "compile" {
            continue;
        }
        let child_sum: u64 = spans
            .iter()
            .filter(|(_, p, ..)| *p == Some(*id))
            .map(|(.., d)| *d)
            .sum();
        if child_sum == 0 {
            continue; // cache hit: no phase children
        }
        if child_sum > dur + NESTING_SLACK_NS {
            return Err(format!(
                "compile span {id}: children sum {child_sum}ns exceeds span {dur}ns"
            ));
        }
        let tolerance = (dur / 4).max(1_000_000);
        if dur.saturating_sub(child_sum) > tolerance {
            return Err(format!(
                "compile span {id}: phases cover {child_sum}ns of {dur}ns (unaccounted > {tolerance}ns)"
            ));
        }
    }

    Ok(())
}

fn req_u64(doc: &Json, key: &str, lineno: usize) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {lineno}: missing non-negative integer \"{key}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> KernelProfile {
        KernelProfile {
            kernel: "template_match".to_string(),
            device: "c2070".to_string(),
            variant: "specialized".to_string(),
            defines: vec![("TW".to_string(), "64".to_string())],
            compiles: vec![CompileProfile {
                module: "region0".to_string(),
                cached: false,
                total_us: 100,
                phases: vec![("parse".to_string(), 40), ("sema".to_string(), 50)],
            }],
            sim_time_us: 1234,
            diagnostics: vec![],
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "compile".to_string(),
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 100_000,
                    thread: 0,
                    fields: vec![],
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "parse".to_string(),
                    depth: 1,
                    start_ns: 10,
                    dur_ns: 99_000,
                    thread: 0,
                    fields: vec![("module".to_string(), "region0".to_string())],
                },
            ],
            metrics: MetricsSnapshot {
                counters: [
                    (names::CACHE_HITS, 3),
                    (names::CACHE_MISSES, 1),
                    (names::SIM_LAUNCHES, 1),
                    (names::SIM_DYN_INSTS, 1000),
                    (names::SIM_GLOBAL_BYTES, 4096),
                    (names::SIM_DIVERGENT_BRANCHES, 2),
                    (names::SIM_BARRIERS, 8),
                ]
                .map(|(k, v)| (k.to_string(), v))
                .into(),
                gauges: [(names::SIM_OCCUPANCY.to_string(), 0.75)].into(),
                ..MetricsSnapshot::default()
            },
        }
    }

    #[test]
    fn valid_profile_roundtrips() {
        let jsonl = sample_profile().to_jsonl();
        validate_profile_jsonl(&jsonl).unwrap();
    }

    #[test]
    fn rejects_orphan_span() {
        let mut p = sample_profile();
        p.spans[1].parent = Some(99);
        let err = validate_profile_jsonl(&p.to_jsonl()).unwrap_err();
        assert!(err.contains("parent 99 not emitted"), "{err}");
    }

    #[test]
    fn rejects_bad_depth() {
        let mut p = sample_profile();
        p.spans[1].depth = 3;
        let err = validate_profile_jsonl(&p.to_jsonl()).unwrap_err();
        assert!(err.contains("depth"), "{err}");
    }

    #[test]
    fn rejects_child_escaping_parent() {
        let mut p = sample_profile();
        p.spans[1].dur_ns = 10_000_000;
        let err = validate_profile_jsonl(&p.to_jsonl()).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn rejects_uncovered_compile_span() {
        let mut p = sample_profile();
        // Child covers 1% of a 10s compile span: unaccounted time blows
        // through max(total/4, 1ms).
        p.spans[0].dur_ns = 10_000_000_000;
        p.spans[1].dur_ns = 100_000_000;
        let err = validate_profile_jsonl(&p.to_jsonl()).unwrap_err();
        assert!(err.contains("phases cover"), "{err}");
    }

    #[test]
    fn rejects_missing_counter_keys() {
        let p = sample_profile();
        let jsonl = p
            .to_jsonl()
            .lines()
            .map(|l| {
                if l.contains("\"type\":\"cache\"") {
                    l.replace("\"dedup_waits\":0,", "")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = validate_profile_jsonl(&jsonl).unwrap_err();
        assert!(err.contains("dedup_waits"), "{err}");
    }

    #[test]
    fn rejects_phase_sum_over_total() {
        let mut p = sample_profile();
        p.compiles[0].phases.push(("opt".to_string(), 100));
        let err = validate_profile_jsonl(&p.to_jsonl()).unwrap_err();
        assert!(err.contains("exceeds total"), "{err}");
    }

    #[test]
    fn hit_rate_helpers() {
        let p = sample_profile();
        assert_eq!(p.cache_rows()[..2], [("hits", 3), ("misses", 1)]);
        assert!((p.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(KernelProfile::default().hit_rate(), 0.0);
        assert_eq!(p.exec_rows()[5], ("sim_time_us", 1234));
        assert_eq!(p.occupancy(), 0.75);
    }
}
