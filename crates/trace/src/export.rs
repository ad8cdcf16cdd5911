//! Pluggable renderers for spans, metric snapshots, and kernel
//! profiles: human-readable text, JSON-lines, and CSV.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::profile::{span_to_json, KernelProfile};
use crate::scope::parse_scoped_name;
use crate::span::SpanRecord;
use std::fmt::Write as _;

/// Output format selector, e.g. for a `--export` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    Text,
    Jsonl,
    Csv,
    /// Collapsed-stack ("folded") lines for flamegraph tooling.
    Flame,
    /// Chrome `trace_event` JSON, loadable in `chrome://tracing` /
    /// Perfetto.
    Chrome,
    /// Prometheus text exposition (metrics only; spans are out of
    /// model and render as comments).
    Prom,
}

impl ExportFormat {
    pub fn parse(s: &str) -> Option<ExportFormat> {
        match s {
            "text" => Some(ExportFormat::Text),
            "jsonl" | "json" => Some(ExportFormat::Jsonl),
            "csv" => Some(ExportFormat::Csv),
            "flame" | "folded" => Some(ExportFormat::Flame),
            "chrome" | "trace_event" => Some(ExportFormat::Chrome),
            "prom" | "prometheus" => Some(ExportFormat::Prom),
            _ => None,
        }
    }

    pub fn exporter(self) -> Box<dyn Exporter> {
        match self {
            ExportFormat::Text => Box::new(TextExporter),
            ExportFormat::Jsonl => Box::new(JsonlExporter),
            ExportFormat::Csv => Box::new(CsvExporter),
            ExportFormat::Flame => Box::new(FlamegraphExporter),
            ExportFormat::Chrome => Box::new(ChromeTraceExporter),
            ExportFormat::Prom => Box::new(PrometheusExporter),
        }
    }
}

/// Renders observability data to a string in one format.
pub trait Exporter {
    fn spans(&self, spans: &[SpanRecord]) -> String;
    fn metrics(&self, snapshot: &MetricsSnapshot) -> String;
    fn profile(&self, profile: &KernelProfile) -> String;
}

/// Spans sorted for display: by thread, then start time — children
/// follow their parents because a child starts no earlier.
fn display_order(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.thread, s.start_ns, s.id));
    ordered
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

/// Human-readable indented renderer.
pub struct TextExporter;

impl Exporter for TextExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        let mut out = String::new();
        for s in display_order(spans) {
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

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
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

    fn profile(&self, p: &KernelProfile) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel profile: {} (device {}, variant {})",
            p.kernel, p.device, p.variant
        );
        if !p.defines.is_empty() {
            let defs: Vec<String> = p.defines.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "  defines: {}", defs.join(" "));
        }
        for c in &p.compiles {
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
        let [hits, misses, dedup_waits, evictions, ..] = p.cache_rows().map(|(_, v)| v);
        let _ = writeln!(
            out,
            "  cache: {hits} hits / {misses} misses ({:.1}% hit rate), {dedup_waits} dedup waits, \
             {evictions} evictions",
            100.0 * p.hit_rate(),
        );
        let [launches, dyn_insts, bytes, divergent, barriers, sim_us] =
            p.exec_rows().map(|(_, v)| v);
        let _ = writeln!(
            out,
            "  exec: {launches} launches, {dyn_insts} dyn insts, {bytes} global bytes, \
             {divergent} divergent branches, {barriers} barriers, {sim_us}µs sim time, \
             occupancy {:.2}",
            p.occupancy()
        );
        for d in &p.diagnostics {
            let _ = writeln!(out, "  diagnostic: {d}");
        }
        if !p.spans.is_empty() {
            out.push_str("  spans:\n");
            for line in self.spans(&p.spans).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// One JSON object per line; profiles use the
/// [`KernelProfile::to_jsonl`] schema checked by
/// [`crate::validate_profile_jsonl`].
pub struct JsonlExporter;

impl Exporter for JsonlExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        let mut out = String::new();
        for s in display_order(spans) {
            out.push_str(&span_to_json(s).render());
            out.push('\n');
        }
        out
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
        let mut out = String::new();
        for (name, v) in &snapshot.counters {
            let line = Json::obj(vec![
                ("type", Json::str("counter")),
                ("name", Json::str(name)),
                ("value", Json::u64(*v)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, v) in &snapshot.gauges {
            let line = Json::obj(vec![
                ("type", Json::str("gauge")),
                ("name", Json::str(name)),
                ("value", Json::num(*v)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, h) in &snapshot.histograms {
            let line = Json::obj(vec![
                ("type", Json::str("histogram")),
                ("name", Json::str(name)),
                ("count", Json::u64(h.count)),
                ("sum", Json::u64(h.sum)),
                ("min", Json::u64(h.min)),
                ("max", Json::u64(h.max)),
                ("p50", Json::u64(h.p50)),
                ("p95", Json::u64(h.p95)),
                ("p99", Json::u64(h.p99)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    fn profile(&self, p: &KernelProfile) -> String {
        p.to_jsonl()
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Flat comma-separated renderer (header row + data rows).
pub struct CsvExporter;

impl Exporter for CsvExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        let mut out = String::from("id,parent,name,depth,start_ns,dur_ns,thread\n");
        for s in display_order(spans) {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id,
                parent,
                csv_field(&s.name),
                s.depth,
                s.start_ns,
                s.dur_ns,
                s.thread
            );
        }
        out
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "counter,{},value,{v}", csv_field(name));
        }
        for (name, v) in &snapshot.gauges {
            let _ = writeln!(out, "gauge,{},value,{v}", csv_field(name));
        }
        for (name, h) in &snapshot.histograms {
            let name = csv_field(name);
            for (field, v) in [
                ("count", h.count),
                ("sum", h.sum),
                ("min", h.min),
                ("max", h.max),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                let _ = writeln!(out, "histogram,{name},{field},{v}");
            }
        }
        out
    }

    fn profile(&self, p: &KernelProfile) -> String {
        let mut out = String::from("section,key,value\n");
        let _ = writeln!(out, "profile,kernel,{}", csv_field(&p.kernel));
        let _ = writeln!(out, "profile,device,{}", csv_field(&p.device));
        let _ = writeln!(out, "profile,variant,{}", csv_field(&p.variant));
        for (k, v) in &p.defines {
            let _ = writeln!(out, "define,{},{}", csv_field(k), csv_field(v));
        }
        for c in &p.compiles {
            let section = csv_field(&format!("compile.{}", c.module));
            let _ = writeln!(out, "{section},cached,{}", c.cached);
            let _ = writeln!(out, "{section},total_us,{}", c.total_us);
            for (phase, us) in &c.phases {
                let _ = writeln!(out, "{section},{},{us}", csv_field(phase));
            }
        }
        // The resilience counters are JSONL-only.
        for (k, v) in &p.cache_rows()[..4] {
            let _ = writeln!(out, "cache,{k},{v}");
        }
        let _ = writeln!(out, "cache,hit_rate,{:.4}", p.hit_rate());
        for (k, v) in p.exec_rows() {
            let _ = writeln!(out, "exec,{k},{v}");
        }
        let _ = writeln!(out, "exec,occupancy,{:.4}", p.occupancy());
        out
    }
}

/// Collapsed-stack ("folded") renderer: one `root;child;leaf value`
/// line per distinct stack, the input format of flamegraph tooling.
/// Span values are *self* nanoseconds (duration minus the duration of
/// child spans), so the rendered graph's widths sum correctly.
pub struct FlamegraphExporter;

impl FlamegraphExporter {
    /// The `a;b;c` stack string for one span: parent-chain names,
    /// root-first. A missing parent id (span drained separately) makes
    /// the span a root.
    fn stack(by_id: &std::collections::HashMap<u64, &SpanRecord>, s: &SpanRecord) -> String {
        let mut names = vec![s.name.as_str()];
        let mut cur = s;
        while let Some(p) = cur.parent.and_then(|id| by_id.get(&id)) {
            names.push(p.name.as_str());
            cur = p;
        }
        names.reverse();
        // The folded format separates frames with ';'; scrub it from
        // names so a hostile span name can't forge frames.
        names
            .iter()
            .map(|n| n.replace(';', ":"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

impl Exporter for FlamegraphExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        let by_id: std::collections::HashMap<u64, &SpanRecord> =
            spans.iter().map(|s| (s.id, s)).collect();
        // Self time = duration minus direct children's durations.
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.dur_ns;
            }
        }
        // Aggregate identical stacks (e.g. the same pass across many
        // compiles) into one line, as folded-format consumers expect.
        let mut folded: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for s in spans {
            let self_ns = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *folded.entry(Self::stack(&by_id, s)).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (stack, ns) in folded {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
        // Counters fold naturally: dotted names become frame stacks
        // (`ks_core.cache.hits` → `ks_core;cache;hits`), values are the
        // counts — a flamegraph of where events happen.
        let mut out = String::new();
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "{} {v}", name.replace('.', ";"));
        }
        out
    }

    fn profile(&self, p: &KernelProfile) -> String {
        self.spans(&p.spans)
    }
}

/// Chrome `trace_event` renderer: a `{"traceEvents": [...]}` document of
/// complete (`ph:"X"`) events with microsecond timestamps, loadable in
/// `chrome://tracing` and Perfetto. Span fields ride along as `args`.
pub struct ChromeTraceExporter;

impl ChromeTraceExporter {
    fn span_event(s: &SpanRecord) -> Json {
        let args = Json::Obj(
            s.fields
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect(),
        );
        Json::obj(vec![
            ("name", Json::str(s.name.clone())),
            ("cat", Json::str("span")),
            ("ph", Json::str("X")),
            ("ts", Json::num(s.start_ns as f64 / 1e3)),
            ("dur", Json::num(s.dur_ns as f64 / 1e3)),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(s.thread)),
            ("args", args),
        ])
    }

    fn document(events: Vec<Json>) -> String {
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

impl Exporter for ChromeTraceExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        let events = display_order(spans)
            .into_iter()
            .map(Self::span_event)
            .collect();
        Self::document(events)
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
        // Counter (`ph:"C"`) events at t=0: a one-shot value dump rather
        // than a time series, which is all a snapshot holds.
        let mut events = Vec::new();
        for (name, v) in &snapshot.counters {
            events.push(Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("ph", Json::str("C")),
                ("ts", Json::u64(0)),
                ("pid", Json::u64(1)),
                ("args", Json::obj(vec![("value", Json::u64(*v))])),
            ]));
        }
        for (name, g) in &snapshot.gauges {
            events.push(Json::obj(vec![
                ("name", Json::str(name.clone())),
                ("ph", Json::str("C")),
                ("ts", Json::u64(0)),
                ("pid", Json::u64(1)),
                ("args", Json::obj(vec![("value", Json::num(*g))])),
            ]));
        }
        Self::document(events)
    }

    fn profile(&self, p: &KernelProfile) -> String {
        // Label the process with the kernel identity, then the span tree.
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(1)),
            (
                "args",
                Json::obj(vec![(
                    "name",
                    Json::str(format!("{} [{}] {}", p.kernel, p.variant, p.device)),
                )]),
            ),
        ])];
        events.extend(display_order(&p.spans).into_iter().map(Self::span_event));
        Self::document(events)
    }
}

/// Prometheus text exposition renderer. Registry names are dotted
/// (`ks_core.cache.hits`, scoped as `name{k=v}`); exposition names
/// replace every character outside `[a-zA-Z0-9_:]` with `_` and carry
/// the scope labels as Prometheus labels. Histograms render as
/// summaries (p50/p95/p99 quantile samples plus `_sum`/`_count`).
pub struct PrometheusExporter;

fn prom_name(base: &str) -> String {
    let mut out: String = base
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prom_label_set(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{}=\"{}\"",
                prom_name(k),
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// One labeled sample row within a family: `(labels, value)`.
type PromRows<'a, V> = Vec<(Vec<(&'a str, &'a str)>, &'a V)>;

/// Group a metric map's keys into exposition families:
/// `prom_base -> [(labels, key)]`, so each family gets one `# TYPE`
/// line followed by all its labeled samples.
fn prom_families<V>(
    metrics: &std::collections::BTreeMap<String, V>,
) -> std::collections::BTreeMap<String, PromRows<'_, V>> {
    let mut families: std::collections::BTreeMap<String, PromRows<'_, V>> =
        std::collections::BTreeMap::new();
    for (name, v) in metrics {
        let (base, labels) = parse_scoped_name(name);
        families
            .entry(prom_name(base))
            .or_default()
            .push((labels, v));
    }
    families
}

impl Exporter for PrometheusExporter {
    fn spans(&self, spans: &[SpanRecord]) -> String {
        format!(
            "# prometheus exposition carries metrics only ({} spans omitted)\n",
            spans.len()
        )
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) -> String {
        let mut out = String::new();
        for (family, rows) in prom_families(&snapshot.counters) {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (labels, v) in rows {
                let _ = writeln!(out, "{family}{} {v}", prom_label_set(&labels, None));
            }
        }
        for (family, rows) in prom_families(&snapshot.gauges) {
            let _ = writeln!(out, "# TYPE {family} gauge");
            for (labels, v) in rows {
                let _ = writeln!(out, "{family}{} {v}", prom_label_set(&labels, None));
            }
        }
        for (family, rows) in prom_families(&snapshot.histograms) {
            let _ = writeln!(out, "# TYPE {family} summary");
            for (labels, h) in rows {
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    let _ = writeln!(
                        out,
                        "{family}{} {v}",
                        prom_label_set(&labels, Some(("quantile", q)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{family}_sum{} {}",
                    prom_label_set(&labels, None),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{family}_count{} {}",
                    prom_label_set(&labels, None),
                    h.count
                );
            }
        }
        out
    }

    fn profile(&self, p: &KernelProfile) -> String {
        // A profile is a join over one kernel; expose its counters with
        // the kernel identity as labels.
        let labels: Vec<(&str, &str)> = vec![
            ("kernel", &p.kernel),
            ("variant", &p.variant),
            ("device", &p.device),
        ];
        let mut out = String::new();
        let cache = p.cache_rows();
        let cache = cache[..4]
            .iter()
            .map(|(k, v)| (format!("ks_core_cache_{k}"), *v));
        let exec = p
            .exec_rows()
            .map(|(k, v)| (format!("ks_sim_{}", k.trim_start_matches("sim_")), v));
        for (name, v) in cache.chain(exec) {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{} {v}", prom_label_set(&labels, None));
        }
        let _ = writeln!(out, "# TYPE ks_sim_occupancy gauge");
        let _ = writeln!(
            out,
            "ks_sim_occupancy{} {}",
            prom_label_set(&labels, None),
            p.occupancy()
        );
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
        let text = TextExporter.spans(&sample_spans());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("compile "), "{text}");
        assert!(lines[1].starts_with("  parse "), "{text}");
        assert!(lines[1].contains("module=m"), "{text}");
    }

    #[test]
    fn jsonl_spans_parse_back() {
        let out = JsonlExporter.spans(&sample_spans());
        for line in out.lines() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("type").and_then(Json::as_str), Some("span"));
            assert!(doc.get("dur_ns").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn csv_spans_have_header_and_rows() {
        let out = CsvExporter.spans(&sample_spans());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "id,parent,name,depth,start_ns,dur_ns,thread");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("1,,compile,0,"), "{out}");
        assert!(lines[2].starts_with("2,1,parse,1,"), "{out}");
    }

    #[test]
    fn metric_exports_cover_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(0.5);
        r.histogram("h").record(9);
        let snap = r.snapshot();
        let text = TextExporter.metrics(&snap);
        assert!(text.contains("c = 7"), "{text}");
        assert!(text.contains("g = 0.5000"), "{text}");
        assert!(text.contains("h: n=1"), "{text}");
        let jsonl = JsonlExporter.metrics(&snap);
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            Json::parse(line).unwrap();
        }
        let csv = CsvExporter.metrics(&snap);
        assert!(csv.contains("counter,c,value,7"), "{csv}");
        assert!(csv.contains("histogram,h,p50,9"), "{csv}");
    }

    #[test]
    fn format_parsing_and_dispatch() {
        assert_eq!(ExportFormat::parse("text"), Some(ExportFormat::Text));
        assert_eq!(ExportFormat::parse("jsonl"), Some(ExportFormat::Jsonl));
        assert_eq!(ExportFormat::parse("json"), Some(ExportFormat::Jsonl));
        assert_eq!(ExportFormat::parse("csv"), Some(ExportFormat::Csv));
        assert_eq!(ExportFormat::parse("xml"), None);
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
        for fmt in [ExportFormat::Text, ExportFormat::Jsonl, ExportFormat::Csv] {
            let rendered = fmt.exporter().profile(&p);
            assert!(rendered.contains("c2070"), "{fmt:?}: {rendered}");
        }
    }

    #[test]
    fn flamegraph_folds_stacks_with_self_time() {
        let out = FlamegraphExporter.spans(&sample_spans());
        let lines: Vec<&str> = out.lines().collect();
        // BTreeMap order: "compile" before "compile;parse".
        assert_eq!(lines, vec!["compile 600", "compile;parse 400"], "{out}");
        // Identical stacks aggregate.
        let mut spans = sample_spans();
        let mut again = sample_spans();
        for s in &mut again {
            s.id += 10;
            s.parent = s.parent.map(|p| p + 10);
        }
        spans.extend(again);
        let out = FlamegraphExporter.spans(&spans);
        assert_eq!(
            out.lines().collect::<Vec<_>>(),
            vec!["compile 1200", "compile;parse 800"],
            "{out}"
        );
    }

    #[test]
    fn flamegraph_metrics_fold_counter_names() {
        let r = Registry::new();
        r.counter("ks_core.cache.hits").add(3);
        let out = FlamegraphExporter.metrics(&r.snapshot());
        assert_eq!(out, "ks_core;cache;hits 3\n");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let out = ChromeTraceExporter.spans(&sample_spans());
        let doc = Json::parse(&out).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        // display_order puts the parent (start 0) first.
        let first = &events[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("compile"));
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(first.get("dur").and_then(Json::as_f64), Some(1.0));
        let second = &events[1];
        assert_eq!(second.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(
            second
                .get("args")
                .and_then(|a| a.get("module"))
                .and_then(Json::as_str),
            Some("m")
        );
    }

    #[test]
    fn chrome_metrics_render_counter_events() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(0.25);
        let out = ChromeTraceExporter.metrics(&r.snapshot());
        let doc = Json::parse(&out).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
    }

    #[test]
    fn new_formats_parse_and_dispatch() {
        assert_eq!(ExportFormat::parse("flame"), Some(ExportFormat::Flame));
        assert_eq!(ExportFormat::parse("folded"), Some(ExportFormat::Flame));
        assert_eq!(ExportFormat::parse("chrome"), Some(ExportFormat::Chrome));
        assert_eq!(
            ExportFormat::parse("trace_event"),
            Some(ExportFormat::Chrome)
        );
        let spans = sample_spans();
        assert!(ExportFormat::Flame
            .exporter()
            .spans(&spans)
            .contains("compile;parse"));
        assert!(ExportFormat::Chrome
            .exporter()
            .spans(&spans)
            .contains("traceEvents"));
    }

    #[test]
    fn csv_quoting_escapes_commas_and_quotes() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn prometheus_renders_scoped_metrics_with_labels() {
        let r = Registry::new();
        r.counter("ks_core.cache.hits").add(3);
        r.scoped(&[("pipeline", "p0")])
            .counter("gpu_pf.iterations")
            .add(5);
        r.scoped(&[("pipeline", "p0")])
            .histogram("gpu_pf.iteration_us")
            .record(40);
        let out = PrometheusExporter.metrics(&r.snapshot());
        assert!(out.contains("# TYPE ks_core_cache_hits counter"), "{out}");
        assert!(out.contains("ks_core_cache_hits 3"), "{out}");
        // The scoped cell and its global roll-up share one family.
        assert!(
            out.contains("gpu_pf_iterations{pipeline=\"p0\"} 5"),
            "{out}"
        );
        assert!(out.contains("gpu_pf_iterations 5"), "{out}");
        assert_eq!(out.matches("# TYPE gpu_pf_iterations counter").count(), 1);
        assert!(
            out.contains("gpu_pf_iteration_us{pipeline=\"p0\",quantile=\"0.95\"}"),
            "{out}"
        );
        assert!(
            out.contains("gpu_pf_iteration_us_count{pipeline=\"p0\"} 1"),
            "{out}"
        );
        validate_prometheus(&out).unwrap();
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
        let out = PrometheusExporter.profile(&p);
        assert!(
            out.contains(
                "ks_core_cache_hits{kernel=\"template_match\",variant=\"v1\",device=\"c2070\"} 0"
            ),
            "{out}"
        );
        validate_prometheus(&out).unwrap();
        assert_eq!(ExportFormat::parse("prom"), Some(ExportFormat::Prom));
        assert_eq!(ExportFormat::parse("prometheus"), Some(ExportFormat::Prom));
        assert!(ExportFormat::Prom.exporter().spans(&[]).starts_with('#'));
    }
}
