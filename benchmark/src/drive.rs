//! The compound modes. Each runs workloads as child processes of this
//! same binary (one process per workload run, as the load shape
//! requires) and reads the result line each child prints last.
//!
//! * `--check`: the benchmark's own test, at 1/20 size.
//! * `--aa N`: two interleaved sets of runs of the same binary, compared
//!   against the bounds in `BENCHMARK.json`.
//! * `--all`: every workload untraced, then traced; one merged JSON.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::NAMES;
use crate::{env, CHECK_SCALE};
use ks_trace::Json;
use std::path::Path;
use std::process::Command;

/// What a child printed: its `info` line and its result line.
struct Child {
    info: Json,
    result: Json,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn field(&self, name: &str) -> u64 {
        self.result.get(name).and_then(Json::as_u64).unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u32,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let parsed = |line: Option<&str>| {
        line.ok_or_else(|| format!("{workload}: no output"))
            .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: {e}: {l}")))
    };
    let result = parsed(stdout.lines().last())?;
    let info = parsed(stdout.lines().find(|l| l.starts_with("{\"info\"")))?;
    for line in stdout.lines().filter(|l| l.starts_with("failure:")) {
        println!("  {workload} seed {seed}: {line}");
    }
    Ok(Child { info, result })
}

/// `BENCHMARK.json` in the working directory.
fn manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text)
}

/// The manifest must list exactly the metrics and workloads this binary
/// reports, with the same units.
fn check_manifest(m: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let listed = |key: &str| -> Vec<(String, String)> {
        m.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                let s = |k| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String)> = table
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        if listed(key) != ours {
            problems.push(format!(
                "BENCHMARK.json `{key}` differs from the metric table"
            ));
        }
    }
    let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    if names != NAMES {
        problems.push(format!("BENCHMARK.json workloads {names:?} != {NAMES:?}"));
    }
    problems
}

/// `--check`: every workload at 1/20 size. Two runs of one seed must
/// agree on every exact metric (untraced and traced) with no failed
/// operation; a run of another seed must see different input bytes but
/// the same operation count.
pub fn check(seed: u64) -> Result<(), String> {
    let mut problems = manifest().map(|m| check_manifest(&m))?;
    let run = |w, seed, trace| child(w, seed, 0.0, trace, CHECK_SCALE);
    for w in NAMES {
        let mut pairs: Vec<(&'static [Metric], Child, Child)> = Vec::new();
        for (table, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
            pairs.push((table, run(w, seed, trace)?, run(w, seed, trace)?));
        }
        let other = run(w, seed + 1, false)?;
        let mut compared = 0;
        for (table, a, b) in &pairs {
            for c in [a, b] {
                if !c.correct() {
                    problems.push(format!("{w}: {} failed operations", c.field("failed")));
                }
            }
            if a.field("attempted") != b.field("attempted") {
                problems.push(format!(
                    "{w}: operation count differs between same-seed runs"
                ));
            }
            for m in table.iter().filter(|m| m.exact) {
                compared += 1;
                if a.metric(m.name) != b.metric(m.name) || a.metric(m.name).is_none() {
                    problems.push(format!(
                        "{w}: exact metric {} differs: {:?} vs {:?}",
                        m.name,
                        a.metric(m.name),
                        b.metric(m.name)
                    ));
                }
            }
        }
        let base = &pairs[0].1;
        if other.info.get("input_hash") == base.info.get("input_hash") {
            problems.push(format!("{w}: another seed produced the same input bytes"));
        }
        if other.field("attempted") != base.field("attempted") || !other.correct() {
            problems.push(format!(
                "{w}: another seed changed the operation count or failed"
            ));
        }
        println!(
            "check {w}: ops {} (seed {seed}) / {} (seed {}), {compared} exact metrics compared",
            base.field("attempted"),
            other.field("attempted"),
            seed + 1
        );
    }
    if problems.is_empty() {
        println!("check: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Bound and direction of each end-to-end metric, from the manifest.
fn bounds(m: &Json) -> Vec<(&'static Metric, f64, bool)> {
    let listed = m.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    END_TO_END
        .iter()
        .filter_map(|metric| {
            let e = listed
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(metric.name))?;
            let higher = e.get("better").and_then(Json::as_str) == Some("higher");
            Some((metric, e.get("bound")?.as_f64()?, higher))
        })
        .collect()
}

/// `--aa N`: sets A and B of `N` runs each, interleaved A1 B1 A2 B2 …,
/// run `i` of both sets on seed `seed + i`. Per end-to-end metric prints
/// both medians, how much worse B's is than A's, and each set's
/// quartile spread, beside the bound. Fails if a difference or a spread
/// (other than `setup_s`'s) exceeds its bound.
pub fn aa(n: usize, seed: u64, seconds: Option<f64>) -> Result<(), String> {
    let manifest = manifest()?;
    let seconds = seconds
        .or_else(|| manifest.get("run_seconds")?.as_f64())
        .ok_or("no --seconds and no run_seconds in BENCHMARK.json")?;
    let bounds = bounds(&manifest);
    let mut exceeded = Vec::new();
    for w in NAMES {
        let mut sets: [Vec<Child>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n as u64 {
            for set in &mut sets {
                set.push(child(w, seed + i, seconds, false, 1)?);
            }
        }
        println!("aa {w}: 2 x {n} runs of {seconds} s");
        println!(
            "  {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "worse%", "iqr A%", "iqr B%", "bound%"
        );
        for (metric, bound, higher) in &bounds {
            let stats: Vec<([f64; 3], f64)> = sets
                .iter()
                .map(|set| {
                    let v: Vec<f64> = set.iter().filter_map(|c| c.metric(metric.name)).collect();
                    let q = quartiles(&v);
                    (q, (q[2] - q[0]) / q[1])
                })
                .collect();
            let (a, b) = (stats[0].0[1], stats[1].0[1]);
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>8.2} {:>6.1}",
                metric.name,
                a,
                b,
                worse * 100.0,
                stats[0].1 * 100.0,
                stats[1].1 * 100.0,
                bound * 100.0
            );
            let spread = stats[0].1.max(stats[1].1);
            if worse > *bound || (metric.name != "setup_s" && spread > *bound) {
                exceeded.push(format!("{w} {}", metric.name));
            }
            if metric.exact
                && sets
                    .iter()
                    .flatten()
                    .any(|c| c.metric(metric.name) != Some(a))
            {
                exceeded.push(format!("{w} {} is not identical across runs", metric.name));
            }
        }
        if let Some(bad) = sets.iter().flatten().find(|c| !c.correct()) {
            exceeded.push(format!("{w}: {} failed operations", bad.field("failed")));
        }
    }
    if exceeded.is_empty() {
        println!("aa: every difference and spread within its bound");
        Ok(())
    } else {
        Err(format!("aa: out of bound: {}", exceeded.join(", ")))
    }
}

/// `--all`: each workload untraced (end-to-end numbers) and then traced
/// (per-layer numbers), merged into one JSON document at `out`.
pub fn all(seed: u64, seconds: Option<f64>, out: &Path) -> Result<(), String> {
    let seconds = match seconds {
        Some(s) => s,
        None => manifest()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds in BENCHMARK.json")?,
    };
    let mut workloads = Vec::new();
    let mut failed = false;
    for w in NAMES {
        let mut sections = Vec::new();
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let c = child(w, seed, seconds, trace, 1)?;
            failed |= !c.correct();
            if let Some(Json::Obj(metrics)) = c.result.get("metrics") {
                for (name, m) in metrics {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    println!("{w} {name} {unit} {value}");
                }
            }
            sections.push((section, c.result));
        }
        workloads.push((w, Json::obj(sections)));
    }
    let doc = Json::obj(vec![
        (
            "env",
            Json::obj(vec![
                ("commit", Json::str(env::commit())),
                ("rustc", Json::str(env::rustc_version())),
                ("nproc", Json::u64(env::nproc() as u64)),
                ("seed", Json::u64(seed)),
                ("seconds", Json::Num(seconds)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if failed {
        return Err("some operations failed".to_string());
    }
    Ok(())
}
