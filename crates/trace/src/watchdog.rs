//! Live SLO watchdog over windowed latency quantiles.
//!
//! The watchdog's SLO budgets are `ci/perf-baseline.txt`: per-phase
//! compile-latency p50/p95s, last recorded by the retired `ks-perfgate`
//! at PR 20. Each evaluation compares the windowed p95 of every watched
//! histogram (from a [`crate::window::WindowView`]) against
//! `baseline_p95 × RATIO`, floored at `FLOOR_US` so machine variance on
//! microsecond phases cannot flake. Breaches are **edge-triggered** — one
//! typed [`SloEvent::Breach`] per excursion, one [`SloEvent::Recover`]
//! when the metric returns under budget — so a seeded drill fires exactly
//! once, not once per tick. Host-time regressions between commits are
//! `ks-ledger`'s to catch (`benchmark/`), not the watchdog's.

use crate::window::WindowView;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Per-phase p50/p95 budgets parsed from `ci/perf-baseline.txt`
/// (`phase p50_us p95_us` lines, `#` comments).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub phases: BTreeMap<String, (u64, u64)>,
}

impl Baseline {
    /// Parse baseline text; rejects malformed lines with a message
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut phases = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(phase), Some(p50), Some(p95), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: want `phase p50 p95`",
                    lineno + 1
                ));
            };
            let p50: u64 = p50
                .parse()
                .map_err(|e| format!("baseline line {}: bad p50: {e}", lineno + 1))?;
            let p95: u64 = p95
                .parse()
                .map_err(|e| format!("baseline line {}: bad p95: {e}", lineno + 1))?;
            phases.insert(phase.to_string(), (p50, p95));
        }
        Ok(Baseline { phases })
    }
}

/// A latency rule's budget is `max(baseline_p95 × RATIO, FLOOR_US)`: a
/// metric breaches only past the ratio AND the floor.
const RATIO: f64 = 10.0;
const FLOOR_US: u64 = 2_000;

/// One watched histogram: windowed p95 of `metric` is judged against
/// baseline phase `phase`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    pub metric: String,
    pub phase: String,
}

/// One watched *counter*: the windowed event count of `metric` is
/// judged against an absolute per-window budget instead of a latency
/// baseline. This is how rate-style SLOs (e.g. silent-data-corruption
/// detections) ride the same edge-triggered machinery as latency p95s:
/// `budget_per_window = 0` breaches on the first detection in a window
/// and recovers once a whole window passes clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRule {
    pub metric: String,
    /// Human-readable rule label, used where latency rules print their
    /// baseline phase.
    pub label: String,
    /// Highest windowed count that is still healthy.
    pub budget_per_window: u64,
}

/// Typed watchdog verdict for one metric at one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloEvent {
    Breach(SloBreach),
    /// A [`CounterRule`] exceeded its per-window event budget.
    CounterBreach {
        metric: String,
        label: String,
        observed: u64,
        budget: u64,
        window_ticks: usize,
        seq: u64,
    },
    Recover {
        metric: String,
        seq: u64,
    },
}

/// An SLO excursion: the windowed p95 exceeded the budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBreach {
    pub metric: String,
    pub phase: String,
    pub observed_p95_us: u64,
    pub budget_us: u64,
    pub baseline_p95_us: u64,
    pub window_ticks: usize,
    pub seq: u64,
}

impl fmt::Display for SloEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloEvent::Breach(b) => write!(
                f,
                "SLO breach: {} windowed p95 {}µs > budget {}µs \
                 (baseline {} p95 {}µs, window {} ticks, seq {})",
                b.metric,
                b.observed_p95_us,
                b.budget_us,
                b.phase,
                b.baseline_p95_us,
                b.window_ticks,
                b.seq
            ),
            SloEvent::CounterBreach {
                metric,
                label,
                observed,
                budget,
                window_ticks,
                seq,
            } => write!(
                f,
                "SLO breach: {metric} count {observed} in window > budget {budget} \
                 (rule {label}, window {window_ticks} ticks, seq {seq})"
            ),
            SloEvent::Recover { metric, seq } => {
                write!(f, "SLO recovered: {metric} back under budget (seq {seq})")
            }
        }
    }
}

/// Edge-triggered evaluator: feed it windows, collect typed events.
pub struct Watchdog {
    baseline: Baseline,
    rules: Vec<SloRule>,
    counter_rules: Vec<CounterRule>,
    breached: BTreeSet<String>,
}

impl Watchdog {
    pub fn new(baseline: Baseline, rules: Vec<SloRule>) -> Self {
        Watchdog {
            baseline,
            rules,
            counter_rules: Vec::new(),
            breached: BTreeSet::new(),
        }
    }

    /// Add a [`CounterRule`] (builder style).
    pub fn with_counter_rule(mut self, rule: CounterRule) -> Self {
        self.counter_rules.push(rule);
        self
    }

    /// The standard SDC-rate rule: any `gpu_pf.integrity.violations`
    /// event inside the window is a breach — a fleet member that is
    /// silently corrupting data should page, not just self-heal.
    pub fn sdc_rule() -> CounterRule {
        CounterRule {
            metric: crate::names::PF_INTEGRITY_VIOLATIONS.to_string(),
            label: "sdc-rate".to_string(),
            budget_per_window: 0,
        }
    }

    /// A watchdog wired with the standard rule set: every compile phase
    /// in the baseline maps to its `ks_core.compile.phase_us.*`
    /// histogram, `total` to `ks_core.compile.total_us`, and
    /// `promotion` to `gpu_pf.promotion.latency_us`. Baseline phases
    /// with no live histogram (e.g. `store`) are skipped. The
    /// [`Watchdog::sdc_rule`] counter rule is always included.
    pub fn standard(baseline: Baseline) -> Self {
        let rules = baseline
            .phases
            .keys()
            .filter_map(|phase| {
                let metric = match phase.as_str() {
                    "total" => crate::names::COMPILE_TOTAL_US.to_string(),
                    "promotion" => crate::names::PF_PROMOTION_LATENCY_US.to_string(),
                    "store" => return None,
                    p => crate::names::compile_phase_us(p),
                };
                Some(SloRule {
                    metric,
                    phase: phase.clone(),
                })
            })
            .collect();
        Watchdog::new(baseline, rules).with_counter_rule(Watchdog::sdc_rule())
    }

    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    pub fn counter_rules(&self) -> &[CounterRule] {
        &self.counter_rules
    }

    /// The budget (µs) a rule's windowed p95 must stay under.
    pub fn budget_us(&self, rule: &SloRule) -> Option<u64> {
        let (_, p95) = self.baseline.phases.get(&rule.phase)?;
        Some(((*p95 as f64 * RATIO) as u64).max(FLOOR_US))
    }

    /// Judge one window. Emits `Breach` on the first evaluation a
    /// metric exceeds budget, `Recover` on the first evaluation it is
    /// back under (metrics silent in the window keep their state).
    pub fn evaluate(&mut self, window: &WindowView) -> Vec<SloEvent> {
        let mut events = Vec::new();
        for rule in &self.rules {
            let Some(budget) = self.budget_us(rule) else {
                continue;
            };
            let Some(observed) = window.quantile(&rule.metric, 0.95) else {
                continue; // no samples in window: state unchanged
            };
            let over = observed > budget;
            let was = self.breached.contains(&rule.metric);
            if over && !was {
                self.breached.insert(rule.metric.clone());
                events.push(SloEvent::Breach(SloBreach {
                    metric: rule.metric.clone(),
                    phase: rule.phase.clone(),
                    observed_p95_us: observed,
                    budget_us: budget,
                    baseline_p95_us: self.baseline.phases[&rule.phase].1,
                    window_ticks: window.ticks,
                    seq: window.last_seq,
                }));
            } else if !over && was {
                self.breached.remove(&rule.metric);
                events.push(SloEvent::Recover {
                    metric: rule.metric.clone(),
                    seq: window.last_seq,
                });
            }
        }
        for rule in &self.counter_rules {
            // Unlike histograms, an absent counter really means "no
            // events this window" (deltas, not samples), so 0 is a
            // valid healthy observation and drives recovery.
            let observed = window.counter(&rule.metric);
            let over = observed > rule.budget_per_window;
            let was = self.breached.contains(&rule.metric);
            if over && !was {
                self.breached.insert(rule.metric.clone());
                events.push(SloEvent::CounterBreach {
                    metric: rule.metric.clone(),
                    label: rule.label.clone(),
                    observed,
                    budget: rule.budget_per_window,
                    window_ticks: window.ticks,
                    seq: window.last_seq,
                });
            } else if !over && was {
                self.breached.remove(&rule.metric);
                events.push(SloEvent::Recover {
                    metric: rule.metric.clone(),
                    seq: window.last_seq,
                });
            }
        }
        events
    }

    /// Metrics currently in breach.
    pub fn breached(&self) -> impl Iterator<Item = &str> {
        self.breached.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::window::History;

    fn baseline() -> Baseline {
        Baseline::parse("# header\nopt 100 200\ntotal 1000 2000\n").unwrap()
    }

    #[test]
    fn baseline_parses_and_rejects_garbage() {
        let b = baseline();
        assert_eq!(b.phases["opt"], (100, 200));
        assert_eq!(b.phases["total"], (1000, 2000));
        assert!(Baseline::parse("opt 1").is_err());
        assert!(Baseline::parse("opt one 2").is_err());
        assert!(Baseline::parse("opt 1 2 3").is_err());
    }

    #[test]
    fn breach_fires_once_then_recovers_once() {
        let r = Registry::new();
        let mut hist = History::new(4);
        let mut dog = Watchdog::new(
            baseline(),
            vec![SloRule {
                metric: "ks_core.compile.total_us".to_string(),
                phase: "total".to_string(),
            }],
        );
        let h = r.histogram("ks_core.compile.total_us");
        // Clean tick: under budget (2000 * 10 = 20000 µs).
        h.record(1000);
        hist.tick_at(&r, 0);
        assert!(dog.evaluate(&hist.window(2)).is_empty());
        // Spike: breach fires exactly once...
        h.record(10_000_000);
        hist.tick_at(&r, 1000);
        let events = dog.evaluate(&hist.window(2));
        assert_eq!(events.len(), 1);
        let SloEvent::Breach(b) = &events[0] else {
            panic!("want breach, got {events:?}");
        };
        assert_eq!(b.budget_us, 20_000);
        assert!(b.observed_p95_us >= 10_000_000);
        assert!(format!("{}", events[0]).starts_with("SLO breach: "));
        // ...and not again while the spike is still in the window.
        hist.tick_at(&r, 2000);
        assert!(dog.evaluate(&hist.window(2)).is_empty());
        // New clean samples after the spike rotates out: one recover.
        h.record(500);
        hist.tick_at(&r, 3000);
        h.record(500);
        hist.tick_at(&r, 4000);
        let events = dog.evaluate(&hist.window(2));
        assert_eq!(
            events,
            vec![SloEvent::Recover {
                metric: "ks_core.compile.total_us".to_string(),
                seq: 5,
            }]
        );
    }

    #[test]
    fn floor_suppresses_microsecond_noise() {
        let mut dog = Watchdog::new(
            Baseline::parse("parse 10 20").unwrap(),
            vec![SloRule {
                metric: "m".to_string(),
                phase: "parse".to_string(),
            }],
        );
        // ratio alone would put the budget at 200µs; the floor keeps it
        // at 2000µs, so a 1500µs p95 is not a breach.
        let r = Registry::new();
        let mut hist = History::new(2);
        r.histogram("m").record(1500);
        hist.tick_at(&r, 0);
        assert!(dog.evaluate(&hist.window(1)).is_empty());
        assert_eq!(
            dog.budget_us(&SloRule {
                metric: "m".to_string(),
                phase: "parse".to_string(),
            }),
            Some(2000)
        );
    }

    #[test]
    fn standard_rules_cover_known_phases_and_skip_store() {
        let b = Baseline::parse("opt 1 2\ntotal 3 4\npromotion 5 6\nstore 7 8").unwrap();
        let dog = Watchdog::standard(b);
        let metrics: Vec<&str> = dog.rules().iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"ks_core.compile.phase_us.opt"));
        assert!(metrics.contains(&"ks_core.compile.total_us"));
        assert!(metrics.contains(&"gpu_pf.promotion.latency_us"));
        assert_eq!(metrics.len(), 3, "{metrics:?}");
    }

    #[test]
    fn counter_rule_breaches_on_rate_and_recovers_on_clean_window() {
        let r = Registry::new();
        let mut hist = History::new(4);
        let mut dog = Watchdog::new(baseline(), vec![]).with_counter_rule(Watchdog::sdc_rule());
        let c = r.counter(crate::names::PF_INTEGRITY_VIOLATIONS);
        // Clean window: zero violations, no breach.
        hist.tick_at(&r, 0);
        assert!(dog.evaluate(&hist.window(2)).is_empty());
        // One violation: a zero-budget rule breaches exactly once.
        c.inc();
        hist.tick_at(&r, 1000);
        let events = dog.evaluate(&hist.window(2));
        let [SloEvent::CounterBreach {
            metric,
            observed: 1,
            budget: 0,
            ..
        }] = events.as_slice()
        else {
            panic!("want one counter breach, got {events:?}");
        };
        assert_eq!(metric, crate::names::PF_INTEGRITY_VIOLATIONS);
        assert!(events[0].to_string().starts_with("SLO breach: "));
        // Still inside the window: edge-triggered, no repeat.
        hist.tick_at(&r, 2000);
        assert!(dog.evaluate(&hist.window(2)).is_empty());
        // The violation rotates out: one recovery.
        hist.tick_at(&r, 3000);
        hist.tick_at(&r, 4000);
        let events = dog.evaluate(&hist.window(2));
        assert!(
            matches!(events.as_slice(), [SloEvent::Recover { .. }]),
            "{events:?}"
        );
    }

    #[test]
    fn silent_window_keeps_state() {
        let r = Registry::new();
        let mut hist = History::new(2);
        let mut dog = Watchdog::new(
            baseline(),
            vec![SloRule {
                metric: "ks_core.compile.total_us".to_string(),
                phase: "total".to_string(),
            }],
        );
        r.histogram("ks_core.compile.total_us").record(99_000_000);
        hist.tick_at(&r, 0);
        assert_eq!(dog.evaluate(&hist.window(1)).len(), 1);
        // Quiet ticks: the metric disappears from the window, but no
        // phantom recover is emitted.
        hist.tick_at(&r, 1000);
        hist.tick_at(&r, 2000);
        assert!(dog.evaluate(&hist.window(1)).is_empty());
        assert_eq!(dog.breached().count(), 1);
    }
}
