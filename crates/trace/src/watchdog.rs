//! Live SLO watchdog over windowed counter rates.
//!
//! A [`CounterRule`] judges the windowed event count of one counter
//! against an absolute per-window budget. Breaches are
//! **edge-triggered** — one [`SloEvent::CounterBreach`] per excursion,
//! one [`SloEvent::Recover`] once a whole window passes within budget —
//! so a seeded drill fires exactly once, not once per tick. The one rule
//! is [`Watchdog::sdc_rule`]. Host-time regressions between commits are
//! `ks-ledger`'s to catch (`benchmark/`), not the watchdog's.

use crate::window::WindowView;
use std::fmt;

/// One watched counter: `budget_per_window = 0` breaches on the first
/// event in a window and recovers once a whole window passes clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRule {
    pub metric: String,
    /// Human-readable rule label, printed in breach events.
    pub label: String,
    /// Highest windowed count that is still healthy.
    pub budget_per_window: u64,
}

/// Typed watchdog verdict at one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloEvent {
    /// The rule's counter exceeded its per-window event budget.
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

impl fmt::Display for SloEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

/// Edge-triggered evaluator of one rule: feed it windows, collect typed
/// events.
pub struct Watchdog {
    rule: CounterRule,
    breached: bool,
}

impl Watchdog {
    pub fn new(rule: CounterRule) -> Self {
        Watchdog {
            rule,
            breached: false,
        }
    }

    /// The SDC-rate rule: any `gpu_pf.integrity.violations` event inside
    /// the window is a breach — a fleet member that is silently
    /// corrupting data should page, not just self-heal.
    pub fn sdc_rule() -> CounterRule {
        CounterRule {
            metric: crate::names::PF_INTEGRITY_VIOLATIONS.to_string(),
            label: "sdc-rate".to_string(),
            budget_per_window: 0,
        }
    }

    /// Judge one window: `CounterBreach` on the first evaluation over
    /// budget, `Recover` on the first one back within it. A counter
    /// absent from the window had no events there, so it counts as 0.
    pub fn evaluate(&mut self, window: &WindowView) -> Option<SloEvent> {
        let observed = window.counter(&self.rule.metric);
        let over = observed > self.rule.budget_per_window;
        if over == self.breached {
            return None;
        }
        self.breached = over;
        let metric = self.rule.metric.clone();
        let seq = window.last_seq;
        Some(if over {
            SloEvent::CounterBreach {
                metric,
                label: self.rule.label.clone(),
                observed,
                budget: self.rule.budget_per_window,
                window_ticks: window.ticks,
                seq,
            }
        } else {
            SloEvent::Recover { metric, seq }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::window::History;

    #[test]
    fn counter_rule_breaches_on_rate_and_recovers_on_clean_window() {
        let r = Registry::new();
        let mut hist = History::new(4);
        let mut dog = Watchdog::new(Watchdog::sdc_rule());
        let c = r.counter(crate::names::PF_INTEGRITY_VIOLATIONS);
        // Clean window: zero violations, no breach.
        hist.tick(&r);
        assert_eq!(dog.evaluate(&hist.window(2)), None);
        // One violation: a zero-budget rule breaches exactly once.
        c.inc();
        hist.tick(&r);
        let event = dog.evaluate(&hist.window(2));
        let Some(SloEvent::CounterBreach {
            metric,
            observed: 1,
            budget: 0,
            ..
        }) = &event
        else {
            panic!("want one counter breach, got {event:?}");
        };
        assert_eq!(metric, crate::names::PF_INTEGRITY_VIOLATIONS);
        assert!(event.unwrap().to_string().starts_with("SLO breach: "));
        // Still inside the window: edge-triggered, no repeat.
        hist.tick(&r);
        assert_eq!(dog.evaluate(&hist.window(2)), None);
        // The violation rotates out: one recovery.
        hist.tick(&r);
        hist.tick(&r);
        let event = dog.evaluate(&hist.window(2));
        assert!(
            matches!(event, Some(SloEvent::Recover { seq: 5, .. })),
            "{event:?}"
        );
        assert!(event.unwrap().to_string().starts_with("SLO recovered: "));
    }
}
