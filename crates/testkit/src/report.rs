//! Outcome types: per-scenario reports and failures.

use dtrack_sim::{Answer, TraceEvent};
use std::fmt;

/// Cost and accuracy summary of one completed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Full scenario name (stable, replayable identifier).
    pub scenario: String,
    /// Protocol label.
    pub protocol: &'static str,
    /// Number of sites.
    pub k: u32,
    /// Approximation error ε.
    pub epsilon: f64,
    /// Stream length.
    pub n: u64,
    /// Total words communicated (the paper's cost measure).
    pub words: u64,
    /// Total messages communicated.
    pub messages: u64,
    /// The budget the scenario was held to.
    pub budget_words: u64,
    /// Number of oracle comparisons that passed.
    pub checks: u64,
    /// Per-kind `(label, words, messages)` breakdown of the metered
    /// transcript, sorted by `canonical_kind_order` — the rows the
    /// equivalence suites print as a delta table when totals drift.
    pub by_kind: Vec<(String, u64, u64)>,
}

impl ScenarioReport {
    /// Fraction of the communication budget actually used.
    pub fn budget_used(&self) -> f64 {
        self.words as f64 / self.budget_words.max(1) as f64
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<60} {:>9} words ({:>5.1}% of budget) {:>6} checks",
            self.scenario,
            self.words,
            100.0 * self.budget_used(),
            self.checks,
        )
    }
}

/// Everything one driven scenario hands back (see [`crate::runner`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Cost summary; `checks` is 0 outside differential mode, where
    /// accuracy is asserted by comparing answers across backends rather
    /// than by an in-run oracle.
    pub report: ScenarioReport,
    /// Typed canonical final answers (protocol-specific); `Display`
    /// renders the legacy canonical strings.
    pub answers: Vec<Answer>,
    /// Wall-clock milliseconds spent inside tracker calls feeding the
    /// stream, injecting faults and settling — stream generation, tracker
    /// construction, checkpoints and teardown excluded, so throughput
    /// comparisons measure ingest, not setup.
    pub ingest_ms: f64,
    /// Merged structured-event stream when the run was traced (see
    /// [`crate::runner::run_scenario_traced`]); empty on untraced runs.
    pub trace: Vec<TraceEvent>,
}

/// A guarantee violation, tagged with the (replayable) scenario name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// The scenario that failed.
    pub scenario: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.scenario, self.detail)
    }
}

impl std::error::Error for ScenarioFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_budget_fraction() {
        let r = ScenarioReport {
            scenario: "hh/zipf/round-robin/k4/eps0.1/n1000/seed1".to_owned(),
            protocol: "hh-exact",
            k: 4,
            epsilon: 0.1,
            n: 1000,
            words: 250,
            messages: 100,
            budget_words: 1000,
            checks: 17,
            by_kind: vec![("sync".to_owned(), 250, 100)],
        };
        assert!((r.budget_used() - 0.25).abs() < 1e-12);
        let s = r.to_string();
        assert!(s.contains("25.0% of budget"), "{s}");
    }

    #[test]
    fn failure_displays_scenario_and_detail() {
        let e = ScenarioFailure {
            scenario: "counter/uniform/bursts/k2/eps0.2/n100/seed3".to_owned(),
            detail: "counter overestimates: 101 > 100".to_owned(),
        };
        let s = e.to_string();
        assert!(s.starts_with("[counter/"));
        assert!(s.contains("overestimates"));
    }
}
