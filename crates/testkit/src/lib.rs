//! # dtrack-testkit — deterministic differential testing
//!
//! A reusable harness that runs every tracking protocol in the workspace —
//! the Yi–Zhang counter / heavy-hitter / quantile / all-quantiles
//! protocols and the CGMR / naive baselines — against the exact
//! [`dtrack_core::ExactOracle`] on a matrix of seeded scenarios, checking
//! two things per run:
//!
//! 1. **Accuracy** — the protocol's ε-guarantee holds at ~16 mid-stream
//!    checkpoints and at the end of the stream (heavy-hitter sets by the
//!    paper's definition, quantiles by the rank-interval convention,
//!    exactness for forward-all).
//! 2. **Communication** — the words metered by [`dtrack_sim`] stay under
//!    an explicit-constant version of the paper's bound for that protocol
//!    ([`bound::word_budget`]).
//!
//! A [`Scenario`] is a *value* — generator, assignment, k, ε, n, seed,
//! protocol — so every failure message names a bit-for-bit replayable
//! run. Integration tests and the experiment harness both drive this
//! crate instead of hand-rolling their own scenario loops.
//!
//! One driver ([`runner`]) takes every scenario to the tracker, on any
//! backend: in differential mode (the checks above), meter-only (the
//! experiments' cost tables and the cross-backend equivalence suites,
//! which compare a [`ScenarioOutcome`]'s answers and metered words), or
//! free-running on the pool (throughput, timed by `ingest_ms`).
//!
//! ```
//! use dtrack_testkit::{run_scenario, Scenario};
//! use dtrack_testkit::scenario::{AssignmentSpec, GeneratorSpec, ProtocolSpec};
//!
//! let report = run_scenario(&Scenario::new(
//!     GeneratorSpec::Zipf { universe: 1 << 20, s: 1.2 },
//!     AssignmentSpec::RoundRobin,
//!     4,    // k
//!     0.1,  // epsilon
//!     2_000, // n
//!     7,    // seed
//!     ProtocolSpec::HhExact,
//! ))
//! .unwrap();
//! assert!(report.checks > 0);
//! assert!(report.words <= report.budget_words);
//! ```

pub mod bound;
pub mod diff;
pub mod faults;
pub mod golden;
pub mod matrix;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;

/// The free-running run length under its former path, which the
/// standalone `benchmark/` package builds against.
pub mod threaded {
    pub use crate::runner::free_run_len;
}

pub use diff::{
    assert_matches_golden, assert_outcomes_match, cost_delta_table, trace_artifact_dir, trace_diff,
    TRACE_DIR_ENV,
};
pub use faults::{FaultPlan, KillFault, StallFault};
pub use matrix::{default_matrix, hostile_matrix, matrix, pressure_matrix, BASE_MATRIX_LEN};
pub use registry::{ProtocolProfile, WarmupPolicy};
pub use report::{ScenarioFailure, ScenarioOutcome, ScenarioReport};
pub use runner::{
    measure_cost, measure_cost_per_item, measure_on_backend, run_matrix, run_scenario,
    run_scenario_on, run_scenario_on_backend, run_scenario_per_item, run_scenario_reference,
    run_scenario_traced, Delivery,
};
pub use scenario::{AssignmentSpec, GeneratorSpec, ProtocolSpec, Scenario, Tuning};

// The facade types scenario drivers hand out, re-exported so harness
// consumers don't need a direct dtrack-sim dependency.
pub use dtrack_sim::{
    Answer, BackendKind, FaultEvent, Query, QueryError, TraceConfig, TraceEvent, TraceEventKind,
    TraceLane, TraceSummary, Tracker, PROBE_PHIS,
};

/// Environment variable read by [`apply_matrix_filter`]: a
/// comma-separated list of substrings matched against each scenario's
/// stable name (its `Display` string, e.g.
/// `counter/zipf/round-robin/k4/eps0.1/n6000/seed618/kill1@3000`). A
/// scenario is kept when any fragment matches; unset or empty keeps
/// everything. Lets CI shard the matrix suites and lets a developer
/// replay one quoted failure by name.
pub const MATRIX_FILTER_ENV: &str = "DTRACK_MATRIX_FILTER";

/// Filter `scenarios` by the `DTRACK_MATRIX_FILTER` environment variable
/// (see [`MATRIX_FILTER_ENV`]); the full list passes through when the
/// variable is unset or empty. Suites assert the *unfiltered* matrix
/// shape first, then apply this, so a typo'd filter fails loudly (zero
/// scenarios) instead of silently passing an empty suite — callers
/// should assert the returned list is non-empty.
pub fn apply_matrix_filter(scenarios: Vec<Scenario>) -> Vec<Scenario> {
    match std::env::var(MATRIX_FILTER_ENV) {
        Ok(raw) if !raw.trim().is_empty() => {
            let fragments: Vec<&str> = raw
                .split(',')
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .collect();
            scenarios
                .into_iter()
                .filter(|s| {
                    let name = s.to_string();
                    fragments.iter().any(|f| name.contains(f))
                })
                .collect()
        }
        _ => scenarios,
    }
}
