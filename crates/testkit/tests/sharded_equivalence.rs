//! Sharded-vs-deterministic equivalence across the full default matrix.
//!
//! The work-stealing pool multiplexes every scenario's sites onto fewer
//! workers than sites (workers = 2, k ∈ {3, 5, 8}), so site-runs really
//! migrate between workers — and each scenario must still produce the
//! *identical* final answers and the *identical* metered words/messages
//! as the deterministic runner, matching the golden fixture
//! (`golden_matrix_costs.txt`) bit-for-bit. This is the acceptance gate
//! for every runtime behind `Tracker`: a new execution engine is held to
//! the same transcript.

use dtrack_testkit::{
    apply_matrix_filter, assert_matches_golden, assert_outcomes_match, default_matrix, golden,
    run_scenario_on_backend, run_scenario_reference, BackendKind, BASE_MATRIX_LEN,
};

const GOLDEN: &str = include_str!("golden_matrix_costs.txt");

#[test]
fn sharded_matches_deterministic_on_full_default_matrix() {
    let golden = golden::meter_costs(GOLDEN);
    let scenarios = default_matrix();
    assert_eq!(scenarios.len(), BASE_MATRIX_LEN + 21 + 6);
    // This suite owns the frozen base rows; the hostile extension rows
    // run three-backend equivalence in `fault_axes.rs`.
    let scenarios = apply_matrix_filter(scenarios[..BASE_MATRIX_LEN].to_vec());
    assert!(!scenarios.is_empty(), "matrix filter matched nothing");
    // Two workers for k ∈ {3, 5, 8}: every scenario multiplexes more
    // sites than workers, so the suite exercises real site-run handoff.
    let backend = BackendKind::Sharded { workers: Some(2) };
    for scenario in &scenarios {
        let name = scenario.to_string();
        let sharded = run_scenario_on_backend(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        // On mismatch these print a per-kind cost delta table and replay
        // the scenario traced, quoting the first diverging hop window.
        assert_outcomes_match(scenario, "", backend, &sharded, &reference);
        let &(golden_words, golden_messages) = golden
            .get(&name)
            .unwrap_or_else(|| panic!("[{name}] missing from golden fixture"));
        assert_matches_golden(
            scenario,
            "",
            "sharded",
            (sharded.report.words, sharded.report.messages),
            &sharded.report.by_kind,
            (golden_words, golden_messages),
        );
    }
}

#[test]
fn worker_count_does_not_change_the_transcript() {
    // The same scenario across pool sizes (including workers > k and the
    // machine default) must give one transcript — worker count is an
    // execution detail, not a protocol parameter.
    // Selected by stable identity (an hh-exact straggler row), not by
    // position, so appending matrix rows can never silently repoint it.
    let scenarios = default_matrix();
    let scenario = scenarios
        .iter()
        .find(|s| {
            s.assignment == dtrack_testkit::matrix::STRAGGLER
                && s.protocol == dtrack_testkit::ProtocolSpec::HhExact
        })
        .expect("hh-exact straggler row");
    let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
    for workers in [Some(1), Some(3), Some(16), None] {
        let backend = BackendKind::Sharded { workers };
        let outcome = run_scenario_on_backend(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
        assert_outcomes_match(
            scenario,
            &format!("workers={workers:?}"),
            backend,
            &outcome,
            &reference,
        );
    }
}
