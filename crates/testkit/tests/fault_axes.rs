//! Hostile-traffic fault axes: the 27 appended matrix rows (flash
//! crowds, diurnal drift, key churn, site churn, queue-cap pressure,
//! stalls, site death, and the combined-pressure band that stacks two
//! faults per row) run in equivalence mode on three backends: the
//! deterministic cluster, the pool with a worker per site, and the pool
//! multiplexing sites onto two workers.
//!
//! Every row must produce the *identical* final answers and the
//! *identical* metered words/messages on all three, matching the golden
//! fixture bit-for-bit — faults included. A kill is an administrative partition injected at a
//! quiescent stream position and rerouted by the static
//! `FaultPlan::route` map, a stall is pure timing, and a queue cap is a
//! builder knob, so none of them may perturb the transcript.
//!
//! This suite also hosts the promoted runtime-fault unit tests that
//! used to live inside `dtrack-sim` (worker death, backpressure at a
//! cap of 4, stalled slow sites): each is now a thin wrapper selecting
//! the matching fault axis out of the matrix instead of a hand-rolled
//! cluster.

use dtrack_sim::{SimError, SiteId};
use dtrack_testkit::{
    apply_matrix_filter, default_matrix, golden, hostile_matrix, measure_on_backend,
    pressure_matrix, registry::build_tracker, run_scenario_on, run_scenario_on_backend,
    run_scenario_reference, Answer, BackendKind, Delivery, FaultEvent, ProtocolSpec, Scenario,
    WarmupPolicy, BASE_MATRIX_LEN, MATRIX_FILTER_ENV,
};
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("golden_matrix_costs.txt");

/// Per-suite wall-clock budget for the release-mode CI run. Generous
/// (the whole suite runs in a few seconds on a laptop) but finite: a
/// fault that wedges `settle()` or a stall that turns into a livelock
/// shows up as a budget blowout, not a silent 6-hour CI hang.
const RELEASE_BUDGET: Duration = Duration::from_secs(120);

fn assert_release_budget(start: Instant) {
    let elapsed = start.elapsed();
    if cfg!(not(debug_assertions)) {
        assert!(
            elapsed < RELEASE_BUDGET,
            "fault-axes suite blew its wall-clock budget: {elapsed:?} >= {RELEASE_BUDGET:?}"
        );
    }
}

fn hostile_rows() -> Vec<Scenario> {
    let scenarios = default_matrix();
    assert_eq!(scenarios.len(), BASE_MATRIX_LEN + 27);
    scenarios[BASE_MATRIX_LEN..].to_vec()
}

#[test]
fn hostile_rows_are_exactly_the_matrix_extension() {
    // The suite's slice and the two extension bands must be the same
    // rows, so "every new row runs here" can't drift as the matrix grows.
    let mut expected = hostile_matrix();
    expected.extend(pressure_matrix());
    assert_eq!(hostile_rows(), expected);
}

#[test]
fn matrix_filter_passes_the_extension_through_when_unset() {
    if std::env::var(MATRIX_FILTER_ENV).is_ok_and(|v| !v.trim().is_empty()) {
        return; // externally sharded run; passthrough shape not expected
    }
    assert_eq!(apply_matrix_filter(hostile_rows()).len(), 27);
}

#[test]
fn hostile_rows_are_equivalent_on_all_three_backends() {
    let start = Instant::now();
    let golden = golden::meter_costs(GOLDEN);
    let rows = apply_matrix_filter(hostile_rows());
    assert!(!rows.is_empty(), "matrix filter matched nothing");
    // Two workers for k ∈ {4, 5}: the sharded pool really multiplexes,
    // so kill/stall handling is exercised across site-run migration.
    let backends = [
        BackendKind::Sharded { workers: Some(16) },
        BackendKind::Sharded { workers: Some(2) },
    ];
    for scenario in &rows {
        let name = scenario.to_string();
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let &(golden_words, golden_messages) = golden
            .get(&name)
            .unwrap_or_else(|| panic!("[{name}] missing from golden fixture"));
        assert_eq!(
            (reference.report.words, reference.report.messages),
            (golden_words, golden_messages),
            "[{name}] deterministic cost drifted from the golden fixture"
        );
        for backend in backends {
            let outcome =
                run_scenario_on_backend(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(
                outcome.answers, reference.answers,
                "[{name}] answers diverge on {backend:?}"
            );
            assert_eq!(
                (outcome.report.words, outcome.report.messages),
                (reference.report.words, reference.report.messages),
                "[{name}] metered cost diverges on {backend:?}"
            );
        }
    }
    assert_release_budget(start);
}

#[test]
fn hostile_rows_pass_differential_checks_on_parallel_backends() {
    // The deterministic Check-mode pass over these rows lives in
    // `matrix.rs` (they are part of `default_matrix()`); here the same
    // oracle checkpoints — post-kill accuracy within 2ε, terminating
    // settle, word budget with fault headroom — run on both pool
    // shapes.
    let start = Instant::now();
    let rows = apply_matrix_filter(hostile_rows());
    assert!(!rows.is_empty(), "matrix filter matched nothing");
    for scenario in &rows {
        for backend in [
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let report = run_scenario_on(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
            assert!(
                report.checks > 0,
                "[{}] ran zero oracle comparisons on {backend:?}",
                report.scenario
            );
            assert!(
                report.words <= report.budget_words,
                "[{}] blew the word budget on {backend:?}",
                report.scenario
            );
        }
    }
    assert_release_budget(start);
}

// ---------------------------------------------------------------------
// Promoted runtime-fault tests (formerly hand-rolled in dtrack-sim).
// ---------------------------------------------------------------------

/// Promoted worker-death coverage: the kill rows are the site-death
/// scenario at matrix scale. A single-worker sharded pool loses a site
/// mid-stream and must still finish the rerouted stream with a
/// transcript identical to the deterministic reference.
#[test]
fn promoted_site_death_axis_survives_a_single_worker_pool() {
    let rows = hostile_rows();
    let kills: Vec<_> = rows.iter().filter(|s| s.faults.has_kill()).collect();
    assert_eq!(kills.len(), 7, "kill axis shrank");
    for scenario in kills {
        let name = scenario.to_string();
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let sharded = run_scenario_on_backend(scenario, BackendKind::Sharded { workers: Some(1) })
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(sharded.answers, reference.answers, "[{name}]");
        assert_eq!(
            (sharded.report.words, sharded.report.messages),
            (reference.report.words, reference.report.messages),
            "[{name}]"
        );
    }
}

/// Promoted backpressure coverage: the queue-cap rows run every site
/// through a capacity-4 queue. On a single-worker pool that is the old
/// "bounded queues backpressure instead of dropping" test — deep
/// multiplexing with tiny queues — and the transcript must not notice.
#[test]
fn promoted_backpressure_axis_holds_at_cap_4() {
    let rows = hostile_rows();
    let capped: Vec<_> = rows
        .iter()
        .filter(|s| s.faults.queue_cap.is_some())
        .collect();
    assert_eq!(capped.len(), 9, "queue-cap axis shrank");
    for scenario in capped {
        assert_eq!(scenario.faults.queue_cap, Some(4));
        let name = scenario.to_string();
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let sharded = run_scenario_on_backend(scenario, BackendKind::Sharded { workers: Some(1) })
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(sharded.answers, reference.answers, "[{name}]");
        assert_eq!(
            (sharded.report.words, sharded.report.messages),
            (reference.report.words, reference.report.messages),
            "[{name}]"
        );
    }
}

/// Promoted stalled-slow-site coverage: the stall rows sleep one site's
/// consumer mid-stream. `settle()` must still terminate and the final
/// answers must be timing-independent — a stall is pure latency, never
/// a transcript edit.
#[test]
fn promoted_stall_axis_settles_and_keeps_the_transcript() {
    let rows = hostile_rows();
    let stalled: Vec<_> = rows
        .iter()
        .filter(|s| s.faults.stall.is_some() && !s.faults.has_kill())
        .collect();
    assert_eq!(stalled.len(), 6, "stall axis shrank");
    for scenario in stalled {
        let name = scenario.to_string();
        let reference = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let pool = run_scenario_on_backend(scenario, BackendKind::Sharded { workers: Some(16) })
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(pool.answers, reference.answers, "[{name}]");
        assert_eq!(
            (pool.report.words, pool.report.messages),
            (reference.report.words, reference.report.messages),
            "[{name}]"
        );
    }
}

/// Free-running ingest under faults: the counter rows that kill or stall
/// a site, streamed free-running onto a two-worker pool through both
/// deliveries. The driver injects each fault on a settled pool at the
/// same stream position as in the settled modes, so every run must
/// complete, and the final count must land within 2ε·n of n — the
/// relaxation differential mode applies after a kill.
#[test]
fn free_running_ingest_survives_kills_and_stalls() {
    let rows: Vec<Scenario> = hostile_rows()
        .into_iter()
        .filter(|s| {
            s.protocol == ProtocolSpec::Counter && (s.faults.has_kill() || s.faults.stall.is_some())
        })
        .collect();
    assert_eq!(rows.len(), 4, "counter kill/stall rows changed");
    let backend = BackendKind::Sharded { workers: Some(2) };
    for scenario in &rows {
        let n = scenario.n as f64;
        for delivery in [Delivery::PerItem, Delivery::Batched] {
            let out = measure_on_backend(scenario, delivery, backend)
                .unwrap_or_else(|f| panic!("{delivery:?}: {f}"));
            let [Answer::Count(estimate)] = out.answers[..] else {
                panic!("[{scenario}] {delivery:?}: {:?}", out.answers);
            };
            assert!(
                (estimate as f64 - n).abs() <= 2.0 * scenario.epsilon * n,
                "[{scenario}] {delivery:?}: count {estimate} not within 2εn of n = {n}"
            );
        }
    }
}

/// The stall axis with the deadline contract: a stall much longer than
/// the settle deadline must surface as `SimError::Timeout`, not a hang —
/// and once the stall drains, the same tracker settles and finishes
/// cleanly. This is the matrix-level version of the backend unit tests:
/// it goes through a registry-built tracker for a real pressure row.
#[test]
fn stall_axis_deadline_times_out_instead_of_hanging() {
    let rows = pressure_matrix();
    let scenario = rows
        .iter()
        .find(|s| s.faults.stall.is_some() && !s.faults.has_kill())
        .expect("pressure band lost its stall rows");
    let (mut tracker, _warmup) = build_tracker(
        scenario,
        WarmupPolicy::ProtocolDefault,
        BackendKind::Sharded { workers: Some(16) },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // A stall two orders of magnitude past the deadline, then one item so
    // the stalled site has pending work to wait on.
    tracker
        .inject_fault(FaultEvent::StallSite {
            site: SiteId(0),
            micros: 300_000,
        })
        .unwrap();
    tracker.feed(SiteId(0), 7).unwrap();
    let err = tracker
        .settle_deadline(Duration::from_millis(20))
        .expect_err("a 300ms stall must blow a 20ms deadline");
    assert!(
        matches!(err, SimError::Timeout { waited_ms: 20 }),
        "unexpected error: {err}"
    );
    // The timeout is observational, not destructive: settle() still
    // drains and the tracker finishes with its transcript intact.
    tracker.settle();
    tracker.finish().unwrap_or_else(|e| panic!("{e}"));
}
