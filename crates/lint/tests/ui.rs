//! ui-style self-tests: every rule has a tripping fixture and a passing
//! twin under `tests/ui/`, each a mini workspace root run through the
//! real engine (and, for exit codes, the real binary). The fixtures are
//! what pin the linter's behaviour — the workspace itself is clean, so
//! without them a regression that silently stopped a rule from firing
//! would go unnoticed.

use std::path::PathBuf;
use std::process::Command;

use dtrack_lint::config::Rule;
use dtrack_lint::report::Report;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("ui")
        .join(name)
}

fn run_fixture(name: &str) -> Report {
    let root = fixture_root(name);
    assert!(root.is_dir(), "missing fixture {}", root.display());
    dtrack_lint::run(&root)
}

/// The bad fixture trips `rule` (and the run is dirty); the ok twin is
/// fully clean.
fn assert_twin(rule: Rule, bad: &str, ok: &str) {
    let bad_report = run_fixture(bad);
    assert!(
        bad_report.violations.iter().any(|v| v.rule == rule),
        "{}: expected a {} violation, got:\n{}",
        bad,
        rule,
        bad_report.render()
    );
    let ok_report = run_fixture(ok);
    assert!(
        ok_report.is_clean(),
        "{}: expected clean, got:\n{}",
        ok,
        ok_report.render()
    );
}

#[test]
fn d1_std_hash_fixtures() {
    assert_twin(Rule::D1, "d1_bad", "d1_ok");
    // Both the import and the fully-qualified use fire.
    assert!(run_fixture("d1_bad").violations.len() >= 2);
}

#[test]
fn d2_clock_fixtures() {
    assert_twin(Rule::D2, "d2_bad", "d2_ok");
    // The clock and the ambient randomness both fire.
    assert!(run_fixture("d2_bad").violations.len() >= 2);
}

#[test]
fn d3_registry_fixtures() {
    assert_twin(Rule::D3, "d3_bad", "d3_ok");
}

/// A deque claims only entries no channel constructor claims, and
/// exactly one: when a channel built in the same fn as a queue is
/// deleted, its entry cannot ride on the queue's deque, so the run fails
/// instead of keeping the dead entry and its wait-for edge in force.
#[test]
fn d3_deque_cannot_keep_a_deleted_channel_alive() {
    assert_twin(Rule::D3, "d3_deque_bad", "d3_deque_ok");
    let report = run_fixture("d3_deque_bad");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == Rule::D3 && v.message.contains("ambiguous")),
        "expected an ambiguous-queue violation, got:\n{}",
        report.render()
    );
}

#[test]
fn d3_graph_cycle_fixture() {
    let report = run_fixture("d3_graph_bad");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == Rule::D3 && v.message.contains("form a cycle")),
        "expected a bounded-cycle violation, got:\n{}",
        report.render()
    );
}

#[test]
fn d4_guard_fixtures() {
    assert_twin(Rule::D4, "d4_bad", "d4_ok");
}

#[test]
fn d5_relaxed_fixtures() {
    assert_twin(Rule::D5, "d5_bad", "d5_ok");
}

/// The trace-crate variant: D5's scope is widened to `crates/trace` (as
/// in the workspace lint.toml), so an unregistered event-ring cursor
/// trips, and registering it with a reason clears it.
#[test]
fn d5_trace_cursor_fixtures() {
    assert_twin(Rule::D5, "d5_trace_bad", "d5_trace_ok");
}

#[test]
fn d6_unwrap_fixtures() {
    assert_twin(Rule::D6, "d6_bad", "d6_ok");
    // unwrap and expect both fire.
    assert!(run_fixture("d6_bad").violations.len() >= 2);
}

/// A lint.toml entry whose code is gone must fail the run loudly, for
/// both [[allow]] and [[channel]] entries.
#[test]
fn stale_entries_fail_loudly() {
    let report = run_fixture("stale_bad");
    assert!(!report.is_clean());
    assert!(
        report.errors.iter().any(|e| e.contains("stale [[allow]]")),
        "missing stale-allow error:\n{}",
        report.render()
    );
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("stale [[channel]]")),
        "missing stale-channel error:\n{}",
        report.render()
    );
}

/// The installed binary exits 0 on clean roots and nonzero on every
/// tripping fixture — this is the contract CI's lint job relies on.
#[test]
fn binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_dtrack-lint");
    for bad in [
        "d1_bad",
        "d2_bad",
        "d3_bad",
        "d3_deque_bad",
        "d3_graph_bad",
        "d4_bad",
        "d5_bad",
        "d5_trace_bad",
        "d6_bad",
        "stale_bad",
    ] {
        let out = Command::new(bin)
            .arg("--root")
            .arg(fixture_root(bad))
            .output()
            .expect("run dtrack-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{}: expected exit 1, stdout:\n{}",
            bad,
            String::from_utf8_lossy(&out.stdout)
        );
    }
    for ok in [
        "d1_ok",
        "d2_ok",
        "d3_ok",
        "d3_deque_ok",
        "d4_ok",
        "d5_ok",
        "d5_trace_ok",
        "d6_ok",
    ] {
        let out = Command::new(bin)
            .arg("--root")
            .arg(fixture_root(ok))
            .output()
            .expect("run dtrack-lint");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: expected exit 0, stdout:\n{}",
            ok,
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
