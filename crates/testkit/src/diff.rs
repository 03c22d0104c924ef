//! Equivalence-failure forensics: per-kind cost delta tables and the
//! `trace_diff` replay debugger.
//!
//! The equivalence suites used to fail with a bare
//! `assert_eq!((words, messages), ...)` — two integers and no clue
//! which message kind drifted or *where* in the stream the runtimes
//! parted ways. This module replaces that with two tools:
//!
//! * [`cost_delta_table`] — a sorted per-kind `(words, messages)` table
//!   with signed deltas, built from the [`ScenarioReport::by_kind`]
//!   breakdown both sides already carry. Kind labels sort by
//!   [`dtrack_sim::canonical_kind_order`], so the table lines up with
//!   `MessageMeter::report()` and `TraceSummary` output.
//! * [`trace_diff`] — replay the scenario on both backends with tracing
//!   on ([`run_scenario_traced`]), strip logical clocks, and compare
//!   each site lane's hop stream (`up-hop`/`down-hop` events — exactly
//!   the metered transcript). The report quotes the first diverging
//!   event window instead of a bare "words differ", and both Chrome
//!   traces are exported under [`trace_artifact_dir`] so CI can upload
//!   them as failure artifacts.
//!
//! The suite-facing entry points [`assert_outcomes_match`] and
//! [`assert_matches_golden`] bundle the two: compare, and on mismatch
//! panic with the table (and, for runtime divergence, the trace diff)
//! in the panic message.

use crate::report::{ScenarioOutcome, ScenarioReport};
use crate::runner::run_scenario_traced;
use crate::scenario::Scenario;
use dtrack_sim::{
    canonical_kind_order, write_chrome_file, BackendKind, TraceEvent, TraceEventKind, TraceLane,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Environment variable overriding where [`trace_diff`] writes its
/// exported Chrome traces. Default: `target/trace-artifacts` (relative
/// to the working directory), which CI uploads on matrix-suite failure.
pub const TRACE_DIR_ENV: &str = "DTRACK_TRACE_DIR";

/// Directory trace artifacts are exported to (see [`TRACE_DIR_ENV`]).
pub fn trace_artifact_dir() -> PathBuf {
    match std::env::var(TRACE_DIR_ENV) {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/trace-artifacts"),
    }
}

/// Events shown/compared around the first divergence: ±[`WINDOW`] hops.
const WINDOW: usize = 8;

fn lookup(rows: &[(String, u64, u64)], kind: &str) -> (u64, u64) {
    rows.iter()
        .find(|(k, _, _)| k == kind)
        .map(|&(_, w, m)| (w, m))
        .unwrap_or((0, 0))
}

fn delta(actual: u64, expect: u64) -> i128 {
    actual as i128 - expect as i128
}

/// Render a sorted per-kind cost delta table between two metered
/// transcripts. `expect_kinds` may be empty (the golden fixture pins
/// totals only); the table then shows the actual breakdown with deltas
/// against zero suppressed into a totals-only footer.
pub fn cost_delta_table(
    actual_label: &str,
    actual_totals: (u64, u64),
    actual_kinds: &[(String, u64, u64)],
    expect_label: &str,
    expect_totals: (u64, u64),
    expect_kinds: &[(String, u64, u64)],
) -> String {
    let mut kinds: BTreeSet<&str> = BTreeSet::new();
    kinds.extend(actual_kinds.iter().map(|(k, _, _)| k.as_str()));
    kinds.extend(expect_kinds.iter().map(|(k, _, _)| k.as_str()));
    let mut kinds: Vec<&str> = kinds.into_iter().collect();
    kinds.sort_unstable_by(|a, b| canonical_kind_order(a, b));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-kind cost delta ({actual_label} vs {expect_label}), words/messages:"
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:>12} {:>9}   {:>10} {:>10} {:>8}",
        "kind", "words", "words'", "Δwords", "msgs", "msgs'", "Δmsgs"
    );
    let totals_only = expect_kinds.is_empty() && !actual_kinds.is_empty();
    for kind in kinds {
        let (aw, am) = lookup(actual_kinds, kind);
        let (ew, em) = lookup(expect_kinds, kind);
        if totals_only {
            // No per-kind expectation: show the actual breakdown without
            // fabricating a zero baseline per kind.
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>9}   {:>10} {:>10} {:>8}",
                kind, aw, "-", "-", am, "-", "-"
            );
        } else {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>+9}   {:>10} {:>10} {:>+8}",
                kind,
                aw,
                ew,
                delta(aw, ew),
                am,
                em,
                delta(am, em)
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:>12} {:>+9}   {:>10} {:>10} {:>+8}",
        "TOTAL",
        actual_totals.0,
        expect_totals.0,
        delta(actual_totals.0, expect_totals.0),
        actual_totals.1,
        expect_totals.1,
        delta(actual_totals.1, expect_totals.1)
    );
    out
}

/// A transcript hop, clock-stripped: only `up-hop`/`down-hop` events
/// enter the comparison. Item-run granularity is an execution detail
/// (batch consumption chunks differ per backend), and driver-lane
/// events (settles, queue depths) are schedule bookkeeping — the
/// metered transcript the suites pin is exactly the hop stream.
fn hop_stream(events: &[TraceEvent], site: u32) -> Vec<TraceEventKind> {
    events
        .iter()
        .filter(|e| e.lane == TraceLane::Site(site))
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::UpHop { .. } | TraceEventKind::DownHop { .. }
            )
        })
        .map(|e| e.kind)
        .collect()
}

fn site_lanes(events: &[TraceEvent]) -> BTreeSet<u32> {
    events
        .iter()
        .filter_map(|e| match e.lane {
            TraceLane::Site(i) => Some(i),
            _ => None,
        })
        .collect()
}

fn render_window(out: &mut String, label: &str, stream: &[TraceEventKind], at: usize) {
    let start = at.saturating_sub(WINDOW);
    let end = (at + WINDOW).min(stream.len());
    let _ = writeln!(out, "  {label} hops [{start}..{end}) of {}:", stream.len());
    for (i, kind) in stream.iter().enumerate().take(end).skip(start) {
        let marker = if i == at { ">>" } else { "  " };
        let _ = writeln!(out, "    {marker} [{i:>6}] {kind:?}");
    }
    if at >= stream.len() {
        let _ = writeln!(out, "    >> [{at:>6}] <stream ends here>");
    }
}

/// Replay `scenario` on both backends with tracing on and report the
/// first diverging hop window per site lane — or confirm the traced hop
/// streams agree (pointing the investigation elsewhere). Both Chrome
/// traces are exported under [`trace_artifact_dir`] either way; export
/// errors are noted in the report, never fatal.
pub fn trace_diff(scenario: &Scenario, left: BackendKind, right: BackendKind) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace-diff: replaying [{scenario}] with tracing on ({left} vs {right})"
    );
    let runs = (
        run_scenario_traced(scenario, left),
        run_scenario_traced(scenario, right),
    );
    let (lrun, rrun) = match runs {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) => {
            let _ = writeln!(out, "  traced replay on {left} failed: {e}");
            return out;
        }
        (_, Err(e)) => {
            let _ = writeln!(out, "  traced replay on {right} failed: {e}");
            return out;
        }
    };
    for (backend, run) in [(left, &lrun), (right, &rrun)] {
        let path = trace_artifact_dir().join(format!(
            "{}-{}.trace.json",
            sanitize(&scenario.to_string()),
            sanitize(&backend.to_string())
        ));
        match write_chrome_file(&run.trace, &path) {
            Ok(()) => {
                let _ = writeln!(out, "  chrome trace ({backend}): {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(out, "  chrome trace export failed ({backend}): {e}");
            }
        }
    }

    let mut lanes = site_lanes(&lrun.trace);
    lanes.extend(site_lanes(&rrun.trace));
    let mut diverged = false;
    for site in lanes {
        let lhops = hop_stream(&lrun.trace, site);
        let rhops = hop_stream(&rrun.trace, site);
        let at = match lhops.iter().zip(&rhops).position(|(a, b)| a != b) {
            Some(i) => i,
            None if lhops.len() == rhops.len() => continue,
            None => lhops.len().min(rhops.len()),
        };
        diverged = true;
        let _ = writeln!(
            out,
            "  site {site}: first hop divergence at index {at} \
             ({} vs {} hops total)",
            lhops.len(),
            rhops.len()
        );
        render_window(&mut out, &left.to_string(), &lhops, at);
        render_window(&mut out, &right.to_string(), &rhops, at);
        break; // The first diverging lane is the signal; the rest is noise.
    }
    if !diverged {
        let _ = writeln!(
            out,
            "  per-site hop streams are identical on the traced replay — \
             the divergence is outside the hop transcript (answers, \
             metering registration, or nondeterministic between runs)"
        );
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn totals(report: &ScenarioReport) -> (u64, u64) {
    (report.words, report.messages)
}

/// Assert a parallel-backend outcome matches the deterministic
/// reference: identical answers and identical metered cost. On mismatch,
/// panic with the per-kind delta table and the first diverging traced
/// hop window (`context` tags the variant, e.g. `workers=Some(3)`).
pub fn assert_outcomes_match(
    scenario: &Scenario,
    context: &str,
    actual_backend: BackendKind,
    actual: &ScenarioOutcome,
    reference: &ScenarioOutcome,
) {
    let answers_ok = actual.answers == reference.answers;
    let costs_ok = totals(&actual.report) == totals(&reference.report)
        && actual.report.by_kind == reference.report.by_kind;
    if answers_ok && costs_ok {
        return;
    }
    let name = scenario.to_string();
    let ctx = if context.is_empty() {
        String::new()
    } else {
        format!(" {context}:")
    };
    let mut msg = String::new();
    if !answers_ok {
        let _ = writeln!(
            msg,
            "[{name}]{ctx} answers diverge between {actual_backend} and deterministic runtimes"
        );
        let _ = writeln!(msg, "  {actual_backend}: {:?}", actual.answers);
        let _ = writeln!(msg, "  deterministic: {:?}", reference.answers);
    }
    if !costs_ok {
        let _ = writeln!(
            msg,
            "[{name}]{ctx} metered cost diverges between {actual_backend} and deterministic runtimes"
        );
    }
    msg.push_str(&cost_delta_table(
        &actual_backend.to_string(),
        totals(&actual.report),
        &actual.report.by_kind,
        "deterministic",
        totals(&reference.report),
        &reference.report.by_kind,
    ));
    msg.push_str(&trace_diff(
        scenario,
        BackendKind::Deterministic,
        actual_backend,
    ));
    panic!("{msg}");
}

/// Assert metered totals match the golden fixture. The fixture pins
/// totals only, so the table shows the actual per-kind breakdown with a
/// totals delta footer. `label` names the side under test
/// (e.g. `sharded`, `meter-mode`).
pub fn assert_matches_golden(
    scenario: &Scenario,
    context: &str,
    label: &str,
    actual_totals: (u64, u64),
    actual_kinds: &[(String, u64, u64)],
    golden_totals: (u64, u64),
) {
    if actual_totals == golden_totals {
        return;
    }
    let name = scenario.to_string();
    let ctx = if context.is_empty() {
        String::new()
    } else {
        format!(" {context}:")
    };
    let mut msg = format!("[{name}]{ctx} {label} cost drifted from the golden fixture\n");
    msg.push_str(&cost_delta_table(
        label,
        actual_totals,
        actual_kinds,
        "golden",
        golden_totals,
        &[],
    ));
    msg.push_str(
        "regenerate only for deliberate protocol changes:\n  \
         cargo run --release -p dtrack-testkit --example golden_dump \
         > crates/testkit/tests/golden_matrix_costs.txt\n",
    );
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AssignmentSpec, GeneratorSpec, ProtocolSpec};

    fn rows(spec: &[(&str, u64, u64)]) -> Vec<(String, u64, u64)> {
        spec.iter().map(|&(k, w, m)| (k.to_owned(), w, m)).collect()
    }

    #[test]
    fn delta_table_sorts_kinds_and_signs_deltas() {
        let actual = rows(&[("sync", 120, 4), ("delta", 30, 10)]);
        let expect = rows(&[("delta", 25, 9), ("start", 8, 2)]);
        let table = cost_delta_table("left", (150, 14), &actual, "right", (33, 11), &expect);
        // Canonical order: delta < start < sync.
        let delta_at = table.find("delta").unwrap();
        let start_at = table.find("start").unwrap();
        let sync_at = table.find("sync").unwrap();
        assert!(delta_at < start_at && start_at < sync_at, "{table}");
        assert!(table.contains("+5"), "words delta for `delta`:\n{table}");
        assert!(table.contains("-8"), "words delta for `start`:\n{table}");
        assert!(table.contains("TOTAL"), "{table}");
        assert!(table.contains("+117"), "total words delta:\n{table}");
    }

    #[test]
    fn delta_table_with_totals_only_expectation_shows_actual_breakdown() {
        let actual = rows(&[("sync", 120, 4)]);
        let table = cost_delta_table("meter", (120, 4), &actual, "golden", (100, 4), &[]);
        assert!(table.contains("sync"), "{table}");
        assert!(table.contains("+20"), "{table}");
        // Per-kind expectation columns stay blank, not fabricated zeros.
        assert!(table.contains('-'), "{table}");
    }

    #[test]
    fn trace_diff_reports_agreement_for_identical_backends() {
        let s = Scenario::new(
            GeneratorSpec::Zipf {
                universe: 1 << 16,
                s: 1.2,
            },
            AssignmentSpec::RoundRobin,
            3,
            0.1,
            1_500,
            9,
            ProtocolSpec::Counter,
        );
        let pool = BackendKind::Sharded { workers: Some(16) };
        let report = trace_diff(&s, BackendKind::Deterministic, pool);
        assert!(
            report.contains("hop streams are identical"),
            "equivalent backends must produce agreeing hop streams:\n{report}"
        );
        assert!(report.contains("chrome trace"), "{report}");
    }

    #[test]
    fn outcome_match_passes_on_equal_runs() {
        let s = Scenario::new(
            GeneratorSpec::Uniform { universe: 1 << 12 },
            AssignmentSpec::RoundRobin,
            2,
            0.2,
            800,
            4,
            ProtocolSpec::Counter,
        );
        let pool = BackendKind::Sharded { workers: Some(16) };
        let thr = crate::runner::run_scenario_on_backend(&s, pool).unwrap();
        let det = crate::runner::run_scenario_reference(&s).unwrap();
        assert_outcomes_match(&s, "", pool, &thr, &det);
    }
}
