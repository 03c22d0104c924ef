//! Tracing transparency and determinism.
//!
//! The structured-event layer must be a pure observer:
//!
//! 1. **Transparency** — enabling tracing changes *nothing* observable:
//!    answers, metered words/messages, and the per-kind breakdown are
//!    byte-identical with tracing on and off, on every row of the
//!    default matrix (shardable via `DTRACK_MATRIX_FILTER`, like the
//!    equivalence suites) and on the pool, with a worker per site and
//!    multiplexed, for a stride subset.
//! 2. **Determinism** — on the deterministic backend the trace stream
//!    itself is part of the pinned transcript: two traced runs of the
//!    same seeded `Scenario` produce bit-identical event streams
//!    (clock stamps included), for arbitrary scenario points.
//!
//! The demo test at the bottom exports the PR 7 heavy-hitter `Start`
//! storm as a Chrome trace: every resync round is a visible
//! `broadcast` burst on the coordinator lane.

use dtrack_testkit::{
    apply_matrix_filter, default_matrix, run_scenario_reference, run_scenario_traced,
    AssignmentSpec, BackendKind, GeneratorSpec, ProtocolSpec, Scenario, TraceEventKind, TraceLane,
};
use proptest::prelude::*;

/// Tracing on vs off on the deterministic backend, across the whole
/// default matrix: identical answers, identical meter, identical
/// per-kind breakdown — and the traced run actually recorded events.
#[test]
fn tracing_is_transparent_on_the_full_default_matrix() {
    let scenarios = apply_matrix_filter(default_matrix());
    assert!(!scenarios.is_empty(), "matrix filter matched nothing");
    for scenario in &scenarios {
        let name = scenario.to_string();
        let off = run_scenario_reference(scenario).unwrap_or_else(|f| panic!("{f}"));
        let on = run_scenario_traced(scenario, BackendKind::Deterministic)
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(
            off.trace.is_empty(),
            "[{name}] untraced run recorded events"
        );
        assert!(!on.trace.is_empty(), "[{name}] traced run recorded nothing");
        assert_eq!(
            on.answers, off.answers,
            "[{name}] tracing changed the answers"
        );
        assert_eq!(
            (on.report.words, on.report.messages),
            (off.report.words, off.report.messages),
            "[{name}] tracing changed the metered cost"
        );
        assert_eq!(
            on.report.by_kind, off.report.by_kind,
            "[{name}] tracing changed the per-kind breakdown"
        );
    }
}

/// The same transparency contract on the pool, with a worker per site
/// and multiplexed, for a stride subset of the matrix (full coverage
/// lives in the equivalence suites; this pins that *tracing* perturbs
/// neither shape).
#[test]
fn tracing_is_transparent_on_parallel_backends() {
    let scenarios: Vec<_> = default_matrix().into_iter().step_by(11).collect();
    assert!(scenarios.len() >= 6, "stride subset too small");
    for scenario in &scenarios {
        let name = scenario.to_string();
        for backend in [
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let off = dtrack_testkit::run_scenario_on_backend(scenario, backend)
                .unwrap_or_else(|f| panic!("{f}"));
            let on = run_scenario_traced(scenario, backend).unwrap_or_else(|f| panic!("{f}"));
            assert!(
                !on.trace.is_empty(),
                "[{name}] {backend}: traced run recorded nothing"
            );
            assert_eq!(
                on.answers, off.answers,
                "[{name}] {backend}: tracing changed the answers"
            );
            assert_eq!(
                (on.report.words, on.report.messages),
                (off.report.words, off.report.messages),
                "[{name}] {backend}: tracing changed the metered cost"
            );
        }
    }
}

fn protocol(idx: u8) -> ProtocolSpec {
    match idx % 4 {
        0 => ProtocolSpec::Counter,
        1 => ProtocolSpec::HhExact,
        2 => ProtocolSpec::QuantileExact { phi: 0.5 },
        _ => ProtocolSpec::Cgmr,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Same seed ⇒ the deterministic backend's trace stream is part of
    /// the transcript: two traced runs are bit-identical, clock stamps
    /// and all.
    #[test]
    fn deterministic_trace_stream_is_bit_identical_across_runs(
        proto_idx in 0u8..4,
        k in 3u32..6,
        n in 1_000u64..2_500,
        seed in 1u64..1_000_000,
    ) {
        let scenario = Scenario {
            generator: GeneratorSpec::Zipf { universe: 1 << 16, s: 1.2 },
            assignment: AssignmentSpec::RoundRobin,
            k,
            epsilon: 0.1,
            n,
            seed,
            protocol: protocol(proto_idx),
            tuning: Default::default(),
            faults: Default::default(),
        };
        let a = run_scenario_traced(&scenario, BackendKind::Deterministic)
            .map_err(|f| TestCaseError::fail(format!("{f}")))?;
        let b = run_scenario_traced(&scenario, BackendKind::Deterministic)
            .map_err(|f| TestCaseError::fail(format!("{f}")))?;
        prop_assert!(!a.trace.is_empty(), "traced run recorded nothing");
        prop_assert_eq!(&a.trace, &b.trace, "trace stream not replayable");
        prop_assert_eq!(&a.answers, &b.answers);
    }
}

/// Demo: the PR 7 heavy-hitter `Start` storm — the warm-up→tracking
/// broadcast that slams every site at once — is a first-class burst in
/// the trace: one `broadcast:hh/start` on the coordinator lane followed
/// by k clustered `down-hop:hh/start` events, one per site. With eager
/// resync the same burst shape then repeats every round as
/// `hh/sync-poll` storms. The exported Chrome trace carries all of it,
/// so a profiler renders each storm as a vertical instant-event wall.
#[test]
fn hh_start_storm_is_a_visible_broadcast_burst_in_the_chrome_trace() {
    const K: u32 = 8;
    let scenario = Scenario::new(
        GeneratorSpec::Zipf {
            universe: 1 << 18,
            s: 1.2,
        },
        AssignmentSpec::RoundRobin,
        K,
        0.1,
        20_000,
        7,
        ProtocolSpec::HhExact,
    )
    .with_resync_after(1);
    let out = run_scenario_traced(&scenario, BackendKind::Deterministic)
        .unwrap_or_else(|f| panic!("{f}"));

    // The Start storm proper: one pre-expansion broadcast, fanout k.
    let start_bcast = out
        .trace
        .iter()
        .find(|e| {
            e.lane == TraceLane::Coordinator
                && matches!(
                    e.kind,
                    TraceEventKind::Broadcast {
                        kind: "hh/start",
                        ..
                    }
                )
        })
        .expect("warm-up end must broadcast hh/start");
    let TraceEventKind::Broadcast { fanout, .. } = start_bcast.kind else {
        unreachable!()
    };
    assert_eq!(fanout, K, "the Start storm hits every live site");

    // ... expanding into one down-hop per site, clustered right after
    // the broadcast (the burst a profiler shows as a vertical wall).
    let start_downs: Vec<_> = out
        .trace
        .iter()
        .filter(|e| {
            matches!(e.lane, TraceLane::Site(_))
                && matches!(
                    e.kind,
                    TraceEventKind::DownHop {
                        kind: "hh/start",
                        ..
                    }
                )
        })
        .collect();
    assert_eq!(start_downs.len(), K as usize, "one Start per live site");
    for hop in &start_downs {
        assert!(
            hop.clock > start_bcast.clock && hop.clock <= start_bcast.clock + 3 * K as u64,
            "Start fan-out must cluster right after the broadcast \
             (broadcast at clock {}, hop at {})",
            start_bcast.clock,
            hop.clock
        );
    }

    // Eager resync repeats the storm shape every round: many sync-poll
    // broadcast bursts follow the one-time Start.
    let polls = out
        .trace
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::Broadcast {
                    kind: "hh/sync-poll",
                    ..
                }
            )
        })
        .count();
    assert!(polls >= 3, "expected repeated resync storms, saw {polls}");

    let path = dtrack_testkit::trace_artifact_dir().join("hh-start-storm.trace.json");
    dtrack_sim::write_chrome_file(&out.trace, &path).expect("chrome export");
    let json = std::fs::read_to_string(&path).expect("read exported trace");
    assert!(json.contains("\"traceEvents\""), "not a chrome trace");
    assert!(
        // The broadcast plus one down-hop per site.
        json.matches("hh/start").count() > K as usize,
        "Start burst missing from the exported trace"
    );
}
