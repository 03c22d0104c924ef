//! Mid-stream typed-query coverage: at every checkpoint of the
//! differential harness, the facade's typed answers must
//!
//! 1. agree with the `ExactOracle` within ε (asserted by running the
//!    registry's checkpoint check, which is written entirely against
//!    `Tracker::query`),
//! 2. render `Display` strings bit-identical to the legacy canonical
//!    format (`estimate=…`, `m=…`, `hh(phi=…)=…`, `quantile=…`,
//!    `q(…)=…`, `total=…`), and
//! 3. be identical across the deterministic backend and the
//!    multi-threaded pool on the site-at-a-time schedule.

use dtrack_core::ExactOracle;
use dtrack_testkit::registry::{self, WarmupPolicy};
use dtrack_testkit::{default_matrix, Answer, BackendKind, Scenario};

/// The legacy canonical rendering, reconstructed from the typed payload
/// with the exact historical format strings. `Answer::Display` must match
/// this bit-for-bit — the equivalence fixtures depend on it.
fn legacy_render(answer: &Answer) -> String {
    let fmt_opt = |q: &Option<u64>| match q {
        Some(v) => v.to_string(),
        None => "-".to_owned(),
    };
    match answer {
        Answer::Count(v) => format!("estimate={v}"),
        Answer::StreamLength(v) => format!("m={v}"),
        Answer::LengthEstimate(v) => format!("n={v}"),
        Answer::Total(v) => format!("total={v}"),
        Answer::HeavyHitters { phi, items } => format!("hh(phi={phi})={items:?}"),
        Answer::Quantile(q) => format!("quantile={}", fmt_opt(q)),
        Answer::QuantileAt { phi, value } => format!("q({phi})={}", fmt_opt(value)),
        Answer::RankLt { x, rank } => format!("rank_lt({x})={rank}"),
        Answer::Frequency { x, count } => format!("freq({x})={count}"),
        // Flow-control stats and trace summaries postdate the legacy
        // format; `Display` is the canonical rendering (no historical
        // fixture to reconstruct).
        Answer::FlowControl(stats) => stats.to_string(),
        Answer::Trace(summary) => summary.to_string(),
    }
}

/// Drive one scenario on both backends in lockstep, checkpointing
/// typed-query accuracy and Display parity along the way.
fn check_scenario(scenario: &Scenario) {
    let name = scenario.to_string();
    let (mut det, _) = registry::build_tracker(
        scenario,
        WarmupPolicy::Differential,
        BackendKind::Deterministic,
    )
    .unwrap_or_else(|e| panic!("[{name}] deterministic build: {e}"));
    let (mut pool, _) = registry::build_tracker(
        scenario,
        WarmupPolicy::Differential,
        BackendKind::Sharded { workers: Some(16) },
    )
    .unwrap_or_else(|e| panic!("[{name}] pool build: {e}"));
    let check = registry::profile(scenario.protocol).check;

    let mut oracle = ExactOracle::new();
    let check_every = scenario.check_every();
    let stream: Vec<_> = scenario.stream().collect();
    let mut fed = 0u64;
    let mut checkpoints = 0u32;
    while fed < stream.len() as u64 {
        let stop = (fed + check_every).min(stream.len() as u64);
        let chunk = &stream[fed as usize..stop as usize];
        for &(_, item) in chunk {
            oracle.observe(item);
        }
        det.feed_batch(chunk)
            .unwrap_or_else(|e| panic!("[{name}] deterministic feed: {e}"));
        pool.feed_batch(chunk)
            .unwrap_or_else(|e| panic!("[{name}] pool feed: {e}"));
        fed = stop;

        // (1) ε-agreement with the oracle, via typed queries, on both
        // backends.
        check(&mut det, &oracle, scenario)
            .unwrap_or_else(|e| panic!("[{name}] deterministic check at {fed}: {e}"));
        check(&mut pool, &oracle, scenario)
            .unwrap_or_else(|e| panic!("[{name}] pool check at {fed}: {e}"));

        // (2) + (3) canonical answers: identical across backends, and
        // Display equals the legacy canonical string.
        let det_answers = det.answers().unwrap_or_else(|e| panic!("[{name}] {e}"));
        let pool_answers = pool.answers().unwrap_or_else(|e| panic!("[{name}] {e}"));
        assert_eq!(
            det_answers, pool_answers,
            "[{name}] typed answers diverge between backends at item {fed}"
        );
        for answer in &det_answers {
            assert_eq!(
                answer.to_string(),
                legacy_render(answer),
                "[{name}] Display drifted from the legacy canonical format"
            );
        }
        checkpoints += 1;
    }
    assert!(checkpoints >= 2, "[{name}] too few checkpoints");
    det.finish().unwrap_or_else(|e| panic!("[{name}] {e}"));
    pool.finish().unwrap_or_else(|e| panic!("[{name}] {e}"));
}

#[test]
fn typed_queries_agree_with_oracle_and_legacy_strings_on_both_backends() {
    // Every 4th scenario of the default matrix: 10 of 40, one per
    // protocol family (the matrix lists 4 consecutive scenarios per
    // protocol, so stride 4 visits each protocol exactly once).
    let scenarios: Vec<_> = default_matrix().into_iter().step_by(4).collect();
    let labels: std::collections::BTreeSet<_> =
        scenarios.iter().map(|s| s.protocol.label()).collect();
    assert!(
        labels.len() >= 9,
        "subset no longer covers every protocol family: {labels:?}"
    );
    for scenario in &scenarios {
        check_scenario(scenario);
    }
}
