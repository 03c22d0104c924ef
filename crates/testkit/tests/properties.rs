//! Property-based cross-backend equivalence: for arbitrary seeds and
//! stream shapes — not just the curated matrix rows — the pool, with a
//! worker per site and multiplexed, must produce the identical final
//! answers and the identical metered cost as the deterministic
//! reference. This is the
//! randomized companion to the equivalence suites: the matrix pins 77
//! named rows forever, while this test walks fresh seeds every run
//! (deterministically, via the offline proptest runner's fixed RNG).

use dtrack_testkit::{
    run_scenario_on_backend, run_scenario_reference, AssignmentSpec, BackendKind, GeneratorSpec,
    ProtocolSpec, Scenario,
};
use proptest::prelude::*;

/// The protocol families under test, indexable by a fuzzed byte. Counter
/// and heavy hitters cover the multiset side, the quantile pair covers
/// order statistics, CGMR covers the baseline path.
fn protocol(idx: u8) -> ProtocolSpec {
    match idx % 5 {
        0 => ProtocolSpec::Counter,
        1 => ProtocolSpec::HhExact,
        2 => ProtocolSpec::QuantileExact { phi: 0.5 },
        3 => ProtocolSpec::QuantileSketched { phi: 0.5 },
        _ => ProtocolSpec::Cgmr,
    }
}

fn generator(idx: u8) -> GeneratorSpec {
    match idx % 3 {
        0 => GeneratorSpec::Uniform { universe: 1 << 20 },
        1 => GeneratorSpec::Zipf {
            universe: 1 << 16,
            s: 1.1,
        },
        _ => GeneratorSpec::SortedRamp { start: 0, step: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Same seed ⇒ identical answers and identical meter on every
    /// backend, for arbitrary (protocol, generator, k, n, seed) points.
    #[test]
    fn backends_agree_on_arbitrary_scenarios(
        proto_idx in 0u8..5,
        gen_idx in 0u8..3,
        k in 3u32..6,
        n in 1_500u64..3_500,
        seed in 1u64..1_000_000,
    ) {
        let scenario = Scenario {
            generator: generator(gen_idx),
            assignment: AssignmentSpec::RoundRobin,
            k,
            epsilon: 0.1,
            n,
            seed,
            protocol: protocol(proto_idx),
            tuning: Default::default(),
            faults: Default::default(),
        };
        let name = scenario.to_string();
        let reference = run_scenario_reference(&scenario)
            .map_err(|f| TestCaseError::fail(format!("{f}")))?;
        for backend in [
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let outcome = run_scenario_on_backend(&scenario, backend)
                .map_err(|f| TestCaseError::fail(format!("{f}")))?;
            prop_assert_eq!(
                &outcome.answers,
                &reference.answers,
                "[{}] answers diverge on {:?}",
                name,
                backend
            );
            prop_assert_eq!(
                (outcome.report.words, outcome.report.messages),
                (reference.report.words, reference.report.messages),
                "[{}] meter diverges on {:?}",
                name,
                backend
            );
        }
    }
}
