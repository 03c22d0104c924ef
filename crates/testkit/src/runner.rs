//! Drive one [`Scenario`] end-to-end through the [`Tracker`] facade.
//!
//! One generic driver serves every protocol (construction, checkpoint
//! checks, and budgets come from the [`crate::registry`]) and every
//! backend (the facade hides the runtime). Entry points:
//!
//! * [`run_scenario`] — differential mode on the deterministic backend:
//!   feed the assigned stream through the protocol tracker and the exact
//!   oracle in lockstep, check the ε-guarantee at periodic checkpoints
//!   and at the end, then check the metered communication against the
//!   paper's bound.
//! * [`run_scenario_on`] — the same differential run on a chosen
//!   [`BackendKind`]; the site-at-a-time schedule makes the pool
//!   transcript-identical, so the same budgets apply.
//! * [`measure_cost`] — meter-only mode: feed the same stream and report
//!   the metered cost without maintaining an oracle or enforcing the
//!   budget. This is what the experiment harness uses for its scaling
//!   tables, where n reaches 10⁷ and an exact oracle per run would
//!   dominate the runtime, and where parameter sweeps (ε → 0.005,
//!   k → 64) deliberately leave the calibrated-budget envelope.

use crate::bound::word_budget;
use crate::registry::{self, WarmupPolicy};
use crate::report::{ScenarioFailure, ScenarioReport};
use crate::scenario::Scenario;
use dtrack_core::ExactOracle;
use dtrack_sim::{BackendKind, SiteId, Tracker};

pub use dtrack_sim::PROBE_PHIS;

/// How a scenario is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Oracle checks at checkpoints + communication budget enforced.
    Check,
    /// Meter only: no oracle, no budget enforcement.
    Meter,
}

/// How items are delivered to the tracker. Both paths are
/// transcript-identical by construction; the per-item path exists so
/// differential tests can prove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedMode {
    /// Checkpoint-aligned chunks through [`Tracker::feed_batch`].
    Batched,
    /// One [`Tracker::feed`] call per item (the pre-batching behavior).
    PerItem,
}

/// Items per `feed_batch` call. Large enough to amortize per-call
/// overhead, small enough to stay cache-resident; checkpoints shorten the
/// final chunk before each boundary so check timing is unaffected. The
/// pool driver (and the bench harness's facade-vs-direct cells) ship
/// the same chunks so every driver sees identical same-site runs.
pub const FEED_CHUNK: u64 = 4096;

/// Run a scenario to completion in differential mode on the
/// deterministic backend.
///
/// Returns the cost/accuracy report, or the first guarantee violation
/// with the scenario name attached (every failure is replayable: the
/// scenario is fully seeded).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    dispatch(
        scenario,
        Mode::Check,
        FeedMode::Batched,
        BackendKind::Deterministic,
    )
}

/// [`run_scenario`] on an explicit backend. The batched site-at-a-time
/// schedule keeps the pool's transcript — and therefore its
/// budget compliance — bit-identical to the deterministic one.
pub fn run_scenario_on(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ScenarioReport, ScenarioFailure> {
    dispatch(scenario, Mode::Check, FeedMode::Batched, backend)
}

/// Feed the scenario's stream and report metered cost only — no oracle,
/// no budget enforcement (`checks` is 0 in the report).
pub fn measure_cost(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    dispatch(
        scenario,
        Mode::Meter,
        FeedMode::Batched,
        BackendKind::Deterministic,
    )
}

/// Differential-testing aid: [`run_scenario`], but delivering every item
/// through a separate [`Tracker::feed`] call instead of `feed_batch`. The
/// report must be identical to [`run_scenario`]'s — the batch path is an
/// optimization, not a semantic change — and `testkit`'s differential
/// tests assert exactly that.
pub fn run_scenario_per_item(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    dispatch(
        scenario,
        Mode::Check,
        FeedMode::PerItem,
        BackendKind::Deterministic,
    )
}

/// Differential-testing aid: per-item variant of [`measure_cost`] (see
/// [`run_scenario_per_item`]).
pub fn measure_cost_per_item(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    dispatch(
        scenario,
        Mode::Meter,
        FeedMode::PerItem,
        BackendKind::Deterministic,
    )
}

/// Run every scenario in differential mode, stopping at the first failure.
pub fn run_matrix(scenarios: &[Scenario]) -> Result<Vec<ScenarioReport>, ScenarioFailure> {
    scenarios.iter().map(run_scenario).collect()
}

fn dispatch(
    scenario: &Scenario,
    mode: Mode,
    feed: FeedMode,
    backend: BackendKind,
) -> Result<ScenarioReport, ScenarioFailure> {
    let fail = |detail: String| ScenarioFailure {
        scenario: scenario.to_string(),
        detail,
    };
    if scenario.k < 2 {
        return Err(fail("scenarios need k >= 2".to_owned()));
    }
    let profile = registry::profile(scenario.protocol);
    let policy = match mode {
        Mode::Check => WarmupPolicy::Differential,
        Mode::Meter => WarmupPolicy::ProtocolDefault,
    };
    let warmup = registry::resolve_warmup(profile, scenario, policy).map_err(&fail)?;
    let tracker = (profile.build)(scenario, warmup, backend).map_err(&fail)?;
    drive(scenario, mode, feed, warmup, tracker, profile.check).map_err(fail)
}

/// Feed the scenario's stream through `tracker`; in differential mode
/// also maintain the oracle, call `check` at every checkpoint and at the
/// end, and verify the communication budget.
///
/// The default delivery is [`FeedMode::Batched`]: items go to the tracker
/// in chunks of up to [`FEED_CHUNK`] through [`Tracker::feed_batch`], with
/// every chunk cut at the next checkpoint boundary so checks observe
/// exactly the same prefixes as per-item delivery. The oracle ingests
/// lazily, so observing a whole chunk before feeding it changes nothing it
/// can answer at the checkpoint.
fn drive(
    scenario: &Scenario,
    mode: Mode,
    feed: FeedMode,
    warmup: u64,
    mut tracker: Tracker,
    check: registry::CheckFn,
) -> Result<ScenarioReport, String> {
    let mut oracle = ExactOracle::new();
    let check_every = scenario.check_every();
    let mut checks = 0u64;
    let mut stream = scenario.stream();
    // The seeded fault schedule: each event fires after exactly `at`
    // items, at a quiescent boundary, on every backend and feed mode
    // alike — so faulted transcripts stay replayable and comparable.
    // After a kill, accuracy checks run against a 2ε twin (one site's
    // un-synced residual is gone for good; the relaxation is exactly one
    // extra site-threshold of slack), and the dead site's later items
    // are statically rerouted by `FaultPlan::route`.
    scenario
        .faults
        .validate(scenario.k, scenario.n)
        .map_err(|e| format!("invalid fault plan: {e}"))?;
    let schedule = scenario.faults.schedule();
    let mut next_event = 0usize;
    let relaxed = Scenario {
        epsilon: scenario.epsilon * 2.0,
        ..*scenario
    };
    let mut kill_seen = false;
    // Inject every event scheduled at exactly `fed` items (the runner
    // settles first, so the fault lands on a quiescent transcript).
    let inject_due = |fed: u64,
                      next_event: &mut usize,
                      kill_seen: &mut bool,
                      tracker: &mut Tracker|
     -> Result<(), String> {
        while let Some(&(at, event)) = schedule.get(*next_event) {
            if at != fed {
                break;
            }
            tracker.settle();
            tracker
                .inject_fault(event)
                .map_err(|e| format!("fault injection at item {fed}: {e}"))?;
            if matches!(event, dtrack_sim::FaultEvent::KillSite { .. }) {
                *kill_seen = true;
            }
            *next_event += 1;
        }
        Ok(())
    };
    match feed {
        FeedMode::Batched => {
            let mut batch: Vec<(SiteId, u64)> =
                Vec::with_capacity(FEED_CHUNK.min(scenario.n) as usize);
            let mut fed = 0u64;
            inject_due(0, &mut next_event, &mut kill_seen, &mut tracker)?;
            while fed < scenario.n {
                let mut stop = scenario.n.min(fed + FEED_CHUNK);
                if mode == Mode::Check {
                    // Cut the chunk at the next checkpoint boundary.
                    let next_check = (fed / check_every + 1) * check_every;
                    stop = stop.min(next_check);
                }
                if let Some(&(at, _)) = schedule.get(next_event) {
                    // Cut at the next fault boundary (both modes: faults
                    // perturb the metered transcript, not just checks).
                    stop = stop.min(at);
                }
                batch.clear();
                for idx in fed..stop {
                    let (site, item) = stream
                        .next()
                        .ok_or_else(|| format!("stream ended early at item {fed}"))?;
                    if mode == Mode::Check {
                        oracle.observe(item);
                    }
                    batch.push((scenario.faults.route(idx, site, scenario.k), item));
                }
                tracker
                    .feed_batch(&batch)
                    .map_err(|e| format!("feed_batch failed in items {fed}..{stop}: {e}"))?;
                fed = stop;
                if mode == Mode::Check && fed.is_multiple_of(check_every) {
                    // Checkpoint *before* any same-index fault: the check
                    // observes the last healthy prefix at full strictness.
                    let s = if kill_seen { &relaxed } else { scenario };
                    checks += check(&mut tracker, &oracle, s)
                        .map_err(|e| format!("checkpoint at item {fed}: {e}"))?;
                }
                inject_due(fed, &mut next_event, &mut kill_seen, &mut tracker)?;
            }
        }
        FeedMode::PerItem => {
            inject_due(0, &mut next_event, &mut kill_seen, &mut tracker)?;
            for (i, (site, item)) in stream.enumerate() {
                if mode == Mode::Check {
                    oracle.observe(item);
                }
                let site = scenario.faults.route(i as u64, site, scenario.k);
                tracker
                    .feed(site, item)
                    .map_err(|e| format!("feed failed at item {i}: {e}"))?;
                let fed = (i + 1) as u64;
                if mode == Mode::Check && fed.is_multiple_of(check_every) {
                    let s = if kill_seen { &relaxed } else { scenario };
                    checks += check(&mut tracker, &oracle, s)
                        .map_err(|e| format!("checkpoint at item {fed}: {e}"))?;
                }
                inject_due(fed, &mut next_event, &mut kill_seen, &mut tracker)?;
            }
        }
    }
    if mode == Mode::Check && !scenario.n.is_multiple_of(check_every) {
        // The loop already checkpointed at fed == n when check_every
        // divides n; only the ragged tail needs a final pass.
        let s = if kill_seen { &relaxed } else { scenario };
        checks += check(&mut tracker, &oracle, s).map_err(|e| format!("final check: {e}"))?;
    }

    // Tear down through finish() so a dead pool site surfaces as an
    // error instead of silently yielding a partial transcript; the
    // returned meter is the post-settle merge cost() would have given.
    let meter = tracker
        .finish()
        .map_err(|e| format!("teardown failed: {e}"))?;
    let words = meter.total_words();
    let messages = meter.total_messages();
    let by_kind = kind_rows(&meter);
    let budget = word_budget(scenario, warmup);
    if mode == Mode::Check && words > budget {
        return Err(format!(
            "communication bound violated: {words} words > budget {budget} \
             (k={}, eps={}, n={})",
            scenario.k, scenario.epsilon, scenario.n
        ));
    }
    Ok(ScenarioReport {
        scenario: scenario.to_string(),
        protocol: scenario.protocol.label(),
        k: scenario.k,
        epsilon: scenario.epsilon,
        n: scenario.n,
        words,
        messages,
        budget_words: budget,
        checks,
        by_kind,
    })
}

/// Flatten a meter's sorted per-kind breakdown into the
/// `(label, words, messages)` rows [`ScenarioReport`] carries.
pub(crate) fn kind_rows(meter: &dtrack_sim::MessageMeter) -> Vec<(String, u64, u64)> {
    meter
        .report()
        .by_kind
        .into_iter()
        .map(|(kind, cost)| (kind, cost.words, cost.messages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AssignmentSpec, GeneratorSpec, ProtocolSpec};

    fn base(protocol: ProtocolSpec) -> Scenario {
        Scenario::new(
            GeneratorSpec::Zipf {
                universe: 1 << 18,
                s: 1.2,
            },
            AssignmentSpec::RoundRobin,
            4,
            0.1,
            3_000,
            5,
            protocol,
        )
    }

    #[test]
    fn measure_cost_skips_checks_but_meters() {
        let r = measure_cost(&base(ProtocolSpec::HhExact)).unwrap();
        assert_eq!(r.checks, 0);
        assert!(r.words > 0);
        assert!(r.messages > 0);
    }

    #[test]
    fn measure_and_check_modes_meter_comparably() {
        // Same scenario, same stream; differential mode shortens warm-up
        // (n/8 = 375 < the k/ε = 40 default? no: uses min), so force one
        // warm-up for an exact cost match across modes.
        let s = base(ProtocolSpec::HhExact).with_warmup(100);
        let checked = run_scenario(&s).unwrap();
        let metered = measure_cost(&s).unwrap();
        assert_eq!(checked.words, metered.words);
        assert_eq!(checked.messages, metered.messages);
        assert!(checked.checks > 0);
        assert_eq!(metered.checks, 0);
    }

    #[test]
    fn resync_tuning_changes_cost() {
        let s = base(ProtocolSpec::HhExact);
        let default = measure_cost(&s).unwrap();
        let eager = measure_cost(&s.with_resync_after(1)).unwrap();
        assert_ne!(default.words, eager.words);
    }

    #[test]
    fn granularity_tuning_changes_cost() {
        let s = base(ProtocolSpec::QuantileExact { phi: 0.5 });
        let default = measure_cost(&s).unwrap();
        let coarse = measure_cost(&s.with_granularity(6)).unwrap();
        assert_ne!(default.words, coarse.words);
    }

    #[test]
    fn differential_mode_passes_on_the_threaded_backend_too() {
        // The site-at-a-time schedule is transcript-identical, so the
        // same differential run (checks, budget, words) must succeed and
        // meter identically on real threads, one pool worker per site.
        let s = base(ProtocolSpec::HhExact);
        let det = run_scenario(&s).unwrap();
        let pool = run_scenario_on(&s, BackendKind::Sharded { workers: Some(16) }).unwrap();
        assert_eq!(det, pool);
    }
}
