//! Drive one [`Scenario`] end-to-end through the [`Tracker`] facade.
//!
//! One driver serves every protocol (construction, checkpoint checks and
//! budgets come from the [`crate::registry`]), every backend (the facade
//! hides the runtime) and every mode. It validates the fault plan,
//! streams the routed scenario, cuts it into chunks at checkpoints and
//! fault boundaries, injects each fault at a quiescent point, and
//! returns one [`ScenarioOutcome`]. The entry points differ only in the
//! mode, backend and [`Delivery`] they pass:
//!
//! * [`run_scenario`] / [`run_scenario_on`] — differential mode: feed the
//!   stream through the tracker and the exact oracle in lockstep, check
//!   the ε-guarantee at periodic checkpoints and at the end, then check
//!   the metered words against the paper's bound. The settled
//!   site-at-a-time schedule keeps the pool's transcript identical to
//!   the deterministic one, so the same budgets apply on every backend.
//! * [`measure_cost`] — meter-only mode: the same stream, no oracle and
//!   no budget enforcement. This is what the experiment harness uses for
//!   its scaling tables, where n reaches 10⁷ and an exact oracle per run
//!   would dominate the runtime, and where parameter sweeps (ε → 0.005,
//!   k → 64) deliberately leave the calibrated-budget envelope.
//! * [`run_scenario_on_backend`] / [`run_scenario_reference`] /
//!   [`run_scenario_traced`] — meter-only mode on a chosen backend, with
//!   the protocol's canonical final answers (and, traced, the merged
//!   event stream). The equivalence suites compare these across
//!   backends and against the golden fixture.
//! * [`measure_on_backend`] — free-running mode for throughput: items
//!   flow to all sites concurrently with a single settle at the end.
//!   Wall-clock is the interesting output; the metered words are *not*
//!   transcript-pinned, because arrivals interleave with in-flight
//!   communication.
//! * [`run_scenario_per_item`] / [`measure_cost_per_item`] — differential
//!   and meter-only mode with one [`Tracker::feed`] call per item. Their
//!   reports must equal the batched ones: the batch path is an
//!   optimization, not a semantic change.
//!
//! Answers are typed [`dtrack_sim::Answer`]s whose `Display` reproduces
//! the legacy canonical strings (sorted where the underlying query has no
//! inherent order), so "identical answers" is plain `Vec<Answer>`
//! equality — meaningful across runtimes and cheap to diff.

use crate::bound::{free_run_word_budget, word_budget};
use crate::registry::{self, WarmupPolicy};
use crate::report::{ScenarioFailure, ScenarioOutcome, ScenarioReport};
use crate::scenario::Scenario;
use dtrack_core::ExactOracle;
use dtrack_sim::{BackendKind, FaultEvent, SimError, SiteId, TraceConfig, Tracker};
use std::time::{Duration, Instant};

pub use dtrack_sim::PROBE_PHIS;

/// What a run checks, and whether it is settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Oracle checks at checkpoints + communication budget enforced.
    Check,
    /// Meter only: no oracle, no budget enforcement.
    Meter,
    /// Free-running ingest: no per-cascade synchronization, the AIMD
    /// controller armed with the budget rate, the free-run budget
    /// reported.
    Free,
}

/// How the driver hands the stream to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// One [`Tracker::feed`] call per item — the per-hop baseline.
    PerItem,
    /// The batched path: one [`Tracker::feed_batch`] per chunk on a
    /// settled run; per-site runs through [`Tracker::ingest`] (see
    /// [`ingest_site_runs`]) when free-running, keeping every pool worker
    /// busy with `Site::on_items` fast-path consumption.
    Batched,
}

/// Items per `feed_batch` call. Large enough to amortize per-call
/// overhead, small enough to stay cache-resident; checkpoints shorten the
/// final chunk before each boundary so check timing is unaffected. The
/// bench harness's facade-vs-direct cells ship the same chunks so every
/// driver sees identical same-site runs.
pub const FEED_CHUNK: u64 = 4096;

/// Target per-site run length for free-running batched ingest: long
/// enough to amortize the channel hop, short enough that (with the
/// backend's one-run window) a site never runs far ahead of coordinator
/// feedback. Public so the bench harness's facade-vs-direct cells use
/// the same run length as the headline `threaded-batched:` cells.
pub const FREE_RUN: usize = 128;

/// Target for the *total* items in flight across all sites during
/// free-running batched ingest. With a one-run window per site, k sites
/// at [`FREE_RUN`] items each would put `k·128` items in flight — at
/// k = 256 that is 16% of a 200k stream racing ahead of coordinator
/// feedback, the stale-threshold flood the pool's run window exists to
/// prevent. [`free_run_len`] shortens per-site runs as
/// k grows so the aggregate stays near this target.
pub const FREE_RUN_INFLIGHT: usize = 4096;

/// Per-site run length for free-running batched ingest at k sites:
/// [`FREE_RUN`] while the aggregate window fits [`FREE_RUN_INFLIGHT`],
/// shrinking (never below 16) as sites multiply. At the k = 4 of the
/// headline `threaded-batched:` cells this is exactly [`FREE_RUN`].
pub fn free_run_len(k: u32) -> usize {
    (FREE_RUN_INFLIGHT / (k.max(1) as usize)).clamp(16, FREE_RUN)
}

/// Run a scenario to completion in differential mode on the
/// deterministic backend.
///
/// Returns the cost/accuracy report, or the first guarantee violation
/// with the scenario name attached (every failure is replayable: the
/// scenario is fully seeded).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    run_scenario_on(scenario, BackendKind::Deterministic)
}

/// [`run_scenario`] on an explicit backend. The batched site-at-a-time
/// schedule keeps the pool's transcript — and therefore its
/// budget compliance — bit-identical to the deterministic one.
pub fn run_scenario_on(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ScenarioReport, ScenarioFailure> {
    drive(scenario, backend, Mode::Check, Delivery::Batched, None).map(|o| o.report)
}

/// Feed the scenario's stream and report metered cost only — no oracle,
/// no budget enforcement (`checks` is 0 in the report). The stream is
/// generated chunk by chunk, never held whole.
pub fn measure_cost(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    run_scenario_reference(scenario).map(|o| o.report)
}

/// Differential-testing aid: [`run_scenario`], but delivering every item
/// through a separate [`Tracker::feed`] call instead of `feed_batch`. The
/// report must be identical to [`run_scenario`]'s, and `testkit`'s
/// differential tests assert exactly that.
pub fn run_scenario_per_item(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    let det = BackendKind::Deterministic;
    drive(scenario, det, Mode::Check, Delivery::PerItem, None).map(|o| o.report)
}

/// Differential-testing aid: per-item variant of [`measure_cost`] (see
/// [`run_scenario_per_item`]).
pub fn measure_cost_per_item(scenario: &Scenario) -> Result<ScenarioReport, ScenarioFailure> {
    let det = BackendKind::Deterministic;
    drive(scenario, det, Mode::Meter, Delivery::PerItem, None).map(|o| o.report)
}

/// Run every scenario in differential mode, stopping at the first failure.
pub fn run_matrix(scenarios: &[Scenario]) -> Result<Vec<ScenarioReport>, ScenarioFailure> {
    scenarios.iter().map(run_scenario).collect()
}

/// Meter the scenario on any backend on the settled site-at-a-time
/// schedule, keeping the final answers: answers and metered words are
/// transcript-identical to [`run_scenario_reference`] (and therefore to
/// [`measure_cost`] and the golden fixture) on every backend.
pub fn run_scenario_on_backend(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    drive(scenario, backend, Mode::Meter, Delivery::Batched, None)
}

/// [`run_scenario_on_backend`] on the deterministic backend: the
/// reference the pool's outcomes are compared against.
pub fn run_scenario_reference(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioFailure> {
    run_scenario_on_backend(scenario, BackendKind::Deterministic)
}

/// [`run_scenario_on_backend`] with tracing enabled for the whole run:
/// the outcome's `trace` field carries the merged event stream. The ring
/// is sized generously (2²⁰ events per lane) so matrix-scale replays keep
/// their full prefix — `trace_diff` needs the *first* divergence, which
/// the default overwrite-oldest ring would discard on long streams.
pub fn run_scenario_traced(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    let trace = Some(TraceConfig::on().with_ring_capacity(1 << 20));
    drive(scenario, backend, Mode::Meter, Delivery::Batched, trace)
}

/// Feed the scenario's stream through `backend` free-running (no
/// per-cascade synchronization) and report the final cost and answers.
/// This is the throughput path the bench harness times.
pub fn measure_on_backend(
    scenario: &Scenario,
    delivery: Delivery,
    backend: BackendKind,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    drive(scenario, backend, Mode::Free, delivery, None)
}

/// Hand `part` to `tracker` as one [`Tracker::ingest`] run per site, in
/// site order: the free-running batched delivery. `runs` holds one
/// (empty) buffer per site between calls.
pub fn ingest_site_runs(
    tracker: &mut Tracker,
    part: &[(SiteId, u64)],
    runs: &mut [Vec<u64>],
) -> Result<(), SimError> {
    for &(site, item) in part {
        runs[site.index()].push(item);
    }
    for (i, items) in runs.iter_mut().enumerate() {
        if !items.is_empty() {
            tracker.ingest(SiteId(i as u32), std::mem::take(items))?;
        }
    }
    Ok(())
}

/// Run `f`, adding its wall-clock time to `total`. The driver's only
/// clock: it wraps tracker calls alone, so `ingest_ms` leaves out stream
/// generation, oracle upkeep, checkpoints and construction.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

fn drive(
    scenario: &Scenario,
    backend: BackendKind,
    mode: Mode,
    delivery: Delivery,
    trace: Option<TraceConfig>,
) -> Result<ScenarioOutcome, ScenarioFailure> {
    drive_untagged(scenario, backend, mode, delivery, trace).map_err(|detail| ScenarioFailure {
        scenario: scenario.to_string(),
        detail,
    })
}

/// The driver proper; [`drive`] tags its errors with the scenario name.
///
/// Items reach the tracker in chunks of up to [`FEED_CHUNK`] (or one
/// round of per-site runs when free-running batched), every chunk cut at
/// the next fault boundary and, in differential mode, at the next
/// checkpoint, so checks observe exactly the prefixes per-item delivery
/// would. The oracle ingests lazily, so observing a whole chunk before
/// feeding it changes nothing it can answer at the checkpoint.
fn drive_untagged(
    scenario: &Scenario,
    backend: BackendKind,
    mode: Mode,
    delivery: Delivery,
    trace: Option<TraceConfig>,
) -> Result<ScenarioOutcome, String> {
    let (k, n) = (scenario.k, scenario.n);
    if k < 2 {
        return Err("scenarios need k >= 2".to_owned());
    }
    scenario
        .faults
        .validate(k, n)
        .map_err(|e| format!("invalid fault plan: {e}"))?;
    // Differential runs pin warm-up (see `WarmupPolicy`); metered and
    // free runs keep the protocol default so cost numbers reflect the
    // paper's configuration.
    let policy = match mode {
        Mode::Check => WarmupPolicy::Differential,
        Mode::Meter | Mode::Free => WarmupPolicy::ProtocolDefault,
    };
    let (mut tracker, warmup) = registry::build_tracker(scenario, policy, backend)?;
    if let Some(config) = trace {
        tracker.set_trace(config);
    }
    let budget = word_budget(scenario, warmup);
    if mode == Mode::Free {
        // Arm the AIMD controller's rate-drift signal: the reference
        // words-per-item is the settled budget spread over the stream, so
        // a free-running site that starts flooding stale-threshold deltas
        // pushes the observed rate past the drift threshold and gets its
        // window halved.
        tracker.cost_hint(budget as f64 / n.max(1) as f64);
    }

    // Rerouting is static (a pure function of the fault plan), so the
    // whole delivered stream — post-kill redirections included — is
    // identical on every backend and in every mode.
    let mut stream = scenario
        .stream()
        .enumerate()
        .map(|(i, (site, item))| (scenario.faults.route(i as u64, site, k), item));
    // A free-running run is timed against a stream generated up front, so
    // the pool gets no untimed slack while the next chunk is generated.
    // Settled runs stream chunk by chunk and never hold the whole stream.
    let pregenerated: Vec<(SiteId, u64)> = match mode {
        Mode::Free => stream.by_ref().collect(),
        Mode::Check | Mode::Meter => Vec::new(),
    };
    let chunk_len = match (mode, delivery) {
        (Mode::Free, Delivery::Batched) => (free_run_len(k) * k as usize) as u64,
        _ => FEED_CHUNK,
    };
    let mut chunk: Vec<(SiteId, u64)> = Vec::new();
    let mut runs: Vec<Vec<u64>> = vec![Vec::new(); k as usize];

    let check = registry::profile(scenario.protocol).check;
    let check_every = scenario.check_every();
    let mut oracle = ExactOracle::new();
    let mut checks = 0u64;
    // After a kill, accuracy checks run against a 2ε twin: one site's
    // un-synced residual is gone for good, and the relaxation is exactly
    // one extra site-threshold of slack.
    let relaxed = Scenario {
        epsilon: scenario.epsilon * 2.0,
        ..*scenario
    };
    let mut kill_seen = false;
    let schedule = scenario.faults.schedule();
    let mut next_event = 0usize;
    let mut ingest = Duration::ZERO;
    let mut fed = 0u64;
    loop {
        // Inject every event scheduled at exactly `fed` items, settling
        // first so the fault lands on a quiescent transcript: same
        // position on every backend and in every mode, so faulted
        // transcripts stay replayable and comparable.
        while let Some(&(_, event)) = schedule.get(next_event).filter(|&&(at, _)| at == fed) {
            timed(&mut ingest, || {
                tracker.settle();
                tracker.inject_fault(event)
            })
            .map_err(|e| format!("fault injection at item {fed}: {e}"))?;
            kill_seen |= matches!(event, FaultEvent::KillSite { .. });
            next_event += 1;
        }
        if fed == n {
            break;
        }
        let mut stop = n.min(fed + chunk_len);
        if mode == Mode::Check {
            stop = stop.min((fed / check_every + 1) * check_every);
        }
        if let Some(&(at, _)) = schedule.get(next_event) {
            stop = stop.min(at);
        }
        let part: &[(SiteId, u64)] = match mode {
            Mode::Free => pregenerated
                .get(fed as usize..stop as usize)
                .unwrap_or_default(),
            Mode::Check | Mode::Meter => {
                chunk.clear();
                chunk.extend(stream.by_ref().take((stop - fed) as usize));
                &chunk
            }
        };
        if part.len() as u64 != stop - fed {
            return Err(format!("stream ended early in items {fed}..{stop}"));
        }
        if mode == Mode::Check {
            for &(_, item) in part {
                oracle.observe(item);
            }
        }
        timed(&mut ingest, || match (delivery, mode) {
            (Delivery::PerItem, _) => part
                .iter()
                .try_for_each(|&(site, item)| tracker.feed(site, item)),
            (Delivery::Batched, Mode::Free) => ingest_site_runs(&mut tracker, part, &mut runs),
            (Delivery::Batched, Mode::Check | Mode::Meter) => tracker.feed_batch(part),
        })
        .map_err(|e| format!("feeding items {fed}..{stop} failed: {e}"))?;
        fed = stop;
        if mode == Mode::Check && fed.is_multiple_of(check_every) {
            // Checkpoint *before* any same-index fault: the check
            // observes the last healthy prefix at full strictness.
            let s = if kill_seen { &relaxed } else { scenario };
            checks += check(&mut tracker, &oracle, s)
                .map_err(|e| format!("checkpoint at item {fed}: {e}"))?;
        }
    }
    if mode == Mode::Check && !n.is_multiple_of(check_every) {
        // The loop already checkpointed at fed == n when check_every
        // divides n; only the ragged tail needs a final pass.
        let s = if kill_seen { &relaxed } else { scenario };
        checks += check(&mut tracker, &oracle, s).map_err(|e| format!("final check: {e}"))?;
    }
    timed(&mut ingest, || tracker.settle());

    let answers = tracker
        .answers()
        .map_err(|e| format!("final answers: {e}"))?;
    // Snapshot the event rings before teardown; the settle above already
    // quiesced, so the stream is complete.
    let trace = match trace {
        Some(_) => tracker.trace_events(),
        None => Vec::new(),
    };
    // Tear down through finish() so a dead pool site surfaces as an
    // error instead of silently yielding a partial transcript; the
    // returned meter is the post-settle merge cost() would have given.
    let meter = tracker
        .finish()
        .map_err(|e| format!("teardown failed: {e}"))?;
    let words = meter.total_words();
    if mode == Mode::Check && words > budget {
        return Err(format!(
            "communication bound violated: {words} words > budget {budget} \
             (k={k}, eps={}, n={n})",
            scenario.epsilon
        ));
    }
    Ok(ScenarioOutcome {
        report: ScenarioReport {
            scenario: scenario.to_string(),
            protocol: scenario.protocol.label(),
            k,
            epsilon: scenario.epsilon,
            n,
            words,
            messages: meter.total_messages(),
            // Free-running rows get the drift-headroom budget; settled
            // rows stay on the transcript-pinned budget.
            budget_words: match mode {
                Mode::Free => free_run_word_budget(scenario, warmup),
                Mode::Check | Mode::Meter => budget,
            },
            checks,
            by_kind: meter
                .report()
                .by_kind
                .into_iter()
                .map(|(kind, cost)| (kind, cost.words, cost.messages))
                .collect(),
        },
        answers,
        ingest_ms: ingest.as_secs_f64() * 1e3,
        trace,
    })
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

    /// [`base`] with bursty site assignment and another seed: long
    /// same-site runs for the pool's run window to chew on.
    fn bursty(protocol: ProtocolSpec) -> Scenario {
        Scenario {
            assignment: AssignmentSpec::Bursts { burst_len: 61 },
            seed: 11,
            ..base(protocol)
        }
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

    /// A pool of `workers` must replay the reference run of [`bursty`]
    /// heavy hitters transcript-identically: same answers, words and
    /// messages.
    fn assert_pool_matches_reference(workers: Option<usize>) {
        let s = bursty(ProtocolSpec::HhExact);
        let det = run_scenario_reference(&s).unwrap();
        let sh = run_scenario_on_backend(&s, BackendKind::Sharded { workers }).unwrap();
        assert_eq!(sh.answers, det.answers, "workers={workers:?}");
        assert_eq!(sh.report.words, det.report.words, "workers={workers:?}");
        assert_eq!(
            sh.report.messages, det.report.messages,
            "workers={workers:?}"
        );
    }

    #[test]
    fn threaded_matches_reference_for_hh() {
        // The machine-default pool: one worker per core.
        assert_pool_matches_reference(None);
    }

    #[test]
    fn sharded_matches_reference_through_the_generic_driver() {
        // Multiplexed (workers < k) and over-provisioned (workers > k)
        // pools.
        assert_pool_matches_reference(Some(2));
        assert_pool_matches_reference(Some(16));
    }

    /// Free-running [`bursty`] counts on a pool of `workers` must
    /// complete through both deliveries, meter words and answer.
    fn assert_free_running_completes(workers: usize) {
        let s = bursty(ProtocolSpec::Counter);
        let backend = BackendKind::Sharded {
            workers: Some(workers),
        };
        for delivery in [Delivery::PerItem, Delivery::Batched] {
            let out = measure_on_backend(&s, delivery, backend).unwrap();
            assert_eq!(out.answers.len(), 1);
            assert!(
                out.report.words > 0,
                "{delivery:?} on {workers} workers metered nothing"
            );
        }
    }

    #[test]
    fn free_running_ingest_completes_and_answers() {
        // More workers than sites: every site has a worker of its own.
        assert_free_running_completes(16);
    }

    #[test]
    fn sharded_free_running_ingest_completes_and_answers() {
        // Multiplexed: 2 workers for 4 sites.
        assert_free_running_completes(2);
    }

    #[test]
    fn free_running_words_stay_within_the_drift_headroom_budget() {
        // The contract the AIMD controller is held to: free-running rows
        // report the 1.5x drift-headroom budget and stay inside it.
        let backend = BackendKind::Sharded { workers: Some(16) };
        for protocol in [ProtocolSpec::Counter, ProtocolSpec::HhExact] {
            let s = bursty(protocol);
            let out = measure_on_backend(&s, Delivery::Batched, backend).unwrap();
            let settled = run_scenario_reference(&s).unwrap();
            assert!(
                out.report.budget_words > settled.report.budget_words,
                "free-running rows must carry the headroom budget, got {} vs settled {}",
                out.report.budget_words,
                settled.report.budget_words,
            );
            assert!(
                out.report.words <= out.report.budget_words,
                "{protocol:?}: free-running words {} blew the headroom budget {} (settled words {})",
                out.report.words,
                out.report.budget_words,
                settled.report.words,
            );
        }
    }

    #[test]
    fn answers_render_the_canonical_strings() {
        let s = bursty(ProtocolSpec::QuantileExact { phi: 0.5 });
        let out = run_scenario_reference(&s).unwrap();
        let rendered: Vec<String> = out.answers.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), 2);
        assert!(rendered[0].starts_with("quantile="), "{rendered:?}");
        assert!(rendered[1].starts_with("n="), "{rendered:?}");
    }
}
