//! Drive a [`Scenario`] through the multi-threaded pool — via the same
//! [`Tracker`] facade as [`crate::runner`], so there is no per-protocol
//! code here at all.
//!
//! Two generic entry points serve any [`BackendKind`] (in practice the
//! work-stealing pool at some worker count):
//!
//! * [`run_scenario_on_backend`] — site-at-a-time schedule through the
//!   backend's `feed_batch`: the transcript (final answers *and* metered
//!   words) must be bit-identical to the deterministic runner on the
//!   same stream, and `testkit`'s equivalence tests assert exactly that
//!   against the golden fixture for each pool shape.
//! * [`measure_on_backend`] — free-running parallel ingest for
//!   throughput benchmarks: items flow to all sites concurrently (per
//!   item or as per-site runs through [`Tracker::ingest`]) with a single
//!   settle at the end. Wall-clock is the interesting output; the
//!   metered words are *not* transcript-pinned here because arrivals
//!   interleave with in-flight communication.
//!
//! [`run_scenario_reference`] is the deterministic twin: same
//! construction, same chunked schedule, same answer extraction.
//!
//! Answers are typed [`Answer`]s whose `Display` reproduces the legacy
//! canonical strings (sorted where the underlying query has no inherent
//! order), so "identical answers" is plain `Vec<Answer>` equality —
//! meaningful across runtimes and cheap to diff in a failure message.

use crate::bound::{free_run_word_budget, word_budget};
use crate::registry::{self, WarmupPolicy};
use crate::report::{ScenarioFailure, ScenarioReport};
use crate::runner::{kind_rows, FEED_CHUNK};
use crate::scenario::Scenario;
use dtrack_sim::{Answer, BackendKind, SiteId, TraceConfig, TraceEvent, Tracker};
use std::time::Instant;

/// How [`measure_on_backend`] delivers items to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedIngest {
    /// One [`Tracker::feed`] call per item — the per-hop baseline.
    PerItem,
    /// Per-site runs through [`Tracker::ingest`], keeping every pool
    /// worker busy with `Site::on_items` fast-path consumption (the
    /// backend's AIMD flow controller paces run lengths per site).
    Batched,
}

/// Outcome of one pool (or reference) run: the usual cost report plus
/// the protocol's canonical final answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedOutcome {
    /// Cost summary (checks is always 0: accuracy is asserted by
    /// comparing answers against the deterministic reference, not by an
    /// in-run oracle).
    pub report: ScenarioReport,
    /// Typed canonical final answers (protocol-specific); `Display`
    /// renders the legacy canonical strings.
    pub answers: Vec<Answer>,
    /// Wall-clock milliseconds spent feeding the stream and settling —
    /// stream generation, tracker construction, and teardown excluded, so
    /// throughput comparisons measure ingest, not setup.
    pub ingest_ms: f64,
    /// Merged structured-event stream when the run was traced (see
    /// [`run_scenario_traced`]); empty on untraced runs.
    pub trace: Vec<TraceEvent>,
}

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

enum Exec {
    /// Chunked site-at-a-time `feed_batch` schedule (transcript-pinned
    /// on every backend).
    SiteAtATime,
    /// Free-running ingest (the pool; transcript not pinned).
    Free(ThreadedIngest),
}

/// Run the scenario through any backend on a site-at-a-time schedule;
/// answers and metered words are transcript-identical to
/// [`run_scenario_reference`] (and therefore to `measure_cost` and the
/// golden fixture) for every backend.
pub fn run_scenario_on_backend(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ThreadedOutcome, ScenarioFailure> {
    dispatch(scenario, Exec::SiteAtATime, backend, None)
}

/// [`run_scenario_on_backend`] with tracing enabled for the whole run:
/// the outcome's `trace` field carries the merged event stream. The ring
/// is sized generously (2²⁰ events per lane) so matrix-scale replays keep
/// their full prefix — `trace_diff` needs the *first* divergence, which
/// the default overwrite-oldest ring would discard on long streams.
pub fn run_scenario_traced(
    scenario: &Scenario,
    backend: BackendKind,
) -> Result<ThreadedOutcome, ScenarioFailure> {
    let config = TraceConfig::on().with_ring_capacity(1 << 20);
    dispatch(scenario, Exec::SiteAtATime, backend, Some(config))
}

/// Feed the scenario's stream through the pool free-running
/// (no per-cascade synchronization) and report the final cost and
/// answers. This is the throughput path the bench harness times.
pub fn measure_on_backend(
    scenario: &Scenario,
    ingest: ThreadedIngest,
    backend: BackendKind,
) -> Result<ThreadedOutcome, ScenarioFailure> {
    dispatch(scenario, Exec::Free(ingest), backend, None)
}

/// The deterministic twin of [`run_scenario_on_backend`]: same
/// construction, same chunked schedule, same answer extraction, driven
/// through the deterministic backend.
pub fn run_scenario_reference(scenario: &Scenario) -> Result<ThreadedOutcome, ScenarioFailure> {
    run_scenario_on_backend(scenario, BackendKind::Deterministic)
}

fn dispatch(
    scenario: &Scenario,
    exec: Exec,
    backend: BackendKind,
    trace: Option<TraceConfig>,
) -> Result<ThreadedOutcome, ScenarioFailure> {
    let fail = |detail: String| ScenarioFailure {
        scenario: scenario.to_string(),
        detail,
    };
    if scenario.k < 2 {
        return Err(fail("scenarios need k >= 2".to_owned()));
    }
    // Throughput/equivalence runs keep the protocol-default warm-up so
    // cost numbers reflect the paper's configuration.
    let (mut tracker, warmup): (Tracker, u64) =
        registry::build_tracker(scenario, WarmupPolicy::ProtocolDefault, backend).map_err(&fail)?;
    if let Some(config) = trace {
        tracker.set_trace(config);
    }
    let free_running = matches!(exec, Exec::Free(_));
    if free_running {
        // Arm the AIMD controller's rate-drift signal: the reference
        // words-per-item is the settled budget spread over the stream, so
        // a free-running site that starts flooding stale-threshold deltas
        // pushes the observed rate past reference × drift_factor and gets
        // its window halved.
        tracker.cost_hint(word_budget(scenario, warmup) as f64 / scenario.n.max(1) as f64);
    }
    scenario
        .faults
        .validate(scenario.k, scenario.n)
        .map_err(|e| fail(format!("invalid fault plan: {e}")))?;
    // Rerouting is static (a pure function of the fault plan), so the
    // whole delivered stream — including post-kill redirections — is
    // identical on every backend and in every exec mode.
    let stream: Vec<(SiteId, u64)> = scenario
        .stream()
        .enumerate()
        .map(|(i, (site, item))| (scenario.faults.route(i as u64, site, scenario.k), item))
        .collect();
    let chunk = FEED_CHUNK as usize;
    // Segment the stream at fault boundaries: each event fires after
    // exactly `at` items on a settled (quiescent) system, matching the
    // differential runner's injection points, so faulted transcripts
    // stay comparable across drivers.
    let schedule = scenario.faults.schedule();
    let mut boundaries: Vec<usize> = vec![0, stream.len()];
    boundaries.extend(schedule.iter().map(|&(at, _)| at as usize));
    boundaries.sort_unstable();
    boundaries.dedup();

    let start = Instant::now();
    for window in boundaries.windows(2) {
        let (seg_start, seg_end) = (window[0], window[1]);
        for &(at, event) in schedule.iter().filter(|&&(at, _)| at as usize == seg_start) {
            tracker.settle();
            tracker
                .inject_fault(event)
                .map_err(|e| fail(format!("fault injection at item {at}: {e}")))?;
        }
        let segment = &stream[seg_start..seg_end];
        match exec {
            Exec::SiteAtATime => {
                for part in segment.chunks(chunk) {
                    tracker.feed_batch(part).map_err(|e| fail(e.to_string()))?;
                }
            }
            Exec::Free(ThreadedIngest::PerItem) => {
                for &(site, item) in segment {
                    tracker.feed(site, item).map_err(|e| fail(e.to_string()))?;
                }
            }
            Exec::Free(ThreadedIngest::Batched) => {
                // Per chunk, hand every site its run at once so the pool's
                // workers chew in parallel; the backend's AIMD window
                // (seeded at this same k-aware run length) bounds total
                // in-flight items, keeping feedback staleness (and the
                // word flood it causes) independent of the site count.
                let k = scenario.k as usize;
                let run = free_run_len(scenario.k);
                let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); k];
                for part in segment.chunks(run * k) {
                    for &(site, item) in part {
                        per_site[site.index()].push(item);
                    }
                    for (i, items) in per_site.iter_mut().enumerate() {
                        if !items.is_empty() {
                            tracker
                                .ingest(SiteId(i as u32), std::mem::take(items))
                                .map_err(|e| fail(e.to_string()))?;
                        }
                    }
                }
            }
        }
    }
    tracker.settle();
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;

    let answers = tracker.answers().map_err(|e| fail(e.to_string()))?;
    // Snapshot the event rings before teardown; the settle above already
    // quiesced, so the stream is complete.
    let trace_events = if trace.is_some() {
        tracker.trace_events()
    } else {
        Vec::new()
    };
    // finish() both merges the final meter and surfaces site death —
    // a site that died after its queue drained must fail the run, not
    // return partial answers as a success.
    let meter = tracker.finish().map_err(|e| fail(e.to_string()))?;
    Ok(ThreadedOutcome {
        report: ScenarioReport {
            scenario: scenario.to_string(),
            protocol: scenario.protocol.label(),
            k: scenario.k,
            epsilon: scenario.epsilon,
            n: scenario.n,
            words: meter.total_words(),
            messages: meter.total_messages(),
            by_kind: kind_rows(&meter),
            // Free-running rows get the drift-headroom budget; settled
            // rows stay on the transcript-pinned budget.
            budget_words: if free_running {
                free_run_word_budget(scenario, warmup)
            } else {
                word_budget(scenario, warmup)
            },
            checks: 0,
        },
        answers,
        ingest_ms,
        trace: trace_events,
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
            AssignmentSpec::Bursts { burst_len: 61 },
            4,
            0.1,
            3_000,
            11,
            protocol,
        )
    }

    #[test]
    fn threaded_matches_reference_for_hh() {
        // The machine-default pool: one worker per core.
        let s = base(ProtocolSpec::HhExact);
        let thr = run_scenario_on_backend(&s, BackendKind::Sharded { workers: None }).unwrap();
        let det = run_scenario_reference(&s).unwrap();
        assert_eq!(thr.answers, det.answers);
        assert_eq!(thr.report.words, det.report.words);
        assert_eq!(thr.report.messages, det.report.messages);
    }

    #[test]
    fn sharded_matches_reference_through_the_generic_driver() {
        let s = base(ProtocolSpec::HhExact);
        let det = run_scenario_reference(&s).unwrap();
        // Multiplexed (workers < k) and over-provisioned (workers > k)
        // pools must both be transcript-identical.
        for workers in [2usize, 16] {
            let backend = BackendKind::Sharded {
                workers: Some(workers),
            };
            let sh = run_scenario_on_backend(&s, backend).unwrap();
            assert_eq!(sh.answers, det.answers, "workers={workers}");
            assert_eq!(sh.report.words, det.report.words, "workers={workers}");
            assert_eq!(sh.report.messages, det.report.messages, "workers={workers}");
        }
    }

    #[test]
    fn sharded_free_running_ingest_completes_and_answers() {
        let s = base(ProtocolSpec::Counter);
        let backend = BackendKind::Sharded { workers: Some(2) };
        for ingest in [ThreadedIngest::PerItem, ThreadedIngest::Batched] {
            let out = measure_on_backend(&s, ingest, backend).unwrap();
            assert_eq!(out.answers.len(), 1);
            assert!(out.report.words > 0, "{ingest:?} metered nothing");
        }
    }

    #[test]
    fn reference_words_match_measure_cost() {
        // The reference path must be the same transcript `measure_cost`
        // produces, or comparing pool runs against the golden meter
        // fixture would be meaningless.
        let s = base(ProtocolSpec::QuantileExact { phi: 0.5 });
        let reference = run_scenario_reference(&s).unwrap();
        let metered = crate::runner::measure_cost(&s).unwrap();
        assert_eq!(reference.report.words, metered.words);
        assert_eq!(reference.report.messages, metered.messages);
    }

    #[test]
    fn free_running_ingest_completes_and_answers() {
        // More workers than sites: every site has a worker of its own.
        let s = base(ProtocolSpec::Counter);
        let backend = BackendKind::Sharded { workers: Some(16) };
        for ingest in [ThreadedIngest::PerItem, ThreadedIngest::Batched] {
            let out = measure_on_backend(&s, ingest, backend).unwrap();
            assert_eq!(out.answers.len(), 1);
            assert!(out.report.words > 0, "{ingest:?} metered nothing");
        }
    }

    #[test]
    fn free_running_words_stay_within_the_drift_headroom_budget() {
        // The contract the AIMD controller is held to: free-running rows
        // report the 1.5x drift-headroom budget and stay inside it.
        let backend = BackendKind::Sharded { workers: Some(16) };
        for protocol in [ProtocolSpec::Counter, ProtocolSpec::HhExact] {
            let s = base(protocol);
            let out = measure_on_backend(&s, ThreadedIngest::Batched, backend).unwrap();
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
        let s = base(ProtocolSpec::QuantileExact { phi: 0.5 });
        let out = run_scenario_reference(&s).unwrap();
        let rendered: Vec<String> = out.answers.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), 2);
        assert!(rendered[0].starts_with("quantile="), "{rendered:?}");
        assert!(rendered[1].starts_with("n="), "{rendered:?}");
    }
}
