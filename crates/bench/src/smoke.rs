//! Smoke benchmark: fixed scenarios per protocol family, timed end-to-end
//! and emitted as a JSON snapshot.
//!
//! ```text
//! cargo run --release -p dtrack-bench --bin experiments -- smoke
//! ```
//!
//! writes `BENCH_pr10.json` — the current point of the repo's performance
//! trajectory (`BENCH_seed.json` through `BENCH_pr9.json` are the frozen
//! earlier baselines). For the deterministic cells the metered
//! words/messages are bit-for-bit deterministic (regressions there are
//! protocol changes, not noise); wall-clock throughput is indicative.
//!
//! Six cell groups:
//!
//! * n = 20 000 deterministic cells — match the seed snapshot one-to-one
//!   for before/after comparisons;
//! * n = 200 000 deterministic cells (PR 2) — keep per-item costs visible
//!   as fixed per-run overheads shrink;
//! * n = 200 000 **threaded** cells (PR 3) — the parallel ingest engine
//!   (the work-stealing pool at its machine-default worker count), each
//!   protocol measured twice: per-item delivery (one queue hop per item,
//!   the baseline) and batched delivery (whole per-site runs through
//!   `Site::on_items`). Their words are *not* pinned:
//!   free-running ingest interleaves arrivals with in-flight
//!   communication, so the transcript legitimately varies run to run (the
//!   site-at-a-time equivalence tests pin the deterministic schedule
//!   instead). The batched/per-item throughput ratio is the headline
//!   number — it is what batching buys on real threads.
//! * **facade-vs-direct** cells (PR 4) — the same ingest driven once
//!   through the `Tracker` facade and once against the bare
//!   `Cluster`/`ShardedCluster`, on both backends, per protocol. The
//!   facade's erasure sits at batch/query granularity, so its overhead
//!   must be noise (`facade_overhead_geomean` ≈ 1.00, acceptance ≤ 1.02);
//!   each cell is best-of-2 to keep scheduler noise out of the ratio.
//! * **flow-control** cells (PR 7) — free-running batched ingest at
//!   k ∈ {64, 256} on the pool through the `Tracker` facade, three ways per
//!   (k, protocol) point: a pinned deterministic twin (the words
//!   reference), the pre-PR-7 fixed window
//!   (`FlowControlConfig::fixed`), and the adaptive AIMD controller
//!   with a `cost_hint` installed. Two enforced numbers come out:
//!   `adaptive_vs_fixed_throughput` (geomean of adaptive/fixed
//!   throughput, must be ≥ 1.0 — adaptation must not tax the happy
//!   path) and `free_run_words_factor` (worst metered-words ratio of
//!   any *adaptive* cell over its deterministic twin, must stay ≤ 1.5
//!   — the controller's drift contract, the same factor
//!   `FREE_RUN_HEADROOM` the testkit budgets free runs with; the fixed
//!   baseline is exempt, since it exists to exhibit the unregulated
//!   drift).
//! * **trace-overhead** cells (PR 10) — the deterministic ingest (the
//!   tightest per-item loop, where a hot-path branch would show first)
//!   driven once against the bare `Cluster` exactly as pre-trace callers
//!   ran it, and once through the `Tracker` facade with tracing
//!   *explicitly disabled* (`TraceConfig::off()`), per pair protocol.
//!   The trace layer's contract is that the disabled instrumentation is
//!   one relaxed load and a never-taken branch per event site, so
//!   `trace_overhead_geomean` must be noise (acceptance ≤ 1.02, same
//!   ceiling as the facade gate); each cell is best-of-2. Tracing *on*
//!   is deliberately not a perf cell: its acceptance story is the
//!   transparency suite (answers and metered words byte-identical), not
//!   a throughput number.

use dtrack_core::counter::CounterProtocol;
use dtrack_core::hh::{HhConfig, HhExactProtocol, HhSketchedProtocol};
use dtrack_core::quantile::{QuantileConfig, QuantileSketchedProtocol};
use dtrack_sim::sharded::{RunTicket, ShardedCluster};
use dtrack_sim::{BackendKind, Cluster, FlowControlConfig, Protocol, SiteId, TraceConfig, Tracker};
use dtrack_testkit::runner::{free_run_len, ingest_site_runs};
use dtrack_testkit::{
    measure_cost, measure_on_backend, AssignmentSpec, Delivery, GeneratorSpec, ProtocolSpec,
    Scenario,
};
use std::time::Instant;

/// File name of the smoke snapshot written by `experiments smoke`.
pub const SMOKE_SNAPSHOT: &str = "BENCH_pr10.json";

/// One timed smoke cell.
#[derive(Debug, Clone)]
pub struct SmokeResult {
    /// Replayable scenario name, prefixed with the runtime mode for
    /// threaded cells (`threaded-per-item:` / `threaded-batched:`).
    pub scenario: String,
    /// Metered words (deterministic for deterministic cells; indicative
    /// for free-running pool cells).
    pub words: u64,
    /// Metered messages (same caveat as `words`).
    pub messages: u64,
    /// Wall-clock time for the whole run.
    pub wall_ms: f64,
    /// Items fed per wall-clock second.
    pub items_per_sec: f64,
}

/// The protocol axis of the deterministic smoke matrix.
const SMOKE_PROTOCOLS: [ProtocolSpec; 9] = [
    ProtocolSpec::Counter,
    ProtocolSpec::HhExact,
    ProtocolSpec::HhSketched,
    ProtocolSpec::QuantileExact { phi: 0.5 },
    ProtocolSpec::QuantileSketched { phi: 0.5 },
    ProtocolSpec::AllQExact,
    ProtocolSpec::Cgmr,
    ProtocolSpec::Polling,
    ProtocolSpec::ForwardAll,
];

/// The protocol axis of the pool throughput cells. A spread over the
/// interesting site-side behaviors: O(1) quiet-stretch swallowing
/// (counter), exact per-item stores (hh-exact), sketch stores
/// (hh-sketched), and tree-based quantile tracking (quantile-sketched).
const THREADED_PROTOCOLS: [ProtocolSpec; 4] = [
    ProtocolSpec::Counter,
    ProtocolSpec::HhExact,
    ProtocolSpec::HhSketched,
    ProtocolSpec::QuantileSketched { phi: 0.5 },
];

/// Stream length of the pool throughput cells.
pub const THREADED_N: u64 = 200_000;

fn smoke_scenario(protocol: ProtocolSpec, n: u64) -> Scenario {
    Scenario::new(
        GeneratorSpec::Zipf {
            universe: 1 << 20,
            s: 1.2,
        },
        AssignmentSpec::RoundRobin,
        4,
        0.1,
        n,
        1,
        protocol,
    )
}

/// The deterministic smoke matrix: every protocol family at the
/// seed-comparable size (n = 20k) and at the PR 2 throughput size
/// (n = 200k).
pub fn smoke_scenarios() -> Vec<Scenario> {
    let mut out = Vec::with_capacity(2 * SMOKE_PROTOCOLS.len());
    for n in [20_000u64, 200_000] {
        for protocol in SMOKE_PROTOCOLS {
            out.push(smoke_scenario(protocol, n));
        }
    }
    out
}

/// The pool throughput cells (PR 3): per-protocol scenarios driven
/// through the pool free-running, once per ingest mode.
pub fn threaded_scenarios() -> Vec<Scenario> {
    THREADED_PROTOCOLS
        .iter()
        .map(|&p| smoke_scenario(p, THREADED_N))
        .collect()
}

/// The runtime of the free-running pool cells: the work-stealing pool
/// at its machine-default worker count.
const POOL: BackendKind = BackendKind::Sharded { workers: None };

/// Stream length of the k ≫ cores flow-control cells.
pub const SCALE_N: u64 = 200_000;

fn scale_scenario(protocol: ProtocolSpec, k: u32, n: u64) -> Scenario {
    Scenario::new(
        GeneratorSpec::Zipf {
            universe: 1 << 20,
            s: 1.2,
        },
        AssignmentSpec::RoundRobin,
        k,
        0.1,
        n,
        1,
        protocol,
    )
}

/// Site counts of the PR 7 flow-control cells: past the core count,
/// where backpressure actually bites.
pub const FREE_KS: [u32; 2] = [64, 256];

/// The protocol axis of the flow-control cells: the O(1) quiet-stretch
/// counter (queue-hop bound) and the sketch-store heavy hitters
/// (site-compute bound) — the two extremes of per-item site work.
const FREE_PROTOCOLS: [ProtocolSpec; 2] = [ProtocolSpec::Counter, ProtocolSpec::HhSketched];

/// Flow-control cell prefixes: (deterministic twin, fixed window,
/// adaptive AIMD). Shared by the cell builder, both metric extractors,
/// and the structural tests, so a rename cannot silently empty them.
const FREE_TRIPLE: (&str, &str, &str) = ("free-det:", "free-fixed:", "free-adaptive:");

/// The drift ceiling enforced on every free-running cell — kept equal to
/// the testkit's [`dtrack_testkit::bound::FREE_RUN_HEADROOM`] budget
/// factor by the structural tests.
pub const FREE_WORDS_CEILING: f64 = dtrack_testkit::bound::FREE_RUN_HEADROOM;

/// Build the three flow-control cells for one (protocol, k) point: the
/// deterministic twin (pinned words, the drift reference), free-running
/// ingest behind the *fixed* pre-PR-7 window, and free-running ingest
/// behind the adaptive AIMD controller with the protocol's reference
/// rate installed via `cost_hint`.
fn push_free_cells<P: Protocol>(
    out: &mut Vec<SmokeResult>,
    p: &P,
    spec: ProtocolSpec,
    k: u32,
    n: u64,
) {
    let scenario = scale_scenario(spec, k, n);
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    let run_len = free_run_len(k);
    out.push(timed_cell(
        format!("{}{scenario}", FREE_TRIPLE.0),
        n,
        || {
            let mut tracker = Tracker::builder()
                .sites(k)
                .backend(BackendKind::Deterministic)
                .protocol(p.clone())
                .build()
                .expect("tracker");
            let start = Instant::now();
            for part in stream.chunks(PAIR_CHUNK) {
                tracker.feed_batch(part).expect("feed_batch");
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let meter = tracker.cost();
            (meter.total_words(), meter.total_messages(), wall_ms)
        },
    ));
    let fixed = FlowControlConfig::fixed(run_len as u32);
    // Tuned for the k ≫ cores cells: a 64-item floor keeps backoffs from
    // collapsing into the fixed baseline's tiny-run regime (per-run
    // enqueue overhead dominates below ~64 items/run at k = 256), and the
    // 1024 cap bounds how far one site's burst can run ahead of feedback.
    let adaptive = FlowControlConfig {
        win_min: 64,
        win_max: 1024,
        initial: (run_len as u32).max(128),
        increase: 32,
        ..FlowControlConfig::default()
    };
    // The reference words-per-item rate the controller holds free runs
    // to: the deterministic twin's *actual* rate — the golden transcript
    // this snapshot's words factor is judged against. (The testkit
    // drivers, which have no pinned twin at hand, install the scenario's
    // word *budget* rate instead — a looser bound for the same signal.)
    let det_words = out.last().expect("det twin just pushed").words;
    let ref_rate = det_words.max(1) as f64 / n.max(1) as f64;
    for (prefix, flow) in [(FREE_TRIPLE.1, fixed), (FREE_TRIPLE.2, adaptive)] {
        let hinted = prefix == FREE_TRIPLE.2;
        out.push(timed_cell(format!("{prefix}{scenario}"), n, || {
            let mut tracker = Tracker::builder()
                .sites(k)
                .backend(POOL)
                .flow_control(flow)
                .protocol(p.clone())
                .build()
                .expect("tracker");
            if hinted {
                tracker.cost_hint(ref_rate);
            }
            let mut runs = vec![Vec::new(); k as usize];
            let start = Instant::now();
            for part in stream.chunks(run_len * k as usize) {
                ingest_site_runs(&mut tracker, part, &mut runs).expect("ingest");
            }
            tracker.settle();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let meter = tracker.cost();
            (meter.total_words(), meter.total_messages(), wall_ms)
        }));
    }
}

/// The flow-control cells: [`FREE_PROTOCOLS`] × [`FREE_KS`], three cells
/// per point. `n` is [`SCALE_N`] in the real run; tests pass a small n
/// to exercise the actual cell builder cheaply.
fn free_flow_cells_at(n: u64) -> Vec<SmokeResult> {
    let mut out = Vec::new();
    for &k in &FREE_KS {
        let s = scale_scenario(ProtocolSpec::Counter, k, n);
        push_free_cells(
            &mut out,
            &CounterProtocol::new(s.epsilon).expect("epsilon"),
            ProtocolSpec::Counter,
            k,
            n,
        );
        let config = HhConfig::new(k, s.epsilon).expect("config");
        push_free_cells(
            &mut out,
            &HhSketchedProtocol::new(config),
            ProtocolSpec::HhSketched,
            k,
            n,
        );
    }
    // The hardcoded blocks above cannot iterate FREE_PROTOCOLS (each
    // adapter is a different type), so pin the coverage instead.
    for spec in FREE_PROTOCOLS {
        let label = spec.label();
        assert!(
            out.iter()
                .any(|c| c.scenario.contains(&format!(":{label}/"))),
            "flow-control cells missing for {label}"
        );
    }
    out
}

/// Geometric-mean throughput ratio of the `free-adaptive:` cells over
/// their `free-fixed:` twins (1.0 when no pairs are present). This is
/// the flow controller's no-regression acceptance number: on a healthy
/// cluster the AIMD window must ingest at least as fast as the old
/// fixed window.
pub fn adaptive_vs_fixed_throughput(results: &[SmokeResult]) -> f64 {
    let fixed_of = |suffix: &str| {
        results
            .iter()
            .find(|r| r.scenario.strip_prefix(FREE_TRIPLE.1) == Some(suffix))
            .map(|r| r.items_per_sec)
    };
    let mut log_sum = 0.0;
    let mut pairs = 0usize;
    for r in results {
        if let Some(name) = r.scenario.strip_prefix(FREE_TRIPLE.2) {
            if let Some(base) = fixed_of(name) {
                log_sum += (r.items_per_sec.max(1.0) / base.max(1.0)).ln();
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        (log_sum / pairs as f64).exp()
    }
}

/// Worst metered-words ratio of any `free-adaptive:` cell over its
/// pinned `free-det:` twin (1.0 when no cells are present). Free-running
/// ingest legitimately spends more words than the pinned schedule —
/// sites act on slightly stale thresholds — and the controller's
/// contract caps that drift at [`FREE_WORDS_CEILING`]. The `free-fixed:`
/// baseline cells are deliberately exempt: they exist to *exhibit* the
/// unregulated drift the controller eliminates (they routinely sit 4×
/// and worse over the pinned transcript), so gating them would just
/// forbid the comparison.
pub fn free_run_words_factor(results: &[SmokeResult]) -> f64 {
    let det_of = |suffix: &str| {
        results
            .iter()
            .find(|r| r.scenario.strip_prefix(FREE_TRIPLE.0) == Some(suffix))
            .map(|r| r.words)
    };
    let mut worst = 1.0f64;
    for r in results {
        if let Some(name) = r.scenario.strip_prefix(FREE_TRIPLE.2) {
            if let Some(det) = det_of(name) {
                worst = worst.max(r.words as f64 / det.max(1) as f64);
            }
        }
    }
    worst
}

fn mode_label(delivery: Delivery) -> &'static str {
    match delivery {
        Delivery::PerItem => "threaded-per-item",
        Delivery::Batched => "threaded-batched",
    }
}

/// Facade/direct cell-name prefixes per backend: (facade, direct).
/// Shared by the cell builders, [`facade_overhead_geomean`]'s pairing,
/// and the structural tests, so a rename cannot silently empty the
/// overhead metric.
const DET_PAIR: (&str, &str) = ("facade-det:", "direct-det:");
/// Pool twin of [`DET_PAIR`]. The `thr` prefix and the `threaded-…:`
/// cell names keep their original spelling so snapshots stay comparable
/// across the move onto the pool.
const THR_PAIR: (&str, &str) = ("facade-thr:", "direct-thr:");

/// Trace-overhead cell-name prefixes: (traced-off facade, pre-trace
/// bare-cluster baseline). Shared by the cell builder,
/// [`trace_overhead_geomean`]'s pairing, and the structural tests, so a
/// rename cannot silently empty the overhead metric.
const TRACE_PAIR: (&str, &str) = ("traced-off:", "trace-base:");

/// Items per deterministic `feed_batch` call in the facade/direct cells
/// — the testkit's chunking, so the pair cells mirror the drivers.
const PAIR_CHUNK: usize = dtrack_testkit::runner::FEED_CHUNK as usize;

/// Target per-site run length for the free-running pool pair cells —
/// the testkit's, so the pairs mirror the headline `threaded-batched:`
/// cells.
const PAIR_FREE_RUN: usize = dtrack_testkit::runner::FREE_RUN;

/// Build one timed cell from a closure that ingests the stream and
/// returns (words, messages). Best-of-2: construction state is rebuilt
/// for each attempt, only the faster ingest wall-clock is kept, so the
/// facade/direct *ratio* is not dominated by one unlucky scheduling.
fn timed_cell(name: String, n: u64, mut run_once: impl FnMut() -> (u64, u64, f64)) -> SmokeResult {
    let (mut words, mut messages, mut wall_ms) = run_once();
    let (w2, m2, t2) = run_once();
    if t2 < wall_ms {
        (words, messages, wall_ms) = (w2, m2, t2);
    }
    SmokeResult {
        scenario: name,
        words,
        messages,
        wall_ms,
        items_per_sec: n as f64 / (wall_ms / 1e3).max(1e-9),
    }
}

/// Deterministic ingest against the bare [`Cluster`] — no facade. Used
/// with [`DET_PAIR`]'s direct prefix and, under [`TRACE_PAIR`]'s
/// baseline prefix, as the pre-trace hot path the trace-overhead gate
/// compares against.
fn bare_deterministic<P: Protocol>(prefix: &str, p: &P, scenario: &Scenario) -> SmokeResult {
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    timed_cell(format!("{prefix}{scenario}"), scenario.n, || {
        let (sites, coordinator) = p.build(scenario.k).expect("protocol build");
        let mut cluster = Cluster::new(sites, coordinator).expect("cluster");
        let start = Instant::now();
        for part in stream.chunks(PAIR_CHUNK) {
            cluster.feed_batch(part).expect("feed_batch");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let meter = cluster.meter();
        (meter.total_words(), meter.total_messages(), wall_ms)
    })
}

fn direct_deterministic<P: Protocol>(p: &P, scenario: &Scenario) -> SmokeResult {
    bare_deterministic(DET_PAIR.1, p, scenario)
}

/// The same deterministic ingest through the [`Tracker`] facade.
fn facade_deterministic<P: Protocol>(p: &P, scenario: &Scenario) -> SmokeResult {
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    timed_cell(format!("{}{scenario}", DET_PAIR.0), scenario.n, || {
        let mut tracker = Tracker::builder()
            .sites(scenario.k)
            .backend(BackendKind::Deterministic)
            .protocol(p.clone())
            .build()
            .expect("tracker");
        let start = Instant::now();
        for part in stream.chunks(PAIR_CHUNK) {
            tracker.feed_batch(part).expect("feed_batch");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let meter = tracker.cost();
        (meter.total_words(), meter.total_messages(), wall_ms)
    })
}

/// Free-running batched ingest against the bare [`ShardedCluster`] —
/// the one-run-per-site ticket window hand-rolled, as pre-facade callers
/// had to.
fn direct_pool<P: Protocol>(p: &P, scenario: &Scenario) -> SmokeResult {
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    let k = scenario.k as usize;
    timed_cell(format!("{}{scenario}", THR_PAIR.1), scenario.n, || {
        let (sites, coordinator) = p.build(scenario.k).expect("protocol build");
        let cluster = ShardedCluster::spawn(sites, coordinator).expect("spawn");
        let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); k];
        let mut tickets: Vec<Option<RunTicket>> = (0..k).map(|_| None).collect();
        let start = Instant::now();
        for part in stream.chunks(PAIR_FREE_RUN * k) {
            for &(site, item) in part {
                per_site[site.index()].push(item);
            }
            for (i, items) in per_site.iter_mut().enumerate() {
                if !items.is_empty() {
                    if let Some(t) = tickets[i].take() {
                        t.wait().expect("run consumed");
                    }
                    tickets[i] = Some(
                        cluster
                            .ingest_run(SiteId(i as u32), std::mem::take(items))
                            .expect("ingest_run"),
                    );
                }
            }
        }
        for t in tickets.into_iter().flatten() {
            t.wait().expect("run consumed");
        }
        cluster.settle();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let meter = cluster.cost();
        let out = (meter.total_words(), meter.total_messages(), wall_ms);
        cluster.shutdown().expect("shutdown");
        out
    })
}

/// The same free-running batched ingest through the [`Tracker`] facade
/// (the ticket window lives inside the pool backend).
fn facade_pool<P: Protocol>(p: &P, scenario: &Scenario) -> SmokeResult {
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    let k = scenario.k as usize;
    timed_cell(format!("{}{scenario}", THR_PAIR.0), scenario.n, || {
        let mut tracker = Tracker::builder()
            .sites(scenario.k)
            .backend(POOL)
            .protocol(p.clone())
            .build()
            .expect("tracker");
        let mut runs = vec![Vec::new(); k];
        let start = Instant::now();
        for part in stream.chunks(PAIR_FREE_RUN * k) {
            ingest_site_runs(&mut tracker, part, &mut runs).expect("ingest");
        }
        tracker.settle();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let meter = tracker.cost();
        (meter.total_words(), meter.total_messages(), wall_ms)
    })
}

fn push_pair_cells<P: Protocol>(out: &mut Vec<SmokeResult>, p: &P, scenario: &Scenario) {
    out.push(direct_deterministic(p, scenario));
    out.push(facade_deterministic(p, scenario));
    out.push(direct_pool(p, scenario));
    out.push(facade_pool(p, scenario));
}

/// The facade-vs-direct cells: the [`THREADED_PROTOCOLS`] spread, each
/// measured through the facade and against the bare clusters, on both
/// backends. `n` is [`THREADED_N`] in the real run; tests pass a small
/// n to exercise the actual cell builder cheaply.
fn facade_direct_cells_at(n: u64) -> Vec<SmokeResult> {
    let mut out = Vec::new();
    let s = smoke_scenario(ProtocolSpec::Counter, n);
    push_pair_cells(
        &mut out,
        &CounterProtocol::new(s.epsilon).expect("epsilon"),
        &s,
    );
    let s = smoke_scenario(ProtocolSpec::HhExact, n);
    let config = HhConfig::new(s.k, s.epsilon).expect("config");
    push_pair_cells(&mut out, &HhExactProtocol::new(config), &s);
    let s = smoke_scenario(ProtocolSpec::HhSketched, n);
    let config = HhConfig::new(s.k, s.epsilon).expect("config");
    push_pair_cells(&mut out, &HhSketchedProtocol::new(config), &s);
    let s = smoke_scenario(ProtocolSpec::QuantileSketched { phi: 0.5 }, n);
    let config = QuantileConfig::new(s.k, s.epsilon, 0.5).expect("config");
    push_pair_cells(&mut out, &QuantileSketchedProtocol::new(config), &s);
    // The hardcoded blocks above cannot iterate THREADED_PROTOCOLS (each
    // adapter is a different type), so pin the coverage instead: every
    // protocol in the headline pool spread must have pair cells.
    for spec in THREADED_PROTOCOLS {
        let label = spec.label();
        assert!(
            out.iter()
                .any(|c| c.scenario.contains(&format!(":{label}/"))),
            "facade/direct pair cells missing for {label}"
        );
    }
    out
}

/// Deterministic ingest through the [`Tracker`] facade with tracing
/// *explicitly disabled* — the post-PR-10 hot path the trace-overhead
/// gate prices. `set_trace(TraceConfig::off())` exercises the full
/// install path (the per-site tracer handles are really distributed),
/// so the cell measures the disabled instrumentation, not its absence.
fn traced_off_deterministic<P: Protocol>(p: &P, scenario: &Scenario) -> SmokeResult {
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
    timed_cell(format!("{}{scenario}", TRACE_PAIR.0), scenario.n, || {
        let mut tracker = Tracker::builder()
            .sites(scenario.k)
            .backend(BackendKind::Deterministic)
            .protocol(p.clone())
            .build()
            .expect("tracker");
        tracker.set_trace(TraceConfig::off());
        let start = Instant::now();
        for part in stream.chunks(PAIR_CHUNK) {
            tracker.feed_batch(part).expect("feed_batch");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let meter = tracker.cost();
        (meter.total_words(), meter.total_messages(), wall_ms)
    })
}

fn push_trace_cells<P: Protocol>(out: &mut Vec<SmokeResult>, p: &P, scenario: &Scenario) {
    out.push(bare_deterministic(TRACE_PAIR.1, p, scenario));
    out.push(traced_off_deterministic(p, scenario));
}

/// The trace-overhead cells: the [`THREADED_PROTOCOLS`] spread through
/// the deterministic backend, once bare (the pre-trace hot path) and
/// once through the facade with tracing explicitly off. `n` is
/// [`THREADED_N`] in the real run; tests pass a small n to exercise the
/// actual cell builder cheaply.
fn trace_cells_at(n: u64) -> Vec<SmokeResult> {
    let mut out = Vec::new();
    let s = smoke_scenario(ProtocolSpec::Counter, n);
    push_trace_cells(
        &mut out,
        &CounterProtocol::new(s.epsilon).expect("epsilon"),
        &s,
    );
    let s = smoke_scenario(ProtocolSpec::HhExact, n);
    let config = HhConfig::new(s.k, s.epsilon).expect("config");
    push_trace_cells(&mut out, &HhExactProtocol::new(config), &s);
    let s = smoke_scenario(ProtocolSpec::HhSketched, n);
    let config = HhConfig::new(s.k, s.epsilon).expect("config");
    push_trace_cells(&mut out, &HhSketchedProtocol::new(config), &s);
    let s = smoke_scenario(ProtocolSpec::QuantileSketched { phi: 0.5 }, n);
    let config = QuantileConfig::new(s.k, s.epsilon, 0.5).expect("config");
    push_trace_cells(&mut out, &QuantileSketchedProtocol::new(config), &s);
    // Pin the coverage the same way the facade/direct builder does:
    // every pair protocol must have trace cells.
    for spec in THREADED_PROTOCOLS {
        let label = spec.label();
        assert!(
            out.iter()
                .any(|c| c.scenario.contains(&format!(":{label}/"))),
            "trace-overhead pair cells missing for {label}"
        );
    }
    out
}

/// Run the smoke matrix (deterministic + pool cells), timing each
/// scenario.
///
/// Workload tables (the 2^20-entry Zipf CDF) are process-wide immutable
/// assets shared by every cell, so they are built once in an untimed
/// prewarm pass; the timed cells then measure ingest throughput, not
/// table construction. (The seed snapshot predates the shared cache and
/// paid the build inside every cell.)
pub fn run_smoke() -> Vec<SmokeResult> {
    let scenarios = smoke_scenarios();
    for scenario in &scenarios {
        // Building the stream forces the generator's tables into the
        // process-wide cache; dropping it immediately keeps this O(1).
        let _ = scenario.stream();
    }
    let mut results: Vec<SmokeResult> = scenarios
        .iter()
        .map(|scenario| {
            let start = Instant::now();
            let report = measure_cost(scenario).expect("smoke scenario failed");
            let wall = start.elapsed();
            SmokeResult {
                scenario: report.scenario,
                words: report.words,
                messages: report.messages,
                wall_ms: wall.as_secs_f64() * 1e3,
                items_per_sec: scenario.n as f64 / wall.as_secs_f64().max(1e-9),
            }
        })
        .collect();
    for scenario in threaded_scenarios() {
        for delivery in [Delivery::PerItem, Delivery::Batched] {
            // Pool cells time ingest only (stream generation, spawn, and
            // teardown excluded — `ScenarioOutcome::ingest_ms`), so the
            // batched/per-item ratio measures the delivery path, not
            // shared setup costs.
            let outcome =
                measure_on_backend(&scenario, delivery, POOL).expect("pool smoke scenario failed");
            results.push(SmokeResult {
                scenario: format!("{}:{}", mode_label(delivery), outcome.report.scenario),
                words: outcome.report.words,
                messages: outcome.report.messages,
                wall_ms: outcome.ingest_ms,
                items_per_sec: scenario.n as f64 / (outcome.ingest_ms / 1e3).max(1e-9),
            });
        }
    }
    results.extend(facade_direct_cells_at(THREADED_N));
    results.extend(free_flow_cells_at(SCALE_N));
    results.extend(trace_cells_at(THREADED_N));
    results
}

/// Geometric mean of `items_per_sec` over `results` (0.0 when empty).
pub fn geomean_items_per_sec(results: &[SmokeResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = results.iter().map(|r| r.items_per_sec.max(1.0).ln()).sum();
    (log_sum / results.len() as f64).exp()
}

/// Geometric-mean speedup of the `threaded-batched:` cells over their
/// `threaded-per-item:` twins (1.0 when no pairs are present). This is
/// the acceptance number for batched parallel ingest.
pub fn threaded_batched_speedup(results: &[SmokeResult]) -> f64 {
    let rate_of = |prefix: &str, suffix: &str| {
        results
            .iter()
            .find(|r| r.scenario.strip_prefix(prefix) == Some(suffix))
            .map(|r| r.items_per_sec)
    };
    let mut log_sum = 0.0;
    let mut pairs = 0usize;
    for r in results {
        if let Some(name) = r.scenario.strip_prefix("threaded-batched:") {
            if let Some(base) = rate_of("threaded-per-item:", name) {
                log_sum += (r.items_per_sec.max(1.0) / base.max(1.0)).ln();
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        (log_sum / pairs as f64).exp()
    }
}

/// Geometric-mean wall-clock ratio of the `facade-…:` cells over their
/// `direct-…:` twins (1.0 when no pairs are present). 1.00 means the
/// facade costs nothing; the acceptance ceiling is 1.02 (≤ 2% overhead).
pub fn facade_overhead_geomean(results: &[SmokeResult]) -> f64 {
    let direct_of = |prefix: &str, suffix: &str| {
        results
            .iter()
            .find(|r| r.scenario.strip_prefix(prefix) == Some(suffix))
            .map(|r| r.wall_ms)
    };
    let mut log_sum = 0.0;
    let mut pairs = 0usize;
    for r in results {
        for (facade, direct) in [
            ("facade-det:", "direct-det:"),
            ("facade-thr:", "direct-thr:"),
        ] {
            if let Some(name) = r.scenario.strip_prefix(facade) {
                if let Some(base) = direct_of(direct, name) {
                    log_sum += (r.wall_ms.max(1e-6) / base.max(1e-6)).ln();
                    pairs += 1;
                }
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        (log_sum / pairs as f64).exp()
    }
}

/// Geometric-mean wall-clock ratio of the `traced-off:` cells over
/// their `trace-base:` twins (1.0 when no pairs are present). 1.00
/// means the disabled trace instrumentation costs nothing over the
/// pre-trace hot path; the acceptance ceiling is 1.02 (≤ 2% overhead),
/// the same ceiling the facade gate uses.
pub fn trace_overhead_geomean(results: &[SmokeResult]) -> f64 {
    let base_of = |suffix: &str| {
        results
            .iter()
            .find(|r| r.scenario.strip_prefix(TRACE_PAIR.1) == Some(suffix))
            .map(|r| r.wall_ms)
    };
    let mut log_sum = 0.0;
    let mut pairs = 0usize;
    for r in results {
        if let Some(name) = r.scenario.strip_prefix(TRACE_PAIR.0) {
            if let Some(base) = base_of(name) {
                log_sum += (r.wall_ms.max(1e-6) / base.max(1e-6)).ln();
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        (log_sum / pairs as f64).exp()
    }
}

/// The wall-clock overhead ceiling of the facade and disabled-trace
/// gates: at most 2% over the bare clusters.
const OVERHEAD_CEILING: f64 = 1.02;

/// Check the smoke's four enforced gates and return each one that
/// failed as (gate name, what it read), in this order:
///
/// * `facade` — [`facade_overhead_geomean`] ≤ 1.02: the facade costs
///   ≤ 2% over the bare clusters (geomean over best-of-2 pairs on both
///   backends, so scheduler noise is averaged out);
/// * `adaptive` — [`adaptive_vs_fixed_throughput`] ≥ 1.0: on a healthy
///   cluster the AIMD controller ingests no slower than the fixed window;
/// * `words` — [`free_run_words_factor`] ≤ [`FREE_WORDS_CEILING`]: every
///   adaptive free-running cell stays within the testkit's budget
///   headroom of its pinned deterministic twin;
/// * `trace` — [`trace_overhead_geomean`] ≤ 1.02: disabled
///   instrumentation (one relaxed load and a never-taken branch per
///   event site) costs ≤ 2% over the bare pre-trace ingest loop.
///
/// Every gate is evaluated, so one failure never hides another.
pub fn failed_gates(results: &[SmokeResult]) -> Vec<(&'static str, String)> {
    let mut failed = Vec::new();
    let facade = facade_overhead_geomean(results);
    if facade > OVERHEAD_CEILING {
        let msg = format!("facade overhead {facade:.3}x exceeds the {OVERHEAD_CEILING}x ceiling");
        failed.push(("facade", msg));
    }
    let adaptive = adaptive_vs_fixed_throughput(results);
    if adaptive < 1.0 {
        let msg = format!("adaptive flow control {adaptive:.2}x is slower than the fixed window");
        failed.push(("adaptive", msg));
    }
    let drift = free_run_words_factor(results);
    if drift > FREE_WORDS_CEILING {
        let msg = format!(
            "free-running words drift {drift:.3}x exceeds the {FREE_WORDS_CEILING:.1}x ceiling"
        );
        failed.push(("words", msg));
    }
    let trace = trace_overhead_geomean(results);
    if trace > OVERHEAD_CEILING {
        let msg =
            format!("disabled-trace overhead {trace:.3}x exceeds the {OVERHEAD_CEILING}x ceiling");
        failed.push(("trace", msg));
    }
    failed
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render smoke results as a stable, human-diffable JSON document.
pub fn smoke_json(results: &[SmokeResult]) -> String {
    let mut out = String::from("{\n  \"schema\": \"dtrack-bench-smoke/v8\",\n");
    out.push_str(&format!(
        "  \"threaded_batched_speedup\": {:.2},\n  \"facade_overhead_geomean\": {:.3},\n  \"adaptive_vs_fixed_throughput\": {:.2},\n  \"free_run_words_factor\": {:.3},\n  \"trace_overhead_geomean\": {:.3},\n  \"cells\": [\n",
        threaded_batched_speedup(results),
        facade_overhead_geomean(results),
        adaptive_vs_fixed_throughput(results),
        free_run_words_factor(results),
        trace_overhead_geomean(results)
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"words\": {}, \"messages\": {}, \
             \"wall_ms\": {:.3}, \"items_per_sec\": {:.0}}}{}\n",
            json_escape(&r.scenario),
            r.words,
            r.messages,
            r.wall_ms,
            r.items_per_sec,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_every_protocol_family_at_both_sizes() {
        let scenarios = smoke_scenarios();
        assert_eq!(scenarios.len(), 18);
        let labels: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.protocol.label()).collect();
        assert_eq!(labels.len(), 9);
        for n in [20_000u64, 200_000] {
            assert_eq!(scenarios.iter().filter(|s| s.n == n).count(), 9);
        }
    }

    #[test]
    fn threaded_cells_cover_the_parallel_axis() {
        let scenarios = threaded_scenarios();
        assert_eq!(scenarios.len(), 4);
        assert!(scenarios.iter().all(|s| s.n == THREADED_N));
        let labels: std::collections::BTreeSet<_> =
            scenarios.iter().map(|s| s.protocol.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let mk = |ips: f64| SmokeResult {
            scenario: "s".to_owned(),
            words: 1,
            messages: 1,
            wall_ms: 1.0,
            items_per_sec: ips,
        };
        let results = vec![mk(1e6), mk(4e6)];
        let g = geomean_items_per_sec(&results);
        assert!((g - 2e6).abs() < 1e3, "geomean of 1M and 4M is 2M, got {g}");
        assert_eq!(geomean_items_per_sec(&[]), 0.0);
    }

    #[test]
    fn speedup_pairs_batched_with_per_item_cells() {
        let mk = |name: &str, ips: f64| SmokeResult {
            scenario: name.to_owned(),
            words: 1,
            messages: 1,
            wall_ms: 1.0,
            items_per_sec: ips,
        };
        let results = vec![
            mk("threaded-per-item:counter/x", 1e6),
            mk("threaded-batched:counter/x", 3e6),
            mk("threaded-per-item:hh-exact/y", 2e6),
            mk("threaded-batched:hh-exact/y", 8e6),
            mk("counter/unrelated-deterministic", 5e6),
        ];
        // geomean(3, 4) = sqrt(12)
        let s = threaded_batched_speedup(&results);
        assert!((s - 12f64.sqrt()).abs() < 1e-9, "got {s}");
        assert_eq!(threaded_batched_speedup(&[]), 1.0);
    }

    #[test]
    fn facade_overhead_pairs_facade_with_direct_cells() {
        let mk = |name: &str, wall_ms: f64| SmokeResult {
            scenario: name.to_owned(),
            words: 1,
            messages: 1,
            wall_ms,
            items_per_sec: 1.0,
        };
        let results = vec![
            mk("direct-det:counter/x", 10.0),
            mk("facade-det:counter/x", 11.0),
            mk("direct-thr:counter/x", 20.0),
            mk("facade-thr:counter/x", 19.0),
            mk("threaded-per-item:counter/x", 5.0),
        ];
        // geomean(1.1, 0.95) = sqrt(1.045)
        let o = facade_overhead_geomean(&results);
        assert!((o - (1.1f64 * 0.95).sqrt()).abs() < 1e-9, "got {o}");
        assert_eq!(facade_overhead_geomean(&[]), 1.0);
    }

    #[test]
    fn facade_direct_cells_pair_up_and_feed_the_overhead_metric() {
        // Run the *real* cell builder at a small n so the test exercises
        // exactly what `experiments smoke` ships: a facade and a direct
        // cell per backend for every pair protocol, each pair visible to
        // the overhead extractor (so a renamed prefix or a dropped
        // protocol block can't silently turn the metric into its
        // no-pairs default of 1.0).
        let cells = facade_direct_cells_at(4_000);
        assert_eq!(cells.len(), 4 * THREADED_PROTOCOLS.len());
        for prefix in [DET_PAIR.0, DET_PAIR.1, THR_PAIR.0, THR_PAIR.1] {
            assert_eq!(
                cells
                    .iter()
                    .filter(|c| c.scenario.starts_with(prefix))
                    .count(),
                THREADED_PROTOCOLS.len(),
                "{prefix} cells missing"
            );
        }
        // Every facade cell found its direct twin: perturbing one pair's
        // facade wall-clock must move the geomean.
        let base = facade_overhead_geomean(&cells);
        assert!(base > 0.0);
        let mut perturbed = cells.clone();
        let f = perturbed
            .iter_mut()
            .find(|c| c.scenario.starts_with(DET_PAIR.0))
            .expect("facade cell");
        f.wall_ms *= 10.0;
        assert!(facade_overhead_geomean(&perturbed) > base);
        // Deterministic facade/direct twins meter identical words — the
        // facade adds no communication.
        for c in &cells {
            if let Some(name) = c.scenario.strip_prefix(DET_PAIR.0) {
                let twin = cells
                    .iter()
                    .find(|d| d.scenario.strip_prefix(DET_PAIR.1) == Some(name))
                    .expect("direct twin");
                assert_eq!(c.words, twin.words, "facade changed the transcript");
            }
        }
    }

    #[test]
    fn trace_overhead_pairs_traced_off_with_base_cells() {
        let mk = |name: &str, wall_ms: f64| SmokeResult {
            scenario: name.to_owned(),
            words: 1,
            messages: 1,
            wall_ms,
            items_per_sec: 1.0,
        };
        let results = vec![
            mk("trace-base:counter/x", 10.0),
            mk("traced-off:counter/x", 10.2),
            mk("trace-base:hh-exact/y", 20.0),
            mk("traced-off:hh-exact/y", 19.0),
            mk("facade-det:counter/x", 5.0),
        ];
        // geomean(1.02, 0.95) = sqrt(0.969)
        let o = trace_overhead_geomean(&results);
        assert!((o - (1.02f64 * 0.95).sqrt()).abs() < 1e-9, "got {o}");
        assert_eq!(trace_overhead_geomean(&[]), 1.0);
    }

    #[test]
    fn trace_cells_pair_up_and_feed_the_overhead_metric() {
        // Run the *real* cell builder at a small n so the test exercises
        // exactly what `experiments smoke` ships: a traced-off and a
        // bare-baseline cell for every pair protocol, each pair visible
        // to the overhead extractor (so a renamed prefix or a dropped
        // protocol block can't silently turn the gate into its no-pairs
        // default of 1.0).
        let cells = trace_cells_at(4_000);
        assert_eq!(cells.len(), 2 * THREADED_PROTOCOLS.len());
        for prefix in [TRACE_PAIR.0, TRACE_PAIR.1] {
            assert_eq!(
                cells
                    .iter()
                    .filter(|c| c.scenario.starts_with(prefix))
                    .count(),
                THREADED_PROTOCOLS.len(),
                "{prefix} cells missing"
            );
        }
        // Every traced-off cell found its baseline twin: perturbing one
        // pair's traced-off wall-clock must move the geomean.
        let base = trace_overhead_geomean(&cells);
        assert!(base > 0.0);
        let mut perturbed = cells.clone();
        let c = perturbed
            .iter_mut()
            .find(|c| c.scenario.starts_with(TRACE_PAIR.0))
            .expect("traced-off cell");
        c.wall_ms *= 10.0;
        assert!(trace_overhead_geomean(&perturbed) > base);
        // Disabling tracing is transparent down to the metered words —
        // the pair twins replay the identical deterministic transcript.
        for c in &cells {
            if let Some(name) = c.scenario.strip_prefix(TRACE_PAIR.0) {
                let twin = cells
                    .iter()
                    .find(|d| d.scenario.strip_prefix(TRACE_PAIR.1) == Some(name))
                    .expect("baseline twin");
                assert_eq!(
                    c.words, twin.words,
                    "disabled tracing changed the transcript"
                );
                assert_eq!(
                    c.messages, twin.messages,
                    "disabled tracing changed the transcript"
                );
            }
        }
    }

    #[test]
    #[ignore = "full-scale flow-control probe; run with --ignored --nocapture to tune"]
    fn free_flow_scale_probe() {
        let cells = free_flow_cells_at(SCALE_N);
        for c in &cells {
            println!(
                "{:<70} {:>9} words {:>9.1} ms",
                c.scenario, c.words, c.wall_ms
            );
        }
        println!(
            "throughput {:.2}x  words_factor {:.3}",
            adaptive_vs_fixed_throughput(&cells),
            free_run_words_factor(&cells)
        );
    }

    #[test]
    fn free_flow_cells_triple_up_and_feed_both_metrics() {
        // Run the *real* cell builder at a small n: a deterministic, a
        // fixed-window, and an adaptive cell per (k, protocol) point,
        // every pair visible to both extractors (so a renamed prefix
        // can't silently turn either gate into its no-pairs default).
        let cells = free_flow_cells_at(2_000);
        assert_eq!(cells.len(), 3 * FREE_KS.len() * FREE_PROTOCOLS.len());
        for prefix in [FREE_TRIPLE.0, FREE_TRIPLE.1, FREE_TRIPLE.2] {
            for k in FREE_KS {
                assert_eq!(
                    cells
                        .iter()
                        .filter(|c| c.scenario.starts_with(prefix)
                            && c.scenario.contains(&format!("/k{k}/")))
                        .count(),
                    FREE_PROTOCOLS.len(),
                    "{prefix} cells missing at k={k}"
                );
            }
        }
        // Every adaptive cell found its fixed twin: perturbing one
        // adaptive throughput must move the geomean.
        let base = adaptive_vs_fixed_throughput(&cells);
        assert!(base > 0.0);
        let mut perturbed = cells.clone();
        let c = perturbed
            .iter_mut()
            .find(|c| c.scenario.starts_with(FREE_TRIPLE.2))
            .expect("adaptive cell");
        c.items_per_sec *= 10.0;
        assert!(adaptive_vs_fixed_throughput(&perturbed) > base);
        assert_eq!(adaptive_vs_fixed_throughput(&[]), 1.0);
        // Every free-running cell found its deterministic twin. (The
        // ≤ [`FREE_WORDS_CEILING`] contract is enforced by `experiments
        // smoke` at the real [`SCALE_N`]; at this tiny n the per-run
        // sync overhead dominates and the ratio is legitimately larger.)
        let factor = free_run_words_factor(&cells);
        assert!(factor >= 1.0, "words factor {factor} below 1.0");
        let mut inflated = cells.clone();
        let c = inflated
            .iter_mut()
            .find(|c| c.scenario.starts_with(FREE_TRIPLE.2))
            .expect("adaptive cell");
        c.words *= 100;
        assert!(free_run_words_factor(&inflated) > factor);
        assert_eq!(free_run_words_factor(&[]), 1.0);
        // The ceiling is the testkit's budget headroom, not a drifting
        // local copy.
        assert_eq!(FREE_WORDS_CEILING, dtrack_testkit::bound::FREE_RUN_HEADROOM);
    }

    #[test]
    fn failed_gates_names_each_failure_and_passes_a_clean_set() {
        let mk = |name: &str, words: u64, wall_ms: f64| SmokeResult {
            scenario: name.to_owned(),
            words,
            messages: 1,
            wall_ms,
            items_per_sec: 1e6 / wall_ms,
        };
        let passing = vec![
            mk("direct-det:counter/x", 100, 10.0),
            mk("facade-det:counter/x", 100, 10.1),
            mk("trace-base:counter/x", 100, 10.0),
            mk("traced-off:counter/x", 100, 9.9),
            mk("free-det:counter/x", 100, 10.0),
            mk("free-fixed:counter/x", 400, 10.0),
            mk("free-adaptive:counter/x", 120, 8.0),
        ];
        assert_eq!(failed_gates(&passing), Vec::new());
        // Only the trace pair regresses: exactly that gate is named.
        let mut slow_trace = passing.clone();
        slow_trace[3].wall_ms = 10.5;
        let failed = failed_gates(&slow_trace);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].0, "trace");
        assert!(failed[0].1.contains("1.050x"), "{}", failed[0].1);
        // Words drift past the ceiling and a slower adaptive cell fail
        // together, in gate order.
        let mut drifting = passing.clone();
        drifting[6].words = 200;
        drifting[6].items_per_sec = 0.5e5;
        let names: Vec<_> = failed_gates(&drifting).into_iter().map(|f| f.0).collect();
        assert_eq!(names, ["adaptive", "words"]);
    }

    #[test]
    fn smoke_json_is_valid_enough() {
        let results = vec![SmokeResult {
            scenario: "hh-exact/zipf/round-robin/k4/eps0.1/n20000/seed1".to_owned(),
            words: 1234,
            messages: 567,
            wall_ms: 8.5,
            items_per_sec: 2_352_941.0,
        }];
        let j = smoke_json(&results);
        assert!(j.contains("\"schema\": \"dtrack-bench-smoke/v8\""));
        assert!(j.contains("\"threaded_batched_speedup\""));
        assert!(j.contains("\"facade_overhead_geomean\""));
        assert!(j.contains("\"adaptive_vs_fixed_throughput\""));
        assert!(j.contains("\"free_run_words_factor\""));
        assert!(j.contains("\"trace_overhead_geomean\""));
        assert!(j.contains("\"words\": 1234"));
        assert!(j.ends_with("]\n}\n"));
        // Balanced braces/brackets, no trailing comma before the close.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n  ]"));
    }
}
