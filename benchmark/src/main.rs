//! The dtrack benchmark.
//!
//! ```text
//! dtrack-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` seconds as a series of passes. A pass
//! probes the host's speed (`host.rs`), builds a fresh tracker, feeds it
//! the whole pre-generated stream, and tears it down. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! medians over the passes, each time divided by its pass's host factor. With
//! `--trace 1` untraced passes alternate with passes whose protocol is
//! wrapped in the timing decorator of `layers.rs`, and the metrics are the
//! per-layer split. Every read answer is checked against the exact oracle
//! after the clock stops. See README.md for the metric definitions.

mod alloc;
mod host;
mod layers;
mod stats;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrack_core::allq::{AllQConfig, AllQExactProtocol};
use dtrack_core::hh::{HhConfig, HhSketchedProtocol};
use dtrack_core::ExactOracle;
use dtrack_sim::{
    Answer, BackendKind, FlowControlConfig, FlowControlStats, KindCost, Protocol, Query, SiteId,
    Tracker, HH_PROBE_PHIS, PROBE_PHIS,
};
use dtrack_sketch::{ExactOrdered, SpaceSaving};
use dtrack_testkit::bound::{free_run_word_budget, word_budget};
use dtrack_testkit::registry::{self, WarmupPolicy, DEFAULT_SETTLE_DEADLINE};
use dtrack_testkit::runner::FEED_CHUNK;
use dtrack_testkit::threaded::free_run_len;
use dtrack_testkit::{AssignmentSpec, GeneratorSpec, ProtocolSpec, Scenario};

use layers::{Sink, SpanCost, Spin, Timed, Totals};
use stats::{median, quantile, Metric};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Which protocol a workload tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// §4 all quantiles, exact sites (`AllQExactProtocol`).
    AllQ,
    /// §2 heavy hitters, SpaceSaving sites (`HhSketchedProtocol`).
    Hh,
}

/// One workload: a protocol, its parameters, a runtime and a feed shape.
/// Values are Zipf(s = 1.2) over 2^20, assigned to sites round-robin.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    family: Family,
    k: u32,
    epsilon: f64,
    n: u64,
    /// Pool worker threads, set explicitly so the workload keeps its shape
    /// on any host; `None` runs the deterministic backend.
    workers: Option<usize>,
    /// Items between mid-stream read probes (the five `PROBE_PHIS` as
    /// `Query::Quantile`, back to back); `None` reads nothing while
    /// ingesting.
    probe_every: Option<u64>,
}

const STREAM_LEN: u64 = 1 << 18;
const PROBE_EVERY: u64 = 16_384;
/// Streams per run, drawn from the run's seed; pass i feeds stream
/// i mod STREAMS. A run's medians then average over several streams, so one
/// seed whose stream happens to force extra rebuilds moves them less.
const STREAMS: usize = 8;

const WORKLOADS: [Workload; 2] = [
    // det-allq: the paper's §4 all-quantiles job with no threads. Sites'
    // ExactOrdered stores, the coordinator's tree and the deterministic
    // cluster's hop/meter path do all the work; round-robin means one
    // `on_items` call per item. It shows `core`, `sketch` and
    // `sim.cluster` changes and should not move for pool changes.
    Workload {
        name: "det-allq",
        family: Family::AllQ,
        k: 16,
        epsilon: 0.05,
        n: STREAM_LEN,
        workers: None,
        probe_every: Some(PROBE_EVERY),
    },
    // pool-hh-k256: the §2 heavy-hitters job with far more sites than
    // cores, fed free-running. Per-site run queues, work stealing and the
    // AIMD flow control do the work and no allq code runs. It shows
    // `sim.sharded` and `sim.flow` changes and should not move for allq
    // changes. Ingest only writes; its reads come after the final settle.
    Workload {
        name: "pool-hh-k256",
        family: Family::Hh,
        k: 256,
        epsilon: 0.1,
        n: STREAM_LEN,
        workers: Some(2),
        probe_every: None,
    },
];

/// How many times pool-hh-k256 repeats its heavy-hitter read probe on the
/// settled tracker after each pass.
const HH_FINAL_ROUNDS: usize = 32;

impl Workload {
    fn backend(&self) -> BackendKind {
        match self.workers {
            Some(workers) => BackendKind::Sharded {
                workers: Some(workers),
            },
            None => BackendKind::Deterministic,
        }
    }

    fn pooled(&self) -> bool {
        self.workers.is_some()
    }

    /// Answer tolerance: ε settled, 2ε free-running (the slack
    /// `tests/threaded_consistency.rs` asserts for free-running ingest).
    fn tolerance(&self) -> f64 {
        if self.pooled() {
            2.0 * self.epsilon
        } else {
            self.epsilon
        }
    }

    /// Items handed over per feed round: one `feed_batch` chunk, or one
    /// free-running run per site.
    fn chunk(&self) -> usize {
        if self.pooled() {
            free_run_len(self.k) * self.k as usize
        } else {
            FEED_CHUNK as usize
        }
    }

    fn spec(&self) -> ProtocolSpec {
        match self.family {
            Family::AllQ => ProtocolSpec::AllQExact,
            Family::Hh => ProtocolSpec::HhSketched,
        }
    }

    /// The heavy-hitter thresholds read after the final settle.
    fn hh_phis(&self) -> Vec<f64> {
        match self.family {
            Family::Hh => HH_PROBE_PHIS
                .into_iter()
                .filter(|&phi| phi > self.epsilon)
                .collect(),
            Family::AllQ => Vec::new(),
        }
    }
}

/// Everything a pass needs, built before any clock starts.
struct Ctx {
    w: Workload,
    seed: u64,
    streams: Vec<Vec<(SiteId, u64)>>,
    warmup: u64,
    /// Reference words per item for the flow controller, as the testkit's
    /// `measure_on_backend` installs it.
    cost_hint: f64,
    /// Word budget the final cost is checked against.
    budget: u64,
}

impl Ctx {
    fn new(w: Workload, seed: u64) -> Result<Ctx, String> {
        let scenario = |stream_seed| {
            Scenario::new(
                GeneratorSpec::Zipf {
                    universe: 1 << 20,
                    s: 1.2,
                },
                AssignmentSpec::RoundRobin,
                w.k,
                w.epsilon,
                w.n,
                stream_seed,
                w.spec(),
            )
        };
        let streams = (0..STREAMS as u64)
            .map(|i| {
                scenario(seed.wrapping_mul(STREAMS as u64).wrapping_add(i))
                    .stream()
                    .collect()
            })
            .collect();
        // The budget and the warm-up depend on k, ε and n, not the seed.
        let scenario = scenario(seed);
        let warmup = registry::resolve_warmup(
            registry::profile(scenario.protocol),
            &scenario,
            WarmupPolicy::ProtocolDefault,
        )?;
        let settled = word_budget(&scenario, warmup);
        let budget = if w.pooled() {
            free_run_word_budget(&scenario, warmup)
        } else {
            settled
        };
        let chunk = w.chunk() as u64;
        if let Some(every) = w.probe_every {
            if !every.is_multiple_of(chunk) {
                return Err(format!(
                    "probe cadence {every} is not a multiple of {chunk}"
                ));
            }
        }
        Ok(Ctx {
            w,
            seed,
            streams,
            warmup,
            cost_hint: settled as f64 / w.n as f64,
            budget,
        })
    }
}

/// One timed `Tracker::query` and what it returned.
struct Read {
    /// Items fed before the read.
    at: u64,
    ns: u64,
    answer: Result<Answer, String>,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    /// Which of the run's streams it fed.
    stream: usize,
    /// The host speed probes, timed just before the pass.
    host: host::Probe,
    setup_s: f64,
    /// The timed phase: first feed to the end of the final settle.
    wall_s: f64,
    heap_bytes: usize,
    words: u64,
    messages: u64,
    by_kind: Vec<(String, KindCost)>,
    reads: Vec<Read>,
    /// Time inside `feed_batch`/`ingest` calls (traced passes only).
    feed_ns: u64,
    feed_calls: u64,
    settle_ns: u64,
    flow: Option<FlowControlStats>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(what);
        }
    }

    fn read(&mut self, tracker: &mut Tracker, at: u64, query: Query) {
        self.attempted += 1;
        let start = Instant::now();
        let answer = tracker.query(query);
        let ns = start.elapsed().as_nanos() as u64;
        let answer = answer.map_err(|e| format!("{query} at {at}: {e}"));
        if let Err(e) = &answer {
            self.fail(e.clone());
        }
        self.reads.push(Read { at, ns, answer });
    }

    fn probe(&mut self, tracker: &mut Tracker, at: u64) {
        for phi in PROBE_PHIS {
            self.read(tracker, at, Query::Quantile { phi });
        }
    }
}

/// Run one pass of `ctx`'s workload on stream `stream` with `protocol`.
/// With `traced`, the benchmark's own facade calls are timed too.
fn run_pass<P: Protocol>(ctx: &Ctx, stream: usize, protocol: P, traced: bool) -> Pass {
    let w = &ctx.w;
    let mut pass = Pass {
        stream,
        ..Pass::default()
    };
    pass.host = host::Probe::measure(&ctx.streams[stream], w.k as usize, w.pooled());
    pass.attempted += 1;
    if !pass.host.factor().is_finite() {
        pass.fail(format!("host probe read {:?}", pass.host));
    }

    let started = Instant::now();
    let built = Tracker::builder()
        .sites(w.k)
        .backend(w.backend())
        .settle_deadline(DEFAULT_SETTLE_DEADLINE)
        .flow_control(FlowControlConfig {
            initial: free_run_len(w.k) as u32,
            ..FlowControlConfig::default()
        })
        .protocol(protocol)
        .build();
    pass.attempted += 1;
    let mut tracker = match built {
        Ok(tracker) => tracker,
        Err(e) => {
            pass.fail(format!("build: {e}"));
            return pass;
        }
    };
    tracker.cost_hint(ctx.cost_hint);
    pass.setup_s = started.elapsed().as_secs_f64();

    let heap_base = alloc::reset_peak();
    let t0 = Instant::now();
    let mut fed = 0u64;
    let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); w.k as usize];
    for part in ctx.streams[stream].chunks(w.chunk()) {
        if w.pooled() {
            // As the testkit's `measure_on_backend` feeds: every site's run of
            // this chunk at once, so all workers chew in parallel.
            for &(site, item) in part {
                per_site[site.index()].push(item);
            }
            for (i, items) in per_site.iter_mut().enumerate() {
                if items.is_empty() {
                    continue;
                }
                let items = std::mem::take(items);
                let site = SiteId(i as u32);
                pass.attempted += 1;
                let fed_ok = if traced {
                    pass.feed_calls += 1;
                    layers::span(&mut pass.feed_ns, || tracker.ingest(site, items))
                } else {
                    tracker.ingest(site, items)
                };
                if let Err(e) = fed_ok {
                    pass.fail(format!("ingest: {e}"));
                }
            }
        } else {
            pass.attempted += 1;
            let fed_ok = if traced {
                pass.feed_calls += 1;
                layers::span(&mut pass.feed_ns, || tracker.feed_batch(part))
            } else {
                tracker.feed_batch(part)
            };
            if let Err(e) = fed_ok {
                pass.fail(format!("feed_batch: {e}"));
            }
        }
        fed += part.len() as u64;
        if w.probe_every.is_some_and(|every| fed.is_multiple_of(every)) {
            pass.probe(&mut tracker, fed);
        }
    }
    let settle_start = Instant::now();
    tracker.settle();
    let end = Instant::now();
    pass.settle_ns = (end - settle_start).as_nanos() as u64;
    pass.wall_s = (end - t0).as_secs_f64();
    pass.heap_bytes = alloc::peak().saturating_sub(heap_base);

    let meter = tracker.cost();
    pass.words = meter.total_words();
    pass.messages = meter.total_messages();
    pass.by_kind = meter.report().by_kind;
    pass.attempted += 1;
    if pass.words > ctx.budget {
        pass.fail(format!(
            "{} words exceed the budget of {}",
            pass.words, ctx.budget
        ));
    }
    if traced && w.pooled() {
        pass.attempted += 1;
        match tracker.query(Query::FlowControl) {
            Ok(Answer::FlowControl(stats)) => pass.flow = Some(stats),
            other => pass.fail(format!("flow-control query answered {other:?}")),
        }
    }
    let phis = w.hh_phis();
    for _ in 0..HH_FINAL_ROUNDS {
        for &phi in &phis {
            pass.read(&mut tracker, fed, Query::HeavyHitters { phi });
        }
    }
    pass.attempted += 1;
    if let Err(e) = tracker.finish() {
        pass.fail(format!("finish: {e}"));
    }
    pass
}

/// Run one pass of `ctx`'s workload on stream `stream`, wrapped as `wrap`
/// says.
fn run_workload_pass(ctx: &Ctx, wrap: Wrap, stream: usize) -> (Pass, Totals, Vec<u64>) {
    match ctx.w.family {
        Family::AllQ => {
            let config = AllQConfig::new(ctx.w.k, ctx.w.epsilon)
                .expect("workload parameters are valid")
                .with_warmup_target(ctx.warmup);
            wrap.run(ctx, stream, AllQExactProtocol::new(config))
        }
        Family::Hh => {
            let config = HhConfig::new(ctx.w.k, ctx.w.epsilon)
                .expect("workload parameters are valid")
                .with_warmup_target(ctx.warmup);
            wrap.run(ctx, stream, HhSketchedProtocol::new(config))
        }
    }
}

/// How a pass's protocol is wrapped.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wrap {
    /// The protocol as is: the end-to-end configuration.
    Plain,
    /// Inside the timing decorator.
    Timed,
    /// Timed, with busy-work iterations added per site `on_items` call
    /// and per coordinator `on_message` call (the self-test).
    TimedSpin { site_iters: u64, coord_iters: u64 },
}

impl Wrap {
    fn run<P: Protocol>(self, ctx: &Ctx, stream: usize, protocol: P) -> (Pass, Totals, Vec<u64>) {
        match self {
            Wrap::Plain => (
                run_pass(ctx, stream, protocol, false),
                Totals::default(),
                Vec::new(),
            ),
            Wrap::Timed => timed_pass(ctx, stream, protocol),
            Wrap::TimedSpin {
                site_iters,
                coord_iters,
            } => timed_pass(ctx, stream, Spin::new(protocol, site_iters, coord_iters)),
        }
    }
}

fn timed_pass<P: Protocol>(ctx: &Ctx, stream: usize, protocol: P) -> (Pass, Totals, Vec<u64>) {
    let sink = Arc::new(Sink::default());
    let pass = run_pass(ctx, stream, Timed::new(protocol, Arc::clone(&sink)), true);
    // The tracker is finished, so every site and the coordinator dropped
    // and flushed their counters.
    (pass, sink.totals(), sink.query_ns())
}

/// Operations attempted and failed over a run's passes, the oracle's
/// verdict on every read answer included.
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// A read answer, keyed so identical answers from different passes are
/// checked once.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Claim {
    Quantile { phi_bits: u64, value: Option<u64> },
    Heavy { phi_bits: u64, items: Vec<u64> },
    Other(String),
}

/// Count every facade error and replay the stream into the exact oracle
/// to check every read answer at the item count it followed, after all
/// clocks have stopped.
fn verdict<'a>(ctx: &Ctx, passes: impl IntoIterator<Item = &'a Pass>) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut claims: BTreeMap<(usize, u64, Claim), u64> = BTreeMap::new();
    for pass in passes {
        v.attempted += pass.attempted;
        v.failed += pass.failed;
        v.errors.extend(pass.errors.iter().cloned());
        for read in &pass.reads {
            let claim = match &read.answer {
                Err(_) => continue, // already counted as failed
                Ok(Answer::QuantileAt { phi, value }) => Claim::Quantile {
                    phi_bits: phi.to_bits(),
                    value: *value,
                },
                Ok(Answer::HeavyHitters { phi, items }) => Claim::Heavy {
                    phi_bits: phi.to_bits(),
                    items: items.clone(),
                },
                Ok(other) => Claim::Other(other.to_string()),
            };
            *claims.entry((pass.stream, read.at, claim)).or_default() += 1;
        }
    }
    let tolerance = ctx.w.tolerance();
    let mut oracle = ExactOracle::new();
    let (mut replaying, mut seen) = (0usize, 0usize);
    for ((stream, at, claim), times) in &claims {
        if *stream != replaying {
            (oracle, replaying, seen) = (ExactOracle::new(), *stream, 0);
        }
        while (seen as u64) < *at {
            oracle.observe(ctx.streams[replaying][seen].1);
            seen += 1;
        }
        let wrong = match claim {
            Claim::Quantile { phi_bits, value } => {
                let phi = f64::from_bits(*phi_bits);
                match value {
                    Some(q) if oracle.quantile_ok(*q, phi, tolerance) => None,
                    Some(q) => Some(format!(
                        "q({phi}) = {q} at n = {at}: rank {} outside the {tolerance}-band",
                        oracle.rank_lt(*q)
                    )),
                    None => Some(format!("q({phi}) unanswered at n = {at}")),
                }
            }
            Claim::Heavy { phi_bits, items } => {
                let phi = f64::from_bits(*phi_bits);
                oracle
                    .check_heavy_hitters(items, phi, tolerance)
                    .map(|e| format!("hh({phi}) at n = {at}: {e}"))
            }
            Claim::Other(answer) => Some(format!("unexpected answer {answer} at n = {at}")),
        };
        if let Some(e) = wrong {
            v.failed += times;
            if v.errors.len() < 8 {
                v.errors.push(e);
            }
        }
    }
    v
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = match Ctx::new(args.workload, args.seed) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let steal = Steal::start();
    let (metrics, passes, verdict, extra) = if args.trace {
        traced_run(&ctx, budget)
    } else {
        untraced_run(&ctx, budget)
    };
    let steal_share = steal.share();

    let reads: usize = passes.iter().map(|p| p.reads.len()).sum();
    let pass_median =
        |f: fn(&Pass) -> f64| stats::num(median(&passes.iter().map(f).collect::<Vec<f64>>()));
    let w = &ctx.w;
    let manifest = stats::object(&[
        ("workload", format!("\"{}\"", w.name)),
        ("seed", ctx.seed.to_string()),
        ("k", w.k.to_string()),
        ("epsilon", stats::num(w.epsilon)),
        ("n", w.n.to_string()),
        ("backend", format!("\"{}\"", w.backend())),
        ("workers", w.workers.unwrap_or(0).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "steal_share",
            steal_share.map_or("null".to_owned(), stats::num),
        ),
        ("host_factor", pass_median(|p| p.host.factor())),
        (
            "probe_mem_ns_per_item",
            pass_median(|p| p.host.mem_ns_per_item),
        ),
        (
            "probe_handoff_us",
            if w.pooled() {
                pass_median(|p| p.host.handoff_us.unwrap_or(f64::NAN))
            } else {
                "null".to_owned()
            },
        ),
        ("trace", u8::from(args.trace).to_string()),
        ("passes", passes.len().to_string()),
        ("query_samples", reads.to_string()),
        ("budget_words", ctx.budget.to_string()),
    ]);
    println!("{{\"manifest\": {manifest}}}");
    for line in extra {
        println!("{line}");
    }
    for e in &verdict.errors {
        eprintln!("{}: failure: {e}", w.name);
    }
    let nonfinite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    let mut failed = verdict.failed;
    if !nonfinite.is_empty() {
        eprintln!("{}: no measurement for {nonfinite:?}", w.name);
        failed += nonfinite.len() as u64;
    }
    let attempted = verdict.attempted + nonfinite.len() as u64;
    println!(
        "{}",
        stats::result_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

type RunOut = (Vec<Metric>, Vec<Pass>, Verdict, Vec<String>);

/// Every read's wall time in µs, divided by its pass's host factor when
/// `corrected`.
fn read_latencies_us<'a>(passes: impl IntoIterator<Item = &'a Pass>, corrected: bool) -> Vec<f64> {
    passes
        .into_iter()
        .flat_map(|p| {
            let factor = if corrected { p.host.factor() } else { 1.0 };
            p.reads.iter().map(move |r| r.ns as f64 / 1e3 / factor)
        })
        .collect()
}

/// `--trace 0`: untraced passes until the time is up; end-to-end metrics.
/// Every time is divided by its pass's host factor (see `host.rs`). The
/// line before the result gives the read p99, which moves with the host
/// more than the correction takes out and so is not an end-to-end metric,
/// and the time metrics uncorrected.
fn untraced_run(ctx: &Ctx, budget: Duration) -> RunOut {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let stream = passes.len() % STREAMS;
        passes.push(run_workload_pass(ctx, Wrap::Plain, stream).0);
    }
    let verdict = verdict(ctx, &passes);
    let n = ctx.w.n as f64;
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<f64>>()) };
    let (corrected, raw) = (
        read_latencies_us(&passes, true),
        read_latencies_us(&passes, false),
    );
    let info = format!(
        "{{\"query_p99_us\": {}, \"uncorrected\": {}}}",
        stats::num(quantile(&corrected, 0.99)),
        stats::object(&[
            (
                "ingest_items_per_s",
                stats::num(per_pass(&|p| n / p.wall_s))
            ),
            ("query_p50_us", stats::num(quantile(&raw, 0.5))),
            ("query_p99_us", stats::num(quantile(&raw, 0.99))),
            ("setup_s", stats::num(per_pass(&|p| p.setup_s))),
        ])
    );
    let ok_share = 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "ingest_items_per_s",
            per_pass(&|p| n * p.host.factor() / p.wall_s),
            "items/s",
        ),
        Metric::new(
            "words_per_item",
            per_pass(&|p| p.words as f64 / n),
            "words/item",
        ),
        Metric::new(
            "messages_per_item",
            per_pass(&|p| p.messages as f64 / n),
            "msgs/item",
        ),
        Metric::new("query_p50_us", quantile(&corrected, 0.5), "us"),
        Metric::new("setup_s", per_pass(&|p| p.setup_s / p.host.factor()), "s"),
        Metric::new(
            "heap_peak_mib",
            per_pass(&|p| p.heap_bytes as f64 / (1024.0 * 1024.0)),
            "MiB",
        ),
        Metric::new("ok_op_share", ok_share, "share"),
    ];
    (metrics, passes, verdict, vec![info])
}

/// The per-layer split of one traced pass, plus the samples that are
/// pooled across passes rather than taken as a median.
struct Split {
    values: Vec<(String, f64)>,
    /// The pass's feeding time with the instrumentation taken out, ns.
    accounted_ns: f64,
    /// `Tracker::query` wall time minus `Protocol::query` self time, µs.
    quiesce_us: Vec<f64>,
}

/// Meter kinds with per-item words/messages metrics, in BENCHMARK.json's
/// order. A kind a workload does not emit reads 0.
const METER_KINDS: [&str; 17] = [
    "aq/full-summary",
    "aq/install-tree",
    "aq/node-counts",
    "aq/node-delta",
    "aq/range-summary",
    "aq/range-summary-poll",
    "aq/raw",
    "aq/replace-subtree",
    "aq/subtree-counts",
    "aq/summary-poll",
    "hh/all",
    "hh/count-reply",
    "hh/item",
    "hh/new-count",
    "hh/raw",
    "hh/start",
    "hh/sync-poll",
];

/// Split one traced pass across the layers. Every measured span is
/// corrected by the calibrated cost of an empty one: `inner_ns` off its
/// own reading, and the wall time the instrumentation adds off the span
/// around it.
fn split(ctx: &Ctx, cost: SpanCost, pass: &Pass, t: &Totals, query_ns: &[u64]) -> Split {
    let w = &ctx.w;
    let n = w.n as f64;
    let site_self = t.items.self_ns(&cost);
    let down_self = t.downs.self_ns(&cost);
    let coord_self = t.ups.self_ns(&cost);
    let feed_self = pass.feed_ns as f64 - pass.feed_calls as f64 * cost.span_inner_ns;
    // On the deterministic backend every core call runs inside
    // `feed_batch`; on the pool none runs on the feeding thread.
    let (cluster, accounted_ns) = if w.pooled() {
        (feed_self, feed_self)
    } else {
        let calls = (t.items.calls + t.downs.calls + t.ups.calls) as f64;
        let accounted = feed_self - calls * cost.call_ns;
        (accounted - (site_self + down_self + coord_self), accounted)
    };
    let wall_ns = pass.wall_s * 1e9;
    let workers = w.workers.unwrap_or(1) as f64;
    let query_self: f64 = query_ns
        .iter()
        .map(|&ns| ns as f64 - cost.span_inner_ns)
        .sum();
    let protocol_reads: Vec<&Read> = pass.reads.iter().filter(|r| r.answer.is_ok()).collect();
    let quiesce_us = if protocol_reads.len() == query_ns.len() {
        protocol_reads
            .iter()
            .zip(query_ns)
            .map(|(r, &q)| (r.ns as f64 - q as f64 - cost.span_ns) / 1e3)
            .collect()
    } else {
        Vec::new()
    };
    let flow = pass.flow.as_ref();
    let mut values = vec![
        (
            "core.site.ns_per_item".to_owned(),
            site_self / t.items.units as f64,
        ),
        (
            "core.site.items_per_call".to_owned(),
            t.items.units as f64 / t.items.calls as f64,
        ),
        ("core.site.down_ns_per_item".to_owned(), down_self / n),
        (
            "core.coord.ns_per_msg".to_owned(),
            coord_self / t.ups.calls as f64,
        ),
        (
            "core.coord.up_msgs_per_item".to_owned(),
            t.ups.calls as f64 / n,
        ),
        (
            "core.coord.downs_per_up".to_owned(),
            t.downs.calls as f64 / t.ups.calls as f64,
        ),
        (
            "core.query.ns_per_call".to_owned(),
            query_self / query_ns.len() as f64,
        ),
        ("sim.cluster.ns_per_item".to_owned(), cluster / n),
        ("sim.sharded.ingest_ns_per_item".to_owned(), feed_self / n),
        (
            "sim.sharded.worker_busy_share".to_owned(),
            (site_self + down_self) / (wall_ns * workers),
        ),
        (
            "sim.sharded.coord_busy_share".to_owned(),
            coord_self / wall_ns,
        ),
        (
            "sim.sharded.final_settle_ms".to_owned(),
            pass.settle_ns as f64 / 1e6,
        ),
        (
            "sim.flow.drift_events".to_owned(),
            flow.map_or(0.0, |f| f.drift_events as f64),
        ),
        (
            "sim.flow.backoffs".to_owned(),
            flow.map_or(0.0, |f| f.backoffs as f64),
        ),
        (
            "sim.flow.window_mean".to_owned(),
            flow.map_or(0.0, |f| {
                f.windows.iter().map(|&w| f64::from(w)).sum::<f64>() / f.windows.len() as f64
            }),
        ),
    ];
    for kind in METER_KINDS {
        let cost = pass
            .by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(KindCost::default(), |(_, c)| *c);
        let name = kind.replace('/', ".");
        values.push((format!("sim.meter.words.{name}"), cost.words as f64 / n));
        values.push((
            format!("sim.meter.messages.{name}"),
            cost.messages as f64 / n,
        ));
    }
    Split {
        values,
        accounted_ns,
        quiesce_us,
    }
}

/// Median of each per-layer value across traced passes, plus the pooled
/// quiesce percentiles.
fn layer_medians(splits: &[Split]) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let Some(first) = splits.first() else {
        return metrics;
    };
    for (i, (name, _)) in first.values.iter().enumerate() {
        let values: Vec<f64> = splits.iter().map(|s| s.values[i].1).collect();
        metrics.push(Metric::new(name.clone(), median(&values), layer_unit(name)));
    }
    let quiesce: Vec<f64> = splits.iter().flat_map(|s| s.quiesce_us.clone()).collect();
    metrics.push(Metric::new(
        "sim.tracker.quiesce_p50_us",
        quantile(&quiesce, 0.5),
        "us",
    ));
    metrics.push(Metric::new(
        "sim.tracker.quiesce_p99_us",
        quantile(&quiesce, 0.99),
        "us",
    ));
    metrics
}

fn layer_unit(name: &str) -> &'static str {
    match name {
        "core.site.items_per_call" => "items/call",
        "core.coord.up_msgs_per_item" => "msgs/item",
        "core.coord.downs_per_up" => "msgs/msg",
        "core.coord.ns_per_msg" => "ns/msg",
        "core.query.ns_per_call" => "ns/call",
        "sim.sharded.worker_busy_share" | "sim.sharded.coord_busy_share" => "share",
        "sim.sharded.final_settle_ms" => "ms",
        "sim.flow.drift_events" | "sim.flow.backoffs" => "count",
        "sim.flow.window_mean" => "items",
        _ if name.starts_with("sim.meter.words.") => "words/item",
        _ if name.starts_with("sim.meter.messages.") => "msgs/item",
        _ => "ns/item",
    }
}

/// `--trace 1`: untraced and traced passes alternate until the time is
/// up (so host drift hits both), then the sketch replays and, on
/// det-allq, the attribution self-test.
fn traced_run(ctx: &Ctx, budget: Duration) -> RunOut {
    let cost = SpanCost::calibrate();
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut splits = Vec::new();
    while splits.is_empty() || start.elapsed() < budget {
        let stream = splits.len() % STREAMS;
        let (plain, _, _) = run_workload_pass(ctx, Wrap::Plain, stream);
        untraced_walls.push(plain.wall_s);
        passes.push(plain);
        let (traced, totals, query_ns) = run_workload_pass(ctx, Wrap::Timed, stream);
        traced_walls.push(traced.wall_s);
        splits.push(split(ctx, cost, &traced, &totals, &query_ns));
        passes.push(traced);
    }
    let mut metrics = layer_medians(&splits);
    // The read tail, host-corrected, over the untraced passes: the traced
    // ones add a span around each `Protocol::query`.
    metrics.push(Metric::new(
        "sim.tracker.read_p99_us",
        quantile(&read_latencies_us(passes.iter().step_by(2), true), 0.99),
        "us",
    ));
    let (insert_ns, observe_ns) = replay_sketches(ctx);
    metrics.push(Metric::new(
        "sketch.exact_ordered.insert_ns",
        insert_ns,
        "ns/item",
    ));
    metrics.push(Metric::new(
        "sketch.spacesaving.observe_ns",
        observe_ns,
        "ns/item",
    ));
    metrics.push(Metric::new(
        "traced.overhead_share",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "share",
    ));
    // How far the corrected split misses the untraced timed phase: on
    // det-allq the feed calls are all of it but a few sub-µs reads.
    let accounted: Vec<f64> = splits.iter().map(|s| s.accounted_ns).collect();
    let untraced_ns: Vec<f64> = untraced_walls.iter().map(|w| w * 1e9).collect();
    let mut extra = vec![format!(
        "{{\"calibration\": {}}}",
        stats::object(&[
            ("ticks_per_ns", stats::num(cost.ticks_per_ns)),
            ("call_inner_ns", stats::num(cost.call_inner_ns)),
            ("call_ns", stats::num(cost.call_ns)),
            ("span_inner_ns", stats::num(cost.span_inner_ns)),
            ("span_ns", stats::num(cost.span_ns)),
            (
                "split_gap_share",
                stats::num(median(&accounted) / median(&untraced_ns) - 1.0),
            ),
        ])
    )];
    let mut verdict = verdict(ctx, &passes);
    if ctx.w.name == "det-allq" {
        let test = self_test(ctx, cost);
        verdict.attempted += test.checks;
        verdict.failed += test.failures.len() as u64;
        verdict.errors.extend(test.failures);
        extra.push(test.report);
    }
    (metrics, passes, verdict, extra)
}

/// Replay every site's share of each stream through the sketch stores on
/// their own: `ExactOrdered::insert` (the allq sites' store) and
/// `SpaceSaving::observe` at the capacity an hh site uses at this ε.
/// Median over the run's streams, in ns per item.
fn replay_sketches(ctx: &Ctx) -> (f64, f64) {
    let n = ctx.w.n as f64;
    let mut inserts = Vec::new();
    let mut observes = Vec::new();
    for stream in &ctx.streams {
        let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); ctx.w.k as usize];
        for &(site, item) in stream {
            per_site[site.index()].push(item);
        }

        let mut stores: Vec<ExactOrdered> = Vec::with_capacity(per_site.len());
        let start = Instant::now();
        for items in &per_site {
            let mut store = ExactOrdered::new();
            for &x in items {
                store.insert(black_box(x));
            }
            stores.push(store);
        }
        inserts.push(start.elapsed().as_nanos() as f64 / n);
        black_box(&stores);
        drop(stores);

        let mut sketches: Vec<SpaceSaving> = Vec::with_capacity(per_site.len());
        let start = Instant::now();
        for items in &per_site {
            let mut sketch = SpaceSaving::with_epsilon(ctx.w.epsilon / 6.0);
            for &x in items {
                black_box(sketch.observe(black_box(x)));
            }
            sketches.push(sketch);
        }
        observes.push(start.elapsed().as_nanos() as f64 / n);
        black_box(&sketches);
    }
    (median(&inserts), median(&observes))
}

/// Outcome of the attribution self-test.
struct SelfTest {
    checks: u64,
    failures: Vec<String>,
    report: String,
}

/// Busy-work added per site `on_items` call and per coordinator
/// `on_message` call by the self-test, in nanoseconds: about twice the
/// layer's own time on det-allq, so host drift between two passes stays
/// small next to it.
const SITE_SPIN_NS: f64 = 1000.0;
const COORD_SPIN_NS: f64 = 1000.0;
const SELF_TEST_ROUNDS: usize = 9;

/// The attribution self-test: slow one layer down by fixed busy-work per
/// call, and check where the traced split puts the added feed time. Each
/// slowed pass is paired with the plain traced pass just before it on the
/// same stream. The slowed layer's self time must rise by the rise in
/// corrected feed time (within 25%, median over the pairs), and
/// `sim.cluster.ns_per_item` must move by no more than its interquartile
/// range over the plain passes (or 5% of the added time, if larger).
fn self_test(ctx: &Ctx, cost: SpanCost) -> SelfTest {
    let per_ns = layers::busy_iters_per_ns();
    let site_iters = (SITE_SPIN_NS * per_ns).round() as u64;
    let coord_iters = (COORD_SPIN_NS * per_ns).round() as u64;
    let value = |s: &Split, name: &str| {
        s.values
            .iter()
            .find(|(k, _)| k == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let n = ctx.w.n as f64;
    // Per item: the site layer, the coordinator layer, the cluster
    // remainder, and the corrected feed time they add up to.
    let per_item = |s: &Split| {
        [
            value(s, "core.site.ns_per_item"),
            value(s, "core.coord.ns_per_msg") * value(s, "core.coord.up_msgs_per_item"),
            value(s, "sim.cluster.ns_per_item"),
            s.accounted_ns / n,
        ]
    };

    let (mut base, mut site, mut coord) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..SELF_TEST_ROUNDS {
        let stream = round % STREAMS;
        let (pass, t, query_ns) = run_workload_pass(ctx, Wrap::Timed, stream);
        base.push(per_item(&split(ctx, cost, &pass, &t, &query_ns)));
        for (site_iters, coord_iters, out) in
            [(site_iters, 0, &mut site), (0, coord_iters, &mut coord)]
        {
            let wrap = Wrap::TimedSpin {
                site_iters,
                coord_iters,
            };
            let (pass, t, query_ns) = run_workload_pass(ctx, wrap, stream);
            out.push(per_item(&split(ctx, cost, &pass, &t, &query_ns)));
        }
    }

    let base_cluster: Vec<f64> = base.iter().map(|b| b[2]).collect();
    let cluster_spread = quantile(&base_cluster, 0.75) - quantile(&base_cluster, 0.25);
    let mut failures = Vec::new();
    let mut report = Vec::new();
    for (layer, at, slowed) in [("site", 0, &site), ("coord", 1, &coord)] {
        let pairs = || slowed.iter().zip(&base);
        let added = median(&pairs().map(|(s, b)| s[3] - b[3]).collect::<Vec<f64>>());
        let attributed = median(
            &pairs()
                .map(|(s, b)| (s[at] - b[at]) / (s[3] - b[3]))
                .collect::<Vec<f64>>(),
        );
        let leaked = median(&pairs().map(|(s, b)| s[2] - b[2]).collect::<Vec<f64>>());
        let allowed = cluster_spread.max(0.05 * added);
        let ok = (0.75..=1.25).contains(&attributed) && leaked.abs() <= allowed;
        if !ok {
            failures.push(format!(
                "self-test {layer}: {attributed:.2} of the added feed time landed in the \
                 {layer} layer, {leaked:.1} ns/item in sim.cluster (allowed {allowed:.1})"
            ));
        }
        report.push(stats::object(&[
            ("layer", format!("\"{layer}\"")),
            ("added_ns_per_item", stats::num(added)),
            ("attributed_share", stats::num(attributed)),
            ("cluster_shift_ns_per_item", stats::num(leaked)),
            ("cluster_allowed_ns_per_item", stats::num(allowed)),
            ("pass", ok.to_string()),
        ]));
    }
    SelfTest {
        checks: 2,
        failures,
        report: format!("{{\"self_test\": [{}]}}", report.join(", ")),
    }
}

/// Host steal time from `/proc/stat`, so a run taken under host
/// contention can be recognized. `None` where the file is unreadable.
struct Steal(Option<(u64, u64)>);

impl Steal {
    fn read() -> Option<(u64, u64)> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let line = text.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        let steal = *fields.get(7)?;
        Some((steal, fields.iter().sum()))
    }

    fn start() -> Steal {
        Steal(Steal::read())
    }

    /// Steal share of all CPU time since [`Steal::start`].
    fn share(&self) -> Option<f64> {
        let (steal0, total0) = self.0?;
        let (steal1, total1) = Steal::read()?;
        let total = total1.checked_sub(total0)?;
        (total > 0).then(|| steal1.saturating_sub(steal0) as f64 / total as f64)
    }
}

const USAGE: &str = "usage: dtrack-benchmark --workload <det-allq|pool-hh-k256> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .into_iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}
