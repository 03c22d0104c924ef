//! The two runtimes under [`crate::Tracker`], and the fault vocabulary
//! they share.
//!
//! A runtime owns one [`Protocol`]'s `k` [`Site`](crate::Site) state
//! machines and its [`Coordinator`](crate::Coordinator), carries their
//! messages, and answers [`Query`]s
//! against its coordinator. The facade holds it behind the crate-private,
//! object-safe `Runtime` trait: items are `u64`, coordinator reads are
//! the [`Query`] → [`Answer`] algebra, and teardown returns only the
//! meter. Two runtimes implement it, each for every [`Protocol`]:
//!
//! * `DeterministicBackend` wraps [`Cluster`]: single-threaded, every
//!   arrival drained to quiescence, the transcript the paper's theorems
//!   are metered against. `settle` is a no-op (the system is always
//!   quiescent between calls).
//! * `ShardedBackend` wraps [`ShardedCluster`]: any number of logical
//!   sites multiplexed onto a fixed work-stealing worker pool.
//!   `feed_batch` uses the transcript-identical site-at-a-time schedule;
//!   `ingest` uses free-running per-site runs paced by an AIMD window
//!   (the adaptive flow-control discipline that keeps feedback-starved
//!   sites from over-communicating lives *here*, so every caller gets it
//!   for free — see [`crate::flow`]).

#![deny(missing_docs)]

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrack_trace::{
    merge_snapshots, SiteTracer, TraceConfig, TraceEvent, TraceEventKind, TraceLane,
};

use crate::cluster::Cluster;
use crate::error::SimError;
use crate::flow::{AimdController, FlowControlConfig, FlowControlStats};
use crate::meter::MessageMeter;
use crate::proto::SiteId;
use crate::query::{Answer, Query, QueryError};
use crate::sharded::{RunTicket, ShardedCluster, ShardedConfig};
use crate::tracker::Protocol;

/// One injectable fault, applied through
/// [`crate::Tracker::inject_fault`] so every runtime honors the same
/// hostile-scenario vocabulary.
///
/// The semantics are deliberately *administrative* — faults perturb the
/// environment (membership, timing), never the protocol state machines —
/// so a fault schedule is replayable and its effect on the metered
/// transcript is well-defined on every backend:
///
/// * [`FaultEvent::KillSite`] partitions one site away for good: feeds to
///   it return [`SimError::SiteDown`], coordinator downs addressed to it
///   are dropped *unmetered* (downs are metered at the receiving side,
///   and nothing is received), and its state is frozen. The runtime stays
///   healthy and teardown is clean.
/// * [`FaultEvent::StallSite`] holds the pool worker serving the site
///   for a duration: a pure timing fault. On the deterministic backend —
///   which has no timing — it is a no-op; on the pool it keeps the system
///   non-quiescent for the duration, so `settle()` provably terminates
///   under slow consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Administratively kill a site (permanent partition).
    KillSite {
        /// The site to kill.
        site: SiteId,
    },
    /// Hold a site's execution for `micros` microseconds (slow consumer).
    StallSite {
        /// The site to stall.
        site: SiteId,
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// One protocol instance on one runtime, with its types erased: the
/// only surface [`crate::Tracker`] drives. Message types stay concrete
/// inside each implementation, so the facade costs one virtual call per
/// batch or read, never per message. A method named like a `Tracker`
/// method behaves as documented there, except that reads do not settle
/// first (the facade does that).
pub(crate) trait Runtime: Send {
    fn feed(&mut self, site: SiteId, item: u64) -> Result<(), SimError>;
    fn feed_batch(&mut self, batch: &[(SiteId, u64)]) -> Result<(), SimError>;
    fn ingest(&mut self, site: SiteId, items: Vec<u64>) -> Result<(), SimError>;
    fn settle(&mut self);
    fn settle_deadline(&mut self, deadline: Duration) -> Result<(), SimError>;
    fn cost_hint(&mut self, words_per_item: f64);
    /// The free-running flow controller's state, `None` without one.
    fn flow_control(&self) -> Option<FlowControlStats>;
    /// Answer one protocol query against the coordinator as it stands.
    fn query(&self, query: Query) -> Result<Answer, QueryError>;
    fn answers(&self) -> Result<Vec<Answer>, QueryError>;
    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError>;
    fn set_trace(&mut self, config: TraceConfig);
    fn trace_events(&self) -> Vec<TraceEvent>;
    fn trace_dropped(&self) -> u64;
    fn cost(&self) -> MessageMeter;
    fn finish(self: Box<Self>) -> Result<MessageMeter, SimError>;
}

/// Record `fault` on the driver lane once the runtime has applied it:
/// the fault schedule's position in the stream is part of the
/// transcript.
fn trace_fault(tracer: &mut SiteTracer, fault: FaultEvent) {
    tracer.record(match fault {
        FaultEvent::KillSite { site } => TraceEventKind::SiteKilled { site: site.0 },
        FaultEvent::StallSite { site, micros } => TraceEventKind::SiteStalled {
            site: site.0,
            micros,
        },
    });
}

/// The single-threaded, transcript-pinned runtime (wraps [`Cluster`]).
pub(crate) struct DeterministicBackend<P: Protocol> {
    protocol: P,
    cluster: Cluster<P::Site, P::Coordinator>,
    /// Scratch for `ingest`'s (site, item) pairing.
    run_buf: Vec<(SiteId, u64)>,
    /// Driver-lane tracer: settle boundaries and fault events.
    tracer: SiteTracer,
}

impl<P: Protocol> DeterministicBackend<P> {
    /// Build the runtime from `protocol`'s constructed state.
    pub(crate) fn new(
        protocol: P,
        sites: Vec<P::Site>,
        coordinator: P::Coordinator,
    ) -> Result<Self, SimError> {
        let cluster = Cluster::new(sites, coordinator)?;
        let tracer = SiteTracer::new(Arc::clone(cluster.trace_shared()), TraceLane::Driver);
        Ok(DeterministicBackend {
            protocol,
            cluster,
            run_buf: Vec::new(),
            tracer,
        })
    }
}

impl<P: Protocol> Runtime for DeterministicBackend<P> {
    fn feed(&mut self, site: SiteId, item: u64) -> Result<(), SimError> {
        self.cluster.feed(site, item)
    }

    fn feed_batch(&mut self, batch: &[(SiteId, u64)]) -> Result<(), SimError> {
        self.cluster.feed_batch(batch)
    }

    fn ingest(&mut self, site: SiteId, items: Vec<u64>) -> Result<(), SimError> {
        // Free-running and quiescent delivery coincide on a single
        // thread; reuse the batched same-site run path.
        self.run_buf.clear();
        self.run_buf.extend(items.into_iter().map(|it| (site, it)));
        self.cluster.feed_batch(&self.run_buf)
    }

    fn settle(&mut self) {
        // Always quiescent between calls. The settle markers keep the
        // driver-lane vocabulary uniform across backends, with logical
        // (zero) durations so the stream stays bit-identical per seed.
        self.tracer.record(TraceEventKind::SettleBegin);
        self.tracer.record(TraceEventKind::SettleEnd { micros: 0 });
    }

    fn settle_deadline(&mut self, _deadline: Duration) -> Result<(), SimError> {
        self.settle();
        Ok(())
    }

    fn cost_hint(&mut self, _words_per_item: f64) {
        // No flow controller: nothing runs free, so nothing can drift.
    }

    fn flow_control(&self) -> Option<FlowControlStats> {
        None
    }

    fn query(&self, query: Query) -> Result<Answer, QueryError> {
        self.protocol.query(self.cluster.coordinator(), query)
    }

    fn answers(&self) -> Result<Vec<Answer>, QueryError> {
        self.protocol.answers(self.cluster.coordinator())
    }

    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        // No clocks here: a stall is a pure timing fault, so only its
        // trace event remains.
        if let FaultEvent::KillSite { site } = fault {
            self.cluster.kill_site(site)?;
        }
        trace_fault(&mut self.tracer, fault);
        Ok(())
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.cluster.set_trace(config);
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        merge_snapshots(vec![self.cluster.trace_events(), self.tracer.snapshot()])
    }

    fn trace_dropped(&self) -> u64 {
        self.cluster.trace_dropped() + self.tracer.dropped()
    }

    fn cost(&self) -> MessageMeter {
        self.cluster.meter().clone()
    }

    fn finish(self: Box<Self>) -> Result<MessageMeter, SimError> {
        let (_coordinator, _sites, meter) = self.cluster.into_parts();
        Ok(meter)
    }
}

/// Rate-drift threshold: observed metered words-per-item above the
/// `cost_hint` reference times this factor fires the global drift signal.
const DRIFT_FACTOR: f64 = 1.25;

/// Flushed items between metered words-per-item probes. Probes read a
/// relaxed cluster-wide atomic, so frequent sampling is cheap — and the
/// sampling rate bounds how fast the controller can push back: windows
/// grow additively per clean *run* but halve at most once per probe, so
/// at high site counts a sparse probe lets growth outrun control.
const SAMPLE_ITEMS: u64 = 2048;

/// How long a full-buffer flush waits on a site's previous run before
/// treating the site as backpressured (the per-site drift signal). The
/// congestion stall fires the same signal after this wait and gives up
/// after 50 of them.
const BACKPRESSURE_WAIT: Duration = Duration::from_millis(2);

/// The per-site AIMD flow-control window behind the pool's free-running
/// `ingest` (the successor of the fixed one-run-per-site ticket window).
///
/// Each site keeps at most one outstanding run plus a small buffer of
/// not-yet-enqueued items. Run length follows the site's
/// [`AimdController`] window: completed runs grow it additively, the
/// drift signal halves it. Unbounded run queueing would let sites race
/// ahead of coordinator feedback and flood stale-threshold deltas (see
/// [`ShardedCluster::ingest_run`]).
///
/// Buffered items become visible at the next flush point — any further
/// `ingest` for the site, or a settle, fault or `finish`, all of which
/// flush. The settled `feed_batch` path never touches this type, so
/// golden transcripts are unaffected.
struct AimdWindow {
    controller: AimdController,
    tickets: Vec<Option<RunTicket>>,
    buffers: Vec<Vec<u64>>,
    /// Driver-lane tracer for window changes and backpressure waits.
    tracer: SiteTracer,
    /// Reference words-per-item installed by `cost_hint`; `None`
    /// disables the rate-drift signal.
    ref_rate: Option<f64>,
    /// Items handed to the cluster so far (probe pacing).
    flushed_items: u64,
    last_probe_items: u64,
    last_probe_words: u64,
}

impl AimdWindow {
    fn new(k: usize, config: FlowControlConfig, tracer: SiteTracer) -> Self {
        AimdWindow {
            controller: AimdController::new(k, config),
            tickets: (0..k).map(|_| None).collect(),
            buffers: (0..k).map(|_| Vec::new()).collect(),
            tracer,
            ref_rate: None,
            flushed_items: 0,
            last_probe_items: 0,
            last_probe_words: 0,
        }
    }

    /// Record a [`TraceEventKind::WindowChange`] if `idx`'s window moved
    /// across an adjustment (captured as the before-value by the caller).
    fn trace_window_change(&mut self, idx: usize, before: u32) {
        let after = self.controller.window(idx);
        if after != before {
            self.tracer.record(TraceEventKind::WindowChange {
                site: idx as u32,
                window: after,
            });
        }
    }

    /// Buffer `items` for `site` (already checked by the caller to be in
    /// range and live) and pump the window: enqueue
    /// window-sized runs whenever the site's previous run has resolved,
    /// blocking (with the backpressure drift signal) only when the buffer
    /// has a full window waiting.
    fn ingest(
        &mut self,
        site: SiteId,
        mut items: Vec<u64>,
        mut enqueue: impl FnMut(Vec<u64>) -> Result<RunTicket, SimError>,
        mut probe_words: impl FnMut() -> u64,
        mut probe_backlog: impl FnMut() -> u64,
    ) -> Result<(), SimError> {
        let idx = site.index();
        if self.buffers[idx].is_empty() {
            self.buffers[idx] = items;
        } else {
            self.buffers[idx].append(&mut items);
        }
        self.stall_for_backlog(idx, &mut probe_backlog);
        self.pump(idx, &mut enqueue)?;
        self.maybe_probe(&mut probe_words);
        Ok(())
    }

    /// Source-side congestion stall: while the cluster-wide backlog
    /// (in-flight commands plus undelivered protocol messages) exceeds
    /// the configured in-flight budget, hold off enqueuing more work so
    /// coordinator feedback can drain. Per-site windows bound one site's
    /// lead; this bounds the *sum* — the quantity that actually backs up
    /// the shared coordinator when sites outnumber cores. A sustained
    /// stall fires the per-site drift signal once, and the wait is
    /// bounded (50 × [`BACKPRESSURE_WAIT`]) so a wedged cluster degrades
    /// into the queues' own backpressure instead of hanging here.
    fn stall_for_backlog(&mut self, idx: usize, probe_backlog: &mut impl FnMut() -> u64) {
        let cap = u64::from(self.controller.config().inflight_cap);
        if cap == 0 || probe_backlog() <= cap {
            return;
        }
        let started = Instant::now();
        let mut drifted = false;
        loop {
            std::thread::yield_now();
            if probe_backlog() <= cap {
                return;
            }
            let waited = started.elapsed();
            if !drifted && waited >= BACKPRESSURE_WAIT {
                let before = self.controller.window(idx);
                self.controller.drift_site(idx);
                self.tracer
                    .record(TraceEventKind::BackpressureWait { site: idx as u32 });
                self.trace_window_change(idx, before);
                drifted = true;
            }
            if waited >= BACKPRESSURE_WAIT * 50 {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Drain `site`'s buffer into window-sized runs while the one-run
    /// window allows. Exits with less than one window buffered (or an
    /// empty buffer), so per-site in-flight items stay within ~2 windows.
    fn pump(
        &mut self,
        idx: usize,
        enqueue: &mut impl FnMut(Vec<u64>) -> Result<RunTicket, SimError>,
    ) -> Result<(), SimError> {
        loop {
            let win = self.controller.window(idx) as usize;
            if let Some(ticket) = self.tickets[idx].take() {
                if ticket.0.try_recv().is_ok() {
                    let before = self.controller.window(idx);
                    self.controller.clean_run(idx);
                    self.trace_window_change(idx, before);
                } else if self.buffers[idx].len() < win {
                    // Pipelined: run in flight, buffer not yet full —
                    // come back on the next ingest or flush.
                    self.tickets[idx] = Some(ticket);
                    break;
                } else {
                    // A full window is waiting on a slow consumer. Wait
                    // out the run, treating a long wait as backpressure
                    // (the per-site drift signal).
                    match ticket.0.recv_timeout(BACKPRESSURE_WAIT) {
                        Ok(()) => {
                            let before = self.controller.window(idx);
                            self.controller.clean_run(idx);
                            self.trace_window_change(idx, before);
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            let before = self.controller.window(idx);
                            self.controller.drift_site(idx);
                            self.tracer
                                .record(TraceEventKind::BackpressureWait { site: idx as u32 });
                            self.trace_window_change(idx, before);
                            ticket
                                .0
                                .recv()
                                .map_err(|_| SimError::WorkerGone { who: "site" })?;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(SimError::WorkerGone { who: "site" });
                        }
                    }
                }
            }
            if self.buffers[idx].is_empty() {
                break;
            }
            let win = self.controller.window(idx) as usize;
            let buf = &mut self.buffers[idx];
            let run: Vec<u64> = if buf.len() <= win {
                std::mem::take(buf)
            } else {
                buf.drain(..win).collect()
            };
            self.flushed_items += run.len() as u64;
            self.tickets[idx] = Some(enqueue(run)?);
        }
        Ok(())
    }

    /// Every [`SAMPLE_ITEMS`] flushed items, compare the observed metered
    /// words-per-item against the reference rate; sustained excess fires
    /// the global drift signal (the meter is cluster-wide, so every
    /// window halves).
    fn maybe_probe(&mut self, probe_words: &mut impl FnMut() -> u64) {
        let Some(ref_rate) = self.ref_rate else {
            return;
        };
        let config = *self.controller.config();
        if config.increase == 0 && config.win_min == config.win_max {
            return; // fixed window: nothing to adapt, skip the probe cost
        }
        let delta_items = self.flushed_items - self.last_probe_items;
        if delta_items < SAMPLE_ITEMS {
            return;
        }
        let words = probe_words();
        let delta_words = words.saturating_sub(self.last_probe_words);
        self.last_probe_items = self.flushed_items;
        self.last_probe_words = words;
        let observed = delta_words as f64 / delta_items as f64;
        if observed > ref_rate * DRIFT_FACTOR {
            self.controller.drift_all();
            // One event stands in for the cluster-wide halving; site
            // `u32::MAX` is the documented "all sites" sentinel and the
            // window value is the post-halving minimum across sites.
            let window = (0..self.buffers.len())
                .map(|i| self.controller.window(i))
                .min()
                .unwrap_or(0);
            self.tracer.record(TraceEventKind::WindowChange {
                site: u32::MAX,
                window,
            });
        }
    }

    /// Enqueue every buffered run (tail flush before a quiescence wait,
    /// fault injection, or teardown). Does not wait for tickets — the
    /// caller is about to wait for quiescence, which covers queued runs.
    /// A killed site never holds buffered items here (`ingest` rejects
    /// it up front, and `inject_fault` flushes before it kills); a site
    /// whose handler panicked rejects its run, and the items are dropped
    /// with the error — the death itself surfaces at `finish`.
    fn flush(&mut self, mut enqueue: impl FnMut(SiteId, Vec<u64>) -> Result<RunTicket, SimError>) {
        for idx in 0..self.buffers.len() {
            if self.buffers[idx].is_empty() {
                continue;
            }
            let items = std::mem::take(&mut self.buffers[idx]);
            self.flushed_items += items.len() as u64;
            if let Ok(ticket) = enqueue(SiteId(idx as u32), items) {
                self.tickets[idx] = Some(ticket);
            }
        }
    }
}

/// Driver-side settle instrumentation for the pool: record the
/// backlog high-water mark plus [`TraceEventKind::SettleBegin`] and
/// return the wall timer the matching [`settle_end`] consumes. `None`
/// (and no events) when tracing is off, so the untraced settle path
/// never reads a clock.
fn settle_begin(tracer: &mut SiteTracer, backlog: u64) -> Option<Instant> {
    if !tracer.is_on() {
        return None;
    }
    if backlog > 0 {
        tracer.record(TraceEventKind::QueueDepth { depth: backlog });
    }
    tracer.record(TraceEventKind::SettleBegin);
    Some(Instant::now())
}

/// Close the settle phase opened by [`settle_begin`] with its wall-clock
/// duration (the pool's per-phase histogram input).
fn settle_end(tracer: &mut SiteTracer, started: Option<Instant>) {
    if let Some(t0) = started {
        tracer.record(TraceEventKind::SettleEnd {
            micros: t0.elapsed().as_micros() as u64,
        });
    }
}

/// The work-stealing pool runtime (wraps [`ShardedCluster`]): a fixed
/// worker count serving any number of logical sites.
pub(crate) struct ShardedBackend<P: Protocol> {
    /// Shared with the coordinator thread by each read, which clones the
    /// `Arc`, never the protocol.
    protocol: Arc<P>,
    cluster: ShardedCluster<P::Site, P::Coordinator>,
    window: AimdWindow,
    /// Driver-lane tracer: settle phases and fault events.
    tracer: SiteTracer,
}

impl<P: Protocol> ShardedBackend<P> {
    /// Spawn the pool `config` describes over `protocol`'s constructed
    /// state, with free-running ingest paced by `flow`.
    pub(crate) fn spawn(
        protocol: P,
        sites: Vec<P::Site>,
        coordinator: P::Coordinator,
        config: ShardedConfig,
        flow: FlowControlConfig,
    ) -> Result<Self, SimError> {
        let k = sites.len();
        let cluster = ShardedCluster::spawn_with(sites, coordinator, config)?;
        let driver = || SiteTracer::new(Arc::clone(cluster.trace_shared()), TraceLane::Driver);
        Ok(ShardedBackend {
            protocol: Arc::new(protocol),
            window: AimdWindow::new(k, flow, driver()),
            tracer: driver(),
            cluster,
        })
    }

    /// Enqueue every buffered free-running run, so items stay ordered per
    /// site across delivery paths and faults land after them.
    fn flush(&mut self) {
        let cluster = &self.cluster;
        self.window.flush(|site, run| cluster.ingest_run(site, run));
    }

    /// Tail-flush buffered runs, then run one quiescence `wait` inside a
    /// traced settle phase. The pending counter covers queued runs (each
    /// `Run` command holds a token until fully consumed), so waiting for
    /// quiescence also waits out every outstanding ticket.
    fn settle_with<R>(
        &mut self,
        wait: impl FnOnce(&ShardedCluster<P::Site, P::Coordinator>) -> R,
    ) -> R {
        self.flush();
        let started = settle_begin(&mut self.tracer, self.cluster.backlog_hint());
        let result = wait(&self.cluster);
        settle_end(&mut self.tracer, started);
        result
    }
}

impl<P: Protocol> Runtime for ShardedBackend<P> {
    fn feed(&mut self, site: SiteId, item: u64) -> Result<(), SimError> {
        self.flush();
        self.cluster.feed(site, item)
    }

    fn feed_batch(&mut self, batch: &[(SiteId, u64)]) -> Result<(), SimError> {
        self.flush();
        self.cluster.feed_batch(batch)
    }

    fn ingest(&mut self, site: SiteId, items: Vec<u64>) -> Result<(), SimError> {
        // Reject a killed or out-of-range site up front: once buffered,
        // items only reach the cluster at a later flush, which has no
        // caller left to hand the error to.
        self.cluster.check_site(site)?;
        let cluster = &self.cluster;
        self.window.ingest(
            site,
            items,
            |run| cluster.ingest_run(site, run),
            || cluster.words_hint(),
            || cluster.backlog_hint(),
        )
    }

    fn settle(&mut self) {
        self.settle_with(|cluster| cluster.settle());
    }

    fn settle_deadline(&mut self, deadline: Duration) -> Result<(), SimError> {
        self.settle_with(|cluster| cluster.settle_deadline(deadline))
    }

    fn cost_hint(&mut self, words_per_item: f64) {
        self.window.ref_rate = Some(words_per_item);
    }

    fn flow_control(&self) -> Option<FlowControlStats> {
        Some(self.window.controller.stats())
    }

    fn query(&self, query: Query) -> Result<Answer, QueryError> {
        let protocol = Arc::clone(&self.protocol);
        self.cluster
            .with_coordinator(move |c| protocol.query(c, query))
            .map_err(QueryError::Runtime)?
    }

    fn answers(&self) -> Result<Vec<Answer>, QueryError> {
        let protocol = Arc::clone(&self.protocol);
        self.cluster
            .with_coordinator(move |c| protocol.answers(c))
            .map_err(QueryError::Runtime)?
    }

    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        self.flush();
        match fault {
            FaultEvent::KillSite { site } => self.cluster.kill_site(site)?,
            FaultEvent::StallSite { site, micros } => self.cluster.stall_site(site, micros)?,
        }
        trace_fault(&mut self.tracer, fault);
        Ok(())
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.cluster.set_trace(config);
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        merge_snapshots(vec![
            self.cluster.trace_events(),
            self.tracer.snapshot(),
            self.window.tracer.snapshot(),
        ])
    }

    fn trace_dropped(&self) -> u64 {
        self.cluster.trace_dropped() + self.tracer.dropped() + self.window.tracer.dropped()
    }

    fn cost(&self) -> MessageMeter {
        self.cluster.cost()
    }

    fn finish(mut self: Box<Self>) -> Result<MessageMeter, SimError> {
        self.flush();
        let (_coordinator, _sites, meter) = self.cluster.shutdown()?;
        Ok(meter)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proto::{Coordinator, MessageSize, Outbox, Site};

    /// The test protocol every runtime and tracker test drives: sites
    /// forward every item, the coordinator counts and sums them. `Count`
    /// is the only protocol query; the answer set is the count, then the
    /// sum as a `Total`.
    #[derive(Debug, Clone)]
    pub(crate) struct CountProtocol;

    #[derive(Debug, Default)]
    pub(crate) struct FwdSite;
    #[derive(Debug)]
    pub(crate) struct UpMsg(u64);
    #[derive(Debug)]
    pub(crate) struct NoDown;

    impl MessageSize for UpMsg {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "t/up"
        }
    }
    impl MessageSize for NoDown {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "t/down"
        }
    }

    impl Site for FwdSite {
        type Item = u64;
        type Up = UpMsg;
        type Down = NoDown;
        fn on_item(&mut self, item: u64, out: &mut Vec<UpMsg>) {
            out.push(UpMsg(item));
        }
        fn on_message(&mut self, _msg: &NoDown, _out: &mut Vec<UpMsg>) {}
    }

    #[derive(Debug, Default)]
    pub(crate) struct CountCoord {
        seen: u64,
        sum: u64,
    }
    impl Coordinator for CountCoord {
        type Up = UpMsg;
        type Down = NoDown;
        fn on_message(&mut self, _from: SiteId, msg: UpMsg, _out: &mut Outbox<NoDown>) {
            self.seen += 1;
            self.sum += msg.0;
        }
    }

    impl Protocol for CountProtocol {
        type Site = FwdSite;
        type Up = UpMsg;
        type Down = NoDown;
        type Coordinator = CountCoord;

        fn label(&self) -> &'static str {
            "test-count"
        }
        fn build(&self, k: u32) -> Result<(Vec<FwdSite>, CountCoord), String> {
            Ok(((0..k).map(|_| FwdSite).collect(), CountCoord::default()))
        }
        fn query(&self, c: &CountCoord, query: Query) -> Result<Answer, QueryError> {
            match query {
                Query::Count => Ok(Answer::Count(c.seen)),
                other => Err(self.unsupported(other)),
            }
        }
        fn answers(&self, c: &CountCoord) -> Result<Vec<Answer>, QueryError> {
            Ok(vec![Answer::Count(c.seen), Answer::Total(c.sum)])
        }
    }

    fn deterministic(k: u32) -> Result<DeterministicBackend<CountProtocol>, SimError> {
        let (sites, coordinator) = CountProtocol.build(k).unwrap();
        DeterministicBackend::new(CountProtocol, sites, coordinator)
    }

    fn sharded(
        k: u32,
        workers: usize,
        flow: FlowControlConfig,
    ) -> Result<ShardedBackend<CountProtocol>, SimError> {
        let (sites, coordinator) = CountProtocol.build(k).unwrap();
        let config = ShardedConfig {
            workers: Some(workers),
            ..ShardedConfig::default()
        };
        ShardedBackend::spawn(CountProtocol, sites, coordinator, config, flow)
    }

    /// The count-then-sum answer set after `n` items summing to `sum`.
    fn counted(n: u64, sum: u64) -> Vec<Answer> {
        vec![Answer::Count(n), Answer::Total(sum)]
    }

    fn run_backend(mut b: Box<dyn Runtime>) {
        b.feed(SiteId(0), 1).unwrap();
        b.feed_batch(&[(SiteId(1), 2), (SiteId(1), 3)]).unwrap();
        b.ingest(SiteId(0), vec![4, 5]).unwrap();
        b.ingest(SiteId(0), vec![6]).unwrap();
        b.settle();
        assert_eq!(b.answers().unwrap(), counted(6, 21));
        assert_eq!(b.query(Query::Count).unwrap(), Answer::Count(6));
        assert_eq!(b.cost().kind("t/up").messages, 6);
        assert_eq!(b.finish().unwrap().total_messages(), 6);
    }

    #[test]
    fn deterministic_backend_drives_the_protocol() {
        run_backend(Box::new(deterministic(2).unwrap()));
    }

    #[test]
    fn sharded_backend_drives_the_protocol() {
        // Fewer workers than sites and more workers than sites both
        // satisfy the runtime contract.
        for workers in [1usize, 4] {
            run_backend(Box::new(
                sharded(2, workers, FlowControlConfig::default()).unwrap(),
            ));
        }
    }

    /// Identical trace semantics on every backend: untraced runs record
    /// nothing, traced runs carry the hop vocabulary with nondecreasing
    /// merged clocks, and tracing never perturbs the protocol outcome.
    fn run_traced_backend(mut b: Box<dyn Runtime>) {
        assert!(
            b.trace_events().is_empty(),
            "untraced backends record nothing"
        );
        b.set_trace(TraceConfig::on());
        b.feed(SiteId(0), 1).unwrap();
        b.feed_batch(&[(SiteId(1), 2), (SiteId(1), 3)]).unwrap();
        b.ingest(SiteId(0), vec![4, 5, 6]).unwrap();
        b.settle();
        assert_eq!(b.answers().unwrap(), counted(6, 21));
        let events = b.trace_events();
        let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
        assert_eq!(count("up-hop"), 6, "one up per item: {events:#?}");
        assert!(count("item-run") >= 3, "feed + batch + ingest all traced");
        assert!(count("settle-begin") >= 1);
        assert_eq!(count("settle-begin"), count("settle-end"));
        assert_eq!(b.trace_dropped(), 0);
        assert!(
            events.windows(2).all(|w| w[0].clock <= w[1].clock),
            "merged stream is clock-ordered"
        );
        b.finish().unwrap();
    }

    #[test]
    fn deterministic_backend_traces_the_hop_vocabulary() {
        run_traced_backend(Box::new(deterministic(2).unwrap()));
    }

    #[test]
    fn sharded_backend_traces_the_hop_vocabulary() {
        run_traced_backend(Box::new(
            sharded(2, 2, FlowControlConfig::default()).unwrap(),
        ));
    }

    /// Identical fault semantics on every backend: a killed site rejects
    /// feeds with `SiteDown`, the rest of the cluster keeps working, a
    /// stall never wedges `settle`, and teardown stays clean.
    fn run_faulted_backend(mut b: Box<dyn Runtime>) {
        b.feed(SiteId(0), 1).unwrap();
        b.feed(SiteId(1), 2).unwrap();
        b.inject_fault(FaultEvent::KillSite { site: SiteId(1) })
            .unwrap();
        assert_eq!(b.feed(SiteId(1), 99), Err(SimError::SiteDown { site: 1 }));
        assert_eq!(
            b.feed_batch(&[(SiteId(1), 98), (SiteId(0), 97)]),
            Err(SimError::SiteDown { site: 1 })
        );
        assert_eq!(
            b.ingest(SiteId(1), vec![96]),
            Err(SimError::SiteDown { site: 1 })
        );
        b.inject_fault(FaultEvent::StallSite {
            site: SiteId(0),
            micros: 500,
        })
        .unwrap();
        b.feed(SiteId(0), 3).unwrap();
        b.settle();
        assert_eq!(b.answers().unwrap(), counted(3, 6));
        assert_eq!(
            b.inject_fault(FaultEvent::KillSite { site: SiteId(9) }),
            Err(SimError::NoSuchSite { site: 9, sites: 2 })
        );
        assert_eq!(b.finish().unwrap().total_messages(), 3);
    }

    #[test]
    fn deterministic_backend_honors_fault_injection() {
        run_faulted_backend(Box::new(deterministic(2).unwrap()));
    }

    #[test]
    fn sharded_backend_honors_fault_injection() {
        run_faulted_backend(Box::new(
            sharded(2, 2, FlowControlConfig::default()).unwrap(),
        ));
    }

    #[test]
    fn backends_reject_small_clusters() {
        assert!(deterministic(1).is_err());
        assert!(sharded(1, 2, FlowControlConfig::default()).is_err());
    }

    #[test]
    fn sharded_settle_deadline_times_out_under_stall() {
        // A stalled site must degrade `settle_deadline` to `Timeout`
        // instead of parking unboundedly, and the runtime must stay
        // usable after.
        let mut b = sharded(2, 2, FlowControlConfig::default()).unwrap();
        b.inject_fault(FaultEvent::StallSite {
            site: SiteId(0),
            micros: 300_000,
        })
        .unwrap();
        b.feed(SiteId(0), 1).unwrap();
        let err = b.settle_deadline(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, SimError::Timeout { waited_ms: 20 }));
        // Usable after the timeout: a full settle waits out the stall.
        b.settle();
        assert_eq!(b.query(Query::Count).unwrap(), Answer::Count(1));
        Box::new(b).finish().unwrap();
    }

    #[test]
    fn deterministic_settle_deadline_always_succeeds() {
        let mut b = deterministic(2).unwrap();
        b.feed(SiteId(0), 1).unwrap();
        assert_eq!(b.settle_deadline(Duration::from_millis(1)), Ok(()));
        assert!(b.flow_control().is_none(), "no controller to observe");
    }

    #[test]
    fn clean_runs_grow_the_window_between_settles() {
        let flow = FlowControlConfig {
            win_min: 1,
            win_max: 64,
            initial: 1,
            increase: 1,
            ..FlowControlConfig::default()
        };
        let mut b = sharded(2, 2, flow).unwrap();
        for round in 0..4u64 {
            b.ingest(SiteId(0), vec![round]).unwrap();
            // Settling consumes the run, so the next pump observes a
            // clean completion and grows the window deterministically.
            b.settle();
        }
        let stats = b.flow_control().expect("the pool exposes stats");
        assert!(
            stats.windows[0] > 1,
            "window should have grown past the initial, got {}",
            stats.windows[0]
        );
        assert_eq!(stats.windows[1], 1, "idle site's window untouched");
        Box::new(b).finish().unwrap();
    }

    #[test]
    fn backpressure_on_a_stalled_site_halves_its_window() {
        let flow = FlowControlConfig {
            win_min: 1,
            win_max: 64,
            initial: 4,
            increase: 1,
            ..FlowControlConfig::default()
        };
        let mut b = sharded(2, 2, flow).unwrap();
        // The stall outlasts BACKPRESSURE_WAIT many times over.
        b.inject_fault(FaultEvent::StallSite {
            site: SiteId(0),
            micros: 50_000,
        })
        .unwrap();
        // First run queues behind the stall; the second finds a full
        // window buffered behind an unconsumed ticket -> drift signal.
        b.ingest(SiteId(0), vec![1, 2, 3, 4]).unwrap();
        b.ingest(SiteId(0), vec![5, 6, 7, 8]).unwrap();
        let stats = b.flow_control().unwrap();
        assert!(
            stats.drift_events >= 1,
            "backpressure should fire the drift signal, got {stats}"
        );
        b.settle();
        assert_eq!(b.answers().unwrap(), counted(8, 36));
        Box::new(b).finish().unwrap();
    }
}
