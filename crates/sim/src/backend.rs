//! Runtime-agnostic driving surface: the [`Backend`] trait and its
//! implementations.
//!
//! A backend owns `k` [`Site`] state machines plus one [`Coordinator`]
//! and carries their messages. The [`Backend`] trait is the *only*
//! surface the [`crate::Tracker`] facade (and the testkit's generic
//! scenario drivers) need, so a new runtime means one new impl here and
//! zero changes anywhere above.
//!
//! Two implementations exist:
//!
//! * [`DeterministicBackend`] wraps [`Cluster`]: single-threaded, every
//!   arrival drained to quiescence, the transcript the paper's theorems
//!   are metered against. `settle` is a no-op (the system is always
//!   quiescent between calls).
//! * [`ShardedBackend`] wraps [`crate::sharded::ShardedCluster`]: any
//!   number of logical sites multiplexed onto a fixed work-stealing
//!   worker pool. `feed_batch` uses the transcript-identical
//!   site-at-a-time schedule; [`Backend::ingest`] uses free-running
//!   per-site runs paced by an AIMD window (the adaptive flow-control
//!   discipline that keeps feedback-starved sites from
//!   over-communicating lives *here*, so every caller gets it for free —
//!   see [`crate::flow`]).

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
use crate::proto::{Coordinator, Site, SiteId};
use crate::sharded::{RunTicket, ShardedCluster, ShardedConfig};

/// One injectable fault, applied through [`Backend::inject_fault`] so
/// every runtime honors the same hostile-scenario vocabulary.
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

/// A runtime that can drive one protocol instance: deliver items, reach
/// quiescence, answer coordinator queries, meter communication, and tear
/// down.
///
/// All methods take `&mut self` even where an implementation could accept
/// `&self` (the pool's queues are `Sync`): the facade serializes callers
/// anyway, and `&mut` keeps the deterministic and pool signatures
/// identical.
pub trait Backend<S, C>: Sized
where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    /// Deliver one item to one site.
    ///
    /// Deterministic: runs all triggered communication to quiescence
    /// before returning. Pool: enqueues and returns (backpressure blocks
    /// only when the site's queue is full).
    fn feed(&mut self, site: SiteId, item: S::Item) -> Result<(), SimError>;

    /// Deliver a pre-assigned batch on a site-at-a-time schedule whose
    /// transcript (answers *and* metered words) is bit-identical to
    /// calling [`Backend::feed`] once per pair on the deterministic
    /// backend.
    fn feed_batch(&mut self, batch: &[(SiteId, S::Item)]) -> Result<(), SimError>;

    /// Deliver a whole same-site run for free-running consumption — the
    /// maximum-throughput path. Arrivals may interleave with in-flight
    /// communication, so the transcript is *not* pinned; the ε-guarantee
    /// still holds at quiescence. Implementations bound how far a site
    /// may run ahead of coordinator feedback (the pool keeps an adaptive
    /// AIMD run-length window per site; items may be buffered until the
    /// next `ingest`, `settle`, or `finish`). A killed or out-of-range
    /// site is rejected before anything is buffered.
    fn ingest(&mut self, site: SiteId, items: Vec<S::Item>) -> Result<(), SimError>;

    /// Block until no message is queued or in flight anywhere. Queries
    /// are meaningful (and meters consistent) only at quiescence.
    fn settle(&mut self);

    /// Deadline-aware [`Backend::settle`]: wait for quiescence at most
    /// `deadline`, then degrade to [`SimError::Timeout`] instead of an
    /// unbounded park — the graceful-degradation path for stalled or
    /// wedged sites. The runtime stays usable after a timeout. The
    /// deterministic backend is always quiescent, so the default simply
    /// settles and succeeds.
    fn settle_deadline(&mut self, _deadline: Duration) -> Result<(), SimError> {
        self.settle();
        Ok(())
    }

    /// Install the flow controller's reference communication rate
    /// (expected metered words per fed item, e.g. the protocol's word
    /// budget divided by the stream length). Free-running ingest compares
    /// observed words-per-item against this rate to detect drift; without
    /// a hint, only the backpressure signal adapts windows. No-op on
    /// backends without a flow controller.
    fn cost_hint(&mut self, _words_per_item: f64) {}

    /// Snapshot the free-running flow controller's observable state, or
    /// `None` on backends without one (the deterministic backend needs no
    /// flow control — it is always quiescent).
    fn flow_control(&self) -> Option<FlowControlStats> {
        None
    }

    /// Run a closure against the coordinator state and return its result.
    /// Call [`Backend::settle`] first if the query must observe a
    /// quiescent state.
    fn with_coordinator<R, F>(&mut self, f: F) -> Result<R, SimError>
    where
        R: Send + 'static,
        F: FnOnce(&mut C) -> R + Send + 'static;

    /// Apply one fault (see [`FaultEvent`] for the cross-backend
    /// semantics). Inject at quiescent points — after [`Backend::settle`]
    /// or between `feed_batch` chunks — so the fault's position in the
    /// transcript is deterministic.
    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError>;

    /// Apply a trace configuration (see [`TraceConfig`]). Takes effect
    /// for events recorded after the call; enabling before the first
    /// feed yields a complete stream (the configuration store
    /// happens-before the workers' next command receive). The default is
    /// a no-op for backends without tracing.
    fn set_trace(&mut self, _config: TraceConfig) {}

    /// Merged, clock-ordered snapshot of every recorded trace event.
    /// Non-destructive; call after [`Backend::settle`] for a consistent
    /// stream. Empty when tracing was never enabled.
    fn trace_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Trace events lost to ring-buffer overwrite so far (the rings keep
    /// the newest events; see `dtrack-trace`'s overflow policy).
    fn trace_dropped(&mut self) -> u64 {
        0
    }

    /// Snapshot the communication meter (merged across threads where
    /// applicable). Call after [`Backend::settle`] for a consistent
    /// picture.
    fn cost(&mut self) -> MessageMeter;

    /// Tear down, returning the final coordinator, sites, and meter.
    fn finish(self) -> Result<(C, Vec<S>, MessageMeter), SimError>;
}

/// The single-threaded, transcript-pinned backend (wraps [`Cluster`]).
pub struct DeterministicBackend<S, C>
where
    S: Site,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    cluster: Cluster<S, C>,
    /// Scratch for [`Backend::ingest`]'s (site, item) pairing.
    run_buf: Vec<(SiteId, S::Item)>,
    /// Driver-lane tracer: settle boundaries and fault events.
    tracer: SiteTracer,
}

impl<S, C> DeterministicBackend<S, C>
where
    S: Site,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    /// Build the backend from pre-constructed protocol state.
    pub fn new(sites: Vec<S>, coordinator: C) -> Result<Self, SimError> {
        let cluster = Cluster::new(sites, coordinator)?;
        let tracer = SiteTracer::new(Arc::clone(cluster.trace_shared()), TraceLane::Driver);
        Ok(DeterministicBackend {
            cluster,
            run_buf: Vec::new(),
            tracer,
        })
    }

    /// The wrapped cluster (typed access for tests and adversaries).
    pub fn cluster(&self) -> &Cluster<S, C> {
        &self.cluster
    }
}

impl<S, C> Backend<S, C> for DeterministicBackend<S, C>
where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    fn feed(&mut self, site: SiteId, item: S::Item) -> Result<(), SimError> {
        self.cluster.feed(site, item)
    }

    fn feed_batch(&mut self, batch: &[(SiteId, S::Item)]) -> Result<(), SimError> {
        self.cluster.feed_batch(batch)
    }

    fn ingest(&mut self, site: SiteId, items: Vec<S::Item>) -> Result<(), SimError> {
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

    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        match fault {
            FaultEvent::KillSite { site } => {
                self.cluster.kill_site(site)?;
                self.tracer
                    .record(TraceEventKind::SiteKilled { site: site.0 });
                Ok(())
            }
            // No clocks on the deterministic backend: a stall is a pure
            // timing fault and timing does not exist here. Still traced —
            // the fault schedule's position in the stream is part of the
            // transcript.
            FaultEvent::StallSite { site, micros } => {
                self.tracer.record(TraceEventKind::SiteStalled {
                    site: site.0,
                    micros,
                });
                Ok(())
            }
        }
    }

    fn with_coordinator<R, F>(&mut self, f: F) -> Result<R, SimError>
    where
        R: Send + 'static,
        F: FnOnce(&mut C) -> R + Send + 'static,
    {
        Ok(f(self.cluster.coordinator_mut()))
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.cluster.set_trace(config);
    }

    fn trace_events(&mut self) -> Vec<TraceEvent> {
        merge_snapshots(vec![self.cluster.trace_events(), self.tracer.snapshot()])
    }

    fn trace_dropped(&mut self) -> u64 {
        self.cluster.trace_dropped() + self.tracer.dropped()
    }

    fn cost(&mut self) -> MessageMeter {
        self.cluster.meter().clone()
    }

    fn finish(self) -> Result<(C, Vec<S>, MessageMeter), SimError> {
        Ok(self.cluster.into_parts())
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

/// The per-site AIMD flow-control window behind the pool's
/// [`Backend::ingest`] (the successor of the fixed one-run-per-site
/// ticket window).
///
/// Each site keeps at most one outstanding run plus a small buffer of
/// not-yet-enqueued items. Run length follows the site's
/// [`AimdController`] window: completed runs grow it additively, the
/// drift signal halves it. Unbounded run queueing would let sites race
/// ahead of coordinator feedback and flood stale-threshold deltas (see
/// [`ShardedCluster::ingest_run`]).
///
/// Buffered items become visible at the next flush point — any further
/// `ingest` for the site, or `settle`/`finish`/`inject_fault`, all of
/// which flush. The settled `feed_batch` path never touches this type,
/// so golden transcripts are unaffected.
struct AimdWindow<I> {
    controller: AimdController,
    tickets: Vec<Option<RunTicket>>,
    buffers: Vec<Vec<I>>,
    /// Driver-lane tracer for window changes and backpressure waits.
    tracer: SiteTracer,
    /// Reference words-per-item installed via [`Backend::cost_hint`];
    /// `None` disables the rate-drift signal.
    ref_rate: Option<f64>,
    /// Items handed to the cluster so far (probe pacing).
    flushed_items: u64,
    last_probe_items: u64,
    last_probe_words: u64,
}

impl<I> AimdWindow<I> {
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

    /// Swap in a new configuration (resets windows to the new initial;
    /// call before ingesting).
    fn set_config(&mut self, config: FlowControlConfig) {
        self.controller = AimdController::new(self.buffers.len(), config);
    }

    fn set_ref_rate(&mut self, words_per_item: f64) {
        self.ref_rate = Some(words_per_item);
    }

    fn stats(&self) -> FlowControlStats {
        self.controller.stats()
    }

    /// Buffer `items` for `site` (already checked by the caller to be in
    /// range and live) and pump the window: enqueue
    /// window-sized runs whenever the site's previous run has resolved,
    /// blocking (with the backpressure drift signal) only when the buffer
    /// has a full window waiting.
    fn ingest(
        &mut self,
        site: SiteId,
        mut items: Vec<I>,
        mut enqueue: impl FnMut(Vec<I>) -> Result<RunTicket, SimError>,
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
    /// bounded (50 × `backpressure_wait`) so a wedged cluster degrades
    /// into the queues' own backpressure instead of hanging here.
    fn stall_for_backlog(&mut self, idx: usize, probe_backlog: &mut impl FnMut() -> u64) {
        let config = *self.controller.config();
        if config.inflight_cap == 0 || probe_backlog() <= u64::from(config.inflight_cap) {
            return;
        }
        let started = Instant::now();
        let mut drifted = false;
        loop {
            std::thread::yield_now();
            if probe_backlog() <= u64::from(config.inflight_cap) {
                return;
            }
            let waited = started.elapsed();
            if !drifted && waited >= config.backpressure_wait {
                let before = self.controller.window(idx);
                self.controller.drift_site(idx);
                self.tracer
                    .record(TraceEventKind::BackpressureWait { site: idx as u32 });
                self.trace_window_change(idx, before);
                drifted = true;
            }
            if waited >= config.backpressure_wait * 50 {
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
        enqueue: &mut impl FnMut(Vec<I>) -> Result<RunTicket, SimError>,
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
                    let wait = self.controller.config().backpressure_wait;
                    match ticket.0.recv_timeout(wait) {
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
            let run: Vec<I> = if buf.len() <= win {
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
    fn flush(&mut self, mut enqueue: impl FnMut(SiteId, Vec<I>) -> Result<RunTicket, SimError>) {
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

    fn clear(&mut self) {
        self.tickets.clear();
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

/// The work-stealing pool backend (wraps [`ShardedCluster`]): a fixed
/// worker count serving any number of logical sites.
pub struct ShardedBackend<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    cluster: ShardedCluster<S, C>,
    window: AimdWindow<S::Item>,
    /// Driver-lane tracer: settle phases and fault events.
    tracer: SiteTracer,
}

impl<S, C> ShardedBackend<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    /// Spawn the default pool (one worker per core) from pre-constructed
    /// protocol state.
    pub fn spawn(sites: Vec<S>, coordinator: C) -> Result<Self, SimError> {
        Self::spawn_with(sites, coordinator, ShardedConfig::default())
    }

    /// Spawn with an explicit worker count and queue capacity.
    pub fn spawn_with(
        sites: Vec<S>,
        coordinator: C,
        config: ShardedConfig,
    ) -> Result<Self, SimError> {
        let k = sites.len();
        let cluster = ShardedCluster::spawn_with(sites, coordinator, config)?;
        let window = AimdWindow::new(
            k,
            FlowControlConfig::default(),
            SiteTracer::new(Arc::clone(cluster.trace_shared()), TraceLane::Driver),
        );
        let tracer = SiteTracer::new(Arc::clone(cluster.trace_shared()), TraceLane::Driver);
        Ok(ShardedBackend {
            cluster,
            window,
            tracer,
        })
    }

    /// Replace the free-running flow-control configuration (resets every
    /// window to the configuration's initial value; call before
    /// ingesting).
    pub fn set_flow_control(&mut self, config: FlowControlConfig) {
        self.window.set_config(config);
    }
}

impl<S, C> Backend<S, C> for ShardedBackend<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    fn feed(&mut self, site: SiteId, item: S::Item) -> Result<(), SimError> {
        // Flush buffered free-running runs first so items stay ordered
        // per site even when callers mix ingest and feed.
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        self.cluster.feed(site, item)
    }

    fn feed_batch(&mut self, batch: &[(SiteId, S::Item)]) -> Result<(), SimError> {
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        self.cluster.feed_batch(batch)
    }

    fn ingest(&mut self, site: SiteId, items: Vec<S::Item>) -> Result<(), SimError> {
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
        // Tail-flush buffered runs, then wait: the pending counter covers
        // queued runs (each `Run` command holds a token until fully
        // consumed), so waiting for quiescence also waits out every
        // outstanding ticket.
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        let started = settle_begin(&mut self.tracer, self.cluster.backlog_hint());
        self.cluster.settle();
        settle_end(&mut self.tracer, started);
    }

    fn settle_deadline(&mut self, deadline: Duration) -> Result<(), SimError> {
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        let started = settle_begin(&mut self.tracer, self.cluster.backlog_hint());
        let result = self.cluster.settle_deadline(deadline);
        settle_end(&mut self.tracer, started);
        result
    }

    fn cost_hint(&mut self, words_per_item: f64) {
        self.window.set_ref_rate(words_per_item);
    }

    fn flow_control(&self) -> Option<FlowControlStats> {
        Some(self.window.stats())
    }

    fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        // Flush so the fault's position relative to already-ingested
        // items is deterministic.
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        match fault {
            FaultEvent::KillSite { site } => {
                self.cluster.kill_site(site)?;
                self.tracer
                    .record(TraceEventKind::SiteKilled { site: site.0 });
                Ok(())
            }
            FaultEvent::StallSite { site, micros } => {
                self.cluster.stall_site(site, micros)?;
                self.tracer.record(TraceEventKind::SiteStalled {
                    site: site.0,
                    micros,
                });
                Ok(())
            }
        }
    }

    fn with_coordinator<R, F>(&mut self, f: F) -> Result<R, SimError>
    where
        R: Send + 'static,
        F: FnOnce(&mut C) -> R + Send + 'static,
    {
        self.cluster.with_coordinator(f)
    }

    fn set_trace(&mut self, config: TraceConfig) {
        self.cluster.set_trace(config);
    }

    fn trace_events(&mut self) -> Vec<TraceEvent> {
        merge_snapshots(vec![
            self.cluster.trace_events(),
            self.tracer.snapshot(),
            self.window.tracer.snapshot(),
        ])
    }

    fn trace_dropped(&mut self) -> u64 {
        self.cluster.trace_dropped() + self.tracer.dropped() + self.window.tracer.dropped()
    }

    fn cost(&mut self) -> MessageMeter {
        self.cluster.cost()
    }

    fn finish(mut self) -> Result<(C, Vec<S>, MessageMeter), SimError> {
        let cluster = &self.cluster;
        self.window.flush(|s, run| cluster.ingest_run(s, run));
        self.window.clear();
        self.cluster.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{MessageSize, Outbox};

    fn pool(workers: usize) -> ShardedConfig {
        ShardedConfig {
            workers: Some(workers),
            ..ShardedConfig::default()
        }
    }

    #[derive(Debug, Default)]
    struct EchoSite;
    #[derive(Debug)]
    struct Up(u64);
    #[derive(Debug)]
    struct NoDown;

    impl MessageSize for Up {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "b/up"
        }
    }
    impl MessageSize for NoDown {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "b/down"
        }
    }

    impl Site for EchoSite {
        type Item = u64;
        type Up = Up;
        type Down = NoDown;
        fn on_item(&mut self, item: u64, out: &mut Vec<Up>) {
            out.push(Up(item));
        }
        fn on_message(&mut self, _msg: &NoDown, _out: &mut Vec<Up>) {}
    }

    #[derive(Debug, Default)]
    struct SumCoord {
        sum: u64,
    }
    impl Coordinator for SumCoord {
        type Up = Up;
        type Down = NoDown;
        fn on_message(&mut self, _from: SiteId, msg: Up, _out: &mut Outbox<NoDown>) {
            self.sum += msg.0;
        }
    }

    fn run_backend<B: Backend<EchoSite, SumCoord>>(mut b: B) {
        b.feed(SiteId(0), 1).unwrap();
        b.feed_batch(&[(SiteId(1), 2), (SiteId(1), 3)]).unwrap();
        b.ingest(SiteId(0), vec![4, 5]).unwrap();
        b.ingest(SiteId(0), vec![6]).unwrap();
        b.settle();
        let sum = b.with_coordinator(|c| c.sum).unwrap();
        assert_eq!(sum, 21);
        let meter = b.cost();
        assert_eq!(meter.kind("b/up").messages, 6);
        let (coord, sites, meter) = b.finish().unwrap();
        assert_eq!(coord.sum, 21);
        assert_eq!(sites.len(), 2);
        assert_eq!(meter.total_messages(), 6);
    }

    #[test]
    fn deterministic_backend_drives_the_protocol() {
        let sites = (0..2).map(|_| EchoSite).collect();
        run_backend(DeterministicBackend::new(sites, SumCoord::default()).unwrap());
    }

    #[test]
    fn sharded_backend_drives_the_protocol() {
        // Fewer workers than sites and more workers than sites both
        // satisfy the backend contract.
        for workers in [1usize, 4] {
            let sites = (0..2).map(|_| EchoSite).collect();
            let b = ShardedBackend::spawn_with(sites, SumCoord::default(), pool(workers));
            run_backend(b.unwrap());
        }
    }

    /// Identical trace semantics on every backend: untraced runs record
    /// nothing, traced runs carry the hop vocabulary with nondecreasing
    /// merged clocks, and tracing never perturbs the protocol outcome.
    fn run_traced_backend<B: Backend<EchoSite, SumCoord>>(mut b: B) {
        assert!(
            b.trace_events().is_empty(),
            "untraced backends record nothing"
        );
        b.set_trace(TraceConfig::on());
        b.feed(SiteId(0), 1).unwrap();
        b.feed_batch(&[(SiteId(1), 2), (SiteId(1), 3)]).unwrap();
        b.ingest(SiteId(0), vec![4, 5, 6]).unwrap();
        b.settle();
        assert_eq!(b.with_coordinator(|c| c.sum).unwrap(), 21);
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
        let sites = (0..2).map(|_| EchoSite).collect();
        run_traced_backend(DeterministicBackend::new(sites, SumCoord::default()).unwrap());
    }

    #[test]
    fn sharded_backend_traces_the_hop_vocabulary() {
        let sites = (0..2).map(|_| EchoSite).collect();
        run_traced_backend(
            ShardedBackend::spawn_with(sites, SumCoord::default(), pool(2)).unwrap(),
        );
    }

    /// Identical fault semantics on every backend: a killed site rejects
    /// feeds with `SiteDown`, the rest of the cluster keeps working, a
    /// stall never wedges `settle`, and teardown stays clean.
    fn run_faulted_backend<B: Backend<EchoSite, SumCoord>>(mut b: B) {
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
        let sum = b.with_coordinator(|c| c.sum).unwrap();
        assert_eq!(sum, 6);
        assert_eq!(
            b.inject_fault(FaultEvent::KillSite { site: SiteId(9) }),
            Err(SimError::NoSuchSite { site: 9, sites: 2 })
        );
        let (coord, _, _) = b.finish().unwrap();
        assert_eq!(coord.sum, 6);
    }

    #[test]
    fn deterministic_backend_honors_fault_injection() {
        let sites = (0..2).map(|_| EchoSite).collect();
        run_faulted_backend(DeterministicBackend::new(sites, SumCoord::default()).unwrap());
    }

    #[test]
    fn sharded_backend_honors_fault_injection() {
        let sites = (0..2).map(|_| EchoSite).collect();
        run_faulted_backend(
            ShardedBackend::spawn_with(sites, SumCoord::default(), pool(2)).unwrap(),
        );
    }

    #[test]
    fn backends_reject_small_clusters() {
        assert!(DeterministicBackend::new(vec![EchoSite], SumCoord::default()).is_err());
        assert!(ShardedBackend::spawn(vec![EchoSite], SumCoord::default()).is_err());
    }

    /// A stalled site must degrade `settle_deadline` to `Timeout` instead
    /// of parking unboundedly, and the runtime must stay usable after.
    fn run_stalled_deadline<B: Backend<EchoSite, SumCoord>>(mut b: B) {
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
        assert_eq!(b.with_coordinator(|c| c.sum).unwrap(), 1);
        b.finish().unwrap();
    }

    #[test]
    fn sharded_settle_deadline_times_out_under_stall() {
        let sites = (0..2).map(|_| EchoSite).collect();
        run_stalled_deadline(
            ShardedBackend::spawn_with(sites, SumCoord::default(), pool(2)).unwrap(),
        );
    }

    #[test]
    fn deterministic_settle_deadline_always_succeeds() {
        let sites = (0..2).map(|_| EchoSite).collect();
        let mut b = DeterministicBackend::new(sites, SumCoord::default()).unwrap();
        b.feed(SiteId(0), 1).unwrap();
        assert_eq!(b.settle_deadline(Duration::from_millis(1)), Ok(()));
        assert!(b.flow_control().is_none(), "no controller to observe");
    }

    #[test]
    fn clean_runs_grow_the_window_between_settles() {
        let sites = (0..2).map(|_| EchoSite).collect();
        let mut b = ShardedBackend::spawn_with(sites, SumCoord::default(), pool(2)).unwrap();
        b.set_flow_control(FlowControlConfig {
            win_min: 1,
            win_max: 64,
            initial: 1,
            increase: 1,
            ..FlowControlConfig::default()
        });
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
        b.finish().unwrap();
    }

    #[test]
    fn backpressure_on_a_stalled_site_halves_its_window() {
        let sites = (0..2).map(|_| EchoSite).collect();
        let mut b = ShardedBackend::spawn_with(sites, SumCoord::default(), pool(2)).unwrap();
        b.set_flow_control(FlowControlConfig {
            win_min: 1,
            win_max: 64,
            initial: 4,
            increase: 1,
            backpressure_wait: Duration::from_millis(1),
            ..FlowControlConfig::default()
        });
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
        assert_eq!(b.with_coordinator(|c| c.sum).unwrap(), 36);
        b.finish().unwrap();
    }
}
