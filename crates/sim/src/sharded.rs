//! The parallel runtime: many logical sites multiplexed onto a fixed
//! work-stealing worker pool.
//!
//! The same `Site`/`Coordinator` state machines as the deterministic
//! [`crate::Cluster`], with the same metered transcript, run on `W`
//! worker threads (default: the number of cores) plus one coordinator
//! thread. One process can host thousands of logical sites, and with
//! `W ≥ k` every site gets a worker of its own. Unlike the deterministic
//! runner, arrivals at *different* sites may interleave with in-flight
//! communication; [`ShardedCluster::settle`] waits until the system is
//! quiescent, which is when queries are meaningful.
//!
//! ## Design
//!
//! * **Per-site run queues.** Every logical site owns a bounded FIFO
//!   queue of commands (items, batches, runs, coordinator downs). All of
//!   a site's work flows through its own queue, so per-site arrival
//!   order — which the quiescence protocol and the transcript-identical
//!   batch schedule depend on — is a property of the data structure, not
//!   of scheduling luck.
//! * **Home shards + run-granularity stealing.** Each site is pinned to
//!   a home shard (`site % workers`). A shard is a deque of *ready
//!   sites*: a site is enqueued when its (previously empty) queue gains
//!   a command, and dequeued by exactly one worker, which then serves one
//!   *site-run*: the site's queue in FIFO order up to a fairness quantum
//!   (one whole batched run, or a burst of light commands), after which
//!   a still-busy site goes to the back of its home shard and the worker
//!   claims the next ready site. Idle workers steal whole site-runs from
//!   the back of other shards' deques; they never split one site's queue
//!   across workers. A `scheduled` flag, flipped only under the site's
//!   queue lock, guarantees a site is in at most one shard deque and
//!   served by at most one worker at a time — so per-site FIFO order
//!   survives any interleaving of steals and requeues.
//! * **Bounded site queues, unbounded coordinator inbox.** A site queue
//!   holds at most [`SITE_QUEUE_CAP`] commands by default; a faster
//!   producer (the feeder, or the coordinator fanning out downs) parks
//!   instead of growing the queue. The coordinator's inbox stays
//!   unbounded on purpose: upstream traffic is protocol-bounded
//!   (O(k/ε·log n) words for the whole stream), and an unbounded inbox
//!   breaks the only send cycle in the system (site → coordinator →
//!   site). A worker serving a site never blocks sending up, so it always
//!   drains that site's queue, so parked down-sends and feeds always make
//!   progress: the bounded queues cannot deadlock. `dtrack-lint`'s D3
//!   rule checks this claim on the registered wait-for graph.
//! * **Event-based quiescence.** One atomic counter (`Pending`) tracks
//!   commands and messages that are queued or being processed;
//!   [`ShardedCluster::settle`] parks on a condvar that the last
//!   decrement signals — no spinning.
//! * **Token-tracked pending counts.** Every tracked command carries a
//!   `PendingToken` that increments the counter on creation and
//!   decrements it on drop. Handlers hold the token while they run and
//!   enqueue their outputs (which carry their own tokens) before
//!   releasing it, so the counter only reaches zero when a whole cascade
//!   has finished. The token makes the counter leak-proof by
//!   construction: a push that fails (the command comes back inside the
//!   error), a dead site's drained queue, and a handler that panics all
//!   release their count on the normal drop path, so `settle` can never
//!   hang on a stalled or dead site.
//! * **Per-site meters.** Upstream hops are metered at the sending site,
//!   downstream hops at the receiving site, each into that site's own
//!   [`MessageMeter`] (touched only by the worker currently serving the
//!   site — no contended lock on the per-hop path). [`ShardedCluster::cost`]
//!   and [`ShardedCluster::shutdown`] merge them on demand.
//! * **Death containment.** A panicking site handler poisons only that
//!   site: the worker catches the unwind, discards the site's state,
//!   marks its queue dead (draining it releases the queued tokens and
//!   resolves its `RunTicket`s as [`SimError::WorkerGone`]), and keeps
//!   serving other sites. The pool never loses a worker to one bad site.
//!
//! ## Why stealing whole site-runs keeps transcripts bit-identical
//!
//! The equivalence suites drive [`ShardedCluster::feed_batch`], which
//! ships one site's run at a time and settles the triggered cascade
//! between quiescent steps — under that schedule at most one site-run is
//! in flight, and it is served by exactly one worker in FIFO order, so
//! which worker (home or thief) serves it is unobservable: answers and
//! metered words match the deterministic runner bit-for-bit. Stealing
//! individual *items* instead would interleave one site's arrivals
//! across workers and break the per-site order the protocols assume.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtrack_trace::{
    merge_snapshots, SiteTracer, TraceConfig, TraceEvent, TraceEventKind, TraceLane, TraceShared,
};

use crate::error::SimError;
use crate::meter::MessageMeter;
use crate::proto::{Coordinator, Down, MessageSize, Outbox, Site, SiteId};

/// Default capacity of each site's command queue. Deep enough that the
/// feeder and the coordinator rarely contend on a healthy run, shallow
/// enough that a stalled site exerts backpressure (a blocked `feed`)
/// instead of accumulating unbounded memory. Override it per cluster
/// with [`ShardedConfig::site_queue_cap`] or
/// `TrackerBuilder::site_queue_cap`.
pub const SITE_QUEUE_CAP: usize = 1024;

/// Shared bookkeeping for quiescence detection: the number of messages
/// that are queued or currently being processed, plus the condvar
/// [`ShardedCluster::settle`] parks on.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    count: AtomicU64,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Pending {
    fn inc(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    fn dec(&self) {
        let prev = self.count.fetch_sub(1, Ordering::SeqCst);
        // An unmatched decrement used to wrap to u64::MAX and silently
        // wedge quiescence detection; fail loudly instead.
        assert!(
            prev != 0,
            "Pending::dec without a matching inc — quiescence counter underflow"
        );
        if prev == 1 {
            // Take the lock before notifying so a waiter that has checked
            // the counter but not yet parked cannot miss the wakeup.
            let _guard = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.idle_cv.notify_all();
        }
    }

    /// Current in-flight count (commands plus undelivered protocol
    /// messages) — the free-running flow controller's backlog signal.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    pub(crate) fn wait_idle(&self) {
        if self.count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut guard = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.count.load(Ordering::SeqCst) != 0 {
            guard = self.idle_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Deadline-aware [`Pending::wait_idle`]: `true` when the system went
    /// quiescent, `false` when the deadline expired first (the count may
    /// still drain later — nothing is cancelled).
    pub(crate) fn wait_idle_deadline(&self, deadline: Duration) -> bool {
        if self.count.load(Ordering::SeqCst) == 0 {
            return true;
        }
        let start = Instant::now();
        let mut guard = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.count.load(Ordering::SeqCst) != 0 {
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return false;
            }
            let (g, _) = self
                .idle_cv
                .wait_timeout(guard, deadline - elapsed)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
        true
    }
}

/// One unit of the pending count, held by exactly one in-flight command.
/// Created at send time (increments), released on drop (decrements) — on
/// the success path after the handler finishes, but equally when a send
/// fails and returns the command, when a disconnected queue destroys its
/// backlog, or when a handler panics and unwinds.
pub(crate) struct PendingToken(Arc<Pending>);

impl PendingToken {
    pub(crate) fn new(pending: &Arc<Pending>) -> Self {
        pending.inc();
        PendingToken(Arc::clone(pending))
    }
}

impl Drop for PendingToken {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Completion handle for a free-running [`ShardedCluster::ingest_run`].
#[must_use = "hold the ticket and wait on it to bound in-flight items per site"]
pub struct RunTicket(pub(crate) Receiver<()>);

impl RunTicket {
    /// Block until the run has been fully consumed.
    ///
    /// Returns [`SimError::WorkerGone`] when the consuming site died
    /// before finishing the run (its `done` sender is dropped with the
    /// discarded command): the items were *not* all ingested, and callers
    /// that used to treat this as normal completion silently dropped
    /// data. The disconnect still resolves immediately — a dead site
    /// can never hang the feeder.
    pub fn wait(self) -> Result<(), SimError> {
        self.0
            .recv()
            .map_err(|_| SimError::WorkerGone { who: "site" })
    }

    /// Deadline-aware [`RunTicket::wait`]: a run still unconsumed after
    /// `deadline` (a stalled or wedged site) returns
    /// [`SimError::Timeout`] instead of parking forever. The ticket is
    /// consumed either way; the run itself is not cancelled.
    pub fn wait_timeout(self, deadline: Duration) -> Result<(), SimError> {
        self.0.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => SimError::Timeout {
                waited_ms: deadline.as_millis() as u64,
            },
            RecvTimeoutError::Disconnected => SimError::WorkerGone { who: "site" },
        })
    }
}

/// Configuration of the sharded worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Worker threads serving all sites; `None` means one per available
    /// core (`std::thread::available_parallelism`). Clamped to ≥ 1.
    pub workers: Option<usize>,
    /// Per-site command-queue capacity (default [`SITE_QUEUE_CAP`]).
    /// Clamped to ≥ 1.
    pub site_queue_cap: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            workers: None,
            site_queue_cap: SITE_QUEUE_CAP,
        }
    }
}

impl ShardedConfig {
    /// The worker count this config resolves to on this machine.
    pub fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers).max(1)
    }
}

/// The default worker count: one per available core (1 when the platform
/// cannot report parallelism).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One queued unit of site work. Meter snapshots and teardown are
/// handled out-of-band (the pool owns the site state, so no
/// `Meter`/`Stop` commands are needed).
enum ShardCmd<S: Site> {
    /// One item; the per-item slow path.
    Item(S::Item, PendingToken),
    /// A same-site run consumed through [`Site::on_items`] one quiescent
    /// step at a time (see [`ShardedCluster::feed_batch`]).
    Batch {
        items: Vec<S::Item>,
        progress: Sender<usize>,
        token: PendingToken,
    },
    /// Continue the in-progress batch with the next quiescent step.
    Resume(PendingToken),
    /// A same-site run consumed to completion without global
    /// synchronization (free-running parallel ingest).
    Run(Vec<S::Item>, Sender<()>, PendingToken),
    /// A downstream protocol message from the coordinator.
    Down(Arc<S::Down>, PendingToken),
    /// Fault injection: hold this site's worker for the given number of
    /// microseconds (a slow consumer). The token keeps the system
    /// non-quiescent for the duration, so `settle()` observes the stall —
    /// and proves it terminates anyway.
    Stall(u64, PendingToken),
}

/// A site's command queue plus its scheduling state. `scheduled` flips
/// only under the queue lock, which is what makes "in at most one shard
/// deque, served by at most one worker" an invariant rather than a race.
struct QueueInner<S: Site> {
    cmds: VecDeque<ShardCmd<S>>,
    scheduled: bool,
    dead: bool,
}

/// State of a batch being consumed one quiescent step at a time.
struct BatchState<S: Site> {
    items: Vec<S::Item>,
    off: usize,
    progress: Sender<usize>,
}

/// The part of a site only its current server touches: the protocol
/// state machine, its meter, the in-progress batch, and scratch buffers.
/// Behind its own mutex so `cost()` and `shutdown()` can snapshot meters
/// between claims (the lock is held for at most one serve quantum, and
/// is uncontended on the serving path — one server per site).
struct SiteExec<S: Site> {
    /// `None` once the site died (its state is discarded, as a dead
    /// thread's would be) or after `shutdown` collected it.
    site: Option<S>,
    meter: MessageMeter,
    /// Words already published to the pool-wide hint counter.
    words_reported: u64,
    batch: Option<BatchState<S>>,
    /// Reused upstream-message buffer.
    out: Vec<S::Up>,
    /// This site's trace ring (touched only by the worker currently
    /// serving the site, exactly like the meter; snapshotted under the
    /// exec lock by `trace_events`).
    tracer: SiteTracer,
}

struct SiteSlot<S: Site> {
    queue: Mutex<QueueInner<S>>,
    /// Producers blocked on a full queue park here.
    space_cv: Condvar,
    exec: Mutex<SiteExec<S>>,
    home: usize,
    /// Administrative fault-injection flag ([`ShardedCluster::kill_site`]):
    /// feeds to this site error with [`SimError::SiteDown`] and
    /// coordinator downs are dropped unmetered. Distinct from
    /// `QueueInner::dead`, the panic path — an administratively killed
    /// site's state is frozen and returned intact by `shutdown`, and the
    /// run is *not* tainted.
    down: AtomicBool,
}

/// One shard's ready-site deques. The urgent lane holds sites whose
/// next queued command is coordinator feedback (a `Down`): workers
/// drain it first across all shards, because a site sitting on
/// unapplied feedback while other sites consume items is exactly the
/// staleness that makes protocols over-communicate. With one thread per
/// site the OS would give this ordering for free (a polled idle site is
/// a blocked thread that wakes and replies immediately); the pool has to
/// schedule it deliberately. Per-site FIFO is untouched --
/// the lane only decides *which site* is claimed next, never reorders
/// one site's queue.
#[derive(Default)]
struct ShardQueues {
    urgent: VecDeque<usize>,
    normal: VecDeque<usize>,
}

/// Everything the workers, the coordinator thread, and the handle share.
struct Pool<S: Site> {
    sites: Vec<SiteSlot<S>>,
    /// Per-shard deques of ready site indices.
    shards: Vec<Mutex<ShardQueues>>,
    /// Ready sites across all shards (parking heuristic; exact counts
    /// are in the shard deques).
    ready: AtomicUsize,
    sched_lock: Mutex<()>,
    sched_cv: Condvar,
    /// Graceful stop: workers exit when no work is available.
    stop: AtomicBool,
    /// Hard stop (abandon path): workers exit between commands and
    /// producers stop blocking on full queues.
    abort: AtomicBool,
    /// Any site died (its panic was contained but the run is tainted).
    failed: AtomicBool,
    pending: Arc<Pending>,
    queue_cap: usize,
    /// Relaxed running total of metered words, published by workers after
    /// every serve quantum. Read by [`ShardedCluster::words_hint`] so
    /// flow-control probes never contend for the per-site exec locks the
    /// way a full `cost()` snapshot does.
    words_shared: AtomicU64,
    /// Shared trace configuration every site's [`SiteTracer`] reads; off
    /// by default so the untraced hot path pays one relaxed load and
    /// branch per event site.
    trace_shared: Arc<TraceShared>,
}

impl<S: Site> Pool<S> {
    fn lock_queue(&self, idx: usize) -> MutexGuard<'_, QueueInner<S>> {
        self.sites[idx]
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn lock_exec(&self, idx: usize) -> MutexGuard<'_, SiteExec<S>> {
        self.sites[idx]
            .exec
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a command on a site's queue, blocking while the queue is
    /// full (backpressure). Fails — handing the command back so its
    /// token releases with it — when the site is dead.
    fn push_cmd(&self, idx: usize, cmd: ShardCmd<S>) -> Result<(), ShardCmd<S>> {
        let slot = &self.sites[idx];
        let mut q = self.lock_queue(idx);
        while !q.dead && !self.abort.load(Ordering::SeqCst) && q.cmds.len() >= self.queue_cap {
            q = slot.space_cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.dead || self.abort.load(Ordering::SeqCst) {
            return Err(cmd);
        }
        // A site whose next command is feedback goes to the urgent lane;
        // the pushed command is the front exactly when the queue was
        // empty (i.e. the site is newly ready).
        let urgent = q.cmds.is_empty() && matches!(&cmd, ShardCmd::Down(..));
        q.cmds.push_back(cmd);
        let newly_ready = !q.scheduled;
        if newly_ready {
            q.scheduled = true;
        }
        drop(q);
        if newly_ready {
            self.enqueue_site(idx, urgent);
        }
        Ok(())
    }

    /// Put a newly ready site on its home shard and wake one worker. The
    /// notify is taken under `sched_lock`, after the ready increment, so
    /// a worker that checked the counter but has not parked yet cannot
    /// miss the wakeup.
    fn enqueue_site(&self, idx: usize, urgent: bool) {
        let home = self.sites[idx].home;
        // Count before publishing: a worker can pop the entry the moment
        // it lands in the deque, and its decrement must never see the
        // counter still at the pre-increment value (underflow would wrap
        // and leave the park check spinning on a huge count).
        self.ready.fetch_add(1, Ordering::SeqCst);
        {
            let mut shard = self.shards[home].lock().unwrap_or_else(|e| e.into_inner());
            if urgent {
                shard.urgent.push_back(idx);
            } else {
                shard.normal.push_back(idx);
            }
        }
        let _guard = self.sched_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sched_cv.notify_one();
    }

    /// Claim the next ready site for worker `w`: pending feedback
    /// (urgent lane) across all shards first, then item work — own shard
    /// from the front, steals from the *back* of another shard (the
    /// site least recently made ready there — classic steal order, and
    /// the whole site-run moves, never part of one site's queue).
    fn next_site(&self, w: usize) -> Option<usize> {
        let shards = self.shards.len();
        for lane in 0..2 {
            for i in 0..shards {
                let shard = &self.shards[(w + i) % shards];
                let mut queues = shard.lock().unwrap_or_else(|e| e.into_inner());
                let deque = if lane == 0 {
                    &mut queues.urgent
                } else {
                    &mut queues.normal
                };
                let idx = if i == 0 {
                    deque.pop_front()
                } else {
                    deque.pop_back()
                };
                if let Some(idx) = idx {
                    self.ready.fetch_sub(1, Ordering::SeqCst);
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Wake every parked worker (stop flags changed).
    fn wake_all(&self) {
        let _guard = self.sched_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sched_cv.notify_all();
    }

    /// Contain a dead site: discard its state machine and in-progress
    /// batch (dropping the batch's progress sender unblocks a waiting
    /// feeder with an error), drain its queue (releasing every queued
    /// token and resolving queued `RunTicket`s as worker-gone), and wake
    /// blocked producers so they observe the death.
    fn kill_site(&self, idx: usize, exec: &mut SiteExec<S>) {
        self.failed.store(true, Ordering::SeqCst);
        exec.site = None;
        exec.batch = None;
        exec.out.clear();
        let dropped: Vec<ShardCmd<S>> = {
            let mut q = self.lock_queue(idx);
            q.dead = true;
            q.cmds.drain(..).collect()
        };
        self.sites[idx].space_cv.notify_all();
        // Tokens (and Run `done` senders) release outside the lock.
        drop(dropped);
    }
}

/// Coordinator-thread commands.
enum CoordCmd<C: Coordinator> {
    Up(SiteId, C::Up, PendingToken),
    With(Box<dyn FnOnce(&mut C) + Send>),
    Stop(Sender<C>),
}

/// A cluster multiplexing many logical sites onto a fixed work-stealing
/// worker pool plus one coordinator thread.
pub struct ShardedCluster<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    pool: Arc<Pool<S>>,
    coord_tx: Option<Sender<CoordCmd<C>>>,
    worker_handles: Vec<JoinHandle<()>>,
    coord_handle: Option<JoinHandle<()>>,
}

impl<S, C> ShardedCluster<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    /// Spawn the default pool: one worker per core, default queue cap.
    pub fn spawn(sites: Vec<S>, coordinator: C) -> Result<Self, SimError> {
        Self::spawn_with(sites, coordinator, ShardedConfig::default())
    }

    /// Spawn with an explicit worker count and queue capacity.
    pub fn spawn_with(
        sites: Vec<S>,
        coordinator: C,
        config: ShardedConfig,
    ) -> Result<Self, SimError> {
        if sites.len() < 2 {
            return Err(SimError::TooFewSites {
                sites: sites.len() as u32,
            });
        }
        let workers = config.resolved_workers();
        let trace_shared = Arc::new(TraceShared::new());
        let slots: Vec<SiteSlot<S>> = sites
            .into_iter()
            .enumerate()
            .map(|(i, site)| SiteSlot {
                queue: Mutex::new(QueueInner {
                    cmds: VecDeque::new(),
                    scheduled: false,
                    dead: false,
                }),
                space_cv: Condvar::new(),
                exec: Mutex::new(SiteExec {
                    site: Some(site),
                    meter: MessageMeter::new(),
                    words_reported: 0,
                    batch: None,
                    out: Vec::new(),
                    tracer: SiteTracer::new(Arc::clone(&trace_shared), TraceLane::Site(i as u32)),
                }),
                home: i % workers,
                down: AtomicBool::new(false),
            })
            .collect();
        let pool = Arc::new(Pool {
            sites: slots,
            shards: (0..workers)
                .map(|_| Mutex::new(ShardQueues::default()))
                .collect(),
            ready: AtomicUsize::new(0),
            sched_lock: Mutex::new(()),
            sched_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            pending: Arc::new(Pending::default()),
            queue_cap: config.site_queue_cap.max(1),
            words_shared: AtomicU64::new(0),
            trace_shared,
        });
        let (coord_tx, coord_rx): (Sender<CoordCmd<C>>, Receiver<CoordCmd<C>>) = channel();
        let worker_handles = (0..workers)
            .map(|w| {
                let pool = Arc::clone(&pool);
                let coord_tx = coord_tx.clone();
                std::thread::spawn(move || run_worker::<S, C>(w, &pool, &coord_tx))
            })
            .collect();
        let coord_pool = Arc::clone(&pool);
        let coord_handle =
            std::thread::spawn(move || run_coordinator::<S, C>(coordinator, coord_rx, &coord_pool));
        Ok(ShardedCluster {
            pool,
            coord_tx: Some(coord_tx),
            worker_handles,
            coord_handle: Some(coord_handle),
        })
    }

    /// Number of logical sites k.
    pub fn num_sites(&self) -> u32 {
        self.pool.sites.len() as u32
    }

    pub(crate) fn check_site(&self, site: SiteId) -> Result<usize, SimError> {
        if site.index() >= self.pool.sites.len() {
            return Err(SimError::NoSuchSite {
                site: site.0,
                sites: self.pool.sites.len() as u32,
            });
        }
        if self.pool.sites[site.index()].down.load(Ordering::SeqCst) {
            return Err(SimError::SiteDown { site: site.0 });
        }
        Ok(site.index())
    }

    /// Administratively kill a site (fault injection): from now on feeds
    /// to it return [`SimError::SiteDown`] and coordinator down-sends
    /// skip it (dropped unmetered, exactly as [`crate::Cluster::kill_site`]
    /// drops them). Its state is frozen and still returned by
    /// [`ShardedCluster::shutdown`] — an administrative partition, not
    /// the panic path (`QueueInner::dead`), which discards state and
    /// taints the run.
    pub fn kill_site(&self, site: SiteId) -> Result<(), SimError> {
        if site.index() >= self.pool.sites.len() {
            return Err(SimError::NoSuchSite {
                site: site.0,
                sites: self.pool.sites.len() as u32,
            });
        }
        self.pool.sites[site.index()]
            .down
            .store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Fault injection: hold `site`'s next serving worker for `micros`
    /// microseconds (a slow consumer). Asynchronous — the stall queues
    /// behind whatever the site already has; its pending token keeps
    /// `settle()` waiting until the stall has elapsed, which is the
    /// point: quiescence must terminate even with a deliberately slow
    /// site hogging a pool worker.
    pub fn stall_site(&self, site: SiteId, micros: u64) -> Result<(), SimError> {
        let idx = self.check_site(site)?;
        let token = PendingToken::new(&self.pool.pending);
        self.push(idx, ShardCmd::Stall(micros, token))
    }

    fn push(&self, idx: usize, cmd: ShardCmd<S>) -> Result<(), SimError> {
        self.pool
            .push_cmd(idx, cmd)
            .map_err(|_| SimError::WorkerGone { who: "site" })
    }

    /// Deliver an item to a site (asynchronously). Blocks only when the
    /// site's queue is full — backpressure, not unbounded buffering.
    pub fn feed(&self, site: SiteId, item: S::Item) -> Result<(), SimError> {
        let idx = self.check_site(site)?;
        let token = PendingToken::new(&self.pool.pending);
        self.push(idx, ShardCmd::Item(item, token))
    }

    /// Deliver a pre-assigned batch on a site-at-a-time schedule with the
    /// transcript of [`crate::Cluster::feed_batch`]: consecutive same-site
    /// runs go to [`Site::on_items`] as a slice, and after every
    /// message-triggering step the feeder waits for global quiescence
    /// before the site consumes further items — coordinator replies land
    /// between items exactly as in per-item delivery, so answers *and*
    /// metered words are bit-identical to the deterministic runner.
    pub fn feed_batch(&self, batch: &[(SiteId, S::Item)]) -> Result<(), SimError> {
        let mut i = 0;
        while i < batch.len() {
            let site = batch[i].0;
            let mut j = i + 1;
            while j < batch.len() && batch[j].0 == site {
                j += 1;
            }
            let idx = self.check_site(site)?;
            let items: Vec<S::Item> = batch[i..j].iter().map(|(_, it)| it.clone()).collect();
            let total = items.len();
            let (ptx, prx) = channel();
            self.push(
                idx,
                ShardCmd::Batch {
                    items,
                    progress: ptx,
                    token: PendingToken::new(&self.pool.pending),
                },
            )?;
            let mut consumed_total = 0;
            loop {
                let consumed = prx
                    .recv()
                    .map_err(|_| SimError::WorkerGone { who: "site" })?;
                consumed_total += consumed;
                // The step's ups were enqueued before the progress
                // report, so the counter covers the whole cascade here.
                self.settle();
                if consumed_total >= total {
                    break;
                }
                self.push(idx, ShardCmd::Resume(PendingToken::new(&self.pool.pending)))?;
            }
            i = j;
        }
        Ok(())
    }

    /// Enqueue a whole same-site run for free-running consumption: the
    /// site works through it with [`Site::on_items`] without waiting for
    /// global quiescence, so runs on different sites proceed in parallel.
    /// Maximum throughput, but in-flight communication interleaves with
    /// arrivals — the transcript is not deterministic (the ε-guarantee
    /// still holds at quiescence; the differential tests for that use
    /// [`ShardedCluster::feed_batch`]).
    ///
    /// Returns a [`RunTicket`] that resolves when the run has been fully
    /// consumed. Feeders should keep only a small window of unresolved
    /// tickets per site: every queued-but-unconsumed item widens the gap
    /// between a site's progress and the coordinator feedback it has
    /// applied, and a feedback-starved site over-communicates (stale
    /// thresholds) — backpressure by ticket, not by queue overflow.
    pub fn ingest_run(&self, site: SiteId, items: Vec<S::Item>) -> Result<RunTicket, SimError> {
        let idx = self.check_site(site)?;
        let (dtx, drx) = channel();
        if items.is_empty() {
            let _ = dtx.send(());
            return Ok(RunTicket(drx));
        }
        let token = PendingToken::new(&self.pool.pending);
        self.push(idx, ShardCmd::Run(items, dtx, token))?;
        Ok(RunTicket(drx))
    }

    /// Block until no message is queued or being processed anywhere.
    /// Parks on the shared pending counter — a dead site's drained queue
    /// releases its counts, so this cannot hang on worker death.
    pub fn settle(&self) {
        self.pool.pending.wait_idle();
    }

    /// Deadline-aware [`Self::settle`]: waits for quiescence at most
    /// `deadline`, then degrades to [`SimError::Timeout`] instead of an
    /// unbounded park. The pool remains fully usable — a stalled site may
    /// still drain later, and shutdown waits it out as usual.
    pub fn settle_deadline(&self, deadline: std::time::Duration) -> Result<(), SimError> {
        if self.pool.pending.wait_idle_deadline(deadline) {
            Ok(())
        } else {
            Err(SimError::Timeout {
                waited_ms: deadline.as_millis() as u64,
            })
        }
    }

    /// Run a closure against the coordinator state on its own thread and
    /// return the result. Call [`Self::settle`] first if the query must
    /// observe a quiescent state.
    pub fn with_coordinator<R, F>(&self, f: F) -> Result<R, SimError>
    where
        R: Send + 'static,
        F: FnOnce(&mut C) -> R + Send + 'static,
    {
        let coord_tx = self
            .coord_tx
            .as_ref()
            .ok_or(SimError::WorkerGone { who: "coordinator" })?;
        let (tx, rx) = channel();
        coord_tx
            .send(CoordCmd::With(Box::new(move |c: &mut C| {
                let _ = tx.send(f(c));
            })))
            .map_err(|_| SimError::WorkerGone { who: "coordinator" })?;
        rx.recv()
            .map_err(|_| SimError::WorkerGone { who: "coordinator" })
    }

    /// Merge the per-site communication meters into one snapshot. Call
    /// after [`Self::settle`] for a consistent picture.
    pub fn cost(&self) -> MessageMeter {
        let mut total = MessageMeter::new();
        for idx in 0..self.pool.sites.len() {
            total.merge(&self.pool.lock_exec(idx).meter);
        }
        total
    }

    /// Apply a trace configuration. Enabling before the first feed yields
    /// a complete stream: the configuration store happens-before every
    /// worker's next site claim.
    pub fn set_trace(&self, config: TraceConfig) {
        self.pool.trace_shared.configure(config);
    }

    /// The shared trace hub (for driver-lane tracers layered on top).
    pub(crate) fn trace_shared(&self) -> &Arc<TraceShared> {
        &self.pool.trace_shared
    }

    /// Merged, clock-ordered snapshot of every site's trace ring. Taken
    /// under the per-site exec locks like [`ShardedCluster::cost`] — call
    /// after [`ShardedCluster::settle`] for a consistent stream.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut lanes = Vec::with_capacity(self.pool.sites.len());
        for idx in 0..self.pool.sites.len() {
            lanes.push(self.pool.lock_exec(idx).tracer.snapshot());
        }
        merge_snapshots(lanes)
    }

    /// Total trace events lost to ring overwrite across all sites.
    pub fn trace_dropped(&self) -> u64 {
        (0..self.pool.sites.len())
            .map(|idx| self.pool.lock_exec(idx).tracer.dropped())
            .sum()
    }

    /// Cheap, slightly-stale total-words estimate: a relaxed atomic the
    /// workers bump after every serve quantum. Unlike
    /// [`ShardedCluster::cost`] (which takes every per-site exec lock in
    /// turn), this never blocks — it is the flow controller's drift-probe
    /// source, safe to call mid-ingest.
    pub fn words_hint(&self) -> u64 {
        self.pool.words_shared.load(Ordering::Relaxed)
    }

    /// Current cluster-wide backlog: in-flight commands plus undelivered
    /// protocol messages (the quiescence counter `settle` waits on).
    /// The flow controller stalls free-running ingest while this exceeds
    /// its in-flight budget, bounding how stale coordinator feedback can
    /// get when sites outnumber cores.
    pub fn backlog_hint(&self) -> u64 {
        self.pool.pending.count()
    }

    /// Stop the pool and return the final coordinator, sites, and merged
    /// meter. All workers are joined even when some site already died —
    /// the first failure is reported *after* teardown completes.
    pub fn shutdown(mut self) -> Result<(C, Vec<S>, MessageMeter), SimError> {
        self.settle();
        self.pool.stop.store(true, Ordering::SeqCst);
        self.pool.wake_all();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let coordinator = match self.coord_tx.take() {
            Some(ctx) => {
                let (stx, srx) = channel();
                let sent = ctx.send(CoordCmd::Stop(stx)).is_ok();
                drop(ctx);
                sent.then(|| srx.recv().ok()).flatten()
            }
            None => None,
        };
        if let Some(h) = self.coord_handle.take() {
            let _ = h.join();
        }
        let mut first_err: Option<SimError> = None;
        let mut sites = Vec::with_capacity(self.pool.sites.len());
        let mut meter = MessageMeter::new();
        for idx in 0..self.pool.sites.len() {
            let mut exec = self.pool.lock_exec(idx);
            meter.merge(&exec.meter);
            match exec.site.take() {
                Some(site) => sites.push(site),
                None => {
                    first_err.get_or_insert(SimError::WorkerGone { who: "site" });
                }
            }
        }
        if self.pool.failed.load(Ordering::SeqCst) {
            first_err.get_or_insert(SimError::WorkerGone { who: "site" });
        }
        match (coordinator, first_err) {
            (Some(c), None) => Ok((c, sites, meter)),
            (_, Some(e)) => Err(e),
            (None, None) => Err(SimError::WorkerGone { who: "coordinator" }),
        }
    }
}

impl<S, C> Drop for ShardedCluster<S, C>
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Item: Send + Clone,
    S::Up: Send,
    S::Down: Send + Sync,
{
    /// Abandon-path teardown: tell workers to bail between commands,
    /// unblock any producer parked on a full queue, and join everything,
    /// so a cluster that never reached [`ShardedCluster::shutdown`]
    /// cannot leak threads. After a successful `shutdown` the handle
    /// vectors are empty and this is a no-op.
    fn drop(&mut self) {
        self.pool.abort.store(true, Ordering::SeqCst);
        self.pool.stop.store(true, Ordering::SeqCst);
        self.pool.wake_all();
        for slot in &self.pool.sites {
            slot.space_cv.notify_all();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(ctx) = self.coord_tx.take() {
            let (stx, _srx) = channel();
            let _ = ctx.send(CoordCmd::Stop(stx));
        }
        if let Some(h) = self.coord_handle.take() {
            let _ = h.join();
        }
    }
}

/// Worker main loop: claim ready sites (own shard first, then steal) and
/// serve each to exhaustion; park on the scheduler condvar when no shard
/// has work.
fn run_worker<S, C>(w: usize, pool: &Arc<Pool<S>>, coord_tx: &Sender<CoordCmd<C>>)
where
    S: Site + Send + 'static,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
{
    loop {
        if pool.abort.load(Ordering::SeqCst) {
            return;
        }
        if let Some(idx) = pool.next_site(w) {
            serve_site(pool, idx, coord_tx);
            continue;
        }
        let guard = pool.sched_lock.lock().unwrap_or_else(|e| e.into_inner());
        if pool.ready.load(Ordering::SeqCst) > 0 {
            continue;
        }
        if pool.stop.load(Ordering::SeqCst) {
            return;
        }
        // Re-checked at the top of the loop after every wakeup; the
        // notify under `sched_lock` makes the check-then-wait safe.
        let _unused = pool.sched_cv.wait(guard);
    }
}

/// Light commands a worker may process per site claim before yielding to
/// the next ready site. Heavy commands (a whole batched run) always end
/// the claim on their own: serving one site's deep backlog to exhaustion
/// would hold every other ready site's coordinator feedback (threshold
/// updates, poll replies) hostage behind it, and feedback-starved sites
/// over-communicate — the fairness quantum keeps service round-robin at
/// run granularity, the interleaving an OS scheduler would give one
/// thread per site for free.
const LIGHT_QUANTUM: usize = 256;

/// Serve one site-run: pop the site's queue in FIFO order up to the
/// fairness quantum, handling each command; a still-busy site is
/// requeued at the back of its home shard. A panic in any handler kills
/// *the site*, not the worker.
fn serve_site<S, C>(pool: &Arc<Pool<S>>, idx: usize, coord_tx: &Sender<CoordCmd<C>>)
where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    let mut exec = pool.lock_exec(idx);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        serve_commands(pool, idx, &mut exec, coord_tx)
    }));
    let delta = exec.meter.total_words() - exec.words_reported;
    if delta > 0 {
        exec.words_reported += delta;
        pool.words_shared.fetch_add(delta, Ordering::Relaxed);
    }
    match outcome {
        Ok(Serve::Done) => {}
        Ok(Serve::Requeue { urgent }) => {
            drop(exec);
            pool.enqueue_site(idx, urgent);
        }
        Err(_) => pool.kill_site(idx, &mut exec),
    }
}

/// How one site claim ended.
enum Serve {
    /// Queue drained (site descheduled) or the pool is stopping.
    Done,
    /// Quantum exhausted with commands left: the site stays `scheduled`
    /// and the caller puts it back on its home shard — in the urgent
    /// lane when the next command is coordinator feedback.
    Requeue { urgent: bool },
}

fn serve_commands<S, C>(
    pool: &Pool<S>,
    idx: usize,
    exec: &mut SiteExec<S>,
    coord_tx: &Sender<CoordCmd<C>>,
) -> Serve
where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    let slot = &pool.sites[idx];
    let mut light = 0usize;
    loop {
        if pool.abort.load(Ordering::SeqCst) {
            return Serve::Done;
        }
        let cmd = {
            let mut q = pool.lock_queue(idx);
            match q.cmds.pop_front() {
                Some(cmd) => {
                    slot.space_cv.notify_one();
                    cmd
                }
                None => {
                    // Descheduling under the queue lock closes the race
                    // with a concurrent producer: either it pushed before
                    // we got the lock (we'd have popped it), or it will
                    // see `scheduled == false` and re-enqueue the site.
                    q.scheduled = false;
                    return Serve::Done;
                }
            }
        };
        let heavy = matches!(cmd, ShardCmd::Run(..) | ShardCmd::Batch { .. });
        handle_cmd(pool, idx, exec, cmd, coord_tx);
        light += 1;
        if heavy || light >= LIGHT_QUANTUM {
            let q = pool.lock_queue(idx);
            match q.cmds.front() {
                None => {
                    // Nothing left; fall through to the normal
                    // deschedule on the next pop (cheaper than
                    // duplicating it here).
                    drop(q);
                    light = 0;
                    continue;
                }
                // Still busy: stay `scheduled` (producers must not
                // enqueue a second deque entry) and let the caller
                // requeue us behind the other ready sites — ahead of
                // item work when feedback is waiting.
                Some(next) => {
                    return Serve::Requeue {
                        urgent: matches!(next, ShardCmd::Down(..)),
                    }
                }
            }
        }
    }
}

/// Meter and forward one step's upstream messages. Each message carries
/// its own pending token, created before the input command's token is
/// released, so the counter cannot dip to zero mid-cascade. A dead
/// coordinator just drops the ups (their tokens release with the failed
/// send); `shutdown` reports it.
fn flush_ups<S, C>(
    pool: &Pool<S>,
    id: SiteId,
    out: &mut Vec<S::Up>,
    meter: &mut MessageMeter,
    coord_tx: &Sender<CoordCmd<C>>,
    tracer: &mut SiteTracer,
) where
    S: Site,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    for up in out.drain(..) {
        meter.record_up(up.kind(), up.size_words());
        tracer.record(TraceEventKind::UpHop {
            kind: up.kind(),
            words: up.size_words(),
        });
        let token = PendingToken::new(&pool.pending);
        let _ = coord_tx.send(CoordCmd::Up(id, up, token));
    }
}

/// Run one `on_items` step of the in-progress batch: consume a quiescent
/// prefix, forward any triggered ups, then report progress (after the
/// ups, so the feeder's settle observes the whole cascade).
fn batch_step<S, C>(
    pool: &Pool<S>,
    idx: usize,
    exec: &mut SiteExec<S>,
    coord_tx: &Sender<CoordCmd<C>>,
) where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    let SiteExec {
        site,
        meter,
        batch,
        out,
        tracer,
        ..
    } = exec;
    let (Some(site), Some(cur)) = (site.as_mut(), batch.as_mut()) else {
        debug_assert!(false, "Resume without a live site and batch in progress");
        return;
    };
    debug_assert!(out.is_empty());
    let consumed = site.on_items(&cur.items[cur.off..], out);
    debug_assert!(consumed > 0, "on_items must make progress");
    cur.off += consumed.max(1);
    tracer.record(TraceEventKind::ItemRun {
        items: consumed.max(1) as u64,
    });
    flush_ups::<S, C>(pool, SiteId(idx as u32), out, meter, coord_tx, tracer);
    let finished = cur.off >= cur.items.len();
    // A dropped feeder (it errored out mid-batch) is not this worker's
    // problem; keep serving the queue.
    let _ = cur.progress.send(consumed);
    if finished {
        *batch = None;
    }
}

fn handle_cmd<S, C>(
    pool: &Pool<S>,
    idx: usize,
    exec: &mut SiteExec<S>,
    cmd: ShardCmd<S>,
    coord_tx: &Sender<CoordCmd<C>>,
) where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    let id = SiteId(idx as u32);
    // Each tracked command's token lives to the end of the match arm:
    // outputs are enqueued (and counted) before the input is released.
    match cmd {
        ShardCmd::Item(item, token) => {
            let SiteExec {
                site,
                meter,
                out,
                tracer,
                ..
            } = exec;
            let Some(site) = site.as_mut() else { return };
            site.on_item(item, out);
            tracer.record(TraceEventKind::ItemRun { items: 1 });
            flush_ups::<S, C>(pool, id, out, meter, coord_tx, tracer);
            drop(token);
        }
        ShardCmd::Batch {
            items,
            progress,
            token,
        } => {
            debug_assert!(exec.batch.is_none(), "overlapping batches on one site");
            exec.batch = Some(BatchState {
                items,
                off: 0,
                progress,
            });
            batch_step(pool, idx, exec, coord_tx);
            drop(token);
        }
        ShardCmd::Resume(token) => {
            batch_step(pool, idx, exec, coord_tx);
            drop(token);
        }
        ShardCmd::Run(items, done, token) => {
            run_step(pool, idx, exec, &items, coord_tx);
            // A feeder that dropped its ticket is not waiting; ignore.
            let _ = done.send(());
            drop(token);
        }
        ShardCmd::Down(msg, token) => {
            let SiteExec {
                site,
                meter,
                out,
                tracer,
                ..
            } = exec;
            let Some(site) = site.as_mut() else { return };
            meter.record_down(msg.kind(), msg.size_words());
            tracer.record(TraceEventKind::DownHop {
                kind: msg.kind(),
                words: msg.size_words(),
            });
            site.on_message(&msg, out);
            flush_ups::<S, C>(pool, id, out, meter, coord_tx, tracer);
            drop(token);
        }
        ShardCmd::Stall(micros, token) => {
            std::thread::sleep(std::time::Duration::from_micros(micros));
            drop(token);
        }
    }
}

/// Consume one free-running run to completion, applying coordinator
/// feedback that has already arrived between `on_items` steps: Downs
/// from the front of the site's queue are processed immediately, other
/// commands are deferred in order and put back at the front afterwards.
fn run_step<S, C>(
    pool: &Pool<S>,
    idx: usize,
    exec: &mut SiteExec<S>,
    items: &[S::Item],
    coord_tx: &Sender<CoordCmd<C>>,
) where
    S: Site,
    S::Item: Clone,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    let id = SiteId(idx as u32);
    let mut deferred: VecDeque<ShardCmd<S>> = VecDeque::new();
    {
        let SiteExec {
            site,
            meter,
            out,
            tracer,
            ..
        } = exec;
        let Some(site) = site.as_mut() else { return };
        let mut off = 0;
        while off < items.len() {
            debug_assert!(out.is_empty());
            let consumed = site.on_items(&items[off..], out);
            debug_assert!(consumed > 0, "on_items must make progress");
            off += consumed.max(1);
            tracer.record(TraceEventKind::ItemRun {
                items: consumed.max(1) as u64,
            });
            flush_ups::<S, C>(pool, id, out, meter, coord_tx, tracer);
            // Apply already-arrived feedback before consuming further
            // items, as it would land under per-item delivery — without
            // this, feedback-driven protocols run the whole batch
            // against stale thresholds and flood the channel.
            loop {
                let next = {
                    let mut q = pool.lock_queue(idx);
                    match q.cmds.pop_front() {
                        Some(cmd) => {
                            pool.sites[idx].space_cv.notify_one();
                            cmd
                        }
                        None => break,
                    }
                };
                if let ShardCmd::Down(msg, down_token) = next {
                    meter.record_down(msg.kind(), msg.size_words());
                    tracer.record(TraceEventKind::DownHop {
                        kind: msg.kind(),
                        words: msg.size_words(),
                    });
                    site.on_message(&msg, out);
                    flush_ups::<S, C>(pool, id, out, meter, coord_tx, tracer);
                    drop(down_token);
                } else {
                    deferred.push_back(next);
                }
            }
        }
    }
    if !deferred.is_empty() {
        // Replay deferred commands ahead of anything enqueued since. The
        // queue may transiently overshoot `queue_cap`; the deferred
        // commands were already admitted under the cap once.
        let mut q = pool.lock_queue(idx);
        while let Some(cmd) = deferred.pop_back() {
            q.cmds.push_front(cmd);
        }
    }
}

/// Coordinator thread: the single consumer of upstream traffic, pushing
/// triggered downstream messages back into site queues (each carrying
/// its own pending token).
fn run_coordinator<S, C>(mut coordinator: C, rx: Receiver<CoordCmd<C>>, pool: &Arc<Pool<S>>)
where
    S: Site + Send + 'static,
    C: Coordinator<Up = S::Up, Down = S::Down> + Send + 'static,
    S::Down: Send + Sync,
{
    let mut outbox: Outbox<S::Down> = Outbox::new();
    // Staging buffer so the borrow on `outbox` ends before sends (which
    // may block on site-queue backpressure) begin.
    let mut downs: Vec<(Down, S::Down)> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            CoordCmd::Up(from, up, token) => {
                debug_assert!(outbox.is_empty());
                coordinator.on_message(from, up, &mut outbox);
                downs.extend(outbox.drain());
                for (dest, msg) in downs.drain(..) {
                    let msg = Arc::new(msg);
                    match dest {
                        Down::Unicast(dst) => push_down(pool, dst, &msg),
                        Down::Broadcast => {
                            for i in 0..pool.sites.len() {
                                push_down(pool, SiteId(i as u32), &msg);
                            }
                        }
                    }
                }
                drop(token);
            }
            CoordCmd::With(f) => f(&mut coordinator),
            CoordCmd::Stop(reply) => {
                let _ = reply.send(coordinator);
                return;
            }
        }
    }
}

/// Enqueue one downstream message; a dead site only drops that site's
/// copy (its token releases the pending count with the rejected command).
/// An administratively killed site is skipped before the push: downs are
/// metered at the receiving site, so the dropped hop is unmetered,
/// matching the deterministic cluster's dead-site drop bit for bit.
fn push_down<S>(pool: &Pool<S>, dst: SiteId, msg: &Arc<S::Down>)
where
    S: Site,
{
    if dst.index() >= pool.sites.len() {
        return;
    }
    if pool.sites[dst.index()].down.load(Ordering::SeqCst) {
        return;
    }
    let token = PendingToken::new(&pool.pending);
    let _ = pool.push_cmd(dst.index(), ShardCmd::Down(Arc::clone(msg), token));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MessageSize;

    fn cfg(workers: usize) -> ShardedConfig {
        ShardedConfig {
            workers: Some(workers),
            ..ShardedConfig::default()
        }
    }

    /// A site that records every item it consumed, in order.
    #[derive(Debug, Default)]
    struct LogSite {
        seen: Vec<u64>,
    }
    #[derive(Debug)]
    struct Inc(u64);
    #[derive(Debug)]
    struct Nudge;

    impl MessageSize for Inc {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "sh/inc"
        }
    }
    impl MessageSize for Nudge {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "sh/nudge"
        }
    }

    impl Site for LogSite {
        type Item = u64;
        type Up = Inc;
        type Down = Nudge;
        fn on_item(&mut self, item: u64, out: &mut Vec<Inc>) {
            self.seen.push(item);
            out.push(Inc(item));
        }
        fn on_message(&mut self, _msg: &Nudge, _out: &mut Vec<Inc>) {}
    }

    #[derive(Debug, Default)]
    struct SumCoord {
        sum: u64,
        ups: u64,
    }
    impl Coordinator for SumCoord {
        type Up = Inc;
        type Down = Nudge;
        fn on_message(&mut self, _from: SiteId, msg: Inc, out: &mut Outbox<Nudge>) {
            self.sum += msg.0;
            self.ups += 1;
            if self.ups.is_multiple_of(5) {
                out.broadcast(Nudge);
            }
        }
    }

    #[test]
    fn sharded_roundtrip_sums_and_meters() {
        let sites = (0..4).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        assert_eq!(cluster.num_sites(), 4);
        let mut expect = 0u64;
        for i in 1..=20u64 {
            expect += i;
            cluster.feed(SiteId((i % 4) as u32), i).unwrap();
        }
        cluster.settle();
        let sum = cluster.with_coordinator(|c| c.sum).unwrap();
        assert_eq!(sum, expect);
        let meter = cluster.cost();
        assert_eq!(meter.kind("sh/inc").messages, 20);
        // 4 broadcasts (after ups 5, 10, 15, 20) x 4 sites.
        assert_eq!(meter.kind("sh/nudge").messages, 16);
        let (coord, sites, meter2) = cluster.shutdown().unwrap();
        assert_eq!(coord.sum, expect);
        assert_eq!(
            sites
                .iter()
                .map(|s| s.seen.iter().sum::<u64>())
                .sum::<u64>(),
            expect
        );
        assert_eq!(meter2.total_messages(), 36);
    }

    /// The core shard-pool invariant: per-site FIFO order holds when
    /// sites vastly outnumber workers and runs migrate between workers
    /// through stealing.
    #[test]
    fn per_site_fifo_holds_under_stealing() {
        for workers in [1usize, 2, 3] {
            let k = 16u64;
            let per_site = 200u64;
            let sites = (0..k).map(|_| LogSite::default()).collect();
            let cluster =
                ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(workers)).unwrap();
            // Interleave runs and single items across all sites so shard
            // deques stay populated and steals actually happen.
            let mut tickets = Vec::new();
            for round in 0..(per_site / 10) {
                for s in 0..k {
                    let base = s * per_site + round * 10;
                    tickets.push(
                        cluster
                            .ingest_run(SiteId(s as u32), (base..base + 9).collect())
                            .unwrap(),
                    );
                    cluster.feed(SiteId(s as u32), base + 9).unwrap();
                }
            }
            for t in tickets {
                t.wait().unwrap();
            }
            cluster.settle();
            let (_, sites, _) = cluster.shutdown().unwrap();
            for (s, site) in sites.iter().enumerate() {
                let expect: Vec<u64> = (s as u64 * per_site..(s as u64 + 1) * per_site).collect();
                assert_eq!(
                    site.seen, expect,
                    "site {s} order broken with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn feed_batch_matches_per_item_transcript() {
        let stream: Vec<(SiteId, u64)> = (0..500u64)
            .map(|i| (SiteId(((i / 7) % 3) as u32), i))
            .collect();

        let sites = (0..3).map(|_| LogSite::default()).collect();
        let per_item = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        for &(site, item) in &stream {
            per_item.feed(site, item).unwrap();
            per_item.settle();
        }
        let (pc, ps, pm) = per_item.shutdown().unwrap();

        let sites = (0..3).map(|_| LogSite::default()).collect();
        let batched = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        batched.feed_batch(&stream).unwrap();
        let (bc, bs, bm) = batched.shutdown().unwrap();

        assert_eq!(pc.sum, bc.sum);
        assert_eq!(pc.ups, bc.ups);
        assert_eq!(
            ps.iter().map(|s| s.seen.clone()).collect::<Vec<_>>(),
            bs.iter().map(|s| s.seen.clone()).collect::<Vec<_>>()
        );
        assert_eq!(pm.report(), bm.report());
    }

    // The stalled-slow-site and backpressure-at-cap-4 unit tests that
    // lived here were promoted to matrix scenarios: the stall and
    // queue-cap fault axes in `dtrack-testkit`'s `default_matrix()`
    // (driven by `crates/testkit/tests/fault_axes.rs`) are now the single
    // source of truth for those behaviors, with accuracy and word-budget
    // invariants on top. The panic-death containment tests below stay:
    // panic containment is a property of this pool, not a scenario axis.

    /// Administrative kill: feeds error with `SiteDown`, coordinator
    /// downs skip the site unmetered, and shutdown stays clean (state
    /// frozen, run untainted) — unlike the panic path below.
    #[test]
    fn admin_killed_site_rejects_feeds_and_shutdown_stays_clean() {
        let sites = (0..4).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        for i in 1..=4u64 {
            cluster.feed(SiteId((i % 4) as u32), i).unwrap();
        }
        cluster.settle();
        cluster.kill_site(SiteId(1)).unwrap();
        assert_eq!(
            cluster.feed(SiteId(1), 9).unwrap_err(),
            SimError::SiteDown { site: 1 }
        );
        assert_eq!(
            cluster.stall_site(SiteId(1), 10).unwrap_err(),
            SimError::SiteDown { site: 1 }
        );
        assert_eq!(
            cluster.kill_site(SiteId(9)).unwrap_err(),
            SimError::NoSuchSite { site: 9, sites: 4 }
        );
        // The 5th up triggers a broadcast; the dead site's copy is
        // dropped unmetered, so only k-1 = 3 nudges are received.
        cluster.feed(SiteId(0), 5).unwrap();
        cluster.settle();
        assert_eq!(cluster.cost().kind("sh/nudge").messages, 3);
        let (coord, sites, _) = cluster.shutdown().unwrap();
        assert_eq!(coord.sum, 1 + 2 + 3 + 4 + 5);
        assert_eq!(sites.len(), 4);
    }

    /// An injected stall holds the pending count (settle waits it out and
    /// terminates) without perturbing answers.
    #[test]
    fn stall_holds_quiescence_but_settle_terminates() {
        let sites = (0..2).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(1)).unwrap();
        cluster.stall_site(SiteId(0), 20_000).unwrap();
        let t0 = std::time::Instant::now();
        cluster.settle();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        cluster.feed(SiteId(0), 1).unwrap();
        cluster.settle();
        let (coord, _, _) = cluster.shutdown().unwrap();
        assert_eq!(coord.sum, 1);
    }

    #[test]
    fn spawn_requires_two_sites() {
        let err = ShardedCluster::spawn(vec![LogSite::default()], SumCoord::default())
            .err()
            .unwrap();
        assert_eq!(err, SimError::TooFewSites { sites: 1 });
    }

    #[test]
    fn feed_unknown_site_errors() {
        let sites = (0..2).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        let err = cluster.feed(SiteId(5), 1).unwrap_err();
        assert_eq!(err, SimError::NoSuchSite { site: 5, sites: 2 });
        cluster.shutdown().unwrap();
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let sites = (0..16).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(3)).unwrap();
        for i in 0..200u64 {
            cluster.feed(SiteId((i % 16) as u32), i).unwrap();
        }
        drop(cluster);
    }

    /// A site that panics on a poison value — the stand-in for a site
    /// dying mid-run.
    #[derive(Debug, Default)]
    struct PoisonSite;
    const POISON: u64 = u64::MAX;

    impl Site for PoisonSite {
        type Item = u64;
        type Up = Inc;
        type Down = Nudge;
        fn on_item(&mut self, item: u64, out: &mut Vec<Inc>) {
            assert!(item != POISON, "poisoned (intentional test panic)");
            out.push(Inc(item));
        }
        fn on_message(&mut self, _msg: &Nudge, _out: &mut Vec<Inc>) {}
    }

    /// Worker death surfaces as a `RunTicket::wait` error, `settle`
    /// still terminates, the pool keeps serving *other* sites, and
    /// `shutdown` reports the failure.
    #[test]
    fn site_death_surfaces_without_killing_the_pool() {
        let sites = (0..4).map(|_| PoisonSite).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(2)).unwrap();
        let ticket = cluster
            .ingest_run(SiteId(0), vec![1, 2, POISON, 3])
            .unwrap();
        assert_eq!(
            ticket.wait().unwrap_err(),
            SimError::WorkerGone { who: "site" }
        );
        // The dead site rejects further work...
        cluster.settle();
        let mut saw_error = false;
        for i in 0..10_000u64 {
            if cluster.feed(SiteId(0), i).is_err() {
                saw_error = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(saw_error, "dead site never surfaced as a feed error");
        // ...while the surviving sites keep ingesting on the same pool.
        cluster
            .ingest_run(SiteId(1), (0..100).collect())
            .unwrap()
            .wait()
            .unwrap();
        cluster.feed(SiteId(2), 7).unwrap();
        cluster.settle();
        assert!(cluster.with_coordinator(|c| c.ups).unwrap() >= 103);
        let err = cluster.shutdown().unwrap_err();
        assert_eq!(err, SimError::WorkerGone { who: "site" });
    }

    /// Queued-but-unconsumed runs on a site that dies release their
    /// pending counts and resolve their tickets as errors — `settle`
    /// cannot hang on a dead site's backlog.
    #[test]
    fn queued_runs_behind_a_death_release_and_error() {
        let sites = (0..2).map(|_| PoisonSite).collect();
        let config = ShardedConfig {
            workers: Some(1),
            site_queue_cap: 64,
        };
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), config).unwrap();
        let poison = cluster.ingest_run(SiteId(0), vec![1, POISON]).unwrap();
        let mut behind = Vec::new();
        for _ in 0..8 {
            behind.push(cluster.ingest_run(SiteId(0), vec![2, 3]).unwrap());
        }
        assert!(poison.wait().is_err());
        // Runs queued behind the poison either got in before the death
        // (possible when the feeder raced ahead) or error; none hang.
        for t in behind {
            let _ = t.wait();
        }
        cluster.settle();
        assert_eq!(
            cluster.shutdown().unwrap_err(),
            SimError::WorkerGone { who: "site" }
        );
    }

    #[test]
    fn ingest_run_ticket_resolves_for_empty() {
        let sites = (0..2).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(1)).unwrap();
        cluster
            .ingest_run(SiteId(0), Vec::new())
            .unwrap()
            .wait()
            .unwrap();
        cluster.shutdown().unwrap();
    }

    #[test]
    fn more_workers_than_sites_is_fine() {
        let sites = (0..2).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(8)).unwrap();
        for i in 0..100u64 {
            cluster.feed(SiteId((i % 2) as u32), i).unwrap();
        }
        cluster.settle();
        assert_eq!(cluster.with_coordinator(|c| c.ups).unwrap(), 100);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn config_resolves_workers() {
        assert_eq!(cfg(3).resolved_workers(), 3);
        assert!(ShardedConfig::default().resolved_workers() >= 1);
        assert_eq!(
            ShardedConfig {
                workers: Some(0),
                ..ShardedConfig::default()
            }
            .resolved_workers(),
            1
        );
    }

    /// Seeded pseudo-random stress: random interleavings of items, runs,
    /// and settles across many sites on a small pool; per-site order and
    /// coordinator totals must come out exact.
    #[test]
    fn randomized_stress_keeps_order_and_totals() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let k = 12u64;
        let sites = (0..k).map(|_| LogSite::default()).collect();
        let cluster = ShardedCluster::spawn_with(sites, SumCoord::default(), cfg(3)).unwrap();
        let mut cursors = vec![0u64; k as usize];
        let mut fed = 0u64;
        for _ in 0..400 {
            let s = (next() % k) as usize;
            let base = cursors[s];
            match next() % 3 {
                0 => {
                    cluster.feed(SiteId(s as u32), base).unwrap();
                    cursors[s] += 1;
                    fed += 1;
                }
                1 => {
                    let len = 1 + next() % 16;
                    let ticket = cluster
                        .ingest_run(SiteId(s as u32), (base..base + len).collect())
                        .unwrap();
                    drop(ticket);
                    cursors[s] += len;
                    fed += len;
                }
                _ => cluster.settle(),
            }
        }
        cluster.settle();
        let (coord, sites, _) = cluster.shutdown().unwrap();
        assert_eq!(coord.ups, fed);
        for (s, site) in sites.iter().enumerate() {
            let expect: Vec<u64> = (0..cursors[s]).collect();
            assert_eq!(site.seen, expect, "site {s} out of order");
        }
    }

    #[test]
    #[should_panic(expected = "quiescence counter underflow")]
    fn pending_underflow_panics_instead_of_wrapping() {
        let p = Pending::default();
        p.dec();
    }

    #[test]
    fn pending_settles_across_threads() {
        let pending = Arc::new(Pending::default());
        let tokens: Vec<PendingToken> = (0..64).map(|_| PendingToken::new(&pending)).collect();
        let waiter = {
            let pending = Arc::clone(&pending);
            std::thread::spawn(move || pending.wait_idle())
        };
        let dropper = std::thread::spawn(move || {
            for t in tokens {
                drop(t);
            }
        });
        dropper.join().unwrap();
        waiter.join().unwrap();
        assert_eq!(pending.count.load(Ordering::SeqCst), 0);
    }
}
