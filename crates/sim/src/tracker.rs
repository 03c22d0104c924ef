//! The [`Tracker`] facade: one runtime-agnostic handle over any tracking
//! protocol on any backend.
//!
//! ```text
//! let mut tracker = Tracker::builder()
//!     .sites(k)
//!     .protocol(some_protocol)          // anything implementing Protocol
//!     .backend(BackendKind::Sharded { workers: None })   // or Deterministic (the default)
//!     .build()?;
//! tracker.feed_batch(&stream)?;
//! let hh = tracker.query(Query::HeavyHitters { phi: 0.05 })?;
//! let meter = tracker.finish()?;
//! ```
//!
//! ## Layering
//!
//! * [`Protocol`] is the *typed* description of one protocol: how to
//!   construct its sites and coordinator, and how to answer [`Query`]s
//!   against the coordinator. Implementations live next to each protocol
//!   (`dtrack-core`, `dtrack-baseline`); the testkit's registry maps its
//!   `ProtocolSpec` matrix axis onto them in exactly one table.
//! * Each runtime (the deterministic cluster or the work-stealing pool,
//!   in [`crate::backend`]) implements one crate-private, object-safe
//!   trait for every `Protocol`. It holds the protocol and answers reads
//!   against its own coordinator.
//! * [`Tracker`] is a plain struct over the boxed runtime, so callers
//!   never see a type parameter. It owns what does not depend on the
//!   runtime: the deadline-bounded settle before every read, and the two
//!   runtime queries, [`Query::FlowControl`] and [`Query::Trace`].
//!
//! ## Object-safety choices
//!
//! `Protocol` is deliberately *not* object-safe: message types differ per
//! protocol. Erasure therefore happens in each runtime's impl of the
//! private trait, where items are pinned to `u64` (the paper's word-sized
//! universe) and coordinator access is narrowed to the [`Query`] →
//! [`Answer`] algebra, which *is* object-safe. Messages themselves are
//! never boxed — inside a runtime the site, the coordinator, and the
//! channel payloads are all concrete types — so the facade costs one
//! virtual call per *batch/query*, not per message, and the metered
//! transcript is bit-identical to driving the clusters directly.

#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dtrack_trace::{write_chrome_file, TraceConfig, TraceEvent, TraceSummary};

use crate::backend::{DeterministicBackend, FaultEvent, Runtime, ShardedBackend};
use crate::error::SimError;
use crate::flow::FlowControlConfig;
use crate::meter::MessageMeter;
use crate::proto::{Coordinator, MessageSize, Site, SiteId};
use crate::query::{Answer, Query, QueryError};
use crate::sharded::{ShardedConfig, SITE_QUEUE_CAP};

/// A typed description of one tracking protocol: construction plus the
/// query surface over its coordinator.
///
/// The bounds make every protocol runnable on every backend (the pool
/// needs `Send` state machines and `Send + Sync` downstream messages,
/// and shares the description with its coordinator thread for reads);
/// `Clone` lets one description build many trackers.
pub trait Protocol: Clone + Send + Sync + 'static {
    /// Site state machine (items are pinned to `u64`, the paper's
    /// word-sized universe).
    type Site: Site<Item = u64, Up = Self::Up, Down = Self::Down> + Send + 'static;
    /// Upstream message type.
    type Up: MessageSize + Send + 'static;
    /// Downstream message type.
    type Down: MessageSize + Send + Sync + 'static;
    /// Coordinator state machine.
    type Coordinator: Coordinator<Up = Self::Up, Down = Self::Down> + Send + 'static;

    /// Short stable label (e.g. `"hh-exact"`), used in reports and
    /// error messages.
    fn label(&self) -> &'static str;

    /// The site count this description already fixes (protocols whose
    /// config embeds k), if any. The builder cross-checks it against
    /// [`TrackerBuilder::sites`].
    fn sites_hint(&self) -> Option<u32> {
        None
    }

    /// Construct the `k` site state machines and the coordinator.
    fn build(&self, k: u32) -> Result<(Vec<Self::Site>, Self::Coordinator), String>;

    /// Answer one typed query against a quiescent coordinator.
    fn query(&self, coordinator: &Self::Coordinator, query: Query) -> Result<Answer, QueryError>;

    /// The protocol's canonical final-answer set, in canonical order.
    /// Rendering each answer with `Display` reproduces the legacy
    /// transcript strings the equivalence suites compare.
    fn answers(&self, coordinator: &Self::Coordinator) -> Result<Vec<Answer>, QueryError>;

    /// Convenience for [`Protocol::query`] implementations: the canonical
    /// "not answerable by this protocol" error.
    fn unsupported(&self, query: Query) -> QueryError {
        QueryError::Unsupported {
            protocol: self.label(),
            query,
        }
    }
}

/// Which runtime a [`Tracker`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Single-threaded, transcript-pinned (wraps [`crate::Cluster`]).
    #[default]
    Deterministic,
    /// A fixed work-stealing worker pool multiplexing any number of
    /// logical sites (wraps [`crate::sharded::ShardedCluster`]) — the
    /// parallel runtime, from one worker per site to site counts far
    /// past the core count.
    Sharded {
        /// Worker threads; `None` means one per available core, and
        /// `Some(k)` gives each of k sites a worker of its own.
        workers: Option<usize>,
    },
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Deterministic => write!(f, "deterministic"),
            BackendKind::Sharded { workers: None } => write!(f, "sharded"),
            BackendKind::Sharded {
                workers: Some(workers),
            } => write!(f, "sharded({workers})"),
        }
    }
}

/// Why a [`Tracker`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum TrackerError {
    /// The protocol rejected its construction parameters.
    Protocol(String),
    /// No site count: neither [`TrackerBuilder::sites`] nor the
    /// protocol's [`Protocol::sites_hint`] provided k.
    MissingSiteCount,
    /// [`TrackerBuilder::sites`] disagrees with the protocol's embedded
    /// site count.
    SiteCountMismatch {
        /// k requested via the builder.
        requested: u32,
        /// k embedded in the protocol configuration.
        embedded: u32,
    },
    /// A builder knob was set to a value that cannot work (zero workers,
    /// zero queue capacity, a zero deadline, malformed flow-control
    /// bounds). Caught at [`TrackerBuilder::build`] as a typed error
    /// instead of panicking (or wedging) inside backend spawn.
    InvalidConfig {
        /// The offending builder knob.
        knob: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The runtime failed to start.
    Sim(SimError),
}

impl fmt::Display for TrackerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackerError::Protocol(detail) => write!(f, "protocol construction failed: {detail}"),
            TrackerError::MissingSiteCount => {
                write!(
                    f,
                    "no site count: call .sites(k) or use a protocol that embeds k"
                )
            }
            TrackerError::SiteCountMismatch {
                requested,
                embedded,
            } => write!(
                f,
                "builder asked for {requested} sites but the protocol config embeds {embedded}"
            ),
            TrackerError::InvalidConfig { knob, detail } => {
                write!(f, "invalid tracker configuration ({knob}): {detail}")
            }
            TrackerError::Sim(e) => write!(f, "runtime failed to start: {e}"),
        }
    }
}

impl std::error::Error for TrackerError {}

impl From<SimError> for TrackerError {
    fn from(e: SimError) -> Self {
        TrackerError::Sim(e)
    }
}

/// Environment variable steering tracing without a code change:
/// `DTRACK_TRACE=on` enables in-memory tracing, `DTRACK_TRACE=off` (or
/// empty/`0`) forces it off, and `DTRACK_TRACE=chrome:<path>` enables it
/// *and* exports a Chrome `trace_event` JSON file at [`Tracker::finish`].
/// An explicit [`TrackerBuilder::trace`] call wins over the environment.
pub const TRACE_ENV: &str = "DTRACK_TRACE";

/// Parse [`TRACE_ENV`]: the config it implies (if set at all) and the
/// Chrome export path (if one was requested).
fn trace_from_env() -> (Option<TraceConfig>, Option<PathBuf>) {
    match std::env::var(TRACE_ENV) {
        Ok(value) => {
            let value = value.trim();
            if value.is_empty() || value == "0" || value.eq_ignore_ascii_case("off") {
                (Some(TraceConfig::off()), None)
            } else if let Some(path) = value.strip_prefix("chrome:") {
                (Some(TraceConfig::on()), Some(PathBuf::from(path)))
            } else {
                (Some(TraceConfig::on()), None)
            }
        }
        Err(_) => (None, None),
    }
}

/// Builder for [`Tracker`] (start with [`Tracker::builder`]).
#[derive(Debug, Clone, Default)]
pub struct TrackerBuilder<P = ()> {
    sites: Option<u32>,
    backend: BackendKind,
    queue_cap: Option<usize>,
    flow: Option<FlowControlConfig>,
    deadline: Option<Duration>,
    trace: Option<TraceConfig>,
    protocol: P,
}

impl<P> TrackerBuilder<P> {
    /// Number of sites k (may be omitted when the protocol's config
    /// embeds k; must agree with it when both are given).
    pub fn sites(mut self, k: u32) -> Self {
        self.sites = Some(k);
        self
    }

    /// Which runtime carries the messages (default:
    /// [`BackendKind::Deterministic`]).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Per-site command-queue capacity for the pool (the deterministic
    /// backend has no queues). Default:
    /// [`crate::sharded::SITE_QUEUE_CAP`]. Deeper queues absorb
    /// burstier feeders before `feed` blocks; shallower queues bound
    /// memory and feedback staleness more tightly.
    pub fn site_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Free-running flow-control configuration for the pool (see
    /// [`FlowControlConfig`]; default: the adaptive default config).
    /// The deterministic backend needs no flow control and ignores this.
    /// Validated at [`TrackerBuilder::build`].
    pub fn flow_control(mut self, config: FlowControlConfig) -> Self {
        self.flow = Some(config);
        self
    }

    /// Quiescence deadline for the settle before every read
    /// ([`Tracker::query`], [`Tracker::answers`],
    /// [`Tracker::trace_events`]): a stalled or dead site degrades the
    /// read to [`SimError::Timeout`] (a trace read returns what the rings
    /// hold) instead of parking unboundedly. Default: no deadline
    /// (unbounded waits, the historical behavior). Must be nonzero.
    pub fn settle_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Structured-event tracing configuration (default: off — one
    /// relaxed-load branch per would-be event, nothing recorded). Can
    /// also be toggled later via [`Tracker::set_trace`] or externally via
    /// the [`TRACE_ENV`] environment variable; an explicit call here
    /// overrides the environment.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }
}

impl TrackerBuilder<()> {
    /// Select the protocol to track.
    pub fn protocol<P: Protocol>(self, protocol: P) -> TrackerBuilder<P> {
        TrackerBuilder {
            sites: self.sites,
            backend: self.backend,
            queue_cap: self.queue_cap,
            flow: self.flow,
            deadline: self.deadline,
            trace: self.trace,
            protocol,
        }
    }
}

impl<P: Protocol> TrackerBuilder<P> {
    /// Check every knob that would otherwise panic (or wedge) deep inside
    /// backend spawn, so misconfiguration surfaces as a typed error.
    fn validate(&self) -> Result<(), TrackerError> {
        if let BackendKind::Sharded { workers: Some(0) } = self.backend {
            return Err(TrackerError::InvalidConfig {
                knob: "backend",
                detail: "sharded pool needs at least 1 worker".to_owned(),
            });
        }
        if self.queue_cap == Some(0) {
            return Err(TrackerError::InvalidConfig {
                knob: "site_queue_cap",
                detail: "queue capacity must be >= 1".to_owned(),
            });
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(TrackerError::InvalidConfig {
                knob: "settle_deadline",
                detail: "deadline must be nonzero".to_owned(),
            });
        }
        if let Some(flow) = &self.flow {
            flow.validate()
                .map_err(|detail| TrackerError::InvalidConfig {
                    knob: "flow_control",
                    detail,
                })?;
        }
        Ok(())
    }

    /// Construct the protocol state and start the chosen backend.
    pub fn build(self) -> Result<Tracker, TrackerError> {
        self.validate()?;
        let k = match (self.sites, self.protocol.sites_hint()) {
            (Some(requested), Some(embedded)) if requested != embedded => {
                return Err(TrackerError::SiteCountMismatch {
                    requested,
                    embedded,
                })
            }
            (Some(k), _) | (None, Some(k)) => k,
            (None, None) => return Err(TrackerError::MissingSiteCount),
        };
        let (sites, coordinator) = self.protocol.build(k).map_err(TrackerError::Protocol)?;
        let label = self.protocol.label();
        let (env_trace, trace_export) = trace_from_env();
        let mut inner: Box<dyn Runtime> = match self.backend {
            BackendKind::Deterministic => Box::new(DeterministicBackend::new(
                self.protocol,
                sites,
                coordinator,
            )?),
            BackendKind::Sharded { workers } => Box::new(ShardedBackend::spawn(
                self.protocol,
                sites,
                coordinator,
                ShardedConfig {
                    workers,
                    site_queue_cap: self.queue_cap.unwrap_or(SITE_QUEUE_CAP),
                },
                self.flow.unwrap_or_default(),
            )?),
        };
        if let Some(config) = self.trace.or(env_trace) {
            inner.set_trace(config);
        }
        Ok(Tracker {
            inner,
            label,
            backend: self.backend,
            k,
            deadline: self.deadline,
            trace_export,
        })
    }
}

/// One continuously tracked function over a distributed stream: `k` sites
/// and a coordinator, on a chosen backend, answering typed queries at any
/// time — the paper's model as a single handle.
pub struct Tracker {
    inner: Box<dyn Runtime>,
    label: &'static str,
    backend: BackendKind,
    k: u32,
    /// Quiescence deadline for reads (from
    /// [`TrackerBuilder::settle_deadline`]); `None` waits unboundedly.
    deadline: Option<Duration>,
    /// Chrome trace destination requested via [`TRACE_ENV`]; written
    /// best-effort at [`Tracker::finish`].
    trace_export: Option<PathBuf>,
}

impl fmt::Debug for Tracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracker")
            .field("protocol", &self.label)
            .field("backend", &self.backend)
            .field("k", &self.k)
            .finish()
    }
}

impl Tracker {
    /// Start building a tracker.
    pub fn builder() -> TrackerBuilder {
        TrackerBuilder::default()
    }

    /// The protocol's label (e.g. `"hh-exact"`).
    pub fn protocol_label(&self) -> &'static str {
        self.label
    }

    /// Which backend this tracker runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// Number of sites k.
    pub fn num_sites(&self) -> u32 {
        self.k
    }

    /// Deliver one item to one site. The deterministic backend runs all
    /// triggered communication to quiescence before returning; the pool
    /// enqueues and returns, blocking only when the site's queue is full.
    pub fn feed(&mut self, site: SiteId, item: u64) -> Result<(), SimError> {
        self.inner.feed(site, item)
    }

    /// Deliver a pre-assigned batch on a site-at-a-time schedule whose
    /// transcript (answers *and* metered words) is bit-identical to
    /// feeding each pair in turn on the deterministic backend.
    pub fn feed_batch(&mut self, batch: &[(SiteId, u64)]) -> Result<(), SimError> {
        self.inner.feed_batch(batch)
    }

    /// Deliver a same-site run on the free-running throughput path: the
    /// transcript is not pinned, but the ε-guarantee holds at
    /// quiescence. The pool paces each site with an AIMD window (see
    /// [`FlowControlConfig`]) and may buffer items until the next ingest,
    /// settle, fault or [`Tracker::finish`]. A killed or out-of-range
    /// site is rejected before anything is buffered.
    pub fn ingest(&mut self, site: SiteId, items: Vec<u64>) -> Result<(), SimError> {
        self.inner.ingest(site, items)
    }

    /// Block until the system is quiescent (no-op on the deterministic
    /// backend).
    pub fn settle(&mut self) {
        // Without a deadline the wait cannot time out.
        let _ = self.inner.settle(None);
    }

    /// Deadline-aware [`Tracker::settle`]: wait at most `deadline` for
    /// quiescence, then degrade to [`SimError::Timeout`] — the
    /// graceful-degradation path when a site may be stalled or dead. The
    /// tracker stays usable after a timeout.
    pub fn settle_deadline(&mut self, deadline: Duration) -> Result<(), SimError> {
        self.inner.settle(Some(deadline))
    }

    /// Reach quiescence before a read: bounded by the builder's
    /// [`TrackerBuilder::settle_deadline`] when one is set, so a stalled
    /// site degrades the read to an error instead of parking the caller
    /// forever.
    fn quiesce(&mut self) -> Result<(), SimError> {
        self.inner.settle(self.deadline)
    }

    /// Install the flow controller's reference communication rate
    /// (expected metered words per fed item). Free-running ingest
    /// compares observed words-per-item against this to detect budget
    /// drift; without a hint, only backpressure adapts the windows.
    /// No-op on the deterministic backend.
    pub fn cost_hint(&mut self, words_per_item: f64) {
        self.inner.cost_hint(words_per_item);
    }

    /// Apply one fault (see [`FaultEvent`]). Inject at quiescent points —
    /// after [`Tracker::settle`] or between batches — so the fault's
    /// position in the transcript is deterministic across backends.
    pub fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        self.inner.inject_fault(fault)
    }

    /// Answer a typed query against the quiescent coordinator state.
    /// Settles first, so a mid-stream query on the pool observes a
    /// consistent snapshot; costs zero communication (queries
    /// read continuously maintained state).
    pub fn query(&mut self, query: Query) -> Result<Answer, QueryError> {
        self.quiesce().map_err(QueryError::Runtime)?;
        match query {
            // Flow control and tracing describe the runtime, not the
            // protocol, so no coordinator is asked. The trace summary is
            // answerable on every backend, and empty with tracing off.
            Query::FlowControl => {
                self.inner
                    .flow_control()
                    .map(Answer::FlowControl)
                    .ok_or(QueryError::Unsupported {
                        protocol: self.label,
                        query,
                    })
            }
            Query::Trace => Ok(Answer::Trace(TraceSummary::from_events(
                &self.inner.trace_events(),
                self.inner.trace_dropped(),
            ))),
            _ => self.inner.query(query),
        }
    }

    /// The protocol's canonical final-answer set (settles first).
    /// `Display` of each element reproduces the legacy transcript
    /// strings.
    pub fn answers(&mut self) -> Result<Vec<Answer>, QueryError> {
        self.quiesce().map_err(QueryError::Runtime)?;
        self.inner.answers()
    }

    /// Snapshot the communication meter (settle first — or use
    /// [`Tracker::query`]/[`Tracker::answers`], which settle for you —
    /// for a consistent mid-run picture).
    pub fn cost(&mut self) -> MessageMeter {
        self.inner.cost()
    }

    /// Switch structured-event tracing on or off at any point in the
    /// run. Events recorded before enablement are simply absent; the
    /// metered transcript and every answer are byte-identical either way.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.inner.set_trace(config);
    }

    /// Snapshot the merged, logical-clock-ordered trace event stream
    /// (settles first for a complete picture). Empty when tracing is off.
    pub fn trace_events(&mut self) -> Vec<TraceEvent> {
        // A settle that times out still yields whatever the rings hold:
        // tracing is diagnostic, not transactional.
        let _ = self.quiesce();
        self.inner.trace_events()
    }

    /// Total trace events lost to ring overflow (raise
    /// [`TraceConfig::with_ring_capacity`] if nonzero).
    pub fn trace_dropped(&mut self) -> u64 {
        self.inner.trace_dropped()
    }

    /// Export the current trace stream as a Chrome `trace_event` JSON
    /// file (open in `chrome://tracing` or Perfetto). Settles first.
    pub fn export_trace<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        let events = self.trace_events();
        write_chrome_file(&events, path)
    }

    /// Tear down the backend and return the final merged meter. A site
    /// that died on the pool surfaces here. When [`TRACE_ENV`]
    /// requested a Chrome export, it is written (best-effort) first.
    pub fn finish(mut self) -> Result<MessageMeter, SimError> {
        if let Some(path) = self.trace_export.take() {
            let _ = self.export_trace(&path);
        }
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{CountCoord, CountProtocol, FwdSite, NoDown, UpMsg};

    #[test]
    fn builder_requires_a_site_count() {
        let err = Tracker::builder()
            .protocol(CountProtocol)
            .build()
            .unwrap_err();
        assert_eq!(err, TrackerError::MissingSiteCount);
    }

    #[test]
    fn tracker_feeds_queries_and_finishes() {
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let mut t = Tracker::builder()
                .sites(3)
                .backend(backend)
                .site_queue_cap(64)
                .protocol(CountProtocol)
                .build()
                .unwrap();
            assert_eq!(t.num_sites(), 3);
            assert_eq!(t.backend_kind(), backend);
            assert_eq!(t.protocol_label(), "test-count");
            t.feed(SiteId(0), 9).unwrap();
            t.feed_batch(&[(SiteId(1), 1), (SiteId(2), 2), (SiteId(2), 3)])
                .unwrap();
            t.ingest(SiteId(0), vec![7, 8]).unwrap();
            let answer = t.query(Query::Count).unwrap();
            assert_eq!(answer, Answer::Count(6));
            assert_eq!(answer.to_string(), "estimate=6");
            assert_eq!(
                t.answers().unwrap(),
                vec![Answer::Count(6), Answer::Total(30)]
            );
            let err = t.query(Query::TrackedQuantile).unwrap_err();
            assert!(matches!(err, QueryError::Unsupported { .. }), "{err}");
            t.settle();
            assert_eq!(t.cost().kind("t/up").messages, 6);
            let meter = t.finish().unwrap();
            assert_eq!(meter.total_messages(), 6);
        }
    }

    #[test]
    fn tracker_routes_faults_to_every_backend() {
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let mut t = Tracker::builder()
                .sites(3)
                .backend(backend)
                .protocol(CountProtocol)
                .build()
                .unwrap();
            t.feed(SiteId(2), 1).unwrap();
            t.settle();
            t.inject_fault(FaultEvent::KillSite { site: SiteId(2) })
                .unwrap();
            assert_eq!(
                t.feed(SiteId(2), 2),
                Err(SimError::SiteDown { site: 2 }),
                "{backend}"
            );
            t.inject_fault(FaultEvent::StallSite {
                site: SiteId(0),
                micros: 200,
            })
            .unwrap();
            t.feed(SiteId(0), 3).unwrap();
            assert_eq!(t.query(Query::Count).unwrap(), Answer::Count(2));
            // Free-running ingest to a killed site fails like a feed, even
            // while an earlier run to that site is still queued behind a
            // stall: the pool must not park the items in its flow-control
            // buffer and drop them at the next flush.
            t.inject_fault(FaultEvent::StallSite {
                site: SiteId(0),
                micros: 300_000,
            })
            .unwrap();
            t.ingest(SiteId(0), (0..10).collect()).unwrap();
            t.inject_fault(FaultEvent::KillSite { site: SiteId(0) })
                .unwrap();
            assert_eq!(
                t.ingest(SiteId(0), (10..20).collect()),
                Err(SimError::SiteDown { site: 0 }),
                "{backend}"
            );
            t.settle();
            assert_eq!(
                t.query(Query::Count).unwrap(),
                Answer::Count(12),
                "{backend}"
            );
            t.finish().unwrap();
        }
    }

    #[test]
    fn builder_rejects_invalid_configs_with_typed_errors() {
        let zero_workers = Tracker::builder()
            .sites(2)
            .backend(BackendKind::Sharded { workers: Some(0) })
            .protocol(CountProtocol)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                zero_workers,
                TrackerError::InvalidConfig {
                    knob: "backend",
                    ..
                }
            ),
            "{zero_workers}"
        );
        let zero_cap = Tracker::builder()
            .sites(2)
            .backend(BackendKind::Sharded { workers: Some(16) })
            .site_queue_cap(0)
            .protocol(CountProtocol)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                zero_cap,
                TrackerError::InvalidConfig {
                    knob: "site_queue_cap",
                    ..
                }
            ),
            "{zero_cap}"
        );
        let zero_deadline = Tracker::builder()
            .sites(2)
            .settle_deadline(Duration::ZERO)
            .protocol(CountProtocol)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                zero_deadline,
                TrackerError::InvalidConfig {
                    knob: "settle_deadline",
                    ..
                }
            ),
            "{zero_deadline}"
        );
        let bad_flow = Tracker::builder()
            .sites(2)
            .backend(BackendKind::Sharded { workers: Some(16) })
            .flow_control(crate::flow::FlowControlConfig {
                win_min: 64,
                win_max: 16,
                ..Default::default()
            })
            .protocol(CountProtocol)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                bad_flow,
                TrackerError::InvalidConfig {
                    knob: "flow_control",
                    ..
                }
            ),
            "{bad_flow}"
        );
        let msg = bad_flow.to_string();
        assert!(msg.contains("flow_control"), "{msg}");
    }

    #[test]
    fn flow_control_query_reports_runtime_state_on_parallel_backends() {
        for backend in [
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let mut t = Tracker::builder()
                .sites(3)
                .backend(backend)
                .flow_control(crate::flow::FlowControlConfig::fixed(32))
                .protocol(CountProtocol)
                .build()
                .unwrap();
            t.ingest(SiteId(0), vec![1, 2, 3]).unwrap();
            match t.query(Query::FlowControl).unwrap() {
                Answer::FlowControl(stats) => {
                    assert_eq!(stats.windows, vec![32, 32, 32], "{backend}");
                }
                other => panic!("expected flow-control stats, got {other}"),
            }
            t.finish().unwrap();
        }
        // The deterministic backend has no controller to observe.
        let mut t = Tracker::builder()
            .sites(3)
            .protocol(CountProtocol)
            .build()
            .unwrap();
        let err = t.query(Query::FlowControl).unwrap_err();
        assert!(matches!(err, QueryError::Unsupported { .. }), "{err}");
        t.finish().unwrap();
    }

    #[test]
    fn trace_query_and_export_work_on_every_backend() {
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let mut t = Tracker::builder()
                .sites(3)
                .backend(backend)
                .protocol(CountProtocol)
                .build()
                .unwrap();
            // Off by default: the query answers, with an empty summary.
            match t.query(Query::Trace).unwrap() {
                Answer::Trace(summary) => assert_eq!(summary.events, 0, "{backend}"),
                other => panic!("expected a trace summary, got {other}"),
            }
            t.set_trace(TraceConfig::on());
            t.feed(SiteId(0), 9).unwrap();
            t.feed_batch(&[(SiteId(1), 1), (SiteId(2), 2)]).unwrap();
            match t.query(Query::Trace).unwrap() {
                Answer::Trace(summary) => {
                    assert!(summary.count("up-hop") >= 3, "{backend}: {summary}");
                    assert_eq!(summary.dropped, 0, "{backend}");
                }
                other => panic!("expected a trace summary, got {other}"),
            }
            let events = t.trace_events();
            assert!(!events.is_empty(), "{backend}");
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/tmp")
                .join(format!("tracker-trace-{backend}.json"));
            t.export_trace(&path).unwrap();
            let json = std::fs::read_to_string(&path).unwrap();
            assert!(json.contains("traceEvents"), "{backend}");
            assert!(json.contains("up-hop"), "{backend}");
            let _ = std::fs::remove_file(&path);
            t.finish().unwrap();
        }
    }

    #[test]
    fn settle_deadline_flows_through_the_facade() {
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(16) },
            BackendKind::Sharded { workers: Some(2) },
        ] {
            let mut t = Tracker::builder()
                .sites(2)
                .backend(backend)
                .settle_deadline(Duration::from_secs(30))
                .protocol(CountProtocol)
                .build()
                .unwrap();
            t.feed(SiteId(0), 1).unwrap();
            t.cost_hint(1.0);
            t.settle_deadline(Duration::from_secs(30)).unwrap();
            assert_eq!(
                t.query(Query::Count).unwrap(),
                Answer::Count(1),
                "{backend}"
            );
            t.finish().unwrap();
        }
    }

    #[test]
    fn deadline_query_times_out_on_a_stalled_site() {
        let mut t = Tracker::builder()
            .sites(2)
            .backend(BackendKind::Sharded { workers: Some(16) })
            .settle_deadline(Duration::from_millis(20))
            .protocol(CountProtocol)
            .build()
            .unwrap();
        t.inject_fault(FaultEvent::StallSite {
            site: SiteId(0),
            micros: 300_000,
        })
        .unwrap();
        t.feed(SiteId(0), 1).unwrap();
        // Every read settles under the deadline first, the runtime's own
        // queries included.
        for query in [Query::Count, Query::FlowControl, Query::Trace] {
            let err = t.query(query).unwrap_err();
            assert!(
                matches!(err, QueryError::Runtime(SimError::Timeout { .. })),
                "{query}: {err}"
            );
        }
        let err = t.answers().unwrap_err();
        assert!(
            matches!(err, QueryError::Runtime(SimError::Timeout { .. })),
            "answers: {err}"
        );
        // Still usable once the stall drains.
        t.settle();
        assert_eq!(t.query(Query::Count).unwrap(), Answer::Count(1));
        t.finish().unwrap();
    }

    #[test]
    fn builder_cross_checks_embedded_site_counts() {
        #[derive(Debug, Clone)]
        struct Hinted;
        impl Protocol for Hinted {
            type Site = FwdSite;
            type Up = UpMsg;
            type Down = NoDown;
            type Coordinator = CountCoord;
            fn label(&self) -> &'static str {
                "hinted"
            }
            fn sites_hint(&self) -> Option<u32> {
                Some(4)
            }
            fn build(&self, k: u32) -> Result<(Vec<FwdSite>, CountCoord), String> {
                Ok(((0..k).map(|_| FwdSite).collect(), CountCoord::default()))
            }
            fn query(&self, _c: &CountCoord, query: Query) -> Result<Answer, QueryError> {
                Err(self.unsupported(query))
            }
            fn answers(&self, _c: &CountCoord) -> Result<Vec<Answer>, QueryError> {
                Ok(Vec::new())
            }
        }
        // Hint alone suffices.
        let t = Tracker::builder().protocol(Hinted).build().unwrap();
        assert_eq!(t.num_sites(), 4);
        // Agreement is fine.
        assert!(Tracker::builder().sites(4).protocol(Hinted).build().is_ok());
        // Disagreement is an error, not a silent pick.
        let err = Tracker::builder()
            .sites(8)
            .protocol(Hinted)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TrackerError::SiteCountMismatch {
                requested: 8,
                embedded: 4,
            }
        );
    }
}
