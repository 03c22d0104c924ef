//! # dtrack-sim — the distributed streaming model substrate
//!
//! Implements the communication model of Yi & Zhang (PODS 2009): a sequence
//! of items is observed by `k` remote *sites*, each of which has a two-way
//! channel to a designated *coordinator*. Sites never talk to each other
//! directly. Communication is instant: after an item arrives at a site, all
//! communication it triggers (including iterative coordinator-initiated
//! polls) completes before the next item arrives.
//!
//! The complexity measure is the **total number of words communicated**,
//! where one word is Θ(log u) = Θ(log n) bits; here a word is 64 bits.
//!
//! Two runtimes are provided:
//!
//! * [`Cluster`] — a deterministic, single-threaded runner that drains all
//!   triggered communication to quiescence after every arrival while
//!   metering every message. This is what the experiment harness uses: it
//!   measures exactly the quantity the paper's theorems bound.
//! * [`sharded::ShardedCluster`] — the parallel runtime: the same
//!   protocols on a fixed work-stealing pool of OS threads, with any
//!   number of logical sites multiplexed onto it (idle workers steal
//!   whole *site-runs*, never individual items, so per-site FIFO order is
//!   preserved by construction). It has bounded site queues with
//!   backpressure, event-based quiescence, per-site meters, and both a
//!   transcript-identical site-at-a-time batch schedule and a
//!   free-running parallel ingest path. It demonstrates that the protocol
//!   implementations are genuinely message-driven and share no state,
//!   and one process can host thousands of logical sites.
//!
//! Protocols are written against the [`Site`] and [`Coordinator`] traits and
//! are agnostic to which runtime carries their messages.
//!
//! Both runtimes are normally reached through the [`Tracker`] facade: a
//! [`Protocol`] description plus a [`BackendKind`] build one erased handle
//! that feeds items, settles, answers typed [`Query`]s, and meters cost —
//! so application code (and the testkit's scenario drivers) never name a
//! concrete cluster type. Under the facade, each runtime is one impl of a
//! crate-private trait (see [`backend`]).
//!
//! Every backend also carries the `dtrack-trace` structured-event layer:
//! item runs, hops, broadcasts, faults, flow-control moves, and settle
//! phases recorded into per-lane bounded rings (one relaxed-load branch
//! per event when off). Enable it with [`TraceConfig`] (or the
//! [`TRACE_ENV`] environment variable), query it via [`Query::Trace`],
//! and export Chrome `trace_event` JSON with [`Tracker::export_trace`].

pub mod api;
pub mod backend;
pub mod cluster;
pub mod error;
pub mod flow;
pub mod meter;
pub mod proto;
pub mod query;
pub mod sharded;
pub mod tracker;

pub use backend::FaultEvent;
pub use cluster::Cluster;
pub use error::SimError;
pub use flow::{AimdController, FlowControlConfig, FlowControlStats, WIN_MAX, WIN_MIN};
pub use meter::{CostReport, KindCost, MessageMeter};
pub use proto::{Coordinator, Down, MessageSize, Outbox, Site, SiteId};
pub use query::{Answer, Query, QueryError, HH_PROBE_PHIS, PROBE_PHIS};
pub use sharded::{ShardedCluster, ShardedConfig};
pub use tracker::{BackendKind, Protocol, Tracker, TrackerBuilder, TrackerError, TRACE_ENV};

// The structured-event tracing vocabulary, re-exported so drivers and the
// testkit can consume trace streams without naming the trace crate.
pub use dtrack_trace::{
    canonical_kind_order, export_chrome, merge_snapshots, write_chrome_file, PhaseStats,
    TraceConfig, TraceEvent, TraceEventKind, TraceLane, TraceSummary,
};
