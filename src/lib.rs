//! # dtrack — continuous tracking of distributed heavy hitters and quantiles
//!
//! A from-scratch Rust implementation of **Ke Yi & Qin Zhang, "Optimal
//! Tracking of Distributed Heavy Hitters and Quantiles", PODS 2009**: `k`
//! remote sites observe a stream of items and a designated coordinator
//! continuously maintains approximate heavy hitters and quantiles of the
//! union stream, using communication that matches the paper's optimal
//! O(k/ε · log n) bounds.
//!
//! ## Crates
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the paper's protocols: counter, heavy hitters (§2), single quantile (§3), all quantiles (§4) |
//! | [`sim`] | the distributed streaming model: sites, coordinator, metered channels, a deterministic runtime and a work-stealing parallel pool |
//! | [`sketch`] | local summaries: SpaceSaving, Misra–Gries, Greenwald–Khanna, order-statistic stores, mergeable equi-depth summaries |
//! | [`baseline`] | prior art the paper improves on: CGMR'05 summary shipping, forward-all, periodic polling |
//! | [`adversary`] | the lower-bound constructions of Lemma 2.2/2.3 and §3.2 |
//! | [`workload`] | seeded generators (Zipf, uniform, ramps, drifts) and site assignments |
//!
//! ## Quickstart
//!
//! ```
//! use dtrack::prelude::*;
//!
//! // 4 sites (embedded in the config), ε = 0.05; track heavy hitters of
//! // the union stream. Swap `.backend(BackendKind::Sharded { workers: None })`
//! // in to run the same protocol on a pool of OS threads.
//! let config = HhConfig::new(4, 0.05).unwrap();
//! let mut tracker = Tracker::builder()
//!     .protocol(HhExactProtocol::new(config))
//!     .build()
//!     .unwrap();
//!
//! // Feed an assigned stream: site (i % 4) observes each item.
//! for i in 0..10_000u64 {
//!     let item = if i % 3 == 0 { 7 } else { i };
//!     tracker.feed(SiteId((i % 4) as u32), item).unwrap();
//! }
//!
//! // Item 7 holds a third of the stream: a 0.25-heavy hitter. Queries
//! // read continuously maintained state — no extra communication.
//! let heavy = tracker.query(Query::HeavyHitters { phi: 0.25 }).unwrap();
//! assert_eq!(heavy.as_items(), Some(&[7u64][..]));
//!
//! // Communication stayed logarithmic in the stream length.
//! println!("{} words", tracker.cost().total_words());
//! ```

pub use dtrack_adversary as adversary;
pub use dtrack_baseline as baseline;
pub use dtrack_core as core;
pub use dtrack_sim as sim;
pub use dtrack_sketch as sketch;
pub use dtrack_workload as workload;

/// The commonly needed types in one import.
pub mod prelude {
    pub use dtrack_core::allq::{AllQConfig, AllQCoordinator, AllQExactProtocol, AllQSite};
    pub use dtrack_core::counter::{CounterCoordinator, CounterProtocol, CounterSite};
    pub use dtrack_core::hh::{
        HhConfig, HhCoordinator, HhExactProtocol, HhSite, HhSketchedProtocol,
    };
    pub use dtrack_core::quantile::{
        QuantileConfig, QuantileCoordinator, QuantileExactProtocol, QuantileSite,
        QuantileSketchedProtocol,
    };
    pub use dtrack_core::{CoreError, ExactOracle, ValueRange};
    pub use dtrack_sim::{
        Answer, BackendKind, Cluster, Coordinator, MessageSize, Outbox, Protocol, Query,
        QueryError, Site, SiteId, TraceConfig, TraceSummary, Tracker, TrackerBuilder, TrackerError,
    };
    pub use dtrack_sketch::{FreqStore, OrderStore};
    pub use dtrack_workload::{Assignment, Generator, Stream};
}
