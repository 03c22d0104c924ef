//! # dtrack-sketch — local stream summaries
//!
//! The tracking protocols of Yi & Zhang (PODS 2009) require each site to
//! answer questions about its *local* stream: exact or approximate item
//! frequencies (heavy-hitter tracking, §2), and exact or approximate ranks,
//! range counts, and equi-depth separator summaries (quantile tracking,
//! §3–4). This crate provides those building blocks:
//!
//! * [`ExactFrequencies`] — hash-map frequency store (the "exact local
//!   frequencies" the basic §2.1 protocol assumes).
//! * [`ExactOrdered`] — an order-statistic counted B+tree over a multiset
//!   of `u64` values: O(log n) insert, rank, select, and range count. This
//!   is what lets a site answer the coordinator's exact polls during
//!   quantile tracking.
//! * [`SpaceSaving`] — the Metwally et al. counter sketch the paper cites
//!   \[26\] for the O(1/ε)-space heavy-hitter site ("Implementing with small
//!   space", §2.1).
//! * [`MisraGries`] — classic deterministic frequent-items summary, used as
//!   an independent cross-check in tests.
//! * [`GreenwaldKhanna`] — the ε-approximate quantile summary the paper
//!   cites \[18\] for the small-space quantile sites (§3.1, §4).
//! * [`EquiDepthSummary`] — a mergeable separator summary with a bounded
//!   rank error; this is the object sites ship to the coordinator during
//!   the initialization and rebuilding steps of §3.1 and §4.
//! * [`FreqStore`] / [`OrderStore`] — traits that let the protocol sites be
//!   generic over exact vs. sketched local state.

pub mod exact;
pub mod gk;
pub mod mg;
pub mod spacesaving;
pub mod store;
pub mod summary;

pub use exact::{ExactFrequencies, ExactOrdered};
pub use gk::GreenwaldKhanna;
pub use mg::MisraGries;
pub use spacesaving::SpaceSaving;
pub use store::{FreqStore, OrderStore};
pub use summary::{EquiDepthSummary, MergedSummary};
