//! # dtrack-core — the tracking protocols of Yi & Zhang (PODS 2009)
//!
//! This crate implements the paper's primary contribution: deterministic,
//! communication-optimal protocols by which `k` remote sites and one
//! coordinator continuously track statistics of the union stream
//! `A = A_1 ∪ … ∪ A_k`:
//!
//! * [`counter`] — total count |A| within a (1+ε) factor, at cost
//!   O(k/ε · log n). The simplest protocol in the model (§1), used as a
//!   building block and a harness smoke test.
//! * [`hh`] — §2.1: the φ-heavy hitters for *every* φ simultaneously, at
//!   cost O(k/ε · log n) (Theorem 2.1, matching the Theorem 2.4 lower
//!   bound).
//! * [`quantile`] — §3.1: any single φ-quantile (the median is φ = 1/2) at
//!   cost O(k/ε · log n) (Theorem 3.1, matching Theorem 3.2).
//! * [`allq`] — §4: all quantiles simultaneously — equivalently an
//!   ε-approximate rank oracle / equi-depth histogram — at cost
//!   O(k/ε · log n · log²(1/ε)) (Theorem 4.1).
//! * [`sampling`] — §5 remark: the randomized level-sampling tracker at
//!   cost O((k + 1/ε²) · polylog n), which beats the deterministic lower
//!   bound when ε ≫ 1/k.
//!
//! Every protocol is a pair of [`dtrack_sim::Site`] / [`dtrack_sim::Coordinator`]
//! state machines and can run on either the deterministic backend or the
//! work-stealing pool. Sites are generic over their local store
//! ([`dtrack_sketch::FreqStore`] / [`dtrack_sketch::OrderStore`]), giving both the
//! exact-state protocol of the paper's main exposition and the small-space
//! variants of the "Implementing with small space" paragraphs.
//!
//! [`oracle`] holds exact reference implementations used by tests and the
//! experiment harness to verify the ε-guarantees continuously.

pub mod allq;
pub mod common;
pub mod counter;
pub mod hh;
pub mod oracle;
pub mod quantile;
pub mod sampling;
pub mod window;

pub use common::{CoreError, ValueRange};
pub use oracle::ExactOracle;
