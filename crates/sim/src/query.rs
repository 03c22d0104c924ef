//! Typed queries and answers for the [`crate::Tracker`] facade.
//!
//! Every tracking protocol in the workspace answers some subset of a small
//! query algebra: a tracked total, heavy hitters above a threshold φ, a
//! single tracked quantile, arbitrary quantiles/ranks, per-item
//! frequencies. [`Query`] names the question; [`Answer`] is the typed
//! result.
//!
//! ## Display stability
//!
//! `Answer`'s [`std::fmt::Display`] is **load-bearing**: it reproduces the
//! canonical answer strings the differential-testing harness has always
//! used to compare runtimes (`estimate=…`, `m=…`, `hh(phi=…)=…`,
//! `quantile=…`, `q(…)=…`, `total=…`), bit-for-bit. The 40-scenario
//! equivalence suites and the golden cost fixture rely on this; do not
//! change a format string here without regenerating those fixtures on
//! purpose.

#![deny(missing_docs)]

use std::fmt;

use crate::error::SimError;
use crate::flow::FlowControlStats;
use dtrack_trace::TraceSummary;

/// The quantile fractions probed when a protocol answers rank/quantile
/// queries for every φ simultaneously (the canonical probe grid used by
/// the differential harness and the canonical answer sets).
pub const PROBE_PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

/// The heaviness thresholds probed against heavy-hitter protocols (the
/// canonical φ grid; only entries above a tracker's ε are meaningful).
/// Shared by the canonical answer sets and the differential checkpoint
/// checks so the two can never drift apart.
pub const HH_PROBE_PHIS: [f64; 5] = [0.02, 0.05, 0.1, 0.25, 0.5];

/// A question a [`crate::Tracker`] can be asked mid-stream.
///
/// Which queries a protocol supports depends on the protocol; asking an
/// unsupported query returns [`QueryError::Unsupported`] rather than a
/// wrong answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// The protocol's tracked total: the counter's estimate of n, the
    /// heavy-hitter tracker's m, a quantile tracker's n-estimate, or the
    /// forward-all baseline's exact total.
    Count,
    /// All items whose frequency exceeds φ·n (φ > ε required).
    HeavyHitters {
        /// Heaviness threshold φ.
        phi: f64,
    },
    /// The single quantile a §3 tracker was configured to follow.
    TrackedQuantile,
    /// An arbitrary quantile (protocols tracking the whole distribution).
    Quantile {
        /// Quantile fraction φ ∈ (0, 1).
        phi: f64,
    },
    /// Number of tracked items strictly below `x`.
    RankLt {
        /// Probe value.
        x: u64,
    },
    /// The tracked frequency of one item.
    Frequency {
        /// The item.
        x: u64,
    },
    /// The free-running flow controller's observable state (per-site
    /// windows, drift events, backoff count). Answered by the parallel
    /// backends; protocol-independent. The deterministic backend has no
    /// controller and reports the query unsupported.
    FlowControl,
    /// The trace summary (per-kind event counts, drop accounting, settle
    /// wall stats). Answered by every backend; protocol-independent.
    /// Meaningful only after `Tracker::set_trace` (or `DTRACK_TRACE`)
    /// enabled tracing — otherwise the summary is empty.
    Trace,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Count => write!(f, "count"),
            Query::HeavyHitters { phi } => write!(f, "heavy-hitters(phi={phi})"),
            Query::TrackedQuantile => write!(f, "tracked-quantile"),
            Query::Quantile { phi } => write!(f, "quantile(phi={phi})"),
            Query::RankLt { x } => write!(f, "rank-lt({x})"),
            Query::Frequency { x } => write!(f, "frequency({x})"),
            Query::FlowControl => write!(f, "flow-control"),
            Query::Trace => write!(f, "trace"),
        }
    }
}

/// A typed answer from a [`crate::Tracker`].
///
/// The count-like variants are distinct on purpose: each renders with the
/// label its protocol has always used in the canonical answer strings
/// (see the module docs), so `Display` equality *is* legacy-transcript
/// equality.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A counter protocol's (1−ε)-approximate total. Renders `estimate=…`.
    Count(u64),
    /// A heavy-hitter tracker's tracked stream length m. Renders `m=…`.
    StreamLength(u64),
    /// A quantile-family tracker's n-estimate. Renders `n=…`.
    LengthEstimate(u64),
    /// The forward-all baseline's exact total. Renders `total=…`.
    Total(u64),
    /// The φ-heavy hitters, sorted ascending. Renders `hh(phi=…)=[…]`.
    HeavyHitters {
        /// Heaviness threshold φ.
        phi: f64,
        /// The reported items, sorted ascending (the *set* is the answer).
        items: Vec<u64>,
    },
    /// The single tracked quantile (`None` before any item arrived).
    /// Renders `quantile=…` with `-` for `None`.
    Quantile(Option<u64>),
    /// An arbitrary quantile at fraction φ. Renders `q(…)=…` with `-`
    /// for `None`.
    QuantileAt {
        /// Quantile fraction φ.
        phi: f64,
        /// The answer value, if the stream is nonempty.
        value: Option<u64>,
    },
    /// Tracked rank of a probe value. Renders `rank_lt(…)=…`.
    RankLt {
        /// Probe value.
        x: u64,
        /// Number of tracked items strictly below `x`.
        rank: u64,
    },
    /// Tracked frequency of one item. Renders `freq(…)=…`.
    Frequency {
        /// The item.
        x: u64,
        /// Its tracked frequency.
        count: u64,
    },
    /// Flow-controller snapshot. Renders via [`FlowControlStats`]'s own
    /// `Display` (`flow(win=…, drift=…, backoff=…)`). Never part of the
    /// canonical per-protocol answer sets — it describes the runtime, not
    /// the protocol.
    FlowControl(FlowControlStats),
    /// Trace summary snapshot. Renders via [`TraceSummary`]'s own
    /// `Display` (`trace(events=…, …)`). Like `FlowControl`, never part
    /// of the canonical answer sets — it describes the runtime.
    Trace(TraceSummary),
}

/// Render an optional value the way the canonical answer strings always
/// have: the value, or `-` for "no answer yet".
fn fmt_opt(q: Option<u64>) -> String {
    match q {
        Some(v) => v.to_string(),
        None => "-".to_owned(),
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Count(v) => write!(f, "estimate={v}"),
            Answer::StreamLength(v) => write!(f, "m={v}"),
            Answer::LengthEstimate(v) => write!(f, "n={v}"),
            Answer::Total(v) => write!(f, "total={v}"),
            Answer::HeavyHitters { phi, items } => write!(f, "hh(phi={phi})={items:?}"),
            Answer::Quantile(q) => write!(f, "quantile={}", fmt_opt(*q)),
            Answer::QuantileAt { phi, value } => write!(f, "q({phi})={}", fmt_opt(*value)),
            Answer::RankLt { x, rank } => write!(f, "rank_lt({x})={rank}"),
            Answer::Frequency { x, count } => write!(f, "freq({x})={count}"),
            Answer::FlowControl(stats) => write!(f, "{stats}"),
            Answer::Trace(summary) => write!(f, "{summary}"),
        }
    }
}

impl Answer {
    /// The scalar payload of a count-like answer ([`Answer::Count`],
    /// [`Answer::StreamLength`], [`Answer::LengthEstimate`],
    /// [`Answer::Total`], a rank, or a frequency).
    pub fn as_count(&self) -> Option<u64> {
        match *self {
            Answer::Count(v)
            | Answer::StreamLength(v)
            | Answer::LengthEstimate(v)
            | Answer::Total(v)
            | Answer::RankLt { rank: v, .. }
            | Answer::Frequency { count: v, .. } => Some(v),
            _ => None,
        }
    }

    /// The quantile payload ([`Answer::Quantile`] or
    /// [`Answer::QuantileAt`]); outer `None` when this is not a quantile
    /// answer, inner `None` when the stream was empty.
    pub fn as_quantile(&self) -> Option<Option<u64>> {
        match *self {
            Answer::Quantile(q) => Some(q),
            Answer::QuantileAt { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The reported heavy-hitter items, if this is a heavy-hitter answer.
    pub fn as_items(&self) -> Option<&[u64]> {
        match self {
            Answer::HeavyHitters { items, .. } => Some(items),
            _ => None,
        }
    }
}

/// Why a [`Query`] could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The protocol does not answer this query shape.
    Unsupported {
        /// Label of the protocol that was asked.
        protocol: &'static str,
        /// The query it could not answer.
        query: Query,
    },
    /// The protocol rejected the query parameters (e.g. φ ≤ ε).
    Protocol(String),
    /// The backend failed (e.g. a pool site died).
    Runtime(SimError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Unsupported { protocol, query } => {
                write!(f, "protocol '{protocol}' does not answer {query}")
            }
            QueryError::Protocol(detail) => write!(f, "query rejected: {detail}"),
            QueryError::Runtime(e) => write!(f, "backend failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SimError> for QueryError {
    fn from(e: SimError) -> Self {
        QueryError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_canonical_strings() {
        assert_eq!(Answer::Count(42).to_string(), "estimate=42");
        assert_eq!(Answer::StreamLength(7).to_string(), "m=7");
        assert_eq!(Answer::LengthEstimate(9).to_string(), "n=9");
        assert_eq!(Answer::Total(3).to_string(), "total=3");
        assert_eq!(
            Answer::HeavyHitters {
                phi: 0.05,
                items: vec![1, 2, 30],
            }
            .to_string(),
            "hh(phi=0.05)=[1, 2, 30]"
        );
        assert_eq!(Answer::Quantile(Some(5)).to_string(), "quantile=5");
        assert_eq!(Answer::Quantile(None).to_string(), "quantile=-");
        assert_eq!(
            Answer::QuantileAt {
                phi: 0.25,
                value: None,
            }
            .to_string(),
            "q(0.25)=-"
        );
        assert_eq!(
            Answer::QuantileAt {
                phi: 0.5,
                value: Some(17),
            }
            .to_string(),
            "q(0.5)=17"
        );
        assert_eq!(
            Answer::RankLt { x: 10, rank: 4 }.to_string(),
            "rank_lt(10)=4"
        );
        assert_eq!(
            Answer::Frequency { x: 8, count: 2 }.to_string(),
            "freq(8)=2"
        );
        assert_eq!(Query::FlowControl.to_string(), "flow-control");
        assert_eq!(
            Answer::FlowControl(FlowControlStats {
                windows: vec![16, 64],
                drift_events: 2,
                backoffs: 1,
            })
            .to_string(),
            "flow(win=16..64, drift=2, backoff=1)"
        );
        assert_eq!(Query::Trace.to_string(), "trace");
        assert_eq!(
            Answer::Trace(TraceSummary::default()).to_string(),
            "trace(events=0, dropped=0)"
        );
    }

    #[test]
    fn accessors_extract_payloads() {
        assert_eq!(Answer::Count(1).as_count(), Some(1));
        assert_eq!(Answer::StreamLength(2).as_count(), Some(2));
        assert_eq!(Answer::Quantile(Some(3)).as_count(), None);
        assert_eq!(Answer::Quantile(Some(3)).as_quantile(), Some(Some(3)));
        assert_eq!(
            Answer::QuantileAt {
                phi: 0.5,
                value: None,
            }
            .as_quantile(),
            Some(None)
        );
        let hh = Answer::HeavyHitters {
            phi: 0.1,
            items: vec![4, 5],
        };
        assert_eq!(hh.as_items(), Some(&[4, 5][..]));
        assert_eq!(hh.as_quantile(), None);
    }

    #[test]
    fn query_error_displays_context() {
        let e = QueryError::Unsupported {
            protocol: "counter",
            query: Query::HeavyHitters { phi: 0.1 },
        };
        let s = e.to_string();
        assert!(s.contains("counter"));
        assert!(s.contains("heavy-hitters"));
    }
}
