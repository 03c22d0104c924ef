//! §3.1 — Tracking a single φ-quantile (the median is φ = 1/2) with
//! O(k/ε · log n) communication (Theorem 3.1).
//!
//! ## Protocol
//!
//! The tracking period is divided into rounds; a new round starts whenever
//! |A| doubles. Let `m` be |A| at the start of the round. Within a round:
//!
//! * The coordinator maintains a set of **separators** partitioning the
//!   universe into intervals whose true sizes stay in `[~εm/8, εm/2]`:
//!   per-interval counts are tracked as underestimates (each site reports
//!   when an interval gains `εm/4k` local items) and an interval is split
//!   via an O(k)-word poll when its tracked count reaches `εm/4`.
//! * The coordinator keeps the current answer `M` (the **pivot**, always a
//!   separator) plus underestimates `ΔL, ΔR` of the arrivals to the left /
//!   right of `M` since the last recenter (each site reports per `εm/8k`
//!   local arrivals on a side).
//! * When the estimated rank drift `|(r(M) + ΔL) − φ·n̂|` reaches `7εm/8`,
//!   the coordinator **recenters**: it polls exact left/right counts
//!   (O(k)), then probes neighboring separators with exact range-count
//!   polls (O(k) each, O(1) probes since intervals hold ≥ ~εm/8 items)
//!   until it finds a separator within `εm/2` of the target rank, and
//!   makes it the new pivot.
//!
//! Round restarts rebuild the separator set from per-site equi-depth
//! summaries with error `(ε/32)|A_j|` — O(k/ε) words, O(log n) times.
//!
//! The maintained guarantee, verified continuously by tests:
//! `M` is an ε-approximate φ-quantile of A at all times, i.e. the rank
//! interval of `M` intersects `[(φ−ε)|A|, (φ+ε)|A|]`.
//!
//! ## Small space
//!
//! Sites are generic over [`OrderStore`]: [`ExactOrdered`] gives the
//! paper's main protocol; a Greenwald–Khanna store (ε′ = ε/64) gives the
//! O(1/ε·log(εn))-space variant, with the sketch error absorbed into the
//! polls' slack.

use dtrack_hash::{FxHashMap, FxHashSet};

use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId,
};
use dtrack_sketch::{EquiDepthSummary, ExactOrdered, GreenwaldKhanna, MergedSummary, OrderStore};
use dtrack_wire::{
    put_bool, put_u32, put_u64, put_u8, put_vec_u32, put_vec_u64, DecodeError, WireMessage,
    WireReader,
};

use crate::common::{check_epsilon, check_phi, check_sites, CoreError, KCollector, ValueRange};

/// Parameters of the quantile-tracking protocol.
#[derive(Debug, Clone, Copy)]
pub struct QuantileConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
    /// The tracked quantile φ ∈ [0, 1] (1/2 = median).
    pub phi: f64,
    /// Stream size at which tracking starts; items before that are
    /// forwarded verbatim. Defaults to ⌈8k/ε⌉ so that all thresholds are
    /// at least one item.
    pub warmup_target: u64,
    /// Granularity constant for interval sizing: intervals are built at
    /// `c·εm/16` items and split at `c·εm/8`. The paper uses c = 3
    /// (build at 3εm/16, split at εm/4); experiment E16 ablates it.
    pub granularity: u32,
}

impl QuantileConfig {
    /// Standard configuration from the paper.
    pub fn new(k: u32, epsilon: f64, phi: f64) -> Result<Self, CoreError> {
        check_sites(k)?;
        check_epsilon(epsilon)?;
        check_phi(phi)?;
        Ok(QuantileConfig {
            k,
            epsilon,
            phi,
            warmup_target: (8.0 * k as f64 / epsilon).ceil() as u64,
            granularity: 3,
        })
    }

    /// Median tracking (φ = 1/2).
    pub fn median(k: u32, epsilon: f64) -> Result<Self, CoreError> {
        Self::new(k, epsilon, 0.5)
    }

    /// Override the warm-up length.
    pub fn with_warmup_target(mut self, warmup_target: u64) -> Self {
        self.warmup_target = warmup_target.max(4);
        self
    }

    /// Override the interval granularity constant (2..=6 are sensible).
    pub fn with_granularity(mut self, granularity: u32) -> Self {
        self.granularity = granularity.clamp(1, 7);
        self
    }

    /// Per-site reporting threshold for interval counters: `εm/4k`.
    fn interval_site_threshold(&self, m: u64) -> u64 {
        ((self.epsilon * m as f64 / (4.0 * self.k as f64)).floor() as u64).max(1)
    }

    /// Per-site reporting threshold for side counters: `εm/8k`.
    fn side_site_threshold(&self, m: u64) -> u64 {
        ((self.epsilon * m as f64 / (8.0 * self.k as f64)).floor() as u64).max(1)
    }

    /// Coordinator split trigger: `εm/4` (scaled by granularity/3).
    fn split_threshold(&self, m: u64) -> u64 {
        ((self.granularity as f64 / 3.0) * self.epsilon * m as f64 / 4.0)
            .floor()
            .max(2.0) as u64
    }

    /// Interval size targeted at (re)builds: `granularity·εm/16`
    /// (= 3εm/16 for the paper's constants).
    fn build_gap(&self, m: u64) -> u64 {
        ((self.granularity as f64 * self.epsilon * m as f64 / 16.0).floor() as u64).max(1)
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Upstream messages (site → coordinator).
#[derive(Debug, Clone, PartialEq)]
pub enum QUp {
    /// Warm-up: forward the raw item.
    Raw { item: u64 },
    /// Interval `id` gained `delta` items at this site.
    IntervalDelta { id: u32, delta: u64 },
    /// `delta` items arrived on one side of the pivot (tagged with the
    /// pivot epoch so reports for a stale pivot are discarded).
    SideDelta { epoch: u32, left: bool, delta: u64 },
    /// Reply to [`QDown::SummaryPoll`].
    FullSummary(EquiDepthSummary),
    /// Reply to [`QDown::Install`]: exact count per interval, in order.
    IntervalCounts(Vec<u64>),
    /// Reply to [`QDown::SidePoll`]: exact counts left/right of the pivot.
    SideCounts { left: u64, right: u64 },
    /// Reply to [`QDown::RangePoll`].
    RangeCount { count: u64 },
    /// Reply to [`QDown::RangeSummaryPoll`].
    RangeSummary(EquiDepthSummary),
    /// Reply to [`QDown::SplitInstall`]: exact counts of the two halves.
    SplitCounts { left: u64, right: u64 },
}

impl MessageSize for QUp {
    fn size_words(&self) -> u64 {
        match self {
            QUp::Raw { .. } => 2,
            QUp::IntervalDelta { .. } => 3,
            QUp::SideDelta { .. } => 3,
            QUp::FullSummary(s) => s.wire_words(),
            QUp::IntervalCounts(v) => v.len() as u64 + 1,
            QUp::SideCounts { .. } => 3,
            QUp::RangeCount { .. } => 2,
            QUp::RangeSummary(s) => s.wire_words(),
            QUp::SplitCounts { .. } => 3,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            QUp::Raw { .. } => "q/raw",
            QUp::IntervalDelta { .. } => "q/interval-delta",
            QUp::SideDelta { .. } => "q/side-delta",
            QUp::FullSummary(_) => "q/full-summary",
            QUp::IntervalCounts(_) => "q/interval-counts",
            QUp::SideCounts { .. } => "q/side-counts",
            QUp::RangeCount { .. } => "q/range-count",
            QUp::RangeSummary(_) => "q/range-summary",
            QUp::SplitCounts { .. } => "q/split-counts",
        }
    }
}

/// Downstream messages (coordinator → site).
#[derive(Debug, Clone, PartialEq)]
pub enum QDown {
    /// Request an equi-depth summary of the whole local stream.
    SummaryPoll,
    /// Install a fresh separator set for a new round.
    Install {
        /// Pivot epoch after this install.
        epoch: u32,
        /// The separators, sorted, strictly increasing.
        seps: Vec<u64>,
        /// Stable interval ids, one per interval (`seps.len() + 1`).
        ids: Vec<u32>,
        /// The new pivot (must be one of `seps`).
        pivot: u64,
        /// Round-start cardinality, for threshold computation.
        m: u64,
    },
    /// Request exact counts left/right of the current pivot.
    SidePoll,
    /// Request the exact count of items in `range`.
    RangePoll {
        /// The value range to count.
        range: ValueRange,
    },
    /// Adopt a new pivot and reset side counters.
    SetPivot {
        /// New pivot epoch.
        epoch: u32,
        /// The new pivot.
        pivot: u64,
    },
    /// Request an equi-depth summary of the items in `range`.
    RangeSummaryPoll {
        /// The value range to summarize.
        range: ValueRange,
    },
    /// Split the interval containing `sep` at `sep`.
    SplitInstall {
        /// New separator value.
        sep: u64,
        /// Stable id of the left half.
        left_id: u32,
        /// Stable id of the right half.
        right_id: u32,
    },
}

impl MessageSize for QDown {
    fn size_words(&self) -> u64 {
        match self {
            QDown::SummaryPoll => 1,
            QDown::Install { seps, ids, .. } => seps.len() as u64 + ids.len() as u64 + 4,
            QDown::SidePoll => 1,
            QDown::RangePoll { range } => 1 + range.words(),
            QDown::SetPivot { .. } => 3,
            QDown::RangeSummaryPoll { range } => 1 + range.words(),
            QDown::SplitInstall { .. } => 4,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            QDown::SummaryPoll => "q/summary-poll",
            QDown::Install { .. } => "q/install",
            QDown::SidePoll => "q/side-poll",
            QDown::RangePoll { .. } => "q/range-poll",
            QDown::SetPivot { .. } => "q/set-pivot",
            QDown::RangeSummaryPoll { .. } => "q/range-summary-poll",
            QDown::SplitInstall { .. } => "q/split-install",
        }
    }
}

impl WireMessage for QUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            QUp::Raw { item } => {
                put_u8(out, 0);
                put_u64(out, *item);
            }
            QUp::IntervalDelta { id, delta } => {
                put_u8(out, 1);
                put_u32(out, *id);
                put_u64(out, *delta);
            }
            QUp::SideDelta { epoch, left, delta } => {
                put_u8(out, 2);
                put_u32(out, *epoch);
                put_bool(out, *left);
                put_u64(out, *delta);
            }
            QUp::FullSummary(s) => {
                put_u8(out, 3);
                s.wire_encode(out);
            }
            QUp::IntervalCounts(v) => {
                put_u8(out, 4);
                put_vec_u64(out, v);
            }
            QUp::SideCounts { left, right } => {
                put_u8(out, 5);
                put_u64(out, *left);
                put_u64(out, *right);
            }
            QUp::RangeCount { count } => {
                put_u8(out, 6);
                put_u64(out, *count);
            }
            QUp::RangeSummary(s) => {
                put_u8(out, 7);
                s.wire_encode(out);
            }
            QUp::SplitCounts { left, right } => {
                put_u8(out, 8);
                put_u64(out, *left);
                put_u64(out, *right);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(QUp::Raw { item: r.u64()? }),
            1 => Ok(QUp::IntervalDelta {
                id: r.u32()?,
                delta: r.u64()?,
            }),
            2 => Ok(QUp::SideDelta {
                epoch: r.u32()?,
                left: r.bool()?,
                delta: r.u64()?,
            }),
            3 => Ok(QUp::FullSummary(EquiDepthSummary::wire_decode(r)?)),
            4 => Ok(QUp::IntervalCounts(r.vec_u64()?)),
            5 => Ok(QUp::SideCounts {
                left: r.u64()?,
                right: r.u64()?,
            }),
            6 => Ok(QUp::RangeCount { count: r.u64()? }),
            7 => Ok(QUp::RangeSummary(EquiDepthSummary::wire_decode(r)?)),
            8 => Ok(QUp::SplitCounts {
                left: r.u64()?,
                right: r.u64()?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "QUp",
                tag,
                offset,
            }),
        }
    }
}

impl WireMessage for QDown {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            QDown::SummaryPoll => put_u8(out, 0),
            QDown::Install {
                epoch,
                seps,
                ids,
                pivot,
                m,
            } => {
                put_u8(out, 1);
                put_u32(out, *epoch);
                put_vec_u64(out, seps);
                put_vec_u32(out, ids);
                put_u64(out, *pivot);
                put_u64(out, *m);
            }
            QDown::SidePoll => put_u8(out, 2),
            QDown::RangePoll { range } => {
                put_u8(out, 3);
                range.wire_encode(out);
            }
            QDown::SetPivot { epoch, pivot } => {
                put_u8(out, 4);
                put_u32(out, *epoch);
                put_u64(out, *pivot);
            }
            QDown::RangeSummaryPoll { range } => {
                put_u8(out, 5);
                range.wire_encode(out);
            }
            QDown::SplitInstall {
                sep,
                left_id,
                right_id,
            } => {
                put_u8(out, 6);
                put_u64(out, *sep);
                put_u32(out, *left_id);
                put_u32(out, *right_id);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(QDown::SummaryPoll),
            1 => Ok(QDown::Install {
                epoch: r.u32()?,
                seps: r.vec_u64()?,
                ids: r.vec_u32()?,
                pivot: r.u64()?,
                m: r.u64()?,
            }),
            2 => Ok(QDown::SidePoll),
            3 => Ok(QDown::RangePoll {
                range: ValueRange::wire_decode(r)?,
            }),
            4 => Ok(QDown::SetPivot {
                epoch: r.u32()?,
                pivot: r.u64()?,
            }),
            5 => Ok(QDown::RangeSummaryPoll {
                range: ValueRange::wire_decode(r)?,
            }),
            6 => Ok(QDown::SplitInstall {
                sep: r.u64()?,
                left_id: r.u32()?,
                right_id: r.u32()?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "QDown",
                tag,
                offset,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Site
// ---------------------------------------------------------------------

/// Per-round tracking state at a site.
#[derive(Debug, Clone)]
struct SiteTracking {
    seps: Vec<u64>,
    ids: Vec<u32>,
    unrep: Vec<u64>,
    interval_threshold: u64,
    pivot: u64,
    pivot_epoch: u32,
    left_unrep: u64,
    right_unrep: u64,
    side_threshold: u64,
}

impl SiteTracking {
    /// Interval position of `x`: the number of separators `<= x`.
    fn interval_of(&self, x: u64) -> usize {
        self.seps.partition_point(|&s| s <= x)
    }

    /// Bounds of interval `pos` as a [`ValueRange`].
    fn bounds(&self, pos: usize) -> ValueRange {
        let lo = if pos == 0 { 0 } else { self.seps[pos - 1] };
        let hi = self.seps.get(pos).copied();
        ValueRange { lo, hi }
    }
}

/// A quantile-tracking site, generic over its local ordered store.
#[derive(Debug, Clone)]
pub struct QuantileSite<S = ExactOrdered> {
    config: QuantileConfig,
    store: S,
    tracking: Option<SiteTracking>,
}

/// Exact-store site (the paper's main protocol).
pub type ExactQuantileSite = QuantileSite<ExactOrdered>;
/// Greenwald–Khanna-backed small-space site.
pub type SketchQuantileSite = QuantileSite<GreenwaldKhanna>;

impl QuantileSite<ExactOrdered> {
    /// Site with exact local state.
    pub fn exact(config: QuantileConfig) -> Self {
        QuantileSite::with_store(config, ExactOrdered::new())
    }
}

impl QuantileSite<GreenwaldKhanna> {
    /// Site with a Greenwald–Khanna store of error ε/64 — the
    /// O(1/ε · log(εn))-space variant.
    pub fn sketched(config: QuantileConfig) -> Self {
        let store = GreenwaldKhanna::new(config.epsilon / 64.0);
        QuantileSite::with_store(config, store)
    }
}

impl<S: OrderStore> QuantileSite<S> {
    /// Site with a caller-provided store.
    pub fn with_store(config: QuantileConfig, store: S) -> Self {
        QuantileSite {
            config,
            store,
            tracking: None,
        }
    }

    /// The local store (oracle access).
    pub fn store(&self) -> &S {
        &self.store
    }

    fn range_count(&self, range: &ValueRange) -> u64 {
        let hi_rank = range
            .hi
            .map_or(self.store.total(), |h| self.store.rank_lt(h));
        hi_rank.saturating_sub(self.store.rank_lt(range.lo))
    }
}

impl<S: OrderStore> Site for QuantileSite<S> {
    type Item = u64;
    type Up = QUp;
    type Down = QDown;

    fn on_item(&mut self, item: u64, out: &mut Vec<QUp>) {
        self.store.insert(item);
        let t = match self.tracking.as_mut() {
            None => {
                out.push(QUp::Raw { item });
                return;
            }
            Some(t) => t,
        };
        let pos = t.interval_of(item);
        t.unrep[pos] += 1;
        if t.unrep[pos] >= t.interval_threshold {
            out.push(QUp::IntervalDelta {
                id: t.ids[pos],
                delta: t.unrep[pos],
            });
            t.unrep[pos] = 0;
        }
        if item < t.pivot {
            t.left_unrep += 1;
            if t.left_unrep >= t.side_threshold {
                out.push(QUp::SideDelta {
                    epoch: t.pivot_epoch,
                    left: true,
                    delta: t.left_unrep,
                });
                t.left_unrep = 0;
            }
        } else {
            t.right_unrep += 1;
            if t.right_unrep >= t.side_threshold {
                out.push(QUp::SideDelta {
                    epoch: t.pivot_epoch,
                    left: false,
                    delta: t.right_unrep,
                });
                t.right_unrep = 0;
            }
        }
    }

    fn on_message(&mut self, msg: &QDown, out: &mut Vec<QUp>) {
        match msg {
            QDown::SummaryPoll => {
                let step = ((self.config.epsilon * self.store.total() as f64 / 32.0).floor()
                    as u64)
                    .max(1);
                out.push(QUp::FullSummary(self.store.summary(step)));
            }
            QDown::Install {
                epoch,
                seps,
                ids,
                pivot,
                m,
            } => {
                let tracking = SiteTracking {
                    seps: seps.clone(),
                    ids: ids.clone(),
                    unrep: vec![0; ids.len()],
                    interval_threshold: self.config.interval_site_threshold(*m),
                    pivot: *pivot,
                    pivot_epoch: *epoch,
                    left_unrep: 0,
                    right_unrep: 0,
                    side_threshold: self.config.side_site_threshold(*m),
                };
                // Exact per-interval counts: consecutive rank differences.
                let mut counts = Vec::with_capacity(ids.len());
                let mut prev = 0u64;
                for &s in seps {
                    let r = self.store.rank_lt(s);
                    counts.push(r.saturating_sub(prev));
                    prev = r;
                }
                counts.push(self.store.total().saturating_sub(prev));
                self.tracking = Some(tracking);
                out.push(QUp::IntervalCounts(counts));
            }
            QDown::SidePoll => {
                let pivot = self.tracking.as_ref().map_or(0, |t| t.pivot);
                let left = self.store.rank_lt(pivot);
                out.push(QUp::SideCounts {
                    left,
                    right: self.store.total().saturating_sub(left),
                });
            }
            QDown::RangePoll { range } => {
                out.push(QUp::RangeCount {
                    count: self.range_count(range),
                });
            }
            QDown::SetPivot { epoch, pivot } => {
                if let Some(t) = self.tracking.as_mut() {
                    t.pivot = *pivot;
                    t.pivot_epoch = *epoch;
                    t.left_unrep = 0;
                    t.right_unrep = 0;
                }
            }
            QDown::RangeSummaryPoll { range } => {
                let cnt = self.range_count(range);
                let step = (cnt / 32).max(1);
                out.push(QUp::RangeSummary(
                    self.store.summary_range(range.lo, range.hi, step),
                ));
            }
            QDown::SplitInstall {
                sep,
                left_id,
                right_id,
            } => {
                if let Some(t) = self.tracking.as_mut() {
                    let pos = t.interval_of(*sep);
                    let old = t.bounds(pos);
                    let left_range = ValueRange::new(old.lo, Some(*sep));
                    let right_range = ValueRange {
                        lo: *sep,
                        hi: old.hi,
                    };
                    t.seps.insert(pos, *sep);
                    t.ids[pos] = *left_id;
                    t.ids.insert(pos + 1, *right_id);
                    t.unrep[pos] = 0;
                    t.unrep.insert(pos + 1, 0);
                    let left = self.range_count(&left_range);
                    let right = self.range_count(&right_range);
                    out.push(QUp::SplitCounts { left, right });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Running statistics of the coordinator's structural operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantileStats {
    /// Full rebuilds (round restarts), bounded by O(log n).
    pub rebuilds: u64,
    /// Pivot recenters, bounded by O(1/ε) per round.
    pub recenters: u64,
    /// Interval splits, bounded by O(1/ε) per round.
    pub splits: u64,
    /// Total probe polls across all recenters (O(1) each per the paper).
    pub probes: u64,
}

/// In-flight multi-message exchange at the coordinator.
#[derive(Debug, Clone)]
enum Pending {
    /// Awaiting whole-stream summaries for a round rebuild.
    Rebuild(KCollector<EquiDepthSummary>),
    /// Awaiting per-interval counts after an install.
    InstallWait {
        seps: Vec<u64>,
        ids: Vec<u32>,
        pivot: u64,
        collector: KCollector<Vec<u64>>,
    },
    /// Awaiting exact side counts at the start of a recenter.
    RecenterSides(KCollector<(u64, u64)>),
    /// Awaiting a range-count probe during a recenter walk.
    RecenterProbe {
        /// Exact rank of the current pivot.
        l: u64,
        /// Exact stream size.
        n: u64,
        /// Target rank φ·n.
        target: f64,
        /// Separator index of the current pivot.
        pivot_idx: usize,
        /// Separator index being probed.
        cand_idx: usize,
        /// Best candidate seen so far: (separator index, exact rank, |diff|).
        best: (usize, u64, f64),
        collector: KCollector<u64>,
    },
    /// Awaiting range summaries for an interval split.
    SplitSummaries {
        pos: usize,
        collector: KCollector<EquiDepthSummary>,
    },
    /// Awaiting exact half counts after a split install.
    SplitWait {
        pos: usize,
        sep: u64,
        left_id: u32,
        right_id: u32,
        collector: KCollector<(u64, u64)>,
    },
}

/// The quantile-tracking coordinator.
#[derive(Debug, Clone)]
pub struct QuantileCoordinator {
    config: QuantileConfig,
    /// Warm-up store; `None` once tracking has started.
    warmup: Option<ExactOrdered>,
    pending: Option<Pending>,
    // --- round state ---
    m_round: u64,
    seps: Vec<u64>,
    ids: Vec<u32>,
    counts: Vec<u64>,
    id_pos: FxHashMap<u32, usize>,
    next_id: u32,
    no_split: FxHashSet<u32>,
    // --- pivot state ---
    pivot: u64,
    pivot_epoch: u32,
    r_base: u64,
    n_base: u64,
    base_drift: f64,
    dl: u64,
    dr: u64,
    stats: QuantileStats,
}

impl QuantileCoordinator {
    /// Fresh coordinator.
    pub fn new(config: QuantileConfig) -> Self {
        QuantileCoordinator {
            config,
            warmup: Some(ExactOrdered::new()),
            pending: None,
            m_round: 0,
            seps: Vec::new(),
            ids: Vec::new(),
            counts: Vec::new(),
            id_pos: FxHashMap::default(),
            next_id: 0,
            no_split: FxHashSet::default(),
            pivot: 0,
            pivot_epoch: 0,
            r_base: 0,
            n_base: 0,
            base_drift: 0.0,
            dl: 0,
            dr: 0,
            stats: QuantileStats::default(),
        }
    }

    /// True while the protocol is still forwarding raw items.
    pub fn in_warmup(&self) -> bool {
        self.warmup.is_some()
    }

    /// The tracked ε-approximate φ-quantile. During warm-up this is the
    /// exact quantile of the forwarded items.
    pub fn quantile(&self) -> Option<u64> {
        match &self.warmup {
            Some(store) => {
                let n = store.len();
                if n == 0 {
                    return None;
                }
                let target = ((self.config.phi * n as f64).ceil() as u64).clamp(1, n);
                store.select(target - 1)
            }
            None => Some(self.pivot),
        }
    }

    /// Estimated current stream size n̂ (an underestimate within εm/4).
    pub fn n_estimate(&self) -> u64 {
        match &self.warmup {
            Some(store) => store.len(),
            None => self.n_base + self.dl + self.dr,
        }
    }

    /// Structural operation counters.
    pub fn stats(&self) -> QuantileStats {
        self.stats
    }

    /// Number of separators currently maintained (Θ(1/ε)).
    pub fn separator_count(&self) -> usize {
        self.seps.len()
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn interval_bounds(&self, pos: usize) -> ValueRange {
        let lo = if pos == 0 { 0 } else { self.seps[pos - 1] };
        let hi = self.seps.get(pos).copied();
        ValueRange { lo, hi }
    }

    /// Build separators from a merged summary and broadcast the install.
    fn begin_install(&mut self, merged: &MergedSummary, m: u64, out: &mut Outbox<QDown>) {
        let gap = self.config.build_gap(m);
        let mut seps = Vec::new();
        let mut r = gap;
        while r < m {
            if let Some(v) = merged.select(r) {
                if seps.last().is_none_or(|&last| v > last) {
                    seps.push(v);
                }
            }
            r += gap;
        }
        if seps.is_empty() {
            // Degenerate stream (e.g. a single distinct value): fall back
            // to one separator so the pivot is well defined. The answer is
            // still a valid quantile by the rank-interval criterion.
            if let Some(v) = merged.select(m / 2) {
                seps.push(v);
            } else {
                seps.push(0);
            }
        }
        // Pivot: separator whose estimated rank is closest to φ·m.
        let target = self.config.phi * m as f64;
        let pivot = *seps
            .iter()
            .min_by(|&&a, &&b| {
                let da = (merged.rank_estimate(a) as f64 - target).abs();
                let db = (merged.rank_estimate(b) as f64 - target).abs();
                da.partial_cmp(&db).expect("finite rank estimates")
            })
            .expect("separators are nonempty");
        let ids: Vec<u32> = (0..=seps.len()).map(|_| self.fresh_id()).collect();
        self.pivot_epoch += 1;
        out.broadcast(QDown::Install {
            epoch: self.pivot_epoch,
            seps: seps.clone(),
            ids: ids.clone(),
            pivot,
            m,
        });
        self.no_split.clear();
        self.pending = Some(Pending::InstallWait {
            seps,
            ids,
            pivot,
            collector: KCollector::new(self.config.k),
        });
    }

    /// Finish an install once all interval counts are in.
    fn finish_install(
        &mut self,
        seps: Vec<u64>,
        ids: Vec<u32>,
        pivot: u64,
        per_site: Vec<Vec<u64>>,
    ) {
        let intervals = ids.len();
        let mut counts = vec![0u64; intervals];
        for site_counts in &per_site {
            for (i, c) in site_counts.iter().enumerate().take(intervals) {
                counts[i] += c;
            }
        }
        let n: u64 = counts.iter().sum();
        let pivot_idx = seps.binary_search(&pivot).unwrap_or_else(|i| i);
        let r: u64 = counts.iter().take(pivot_idx + 1).sum();
        self.id_pos = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        self.seps = seps;
        self.ids = ids;
        self.counts = counts;
        self.pivot = pivot;
        self.r_base = r;
        self.n_base = n;
        self.base_drift = r as f64 - self.config.phi * n as f64;
        self.dl = 0;
        self.dr = 0;
        self.m_round = n.max(1);
        self.warmup = None;
        self.pending = None;
        self.stats.rebuilds += 1;
    }

    /// Evaluate rebuild / split / recenter triggers; start at most one
    /// exchange. Called only when no exchange is pending.
    fn maybe_trigger(&mut self, out: &mut Outbox<QDown>) {
        debug_assert!(self.pending.is_none());
        if self.warmup.is_some() {
            return;
        }
        let m = self.m_round;
        let n_hat = self.n_base + self.dl + self.dr;
        // 1. Round restart when the stream has doubled.
        if n_hat >= 2 * m {
            self.pending = Some(Pending::Rebuild(KCollector::new(self.config.k)));
            out.broadcast(QDown::SummaryPoll);
            return;
        }
        // 2. Interval split when a tracked count reaches the threshold.
        let split_at = self.config.split_threshold(m);
        if let Some(pos) = self
            .counts
            .iter()
            .enumerate()
            .position(|(i, &c)| c >= split_at && !self.no_split.contains(&self.ids[i]))
        {
            let range = self.interval_bounds(pos);
            self.pending = Some(Pending::SplitSummaries {
                pos,
                collector: KCollector::new(self.config.k),
            });
            out.broadcast(QDown::RangeSummaryPoll { range });
            return;
        }
        // 3. Pivot recenter when the estimated rank drift is too large.
        let eps_m = self.config.epsilon * m as f64;
        let new_drift = (1.0 - self.config.phi) * self.dl as f64 - self.config.phi * self.dr as f64;
        let total_drift = self.base_drift + new_drift;
        if total_drift.abs() >= 7.0 * eps_m / 8.0 && new_drift.abs() >= eps_m / 8.0 {
            self.pending = Some(Pending::RecenterSides(KCollector::new(self.config.k)));
            out.broadcast(QDown::SidePoll);
        }
    }

    /// Commit a recenter: new pivot with exact rank `r` out of `n` items.
    fn finalize_recenter(&mut self, pivot: u64, r: u64, n: u64, out: &mut Outbox<QDown>) {
        self.pivot = pivot;
        self.pivot_epoch += 1;
        self.r_base = r;
        self.n_base = n;
        self.base_drift = r as f64 - self.config.phi * n as f64;
        self.dl = 0;
        self.dr = 0;
        self.pending = None;
        self.stats.recenters += 1;
        out.broadcast(QDown::SetPivot {
            epoch: self.pivot_epoch,
            pivot,
        });
    }

    /// Launch the probe of `cand_idx` during a recenter walk.
    #[allow(clippy::too_many_arguments)] // walk state is one logical tuple
    fn probe(
        &mut self,
        l: u64,
        n: u64,
        target: f64,
        pivot_idx: usize,
        cand_idx: usize,
        best: (usize, u64, f64),
        out: &mut Outbox<QDown>,
    ) {
        let (lo_idx, hi_idx) = if cand_idx < pivot_idx {
            (cand_idx, pivot_idx)
        } else {
            (pivot_idx, cand_idx)
        };
        let range = ValueRange::new(self.seps[lo_idx], Some(self.seps[hi_idx]));
        self.pending = Some(Pending::RecenterProbe {
            l,
            n,
            target,
            pivot_idx,
            cand_idx,
            best,
            collector: KCollector::new(self.config.k),
        });
        self.stats.probes += 1;
        out.broadcast(QDown::RangePoll { range });
    }

    /// Step the recenter walk after exact side counts (or a probe) are in.
    #[allow(clippy::too_many_arguments)] // walk state is one logical tuple
    fn recenter_step(
        &mut self,
        l: u64,
        n: u64,
        target: f64,
        pivot_idx: usize,
        prev_cand: Option<(usize, u64)>,
        best: (usize, u64, f64),
        out: &mut Outbox<QDown>,
    ) {
        let eps_m = self.config.epsilon * self.m_round as f64;
        let accept = eps_m / 2.0;
        let (cur_idx, cur_rank) = prev_cand.unwrap_or((pivot_idx, l));
        let diff = cur_rank as f64 - target;
        let best = if diff.abs() < best.2 {
            (cur_idx, cur_rank, diff.abs())
        } else {
            best
        };
        if diff.abs() <= accept {
            let pivot = self.seps[cur_idx];
            self.finalize_recenter(pivot, cur_rank, n, out);
            return;
        }
        // Walk one separator toward the target.
        let next = if diff > 0.0 {
            cur_idx.checked_sub(1)
        } else if cur_idx + 1 < self.seps.len() {
            Some(cur_idx + 1)
        } else {
            None
        };
        // Detect overshoot: once the walk crosses the target, no further
        // candidate can improve, so commit the best seen.
        let crossed = {
            let start_diff = l as f64 - target;
            diff.signum() != start_diff.signum() && diff != 0.0
        };
        match next {
            Some(next_idx) if !crossed => {
                self.probe(l, n, target, pivot_idx, next_idx, best, out);
            }
            _ => {
                let pivot = self.seps[best.0];
                let r = best.1;
                self.finalize_recenter(pivot, r, n, out);
            }
        }
    }
}

impl Coordinator for QuantileCoordinator {
    type Up = QUp;
    type Down = QDown;

    fn on_message(&mut self, from: SiteId, msg: QUp, out: &mut Outbox<QDown>) {
        match msg {
            QUp::Raw { item } => {
                if let Some(store) = self.warmup.as_mut() {
                    store.insert(item);
                    if store.len() >= self.config.warmup_target && self.pending.is_none() {
                        // Build the first round directly from the exact
                        // warm-up store (zero polling cost).
                        let n = store.len();
                        let step = self.config.build_gap(n).min(n).max(1);
                        let summary =
                            EquiDepthSummary::from_sorted_counts(store.iter(), n, step.min(64));
                        let merged = MergedSummary::new(vec![summary]);
                        self.begin_install(&merged, n, out);
                    }
                }
            }
            QUp::IntervalDelta { id, delta } => {
                if let Some(&pos) = self.id_pos.get(&id) {
                    self.counts[pos] += delta;
                }
                if self.pending.is_none() {
                    self.maybe_trigger(out);
                }
            }
            QUp::SideDelta { epoch, left, delta } => {
                if epoch == self.pivot_epoch && self.warmup.is_none() {
                    if left {
                        self.dl += delta;
                    } else {
                        self.dr += delta;
                    }
                }
                if self.pending.is_none() {
                    self.maybe_trigger(out);
                }
            }
            QUp::FullSummary(s) => {
                if let Some(Pending::Rebuild(c)) = self.pending.as_mut() {
                    if c.put(from.index(), s) {
                        let Some(Pending::Rebuild(c)) = self.pending.take() else {
                            unreachable!("pending variant checked above");
                        };
                        let parts = c.take();
                        let merged = MergedSummary::new(parts);
                        let m = merged.total();
                        self.begin_install(&merged, m, out);
                    }
                }
            }
            QUp::IntervalCounts(v) => {
                if let Some(Pending::InstallWait { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), v) {
                        let Some(Pending::InstallWait {
                            seps,
                            ids,
                            pivot,
                            collector,
                        }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        self.finish_install(seps, ids, pivot, collector.take());
                        self.maybe_trigger(out);
                    }
                }
            }
            QUp::SideCounts { left, right } => {
                if let Some(Pending::RecenterSides(c)) = self.pending.as_mut() {
                    if c.put(from.index(), (left, right)) {
                        let Some(Pending::RecenterSides(c)) = self.pending.take() else {
                            unreachable!("pending variant checked above");
                        };
                        let sides = c.take();
                        let l: u64 = sides.iter().map(|&(a, _)| a).sum();
                        let r: u64 = sides.iter().map(|&(_, b)| b).sum();
                        let n = l + r;
                        let target = self.config.phi * n as f64;
                        let pivot_idx = self
                            .seps
                            .binary_search(&self.pivot)
                            .unwrap_or_else(|i| i.min(self.seps.len().saturating_sub(1)));
                        self.recenter_step(
                            l,
                            n,
                            target,
                            pivot_idx,
                            None,
                            (pivot_idx, l, f64::INFINITY),
                            out,
                        );
                        if self.pending.is_none() {
                            self.maybe_trigger(out);
                        }
                    }
                }
            }
            QUp::RangeCount { count } => {
                if let Some(Pending::RecenterProbe { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), count) {
                        let Some(Pending::RecenterProbe {
                            l,
                            n,
                            target,
                            pivot_idx,
                            cand_idx,
                            best,
                            collector,
                        }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let cnt: u64 = collector.take().iter().sum();
                        let cand_rank = if cand_idx < pivot_idx {
                            l.saturating_sub(cnt)
                        } else {
                            l + cnt
                        };
                        self.recenter_step(
                            l,
                            n,
                            target,
                            pivot_idx,
                            Some((cand_idx, cand_rank)),
                            best,
                            out,
                        );
                        if self.pending.is_none() {
                            self.maybe_trigger(out);
                        }
                    }
                }
            }
            QUp::RangeSummary(s) => {
                if let Some(Pending::SplitSummaries { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), s) {
                        let Some(Pending::SplitSummaries { pos, collector }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let merged = MergedSummary::new(collector.take());
                        let total = merged.total();
                        let range = self.interval_bounds(pos);
                        let sep = merged
                            .select(total / 2)
                            .filter(|&v| v > range.lo && range.hi.is_none_or(|h| v < h));
                        match sep {
                            Some(sep) => {
                                let left_id = self.fresh_id();
                                let right_id = self.fresh_id();
                                self.pending = Some(Pending::SplitWait {
                                    pos,
                                    sep,
                                    left_id,
                                    right_id,
                                    collector: KCollector::new(self.config.k),
                                });
                                out.broadcast(QDown::SplitInstall {
                                    sep,
                                    left_id,
                                    right_id,
                                });
                            }
                            None => {
                                // Unsplittable (duplicate-saturated)
                                // interval; remember and move on.
                                self.no_split.insert(self.ids[pos]);
                                self.pending = None;
                                self.maybe_trigger(out);
                            }
                        }
                    }
                }
            }
            QUp::SplitCounts { left, right } => {
                if let Some(Pending::SplitWait { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), (left, right)) {
                        let Some(Pending::SplitWait {
                            pos,
                            sep,
                            left_id,
                            right_id,
                            collector,
                        }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let halves = collector.take();
                        let l: u64 = halves.iter().map(|&(a, _)| a).sum();
                        let r: u64 = halves.iter().map(|&(_, b)| b).sum();
                        let old_id = self.ids[pos];
                        self.seps.insert(pos, sep);
                        self.ids[pos] = left_id;
                        self.ids.insert(pos + 1, right_id);
                        self.counts[pos] = l;
                        self.counts.insert(pos + 1, r);
                        self.no_split.remove(&old_id);
                        self.id_pos = self
                            .ids
                            .iter()
                            .enumerate()
                            .map(|(i, &id)| (id, i))
                            .collect();
                        self.stats.splits += 1;
                        self.pending = None;
                        self.maybe_trigger(out);
                    }
                }
            }
        }
    }
}

/// Convenience: build a full exact-store cluster.
pub fn exact_cluster(
    config: QuantileConfig,
) -> Result<dtrack_sim::Cluster<ExactQuantileSite, QuantileCoordinator>, CoreError> {
    let sites = (0..config.k).map(|_| QuantileSite::exact(config)).collect();
    dtrack_sim::Cluster::new(sites, QuantileCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// Convenience: build a full sketch-store cluster.
pub fn sketched_cluster(
    config: QuantileConfig,
) -> Result<dtrack_sim::Cluster<SketchQuantileSite, QuantileCoordinator>, CoreError> {
    let sites = (0..config.k)
        .map(|_| QuantileSite::sketched(config))
        .collect();
    dtrack_sim::Cluster::new(sites, QuantileCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// Shared query dispatch for both single-quantile facade adapters.
fn quantile_query(
    label: &'static str,
    c: &QuantileCoordinator,
    query: Query,
) -> Result<Answer, QueryError> {
    match query {
        Query::TrackedQuantile => Ok(Answer::Quantile(c.quantile())),
        Query::Count => Ok(Answer::LengthEstimate(c.n_estimate())),
        other => Err(QueryError::Unsupported {
            protocol: label,
            query: other,
        }),
    }
}

/// Canonical answer set: the tracked quantile, then the n estimate.
fn quantile_answers(c: &QuantileCoordinator) -> Vec<Answer> {
    vec![
        Answer::Quantile(c.quantile()),
        Answer::LengthEstimate(c.n_estimate()),
    ]
}

/// [`Protocol`] adapter: the §3.1 single-quantile tracker with exact
/// ([`ExactOrdered`]) sites, for the [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct QuantileExactProtocol {
    config: QuantileConfig,
}

impl QuantileExactProtocol {
    /// Wrap a validated [`QuantileConfig`].
    pub fn new(config: QuantileConfig) -> Self {
        QuantileExactProtocol { config }
    }
}

impl Protocol for QuantileExactProtocol {
    type Site = ExactQuantileSite;
    type Up = QUp;
    type Down = QDown;
    type Coordinator = QuantileCoordinator;

    fn label(&self) -> &'static str {
        "quantile-exact"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<ExactQuantileSite>, QuantileCoordinator), String> {
        let sites = (0..k).map(|_| QuantileSite::exact(self.config)).collect();
        Ok((sites, QuantileCoordinator::new(self.config)))
    }

    fn query(&self, c: &QuantileCoordinator, query: Query) -> Result<Answer, QueryError> {
        quantile_query(self.label(), c, query)
    }

    fn answers(&self, c: &QuantileCoordinator) -> Result<Vec<Answer>, QueryError> {
        Ok(quantile_answers(c))
    }
}

/// [`Protocol`] adapter: the §3.1 single-quantile tracker with
/// Greenwald–Khanna sites, for the [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct QuantileSketchedProtocol {
    config: QuantileConfig,
}

impl QuantileSketchedProtocol {
    /// Wrap a validated [`QuantileConfig`].
    pub fn new(config: QuantileConfig) -> Self {
        QuantileSketchedProtocol { config }
    }
}

impl Protocol for QuantileSketchedProtocol {
    type Site = SketchQuantileSite;
    type Up = QUp;
    type Down = QDown;
    type Coordinator = QuantileCoordinator;

    fn label(&self) -> &'static str {
        "quantile-sketched"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<SketchQuantileSite>, QuantileCoordinator), String> {
        let sites = (0..k)
            .map(|_| QuantileSite::sketched(self.config))
            .collect();
        Ok((sites, QuantileCoordinator::new(self.config)))
    }

    fn query(&self, c: &QuantileCoordinator, query: Query) -> Result<Answer, QueryError> {
        quantile_query(self.label(), c, query)
    }

    fn answers(&self, c: &QuantileCoordinator) -> Result<Vec<Answer>, QueryError> {
        Ok(quantile_answers(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn uniform_stream(n: u64, seed: u64, universe: u64) -> Vec<u64> {
        let mut st = seed;
        (0..n).map(|_| xorshift(&mut st) % universe).collect()
    }

    fn run_and_check_continuously(
        k: u32,
        epsilon: f64,
        phi: f64,
        stream: &[u64],
        check_every: usize,
    ) -> dtrack_sim::Cluster<ExactQuantileSite, QuantileCoordinator> {
        let config = QuantileConfig::new(k, epsilon, phi).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, &x) in stream.iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            if i % check_every == 0 {
                let q = cluster.coordinator().quantile().expect("nonempty");
                assert!(
                    oracle.quantile_ok(q, phi, epsilon),
                    "item {i}: {q} is not an ε-approx {phi}-quantile \
                     (rank {} of {})",
                    oracle.rank_lt(q),
                    oracle.total()
                );
            }
        }
        cluster
    }

    #[test]
    fn median_tracks_uniform_stream() {
        let stream = uniform_stream(30_000, 42, 1 << 40);
        run_and_check_continuously(4, 0.05, 0.5, &stream, 1);
    }

    #[test]
    fn extreme_quantiles_track() {
        let stream = uniform_stream(20_000, 7, 1 << 30);
        run_and_check_continuously(3, 0.1, 0.05, &stream, 7);
        run_and_check_continuously(3, 0.1, 0.95, &stream, 7);
    }

    #[test]
    fn sorted_ramp_forces_recenters_and_stays_correct() {
        // Ascending values constantly push the median right — the
        // recentering worst case.
        let stream: Vec<u64> = (0..25_000u64).map(|i| i * 3).collect();
        let cluster = run_and_check_continuously(4, 0.08, 0.5, &stream, 1);
        let stats = cluster.coordinator().stats();
        assert!(stats.recenters > 0, "ramp must force recenters");
    }

    #[test]
    fn duplicate_heavy_stream_stays_valid() {
        // Half the stream is a single value; rank intervals do the work.
        let mut stream = Vec::new();
        let mut st = 11u64;
        for i in 0..20_000u64 {
            stream.push(if i % 2 == 0 {
                1 << 20
            } else {
                xorshift(&mut st) % (1 << 30)
            });
        }
        run_and_check_continuously(4, 0.1, 0.5, &stream, 13);
    }

    #[test]
    fn cost_grows_logarithmically_in_n() {
        let config = QuantileConfig::median(4, 0.1).unwrap();
        let run = |n: u64| {
            let mut cluster = exact_cluster(config).unwrap();
            for (i, x) in uniform_stream(n, 3, 1 << 40).into_iter().enumerate() {
                cluster.feed(SiteId((i % 4) as u32), x).unwrap();
            }
            cluster.meter().total_words()
        };
        let w1 = run(20_000);
        let w2 = run(200_000);
        assert!(w2 < w1 * 4, "cost not logarithmic: {w1} -> {w2}");
        assert!(w2 > w1);
    }

    #[test]
    fn rounds_and_splits_bounded() {
        let config = QuantileConfig::median(4, 0.1).unwrap();
        let n = 100_000u64;
        let mut cluster = exact_cluster(config).unwrap();
        for (i, x) in uniform_stream(n, 9, 1 << 40).into_iter().enumerate() {
            cluster.feed(SiteId((i % 4) as u32), x).unwrap();
        }
        let stats = cluster.coordinator().stats();
        // O(log n) rounds.
        let max_rounds = ((n as f64) / 320.0).log2() + 3.0;
        assert!(
            (stats.rebuilds as f64) <= max_rounds,
            "{} rebuilds > {max_rounds}",
            stats.rebuilds
        );
        // O(1/ε) splits and recenters per round.
        let per_round = 4.0 / 0.1;
        assert!(
            (stats.splits as f64) <= (stats.rebuilds as f64 + 1.0) * per_round,
            "{} splits too many",
            stats.splits
        );
        // O(1) probes per recenter on average.
        if stats.recenters > 0 {
            assert!(
                stats.probes <= stats.recenters * 8,
                "{} probes for {} recenters",
                stats.probes,
                stats.recenters
            );
        }
    }

    #[test]
    fn sketched_sites_track_within_doubled_epsilon() {
        let k = 4;
        let epsilon = 0.1;
        let config = QuantileConfig::median(k, epsilon).unwrap();
        let mut cluster = sketched_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in uniform_stream(30_000, 21, 1 << 35).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            if i % 25 == 0 {
                let q = cluster.coordinator().quantile().expect("nonempty");
                assert!(
                    oracle.quantile_ok(q, 0.5, 2.0 * epsilon),
                    "item {i}: sketched quantile {q} outside 2ε"
                );
            }
        }
        // Space: GK store, not the full stream.
        for s in cluster.sites() {
            assert!(s.store().entries() < 7_500, "site store too large");
        }
    }

    #[test]
    fn n_estimate_is_close_underestimate() {
        let config = QuantileConfig::median(3, 0.1).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let n = 20_000u64;
        for (i, x) in uniform_stream(n, 5, 1 << 30).into_iter().enumerate() {
            cluster.feed(SiteId((i % 3) as u32), x).unwrap();
        }
        let est = cluster.coordinator().n_estimate();
        assert!(est <= n);
        assert!(
            est as f64 >= n as f64 * 0.9,
            "estimate {est} too low for {n}"
        );
    }

    #[test]
    fn config_validation() {
        assert!(QuantileConfig::new(1, 0.1, 0.5).is_err());
        assert!(QuantileConfig::new(4, 0.0, 0.5).is_err());
        assert!(QuantileConfig::new(4, 0.1, 1.5).is_err());
        let c = QuantileConfig::new(4, 0.1, 0.5)
            .unwrap()
            .with_granularity(99);
        assert_eq!(c.granularity, 7);
    }

    #[test]
    fn granularity_ablation_changes_structure() {
        let stream = uniform_stream(60_000, 17, 1 << 40);
        let run = |g: u32| {
            let config = QuantileConfig::median(4, 0.1).unwrap().with_granularity(g);
            let mut cluster = exact_cluster(config).unwrap();
            for (i, &x) in stream.iter().enumerate() {
                cluster.feed(SiteId((i % 4) as u32), x).unwrap();
            }
            (
                cluster.meter().total_words(),
                cluster.coordinator().separator_count(),
            )
        };
        let (_, seps_fine) = run(1);
        let (_, seps_coarse) = run(6);
        assert!(
            seps_fine > seps_coarse,
            "finer granularity must mean more separators: {seps_fine} vs {seps_coarse}"
        );
    }
}
