//! §5 open problem — tracking heavy hitters over a **sliding window**.
//!
//! The paper closes with: "Another possible direction is to design
//! algorithms to track the heavy hitters and quantiles within a sliding
//! window in the distributed streaming model." This module implements a
//! natural epoch-block protocol for the count-based window (the last `W`
//! arrivals across all sites):
//!
//! * Global time is divided into **epochs** of `E = ⌈εW/4⌉` arrivals. The
//!   coordinator detects epoch boundaries from a (1±εW/8)-accurate global
//!   count maintained exactly like the paper's counter building block
//!   (site threshold `εW/8k`), and broadcasts each boundary.
//! * Each site keeps one unreported counter per item (across epochs) and
//!   reports `(current_epoch, item, delta)` when it reaches `εW/8k` — the
//!   §2.1 trigger with thresholds fixed relative to `W` instead of the
//!   growing `n`.
//! * The coordinator keeps per-epoch tracked counts `C.m_x[e]` and answers
//!   window queries from the last `⌊W/E⌋` complete epochs; epochs that
//!   slide out of the window are dropped on both sides.
//!
//! Error budget per item: unreported in-window mass plus pre-window mass
//! misattributed into the window are each at most `k·(εW/8k)` (one pending
//! buffer per site), and approximating the window by whole epochs
//! misplaces at most `E + εW/8 ≈ 3εW/8` boundary items — under `3εW/4`
//! in total, so the tracked set is correct within a small constant times
//! ε (tests verify at 2ε). Communication is O(k/ε) words per `W` arrivals
//! (8k/ε item reports + 8k/ε count reports + (4/ε)·k boundary broadcasts),
//! the window analogue of the paper's O(k/ε) per doubling round.

use dtrack_hash::FxHashMap;

use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId, PROBE_PHIS,
};

use dtrack_wire::{put_u64, put_u8, DecodeError, WireMessage, WireReader};

use crate::common::{check_epsilon, check_phi, check_sites, CoreError};

/// Parameters of the sliding-window heavy-hitter tracker.
#[derive(Debug, Clone, Copy)]
pub struct WindowHhConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
    /// Window length W in items (counts arrivals across all sites).
    pub window: u64,
}

impl WindowHhConfig {
    /// Validated configuration. Requires `W >= 16k/ε` so every threshold
    /// is at least one item.
    pub fn new(k: u32, epsilon: f64, window: u64) -> Result<Self, CoreError> {
        check_sites(k)?;
        check_epsilon(epsilon)?;
        let min_w = (16.0 * k as f64 / epsilon).ceil() as u64;
        if window < min_w {
            // Below this, forwarding every item is both cheaper and exact.
            return Err(CoreError::BadEpsilon(epsilon));
        }
        Ok(WindowHhConfig { k, epsilon, window })
    }

    /// Epoch width `E = ⌈εW/4⌉`.
    pub fn epoch_len(&self) -> u64 {
        ((self.epsilon * self.window as f64 / 4.0).ceil() as u64).max(1)
    }

    /// Number of complete epochs covering the window.
    pub fn epochs_in_window(&self) -> u64 {
        (self.window / self.epoch_len()).max(1)
    }

    /// Per-site reporting threshold `εW/8k` (items and counts).
    fn site_threshold(&self) -> u64 {
        ((self.epsilon * self.window as f64 / (8.0 * self.k as f64)).floor() as u64).max(1)
    }
}

/// Upstream messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WUp {
    /// `delta` arrivals at this site since its last count report.
    CountDelta { delta: u64 },
    /// Item `item` gained `delta` occurrences in epoch `epoch` at this
    /// site.
    ItemDelta { epoch: u64, item: u64, delta: u64 },
}

impl MessageSize for WUp {
    fn size_words(&self) -> u64 {
        match self {
            WUp::CountDelta { .. } => 1,
            WUp::ItemDelta { .. } => 3,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            WUp::CountDelta { .. } => "whh/count",
            WUp::ItemDelta { .. } => "whh/item",
        }
    }
}

/// Downstream message: a new epoch has begun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewEpoch(pub u64);

impl MessageSize for NewEpoch {
    fn size_words(&self) -> u64 {
        2
    }
    fn kind(&self) -> &'static str {
        "whh/new-epoch"
    }
}

impl WireMessage for WUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            WUp::CountDelta { delta } => {
                put_u8(out, 0);
                put_u64(out, *delta);
            }
            WUp::ItemDelta { epoch, item, delta } => {
                put_u8(out, 1);
                put_u64(out, *epoch);
                put_u64(out, *item);
                put_u64(out, *delta);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(WUp::CountDelta { delta: r.u64()? }),
            1 => Ok(WUp::ItemDelta {
                epoch: r.u64()?,
                item: r.u64()?,
                delta: r.u64()?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "WUp",
                tag,
                offset,
            }),
        }
    }
}

impl WireMessage for NewEpoch {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(NewEpoch(r.u64()?))
    }
}

/// A sliding-window site.
#[derive(Debug, Clone)]
pub struct WindowHhSite {
    config: WindowHhConfig,
    epoch: u64,
    count_unrep: u64,
    /// Unreported per-item increments (carried across epochs; attributed
    /// to the epoch current at report time).
    unrep: FxHashMap<u64, u64>,
}

impl WindowHhSite {
    /// Fresh site.
    pub fn new(config: WindowHhConfig) -> Self {
        WindowHhSite {
            config,
            epoch: 0,
            count_unrep: 0,
            unrep: FxHashMap::default(),
        }
    }

    /// Number of live per-item slots (space usage).
    pub fn entries(&self) -> usize {
        self.unrep.len()
    }
}

impl Site for WindowHhSite {
    type Item = u64;
    type Up = WUp;
    type Down = NewEpoch;

    fn on_item(&mut self, item: u64, out: &mut Vec<WUp>) {
        let t = self.config.site_threshold();
        self.count_unrep += 1;
        if self.count_unrep >= t {
            out.push(WUp::CountDelta {
                delta: self.count_unrep,
            });
            self.count_unrep = 0;
        }
        let slot = self.unrep.entry(item).or_insert(0);
        *slot += 1;
        if *slot >= t {
            out.push(WUp::ItemDelta {
                epoch: self.epoch,
                item,
                delta: *slot,
            });
            *slot = 0;
        }
    }

    fn on_message(&mut self, msg: &NewEpoch, _out: &mut Vec<WUp>) {
        self.epoch = msg.0;
        // Pending sub-threshold mass carries over (it will be attributed
        // to the epoch current at report time; the misattribution is
        // bounded by one threshold per site per item). Drop exhausted
        // slots to keep the map tidy.
        self.unrep.retain(|_, v| *v > 0);
    }
}

/// The sliding-window coordinator.
#[derive(Debug, Clone)]
pub struct WindowHhCoordinator {
    config: WindowHhConfig,
    /// Total arrivals reported (within εW/8 of the truth).
    count: u64,
    epoch: u64,
    /// Arrivals counted at the start of the current epoch.
    epoch_started_at: u64,
    /// Per-epoch tracked frequencies, keyed by epoch id.
    per_epoch: FxHashMap<u64, FxHashMap<u64, u64>>,
    /// Per-epoch tracked arrival totals.
    epoch_totals: FxHashMap<u64, u64>,
    epochs_bumped: u64,
}

impl WindowHhCoordinator {
    /// Fresh coordinator.
    pub fn new(config: WindowHhConfig) -> Self {
        WindowHhCoordinator {
            config,
            count: 0,
            epoch: 0,
            epoch_started_at: 0,
            per_epoch: FxHashMap::default(),
            epoch_totals: FxHashMap::default(),
            epochs_bumped: 0,
        }
    }

    /// Epochs currently retained (live window plus the in-progress one).
    pub fn live_epochs(&self) -> usize {
        self.per_epoch.len()
    }

    /// Number of epoch boundaries broadcast so far.
    pub fn epochs_bumped(&self) -> u64 {
        self.epochs_bumped
    }

    /// Epoch ids inside the tracked window (the last `epochs_in_window`
    /// *complete* epochs, plus the in-progress epoch).
    fn window_epochs(&self) -> impl Iterator<Item = u64> + '_ {
        let lw = self.config.epochs_in_window();
        let lo = (self.epoch + 1).saturating_sub(lw);
        lo..=self.epoch
    }

    /// Tracked window size (sum of tracked epoch totals in the window).
    pub fn window_estimate(&self) -> u64 {
        self.window_epochs()
            .map(|e| self.epoch_totals.get(&e).copied().unwrap_or(0))
            .sum()
    }

    /// Tracked frequency of `x` within the window.
    pub fn frequency(&self, x: u64) -> u64 {
        self.window_epochs()
            .map(|e| {
                self.per_epoch
                    .get(&e)
                    .and_then(|m| m.get(&x))
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// The tracked φ-heavy hitters of the window, sorted
    /// (rule: tracked ratio ≥ φ − ε/2, as in §2.1).
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<u64>, CoreError> {
        check_phi(phi)?;
        let w = self.window_estimate();
        if w == 0 {
            return Ok(Vec::new());
        }
        let mut totals: FxHashMap<u64, u64> = FxHashMap::default();
        for e in self.window_epochs() {
            if let Some(m) = self.per_epoch.get(&e) {
                for (&x, &c) in m {
                    *totals.entry(x).or_insert(0) += c;
                }
            }
        }
        let thresh = (phi - self.config.epsilon / 2.0) * w as f64;
        let mut out: Vec<u64> = totals
            .into_iter()
            .filter(|&(_, c)| c as f64 >= thresh)
            .map(|(x, _)| x)
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

impl Coordinator for WindowHhCoordinator {
    type Up = WUp;
    type Down = NewEpoch;

    fn on_message(&mut self, _from: SiteId, msg: WUp, out: &mut Outbox<NewEpoch>) {
        match msg {
            WUp::CountDelta { delta } => {
                self.count += delta;
                *self.epoch_totals.entry(self.epoch).or_insert(0) += delta;
                if self.count - self.epoch_started_at >= self.config.epoch_len() {
                    self.epoch += 1;
                    self.epochs_bumped += 1;
                    self.epoch_started_at = self.count;
                    out.broadcast(NewEpoch(self.epoch));
                    // Expire epochs that left the window.
                    let keep_from =
                        (self.epoch + 1).saturating_sub(self.config.epochs_in_window() + 1);
                    self.per_epoch.retain(|&e, _| e >= keep_from);
                    self.epoch_totals.retain(|&e, _| e >= keep_from);
                }
            }
            WUp::ItemDelta { epoch, item, delta } => {
                // Reports for expired epochs are dropped (their epoch has
                // left the window anyway).
                let keep_from = (self.epoch + 1).saturating_sub(self.config.epochs_in_window() + 1);
                if epoch >= keep_from {
                    *self
                        .per_epoch
                        .entry(epoch)
                        .or_default()
                        .entry(item)
                        .or_insert(0) += delta;
                }
            }
        }
    }
}

/// Convenience: build a full sliding-window cluster.
pub fn window_cluster(
    config: WindowHhConfig,
) -> Result<dtrack_sim::Cluster<WindowHhSite, WindowHhCoordinator>, CoreError> {
    let sites = (0..config.k).map(|_| WindowHhSite::new(config)).collect();
    dtrack_sim::Cluster::new(sites, WindowHhCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// [`Protocol`] adapter: the §5 sliding-window heavy-hitter tracker for
/// the [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct WindowHhProtocol {
    config: WindowHhConfig,
}

impl WindowHhProtocol {
    /// Wrap a validated [`WindowHhConfig`].
    pub fn new(config: WindowHhConfig) -> Self {
        WindowHhProtocol { config }
    }
}

impl Protocol for WindowHhProtocol {
    type Site = WindowHhSite;
    type Up = WUp;
    type Down = NewEpoch;
    type Coordinator = WindowHhCoordinator;

    fn label(&self) -> &'static str {
        "window-hh"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<WindowHhSite>, WindowHhCoordinator), String> {
        let sites = (0..k).map(|_| WindowHhSite::new(self.config)).collect();
        Ok((sites, WindowHhCoordinator::new(self.config)))
    }

    fn query(&self, c: &WindowHhCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Count => Ok(Answer::LengthEstimate(c.window_estimate())),
            Query::HeavyHitters { phi } => {
                let mut items = c
                    .heavy_hitters(phi)
                    .map_err(|e| QueryError::Protocol(e.to_string()))?;
                items.sort_unstable();
                Ok(Answer::HeavyHitters { phi, items })
            }
            Query::Frequency { x } => Ok(Answer::Frequency {
                x,
                count: c.frequency(x),
            }),
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &WindowHhCoordinator) -> Result<Vec<Answer>, QueryError> {
        Ok(vec![Answer::LengthEstimate(c.window_estimate())])
    }
}

/// Exact sliding-window oracle for tests and experiments.
#[derive(Debug, Clone)]
pub struct WindowOracle {
    window: u64,
    items: std::collections::VecDeque<u64>,
    freq: FxHashMap<u64, u64>,
}

impl WindowOracle {
    /// Oracle over the last `window` items.
    pub fn new(window: u64) -> Self {
        WindowOracle {
            window,
            items: std::collections::VecDeque::new(),
            freq: FxHashMap::default(),
        }
    }

    /// Record an arrival (expiring the oldest item when full).
    pub fn observe(&mut self, x: u64) {
        self.items.push_back(x);
        *self.freq.entry(x).or_insert(0) += 1;
        if self.items.len() as u64 > self.window {
            let old = self.items.pop_front().expect("nonempty");
            let c = self.freq.get_mut(&old).expect("tracked");
            *c -= 1;
            if *c == 0 {
                self.freq.remove(&old);
            }
        }
    }

    /// Current window size (≤ W).
    pub fn len(&self) -> u64 {
        self.items.len() as u64
    }

    /// True when no items are in the window.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Exact frequency of `x` in the window.
    pub fn frequency(&self, x: u64) -> u64 {
        self.freq.get(&x).copied().unwrap_or(0)
    }

    /// Exact φ-heavy hitters of the window, sorted.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<u64> {
        let thresh = phi * self.len() as f64;
        let mut out: Vec<u64> = self
            .freq
            .iter()
            .filter(|&(_, &c)| c as f64 >= thresh)
            .map(|(&x, _)| x)
            .collect();
        out.sort_unstable();
        out
    }

    /// First violation of the ε-window guarantee in `reported`, if any.
    pub fn check(&self, reported: &[u64], phi: f64, epsilon: f64) -> Option<String> {
        let w = self.len() as f64;
        for &x in reported {
            if (self.frequency(x) as f64) < (phi - epsilon) * w {
                return Some(format!(
                    "false positive {x}: window freq {} < (φ−ε)W = {}",
                    self.frequency(x),
                    (phi - epsilon) * w
                ));
            }
        }
        for x in self.heavy_hitters(phi + epsilon) {
            if !reported.contains(&x) {
                return Some(format!(
                    "false negative {x}: window freq {} >= (φ+ε)W",
                    self.frequency(x)
                ));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Sliding-window quantiles
// ---------------------------------------------------------------------

use dtrack_sketch::{EquiDepthSummary, ExactOrdered, MergedSummary};

/// Upstream messages of the window-quantile protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WqUp {
    /// `delta` arrivals at this site since its last count report.
    CountDelta { delta: u64 },
    /// Equi-depth summary of the items this site received during the
    /// epoch that just closed.
    EpochSummary {
        epoch: u64,
        summary: EquiDepthSummary,
    },
}

impl MessageSize for WqUp {
    fn size_words(&self) -> u64 {
        match self {
            WqUp::CountDelta { .. } => 1,
            WqUp::EpochSummary { summary, .. } => summary.wire_words() + 1,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            WqUp::CountDelta { .. } => "wq/count",
            WqUp::EpochSummary { .. } => "wq/epoch-summary",
        }
    }
}

impl WireMessage for WqUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            WqUp::CountDelta { delta } => {
                put_u8(out, 0);
                put_u64(out, *delta);
            }
            WqUp::EpochSummary { epoch, summary } => {
                put_u8(out, 1);
                put_u64(out, *epoch);
                summary.wire_encode(out);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(WqUp::CountDelta { delta: r.u64()? }),
            1 => Ok(WqUp::EpochSummary {
                epoch: r.u64()?,
                summary: EquiDepthSummary::wire_decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "WqUp",
                tag,
                offset,
            }),
        }
    }
}

/// A sliding-window quantile site: buffers only the current epoch's items
/// and ships an equi-depth summary of them when the epoch closes.
///
/// Per-site space is O(E) = O(εW/4) for the buffer; the summary step is
/// chosen so the merged window rank error is at most εW/4. Communication
/// per window span W: L = 4/ε epoch closures, each shipping k summaries
/// totalling O(1/ε) words — O((k + 1/ε)/ε) words per window.
#[derive(Debug, Clone)]
pub struct WindowQuantileSite {
    config: WindowHhConfig,
    epoch: u64,
    count_unrep: u64,
    buffer: ExactOrdered,
}

impl WindowQuantileSite {
    /// Fresh site.
    pub fn new(config: WindowHhConfig) -> Self {
        WindowQuantileSite {
            config,
            epoch: 0,
            count_unrep: 0,
            buffer: ExactOrdered::new(),
        }
    }
}

impl Site for WindowQuantileSite {
    type Item = u64;
    type Up = WqUp;
    type Down = NewEpoch;

    fn on_item(&mut self, item: u64, out: &mut Vec<WqUp>) {
        self.buffer.insert(item);
        self.count_unrep += 1;
        if self.count_unrep >= self.config.site_threshold() {
            out.push(WqUp::CountDelta {
                delta: self.count_unrep,
            });
            self.count_unrep = 0;
        }
    }

    fn on_message(&mut self, msg: &NewEpoch, out: &mut Vec<WqUp>) {
        // Ship the closing epoch's summary. Step: the merged error over
        // L epochs and k sites must stay below εW/4, so each summary
        // contributes at most ε/4 · W/(L·k) = ε²W/(16k) rank error.
        let local = self.buffer.len();
        if local > 0 {
            let step = ((self.config.epsilon * self.config.epsilon * self.config.window as f64
                / (16.0 * self.config.k as f64))
                .floor() as u64)
                .max(1);
            let summary = EquiDepthSummary::from_sorted_counts(self.buffer.iter(), local, step);
            out.push(WqUp::EpochSummary {
                epoch: self.epoch,
                summary,
            });
        }
        self.buffer = ExactOrdered::new();
        self.epoch = msg.0;
    }
}

/// The sliding-window quantile coordinator: merged per-epoch summaries of
/// the last ⌊W/E⌋ epochs.
#[derive(Debug, Clone)]
pub struct WindowQuantileCoordinator {
    config: WindowHhConfig,
    count: u64,
    epoch: u64,
    epoch_started_at: u64,
    /// Per-epoch summaries, keyed by epoch id.
    summaries: FxHashMap<u64, Vec<EquiDepthSummary>>,
}

impl WindowQuantileCoordinator {
    /// Fresh coordinator.
    pub fn new(config: WindowHhConfig) -> Self {
        WindowQuantileCoordinator {
            config,
            count: 0,
            epoch: 0,
            epoch_started_at: 0,
            summaries: FxHashMap::default(),
        }
    }

    fn merged(&self) -> MergedSummary {
        let lw = self.config.epochs_in_window();
        let lo = (self.epoch + 1).saturating_sub(lw);
        let parts: Vec<EquiDepthSummary> = (lo..=self.epoch)
            .filter_map(|e| self.summaries.get(&e))
            .flatten()
            .cloned()
            .collect();
        MergedSummary::new(parts)
    }

    /// Tracked window size (items covered by retained summaries).
    pub fn window_estimate(&self) -> u64 {
        self.merged().total()
    }

    /// An ε-approximate φ-quantile of the window. `None` until the first
    /// epoch has closed.
    pub fn quantile(&self, phi: f64) -> Result<Option<u64>, CoreError> {
        check_phi(phi)?;
        let m = self.merged();
        let n = m.total();
        if n == 0 {
            return Ok(None);
        }
        Ok(m.select((phi * n as f64).round() as u64))
    }

    /// Estimate of the window `rank_lt(x)`.
    pub fn rank_lt(&self, x: u64) -> u64 {
        self.merged().rank_estimate(x)
    }
}

impl Coordinator for WindowQuantileCoordinator {
    type Up = WqUp;
    type Down = NewEpoch;

    fn on_message(&mut self, _from: SiteId, msg: WqUp, out: &mut Outbox<NewEpoch>) {
        match msg {
            WqUp::CountDelta { delta } => {
                self.count += delta;
                if self.count - self.epoch_started_at >= self.config.epoch_len() {
                    self.epoch += 1;
                    self.epoch_started_at = self.count;
                    out.broadcast(NewEpoch(self.epoch));
                    let keep_from =
                        (self.epoch + 1).saturating_sub(self.config.epochs_in_window() + 1);
                    self.summaries.retain(|&e, _| e >= keep_from);
                }
            }
            WqUp::EpochSummary { epoch, summary } => {
                let keep_from = (self.epoch + 1).saturating_sub(self.config.epochs_in_window() + 1);
                if epoch >= keep_from {
                    self.summaries.entry(epoch).or_default().push(summary);
                }
            }
        }
    }
}

/// Convenience: build a full sliding-window quantile cluster.
pub fn window_quantile_cluster(
    config: WindowHhConfig,
) -> Result<dtrack_sim::Cluster<WindowQuantileSite, WindowQuantileCoordinator>, CoreError> {
    let sites = (0..config.k)
        .map(|_| WindowQuantileSite::new(config))
        .collect();
    dtrack_sim::Cluster::new(sites, WindowQuantileCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// [`Protocol`] adapter: the §5 sliding-window quantile tracker for the
/// [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct WindowQuantileProtocol {
    config: WindowHhConfig,
}

impl WindowQuantileProtocol {
    /// Wrap a validated [`WindowHhConfig`].
    pub fn new(config: WindowHhConfig) -> Self {
        WindowQuantileProtocol { config }
    }
}

impl Protocol for WindowQuantileProtocol {
    type Site = WindowQuantileSite;
    type Up = WqUp;
    type Down = NewEpoch;
    type Coordinator = WindowQuantileCoordinator;

    fn label(&self) -> &'static str {
        "window-quantile"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(
        &self,
        k: u32,
    ) -> Result<(Vec<WindowQuantileSite>, WindowQuantileCoordinator), String> {
        let sites = (0..k)
            .map(|_| WindowQuantileSite::new(self.config))
            .collect();
        Ok((sites, WindowQuantileCoordinator::new(self.config)))
    }

    fn query(&self, c: &WindowQuantileCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Count => Ok(Answer::LengthEstimate(c.window_estimate())),
            Query::Quantile { phi } => {
                let value = c
                    .quantile(phi)
                    .map_err(|e| QueryError::Protocol(e.to_string()))?;
                Ok(Answer::QuantileAt { phi, value })
            }
            Query::RankLt { x } => Ok(Answer::RankLt {
                x,
                rank: c.rank_lt(x),
            }),
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &WindowQuantileCoordinator) -> Result<Vec<Answer>, QueryError> {
        let mut out = vec![Answer::LengthEstimate(c.window_estimate())];
        for phi in PROBE_PHIS {
            let value = c
                .quantile(phi)
                .map_err(|e| QueryError::Protocol(e.to_string()))?;
            out.push(Answer::QuantileAt { phi, value });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn oracle_slides() {
        let mut o = WindowOracle::new(3);
        for x in [1u64, 1, 2, 3] {
            o.observe(x);
        }
        // Window is [1, 2, 3].
        assert_eq!(o.len(), 3);
        assert_eq!(o.frequency(1), 1);
        assert_eq!(o.frequency(2), 1);
        o.observe(4); // window [2, 3, 4]
        assert_eq!(o.frequency(1), 0);
    }

    #[test]
    fn window_tracker_follows_a_departing_heavy_hitter() {
        // Item 7 dominates the first half of the stream, then vanishes;
        // once the window slides past, it must stop being reported.
        let k = 4;
        let epsilon = 0.1;
        let w = 20_000u64;
        let phi = 0.3;
        let config = WindowHhConfig::new(k, epsilon, w).unwrap();
        let mut cluster = window_cluster(config).unwrap();
        let mut oracle = WindowOracle::new(w);
        let mut st = 5u64;
        let n = 100_000u64;
        let mut reported_late = false;
        for i in 0..n {
            let x = if i < n / 2 && i % 2 == 0 {
                7
            } else {
                1000 + xorshift(&mut st) % 50_000
            };
            oracle.observe(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
            if i % 1000 == 999 {
                let hh = cluster.coordinator().heavy_hitters(phi).unwrap();
                if let Some(v) = oracle.check(&hh, phi, 2.0 * epsilon) {
                    panic!("item {i}: {v}");
                }
                if i > n / 2 + 2 * w {
                    reported_late |= hh.contains(&7);
                }
            }
        }
        assert!(
            !reported_late,
            "item 7 was still reported long after leaving the window"
        );
    }

    #[test]
    fn window_correctness_on_uniform_churn() {
        let k = 3;
        let epsilon = 0.1;
        let w = 15_000u64;
        let phi = 0.2;
        let config = WindowHhConfig::new(k, epsilon, w).unwrap();
        let mut cluster = window_cluster(config).unwrap();
        let mut oracle = WindowOracle::new(w);
        let mut st = 9u64;
        for i in 0..80_000u64 {
            // A rotating heavy item: id changes every 10k arrivals.
            let hot = 10 + i / 10_000;
            let x = if i % 3 == 0 {
                hot
            } else {
                1 << (20 + (xorshift(&mut st) % 20))
            };
            oracle.observe(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
            if i % 777 == 0 && i > w {
                let hh = cluster.coordinator().heavy_hitters(phi).unwrap();
                if let Some(v) = oracle.check(&hh, phi, 2.0 * epsilon) {
                    panic!("item {i}: {v}");
                }
            }
        }
    }

    #[test]
    fn communication_is_linear_in_stream_over_window() {
        // Cost should be ~O(k/ε) words per W arrivals: doubling the
        // stream doubles the words, unlike the log-growth of the infinite
        // -window protocol.
        let k = 4;
        let epsilon = 0.1;
        let w = 20_000u64;
        let run = |n: u64| {
            let config = WindowHhConfig::new(k, epsilon, w).unwrap();
            let mut cluster = window_cluster(config).unwrap();
            let mut st = 3u64;
            for i in 0..n {
                cluster
                    .feed(SiteId((i % k as u64) as u32), xorshift(&mut st) % 1000)
                    .unwrap();
            }
            cluster.meter().total_words()
        };
        let w1 = run(100_000);
        let w2 = run(200_000);
        let ratio = w2 as f64 / w1 as f64;
        assert!(
            (1.6..2.4).contains(&ratio),
            "expected ~2x words for 2x stream, got {ratio}"
        );
        // And the per-window cost is O(k/ε)-ish.
        let per_window = w1 as f64 / (100_000.0 / w as f64);
        let unit = k as f64 / epsilon;
        assert!(
            per_window < unit * 40.0,
            "per-window cost {per_window} >> k/eps = {unit}"
        );
    }

    #[test]
    fn memory_is_bounded_by_window() {
        let k = 3;
        let epsilon = 0.2;
        let w = 10_000u64;
        let config = WindowHhConfig::new(k, epsilon, w).unwrap();
        let mut cluster = window_cluster(config).unwrap();
        let mut st = 7u64;
        for i in 0..100_000u64 {
            cluster
                .feed(SiteId((i % k as u64) as u32), xorshift(&mut st))
                .unwrap();
        }
        // Coordinator keeps only the window's worth of epochs.
        let max_epochs = config.epochs_in_window() as usize + 2;
        assert!(
            cluster.coordinator().live_epochs() <= max_epochs,
            "{} live epochs > {max_epochs}",
            cluster.coordinator().live_epochs()
        );
    }

    #[test]
    fn config_validation() {
        assert!(WindowHhConfig::new(1, 0.1, 100_000).is_err());
        assert!(
            WindowHhConfig::new(4, 0.1, 100).is_err(),
            "window too small"
        );
        let c = WindowHhConfig::new(4, 0.1, 100_000).unwrap();
        assert_eq!(c.epoch_len(), 2500);
        assert_eq!(c.epochs_in_window(), 40);
    }

    #[test]
    fn window_quantiles_follow_a_distribution_shift() {
        // First W items come from a low band, then a high band; once the
        // window slides past the boundary, every quantile must move to
        // the new band.
        let k = 4;
        let epsilon = 0.1;
        let w = 20_000u64;
        let config = WindowHhConfig::new(k, epsilon, w).unwrap();
        let mut cluster = window_quantile_cluster(config).unwrap();
        let mut st = 3u64;
        let n = 120_000u64;
        let band = 1u64 << 30;
        // Track a local window oracle of raw values for rank checks.
        let mut oracle_items: std::collections::VecDeque<u64> = Default::default();
        for i in 0..n {
            let x = if i < n / 2 {
                xorshift(&mut st) % band
            } else {
                band + xorshift(&mut st) % band
            };
            oracle_items.push_back(x);
            if oracle_items.len() as u64 > w {
                oracle_items.pop_front();
            }
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
            if i % 4001 == 0 && i > w {
                let mut sorted: Vec<u64> = oracle_items.iter().copied().collect();
                sorted.sort_unstable();
                let wn = sorted.len() as u64;
                for phi in [0.25f64, 0.5, 0.75] {
                    let q = cluster
                        .coordinator()
                        .quantile(phi)
                        .unwrap()
                        .expect("nonempty");
                    let r_lo = sorted.partition_point(|&y| y < q) as u64;
                    let r_hi = sorted.partition_point(|&y| y <= q) as u64;
                    let target = phi * wn as f64;
                    let dist = if target < r_lo as f64 {
                        r_lo as f64 - target
                    } else if target > r_hi as f64 {
                        target - r_hi as f64
                    } else {
                        0.0
                    };
                    assert!(
                        dist <= 2.0 * epsilon * wn as f64,
                        "item {i}, phi {phi}: quantile {q} off by {dist} ranks"
                    );
                }
            }
        }
        // Late in the run the median must live in the high band.
        let med = cluster.coordinator().quantile(0.5).unwrap().unwrap();
        assert!(med >= band, "median {med} did not follow the shift");
    }

    #[test]
    fn window_quantile_cost_linear_in_stream() {
        let k = 4;
        let epsilon = 0.1;
        let w = 20_000u64;
        let run = |n: u64| {
            let config = WindowHhConfig::new(k, epsilon, w).unwrap();
            let mut cluster = window_quantile_cluster(config).unwrap();
            let mut st = 11u64;
            for i in 0..n {
                cluster
                    .feed(SiteId((i % k as u64) as u32), xorshift(&mut st))
                    .unwrap();
            }
            cluster.meter().total_words()
        };
        let w1 = run(100_000);
        let w2 = run(200_000);
        let ratio = w2 as f64 / w1 as f64;
        assert!(
            (1.6..2.4).contains(&ratio),
            "expected ~2x words for 2x stream, got {ratio}"
        );
    }

    #[test]
    fn window_quantile_memory_bounded() {
        let k = 3;
        let epsilon = 0.2;
        let w = 12_000u64;
        let config = WindowHhConfig::new(k, epsilon, w).unwrap();
        let mut cluster = window_quantile_cluster(config).unwrap();
        let mut st = 5u64;
        for i in 0..60_000u64 {
            cluster
                .feed(SiteId((i % k as u64) as u32), xorshift(&mut st))
                .unwrap();
        }
        // The coordinator retains at most a window's worth of summaries.
        let max_epochs = config.epochs_in_window() + 2;
        assert!(cluster.coordinator().summaries.len() as u64 <= max_epochs);
        // The tracked window size approximates W.
        let est = cluster.coordinator().window_estimate();
        assert!(
            est as f64 > 0.7 * w as f64 && est <= w + config.epoch_len(),
            "window estimate {est} vs W = {w}"
        );
    }
}
