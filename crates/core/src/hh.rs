//! §2.1 — Tracking the heavy hitters with O(k/ε · log n) communication
//! (Theorem 2.1).
//!
//! ## Protocol
//!
//! Let `m` be the current size of A and `S_j.m` each site's copy of the
//! last synchronized global count.
//!
//! * **Site `S_j`**: on each arrival, increments `Δ(m)` and the arriving
//!   item's `Δ(m_x)`. When either reaches the threshold
//!   `t_j = ε·S_j.m / 3k`, the site sends `(all, t_j)` resp. `(x, t_j)`
//!   and resets the counter.
//! * **Coordinator**: accumulates the increments into `C.m` and `C.m_x`.
//!   After receiving `k` `all`-signals, it polls every site for its exact
//!   local count, sets `C.m` to the exact total, and broadcasts it; sites
//!   adopt the new `S_j.m` and reset `Δ(m)`.
//! * **Classification** (paper's rule (1)): report `x` as a φ-heavy hitter
//!   iff `C.m_x / C.m >= φ + ε/2`. Note φ enters *only* here — a single
//!   tracker answers heavy-hitter queries for every φ ≥ ε.
//!
//! The protocol maintains the paper's invariants
//!
//! ```text
//! (2)  m_x − εm/3 <= C.m_x <= m_x
//! (3)  m  − εm/3 <= C.m  <= m
//! ```
//!
//! which make rule (1) free of false positives below `(φ−ε)|A|` and false
//! negatives at or above `φ|A|`.
//!
//! Before the stream reaches `k/ε` items, every arrival is simply forwarded
//! (the paper's warm-up assumption); tracking begins once the coordinator
//! has seen `⌈k/ε⌉` items.
//!
//! ## Small space
//!
//! The site is generic over its [`FreqStore`]. With [`ExactFreqStore`] it
//! is the paper's main protocol; with [`SketchFreqStore`] (SpaceSaving,
//! capacity Θ(1/ε)) it is the "Implementing with small space" variant:
//! O(1/ε) words per site, with the sketch error folded into the
//! classification slack (use `ε_sketch = ε/6`, see DESIGN.md).

use dtrack_hash::{FxHashMap, FxHashSet};
use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId,
    HH_PROBE_PHIS,
};
use dtrack_sketch::store::{ExactFreqStore, SketchFreqStore};
use dtrack_sketch::FreqStore;
use dtrack_wire::{put_u64, put_u8, DecodeError, WireMessage, WireReader};

use crate::common::{check_epsilon, check_phi, check_sites, CoreError, KCollector};

/// Parameters of the heavy-hitter protocol.
#[derive(Debug, Clone, Copy)]
pub struct HhConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
    /// Number of `all`-signals that trigger a global re-sync. The paper
    /// uses exactly `k`; experiment E15 ablates this.
    pub resync_after: u32,
    /// Stream size at which tracking starts (items before that are
    /// forwarded verbatim). The paper assumes `k/ε`.
    pub warmup_target: u64,
}

impl HhConfig {
    /// Standard configuration from the paper: re-sync after `k` signals,
    /// warm up for `⌈k/ε⌉` items.
    pub fn new(k: u32, epsilon: f64) -> Result<Self, CoreError> {
        check_sites(k)?;
        check_epsilon(epsilon)?;
        Ok(HhConfig {
            k,
            epsilon,
            resync_after: k,
            warmup_target: (k as f64 / epsilon).ceil() as u64,
        })
    }

    /// Override the re-sync trigger (ablation experiments).
    pub fn with_resync_after(mut self, resync_after: u32) -> Self {
        self.resync_after = resync_after.max(1);
        self
    }

    /// Override the warm-up length.
    pub fn with_warmup_target(mut self, warmup_target: u64) -> Self {
        self.warmup_target = warmup_target.max(1);
        self
    }
}

/// Upstream messages (site → coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HhUp {
    /// Warm-up: forward the raw item.
    Raw { item: u64 },
    /// `(all, delta)` — the site's total count grew by `delta`.
    AllSignal { delta: u64 },
    /// `(x, delta)` — item `x`'s local count grew by `delta`.
    ItemSignal { item: u64, delta: u64 },
    /// Reply to a re-sync poll: the exact local count.
    CountReply { local: u64 },
}

impl MessageSize for HhUp {
    fn size_words(&self) -> u64 {
        match self {
            HhUp::Raw { .. } => 2,
            HhUp::AllSignal { .. } => 2,
            HhUp::ItemSignal { .. } => 3,
            HhUp::CountReply { .. } => 2,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            HhUp::Raw { .. } => "hh/raw",
            HhUp::AllSignal { .. } => "hh/all",
            HhUp::ItemSignal { .. } => "hh/item",
            HhUp::CountReply { .. } => "hh/count-reply",
        }
    }
}

/// Downstream messages (coordinator → site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HhDown {
    /// Warm-up over; adopt `m` as `S_j.m` and start tracking.
    Start { m: u64 },
    /// Request the exact local count.
    SyncPoll,
    /// New synchronized global count.
    NewCount { m: u64 },
}

impl MessageSize for HhDown {
    fn size_words(&self) -> u64 {
        match self {
            HhDown::Start { .. } => 2,
            HhDown::SyncPoll => 1,
            HhDown::NewCount { .. } => 2,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            HhDown::Start { .. } => "hh/start",
            HhDown::SyncPoll => "hh/sync-poll",
            HhDown::NewCount { .. } => "hh/new-count",
        }
    }
}

impl WireMessage for HhUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            HhUp::Raw { item } => {
                put_u8(out, 0);
                put_u64(out, *item);
            }
            HhUp::AllSignal { delta } => {
                put_u8(out, 1);
                put_u64(out, *delta);
            }
            HhUp::ItemSignal { item, delta } => {
                put_u8(out, 2);
                put_u64(out, *item);
                put_u64(out, *delta);
            }
            HhUp::CountReply { local } => {
                put_u8(out, 3);
                put_u64(out, *local);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(HhUp::Raw { item: r.u64()? }),
            1 => Ok(HhUp::AllSignal { delta: r.u64()? }),
            2 => Ok(HhUp::ItemSignal {
                item: r.u64()?,
                delta: r.u64()?,
            }),
            3 => Ok(HhUp::CountReply { local: r.u64()? }),
            tag => Err(DecodeError::BadTag {
                context: "HhUp",
                tag,
                offset,
            }),
        }
    }
}

impl WireMessage for HhDown {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            HhDown::Start { m } => {
                put_u8(out, 0);
                put_u64(out, *m);
            }
            HhDown::SyncPoll => put_u8(out, 1),
            HhDown::NewCount { m } => {
                put_u8(out, 2);
                put_u64(out, *m);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(HhDown::Start { m: r.u64()? }),
            1 => Ok(HhDown::SyncPoll),
            2 => Ok(HhDown::NewCount { m: r.u64()? }),
            tag => Err(DecodeError::BadTag {
                context: "HhDown",
                tag,
                offset,
            }),
        }
    }
}

/// A heavy-hitter tracking site, generic over its local frequency store.
#[derive(Debug, Clone)]
pub struct HhSite<F = ExactFreqStore> {
    config: HhConfig,
    store: F,
    /// `S_j.m`: last synchronized global count; 0 means warm-up.
    sm: u64,
    /// `Δ(m)`: local arrivals since the last `all`-signal or sync.
    delta_m: u64,
}

/// The exact-store site of the paper's main exposition.
pub type ExactHhSite = HhSite<ExactFreqStore>;
/// The O(1/ε)-space SpaceSaving-backed site.
pub type SketchHhSite = HhSite<SketchFreqStore>;

impl HhSite<ExactFreqStore> {
    /// Site with exact local frequencies.
    pub fn exact(config: HhConfig) -> Self {
        HhSite::with_store(config, ExactFreqStore::new())
    }
}

impl HhSite<SketchFreqStore> {
    /// Site with a SpaceSaving store of error `ε/6` (Θ(1/ε) counters),
    /// per the "Implementing with small space" paragraph.
    pub fn sketched(config: HhConfig) -> Self {
        let store = SketchFreqStore::with_epsilon(config.epsilon / 6.0);
        HhSite::with_store(config, store)
    }
}

impl<F: FreqStore> HhSite<F> {
    /// Site with a caller-provided store.
    pub fn with_store(config: HhConfig, store: F) -> Self {
        HhSite {
            config,
            store,
            sm: 0,
            delta_m: 0,
        }
    }

    /// The trigger threshold `t_j = max(1, ⌊ε·S_j.m / 3k⌋)`.
    pub fn threshold(&self) -> u64 {
        let t = (self.config.epsilon * self.sm as f64 / (3.0 * self.config.k as f64)).floor();
        (t as u64).max(1)
    }

    /// How many consecutive arrivals of `x` at this site would trigger the
    /// next message. This is the trigger-threshold introspection the
    /// Lemma 2.3 adversary is entitled to (deterministic protocols hide
    /// nothing from an adversary that knows the algorithm and the input).
    pub fn remaining_until_message(&self, x: u64) -> u64 {
        if self.sm == 0 {
            return 1; // warm-up forwards every arrival
        }
        let t = self.threshold();
        let by_all = t.saturating_sub(self.delta_m);
        let by_item = t.saturating_sub(self.store.unreported(x));
        by_all.min(by_item).max(1)
    }

    /// The local store (oracle access).
    pub fn store(&self) -> &F {
        &self.store
    }

    /// Exact number of items received at this site.
    pub fn local_count(&self) -> u64 {
        self.store.total()
    }
}

impl<F: FreqStore> Site for HhSite<F> {
    type Item = u64;
    type Up = HhUp;
    type Down = HhDown;

    fn on_item(&mut self, item: u64, out: &mut Vec<HhUp>) {
        let unreported = self.store.observe(item);
        if self.sm == 0 {
            // Warm-up: forward and keep nothing unreported.
            self.store.mark_reported(item, unreported);
            out.push(HhUp::Raw { item });
            return;
        }
        self.delta_m += 1;
        let t = self.threshold();
        if self.delta_m >= t {
            out.push(HhUp::AllSignal {
                delta: self.delta_m,
            });
            self.delta_m = 0;
        }
        if unreported >= t {
            out.push(HhUp::ItemSignal {
                item,
                delta: unreported,
            });
            self.store.mark_reported(item, unreported);
        }
    }

    fn on_message(&mut self, msg: &HhDown, out: &mut Vec<HhUp>) {
        match *msg {
            HhDown::Start { m } | HhDown::NewCount { m } => {
                self.sm = m;
                self.delta_m = 0;
            }
            HhDown::SyncPoll => out.push(HhUp::CountReply {
                local: self.store.total(),
            }),
        }
    }
}

/// Tracking phase of the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Tracking,
}

/// The heavy-hitter coordinator.
#[derive(Debug, Clone)]
pub struct HhCoordinator {
    config: HhConfig,
    phase: Phase,
    /// `C.m`.
    m: u64,
    /// `C.m_x` for every item ever reported.
    counts: FxHashMap<u64, u64>,
    /// A superset of `{x : C.m_x / C.m ≥ ε/2}`, the only items a query
    /// with φ ≥ ε can report. See DESIGN.md ("Heavy-hitter reads scan an
    /// ε/2-candidate set").
    hot: FxHashSet<u64>,
    /// `hot.len()` above which `hot` is pruned: twice what the last prune
    /// or rebuild kept, and at least ⌈4/ε⌉.
    prune_at: usize,
    all_signals: u32,
    sync: Option<KCollector<u64>>,
    resyncs: u64,
}

impl HhCoordinator {
    /// Fresh coordinator.
    pub fn new(config: HhConfig) -> Self {
        HhCoordinator {
            config,
            phase: Phase::Warmup,
            m: 0,
            counts: FxHashMap::default(),
            hot: FxHashSet::default(),
            prune_at: prune_floor(config.epsilon),
            all_signals: 0,
            sync: None,
            resyncs: 0,
        }
    }

    /// `C.m`, the tracked global count (within εm/3 of |A|).
    pub fn global_count(&self) -> u64 {
        self.m
    }

    /// `C.m_x`, the tracked frequency of `x` (within εm/3 of m_x, from
    /// below).
    pub fn frequency(&self, x: u64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    /// True while the protocol is still forwarding raw items.
    pub fn in_warmup(&self) -> bool {
        self.phase == Phase::Warmup
    }

    /// Number of global re-syncs performed so far — the paper's "rounds",
    /// bounded by `log_{1+ε/3} n = O(log n / ε)`.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Classify `x`: report iff `C.m_x / C.m >= φ − ε/2` (exact rule
    /// during warm-up).
    ///
    /// Note on the constant: the paper's rule (1) is printed as
    /// `C.m_x/C.m >= φ + ε/2`, but its own correctness argument shows the
    /// tracked ratio lies within ε/2 of the true ratio, and invariant (2)
    /// only guarantees a true heavy hitter's tracked ratio exceeds
    /// `φ − ε/3` — so the printed threshold would miss boundary heavy
    /// hitters (our Lemma 2.2 adversarial input exhibits exactly that).
    /// With `φ − ε/2` both directions follow: a true φ-heavy hitter has
    /// tracked ratio `> φ − ε/3 > φ − ε/2`, and an item below `(φ−ε)|A|`
    /// has tracked ratio `< φ − ε + ε/2 = φ − ε/2`. See DESIGN.md.
    pub fn is_heavy(&self, x: u64, phi: f64) -> bool {
        if self.m == 0 {
            return false;
        }
        let ratio = self.frequency(x) as f64 / self.m as f64;
        match self.phase {
            Phase::Warmup => ratio >= phi,
            Phase::Tracking => ratio >= phi - self.config.epsilon / 2.0,
        }
    }

    /// The tracked set of φ-heavy hitters, sorted. Any φ with
    /// `ε <= φ <= 1` is valid for a single tracker.
    ///
    /// For φ ≥ ε only the O(1/ε) members of the ε/2-candidate set are
    /// classified; below ε every tracked item is. Both give exactly the
    /// items [`Self::is_heavy`] accepts.
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<u64>, CoreError> {
        check_phi(phi)?;
        let heavy = |x: &u64| self.is_heavy(*x, phi);
        let mut out: Vec<u64> = if phi >= self.config.epsilon {
            self.hot.iter().copied().filter(heavy).collect()
        } else {
            self.counts.keys().copied().filter(heavy).collect()
        };
        out.sort_unstable();
        Ok(out)
    }

    /// `C.m_x += delta`. Admits `x` to the candidate set if it now holds
    /// ε/2 of C.m, and prunes the set once it has doubled since the last
    /// prune.
    fn add_count(&mut self, x: u64, delta: u64) {
        let (m, epsilon) = (self.m, self.config.epsilon);
        let c = self.counts.entry(x).or_insert(0);
        *c += delta;
        if at_least_half_epsilon(*c, m, epsilon)
            && self.hot.insert(x)
            && self.hot.len() > self.prune_at
        {
            let counts = &self.counts;
            self.hot.retain(|x| {
                counts
                    .get(x)
                    .is_some_and(|&c| at_least_half_epsilon(c, m, epsilon))
            });
            self.reset_prune_at();
        }
    }

    /// Rebuild the candidate set from every tracked count. A lower C.m
    /// raises every ratio, so members the set dropped may qualify again.
    fn rebuild_hot(&mut self) {
        let (m, epsilon) = (self.m, self.config.epsilon);
        self.hot.clear();
        self.hot.extend(
            self.counts
                .iter()
                .filter(|&(_, &c)| at_least_half_epsilon(c, m, epsilon))
                .map(|(&x, _)| x),
        );
        self.reset_prune_at();
    }

    /// Prune next once `hot` has doubled from its current size, or has
    /// passed ⌈4/ε⌉, whichever is larger.
    fn reset_prune_at(&mut self) {
        self.prune_at = (2 * self.hot.len()).max(prune_floor(self.config.epsilon));
    }
}

/// `c / m ≥ ε/2`, computed as [`HhCoordinator::is_heavy`] computes the
/// ratio, so every item it accepts for a φ ≥ ε passes this too.
fn at_least_half_epsilon(c: u64, m: u64, epsilon: f64) -> bool {
    c as f64 / m as f64 >= epsilon / 2.0
}

/// The smallest size at which the candidate set is pruned: ⌈4/ε⌉.
fn prune_floor(epsilon: f64) -> usize {
    (4.0 / epsilon).ceil() as usize
}

impl Coordinator for HhCoordinator {
    type Up = HhUp;
    type Down = HhDown;

    fn on_message(&mut self, from: SiteId, msg: HhUp, out: &mut Outbox<HhDown>) {
        match msg {
            HhUp::Raw { item } => {
                // On the free-running pool a Raw can arrive just after
                // warm-up ended (sent before the site received Start).
                // Counting it exactly is correct in either phase: the site
                // marked it reported, so it appears nowhere else. Only the
                // warm-up→tracking *transition* broadcasts Start — the one
                // broadcast already reaches every site, including any
                // whose Raws are still in flight, so re-broadcasting per
                // late Raw would amplify each straggler into k metered
                // messages (free-running ingest can have a whole window
                // per site in flight at the transition).
                self.m += 1;
                self.add_count(item, 1);
                if self.phase == Phase::Warmup && self.m >= self.config.warmup_target {
                    self.phase = Phase::Tracking;
                    out.broadcast(HhDown::Start { m: self.m });
                }
            }
            HhUp::AllSignal { delta } => {
                self.m += delta;
                if self.sync.is_none() {
                    self.all_signals += 1;
                    if self.all_signals >= self.config.resync_after {
                        self.sync = Some(KCollector::new(self.config.k));
                        out.broadcast(HhDown::SyncPoll);
                    }
                }
            }
            HhUp::ItemSignal { item, delta } => self.add_count(item, delta),
            HhUp::CountReply { local } => {
                let complete = match self.sync.as_mut() {
                    Some(c) => c.put(from.index(), local),
                    None => false,
                };
                if complete {
                    let replies = self.sync.take().expect("sync in progress").take();
                    let before = self.m;
                    self.m = replies.iter().sum();
                    // C.m falls only on free-running schedules: a site's
                    // AllSignals for items taken after its CountReply can
                    // land before the re-sync completes.
                    if self.m < before {
                        self.rebuild_hot();
                    }
                    self.all_signals = 0;
                    self.resyncs += 1;
                    out.broadcast(HhDown::NewCount { m: self.m });
                }
            }
        }
    }
}

/// Convenience: build a full exact-store cluster.
pub fn exact_cluster(
    config: HhConfig,
) -> Result<dtrack_sim::Cluster<ExactHhSite, HhCoordinator>, crate::CoreError> {
    let sites = (0..config.k).map(|_| HhSite::exact(config)).collect();
    dtrack_sim::Cluster::new(sites, HhCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// Convenience: build a full sketch-store cluster (O(1/ε) space per site).
pub fn sketched_cluster(
    config: HhConfig,
) -> Result<dtrack_sim::Cluster<SketchHhSite, HhCoordinator>, crate::CoreError> {
    let sites = (0..config.k).map(|_| HhSite::sketched(config)).collect();
    dtrack_sim::Cluster::new(sites, HhCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// Shared query dispatch for both heavy-hitter facade adapters.
fn hh_query(label: &'static str, c: &HhCoordinator, query: Query) -> Result<Answer, QueryError> {
    match query {
        Query::Count => Ok(Answer::StreamLength(c.global_count())),
        Query::HeavyHitters { phi } => {
            let items = c
                .heavy_hitters(phi)
                .map_err(|e| QueryError::Protocol(e.to_string()))?;
            Ok(Answer::HeavyHitters { phi, items })
        }
        Query::Frequency { x } => Ok(Answer::Frequency {
            x,
            count: c.frequency(x),
        }),
        other => Err(QueryError::Unsupported {
            protocol: label,
            query: other,
        }),
    }
}

/// Canonical answer set: the tracked m, then the heavy-hitter set for
/// every standard probe threshold meaningfully above ε.
fn hh_answers(epsilon: f64, c: &HhCoordinator) -> Result<Vec<Answer>, QueryError> {
    let mut out = vec![Answer::StreamLength(c.global_count())];
    for phi in HH_PROBE_PHIS {
        if phi > epsilon {
            let items = c
                .heavy_hitters(phi)
                .map_err(|e| QueryError::Protocol(e.to_string()))?;
            out.push(Answer::HeavyHitters { phi, items });
        }
    }
    Ok(out)
}

/// [`Protocol`] adapter: §2.1 heavy hitters with exact per-site frequency
/// stores, for the [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct HhExactProtocol {
    config: HhConfig,
}

impl HhExactProtocol {
    /// Wrap a validated [`HhConfig`].
    pub fn new(config: HhConfig) -> Self {
        HhExactProtocol { config }
    }
}

impl Protocol for HhExactProtocol {
    type Site = ExactHhSite;
    type Up = HhUp;
    type Down = HhDown;
    type Coordinator = HhCoordinator;

    fn label(&self) -> &'static str {
        "hh-exact"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<ExactHhSite>, HhCoordinator), String> {
        let sites = (0..k).map(|_| HhSite::exact(self.config)).collect();
        Ok((sites, HhCoordinator::new(self.config)))
    }

    fn query(&self, c: &HhCoordinator, query: Query) -> Result<Answer, QueryError> {
        hh_query(self.label(), c, query)
    }

    fn answers(&self, c: &HhCoordinator) -> Result<Vec<Answer>, QueryError> {
        hh_answers(self.config.epsilon, c)
    }
}

/// [`Protocol`] adapter: §2.1 heavy hitters with SpaceSaving sites
/// (O(1/ε) words per site), for the [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct HhSketchedProtocol {
    config: HhConfig,
}

impl HhSketchedProtocol {
    /// Wrap a validated [`HhConfig`].
    pub fn new(config: HhConfig) -> Self {
        HhSketchedProtocol { config }
    }
}

impl Protocol for HhSketchedProtocol {
    type Site = SketchHhSite;
    type Up = HhUp;
    type Down = HhDown;
    type Coordinator = HhCoordinator;

    fn label(&self) -> &'static str {
        "hh-sketched"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<SketchHhSite>, HhCoordinator), String> {
        let sites = (0..k).map(|_| HhSite::sketched(self.config)).collect();
        Ok((sites, HhCoordinator::new(self.config)))
    }

    fn query(&self, c: &HhCoordinator, query: Query) -> Result<Answer, QueryError> {
        hh_query(self.label(), c, query)
    }

    fn answers(&self, c: &HhCoordinator) -> Result<Vec<Answer>, QueryError> {
        hh_answers(self.config.epsilon, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use dtrack_sim::Cluster;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A deterministic skewed stream: item i mod 8 with probability ~1/2,
    /// otherwise a pseudo-random tail item.
    fn skewed_stream(n: u64, seed: u64) -> Vec<u64> {
        let mut st = seed;
        (0..n)
            .map(|_| {
                let r = xorshift(&mut st);
                if r.is_multiple_of(2) {
                    r % 8
                } else {
                    100 + (r >> 8) % 1000
                }
            })
            .collect()
    }

    fn run_exact(
        k: u32,
        epsilon: f64,
        stream: &[u64],
    ) -> (Cluster<ExactHhSite, HhCoordinator>, ExactOracle) {
        let config = HhConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, &x) in stream.iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
        }
        (cluster, oracle)
    }

    #[test]
    fn continuous_correctness_against_oracle() {
        let k = 4;
        let epsilon = 0.05;
        let phi = 0.2;
        let config = HhConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in skewed_stream(6000, 99).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            let reported = cluster.coordinator().heavy_hitters(phi).unwrap();
            if let Some(v) = oracle.check_heavy_hitters(&reported, phi, epsilon) {
                panic!("violation at item {i}: {v}");
            }
        }
    }

    #[test]
    fn invariants_2_and_3_hold() {
        let epsilon = 0.1;
        let stream = skewed_stream(20_000, 5);
        let (cluster, oracle) = run_exact(5, epsilon, &stream);
        let coord = cluster.coordinator();
        let m = oracle.total();
        // Invariant (3).
        assert!(coord.global_count() <= m);
        assert!(
            coord.global_count() as f64 >= m as f64 * (1.0 - epsilon / 3.0) - 1.0,
            "C.m = {} vs m = {m}",
            coord.global_count()
        );
        // Invariant (2) for every item the oracle knows.
        for x in 0..8u64 {
            let mx = oracle.frequency(x);
            let cmx = coord.frequency(x);
            assert!(cmx <= mx, "C.m_{x} = {cmx} > m_{x} = {mx}");
            assert!(
                cmx as f64 >= mx as f64 - epsilon * m as f64 / 3.0,
                "C.m_{x} = {cmx} too far below m_{x} = {mx}"
            );
        }
    }

    #[test]
    fn warmup_is_exact() {
        let k = 3;
        let epsilon = 0.1; // warmup_target = 30
        let config = HhConfig::new(k, epsilon).unwrap();
        assert_eq!(config.warmup_target, 30);
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for i in 0..29u64 {
            let x = i % 3;
            oracle.observe(x);
            cluster.feed(SiteId((i % 3) as u32), x).unwrap();
            assert!(cluster.coordinator().in_warmup());
            assert_eq!(cluster.coordinator().global_count(), i + 1);
            // During warm-up classification is exact.
            assert_eq!(
                cluster.coordinator().heavy_hitters(0.3).unwrap(),
                oracle.heavy_hitters(0.3)
            );
        }
        cluster.feed(SiteId(0), 0).unwrap();
        assert!(!cluster.coordinator().in_warmup());
    }

    #[test]
    fn cost_grows_logarithmically_in_n() {
        let epsilon = 0.1;
        let k = 4;
        let w1 = {
            let (c, _) = run_exact(k, epsilon, &skewed_stream(10_000, 1));
            c.meter().total_words()
        };
        let w2 = {
            let (c, _) = run_exact(k, epsilon, &skewed_stream(100_000, 1));
            c.meter().total_words()
        };
        // 10x the stream must cost far less than 10x the words.
        assert!(w2 < w1 * 4, "cost not logarithmic: {w1} -> {w2}");
        assert!(w2 > w1);
    }

    #[test]
    fn resync_count_matches_round_bound() {
        let epsilon = 0.1;
        let k = 4;
        let n = 50_000u64;
        let (c, _) = run_exact(k, epsilon, &skewed_stream(n, 77));
        let rounds = c.coordinator().resyncs();
        // Rounds are bounded by log_{1+ε/3}(n / warmup_target).
        let warm = (k as f64) / epsilon;
        let bound = ((n as f64) / warm).ln() / (1.0 + epsilon / 3.0).ln();
        assert!(
            (rounds as f64) <= bound * 1.5 + 4.0,
            "{rounds} rounds exceeds bound {bound}"
        );
        assert!(rounds > 0);
    }

    #[test]
    fn sketched_sites_no_false_positives_and_good_recall() {
        let k = 4;
        let epsilon = 0.08;
        let phi = 0.25;
        let config = HhConfig::new(k, epsilon).unwrap();
        let mut cluster = sketched_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in skewed_stream(30_000, 13).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
        }
        let reported = cluster.coordinator().heavy_hitters(phi).unwrap();
        let n = oracle.total() as f64;
        // No false positives below (φ−ε)n: the sketch only deepens the
        // underestimate, so rule (1) stays safe on that side.
        for &x in &reported {
            assert!(
                oracle.frequency(x) as f64 >= (phi - epsilon) * n,
                "sketched false positive {x}"
            );
        }
        // Recall with the doubled slack the sketch introduces.
        for x in oracle.heavy_hitters(phi + epsilon) {
            assert!(
                reported.contains(&x),
                "sketched variant missed a (φ+ε)-heavy item {x}"
            );
        }
        // Space: the site stores Θ(1/ε) counters, far fewer than the
        // distinct-item count.
        for s in cluster.sites() {
            assert!(s.store().entries() <= (6.0 / epsilon).ceil() as usize + 1);
        }
    }

    #[test]
    fn threshold_introspection_counts_down() {
        let k = 2;
        let config = HhConfig::new(k, 0.2).unwrap().with_warmup_target(1);
        let mut site = HhSite::exact(config);
        let mut out = Vec::new();
        // Enter tracking with a large sm so the threshold is > 1.
        site.on_message(&HhDown::Start { m: 1000 }, &mut out);
        let t = site.threshold();
        assert!(t > 1);
        let r0 = site.remaining_until_message(42);
        assert_eq!(r0, t);
        site.on_item(42, &mut out);
        assert_eq!(site.remaining_until_message(42), t - 1);
    }

    #[test]
    fn phi_validation_on_query() {
        let config = HhConfig::new(2, 0.1).unwrap();
        let coord = HhCoordinator::new(config);
        assert!(coord.heavy_hitters(1.5).is_err());
        assert!(coord.heavy_hitters(0.5).unwrap().is_empty());
    }

    /// Every φ gets the answer of a brute-force `is_heavy` filter over all
    /// tracked items, whether it is read from the ε/2-candidate set
    /// (φ ≥ ε) or from the full scan (φ < ε).
    #[test]
    fn candidate_set_answers_match_a_full_scan() {
        fn full_scan(c: &HhCoordinator, phi: f64) -> Vec<u64> {
            let mut out: Vec<u64> = c
                .counts
                .keys()
                .copied()
                .filter(|&x| c.is_heavy(x, phi))
                .collect();
            out.sort_unstable();
            out
        }
        fn check(c: &HhCoordinator, epsilon: f64, fed: usize) {
            for phi in [
                0.0,
                0.01,
                epsilon / 2.0,
                0.0999,
                epsilon,
                0.2,
                0.25,
                0.5,
                1.0,
            ] {
                assert_eq!(
                    c.heavy_hitters(phi).unwrap(),
                    full_scan(c, phi),
                    "φ = {phi} after {fed} items"
                );
            }
        }
        let k = 8;
        let epsilon = 0.1;
        let config = HhConfig::new(k, epsilon).unwrap();
        for seed in [3, 17, 101] {
            let mut exact = exact_cluster(config).unwrap();
            let mut sketched = sketched_cluster(config).unwrap();
            for (i, x) in skewed_stream(10_000, seed).into_iter().enumerate() {
                // After 2000 items two new items take half the stream, so
                // they enter the set through item signals, not raw items.
                let x = if i >= 2_000 && x < 8 { 20 + x % 2 } else { x };
                let site = SiteId((i % k as usize) as u32);
                exact.feed(site, x).unwrap();
                sketched.feed(site, x).unwrap();
                // Checkpoints start inside warm-up (80 items here).
                if i.is_multiple_of(41) {
                    check(exact.coordinator(), epsilon, i + 1);
                    check(sketched.coordinator(), epsilon, i + 1);
                }
            }
        }
    }

    /// A completed re-sync that lowers C.m raises every ratio, so the
    /// candidate set must be rebuilt: item 7 becomes 0.2-heavy only
    /// because C.m falls from 1001 to 200.
    #[test]
    fn resync_that_lowers_the_count_rebuilds_the_candidate_set() {
        let config = HhConfig::new(2, 0.1).unwrap().with_warmup_target(10);
        let mut coord = HhCoordinator::new(config);
        let mut out = Outbox::new();
        for item in 100..110 {
            coord.on_message(SiteId(0), HhUp::Raw { item }, &mut out);
        }
        assert!(!coord.in_warmup());
        coord.on_message(SiteId(0), HhUp::AllSignal { delta: 990 }, &mut out);
        coord.on_message(SiteId(1), HhUp::ItemSignal { item: 7, delta: 40 }, &mut out);
        // The second all-signal starts the re-sync (resync_after = k = 2).
        coord.on_message(SiteId(1), HhUp::AllSignal { delta: 1 }, &mut out);
        assert_eq!(coord.global_count(), 1001);
        assert!(coord.heavy_hitters(0.2).unwrap().is_empty());
        for site in [SiteId(0), SiteId(1)] {
            coord.on_message(site, HhUp::CountReply { local: 100 }, &mut out);
        }
        assert_eq!((coord.global_count(), coord.resyncs()), (200, 1));
        assert_eq!(coord.heavy_hitters(0.2).unwrap(), vec![7]);
    }

    /// Heavy items that fade drop out of the candidate set: it stays within
    /// max(⌈4/ε⌉, 2⌊2/(ε(1 − ε/3))⌋) members (DESIGN.md) while more items
    /// than that pass through it, and it always holds every item at or
    /// above ε/2.
    #[test]
    fn candidate_set_stays_bounded_as_heavy_items_fade() {
        let k = 4;
        let epsilon = 0.1;
        let bound =
            prune_floor(epsilon).max(2 * (2.0 / (epsilon * (1.0 - epsilon / 3.0))) as usize);
        let mut cluster = exact_cluster(HhConfig::new(k, epsilon).unwrap()).unwrap();
        let mut ever_hot = FxHashSet::default();
        let mut st = 11;
        let mut fed = 0usize;
        // Phase p doubles the stream so far; six fresh items take 16% of
        // it each, so each phase's items cross ε/2 and fade in the next.
        for phase in 0..9u64 {
            for _ in 0..(256usize << phase) {
                let r = xorshift(&mut st);
                let x = if r.is_multiple_of(25) {
                    1_000_000 + (r >> 8) % 1000
                } else {
                    1000 * (phase + 1) + (r >> 8) % 6
                };
                cluster.feed(SiteId((fed % k as usize) as u32), x).unwrap();
                fed += 1;
                let c = cluster.coordinator();
                assert!(
                    c.hot.len() <= bound,
                    "{} candidates after {fed} items",
                    c.hot.len()
                );
                ever_hot.extend(c.hot.iter().copied());
                if fed.is_multiple_of(1024) {
                    for (&x, &cx) in &c.counts {
                        if at_least_half_epsilon(cx, c.m, epsilon) {
                            assert!(c.hot.contains(&x), "{x} missing after {fed} items");
                        }
                    }
                }
            }
        }
        assert!(
            ever_hot.len() > bound,
            "only {} items ever entered the set; the stream never forced a prune",
            ever_hot.len()
        );
    }

    #[test]
    fn ablation_resync_after_changes_cost() {
        let epsilon = 0.1;
        let k = 8;
        let stream = skewed_stream(40_000, 3);
        let base = HhConfig::new(k, epsilon).unwrap();
        let eager = base.with_resync_after(k / 2);
        let lazy = base.with_resync_after(k * 2);
        let run = |cfg: HhConfig| {
            let mut cluster = exact_cluster(cfg).unwrap();
            for (i, &x) in stream.iter().enumerate() {
                cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            }
            cluster.meter().total_words()
        };
        let w_eager = run(eager);
        let w_base = run(base);
        let w_lazy = run(lazy);
        // Eager re-syncing costs more sync traffic.
        assert!(w_eager > w_base, "eager {w_eager} <= base {w_base}");
        // Lazy re-syncing costs less.
        assert!(w_lazy < w_base, "lazy {w_lazy} >= base {w_base}");
    }
}
