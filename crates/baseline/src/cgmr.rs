//! The Cormode–Garofalakis–Muthukrishnan–Rastogi (SIGMOD 2005) baseline —
//! the paper's reference \[7\] and the prior best bound it improves.
//!
//! Each site keeps its local stream (exactly, or in a GK sketch) and
//! re-ships an equi-depth summary of everything it has seen, with rank
//! error `(ε/4)·n_j`, every time its local count grows by a `(1 + ε/4)`
//! factor. The coordinator keeps the latest summary per site and merges
//! them for queries.
//!
//! Correctness: between re-ships a site withholds less than `(ε/4)·n_j`
//! items and its last summary errs by at most `(ε/4)·n_j(1+ε/4)`, so the
//! merged rank error is below `Σ_j (ε/2 + ε²/16)·n_j < ε·n` — an
//! ε-approximate all-quantile (and hence 2ε heavy hitter) oracle at all
//! times.
//!
//! Cost: each site sends O(log_{1+ε/4} n) = O(log n / ε) summaries of
//! O(1/ε) words, giving the O(k/ε² · log n) total that Theorems 3.1/4.1
//! beat by Θ(1/ε) (up to polylog(1/ε)).

use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId, PROBE_PHIS,
};
use dtrack_sketch::{EquiDepthSummary, ExactOrdered, MergedSummary, OrderStore};
use dtrack_wire::{DecodeError, WireMessage, WireReader};

/// Parameters of the CGMR baseline.
#[derive(Debug, Clone, Copy)]
pub struct CgmrConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
}

impl CgmrConfig {
    /// Validated configuration.
    pub fn new(k: u32, epsilon: f64) -> Result<Self, String> {
        if k < 2 {
            return Err(format!("need at least 2 sites, got {k}"));
        }
        if !(epsilon > 0.0 && epsilon <= 0.5) {
            return Err(format!("epsilon must be in (0, 0.5], got {epsilon}"));
        }
        Ok(CgmrConfig { k, epsilon })
    }
}

/// Upstream message: a fresh summary of the site's entire local stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CgmrUp(pub EquiDepthSummary);

impl MessageSize for CgmrUp {
    fn size_words(&self) -> u64 {
        self.0.wire_words()
    }
    fn kind(&self) -> &'static str {
        "cgmr/summary"
    }
}

/// The baseline never sends downstream messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgmrDown {}

impl MessageSize for CgmrDown {
    fn size_words(&self) -> u64 {
        match *self {}
    }
    fn kind(&self) -> &'static str {
        match *self {}
    }
}

impl WireMessage for CgmrUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(CgmrUp(EquiDepthSummary::wire_decode(r)?))
    }
}

impl WireMessage for CgmrDown {
    fn wire_encode(&self, _out: &mut Vec<u8>) {
        match *self {}
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Err(DecodeError::Uninhabited {
            kind: "cgmr/no-down",
            offset: r.offset(),
        })
    }
}

/// A CGMR site, generic over its local ordered store.
#[derive(Debug, Clone)]
pub struct CgmrSite<S = ExactOrdered> {
    config: CgmrConfig,
    store: S,
    last_shipped: u64,
}

impl CgmrSite<ExactOrdered> {
    /// Site with exact local state.
    pub fn exact(config: CgmrConfig) -> Self {
        CgmrSite::with_store(config, ExactOrdered::new())
    }
}

impl<S: OrderStore> CgmrSite<S> {
    /// Site with a caller-provided store.
    pub fn with_store(config: CgmrConfig, store: S) -> Self {
        CgmrSite {
            config,
            store,
            last_shipped: 0,
        }
    }
}

impl<S: OrderStore> Site for CgmrSite<S> {
    type Item = u64;
    type Up = CgmrUp;
    type Down = CgmrDown;

    fn on_item(&mut self, item: u64, out: &mut Vec<CgmrUp>) {
        self.store.insert(item);
        let n = self.store.total();
        let threshold =
            ((self.last_shipped as f64) * (1.0 + self.config.epsilon / 4.0)).floor() as u64;
        if self.last_shipped == 0 || n > threshold.max(self.last_shipped) {
            let step = ((self.config.epsilon * n as f64 / 4.0).floor() as u64).max(1);
            out.push(CgmrUp(self.store.summary(step)));
            self.last_shipped = n;
        }
    }

    fn on_message(&mut self, msg: &CgmrDown, _out: &mut Vec<CgmrUp>) {
        match *msg {}
    }
}

/// The CGMR coordinator: latest summary per site, merged on demand.
#[derive(Debug, Clone)]
pub struct CgmrCoordinator {
    latest: Vec<Option<EquiDepthSummary>>,
}

impl CgmrCoordinator {
    /// Fresh coordinator for `k` sites.
    pub fn new(config: CgmrConfig) -> Self {
        CgmrCoordinator {
            latest: (0..config.k).map(|_| None).collect(),
        }
    }

    fn merged(&self) -> MergedSummary {
        MergedSummary::new(
            self.latest
                .iter()
                .filter_map(|s| s.as_ref().cloned())
                .collect(),
        )
    }

    /// Estimated total stream size (sum of last-shipped counts).
    pub fn n_estimate(&self) -> u64 {
        self.latest
            .iter()
            .filter_map(|s| s.as_ref().map(|s| s.total()))
            .sum()
    }

    /// Estimate of `rank_lt(x)`.
    pub fn rank_lt(&self, x: u64) -> u64 {
        self.merged().rank_estimate(x)
    }

    /// An ε-approximate φ-quantile.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        let m = self.merged();
        let n = m.total();
        if n == 0 {
            return None;
        }
        let target = (phi * n as f64).round() as u64;
        m.select(target)
    }

    /// Approximate φ-heavy hitters by rank differences over the merged
    /// separator candidates (the standard \[7\] extraction).
    pub fn heavy_hitters(&self, phi: f64, epsilon: f64) -> Vec<u64> {
        let m = self.merged();
        let n = m.total();
        if n == 0 {
            return Vec::new();
        }
        let mut candidates: Vec<u64> = self
            .latest
            .iter()
            .flatten()
            .flat_map(|s| s.separators().iter().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let thresh = (phi - epsilon) * n as f64;
        candidates
            .into_iter()
            .filter(|&x| {
                let hi = if x == u64::MAX {
                    n
                } else {
                    m.rank_estimate(x + 1)
                };
                hi.saturating_sub(m.rank_estimate(x)) as f64 >= thresh
            })
            .collect()
    }
}

impl Coordinator for CgmrCoordinator {
    type Up = CgmrUp;
    type Down = CgmrDown;

    fn on_message(&mut self, from: SiteId, msg: CgmrUp, _out: &mut Outbox<CgmrDown>) {
        if let Some(slot) = self.latest.get_mut(from.index()) {
            *slot = Some(msg.0);
        }
    }
}

/// Convenience: build a full exact-store CGMR cluster.
pub fn exact_cluster(
    config: CgmrConfig,
) -> Result<dtrack_sim::Cluster<CgmrSite, CgmrCoordinator>, dtrack_sim::SimError> {
    let sites = (0..config.k).map(|_| CgmrSite::exact(config)).collect();
    dtrack_sim::Cluster::new(sites, CgmrCoordinator::new(config))
}

/// [`Protocol`] adapter: the CGMR'05 summary-shipping baseline for the
/// [`dtrack_sim::Tracker`] facade.
#[derive(Debug, Clone, Copy)]
pub struct CgmrProtocol {
    config: CgmrConfig,
}

impl CgmrProtocol {
    /// Wrap a validated [`CgmrConfig`].
    pub fn new(config: CgmrConfig) -> Self {
        CgmrProtocol { config }
    }
}

impl Protocol for CgmrProtocol {
    type Site = CgmrSite;
    type Up = CgmrUp;
    type Down = CgmrDown;
    type Coordinator = CgmrCoordinator;

    fn label(&self) -> &'static str {
        "cgmr"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<CgmrSite>, CgmrCoordinator), String> {
        let sites = (0..k).map(|_| CgmrSite::exact(self.config)).collect();
        Ok((sites, CgmrCoordinator::new(self.config)))
    }

    fn query(&self, c: &CgmrCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Count => Ok(Answer::LengthEstimate(c.n_estimate())),
            Query::Quantile { phi } => Ok(Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            }),
            Query::RankLt { x } => Ok(Answer::RankLt {
                x,
                rank: c.rank_lt(x),
            }),
            Query::HeavyHitters { phi } => {
                let mut items = c.heavy_hitters(phi, self.config.epsilon);
                items.sort_unstable();
                Ok(Answer::HeavyHitters { phi, items })
            }
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &CgmrCoordinator) -> Result<Vec<Answer>, QueryError> {
        let mut out = vec![Answer::LengthEstimate(c.n_estimate())];
        for phi in PROBE_PHIS {
            out.push(Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_workload::{Generator, Uniform};

    fn run(
        k: u32,
        epsilon: f64,
        n: u64,
        seed: u64,
    ) -> (dtrack_sim::Cluster<CgmrSite, CgmrCoordinator>, Vec<u64>) {
        let config = CgmrConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut gen = Uniform::new(1 << 40, seed);
        let mut items = Vec::with_capacity(n as usize);
        for i in 0..n {
            let x = gen.next_item();
            items.push(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
        }
        (cluster, items)
    }

    #[test]
    fn quantiles_within_epsilon() {
        let epsilon = 0.1;
        let (cluster, mut items) = run(4, epsilon, 30_000, 7);
        items.sort_unstable();
        let n = items.len() as u64;
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let q = cluster.coordinator().quantile(phi).unwrap();
            let r_lo = items.partition_point(|&y| y < q) as u64;
            let r_hi = items.partition_point(|&y| y <= q) as u64;
            let target = phi * n as f64;
            let dist = if (target as u64) < r_lo {
                r_lo as f64 - target
            } else if target > r_hi as f64 {
                target - r_hi as f64
            } else {
                0.0
            };
            assert!(
                dist <= epsilon * n as f64,
                "phi {phi}: quantile {q} off by {dist}"
            );
        }
    }

    #[test]
    fn rank_estimates_within_epsilon() {
        let epsilon = 0.1;
        let (cluster, mut items) = run(3, epsilon, 20_000, 13);
        items.sort_unstable();
        let n = items.len() as u64;
        for probe in (0..(1u64 << 40)).step_by(1 << 36) {
            let truth = items.partition_point(|&y| y < probe) as u64;
            let est = cluster.coordinator().rank_lt(probe);
            assert!(
                est.abs_diff(truth) as f64 <= epsilon * n as f64,
                "probe {probe}: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn cost_scales_quadratically_in_inverse_epsilon() {
        // Halving ε should roughly quadruple the cost (1/ε for shipping
        // frequency x 1/ε for summary size).
        let w_coarse = run(4, 0.2, 60_000, 3).0.meter().total_words();
        let w_fine = run(4, 0.05, 60_000, 3).0.meter().total_words();
        let ratio = w_fine as f64 / w_coarse as f64;
        assert!(
            ratio > 6.0,
            "expected ~16x cost for 4x smaller epsilon, got {ratio:.1}x"
        );
    }

    #[test]
    fn cost_scales_logarithmically_in_n() {
        let w1 = run(4, 0.1, 20_000, 3).0.meter().total_words();
        let w2 = run(4, 0.1, 200_000, 3).0.meter().total_words();
        assert!(w2 < w1 * 4, "not logarithmic: {w1} -> {w2}");
    }

    #[test]
    fn heavy_hitters_found() {
        let config = CgmrConfig::new(3, 0.05).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut gen = Uniform::new(1 << 30, 5);
        for i in 0..30_000u64 {
            let x = if i % 3 == 0 { 7777 } else { gen.next_item() };
            cluster.feed(SiteId((i % 3) as u32), x).unwrap();
        }
        let hh = cluster.coordinator().heavy_hitters(0.25, 0.05);
        assert!(hh.contains(&7777), "missed the 33% item: {hh:?}");
    }

    #[test]
    fn config_validation() {
        assert!(CgmrConfig::new(1, 0.1).is_err());
        assert!(CgmrConfig::new(4, 0.0).is_err());
    }
}
