//! Naive baselines: forward-everything and coordinator-driven polling.

use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId, PROBE_PHIS,
};
use dtrack_sketch::{EquiDepthSummary, ExactOrdered, MergedSummary, OrderStore};
use dtrack_wire::{put_u64, put_u8, DecodeError, WireMessage, WireReader};

// ---------------------------------------------------------------------
// Forward-all
// ---------------------------------------------------------------------

/// Upstream message: the raw item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwdItem(pub u64);

impl MessageSize for FwdItem {
    fn size_words(&self) -> u64 {
        2
    }
    fn kind(&self) -> &'static str {
        "fwd/item"
    }
}

/// Forward-all sends nothing downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdDown {}

impl MessageSize for FwdDown {
    fn size_words(&self) -> u64 {
        match *self {}
    }
    fn kind(&self) -> &'static str {
        match *self {}
    }
}

impl WireMessage for FwdItem {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(FwdItem(r.u64()?))
    }
}

impl WireMessage for FwdDown {
    fn wire_encode(&self, _out: &mut Vec<u8>) {
        match *self {}
    }
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Err(DecodeError::Uninhabited {
            kind: "fwd/no-down",
            offset: r.offset(),
        })
    }
}

/// A site that forwards every arrival — exact tracking at cost n words.
///
/// The paper: "we assume that n is sufficiently large (compared with k and
/// 1/ε); if n is too small, a naive solution that transmits every arrival
/// to the coordinator would be the best." Experiment E14 locates that
/// crossover empirically.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardAllSite;

impl Site for ForwardAllSite {
    type Item = u64;
    type Up = FwdItem;
    type Down = FwdDown;

    fn on_item(&mut self, item: u64, out: &mut Vec<FwdItem>) {
        out.push(FwdItem(item));
    }

    fn on_message(&mut self, msg: &FwdDown, _out: &mut Vec<FwdItem>) {
        match *msg {}
    }
}

/// Coordinator with the exact global multiset.
#[derive(Debug, Clone, Default)]
pub struct ForwardAllCoordinator {
    store: ExactOrdered,
}

impl ForwardAllCoordinator {
    /// Fresh coordinator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact stream size.
    pub fn total(&self) -> u64 {
        self.store.len()
    }

    /// Exact `rank_lt(x)`.
    pub fn rank_lt(&self, x: u64) -> u64 {
        self.store.rank_lt(x)
    }

    /// Exact φ-quantile.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        let n = self.store.len();
        if n == 0 {
            return None;
        }
        let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
        self.store.select(target - 1)
    }
}

impl Coordinator for ForwardAllCoordinator {
    type Up = FwdItem;
    type Down = FwdDown;

    fn on_message(&mut self, _from: SiteId, msg: FwdItem, _out: &mut Outbox<FwdDown>) {
        self.store.insert(msg.0);
    }
}

/// [`Protocol`] adapter: the forward-every-arrival baseline for the
/// [`dtrack_sim::Tracker`] facade. Exact answers at n words.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardAllProtocol;

impl ForwardAllProtocol {
    /// The baseline has no parameters.
    pub fn new() -> Self {
        ForwardAllProtocol
    }
}

impl Protocol for ForwardAllProtocol {
    type Site = ForwardAllSite;
    type Up = FwdItem;
    type Down = FwdDown;
    type Coordinator = ForwardAllCoordinator;

    fn label(&self) -> &'static str {
        "forward-all"
    }

    fn build(&self, k: u32) -> Result<(Vec<ForwardAllSite>, ForwardAllCoordinator), String> {
        let sites = (0..k).map(|_| ForwardAllSite).collect();
        Ok((sites, ForwardAllCoordinator::new()))
    }

    fn query(&self, c: &ForwardAllCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Count => Ok(Answer::Total(c.total())),
            Query::Quantile { phi } => Ok(Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            }),
            Query::RankLt { x } => Ok(Answer::RankLt {
                x,
                rank: c.rank_lt(x),
            }),
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &ForwardAllCoordinator) -> Result<Vec<Answer>, QueryError> {
        let mut out = vec![Answer::Total(c.total())];
        for phi in PROBE_PHIS {
            out.push(Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Periodic polling
// ---------------------------------------------------------------------

/// Parameters of the polling baseline.
#[derive(Debug, Clone, Copy)]
pub struct PollingConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
}

impl PollingConfig {
    /// Validated configuration.
    pub fn new(k: u32, epsilon: f64) -> Result<Self, String> {
        if k < 2 {
            return Err(format!("need at least 2 sites, got {k}"));
        }
        if !(epsilon > 0.0 && epsilon <= 0.5) {
            return Err(format!("epsilon must be in (0, 0.5], got {epsilon}"));
        }
        Ok(PollingConfig { k, epsilon })
    }
}

/// Upstream messages of the polling baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum PollUp {
    /// Counter report: local count grew by `delta`.
    CountDelta(u64),
    /// Reply to a poll: a summary of the whole local stream.
    Summary(EquiDepthSummary),
}

impl MessageSize for PollUp {
    fn size_words(&self) -> u64 {
        match self {
            PollUp::CountDelta(_) => 1,
            PollUp::Summary(s) => s.wire_words(),
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            PollUp::CountDelta(_) => "poll/count-delta",
            PollUp::Summary(_) => "poll/summary",
        }
    }
}

/// Downstream message: a poll request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRequest;

impl MessageSize for PollRequest {
    fn size_words(&self) -> u64 {
        1
    }
    fn kind(&self) -> &'static str {
        "poll/request"
    }
}

impl WireMessage for PollUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            PollUp::CountDelta(delta) => {
                put_u8(out, 0);
                put_u64(out, *delta);
            }
            PollUp::Summary(s) => {
                put_u8(out, 1);
                s.wire_encode(out);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag("PollUp")?;
        match tag {
            0 => Ok(PollUp::CountDelta(r.u64()?)),
            1 => Ok(PollUp::Summary(EquiDepthSummary::wire_decode(r)?)),
            tag => Err(DecodeError::BadTag {
                context: "PollUp",
                tag,
                offset,
            }),
        }
    }
}

impl WireMessage for PollRequest {
    fn wire_encode(&self, _out: &mut Vec<u8>) {}
    fn wire_decode(_r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(PollRequest)
    }
}

/// A polling-baseline site: counter reports plus poll replies.
#[derive(Debug, Clone)]
pub struct PollingSite<S = ExactOrdered> {
    config: PollingConfig,
    store: S,
    reported: u64,
}

impl PollingSite<ExactOrdered> {
    /// Site with exact local state.
    pub fn exact(config: PollingConfig) -> Self {
        PollingSite {
            config,
            store: ExactOrdered::new(),
            reported: 0,
        }
    }
}

impl<S: OrderStore> Site for PollingSite<S> {
    type Item = u64;
    type Up = PollUp;
    type Down = PollRequest;

    fn on_item(&mut self, item: u64, out: &mut Vec<PollUp>) {
        self.store.insert(item);
        let n = self.store.total();
        let threshold = ((self.reported as f64) * (1.0 + self.config.epsilon / 2.0)).floor() as u64;
        if self.reported == 0 || n > threshold.max(self.reported) {
            out.push(PollUp::CountDelta(n - self.reported));
            self.reported = n;
        }
    }

    fn on_message(&mut self, _msg: &PollRequest, out: &mut Vec<PollUp>) {
        let n = self.store.total();
        let step = ((self.config.epsilon * n as f64 / 4.0).floor() as u64).max(1);
        out.push(PollUp::Summary(self.store.summary(step)));
    }
}

/// The polling coordinator: re-collects all summaries every (1+ε) growth.
#[derive(Debug, Clone)]
pub struct PollingCoordinator {
    config: PollingConfig,
    n_estimate: u64,
    last_polled_at: u64,
    latest: Vec<Option<EquiDepthSummary>>,
    polls: u64,
}

impl PollingCoordinator {
    /// Fresh coordinator.
    pub fn new(config: PollingConfig) -> Self {
        PollingCoordinator {
            config,
            n_estimate: 0,
            last_polled_at: 0,
            latest: (0..config.k).map(|_| None).collect(),
            polls: 0,
        }
    }

    /// Number of full polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    fn merged(&self) -> MergedSummary {
        MergedSummary::new(self.latest.iter().flatten().cloned().collect())
    }

    /// An ε-approximate φ-quantile from the last poll.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        let m = self.merged();
        let n = m.total();
        if n == 0 {
            return None;
        }
        m.select((phi * n as f64).round() as u64)
    }

    /// Rank estimate from the last poll.
    pub fn rank_lt(&self, x: u64) -> u64 {
        self.merged().rank_estimate(x)
    }
}

impl Coordinator for PollingCoordinator {
    type Up = PollUp;
    type Down = PollRequest;

    fn on_message(&mut self, from: SiteId, msg: PollUp, out: &mut Outbox<PollRequest>) {
        match msg {
            PollUp::CountDelta(d) => {
                self.n_estimate += d;
                let due = (self.last_polled_at as f64) * (1.0 + self.config.epsilon);
                if self.last_polled_at == 0 || self.n_estimate as f64 > due {
                    self.last_polled_at = self.n_estimate;
                    self.polls += 1;
                    out.broadcast(PollRequest);
                }
            }
            PollUp::Summary(s) => {
                if let Some(slot) = self.latest.get_mut(from.index()) {
                    *slot = Some(s);
                }
            }
        }
    }
}

/// [`Protocol`] adapter: the periodic-polling strawman for the
/// [`dtrack_sim::Tracker`] facade. Answers carry a 2ε band (up to εn
/// arrivals are unaccounted between polls).
#[derive(Debug, Clone, Copy)]
pub struct PollingProtocol {
    config: PollingConfig,
}

impl PollingProtocol {
    /// Wrap a validated [`PollingConfig`].
    pub fn new(config: PollingConfig) -> Self {
        PollingProtocol { config }
    }
}

impl Protocol for PollingProtocol {
    type Site = PollingSite;
    type Up = PollUp;
    type Down = PollRequest;
    type Coordinator = PollingCoordinator;

    fn label(&self) -> &'static str {
        "polling"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<PollingSite>, PollingCoordinator), String> {
        let sites = (0..k).map(|_| PollingSite::exact(self.config)).collect();
        Ok((sites, PollingCoordinator::new(self.config)))
    }

    fn query(&self, c: &PollingCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Quantile { phi } => Ok(Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            }),
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &PollingCoordinator) -> Result<Vec<Answer>, QueryError> {
        Ok(PROBE_PHIS
            .iter()
            .map(|&phi| Answer::QuantileAt {
                phi,
                value: c.quantile(phi),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrack_sim::Cluster;
    use dtrack_workload::{Generator, Uniform};

    #[test]
    fn forward_all_is_exact() {
        let sites = (0..3).map(|_| ForwardAllSite).collect();
        let mut cluster = Cluster::new(sites, ForwardAllCoordinator::new()).unwrap();
        let mut gen = Uniform::new(10_000, 3);
        let mut items = Vec::new();
        for i in 0..5_000u64 {
            let x = gen.next_item();
            items.push(x);
            cluster.feed(SiteId((i % 3) as u32), x).unwrap();
        }
        items.sort_unstable();
        let coord = cluster.coordinator();
        assert_eq!(coord.total(), 5_000);
        assert_eq!(coord.quantile(0.5), Some(items[2499]));
        assert_eq!(
            coord.rank_lt(items[1000]),
            items.partition_point(|&y| y < items[1000]) as u64
        );
        // Cost is exactly 2 words per item.
        assert_eq!(cluster.meter().total_words(), 10_000);
    }

    #[test]
    fn polling_tracks_quantiles() {
        let epsilon = 0.1;
        let config = PollingConfig::new(4, epsilon).unwrap();
        let sites = (0..config.k).map(|_| PollingSite::exact(config)).collect();
        let mut cluster = Cluster::new(sites, PollingCoordinator::new(config)).unwrap();
        let mut gen = Uniform::new(1 << 40, 9);
        let mut items = Vec::new();
        for i in 0..30_000u64 {
            let x = gen.next_item();
            items.push(x);
            cluster.feed(SiteId((i % 4) as u32), x).unwrap();
        }
        items.sort_unstable();
        let n = items.len() as u64;
        let q = cluster.coordinator().quantile(0.5).unwrap();
        let r = items.partition_point(|&y| y < q) as u64;
        assert!(
            (r as f64 - 0.5 * n as f64).abs() <= 2.0 * epsilon * n as f64,
            "median rank {r} of {n}"
        );
        assert!(cluster.coordinator().polls() > 0);
    }

    #[test]
    fn polling_costs_more_than_cgmr_style_push() {
        // The poll round-trips cost strictly more than pure pushing at
        // the same accuracy; this is the motivation for "push" the paper
        // cites. (Loose check: polling cost > 0 and grows with n.)
        let config = PollingConfig::new(4, 0.1).unwrap();
        let run = |n: u64| {
            let sites = (0..config.k).map(|_| PollingSite::exact(config)).collect();
            let mut cluster = Cluster::new(sites, PollingCoordinator::new(config)).unwrap();
            let mut gen = Uniform::new(1 << 30, 4);
            for i in 0..n {
                cluster
                    .feed(SiteId((i % 4) as u32), gen.next_item())
                    .unwrap();
            }
            cluster.meter().total_words()
        };
        let w1 = run(10_000);
        let w2 = run(100_000);
        assert!(w2 > w1);
        assert!(w2 < w1 * 6, "polling should still be logarithmic in n");
    }
}
