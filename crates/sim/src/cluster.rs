//! Deterministic single-threaded runner for the distributed streaming model.
//!
//! [`Cluster`] owns `k` site state machines and one coordinator. Feeding an
//! item to a site runs all communication it triggers — including iterative
//! coordinator-initiated rounds such as polls and broadcasts — to
//! quiescence, metering every message hop. This matches the paper's model
//! where "communication is instant" and all exchanges finish before the
//! next item arrives.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::SimError;
use crate::meter::MessageMeter;
use crate::proto::{Coordinator, Down, MessageSize, Outbox, Site, SiteId};
use dtrack_trace::{
    merge_snapshots, SiteTracer, TraceConfig, TraceEvent, TraceEventKind, TraceLane, TraceShared,
};

/// Default per-arrival message fuse. A healthy protocol exchanges O(k + 1/ε)
/// messages per arrival in the worst case; hitting the fuse indicates a
/// livelock bug rather than a legitimately long exchange.
pub const DEFAULT_FUSE: u64 = 10_000_000;

/// Deterministic in-process cluster of `k` sites plus a coordinator.
#[derive(Debug)]
pub struct Cluster<S, C>
where
    S: Site,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    sites: Vec<S>,
    coordinator: C,
    meter: MessageMeter,
    fuse: u64,
    items_fed: u64,
    /// Administrative fault-injection mask: a `true` entry marks a site
    /// killed by [`Cluster::kill_site`]. Feeds to it error, downstream
    /// messages to it are dropped unmetered (the coordinator "sends" into
    /// the partition and nothing arrives), its state is frozen.
    dead: Vec<bool>,
    /// Shared trace state (enable flag, capacity, logical clock) plus one
    /// per-site tracer and one coordinator-lane tracer. Tracing is off by
    /// default: each would-be event then costs one relaxed load + branch.
    trace_shared: Arc<TraceShared>,
    tracers: Vec<SiteTracer>,
    coord_tracer: SiteTracer,
    // Reused buffers to keep the hot path allocation-free.
    up_queue: VecDeque<(SiteId, S::Up)>,
    outbox: Outbox<S::Down>,
    site_buf: Vec<S::Up>,
    downs_buf: Vec<(Down, S::Down)>,
    item_buf: Vec<S::Item>,
}

impl<S, C> Cluster<S, C>
where
    S: Site,
    C: Coordinator<Up = S::Up, Down = S::Down>,
{
    /// Build a cluster from pre-constructed site and coordinator state.
    ///
    /// Returns [`SimError::TooFewSites`] when fewer than 2 sites are given:
    /// with k = 1 the model degenerates to a single data stream and the
    /// communication measure is meaningless.
    pub fn new(sites: Vec<S>, coordinator: C) -> Result<Self, SimError> {
        if sites.len() < 2 {
            return Err(SimError::TooFewSites {
                sites: sites.len() as u32,
            });
        }
        let dead = vec![false; sites.len()];
        let trace_shared = Arc::new(TraceShared::new());
        let tracers = (0..sites.len())
            .map(|i| SiteTracer::new(Arc::clone(&trace_shared), TraceLane::Site(i as u32)))
            .collect();
        let coord_tracer = SiteTracer::new(Arc::clone(&trace_shared), TraceLane::Coordinator);
        Ok(Cluster {
            sites,
            coordinator,
            meter: MessageMeter::new(),
            fuse: DEFAULT_FUSE,
            items_fed: 0,
            dead,
            trace_shared,
            tracers,
            coord_tracer,
            up_queue: VecDeque::new(),
            outbox: Outbox::new(),
            site_buf: Vec::new(),
            downs_buf: Vec::new(),
            item_buf: Vec::new(),
        })
    }

    /// Override the per-arrival message fuse (mainly for livelock tests).
    pub fn with_fuse(mut self, fuse: u64) -> Self {
        self.fuse = fuse;
        self
    }

    /// Number of sites k.
    pub fn num_sites(&self) -> u32 {
        self.sites.len() as u32
    }

    /// Total number of items fed so far (the paper's `n` at the current
    /// time instance).
    pub fn items_fed(&self) -> u64 {
        self.items_fed
    }

    /// The communication meter.
    pub fn meter(&self) -> &MessageMeter {
        &self.meter
    }

    /// Apply a trace config. Takes effect on the next recorded event — the
    /// deterministic runtime is single-threaded, so there is no handshake
    /// to wait for.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.trace_shared.configure(config);
    }

    /// The shared trace state (the backend wrapper hangs its driver-lane
    /// tracer off this).
    pub(crate) fn trace_shared(&self) -> &Arc<TraceShared> {
        &self.trace_shared
    }

    /// Merged snapshot of every lane's ring, in logical-clock order.
    /// Non-destructive.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut lanes: Vec<Vec<TraceEvent>> = self.tracers.iter().map(|t| t.snapshot()).collect();
        lanes.push(self.coord_tracer.snapshot());
        merge_snapshots(lanes)
    }

    /// Events lost to ring overflow across all lanes.
    pub fn trace_dropped(&self) -> u64 {
        self.tracers.iter().map(|t| t.dropped()).sum::<u64>() + self.coord_tracer.dropped()
    }

    /// Immutable access to the coordinator, for queries.
    pub fn coordinator(&self) -> &C {
        &self.coordinator
    }

    /// Immutable access to a site's state (used by adversaries and tests).
    pub fn site(&self, id: SiteId) -> Option<&S> {
        self.sites.get(id.index())
    }

    /// Immutable access to all sites.
    pub fn sites(&self) -> &[S] {
        &self.sites
    }

    /// Administratively kill a site (fault injection): from now on feeds
    /// to it return [`SimError::SiteDown`], downstream messages addressed
    /// to it vanish into the partition (unmetered — nothing is received),
    /// and its state is frozen as of the kill. The rest of the cluster
    /// keeps running; [`Cluster::into_parts`] still returns the dead
    /// site's final state.
    pub fn kill_site(&mut self, site: SiteId) -> Result<(), SimError> {
        let k = self.sites.len() as u32;
        let slot = self
            .dead
            .get_mut(site.index())
            .ok_or(SimError::NoSuchSite {
                site: site.0,
                sites: k,
            })?;
        *slot = true;
        Ok(())
    }

    /// Deliver `item` to site `site` and run all triggered communication to
    /// quiescence.
    pub fn feed(&mut self, site: SiteId, item: S::Item) -> Result<(), SimError> {
        let k = self.sites.len();
        if self.dead.get(site.index()).copied().unwrap_or(false) {
            return Err(SimError::SiteDown { site: site.0 });
        }
        let s = self
            .sites
            .get_mut(site.index())
            .ok_or(SimError::NoSuchSite {
                site: site.0,
                sites: k as u32,
            })?;
        self.items_fed += 1;
        debug_assert!(self.site_buf.is_empty());
        s.on_item(item, &mut self.site_buf);
        self.tracers[site.index()].record(TraceEventKind::ItemRun { items: 1 });
        for up in self.site_buf.drain(..) {
            self.meter.record_up(up.kind(), up.size_words());
            self.tracers[site.index()].record(TraceEventKind::UpHop {
                kind: up.kind(),
                words: up.size_words(),
            });
            self.up_queue.push_back((site, up));
        }
        self.drain()
    }

    /// Feed a whole assigned stream, stopping at the first error.
    pub fn feed_stream<I>(&mut self, stream: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = (SiteId, S::Item)>,
    {
        for (site, item) in stream {
            self.feed(site, item)?;
        }
        Ok(())
    }

    /// Deliver a pre-assigned batch of items, running every triggered
    /// exchange to quiescence before the next item is offered — the
    /// transcript (message order, metered words) is bit-identical to
    /// calling [`Cluster::feed`] once per pair.
    ///
    /// The win is constant-factor: consecutive items for the same site are
    /// handed to [`Site::on_items`] as a run (one bounds check and one
    /// buffer round-trip per *message-triggering* item instead of per
    /// item), and sites that can prove a stretch of arrivals is quiet
    /// consume it in O(1).
    pub fn feed_batch(&mut self, batch: &[(SiteId, S::Item)]) -> Result<(), SimError>
    where
        S::Item: Clone,
    {
        let k = self.sites.len() as u32;
        let mut i = 0;
        while i < batch.len() {
            let site = batch[i].0;
            let mut j = i + 1;
            while j < batch.len() && batch[j].0 == site {
                j += 1;
            }
            if site.index() >= self.sites.len() {
                return Err(SimError::NoSuchSite {
                    site: site.0,
                    sites: k,
                });
            }
            if self.dead[site.index()] {
                return Err(SimError::SiteDown { site: site.0 });
            }
            // Stage the same-site run in a reusable buffer so the site
            // sees a plain item slice.
            self.item_buf.clear();
            self.item_buf
                .extend(batch[i..j].iter().map(|(_, it)| it.clone()));
            let mut off = 0;
            while off < self.item_buf.len() {
                debug_assert!(self.site_buf.is_empty());
                let consumed =
                    self.sites[site.index()].on_items(&self.item_buf[off..], &mut self.site_buf);
                debug_assert!(consumed > 0, "on_items must make progress");
                off += consumed.max(1);
                self.items_fed += consumed as u64;
                self.tracers[site.index()].record(TraceEventKind::ItemRun {
                    items: consumed as u64,
                });
                if !self.site_buf.is_empty() {
                    for up in self.site_buf.drain(..) {
                        self.meter.record_up(up.kind(), up.size_words());
                        self.tracers[site.index()].record(TraceEventKind::UpHop {
                            kind: up.kind(),
                            words: up.size_words(),
                        });
                        self.up_queue.push_back((site, up));
                    }
                    self.drain()?;
                }
            }
            i = j;
        }
        Ok(())
    }

    /// Process queued upstream messages (and the downstream messages they
    /// trigger) until the system is quiescent.
    fn drain(&mut self) -> Result<(), SimError> {
        let mut hops: u64 = 0;
        while let Some((from, up)) = self.up_queue.pop_front() {
            hops += 1;
            if hops > self.fuse {
                return Err(SimError::Livelock { fuse: self.fuse });
            }
            debug_assert!(self.outbox.is_empty());
            self.coordinator.on_message(from, up, &mut self.outbox);
            // Swap the downstream batch into a reusable buffer so sites can
            // be borrowed mutably without allocating per coordinator step.
            let mut downs = std::mem::take(&mut self.downs_buf);
            std::mem::swap(&mut downs, &mut self.outbox.msgs);
            let mut result = Ok(());
            for (dest, msg) in downs.drain(..) {
                result = match dest {
                    Down::Unicast(dst) => self.deliver_down(dst, &msg),
                    Down::Broadcast => {
                        // Only the deterministic runtime sees a broadcast
                        // pre-expansion, so this lane is where broadcast
                        // bursts are first-class in a trace.
                        self.coord_tracer.record(TraceEventKind::Broadcast {
                            kind: msg.kind(),
                            fanout: self.dead.iter().filter(|d| !**d).count() as u32,
                        });
                        (0..self.sites.len())
                            .try_for_each(|i| self.deliver_down(SiteId(i as u32), &msg))
                    }
                };
                if result.is_err() {
                    break;
                }
            }
            downs.clear();
            self.downs_buf = downs;
            result?;
        }
        Ok(())
    }

    fn deliver_down(&mut self, dst: SiteId, msg: &S::Down) -> Result<(), SimError> {
        // A dead site receives nothing: the hop is dropped *before*
        // metering (downs are metered at the receiving side, and nothing
        // is received), matching the parallel runtimes' skip-on-send.
        if self.dead.get(dst.index()).copied().unwrap_or(false) {
            return Ok(());
        }
        self.meter.record_down(msg.kind(), msg.size_words());
        let k = self.sites.len() as u32;
        let s = self
            .sites
            .get_mut(dst.index())
            .ok_or(SimError::NoSuchSite {
                site: dst.0,
                sites: k,
            })?;
        debug_assert!(self.site_buf.is_empty());
        s.on_message(msg, &mut self.site_buf);
        self.tracers[dst.index()].record(TraceEventKind::DownHop {
            kind: msg.kind(),
            words: msg.size_words(),
        });
        for up in self.site_buf.drain(..) {
            self.meter.record_up(up.kind(), up.size_words());
            self.tracers[dst.index()].record(TraceEventKind::UpHop {
                kind: up.kind(),
                words: up.size_words(),
            });
            self.up_queue.push_back((dst, up));
        }
        Ok(())
    }

    /// Tear down the cluster, returning the coordinator, the sites, and the
    /// final meter.
    pub fn into_parts(self) -> (C, Vec<S>, MessageMeter) {
        (self.coordinator, self.sites, self.meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: sites forward every item; coordinator acks every 3rd
    /// message with a broadcast; an ack does not trigger further traffic.
    #[derive(Debug, Default)]
    struct FwdSite {
        seen: u64,
        acks: u64,
    }

    #[derive(Debug)]
    enum FwdUp {
        Item(u64),
    }
    #[derive(Debug)]
    enum FwdDown {
        Ack,
    }

    impl MessageSize for FwdUp {
        fn size_words(&self) -> u64 {
            2
        }
        fn kind(&self) -> &'static str {
            "fwd/item"
        }
    }
    impl MessageSize for FwdDown {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "fwd/ack"
        }
    }

    impl Site for FwdSite {
        type Item = u64;
        type Up = FwdUp;
        type Down = FwdDown;
        fn on_item(&mut self, item: u64, out: &mut Vec<FwdUp>) {
            self.seen += 1;
            out.push(FwdUp::Item(item));
        }
        fn on_message(&mut self, _msg: &FwdDown, _out: &mut Vec<FwdUp>) {
            self.acks += 1;
        }
    }

    #[derive(Debug, Default)]
    struct FwdCoord {
        received: u64,
        sum: u64,
    }

    impl Coordinator for FwdCoord {
        type Up = FwdUp;
        type Down = FwdDown;
        fn on_message(&mut self, _from: SiteId, msg: FwdUp, out: &mut Outbox<FwdDown>) {
            let FwdUp::Item(x) = msg;
            self.received += 1;
            self.sum += x;
            if self.received.is_multiple_of(3) {
                out.broadcast(FwdDown::Ack);
            }
        }
    }

    fn cluster(k: usize) -> Cluster<FwdSite, FwdCoord> {
        let sites = (0..k).map(|_| FwdSite::default()).collect();
        Cluster::new(sites, FwdCoord::default()).unwrap()
    }

    #[test]
    fn rejects_small_clusters() {
        let err = Cluster::new(vec![FwdSite::default()], FwdCoord::default()).unwrap_err();
        assert_eq!(err, SimError::TooFewSites { sites: 1 });
    }

    #[test]
    fn feed_runs_to_quiescence_and_meters() {
        let mut c = cluster(4);
        for i in 0..6u64 {
            c.feed(SiteId((i % 4) as u32), i * 10).unwrap();
        }
        assert_eq!(c.coordinator().received, 6);
        assert_eq!(c.coordinator().sum, (1 + 2 + 3 + 4 + 5) * 10);
        // 6 upstream item messages of 2 words each.
        assert_eq!(c.meter().kind("fwd/item").messages, 6);
        assert_eq!(c.meter().kind("fwd/item").words, 12);
        // 2 broadcasts (after messages 3 and 6), each expands to k=4 acks.
        assert_eq!(c.meter().kind("fwd/ack").messages, 8);
        // Every site saw both acks.
        for s in c.sites() {
            assert_eq!(s.acks, 2);
        }
        assert_eq!(c.items_fed(), 6);
    }

    #[test]
    fn feed_to_missing_site_errors() {
        let mut c = cluster(2);
        let err = c.feed(SiteId(9), 1).unwrap_err();
        assert_eq!(err, SimError::NoSuchSite { site: 9, sites: 2 });
    }

    #[test]
    fn feed_batch_matches_per_item_feed() {
        let stream: Vec<(SiteId, u64)> = (0..200u64)
            .map(|i| (SiteId((i % 3) as u32), i * 7))
            .collect();
        let mut per_item = cluster(3);
        for &(site, item) in &stream {
            per_item.feed(site, item).unwrap();
        }
        let mut batched = cluster(3);
        batched.feed_batch(&stream).unwrap();
        assert_eq!(batched.items_fed(), per_item.items_fed());
        assert_eq!(batched.coordinator().sum, per_item.coordinator().sum);
        assert_eq!(batched.meter().report(), per_item.meter().report());
        // Mixed chunk sizes must not change the transcript either.
        let mut chunked = cluster(3);
        for chunk in stream.chunks(7) {
            chunked.feed_batch(chunk).unwrap();
        }
        assert_eq!(chunked.meter().report(), per_item.meter().report());
    }

    #[test]
    fn feed_batch_to_missing_site_errors() {
        let mut c = cluster(2);
        let err = c.feed_batch(&[(SiteId(0), 1), (SiteId(9), 2)]).unwrap_err();
        assert_eq!(err, SimError::NoSuchSite { site: 9, sites: 2 });
    }

    #[test]
    fn feed_stream_consumes_pairs() {
        let mut c = cluster(3);
        let stream = (0..9u64).map(|i| (SiteId((i % 3) as u32), i));
        c.feed_stream(stream).unwrap();
        assert_eq!(c.coordinator().received, 9);
    }

    /// A site that replies to every ack with another item forever — the
    /// fuse must convert the livelock into an error.
    #[derive(Debug, Default)]
    struct LoopSite;
    impl Site for LoopSite {
        type Item = u64;
        type Up = FwdUp;
        type Down = FwdDown;
        fn on_item(&mut self, item: u64, out: &mut Vec<FwdUp>) {
            out.push(FwdUp::Item(item));
        }
        fn on_message(&mut self, _msg: &FwdDown, out: &mut Vec<FwdUp>) {
            out.push(FwdUp::Item(0));
        }
    }

    #[derive(Debug, Default)]
    struct LoopCoord;
    impl Coordinator for LoopCoord {
        type Up = FwdUp;
        type Down = FwdDown;
        fn on_message(&mut self, from: SiteId, _msg: FwdUp, out: &mut Outbox<FwdDown>) {
            out.unicast(from, FwdDown::Ack);
        }
    }

    #[test]
    fn livelock_hits_fuse() {
        let sites = vec![LoopSite, LoopSite];
        let mut c = Cluster::new(sites, LoopCoord).unwrap().with_fuse(1000);
        let err = c.feed(SiteId(0), 1).unwrap_err();
        assert_eq!(err, SimError::Livelock { fuse: 1000 });
    }

    #[test]
    fn killed_site_rejects_feeds_and_receives_nothing() {
        let mut c = cluster(4);
        for i in 0..2u64 {
            c.feed(SiteId(i as u32), i).unwrap();
        }
        c.kill_site(SiteId(1)).unwrap();
        // Feeds to the dead site error without touching its state.
        assert_eq!(
            c.feed(SiteId(1), 5).unwrap_err(),
            SimError::SiteDown { site: 1 }
        );
        assert_eq!(
            c.feed_batch(&[(SiteId(1), 7), (SiteId(0), 6)]).unwrap_err(),
            SimError::SiteDown { site: 1 }
        );
        // Broadcast acks (after the 3rd upstream message) skip the dead
        // site: the receiving-side meter counts k-1 acks, and the dead
        // site's ack count stays frozen.
        c.feed(SiteId(2), 8).unwrap();
        assert_eq!(c.meter().kind("fwd/ack").messages, 3);
        assert_eq!(c.sites()[1].acks, 0);
        for alive in [0usize, 2, 3] {
            assert_eq!(c.sites()[alive].acks, 1);
        }
        // Killing an unknown site is an error, not a silent no-op.
        assert_eq!(
            c.kill_site(SiteId(9)).unwrap_err(),
            SimError::NoSuchSite { site: 9, sites: 4 }
        );
    }

    #[test]
    fn tracing_captures_hops_without_touching_the_meter() {
        let mut traced = cluster(4);
        traced.set_trace(TraceConfig::on());
        let mut plain = cluster(4);
        for i in 0..6u64 {
            traced.feed(SiteId((i % 4) as u32), i * 10).unwrap();
            plain.feed(SiteId((i % 4) as u32), i * 10).unwrap();
        }
        // Transparency: tracing never changes the metered transcript.
        assert_eq!(traced.meter().report(), plain.meter().report());
        assert!(plain.trace_events().is_empty());
        let events = traced.trace_events();
        let summary = dtrack_trace::TraceSummary::from_events(&events, traced.trace_dropped());
        // 6 item runs + 6 up hops; 2 broadcasts expanding to 4 downs each.
        assert_eq!(summary.count("item-run"), 6);
        assert_eq!(summary.count("up-hop"), 6);
        assert_eq!(summary.count("broadcast"), 2);
        assert_eq!(summary.count("down-hop"), 8);
        assert_eq!(summary.up_words, traced.meter().up().words);
        assert_eq!(summary.down_words, traced.meter().down().words);
        // Single-threaded: clocks are the dense sequence 0..n.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.clock, i as u64);
        }
    }

    #[test]
    fn traced_broadcast_fanout_excludes_dead_sites() {
        let mut c = cluster(4);
        c.set_trace(TraceConfig::on());
        c.kill_site(SiteId(1)).unwrap();
        for i in 0..3u64 {
            c.feed(SiteId(if i % 4 == 1 { 0 } else { i as u32 % 4 }), i)
                .unwrap();
        }
        let events = c.trace_events();
        let bcast = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::Broadcast { fanout, .. } => Some(fanout),
                _ => None,
            })
            .expect("one broadcast after 3 upstream messages");
        assert_eq!(bcast, 3);
        // The dead site received no down hop.
        assert!(!events.iter().any(|e| {
            matches!(e.kind, TraceEventKind::DownHop { .. }) && e.lane == TraceLane::Site(1)
        }));
    }

    #[test]
    fn into_parts_returns_state() {
        let mut c = cluster(2);
        c.feed(SiteId(0), 7).unwrap();
        let (coord, sites, meter) = c.into_parts();
        assert_eq!(coord.sum, 7);
        assert_eq!(sites.len(), 2);
        assert_eq!(meter.kind("fwd/item").messages, 1);
    }
}
