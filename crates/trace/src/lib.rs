//! `dtrack-trace` — deterministic structured-event tracing for the sim
//! runtimes.
//!
//! Every backend records [`TraceEvent`]s into per-site bounded ring
//! buffers ([`SiteTracer`]) stamped from one shared logical clock
//! ([`TraceShared`]). The design contract, in order of importance:
//!
//! - **Off means off.** With tracing disabled the hot path pays exactly
//!   one relaxed load and branch per would-be event ([`SiteTracer::record`]);
//!   no clock tick, no allocation, no ring write. Answers and metered
//!   words are byte-identical with tracing on or off — tracing observes,
//!   it never participates.
//! - **Deterministic where the runtime is.** Event clocks come from a
//!   single `fetch_add` counter. On the single-threaded deterministic
//!   backend the resulting stream is bit-identical for a given scenario
//!   seed; on the parallel pool clocks are racy by nature and only
//!   per-site subsequences are meaningful.
//! - **Bounded.** Rings overwrite oldest on overflow and count what they
//!   dropped ([`TraceSummary::dropped`]); a runaway scenario can never
//!   OOM the tracer.
//!
//! Two sinks consume the merged stream: the Chrome `trace_event` JSON
//! exporter ([`export_chrome`] / [`write_chrome_file`]) and the in-memory
//! [`TraceSummary`] (per-kind counts plus per-phase wall-time histograms
//! on the parallel pool). [`canonical_kind_order`] is the one label
//! ordering both the summary and `MessageMeter::report()` sort with, so
//! meter and trace breakdowns can never disagree on label order.

use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-site ring capacity: deep enough to hold every hop of a
/// matrix-sized scenario, small enough that 4096 sites stay cheap.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Tracing configuration carried by `Tracker::set_trace` and the
/// `DTRACK_TRACE` env knob. Off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false every [`SiteTracer::record`] call is a
    /// single relaxed load and branch.
    pub enabled: bool,
    /// Per-site ring capacity (events). Overflow overwrites oldest.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Tracing enabled at the default ring capacity.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Override the per-site ring capacity (clamped to ≥ 16).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(16);
        self
    }
}

/// Which actor recorded an event. Sites record their own hops and runs;
/// the coordinator lane exists only on the deterministic backend (the
/// only place a broadcast is visible pre-expansion); the driver lane
/// carries control-plane events (settle, faults, flow control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLane {
    /// A site, by id.
    Site(u32),
    /// The coordinator (deterministic backend only).
    Coordinator,
    /// The driving thread: settle, fault injection, flow control.
    Driver,
}

/// The event vocabulary. Message kinds are the meter's interned
/// `&'static str` labels, so trace and meter always agree on names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A site processed a run of items.
    ItemRun {
        /// Items in the run.
        items: u64,
    },
    /// A site sent an Up message to the coordinator.
    UpHop {
        /// Interned message kind label.
        kind: &'static str,
        /// Metered size in words.
        words: u64,
    },
    /// A site received a Down message from the coordinator.
    DownHop {
        /// Interned message kind label.
        kind: &'static str,
        /// Metered size in words.
        words: u64,
    },
    /// The coordinator broadcast a Down to all live sites (visible
    /// pre-expansion only on the deterministic backend).
    Broadcast {
        /// Interned message kind label.
        kind: &'static str,
        /// Live sites the broadcast expanded to.
        fanout: u32,
    },
    /// Fault injection killed a site.
    SiteKilled {
        /// The killed site.
        site: u32,
    },
    /// Fault injection stalled a site.
    SiteStalled {
        /// The stalled site.
        site: u32,
        /// Stall duration in microseconds.
        micros: u64,
    },
    /// The AIMD controller changed a site's window.
    WindowChange {
        /// The site whose window moved.
        site: u32,
        /// The new window (items).
        window: u32,
    },
    /// Free-running ingest blocked on the backlog budget.
    BackpressureWait {
        /// The site that was refused a ticket.
        site: u32,
    },
    /// A settle (quiescence wait) began.
    SettleBegin,
    /// A settle completed. `micros` is wall time on the parallel pool
    /// and always 0 on the deterministic backend, keeping its stream
    /// bit-identical.
    SettleEnd {
        /// Settle wall time in microseconds (0 when untimed).
        micros: u64,
    },
    /// Queue-depth high-water mark observed by the driver.
    QueueDepth {
        /// Backlog depth in items.
        depth: u64,
    },
}

impl TraceEventKind {
    /// Canonical label for per-kind grouping (sorted with
    /// [`canonical_kind_order`] everywhere).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::ItemRun { .. } => "item-run",
            TraceEventKind::UpHop { .. } => "up-hop",
            TraceEventKind::DownHop { .. } => "down-hop",
            TraceEventKind::Broadcast { .. } => "broadcast",
            TraceEventKind::SiteKilled { .. } => "site-killed",
            TraceEventKind::SiteStalled { .. } => "site-stalled",
            TraceEventKind::WindowChange { .. } => "window-change",
            TraceEventKind::BackpressureWait { .. } => "backpressure-wait",
            TraceEventKind::SettleBegin => "settle-begin",
            TraceEventKind::SettleEnd { .. } => "settle-end",
            TraceEventKind::QueueDepth { .. } => "queue-depth",
        }
    }
}

/// One recorded event: a logical clock tick, the lane that recorded it,
/// and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical clock stamp from the backend-wide counter.
    pub clock: u64,
    /// The recording actor.
    pub lane: TraceLane,
    /// The payload.
    pub kind: TraceEventKind,
}

/// Backend-wide shared trace state: the enable flag, the ring capacity,
/// and the logical clock. Created unconditionally at spawn and handed to
/// every worker as an `Arc`, so `set_trace` works after spawn without
/// re-plumbing a single channel.
#[derive(Debug)]
pub struct TraceShared {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    clock: AtomicU64,
}

impl Default for TraceShared {
    fn default() -> Self {
        TraceShared::new()
    }
}

impl TraceShared {
    /// Fresh shared state: disabled, default capacity, clock at zero.
    pub fn new() -> Self {
        TraceShared {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            clock: AtomicU64::new(0),
        }
    }

    /// Apply a config. Cold path: SeqCst stores, so a subsequent settle
    /// round-trip guarantees every worker observes the switch.
    pub fn configure(&self, config: TraceConfig) {
        self.capacity
            .store(config.ring_capacity.max(16), Ordering::SeqCst);
        self.enabled.store(config.enabled, Ordering::SeqCst);
    }

    /// Whether tracing is currently enabled (cold-path read).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }
}

/// One lane's bounded event ring. Owned by exactly one worker at a time
/// (site thread, pool exec slot, or the driver); the write cursor is a
/// relaxed atomic published as a progress hint, mirroring the runtimes'
/// `words_shared` idiom.
#[derive(Debug)]
pub struct SiteTracer {
    shared: Arc<TraceShared>,
    lane: TraceLane,
    ring: Vec<TraceEvent>,
    cursor: AtomicU64,
}

impl SiteTracer {
    /// A tracer for `lane` drawing clocks and config from `shared`.
    pub fn new(shared: Arc<TraceShared>, lane: TraceLane) -> Self {
        SiteTracer {
            shared,
            lane,
            ring: Vec::new(),
            cursor: AtomicU64::new(0),
        }
    }

    /// The lane this tracer records for.
    pub fn lane(&self) -> TraceLane {
        self.lane
    }

    /// Whether tracing is currently enabled (cold-path read; the hot path
    /// is the relaxed check inside [`SiteTracer::record`]). Drivers use
    /// this to skip wall-clock reads entirely when untraced.
    pub fn is_on(&self) -> bool {
        self.shared.is_enabled()
    }

    /// Record an event. With tracing off this is one relaxed load and a
    /// branch — the entire per-event cost the untraced hot path pays.
    #[inline]
    pub fn record(&mut self, kind: TraceEventKind) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.push(kind);
    }

    /// Slow path: stamp a clock and write into the ring, overwriting
    /// oldest on overflow.
    fn push(&mut self, kind: TraceEventKind) {
        let clock = self.shared.clock.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            clock,
            lane: self.lane,
            kind,
        };
        let capacity = self.shared.capacity.load(Ordering::Relaxed).max(16);
        let written = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        if self.ring.len() < capacity {
            // Ring capacity can only shrink between runs (configure is
            // driver-side and cold), so len < capacity means append.
            self.ring.push(event);
        } else {
            self.ring[written % capacity] = event;
        }
    }

    /// Events recorded so far (including any overwritten by overflow).
    pub fn written(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Snapshot the ring, oldest first. Non-destructive: `cost()`-style
    /// probes and the final `finish()` merge both call this.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let written = self.cursor.load(Ordering::Relaxed) as usize;
        let len = self.ring.len();
        if len == 0 {
            return Vec::new();
        }
        if written <= len {
            return self.ring.clone();
        }
        // Overflowed: the slot the next write would land on is the oldest.
        let start = written % len;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.ring[start..]);
        out.extend_from_slice(&self.ring[..start]);
        out
    }

    /// Events lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.written().saturating_sub(self.ring.len() as u64)
    }
}

/// The one canonical ordering for message/event kind labels. Both
/// `MessageMeter::report()` and [`TraceSummary`] sort with this, so the
/// meter breakdown and the trace breakdown can never disagree on order.
pub fn canonical_kind_order(a: &str, b: &str) -> CmpOrdering {
    a.cmp(b)
}

/// Sort `(label, payload)` rows into the canonical kind-label order.
pub fn sort_by_kind_label<T>(rows: &mut [(&'static str, T)]) {
    rows.sort_unstable_by(|a, b| canonical_kind_order(a.0, b.0));
}

/// Per-phase wall-time stats with a log2-bucket histogram, built from
/// `SettleEnd`-style duration events. All zeros on the deterministic
/// backend, whose durations are logical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Phase label (canonical kind order applies).
    pub phase: &'static str,
    /// Completed phase instances.
    pub count: u64,
    /// Sum of wall durations, microseconds.
    pub total_micros: u64,
    /// Worst single instance, microseconds.
    pub max_micros: u64,
    /// Sparse log2 histogram: `(floor(log2(micros+1)), count)`, sorted.
    pub log2_buckets: Vec<(u8, u64)>,
}

impl PhaseStats {
    fn new(phase: &'static str) -> Self {
        PhaseStats {
            phase,
            ..PhaseStats::default()
        }
    }

    fn add(&mut self, micros: u64) {
        self.count += 1;
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
        let bucket = (64 - (micros + 1).leading_zeros() - 1) as u8;
        match self.log2_buckets.binary_search_by_key(&bucket, |b| b.0) {
            Ok(i) => self.log2_buckets[i].1 += 1,
            Err(i) => self.log2_buckets.insert(i, (bucket, 1)),
        }
    }
}

/// In-memory sink: per-kind counts (canonically ordered), hop word
/// totals, drop accounting, and per-phase wall-time histograms. This is
/// what `Query::Trace` answers with.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Events in the merged snapshot (post-overflow).
    pub events: u64,
    /// Events lost to ring overflow across all lanes.
    pub dropped: u64,
    /// `(kind label, count)` rows in canonical kind order.
    pub by_kind: Vec<(&'static str, u64)>,
    /// Total metered words seen on Up hops.
    pub up_words: u64,
    /// Total metered words seen on Down hops.
    pub down_words: u64,
    /// Per-phase wall stats (currently: settle). Empty on untimed runs.
    pub phases: Vec<PhaseStats>,
}

impl TraceSummary {
    /// Build a summary from a merged event snapshot plus the lanes' drop
    /// count.
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> Self {
        let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
        let mut up_words = 0;
        let mut down_words = 0;
        let mut settle = PhaseStats::new("settle");
        for event in events {
            let label = event.kind.label();
            match by_kind.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((label, 1)),
            }
            match event.kind {
                TraceEventKind::UpHop { words, .. } => up_words += words,
                TraceEventKind::DownHop { words, .. } => down_words += words,
                TraceEventKind::SettleEnd { micros } => settle.add(micros),
                _ => {}
            }
        }
        sort_by_kind_label(&mut by_kind);
        let phases = if settle.count > 0 && settle.total_micros > 0 {
            vec![settle]
        } else {
            Vec::new()
        };
        TraceSummary {
            events: events.len() as u64,
            dropped,
            by_kind,
            up_words,
            down_words,
            phases,
        }
    }

    /// Count for one kind label, 0 if absent.
    pub fn count(&self, label: &str) -> u64 {
        self.by_kind
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace(events={}, dropped={}", self.events, self.dropped)?;
        if !self.by_kind.is_empty() {
            write!(f, ", kinds[")?;
            for (i, (label, n)) in self.by_kind.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{label}={n}")?;
            }
            write!(f, "]")?;
        }
        for p in &self.phases {
            write!(
                f,
                ", {}[count={} total_us={} max_us={}]",
                p.phase, p.count, p.total_micros, p.max_micros
            )?;
        }
        write!(f, ")")
    }
}

/// Merge per-lane snapshots into one clock-ordered stream. Stable on
/// equal clocks (cannot happen on the deterministic backend; on racy
/// backends lane order breaks ties deterministically).
pub fn merge_snapshots(mut lanes: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let total = lanes.iter().map(Vec::len).sum();
    let mut out: Vec<TraceEvent> = Vec::with_capacity(total);
    for lane in &mut lanes {
        out.append(lane);
    }
    out.sort_by(|a, b| a.clock.cmp(&b.clock).then(a.lane.cmp(&b.lane)));
    out
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn lane_tid(lane: TraceLane) -> u64 {
    match lane {
        TraceLane::Site(i) => i as u64,
        TraceLane::Coordinator => 1_000_000,
        TraceLane::Driver => 1_000_001,
    }
}

/// Serialize one event as a Chrome `trace_event` instant record. Logical
/// clocks map to the `ts` microsecond axis, so event spacing is ordinal,
/// not wall time.
fn chrome_record(event: &TraceEvent, out: &mut String) {
    let mut name = String::from(event.kind.label());
    let mut args = String::new();
    match event.kind {
        TraceEventKind::ItemRun { items } => args = format!("\"items\":{items}"),
        TraceEventKind::UpHop { kind, words } | TraceEventKind::DownHop { kind, words } => {
            name.push(':');
            json_escape(kind, &mut name);
            args = format!("\"words\":{words}");
        }
        TraceEventKind::Broadcast { kind, fanout } => {
            name.push(':');
            json_escape(kind, &mut name);
            args = format!("\"fanout\":{fanout}");
        }
        TraceEventKind::SiteKilled { site } => args = format!("\"site\":{site}"),
        TraceEventKind::SiteStalled { site, micros } => {
            args = format!("\"site\":{site},\"micros\":{micros}")
        }
        TraceEventKind::WindowChange { site, window } => {
            args = format!("\"site\":{site},\"window\":{window}")
        }
        TraceEventKind::BackpressureWait { site } => args = format!("\"site\":{site}"),
        TraceEventKind::SettleBegin => {}
        TraceEventKind::SettleEnd { micros } => args = format!("\"micros\":{micros}"),
        TraceEventKind::QueueDepth { depth } => args = format!("\"depth\":{depth}"),
    }
    let mut escaped = String::new();
    json_escape(&name, &mut escaped);
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"dtrack\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
        escaped,
        event.clock,
        lane_tid(event.lane),
        args
    ));
}

/// Write a merged event stream as Chrome `trace_event` JSON (load via
/// `chrome://tracing` or Perfetto).
pub fn export_chrome<W: Write>(events: &[TraceEvent], mut w: W) -> io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        chrome_record(event, &mut out);
    }
    out.push_str("\n]}\n");
    w.write_all(out.as_bytes())
}

/// [`export_chrome`] to a file path, creating parent directories.
pub fn write_chrome_file<P: AsRef<Path>>(events: &[TraceEvent], path: P) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    export_chrome(events, io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(shared: &Arc<TraceShared>) -> SiteTracer {
        SiteTracer::new(Arc::clone(shared), TraceLane::Site(0))
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let shared = Arc::new(TraceShared::new());
        let mut t = tracer(&shared);
        t.record(TraceEventKind::SettleBegin);
        assert_eq!(t.written(), 0);
        assert!(t.snapshot().is_empty());
        // The clock never ticked either — enabling later starts at 0.
        shared.configure(TraceConfig::on());
        t.record(TraceEventKind::SettleBegin);
        assert_eq!(t.snapshot()[0].clock, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let shared = Arc::new(TraceShared::new());
        shared.configure(TraceConfig::on().with_ring_capacity(16));
        let mut t = tracer(&shared);
        for i in 0..20u64 {
            t.record(TraceEventKind::ItemRun { items: i });
        }
        assert_eq!(t.written(), 20);
        assert_eq!(t.dropped(), 4);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 16);
        // Oldest first: runs 4..20 survive, in order.
        for (i, ev) in snap.iter().enumerate() {
            assert_eq!(
                ev.kind,
                TraceEventKind::ItemRun {
                    items: 4 + i as u64
                }
            );
        }
        let clocks: Vec<u64> = snap.iter().map(|e| e.clock).collect();
        let mut sorted = clocks.clone();
        sorted.sort_unstable();
        assert_eq!(clocks, sorted);
    }

    #[test]
    fn summary_counts_sorted_canonically() {
        let shared = Arc::new(TraceShared::new());
        shared.configure(TraceConfig::on());
        let mut t = tracer(&shared);
        t.record(TraceEventKind::UpHop {
            kind: "Update",
            words: 2,
        });
        t.record(TraceEventKind::DownHop {
            kind: "Sync",
            words: 3,
        });
        t.record(TraceEventKind::UpHop {
            kind: "Update",
            words: 5,
        });
        t.record(TraceEventKind::SettleEnd { micros: 100 });
        let snap = t.snapshot();
        let summary = TraceSummary::from_events(&snap, t.dropped());
        assert_eq!(summary.events, 4);
        assert_eq!(summary.up_words, 7);
        assert_eq!(summary.down_words, 3);
        assert_eq!(summary.count("up-hop"), 2);
        assert_eq!(summary.count("down-hop"), 1);
        let labels: Vec<&str> = summary.by_kind.iter().map(|(l, _)| *l).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable_by(|a, b| canonical_kind_order(a, b));
        assert_eq!(labels, sorted);
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].count, 1);
        assert_eq!(summary.phases[0].max_micros, 100);
    }

    #[test]
    fn merge_orders_by_clock_then_lane() {
        let shared = Arc::new(TraceShared::new());
        shared.configure(TraceConfig::on());
        let mut a = SiteTracer::new(Arc::clone(&shared), TraceLane::Site(0));
        let mut b = SiteTracer::new(Arc::clone(&shared), TraceLane::Site(1));
        a.record(TraceEventKind::SettleBegin);
        b.record(TraceEventKind::SettleBegin);
        a.record(TraceEventKind::SettleEnd { micros: 0 });
        let merged = merge_snapshots(vec![a.snapshot(), b.snapshot()]);
        let clocks: Vec<u64> = merged.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![0, 1, 2]);
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let shared = Arc::new(TraceShared::new());
        shared.configure(TraceConfig::on());
        let mut t = tracer(&shared);
        t.record(TraceEventKind::Broadcast {
            kind: "Start",
            fanout: 64,
        });
        let mut buf = Vec::new();
        export_chrome(&t.snapshot(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("broadcast:Start"));
        assert!(s.contains("\"fanout\":64"));
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
        let brackets = s.matches('[').count();
        assert_eq!(brackets, s.matches(']').count());
    }

    #[test]
    fn phase_histogram_buckets_by_log2() {
        let mut p = PhaseStats::new("settle");
        p.add(0); // bucket 0
        p.add(1); // bucket 1
        p.add(1000); // bucket 9
        p.add(1500); // bucket 10
        assert_eq!(p.count, 4);
        assert_eq!(p.max_micros, 1500);
        assert_eq!(p.log2_buckets, vec![(0, 1), (1, 1), (9, 1), (10, 1)]);
    }
}
