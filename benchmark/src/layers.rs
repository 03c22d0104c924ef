//! Protocol decorators for the traced run and the attribution self-test.
//!
//! [`Timed`] wraps any [`Protocol`] and times every call into the `core`
//! layer through the public traits: `Site::on_item`/`on_items`,
//! `Site::on_message`, `Coordinator::on_message` and `Protocol::query`.
//! Hot-path calls read the time-stamp counter. `Instant::now` costs about
//! 40 ns on a 2-vCPU Xeon VM: timing every call with it
//! slowed det-allq by a third and the calibrated split overshot the
//! untraced total. Timing one call in 16 instead turned a host preemption
//! inside a timed call into 16 times its weight. Each site and the
//! coordinator keep plain counters of their own and add them to the
//! shared [`Sink`] when the runtime drops them at `Tracker::finish`, so the
//! hot path takes no lock. Every query is timed and recorded under the
//! sink's lock as it happens, so the benchmark can pair it with the
//! `Tracker::query` call it timed itself.
//!
//! [`Spin`] adds a fixed amount of busy work to every `Site::on_items` or
//! every `Coordinator::on_message` call. Wrapped inside [`Timed`], it is
//! a known slowdown of one layer that the traced run must attribute to
//! that layer and no other.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dtrack_sim::{Answer, Coordinator, Outbox, Protocol, Query, QueryError, Site, SiteId};

/// Calls into one entry point of the `core` layer, every one timed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    /// Calls made.
    pub calls: u64,
    /// Work units they did: items consumed, or one per message.
    pub units: u64,
    /// Time-stamp-counter ticks measured inside them.
    pub ticks: u64,
}

impl Calls {
    fn add(&mut self, other: &Calls) {
        self.calls += other.calls;
        self.units += other.units;
        self.ticks += other.ticks;
    }

    /// Self time of all calls in ns, each span corrected by what an empty
    /// one reads.
    pub fn self_ns(&self, cost: &SpanCost) -> f64 {
        self.ticks as f64 / cost.ticks_per_ns - self.calls as f64 * cost.call_inner_ns
    }
}

/// The time-stamp counter: a few cycles to read where `Instant::now`
/// costs tens of ns, which is what lets the decorator time every call.
/// On hosts without one, nanoseconds since the first read.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; it only reads the counter.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Run `f` as one call of `calls` and time it; `units` counts the work
/// the call did from its result.
#[inline(always)]
pub fn record<R>(calls: &mut Calls, f: impl FnOnce() -> R, units: impl FnOnce(&R) -> u64) -> R {
    let start = ticks();
    let out = f();
    calls.ticks += ticks().wrapping_sub(start);
    calls.calls += 1;
    calls.units += units(&out);
    out
}

/// What the decorated sites and coordinator counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// `Site::on_item`/`on_items`; units are items consumed.
    pub items: Calls,
    /// `Site::on_message`: downstream messages delivered.
    pub downs: Calls,
    /// `Coordinator::on_message`: upstream messages delivered.
    pub ups: Calls,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.items.add(&other.items);
        self.downs.add(&other.downs);
        self.ups.add(&other.ups);
    }
}

/// Where one tracker's decorated sites and coordinator report.
#[derive(Debug, Default)]
pub struct Sink {
    totals: Mutex<Totals>,
    queries: Mutex<Vec<u64>>,
}

impl Sink {
    /// Totals flushed so far (complete once the tracker is finished).
    pub fn totals(&self) -> Totals {
        self.totals.lock().map(|t| *t).unwrap_or_default()
    }

    /// Measured time of each `Protocol::query` call, in call order.
    pub fn query_ns(&self) -> Vec<u64> {
        self.queries.lock().map(|q| q.clone()).unwrap_or_default()
    }

    fn flush(&self, local: &Totals) {
        // Runs in `Drop`: a poisoned lock loses the counts, never panics.
        if let Ok(mut totals) = self.totals.lock() {
            totals.add(local);
        }
    }
}

/// Run `f` and add its measured duration to `ns`: the spans that are
/// always timed (facade calls and `Protocol::query`).
#[inline(always)]
pub fn span<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *ns += start.elapsed().as_nanos() as u64;
    out
}

/// What the instrumentation costs, measured on empty bodies.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Time-stamp-counter ticks per nanosecond.
    pub ticks_per_ns: f64,
    /// What an empty [`record`] call reads, in ns: subtracted from every
    /// decorated call.
    pub call_inner_ns: f64,
    /// Wall time an empty [`record`] call adds around it.
    pub call_ns: f64,
    /// What an empty [`span`] reads (facade calls and `Protocol::query`,
    /// timed with `Instant`).
    pub span_inner_ns: f64,
    /// Wall time an empty [`span`] adds around it.
    pub span_ns: f64,
}

impl SpanCost {
    /// Ticks per ns over a 50 ms window, then medians of seven rounds of
    /// 320 000 empty calls each way.
    pub fn calibrate() -> SpanCost {
        const CALLS: u32 = 320_000;
        let (start, t0) = (Instant::now(), ticks());
        while start.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::spin_loop();
        }
        let ticks_per_ns = ticks().wrapping_sub(t0) as f64 / start.elapsed().as_nanos() as f64;

        let (mut call_inner, mut calls) = (Vec::new(), Vec::new());
        let (mut span_inner, mut spans) = (Vec::new(), Vec::new());
        for _ in 0..7 {
            let mut counted = Calls::default();
            let start = Instant::now();
            for i in 0..CALLS {
                record(&mut counted, || black_box(i), |_| 1);
            }
            calls.push(start.elapsed().as_nanos() as f64 / f64::from(CALLS));
            call_inner.push(counted.ticks as f64 / ticks_per_ns / f64::from(CALLS));

            let mut ns = 0u64;
            let start = Instant::now();
            for i in 0..CALLS {
                span(&mut ns, || black_box(i));
            }
            spans.push(start.elapsed().as_nanos() as f64 / f64::from(CALLS));
            span_inner.push(ns as f64 / f64::from(CALLS));
        }
        SpanCost {
            ticks_per_ns,
            call_inner_ns: crate::stats::median(&call_inner),
            call_ns: crate::stats::median(&calls),
            span_inner_ns: crate::stats::median(&span_inner),
            span_ns: crate::stats::median(&spans),
        }
    }
}

/// The timing decorator (see the module docs).
#[derive(Debug, Clone)]
pub struct Timed<P> {
    inner: P,
    sink: Arc<Sink>,
}

impl<P> Timed<P> {
    /// Time `inner`, reporting into `sink`.
    pub fn new(inner: P, sink: Arc<Sink>) -> Self {
        Timed { inner, sink }
    }
}

/// A site whose calls are timed.
pub struct TimedSite<S> {
    inner: S,
    sink: Arc<Sink>,
    local: Totals,
}

impl<S> Drop for TimedSite<S> {
    fn drop(&mut self) {
        self.sink.flush(&self.local);
    }
}

impl<S: Site<Item = u64>> Site for TimedSite<S> {
    type Item = u64;
    type Up = S::Up;
    type Down = S::Down;

    fn on_item(&mut self, item: u64, out: &mut Vec<S::Up>) {
        let inner = &mut self.inner;
        let calls = &mut self.local.items;
        record(calls, || inner.on_item(item, out), |_| 1);
    }

    fn on_items(&mut self, items: &[u64], out: &mut Vec<S::Up>) -> usize {
        let inner = &mut self.inner;
        let calls = &mut self.local.items;
        record(calls, || inner.on_items(items, out), |&n| n as u64)
    }

    fn on_message(&mut self, msg: &S::Down, out: &mut Vec<S::Up>) {
        let inner = &mut self.inner;
        let calls = &mut self.local.downs;
        record(calls, || inner.on_message(msg, out), |_| 1);
    }
}

/// A coordinator whose calls are timed.
pub struct TimedCoord<C> {
    inner: C,
    sink: Arc<Sink>,
    local: Totals,
}

impl<C> Drop for TimedCoord<C> {
    fn drop(&mut self) {
        self.sink.flush(&self.local);
    }
}

impl<C: Coordinator> Coordinator for TimedCoord<C> {
    type Up = C::Up;
    type Down = C::Down;

    fn on_message(&mut self, from: SiteId, msg: C::Up, out: &mut Outbox<C::Down>) {
        let inner = &mut self.inner;
        let calls = &mut self.local.ups;
        record(calls, || inner.on_message(from, msg, out), |_| 1);
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Site = TimedSite<P::Site>;
    type Up = P::Up;
    type Down = P::Down;
    type Coordinator = TimedCoord<P::Coordinator>;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sites_hint(&self) -> Option<u32> {
        self.inner.sites_hint()
    }

    fn build(&self, k: u32) -> Result<(Vec<Self::Site>, Self::Coordinator), String> {
        let (sites, coordinator) = self.inner.build(k)?;
        let sites = sites
            .into_iter()
            .map(|inner| TimedSite {
                inner,
                sink: Arc::clone(&self.sink),
                local: Totals::default(),
            })
            .collect();
        let coordinator = TimedCoord {
            inner: coordinator,
            sink: Arc::clone(&self.sink),
            local: Totals::default(),
        };
        Ok((sites, coordinator))
    }

    fn query(&self, c: &Self::Coordinator, query: Query) -> Result<Answer, QueryError> {
        let mut ns = 0;
        let answer = span(&mut ns, || self.inner.query(&c.inner, query));
        if let Ok(mut queries) = self.sink.queries.lock() {
            queries.push(ns);
        }
        answer
    }

    fn answers(&self, c: &Self::Coordinator) -> Result<Vec<Answer>, QueryError> {
        self.inner.answers(&c.inner)
    }
}

/// A fixed amount of dependent integer work: `iters` multiply-adds the
/// compiler cannot fold away.
#[inline(never)]
pub fn busy(iters: u64) {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    black_box(x);
}

/// Busy-work iterations per nanosecond on this host (median of 7 rounds).
pub fn busy_iters_per_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let rates: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            busy(ITERS);
            ITERS as f64 / start.elapsed().as_nanos().max(1) as f64
        })
        .collect();
    crate::stats::median(&rates)
}

/// The slowdown decorator of the attribution self-test (see the module
/// docs): `site_iters` of [`busy`] work before every `Site::on_items`
/// call and `coord_iters` before every `Coordinator::on_message` call.
#[derive(Debug, Clone)]
pub struct Spin<P> {
    inner: P,
    site_iters: u64,
    coord_iters: u64,
}

impl<P> Spin<P> {
    /// Slow `inner` down by the given busy-work per call.
    pub fn new(inner: P, site_iters: u64, coord_iters: u64) -> Self {
        Spin {
            inner,
            site_iters,
            coord_iters,
        }
    }
}

/// A site that spins before every `on_items` call.
pub struct SpinSite<S> {
    inner: S,
    iters: u64,
}

impl<S: Site<Item = u64>> Site for SpinSite<S> {
    type Item = u64;
    type Up = S::Up;
    type Down = S::Down;

    fn on_item(&mut self, item: u64, out: &mut Vec<S::Up>) {
        self.inner.on_item(item, out);
    }

    fn on_items(&mut self, items: &[u64], out: &mut Vec<S::Up>) -> usize {
        busy(self.iters);
        self.inner.on_items(items, out)
    }

    fn on_message(&mut self, msg: &S::Down, out: &mut Vec<S::Up>) {
        self.inner.on_message(msg, out);
    }
}

/// A coordinator that spins before every `on_message` call.
pub struct SpinCoord<C> {
    inner: C,
    iters: u64,
}

impl<C: Coordinator> Coordinator for SpinCoord<C> {
    type Up = C::Up;
    type Down = C::Down;

    fn on_message(&mut self, from: SiteId, msg: C::Up, out: &mut Outbox<C::Down>) {
        busy(self.iters);
        self.inner.on_message(from, msg, out);
    }
}

impl<P: Protocol> Protocol for Spin<P> {
    type Site = SpinSite<P::Site>;
    type Up = P::Up;
    type Down = P::Down;
    type Coordinator = SpinCoord<P::Coordinator>;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sites_hint(&self) -> Option<u32> {
        self.inner.sites_hint()
    }

    fn build(&self, k: u32) -> Result<(Vec<Self::Site>, Self::Coordinator), String> {
        let (sites, coordinator) = self.inner.build(k)?;
        let sites = sites
            .into_iter()
            .map(|inner| SpinSite {
                inner,
                iters: self.site_iters,
            })
            .collect();
        let coordinator = SpinCoord {
            inner: coordinator,
            iters: self.coord_iters,
        };
        Ok((sites, coordinator))
    }

    fn query(&self, c: &Self::Coordinator, query: Query) -> Result<Answer, QueryError> {
        self.inner.query(&c.inner, query)
    }

    fn answers(&self, c: &Self::Coordinator) -> Result<Vec<Answer>, QueryError> {
        self.inner.answers(&c.inner)
    }
}
