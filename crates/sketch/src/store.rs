//! Store traits that let protocol sites swap exact local state for
//! small-space sketches.
//!
//! The paper first presents each protocol with exact local state, then
//! notes ("Implementing with small space") that the exact state can be
//! replaced by a sketch with error Θ(ε) without changing the asymptotic
//! communication bounds. [`FreqStore`] and [`OrderStore`] capture exactly
//! the operations the protocols need, and are implemented by both the exact
//! stores and the sketches.

use dtrack_hash::FxHashMap;

use crate::exact::{ExactFrequencies, ExactOrdered};
use crate::gk::GreenwaldKhanna;
use crate::spacesaving::SpaceSaving;
use crate::summary::EquiDepthSummary;

/// Local frequency state for a heavy-hitter site.
///
/// The site's job (§2.1) is to detect when the *unreported* local increment
/// of some item reaches a threshold. The store tracks, per item, how much
/// has arrived beyond what was last reported, in a way that guarantees the
/// coordinator's accumulated total **never exceeds** the true local count
/// (the safe direction for the paper's invariant (2)).
pub trait FreqStore {
    /// Record one arrival of `x`; returns the current unreported amount
    /// for `x` (a lower bound on the true unreported arrivals).
    fn observe(&mut self, x: u64) -> u64;

    /// Mark `delta` units of `x` as reported to the coordinator.
    fn mark_reported(&mut self, x: u64, delta: u64);

    /// The current unreported amount for `x` without recording an arrival
    /// (used by deterministic adversaries to inspect trigger distances,
    /// per the Lemma 2.3 model where thresholds are known to the
    /// adversary).
    fn unreported(&self, x: u64) -> u64;

    /// Total number of items observed at this site.
    fn total(&self) -> u64;

    /// Number of stored entries — the per-site space the experiments
    /// compare against the paper's O(1/ε) claim.
    fn entries(&self) -> usize;
}

/// Exact frequency store: a hash map of counts plus reported amounts.
#[derive(Debug, Clone, Default)]
pub struct ExactFreqStore {
    counts: ExactFrequencies,
    reported: FxHashMap<u64, u64>,
}

impl ExactFreqStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact local count of `x` (test/oracle access).
    pub fn count(&self, x: u64) -> u64 {
        self.counts.count(x)
    }
}

impl FreqStore for ExactFreqStore {
    fn observe(&mut self, x: u64) -> u64 {
        let c = self.counts.observe(x);
        c - self.reported.get(&x).copied().unwrap_or(0)
    }

    fn mark_reported(&mut self, x: u64, delta: u64) {
        *self.reported.entry(x).or_insert(0) += delta;
        debug_assert!(self.reported[&x] <= self.counts.count(x));
    }

    fn unreported(&self, x: u64) -> u64 {
        self.counts.count(x) - self.reported.get(&x).copied().unwrap_or(0)
    }

    fn total(&self) -> u64 {
        self.counts.total()
    }

    fn entries(&self) -> usize {
        self.counts.distinct()
    }
}

/// SpaceSaving-backed frequency store with O(capacity) space.
///
/// The counter `tag` stores the reported amount. Reporting is driven by the
/// sketch's *lower bound* `count - error`, which only advances on genuine
/// arrivals of the monitored item, so everything ever reported is backed by
/// true arrivals and the coordinator's total stays a lower bound on the
/// true local count. When a counter is taken over, the new item's reported
/// mark starts at its takeover lower bound, so pre-takeover mass is never
/// re-reported; the evicted item's unreported mass (at most one threshold)
/// is forfeited, which only deepens the underestimate.
#[derive(Debug, Clone)]
pub struct SketchFreqStore {
    sketch: SpaceSaving,
}

impl SketchFreqStore {
    /// Store with `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        SketchFreqStore {
            sketch: SpaceSaving::new(capacity),
        }
    }

    /// Store sized for local error `epsilon * |Sj|`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        SketchFreqStore {
            sketch: SpaceSaving::with_epsilon(epsilon),
        }
    }

    /// The underlying sketch (test/oracle access).
    pub fn sketch(&self) -> &SpaceSaving {
        &self.sketch
    }
}

impl FreqStore for SketchFreqStore {
    fn observe(&mut self, x: u64) -> u64 {
        let evicted = self.sketch.observe(x);
        if evicted.is_some() {
            // x just took over a counter: pretend everything up to the
            // takeover lower bound has been reported so it is never
            // re-reported after a previous residency.
            let lb = self.sketch.lower_bound(x);
            if let Some(tag) = self.sketch.tag_mut(x) {
                *tag = lb;
            }
            return 0;
        }
        let c = self.sketch.get(x).expect("x was just observed");
        (c.count - c.error).saturating_sub(c.tag)
    }

    fn mark_reported(&mut self, x: u64, delta: u64) {
        if let Some(tag) = self.sketch.tag_mut(x) {
            *tag += delta;
        }
    }

    fn unreported(&self, x: u64) -> u64 {
        self.sketch
            .get(x)
            .map_or(0, |c| (c.count - c.error).saturating_sub(c.tag))
    }

    fn total(&self) -> u64 {
        self.sketch.total()
    }

    fn entries(&self) -> usize {
        self.sketch.len()
    }
}

/// Local ordered state for a quantile-tracking site: rank and range-count
/// queries plus equi-depth summary extraction.
pub trait OrderStore {
    /// Record one arrival of `x`.
    fn insert(&mut self, x: u64);

    /// Total number of items observed.
    fn total(&self) -> u64;

    /// (Estimate of) `|{a : a < x}|`.
    fn rank_lt(&self, x: u64) -> u64;

    /// Upper bound on the error of [`Self::rank_lt`] and
    /// [`Self::range_count`] (0 for exact stores).
    fn rank_error(&self) -> u64;

    /// (Estimate of) the number of items in the inclusive range `[lo, hi]`.
    fn range_count(&self, lo: u64, hi: u64) -> u64;

    /// An equi-depth summary with separators every `step` ranks.
    fn summary(&self, step: u64) -> EquiDepthSummary;

    /// An equi-depth summary of only the items in the value range
    /// `[lo, hi)` (`hi = None` means unbounded above), with separators
    /// every `step` ranks *within the range*. This is what a site ships
    /// when the coordinator rebuilds a single interval or subtree (§3.1
    /// interval splits, §4 partial rebuilds).
    fn summary_range(&self, lo: u64, hi: Option<u64>, step: u64) -> EquiDepthSummary;

    /// Number of stored entries (space usage).
    fn entries(&self) -> usize;
}

impl OrderStore for ExactOrdered {
    fn insert(&mut self, x: u64) {
        ExactOrdered::insert(self, x);
    }

    fn total(&self) -> u64 {
        self.len()
    }

    fn rank_lt(&self, x: u64) -> u64 {
        ExactOrdered::rank_lt(self, x)
    }

    fn rank_error(&self) -> u64 {
        0
    }

    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        ExactOrdered::range_count(self, lo, hi)
    }

    fn summary(&self, step: u64) -> EquiDepthSummary {
        EquiDepthSummary::from_sorted_counts(self.iter(), self.len(), step)
    }

    fn summary_range(&self, lo: u64, hi: Option<u64>, step: u64) -> EquiDepthSummary {
        let step = step.max(1);
        let lo_rank = ExactOrdered::rank_lt(self, lo);
        let hi_rank = hi.map_or(self.len(), |h| ExactOrdered::rank_lt(self, h));
        let cnt = hi_rank.saturating_sub(lo_rank);
        let mut seps = Vec::new();
        let mut r = step;
        while r <= cnt {
            if let Some(v) = self.select(lo_rank + r - 1) {
                seps.push(v);
            }
            r += step;
        }
        EquiDepthSummary::from_parts(seps, cnt, step)
    }

    fn entries(&self) -> usize {
        // Distinct keys stored.
        self.distinct()
    }
}

impl OrderStore for GreenwaldKhanna {
    fn insert(&mut self, x: u64) {
        self.observe(x);
    }

    fn total(&self) -> u64 {
        GreenwaldKhanna::total(self)
    }

    fn rank_lt(&self, x: u64) -> u64 {
        if x == 0 {
            return 0;
        }
        self.rank_estimate(x - 1)
    }

    fn rank_error(&self) -> u64 {
        (self.epsilon() * GreenwaldKhanna::total(self) as f64).ceil() as u64 + 1
    }

    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        let hi_rank = self.rank_estimate(hi);
        let lo_rank = OrderStore::rank_lt(self, lo);
        hi_rank.saturating_sub(lo_rank)
    }

    fn summary(&self, step: u64) -> EquiDepthSummary {
        self.equi_depth(step)
    }

    fn summary_range(&self, lo: u64, hi: Option<u64>, step: u64) -> EquiDepthSummary {
        let step = step.max(1);
        let lo_rank = OrderStore::rank_lt(self, lo);
        let hi_rank = hi.map_or(GreenwaldKhanna::total(self), |h| {
            OrderStore::rank_lt(self, h)
        });
        let cnt = hi_rank.saturating_sub(lo_rank);
        let gk_err = OrderStore::rank_error(self);
        let mut seps = Vec::new();
        let mut r = step;
        while r <= cnt {
            if let Some(v) = self.select_rank(lo_rank + r) {
                // Clamp into the requested range; the sketch error can push
                // a selected value slightly outside it.
                let mut v = v.max(lo);
                if let Some(h) = hi {
                    v = v.min(h.saturating_sub(1));
                }
                seps.push(v);
            }
            r += step;
        }
        seps.sort_unstable();
        EquiDepthSummary::from_parts(seps, cnt, step).with_sep_error(2 * gk_err + 2)
    }

    fn entries(&self) -> usize {
        self.tuple_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_freq_store_tracks_unreported() {
        let mut s = ExactFreqStore::new();
        assert_eq!(s.observe(7), 1);
        assert_eq!(s.observe(7), 2);
        s.mark_reported(7, 2);
        assert_eq!(s.observe(7), 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn sketch_freq_store_never_over_reports() {
        // Reports accumulated through the store must never exceed the true
        // count, even across evictions and re-entries.
        let mut s = SketchFreqStore::new(3);
        let mut truth: std::collections::HashMap<u64, u64> = Default::default();
        let mut reported: std::collections::HashMap<u64, u64> = Default::default();
        // Adversarial pattern: rotate 6 items through 3 counters.
        let stream: Vec<u64> = (0..600u64).map(|i| i % 6).collect();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
            let unrep = s.observe(x);
            // "Protocol" reports everything unreported immediately.
            if unrep > 0 {
                s.mark_reported(x, unrep);
                *reported.entry(x).or_insert(0) += unrep;
            }
        }
        for (&x, &r) in &reported {
            assert!(
                r <= truth[&x],
                "item {x}: reported {r} > true {}",
                truth[&x]
            );
        }
    }

    #[test]
    fn sketch_freq_store_reports_most_of_a_heavy_item() {
        let mut s = SketchFreqStore::new(10);
        let mut reported = 0u64;
        let mut stream = Vec::new();
        for i in 0..3000u64 {
            stream.push(if i % 2 == 0 { 42 } else { 1000 + i % 30 });
        }
        for &x in &stream {
            let unrep = s.observe(x);
            if x == 42 && unrep > 0 {
                s.mark_reported(x, unrep);
                reported += unrep;
            }
        }
        let truth = stream.iter().filter(|&&x| x == 42).count() as u64;
        assert!(reported <= truth);
        // The heavy item is never evicted once established, so nearly all
        // of its mass is reportable (slack: sketch error n/capacity).
        let slack = stream.len() as u64 / 10;
        assert!(
            truth - reported <= slack,
            "reported {reported} of {truth}, slack {slack}"
        );
        assert!(s.entries() <= 10);
    }

    #[test]
    fn order_store_exact_matches_direct_calls() {
        let mut t = ExactOrdered::new();
        for v in [5u64, 1, 9, 5, 3] {
            OrderStore::insert(&mut t, v);
        }
        assert_eq!(OrderStore::total(&t), 5);
        assert_eq!(OrderStore::rank_lt(&t, 5), 2);
        assert_eq!(OrderStore::rank_error(&t), 0);
        assert_eq!(OrderStore::range_count(&t, 3, 5), 3);
        let s = OrderStore::summary(&t, 2);
        assert_eq!(s.total(), 5);
        assert!(!s.separators().is_empty());
    }

    #[test]
    fn order_store_gk_bounded_error() {
        let mut gk = GreenwaldKhanna::new(0.02);
        let vals: Vec<u64> = (0..5000).map(|i| (i * 13) % 2000).collect();
        for &v in &vals {
            OrderStore::insert(&mut gk, v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let err = OrderStore::rank_error(&gk);
        for probe in (0..2000).step_by(97) {
            let truth = sorted.partition_point(|&y| y < probe) as u64;
            let est = OrderStore::rank_lt(&gk, probe);
            assert!(
                est.abs_diff(truth) <= err + 1,
                "probe {probe}: est {est} truth {truth} err bound {err}"
            );
        }
        // Range counts: error at most twice the rank error.
        let lo = 500u64;
        let hi = 1500u64;
        let truth = sorted.partition_point(|&y| y <= hi) as u64
            - sorted.partition_point(|&y| y < lo) as u64;
        let est = OrderStore::range_count(&gk, lo, hi);
        assert!(est.abs_diff(truth) <= 2 * err + 2);
        assert!(OrderStore::entries(&gk) < 5000);
    }

    #[test]
    fn gk_rank_lt_zero_is_zero() {
        let mut gk = GreenwaldKhanna::new(0.1);
        for v in 0..100u64 {
            OrderStore::insert(&mut gk, v);
        }
        assert_eq!(OrderStore::rank_lt(&gk, 0), 0);
    }
}
