//! Greenwald–Khanna ε-approximate quantile summary (the paper's citation
//! \[18\]).
//!
//! Maintains a sorted list of tuples `(v, g, Δ)` over a stream of n items
//! such that for every tuple `g + Δ <= ⌊2εn⌋`, which implies any rank query
//! can be answered within `εn`. Space is O((1/ε)·log(εn)) — exactly the
//! per-site space the paper quotes for the small-space quantile tracker
//! (§3.1 "Implementing with small space").
//!
//! Rank convention: `rank(x)` estimates `|{a : a <= x}|`.

use crate::summary::EquiDepthSummary;

#[derive(Debug, Clone, Copy)]
struct Tuple {
    v: u64,
    g: u64,
    delta: u64,
}

/// The Greenwald–Khanna summary.
#[derive(Debug, Clone)]
pub struct GreenwaldKhanna {
    epsilon: f64,
    n: u64,
    tuples: Vec<Tuple>,
    since_compress: u64,
    compress_every: u64,
}

impl GreenwaldKhanna {
    /// Summary with rank error `epsilon * n`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in (0, 0.5].
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 0.5,
            "epsilon must be in (0, 0.5], got {epsilon}"
        );
        GreenwaldKhanna {
            epsilon,
            n: 0,
            tuples: Vec::new(),
            since_compress: 0,
            compress_every: (1.0 / (2.0 * epsilon)).ceil() as u64,
        }
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of items observed.
    pub fn total(&self) -> u64 {
        self.n
    }

    /// Number of stored tuples (the space usage).
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// Record one occurrence of `v`.
    pub fn observe(&mut self, v: u64) {
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        self.n += 1;
        let idx = self.tuples.partition_point(|t| t.v < v);
        let delta = if idx == 0 || idx == self.tuples.len() {
            0
        } else {
            band.saturating_sub(1)
        };
        self.tuples.insert(idx, Tuple { v, g: 1, delta });
        self.since_compress += 1;
        if self.since_compress >= self.compress_every {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// Merge adjacent tuples while preserving the `g + Δ <= ⌊2εn⌋`
    /// invariant. The extreme tuples (exact min and max) are never merged
    /// away.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let threshold = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        let mut merged: Vec<Tuple> = Vec::with_capacity(self.tuples.len());
        let mut cur = self.tuples.pop().expect("len >= 3");
        while self.tuples.len() > 1 {
            let t = self.tuples.pop().expect("len > 1");
            if t.g + cur.g + cur.delta <= threshold {
                cur.g += t.g;
            } else {
                merged.push(std::mem::replace(&mut cur, t));
            }
        }
        merged.push(cur);
        if let Some(first) = self.tuples.pop() {
            merged.push(first);
        }
        merged.reverse();
        self.tuples = merged;
    }

    /// An item whose rank is within `εn` of `⌈phi * n⌉`. Returns `None` on
    /// an empty summary.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let r = ((phi * self.n as f64).ceil() as u64).clamp(1, self.n);
        let e = (self.epsilon * self.n as f64).ceil() as u64;
        let mut rmin = 0u64;
        for t in &self.tuples {
            rmin += t.g;
            let rmax = rmin + t.delta;
            if r <= rmin + e && rmax <= r + e {
                return Some(t.v);
            }
        }
        self.tuples.last().map(|t| t.v)
    }

    /// Bounds `(lo, hi)` on `rank(x) = |{a : a <= x}|`.
    pub fn rank_bounds(&self, x: u64) -> (u64, u64) {
        if self.n == 0 {
            return (0, 0);
        }
        let mut rmin_prev = 0u64;
        let mut rmax_prev = 0u64;
        let mut rmin = 0u64;
        for t in &self.tuples {
            rmin += t.g;
            if t.v > x {
                // rank(x) is at least rmin of the predecessor and at most
                // one less than the rmax of this tuple.
                let hi = (rmin + t.delta).saturating_sub(1);
                return (rmin_prev, hi.max(rmax_prev));
            }
            rmin_prev = rmin;
            rmax_prev = rmin + t.delta;
        }
        (rmin_prev, self.n)
    }

    /// Point estimate of `rank(x)` (midpoint of [`Self::rank_bounds`]).
    pub fn rank_estimate(&self, x: u64) -> u64 {
        let (lo, hi) = self.rank_bounds(x);
        lo + (hi - lo) / 2
    }

    /// A stored value whose rank is within the sketch error of `r`
    /// (1-based). Returns `None` on an empty summary.
    pub fn select_rank(&self, r: u64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let r = r.clamp(1, self.n);
        let e = (self.epsilon * self.n as f64).ceil() as u64;
        let mut rmin = 0u64;
        for t in &self.tuples {
            rmin += t.g;
            if rmin + e >= r {
                return Some(t.v);
            }
        }
        self.tuples.last().map(|t| t.v)
    }

    /// Extract an equi-depth summary with separators roughly every `step`
    /// ranks. The summary's rank error accounts for both the separator
    /// spacing and this sketch's own `εn` error.
    pub fn equi_depth(&self, step: u64) -> EquiDepthSummary {
        let step = step.max(1);
        let gk_err = (self.epsilon * self.n as f64).ceil() as u64;
        if self.n == 0 {
            return EquiDepthSummary::from_parts(Vec::new(), 0, step);
        }
        let mut seps = Vec::new();
        let mut next_rank = step;
        // For each target rank r, pick the first tuple whose rmin reaches
        // r - gk_err; the GK invariant bounds its true rank within
        // [r - gk_err, r + gk_err + 1].
        let mut rmin = 0u64;
        let mut iter = self.tuples.iter();
        let mut cur = iter.next();
        while next_rank <= self.n {
            while let Some(t) = cur {
                if rmin + t.g + gk_err >= next_rank {
                    break;
                }
                rmin += t.g;
                cur = iter.next();
            }
            match cur {
                Some(t) => seps.push(t.v),
                None => {
                    if let Some(last) = self.tuples.last() {
                        seps.push(last.v);
                    }
                }
            }
            next_rank += step;
        }
        EquiDepthSummary::from_parts(seps, self.n, step).with_sep_error(gk_err + 2)
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

    fn check_stream(values: &[u64], eps: f64) {
        let mut gk = GreenwaldKhanna::new(eps);
        for &v in values {
            gk.observe(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let slack = (eps * n as f64).ceil() as u64 + 2;
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = gk.quantile(phi).unwrap();
            let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
            // True rank range of q in sorted order (1-based, <= convention).
            let lo = sorted.partition_point(|&y| y < q) as u64 + 1;
            let hi = sorted.partition_point(|&y| y <= q) as u64;
            let dist = if target < lo {
                lo - target
            } else {
                target.saturating_sub(hi)
            };
            assert!(
                dist <= slack,
                "phi={phi}: quantile {q} rank [{lo},{hi}] vs target {target} (slack {slack})"
            );
        }
    }

    #[test]
    fn quantiles_on_shuffled_range() {
        let mut vals: Vec<u64> = (0..5000).collect();
        // Deterministic shuffle.
        let mut st = 12345u64;
        for i in (1..vals.len()).rev() {
            let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        check_stream(&vals, 0.01);
        check_stream(&vals, 0.05);
    }

    #[test]
    fn quantiles_on_sorted_and_reversed() {
        let vals: Vec<u64> = (0..3000).collect();
        check_stream(&vals, 0.02);
        let rev: Vec<u64> = (0..3000).rev().collect();
        check_stream(&rev, 0.02);
    }

    #[test]
    fn quantiles_with_heavy_duplicates() {
        let mut vals = Vec::new();
        let mut st = 99u64;
        for _ in 0..4000 {
            vals.push(xorshift(&mut st) % 10);
        }
        check_stream(&vals, 0.02);
    }

    #[test]
    fn rank_bounds_contain_truth() {
        let mut gk = GreenwaldKhanna::new(0.02);
        let vals: Vec<u64> = (0..4000).map(|i| (i * 37) % 1000).collect();
        for &v in &vals {
            gk.observe(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let slack = (0.02 * n as f64).ceil() as u64 + 1;
        for probe in (0..1000).step_by(53) {
            let truth = sorted.partition_point(|&y| y <= probe) as u64;
            let (lo, hi) = gk.rank_bounds(probe);
            assert!(
                lo <= truth + slack && truth <= hi + slack,
                "rank bounds [{lo},{hi}] vs truth {truth} for {probe}"
            );
            let est = gk.rank_estimate(probe);
            let err = est.abs_diff(truth);
            assert!(
                err <= slack,
                "estimate {est} vs {truth}, err {err} > {slack}"
            );
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut gk = GreenwaldKhanna::new(0.01);
        let mut st = 5u64;
        let n = 200_000u64;
        for _ in 0..n {
            gk.observe(xorshift(&mut st));
        }
        // O((1/eps) * log(eps*n)) with a generous constant.
        let bound = (1.0 / 0.01) * ((0.01 * n as f64).log2() + 4.0) * 8.0;
        assert!(
            (gk.tuple_count() as f64) < bound,
            "{} tuples exceeds bound {bound}",
            gk.tuple_count()
        );
    }

    #[test]
    fn empty_and_single() {
        let mut gk = GreenwaldKhanna::new(0.1);
        assert_eq!(gk.quantile(0.5), None);
        assert_eq!(gk.rank_bounds(7), (0, 0));
        gk.observe(42);
        assert_eq!(gk.quantile(0.0), Some(42));
        assert_eq!(gk.quantile(1.0), Some(42));
        assert_eq!(gk.rank_bounds(41).0, 0);
        assert_eq!(gk.rank_bounds(42), (1, 1));
    }

    #[test]
    fn equi_depth_extraction_has_bounded_error() {
        let mut gk = GreenwaldKhanna::new(0.01);
        let vals: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 100_000).collect();
        for &v in &vals {
            gk.observe(v);
        }
        let step = 200;
        let summary = gk.equi_depth(step);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for probe in (0..100_000).step_by(4321) {
            let truth = sorted.partition_point(|&y| y < probe) as u64;
            let est = summary.rank_estimate(probe);
            let err = est.abs_diff(truth);
            assert!(
                err <= summary.rank_error() + 2,
                "probe {probe}: est {est} truth {truth} err {err} > {}",
                summary.rank_error()
            );
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 0.5]")]
    fn bad_epsilon_panics() {
        GreenwaldKhanna::new(0.9);
    }
}
