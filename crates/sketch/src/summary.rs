//! Mergeable equi-depth separator summaries.
//!
//! This is the object the paper's initialization and rebuild steps ship
//! from sites to the coordinator: "each site computes a set of intervals,
//! each containing ε|Aj|/32 items, and sends the set of intervals to the
//! coordinator (by sending those separating items)" (§3.1). The key
//! property is mergeability: k summaries with rank error `e_j` on local
//! streams `A_j` yield global rank estimates with error at most `Σ e_j` on
//! `A = ∪ A_j` — for `e_j = (ε/32)|A_j|` that is `(ε/32)|A|`, which is what
//! the coordinator needs to place interval boundaries and splitting
//! elements.
//!
//! Rank convention: estimates of `rank_lt(x) = |{a : a < x}|`.

use std::sync::OnceLock;

/// An equi-depth summary of one site's local multiset: separators taken
/// every `step` ranks, each placed with at most `sep_error` rank slack
/// (0 when extracted from exact data, the sketch error when extracted from
/// a Greenwald–Khanna summary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiDepthSummary {
    separators: Vec<u64>,
    total: u64,
    step: u64,
    sep_error: u64,
}

impl EquiDepthSummary {
    /// Build from raw parts. `separators` must be sorted ascending; `step`
    /// is the rank spacing between consecutive separators.
    pub(crate) fn from_parts(separators: Vec<u64>, total: u64, step: u64) -> Self {
        debug_assert!(separators.windows(2).all(|w| w[0] <= w[1]));
        EquiDepthSummary {
            separators,
            total,
            step: step.max(1),
            sep_error: 0,
        }
    }

    /// Build from a sorted slice of values (with multiplicity already
    /// expanded), taking one separator every `step` ranks.
    pub fn from_sorted(values: &[u64], step: u64) -> Self {
        let step = step.max(1);
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]));
        let total = values.len() as u64;
        let mut separators = Vec::new();
        let mut r = step;
        while r <= total {
            // 1-based rank r => 0-based index r-1.
            separators.push(values[(r - 1) as usize]);
            r += step;
        }
        EquiDepthSummary {
            separators,
            total,
            step,
            sep_error: 0,
        }
    }

    /// Build from an iterator of `(value, multiplicity)` pairs in ascending
    /// value order (e.g. [`crate::ExactOrdered::iter`]).
    pub fn from_sorted_counts<I>(pairs: I, total: u64, step: u64) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let step = step.max(1);
        let mut separators = Vec::new();
        let mut next_rank = step;
        let mut seen = 0u64;
        for (v, mult) in pairs {
            seen += mult;
            while next_rank <= total && seen >= next_rank {
                separators.push(v);
                next_rank += step;
            }
        }
        EquiDepthSummary {
            separators,
            total,
            step,
            sep_error: 0,
        }
    }

    /// Attach extra per-separator placement error (used when separators
    /// come from an approximate sketch rather than exact data).
    pub fn with_sep_error(mut self, sep_error: u64) -> Self {
        self.sep_error = sep_error;
        self
    }

    /// Number of items summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rank spacing between separators.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The separator values.
    pub fn separators(&self) -> &[u64] {
        &self.separators
    }

    /// Upper bound on `|estimate(x) - rank_lt(x)|` for any `x`.
    pub fn rank_error(&self) -> u64 {
        self.step + self.sep_error
    }

    /// Estimate of `rank_lt(x)`.
    pub fn rank_estimate(&self, x: u64) -> u64 {
        let j = self.separators.partition_point(|&s| s < x) as u64;
        (j * self.step + self.step / 2).min(self.total)
    }

    /// Size of this summary on the wire, in 64-bit words (separators plus
    /// the three header fields).
    pub fn wire_words(&self) -> u64 {
        self.separators.len() as u64 + 3
    }
}

impl dtrack_wire::WireMessage for EquiDepthSummary {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        dtrack_wire::put_vec_u64(out, &self.separators);
        dtrack_wire::put_u64(out, self.total);
        dtrack_wire::put_u64(out, self.step);
        dtrack_wire::put_u64(out, self.sep_error);
    }

    fn wire_decode(r: &mut dtrack_wire::WireReader<'_>) -> Result<Self, dtrack_wire::DecodeError> {
        Ok(EquiDepthSummary {
            separators: r.vec_u64()?,
            total: r.u64()?,
            step: r.u64()?,
            sep_error: r.u64()?,
        })
    }
}

/// A set of per-site summaries merged by the coordinator.
///
/// Rank estimates are sums of per-site estimates; the error bound is the
/// sum of per-site error bounds.
#[derive(Debug, Clone, Default)]
pub struct MergedSummary {
    parts: Vec<EquiDepthSummary>,
    /// Every part's separators, sorted and deduplicated: the candidate set
    /// of [`Self::select`]. Filled on the first `select`, so summaries
    /// that only answer rank estimates never pay for the sort. `parts`
    /// never changes after [`Self::new`], so the list never goes stale.
    candidates: OnceLock<Vec<u64>>,
}

impl MergedSummary {
    /// Merge the given summaries.
    pub fn new(parts: Vec<EquiDepthSummary>) -> Self {
        MergedSummary {
            parts,
            candidates: OnceLock::new(),
        }
    }

    fn candidates(&self) -> &[u64] {
        self.candidates.get_or_init(|| {
            let mut all: Vec<u64> = self
                .parts
                .iter()
                .flat_map(|p| p.separators().iter().copied())
                .collect();
            all.sort_unstable();
            all.dedup();
            all
        })
    }

    /// Total items across all parts.
    pub fn total(&self) -> u64 {
        self.parts.iter().map(|p| p.total()).sum()
    }

    /// Upper bound on the global rank estimation error.
    pub fn rank_error(&self) -> u64 {
        self.parts.iter().map(|p| p.rank_error()).sum()
    }

    /// Estimate of the global `rank_lt(x)`.
    pub fn rank_estimate(&self, x: u64) -> u64 {
        self.parts.iter().map(|p| p.rank_estimate(x)).sum()
    }

    /// A value whose estimated global rank is as close as possible to
    /// `target` among all separator candidates. Returns `None` when no
    /// part carries any separator (e.g. all sites are tiny). The first
    /// call sorts the candidates; later calls only search them.
    pub fn select(&self, target: u64) -> Option<u64> {
        let candidates = self.candidates();
        // rank_estimate is monotone nondecreasing in x, so binary search.
        let idx = candidates.partition_point(|&c| self.rank_estimate(c) < target);
        let hi = candidates.get(idx).copied();
        let lo = if idx > 0 {
            candidates.get(idx - 1).copied()
        } else {
            None
        };
        match (lo, hi) {
            (Some(a), Some(b)) => {
                let da = self.rank_estimate(a).abs_diff(target);
                let db = self.rank_estimate(b).abs_diff(target);
                Some(if da <= db { a } else { b })
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Largest gap in estimated rank between adjacent separator candidates
    /// — how far [`Self::select`] can be from an arbitrary target, beyond
    /// [`Self::rank_error`].
    pub fn max_rank_gap(&self) -> u64 {
        self.parts.iter().map(|p| p.step() + p.rank_error()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sorted_places_separators_every_step() {
        let vals: Vec<u64> = (1..=100).collect();
        let s = EquiDepthSummary::from_sorted(&vals, 10);
        assert_eq!(s.separators(), &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.total(), 100);
        assert_eq!(s.rank_error(), 10);
        assert_eq!(s.wire_words(), 13);
    }

    #[test]
    fn rank_estimate_error_bounded_exact_source() {
        let vals: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let step = 25;
        let s = EquiDepthSummary::from_sorted(&vals, step);
        for probe in (0..3000).step_by(17) {
            let truth = vals.partition_point(|&y| y < probe) as u64;
            let est = s.rank_estimate(probe);
            assert!(
                est.abs_diff(truth) <= s.rank_error(),
                "probe {probe}: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn from_sorted_counts_matches_from_sorted() {
        let vals = [5u64, 5, 5, 9, 9, 12, 20, 20, 20, 20];
        let a = EquiDepthSummary::from_sorted(&vals, 3);
        let pairs = [(5u64, 3u64), (9, 2), (12, 1), (20, 4)];
        let b = EquiDepthSummary::from_sorted_counts(pairs, 10, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_summaries() {
        let s = EquiDepthSummary::from_sorted(&[], 10);
        assert_eq!(s.rank_estimate(5), 0);
        assert_eq!(s.total(), 0);
        // Fewer items than one step: no separators, but estimates are
        // clamped to total, keeping the error within rank_error().
        let s = EquiDepthSummary::from_sorted(&[4, 5], 10);
        assert!(s.separators().is_empty());
        assert!(s.rank_estimate(100) <= 2);
    }

    #[test]
    fn merged_error_is_sum_of_parts() {
        // Two "sites" holding interleaved halves of 0..2000.
        let a_vals: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let b_vals: Vec<u64> = (0..1000).map(|i| i * 2 + 1).collect();
        let a = EquiDepthSummary::from_sorted(&a_vals, 50);
        let b = EquiDepthSummary::from_sorted(&b_vals, 50);
        let m = MergedSummary::new(vec![a, b]);
        assert_eq!(m.total(), 2000);
        assert_eq!(m.rank_error(), 100);
        for probe in (0..2000).step_by(111) {
            let truth = probe; // rank_lt(probe) in 0..2000 is probe itself
            let est = m.rank_estimate(probe);
            assert!(
                est.abs_diff(truth) <= m.rank_error(),
                "probe {probe}: est {est}"
            );
        }
    }

    #[test]
    fn merged_select_hits_near_target() {
        let a_vals: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let b_vals: Vec<u64> = (0..1000).map(|i| i * 2 + 1).collect();
        let m = MergedSummary::new(vec![
            EquiDepthSummary::from_sorted(&a_vals, 40),
            EquiDepthSummary::from_sorted(&b_vals, 40),
        ]);
        for target in [1u64, 100, 500, 1000, 1500, 1999] {
            let v = m.select(target).unwrap();
            let truth = v; // rank_lt(v) == v in this stream
            assert!(
                truth.abs_diff(target) <= m.rank_error() + m.max_rank_gap(),
                "target {target}: got value {v}"
            );
        }
    }

    #[test]
    fn merged_select_none_when_no_separators() {
        let m = MergedSummary::new(vec![EquiDepthSummary::from_sorted(&[1, 2], 10)]);
        assert_eq!(m.select(1), None);
    }

    #[test]
    fn merged_summary_stays_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<MergedSummary>();
    }

    #[test]
    fn duplicate_heavy_input() {
        // 500 copies of 7, 500 copies of 9.
        let mut vals = vec![7u64; 500];
        vals.extend(std::iter::repeat_n(9, 500));
        let s = EquiDepthSummary::from_sorted(&vals, 100);
        assert_eq!(s.rank_estimate(7), (100 / 2)); // j=0
        let truth_9 = 500;
        assert!(s.rank_estimate(9).abs_diff(truth_9) <= s.rank_error());
        assert!(s.rank_estimate(10).abs_diff(1000) <= s.rank_error());
    }
}
