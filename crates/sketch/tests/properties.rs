//! Property-based tests of the summary substrate: the guarantees every
//! sketch advertises must hold for arbitrary streams, not just the unit
//! tests' hand-built ones. The tracking protocols' correctness proofs
//! consume exactly these properties.

use dtrack_sketch::{
    EquiDepthSummary, ExactOrdered, GreenwaldKhanna, MergedSummary, MisraGries, SpaceSaving,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn freq_of(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &x in stream {
        *m.entry(x).or_insert(0u64) += 1;
    }
    m
}

/// One site's summary for the `select` cache property. `kind` picks the
/// shape: 0 an empty site, 1 a duplicate-heavy one over five values (so
/// sites share separators), 2 values within 64 of `u64::MAX`, 3 a wide
/// spread.
fn select_part(kind: u8, raw: &[u64], step: u64) -> EquiDepthSummary {
    let mut values: Vec<u64> = match kind {
        0 => Vec::new(),
        1 => raw.iter().map(|&x| x % 5).collect(),
        2 => raw.iter().map(|&x| u64::MAX - x % 64).collect(),
        _ => raw.to_vec(),
    };
    values.sort_unstable();
    EquiDepthSummary::from_sorted(&values, step)
}

/// `MergedSummary::select` as it ran before the candidate cache: collect,
/// sort and dedup every part's separators on each call, then search.
fn select_reference(parts: &[EquiDepthSummary], target: u64) -> Option<u64> {
    let rank = |x: u64| parts.iter().map(|p| p.rank_estimate(x)).sum::<u64>();
    let mut candidates: Vec<u64> = parts
        .iter()
        .flat_map(|p| p.separators().iter().copied())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_unstable();
    candidates.dedup();
    let idx = candidates.partition_point(|&c| rank(c) < target);
    let hi = candidates.get(idx).copied();
    let lo = idx.checked_sub(1).map(|i| candidates[i]);
    match (lo, hi) {
        (Some(a), Some(b)) => {
            let da = rank(a).abs_diff(target);
            let db = rank(b).abs_diff(target);
            Some(if da <= db { a } else { b })
        }
        (lo, hi) => lo.or(hi),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// SpaceSaving: count is an overestimate, `count − error` a lower
    /// bound, error at most n/capacity, and every (n/capacity)-frequent
    /// item is monitored.
    #[test]
    fn spacesaving_guarantees(
        stream in prop::collection::vec(0u64..300, 50..2000),
        cap in 4usize..64,
    ) {
        let truth = freq_of(&stream);
        let mut ss = SpaceSaving::new(cap);
        for &x in &stream {
            ss.observe(x);
        }
        let n = stream.len() as u64;
        let bound = n / cap as u64;
        for c in ss.iter() {
            let t = truth.get(&c.item).copied().unwrap_or(0);
            prop_assert!(c.count >= t);
            prop_assert!(c.count - c.error <= t);
            prop_assert!(c.error <= bound);
        }
        prop_assert!(ss.min_count() <= bound);
        for (&x, &t) in &truth {
            if t > bound {
                prop_assert!(ss.get(x).is_some(), "frequent item {x} evicted");
            }
            prop_assert!(ss.upper_bound(x) >= t);
            prop_assert!(ss.lower_bound(x) <= t);
        }
    }

    /// Misra–Gries: estimate is an underestimate with deficit at most
    /// n/(capacity+1).
    #[test]
    fn misra_gries_guarantees(
        stream in prop::collection::vec(0u64..300, 50..2000),
        cap in 4usize..64,
    ) {
        let truth = freq_of(&stream);
        let mut mg = MisraGries::new(cap);
        for &x in &stream {
            mg.observe(x);
        }
        let bound = stream.len() as u64 / (cap as u64 + 1);
        for (&x, &t) in &truth {
            let e = mg.estimate(x);
            prop_assert!(e <= t);
            prop_assert!(t - e <= bound, "item {x}: deficit {} > {bound}", t - e);
        }
    }

    /// SpaceSaving and Misra–Gries bracket the truth from opposite sides.
    #[test]
    fn ss_and_mg_bracket_truth(
        stream in prop::collection::vec(0u64..200, 100..1500),
    ) {
        let cap = 32;
        let mut ss = SpaceSaving::new(cap);
        let mut mg = MisraGries::new(cap);
        for &x in &stream {
            ss.observe(x);
            mg.observe(x);
        }
        for x in 0u64..200 {
            prop_assert!(mg.estimate(x) <= ss.upper_bound(x));
        }
    }

    /// Greenwald–Khanna: every quantile query lands within εn ranks.
    #[test]
    fn gk_quantile_error_bounded(
        stream in prop::collection::vec(0u64..100_000, 100..3000),
        eps_pct in 2u32..20,
    ) {
        let eps = eps_pct as f64 / 100.0;
        let mut gk = GreenwaldKhanna::new(eps);
        for &x in &stream {
            gk.observe(x);
        }
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let slack = (eps * n as f64).ceil() as u64 + 2;
        for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let q = gk.quantile(phi).unwrap();
            let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
            let lo = sorted.partition_point(|&y| y < q) as u64 + 1;
            let hi = sorted.partition_point(|&y| y <= q) as u64;
            let dist = if target < lo { lo - target } else { target.saturating_sub(hi) };
            prop_assert!(dist <= slack, "phi {phi}: dist {dist} > {slack}");
        }
    }

    /// Equi-depth summaries: rank estimates within the advertised error,
    /// and the error bound of a merge is the sum of the parts.
    #[test]
    fn equidepth_merge_error_additive(
        a in prop::collection::vec(0u64..50_000, 20..800),
        b in prop::collection::vec(0u64..50_000, 20..800),
        step in 5u64..100,
    ) {
        let mut sa = a.clone();
        sa.sort_unstable();
        let mut sb = b.clone();
        sb.sort_unstable();
        let pa = EquiDepthSummary::from_sorted(&sa, step);
        let pb = EquiDepthSummary::from_sorted(&sb, step);
        let merged = MergedSummary::new(vec![pa.clone(), pb.clone()]);
        prop_assert_eq!(merged.rank_error(), pa.rank_error() + pb.rank_error());
        prop_assert_eq!(merged.total(), (a.len() + b.len()) as u64);
        let mut all = a.clone();
        all.extend(&b);
        all.sort_unstable();
        for probe in (0..50_000).step_by(7919) {
            let truth = all.partition_point(|&y| y < probe) as u64;
            let est = merged.rank_estimate(probe);
            prop_assert!(
                est.abs_diff(truth) <= merged.rank_error(),
                "probe {probe}: est {est}, truth {truth}, bound {}",
                merged.rank_error()
            );
        }
    }

    /// Merged select returns a value whose true rank is near the target.
    #[test]
    fn merged_select_near_target(
        a in prop::collection::vec(0u64..50_000, 200..900),
        b in prop::collection::vec(0u64..50_000, 200..900),
    ) {
        let step = 20u64;
        let mut sa = a.clone();
        sa.sort_unstable();
        let mut sb = b.clone();
        sb.sort_unstable();
        let merged = MergedSummary::new(vec![
            EquiDepthSummary::from_sorted(&sa, step),
            EquiDepthSummary::from_sorted(&sb, step),
        ]);
        let mut all = a.clone();
        all.extend(&b);
        all.sort_unstable();
        let n = all.len() as u64;
        for target in [n / 4, n / 2, 3 * n / 4] {
            if let Some(v) = merged.select(target) {
                let r_lo = all.partition_point(|&y| y < v) as u64;
                let r_hi = all.partition_point(|&y| y <= v) as u64;
                let slack = merged.rank_error() + merged.max_rank_gap();
                let dist = if target < r_lo {
                    r_lo - target
                } else {
                    target.saturating_sub(r_hi)
                };
                prop_assert!(dist <= slack, "target {target}: value {v} off by {dist}");
            }
        }
    }

    /// `select` answers from a candidate list sorted once per summary,
    /// and that list changes no answer: every target, asked in any order
    /// on one summary, gets what the per-call sort returned, and so does
    /// a clone taken after the first `select`.
    #[test]
    fn merged_select_matches_per_call_sort(
        shapes in prop::collection::vec(
            (0u8..4, prop::collection::vec(any::<u64>(), 0..300), 1u64..40),
            0..21,
        ),
        raw_targets in prop::collection::vec(any::<u64>(), 0..40),
        at in (any::<usize>(), any::<usize>()),
    ) {
        let parts: Vec<EquiDepthSummary> = shapes
            .iter()
            .map(|(kind, raw, step)| select_part(*kind, raw, *step))
            .collect();
        let merged = MergedSummary::new(parts.clone());
        let total = merged.total();
        let mut targets: Vec<u64> = raw_targets
            .iter()
            .map(|&r| match r % 4 {
                0 => total + 1 + (r >> 2) % 1000,
                1 => u64::MAX,
                _ => (r >> 2) % (total + 1),
            })
            .collect();
        targets.insert(at.0 % (targets.len() + 1), 0);
        targets.insert(at.1 % (targets.len() + 1), total + 1);

        let mut clone = None;
        for &t in &targets {
            let (got, want) = (merged.select(t), select_reference(&parts, t));
            prop_assert_eq!(got, want, "target {t}: got {got:?}, want {want:?}");
            clone.get_or_insert_with(|| merged.clone());
        }
        let clone = clone.expect("targets are never empty");
        for &t in targets.iter().rev() {
            let (got, want) = (clone.select(t), select_reference(&parts, t));
            prop_assert_eq!(got, want, "clone, target {t}: got {got:?}, want {want:?}");
        }
    }

    /// Misra–Gries merge: commutative, still an underestimate, and the
    /// deficit of the merged summary stays within (n₁+n₂)/(capacity+1) —
    /// the mergeable-summaries guarantee for the concatenated stream.
    #[test]
    fn mg_merge_commutes_and_bounds_error(
        a in prop::collection::vec(0u64..250, 50..1200),
        b in prop::collection::vec(0u64..250, 50..1200),
        cap in 8usize..48,
    ) {
        let feed = |stream: &[u64]| {
            let mut mg = MisraGries::new(cap);
            for &x in stream {
                mg.observe(x);
            }
            mg
        };
        let (ma, mb) = (feed(&a), feed(&b));
        let mut ab = ma.clone();
        ab.merge(&mb);
        let mut ba = mb.clone();
        ba.merge(&ma);
        let mut truth = freq_of(&a);
        for (x, c) in freq_of(&b) {
            *truth.entry(x).or_insert(0) += c;
        }
        let n = (a.len() + b.len()) as u64;
        let bound = n / (cap as u64 + 1);
        prop_assert_eq!(ab.total(), n);
        for x in 0u64..250 {
            prop_assert_eq!(
                ab.estimate(x), ba.estimate(x),
                "merge not commutative at item {}", x
            );
            let t = truth.get(&x).copied().unwrap_or(0);
            let e = ab.estimate(x);
            prop_assert!(e <= t, "item {x}: merged estimate {e} > true {t}");
            prop_assert!(t - e <= bound, "item {x}: merged deficit {} > {bound}", t - e);
        }
    }

    /// SpaceSaving merge: commutative, count/error brackets still hold,
    /// per-counter error stays within (n₁+n₂)/capacity, and items above
    /// twice that threshold stay monitored.
    #[test]
    fn ss_merge_commutes_and_bounds_error(
        a in prop::collection::vec(0u64..250, 50..1200),
        b in prop::collection::vec(0u64..250, 50..1200),
        cap in 8usize..48,
    ) {
        let feed = |stream: &[u64]| {
            let mut ss = SpaceSaving::new(cap);
            for &x in stream {
                ss.observe(x);
            }
            ss
        };
        let (sa, sb) = (feed(&a), feed(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        let mut truth = freq_of(&a);
        for (x, c) in freq_of(&b) {
            *truth.entry(x).or_insert(0) += c;
        }
        let n = (a.len() + b.len()) as u64;
        let bound = n / cap as u64;
        prop_assert_eq!(ab.total(), n);
        prop_assert_eq!(ab.min_count(), ba.min_count());
        for c in ab.iter() {
            let t = truth.get(&c.item).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "item {}: merged count {} < true {t}", c.item, c.count);
            prop_assert!(c.count - c.error <= t, "item {} lower bound broken", c.item);
            prop_assert!(c.error <= bound, "item {}: error {} > {bound}", c.item, c.error);
        }
        for x in 0u64..250 {
            prop_assert_eq!(ab.upper_bound(x), ba.upper_bound(x));
            prop_assert_eq!(ab.lower_bound(x), ba.lower_bound(x));
            let t = truth.get(&x).copied().unwrap_or(0);
            if t > 2 * bound {
                prop_assert!(ab.get(x).is_some(), "heavy item {x} lost in merge");
            }
            prop_assert!(ab.upper_bound(x) >= t);
            prop_assert!(ab.lower_bound(x) <= t);
        }
    }

    /// The GK merge path the protocols use — extract equi-depth summaries
    /// and combine them — is order-insensitive and keeps the additive
    /// error bound on rank estimates against the exact concatenation.
    #[test]
    fn gk_summary_merge_commutes_and_bounds_error(
        a in prop::collection::vec(0u64..50_000, 100..1500),
        b in prop::collection::vec(0u64..50_000, 100..1500),
    ) {
        use dtrack_sketch::OrderStore;
        let feed = |stream: &[u64]| {
            let mut gk = GreenwaldKhanna::new(0.05);
            for &x in stream {
                gk.observe(x);
            }
            gk
        };
        let (ga, gb) = (feed(&a), feed(&b));
        let step = 40u64;
        let (pa, pb) = (
            ga.summary_range(0, None, step),
            gb.summary_range(0, None, step),
        );
        let ab = MergedSummary::new(vec![pa.clone(), pb.clone()]);
        let ba = MergedSummary::new(vec![pb, pa]);
        prop_assert_eq!(ab.total(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ab.total(), ba.total());
        prop_assert_eq!(ab.rank_error(), ba.rank_error());
        let mut all = a.clone();
        all.extend(&b);
        all.sort_unstable();
        for probe in (0..50_000).step_by(6199) {
            prop_assert_eq!(
                ab.rank_estimate(probe), ba.rank_estimate(probe),
                "merge order changed rank({})", probe
            );
            let t = all.partition_point(|&y| y < probe) as u64;
            prop_assert!(
                ab.rank_estimate(probe).abs_diff(t) <= ab.rank_error(),
                "probe {}: est {} truth {} bound {}",
                probe, ab.rank_estimate(probe), t, ab.rank_error()
            );
        }
    }

    /// GK rank bounds sandwich the true rank and the point estimate.
    #[test]
    fn gk_rank_bounds_sandwich_truth(
        stream in prop::collection::vec(0u64..100_000, 100..2500),
        eps_pct in 2u32..20,
    ) {
        use dtrack_sketch::OrderStore;
        let eps = eps_pct as f64 / 100.0;
        let mut gk = GreenwaldKhanna::new(eps);
        for &x in &stream {
            gk.observe(x);
        }
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let slack = OrderStore::rank_error(&gk) + 1;
        for probe in (0..100_000u64).step_by(9973) {
            let (lo, hi) = gk.rank_bounds(probe);
            prop_assert!(lo <= hi);
            let est = gk.rank_estimate(probe);
            prop_assert!(lo <= est && est <= hi, "estimate outside its own bounds");
            let t = sorted.partition_point(|&y| y < probe) as u64;
            prop_assert!(
                t.saturating_sub(slack) <= hi && lo <= (t + slack).min(n),
                "true rank {t} not bracketed by [{lo}, {hi}] +- {slack}"
            );
        }
    }

    /// GK range summaries stay within their advertised error too.
    #[test]
    fn gk_summary_range_bounded(
        stream in prop::collection::vec(0u64..10_000, 300..2000),
        lo in 0u64..5_000,
    ) {
        use dtrack_sketch::OrderStore;
        let hi = lo + 4_000;
        let mut gk = GreenwaldKhanna::new(0.02);
        for &x in &stream {
            gk.observe(x);
        }
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let in_range: Vec<u64> = sorted
            .iter()
            .copied()
            .filter(|&v| v >= lo && v < hi)
            .collect();
        let s = gk.summary_range(lo, Some(hi), 50);
        // Total within the sketch's rank error at both endpoints.
        let err = 2 * OrderStore::rank_error(&gk) + 2;
        prop_assert!(
            s.total().abs_diff(in_range.len() as u64) <= err,
            "range total {} vs true {}",
            s.total(),
            in_range.len()
        );
    }
}

/// Check every public query of an [`ExactOrdered`] against `sorted`, a
/// sorted copy of what it holds: size, distinct count, in-order iteration,
/// rank and count at every stored key, its neighbours and `probes`, range
/// counts between consecutive probes, and `select` at every rank.
fn check_ordered(t: &ExactOrdered, sorted: &[u64], probes: &[u64]) -> Result<(), TestCaseError> {
    let n = sorted.len() as u64;
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &x in sorted {
        match runs.last_mut() {
            Some((key, mult)) if *key == x => *mult += 1,
            _ => runs.push((x, 1)),
        }
    }
    prop_assert_eq!(t.len(), n);
    prop_assert_eq!(t.is_empty(), n == 0);
    prop_assert_eq!(t.distinct(), runs.len());
    prop_assert!(t.iter().eq(runs.iter().copied()), "iter differs");
    let near_keys = runs
        .iter()
        .flat_map(|&(k, _)| [k.wrapping_sub(1), k, k.wrapping_add(1)]);
    for p in near_keys.chain(probes.iter().copied()) {
        let lt = sorted.partition_point(|&y| y < p) as u64;
        let le = sorted.partition_point(|&y| y <= p) as u64;
        prop_assert_eq!(t.rank_lt(p), lt, "rank_lt({})", p);
        prop_assert_eq!(t.rank_le(p), le, "rank_le({})", p);
        prop_assert_eq!(t.count(p), le - lt, "count({})", p);
    }
    for pair in probes.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let truth = if lo > hi {
            0
        } else {
            (sorted.partition_point(|&y| y <= hi) - sorted.partition_point(|&y| y < lo)) as u64
        };
        prop_assert_eq!(t.range_count(lo, hi), truth, "range_count({}, {})", lo, hi);
    }
    for (r, &x) in sorted.iter().enumerate() {
        prop_assert_eq!(t.select(r as u64), Some(x), "select({})", r);
    }
    prop_assert_eq!(t.select(n), None);
    Ok(())
}

/// Map raw draws to the value spread `kind` picks: one key repeated
/// (0, `u64::MAX` or another), about 300 keys, about 9k keys out of
/// 60 000, or full-range keys that are all distinct. The last three
/// always hold both 0 and `u64::MAX`.
fn ordered_values(kind: usize, raw: &[u64]) -> Vec<u64> {
    if kind == 0 {
        let key = [0, u64::MAX, raw[0]][raw[1] as usize % 3];
        return vec![key; raw.len()];
    }
    let modulus = [300, 60_000, u64::MAX][kind - 1];
    let mut values: Vec<u64> = raw.iter().map(|&x| x % modulus).collect();
    values[0] = 0;
    values[1] = u64::MAX;
    values
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The ordered store agrees exactly with a sorted vector on every
    /// query, and again after `clear` and a second fill. Streams of 9k+
    /// distinct keys build at least three inner levels: two levels of
    /// 16-way nodes reach at most 256 leaves of 32 keys.
    #[test]
    fn ordered_store_matches_sorted_vec(
        kind in 0usize..4,
        raw in prop::collection::vec(any::<u64>(), 9_000..12_000),
        raw_probes in prop::collection::vec(any::<u64>(), 32),
    ) {
        let stream = ordered_values(kind, &raw);
        let probes = ordered_values(kind.max(1), &raw_probes);
        let mut t = ExactOrdered::new();
        for &x in &stream {
            t.insert(x);
        }
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        check_ordered(&t, &sorted, &probes)?;

        t.clear();
        check_ordered(&t, &[], &probes)?;
        let refill = &stream[..stream.len() / 3];
        for &x in refill.iter().rev() {
            t.insert(x);
        }
        let mut sorted = refill.to_vec();
        sorted.sort_unstable();
        check_ordered(&t, &sorted, &probes)?;
    }
}

/// SplitMix64, the priority source of the arena treap `ExactOrdered` once
/// was.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Insertion order costs no stack. Ascending, descending, and the order
/// that turned the treap `ExactOrdered` once was into a single path —
/// insert i gets its fixed-seed priority's rank, highest priority first —
/// which recursed once per item and overflowed a worker thread's stack.
#[test]
fn adversarial_insertion_orders_fit_a_small_stack() {
    const N: usize = 60_000;
    let mut state = 0x5DEE_CE66_D123_4567;
    let prios: Vec<u64> = (0..N).map(|_| splitmix64(&mut state)).collect();
    let mut by_prio: Vec<usize> = (0..N).collect();
    by_prio.sort_unstable_by_key(|&i| std::cmp::Reverse(prios[i]));
    let mut one_path = vec![0u64; N];
    for (rank, &i) in by_prio.iter().enumerate() {
        one_path[i] = rank as u64;
    }
    let orders = [
        one_path,
        (0..N as u64).collect(),
        (0..N as u64).rev().collect(),
    ];
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            for keys in &orders {
                let mut t = ExactOrdered::new();
                for &k in keys {
                    t.insert(k);
                }
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let probes = [0, 1, N as u64 / 2, N as u64, u64::MAX];
                check_ordered(&t, &sorted, &probes).expect("answers match a sorted Vec");
            }
        })
        .expect("spawn the small-stack thread")
        .join()
        .expect("small-stack thread finished");
}
