//! Lemma 2.2 — the input sequence under which the heavy-hitter set changes
//! Ω(log n / ε) times.
//!
//! Two groups of `l = ⌊1/(2φ − ε′)⌋` items each (ε′ = 2ε). At the start of
//! round `i` every item of group `b = i mod 2` has frequency `φ·m_i` and
//! every item of the other group `(φ − ε′)·m_i`. During the round, `β·m_i`
//! copies of each light-group item arrive (β = ε′(2φ−ε′)/(φ−ε′)), lifting
//! them all from below `(φ−ε′)|A|` to `φ|A|` — one mandatory heavy-hitter
//! change each — and multiplying the stream size by `φ/(φ−ε′)`. The number
//! of rounds until `n` items have arrived is Θ(log n), so the total number
//! of changes is `l · Θ(log n) = Ω(log n / ε)`.
//!
//! Implementation note: when `l·(2φ−ε′) < 1` the two groups do not fill
//! the stream, so each round also appends *chaff* — unique one-off values
//! that carry the leftover mass without ever approaching the heavy-hitter
//! threshold. The paper elides this by treating `1/(2φ−ε′)` as an integer.

/// One forced change: `copies` arrivals of `item`, during which the item
/// must transition from non-heavy to heavy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiseEvent {
    /// The rising item.
    pub item: u64,
    /// How many copies arrive during the transition window.
    pub copies: u64,
}

/// One round of the construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The light-group items rising to heavy, in order.
    pub rises: Vec<RiseEvent>,
    /// Unique filler items appended after the rises.
    pub chaff: u64,
}

/// First value used for chaff items (group items live in `0..2l`).
pub const CHAFF_BASE: u64 = 1 << 40;

/// The Lemma 2.2 construction.
#[derive(Debug, Clone)]
pub struct HhLowerBound {
    /// The heavy-hitter threshold φ (> 3ε per the lemma).
    pub phi: f64,
    /// The approximation error ε.
    pub epsilon: f64,
    /// Items that set up the initial configuration, in arrival order.
    pub setup: Vec<u64>,
    /// The rounds.
    pub rounds: Vec<Round>,
}

impl HhLowerBound {
    /// Build the construction, generating rounds until the total stream
    /// length reaches `n_target`.
    ///
    /// # Panics
    /// Panics unless `φ > 3ε` (the lemma's requirement) and both are in
    /// range.
    pub fn construct(phi: f64, epsilon: f64, n_target: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 0.2, "epsilon out of range");
        assert!(
            phi > 3.0 * epsilon && phi <= 0.5,
            "lemma requires 3ε < φ <= 0.5"
        );
        let eps2 = 2.0 * epsilon; // the lemma's ε′
        let l = (1.0 / (2.0 * phi - eps2)).floor().max(1.0) as u64;
        let group0: Vec<u64> = (0..l).collect();
        let group1: Vec<u64> = (l..2 * l).collect();
        let mut next_chaff = CHAFF_BASE;

        // Initial state for round 0 (b = 0): group0 at φ·m0, group1 at
        // (φ−ε′)·m0, chaff filling the remainder. m0 is large enough that
        // integer rounding is negligible.
        let m0 = ((l as f64 + 1.0) * 64.0 / (phi - eps2)).ceil() as u64;
        let mut heavy = (phi * m0 as f64).round() as u64; // per heavy item
        let mut light = ((phi - eps2) * m0 as f64).round() as u64; // per light item
        let body = l * (heavy + light);
        let chaff0 = m0.saturating_sub(body);
        let mut setup = Vec::with_capacity(m0 as usize);
        let max_c = heavy.max(light);
        for c in 0..max_c {
            for &t in &group0 {
                if c < heavy {
                    setup.push(t);
                }
            }
            for &t in &group1 {
                if c < light {
                    setup.push(t);
                }
            }
        }
        for _ in 0..chaff0 {
            setup.push(next_chaff);
            next_chaff += 1;
        }
        let mut m_cur = setup.len() as u64;
        let mut rounds = Vec::new();
        let mut b = 0usize;
        let mut total = m_cur;
        while total < n_target {
            // Solve the round targets from the current exact counts, so
            // rounding never accumulates: the old heavy count becomes the
            // new light level, and the stream grows to m_next = heavy/(φ−ε′).
            let m_next = (heavy as f64 / (phi - eps2)).round() as u64;
            let copies = ((phi * m_next as f64) - light as f64).round().max(1.0) as u64;
            let chaff = m_next.saturating_sub(m_cur).saturating_sub(l * copies);
            let light_group = if b == 0 { &group1 } else { &group0 };
            let rises: Vec<RiseEvent> = light_group
                .iter()
                .map(|&t| RiseEvent { item: t, copies })
                .collect();
            rounds.push(Round { rises, chaff });
            total += l * copies + chaff;
            let new_heavy = light + copies;
            light = heavy;
            heavy = new_heavy;
            m_cur = m_next;
            b ^= 1;
        }
        HhLowerBound {
            phi,
            epsilon,
            setup,
            rounds,
        }
    }

    /// Total number of forced heavy-hitter changes (one per rise event).
    pub fn forced_changes(&self) -> u64 {
        self.rounds.iter().map(|r| r.rises.len() as u64).sum()
    }

    /// Flatten the construction into a plain item sequence.
    pub fn flatten(&self) -> Vec<u64> {
        let mut out = self.setup.clone();
        let mut next_chaff = CHAFF_BASE + 1_000_000_000;
        for round in &self.rounds {
            for e in &round.rises {
                out.extend(std::iter::repeat_n(e.item, e.copies as usize));
            }
            for _ in 0..round.chaff {
                out.push(next_chaff);
                next_chaff += 1;
            }
        }
        out
    }

    /// Count, by exact simulation, how many times some item's frequency
    /// ratio crosses from at-or-below `φ − ε` to at-or-above `φ` — the
    /// changes any correct tracker must signal.
    pub fn count_changes(&self) -> u64 {
        use dtrack_hash::FxHashMap;
        let mut freq: FxHashMap<u64, u64> = FxHashMap::default();
        let mut low: FxHashMap<u64, bool> = FxHashMap::default();
        let mut n = 0u64;
        let mut changes = 0u64;
        for x in self.flatten() {
            n += 1;
            let f = freq.entry(x).or_insert(0);
            *f += 1;
            let ratio = *f as f64 / n as f64;
            let was_low = low.entry(x).or_insert(true);
            if *was_low && ratio >= self.phi {
                changes += 1;
                *was_low = false;
            } else if !*was_low && ratio <= self.phi - self.epsilon {
                *was_low = true;
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_parameters() {
        let lb = HhLowerBound::construct(0.3, 0.05, 200_000);
        assert!(!lb.setup.is_empty());
        assert!(lb.rounds.len() > 3, "expected several rounds");
        // Every round lifts the whole light group.
        let l = (1.0f64 / (2.0 * 0.3 - 0.1)).floor() as usize;
        for round in &lb.rounds {
            assert_eq!(round.rises.len(), l);
        }
    }

    #[test]
    fn invariant_holds_at_round_boundaries() {
        // After setup and after each round, heavy items sit at ~φ·m and
        // light items at ~(φ−ε′)·m.
        use std::collections::HashMap;
        let phi = 0.3;
        let eps = 0.05;
        let lb = HhLowerBound::construct(phi, eps, 400_000);
        let mut freq: HashMap<u64, u64> = HashMap::new();
        let mut n = 0u64;
        let check = |freq: &HashMap<u64, u64>, n: u64, ctx: &str| {
            let ratios: Vec<f64> = (0..2)
                .map(|t| freq.get(&(t as u64)).copied().unwrap_or(0) as f64 / n as f64)
                .collect();
            for r in ratios {
                let near_heavy = (r - phi).abs() < 0.02;
                let near_light = (r - (phi - 2.0 * eps)).abs() < 0.02;
                assert!(
                    near_heavy || near_light,
                    "{ctx}: group ratio {r} matches neither level"
                );
            }
        };
        for &x in &lb.setup {
            *freq.entry(x).or_insert(0) += 1;
            n += 1;
        }
        check(&freq, n, "after setup");
        let mut chaff_v = CHAFF_BASE + 2_000_000_000;
        for (i, round) in lb.rounds.iter().enumerate().take(6) {
            for e in &round.rises {
                *freq.entry(e.item).or_insert(0) += e.copies;
                n += e.copies;
            }
            for _ in 0..round.chaff {
                *freq.entry(chaff_v).or_insert(0) += 1;
                chaff_v += 1;
                n += 1;
            }
            check(&freq, n, &format!("after round {i}"));
        }
    }

    #[test]
    fn changes_scale_like_log_n_over_eps() {
        let eps = 0.05;
        let small = HhLowerBound::construct(0.3, eps, 50_000).count_changes();
        let large = HhLowerBound::construct(0.3, eps, 5_000_000).count_changes();
        assert!(large > small, "more items must force more changes");
        let ratio = large as f64 / small as f64;
        assert!(
            (1.2..8.0).contains(&ratio),
            "change growth {ratio} not log-like ({small} -> {large})"
        );
    }

    #[test]
    fn smaller_epsilon_forces_more_changes() {
        let loose = HhLowerBound::construct(0.3, 0.08, 1_000_000).count_changes();
        let tight = HhLowerBound::construct(0.3, 0.02, 1_000_000).count_changes();
        assert!(
            tight as f64 > loose as f64 * 1.5,
            "1/ε scaling violated: {loose} vs {tight}"
        );
    }

    #[test]
    fn simulated_changes_match_forced_changes_roughly() {
        let lb = HhLowerBound::construct(0.25, 0.04, 500_000);
        let forced = lb.forced_changes();
        let counted = lb.count_changes();
        assert!(
            counted as f64 >= forced as f64 * 0.8,
            "counted {counted} << forced {forced}"
        );
    }

    #[test]
    #[should_panic(expected = "lemma requires")]
    fn phi_must_exceed_3eps() {
        HhLowerBound::construct(0.1, 0.05, 1000);
    }
}
