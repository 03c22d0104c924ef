//! Lemma 2.3 — the adversary that forces Ω(k) messages per heavy-hitter
//! change from any deterministic protocol.
//!
//! The proof's adversary knows every site's trigger threshold (legitimate
//! against a deterministic algorithm: the thresholds are a function of the
//! input so far). Given `B = β·m_i` copies of a rising item to place, it
//! repeatedly finds a site whose threshold is at most `2B/k` — one must
//! exist, otherwise placing `threshold_j − 1` copies everywhere would hide
//! the change entirely, contradicting correctness — and sends `2B/k`
//! copies there, forcing at least one message. This repeats `Ω(k)` times.
//!
//! [`ThresholdAdversary`] implements exactly that strategy against our own
//! §2.1 protocol via
//! [`HhSite::remaining_until_message`](dtrack_core::hh::HhSite::remaining_until_message).

use dtrack_core::hh::{ExactHhSite, HhCoordinator};
use dtrack_sim::{Cluster, SimError, SiteId};

/// Drives a heavy-hitter cluster with the Lemma 2.3 placement strategy.
#[derive(Debug)]
pub struct ThresholdAdversary;

/// Outcome of one forced change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedChange {
    /// Messages exchanged while the change was delivered.
    pub messages: u64,
    /// Words exchanged while the change was delivered.
    pub words: u64,
    /// How many distinct placement steps the adversary used.
    pub placements: u64,
}

impl ThresholdAdversary {
    /// Deliver `copies` arrivals of `item`, always targeting the site with
    /// the smallest remaining trigger threshold, in chunks of `2·copies/k`.
    /// Returns the communication the protocol was forced to spend.
    pub fn deliver(
        cluster: &mut Cluster<ExactHhSite, HhCoordinator>,
        item: u64,
        copies: u64,
    ) -> Result<ForcedChange, SimError> {
        let k = cluster.num_sites() as u64;
        let before_msgs = cluster.meter().total_messages();
        let before_words = cluster.meter().total_words();
        let chunk = (2 * copies / k).max(1);
        let mut delivered = 0u64;
        let mut placements = 0u64;
        while delivered < copies {
            // The site currently closest to a trigger.
            let target = (0..cluster.num_sites())
                .map(SiteId)
                .min_by_key(|&s| {
                    cluster
                        .site(s)
                        .map(|site| site.remaining_until_message(item))
                        .unwrap_or(u64::MAX)
                })
                .expect("cluster has sites");
            let send = chunk.min(copies - delivered);
            for _ in 0..send {
                cluster.feed(target, item)?;
            }
            delivered += send;
            placements += 1;
        }
        Ok(ForcedChange {
            messages: cluster.meter().total_messages() - before_msgs,
            words: cluster.meter().total_words() - before_words,
            placements,
        })
    }

    /// Feed the setup phase of a lower-bound construction round-robin.
    pub fn feed_setup(
        cluster: &mut Cluster<ExactHhSite, HhCoordinator>,
        setup: &[u64],
    ) -> Result<(), SimError> {
        let k = cluster.num_sites();
        for (i, &x) in setup.iter().enumerate() {
            cluster.feed(SiteId((i % k as usize) as u32), x)?;
        }
        Ok(())
    }

    /// Feed `count` unique chaff items round-robin, starting at
    /// `start_value`. Returns the next unused chaff value.
    pub fn feed_chaff(
        cluster: &mut Cluster<ExactHhSite, HhCoordinator>,
        count: u64,
        start_value: u64,
    ) -> Result<u64, SimError> {
        let k = cluster.num_sites() as u64;
        for i in 0..count {
            cluster.feed(SiteId((i % k) as u32), start_value + i)?;
        }
        Ok(start_value + count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hh_lb::HhLowerBound;
    use dtrack_core::hh::{exact_cluster, HhConfig};

    #[test]
    fn adversary_forces_omega_k_messages_per_change() {
        let phi = 0.3;
        let epsilon = 0.05;
        for k in [4u32, 8, 16] {
            let lb = HhLowerBound::construct(phi, epsilon, 400_000);
            let config = HhConfig::new(k, epsilon).unwrap();
            let mut cluster = exact_cluster(config).unwrap();
            ThresholdAdversary::feed_setup(&mut cluster, &lb.setup).unwrap();
            let mut total_msgs = 0u64;
            let mut events = 0u64;
            let mut chaff_v = crate::hh_lb::CHAFF_BASE + 3_000_000_000;
            for round in lb.rounds.iter().take(4) {
                for e in &round.rises {
                    let forced =
                        ThresholdAdversary::deliver(&mut cluster, e.item, e.copies).unwrap();
                    total_msgs += forced.messages;
                    events += 1;
                }
                chaff_v =
                    ThresholdAdversary::feed_chaff(&mut cluster, round.chaff, chaff_v).unwrap();
            }
            let per_change = total_msgs as f64 / events as f64;
            // Ω(k): at least a constant fraction of k messages per change.
            assert!(
                per_change >= k as f64 / 4.0,
                "k={k}: only {per_change:.1} messages per change"
            );
        }
    }

    #[test]
    fn protocol_stays_correct_under_adversary() {
        // The adversary maximizes cost but must not break correctness.
        let phi = 0.3;
        let epsilon = 0.05;
        let lb = HhLowerBound::construct(phi, epsilon, 300_000);
        let config = HhConfig::new(6, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = dtrack_core::ExactOracle::new();
        for &x in &lb.setup {
            oracle.observe(x);
        }
        ThresholdAdversary::feed_setup(&mut cluster, &lb.setup).unwrap();
        let mut chaff_v = crate::hh_lb::CHAFF_BASE + 4_000_000_000;
        for round in lb.rounds.iter().take(3) {
            for e in &round.rises {
                for _ in 0..e.copies {
                    oracle.observe(e.item);
                }
                ThresholdAdversary::deliver(&mut cluster, e.item, e.copies).unwrap();
                let reported = cluster.coordinator().heavy_hitters(phi).unwrap();
                if let Some(v) = oracle.check_heavy_hitters(&reported, phi, epsilon) {
                    panic!("correctness violated under adversary: {v}");
                }
            }
            for i in 0..round.chaff {
                oracle.observe(chaff_v + i);
            }
            chaff_v = ThresholdAdversary::feed_chaff(&mut cluster, round.chaff, chaff_v).unwrap();
        }
    }

    #[test]
    fn placements_scale_with_k() {
        let lb = HhLowerBound::construct(0.3, 0.05, 200_000);
        let config = HhConfig::new(12, 0.05).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        ThresholdAdversary::feed_setup(&mut cluster, &lb.setup).unwrap();
        let e = lb.rounds[0].rises[0];
        let forced = ThresholdAdversary::deliver(&mut cluster, e.item, e.copies).unwrap();
        // chunk = 2B/k  =>  ~k/2 placements.
        assert!(forced.placements >= 5, "expected ~k/2 placements");
    }
}
