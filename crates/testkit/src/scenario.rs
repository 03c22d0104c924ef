//! Scenario specification: a point in the differential-testing matrix.
//!
//! A [`Scenario`] is a fully deterministic description of one run —
//! workload generator, site assignment, k, ε, stream length, seed, and
//! protocol. The same scenario always produces the same stream, the same
//! protocol transcript, and the same metered cost, so failures quoted by
//! name are replayable bit-for-bit.

use crate::faults::FaultPlan;
use dtrack_sim::SiteId;
use dtrack_workload::{
    Assignment, Bursts, Diurnal, FlashCrowd, Generator, KeyChurn, RoundRobin, ShiftingZipf,
    SiteChurn, SkewedSites, SortedRamp, Straggler, Stream, TwoPhaseDrift, Uniform, UniformSites,
    Zipf,
};
use std::fmt;

/// Which workload generator feeds the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneratorSpec {
    /// Uniform values over `[0, universe)`.
    Uniform {
        /// Value universe size.
        universe: u64,
    },
    /// Zipf-distributed values (the standard skewed monitoring stream).
    Zipf {
        /// Value universe size.
        universe: u64,
        /// Skew parameter (s > 1 is heavy-tailed).
        s: f64,
    },
    /// Strictly increasing ramp — drags every quantile upward forever.
    SortedRamp {
        /// First value.
        start: u64,
        /// Increment per item.
        step: u64,
    },
    /// Zipf whose hot set is re-permuted periodically — churns the
    /// heavy-hitter set.
    ShiftingZipf {
        /// Value universe size.
        universe: u64,
        /// Skew parameter.
        s: f64,
        /// Re-permute the hot set every this many items.
        shift_every: u64,
    },
    /// Uniform band that jumps to a disjoint band mid-stream — forces a
    /// full quantile rebuild.
    TwoPhaseDrift {
        /// Width of each band.
        band: u64,
        /// Item index at which the band jumps.
        switch_at: u64,
    },
    /// Zipf background with a rotating flash-crowd key that dominates a
    /// window at the start of every period — the heavy-hitter set churns
    /// violently and repeatedly.
    FlashCrowd {
        /// Value universe size (background Zipf).
        universe: u64,
        /// Background skew parameter.
        s: f64,
        /// Flash period in items.
        period: u64,
        /// Flash window length (≤ period).
        flash_len: u64,
    },
    /// Uniform bands cycled through phases — diurnal rate/value drift
    /// that sweeps every quantile back and forth forever.
    Diurnal {
        /// Width of each band.
        band: u64,
        /// Number of distinct bands in one cycle.
        phases: u64,
        /// Items per phase.
        phase_len: u64,
    },
    /// Zipf over a window whose base slides every `churn_every` items —
    /// continuous key churn with no stable hot set.
    KeyChurn {
        /// Active key-window size.
        window: u64,
        /// Skew parameter within the window.
        s: f64,
        /// Slide the window every this many items.
        churn_every: u64,
        /// How far the base slides per churn step.
        step: u64,
    },
}

impl GeneratorSpec {
    /// Instantiate the generator with `seed`.
    pub fn build(&self, seed: u64) -> BuiltGenerator {
        match *self {
            GeneratorSpec::Uniform { universe } => {
                BuiltGenerator::Uniform(Uniform::new(universe, seed))
            }
            GeneratorSpec::Zipf { universe, s } => {
                BuiltGenerator::Zipf(Zipf::new(universe, s, seed))
            }
            GeneratorSpec::SortedRamp { start, step } => {
                BuiltGenerator::SortedRamp(SortedRamp::new(start, step))
            }
            GeneratorSpec::ShiftingZipf {
                universe,
                s,
                shift_every,
            } => BuiltGenerator::ShiftingZipf(ShiftingZipf::new(universe, s, shift_every, seed)),
            GeneratorSpec::TwoPhaseDrift { band, switch_at } => {
                BuiltGenerator::TwoPhaseDrift(TwoPhaseDrift::new(band, switch_at, seed))
            }
            GeneratorSpec::FlashCrowd {
                universe,
                s,
                period,
                flash_len,
            } => BuiltGenerator::FlashCrowd(FlashCrowd::new(universe, s, period, flash_len, seed)),
            GeneratorSpec::Diurnal {
                band,
                phases,
                phase_len,
            } => BuiltGenerator::Diurnal(Diurnal::new(band, phases, phase_len, seed)),
            GeneratorSpec::KeyChurn {
                window,
                s,
                churn_every,
                step,
            } => BuiltGenerator::KeyChurn(KeyChurn::new(window, s, churn_every, step, seed)),
        }
    }

    /// Short label used in scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            GeneratorSpec::Uniform { .. } => "uniform",
            GeneratorSpec::Zipf { .. } => "zipf",
            GeneratorSpec::SortedRamp { .. } => "ramp",
            GeneratorSpec::ShiftingZipf { .. } => "shifting-zipf",
            GeneratorSpec::TwoPhaseDrift { .. } => "drift",
            GeneratorSpec::FlashCrowd { .. } => "flash-crowd",
            GeneratorSpec::Diurnal { .. } => "diurnal",
            GeneratorSpec::KeyChurn { .. } => "key-churn",
        }
    }
}

/// Enum-dispatched generator so scenarios stay `Copy`-able specs while the
/// built stream remains a concrete `Iterator`.
#[derive(Debug, Clone)]
pub enum BuiltGenerator {
    /// See [`GeneratorSpec::Uniform`].
    Uniform(Uniform),
    /// See [`GeneratorSpec::Zipf`].
    Zipf(Zipf),
    /// See [`GeneratorSpec::SortedRamp`].
    SortedRamp(SortedRamp),
    /// See [`GeneratorSpec::ShiftingZipf`].
    ShiftingZipf(ShiftingZipf),
    /// See [`GeneratorSpec::TwoPhaseDrift`].
    TwoPhaseDrift(TwoPhaseDrift),
    /// See [`GeneratorSpec::FlashCrowd`].
    FlashCrowd(FlashCrowd),
    /// See [`GeneratorSpec::Diurnal`].
    Diurnal(Diurnal),
    /// See [`GeneratorSpec::KeyChurn`].
    KeyChurn(KeyChurn),
}

impl Generator for BuiltGenerator {
    fn next_item(&mut self) -> u64 {
        match self {
            BuiltGenerator::Uniform(g) => g.next_item(),
            BuiltGenerator::Zipf(g) => g.next_item(),
            BuiltGenerator::SortedRamp(g) => g.next_item(),
            BuiltGenerator::ShiftingZipf(g) => g.next_item(),
            BuiltGenerator::TwoPhaseDrift(g) => g.next_item(),
            BuiltGenerator::FlashCrowd(g) => g.next_item(),
            BuiltGenerator::Diurnal(g) => g.next_item(),
            BuiltGenerator::KeyChurn(g) => g.next_item(),
        }
    }
}

/// How items are routed to sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignmentSpec {
    /// Sites 0, 1, …, k−1 in rotation.
    RoundRobin,
    /// Uniformly random site per item.
    UniformSites,
    /// Zipf-skewed site popularity (one hot site).
    SkewedSites {
        /// Site-popularity skew.
        s: f64,
    },
    /// Long single-site bursts, hopping between sites.
    Bursts {
        /// Items per burst.
        burst_len: u64,
    },
    /// One straggler site, rest fast: site 0 gets `slow_run` consecutive
    /// items, then sites 1..k one each, repeating — the concurrency-shaped
    /// axis (skewed site speeds) for the parallel backends.
    Straggler {
        /// Consecutive items per site-0 run.
        slow_run: u64,
    },
    /// A rotating active window of sites: only `active` consecutive
    /// sites receive items during each epoch, and the window advances
    /// one site per epoch — deterministic join/leave membership churn.
    SiteChurn {
        /// Sites simultaneously active.
        active: u32,
        /// Items per epoch (window position advances between epochs).
        epoch: u64,
    },
}

impl AssignmentSpec {
    /// Instantiate the assignment for `k` sites with `seed`.
    pub fn build(&self, k: u32, seed: u64) -> BuiltAssignment {
        match *self {
            AssignmentSpec::RoundRobin => BuiltAssignment::RoundRobin(RoundRobin::new(k)),
            AssignmentSpec::UniformSites => {
                BuiltAssignment::UniformSites(UniformSites::new(k, seed))
            }
            AssignmentSpec::SkewedSites { s } => {
                BuiltAssignment::SkewedSites(SkewedSites::new(k, s, seed))
            }
            AssignmentSpec::Bursts { burst_len } => {
                BuiltAssignment::Bursts(Bursts::new(k, burst_len, seed))
            }
            AssignmentSpec::Straggler { slow_run } => {
                BuiltAssignment::Straggler(Straggler::new(k, slow_run))
            }
            AssignmentSpec::SiteChurn { active, epoch } => {
                BuiltAssignment::SiteChurn(SiteChurn::new(k, active, epoch))
            }
        }
    }

    /// Short label used in scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            AssignmentSpec::RoundRobin => "round-robin",
            AssignmentSpec::UniformSites => "uniform-sites",
            AssignmentSpec::SkewedSites { .. } => "skewed-sites",
            AssignmentSpec::Bursts { .. } => "bursts",
            AssignmentSpec::Straggler { .. } => "straggler",
            AssignmentSpec::SiteChurn { .. } => "site-churn",
        }
    }
}

/// Enum-dispatched assignment (see [`BuiltGenerator`]).
#[derive(Debug, Clone)]
pub enum BuiltAssignment {
    /// See [`AssignmentSpec::RoundRobin`].
    RoundRobin(RoundRobin),
    /// See [`AssignmentSpec::UniformSites`].
    UniformSites(UniformSites),
    /// See [`AssignmentSpec::SkewedSites`].
    SkewedSites(SkewedSites),
    /// See [`AssignmentSpec::Bursts`].
    Bursts(Bursts),
    /// See [`AssignmentSpec::Straggler`].
    Straggler(Straggler),
    /// See [`AssignmentSpec::SiteChurn`].
    SiteChurn(SiteChurn),
}

impl Assignment for BuiltAssignment {
    fn next_site(&mut self) -> SiteId {
        match self {
            BuiltAssignment::RoundRobin(a) => a.next_site(),
            BuiltAssignment::UniformSites(a) => a.next_site(),
            BuiltAssignment::SkewedSites(a) => a.next_site(),
            BuiltAssignment::Bursts(a) => a.next_site(),
            BuiltAssignment::Straggler(a) => a.next_site(),
            BuiltAssignment::SiteChurn(a) => a.next_site(),
        }
    }
}

/// Which protocol (and which local store) tracks the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// §1 counter: (1+ε)-approximate |A|.
    Counter,
    /// §2.1 heavy hitters with exact per-site frequency stores.
    HhExact,
    /// §2.1 heavy hitters with SpaceSaving sites (small space).
    HhSketched,
    /// §3.1 single φ-quantile with exact (`ExactOrdered`) sites.
    QuantileExact {
        /// Tracked quantile.
        phi: f64,
    },
    /// §3.1 single φ-quantile with Greenwald–Khanna sites.
    QuantileSketched {
        /// Tracked quantile.
        phi: f64,
    },
    /// §4 all-quantiles tree with exact sites.
    AllQExact,
    /// CGMR'05 baseline (summary re-shipping) for all quantiles.
    Cgmr,
    /// Periodic-polling strawman baseline.
    Polling,
    /// Forward-every-arrival baseline: exact answers at n words.
    ForwardAll,
}

impl ProtocolSpec {
    /// Short label used in scenario names (a field of the protocol's
    /// [`crate::registry`] profile — the registry is the one place that
    /// dispatches over `ProtocolSpec`).
    pub fn label(&self) -> &'static str {
        crate::registry::profile(*self).label
    }
}

/// Optional protocol-internal knobs, used by the ablation experiments.
/// `None` everywhere (the default) means "the paper's constants".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tuning {
    /// Override the warm-up length (items forwarded verbatim before
    /// tracking starts).
    pub warmup: Option<u64>,
    /// Heavy hitters: re-sync after this many `all`-signals instead of k.
    pub resync_after: Option<u32>,
    /// Single quantile: interval granularity constant instead of 3.
    pub granularity: Option<u32>,
}

/// One fully determined differential-test run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Workload generator.
    pub generator: GeneratorSpec,
    /// Site assignment.
    pub assignment: AssignmentSpec,
    /// Number of sites (>= 2).
    pub k: u32,
    /// Approximation error ε.
    pub epsilon: f64,
    /// Stream length.
    pub n: u64,
    /// Master seed; generator and assignment derive distinct sub-seeds.
    pub seed: u64,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Protocol-internal overrides (ablations); default is the paper's.
    pub tuning: Tuning,
    /// Seeded fault schedule; default is the benign (fault-free) plan.
    pub faults: FaultPlan,
}

impl Scenario {
    /// A scenario with default (paper-constant) tuning.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        generator: GeneratorSpec,
        assignment: AssignmentSpec,
        k: u32,
        epsilon: f64,
        n: u64,
        seed: u64,
        protocol: ProtocolSpec,
    ) -> Self {
        Scenario {
            generator,
            assignment,
            k,
            epsilon,
            n,
            seed,
            protocol,
            tuning: Tuning::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Attach a fault schedule (hostile-traffic scenarios).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        debug_assert!(
            faults.validate(self.k, self.n).is_ok(),
            "invalid fault plan for this scenario: {:?}",
            faults.validate(self.k, self.n)
        );
        self.faults = faults;
        self
    }

    /// Override the warm-up length.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.tuning.warmup = Some(warmup);
        self
    }

    /// Override the heavy-hitter re-sync trigger (ablation E15).
    pub fn with_resync_after(mut self, resync_after: u32) -> Self {
        self.tuning.resync_after = Some(resync_after);
        self
    }

    /// Override the quantile interval granularity (ablation E16).
    pub fn with_granularity(mut self, granularity: u32) -> Self {
        self.tuning.granularity = Some(granularity);
        self
    }
    /// The assigned stream this scenario feeds, as a fresh iterator.
    pub fn stream(&self) -> Stream<BuiltGenerator, BuiltAssignment> {
        Stream::new(
            self.generator.build(self.seed.wrapping_mul(2) + 1),
            self.assignment
                .build(self.k, self.seed.wrapping_mul(2654435761) + 7),
            self.n,
        )
    }

    /// Interval between mid-stream oracle checkpoints (~16 per run, and
    /// co-prime-ish with common stream periods so checks don't alias
    /// bursts or drift phases).
    pub fn check_every(&self) -> u64 {
        (self.n / 16).max(1) | 1
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/k{}/eps{}/n{}/seed{}{}",
            self.protocol.label(),
            self.generator.label(),
            self.assignment.label(),
            self.k,
            self.epsilon,
            self.n,
            self.seed,
            self.faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_streams_are_reproducible() {
        let s = Scenario::new(
            GeneratorSpec::Zipf {
                universe: 1 << 16,
                s: 1.2,
            },
            AssignmentSpec::UniformSites,
            4,
            0.1,
            500,
            9,
            ProtocolSpec::HhExact,
        );
        let a: Vec<_> = s.stream().collect();
        let b: Vec<_> = s.stream().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|(site, _)| site.0 < 4));
    }

    #[test]
    fn different_seeds_differ() {
        let base = Scenario::new(
            GeneratorSpec::Uniform { universe: 1 << 30 },
            AssignmentSpec::UniformSites,
            3,
            0.1,
            200,
            1,
            ProtocolSpec::Counter,
        );
        let other = Scenario { seed: 2, ..base };
        let a: Vec<_> = base.stream().collect();
        let b: Vec<_> = other.stream().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn names_are_stable_identifiers() {
        let s = Scenario::new(
            GeneratorSpec::SortedRamp { start: 0, step: 3 },
            AssignmentSpec::Bursts { burst_len: 50 },
            6,
            0.05,
            1000,
            42,
            ProtocolSpec::AllQExact,
        );
        assert_eq!(
            s.to_string(),
            "allq-exact/ramp/bursts/k6/eps0.05/n1000/seed42"
        );
    }

    #[test]
    fn fault_plans_extend_the_name_without_touching_benign_ids() {
        use crate::faults::{FaultPlan, KillFault};
        let base = Scenario::new(
            GeneratorSpec::FlashCrowd {
                universe: 1 << 16,
                s: 1.2,
                period: 500,
                flash_len: 100,
            },
            AssignmentSpec::SiteChurn {
                active: 2,
                epoch: 64,
            },
            4,
            0.1,
            6000,
            601,
            ProtocolSpec::Counter,
        );
        assert_eq!(
            base.to_string(),
            "counter/flash-crowd/site-churn/k4/eps0.1/n6000/seed601"
        );
        let faulted = base.with_faults(FaultPlan {
            kill: Some(KillFault { site: 1, at: 3000 }),
            ..FaultPlan::default()
        });
        assert_eq!(
            faulted.to_string(),
            "counter/flash-crowd/site-churn/k4/eps0.1/n6000/seed601/kill1@3000"
        );
        // Faulted scenarios replay the same stream as their benign twin:
        // the plan perturbs delivery, never generation.
        let a: Vec<_> = base.stream().collect();
        let b: Vec<_> = faulted.stream().collect();
        assert_eq!(a, b);
    }
}
