//! **The** protocol registry: the single `ProtocolSpec` dispatch table in
//! the workspace.
//!
//! Every protocol-specific fact the harness needs lives in one
//! [`ProtocolProfile`] row: how to build a [`Tracker`] for a scenario,
//! the protocol's default warm-up, the Θ-shape of the paper's
//! communication bound, whether order-adversarial generators get budget
//! headroom, and how to check the ε-guarantee against the exact oracle at
//! a checkpoint. The scenario driver ([`crate::runner`]), the budget
//! calculator ([`crate::bound`]), and
//! [`crate::scenario::ProtocolSpec::label`] all consume rows from here —
//! adding a protocol (or a backend) touches exactly this table, nothing
//! else.
//!
//! Checks are written against the typed [`Query`] → [`Answer`] facade
//! surface, so the same check code runs unchanged on every backend.

use crate::bound::BudgetShape;
use crate::scenario::{ProtocolSpec, Scenario};
use dtrack_baseline::cgmr::CgmrProtocol;
use dtrack_baseline::naive::{ForwardAllProtocol, PollingProtocol};
use dtrack_baseline::{CgmrConfig, PollingConfig};
use dtrack_core::allq::{AllQConfig, AllQExactProtocol};
use dtrack_core::counter::CounterProtocol;
use dtrack_core::hh::{HhConfig, HhExactProtocol, HhSketchedProtocol};
use dtrack_core::quantile::{QuantileConfig, QuantileExactProtocol, QuantileSketchedProtocol};
use dtrack_core::ExactOracle;
use dtrack_sim::{Answer, BackendKind, FlowControlConfig, Query, Tracker, PROBE_PHIS};
use std::time::Duration;

/// Default quiescence deadline every harness-built tracker carries: far
/// above any healthy settle (the release suites finish whole scenarios in
/// seconds) yet finite, so a stalled or dead site degrades a run to a
/// typed [`dtrack_sim::SimError::Timeout`] failure instead of hanging the
/// suite forever.
pub const DEFAULT_SETTLE_DEADLINE: Duration = Duration::from_secs(30);

/// Build a ready-to-feed [`Tracker`] for a scenario, with the given
/// warm-up target baked into the protocol config.
pub type BuildFn = fn(&Scenario, u64, BackendKind) -> Result<Tracker, String>;

/// Check the ε-guarantee against the oracle at one checkpoint; returns
/// the number of individual comparisons performed.
pub type CheckFn = fn(&mut Tracker, &ExactOracle, &Scenario) -> Result<u64, String>;

/// The protocol's default warm-up target for a scenario.
pub type WarmupFn = fn(&Scenario) -> Result<u64, String>;

/// Everything protocol-specific the harness knows, in one row.
pub struct ProtocolProfile {
    /// Short label used in scenario names and reports.
    pub label: &'static str,
    /// The protocol's own warm-up default; `None` for protocols without
    /// a warm-up phase (their budget warm-up term is 0 and warm-up
    /// tuning is ignored).
    pub default_warmup: Option<WarmupFn>,
    /// Tracker construction.
    pub build: BuildFn,
    /// Θ-shape and constant of the paper's communication bound.
    pub budget: BudgetShape,
    /// Order-statistic protocol: order-adversarial generators (sorted
    /// ramp, band jump) get 2× budget headroom.
    pub order_sensitive: bool,
    /// Checkpoint oracle check.
    pub check: CheckFn,
}

/// Look up the profile for a protocol — the one place in the workspace
/// that dispatches over `ProtocolSpec`.
pub fn profile(spec: ProtocolSpec) -> &'static ProtocolProfile {
    match spec {
        ProtocolSpec::Counter => &COUNTER,
        ProtocolSpec::HhExact => &HH_EXACT,
        ProtocolSpec::HhSketched => &HH_SKETCHED,
        ProtocolSpec::QuantileExact { .. } => &QUANTILE_EXACT,
        ProtocolSpec::QuantileSketched { .. } => &QUANTILE_SKETCHED,
        ProtocolSpec::AllQExact => &ALLQ_EXACT,
        ProtocolSpec::Cgmr => &CGMR,
        ProtocolSpec::Polling => &POLLING,
        ProtocolSpec::ForwardAll => &FORWARD_ALL,
    }
}

/// Which warm-up a driver wants when the scenario doesn't override it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmupPolicy {
    /// Differential mode pins warm-up to n/8 (≥ 32) so most of the
    /// stream runs in tracking mode and budget calibration sees one
    /// consistent policy.
    Differential,
    /// Meter/throughput mode keeps the protocol's default so cost tables
    /// reflect the paper's configuration.
    ProtocolDefault,
}

/// Resolve the warm-up target for a scenario: `tuning.warmup` overrides,
/// otherwise the policy decides; protocols without a warm-up phase
/// always resolve to 0.
pub fn resolve_warmup(
    profile: &ProtocolProfile,
    scenario: &Scenario,
    policy: WarmupPolicy,
) -> Result<u64, String> {
    let Some(default) = profile.default_warmup else {
        return Ok(0);
    };
    if let Some(w) = scenario.tuning.warmup {
        return Ok(w);
    }
    match policy {
        WarmupPolicy::Differential => Ok((scenario.n / 8).max(32)),
        WarmupPolicy::ProtocolDefault => default(scenario),
    }
}

/// Build a tracker for a scenario under a warm-up policy (resolving the
/// warm-up first); returns the tracker and the warm-up it was built with
/// (the budget needs it).
pub fn build_tracker(
    scenario: &Scenario,
    policy: WarmupPolicy,
    backend: BackendKind,
) -> Result<(Tracker, u64), String> {
    let profile = profile(scenario.protocol);
    let warmup = resolve_warmup(profile, scenario, policy)?;
    let tracker = (profile.build)(scenario, warmup, backend)?;
    Ok((tracker, warmup))
}

// ---------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------

static COUNTER: ProtocolProfile = ProtocolProfile {
    label: "counter",
    default_warmup: None,
    build: build_counter,
    budget: BudgetShape::KOverEps(8.0),
    order_sensitive: false,
    check: check_counter,
};

static HH_EXACT: ProtocolProfile = ProtocolProfile {
    label: "hh-exact",
    default_warmup: Some(hh_default_warmup),
    build: build_hh_exact,
    budget: BudgetShape::KOverEps(24.0),
    order_sensitive: false,
    check: check_hh,
};

static HH_SKETCHED: ProtocolProfile = ProtocolProfile {
    label: "hh-sketched",
    default_warmup: Some(hh_default_warmup),
    build: build_hh_sketched,
    budget: BudgetShape::KOverEps(24.0),
    order_sensitive: false,
    check: check_hh,
};

static QUANTILE_EXACT: ProtocolProfile = ProtocolProfile {
    label: "quantile-exact",
    default_warmup: Some(quantile_default_warmup),
    build: build_quantile_exact,
    budget: BudgetShape::KOverEps(48.0),
    order_sensitive: true,
    check: check_quantile,
};

static QUANTILE_SKETCHED: ProtocolProfile = ProtocolProfile {
    label: "quantile-sketched",
    default_warmup: Some(quantile_default_warmup),
    build: build_quantile_sketched,
    budget: BudgetShape::KOverEps(48.0),
    order_sensitive: true,
    check: check_quantile,
};

static ALLQ_EXACT: ProtocolProfile = ProtocolProfile {
    label: "allq-exact",
    default_warmup: Some(allq_default_warmup),
    build: build_allq,
    budget: BudgetShape::KOverEpsLogSqInvEps(48.0),
    order_sensitive: true,
    check: check_allq,
};

static CGMR: ProtocolProfile = ProtocolProfile {
    label: "cgmr",
    default_warmup: None,
    build: build_cgmr,
    budget: BudgetShape::KOverEpsSq(24.0),
    order_sensitive: true,
    check: check_cgmr,
};

static POLLING: ProtocolProfile = ProtocolProfile {
    label: "polling",
    default_warmup: None,
    build: build_polling,
    budget: BudgetShape::KOverEpsSq(24.0),
    order_sensitive: true,
    check: check_polling,
};

static FORWARD_ALL: ProtocolProfile = ProtocolProfile {
    label: "forward-all",
    default_warmup: None,
    build: build_forward_all,
    budget: BudgetShape::Linear(2.0),
    order_sensitive: false,
    check: check_forward_all,
};

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

fn err_str<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The tracked φ of a single-quantile scenario (only those scenarios
/// carry one; any other protocol never reaches this).
fn scenario_phi(scenario: &Scenario) -> f64 {
    match scenario.protocol {
        ProtocolSpec::QuantileExact { phi } | ProtocolSpec::QuantileSketched { phi } => phi,
        _ => 0.5,
    }
}

fn finish_build<P: dtrack_sim::Protocol>(
    scenario: &Scenario,
    backend: BackendKind,
    protocol: P,
) -> Result<Tracker, String> {
    let mut builder = Tracker::builder()
        .sites(scenario.k)
        .backend(backend)
        .settle_deadline(DEFAULT_SETTLE_DEADLINE)
        // Adaptive free-running flow control, starting at the k-aware run
        // length the driver feeds with so the first runs are neither
        // split nor buffered.
        .flow_control(FlowControlConfig {
            initial: crate::runner::free_run_len(scenario.k) as u32,
            ..FlowControlConfig::default()
        });
    if let Some(cap) = scenario.faults.queue_cap {
        // Queue-cap fault axis: shallow site queues force backpressure on
        // the pool (the deterministic backend has no queues).
        builder = builder.site_queue_cap(cap as usize);
    }
    builder.protocol(protocol).build().map_err(err_str)
}

fn hh_config(scenario: &Scenario, warmup: u64) -> Result<HhConfig, String> {
    let mut config = HhConfig::new(scenario.k, scenario.epsilon)
        .map_err(err_str)?
        .with_warmup_target(warmup);
    if let Some(r) = scenario.tuning.resync_after {
        config = config.with_resync_after(r);
    }
    Ok(config)
}

fn hh_default_warmup(scenario: &Scenario) -> Result<u64, String> {
    Ok(HhConfig::new(scenario.k, scenario.epsilon)
        .map_err(err_str)?
        .warmup_target)
}

fn quantile_config(scenario: &Scenario, warmup: u64) -> Result<QuantileConfig, String> {
    let mut config = QuantileConfig::new(scenario.k, scenario.epsilon, scenario_phi(scenario))
        .map_err(err_str)?
        .with_warmup_target(warmup);
    if let Some(g) = scenario.tuning.granularity {
        config = config.with_granularity(g);
    }
    Ok(config)
}

fn quantile_default_warmup(scenario: &Scenario) -> Result<u64, String> {
    Ok(
        QuantileConfig::new(scenario.k, scenario.epsilon, scenario_phi(scenario))
            .map_err(err_str)?
            .warmup_target,
    )
}

fn allq_config(scenario: &Scenario, warmup: u64) -> Result<AllQConfig, String> {
    Ok(AllQConfig::new(scenario.k, scenario.epsilon)
        .map_err(err_str)?
        .with_warmup_target(warmup))
}

fn allq_default_warmup(scenario: &Scenario) -> Result<u64, String> {
    Ok(AllQConfig::new(scenario.k, scenario.epsilon)
        .map_err(err_str)?
        .warmup_target)
}

fn build_counter(s: &Scenario, _warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    finish_build(
        s,
        backend,
        CounterProtocol::new(s.epsilon).map_err(err_str)?,
    )
}

fn build_hh_exact(s: &Scenario, warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    finish_build(s, backend, HhExactProtocol::new(hh_config(s, warmup)?))
}

fn build_hh_sketched(s: &Scenario, warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    finish_build(s, backend, HhSketchedProtocol::new(hh_config(s, warmup)?))
}

fn build_quantile_exact(
    s: &Scenario,
    warmup: u64,
    backend: BackendKind,
) -> Result<Tracker, String> {
    finish_build(
        s,
        backend,
        QuantileExactProtocol::new(quantile_config(s, warmup)?),
    )
}

fn build_quantile_sketched(
    s: &Scenario,
    warmup: u64,
    backend: BackendKind,
) -> Result<Tracker, String> {
    finish_build(
        s,
        backend,
        QuantileSketchedProtocol::new(quantile_config(s, warmup)?),
    )
}

fn build_allq(s: &Scenario, warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    finish_build(s, backend, AllQExactProtocol::new(allq_config(s, warmup)?))
}

fn build_cgmr(s: &Scenario, _warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    let config = CgmrConfig::new(s.k, s.epsilon)?;
    finish_build(s, backend, CgmrProtocol::new(config))
}

fn build_polling(s: &Scenario, _warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    let config = PollingConfig::new(s.k, s.epsilon)?;
    finish_build(s, backend, PollingProtocol::new(config))
}

fn build_forward_all(s: &Scenario, _warmup: u64, backend: BackendKind) -> Result<Tracker, String> {
    finish_build(s, backend, ForwardAllProtocol::new())
}

// ---------------------------------------------------------------------
// Checkpoint checks (typed queries vs the exact oracle)
// ---------------------------------------------------------------------

/// Heavy-hitter thresholds probed at checkpoints — the same canonical
/// grid the protocols' answer sets use, so checks and pinned answers
/// can never drift apart.
const HH_CHECK_PHIS: [f64; 5] = dtrack_sim::HH_PROBE_PHIS;

fn query_count(t: &mut Tracker) -> Result<u64, String> {
    t.query(Query::Count)
        .map_err(err_str)?
        .as_count()
        .ok_or_else(|| "count query returned a non-count answer".to_owned())
}

fn query_quantile(t: &mut Tracker, q: Query) -> Result<Option<u64>, String> {
    t.query(q)
        .map_err(err_str)?
        .as_quantile()
        .ok_or_else(|| "quantile query returned a non-quantile answer".to_owned())
}

fn query_rank(t: &mut Tracker, x: u64) -> Result<u64, String> {
    t.query(Query::RankLt { x })
        .map_err(err_str)?
        .as_count()
        .ok_or_else(|| "rank query returned a non-rank answer".to_owned())
}

fn query_heavy(t: &mut Tracker, phi: f64) -> Result<Vec<u64>, String> {
    match t.query(Query::HeavyHitters { phi }).map_err(err_str)? {
        Answer::HeavyHitters { items, .. } => Ok(items),
        other => Err(format!("heavy-hitter query answered {other}")),
    }
}

fn check_counter(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let n = oracle.total();
    let est = query_count(t)?;
    if est > n {
        return Err(format!("counter overestimates: {est} > {n}"));
    }
    // Each of the k sites can hold back one (1+ε)-factor step.
    if (est as f64) < (1.0 - s.epsilon) * n as f64 - s.k as f64 {
        return Err(format!("counter estimate {est} below (1-eps)n for n={n}"));
    }
    Ok(2)
}

fn check_hh(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let eps = s.epsilon;
    let m = oracle.total();
    let global_count = query_count(t)?;
    // Invariant (3) of Figure 1: the tracked count is an
    // (1−ε/3)-underestimate of m.
    if global_count > m {
        return Err(format!("tracked count {global_count} > true {m}"));
    }
    if (global_count as f64) < m as f64 * (1.0 - eps / 3.0) - 1.0 {
        return Err(format!("tracked count {global_count} too stale for m={m}"));
    }
    let mut checks = 1;
    for phi in HH_CHECK_PHIS {
        if phi <= eps {
            continue;
        }
        let reported = query_heavy(t, phi)?;
        if let Some(violation) = oracle.check_heavy_hitters(&reported, phi, eps) {
            return Err(format!("phi={phi}: {violation}"));
        }
        checks += 1;
    }
    Ok(checks)
}

fn check_quantile(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let phi = scenario_phi(s);
    let Some(q) = query_quantile(t, Query::TrackedQuantile)? else {
        return if oracle.total() == 0 {
            Ok(0)
        } else {
            Err("no quantile answer on a nonempty stream".to_owned())
        };
    };
    if !oracle.quantile_ok(q, phi, s.epsilon) {
        return Err(format!(
            "phi={phi}: {q} outside the ε-band (rank {} of {})",
            oracle.rank_lt(q),
            oracle.total()
        ));
    }
    Ok(1)
}

fn check_allq(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let eps = s.epsilon;
    let n = oracle.total();
    if n == 0 {
        return Ok(0);
    }
    let mut checks = 0;
    for phi in PROBE_PHIS {
        let q = query_quantile(t, Query::Quantile { phi })?
            .ok_or_else(|| format!("phi={phi}: no answer on a nonempty stream"))?;
        if !oracle.quantile_ok(q, phi, eps) {
            return Err(format!(
                "phi={phi}: {q} outside the ε-band (rank {} of {n})",
                oracle.rank_lt(q)
            ));
        }
        checks += 1;
    }
    // Rank queries: probe at the oracle's own quantile positions so the
    // probes track the value distribution (and its drift) exactly.
    for phi in PROBE_PHIS {
        let probe = oracle.quantile(phi).expect("nonempty");
        let est = query_rank(t, probe)?;
        let truth = oracle.rank_lt(probe);
        if est.abs_diff(truth) as f64 > eps * n as f64 + 2.0 {
            return Err(format!(
                "rank_lt({probe}): {est} vs true {truth}, beyond εn = {}",
                eps * n as f64
            ));
        }
        checks += 1;
    }
    Ok(checks)
}

fn check_cgmr(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let eps = s.epsilon;
    let n = oracle.total();
    if n == 0 {
        return Ok(0);
    }
    let mut checks = 0;
    for phi in PROBE_PHIS {
        let q = query_quantile(t, Query::Quantile { phi })?
            .ok_or_else(|| format!("phi={phi}: no answer on a nonempty stream"))?;
        if !oracle.quantile_ok(q, phi, eps) {
            return Err(format!(
                "phi={phi}: {q} outside the ε-band (rank {} of {n})",
                oracle.rank_lt(q)
            ));
        }
        let probe = oracle.quantile(phi).expect("nonempty");
        let est = query_rank(t, probe)?;
        let truth = oracle.rank_lt(probe);
        if est.abs_diff(truth) as f64 > eps * n as f64 + 2.0 {
            return Err(format!("rank_lt({probe}): {est} vs true {truth}"));
        }
        checks += 2;
    }
    Ok(checks)
}

fn check_polling(t: &mut Tracker, oracle: &ExactOracle, s: &Scenario) -> Result<u64, String> {
    let eps = s.epsilon;
    let n = oracle.total();
    if n == 0 {
        return Ok(0);
    }
    let mut checks = 0;
    for phi in PROBE_PHIS {
        let q = query_quantile(t, Query::Quantile { phi })?
            .ok_or_else(|| format!("phi={phi}: no answer on a nonempty stream"))?;
        // Between polls up to εn arrivals are unaccounted on top of
        // the summaries' own εn error — the strawman's band is 2ε.
        if !oracle.quantile_ok(q, phi, 2.0 * eps) {
            return Err(format!(
                "phi={phi}: {q} outside the 2ε-band (rank {} of {n})",
                oracle.rank_lt(q)
            ));
        }
        checks += 1;
    }
    Ok(checks)
}

fn check_forward_all(t: &mut Tracker, oracle: &ExactOracle, _s: &Scenario) -> Result<u64, String> {
    let n = oracle.total();
    let total = query_count(t)?;
    if total != n {
        return Err(format!("total {total} != true {n}"));
    }
    if n == 0 {
        return Ok(1);
    }
    let mut checks = 1;
    for phi in PROBE_PHIS {
        let probe = oracle.quantile(phi).expect("nonempty");
        let est = query_rank(t, probe)?;
        if est != oracle.rank_lt(probe) {
            return Err(format!(
                "rank_lt({probe}): {est} != exact {}",
                oracle.rank_lt(probe)
            ));
        }
        let q = query_quantile(t, Query::Quantile { phi })?
            .ok_or_else(|| format!("phi={phi}: no answer on a nonempty stream"))?;
        // Same multiset ⇒ the answer must be an exact φ-quantile
        // under the rank-interval convention.
        if !oracle.quantile_ok(q, phi, 0.0) {
            return Err(format!("phi={phi}: {q} is not an exact quantile"));
        }
        checks += 2;
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::PROTOCOLS;
    use crate::scenario::{AssignmentSpec, GeneratorSpec};

    #[test]
    fn every_matrix_protocol_has_a_profile_with_matching_label() {
        for spec in PROTOCOLS {
            assert_eq!(profile(spec).label, spec.label());
        }
    }

    #[test]
    fn warmup_resolution_honors_tuning_and_policy() {
        let s = Scenario::new(
            GeneratorSpec::Uniform { universe: 1 << 20 },
            AssignmentSpec::RoundRobin,
            4,
            0.1,
            8_000,
            1,
            ProtocolSpec::HhExact,
        );
        let p = profile(s.protocol);
        // Differential: n/8.
        assert_eq!(
            resolve_warmup(p, &s, WarmupPolicy::Differential).unwrap(),
            1_000
        );
        // Meter: the protocol default (k/ε for hh).
        let default = resolve_warmup(p, &s, WarmupPolicy::ProtocolDefault).unwrap();
        assert_eq!(default, hh_default_warmup(&s).unwrap());
        // Tuning overrides both.
        let tuned = s.with_warmup(123);
        for policy in [WarmupPolicy::Differential, WarmupPolicy::ProtocolDefault] {
            assert_eq!(resolve_warmup(p, &tuned, policy).unwrap(), 123);
        }
        // No-warm-up protocols pin to 0 even when tuned.
        let counter = Scenario {
            protocol: ProtocolSpec::Counter,
            ..tuned
        };
        let cp = profile(counter.protocol);
        assert_eq!(
            resolve_warmup(cp, &counter, WarmupPolicy::Differential).unwrap(),
            0
        );
    }

    #[test]
    fn build_tracker_builds_on_both_backends() {
        let s = Scenario::new(
            GeneratorSpec::Zipf {
                universe: 1 << 16,
                s: 1.2,
            },
            AssignmentSpec::RoundRobin,
            3,
            0.1,
            1_000,
            1,
            ProtocolSpec::Counter,
        );
        for backend in [
            BackendKind::Deterministic,
            BackendKind::Sharded { workers: Some(16) },
        ] {
            let (tracker, warmup) = build_tracker(&s, WarmupPolicy::Differential, backend).unwrap();
            assert_eq!(warmup, 0);
            assert_eq!(tracker.protocol_label(), "counter");
            tracker.finish().unwrap();
        }
    }
}
