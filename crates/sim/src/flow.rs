//! Adaptive AIMD flow control for free-running ingest.
//!
//! The paper's guarantee is a communication budget, and PR 3/PR 5
//! measured how free-running ingest can blow it: sites racing ahead of
//! coordinator feedback flood stale-threshold deltas (~30x words at the
//! worst). The fixed one-run-per-site window papered over this with
//! hand-picked constants; this module replaces the constants with a
//! per-site **additive-increase / multiplicative-decrease** controller —
//! classic congestion control, with "congestion" defined as *word-budget
//! drift*:
//!
//! * every cleanly completed run grows that site's run-length window by
//!   [`FlowControlConfig::increase`] (additive increase, up to `win_max`);
//! * a **drift signal** halves windows (multiplicative decrease, floored
//!   at `win_min`). Drift fires when the observed metered words-per-item
//!   exceeds the reference rate installed via `cost_hint` by a fixed
//!   factor of 1.25 (a global signal — the meter is cluster-wide — so
//!   every window halves), or when a site's previous run is still
//!   unconsumed after a fixed 2 ms wait at the moment its buffer is
//!   full (a per-site backpressure signal — only that window halves).
//!
//! [`AimdController`] is a *pure* state machine: no clocks, no channels,
//! no randomness. Feeding two instances the same observation sequence
//! produces bit-identical traces — that determinism is what the
//! proptests pin. The racy part (when observations *happen*) lives in
//! the pool runtime's `AimdWindow`; it only ever changes run boundaries on
//! the free-running `ingest` path, never the settled `feed_batch`
//! schedule, so golden transcripts are untouched.

#![deny(missing_docs)]

use std::fmt;

/// Hard floor for run-length windows (items per run).
pub const WIN_MIN: u32 = 16;

/// Hard ceiling for run-length windows (items per run).
pub const WIN_MAX: u32 = 4096;

/// Tuning knobs for the AIMD free-running flow controller.
///
/// The default configuration is adaptive; [`FlowControlConfig::fixed`]
/// degenerates it to the pre-controller fixed window (`win_min == win_max`,
/// `increase = 0`) for baseline comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowControlConfig {
    /// Smallest per-site run-length window the controller will use.
    pub win_min: u32,
    /// Largest per-site run-length window the controller will grow to.
    pub win_max: u32,
    /// Starting window for every site (clamped into `[win_min, win_max]`).
    pub initial: u32,
    /// Additive increase applied to a site's window after each cleanly
    /// completed run (0 freezes the window).
    pub increase: u32,
    /// Cluster-wide in-flight budget (commands plus undelivered protocol
    /// messages): `ingest` stalls the source before enqueuing a new run
    /// while the cluster's quiescence counter is above this, so
    /// coordinator feedback can never fall a whole free-running stream
    /// behind the items it regulates. `0` disables the stall — the
    /// pre-controller behaviour, kept by [`FlowControlConfig::fixed`].
    /// Per-site windows bound how far *one* site runs ahead; this bounds
    /// the *sum*, which is what actually backs up the (shared)
    /// coordinator when sites outnumber cores.
    pub inflight_cap: u32,
}

impl Default for FlowControlConfig {
    fn default() -> Self {
        FlowControlConfig {
            win_min: WIN_MIN,
            win_max: WIN_MAX,
            initial: 128,
            increase: 16,
            inflight_cap: 1024,
        }
    }
}

impl FlowControlConfig {
    /// The degenerate fixed-window configuration: every run is exactly
    /// `len` items and nothing ever adapts — the pre-AIMD baseline the
    /// bench cells compare against.
    pub fn fixed(len: u32) -> Self {
        let len = len.max(1);
        FlowControlConfig {
            win_min: len,
            win_max: len,
            initial: len,
            increase: 0,
            inflight_cap: 0,
        }
    }

    /// Validate the knobs; `Err` names the offending constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.win_min == 0 {
            return Err("flow-control win_min must be >= 1".to_owned());
        }
        if self.win_min > self.win_max {
            return Err(format!(
                "flow-control win_min {} exceeds win_max {}",
                self.win_min, self.win_max
            ));
        }
        Ok(())
    }
}

/// Observable controller state, answered through
/// [`crate::Query::FlowControl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowControlStats {
    /// Current per-site run-length windows (items per run), indexed by
    /// site.
    pub windows: Vec<u32>,
    /// How many times the drift signal fired (rate drift or
    /// backpressure).
    pub drift_events: u64,
    /// How many windows were actually halved (a drift event on a window
    /// already at `win_min` backs nothing off).
    pub backoffs: u64,
}

impl fmt::Display for FlowControlStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let min = self.windows.iter().min().copied().unwrap_or(0);
        let max = self.windows.iter().max().copied().unwrap_or(0);
        write!(
            f,
            "flow(win={min}..{max}, drift={}, backoff={})",
            self.drift_events, self.backoffs
        )
    }
}

/// The pure AIMD state machine: per-site run-length windows plus event
/// counters. Deterministic — same observation sequence, same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdController {
    config: FlowControlConfig,
    windows: Vec<u32>,
    drift_events: u64,
    backoffs: u64,
}

impl AimdController {
    /// A controller for `sites` sites, all windows at the (clamped)
    /// initial value.
    pub fn new(sites: usize, config: FlowControlConfig) -> Self {
        let initial = config.initial.clamp(config.win_min, config.win_max);
        AimdController {
            config,
            windows: vec![initial; sites],
            drift_events: 0,
            backoffs: 0,
        }
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &FlowControlConfig {
        &self.config
    }

    /// Current run-length window for `site`.
    pub fn window(&self, site: usize) -> u32 {
        self.windows[site]
    }

    /// Additive increase: a run for `site` completed cleanly.
    pub fn clean_run(&mut self, site: usize) {
        let w = &mut self.windows[site];
        *w = w
            .saturating_add(self.config.increase)
            .min(self.config.win_max);
    }

    /// Multiplicative decrease on one site (the backpressure signal).
    pub fn drift_site(&mut self, site: usize) {
        self.drift_events += 1;
        self.halve(site);
    }

    /// Multiplicative decrease on every site (the global words-rate
    /// signal — the meter that observed the drift is cluster-wide).
    pub fn drift_all(&mut self) {
        self.drift_events += 1;
        for site in 0..self.windows.len() {
            self.halve(site);
        }
    }

    fn halve(&mut self, site: usize) {
        let w = &mut self.windows[site];
        if *w > self.config.win_min {
            *w = (*w / 2).max(self.config.win_min);
            self.backoffs += 1;
        }
    }

    /// Snapshot the observable state.
    pub fn stats(&self) -> FlowControlStats {
        FlowControlStats {
            windows: self.windows.clone(),
            drift_events: self.drift_events,
            backoffs: self.backoffs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_grow_additively_and_cap_at_win_max() {
        let cfg = FlowControlConfig {
            win_min: 4,
            win_max: 40,
            initial: 8,
            increase: 16,
            ..FlowControlConfig::default()
        };
        let mut c = AimdController::new(2, cfg);
        assert_eq!(c.window(0), 8);
        c.clean_run(0);
        assert_eq!(c.window(0), 24);
        c.clean_run(0);
        assert_eq!(c.window(0), 40);
        c.clean_run(0);
        assert_eq!(c.window(0), 40, "capped at win_max");
        assert_eq!(c.window(1), 8, "other sites untouched");
    }

    #[test]
    fn drift_halves_and_floors_at_win_min() {
        let cfg = FlowControlConfig {
            win_min: 16,
            win_max: 4096,
            initial: 100,
            ..FlowControlConfig::default()
        };
        let mut c = AimdController::new(1, cfg);
        c.drift_site(0);
        assert_eq!(c.window(0), 50);
        c.drift_site(0);
        assert_eq!(c.window(0), 25);
        c.drift_site(0);
        assert_eq!(c.window(0), 16, "floored, not 12");
        let stats = c.stats();
        assert_eq!(stats.drift_events, 3);
        assert_eq!(stats.backoffs, 3);
        // A drift at the floor counts the event but not a backoff.
        c.drift_site(0);
        assert_eq!(c.window(0), 16);
        assert_eq!(c.stats().drift_events, 4);
        assert_eq!(c.stats().backoffs, 3);
    }

    #[test]
    fn drift_all_hits_every_site() {
        let mut c = AimdController::new(3, FlowControlConfig::default());
        c.drift_all();
        assert!(c.stats().windows.iter().all(|&w| w == 64));
        assert_eq!(c.stats().backoffs, 3);
        assert_eq!(c.stats().drift_events, 1);
    }

    #[test]
    fn fixed_config_never_moves() {
        let mut c = AimdController::new(2, FlowControlConfig::fixed(128));
        c.clean_run(0);
        c.drift_all();
        c.drift_site(1);
        assert_eq!(c.stats().windows, vec![128, 128]);
        assert_eq!(c.stats().backoffs, 0, "no halving below win_min");
    }

    #[test]
    fn validate_rejects_malformed_bounds() {
        assert!(FlowControlConfig::default().validate().is_ok());
        assert!(FlowControlConfig::fixed(1).validate().is_ok());
        let bad = FlowControlConfig {
            win_min: 0,
            ..FlowControlConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FlowControlConfig {
            win_min: 64,
            win_max: 16,
            ..FlowControlConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn stats_display_is_compact() {
        let c = AimdController::new(2, FlowControlConfig::fixed(32));
        assert_eq!(
            c.stats().to_string(),
            "flow(win=32..32, drift=0, backoff=0)"
        );
    }
}
