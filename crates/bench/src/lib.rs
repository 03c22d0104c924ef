//! # dtrack-bench — the experiment harness
//!
//! Regenerates, as tables, the empirical counterpart of every theorem and
//! the single figure in Yi & Zhang (PODS 2009). The paper has no measured
//! evaluation section — its "results" are bounds — so each experiment
//! demonstrates the *shape* of a bound: how communication scales with n,
//! k, and ε; how the lower-bound adversaries force cost; and how the
//! structural invariants of Figure 1 hold over time. The [`EXPERIMENTS`]
//! table (printed by `experiments --help`) maps each experiment id to the
//! claim it validates.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p dtrack-bench --bin experiments -- all
//! ```
//!
//! or a single experiment by id (`e1` … `e18`). Each table is printed and
//! also written as CSV under `results/`.

pub mod exp_allq;
pub mod exp_hh;
pub mod exp_lb;
pub mod exp_misc;
pub mod exp_quantile;
pub mod smoke;
pub mod table;

pub use table::Table;

/// All experiment ids with a short description, in order.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("e1", "Thm 2.1 — heavy-hitter cost vs n (log n shape)"),
    ("e2", "Thm 2.1 — heavy-hitter cost vs k (linear shape)"),
    (
        "e3",
        "Thm 2.1 — heavy-hitter cost vs 1/eps, vs CGMR 1/eps^2",
    ),
    (
        "e4",
        "HH correctness: continuous oracle check + observed error",
    ),
    (
        "e5",
        "Thm 2.4 — adversarial lower bound forces Omega(k) per change",
    ),
    ("e6", "Thm 3.1 — median cost vs n (log n shape)"),
    ("e7", "Thm 3.1 — quantile cost vs k and vs 1/eps"),
    (
        "e8",
        "Quantile correctness across phi: observed rank error vs eps*n",
    ),
    ("e9", "Thm 3.2 — median lower-bound construction"),
    (
        "e10",
        "Thm 4.1 — all-quantiles cost vs eps, vs CGMR baseline",
    ),
    ("e11", "All-quantiles rank-query accuracy"),
    (
        "e12",
        "Figure 1 — structural invariants of the quantile tree",
    ),
    ("e13", "Small-space sites: per-site state, exact vs sketch"),
    ("e14", "Naive forward-all crossover (small n)"),
    ("e15", "Ablation: HH re-sync trigger (k/2, k, 2k signals)"),
    ("e16", "Ablation: quantile interval granularity"),
    (
        "e17",
        "§5 remark — randomized sampling vs deterministic, crossover in k",
    ),
    ("e18", "§5 open problem — sliding-window heavy hitters"),
];

/// Dispatch an experiment by id. Returns the produced tables.
pub fn run(id: &str) -> Option<Vec<Table>> {
    let tables = match id {
        "e1" => vec![exp_hh::e1_cost_vs_n()],
        "e2" => vec![exp_hh::e2_cost_vs_k()],
        "e3" => vec![exp_hh::e3_cost_vs_eps_vs_baseline()],
        "e4" => vec![exp_hh::e4_accuracy()],
        "e5" => vec![exp_lb::e5_hh_lower_bound()],
        "e6" => vec![exp_quantile::e6_cost_vs_n()],
        "e7" => exp_quantile::e7_cost_vs_k_and_eps(),
        "e8" => vec![exp_quantile::e8_accuracy()],
        "e9" => vec![exp_lb::e9_median_lower_bound()],
        "e10" => vec![exp_allq::e10_cost_vs_eps_vs_baseline()],
        "e11" => vec![exp_allq::e11_accuracy()],
        "e12" => vec![exp_allq::e12_figure1_invariants()],
        "e13" => vec![exp_misc::e13_space()],
        "e14" => vec![exp_misc::e14_naive_crossover()],
        "e15" => vec![exp_hh::e15_resync_ablation()],
        "e16" => vec![exp_quantile::e16_granularity_ablation()],
        "e17" => vec![exp_misc::e17_sampling_vs_deterministic()],
        "e18" => vec![exp_misc::e18_sliding_window()],
        _ => return None,
    };
    Some(tables)
}
