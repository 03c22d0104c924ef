//! # dtrack-baseline — the protocols the paper improves upon
//!
//! Three baselines, all implemented from scratch against the same
//! [`dtrack_sim`] runtime so their communication is metered identically to
//! the Yi–Zhang protocols:
//!
//! * [`cgmr::CgmrCoordinator`] — the prior state of the art for
//!   distributed all-quantile tracking, Cormode, Garofalakis,
//!   Muthukrishnan & Rastogi (SIGMOD 2005), the paper's reference \[7\]:
//!   every site re-ships an ε/4-accurate summary of its entire local
//!   stream whenever its local count grows by a (1+ε/4) factor. Total
//!   cost O(k/ε² · log n) — the Θ(1/ε) gap to Theorem 4.1 is the paper's
//!   headline improvement, regenerated by experiments E3 and E10.
//! * [`naive::ForwardAllSite`] — every arrival is forwarded; exact
//!   answers at cost n words. The paper's model section notes this is
//!   optimal when n is small; experiment E14 locates the crossover.
//! * [`naive::PollingCoordinator`] — the "poll"-based strawman from the
//!   paper's introduction: the coordinator re-collects all summaries
//!   every time the (counter-tracked) global count grows by (1+ε).

pub mod cgmr;
pub mod naive;

pub use cgmr::{CgmrConfig, CgmrCoordinator, CgmrSite};
pub use naive::{
    ForwardAllCoordinator, ForwardAllSite, PollingConfig, PollingCoordinator, PollingSite,
};
