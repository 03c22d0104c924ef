//! Error type for the simulation substrate.

use std::fmt;

/// Errors raised by the runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A protocol exchange failed to quiesce within the message fuse;
    /// almost certainly a protocol livelock (e.g. two parties triggering
    /// each other forever).
    Livelock {
        /// Number of messages processed before giving up.
        fuse: u64,
    },
    /// An item was fed to a site index that does not exist.
    NoSuchSite {
        /// The offending site index.
        site: u32,
        /// Number of sites in the cluster.
        sites: u32,
    },
    /// The cluster was constructed with fewer than two sites; the model
    /// requires k >= 2 (with k = 1 it degenerates to a single data stream).
    TooFewSites {
        /// The requested number of sites.
        sites: u32,
    },
    /// A site on the pool died, or the coordinator thread disappeared
    /// (its queue or channel disconnected).
    WorkerGone {
        /// Description of the worker.
        who: &'static str,
    },
    /// An item was fed to a site that has been administratively killed by
    /// fault injection ([`crate::backend::FaultEvent::KillSite`]). Unlike
    /// [`SimError::WorkerGone`], the runtime itself is healthy — only this
    /// site is partitioned away, and feeds to other sites still succeed.
    SiteDown {
        /// The dead site's index.
        site: u32,
    },
    /// A deadline-aware wait (`settle_deadline`, `RunTicket::wait_timeout`)
    /// expired before the system went quiescent. The runtime is still
    /// usable — a stalled site may drain later — but the caller asked to
    /// degrade to an error instead of parking unboundedly.
    Timeout {
        /// How long the caller waited, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Livelock { fuse } => write!(
                f,
                "protocol failed to quiesce after {fuse} messages; livelock suspected"
            ),
            SimError::NoSuchSite { site, sites } => {
                write!(f, "site {site} out of range (cluster has {sites} sites)")
            }
            SimError::TooFewSites { sites } => {
                write!(f, "cluster needs at least 2 sites, got {sites}")
            }
            SimError::WorkerGone { who } => write!(f, "worker thread '{who}' disconnected"),
            SimError::SiteDown { site } => {
                write!(f, "site {site} is down (killed by fault injection)")
            }
            SimError::Timeout { waited_ms } => {
                write!(
                    f,
                    "deadline expired after {waited_ms}ms; system not quiescent"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Livelock { fuse: 10 };
        assert!(e.to_string().contains("10"));
        let e = SimError::NoSuchSite { site: 7, sites: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));
        let e = SimError::TooFewSites { sites: 1 };
        assert!(e.to_string().contains("at least 2"));
        let e = SimError::WorkerGone { who: "site-3" };
        assert!(e.to_string().contains("site-3"));
        let e = SimError::SiteDown { site: 2 };
        assert!(e.to_string().contains("site 2"));
        let e = SimError::Timeout { waited_ms: 250 };
        assert!(e.to_string().contains("250ms"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::Livelock { fuse: 1 });
        assert!(!e.to_string().is_empty());
    }
}
