//! Host speed probes.
//!
//! The benchmark runs on a VM that shares its host, and the speed the host
//! gives it drifts by 20-40% over minutes: memory-bound code slows down,
//! and a hand-off to another thread waits longer for its CPU to wake. So
//! before every pass the benchmark times fixed jobs, written with the
//! standard library only, so that no change to the program moves them:
//!
//! - the memory probe counts the pass's stream into one `BTreeMap` per
//!   site, in ns per item;
//! - on workloads whose timed phase hands work between threads, the
//!   hand-off probe makes [`HANDOFF_TRIPS`] round trips to a freshly
//!   spawned thread over two `std::sync::mpsc` channels, median in µs.
//!
//! The pass's host factor is the memory reading over a fixed reference
//! reading, or, with both probes, the geometric mean of the two such
//! ratios. The end-to-end times are divided by it, so they read as if
//! measured on a host that gives the reference readings.
//!
//! A single-threaded workload gets the memory probe alone: the hand-off
//! reading can sit near 14 µs instead of 4-6 µs for minutes, for example
//! after a compile, while single-threaded code runs no slower.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use dtrack_sim::SiteId;

use crate::stats::median;

/// Round trips of the hand-off probe.
pub const HANDOFF_TRIPS: usize = 64;

/// The reference readings: round figures within the range a 2-vCPU Xeon
/// VM reads (70-110 ns per item, 4-15 µs per round trip).
const MEM_REFERENCE_NS: f64 = 80.0;
const HANDOFF_REFERENCE_US: f64 = 8.0;

/// The probe readings of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub mem_ns_per_item: f64,
    /// `None` when the workload hands no work between threads.
    pub handoff_us: Option<f64>,
}

impl Probe {
    /// Time the memory probe on `stream` spread over `sites` sites, and
    /// the hand-off probe when `hand_offs`.
    pub fn measure(stream: &[(SiteId, u64)], sites: usize, hand_offs: bool) -> Probe {
        Probe {
            mem_ns_per_item: memory(stream, sites),
            handoff_us: hand_offs.then(handoff),
        }
    }

    /// How much slower than the reference readings the host ran the
    /// probes: 1 at the reference readings, 1.2 when 20% slower.
    pub fn factor(&self) -> f64 {
        let mem = self.mem_ns_per_item / MEM_REFERENCE_NS;
        match self.handoff_us {
            Some(us) => (mem * us / HANDOFF_REFERENCE_US).sqrt(),
            None => mem,
        }
    }
}

fn memory(stream: &[(SiteId, u64)], sites: usize) -> f64 {
    let start = Instant::now();
    let mut counts: Vec<BTreeMap<u64, u32>> = vec![BTreeMap::new(); sites];
    for &(site, item) in stream {
        *counts[site.index()].entry(black_box(item)).or_default() += 1;
    }
    black_box(&counts);
    start.elapsed().as_nanos() as f64 / stream.len().max(1) as f64
}

/// NaN when the echo thread cannot be spawned or fails.
fn handoff() -> f64 {
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, from_echo) = mpsc::channel::<u64>();
    let spawned = std::thread::Builder::new().spawn(move || {
        while let Ok(x) = echo_in.recv() {
            if echo_out.send(x).is_err() {
                break;
            }
        }
    });
    let Ok(echo) = spawned else {
        return f64::NAN;
    };
    let mut trips = Vec::with_capacity(HANDOFF_TRIPS);
    for i in 0..HANDOFF_TRIPS as u64 {
        let start = Instant::now();
        let back = to_echo.send(i).ok().and_then(|()| from_echo.recv().ok());
        trips.push(start.elapsed().as_nanos() as f64 / 1e3);
        if black_box(back).is_none() {
            break;
        }
    }
    drop(to_echo);
    if echo.join().is_err() || trips.len() < HANDOFF_TRIPS {
        return f64::NAN;
    }
    median(&trips)
}
