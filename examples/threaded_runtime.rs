//! The same protocol state machines on real OS threads: a work-stealing
//! pool of worker threads serving the sites, one thread for the
//! coordinator, queues in between — behind the exact same `Tracker`
//! facade as the deterministic runtime. The only difference from
//! `quickstart` is `.backend(BackendKind::Sharded { .. })`.
//!
//! Part one feeds items one at a time with a worker per site and queries
//! mid-stream. Part two replays one site-at-a-time `feed_batch` schedule
//! on the deterministic backend and on a pool that multiplexes eight
//! sites onto two workers: the answers *and* the metered words come out
//! identical.
//!
//! ```text
//! cargo run --release --example threaded_runtime
//! ```

use dtrack::prelude::*;
use dtrack::workload::{Generator, Zipf};

/// Per-item feeding on a pool with one worker per site, queried
/// mid-stream.
fn free_running() {
    let k = 4u32;
    let epsilon = 0.05;
    let config = HhConfig::new(k, epsilon).expect("valid parameters");
    let mut tracker = Tracker::builder()
        .backend(BackendKind::Sharded {
            workers: Some(k as usize),
        })
        .protocol(HhExactProtocol::new(config))
        .build()
        .expect("spawn threads");

    let mut gen = Zipf::new(1 << 16, 1.3, 21);
    let n = 200_000u64;
    for i in 0..n {
        tracker
            .feed(SiteId((i % k as u64) as u32), gen.next_item())
            .expect("feed");
        if i % 50_000 == 49_999 {
            // query() settles the cluster first, so the answer reflects a
            // quiescent snapshot — no manual synchronization needed.
            let hh = tracker
                .query(Query::HeavyHitters { phi: 0.1 })
                .expect("query");
            let words = tracker.cost().total_words();
            println!("after {:>7} items: {hh} ({words} words so far)", i + 1);
        }
    }

    let m = tracker
        .query(Query::Count)
        .expect("query")
        .as_count()
        .expect("count answer");
    let meter = tracker.finish().expect("clean shutdown");
    println!(
        "\nfinal: C.m = {} (true {}), {} messages / {} words",
        m,
        n,
        meter.total_messages(),
        meter.total_words()
    );
    assert!(m <= n, "tracked count must underestimate");
}

/// Heavy hitters over 8 sites on a site-at-a-time schedule: the metered
/// (words, messages) and the final answer.
fn transcript(backend: BackendKind, label: &str) -> (u64, u64, String) {
    let k = 8u32;
    let config = HhConfig::new(k, 0.05).expect("valid parameters");
    let mut tracker = Tracker::builder()
        .backend(backend)
        .protocol(HhExactProtocol::new(config))
        .build()
        .expect("spawn backend");

    // Site-at-a-time batches keep the delivery order canonical, so the
    // metered cost is comparable word-for-word across backends.
    let mut gen = Zipf::new(1 << 16, 1.2, 42);
    for site in 0..k {
        let batch: Vec<(SiteId, u64)> = (0..25_000)
            .map(|_| (SiteId(site), gen.next_item()))
            .collect();
        tracker.feed_batch(&batch).expect("feed");
    }

    let answer = tracker
        .query(Query::HeavyHitters { phi: 0.1 })
        .expect("query")
        .to_string();
    let meter = tracker.finish().expect("clean shutdown");
    println!(
        "{label:<18} {:>9} words {:>7} msgs  {answer}",
        meter.total_words(),
        meter.total_messages(),
    );
    (meter.total_words(), meter.total_messages(), answer)
}

fn main() {
    free_running();

    println!("\nheavy hitters over 8 sites, site-at-a-time batches:\n");
    let deterministic = transcript(BackendKind::Deterministic, "deterministic");
    // Eight sites share two worker threads; idle workers steal whole
    // site-runs, so per-site order — and the transcript — is unchanged.
    let pool = transcript(
        BackendKind::Sharded { workers: Some(2) },
        "pool (2 workers)",
    );
    assert_eq!(
        deterministic, pool,
        "the pool's transcript must match the deterministic one"
    );
    println!("\nboth transcripts identical, down to the metered words.");
}
