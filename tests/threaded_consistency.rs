//! The deterministic runner and the multi-pool pool must produce
//! identical answers and identical communication on identical
//! one-item-at-a-time schedules (feeding then settling serializes the
//! pool into the same global order). The `threaded_*` tests give every
//! site a pool worker of its own; the `sharded_*` tests multiplex many
//! sites onto a few workers.

use dtrack::core::hh::{HhConfig, HhCoordinator, HhSite};
use dtrack::core::quantile::{QuantileCoordinator, QuantileSite};
use dtrack::prelude::*;
use dtrack::sim::sharded::{RunTicket, ShardedCluster, ShardedConfig};
use dtrack::workload::{RoundRobin, Stream, Zipf};
use dtrack_testkit::runner::ingest_site_runs;
use dtrack_testkit::{AssignmentSpec, GeneratorSpec, ProtocolSpec, Scenario};

/// One pool worker per site.
fn worker_per_site(k: u32) -> ShardedConfig {
    ShardedConfig {
        workers: Some(k as usize),
        ..ShardedConfig::default()
    }
}

#[test]
fn threaded_matches_deterministic_serialized() {
    let k = 4;
    let epsilon = 0.1;
    let config = HhConfig::new(k, epsilon).unwrap();
    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.4, 7), RoundRobin::new(k), 30_000).collect();

    // Deterministic run.
    let mut det = dtrack::core::hh::exact_cluster(config).unwrap();
    det.feed_stream(stream.iter().copied()).unwrap();
    let det_words = det.meter().total_words();
    let det_msgs = det.meter().total_messages();
    let det_hh = det.coordinator().heavy_hitters(0.1).unwrap();
    let det_m = det.coordinator().global_count();

    // Pool run, serialized by settling after every item.
    let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
    let pool =
        ShardedCluster::spawn_with(sites, HhCoordinator::new(config), worker_per_site(k)).unwrap();
    for &(site, item) in &stream {
        pool.feed(site, item).unwrap();
        pool.settle();
    }
    let pool_hh = pool
        .with_coordinator(|c| c.heavy_hitters(0.1).unwrap())
        .unwrap();
    let pool_m = pool.with_coordinator(|c| c.global_count()).unwrap();
    let (_, _, meter) = pool.shutdown().unwrap();

    assert_eq!(det_hh, pool_hh, "answers diverge");
    assert_eq!(det_m, pool_m, "tracked counts diverge");
    assert_eq!(det_words, meter.total_words(), "word counts diverge");
    assert_eq!(det_msgs, meter.total_messages(), "message counts diverge");
}

/// The same seeded scenario stream through both runtimes (serialized by
/// settling after every item) must report identical final answers and
/// identical metered cost — for every workload/assignment shape in the
/// testkit axes, not just the round-robin Zipf of the test above.
#[test]
fn threaded_matches_deterministic_across_seeded_workloads() {
    let k = 4;
    let epsilon = 0.1;
    let workloads = [
        (
            GeneratorSpec::Uniform { universe: 1 << 30 },
            AssignmentSpec::UniformSites,
        ),
        (
            GeneratorSpec::ShiftingZipf {
                universe: 1 << 16,
                s: 1.3,
                shift_every: 2_000,
            },
            AssignmentSpec::SkewedSites { s: 1.3 },
        ),
        (
            GeneratorSpec::TwoPhaseDrift {
                band: 1 << 16,
                switch_at: 4_000,
            },
            AssignmentSpec::Bursts { burst_len: 53 },
        ),
    ];
    for (seed, (generator, assignment)) in workloads.into_iter().enumerate() {
        let scenario = Scenario::new(
            generator,
            assignment,
            k,
            epsilon,
            8_000,
            100 + seed as u64,
            ProtocolSpec::HhExact,
        );
        let stream: Vec<(SiteId, u64)> = scenario.stream().collect();
        let config = HhConfig::new(k, epsilon).unwrap();

        let mut det = dtrack::core::hh::exact_cluster(config).unwrap();
        det.feed_stream(stream.iter().copied()).unwrap();

        let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
        let pool =
            ShardedCluster::spawn_with(sites, HhCoordinator::new(config), worker_per_site(k))
                .unwrap();
        for &(site, item) in &stream {
            pool.feed(site, item).unwrap();
            pool.settle();
        }
        let pool_hh = pool
            .with_coordinator(|c| c.heavy_hitters(0.15).unwrap())
            .unwrap();
        let pool_m = pool.with_coordinator(|c| c.global_count()).unwrap();
        let (_, _, meter) = pool.shutdown().unwrap();

        let name = scenario.to_string();
        assert_eq!(
            det.coordinator().heavy_hitters(0.15).unwrap(),
            pool_hh,
            "[{name}] answers diverge"
        );
        assert_eq!(
            det.coordinator().global_count(),
            pool_m,
            "[{name}] tracked counts diverge"
        );
        assert_eq!(
            det.meter().total_words(),
            meter.total_words(),
            "[{name}] word counts diverge"
        );
        assert_eq!(
            det.meter().total_messages(),
            meter.total_messages(),
            "[{name}] message counts diverge"
        );
    }
}

/// Same consistency regression for the quantile protocol: both runtimes
/// must land on the identical tracked median and identical cost.
#[test]
fn threaded_matches_deterministic_for_quantile() {
    let k = 4;
    let epsilon = 0.1;
    let config = QuantileConfig::median(k, epsilon)
        .unwrap()
        .with_warmup_target(500);
    let scenario = Scenario::new(
        GeneratorSpec::Zipf {
            universe: 1 << 20,
            s: 1.2,
        },
        AssignmentSpec::RoundRobin,
        k,
        epsilon,
        10_000,
        33,
        ProtocolSpec::QuantileExact { phi: 0.5 },
    );
    let stream: Vec<(SiteId, u64)> = scenario.stream().collect();

    let mut det = dtrack::core::quantile::exact_cluster(config).unwrap();
    det.feed_stream(stream.iter().copied()).unwrap();

    let sites: Vec<_> = (0..k).map(|_| QuantileSite::exact(config)).collect();
    let pool =
        ShardedCluster::spawn_with(sites, QuantileCoordinator::new(config), worker_per_site(k))
            .unwrap();
    for &(site, item) in &stream {
        pool.feed(site, item).unwrap();
        pool.settle();
    }
    let pool_q = pool.with_coordinator(|c| c.quantile()).unwrap();
    let pool_n = pool.with_coordinator(|c| c.n_estimate()).unwrap();
    let (_, _, meter) = pool.shutdown().unwrap();

    assert_eq!(det.coordinator().quantile(), pool_q, "medians diverge");
    assert_eq!(
        det.coordinator().n_estimate(),
        pool_n,
        "n estimates diverge"
    );
    assert_eq!(det.meter().total_words(), meter.total_words());
    assert_eq!(det.meter().total_messages(), meter.total_messages());
}

/// And for the counter: identical estimate, identical cost.
#[test]
fn threaded_matches_deterministic_for_counter() {
    let k = 3;
    let epsilon = 0.05;
    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 20, 1.3, 21), RoundRobin::new(k), 20_000).collect();

    let sites = (0..k).map(|_| CounterSite::new(epsilon).unwrap()).collect();
    let mut det = Cluster::new(sites, CounterCoordinator::new()).unwrap();
    det.feed_stream(stream.iter().copied()).unwrap();

    let sites: Vec<_> = (0..k).map(|_| CounterSite::new(epsilon).unwrap()).collect();
    let pool =
        ShardedCluster::spawn_with(sites, CounterCoordinator::new(), worker_per_site(k)).unwrap();
    for &(site, item) in &stream {
        pool.feed(site, item).unwrap();
        pool.settle();
    }
    let pool_est = pool.with_coordinator(|c| c.estimate()).unwrap();
    let (_, _, meter) = pool.shutdown().unwrap();

    assert_eq!(det.coordinator().estimate(), pool_est, "estimates diverge");
    assert_eq!(det.meter().total_words(), meter.total_words());
    assert_eq!(det.meter().total_messages(), meter.total_messages());
}

/// `ShardedCluster::feed_batch` (site-at-a-time, internally settled per
/// quiescent run) must reproduce the deterministic `Cluster::feed_batch`
/// transcript without the caller settling per item — this is the fast
/// transcript-identical path the testkit equivalence suite drives over
/// the whole matrix; here it is pinned at the integration level.
#[test]
fn threaded_feed_batch_matches_deterministic() {
    let k = 4;
    let epsilon = 0.1;
    let config = HhConfig::new(k, epsilon).unwrap();
    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.4, 7), RoundRobin::new(k), 30_000).collect();

    let mut det = dtrack::core::hh::exact_cluster(config).unwrap();
    det.feed_batch(&stream).unwrap();

    let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
    let pool =
        ShardedCluster::spawn_with(sites, HhCoordinator::new(config), worker_per_site(k)).unwrap();
    pool.feed_batch(&stream).unwrap();
    pool.settle();
    let (coord, _, meter) = pool.shutdown().unwrap();

    assert_eq!(
        det.coordinator().heavy_hitters(0.1).unwrap(),
        coord.heavy_hitters(0.1).unwrap(),
        "answers diverge"
    );
    assert_eq!(
        det.coordinator().global_count(),
        coord.global_count(),
        "tracked counts diverge"
    );
    assert_eq!(det.meter().total_words(), meter.total_words());
    assert_eq!(det.meter().total_messages(), meter.total_messages());
}

/// Free-running batched ingest (`ingest_run`) trades the deterministic
/// transcript for parallel throughput; the ε-guarantee must still hold at
/// quiescence. Same 2ε slack as the per-item concurrent test: deltas can
/// reorder between sites.
#[test]
fn threaded_parallel_ingest_still_correct() {
    let k = 4;
    let epsilon = 0.1;
    let phi = 0.2;
    let config = HhConfig::new(k, epsilon).unwrap();
    let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
    let pool =
        ShardedCluster::spawn_with(sites, HhCoordinator::new(config), worker_per_site(k)).unwrap();

    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.5, 9), RoundRobin::new(k), 40_000).collect();
    let mut oracle = ExactOracle::new();
    // One-run window per site so no site races unboundedly far ahead of
    // coordinator feedback (see `ingest_run` docs).
    let mut tickets: Vec<Option<RunTicket>> = (0..k as usize).map(|_| None).collect();
    let mut per_site: Vec<Vec<u64>> = vec![Vec::new(); k as usize];
    for part in stream.chunks(512) {
        for &(site, item) in part {
            oracle.observe(item);
            per_site[site.index()].push(item);
        }
        for (i, items) in per_site.iter_mut().enumerate() {
            if !items.is_empty() {
                if let Some(t) = tickets[i].take() {
                    t.wait().unwrap();
                }
                tickets[i] = Some(
                    pool.ingest_run(SiteId(i as u32), std::mem::take(items))
                        .unwrap(),
                );
            }
        }
    }
    for t in tickets.into_iter().flatten() {
        t.wait().unwrap();
    }
    pool.settle();
    let reported = pool
        .with_coordinator(move |c| c.heavy_hitters(phi).unwrap())
        .unwrap();
    if let Some(v) = oracle.check_heavy_hitters(&reported, phi, 2.0 * epsilon) {
        panic!("parallel batched ingest violated the guarantee: {v}");
    }
    pool.shutdown().unwrap();
}

/// The sharded work-stealing pool at the integration level: far more
/// logical sites than workers, driven through the bare cluster with
/// `feed_batch` — answers and metered cost must match the deterministic
/// runner bit-for-bit, because site-runs are served whole and in FIFO
/// order no matter which worker picks them up.
#[test]
fn sharded_feed_batch_matches_deterministic_at_high_k() {
    let k = 24;
    let epsilon = 0.1;
    let config = HhConfig::new(k, epsilon).unwrap();
    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.4, 7), RoundRobin::new(k), 30_000).collect();

    let mut det = dtrack::core::hh::exact_cluster(config).unwrap();
    det.feed_batch(&stream).unwrap();

    let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
    let sharded = ShardedCluster::spawn_with(
        sites,
        HhCoordinator::new(config),
        ShardedConfig {
            workers: Some(3),
            ..ShardedConfig::default()
        },
    )
    .unwrap();
    sharded.feed_batch(&stream).unwrap();
    sharded.settle();
    let (coord, _, meter) = sharded.shutdown().unwrap();

    assert_eq!(
        det.coordinator().heavy_hitters(0.1).unwrap(),
        coord.heavy_hitters(0.1).unwrap(),
        "answers diverge"
    );
    assert_eq!(
        det.coordinator().global_count(),
        coord.global_count(),
        "tracked counts diverge"
    );
    assert_eq!(det.meter().total_words(), meter.total_words());
    assert_eq!(det.meter().total_messages(), meter.total_messages());
}

/// Free-running parallel ingest on the sharded pool (k ≫ workers): the
/// ε-guarantee must hold at quiescence with the same 2ε slack as the
/// worker-per-site concurrent tests — through the `Tracker` facade, which
/// owns the one-run-per-site ticket window.
#[test]
fn sharded_parallel_ingest_still_correct_at_high_k() {
    let k = 32u32;
    let epsilon = 0.1;
    let phi = 0.2;
    let config = HhConfig::new(k, epsilon).unwrap();
    let mut tracker = Tracker::builder()
        .backend(BackendKind::Sharded { workers: Some(4) })
        .protocol(HhExactProtocol::new(config))
        .build()
        .unwrap();
    assert_eq!(tracker.num_sites(), k);

    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.5, 9), RoundRobin::new(k), 40_000).collect();
    let mut oracle = ExactOracle::new();
    for &(_, item) in &stream {
        oracle.observe(item);
    }
    let mut runs = vec![Vec::new(); k as usize];
    for part in stream.chunks(128 * k as usize) {
        ingest_site_runs(&mut tracker, part, &mut runs).unwrap();
    }
    tracker.settle();
    let reported = match tracker.query(Query::HeavyHitters { phi }).unwrap() {
        Answer::HeavyHitters { items, .. } => items,
        other => panic!("unexpected answer {other}"),
    };
    if let Some(v) = oracle.check_heavy_hitters(&reported, phi, 2.0 * epsilon) {
        panic!("sharded parallel ingest violated the guarantee: {v}");
    }
    tracker.finish().unwrap();
}

#[test]
fn threaded_concurrent_feeding_still_correct() {
    // Without per-item settling, arrivals interleave with in-flight
    // communication; the ε-guarantee must still hold at quiescence
    // (the protocol is trigger-based, not order-based).
    let k = 4;
    let epsilon = 0.1;
    let phi = 0.2;
    let config = HhConfig::new(k, epsilon).unwrap();
    let sites: Vec<_> = (0..k).map(|_| HhSite::exact(config)).collect();
    let pool =
        ShardedCluster::spawn_with(sites, HhCoordinator::new(config), worker_per_site(k)).unwrap();

    let stream: Vec<(SiteId, u64)> =
        Stream::new(Zipf::new(1 << 14, 1.5, 9), RoundRobin::new(k), 40_000).collect();
    let mut oracle = ExactOracle::new();
    for &(site, item) in &stream {
        oracle.observe(item);
        pool.feed(site, item).unwrap();
    }
    pool.settle();
    let reported = pool
        .with_coordinator(move |c| c.heavy_hitters(phi).unwrap())
        .unwrap();
    // Concurrency can reorder deltas between sites, so allow the full 2ε
    // slack rather than the serialized ε.
    if let Some(v) = oracle.check_heavy_hitters(&reported, phi, 2.0 * epsilon) {
        panic!("worker-per-site run violated the guarantee: {v}");
    }
    pool.shutdown().unwrap();
}
