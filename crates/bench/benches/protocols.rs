//! Criterion micro-benchmarks of per-item protocol cost: the paper claims
//! "all the algorithms proposed in this paper can be implemented both
//! space- and time-efficiently" — these benches quantify the per-arrival
//! processing cost at a site and end-to-end through the cluster.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtrack_core::allq::{AllQConfig, Tree};
use dtrack_core::hh::{HhConfig, HhSketchedProtocol};
use dtrack_core::quantile::QuantileConfig;
use dtrack_core::ValueRange;
use dtrack_sim::{BackendKind, FlowControlConfig, Query, SiteId, Tracker};
use dtrack_sketch::{EquiDepthSummary, MergedSummary};
use dtrack_testkit::runner::{free_run_len, ingest_site_runs};
use dtrack_workload::{Generator, Zipf};

const FEED: u64 = 10_000;

fn bench_hh_feed(c: &mut Criterion) {
    let mut g = c.benchmark_group("hh_feed");
    g.throughput(Throughput::Elements(FEED));
    for k in [4u32, 16] {
        g.bench_with_input(BenchmarkId::new("exact", k), &k, |b, &k| {
            let config = HhConfig::new(k, 0.02).unwrap();
            b.iter_batched(
                || {
                    let mut cluster = dtrack_core::hh::exact_cluster(config).unwrap();
                    // Pre-warm so the steady-state path is measured.
                    let mut gen = Zipf::new(1 << 20, 1.1, 1);
                    for i in 0..20_000u64 {
                        cluster
                            .feed(SiteId((i % k as u64) as u32), gen.next_item())
                            .unwrap();
                    }
                    (cluster, Zipf::new(1 << 20, 1.1, 2))
                },
                |(mut cluster, mut gen)| {
                    for i in 0..FEED {
                        cluster
                            .feed(SiteId((i % k as u64) as u32), black_box(gen.next_item()))
                            .unwrap();
                    }
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_quantile_feed(c: &mut Criterion) {
    let mut g = c.benchmark_group("quantile_feed");
    g.throughput(Throughput::Elements(FEED));
    g.bench_function("median_exact_k8", |b| {
        let config = QuantileConfig::median(8, 0.05).unwrap();
        b.iter_batched(
            || {
                let mut cluster = dtrack_core::quantile::exact_cluster(config).unwrap();
                let mut gen = Zipf::new(1 << 30, 1.1, 1);
                for i in 0..20_000u64 {
                    cluster
                        .feed(SiteId((i % 8) as u32), gen.next_item())
                        .unwrap();
                }
                (cluster, Zipf::new(1 << 30, 1.1, 2))
            },
            |(mut cluster, mut gen)| {
                for i in 0..FEED {
                    cluster
                        .feed(SiteId((i % 8) as u32), black_box(gen.next_item()))
                        .unwrap();
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_allq_feed(c: &mut Criterion) {
    let mut g = c.benchmark_group("allq_feed");
    g.throughput(Throughput::Elements(FEED));
    g.bench_function("exact_k8_eps05", |b| {
        let config = AllQConfig::new(8, 0.05).unwrap();
        b.iter_batched(
            || {
                let mut cluster = dtrack_core::allq::exact_cluster(config).unwrap();
                let mut gen = Zipf::new(1 << 30, 1.1, 1);
                for i in 0..60_000u64 {
                    cluster
                        .feed(SiteId((i % 8) as u32), gen.next_item())
                        .unwrap();
                }
                (cluster, Zipf::new(1 << 30, 1.1, 2))
            },
            |(mut cluster, mut gen)| {
                for i in 0..FEED {
                    cluster
                        .feed(SiteId((i % 8) as u32), black_box(gen.next_item()))
                        .unwrap();
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// The coordinator's work at a round restart of the det-allq benchmark
/// workload (k = 16, ε = 0.05): merge 16 site summaries of 2^14 items of
/// Zipf(1.2) over 2^20, each a separator every ⌊ε·n_j/32⌋ = 25 ranks
/// (655 separators), and build the tree down to leaves of ⌊3εm/8⌋ items.
/// Each iteration merges afresh, so it pays the candidate sort that
/// `MergedSummary` does once per merge.
fn bench_allq_tree_build(c: &mut Criterion) {
    const SITES: u64 = 16;
    const PER_SITE: u64 = 1 << 14;
    let epsilon = 0.05;
    let step = (epsilon * PER_SITE as f64 / 32.0).floor() as u64;
    let parts: Vec<EquiDepthSummary> = (0..SITES)
        .map(|site| {
            let mut gen = Zipf::new(1 << 20, 1.2, 100 + site);
            let mut values: Vec<u64> = (0..PER_SITE).map(|_| gen.next_item()).collect();
            values.sort_unstable();
            EquiDepthSummary::from_sorted(&values, step)
        })
        .collect();
    let m = SITES * PER_SITE;
    let leaf_limit = (3.0 * epsilon * m as f64 / 8.0).floor() as u64;
    c.bench_function("allq_tree_build", |b| {
        b.iter(|| {
            Tree::build(
                &MergedSummary::new(black_box(parts.clone())),
                ValueRange::all(),
                leaf_limit,
            )
        })
    });
}

fn bench_queries(c: &mut Criterion) {
    let config = AllQConfig::new(8, 0.05).unwrap();
    let mut cluster = dtrack_core::allq::exact_cluster(config).unwrap();
    let mut gen = Zipf::new(1 << 30, 1.1, 1);
    for i in 0..200_000u64 {
        cluster
            .feed(SiteId((i % 8) as u32), gen.next_item())
            .unwrap();
    }
    let coord_snapshot = cluster.into_parts().0;
    c.bench_function("allq_quantile_query", |b| {
        b.iter(|| coord_snapshot.quantile(black_box(0.37)).unwrap())
    });
    c.bench_function("allq_rank_query", |b| {
        b.iter(|| coord_snapshot.rank_lt(black_box(1 << 29)))
    });

    // The pool-hh-k256 benchmark workload's stream shape, settled: k = 256,
    // ε = 0.1, 2^18 round-robin items of Zipf(1.2) over 2^20, which leaves
    // ~3.4k tracked items at the coordinator.
    let config = HhConfig::new(256, 0.1).unwrap();
    let mut cluster = dtrack_core::hh::sketched_cluster(config).unwrap();
    let mut gen = Zipf::new(1 << 20, 1.2, 1);
    for i in 0..1u64 << 18 {
        cluster
            .feed(SiteId((i % 256) as u32), gen.next_item())
            .unwrap();
    }
    let hh_coord = cluster.into_parts().0;
    c.bench_function("hh_heavy_hitters_query", |b| {
        b.iter(|| hh_coord.heavy_hitters(black_box(0.25)).unwrap())
    });
}

/// One settled heavy-hitter read through the facade on the pool, in the
/// pool-hh-k256 benchmark workload's shape: `HhSketchedProtocol` at
/// k = 256, ε = 0.1 on a 2-worker pool, 2^18 round-robin items of
/// Zipf(1.2) over 2^20 ingested free-running, then settled. The read pays
/// the facade's settle check and the pool's coordinator access on top of
/// the `hh_heavy_hitters_query` lookup. The pool is built inside the
/// bench closure, so a name filter that skips this bench skips its setup.
fn bench_pool_settled_read(c: &mut Criterion) {
    const K: u32 = 256;
    c.bench_function("pool_settled_read", |b| {
        let config = HhConfig::new(K, 0.1).unwrap();
        let run_len = free_run_len(K);
        let mut tracker = Tracker::builder()
            .sites(K)
            .backend(BackendKind::Sharded { workers: Some(2) })
            .flow_control(FlowControlConfig {
                initial: run_len as u32,
                ..FlowControlConfig::default()
            })
            .protocol(HhSketchedProtocol::new(config))
            .build()
            .unwrap();
        let mut gen = Zipf::new(1 << 20, 1.2, 1);
        let stream: Vec<(SiteId, u64)> = (0..1u64 << 18)
            .map(|i| (SiteId((i % K as u64) as u32), gen.next_item()))
            .collect();
        let mut runs = vec![Vec::new(); K as usize];
        for part in stream.chunks(run_len * K as usize) {
            ingest_site_runs(&mut tracker, part, &mut runs).unwrap();
        }
        tracker.settle();
        b.iter(|| {
            tracker
                .query(Query::HeavyHitters {
                    phi: black_box(0.25),
                })
                .unwrap()
        });
        tracker.finish().unwrap();
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hh_feed, bench_quantile_feed, bench_allq_feed, bench_allq_tree_build, bench_queries,
        bench_pool_settled_read
);
criterion_main!(benches);
