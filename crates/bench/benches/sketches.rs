//! Criterion micro-benchmarks of the local-summary substrate: per-update
//! cost of SpaceSaving, Misra–Gries, Greenwald–Khanna, and the exact
//! order-statistic store, plus summary extraction, merge, and the
//! discrete samplers behind the workload generators.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dtrack_sketch::{
    EquiDepthSummary, ExactOrdered, GreenwaldKhanna, MergedSummary, MisraGries, SpaceSaving,
};
use dtrack_workload::{AliasTable, Generator, IndexedCdf, Zipf};

const N: u64 = 50_000;

fn stream(seed: u64) -> Vec<u64> {
    let mut g = Zipf::new(1 << 24, 1.1, seed);
    (0..N).map(|_| g.next_item()).collect()
}

fn bench_freq_sketches(c: &mut Criterion) {
    let items = stream(1);
    let mut g = c.benchmark_group("freq_sketch_observe");
    g.throughput(Throughput::Elements(N));
    g.bench_function("spacesaving_1k", |b| {
        b.iter(|| {
            let mut s = SpaceSaving::new(1000);
            for &x in &items {
                s.observe(black_box(x));
            }
            s.total()
        })
    });
    g.bench_function("misra_gries_1k", |b| {
        b.iter(|| {
            let mut s = MisraGries::new(1000);
            for &x in &items {
                s.observe(black_box(x));
            }
            s.total()
        })
    });
    g.finish();
}

fn bench_order_stores(c: &mut Criterion) {
    let items = stream(2);
    let mut g = c.benchmark_group("order_store_insert");
    g.throughput(Throughput::Elements(N));
    g.bench_function("exact_ordered", |b| {
        b.iter(|| {
            let mut s = ExactOrdered::new();
            for &x in &items {
                s.insert(black_box(x));
            }
            s.len()
        })
    });
    g.bench_function("gk_eps01", |b| {
        b.iter(|| {
            let mut s = GreenwaldKhanna::new(0.01);
            for &x in &items {
                s.observe(black_box(x));
            }
            s.total()
        })
    });
    g.finish();

    let mut store = ExactOrdered::new();
    for &x in &items {
        store.insert(x);
    }
    c.bench_function("exact_ordered_rank", |b| {
        b.iter(|| store.rank_lt(black_box(1 << 23)))
    });
    c.bench_function("exact_ordered_select", |b| {
        b.iter(|| store.select(black_box(N / 3)))
    });
}

fn bench_summaries(c: &mut Criterion) {
    let mut sorted = stream(3);
    sorted.sort_unstable();
    c.bench_function("equidepth_from_sorted", |b| {
        b.iter(|| EquiDepthSummary::from_sorted(black_box(&sorted), 100))
    });
    let parts: Vec<EquiDepthSummary> = (0..8)
        .map(|i| {
            let mut s = stream(10 + i);
            s.sort_unstable();
            EquiDepthSummary::from_sorted(&s, 100)
        })
        .collect();
    let merged = MergedSummary::new(parts);
    c.bench_function("merged_rank_estimate", |b| {
        b.iter(|| merged.rank_estimate(black_box(1 << 23)))
    });
    // One summary serves every iteration, so only the first pays the
    // candidate sort, and the best-of-N time is the warm path alone (the
    // binary search). `allq_tree_build` in protocols.rs pays the sort.
    c.bench_function("merged_select", |b| {
        b.iter(|| merged.select(black_box(4 * N / 2)))
    });
}

/// The three ways to invert a Zipf CDF, on identical draws: binary search
/// (the seed implementation), the guide table (bit-identical results,
/// expected O(1)), and the alias method (worst-case O(1), different
/// stream). See DESIGN.md §"Sampling discrete distributions in O(1)".
fn bench_samplers(c: &mut Criterion) {
    let n = 1u64 << 20;
    let s = 1.2f64;
    // The production table builders, so the comparison always measures the
    // exact tables the generator samples.
    let cdf = dtrack_workload::gen::zipf_cdf(n, s);
    let pmf = dtrack_workload::gen::zipf_weights(n, s);
    let indexed = IndexedCdf::new(cdf.clone());
    let alias = AliasTable::new(&pmf);
    // Deterministic uniform draws, reused by all three samplers.
    let draws: Vec<f64> = {
        let mut st = 0x9E37u64;
        (0..10_000)
            .map(|_| {
                st = st
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (st >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            })
            .collect()
    };
    let mut g = c.benchmark_group("zipf_rank_sample");
    g.throughput(Throughput::Elements(draws.len() as u64));
    g.bench_function("partition_point", |b| {
        b.iter(|| {
            draws
                .iter()
                .map(|&u| cdf.partition_point(|&c| c < black_box(u)))
                .sum::<usize>()
        })
    });
    g.bench_function("indexed_cdf", |b| {
        b.iter(|| {
            draws
                .iter()
                .map(|&u| indexed.lookup(black_box(u)))
                .sum::<usize>()
        })
    });
    g.bench_function("alias_table", |b| {
        b.iter(|| {
            draws
                .iter()
                .map(|&u| alias.sample(black_box(u)))
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_freq_sketches, bench_order_stores, bench_summaries, bench_samplers
);
criterion_main!(benches);
