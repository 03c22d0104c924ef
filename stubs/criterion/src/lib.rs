//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API subset the workspace's benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Bencher::iter`
//! / `iter_batched`, `Throughput`, `BatchSize`, `BenchmarkId`, `black_box`,
//! and the `criterion_group!` / `criterion_main!` macros — with a simple
//! wall-clock measurement loop instead of criterion's statistics engine.
//! Each benchmark reports the best-of-samples time per iteration (and
//! throughput when declared). Set `CRITERION_STUB_SAMPLES` to change the
//! sample count (default 10, matching the workspace's configured
//! `sample_size`). The first argument of a bench binary that is not a
//! flag is a name filter, as upstream: `cargo bench --bench protocols --
//! allq_tree_build` runs only the benchmarks whose full id
//! (`group/id`) contains `allq_tree_build`.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched inputs are grouped; sizing hints are ignored by the stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Declared per-iteration workload, used to report throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Parameter-only id (used inside groups).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: u32,
    best: Option<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(samples: u32) -> Self {
        Bencher {
            samples,
            best: None,
            iters_per_sample: 1,
        }
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        let per_iter = elapsed / iters.max(1) as u32;
        if self.best.is_none_or(|b| per_iter < b) {
            self.best = Some(per_iter);
        }
    }

    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.samples {
            let iters = self.iters_per_sample;
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.record(start.elapsed(), iters);
        }
    }

    /// Time `routine` on fresh inputs built by `setup` (setup not timed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.record(start.elapsed(), 1);
        }
    }

    /// Like [`Self::iter_batched`], passing the input by reference.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        for _ in 0..self.samples {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            self.record(start.elapsed(), 1);
        }
    }
}

fn env_samples(default: u32) -> u32 {
    std::env::var("CRITERION_STUB_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn report(id: &str, bencher: &Bencher, throughput: Option<Throughput>) {
    let Some(best) = bencher.best else {
        println!("{id:<40} (no samples)");
        return;
    };
    let nanos = best.as_nanos().max(1);
    match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / best.as_secs_f64();
            println!("{id:<40} {nanos:>12} ns/iter {rate:>14.0} elem/s");
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / best.as_secs_f64();
            println!("{id:<40} {nanos:>12} ns/iter {rate:>14.0} B/s");
        }
        None => println!("{id:<40} {nanos:>12} ns/iter"),
    }
}

/// The bench binary's name filter, set once by the `main` that
/// [`criterion_main!`] generates; unset in any other process (the stub's
/// own unit tests included), so there every benchmark runs.
static ARGS_FILTER: OnceLock<String> = OnceLock::new();

/// The name filter among a bench binary's arguments: the first one that
/// is not a flag (`cargo bench` itself passes `--bench`).
fn filter_arg(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

/// Read the name filter from the process arguments. Called by the `main`
/// that [`criterion_main!`] generates, before any group runs.
#[doc(hidden)]
pub fn init_filter_from_args() {
    if let Some(filter) = filter_arg(std::env::args().skip(1)) {
        let _ = ARGS_FILTER.set(filter);
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: u32,
    /// Run only benchmarks whose full id contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: ARGS_FILTER.get().cloned(),
        }
    }
}

impl Criterion {
    /// Set how many samples to take per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n as u32;
        self
    }

    /// Upstream parses CLI args here; the stub reads its one argument,
    /// the name filter, in [`criterion_main!`]'s `main` and ignores the
    /// rest.
    pub fn configure_from_args(self) -> Self {
        self
    }

    fn selected(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    fn samples(&self) -> u32 {
        env_samples(self.sample_size)
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if !self.selected(id) {
            return self;
        }
        let mut b = Bencher::new(self.samples());
        f(&mut b);
        report(id, &b, None);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput declaration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{id}", self.name);
        if !self.criterion.selected(&id) {
            return self;
        }
        let mut b = Bencher::new(self.criterion.samples());
        f(&mut b);
        report(&id, &b, self.throughput);
        self
    }

    /// Run one parameterized benchmark in the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.id);
        if !self.criterion.selected(&id) {
            return self;
        }
        let mut b = Bencher::new(self.criterion.samples());
        f(&mut b, input);
        report(&id, &b, self.throughput);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Define a group of benchmark functions, optionally with a configured
/// `Criterion` instance.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Entry point: read the name filter from the arguments, then run every
/// group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_filter_from_args();
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("stub");
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("param", 42), &42u64, |b, &n| {
            b.iter_batched(
                || vec![n; 10],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_and_bencher_run() {
        benches();
    }

    #[test]
    fn filter_skips_benches_whose_full_id_does_not_match() {
        let mut ran = Vec::new();
        let mut c = Criterion {
            sample_size: 1,
            filter: Some("stub/par".into()),
        };
        c.bench_function("stub", |b| {
            ran.push("stub");
            b.iter(|| 1)
        });
        let mut g = c.benchmark_group("stub");
        g.bench_function("sum", |b| {
            ran.push("stub/sum");
            b.iter(|| 1)
        });
        g.bench_with_input(BenchmarkId::new("param", 42), &42u64, |b, &n| {
            ran.push("stub/param/42");
            b.iter(|| n)
        });
        g.finish();
        assert_eq!(ran, ["stub/param/42"]);

        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_arg(args(&["--bench", "allq_tree_build"])).as_deref(),
            Some("allq_tree_build")
        );
        assert_eq!(filter_arg(args(&["--bench"])), None);
        assert!(Criterion::default().selected("anything"));
    }

    #[test]
    fn configured_group_runs() {
        criterion_group!(
            name = configured;
            config = Criterion::default().sample_size(3);
            targets = sample_bench
        );
        configured();
    }
}
