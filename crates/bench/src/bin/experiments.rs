//! Experiment harness CLI. `experiments --help` lists every experiment id
//! from the [`dtrack_bench::EXPERIMENTS`] table.
//!
//! ```text
//! cargo run --release -p dtrack-bench --bin experiments -- all
//! cargo run --release -p dtrack-bench --bin experiments -- e1 e5 e10
//! ```

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments <all | smoke | e1..e18 ...> [--out DIR]");
        eprintln!("\nexperiments:");
        for (id, desc) in dtrack_bench::EXPERIMENTS {
            eprintln!("  {id:<4} {desc}");
        }
        eprintln!(
            "  smoke  per-protocol perf run, writes {}",
            dtrack_bench::smoke::SMOKE_SNAPSHOT
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let mut explicit_out: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(dir) => explicit_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(a);
        }
    }
    // `smoke` composes with other ids instead of short-circuiting them:
    // `experiments e1 smoke --out d/` runs the smoke suite AND e1.
    let want_smoke = ids.iter().any(|i| i == "smoke");
    ids.retain(|i| i != "smoke");
    if ids.iter().any(|i| i == "all") {
        ids = dtrack_bench::EXPERIMENTS
            .iter()
            .map(|(id, _)| (*id).to_owned())
            .collect();
    }
    if want_smoke {
        let results = dtrack_bench::smoke::run_smoke();
        for r in &results {
            println!(
                "{:<60} {:>9} words {:>8.1} ms {:>12.0} items/s",
                r.scenario, r.words, r.wall_ms, r.items_per_sec
            );
        }
        println!(
            "geomean: {:.0} items/s over {} cells",
            dtrack_bench::smoke::geomean_items_per_sec(&results),
            results.len()
        );
        println!(
            "threaded batched/per-item speedup (geomean): {:.2}x",
            dtrack_bench::smoke::threaded_batched_speedup(&results)
        );
        let overhead = dtrack_bench::smoke::facade_overhead_geomean(&results);
        println!("facade/direct wall-clock overhead (geomean): {overhead:.3}x");
        let adaptive = dtrack_bench::smoke::adaptive_vs_fixed_throughput(&results);
        println!("adaptive/fixed free-running ingest throughput (geomean): {adaptive:.2}x");
        let drift = dtrack_bench::smoke::free_run_words_factor(&results);
        println!("worst free-running words factor over deterministic: {drift:.3}x");
        let trace = dtrack_bench::smoke::trace_overhead_geomean(&results);
        println!("traced-off/pre-trace wall-clock overhead (geomean): {trace:.3}x");
        // The enforced gates: report every failure and still write the
        // snapshot, so a failed run keeps its per-cell numbers.
        let gate_failures = dtrack_bench::smoke::failed_gates(&results);
        for (gate, message) in &gate_failures {
            eprintln!("FAIL ({gate}): {message}");
        }
        let json = dtrack_bench::smoke::smoke_json(&results);
        let snapshot = dtrack_bench::smoke::SMOKE_SNAPSHOT;
        let path = match &explicit_out {
            Some(dir) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("warning: could not create {}: {e}", dir.display());
                    std::process::exit(1);
                }
                dir.join(snapshot)
            }
            None => PathBuf::from(snapshot),
        };
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("warning: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
        if !gate_failures.is_empty() {
            std::process::exit(1);
        }
    }
    let out_dir = explicit_out.unwrap_or_else(|| PathBuf::from("results"));
    let mut failed = false;
    for id in &ids {
        match dtrack_bench::run(id) {
            Some(tables) => {
                for t in tables {
                    println!("{t}");
                    if let Err(e) = t.write_csv(&out_dir) {
                        eprintln!(
                            "warning: could not write {}/{}.csv: {e}",
                            out_dir.display(),
                            t.slug
                        );
                    }
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}
