//! The reproduction harness binary.
//!
//! Runs every experiment in DESIGN.md §4 (or the ids passed as arguments)
//! and prints the paper-vs-measured tables.  `--markdown` renders the
//! EXPERIMENTS.md body instead of console tables.
//!
//! ```text
//! cargo run -p bdbms-bench --release --bin reproduce            # everything
//! cargo run -p bdbms-bench --release --bin reproduce -- e12     # one table
//! cargo run -p bdbms-bench --release --bin reproduce -- --markdown
//! ```

use std::time::Instant;

use bdbms_bench::alloc_count::CountingAlloc;
use bdbms_bench::{all_experiments, e12_sbc_tree};

/// Counts heap allocations inside `alloc_count::count` (e13's exact
/// allocation gate); everywhere else it is `System` plus one
/// thread-local flag check.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Flags the harness understands; anything else starting with `--` is
/// rejected (a typo like `--jsn` silently falling through to console
/// output would corrupt scripted perf-gate pipelines).
const KNOWN_FLAGS: &[&str] = &["--markdown", "--json"];

/// Every runnable experiment: the DESIGN.md set plus the e12 companion
/// table (registered here because it shares e12's module).
fn experiments() -> Vec<bdbms_bench::Experiment> {
    let mut experiments = all_experiments();
    experiments.push(("e12b", e12_sbc_tree::run_prefix_range as fn() -> _));
    experiments
}

/// Usage text for error paths: flags and every registered experiment id,
/// so a typo'd invocation shows what *would* have worked.
fn usage() -> String {
    let ids: Vec<&str> = experiments().iter().map(|(id, _)| *id).collect();
    format!(
        "usage: reproduce [{}] [experiment id ...]\nexperiment ids: {}",
        KNOWN_FLAGS.join("|"),
        ids.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        if a.starts_with("--") && !KNOWN_FLAGS.contains(&a.as_str()) {
            eprintln!("unknown flag `{a}`\n{}", usage());
            std::process::exit(1);
        }
    }
    let markdown = args.iter().any(|a| a == "--markdown");
    let json = args.iter().any(|a| a == "--json");
    let filter: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let selected: Vec<_> = experiments()
        .into_iter()
        .filter(|(id, _)| filter.is_empty() || filter.iter().any(|f| f.as_str() == *id))
        .collect();
    if selected.is_empty() {
        eprintln!("no experiment matches\n{}", usage());
        std::process::exit(1);
    }
    if !markdown && !json {
        println!("bdbms reproduction harness — CIDR 2007 paper experiments\n");
    }
    let t0 = Instant::now();
    let mut json_reports = Vec::new();
    for (id, f) in selected {
        let start = Instant::now();
        let mut report = f();
        let elapsed = start.elapsed();
        report.wall_ms = elapsed.as_secs_f64() * 1e3;
        if json {
            json_reports.push(report.render_json());
        } else if markdown {
            print!("{}", report.render_markdown());
        } else {
            print!("{}", report.render());
            println!("({id} completed in {:.2}s)\n", elapsed.as_secs_f64());
        }
    }
    if json {
        println!("[{}]", json_reports.join(","));
    } else if !markdown {
        println!("total: {:.2}s", t0.elapsed().as_secs_f64());
    }
}
