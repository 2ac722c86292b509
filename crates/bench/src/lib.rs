//! # bdbms-bench
//!
//! The reproduction harness: one experiment per figure/claim of the paper
//! (see DESIGN.md §4 for the experiment index).  Each experiment builds
//! its workload, runs the system, and returns a [`report::Report`] whose
//! rows are printed by the `reproduce` binary and recorded in
//! EXPERIMENTS.md.  Criterion wall-time benches live in `benches/`.

pub mod alloc_count;
pub mod report;
pub mod workloads;

// unit tests count allocations too (the e13 allocation gate's shape test)
#[cfg(test)]
#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

pub mod e01_dependency_concept;
pub mod e02_figure2;
pub mod e03_asql_vs_manual;
pub mod e04_archive_restore;
pub mod e05_storage_schemes;
pub mod e07_propagation_overhead;
pub mod e08_provenance;
pub mod e10_bitmaps;
pub mod e11_approval;
pub mod e12_sbc_tree;
pub mod e13_executor;
pub mod e14_server;
pub mod e15_ingest;
pub mod espgist;

use report::Report;

/// An experiment id paired with its runner.
pub type Experiment = (&'static str, fn() -> Report);

/// Every experiment in DESIGN.md order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e01", e01_dependency_concept::run as fn() -> Report),
        ("e02", e02_figure2::run),
        ("e03", e03_asql_vs_manual::run),
        ("e04", e04_archive_restore::run),
        ("e05", e05_storage_schemes::run),
        ("e07", e07_propagation_overhead::run),
        ("e08", e08_provenance::run),
        ("e09", e01_dependency_concept::run_closures),
        ("e10", e10_bitmaps::run),
        ("e11", e11_approval::run),
        ("e12", e12_sbc_tree::run),
        ("e13", e13_executor::run),
        ("e14", e14_server::run),
        ("e15", e15_ingest::run),
        ("spgist", espgist::run),
    ]
}
