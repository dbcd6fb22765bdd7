//! # harness — experiment harness for the CPPE reproduction
//!
//! Regenerates every table and figure of the paper's evaluation. The
//! `cppe` binary runs one artifact per subcommand (see DESIGN.md's
//! experiment index); the library provides the shared machinery:
//!
//! * [`cli`] — the `cppe` subcommand table and its tools,
//! * [`runner`] — one (workload × policy × rate) cell,
//! * [`sweep`] — the parallel sweep executor,
//! * [`orchestrator`] — the crash-safe sweep service (leased work
//!   queue, persistent result store, checkpoint/resume, chaos),
//! * [`report`] — text/CSV table rendering,
//! * [`history`] — the cross-run bench-history ledger behind `trend`,
//! * [`opt`] — the offline Belady chunk-fault bound,
//! * [`oracle`] — the decision-audit comparator against that bound,
//! * [`experiments`] — one module per paper artifact.

pub mod cli;
pub mod experiments;
pub mod history;
pub mod opt;
pub mod oracle;
pub mod orchestrator;
pub mod report;
pub mod runner;
pub mod sweep;

pub use runner::{
    capacity_for, capacity_pages, geomean, run_cell, speedup, CellInputs, ExpConfig, RATES,
};
pub use sweep::{cross, run_sweep, Job};
