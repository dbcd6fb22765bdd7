//! # gpu — the whole-system simulator
//!
//! Binds the substrates together into the event-driven GPU model the
//! evaluation runs on: SM lanes replaying workload access streams, the
//! `gmmu` translation hierarchy, page-presence data caches, and the
//! `uvm` driver running `cppe` policies.
//!
//! * [`config`] — [`GpuConfig`] (Table I defaults),
//! * [`cache`] — the L1/L2 data-cache latency model,
//! * [`dram`] — the GDDR5 12-channel row-buffer model,
//! * [`sim`] — [`simulate`], [`RunResult`] and [`Outcome`]; the loop
//!   reports every lifecycle step to one private observer (`probe.rs`)
//!   that drives the tracer's spans and the host profiler.

pub mod cache;
pub mod config;
pub mod dram;
mod probe;
pub mod sim;
pub mod waiters;

pub use config::GpuConfig;
pub use sim::{simulate, simulate_accesses, Outcome, RunResult};
