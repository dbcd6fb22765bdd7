//! Coverage lock for the host self-profiler.
//!
//! The profiler is strictly read-only; `tests/perf_identity.rs` holds
//! the six golden fingerprints with profiling on, traced and untraced.
//! This suite checks the profiler's own guarantees on real runs: ≥90 %
//! wall attribution, event accounting that matches the driver's batch
//! counters, and the zero-cost-off contract (no profile object on a
//! default run).

mod common;

use cppe::presets::PolicyPreset;
use gpu::GpuConfig;
use harness::experiments::hostprof::{
    hostprof_json_at, validate_doc, HostprofCell, BENCH_SCALE, RATE,
};
use sim_core::hostprof::HostKind;

/// A golden cell, with the host profiler on or off.
fn run_profiled(abbr: &str, preset: PolicyPreset, hostprof: bool) -> gpu::RunResult {
    let gpu = GpuConfig {
        hostprof,
        ..common::golden_cfg().gpu
    };
    common::golden_cell(abbr).run_preset(&gpu, preset)
}

#[test]
fn profiling_off_is_the_default_and_carries_no_profile() {
    let r = run_profiled("STN", PolicyPreset::Cppe, false);
    assert!(r.hostprof.is_none());
    assert!(!GpuConfig::default().hostprof, "profiling must be opt-in");
}

#[test]
fn attribution_covers_the_loop_and_matches_driver_counters() {
    let r = run_profiled("KMN", PolicyPreset::Cppe, true);
    let p = r.hostprof.as_ref().expect("profile present");
    assert!(p.events > 0);
    assert_eq!(p.counts.iter().sum::<u64>(), p.events);
    assert_eq!(p.cohorts.events, p.events);
    // ≥90 % of loop wall time attributed to kinds (the acceptance bar;
    // structurally it is ≈100 % minus per-window truncation).
    assert!(
        p.attributed_share() > 0.90,
        "attributed share {} below the 90 % bar",
        p.attributed_share()
    );
    assert!(p.attributed_ns() <= p.loop_wall_ns);
    // Every driver batch dispatch was classified as one.
    assert_eq!(
        p.counts[HostKind::BatchDispatch as usize],
        r.driver.batches,
        "batch-dispatch count disagrees with the driver"
    );
    // Scratch recycling accounts for every batch.
    assert_eq!(
        p.alloc.scratch_recycled + p.alloc.scratch_fresh,
        r.driver.batches
    );
    // The ceilings are sane and monotone in the worker count.
    let mut prev = 1.0f64;
    for w in [2u32, 4, 8, 16] {
        let c = p.cohorts.ceiling_at(w).expect("modeled worker count");
        assert!(c >= prev - 1e-9, "ceiling at {w} workers regressed");
        prev = c;
    }
    assert!(p.cohorts.ceiling_inf() >= prev - 1e-9);
}

#[test]
fn export_of_a_real_run_passes_the_artifact_validator() {
    let r = run_profiled("SRD", PolicyPreset::Cppe, true);
    let cell = HostprofCell {
        app: "SRD",
        cycles: r.cycles,
        off_wall_ms: 1.0,
        on_wall_ms: 1.0,
        profile: r.hostprof.expect("profile present"),
    };
    let doc = hostprof_json_at(&[cell], BENCH_SCALE, RATE);
    let detail = validate_doc(&doc).expect("own export must validate");
    assert!(detail.contains("1 apps"), "{detail}");
}
