//! Bit-identity and coverage lock for the host self-profiler.
//!
//! The profiler is strictly read-only: turning it on must not move a
//! single cycle, fault or byte. This test replays the exact
//! `perf_identity` golden cells (STN/KMN/SRD × baseline/CPPE at scale
//! 0.25, rate 0.5, default seed) **with profiling enabled** and asserts
//! the same golden cycles, both untraced and traced, and the golden
//! timeline hash (read from the traced run's per-batch epoch series) —
//! so the lock holds under profiling, not just without it. It also
//! checks the profiler's own guarantees on real runs: ≥90 % wall
//! attribution, event accounting that matches the driver's batch
//! counters, and the zero-cost-off contract (no profile object on a
//! default run).

mod common;

use cppe::presets::PolicyPreset;
use gpu::GpuConfig;
use harness::experiments::hostprof::{hostprof_json, validate_doc, HostprofCell};
use harness::{capacity_pages, ExpConfig};
use sim_core::hostprof::HostKind;
use telemetry::TraceConfig;
use workloads::registry;

fn run_profiled(abbr: &str, preset: PolicyPreset, hostprof: bool) -> gpu::RunResult {
    run_with(abbr, preset, hostprof, TraceConfig::default())
}

fn run_with(
    abbr: &str,
    preset: PolicyPreset,
    hostprof: bool,
    trace: TraceConfig,
) -> gpu::RunResult {
    let cfg = ExpConfig {
        scale: 0.25,
        gpu: GpuConfig {
            hostprof,
            trace,
            ..ExpConfig::default().gpu
        },
        ..ExpConfig::default()
    };
    let spec = registry::by_abbr(abbr).expect("known app");
    let lanes = cfg.gpu.lanes();
    let streams: Vec<_> = (0..lanes)
        .map(|l| spec.lane_items(l, lanes, cfg.scale))
        .collect();
    let capacity = capacity_pages(&spec, 0.5, cfg.scale);
    let engine = preset.build(cfg.seed ^ spec.seed);
    gpu::simulate(&cfg.gpu, engine, &streams, capacity, spec.pages(cfg.scale))
}

/// The same golden (cycles, timeline hash) pairs `perf_identity.rs`
/// locks — profiling on must reproduce them bit for bit.
#[rustfmt::skip]
fn golden() -> Vec<(&'static str, PolicyPreset, u64, u64)> {
    vec![
        ("STN", PolicyPreset::Baseline, 1_644_517, 0xEA8C_EBE5_B3D7_3134),
        ("STN", PolicyPreset::Cppe, 1_995_500, 0xB582_DDCE_B398_35BE),
        ("KMN", PolicyPreset::Baseline, 13_467_250, 0x3C11_137D_63AB_6163),
        ("KMN", PolicyPreset::Cppe, 10_008_513, 0x9C4E_6A7B_ED20_1100),
        ("SRD", PolicyPreset::Baseline, 12_238_983, 0xAFE6_738E_BD71_5C9B),
        ("SRD", PolicyPreset::Cppe, 8_551_454, 0xD8AE_A366_77F5_DAA9),
    ]
}

#[test]
fn profiled_runs_match_the_golden_fingerprints() {
    for (abbr, preset, cycles, hash) in golden() {
        // Cycles from a profiled run with tracing off (the setup the
        // `hostprof` arms use); the timeline from a profiled, traced twin.
        let r = run_profiled(abbr, preset, true);
        let traced = run_with(abbr, preset, true, TraceConfig::on());
        let series = &traced.telemetry.as_ref().expect("traced run").series;
        assert_eq!(
            (r.cycles, traced.cycles, common::timeline_hash(series).1),
            (cycles, cycles, hash),
            "{abbr}/{} diverged under profiling — the profiler is not read-only",
            preset.label()
        );
        assert!(
            r.hostprof.is_some() && traced.hostprof.is_some(),
            "{abbr}: profiling-on run lost its profile"
        );
    }
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
    let doc = hostprof_json(&[cell]);
    let detail = validate_doc(&doc).expect("own export must validate");
    assert!(detail.contains("1 apps"), "{detail}");
}
