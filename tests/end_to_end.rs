//! End-to-end integration tests across the full crate stack:
//! workloads → gpu simulator → uvm driver → cppe policies.

use cppe::presets::PolicyPreset;
use gpu::{simulate, Outcome};
use harness::{run_cell, ExpConfig};
use workloads::registry;

fn run(abbr: &str, preset: PolicyPreset, rate: f64, scale: f64) -> gpu::RunResult {
    let spec = registry::by_abbr(abbr).expect("known workload");
    let cfg = ExpConfig {
        scale,
        ..ExpConfig::default()
    };
    run_cell(&spec, preset, rate, &cfg)
}

#[test]
fn every_workload_completes_under_cppe() {
    // The paper's headline robustness claim: CPPE finishes everything,
    // including the apps that crash the baseline.
    for spec in registry::all() {
        let r = run(spec.abbr, PolicyPreset::Cppe, 0.5, 0.25);
        assert_eq!(
            r.outcome,
            Outcome::Completed,
            "{} did not complete under CPPE",
            spec.abbr
        );
        assert!(r.accesses > 0, "{} made no accesses", spec.abbr);
    }
}

#[test]
fn every_workload_completes_at_full_capacity() {
    // With capacity == footprint there is no oversubscription: no
    // evictions, only compulsory faults, under any policy.
    for spec in registry::all() {
        let r = run(spec.abbr, PolicyPreset::Baseline, 1.0, 0.25);
        assert_eq!(r.outcome, Outcome::Completed, "{}", spec.abbr);
        assert_eq!(
            r.engine.chunk_evictions, 0,
            "{} evicted without oversubscription",
            spec.abbr
        );
    }
}

#[test]
fn accounting_identities_hold() {
    for abbr in ["SRD", "NW", "B+T", "BFS"] {
        let r = run(abbr, PolicyPreset::Cppe, 0.5, 0.25);
        // Pages can only be evicted after being migrated.
        assert!(
            r.engine.pages_evicted <= r.engine.pages_migrated,
            "{abbr}: evicted {} > migrated {}",
            r.engine.pages_evicted,
            r.engine.pages_migrated
        );
        // Untouch level is bounded by eviction volume.
        assert!(r.engine.total_untouch <= r.engine.pages_evicted, "{abbr}");
        // PCIe byte counters match page counters.
        assert_eq!(r.bytes_h2d, r.engine.pages_migrated * 4096, "{abbr}");
        assert_eq!(r.bytes_d2h, r.engine.pages_evicted * 4096, "{abbr}");
        // Every serviced fault came from a faulting walk.
        assert!(
            r.driver.faults_serviced <= r.translation.faulting_walks,
            "{abbr}"
        );
    }
}

#[test]
fn prefetching_amortizes_faults_on_streaming() {
    let with_pf = run("2DC", PolicyPreset::Baseline, 0.5, 0.25);
    let without = run("2DC", PolicyPreset::LruNoPf, 0.5, 0.25);
    // Whole-chunk prefetch turns 16 page faults into ~1 chunk fault.
    assert!(with_pf.driver.faults_serviced * 8 < without.driver.faults_serviced);
    assert!(with_pf.cycles < without.cycles);
}

#[test]
fn deterministic_across_repeated_runs() {
    let a = run("HSD", PolicyPreset::Cppe, 0.5, 0.25);
    let b = run("HSD", PolicyPreset::Cppe, 0.5, 0.25);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.engine.faults, b.engine.faults);
    assert_eq!(a.engine.chunk_evictions, b.engine.chunk_evictions);
    assert_eq!(a.wrong_evictions, b.wrong_evictions);
}

#[test]
fn deeper_oversubscription_never_speeds_things_up() {
    for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
        let full = run("HSD", preset, 1.0, 0.25);
        let r75 = run("HSD", preset, 0.75, 0.25);
        let r50 = run("HSD", preset, 0.50, 0.25);
        assert!(
            full.cycles <= r75.cycles && r75.cycles <= r50.cycles,
            "{}: {} / {} / {}",
            preset.label(),
            full.cycles,
            r75.cycles,
            r50.cycles
        );
    }
}

#[test]
fn translation_hierarchy_is_exercised() {
    // The Table II generators issue one access per page per sweep, and
    // a sweep's working set exceeds the TLB reach — so TLB *hits* need
    // tight page reuse. Drive the stack with a custom stream that
    // revisits a small set of pages, the way a kernel revisits the
    // cachelines of a page.
    use workloads::{AccessStep, LaneItem};
    let gpu = ExpConfig::default().gpu;
    let stream: Vec<LaneItem> = (0..400u64)
        .map(|i| {
            LaneItem::Access(AccessStep {
                page: gmmu::types::VirtPage(i % 40),
                compute: 100,
            })
        })
        .collect();
    let r = simulate(&gpu, PolicyPreset::Baseline.build(7), &[stream], 64, 40);
    let t = r.translation;
    assert!(t.l1_hits > 0, "L1 TLB never hit");
    assert!(t.l2_misses > 0, "L2 TLB never missed");
    assert!(t.walks > 0, "walker never used");
    assert!(t.pwc_hits > 0, "page-walk cache never hit");
    assert!(t.faulting_walks > 0, "no far faults taken");
}

#[test]
fn mhpe_trace_only_present_for_mhpe_policies() {
    assert!(run("STN", PolicyPreset::Cppe, 0.5, 0.25).mhpe.is_some());
    assert!(run("STN", PolicyPreset::MhpeOnly, 0.5, 0.25).mhpe.is_some());
    assert!(run("STN", PolicyPreset::Baseline, 0.5, 0.25).mhpe.is_none());
    assert!(run("STN", PolicyPreset::Random, 0.5, 0.25).mhpe.is_none());
}

#[test]
fn overhead_structures_stay_small() {
    // §VI-C: driver-side structures are kilobytes, not megabytes.
    let r = run("SRD", PolicyPreset::Cppe, 0.5, 0.5);
    assert!(r.overhead.storage_bytes() < 256 * 1024);
    assert!(r.overhead.chain_max_len > 0);
}
