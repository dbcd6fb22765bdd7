//! Helpers shared by the integration tests that fingerprint runs,
//! and the six golden fingerprints they are held to.

// Each test crate that declares `mod common` uses a subset of these.
#![allow(dead_code)]

use cppe::presets::PolicyPreset;
use gpu::RunResult;
use harness::{CellInputs, ExpConfig};
use sim_core::hostprof::HostProfile;
use telemetry::{EpochSeries, RunTelemetry};

/// The settings the golden cells run under: scale 0.25, the default
/// seed and GPU model.
pub fn golden_cfg() -> ExpConfig {
    ExpConfig {
        scale: 0.25,
        ..ExpConfig::default()
    }
}

/// A golden cell's inputs: `abbr` at 50 % oversubscription under
/// [`golden_cfg`].
pub fn golden_cell(abbr: &str) -> CellInputs {
    CellInputs::of(abbr, 0.5, &golden_cfg())
}

/// One FNV-1a step over a 64-bit value.
pub fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

/// FNV-1a over a string's bytes.
pub fn fnv_str(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        fnv(h, u64::from(*b));
    }
}

/// `(events, spans, decisions, FNV-1a hash)` of a traced run's typed
/// streams. The hash folds every event, span and decision record, the
/// epoch series, the histograms and the drop counters, each through its
/// `Debug` form.
pub fn telemetry_hash(t: &RunTelemetry) -> (usize, usize, usize, u64) {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for e in &t.events {
        fnv_str(&mut h, &format!("{e:?}"));
    }
    for s in &t.spans {
        fnv_str(&mut h, &format!("{s:?}"));
    }
    for d in &t.decisions {
        fnv_str(&mut h, &format!("{d:?}"));
    }
    fnv_str(&mut h, &format!("{:?}", t.series));
    fnv_str(&mut h, &format!("{:?}", t.hists));
    fnv(&mut h, t.dropped_events);
    fnv(&mut h, t.dropped_spans);
    fnv(&mut h, t.unclosed_spans);
    fnv(&mut h, t.dropped_decisions);
    (t.events.len(), t.spans.len(), t.decisions.len(), h)
}

/// FNV-1a hash of every deterministic host-profile field: per-kind
/// dispatch counts, events, clock samples, queue-depth histograms,
/// cohort reductions and zero-alloc counters. The wall-clock fields
/// (`loop_wall_ns`, `wall_ns`) vary run to run and are left out.
pub fn hostprof_hash(p: &HostProfile) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for c in p.counts {
        fnv(&mut h, c);
    }
    fnv(&mut h, p.events);
    fnv(&mut h, p.instant_samples);
    fnv_str(&mut h, &format!("{:?}", p.ring_depth));
    fnv_str(&mut h, &format!("{:?}", p.far_depth));
    fnv_str(&mut h, &format!("{:?}", p.cohorts));
    fnv_str(&mut h, &format!("{:?}", p.alloc));
    h
}

/// The per-batch columns the golden timeline hash folds, in order.
const TIMELINE: [&str; 4] = [
    "cppe.faults",
    "cppe.pages_migrated",
    "cppe.pages_evicted",
    "mem.resident_pages",
];

/// `(rows, FNV-1a hash)` of a traced run's per-batch state: for every
/// epoch, its dispatch cycle, cumulative faults, pages migrated, pages
/// evicted and resident pages.
pub fn timeline_hash(series: &EpochSeries) -> (usize, u64) {
    let cols: Vec<usize> = TIMELINE
        .iter()
        .map(|name| series.index_of(name).expect("epoch series column"))
        .collect();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for row in &series.rows {
        fnv(&mut h, row.cycle);
        for &c in &cols {
            fnv(&mut h, row.totals[c]);
        }
    }
    (series.rows.len(), h)
}

/// Fingerprint of everything a run observably computes.
#[derive(Debug, PartialEq, Eq)]
pub struct Fp {
    outcome: &'static str,
    cycles: u64,
    accesses: u64,
    faults: u64,
    pages_migrated: u64,
    pages_prefetched: u64,
    chunk_evictions: u64,
    pages_evicted: u64,
    total_untouch: u64,
    batches: u64,
    faults_serviced: u64,
    coalesced_faults: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    pwc_hits: u64,
    pwc_misses: u64,
    walks: u64,
    faulting_walks: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    wrong_evictions: u64,
    frames_free: u32,
    resident_pages: u64,
    timeline_len: usize,
    timeline_hash: u64,
}

/// Fingerprint `r`, with its per-batch timeline hashed from `series`.
pub fn fingerprint_of(r: &RunResult, series: &EpochSeries) -> Fp {
    let (timeline_len, timeline_hash) = timeline_hash(series);
    Fp {
        outcome: match r.outcome {
            gpu::Outcome::Completed => "Completed",
            gpu::Outcome::Crashed => "Crashed",
            gpu::Outcome::Degraded => "Degraded",
            gpu::Outcome::Timeout => "Timeout",
        },
        cycles: r.cycles,
        accesses: r.accesses,
        faults: r.engine.faults,
        pages_migrated: r.engine.pages_migrated,
        pages_prefetched: r.engine.pages_prefetched,
        chunk_evictions: r.engine.chunk_evictions,
        pages_evicted: r.engine.pages_evicted,
        total_untouch: r.engine.total_untouch,
        batches: r.driver.batches,
        faults_serviced: r.driver.faults_serviced,
        coalesced_faults: r.driver.coalesced_faults,
        l1_hits: r.translation.l1_hits,
        l1_misses: r.translation.l1_misses,
        l2_hits: r.translation.l2_hits,
        l2_misses: r.translation.l2_misses,
        pwc_hits: r.translation.pwc_hits,
        pwc_misses: r.translation.pwc_misses,
        walks: r.translation.walks,
        faulting_walks: r.translation.faulting_walks,
        bytes_h2d: r.bytes_h2d,
        bytes_d2h: r.bytes_d2h,
        wrong_evictions: r.wrong_evictions,
        frames_free: r.frames_free,
        resident_pages: r.resident_pages,
        timeline_len,
        timeline_hash,
    }
}

/// The six golden fingerprints, captured from the pre-overhaul
/// implementation: STN/KMN/SRD × baseline/CPPE on [`golden_cell`].
#[rustfmt::skip]
pub fn golden() -> Vec<(&'static str, PolicyPreset, Fp)> {
    vec![
        ("STN", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 1_644_517, accesses: 2560, faults: 116, pages_migrated: 1856, pages_prefetched: 1740, chunk_evictions: 108, pages_evicted: 1728, total_untouch: 276, batches: 31, faults_serviced: 116, coalesced_faults: 0, l1_hits: 0, l1_misses: 2676, l2_hits: 998, l2_misses: 1678, pwc_hits: 1677, pwc_misses: 3, walks: 1678, faulting_walks: 116, bytes_h2d: 7_602_176, bytes_d2h: 7_077_888, wrong_evictions: 0, frames_free: 0, resident_pages: 128, timeline_len: 31, timeline_hash: 0xEA8C_EBE5_B3D7_3134 }),
        ("STN", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 1_995_500, accesses: 2560, faults: 132, pages_migrated: 1828, pages_prefetched: 1696, chunk_evictions: 110, pages_evicted: 1700, total_untouch: 255, batches: 42, faults_serviced: 132, coalesced_faults: 0, l1_hits: 0, l1_misses: 2692, l2_hits: 1005, l2_misses: 1687, pwc_hits: 1686, pwc_misses: 3, walks: 1687, faulting_walks: 132, bytes_h2d: 7_487_488, bytes_d2h: 6_963_200, wrong_evictions: 102, frames_free: 0, resident_pages: 128, timeline_len: 42, timeline_hash: 0xB582_DDCE_B398_35BE }),
        ("KMN", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 13_467_250, accesses: 14_560, faults: 1690, pages_migrated: 27_040, pages_prefetched: 25_350, chunk_evictions: 1430, pages_evicted: 22_880, total_untouch: 11_440, batches: 75, faults_serviced: 1690, coalesced_faults: 0, l1_hits: 0, l1_misses: 16_250, l2_hits: 0, l2_misses: 16_250, pwc_hits: 16_249, pwc_misses: 19, walks: 16_250, faulting_walks: 1690, bytes_h2d: 110_755_840, bytes_d2h: 93_716_480, wrong_evictions: 0, frames_free: 0, resident_pages: 4160, timeline_len: 75, timeline_hash: 0x3C11_137D_63AB_6163 }),
        ("KMN", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 10_008_513, accesses: 14_560, faults: 1219, pages_migrated: 14_080, pages_prefetched: 12_861, chunk_evictions: 699, pages_evicted: 9920, total_untouch: 4330, batches: 62, faults_serviced: 1219, coalesced_faults: 0, l1_hits: 0, l1_misses: 15_779, l2_hits: 0, l2_misses: 15_779, pwc_hits: 15_778, pwc_misses: 19, walks: 15_779, faulting_walks: 1219, bytes_h2d: 57_671_680, bytes_d2h: 40_632_320, wrong_evictions: 124, frames_free: 0, resident_pages: 4160, timeline_len: 62, timeline_hash: 0x9C4E_6A7B_ED20_1100 }),
        ("SRD", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 12_238_983, accesses: 24_576, faults: 1536, pages_migrated: 24_576, pages_prefetched: 23_040, chunk_evictions: 1344, pages_evicted: 21_504, total_untouch: 0, batches: 67, faults_serviced: 1536, coalesced_faults: 0, l1_hits: 0, l1_misses: 26_112, l2_hits: 0, l2_misses: 26_112, pwc_hits: 26_111, pwc_misses: 14, walks: 26_112, faulting_walks: 1536, bytes_h2d: 100_663_296, bytes_d2h: 88_080_384, wrong_evictions: 0, frames_free: 0, resident_pages: 3072, timeline_len: 67, timeline_hash: 0xAFE6_738E_BD71_5C9B }),
        ("SRD", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 8_551_454, accesses: 24_576, faults: 1043, pages_migrated: 16_688, pages_prefetched: 15_645, chunk_evictions: 851, pages_evicted: 13_616, total_untouch: 0, batches: 46, faults_serviced: 1043, coalesced_faults: 0, l1_hits: 0, l1_misses: 25_619, l2_hits: 0, l2_misses: 25_619, pwc_hits: 25_618, pwc_misses: 14, walks: 25_619, faulting_walks: 1043, bytes_h2d: 68_354_048, bytes_d2h: 55_771_136, wrong_evictions: 0, frames_free: 0, resident_pages: 3072, timeline_len: 46, timeline_hash: 0xD8AE_A366_77F5_DAA9 }),
    ]
}
