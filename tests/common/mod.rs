//! Helpers shared by the integration tests that fingerprint runs.

use telemetry::EpochSeries;

/// One FNV-1a step over a 64-bit value.
pub fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
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
