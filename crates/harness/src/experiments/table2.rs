//! Table II — the workload inventory, reprinted from the registry
//! (names, abbreviations, footprints, suites, pattern types), plus the
//! derived per-run statistics (pages, chunks, accesses at scale 1).

use crate::runner::ExpConfig;
use std::fmt::Write as _;
use workloads::registry;

/// Render Table II. The inventory is fixed at scale 1 and 28 lanes, so
/// `cfg` and `threads` are ignored.
#[must_use]
pub fn run(_cfg: &ExpConfig, _threads: usize) -> String {
    let rule = "-".repeat(76);
    let mut out = format!(
        "{:<12} {:<5} {:>9} {:<10} {:<7} {:>8} {:>7} {:>10}\n{rule}\n",
        "workload", "abbr", "footprint", "suite", "type", "pages", "chunks", "accesses"
    );
    let lanes = 28;
    let mut total_mb = 0.0;
    for w in registry::all() {
        let pages = w.pages(1.0);
        let _ = writeln!(
            out,
            "{:<12} {:<5} {:>7.1}MB {:<10} {:<7} {:>8} {:>7} {:>10}",
            w.name,
            w.abbr,
            w.footprint_mb,
            w.suite,
            w.pattern.roman(),
            pages,
            pages / 16,
            w.total_accesses(lanes, 1.0),
        );
        total_mb += w.footprint_mb;
    }
    let _ = write!(
        out,
        "{rule}\n23 workloads, footprints 4..130 MB, average {:.1} MB (paper: 45 MB)",
        total_mb / 23.0
    );
    out
}
