//! Extension: how close do the policies get to the offline optimum?
//!
//! For each app, compute the Belady (OPT) chunk-fault bound on the
//! linearized access order and compare each policy's *serviced fault*
//! count against it. A ratio of 1.00 means Belady-optimal fault volume;
//! LRU's ratio explodes on the thrashing apps while CPPE stays closer
//! to the bound — the fault-count view of Fig. 8.

use crate::opt::{linearize, opt_chunk_faults};
use crate::report::Table;
use crate::runner::{CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;

/// Apps shown (one per type, plus the severe thrashers).
pub const APPS: [&str; 7] = ["2DC", "KMN", "NW", "SRD", "HSD", "HIS", "B+T"];

/// Run and render.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let mut table = Table::new(&["app", "opt-faults", "baseline/opt", "cppe/opt"]);
    for abbr in APPS {
        let cell = CellInputs::of(abbr, 0.5, cfg);
        let opt = opt_chunk_faults(&linearize(&cell.streams), cell.capacity_chunks()).max(1);

        let base = cell.run_preset(&cfg.gpu, PolicyPreset::Baseline);
        let cppe = cell.run_preset(&cfg.gpu, PolicyPreset::Cppe);
        let ratio = |r: &gpu::RunResult| {
            if r.completed() {
                format!("{:.2}", r.driver.faults_serviced as f64 / opt as f64)
            } else {
                "X".to_string()
            }
        };
        table.row(vec![
            abbr.to_string(),
            opt.to_string(),
            ratio(&base),
            ratio(&cppe),
        ]);
    }
    format!(
        "OPT bound (extension) — serviced faults relative to the offline\n\
         Belady chunk-fault minimum, 50% oversubscription, scale={}\n\n{}\n\
         Note: CPPE's pattern prefetcher migrates *partial* chunks, so its\n\
         fault count can exceed the whole-chunk OPT bound while moving far\n\
         fewer pages; the bound contextualizes fault volume, not run time.\n",
        cfg.scale,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_never_beat_the_whole_chunk_bound_on_dense_apps() {
        let cfg = ExpConfig::quick();
        let report = run(&cfg, 0);
        // 2DC is dense streaming: baseline faults == compulsory == OPT.
        let line = report.lines().find(|l| l.starts_with("2DC")).unwrap();
        let cells: Vec<&str> = line.split_whitespace().collect();
        let base_ratio: f64 = cells[2].parse().unwrap();
        assert!(
            (0.99..=1.05).contains(&base_ratio),
            "2DC baseline should be at the OPT bound, got {base_ratio}"
        );
    }
}
