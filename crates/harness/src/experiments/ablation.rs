//! Ablation study (extension beyond the paper's figures): which half of
//! CPPE does the work — the MHPE eviction policy or the pattern-aware
//! prefetcher — and how does the tree-neighbourhood prefetcher
//! (Ganguly et al.'s CUDA-driver model, which the paper discusses but
//! does not evaluate) compare?
//!
//! Grid: {LRU, MHPE} eviction × {naive seq-local, pattern-aware}
//! prefetch, plus LRU+tree, on one app per pattern type, 50 %
//! oversubscription, all normalized to the baseline (LRU+naive).

use crate::report::{fmt_speedup, Table};
use crate::runner::{geomean, speedup, CellInputs, ExpConfig};
use crate::sweep::{cross, run_sweep};
use cppe::evict::lru::LruPolicy;
use cppe::prefetch::pattern::PatternAwarePrefetcher;
use cppe::presets::PolicyPreset;
use cppe::PolicyEngine;
use workloads::registry;

/// One representative app per pattern type.
pub const APPS: [&str; 6] = ["2DC", "KMN", "NW", "SRD", "HIS", "B+T"];

/// LRU + pattern-aware prefetcher (the combination no preset covers:
/// prefetcher ablated in isolation).
fn lru_pattern_engine() -> PolicyEngine {
    PolicyEngine::new(
        Box::new(LruPolicy::new()),
        Box::new(PatternAwarePrefetcher::new()),
    )
}

/// Run and render.
#[must_use]
pub fn run(cfg: &ExpConfig, threads: usize) -> String {
    let specs: Vec<_> = APPS
        .iter()
        .map(|a| registry::by_abbr(a).expect("known app"))
        .collect();
    // Preset-covered cells via the sweep; custom combos run inline.
    let jobs = cross(
        &specs,
        &[
            PolicyPreset::Baseline,
            PolicyPreset::MhpeOnly,
            PolicyPreset::Cppe,
            PolicyPreset::LruTree,
            PolicyPreset::Clock,
            PolicyPreset::Srrip,
        ],
        &[0.5],
    );
    let results = run_sweep(jobs, cfg, threads);

    let mut table = Table::new(&[
        "app",
        "mhpe+naive",
        "lru+pattern",
        "cppe",
        "lru+tree",
        "clock",
        "srrip",
    ]);
    let mut cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); 6];
    for spec in &specs {
        let base = &results[&(spec.abbr.to_string(), "baseline".into(), 50)];
        let mhpe = &results[&(spec.abbr.to_string(), "mhpe-naive-pf".into(), 50)];
        let cppe = &results[&(spec.abbr.to_string(), "cppe".into(), 50)];
        let tree = &results[&(spec.abbr.to_string(), "lru-tree".into(), 50)];
        let clock = &results[&(spec.abbr.to_string(), "clock".into(), 50)];
        let srrip = &results[&(spec.abbr.to_string(), "srrip".into(), 50)];

        // LRU + pattern-aware is not a preset; run it directly.
        let lru_pat = CellInputs::new(spec, 0.5, cfg).run(&cfg.gpu, lru_pattern_engine());

        let cells = [
            speedup(base, mhpe),
            speedup(base, &lru_pat),
            speedup(base, cppe),
            speedup(base, tree),
            speedup(base, clock),
            speedup(base, srrip),
        ];
        let mut row = vec![spec.abbr.to_string()];
        for (i, s) in cells.iter().enumerate() {
            cols[i].push(*s);
            row.push(fmt_speedup(*s));
        }
        table.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for col in &cols {
        avg.push(fmt_speedup(geomean(col)));
    }
    table.row(avg);

    format!(
        "Ablation (extension) — which half of CPPE does the work?\n\
         Speedup over the baseline (LRU+naive), 50% oversubscription, scale={}\n\n{}\n\
         Expected: MHPE alone carries the thrashing apps (SRD), the pattern\n\
         prefetcher alone carries the strided apps (NW, HIS), CPPE combines\n\
         both; the tree prefetcher behaves like a more aggressive naive\n\
         prefetcher; CLOCK/SRRIP (classic CPU/OS anti-thrash policies at\n\
         chunk granularity) land between LRU and MHPE on the thrashers.\n",
        cfg.scale,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_separates_the_mechanisms() {
        let cfg = ExpConfig::quick();
        let report = run(&cfg, 0);
        for app in APPS {
            assert!(report.contains(app));
        }
        assert!(report.contains("geomean"));
    }
}
