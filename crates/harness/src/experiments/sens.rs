//! Sensitivity studies (§IV-B forward distance, §VI-A T3 limit).
//!
//! * **Forward distance** — MHPE with a pinned distance 1..=10, MRU
//!   pinned: per-app untouch levels. The paper's finding: regular apps'
//!   untouch drops sharply once the distance reaches ~2, irregular apps
//!   hold high levels until ~8 — hence the 2..=8 initial-distance range.
//! * **T3** — CPPE with T3 ∈ {16, 20, ..., 40} on the continuously
//!   adjusting apps (SRD, HSD, MRQ): average speedup over the baseline.
//!   The paper selects T3 = 32.

use crate::report::{fmt_speedup, Table};
use crate::runner::{geomean, speedup, CellInputs, ExpConfig};
use cppe::evict::mhpe::{MhpeConfig, MhpePolicy};
use cppe::prefetch::pattern::PatternAwarePrefetcher;
use cppe::presets::PolicyPreset;
use cppe::PolicyEngine;

/// Apps used for the forward-distance sweep: two MRU-favouring regular
/// apps and two high-untouch irregular apps.
pub const FD_APPS: [&str; 4] = ["SRD", "HSD", "B+T", "NW"];

/// Apps used for the T3 sweep (paper: SRD, HSD, MRQ — the apps that
/// keep adjusting at runtime).
pub const T3_APPS: [&str; 3] = ["SRD", "HSD", "MRQ"];

/// One cell of the forward-distance sweep.
#[derive(Debug, Clone)]
pub struct FdCell {
    /// Workload abbreviation.
    pub app: String,
    /// Mean per-interval untouch level (whole run).
    pub untouch: f64,
    /// Wrong evictions per 100 chunk evictions.
    pub wrong_per_100: f64,
}

/// Forward-distance sweep: returns rows `(fd, per-app cells)`.
#[must_use]
pub fn fd_sweep(cfg: &ExpConfig) -> Vec<(usize, Vec<FdCell>)> {
    let inputs: Vec<_> = FD_APPS
        .iter()
        .map(|app| CellInputs::of(app, 0.5, cfg))
        .collect();
    let mut rows = Vec::new();
    for fd in 1..=10usize {
        let mut cells = Vec::new();
        for (app, cell) in FD_APPS.iter().zip(&inputs) {
            let engine = PolicyEngine::new(
                Box::new(MhpePolicy::with_config(MhpeConfig {
                    fixed_fd: Some(fd),
                    disable_switch: true,
                    ..MhpeConfig::default()
                })),
                Box::new(PatternAwarePrefetcher::new()),
            );
            let r = cell.run(&cfg.gpu, engine);
            let untouch = r.mhpe.as_ref().map_or(0.0, |t| {
                if t.interval_untouch.is_empty() {
                    0.0
                } else {
                    f64::from(t.interval_untouch.iter().sum::<u32>())
                        / t.interval_untouch.len() as f64
                }
            });
            let wrong_per_100 =
                100.0 * r.wrong_evictions as f64 / r.engine.chunk_evictions.max(1) as f64;
            cells.push(FdCell {
                app: app.to_string(),
                untouch,
                wrong_per_100,
            });
        }
        rows.push((fd, cells));
    }
    rows
}

/// T3 sweep: `(t3, geomean speedup over baseline across T3_APPS)`.
/// Each app's baseline runs once and serves every T3 value.
#[must_use]
pub fn t3_sweep(cfg: &ExpConfig) -> Vec<(usize, Option<f64>)> {
    let apps: Vec<_> = T3_APPS
        .iter()
        .map(|app| {
            let cell = CellInputs::of(app, 0.5, cfg);
            let base = cell.run_preset(&cfg.gpu, PolicyPreset::Baseline);
            (cell, base)
        })
        .collect();
    let mut rows = Vec::new();
    for t3 in (16..=40).step_by(4) {
        let speeds: Vec<_> = apps
            .iter()
            .map(|(cell, base)| speedup(base, &cell.run_preset(&cfg.gpu, PolicyPreset::MhpeT3(t3))))
            .collect();
        rows.push((t3, geomean(&speeds)));
    }
    rows
}

/// Run both sweeps and render.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Sensitivity studies (§IV-B / §VI-A), 50% oversubscription, scale={}\n\n\
         -- Forward distance 1..=10 (MHPE pinned MRU): mean per-interval untouch --\n",
        cfg.scale
    ));
    let mut header: Vec<String> = vec!["fd".into()];
    for app in FD_APPS {
        header.push(format!("{app}:untouch"));
        header.push(format!("{app}:wrong%"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (fd, cells) in fd_sweep(cfg) {
        let mut row = vec![fd.to_string()];
        for cell in cells {
            row.push(format!("{:.1}", cell.untouch));
            row.push(format!("{:.1}", cell.wrong_per_100));
        }
        table.row(row);
    }
    out.push_str(&table.render());

    out.push_str("\n-- T3 limit sweep (CPPE, geomean speedup over baseline on SRD/HSD/MRQ) --\n");
    let mut table = Table::new(&["t3", "speedup"]);
    let sweep = t3_sweep(cfg);
    let best = sweep
        .iter()
        .max_by(|a, b| {
            a.1.unwrap_or(0.0)
                .partial_cmp(&b.1.unwrap_or(0.0))
                .expect("comparable")
        })
        .map(|(t3, _)| *t3);
    for (t3, s) in &sweep {
        table.row(vec![t3.to_string(), fmt_speedup(*s)]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nBest T3 in this run: {best:?} (paper selects 32).\n\
         Paper shape: regular apps' untouch level drops sharply by fd=2;\n\
         irregular apps stay high until ~8 — motivating the 2..=8 range.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_sweep_produces_ten_rows() {
        let cfg = ExpConfig::quick();
        let rows = fd_sweep(&cfg);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[9].0, 10);
        assert!(rows.iter().all(|(_, cells)| cells.len() == FD_APPS.len()));
    }

    #[test]
    fn t3_sweep_covers_paper_range() {
        let cfg = ExpConfig::quick();
        let rows = t3_sweep(&cfg);
        let t3s: Vec<usize> = rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(t3s, vec![16, 20, 24, 28, 32, 36, 40]);
    }
}
