//! Extended sensitivity studies (beyond §VI-A): the switch thresholds
//! T1/T2 and the far-fault service cost.
//!
//! * **T1/T2** — the paper fixes T1 = 32, T2 = 40 from Tables III/IV.
//!   Here we sweep T1 with T2 disabled (the cumulative T2 check
//!   otherwise compensates for a mis-set T1) and measure the geomean
//!   CPPE speedup across one app per pattern type: too high a threshold
//!   leaves the sparse apps thrashing on MRU.
//! * **Fault cost** — the 20 µs far-fault latency is "optimistic" (§V);
//!   real systems see up to ~45 µs. Sweeping it shows CPPE's advantage
//!   grows with fault cost (fewer faults matter more), a robustness
//!   check on the headline result.

use crate::report::{fmt_speedup, Table};
use crate::runner::{geomean, speedup, CellInputs, ExpConfig};
use cppe::evict::mhpe::{MhpeConfig, MhpePolicy};
use cppe::prefetch::pattern::PatternAwarePrefetcher;
use cppe::prefetch::sequential::SequentialLocalPrefetcher;
use cppe::presets::PolicyPreset;
use cppe::PolicyEngine;
use gpu::{GpuConfig, RunResult};

/// One representative app per pattern type.
pub const APPS: [&str; 6] = ["2DC", "KMN", "NW", "SRD", "HIS", "B+T"];

/// T1 values swept (T2 disabled, isolating the first threshold).
pub const T1_VALUES: [u32; 5] = [16, 24, 32, 40, 48];

/// Far-fault base latencies swept, in µs (paper: 20).
pub const FAULT_US: [u64; 4] = [10, 20, 30, 45];

/// Every app's 50 % cell with its baseline run on `cfg.gpu`, simulated
/// once for the T1 sweep and the no-prefetch reference.
#[must_use]
pub fn baselines(cfg: &ExpConfig) -> Vec<(CellInputs, RunResult)> {
    APPS.iter()
        .map(|abbr| {
            let cell = CellInputs::of(abbr, 0.5, cfg);
            let base = cell.run_preset(&cfg.gpu, PolicyPreset::Baseline);
            (cell, base)
        })
        .collect()
}

/// Geomean speedup of `engine()` over each app's stored baseline.
fn geomean_over(
    cfg: &ExpConfig,
    apps: &[(CellInputs, RunResult)],
    engine: impl Fn() -> PolicyEngine,
) -> Option<f64> {
    let speeds: Vec<_> = apps
        .iter()
        .map(|(cell, base)| speedup(base, &cell.run(&cfg.gpu, engine())))
        .collect();
    geomean(&speeds)
}

/// T1/T2 sweep rows: `(t1, geomean speedup over baseline)`.
#[must_use]
pub fn t1_sweep(cfg: &ExpConfig, apps: &[(CellInputs, RunResult)]) -> Vec<(u32, Option<f64>)> {
    // T2 is disabled here to isolate T1's effect — with the paper's T2
    // in place, the cumulative check compensates for a mis-set T1 and
    // the sweep flattens.
    let engine = |t1| {
        let mhpe = MhpeConfig {
            t1,
            t2: u32::MAX,
            ..MhpeConfig::default()
        };
        PolicyEngine::new(
            Box::new(MhpePolicy::with_config(mhpe)),
            Box::new(PatternAwarePrefetcher::new()),
        )
    };
    let row = |t1| (t1, geomean_over(cfg, apps, || engine(t1)));
    T1_VALUES.into_iter().map(row).collect()
}

/// Fault-cost sweep rows: `(µs, geomean CPPE speedup over baseline)`.
/// Each latency reruns the baselines on `apps`' cells, except the one
/// equal to `cfg.gpu`'s, which reuses the stored baselines.
#[must_use]
pub fn fault_cost_sweep(
    cfg: &ExpConfig,
    apps: &[(CellInputs, RunResult)],
) -> Vec<(u64, Option<f64>)> {
    let row = |us| {
        let gpu = GpuConfig {
            fault_base_cycles: us * 1400,
            ..cfg.gpu
        };
        let stored = gpu.fault_base_cycles == cfg.gpu.fault_base_cycles;
        let speeds: Vec<_> = apps
            .iter()
            .map(|(cell, base)| {
                let rerun = (!stored).then(|| cell.run_preset(&gpu, PolicyPreset::Baseline));
                let engine = PolicyEngine::new(
                    Box::new(MhpePolicy::new()),
                    Box::new(PatternAwarePrefetcher::new()),
                );
                speedup(rerun.as_ref().unwrap_or(base), &cell.run(&gpu, engine))
            })
            .collect();
        (us, geomean(&speeds))
    };
    FAULT_US.into_iter().map(row).collect()
}

/// A no-prefetch sanity column used in the report footer: geomean cost
/// of disabling prefetch entirely at the paper's fault latency.
#[must_use]
pub fn nopf_reference(cfg: &ExpConfig, apps: &[(CellInputs, RunResult)]) -> Option<f64> {
    geomean_over(cfg, apps, || {
        PolicyEngine::new(
            Box::new(cppe::evict::lru::LruPolicy::new()),
            Box::new(SequentialLocalPrefetcher::disable_on_full()),
        )
    })
}

/// Run and render.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Extended sensitivity (beyond §VI-A), 50% oversubscription, scale={}\n\n\
         -- T1 sweep (T2 disabled): geomean CPPE speedup over baseline --\n",
        cfg.scale
    ));
    let apps = baselines(cfg);
    let mut table = Table::new(&["t1", "speedup"]);
    for (t1, s) in t1_sweep(cfg, &apps) {
        let marker = if t1 == 32 { " (paper)" } else { "" };
        table.row(vec![format!("{t1}{marker}"), fmt_speedup(s)]);
    }
    out.push_str(&table.render());

    out.push_str("\n-- Far-fault base latency sweep: geomean CPPE speedup --\n");
    let mut table = Table::new(&["fault-us", "speedup"]);
    for (us, s) in fault_cost_sweep(cfg, &apps) {
        let marker = if us == 20 { " (paper)" } else { "" };
        table.row(vec![format!("{us}{marker}"), fmt_speedup(s)]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n(disable-on-full reference at 20us: {})\n\
         Expected: the paper's T1=32 sits at or near the sweep optimum, and\n\
         CPPE's advantage is robust (or grows) as faults get more expensive.\n",
        fmt_speedup(nopf_reference(cfg, &apps))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_cover_declared_ranges() {
        let cfg = ExpConfig::quick();
        let apps = baselines(&cfg);
        let t1s: Vec<u32> = t1_sweep(&cfg, &apps).iter().map(|(t, _)| *t).collect();
        assert_eq!(t1s, T1_VALUES.to_vec());
        let uss: Vec<u64> = fault_cost_sweep(&cfg, &apps)
            .iter()
            .map(|(u, _)| *u)
            .collect();
        assert_eq!(uss, FAULT_US.to_vec());
    }
}
