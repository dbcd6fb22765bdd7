//! Extension: thrash dynamics over time.
//!
//! Runs one workload under the baseline and under CPPE with the
//! telemetry tracer on (decision auditing included), then exports the
//! per-epoch metric series — the time-resolved view of what Fig. 8
//! summarizes in one number. The report shows a decile summary, the
//! driver resilience counters, the stage-latency tables and the CPPE
//! run's decision provenance with its Belady-oracle regret; the full
//! wide per-batch series is saved as CSV under `results/` (plus JSON
//! summary / Chrome trace when `--trace-format` asks).

use crate::report::{loss_section, save, Table};
use crate::runner::{CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::fmt::Write as _;
use telemetry::export;

/// Default workload for the timeline (a Type IV thrasher).
pub const DEFAULT_APP: &str = "HSD";

/// Run `cell` with the telemetry tracer forced on (with decision
/// auditing so the provenance/regret section has a stream to replay).
#[must_use]
pub fn run_instrumented(cfg: &ExpConfig, cell: &CellInputs, preset: PolicyPreset) -> RunResult {
    let gpu = gpu::GpuConfig {
        // Audited tracer, carrying over the caller's monitor knobs so
        // `--monitor` yields a snapshot time-series alongside the
        // decision stream.
        trace: telemetry::TraceConfig {
            monitor: cfg.gpu.trace.monitor,
            monitor_cadence: cfg.gpu.trace.monitor_cadence,
            monitor_wall_ms: cfg.gpu.trace.monitor_wall_ms,
            monitor_capacity: cfg.gpu.trace.monitor_capacity,
            ..telemetry::TraceConfig::audited()
        },
        ..cfg.gpu
    };
    cell.run_preset(&gpu, preset)
}

/// Wide per-epoch CSV of a traced run (every registered metric: the
/// CPPE engine, driver resilience, injection and PCIe counters as
/// per-batch deltas, plus residency/throttle/rung gauges).
///
/// # Panics
/// Panics when the run was not traced.
#[must_use]
pub fn to_csv(r: &RunResult) -> String {
    let t = r.telemetry.as_ref().expect("timeline runs are traced");
    export::timeline_csv(&t.series)
}

fn outcome_str(r: &RunResult) -> String {
    format!("{:?}", r.outcome).to_lowercase()
}

/// Run and render.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let app = DEFAULT_APP;
    let cell = CellInputs::of(app, 0.5, cfg);
    let base = run_instrumented(cfg, &cell, PolicyPreset::Baseline);
    let cppe = run_instrumented(cfg, &cell, PolicyPreset::Cppe);

    for (label, r) in [("baseline", &base), ("cppe", &cppe)] {
        if cfg.trace_format.wants_csv() {
            let _ = save(&format!("timeline_{app}_{label}.csv"), &to_csv(r));
        }
        let t = r.telemetry.as_ref().expect("timeline runs are traced");
        if cfg.trace_format.wants_json() {
            let j = export::run_summary_json(&outcome_str(r), r.cycles, t);
            let _ = save(&format!("timeline_{app}_{label}_summary.json"), &j);
        }
        if cfg.trace_format.wants_chrome() {
            let _ = save(
                &format!("timeline_{app}_{label}_trace.json"),
                &export::chrome_trace_json(t),
            );
        }
        if t.monitor.sampled > 0 {
            let _ = save(
                &format!("timeline_{app}_{label}_monitor.json"),
                &telemetry::monitor::monitor_json(&t.monitor),
            );
        }
    }

    // Decile summary: cumulative evictions at each tenth of the run,
    // read back from the sampled epoch series.
    let mut table = Table::new(&["% of run", "baseline evictions", "cppe evictions"]);
    let at = |r: &RunResult, frac: f64| -> u64 {
        let t = r.telemetry.as_ref().expect("timeline runs are traced");
        let target = (r.cycles as f64 * frac) as u64;
        t.series.total_at("cppe.pages_evicted", target)
    };
    for decile in 1..=10 {
        let frac = f64::from(decile) / 10.0;
        table.row(vec![
            format!("{}0%", decile),
            at(&base, frac).to_string(),
            at(&cppe, frac).to_string(),
        ]);
    }

    // Driver resilience counters (retry/backoff/degradation ladder) —
    // zero in a clean run, but surfaced here so chaos-flavoured configs
    // show up side by side with the eviction dynamics.
    let mut drv = Table::new(&["driver counter", "baseline", "cppe"]);
    for ((name, b), (_, c)) in base.driver.metrics().iter().zip(cppe.driver.metrics()) {
        drv.row(vec![(*name).to_string(), b.to_string(), c.to_string()]);
    }

    // Where the fault time went, per policy: the span trees folded into
    // per-stage latency distributions. A lossy ring gets a warning so a
    // truncated distribution never reads as a complete one.
    let mut stages = String::new();
    for (label, r) in [("baseline", &base), ("cppe", &cppe)] {
        let t = r.telemetry.as_ref().expect("timeline runs are traced");
        stages.push_str(&loss_section(t));
        let attr = telemetry::LatencyAttribution::from_spans(&t.spans);
        stages.push_str(&format!("{label}:\n"));
        stages.push_str(&crate::experiments::profile::stage_table(&attr).render());
        stages.push('\n');
    }

    // Decision provenance for the CPPE run, and its eviction regret
    // against the Belady oracle over the linearized access stream —
    // the audit layer's time-resolved counterpart to the `audit`
    // experiment's committed baseline.
    let mut audit_sec = String::new();
    {
        let t = cppe.telemetry.as_ref().expect("timeline runs are traced");
        audit_sec.push_str(&loss_section(t));
        let mut prov = Table::new(&["kind", "policy", "origin", "count"]);
        for ((kind, policy, origin), count) in
            crate::experiments::audit::provenance_counts(&t.decisions)
        {
            prov.row(vec![
                kind.to_string(),
                policy.to_string(),
                origin.to_string(),
                count.to_string(),
            ]);
        }
        audit_sec.push_str(&prov.render());
        let (_, oracle) = crate::oracle::belady(&cppe, &cell);
        let _ = write!(
            audit_sec,
            "\nOracle regret (cppe): {} of {} chunk migrations avoidable;\n\
             eviction regret p50/p95/max = {}/{}/{} linearized accesses\n\
             ({} of {} decisions matched Belady); {:.1}% of migrated pages\n\
             evicted untouched ({} wasted bytes)\n",
            oracle.avoidable_chunk_migrations(),
            oracle.actual_chunk_migrations,
            oracle.regret.quantile(0.5),
            oracle.regret.quantile(0.95),
            oracle.regret.max(),
            oracle.regret.zero_regret(),
            oracle.regret.count(),
            oracle.prefetch.wasted_fraction() * 100.0,
            oracle.prefetch.wasted_bytes(),
        );
    }

    format!(
        "Timeline (extension) — cumulative evicted pages over run time for\n\
         {app} at 50% oversubscription, scale={} (full per-batch series in\n\
         results/timeline_{app}_*.csv)\n\n{}\n\
         Expected: the baseline accumulates eviction traffic at a steady\n\
         thrash rate; CPPE's curve flattens once the chain classification\n\
         settles (MRU retention) and the pattern buffer warms up.\n\n\
         Driver resilience totals (end of run):\n\n{}\n\
         Fault-lifecycle stage latencies (cycles):\n\n{}\n\
         Decision provenance (cppe run):\n\n{}",
        cfg.scale,
        table.render(),
        drv.render(),
        stages,
        audit_sec
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_csv_has_one_row_per_batch() {
        let cfg = ExpConfig::quick();
        let r = run_instrumented(
            &cfg,
            &CellInputs::of("STN", 0.5, &cfg),
            PolicyPreset::Baseline,
        );
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count() as u64, 1 + r.driver.batches);
        assert!(csv.starts_with("epoch,cycle,cppe.faults"));
        telemetry::csv::validate(&csv).expect("well-formed CSV");
    }

    #[test]
    fn report_contains_decile_and_driver_rows() {
        let cfg = ExpConfig::quick();
        let report = run(&cfg, 0);
        assert!(report.contains("100%"));
        assert!(report.contains("baseline evictions"));
        assert!(report.contains("driver.retries"));
        assert!(report.contains("driver.rung_recoveries"));
        assert!(report.contains("Fault-lifecycle stage latencies"));
        assert!(report.contains("fault_total"));
        assert!(report.contains("Decision provenance"));
        assert!(report.contains("Oracle regret"));
        assert!(report.contains("avoidable"));
    }

    #[test]
    fn monitor_flag_yields_valid_snapshot_series() {
        let mut cfg = ExpConfig::quick();
        cfg.gpu.trace.monitor = true;
        let r = run_instrumented(&cfg, &CellInputs::of("STN", 0.5, &cfg), PolicyPreset::Cppe);
        let t = r.telemetry.as_ref().expect("traced");
        assert!(t.monitor.sampled > 0, "sampler must fire at least once");
        let doc = telemetry::monitor::monitor_json(&t.monitor);
        telemetry::monitor::validate_doc(&doc).expect("valid monitor document");
    }

    #[test]
    fn instrumented_runs_record_decisions() {
        let cfg = ExpConfig::quick();
        let r = run_instrumented(&cfg, &CellInputs::of("STN", 0.5, &cfg), PolicyPreset::Cppe);
        let t = r.telemetry.as_ref().expect("traced");
        assert!(!t.decisions.is_empty(), "auditing is on for timelines");
    }
}
