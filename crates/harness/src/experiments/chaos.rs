//! Extension: resilience under deterministic fault injection.
//!
//! Re-runs a pattern-diverse workload subset at 50 % oversubscription
//! under each chaos scenario (degraded link, transient DMA failures,
//! far-fault latency spikes, fault-queue overflow, all four combined)
//! and reports the slowdown relative to the clean run, per policy. A
//! second section demonstrates the degradation ladder: a workload whose
//! baseline run thrash-crashes (Fig. 4's failure mode) survives in
//! degraded mode by shedding prefetch aggressiveness.

use crate::report::{save, Table};
use crate::runner::{CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::{GpuConfig, Outcome};
use sim_core::fault::InjectionConfig;
use uvm::driver::ResilienceConfig;

/// Pattern-diverse subset (regular / irregular / mixed).
pub const APPS: [&str; 3] = ["2DC", "KMN", "SRD"];

/// Policies compared under injection.
pub const PRESETS: [PolicyPreset; 2] = [PolicyPreset::Baseline, PolicyPreset::Cppe];

/// The chaos scenarios, with the clean run first as the reference.
#[must_use]
pub fn scenarios(seed: u64) -> Vec<(&'static str, InjectionConfig)> {
    vec![
        ("clean", InjectionConfig::disabled()),
        ("link-degrade", InjectionConfig::link_degradation(seed)),
        (
            "dma-fail-5%",
            InjectionConfig::transient_failures(seed, 0.05),
        ),
        ("lat-spikes", InjectionConfig::latency_spikes(seed)),
        ("queue-32", InjectionConfig::batch_overflow(seed, 32)),
        ("combined", InjectionConfig::combined(seed)),
    ]
}

fn outcome_tag(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "",
        Outcome::Degraded => "*",
        Outcome::Crashed => "†",
        Outcome::Timeout => "‡",
    }
}

/// Run and render.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let mut cols = vec!["app".to_string(), "policy".to_string()];
    for (name, _) in scenarios(cfg.seed) {
        cols.push(name.to_string());
    }
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(&col_refs);

    // Driver resilience counters from the most hostile scenario
    // ("combined" runs last), per app × policy.
    let mut drv = Table::new(&[
        "app",
        "policy",
        "retries",
        "backoff cyc",
        "aborts",
        "splits",
        "deferred",
        "sheds",
        "fallbacks",
        "recoveries",
    ]);

    for abbr in APPS {
        let inputs = CellInputs::of(abbr, 0.5, cfg);
        for preset in PRESETS {
            let mut row = vec![abbr.to_string(), preset.label()];
            let mut clean_cycles = None;
            let mut combined = None;
            for (_, injection) in scenarios(cfg.seed) {
                let r = inputs.run_preset(
                    &GpuConfig {
                        injection,
                        ..cfg.gpu
                    },
                    preset,
                );
                let cell = if !r.survived() || r.cycles == 0 {
                    format!("X{}", outcome_tag(r.outcome))
                } else if let Some(clean) = clean_cycles {
                    format!(
                        "{:.2}x{}",
                        r.cycles as f64 / clean as f64,
                        outcome_tag(r.outcome)
                    )
                } else {
                    clean_cycles = Some(r.cycles);
                    format!("{}", r.cycles)
                };
                row.push(cell);
                combined = Some(r);
            }
            table.row(row);
            if let Some(r) = combined {
                let d = &r.driver;
                drv.row(vec![
                    abbr.to_string(),
                    preset.label(),
                    d.retries.to_string(),
                    d.retry_backoff_cycles.to_string(),
                    d.migrations_aborted.to_string(),
                    d.batch_splits.to_string(),
                    d.deferred_faults.to_string(),
                    d.throttle_sheds.to_string(),
                    d.policy_fallbacks.to_string(),
                    d.rung_recoveries.to_string(),
                ]);
            }
        }
    }

    // Degradation-ladder demonstration: MVT's baseline run dies of
    // thrash (Fig. 4); in degraded mode the ladder sheds prefetch and
    // the run finishes. The ladder runs audit decisions when traced
    // (audit is inert while tracing is off), so every shed-mode call
    // carries its rung and fallback-policy provenance.
    let mvt = CellInputs::of("MVT", 0.5, cfg);
    let run_mvt = |resilience| {
        let mut gpu = GpuConfig {
            resilience,
            ..cfg.gpu
        };
        gpu.trace.audit = true;
        mvt.run_preset(&gpu, PolicyPreset::Baseline)
    };
    let plain = run_mvt(ResilienceConfig::default());
    let laddered = run_mvt(ResilienceConfig::degraded());
    // Recovery rung: same ladder, but after a quiet period with no
    // thrash-detector trips the driver re-arms the shed aggressiveness
    // one rung at a time.
    let recovered = run_mvt(ResilienceConfig::degraded_with_recovery(64));
    let ladder = format!(
        "MVT @ 50% (baseline policy): plain driver → {:?}; degraded mode →\n\
         {:?} in {} cycles (throttle sheds: {}, policy fallbacks: {});\n\
         with recovery (64 quiet batches) → {:?} in {} cycles\n\
         (sheds: {}, fallbacks: {}, rung recoveries: {})",
        plain.outcome,
        laddered.outcome,
        laddered.cycles,
        laddered.driver.throttle_sheds,
        laddered.driver.policy_fallbacks,
        recovered.outcome,
        recovered.cycles,
        recovered.driver.throttle_sheds,
        recovered.driver.policy_fallbacks,
        recovered.driver.rung_recoveries,
    );

    // When traced, the ladder demo is the interesting run to look at in
    // Perfetto: rung transitions sit on the "ladder" track. A lossy
    // trace is flagged so a truncated artifact never reads as complete,
    // and the audited decisions become a provenance-by-rung section:
    // which policy (including the thrash fallback) made each call at
    // which ladder rung, plus the run's regret against the Belady
    // oracle.
    let mut banner = String::new();
    if cfg.gpu.trace.enabled {
        if let Some(t) = &recovered.telemetry {
            let loss = crate::report::loss_section(t);
            if !loss.is_empty() {
                banner = format!("\n{loss}");
            }
            let mut counts: std::collections::BTreeMap<(&'static str, &'static str, u32), u64> =
                std::collections::BTreeMap::new();
            for rec in &t.decisions {
                *counts
                    .entry((rec.event.kind.name(), rec.event.policy, rec.event.rung))
                    .or_insert(0) += 1;
            }
            let mut prov = Table::new(&["kind", "policy", "rung", "count"]);
            for ((kind, policy, rung), count) in counts {
                prov.row(vec![
                    kind.to_string(),
                    policy.to_string(),
                    rung.to_string(),
                    count.to_string(),
                ]);
            }
            let (_, oracle) = crate::oracle::belady(&recovered, &mvt);
            banner.push_str(&format!(
                "\nDecision provenance across the ladder (recovered run),\n\
                 by policy and rung:\n\n{}\n\
                 Oracle regret: {} of {} chunk migrations avoidable;\n\
                 eviction regret p50/p95 = {}/{} linearized accesses\n",
                prov.render(),
                oracle.avoidable_chunk_migrations(),
                oracle.actual_chunk_migrations,
                oracle.regret.quantile(0.5),
                oracle.regret.quantile(0.95),
            ));
            if cfg.trace_format.wants_chrome() {
                let _ = save(
                    "chaos_mvt_ladder_trace.json",
                    &telemetry::export::chrome_trace_json(t),
                );
            }
            if cfg.trace_format.wants_json() {
                let outcome = format!("{:?}", recovered.outcome).to_lowercase();
                let _ = save(
                    "chaos_mvt_ladder_summary.json",
                    &telemetry::export::run_summary_json(&outcome, recovered.cycles, t),
                );
            }
            if cfg.trace_format.wants_csv() {
                let _ = save(
                    "chaos_mvt_ladder_timeline.csv",
                    &telemetry::export::timeline_csv(&t.series),
                );
            }
        }
    }

    format!(
        "Chaos (extension) — run time under deterministic fault injection,\n\
         relative to each policy's clean run; 50% oversubscription,\n\
         scale={}, injection seed={:#x}\n\n{}\n\
         Cells: clean column is absolute cycles; others are slowdown\n\
         factors. * = completed degraded, † = crashed, ‡ = timeout.\n\n\
         Driver resilience counters under the combined scenario:\n\n{}\n\
         Degradation ladder:\n{}\n{}",
        cfg.scale,
        cfg.seed,
        table.render(),
        drv.render(),
        ladder,
        banner
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn clean_run_matches_uninjected_simulate() {
        // A "clean" scenario cell must be bit-identical to a run that
        // never heard of the injection layer.
        let cfg = quick_cfg();
        let stn = CellInputs::of("STN", 0.5, &cfg);
        let clean = GpuConfig {
            injection: InjectionConfig::disabled(),
            resilience: ResilienceConfig::default(),
            ..cfg.gpu
        };
        let injected = stn.run_preset(&clean, PolicyPreset::Baseline);
        let plain = stn.run_preset(&cfg.gpu, PolicyPreset::Baseline);
        assert_eq!(injected.cycles, plain.cycles);
        assert_eq!(injected.engine.pages_migrated, plain.engine.pages_migrated);
    }

    #[test]
    fn audited_ladder_run_records_rung_provenance() {
        // The degraded MVT run sheds rungs; with auditing on, the
        // decisions it records must carry those raised rungs so the
        // provenance-by-rung section has rows beyond rung 0.
        let cfg = quick_cfg();
        let gpu = GpuConfig {
            trace: telemetry::TraceConfig::audited(),
            resilience: ResilienceConfig::degraded(),
            ..cfg.gpu
        };
        let r = CellInputs::of("MVT", 0.5, &cfg).run_preset(&gpu, PolicyPreset::Baseline);
        let t = r.telemetry.as_ref().expect("traced");
        assert!(!t.decisions.is_empty());
        assert!(
            t.decisions.iter().any(|d| d.event.rung > 0),
            "shed-mode decisions carry their ladder rung"
        );
    }

    #[test]
    fn injection_slows_but_does_not_kill() {
        let cfg = quick_cfg();
        let stn = CellInputs::of("STN", 0.5, &cfg);
        let clean = stn.run_preset(&cfg.gpu, PolicyPreset::Baseline);
        let injection = InjectionConfig::combined(cfg.seed);
        let hurt = stn.run_preset(
            &GpuConfig {
                injection,
                ..cfg.gpu
            },
            PolicyPreset::Baseline,
        );
        assert!(clean.survived());
        assert!(hurt.survived(), "injection must not kill the run");
        assert!(
            hurt.cycles >= clean.cycles,
            "perturbation can only slow things down: {} vs {}",
            hurt.cycles,
            clean.cycles
        );
    }
}
