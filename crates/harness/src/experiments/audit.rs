//! Extension: policy-decision audit — ledger, provenance and oracle.
//!
//! Runs the pattern-diverse subset under CPPE at 50 % oversubscription
//! with decision auditing on ([`telemetry::TraceConfig::audited`]),
//! replays the recorded streams into the page-lifetime ledger
//! ([`telemetry::PageLedger`]) and scores every audited decision
//! against the offline Belady oracle ([`crate::oracle`]). Exports:
//!
//! * `results/audit_<app>_lifetime.csv` — the per-page lifetime table,
//! * `BENCH_audit.json` (schema [`SCHEMA`], mirrored at the repo root)
//!   — the committed regret baseline: decision provenance counts,
//!   ledger aggregates, avoidable migrations, prefetch-usefulness
//!   fractions and the eviction-regret CDF. The export carries no wall
//!   times, so re-running at the same scale is byte-reproducible.

use crate::oracle::OracleReport;
use crate::report::{loss_section, save, Table};
use crate::runner::{CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::{json, PageLedger};

/// Pattern-diverse subset (regular / irregular / mixed), matching the
/// profile and chaos suites so the baselines are comparable.
pub const APPS: [&str; 3] = ["STN", "KMN", "SRD"];

/// Schema marker checked by `validate-trace` and external tooling.
pub const SCHEMA: &str = "cppe-audit-v1";

/// Decision-ring capacity for audited runs: large enough that the
/// quick/default scales audit losslessly (the ledger and oracle are
/// exact only for a lossless stream).
const AUDIT_RING: usize = 1 << 20;

/// One audited workload: the run, its replayed ledger and the oracle
/// scorecard.
#[derive(Debug)]
pub struct AuditedRun {
    /// Workload abbreviation.
    pub app: &'static str,
    /// The audited simulation result.
    pub result: RunResult,
    /// Per-page lifetimes replayed from the recorded streams.
    pub ledger: PageLedger,
    /// Regret against the offline Belady oracle.
    pub oracle: OracleReport,
}

/// Run one workload under CPPE at 50 % oversubscription with decision
/// auditing on and replay its telemetry into ledger + oracle.
///
/// # Panics
/// Panics on an unknown app abbreviation.
#[must_use]
pub fn run_audited(cfg: &ExpConfig, abbr: &'static str) -> AuditedRun {
    let gpu = gpu::GpuConfig {
        trace: telemetry::TraceConfig {
            ring_capacity: AUDIT_RING,
            span_capacity: AUDIT_RING,
            decision_capacity: AUDIT_RING,
            ..telemetry::TraceConfig::audited()
        },
        ..cfg.gpu
    };
    let cell = CellInputs::of(abbr, 0.5, cfg);
    let result = cell.run_preset(&gpu, PolicyPreset::Cppe);
    let (ledger, oracle) = crate::oracle::belady(&result, &cell);
    AuditedRun {
        app: abbr,
        result,
        ledger,
        oracle,
    }
}

/// Decision counts grouped by `(kind, policy, origin)`, in stable
/// (sorted) order — the provenance summary of one audited run.
#[must_use]
pub fn provenance_counts(
    decisions: &[telemetry::DecisionRecord],
) -> BTreeMap<(&'static str, &'static str, &'static str), u64> {
    let mut counts = BTreeMap::new();
    for rec in decisions {
        *counts
            .entry((rec.event.kind.name(), rec.event.policy, rec.event.origin))
            .or_insert(0) += 1;
    }
    counts
}

fn fmt_frac(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

/// Render the audited runs as the `BENCH_audit.json` document (schema
/// [`SCHEMA`]). Deliberately carries no wall times: the document is a
/// committed baseline and must be byte-reproducible per scale.
///
/// # Panics
/// Panics when a run was not traced.
#[must_use]
pub fn audit_json(runs: &[AuditedRun]) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\"schema\":\"{SCHEMA}\",\"workloads\":[");
    for (i, a) in runs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let r = &a.result;
        let t = r.telemetry.as_ref().expect("audit runs are traced");
        let outcome = format!("{:?}", r.outcome).to_lowercase();
        let _ = write!(
            s,
            "{{\"app\":{},\"outcome\":{},\"cycles\":{},\"accesses\":{},\
             \"decisions\":{{\"recorded\":{},\"dropped\":{},",
            json::string(a.app),
            json::string(&outcome),
            r.cycles,
            r.accesses,
            t.decisions.len(),
            t.dropped_decisions,
        );
        s.push_str("\"provenance\":[");
        for (j, ((kind, policy, origin), count)) in
            provenance_counts(&t.decisions).iter().enumerate()
        {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"kind\":{},\"policy\":{},\"origin\":{},\"count\":{count}}}",
                json::string(kind),
                json::string(policy),
                json::string(origin),
            );
        }
        let l = &a.ledger;
        let _ = write!(
            s,
            "]}},\"ledger\":{{\"pages\":{},\"chunk_migrations\":{},\
             \"faults\":{},\"refaults\":{},\"unmatched_evictions\":{},\
             \"max_thrash\":{},\
             \"residency_p50\":{},\"residency_p95\":{},\
             \"refault_distance_p50\":{},\"refault_distance_p95\":{}}},",
            l.page_count(),
            l.chunk_migrations,
            l.total_faults,
            l.total_refaults,
            l.unmatched_evictions,
            l.max_thrash().map_or(0, |(_, n)| u64::from(n)),
            l.residency.p50(),
            l.residency.p95(),
            l.refault_distance.p50(),
            l.refault_distance.p95(),
        );
        let o = &a.oracle;
        let p = &o.prefetch;
        let _ = write!(
            s,
            "\"oracle\":{{\"capacity_chunks\":{},\
             \"actual_chunk_migrations\":{},\"oracle_chunk_faults\":{},\
             \"avoidable_chunk_migrations\":{},\
             \"prefetch\":{{\"pages_migrated\":{},\"used\":{},\"wasted\":{},\
             \"resident_end\":{},\"wasted_bytes\":{},\
             \"used_fraction\":{},\"wasted_fraction\":{},\
             \"resident_end_fraction\":{}}},\
             \"regret\":{{\"decisions\":{},\"zero_regret\":{},\"mean\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}}}}",
            o.capacity_chunks,
            o.actual_chunk_migrations,
            o.oracle_chunk_faults,
            o.avoidable_chunk_migrations(),
            p.pages_migrated,
            p.used,
            p.wasted,
            p.resident_end,
            p.wasted_bytes(),
            fmt_frac(p.used_fraction()),
            fmt_frac(p.wasted_fraction()),
            fmt_frac(p.resident_end_fraction()),
            o.eviction_decisions,
            o.regret.zero_regret(),
            fmt_frac(o.regret.mean()),
            o.regret.quantile(0.5),
            o.regret.quantile(0.95),
            o.regret.quantile(0.99),
            o.regret.max(),
        );
    }
    s.push_str("]}");
    s
}

/// Run and render. Saves the per-app lifetime CSVs and
/// `BENCH_audit.json` under `results/`, mirroring the JSON at the repo
/// root for regret-baseline diffing in CI.
#[must_use]
pub fn run(cfg: &ExpConfig, _threads: usize) -> String {
    let runs: Vec<AuditedRun> = APPS.iter().map(|a| run_audited(cfg, a)).collect();
    let doc = audit_json(&runs);
    let _ = save("BENCH_audit.json", &doc);
    let _ = telemetry::export::write_atomic(std::path::Path::new("BENCH_audit.json"), &doc);
    for a in &runs {
        let _ = save(
            &format!("audit_{}_lifetime.csv", a.app),
            &a.ledger.lifetime_csv(),
        );
    }

    let mut out = format!(
        "Audit (extension) — decision provenance, page-lifetime ledger and\n\
         Belady-oracle regret under CPPE at 50% oversubscription, scale={}\n\
         (lifetime CSVs and BENCH_audit.json under results/, schema {SCHEMA})\n",
        cfg.scale
    );

    let mut summary = Table::new(&[
        "app",
        "decisions",
        "chunk migr",
        "oracle",
        "avoidable",
        "used%",
        "wasted%",
        "regret p95",
        "zero-regret%",
    ]);
    for a in &runs {
        let o = &a.oracle;
        #[allow(clippy::cast_precision_loss)]
        let zero_pct = if o.regret.count() == 0 {
            0.0
        } else {
            o.regret.zero_regret() as f64 / o.regret.count() as f64 * 100.0
        };
        summary.row(vec![
            a.app.to_string(),
            a.result
                .telemetry
                .as_ref()
                .map_or(0, |t| t.decisions.len())
                .to_string(),
            o.actual_chunk_migrations.to_string(),
            o.oracle_chunk_faults.to_string(),
            o.avoidable_chunk_migrations().to_string(),
            format!("{:.1}", o.prefetch.used_fraction() * 100.0),
            format!("{:.1}", o.prefetch.wasted_fraction() * 100.0),
            o.regret.quantile(0.95).to_string(),
            format!("{zero_pct:.1}"),
        ]);
    }
    out.push('\n');
    out.push_str(&summary.render());

    for a in &runs {
        let t = a.result.telemetry.as_ref().expect("audit runs are traced");
        let _ = write!(
            out,
            "\n{} — {:?}, {} pages tracked, {} refaults, max thrash {}\n\n",
            a.app,
            a.result.outcome,
            a.ledger.page_count(),
            a.ledger.total_refaults,
            a.ledger.max_thrash().map_or(0, |(_, n)| n),
        );
        out.push_str(&loss_section(t));
        let mut prov = Table::new(&["kind", "policy", "origin", "count"]);
        for ((kind, policy, origin), count) in provenance_counts(&t.decisions) {
            prov.row(vec![
                kind.to_string(),
                policy.to_string(),
                origin.to_string(),
                count.to_string(),
            ]);
        }
        out.push_str(&prov.render());
    }

    out.push_str(
        "\nReading: 'avoidable' is the gap between the chunk fetches the run\n\
         paid and Belady's minimum over the linearized access order — the\n\
         fetches a clairvoyant eviction policy would have saved. Regret is\n\
         per eviction decision, in linearized accesses: how much sooner the\n\
         chosen victim is needed again versus the best chunk in the policy's\n\
         own candidate window (0 = the policy matched the oracle).\n",
    );
    out
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
    fn audited_run_is_bit_identical_to_untraced_run() {
        // The audit layer must be observational: the simulated outcome
        // of an audited run locks to the plain run, bit for bit.
        let cfg = quick_cfg();
        let audited = run_audited(&cfg, "STN");
        let plain = CellInputs::of("STN", 0.5, &cfg).run_preset(&cfg.gpu, PolicyPreset::Cppe);
        assert!(plain.telemetry.is_none(), "reference run is untraced");
        let a = &audited.result;
        assert_eq!(a.outcome, plain.outcome);
        assert_eq!(a.cycles, plain.cycles);
        assert_eq!(a.accesses, plain.accesses);
        assert_eq!(a.engine.faults, plain.engine.faults);
        assert_eq!(a.engine.pages_migrated, plain.engine.pages_migrated);
        assert_eq!(a.engine.pages_evicted, plain.engine.pages_evicted);
        assert_eq!(a.bytes_h2d, plain.bytes_h2d);
        assert_eq!(a.bytes_d2h, plain.bytes_d2h);
    }

    #[test]
    fn audit_invariants_hold_on_real_runs() {
        for app in APPS {
            let a = run_audited(&quick_cfg(), app);
            let t = a.result.telemetry.as_ref().unwrap();
            assert_eq!(t.dropped_decisions, 0, "{app}: ring sized losslessly");
            assert!(!t.decisions.is_empty(), "{app}: decisions recorded");
            // Regret ≥ 0 by construction; the quantiles are ordered.
            let r = &a.oracle.regret;
            assert!(r.quantile(0.5) <= r.quantile(0.95));
            assert!(r.quantile(0.95) <= r.max());
            assert!(r.mean() >= 0.0);
            // The oracle never charges more than what actually happened.
            assert!(
                a.oracle.avoidable_chunk_migrations() <= a.oracle.actual_chunk_migrations,
                "{app}: avoidable bounded by actual"
            );
            // Usefulness fractions partition 1 whenever pages moved.
            let p = &a.oracle.prefetch;
            assert!(p.pages_migrated > 0, "{app}: pages migrated");
            let sum = p.used_fraction() + p.wasted_fraction() + p.resident_end_fraction();
            assert!((sum - 1.0).abs() < 1e-9, "{app}: fractions sum to {sum}");
        }
    }

    #[test]
    fn audit_json_has_schema_and_regret_sections() {
        let runs = vec![run_audited(&quick_cfg(), "STN")];
        let doc = audit_json(&runs);
        json::validate(&doc).expect("well-formed JSON");
        assert!(doc.starts_with("{\"schema\":\"cppe-audit-v1\""));
        assert!(doc.contains("\"app\":\"STN\""));
        assert!(doc.contains("\"provenance\":["));
        assert!(doc.contains("\"kind\":\"eviction\""));
        assert!(doc.contains("\"kind\":\"prefetch\""));
        assert!(doc.contains("\"avoidable_chunk_migrations\":"));
        assert!(doc.contains("\"used_fraction\":"));
        assert!(doc.contains("\"regret\":{"));
        assert!(doc.contains("\"p99\":"));
        assert!(!doc.contains("wall_ms"), "baseline must be deterministic");
    }

    #[test]
    fn audit_json_is_deterministic() {
        let cfg = quick_cfg();
        let a = audit_json(&[run_audited(&cfg, "STN")]);
        let b = audit_json(&[run_audited(&cfg, "STN")]);
        assert_eq!(a, b, "same config → byte-identical baseline");
    }

    #[test]
    fn lifetime_csv_round_trips_the_shared_parser() {
        let a = run_audited(&quick_cfg(), "STN");
        let csv = a.ledger.lifetime_csv();
        telemetry::csv::validate(&csv).expect("well-formed CSV");
        assert!(csv.starts_with("page,chunk,first_seen_cycle"));
        assert!(csv.lines().count() > 1, "pages recorded");
    }

    #[test]
    fn report_contains_provenance_and_regret() {
        let report = run(&quick_cfg(), 0);
        assert!(report.contains("cppe-audit-v1"));
        assert!(report.contains("regret p95"));
        assert!(report.contains("eviction"));
        assert!(report.contains("prefetch"));
        assert!(report.contains("avoidable"));
    }
}
