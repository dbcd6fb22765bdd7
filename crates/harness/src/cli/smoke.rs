//! `cppe smoke [WORKLOAD] [SCALE] [--trace] [--trace-format F]` — one
//! workload, baseline vs CPPE vs prefetch-off-when-full at 75 % and 50 %,
//! with wall-clock timing.
//!
//! With tracing on, the CPPE run at 50 % oversubscription additionally
//! exports `results/smoke_timeline.csv`, `results/smoke_summary.json`
//! and `results/smoke_trace.json` according to the format selection.

use super::flag_value;
use crate::{run_cell, ExpConfig};
use cppe::presets::PolicyPreset;
use std::process::ExitCode;
use telemetry::{export, TraceFormat};
use workloads::registry;

pub(super) fn main(args: &[String]) -> ExitCode {
    let mut which = "STN";
    let mut scale = 0.5f64;
    let mut positional = 0;
    let mut trace = false;
    let mut format = TraceFormat::Csv;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = true,
            "--trace-format" => {
                format = flag_value(args, &mut i)
                    .map(|s| TraceFormat::parse(s).expect("bad --trace-format"))
                    .expect("--trace-format needs csv|json|chrome|all");
                trace = true;
            }
            other => {
                match positional {
                    0 => which = other,
                    1 => scale = other.parse().expect("SCALE must be a number"),
                    _ => panic!("unexpected argument: {other}"),
                }
                positional += 1;
            }
        }
        i += 1;
    }

    let mut cfg = ExpConfig {
        scale,
        ..ExpConfig::default()
    };
    cfg.gpu.trace.enabled = trace;
    cfg.trace_format = format;

    let w = registry::by_abbr(which).expect("unknown workload");
    for preset in [
        PolicyPreset::Baseline,
        PolicyPreset::Cppe,
        PolicyPreset::DisablePfOnFull,
    ] {
        for rate in [0.75, 0.5] {
            let t0 = std::time::Instant::now();
            let r = run_cell(&w, preset, rate, &cfg);
            let frac = r.engine.total_untouch as f64 / r.engine.pages_evicted.max(1) as f64;
            let vol = r.engine.pages_evicted as f64 / w.pages(cfg.scale) as f64;
            println!(
                "{:8} {:16} rate={:.2} outcome={:?} cycles={:>12} faults={:>8} evict={:>8} ufrac={:.2} vol={:.1} wall={:?}",
                w.abbr, preset.label(), rate, r.outcome, r.cycles,
                r.driver.faults_serviced, r.engine.chunk_evictions, frac, vol, t0.elapsed()
            );
            if trace && preset == PolicyPreset::Cppe && rate == 0.5 {
                let t = r.telemetry.as_ref().expect("traced run has telemetry");
                if format.wants_csv() {
                    save("smoke_timeline.csv", &export::timeline_csv(&t.series));
                }
                if format.wants_json() {
                    let outcome = format!("{:?}", r.outcome).to_lowercase();
                    save(
                        "smoke_summary.json",
                        &export::run_summary_json(&outcome, r.cycles, t),
                    );
                }
                if format.wants_chrome() {
                    save("smoke_trace.json", &export::chrome_trace_json(t));
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn save(name: &str, content: &str) {
    match crate::report::save(name, content) {
        Ok(path) => eprintln!("[smoke] saved {}", path.display()),
        Err(e) => eprintln!("[smoke] could not save {name}: {e}"),
    }
}
