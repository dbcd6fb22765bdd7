//! Parallel sweep executor.
//!
//! The evaluation matrix (23 workloads × policies × 2 rates) is
//! embarrassingly parallel. Since the orchestrator PR this is a thin
//! front-end over [`crate::orchestrator`]: jobs become fingerprinted
//! cells, workers hold leases (so a panicking cell is retried and then
//! recorded as failed instead of aborting the whole sweep), and results
//! come back keyed by `(workload, policy-label, rate)` for
//! deterministic assembly. The experiment subcommands keep their
//! fire-and-forget in-memory view; `cppe orchestrate` adds the
//! persistent store and `--resume` on the same machinery.

use crate::orchestrator::{orchestrate_with, CellSpec, OrchestratorConfig};
use crate::runner::ExpConfig;
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::collections::BTreeMap;
use workloads::WorkloadSpec;

/// Key identifying one cell: `(workload abbr, policy label, rate in %)`.
pub type CellKey = (String, String, u32);

/// One requested run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// Oversubscription rate (fraction of footprint that fits).
    pub rate: f64,
}

impl Job {
    /// The result-map key for this job.
    #[must_use]
    pub fn key(&self) -> CellKey {
        (
            self.spec.abbr.to_string(),
            self.preset.label(),
            (self.rate * 100.0).round() as u32,
        )
    }

    /// Lift this job into an orchestrator cell under `cfg`'s
    /// seed/scale.
    #[must_use]
    pub fn to_cell(&self, cfg: &ExpConfig) -> CellSpec {
        CellSpec {
            spec: self.spec.clone(),
            preset: self.preset,
            rate: self.rate,
            seed: cfg.seed,
            scale: cfg.scale,
        }
    }
}

/// Run all jobs, using up to `threads` workers (0 = available
/// parallelism). Results are keyed deterministically regardless of
/// completion order.
///
/// A cell whose execution panics no longer takes the sweep down: the
/// panic is contained, the cell retried (the queue's bounded-retry
/// budget), and on exhaustion recorded as a [`gpu::Outcome::Crashed`]
/// result carrying the panic message — reports render it as a crashed
/// cell like any simulator-detected livelock.
#[must_use]
pub fn run_sweep(jobs: Vec<Job>, cfg: &ExpConfig, threads: usize) -> BTreeMap<CellKey, RunResult> {
    let exp = *cfg;
    run_sweep_with(jobs, cfg, threads, move |job| job.to_cell(&exp).run(&exp))
}

/// [`run_sweep`] with an injected per-job executor — the
/// panic-containment tests substitute a deliberately crashing
/// "simulator" here.
#[must_use]
pub fn run_sweep_with<F>(
    jobs: Vec<Job>,
    cfg: &ExpConfig,
    threads: usize,
    exec: F,
) -> BTreeMap<CellKey, RunResult>
where
    F: Fn(&Job) -> RunResult + Sync,
{
    let cells: Vec<CellSpec> = jobs.iter().map(|j| j.to_cell(cfg)).collect();
    let mut ocfg = OrchestratorConfig::new(*cfg);
    ocfg.threads = threads;
    // Long-running experiment subcommands get the ops plane via env:
    // CPPE_FLIGHT_PATH arms the crash flight recorder (default path
    // under results/ when set empty), CPPE_STATUS_PORT starts a
    // /metrics + /status server on 127.0.0.1 for the sweep's duration.
    if let Ok(p) = std::env::var("CPPE_FLIGHT_PATH") {
        ocfg.flight = Some(if p.is_empty() {
            std::path::PathBuf::from("results").join("flightrec.json")
        } else {
            std::path::PathBuf::from(p)
        });
    }
    let _server = match std::env::var("CPPE_STATUS_PORT") {
        Ok(port) => {
            let plane = std::sync::Arc::new(crate::orchestrator::OpsPlane::new());
            ocfg.ops = Some(plane.clone());
            match telemetry::StatusServer::start(&format!("127.0.0.1:{port}"), plane) {
                Ok(server) => {
                    eprintln!("[sweep] status server on http://{}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("[sweep] WARNING: status server failed to start: {e}");
                    None
                }
            }
        }
        Err(_) => None,
    };
    let mut out = orchestrate_with(cells, None, &ocfg, |cell| {
        let job = Job {
            spec: cell.spec.clone(),
            preset: cell.preset,
            rate: cell.rate,
        };
        exec(&job)
    });

    let mut results = BTreeMap::new();
    for entry in out.entries.values() {
        let key = (entry.app.clone(), entry.policy.clone(), entry.rate_pct);
        let result = match out.full.remove(&entry.fp) {
            Some(r) => r,
            // Terminal worker failure (panic/lease exhaustion): a
            // synthesized crashed result so the cell still shows up.
            None => RunResult::failed(
                entry
                    .record
                    .error
                    .clone()
                    .unwrap_or_else(|| "worker failed".to_string()),
            ),
        };
        results.insert(key, result);
    }
    results
}

/// Convenience: cross `specs × presets × rates` into jobs.
#[must_use]
pub fn cross(specs: &[WorkloadSpec], presets: &[PolicyPreset], rates: &[f64]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for spec in specs {
        for &preset in presets {
            for &rate in rates {
                jobs.push(Job {
                    spec: spec.clone(),
                    preset,
                    rate,
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use gpu::Outcome;
    use workloads::registry;

    #[test]
    fn sweep_returns_every_cell() {
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = cross(
            &specs,
            &[PolicyPreset::Baseline, PolicyPreset::Cppe],
            &[0.5],
        );
        assert_eq!(jobs.len(), 4);
        let cfg = ExpConfig::quick();
        let results = run_sweep(jobs, &cfg, 2);
        assert_eq!(results.len(), 4);
        assert!(results.contains_key(&("STN".into(), "cppe".into(), 50)));
        assert!(results.contains_key(&("MRQ".into(), "baseline".into(), 50)));
    }

    #[test]
    fn sweep_matches_serial_run() {
        let spec = registry::by_abbr("STN").unwrap();
        let cfg = ExpConfig::quick();
        let serial = run_cell(&spec, PolicyPreset::Baseline, 0.5, &cfg);
        let jobs = cross(&[spec], &[PolicyPreset::Baseline], &[0.5]);
        let sweep = run_sweep(jobs, &cfg, 3);
        let cell = &sweep[&("STN".into(), "baseline".into(), 50)];
        assert_eq!(
            cell.cycles, serial.cycles,
            "parallel run must be deterministic"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Leases hand out cells in racy claim order; the assembled
        // result map must not depend on it. Run the same small matrix
        // single-threaded and with 8 workers and compare every cell's
        // observable counters.
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = || {
            cross(
                &specs,
                &[PolicyPreset::Baseline, PolicyPreset::Cppe],
                &[0.5, 0.75],
            )
        };
        let cfg = ExpConfig::quick();
        let serial = run_sweep(jobs(), &cfg, 1);
        let parallel = run_sweep(jobs(), &cfg, 8);
        assert_eq!(serial.len(), parallel.len());
        for (key, a) in &serial {
            let b = &parallel[key];
            assert_eq!(a.cycles, b.cycles, "{key:?}: cycles diverged");
            assert_eq!(a.accesses, b.accesses, "{key:?}: accesses diverged");
            assert_eq!(a.engine.faults, b.engine.faults, "{key:?}: faults diverged");
            assert_eq!(
                a.engine.pages_migrated, b.engine.pages_migrated,
                "{key:?}: migrations diverged"
            );
            assert_eq!(
                a.engine.pages_evicted, b.engine.pages_evicted,
                "{key:?}: evictions diverged"
            );
            assert_eq!(a.bytes_h2d, b.bytes_h2d, "{key:?}: h2d bytes diverged");
        }
    }

    #[test]
    fn panicking_cell_yields_failed_result_not_aborted_sweep() {
        // Regression: pre-orchestrator, one panicking cell unwound a
        // scoped worker and aborted the whole sweep. Now the panic is
        // contained, retried to exhaustion, and surfaced as a Crashed
        // cell while every other cell completes normally.
        let specs = vec![
            registry::by_abbr("STN").unwrap(),
            registry::by_abbr("MRQ").unwrap(),
        ];
        let jobs = cross(&specs, &[PolicyPreset::Baseline], &[0.5]);
        let cfg = ExpConfig::quick();
        let results = run_sweep_with(jobs, &cfg, 2, |job| {
            assert!(job.spec.abbr != "MRQ", "deliberate test panic: MRQ cell");
            run_cell(&job.spec, job.preset, job.rate, &cfg)
        });
        assert_eq!(results.len(), 2, "every cell must be present");
        let crashed = &results[&("MRQ".into(), "baseline".into(), 50)];
        assert_eq!(crashed.outcome, Outcome::Crashed);
        assert!(
            crashed.error.as_deref().unwrap_or("").contains("panic"),
            "failure must carry the panic message, got {:?}",
            crashed.error
        );
        let ok = &results[&("STN".into(), "baseline".into(), 50)];
        assert_eq!(ok.outcome, Outcome::Completed);
    }
}
