//! Crash-safe sweep service. Expands an experiment matrix into
//! fingerprinted cells, runs them under the leased orchestrator, and
//! (with `--store`) journals every resolved cell so a killed run
//! resumes where it left off. Usage:
//!
//! ```text
//! cppe orchestrate \
//!     [--apps STN,MRQ|all] [--policies baseline,cppe] [--rates 50,75] \
//!     [--seeds 12648430] [--scale X] [--threads N] \
//!     [--store DIR] [--resume] [--salvage] [--compact] \
//!     [--lease-ms N] [--max-attempts N] [--backoff-ms N] \
//!     [--max-in-flight N] [--chaos-seed N] [--stop-after N] \
//!     [--status-port N] [--status-linger-ms N] [--flight PATH]
//! ```
//!
//! `--resume` is required to reuse a store that already holds results
//! (already-computed fingerprints are skipped, not re-run); `--salvage`
//! truncates a torn journal to its valid prefix instead of refusing to
//! open it. `--chaos-seed` arms the deterministic kill/panic/delay
//! storm (for exercising the machinery); `--stop-after N` aborts after
//! N cells resolve, simulating a kill for resume drills.
//!
//! `--status-port N` serves live `/metrics` (Prometheus text),
//! `/status` (JSON) and `/healthz` on `127.0.0.1:N` (0 = ephemeral);
//! the bound address is written to `<store>/status.addr` (or
//! `results/status.addr` without a store) so scripts can find an
//! ephemeral port. `--status-linger-ms` keeps the server up after the
//! sweep so a scraper polling near the end does not race shutdown. The
//! crash flight recorder is always armed: dossiers go to `--flight
//! PATH` or default to `<store>/flightrec.json` / `results/flightrec.json`.

use super::flag_value;
use crate::orchestrator::{
    orchestrate, render_report, CellSpec, LeaseConfig, OpsPlane, OrchChaos, OrchestratorConfig,
    Recovery, ResultStore,
};
use crate::runner::ExpConfig;
use cppe::presets::PolicyPreset;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Cli {
    cells: Vec<CellSpec>,
    cfg: OrchestratorConfig,
    store: Option<PathBuf>,
    resume: bool,
    recovery: Recovery,
    status_port: Option<u16>,
    status_linger: Duration,
    flight: Option<PathBuf>,
}

fn parse_list(raw: &str) -> Vec<&str> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

#[allow(clippy::too_many_lines)]
fn parse_cli(args: &[String]) -> Cli {
    let mut exp = ExpConfig::default();
    let mut threads = 0usize;
    let mut apps: Vec<String> = vec!["STN".into(), "MRQ".into()];
    let mut policies: Vec<String> = vec!["baseline".into(), "cppe".into()];
    let mut rates: Vec<f64> = vec![0.5, 0.75];
    let mut seeds: Vec<u64> = vec![exp.seed];
    let mut lease = LeaseConfig::default();
    let mut chaos = None;
    let mut stop_after = None;
    let mut compact = false;
    let mut store = None;
    let mut resume = false;
    let mut recovery = Recovery::Strict;
    let mut status_port = None;
    let mut status_linger = Duration::ZERO;
    let mut flight = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value =
            || flag_value(args, &mut i).unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag {
            "--quick" => exp = ExpConfig::quick(),
            "--scale" => {
                exp.scale = value().parse().expect("--scale needs a number");
            }
            "--threads" => {
                threads = value().parse().expect("--threads needs a number");
            }
            "--apps" => {
                let raw = value();
                apps = if raw == "all" {
                    workloads::registry::all()
                        .iter()
                        .map(|s| s.abbr.to_string())
                        .collect()
                } else {
                    parse_list(raw).iter().map(|s| (*s).to_string()).collect()
                };
            }
            "--policies" => {
                policies = parse_list(value())
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect();
            }
            "--rates" => {
                rates = parse_list(value())
                    .iter()
                    .map(|s| {
                        let pct: f64 = s.parse().expect("--rates needs percents, e.g. 50,75");
                        pct / 100.0
                    })
                    .collect();
            }
            "--seeds" => {
                seeds = parse_list(value())
                    .iter()
                    .map(|s| s.parse().expect("--seeds needs integers"))
                    .collect();
            }
            "--store" => store = Some(PathBuf::from(value())),
            "--resume" => resume = true,
            "--salvage" => recovery = Recovery::Salvage,
            "--compact" => compact = true,
            "--lease-ms" => {
                lease.lease =
                    Duration::from_millis(value().parse().expect("--lease-ms needs millis"));
            }
            "--max-attempts" => {
                lease.max_attempts = value().parse().expect("--max-attempts needs a number");
            }
            "--backoff-ms" => {
                lease.backoff =
                    Duration::from_millis(value().parse().expect("--backoff-ms needs millis"));
            }
            "--max-in-flight" => {
                lease.max_in_flight = value().parse().expect("--max-in-flight needs a number");
            }
            "--chaos-seed" => {
                chaos = Some(OrchChaos::storm(
                    value().parse().expect("--chaos-seed needs a number"),
                ));
            }
            "--stop-after" => {
                stop_after = Some(value().parse().expect("--stop-after needs a number"));
            }
            "--status-port" => {
                status_port = Some(
                    value()
                        .parse()
                        .expect("--status-port needs a port number (0 = ephemeral)"),
                );
            }
            "--status-linger-ms" => {
                status_linger = Duration::from_millis(
                    value().parse().expect("--status-linger-ms needs millis"),
                );
            }
            "--flight" => flight = Some(PathBuf::from(value())),
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }

    let mut cells = Vec::new();
    for app in &apps {
        let spec = workloads::registry::by_abbr(app)
            .unwrap_or_else(|| panic!("unknown workload {app:?} (try --apps all)"));
        for policy in &policies {
            let preset = PolicyPreset::parse(policy)
                .unwrap_or_else(|| panic!("unknown policy label {policy:?}"));
            for &rate in &rates {
                for &seed in &seeds {
                    cells.push(CellSpec {
                        spec: spec.clone(),
                        preset,
                        rate,
                        seed,
                        scale: exp.scale,
                    });
                }
            }
        }
    }

    let mut cfg = OrchestratorConfig::new(exp);
    cfg.threads = threads;
    cfg.lease = lease;
    cfg.chaos = chaos;
    cfg.stop_after = stop_after;
    cfg.compact_on_finish = compact;
    Cli {
        cells,
        cfg,
        store,
        resume,
        recovery,
        status_port,
        status_linger,
        flight,
    }
}

pub(super) fn main(args: &[String]) -> ExitCode {
    let mut cli = parse_cli(args);
    let t0 = std::time::Instant::now();

    // Ops artifacts (flight dossier, status.addr) live next to the
    // journal when there is a store, else under results/.
    let ops_dir = cli
        .store
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    cli.cfg.flight = Some(
        cli.flight
            .clone()
            .unwrap_or_else(|| ops_dir.join("flightrec.json")),
    );
    let plane = Arc::new(OpsPlane::new());
    cli.cfg.ops = Some(plane.clone());
    let server = cli.status_port.map(|port| {
        let server = telemetry::StatusServer::start(&format!("127.0.0.1:{port}"), plane)
            .unwrap_or_else(|e| panic!("--status-port {port}: cannot bind status server: {e}"));
        let addr = server.local_addr().to_string();
        eprintln!("[orchestrate] status server on http://{addr}");
        let addr_file = ops_dir.join("status.addr");
        if let Some(parent) = addr_file.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&addr_file, format!("{addr}\n")) {
            eprintln!(
                "[orchestrate] WARNING: cannot write {}: {e}",
                addr_file.display()
            );
        }
        server
    });

    let mut store = cli.store.as_ref().map(|dir| {
        let (store, report) = match ResultStore::open(dir, cli.recovery) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[orchestrate] cannot open store {}: {e}", dir.display());
                std::process::exit(2);
            }
        };
        if let Some(s) = &report.salvaged {
            eprintln!(
                "[orchestrate] salvaged journal: dropped {} bytes at line {} ({})",
                s.dropped_bytes, s.line, s.reason
            );
        }
        if !store.is_empty() {
            if cli.resume {
                eprintln!(
                    "[orchestrate] resuming: {} cells already in store \
                     ({} snapshot + {} journal, {} duplicate lines)",
                    store.len(),
                    report.from_snapshot,
                    report.from_journal,
                    report.duplicate_lines
                );
            } else {
                eprintln!(
                    "[orchestrate] store {} already holds {} cells; \
                     pass --resume to continue it or point --store at a fresh dir",
                    dir.display(),
                    store.len()
                );
                std::process::exit(2);
            }
        }
        store
    });

    let outcome = orchestrate(cli.cells, store.as_mut(), &cli.cfg);
    let report = render_report(&outcome);
    println!("{report}");
    eprintln!("[orchestrate] completed in {:.1?}", t0.elapsed());
    match crate::report::save("orchestrate.txt", &report) {
        Ok(path) => eprintln!("[orchestrate] saved to {}", path.display()),
        Err(e) => eprintln!("[orchestrate] could not save results: {e}"),
    }
    if server.is_some() && !cli.status_linger.is_zero() {
        // Give CI scrapers a grace window: the sweep may finish while
        // a poller is still mid-request.
        std::thread::sleep(cli.status_linger);
    }
    drop(server);
    if outcome.stopped_early {
        eprintln!("[orchestrate] stopped early (--stop-after); rerun with --resume to finish");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
