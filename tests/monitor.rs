//! Live-ops plane integration tests.
//!
//! The observability machinery must observe without perturbing:
//! `tests/perf_identity.rs` holds the golden fingerprints with the
//! monitor sampler on. This suite checks that the machinery records
//! something useful, end to end: a panicking sweep cell
//! leaves a parseable flight-recorder dossier, a simulated-kill
//! orchestrator run dumps its queue state, the status server answers
//! `/metrics`, `/status` and `/healthz` over real HTTP, and the bench
//! history renders a trend dashboard from two appended entries.

use cppe::presets::PolicyPreset;
use harness::orchestrator::{
    orchestrate_with, CellSpec, LeaseStatus, OpsPlane, OrchestratorConfig, QueueStatus,
};
use harness::runner::ExpConfig;
use harness::{cross, history};
use workloads::registry;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cppe-monitor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A panicking sweep cell leaves a parseable flight-recorder dossier
/// at `CPPE_FLIGHT_PATH`.
#[test]
fn panicking_sweep_cell_dumps_flight_dossier() {
    let dir = temp_dir("flight");
    let path = dir.join("flightrec.json");
    std::env::set_var("CPPE_FLIGHT_PATH", &path);
    let specs = vec![
        registry::by_abbr("STN").unwrap(),
        registry::by_abbr("MRQ").unwrap(),
    ];
    let jobs = cross(&specs, &[PolicyPreset::Baseline], &[0.5]);
    let cfg = ExpConfig::quick();
    let results = harness::sweep::run_sweep_with(jobs, &cfg, 2, |job| {
        assert!(job.spec.abbr != "MRQ", "deliberate test panic: MRQ cell");
        harness::run_cell(&job.spec, job.preset, job.rate, &cfg)
    });
    std::env::remove_var("CPPE_FLIGHT_PATH");
    assert_eq!(results.len(), 2, "sweep still resolves every cell");

    let body = std::fs::read_to_string(&path).expect("dossier written");
    let detail = telemetry::flightrec::validate_doc(&body).expect("parseable dossier");
    assert!(!detail.is_empty());
    assert!(
        body.contains("\"reason\":\"cell panic:"),
        "dossier names the panicking cell: {body}"
    );
    assert!(
        body.contains("panic contained"),
        "breadcrumbs carry the contained panic"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A simulated kill (`stop_after`) dumps a dossier carrying the queue
/// state a resume would see.
#[test]
fn stop_after_kill_dumps_dossier_with_queue_state() {
    let dir = temp_dir("stopafter");
    let path = dir.join("flightrec.json");
    let cells: Vec<CellSpec> = (0..6)
        .map(|i| CellSpec {
            spec: registry::by_abbr("STN").unwrap(),
            preset: PolicyPreset::Baseline,
            rate: 0.5,
            seed: i,
            scale: 0.25,
        })
        .collect();
    let mut cfg = OrchestratorConfig::new(ExpConfig::quick());
    cfg.threads = 2;
    cfg.stop_after = Some(2);
    cfg.flight = Some(path.clone());
    let out = orchestrate_with(cells, None, &cfg, |cell| {
        let mut r = gpu::RunResult::failed("unset");
        r.outcome = gpu::Outcome::Completed;
        r.error = None;
        r.cycles = cell.seed + 1;
        r
    });
    assert!(out.stopped_early);

    let body = std::fs::read_to_string(&path).expect("dossier written on simulated kill");
    telemetry::flightrec::validate_doc(&body).expect("parseable dossier");
    assert!(
        body.contains("stopped early"),
        "reason names the kill: {body}"
    );
    assert!(
        body.contains("\"schema\":\"cppe-status-v1\""),
        "state section embeds the /status document"
    );
    assert!(body.contains("stop_after reached"), "breadcrumb recorded");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .expect("HTTP response has a header block");
    (head.to_string(), body.to_string())
}

/// The status server answers all three routes over real HTTP with
/// well-formed expositions.
#[test]
fn status_server_serves_metrics_status_and_healthz() {
    let plane = std::sync::Arc::new(OpsPlane::new());
    plane.tick(
        &telemetry::OrchMetrics {
            cells_requested: 4,
            cells_completed: 1,
            ..telemetry::OrchMetrics::default()
        },
        QueueStatus {
            pending: 2,
            in_flight: 1,
            done: 1,
            failed: 0,
            issued: 2,
            expired: 0,
            retries: 0,
            leases: vec![LeaseStatus {
                fp: "deadbeef".into(),
                app: "STN".into(),
                policy: "cppe".into(),
                rate_pct: 50,
                attempt: 1,
                epoch: 1,
                held_ms: 12,
            }],
        },
    );
    let server = telemetry::StatusServer::start("127.0.0.1:0", plane).unwrap();
    let addr = server.local_addr();

    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(
        body.contains("# TYPE orch_cells_requested counter"),
        "{body}"
    );
    assert!(body.contains("orch_cells_requested 4"), "{body}");
    assert!(body.contains("orch_cells_in_flight 1"), "{body}");

    let (head, body) = http_get(addr, "/status");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    telemetry::json::validate(&body).expect("status is well-formed JSON");
    assert!(body.contains("\"schema\":\"cppe-status-v1\""), "{body}");
    assert!(body.contains("\"fp\":\"deadbeef\""), "{body}");

    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    server.shutdown();
}

/// Two appended bench-history entries render a dashboard with
/// sparklines — the `trend` binary's code path, minus the CLI shell.
#[test]
fn bench_history_renders_trend_dashboard() {
    let dir = temp_dir("trend");
    let ledger = dir.join("history.jsonl");
    let speed_doc = |wall: f64| {
        format!(
            "{{\"schema\":\"cppe-speed-v1\",\"scale\":0.25,\"rate\":0.5,\"reps\":5,\
             \"cells\":[{{\"app\":\"STN\",\"policy\":\"cppe\",\"outcome\":\"completed\",\
             \"cycles\":7,\"wall_ms\":{wall:.3},\"sim_cycles_per_sec\":1}}]}}"
        )
    };
    for (label, wall) in [("committed", 10.0), ("fresh", 14.0)] {
        let (source, samples) = history::extract(&speed_doc(wall)).unwrap();
        history::append(
            &ledger,
            &history::HistoryEntry {
                label: label.to_string(),
                source,
                samples,
            },
        )
        .unwrap();
    }
    let (entries, skipped) = history::load(&ledger).unwrap();
    assert_eq!((entries.len(), skipped), (2, 0));
    let html = history::render_html(&entries, skipped);
    assert!(html.contains("<svg"), "dashboard has sparklines");
    assert!(html.contains("STN/cppe"));
    assert!(html.contains("+4.000"), "delta vs prior median rendered");
    std::fs::remove_dir_all(&dir).unwrap();
}
