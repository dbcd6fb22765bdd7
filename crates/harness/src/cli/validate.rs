//! Validate exported trace artifacts: every `results/*.csv` must parse
//! as rectangular RFC-4180 CSV and every `results/*.json` as
//! well-formed JSON, through the same `telemetry` parsers the golden
//! tests use. Chrome traces (`*trace.json`) additionally get their
//! `ph:"B"`/`ph:"E"` span events balance-checked, and
//! `BENCH_profile.json` / `BENCH_audit.json` must carry their expected
//! schema markers with at least one profiled/audited workload.
//! `BENCH_hostprof.json` gets the full structural check (counter
//! consistency, attribution coverage, ceiling monotonicity). Monitor
//! snapshot dumps (`*monitor.json`) are schema- and
//! accounting-checked, flight-recorder dossiers (`*flightrec.json`)
//! structurally validated (including their embedded monitor series),
//! and `*.jsonl` ledgers (bench history, orchestrator journals)
//! checked line by line. CI runs this after the traced
//! smoke/timeline/profile/audit runs; exits non-zero on the first
//! malformed artifact.
//!
//! Usage: `cppe validate-trace [DIR]` (default `results`).

use std::path::Path;
use std::process::ExitCode;

/// Checks beyond well-formedness, keyed off the artifact's file name.
fn validate_json_artifact(name: &str, body: &str) -> Result<String, String> {
    if name.ends_with("monitor.json") {
        // monitor::validate_doc parses and checks schema, metric kinds
        // and the retained+dropped=sampled accounting itself.
        return telemetry::monitor::validate_doc(body);
    }
    if name.ends_with("flightrec.json") {
        return telemetry::flightrec::validate_doc(body);
    }
    telemetry::json::validate(body)?;
    if name.ends_with("trace.json") {
        let pairs = telemetry::export::span_balance(body)?;
        return Ok(format!("spans balanced, {pairs} B/E pairs"));
    }
    if name == "BENCH_profile.json" {
        let marker = format!(
            "\"schema\":{}",
            telemetry::json::string(crate::experiments::profile::SCHEMA)
        );
        if !body.starts_with('{') || !body.contains(&marker) {
            return Err(format!(
                "missing schema marker {:?}",
                crate::experiments::profile::SCHEMA
            ));
        }
        if !body.contains("\"app\":") || !body.contains("\"p99\":") {
            return Err("no profiled workload with stage quantiles".into());
        }
        return Ok("profile schema ok".to_string());
    }
    if name == "BENCH_hostprof.json" {
        // hostprof::validate_doc parses and checks counter consistency,
        // attribution coverage, queue-quantile ordering, cohort sanity
        // and speedup-ceiling monotonicity itself.
        return crate::experiments::hostprof::validate_doc(body);
    }
    if name == "BENCH_audit.json" {
        let marker = format!(
            "\"schema\":{}",
            telemetry::json::string(crate::experiments::audit::SCHEMA)
        );
        if !body.starts_with('{') || !body.contains(&marker) {
            return Err(format!(
                "missing schema marker {:?}",
                crate::experiments::audit::SCHEMA
            ));
        }
        if !body.contains("\"app\":")
            || !body.contains("\"regret\":")
            || !body.contains("\"avoidable_chunk_migrations\":")
        {
            return Err("no audited workload with oracle regret".into());
        }
        return Ok("audit schema ok".to_string());
    }
    Ok("ok".to_string())
}

/// Validate a JSONL ledger: every line must be well-formed JSON.
/// (Appenders are crash-safe via append-only writes, so a torn *final*
/// line is salvageable at read time — but CI artifacts are written by
/// cleanly-exited runs and held to the strict bar.)
fn validate_jsonl(body: &str) -> Result<String, String> {
    let mut lines = 0usize;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        telemetry::json::validate(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("no JSON lines".to_string());
    }
    Ok(format!("{lines} JSONL lines"))
}

pub(super) fn main(args: &[String]) -> ExitCode {
    let dir = Path::new(args.first().map_or("results", String::as_str));
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("[validate-trace] cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };

    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut names: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    names.sort();

    for path in names {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let verdict = match ext {
            "csv" => std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| telemetry::csv::validate(&s).map(|cols| cols.len().to_string())),
            "json" => std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| validate_json_artifact(&name, &s)),
            "jsonl" => std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| validate_jsonl(&s)),
            _ => continue,
        };
        checked += 1;
        match verdict {
            Ok(detail) => println!("[validate-trace] OK   {} ({detail})", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("[validate-trace] FAIL {}: {e}", path.display());
            }
        }
    }

    println!("[validate-trace] {checked} artifacts checked, {failed} failed");
    if failed > 0 || checked == 0 {
        if checked == 0 {
            eprintln!("[validate-trace] no .csv/.json/.jsonl artifacts found — nothing validated");
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
