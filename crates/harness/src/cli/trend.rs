//! Cross-run bench trend tool. Appends bench artifacts to the
//! fingerprint-keyed JSONL ledger and renders per-cell deltas with a
//! robust (median/MAD) significance bar plus an HTML dashboard.
//!
//! ```text
//! cppe trend record --file BENCH_speed.json --label my-run [--history PATH]
//! cppe trend report [--history PATH] [--out results/trend.html]
//! ```
//!
//! `record` accepts any of the repo's bench exports (`cppe-speed-v1`,
//! `cppe-profile-v1`, `cppe-audit-v1`, `cppe-hostprof-v1`) and
//! dispatches on the schema marker. The default ledger is `bench-history/history.jsonl`
//! (committable, append-only). `report` prints the text table and
//! writes the self-contained dashboard (inline SVG sparklines, no
//! scripts) — exit 1 when the ledger is missing or empty.

use super::flag_value;
use crate::history;
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_HISTORY: &str = "bench-history/history.jsonl";

pub(super) fn main(args: &[String]) -> ExitCode {
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("usage: cppe trend record --file F --label L | cppe trend report [--out PATH]");
        return ExitCode::from(2);
    };
    let mut history = PathBuf::from(DEFAULT_HISTORY);
    let mut file = None;
    let mut label = None;
    let mut out = PathBuf::from("results").join("trend.html");
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value =
            || flag_value(args, &mut i).unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag {
            "--history" => history = PathBuf::from(value()),
            "--file" => file = Some(PathBuf::from(value())),
            "--label" => label = Some(value().to_string()),
            "--out" => out = PathBuf::from(value()),
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }

    match cmd {
        "record" => {
            let file = file.unwrap_or_else(|| panic!("record needs --file"));
            let label = label.unwrap_or_else(|| panic!("record needs --label"));
            let doc = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                eprintln!("[trend] cannot read {}: {e}", file.display());
                std::process::exit(2);
            });
            let (source, samples) = history::extract(&doc).unwrap_or_else(|e| {
                eprintln!("[trend] {}: {e}", file.display());
                std::process::exit(2);
            });
            let entry = history::HistoryEntry {
                label,
                source,
                samples,
            };
            if let Err(e) = history::append(&history, &entry) {
                eprintln!("[trend] cannot append to {}: {e}", history.display());
                std::process::exit(2);
            }
            eprintln!(
                "[trend] recorded {} {} samples from {} into {}",
                entry.samples.len(),
                entry.source,
                file.display(),
                history.display()
            );
        }
        "report" => {
            let (entries, skipped) = history::load(&history).unwrap_or_else(|e| {
                eprintln!("[trend] cannot read {}: {e}", history.display());
                std::process::exit(1);
            });
            if entries.is_empty() {
                eprintln!("[trend] {} holds no entries", history.display());
                std::process::exit(1);
            }
            let report = history::render_report(&entries, skipped);
            println!("{report}");
            let html = history::render_html(&entries, skipped);
            if let Some(parent) = out.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match telemetry::export::write_atomic(&out, &html) {
                Ok(()) => eprintln!("[trend] dashboard written to {}", out.display()),
                Err(e) => {
                    eprintln!("[trend] cannot write {}: {e}", out.display());
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown command {other:?}; use record or report");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
