//! The `cppe` command line: one table of subcommands.
//!
//! ```text
//! cargo run --release -p harness --bin cppe -- <subcommand> [flags]
//! ```
//!
//! [`COMMANDS`] is the whole surface. Experiments parse the flags of
//! [`cli_config`] and print their report, saving it as
//! `results/<name>.txt`; `cppe all` runs every experiment in table
//! order. Tools keep flags of their own.

mod orchestrate;
mod sim;
mod smoke;
mod trend;
mod validate;

use crate::experiments::{self, cli_config, hostprof, speed};
use crate::runner::ExpConfig;
use std::process::ExitCode;
use Runner::{Experiment, Tool};

/// What a subcommand runs.
pub enum Runner {
    /// A paper artifact: `run(cfg, threads)` renders its text report.
    Experiment(fn(&ExpConfig, usize) -> String),
    /// A tool: parses its own arguments and returns the exit code.
    Tool(fn(&[String]) -> ExitCode),
}

/// Every subcommand, by name. Experiments appear in the order
/// `cppe all` runs them.
pub const COMMANDS: &[(&str, Runner)] = &[
    ("table2", Experiment(experiments::table2::run)),
    ("fig3", Experiment(experiments::fig3::run)),
    ("fig4", Experiment(experiments::fig4::run)),
    ("table3", Experiment(experiments::table3::run)),
    ("table4", Experiment(experiments::table4::run)),
    ("sens", Experiment(experiments::sens::run)),
    ("fig7", Experiment(experiments::fig7::run)),
    ("fig8", Experiment(experiments::fig8::run)),
    ("fig9", Experiment(experiments::fig9::run)),
    ("fig10", Experiment(experiments::fig10::run)),
    ("overhead", Experiment(experiments::overhead::run)),
    ("motivation", Experiment(experiments::motivation::run)),
    ("ablation", Experiment(experiments::ablation::run)),
    ("sens2", Experiment(experiments::sens2::run)),
    ("bound", Experiment(experiments::bound::run)),
    ("timeline", Experiment(experiments::timeline::run)),
    ("stability", Experiment(experiments::stability::run)),
    ("chaos", Experiment(experiments::chaos::run)),
    ("profile", Experiment(experiments::profile::run)),
    ("audit", Experiment(experiments::audit::run)),
    ("all", Tool(all)),
    ("sim", Tool(sim::main)),
    ("smoke", Tool(smoke::main)),
    ("orchestrate", Tool(orchestrate::main)),
    ("speed", Tool(speed_main)),
    ("hostprof", Tool(hostprof_main)),
    ("trend", Tool(trend::main)),
    ("validate-trace", Tool(validate::main)),
];

/// Dispatch `args` (without the program name) to its subcommand.
#[must_use]
pub fn main(args: &[String]) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    match COMMANDS.iter().find(|(n, _)| n == name) {
        Some((name, Experiment(run))) => {
            let (cfg, threads) = cli_config(rest);
            run_experiment(name, *run, &cfg, threads);
            ExitCode::SUCCESS
        }
        Some((_, Tool(tool))) => tool(rest),
        None => usage(),
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: cppe <subcommand> [flags]\nsubcommands: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// The value after the flag at `args[*i]`, advancing `*i` onto it;
/// `None` when the flag ends the argument list.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Option<&'a str> {
    *i += 1;
    args.get(*i).map(String::as_str)
}

/// Run one experiment: print its report, time it on stderr and save it
/// under `results/`.
fn run_experiment(
    name: &str,
    run: fn(&ExpConfig, usize) -> String,
    cfg: &ExpConfig,
    threads: usize,
) {
    let t0 = std::time::Instant::now();
    let report = run(cfg, threads);
    println!("{report}");
    eprintln!("[{name}] completed in {:.1?}", t0.elapsed());
    match crate::report::save(&format!("{name}.txt"), &report) {
        Ok(path) => eprintln!("[{name}] saved to {}", path.display()),
        Err(e) => eprintln!("[{name}] could not save results: {e}"),
    }
}

/// `cppe all [--quick] [--scale X] [--threads N]`: every experiment in
/// [`COMMANDS`], one after another.
fn all(args: &[String]) -> ExitCode {
    let (cfg, threads) = cli_config(args);
    for (name, runner) in COMMANDS {
        if let Experiment(run) = runner {
            run_experiment(name, *run, &cfg, threads);
            println!("{}", "=".repeat(72));
        }
    }
    ExitCode::SUCCESS
}

/// `cppe speed [--check BENCH_speed.json]`: times every
/// `workload × policy` cell (warmup + median-of-N), prints the table and
/// writes `results/BENCH_speed.json`. With `--check PATH` it also
/// compares against the committed baseline at PATH and exits 1 when the
/// geometric-mean wall-clock ratio regresses past the tolerance — the
/// CI speed-regression gate.
fn speed_main(args: &[String]) -> ExitCode {
    let baseline_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a path"));

    let cfg = ExpConfig::default();
    let t0 = std::time::Instant::now();
    let cells = speed::measure(&cfg);
    let doc = speed::speed_json(&cells);
    match crate::report::save("BENCH_speed.json", &doc) {
        Ok(path) => eprintln!("[speed] export saved to {}", path.display()),
        Err(e) => eprintln!("[speed] could not save export: {e}"),
    }

    let mut t = crate::report::Table::new(&["app", "policy", "wall ms", "Mcycles/s"]);
    for c in &cells {
        t.row(vec![
            c.app.to_string(),
            c.policy.clone(),
            format!("{:.3}", c.wall_ms),
            format!("{:.2}", c.sim_cycles_per_sec / 1e6),
        ]);
    }
    println!("{}", t.render());
    eprintln!("[speed] completed in {:.1?}", t0.elapsed());

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let (report, regressed) = speed::check(&cells, &baseline);
        println!("{report}");
        if regressed {
            eprintln!("[speed] wall-clock regression past tolerance — failing");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// `cppe hostprof [--check] [--scale S] [--rate R]`: profiles the event
/// loop over STN/KMN/SRD plus the synthesized serving stream (CPPE
/// preset, warmup + best-of-N interleaved on/off arms), prints the
/// attribution/ceiling report and writes `results/BENCH_hostprof.json`.
///
/// `--scale`/`--rate` override the bench point (defaults 0.25 / 0.5):
/// cohort shapes are widest at full scale and high oversubscription
/// (`--scale 1.0 --rate 0.25`).
///
/// With `--check`: exits 1 when the geometric-mean on/off wall ratio
/// exceeds the 5 % overhead budget — the CI hostprof gate. A gate miss
/// triggers exactly one full re-measure before failing (the smallest
/// cell runs under a millisecond, so a single scheduler burst on a
/// shared CI runner can fake an overshoot; a real regression fails both
/// attempts).
fn hostprof_main(args: &[String]) -> ExitCode {
    let check = args.iter().any(|a| a == "--check");
    let scale = positive_flag(args, "--scale").unwrap_or(hostprof::BENCH_SCALE);
    let rate = positive_flag(args, "--rate").unwrap_or(hostprof::RATE);

    let cfg = ExpConfig::default();
    let t0 = std::time::Instant::now();
    let server = hostprof::start_status();
    let mut cells = hostprof::measure_at(&cfg, scale, rate);
    let (mut gate, mut failed) = hostprof::check_overhead(&cells);
    if check && failed {
        eprintln!("[hostprof] overhead gate missed; re-measuring once to rule out noise");
        cells = hostprof::measure_at(&cfg, scale, rate);
        (gate, failed) = hostprof::check_overhead(&cells);
    }
    if let Some(handle) = &server {
        handle.publish(&cells);
    }
    let doc = hostprof::hostprof_json_at(&cells, scale, rate);
    match crate::report::save("BENCH_hostprof.json", &doc) {
        Ok(path) => eprintln!("[hostprof] export saved to {}", path.display()),
        Err(e) => eprintln!("[hostprof] could not save export: {e}"),
    }

    println!("{}", hostprof::render_report_at(&cells, scale, rate));
    println!("{gate}");
    eprintln!("[hostprof] completed in {:.1?}", t0.elapsed());
    if let Some(handle) = &server {
        handle.linger();
    }

    if check && failed {
        eprintln!("[hostprof] profiling overhead past the 5 % budget — failing");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// `hostprof`'s value for `name`: the positive number after its first
/// occurrence, if given; any other value exits 2.
fn positive_flag(args: &[String], name: &str) -> Option<f64> {
    let pos = args.iter().position(|a| a == name)?;
    let raw = args.get(pos + 1)?;
    match raw.parse::<f64>() {
        Ok(v) if v > 0.0 => Some(v),
        _ => {
            eprintln!("[hostprof] bad {name} value {raw:?} (want a positive number)");
            std::process::exit(2);
        }
    }
}
