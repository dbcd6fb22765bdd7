//! Benchmark of the CPPE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! One run builds a workload's cells from the seed, then simulates
//! them in one thread through the harness sweep and checks every
//! simulated result. With `--trace 0` it reports the end-to-end metrics
//! (host throughput, set-up time, peak memory and the simulated CPPE
//! speed-up); with `--trace 1` it times each layer through its public
//! functions and reports the per-layer metrics instead. The last line
//! of standard output is the result as one JSON object.
//!
//! `--bless` (default seed only) rewrites `expected/<workload>.tsv`
//! from this run's results.

mod check;
mod context;
mod layers;
mod suite;

use check::Checker;
use context::{median, metric, result_line, Machine, Metric};
use std::time::{Duration, Instant};
use suite::{Workload, DEFAULT_SEED};

/// Set-ups before the timed phase; the first one is cold. The median
/// over these and the one before every pass is reported.
const WARM_SETUPS: usize = 5;

/// The paper's Fig. 8 geomean CPPE speed-ups at 75% and 50%.
const PAPER_FIG8: [(u32, f64); 2] = [(75, 1.56), (50, 1.64)];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or(format!(
                    "unknown workload {value:?}; one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless && (seed != DEFAULT_SEED || trace) {
        return Err("--bless needs the default seed and --trace 0".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", Machine::measure().line("before"));
    let (checker, metrics) = if args.trace {
        layers::run(args.workload, args.seed)
    } else {
        end_to_end(&args)
    };
    println!("{}", Machine::measure().line("after"));
    for p in &checker.problems {
        println!("FAILED {p}");
    }
    println!(
        "{}",
        result_line(checker.attempted, checker.failed, &metrics)
    );
}

/// The checker for a run at `seed`: committed rows at the default seed.
pub fn checker_for(w: Workload, seed: u64, inputs: &suite::Inputs) -> Checker {
    let expected = (seed == DEFAULT_SEED).then(|| check::committed(w));
    Checker::new(expected, inputs)
}

fn end_to_end(args: &Args) -> (Checker, Vec<Metric>) {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let jobs = w.jobs(args.seed);

    // Set-up runs back to back a few times first, then again before
    // every pass, so its samples span the same minutes as the passes.
    let mut setup_s = Vec::new();
    let mut setup = || {
        let t = Instant::now();
        let inputs = suite::build_inputs(&jobs, &cfg).0;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs
    };
    let mut inputs = setup();
    for _ in 1..WARM_SETUPS {
        drop(inputs);
        inputs = setup();
    }
    let mut checker = if args.bless {
        Checker::new(None, &inputs)
    } else {
        checker_for(w, args.seed, &inputs)
    };

    // Timed phase: whole passes over the cells until the time is up.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut passes, mut pass_secs, mut accesses) = (0, 0.0, 0u64);
    let mut first = None;
    loop {
        let t = Instant::now();
        let (results, _) = suite::sweep(&jobs, &cfg, &cfg.gpu, &inputs);
        pass_secs += t.elapsed().as_secs_f64();
        passes += 1;
        accesses += results.values().map(|r| r.accesses).sum::<u64>();
        checker.check_all(&results);
        first.get_or_insert(results);
        if start.elapsed() >= budget {
            break;
        }
        drop(inputs);
        inputs = setup();
    }
    let results = first.expect("at least one pass");
    // Re-run one cell, chosen by the seed, and require the same result.
    let job = &jobs[(args.seed % jobs.len() as u64) as usize];
    inputs.engines = suite::build_engines(std::slice::from_ref(job), &cfg);
    let (rerun, _) = suite::sweep(std::slice::from_ref(job), &cfg, &cfg.gpu, &inputs);
    checker.check_all(&rerun);

    if args.bless {
        let path = check::committed_path(w);
        std::fs::write(&path, check::render(&results)).expect("write expected rows");
        println!("blessed {path}");
    }

    let speedup = suite::cppe_speedup(&results);
    let accesses_per_s = accesses as f64 / pass_secs;
    println!(
        "{}: {} cells x {passes} passes in {pass_secs:.2} s, {accesses_per_s:.0} accesses/s; {} set-ups, median {:.2} ms",
        w.name(),
        jobs.len(),
        setup_s.len(),
        median(&setup_s) * 1e3
    );
    if w == Workload::PaperMatrix {
        for (rate, paper) in PAPER_FIG8 {
            let sim = suite::cppe_speedup_at(&results, rate);
            println!(
                "fig8 @{rate}%: simulated cppe speed-up {sim:.4}x, paper {paper:.2}x, error {:+.1}%",
                (sim / paper - 1.0) * 100.0
            );
        }
    } else {
        println!(
            "cppe_speedup {speedup:.4}x: unvalidated (the paper reports no figure for these cells)"
        );
    }

    let metrics = vec![
        metric("accesses_per_s", "1/s", accesses_per_s),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MiB", context::peak_rss_mib()),
        metric("cppe_speedup", "x", speedup),
    ];
    (checker, metrics)
}

#[cfg(test)]
mod tests;
