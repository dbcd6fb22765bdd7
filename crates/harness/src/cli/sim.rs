//! `cppe sim` — run one workload under one policy and print a full
//! report. The general-purpose entry point for exploring the simulator.
//!
//! ```text
//! cppe sim --workload SRD --policy cppe --rate 0.5 [--scale 1.0]
//!          [--lanes 28] [--seed 42] [--trace-out FILE | --trace-in FILE]
//! ```
//!
//! `--policy` takes any name [`PolicyPreset::parse`] accepts. Memory is
//! `rate × footprint` rounded to whole chunks, at least two
//! ([`capacity_for`]), as in every experiment.

use super::flag_value;
use crate::runner::capacity_for;
use cppe::presets::PolicyPreset;
use gpu::{simulate, GpuConfig};
use std::process::ExitCode;
use workloads::registry;

struct Args {
    workload: String,
    policy: PolicyPreset,
    rate: f64,
    scale: f64,
    lanes: usize,
    seed: u64,
    trace_out: Option<String>,
    trace_in: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cppe sim --workload ABBR --policy NAME [--rate 0.5] [--scale 1.0]\n\
         \x20               [--lanes 28] [--seed 42] [--trace-out FILE | --trace-in FILE]\n\
         policies: baseline random lru-10 lru-20 nopf cppe cppe-s1 mhpe hpe hpe-nopf lru-nopf tree\n\
         \x20         clock srrip mhpe-noswitch mhpe-fd<N> mhpe-t3-<N> (or any full label)\n\
         workloads: {}",
        registry::all()
            .iter()
            .map(|w| w.abbr)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: "SRD".into(),
        policy: PolicyPreset::Cppe,
        rate: 0.5,
        scale: 1.0,
        lanes: 28,
        seed: 42,
        trace_out: None,
        trace_in: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut val = || flag_value(argv, &mut i).unwrap_or_else(|| usage());
        match flag {
            "--workload" | "-w" => a.workload = val().to_string(),
            "--policy" | "-p" => a.policy = PolicyPreset::parse(val()).unwrap_or_else(|| usage()),
            "--rate" | "-r" => a.rate = val().parse().unwrap_or_else(|_| usage()),
            "--scale" | "-s" => a.scale = val().parse().unwrap_or_else(|_| usage()),
            "--lanes" => a.lanes = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--trace-out" => a.trace_out = Some(val().to_string()),
            "--trace-in" => a.trace_in = Some(val().to_string()),
            _ => usage(),
        }
        i += 1;
    }
    a
}

pub(super) fn main(argv: &[String]) -> ExitCode {
    let args = parse_args(argv);
    let spec = registry::by_abbr(&args.workload).unwrap_or_else(|| usage());
    let sms = 28usize;
    let gpu = GpuConfig {
        sms,
        warps_per_sm: args.lanes.div_ceil(sms).max(1),
        ..GpuConfig::default()
    };

    let streams = if let Some(path) = &args.trace_in {
        match workloads::trace::load(std::path::Path::new(path)) {
            Ok(streams) => streams,
            Err(e) => {
                eprintln!("failed to load trace: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        (0..args.lanes)
            .map(|l| spec.lane_items(l, args.lanes, args.scale))
            .collect()
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = workloads::trace::save(std::path::Path::new(path), &streams) {
            eprintln!("failed to save trace: {e}");
            return ExitCode::from(1);
        }
        eprintln!("trace written to {path}");
    }

    let pages = spec.pages(args.scale);
    let capacity = capacity_for(pages, args.rate);
    let engine = args.policy.build(args.seed);
    let t0 = std::time::Instant::now();
    let r = simulate(&gpu, engine, &streams, capacity, pages);
    let wall = t0.elapsed();

    println!(
        "workload          {} ({}, Type {}, {:.1} MB at scale {})",
        spec.name,
        spec.abbr,
        spec.pattern.roman(),
        spec.footprint_mb * args.scale,
        args.scale
    );
    println!("policy            {}", args.policy.label());
    println!(
        "memory            {capacity} of {pages} pages resident ({:.0}%)",
        args.rate * 100.0
    );
    println!("outcome           {:?}", r.outcome);
    println!(
        "cycles            {} ({:.3} ms simulated)",
        r.cycles,
        r.cycles as f64 / 1.4e6
    );
    println!("accesses          {}", r.accesses);
    println!(
        "faults            {} ({} serviced, {} coalesced, {} batches)",
        r.engine.faults, r.driver.faults_serviced, r.driver.coalesced_faults, r.driver.batches
    );
    println!(
        "pages migrated    {} ({} prefetched)",
        r.engine.pages_migrated, r.engine.pages_prefetched
    );
    println!(
        "chunk evictions   {} ({} pages, untouch {})",
        r.engine.chunk_evictions, r.engine.pages_evicted, r.engine.total_untouch
    );
    println!("wrong evictions   {}", r.wrong_evictions);
    println!(
        "pcie              {} B in, {} B out",
        r.bytes_h2d, r.bytes_d2h
    );
    println!(
        "tlb               L1 {}/{} hits, L2 {}/{} hits, {} walks",
        r.translation.l1_hits,
        r.translation.l1_hits + r.translation.l1_misses,
        r.translation.l2_hits,
        r.translation.l2_hits + r.translation.l2_misses,
        r.translation.walks
    );
    println!(
        "overhead          chain {} / evict-buf {} / pattern-buf {} entries ({:.1} KB)",
        r.overhead.chain_max_len,
        r.overhead.evicted_buffer_max,
        r.overhead.pattern_buffer_max,
        r.overhead.storage_bytes() as f64 / 1024.0
    );
    if let Some(t) = &r.mhpe {
        println!(
            "mhpe              switched_at={:?} fd_final={:?} first-4-interval untouch={:?}",
            t.switched_at,
            t.fd_trace.last(),
            &t.interval_untouch[..t.interval_untouch.len().min(4)]
        );
    }
    eprintln!("(wall time {wall:.2?})");
    ExitCode::SUCCESS
}
