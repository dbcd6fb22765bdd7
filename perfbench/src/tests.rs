//! Tests of the benchmark's own code. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::check::{self, Checker};
use crate::suite::{self, Workload, DEFAULT_SEED};
use gpu::{Outcome, RunResult};
use harness::sweep::CellKey;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric the file lists under `section`.
fn listed(section: &str) -> BTreeSet<(String, String)> {
    let doc = benchmark_json();
    let items = doc
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list");
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &[crate::context::Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names = BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, _) in listed(section) {
            let ok = !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
            assert!(ok, "metric name {name:?} must match [A-Za-z0-9_.-]+");
            assert!(
                names.insert(name.clone()),
                "metric name {name:?} listed twice"
            );
        }
    }
}

#[test]
fn runs_emit_exactly_the_listed_metrics_with_no_failed_cell() {
    let args = crate::Args {
        workload: Workload::ObservedCells,
        seed: DEFAULT_SEED,
        seconds: 0.01,
        trace: false,
        bless: false,
    };
    let (checker, metrics) = crate::end_to_end(&args);
    assert_eq!(checker.failed, 0, "{:?}", checker.problems);
    assert_eq!(emitted(&metrics), listed("end_to_end"));
    assert_eq!(metrics.len(), listed("end_to_end").len());

    let (checker, metrics) = crate::layers::run(Workload::ObservedCells, DEFAULT_SEED);
    assert_eq!(checker.failed, 0, "{:?}", checker.problems);
    assert_eq!(emitted(&metrics), listed("per_layer"));
    assert_eq!(metrics.len(), listed("per_layer").len());
}

/// One real pass of observed-cells at the default seed, telemetry off
/// (the results are bit-identical with it on).
fn observed_pass() -> (suite::Inputs, BTreeMap<CellKey, RunResult>) {
    let w = Workload::ObservedCells;
    let cfg = w.config(DEFAULT_SEED);
    let jobs = w.jobs(DEFAULT_SEED);
    let gpu = gpu::GpuConfig {
        trace: telemetry::TraceConfig::default(),
        hostprof: false,
        ..cfg.gpu
    };
    let (inputs, _) = suite::build_inputs(&jobs, &cfg);
    let (results, _) = suite::sweep(&jobs, &cfg, &gpu, &inputs);
    (inputs, results)
}

#[test]
fn a_wrong_expected_value_counts_as_one_failed_cell() {
    let (inputs, results) = observed_pass();
    let mut expected = check::committed(Workload::ObservedCells);
    assert_eq!(check::parse(&check::render(&results)).unwrap(), expected);

    let mut ok = Checker::new(Some(expected.clone()), &inputs);
    ok.check_all(&results);
    assert_eq!((ok.attempted, ok.failed), (12, 0), "{:?}", ok.problems);

    let key = expected.keys().nth(3).unwrap().clone();
    expected.get_mut(&key).unwrap().cycles += 1;
    let mut bad = Checker::new(Some(expected), &inputs);
    bad.check_all(&results);
    assert_eq!((bad.attempted, bad.failed), (12, 1));
    assert!(bad.problems[0].contains(&key.0), "{:?}", bad.problems);
}

#[test]
fn errors_short_runs_and_unrepeatable_results_are_failed_cells() {
    let (inputs, results) = observed_pass();
    let (key, good) = results.iter().find(|(_, r)| r.completed()).unwrap();
    let mut checker = Checker::new(None, &inputs);
    checker.check(key, good);
    assert_eq!(checker.failed, 0);

    let mut errored = good.clone();
    errored.error = Some("frames exhausted".into());
    let mut short = good.clone();
    short.accesses -= 1;
    let mut other = good.clone();
    other.cycles += 1;
    let panicked = RunResult::failed("panic: injected");
    for bad in [&errored, &short, &other, &panicked] {
        checker.check(key, bad);
    }
    assert_eq!(
        (checker.attempted, checker.failed),
        (5, 4),
        "{:?}",
        checker.problems
    );
}

/// The geomean speed-up over a workload's committed default-seed rows.
fn committed_speedup(w: Workload) -> f64 {
    let results: BTreeMap<CellKey, RunResult> = check::committed(w)
        .into_iter()
        .map(|(key, row)| {
            let mut r = RunResult::failed("");
            r.error = None;
            r.cycles = row.cycles;
            r.outcome = match row.outcome.as_str() {
                "completed" => Outcome::Completed,
                "degraded" => Outcome::Degraded,
                "crashed" => Outcome::Crashed,
                _ => Outcome::Timeout,
            };
            (key, r)
        })
        .collect();
    suite::cppe_speedup(&results)
}

#[test]
fn cppe_speedup_differs_across_workloads() {
    let speedups: Vec<f64> = Workload::ALL
        .iter()
        .map(|&w| committed_speedup(w))
        .collect();
    for (i, a) in speedups.iter().enumerate() {
        assert!(
            *a > 0.0,
            "{:?}: no completed baseline/cppe pair",
            Workload::ALL[i]
        );
        for b in &speedups[i + 1..] {
            assert_ne!(
                a, b,
                "two workloads report the same cppe_speedup: {speedups:?}"
            );
        }
    }
}

#[test]
fn only_the_default_seed_keeps_the_repository_seeds() {
    let base = harness::ExpConfig::default();
    let spec = workloads::registry::by_abbr("STN").unwrap();
    for w in Workload::ALL {
        let cfg = w.config(DEFAULT_SEED);
        assert_eq!(
            (cfg.seed, cfg.gpu.jitter_seed),
            (base.seed, base.gpu.jitter_seed)
        );
        let stn = w
            .jobs(DEFAULT_SEED)
            .into_iter()
            .find(|j| j.spec.abbr == "STN");
        if let Some(job) = stn {
            assert_eq!(job.spec.seed, spec.seed);
        }
        let other = w.config(7);
        assert_ne!(other.seed, base.seed);
        assert_ne!(other.gpu.jitter_seed, base.gpu.jitter_seed);
    }
}
