//! The benchmark's workloads: which cells each one runs, how the seed
//! reaches the simulator, the set-up that builds every cell's inputs,
//! and one timed pass over the cells through the harness sweep.

use cppe::engine::PolicyEngine;
use cppe::presets::PolicyPreset;
use gpu::{GpuConfig, RunResult};
use harness::sweep::{run_sweep_with, CellKey, Job};
use harness::{capacity_pages, ExpConfig};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::TraceConfig;
use workloads::{registry, LaneItem, PatternType, WorkloadSpec};

/// The seed whose per-cell results are committed under `expected/`.
/// It leaves every seed of the repository at its own value, so its
/// results are the ones the figure binaries print.
pub const DEFAULT_SEED: u64 = 0;

/// The six presets whose eviction and prefetch code `oversub-thrash`
/// covers.
const THRASH_PRESETS: [PolicyPreset; 6] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru20,
    PolicyPreset::DisablePfOnFull,
    PolicyPreset::MhpeOnly,
    PolicyPreset::Cppe,
];

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8: the 23 Table II apps x {baseline, cppe} x {75%, 50%}.
    PaperMatrix,
    /// The 13 Type III-V apps x six presets x {50%, 25%}.
    OversubThrash,
    /// The 23 apps x {baseline, cppe} with the whole footprint resident.
    ResidentHit,
    /// Six apps x {baseline, cppe} at 50% with tracing, spans, decision
    /// audit and the host profiler on.
    ObservedCells,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::OversubThrash,
        Workload::ResidentHit,
        Workload::ObservedCells,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::OversubThrash => "oversub-thrash",
            Workload::ResidentHit => "resident-hit",
            Workload::ObservedCells => "observed-cells",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn apps(self) -> Vec<WorkloadSpec> {
        let all = registry::all();
        match self {
            Workload::PaperMatrix | Workload::ResidentHit => all,
            Workload::OversubThrash => all
                .into_iter()
                .filter(|s| {
                    matches!(
                        s.pattern,
                        PatternType::MostlyRepetitive
                            | PatternType::Thrashing
                            | PatternType::RepetitiveThrashing
                    )
                })
                .collect(),
            Workload::ObservedCells => ["STN", "KMN", "SRD", "HSD", "NW", "MVT"]
                .iter()
                .map(|a| registry::by_abbr(a).expect("Table II app"))
                .collect(),
        }
    }

    fn presets(self) -> &'static [PolicyPreset] {
        match self {
            Workload::OversubThrash => &THRASH_PRESETS,
            _ => &[PolicyPreset::Baseline, PolicyPreset::Cppe],
        }
    }

    fn rates(self) -> &'static [f64] {
        match self {
            Workload::PaperMatrix => &[0.75, 0.50],
            Workload::OversubThrash => &[0.50, 0.25],
            Workload::ResidentHit => &[1.0],
            Workload::ObservedCells => &[0.50],
        }
    }

    /// The experiment configuration for `seed`: the repository's
    /// defaults with every seed the simulator reads derived from it.
    /// The monitor stays off: its wall-clock cadence is not
    /// deterministic.
    pub fn config(self, seed: u64) -> ExpConfig {
        let base = ExpConfig::default();
        let mut gpu = GpuConfig {
            jitter_seed: base.gpu.jitter_seed ^ derive(seed, 3),
            ..base.gpu
        };
        if self == Workload::ObservedCells {
            gpu.trace = TraceConfig::audited();
            gpu.hostprof = true;
        }
        ExpConfig {
            gpu,
            seed: base.seed ^ derive(seed, 2),
            ..base
        }
    }

    /// The cells of this workload for `seed`, in sweep order.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let specs: Vec<WorkloadSpec> = self
            .apps()
            .into_iter()
            .map(|mut s| {
                s.seed ^= derive(seed, 1);
                s
            })
            .collect();
        harness::cross(&specs, self.presets(), self.rates())
    }
}

/// Mix `seed` into one of the simulator's seeds; the default seed
/// leaves them all unchanged.
pub fn derive(seed: u64, salt: u64) -> u64 {
    if seed == DEFAULT_SEED {
        return 0;
    }
    let mut rng = sim_core::SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Everything a cell needs to run, built before the first timed cell.
pub struct Inputs {
    /// Per-app lane streams, shared by every cell of the app.
    pub streams: BTreeMap<&'static str, Vec<Vec<LaneItem>>>,
    /// One freshly built policy engine per cell, taken when it runs.
    pub engines: BTreeMap<CellKey, Mutex<Option<PolicyEngine>>>,
}

impl Inputs {
    /// Accesses in the app's generated streams.
    pub fn stream_accesses(&self, app: &str) -> u64 {
        self.streams[app]
            .iter()
            .flatten()
            .filter(|i| matches!(i, LaneItem::Access(_)))
            .count() as u64
    }

    /// Generated stream items (accesses and barriers) over all apps.
    pub fn items(&self) -> u64 {
        self.streams
            .values()
            .flatten()
            .map(|s| s.len() as u64)
            .sum()
    }
}

/// One call into a layer, timed from the benchmark's own code. `cell`
/// indexes the workload's jobs (for stream generation, the app's first
/// cell); `None` for a call made for every cell.
pub struct Call {
    pub layer: &'static str,
    pub cell: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Call {
    pub fn ns(&self) -> u64 {
        u64::try_from((self.end - self.start).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Generate every app's lane streams and build every cell's engine.
pub fn build_inputs(jobs: &[Job], cfg: &ExpConfig) -> (Inputs, Vec<Call>) {
    let lanes = cfg.gpu.lanes();
    let mut calls = Vec::new();
    let mut streams = BTreeMap::new();
    for (cell, job) in jobs.iter().enumerate() {
        if !streams.contains_key(job.spec.abbr) {
            let start = Instant::now();
            let s: Vec<Vec<LaneItem>> = (0..lanes)
                .map(|l| job.spec.lane_items(l, lanes, cfg.scale))
                .collect();
            calls.push(Call {
                layer: "workloads.lane_items",
                cell: Some(cell),
                start,
                end: Instant::now(),
            });
            streams.insert(job.spec.abbr, s);
        }
    }
    let start = Instant::now();
    let engines = build_engines(jobs, cfg);
    calls.push(Call {
        layer: "cppe.build",
        cell: None,
        start,
        end: Instant::now(),
    });
    (Inputs { streams, engines }, calls)
}

/// A fresh engine for every cell, as `harness::run_cell` seeds it.
pub fn build_engines(
    jobs: &[Job],
    cfg: &ExpConfig,
) -> BTreeMap<CellKey, Mutex<Option<PolicyEngine>>> {
    jobs.iter()
        .map(|j| {
            let engine = j.preset.build(cfg.seed ^ j.spec.seed);
            (j.key(), Mutex::new(Some(engine)))
        })
        .collect()
}

/// Run every cell once through the harness sweep with one worker,
/// consuming the engines in `inputs`. `gpu` may differ from the
/// workload's own configuration (the traced run turns layers on).
/// Returns the results and one `gpu.simulate` call per cell.
pub fn sweep(
    jobs: &[Job],
    cfg: &ExpConfig,
    gpu: &GpuConfig,
    inputs: &Inputs,
) -> (BTreeMap<CellKey, RunResult>, Vec<Call>) {
    let cell_of: BTreeMap<CellKey, usize> =
        jobs.iter().enumerate().map(|(i, j)| (j.key(), i)).collect();
    let calls = Mutex::new(Vec::with_capacity(jobs.len()));
    let results = run_sweep_with(jobs.to_vec(), cfg, 1, |job| {
        let key = job.key();
        let engine = inputs.engines[&key]
            .lock()
            .expect("engine slot lock")
            .take()
            .expect("each cell's engine is used once per pass");
        let capacity = capacity_pages(&job.spec, job.rate, cfg.scale);
        let pages = job.spec.pages(cfg.scale);
        let start = Instant::now();
        let r = gpu::simulate(gpu, engine, &inputs.streams[job.spec.abbr], capacity, pages);
        calls.lock().expect("call log lock").push(Call {
            layer: "gpu.simulate",
            cell: Some(cell_of[&key]),
            start,
            end: Instant::now(),
        });
        r
    });
    (results, calls.into_inner().expect("call log lock"))
}

/// Geomean of baseline cycles over CPPE cycles across the (app, rate)
/// pairs of `results` that ran both presets, skipping pairs where
/// either run did not complete (as Fig. 8 does).
pub fn cppe_speedup(results: &BTreeMap<CellKey, RunResult>) -> f64 {
    let speedups = speedups_where(results, |_| true);
    harness::geomean(&speedups).unwrap_or(0.0)
}

/// [`cppe_speedup`] restricted to one rate (in percent).
pub fn cppe_speedup_at(results: &BTreeMap<CellKey, RunResult>, rate_pct: u32) -> f64 {
    let speedups = speedups_where(results, |r| r == rate_pct);
    harness::geomean(&speedups).unwrap_or(0.0)
}

fn speedups_where(
    results: &BTreeMap<CellKey, RunResult>,
    rate_ok: impl Fn(u32) -> bool,
) -> Vec<Option<f64>> {
    results
        .iter()
        .filter(|((_, policy, rate), _)| policy == "baseline" && rate_ok(*rate))
        .filter_map(|((app, _, rate), base)| {
            let cppe = results.get(&(app.clone(), "cppe".to_string(), *rate))?;
            Some(harness::speedup(base, cppe))
        })
        .collect()
}

pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
