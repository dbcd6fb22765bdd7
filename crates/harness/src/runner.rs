//! Experiment runner: one (workload × policy × oversubscription) cell.
//!
//! §VI methodology: "We first used an unlimited memory capacity to
//! determine the total memory footprint of each application. Next, we
//! reduced the memory size ... to two oversubscription rates: 75% and
//! 50%, so that 75% and 50% of each application's footprint fits in the
//! GPU memory." Capacity here is exactly `rate × footprint`, rounded to
//! whole chunks.
//!
//! [`CellInputs`] is the one place that builds a cell: the lane streams,
//! the capacity, the footprint and the engine seed. [`run_cell`] builds
//! them and runs the preset's engine; callers that reuse the streams
//! across runs, replay them for the Belady oracle or bring their own
//! engine hold a [`CellInputs`] instead.

use cppe::presets::PolicyPreset;
use cppe::PolicyEngine;
use gmmu::types::PAGES_PER_CHUNK;
use gpu::{simulate, GpuConfig, RunResult};
use telemetry::TraceFormat;
use workloads::{LaneItem, WorkloadSpec};

/// The two oversubscription rates of the evaluation.
pub const RATES: [f64; 2] = [0.75, 0.50];

/// Shared experiment settings.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Footprint scale (1.0 = Table II sizes; smaller for quick runs —
    /// capacity always scales with the footprint, so oversubscription
    /// behaviour is preserved).
    pub scale: f64,
    /// GPU model.
    pub gpu: GpuConfig,
    /// Seed for stochastic policies (Random eviction).
    pub seed: u64,
    /// Which trace artifacts to export when `gpu.trace` is enabled
    /// (`--trace-format`; ignored with tracing off).
    pub trace_format: TraceFormat,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            // Full Table II footprints. One modelled warp slot per SM
            // keeps the lane count (28) below the chunk count of even
            // the smallest benchmark AND below MHPE's forward-distance
            // ceiling (T3 = 32), so the MRU victim window can learn to
            // skip past the chunks the SMs are actively consuming —
            // the regime the paper's 2..=8/32 constants assume.
            scale: 1.0,
            gpu: GpuConfig {
                warps_per_sm: 1,
                ..GpuConfig::default()
            },
            seed: 0xC0FFEE,
            trace_format: TraceFormat::Csv,
        }
    }
}

impl ExpConfig {
    /// Fast settings for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.5,
            ..ExpConfig::default()
        }
    }
}

/// GPU memory capacity (in pages) for a workload at an oversubscription
/// rate: `rate × footprint`, whole chunks, at least two chunks.
#[must_use]
pub fn capacity_pages(spec: &WorkloadSpec, rate: f64, scale: f64) -> u32 {
    capacity_for(spec.pages(scale), rate)
}

/// [`capacity_pages`] for a raw page footprint.
#[must_use]
pub fn capacity_for(pages: u64, rate: f64) -> u32 {
    #[allow(
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss
    )]
    let cap = (pages as f64 * rate).round() as u64;
    let chunks = (cap / PAGES_PER_CHUNK).max(2);
    u32::try_from(chunks * PAGES_PER_CHUNK).unwrap_or(u32::MAX)
}

/// The built inputs of one cell: everything but the GPU model and the
/// policy engine, which [`CellInputs::run`] takes per run.
#[derive(Debug, Clone)]
pub struct CellInputs {
    /// The workload's access streams, one per modelled lane.
    pub streams: Vec<Vec<LaneItem>>,
    /// GPU memory capacity at the cell's rate ([`capacity_pages`]).
    pub capacity_pages: u32,
    /// The workload's footprint in pages.
    pub footprint: u64,
    /// Seed handed to stochastic policies (Random eviction).
    pub seed: u64,
}

impl CellInputs {
    /// Build `spec` at `rate` under `cfg`: the streams split over
    /// `cfg.gpu.lanes()`, capacity `rate × footprint` and the engine
    /// seed `cfg.seed ^ spec.seed`.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, rate: f64, cfg: &ExpConfig) -> Self {
        let lanes = cfg.gpu.lanes();
        CellInputs {
            streams: (0..lanes)
                .map(|l| spec.lane_items(l, lanes, cfg.scale))
                .collect(),
            capacity_pages: capacity_pages(spec, rate, cfg.scale),
            footprint: spec.pages(cfg.scale),
            seed: cfg.seed ^ spec.seed,
        }
    }

    /// [`CellInputs::new`] for the registry workload `abbr`.
    ///
    /// # Panics
    /// Panics on an unknown workload abbreviation.
    #[must_use]
    pub fn of(abbr: &str, rate: f64, cfg: &ExpConfig) -> Self {
        let spec = workloads::registry::by_abbr(abbr).expect("known app");
        Self::new(&spec, rate, cfg)
    }

    /// Capacity in whole chunks (the Belady bound's unit).
    #[must_use]
    pub(crate) fn capacity_chunks(&self) -> usize {
        (u64::from(self.capacity_pages) / PAGES_PER_CHUNK) as usize
    }

    /// Simulate these inputs on `gpu` with a caller-built `engine`.
    #[must_use]
    pub fn run(&self, gpu: &GpuConfig, engine: PolicyEngine) -> RunResult {
        simulate(
            gpu,
            engine,
            &self.streams,
            self.capacity_pages,
            self.footprint,
        )
    }

    /// Simulate these inputs on `gpu` under `preset`'s engine.
    #[must_use]
    pub fn run_preset(&self, gpu: &GpuConfig, preset: PolicyPreset) -> RunResult {
        self.run(gpu, preset.build(self.seed))
    }
}

/// Run one cell of the evaluation matrix.
#[must_use]
pub fn run_cell(
    spec: &WorkloadSpec,
    preset: PolicyPreset,
    rate: f64,
    cfg: &ExpConfig,
) -> RunResult {
    CellInputs::new(spec, rate, cfg).run_preset(&cfg.gpu, preset)
}

/// Speedup of `policy` over `base` (cycles ratio). `None` when either
/// run failed to complete — the caller decides how to render an 'X'.
#[must_use]
pub fn speedup(base: &RunResult, policy: &RunResult) -> Option<f64> {
    if !base.completed() || !policy.completed() || policy.cycles == 0 {
        return None;
    }
    Some(base.cycles as f64 / policy.cycles as f64)
}

/// Geometric mean of speedups (the paper reports averages across
/// benchmarks); skips `None`s.
#[must_use]
pub fn geomean(xs: &[Option<f64>]) -> Option<f64> {
    let vals: Vec<f64> = xs.iter().flatten().copied().filter(|v| *v > 0.0).collect();
    if vals.is_empty() {
        return None;
    }
    let log_sum: f64 = vals.iter().map(|v| v.ln()).sum();
    Some((log_sum / vals.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    #[test]
    fn capacity_is_rate_times_footprint() {
        let w = registry::by_abbr("STN").unwrap();
        let pages = w.pages(0.25); // 4 MB * 0.25 = 256 pages
        assert_eq!(pages, 256);
        assert_eq!(capacity_pages(&w, 0.5, 0.25), 128);
        assert_eq!(capacity_pages(&w, 0.75, 0.25), 192);
    }

    #[test]
    fn capacity_floor_two_chunks() {
        let w = registry::by_abbr("STN").unwrap();
        assert_eq!(capacity_pages(&w, 0.01, 0.25), 32);
    }

    #[test]
    fn capacity_rounds_a_fractional_footprint() {
        // 95 × 0.5 = 47.5 pages rounds to 48: three whole chunks, not two.
        assert_eq!(capacity_for(95, 0.5), 48);
        assert_eq!(capacity_for(94, 0.5), 32);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[None, None]), None);
        let g = geomean(&[Some(2.0), Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[Some(2.0), None, Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn run_cell_smoke() {
        let cfg = ExpConfig::quick();
        let w = registry::by_abbr("STN").unwrap();
        let r = run_cell(&w, PolicyPreset::Baseline, 0.5, &cfg);
        assert!(r.accesses > 0);
        assert!(r.engine.faults > 0);
    }
}
