//! Whole-system configuration (Table I defaults).

use gmmu::translation::TranslationConfig;
use sim_core::error::ConfigError;
use sim_core::fault::InjectionConfig;
use telemetry::TraceConfig;
use uvm::driver::ResilienceConfig;

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Streaming multiprocessors (Table I: 28).
    pub sms: usize,
    /// Concurrently modelled warp slots ("lanes") per SM. Each lane
    /// executes one partition of the workload's access stream; a lane
    /// blocked on a far fault does not stop its SM's other lanes —
    /// the replayable-fault behaviour of Zheng et al.
    pub warps_per_sm: usize,
    /// Address-translation hierarchy shape.
    pub translation: TranslationConfig,
    /// Far-fault base service latency in cycles (20 µs).
    pub fault_base_cycles: u64,
    /// Extra host cycles per additional distinct fault in a batch
    /// (~5 µs of driver-side fault processing).
    pub per_fault_cycles: u64,
    /// Interconnect bandwidth per direction (GB/s).
    pub pcie_gb_per_s: f64,
    /// Crash detector: untouched fraction of evicted pages (see
    /// `uvm::UvmConfig::crash_untouch_fraction`).
    pub crash_untouch_fraction: f64,
    /// Crash detector arming volume in footprint multiples (0 disables).
    pub crash_min_evicted_factor: u64,
    /// Kernel-launch overhead applied at every barrier release (≈5 µs).
    pub launch_overhead_cycles: u64,
    /// Relative jitter applied to every access's compute delay
    /// (0.25 = ±25 %). Models the SM timing skew the paper identifies
    /// as its second source of thrashing ("SM#1 might access a page at
    /// t1, and SM#2 might access the same page at t2"); without it the
    /// barrier-synchronized lanes consume in lock-step and the
    /// forward-distance sensitivity flattens out.
    pub compute_jitter: f64,
    /// Seed for the jitter PRNG (runs are bit-reproducible).
    pub jitter_seed: u64,
    /// Hard stop: declare `Timeout` past this many cycles.
    pub max_cycles: u64,
    /// Fault-injection scenario (chaos experiments). Disabled by
    /// default: no perturbation, no RNG draws, bit-identical runs.
    pub injection: InjectionConfig,
    /// Driver resilience: DMA retry budget/backoff and the thrash
    /// degradation ladder (`degraded_mode`, off by default so the
    /// paper's crash figures are unchanged).
    pub resilience: ResilienceConfig,
    /// Telemetry: typed event tracing plus a per-batch metrics epoch
    /// sampler. Off by default — a disabled tracer records nothing,
    /// allocates nothing and leaves runs bit-identical. Setting
    /// `trace.audit` additionally records policy decision provenance
    /// (eviction candidate windows, prefetch plan origins) for the
    /// audit experiment's ledger and oracle comparator.
    pub trace: TraceConfig,
    /// Host-side self-profiler: wall-clock attribution per event kind,
    /// queue-occupancy histograms and the cohort/conflict analyzer
    /// behind the parallelism-readiness estimate. Off by default —
    /// the profiler only *reads* simulation state (runs stay
    /// bit-identical with it on) and when off the loop pays a single
    /// `Option` branch per event.
    pub hostprof: bool,
    /// Hit-path fast lane: when a lane's translation hits and its next
    /// access is provably another hit with no event scheduled to fire
    /// first, execute a bounded streak of accesses inline instead of
    /// round-tripping each one through the event queue. Bit-identical
    /// by construction (the hazard check falls back to the
    /// one-event-per-access path whenever identity could be at risk);
    /// on by default. The flag exists so the equivalence property
    /// tests can drive both paths.
    pub fast_lane: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            sms: 28,
            warps_per_sm: 4,
            translation: TranslationConfig::default(),
            fault_base_cycles: 28_000,
            per_fault_cycles: 7_000,
            pcie_gb_per_s: 16.0,
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 4,
            launch_overhead_cycles: 7_000,
            compute_jitter: 0.3,
            jitter_seed: 0x6A17_7E12,
            max_cycles: 200_000_000_000,
            injection: InjectionConfig::disabled(),
            resilience: ResilienceConfig::default(),
            trace: TraceConfig::default(),
            hostprof: false,
            fast_lane: true,
        }
    }
}

impl GpuConfig {
    /// Total lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.sms * self.warps_per_sm
    }

    /// Validate the configuration (injection knobs and link bandwidth).
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        sim_core::error::require_positive("pcie_gb_per_s", self.pcie_gb_per_s)?;
        self.injection.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.sms, 28);
        assert_eq!(c.fault_base_cycles, 28_000);
        assert_eq!(c.pcie_gb_per_s, 16.0);
        assert_eq!(c.lanes(), 112);
        // Robustness and telemetry layers are inert by default.
        assert!(!c.injection.any_enabled());
        assert!(!c.resilience.degraded_mode);
        assert!(!c.trace.enabled);
        assert!(!c.trace.audit, "decision auditing is opt-in");
        assert!(!c.hostprof, "host self-profiling is opt-in");
        // The fast lane is bit-identical to the legacy path, so it is
        // on by default (opt-out, for the equivalence tests).
        assert!(c.fast_lane);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_injection_knobs() {
        let c = GpuConfig {
            injection: InjectionConfig {
                transfer_failure_prob: 2.0,
                ..InjectionConfig::disabled()
            },
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GpuConfig {
            pcie_gb_per_s: -1.0,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
