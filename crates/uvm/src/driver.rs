//! The host-side UVM driver: far-fault batch servicing.
//!
//! GPUs take no precise exceptions, so page migration is offloaded to
//! the runtime on the host CPU (§II-A). The `gpu` crate's event loop
//! collects replayable far faults while the driver is busy and hands
//! them over as a *batch*; [`UvmDriver::service_batch`] then, for every
//! distinct faulted page:
//!
//! 1. notifies the policy engine (wrong-eviction bookkeeping),
//! 2. asks the prefetcher for a migration plan,
//! 3. evicts policy-selected victim chunks until the plan fits —
//!    reading the page-table access bits into the chunk's touch vector
//!    and feeding it back to the policies (CPPE's coordination loop),
//! 4. maps the planned pages and charges the PCIe link.
//!
//! The batch costs one 20 µs far-fault round-trip plus a smaller
//! per-extra-fault overhead, so faults that batch together amortize the
//! host interaction — the amortization prefetching exists to exploit.
//!
//! A run whose eviction traffic exceeds `crash_eviction_factor ×
//! footprint` is declared **crashed**, reproducing the paper's
//! observation that *MVT* and *BIC* die under the naïve baseline
//! ("crashed during execution due to severe thrashing").
//!
//! # Resilience
//!
//! The driver optionally carries a [`FaultInjector`] (chaos scenarios:
//! degraded link bandwidth, transient DMA failures, far-fault latency
//! spikes, fault-queue overflow) and a [`ResilienceConfig`] governing
//! how it survives them: failed migration DMAs are retried with bounded
//! exponential backoff, oversized batches are split and the tail
//! deferred, and — when `degraded_mode` is on — the thrash detector
//! walks a *degradation ladder* before declaring a crash: first halve
//! prefetch aggressiveness, then fall back to plain LRU + sequential
//! prefetch (disabled on memory-full), and only if wasteful thrash
//! persists after both sheds report [`BatchResult::crashed`]. With
//! injection disabled and `degraded_mode` off (the defaults) every code
//! path is bit-identical to the original driver.

use crate::error::UvmError;
use crate::frames::FrameAllocator;
use crate::pcie::PcieLink;
use cppe::engine::PolicyEngine;
use gmmu::translation::TranslationPath;
use gmmu::types::{VirtPage, PAGES_PER_CHUNK};
use sim_core::error::{require_positive, ConfigError};
use sim_core::fault::{FaultInjector, InjectionStats};
use sim_core::time::Cycle;
use sim_core::{FxHashSet, TouchVec};
use telemetry::{
    DecisionEvent, DecisionKind, InjectedFaultKind, MetricKind, RunTelemetry, SpanId, SpanStage,
    TraceEvent, Tracer,
};

/// Candidate-window size recorded per audited eviction decision. Large
/// enough to show what the policy weighed, small enough to keep the
/// decision ring cheap.
const AUDIT_CANDIDATES: usize = 8;

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct UvmConfig {
    /// GPU memory capacity in 4 KB frames.
    pub capacity_pages: u32,
    /// Base far-fault service latency in cycles (Table I: 20 µs = 28 000).
    pub fault_base_cycles: u64,
    /// Additional service cycles per distinct fault in a batch beyond
    /// the first — host-side fault processing (page-table updates, DMA
    /// setup), ~5 µs by default. Keeping this above the 64 KB transfer
    /// time (~4 µs) makes the host CPU the service bottleneck, as in
    /// real UVM drivers; otherwise the PCIe queue backlogs and chain
    /// recency diverges from consumption recency.
    pub per_fault_cycles: u64,
    /// Interconnect bandwidth per direction in GB/s (Table I: 16).
    pub pcie_gb_per_s: f64,
    /// Crash when, with at least `crash_min_evicted_factor × footprint`
    /// pages already evicted, more than `crash_untouch_fraction` of all
    /// evicted pages were never touched. Sustained mostly-useless
    /// migration traffic is what kills the real driver under severe
    /// thrash (Fig. 4: MVT/BIC). Set the fraction > 1.0 to disable.
    pub crash_untouch_fraction: f64,
    /// Minimum eviction volume (multiples of the footprint) before the
    /// crash detector arms (0 disables crash detection).
    pub crash_min_evicted_factor: u64,
    /// Application footprint in pages (for crash detection).
    pub footprint_pages: u64,
}

impl UvmConfig {
    /// Table I defaults for a given capacity/footprint.
    #[must_use]
    pub fn table1(capacity_pages: u32, footprint_pages: u64) -> Self {
        UvmConfig {
            capacity_pages,
            fault_base_cycles: 28_000,
            per_fault_cycles: 7_000,
            pcie_gb_per_s: 16.0,
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 4,
            footprint_pages,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found: a zero-frame pool, a
    /// non-positive link bandwidth, or a non-finite/negative crash
    /// fraction. (A fraction *above* 1.0 is legal — it disables crash
    /// detection, since untouch can never exceed evictions.)
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity_pages == 0 {
            return Err(ConfigError::Zero {
                field: "capacity_pages",
            });
        }
        require_positive("pcie_gb_per_s", self.pcie_gb_per_s)?;
        if !self.crash_untouch_fraction.is_finite() || self.crash_untouch_fraction < 0.0 {
            return Err(ConfigError::NotPositive {
                field: "crash_untouch_fraction",
                value: self.crash_untouch_fraction,
            });
        }
        Ok(())
    }
}

/// How the driver responds to injected faults and sustained thrash.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Retries granted to a failing migration DMA before the plan is
    /// abandoned and the fault left for the warp to replay.
    pub max_transfer_retries: u32,
    /// Backoff before the first retry, in cycles; doubles per attempt.
    pub backoff_base_cycles: u64,
    /// Ceiling on a single backoff wait, in cycles.
    pub backoff_cap_cycles: u64,
    /// Walk the degradation ladder (throttle prefetch, then fall back to
    /// the baseline policy pair) before declaring a thrash crash. Off by
    /// default so the paper's Fig. 4 crash behaviour is untouched.
    pub degraded_mode: bool,
    /// Recovery rung: after this many consecutive batches with no
    /// thrash-detector trip, step one rung back up the ladder — re-arm
    /// the original policy pair first, then restore full prefetch
    /// aggressiveness. 0 (the default) disables recovery, so sheds are
    /// permanent as in the plain ladder.
    pub recovery_quiet_batches: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_transfer_retries: 4,
            backoff_base_cycles: 2_000,
            backoff_cap_cycles: 64_000,
            degraded_mode: false,
            recovery_quiet_batches: 0,
        }
    }
}

impl ResilienceConfig {
    /// Default retry budget with the degradation ladder enabled.
    #[must_use]
    pub fn degraded() -> Self {
        ResilienceConfig {
            degraded_mode: true,
            ..ResilienceConfig::default()
        }
    }

    /// Degraded mode with the recovery rung armed: after `quiet`
    /// thrash-free batches the driver steps one rung back up.
    #[must_use]
    pub fn degraded_with_recovery(quiet: u64) -> Self {
        ResilienceConfig {
            recovery_quiet_batches: quiet,
            ..ResilienceConfig::degraded()
        }
    }
}

/// Exponential backoff before retry number `attempt` (1-based), bounded
/// by the configured cap.
fn backoff_cycles(r: &ResilienceConfig, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    r.backoff_base_cycles
        .saturating_mul(1u64 << shift)
        .min(r.backoff_cap_cycles)
}

/// Outcome of one batch service.
///
/// Far-fault service is *pipelined*: the host CPU processes the batch's
/// faults one after another (each fault adds `per_fault_cycles` after
/// the 20 µs base), while page transfers queue on the PCIe link and
/// complete per fault. A faulting warp replays as soon as *its* pages
/// arrive — it does not wait for the whole batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// When the host driver finishes processing the batch and can accept
    /// the next one.
    pub host_done: Cycle,
    /// Absolute time the whole batch completes (last transfer done).
    pub done_at: Cycle,
    /// Per distinct faulted page: when its migration (host processing +
    /// PCIe transfer of its plan) completes and the faulting warp may
    /// replay.
    pub completions: Vec<(VirtPage, Cycle)>,
    /// Pages that became resident.
    pub migrated: Vec<VirtPage>,
    /// Pages evicted to make room (the GPU-side caches invalidate these).
    pub evicted: Vec<VirtPage>,
    /// Faults this batch did *not* service: the tail cut off by an
    /// injected fault-queue overflow. The caller must re-queue them for
    /// the next batch.
    pub deferred: Vec<VirtPage>,
    /// Run died of thrash during this batch.
    pub crashed: bool,
}

/// Driver statistics beyond what the policy engine tracks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Batches serviced.
    pub batches: u64,
    /// Distinct faults serviced (duplicates within a batch collapse).
    pub faults_serviced: u64,
    /// Faults that were already resident on arrival (another fault in
    /// the same batch migrated them).
    pub coalesced_faults: u64,
    /// Migration DMA retries performed (injected transient failures).
    pub retries: u64,
    /// Cycles spent waiting out retry backoffs.
    pub retry_backoff_cycles: u64,
    /// Injected transfer failures observed (each retry or abort stems
    /// from one of these).
    pub injected_transfer_faults: u64,
    /// Migrations abandoned after the retry budget was spent.
    pub migrations_aborted: u64,
    /// Batches whose base latency was inflated by an injected spike.
    pub latency_spike_batches: u64,
    /// Batches split because the injected fault-queue depth overflowed.
    pub batch_splits: u64,
    /// Faults pushed to a later batch by splits.
    pub deferred_faults: u64,
    /// Degradation-ladder shed 1 activations (prefetch throttled).
    pub throttle_sheds: u64,
    /// Degradation-ladder shed 2 activations (policy fallback).
    pub policy_fallbacks: u64,
    /// Recovery-rung steps back up the ladder (quiet period elapsed).
    pub rung_recoveries: u64,
}

impl DriverStats {
    /// Counters under their stable telemetry names, in schema order.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, u64); 13] {
        [
            ("driver.batches", self.batches),
            ("driver.faults_serviced", self.faults_serviced),
            ("driver.coalesced_faults", self.coalesced_faults),
            ("driver.retries", self.retries),
            ("driver.retry_backoff_cycles", self.retry_backoff_cycles),
            (
                "driver.injected_transfer_faults",
                self.injected_transfer_faults,
            ),
            ("driver.migrations_aborted", self.migrations_aborted),
            ("driver.latency_spike_batches", self.latency_spike_batches),
            ("driver.batch_splits", self.batch_splits),
            ("driver.deferred_faults", self.deferred_faults),
            ("driver.throttle_sheds", self.throttle_sheds),
            ("driver.policy_fallbacks", self.policy_fallbacks),
            ("driver.rung_recoveries", self.rung_recoveries),
        ]
    }
}

/// The UVM driver.
pub struct UvmDriver {
    cfg: UvmConfig,
    engine: PolicyEngine,
    frames: FrameAllocator,
    pcie: PcieLink,
    injector: FaultInjector,
    resilience: ResilienceConfig,
    crashed: bool,
    /// Start time of the batch currently being serviced (evictions are
    /// charged to the link at this time).
    service_start: Cycle,
    /// Link bandwidth multiplier for the batch currently being serviced
    /// (1.0 outside injected degradation windows).
    service_bw: f64,
    /// Current degradation-ladder rung (0 = healthy, 1 = prefetch
    /// throttled, 2 = fallen back to the baseline policy pair). Recovery
    /// steps it back down after a quiet period.
    rung: u32,
    /// Did the ladder shed at least once, ever (survives recovery)?
    degraded_ever: bool,
    /// Consecutive batches since the last thrash-detector trip
    /// (recovery-rung clock).
    quiet_batches: u64,
    /// Thrash-detector baselines, reset at each rung transition so every
    /// rung gets a fresh window to prove itself.
    shed_base_evicted: u64,
    shed_base_untouch: u64,
    /// Telemetry recorder (inert unless armed via
    /// [`UvmDriver::set_tracer`]).
    tracer: Tracer,
    /// Span of the batch currently being serviced ([`SpanId::NONE`]
    /// outside `service_batch` or when tracing is off).
    batch_span: SpanId,
    /// Latest DMA completion charged by the current batch (eviction
    /// write-backs can land after the last migration).
    batch_dma_end: Cycle,
    /// Reusable [`BatchResult`] buffers, refilled by
    /// [`UvmDriver::recycle`]: once they reach their high-water marks,
    /// steady-state batch service allocates nothing.
    scratch_migrated: Vec<VirtPage>,
    scratch_evicted: Vec<VirtPage>,
    scratch_completions: Vec<(VirtPage, Cycle)>,
    scratch_deferred: Vec<VirtPage>,
    /// Reusable per-batch pinned-chunk set.
    pinned_buf: FxHashSet<gmmu::types::ChunkId>,
    /// Reusable per-fault prefetch-plan buffer.
    plan_buf: Vec<VirtPage>,
    /// Batches whose scratch buffers came back warm from
    /// [`UvmDriver::recycle`] (capacity already reserved).
    scratch_recycled: u64,
    /// Batches that started with cold scratch (first batch, or a
    /// result the caller dropped instead of recycling).
    scratch_fresh: u64,
    /// Driver-level counters.
    pub stats: DriverStats,
}

impl UvmDriver {
    /// Build a driver around a policy engine. No fault injection,
    /// default resilience.
    ///
    /// # Errors
    /// Returns [`UvmError::Config`] when `cfg` fails validation.
    pub fn try_new(cfg: UvmConfig, engine: PolicyEngine) -> Result<Self, UvmError> {
        UvmDriver::with_injection(
            cfg,
            engine,
            FaultInjector::disabled(),
            ResilienceConfig::default(),
        )
    }

    /// Build a driver around a policy engine. Convenience wrapper over
    /// [`UvmDriver::try_new`].
    ///
    /// # Panics
    /// Panics when `cfg` fails validation.
    #[must_use]
    pub fn new(cfg: UvmConfig, engine: PolicyEngine) -> Self {
        UvmDriver::try_new(cfg, engine).expect("invalid UVM configuration")
    }

    /// Build a driver with a fault injector and resilience settings.
    ///
    /// # Errors
    /// Returns [`UvmError::Config`] when `cfg` fails validation.
    pub fn with_injection(
        cfg: UvmConfig,
        engine: PolicyEngine,
        injector: FaultInjector,
        resilience: ResilienceConfig,
    ) -> Result<Self, UvmError> {
        cfg.validate()?;
        Ok(UvmDriver {
            frames: FrameAllocator::try_new(cfg.capacity_pages)?,
            pcie: PcieLink::try_new(cfg.pcie_gb_per_s)?,
            injector,
            resilience,
            cfg,
            engine,
            crashed: false,
            service_start: Cycle::ZERO,
            service_bw: 1.0,
            rung: 0,
            degraded_ever: false,
            quiet_batches: 0,
            shed_base_evicted: 0,
            shed_base_untouch: 0,
            tracer: Tracer::disabled(),
            batch_span: SpanId::NONE,
            batch_dma_end: Cycle::ZERO,
            scratch_migrated: Vec::new(),
            scratch_evicted: Vec::new(),
            scratch_completions: Vec::new(),
            scratch_deferred: Vec::new(),
            pinned_buf: FxHashSet::default(),
            plan_buf: Vec::new(),
            scratch_recycled: 0,
            scratch_fresh: 0,
            stats: DriverStats::default(),
        })
    }

    /// The policy engine (counters, chain, overhead snapshot).
    #[must_use]
    pub fn engine(&self) -> &PolicyEngine {
        &self.engine
    }

    /// Mutable engine access (harness-side policy introspection).
    pub fn engine_mut(&mut self) -> &mut PolicyEngine {
        &mut self.engine
    }

    /// The PCIe link (traffic counters).
    #[must_use]
    pub fn pcie(&self) -> &PcieLink {
        &self.pcie
    }

    /// Free frames right now.
    #[must_use]
    pub fn free_frames(&self) -> u32 {
        self.frames.free()
    }

    /// Has the run crashed from thrash?
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Has the degradation ladder shed at least once (even if recovery
    /// later re-armed the full policy stack)?
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded_ever
    }

    /// Current degradation-ladder rung (0–2; recovery steps back down).
    #[must_use]
    pub fn sheds(&self) -> u32 {
        self.rung
    }

    /// Arm the driver with a telemetry tracer (typed events plus one
    /// metrics epoch per serviced batch).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Take the recorded telemetry out of the driver (`None` when
    /// tracing was off).
    pub fn take_telemetry(&mut self) -> Option<RunTelemetry> {
        std::mem::take(&mut self.tracer).finish()
    }

    /// Mutable access to the driver-owned tracer: the simulator records
    /// its lane-side fault-lifecycle spans through the same recorder so
    /// one run yields one coherent span set.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Injection-side counters (what the injector actually fired).
    #[must_use]
    pub fn injector_stats(&self) -> InjectionStats {
        self.injector.stats()
    }

    /// The resilience settings in effect.
    #[must_use]
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Evict one policy-selected chunk, releasing its frames. Returns
    /// false when no victim is available (empty chain).
    fn evict_one(
        &mut self,
        xlat: &mut TranslationPath,
        evicted: &mut Vec<VirtPage>,
        pinned: &FxHashSet<gmmu::types::ChunkId>,
    ) -> bool {
        self.engine.note_memory_full();
        // Audit provenance: preview the candidate window *before*
        // selection — selection itself mutates policy state (CLOCK's
        // hand, RRIP aging, the random draw), so the preview must come
        // first to describe the choice the policy actually faced.
        let candidates = self
            .tracer
            .audit_enabled()
            .then(|| self.engine.victim_candidates(pinned, AUDIT_CANDIDATES));
        let Some(victim) = self.engine.select_victim(pinned) else {
            return false;
        };
        if let Some(cands) = candidates {
            let policy = self.engine.evict_name();
            let rung = self.rung;
            self.tracer
                .decision(self.service_start.0, || DecisionEvent {
                    kind: DecisionKind::Eviction,
                    policy,
                    origin: "capacity",
                    rung,
                    chosen: victim.0,
                    pages: cands.into_iter().map(|c| c.0).collect(),
                });
        }
        let mut touch = TouchVec::empty();
        let mut resident = 0u32;
        for page in victim.pages() {
            if xlat.page_table().is_resident(page) {
                let (frame, touched) = xlat.unmap_and_invalidate(page);
                self.frames.release(frame);
                if touched {
                    touch.set(page.index_in_chunk());
                }
                evicted.push(page);
                resident += 1;
            }
        }
        // Evicted pages travel back over the device→host lane. We treat
        // every page as dirty: unified-memory migration moves data, and
        // the paper's thrashing metric is eviction traffic.
        let d2h_start = self.pcie.d2h_free_at().max(self.service_start);
        let d2h_done =
            self.pcie
                .transfer_d2h_at(u64::from(resident), self.service_start, self.service_bw);
        if resident > 0 {
            self.batch_child(SpanStage::EvictionDma, d2h_start, d2h_done, victim.0);
        }
        let untouch = resident.saturating_sub(touch.count_touched());
        self.tracer
            .emit(self.service_start.0, || TraceEvent::Eviction {
                chunk: victim.0,
                resident,
                untouch,
            });
        self.engine.note_evicted(victim, touch, resident);
        true
    }

    /// Record a driver-side child of the open batch span (no SM, no
    /// lane); a DMA stage also moves `batch_dma_end` past its completion.
    fn batch_child(&mut self, stage: SpanStage, start: Cycle, end: Cycle, key: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let (parent, tr) = (self.batch_span, &mut self.tracer);
        tr.span(stage, start.0, end.0, parent, u16::MAX, u32::MAX, key);
        if matches!(stage, SpanStage::EvictionDma | SpanStage::PcieTransfer) {
            self.batch_dma_end = self.batch_dma_end.max(end);
        }
    }

    /// Service a batch of far faults arriving at `now`.
    ///
    /// Duplicate pages within the batch (or pages migrated by an
    /// earlier fault of the same batch) are coalesced. Returns the batch
    /// completion time and the pages made resident.
    ///
    /// # Errors
    /// Returns [`UvmError::FramesExhausted`] if the frame pool runs dry
    /// mid-plan — an internal accounting breach the eviction loop is
    /// supposed to make impossible, reported instead of panicking.
    pub fn service_batch(
        &mut self,
        faults: &[VirtPage],
        now: Cycle,
        xlat: &mut TranslationPath,
    ) -> Result<BatchResult, UvmError> {
        let batch_seq = self.stats.batches;
        self.stats.batches += 1;
        self.service_start = now;
        self.batch_dma_end = now;
        self.batch_span = self.tracer.span_open(
            SpanStage::DriverBatch,
            now.0,
            SpanId::NONE,
            u16::MAX,
            u32::MAX,
            batch_seq,
        );
        let arrived = faults.len() as u32;
        // Perturbations for this batch: link bandwidth multiplier
        // (square wave of the current cycle) and queue overflow. A
        // disabled injector yields 1.0 / unlimited and draws no RNG.
        self.service_bw = self.injector.bandwidth_factor(now);
        let mut deferred = std::mem::take(&mut self.scratch_deferred);
        deferred.clear();
        let faults = match self.injector.queue_depth() {
            Some(depth) if faults.len() > depth => {
                self.stats.batch_splits += 1;
                let cut = (faults.len() - depth) as u64;
                self.stats.deferred_faults += cut;
                self.tracer.emit(now.0, || TraceEvent::InjectedFault {
                    kind: InjectedFaultKind::QueueOverflow {
                        deferred: cut as u32,
                    },
                });
                deferred.extend_from_slice(&faults[depth..]);
                &faults[..depth]
            }
            _ => faults,
        };
        let mut base_cycles = self.cfg.fault_base_cycles;
        let spike = self.injector.batch_latency_factor();
        if spike > 1.0 {
            self.stats.latency_spike_batches += 1;
            base_cycles = (base_cycles as f64 * spike).round() as u64;
            self.tracer.emit(now.0, || TraceEvent::InjectedFault {
                kind: InjectedFaultKind::LatencySpike,
            });
        }

        // Reuse accounting for the host profiler: a warm batch starts
        // with recycled capacity in every scratch buffer.
        if self.scratch_migrated.capacity() > 0 {
            self.scratch_recycled += 1;
        } else {
            self.scratch_fresh += 1;
        }
        let mut migrated = std::mem::take(&mut self.scratch_migrated);
        migrated.clear();
        let mut evicted = std::mem::take(&mut self.scratch_evicted);
        evicted.clear();
        let mut completions = std::mem::take(&mut self.scratch_completions);
        completions.clear();
        // Chunks whose migration this batch has planned or performed:
        // pinned against eviction for the duration of the batch.
        let mut pinned = std::mem::take(&mut self.pinned_buf);
        pinned.clear();
        // Per-fault prefetch plan, reused across the batch.
        let mut plan = std::mem::take(&mut self.plan_buf);
        let mut distinct = 0u64;
        let mut coalesced = 0u32;
        // Host-side processing cursor: the 20 µs far-fault round trip,
        // then per-fault handling time, serialized on the host CPU.
        let mut host_cursor = now.after(base_cycles);

        for &fault in faults {
            if xlat.page_table().is_resident(fault) {
                self.stats.coalesced_faults += 1;
                coalesced += 1;
                // Migrated by an earlier fault of this batch (or already
                // in flight): ready once the host reaches it.
                completions.push((fault, host_cursor));
                continue;
            }
            distinct += 1;
            self.stats.faults_serviced += 1;
            if distinct > 1 {
                host_cursor = host_cursor.after(self.cfg.per_fault_cycles);
            }
            self.tracer
                .emit(host_cursor.0, || TraceEvent::FarFault { page: fault.0 });

            // Draw this migration's DMA fate *before* any state changes:
            // injected transient failures cost one backoff each (bounded
            // exponential), and once the retry budget is spent the plan
            // is abandoned. Because nothing was pinned, evicted or
            // mapped yet, an abort needs no rollback — the warp replays
            // at the backoff end, re-faults on the still-non-resident
            // page, and the next batch retries the migration afresh.
            let mut attempts = 1u32;
            let mut backoff = 0u64;
            let mut abort = false;
            while self.injector.transfer_fails() {
                self.stats.injected_transfer_faults += 1;
                self.tracer
                    .emit(host_cursor.0, || TraceEvent::InjectedFault {
                        kind: InjectedFaultKind::TransferFailure,
                    });
                if attempts > self.resilience.max_transfer_retries {
                    abort = true;
                    break;
                }
                let wait = backoff_cycles(&self.resilience, attempts);
                backoff += wait;
                self.stats.retries += 1;
                let attempt = attempts;
                self.tracer.emit(host_cursor.0, || TraceEvent::DmaRetry {
                    page: fault.0,
                    attempt,
                    backoff_cycles: wait,
                });
                attempts += 1;
            }
            if backoff > 0 {
                self.stats.retry_backoff_cycles += backoff;
                let backoff_start = host_cursor;
                host_cursor = host_cursor.after(backoff);
                self.batch_child(SpanStage::RetryBackoff, backoff_start, host_cursor, fault.0);
            }
            if abort {
                self.stats.migrations_aborted += 1;
                self.tracer.emit(host_cursor.0, || TraceEvent::DmaAbort {
                    page: fault.0,
                    attempts,
                });
                completions.push((fault, host_cursor));
                continue;
            }

            // "Memory full" is visible to the prefetcher before planning:
            // less than one chunk of headroom counts as full, which is
            // when disable-on-full strategies stop prefetching.
            if u64::from(self.frames.free()) < PAGES_PER_CHUNK {
                self.engine.note_memory_full();
            }
            self.engine.note_fault(fault);
            self.engine
                .plan_prefetch_into(fault, xlat.page_table(), &mut plan);

            // A plan can never exceed the whole device memory; truncate
            // oversized plans but always keep the faulted page.
            let cap = self.frames.capacity() as usize;
            if plan.len() > cap {
                plan.retain(|&p| p != fault);
                plan.truncate(cap - 1);
                plan.push(fault);
                plan.sort_unstable_by_key(|p| p.0);
            }

            let planned = plan.len() as u32;
            self.tracer
                .emit(host_cursor.0, || TraceEvent::PrefetchDecision {
                    page: fault.0,
                    planned,
                });

            for &p in &plan {
                pinned.insert(p.chunk());
            }

            // Make room.
            while (self.frames.free() as usize) < plan.len() {
                if !self.evict_one(xlat, &mut evicted, &pinned) {
                    // Chain exhausted (pathological): shrink the plan to
                    // whatever fits, keeping the faulted page.
                    let free = self.frames.free() as usize;
                    plan.retain(|&p| p != fault);
                    plan.truncate(free.saturating_sub(1));
                    plan.push(fault);
                    plan.sort_unstable_by_key(|p| p.0);
                    break;
                }
            }

            // Audit provenance: the final plan (post cap-truncation and
            // any chain-exhausted shrink) with the strategy branch that
            // produced it. These are exactly the pages mapped below, so
            // the ledger can replay residency from the decision stream.
            if self.tracer.audit_enabled() {
                let policy = self.engine.prefetch_name();
                let origin = self.engine.plan_origin();
                let rung = self.rung;
                let pages: Vec<u64> = plan.iter().map(|p| p.0).collect();
                self.tracer.decision(host_cursor.0, || DecisionEvent {
                    kind: DecisionKind::Prefetch,
                    policy,
                    origin,
                    rung,
                    chosen: fault.0,
                    pages,
                });
            }

            // Map, grouped by chunk for the policy notifications.
            let mut i = 0;
            while i < plan.len() {
                let chunk = plan[i].chunk();
                let mut n = 0u32;
                let mut demand = false;
                while i < plan.len() && plan[i].chunk() == chunk {
                    let Some(frame) = self.frames.alloc() else {
                        return Err(UvmError::FramesExhausted {
                            requested: plan.len() - i,
                            free: self.frames.free(),
                        });
                    };
                    let is_fault = plan[i] == fault;
                    xlat.map(plan[i], frame, is_fault);
                    demand |= is_fault;
                    n += 1;
                    i += 1;
                }
                self.engine.note_migrated(chunk, n, demand);
            }
            let h2d_start = self.pcie.h2d_free_at().max(now);
            let transfer_done = self
                .pcie
                .transfer_h2d_at(plan.len() as u64, now, self.service_bw);
            self.batch_child(SpanStage::PcieTransfer, h2d_start, transfer_done, fault.0);
            let pages = plan.len() as u32;
            self.tracer.emit(now.0, || TraceEvent::MigrationDma {
                page: fault.0,
                pages,
                done_cycle: transfer_done.0,
            });
            completions.push((fault, host_cursor.max(transfer_done)));
            migrated.extend_from_slice(&plan);
        }

        let host_done = host_cursor;
        let done_at = completions
            .iter()
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(host_done)
            .max(host_done);

        self.check_thrash(now);

        self.tracer.emit(now.0, || TraceEvent::BatchServiced {
            batch: batch_seq,
            arrived,
            distinct: distinct as u32,
            coalesced,
            host_done_cycle: host_done.0,
            done_cycle: done_at.0,
        });
        if self.tracer.enabled() {
            self.batch_child(SpanStage::HostService, now, host_done, batch_seq);
            let batch_end = done_at.max(self.batch_dma_end);
            self.tracer.span_close(self.batch_span, batch_end.0);
            self.batch_span = SpanId::NONE;
        }
        self.record_epoch(now);

        self.pinned_buf = pinned;
        self.plan_buf = plan;

        Ok(BatchResult {
            host_done,
            done_at,
            completions,
            migrated,
            evicted,
            deferred,
            crashed: self.crashed,
        })
    }

    /// Return a consumed [`BatchResult`]'s buffers to the driver's
    /// scratch pool, making the next [`UvmDriver::service_batch`]
    /// allocation-free. Purely an optimisation: callers that drop
    /// results instead simply pay fresh allocations next batch.
    pub fn recycle(&mut self, r: BatchResult) {
        self.scratch_migrated = r.migrated;
        self.scratch_evicted = r.evicted;
        self.scratch_completions = r.completions;
        self.scratch_deferred = r.deferred;
    }

    /// `(recycled, fresh)`: batches that started with warm recycled
    /// scratch vs batches that had to allocate. The host profiler
    /// reports the ratio as the zero-alloc path's reuse hit rate.
    #[must_use]
    pub fn scratch_stats(&self) -> (u64, u64) {
        (self.scratch_recycled, self.scratch_fresh)
    }

    /// Thrash-death detection (Fig. 4: MVT/BIC die in the baseline): the
    /// detector trips when eviction traffic since the last ladder shed
    /// is both *large* (it arms only past a footprint multiple) and
    /// *mostly useless* (a high fraction of evicted pages was never
    /// touched). Tripping crashes the run — unless `degraded_mode` is
    /// on, in which case the driver first throttles prefetch, then falls
    /// back to the baseline policy pair, and only crashes if wasteful
    /// thrash persists past both sheds. Each shed resets the detector's
    /// baselines so the new rung is judged on fresh traffic.
    ///
    /// Disabled when `crash_min_evicted_factor` is 0, when the footprint
    /// is 0 (nothing to thrash against), or effectively when
    /// `crash_untouch_fraction > 1.0` (untouch never exceeds evictions).
    fn check_thrash(&mut self, now: Cycle) {
        if self.cfg.crash_min_evicted_factor == 0 || self.cfg.footprint_pages == 0 {
            return;
        }
        let st = self.engine.stats;
        let evicted = st.pages_evicted - self.shed_base_evicted;
        let untouch = st.total_untouch - self.shed_base_untouch;
        let armed = evicted > self.cfg.crash_min_evicted_factor * self.cfg.footprint_pages;
        let wasteful = (untouch as f64) > self.cfg.crash_untouch_fraction * evicted as f64;
        if !(armed && wasteful) {
            self.try_recover(now);
            return;
        }
        self.quiet_batches = 0;
        if !self.resilience.degraded_mode {
            self.crashed = true;
            return;
        }
        match self.rung {
            0 => {
                self.engine.shed_prefetch();
                self.stats.throttle_sheds += 1;
            }
            1 => {
                self.engine.fallback_to_baseline();
                self.stats.policy_fallbacks += 1;
            }
            _ => {
                self.crashed = true;
                return;
            }
        }
        let from = self.rung;
        self.rung += 1;
        self.degraded_ever = true;
        let to = self.rung;
        self.tracer
            .emit(now.0, || TraceEvent::RungTransition { from, to });
        self.shed_base_evicted = st.pages_evicted;
        self.shed_base_untouch = st.total_untouch;
    }

    /// Recovery rung: a batch passed without a thrash trip. Once
    /// `recovery_quiet_batches` consecutive quiet batches accumulate,
    /// step one rung back up the ladder — from the policy fallback to
    /// "originals re-armed but prefetch still throttled", then from the
    /// throttle to full aggressiveness — and give the detector a fresh
    /// baseline window. Disabled when the quiet period is 0.
    fn try_recover(&mut self, now: Cycle) {
        if self.rung == 0 || self.resilience.recovery_quiet_batches == 0 {
            return;
        }
        self.quiet_batches += 1;
        if self.quiet_batches < self.resilience.recovery_quiet_batches {
            return;
        }
        self.quiet_batches = 0;
        let from = self.rung;
        if self.rung == 2 {
            // Re-arm the original policy pair but keep prefetch
            // throttled: recovery retraces the ladder one rung at a
            // time rather than jumping straight back to full throttle.
            self.engine.restore_policies();
            self.engine.shed_prefetch();
        } else {
            self.engine.restore_prefetch();
        }
        self.rung -= 1;
        self.stats.rung_recoveries += 1;
        let to = self.rung;
        self.tracer
            .emit(now.0, || TraceEvent::RungTransition { from, to });
        let st = self.engine.stats;
        self.shed_base_evicted = st.pages_evicted;
        self.shed_base_untouch = st.total_untouch;
    }

    /// Snapshot every metric as one telemetry epoch at `now` (no-op when
    /// tracing is off). One epoch per serviced batch: nothing mutates
    /// driver or engine counters outside `service_batch`, so batch
    /// granularity loses nothing.
    fn record_epoch(&mut self, now: Cycle) {
        if !self.tracer.enabled() {
            return;
        }
        let mut m: Vec<(&'static str, MetricKind, u64)> = Vec::with_capacity(30);
        for (n, v) in self.engine.stats.metrics() {
            m.push((n, MetricKind::Counter, v));
        }
        m.push((
            "cppe.wrong_evictions",
            MetricKind::Counter,
            self.engine.wrong_evictions(),
        ));
        for (n, v) in self.stats.metrics() {
            m.push((n, MetricKind::Counter, v));
        }
        for (n, v) in self.injector.stats().metrics() {
            m.push((n, MetricKind::Counter, v));
        }
        m.push(("pcie.bytes_h2d", MetricKind::Counter, self.pcie.bytes_h2d));
        m.push(("pcie.bytes_d2h", MetricKind::Counter, self.pcie.bytes_d2h));
        let free = u64::from(self.frames.free());
        let resident = u64::from(self.frames.capacity()) - free;
        m.push(("mem.resident_pages", MetricKind::Gauge, resident));
        m.push(("mem.free_frames", MetricKind::Gauge, free));
        m.push((
            "cppe.chain_len",
            MetricKind::Gauge,
            self.engine.chain().len() as u64,
        ));
        m.push((
            "cppe.prefetch_throttle",
            MetricKind::Gauge,
            u64::from(self.engine.prefetch_throttle()),
        ));
        m.push(("driver.rung", MetricKind::Gauge, u64::from(self.rung)));
        self.tracer.sample_epoch(now.0, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppe::presets::PolicyPreset;
    use gmmu::translation::TranslationConfig;

    fn setup(capacity: u32, preset: PolicyPreset) -> (UvmDriver, TranslationPath) {
        let cfg = UvmConfig::table1(capacity, 1024);
        let driver = UvmDriver::new(cfg, preset.build(7));
        let xlat = TranslationPath::new(&TranslationConfig::default());
        (driver, xlat)
    }

    #[test]
    fn single_fault_migrates_whole_chunk() {
        let (mut d, mut xlat) = setup(256, PolicyPreset::Baseline);
        let r = d
            .service_batch(&[VirtPage(5)], Cycle::ZERO, &mut xlat)
            .unwrap();
        assert_eq!(r.migrated.len(), 16);
        assert!(xlat.page_table().is_resident(VirtPage(5)));
        assert!(xlat.page_table().is_resident(VirtPage(0)));
        assert!(!xlat.page_table().is_resident(VirtPage(16)));
        assert_eq!(d.free_frames(), 240);
        // Faulted page is touched, prefetched neighbours are not.
        assert!(xlat.page_table().is_touched(VirtPage(5)));
        assert!(!xlat.page_table().is_touched(VirtPage(0)));
        assert!(!r.crashed);
    }

    #[test]
    fn batch_timing_includes_fault_base_and_pcie() {
        let (mut d, mut xlat) = setup(256, PolicyPreset::Baseline);
        let r = d
            .service_batch(&[VirtPage(5)], Cycle::ZERO, &mut xlat)
            .unwrap();
        // Host: 28 000; PCIe h2d of 16 pages: 5 735 — host dominates.
        assert_eq!(r.done_at, Cycle(28_000));
    }

    #[test]
    fn extra_faults_add_per_fault_cost() {
        let (mut d, mut xlat) = setup(1024, PolicyPreset::Baseline);
        let r = d
            .service_batch(
                &[VirtPage(0), VirtPage(100), VirtPage(200)],
                Cycle::ZERO,
                &mut xlat,
            )
            .unwrap();
        // 3 distinct faults → host 28 000 + 2 × 7 000 = 42 000 > PCIe.
        assert_eq!(r.host_done, Cycle(42_000));
        assert_eq!(r.done_at, Cycle(42_000));
        assert_eq!(r.migrated.len(), 48);
    }

    #[test]
    fn duplicate_faults_coalesce() {
        let (mut d, mut xlat) = setup(256, PolicyPreset::Baseline);
        let r = d
            .service_batch(
                &[VirtPage(5), VirtPage(6), VirtPage(5)],
                Cycle::ZERO,
                &mut xlat,
            )
            .unwrap();
        // First fault migrates the chunk; the other two are resident.
        assert_eq!(r.migrated.len(), 16);
        assert_eq!(d.stats.faults_serviced, 1);
        assert_eq!(d.stats.coalesced_faults, 2);
    }

    #[test]
    fn eviction_when_memory_full() {
        // Capacity = 2 chunks. Fill both, then fault a third.
        let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        assert_eq!(d.free_frames(), 0);
        let r = d
            .service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        assert_eq!(r.migrated.len(), 16);
        // LRU evicted chunk 0.
        assert!(!xlat.page_table().is_resident(VirtPage(0)));
        assert!(xlat.page_table().is_resident(VirtPage(16)));
        assert!(xlat.page_table().is_resident(VirtPage(32)));
        assert_eq!(d.engine().stats.chunk_evictions, 1);
        assert_eq!(d.engine().stats.pages_evicted, 16);
    }

    #[test]
    fn eviction_reads_touch_bits_into_pattern() {
        // CPPE end-to-end: touch a stride-2 subset, evict, re-fault →
        // only the pattern pages migrate.
        let (mut d, mut xlat) = setup(32, PolicyPreset::Cppe);
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        for p in (0..16u64).step_by(2) {
            xlat.mark_touched(VirtPage(p));
        }
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        // Memory full → fault on chunk 2 evicts chunk 0 (old partition
        // fallback) and records its pattern.
        d.service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        assert!(!xlat.page_table().is_resident(VirtPage(0)));
        // Fault back on page 0 (matches pattern): only 8 pages migrate.
        let r = d
            .service_batch(&[VirtPage(0)], Cycle(300_000), &mut xlat)
            .unwrap();
        assert_eq!(r.migrated.len(), 8, "pattern-aware partial migration");
        assert!(r.migrated.iter().all(|p| p.0 % 2 == 0));
    }

    #[test]
    fn disable_on_full_migrates_single_pages() {
        let (mut d, mut xlat) = setup(32, PolicyPreset::DisablePfOnFull);
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        let r = d
            .service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        assert_eq!(r.migrated, vec![VirtPage(32)]);
    }

    #[test]
    fn crash_detection_fires_on_wasteful_thrash() {
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 1,
            footprint_pages: 48,
            ..UvmConfig::table1(32, 48)
        };
        let mut d = UvmDriver::new(cfg, PolicyPreset::Baseline.build(0));
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        // Cycle faults over 3 chunks with capacity 2 and never touch the
        // prefetched pages: every evicted chunk is 15/16 untouched, so
        // once the volume arms the detector the run must crash.
        let mut t = 0u64;
        let mut crashed = false;
        for round in 0..64 {
            let page = VirtPage((round % 3) * 16);
            if xlat.page_table().is_resident(page) {
                continue;
            }
            let r = d.service_batch(&[page], Cycle(t), &mut xlat).unwrap();
            t = r.done_at.0 + 1000;
            if r.crashed {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "wasteful thrash must trip the crash detector");
    }

    #[test]
    fn useful_thrash_does_not_crash() {
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 1,
            footprint_pages: 48,
            ..UvmConfig::table1(32, 48)
        };
        let mut d = UvmDriver::new(cfg, PolicyPreset::Baseline.build(0));
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        // Same cyclic fault loop, but every resident page is touched
        // before eviction: untouch fraction stays 0 → no crash, matching
        // SRD-style dense thrash that completes in the paper.
        let mut t = 0u64;
        for round in 0..64u64 {
            let page = VirtPage((round % 3) * 16);
            if xlat.page_table().is_resident(page) {
                continue;
            }
            let r = d.service_batch(&[page], Cycle(t), &mut xlat).unwrap();
            for p in r.migrated {
                xlat.mark_touched(p);
            }
            t = r.done_at.0 + 1000;
            assert!(!r.crashed, "dense thrash must not crash (round {round})");
        }
    }

    #[test]
    fn pcie_traffic_accounted() {
        let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        assert_eq!(d.pcie().bytes_h2d, 3 * 16 * 4096);
        assert_eq!(d.pcie().bytes_d2h, 16 * 4096);
    }

    /// Drive the 3-chunk cyclic wasteful-thrash loop against a 2-chunk
    /// memory; prefetched pages are never touched, so every eviction is
    /// 15/16 untouched. Returns whether the run crashed.
    fn wasteful_thrash(d: &mut UvmDriver, rounds: u64, chunks: u64) -> bool {
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let mut t = 0u64;
        for round in 0..rounds {
            let page = VirtPage((round % chunks) * 16);
            if xlat.page_table().is_resident(page) {
                continue;
            }
            let r = d.service_batch(&[page], Cycle(t), &mut xlat).unwrap();
            t = r.done_at.0 + 1000;
            if r.crashed {
                return true;
            }
        }
        false
    }

    #[test]
    fn crash_detection_disabled_by_fraction_above_one() {
        // untouch can never exceed evictions, so a fraction > 1.0 turns
        // the detector off even under maximally wasteful thrash.
        let cfg = UvmConfig {
            crash_untouch_fraction: 1.5,
            crash_min_evicted_factor: 1,
            footprint_pages: 48,
            ..UvmConfig::table1(32, 48)
        };
        let mut d = UvmDriver::new(cfg, PolicyPreset::Baseline.build(0));
        assert!(!wasteful_thrash(&mut d, 64, 3));
        assert!(!d.crashed());
    }

    #[test]
    fn crash_detection_disabled_by_zero_factor() {
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 0,
            footprint_pages: 48,
            ..UvmConfig::table1(32, 48)
        };
        let mut d = UvmDriver::new(cfg, PolicyPreset::Baseline.build(0));
        assert!(!wasteful_thrash(&mut d, 64, 3));
    }

    #[test]
    fn zero_footprint_disables_detection() {
        // footprint = 0 would make the arming threshold 0 (any eviction
        // arms); the detector treats it as "nothing to thrash against"
        // and stays off — and never divides by a zero footprint.
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 1,
            footprint_pages: 0,
            ..UvmConfig::table1(32, 0)
        };
        let mut d = UvmDriver::new(cfg, PolicyPreset::Baseline.build(0));
        assert!(!wasteful_thrash(&mut d, 64, 3));
    }

    #[test]
    fn invalid_config_reports_typed_error() {
        let good = UvmConfig::table1(32, 48);
        assert!(good.validate().is_ok());
        let e = UvmConfig {
            capacity_pages: 0,
            ..good
        };
        assert!(UvmDriver::try_new(e, PolicyPreset::Baseline.build(0)).is_err());
        let e = UvmConfig {
            pcie_gb_per_s: 0.0,
            ..good
        };
        assert!(matches!(
            UvmDriver::try_new(e, PolicyPreset::Baseline.build(0)),
            Err(UvmError::Config(_))
        ));
        let e = UvmConfig {
            crash_untouch_fraction: f64::NAN,
            ..good
        };
        assert!(e.validate().is_err());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = ResilienceConfig::default();
        assert_eq!(backoff_cycles(&r, 1), 2_000);
        assert_eq!(backoff_cycles(&r, 2), 4_000);
        assert_eq!(backoff_cycles(&r, 3), 8_000);
        assert_eq!(backoff_cycles(&r, 6), 64_000, "hits the cap");
        assert_eq!(backoff_cycles(&r, 60), 64_000, "huge attempt: no overflow");
    }

    #[test]
    fn transient_failures_retry_with_backoff() {
        use sim_core::fault::InjectionConfig;
        let cfg = UvmConfig::table1(256, 1024);
        let inj = FaultInjector::new(InjectionConfig::transient_failures(9, 0.4));
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Baseline.build(7),
            inj,
            ResilienceConfig::default(),
        )
        .unwrap();
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let mut t = 0u64;
        for i in 0..12u64 {
            let r = d
                .service_batch(&[VirtPage(i * 16)], Cycle(t), &mut xlat)
                .unwrap();
            t = r.done_at.0 + 1000;
        }
        assert!(d.stats.retries > 0, "40% failure rate must force retries");
        assert!(d.stats.retry_backoff_cycles > 0);
        assert!(d.injector_stats().transfer_failures >= d.stats.retries);
        // Every fault still completed: retries are transparent.
        assert_eq!(d.stats.faults_serviced, 12);
        assert_eq!(d.stats.migrations_aborted, 0, "budget of 4 always enough");
    }

    #[test]
    fn exhausted_retries_abort_without_mutation() {
        use sim_core::fault::InjectionConfig;
        let cfg = UvmConfig::table1(256, 1024);
        let inj = FaultInjector::new(InjectionConfig::transient_failures(3, 0.9));
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Baseline.build(7),
            inj,
            ResilienceConfig {
                max_transfer_retries: 0, // first failure aborts
                ..ResilienceConfig::default()
            },
        )
        .unwrap();
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let mut t = 0u64;
        let mut saw_abort = false;
        for i in 0..16u64 {
            let free_before = d.free_frames();
            let faults_before = d.engine().stats.faults;
            let page = VirtPage(i * 16);
            let r = d.service_batch(&[page], Cycle(t), &mut xlat).unwrap();
            t = r.done_at.0 + 1000;
            if r.migrated.is_empty() {
                saw_abort = true;
                // Abort-before-mutation: nothing pinned, mapped or
                // evicted, the policy never saw the fault, and the warp
                // got a completion time to replay at.
                assert!(!xlat.page_table().is_resident(page));
                assert_eq!(d.free_frames(), free_before);
                assert_eq!(d.engine().stats.faults, faults_before);
                assert_eq!(r.completions.len(), 1);
                assert!(r.evicted.is_empty());
            }
        }
        assert!(saw_abort, "90% failure with zero retries must abort");
        assert!(d.stats.migrations_aborted > 0);
    }

    #[test]
    fn batch_overflow_splits_and_defers() {
        use sim_core::fault::InjectionConfig;
        let cfg = UvmConfig::table1(256, 1024);
        let inj = FaultInjector::new(InjectionConfig::batch_overflow(0, 2));
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Baseline.build(7),
            inj,
            ResilienceConfig::default(),
        )
        .unwrap();
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let faults: Vec<VirtPage> = (0..5).map(|i| VirtPage(i * 16)).collect();
        let r = d.service_batch(&faults, Cycle::ZERO, &mut xlat).unwrap();
        assert_eq!(r.deferred, faults[2..].to_vec());
        assert_eq!(d.stats.batch_splits, 1);
        assert_eq!(d.stats.deferred_faults, 3);
        assert_eq!(d.stats.faults_serviced, 2, "only the head serviced");
        assert!(xlat.page_table().is_resident(faults[1]));
        assert!(!xlat.page_table().is_resident(faults[2]));
        // Re-queue the tail: the deferred faults complete next round.
        let r2 = d
            .service_batch(&r.deferred, Cycle(50_000), &mut xlat)
            .unwrap();
        assert!(r2.deferred.len() < 3, "tail shrinks every round");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        use sim_core::fault::InjectionConfig;
        let run = |seed: u64| {
            let cfg = UvmConfig::table1(64, 1024);
            let inj = FaultInjector::new(InjectionConfig::combined(seed));
            let mut d = UvmDriver::with_injection(
                cfg,
                PolicyPreset::Baseline.build(7),
                inj,
                ResilienceConfig::default(),
            )
            .unwrap();
            let mut xlat = TranslationPath::new(&TranslationConfig::default());
            let mut t = 0u64;
            let mut timeline = Vec::new();
            for i in 0..24u64 {
                let r = d
                    .service_batch(&[VirtPage((i % 6) * 16)], Cycle(t), &mut xlat)
                    .unwrap();
                t = r.done_at.0 + 1000;
                timeline.push(r.done_at.0);
            }
            (timeline, d.stats.retries, d.stats.migrations_aborted)
        };
        assert_eq!(run(11), run(11), "same seed, same timeline");
        assert_ne!(run(11).0, run(12).0, "different seed, different timeline");
    }

    #[test]
    fn degradation_ladder_sheds_instead_of_crashing() {
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.65,
            crash_min_evicted_factor: 1,
            footprint_pages: 48,
            ..UvmConfig::table1(32, 48)
        };
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Baseline.build(0),
            FaultInjector::disabled(),
            ResilienceConfig::degraded(),
        )
        .unwrap();
        // The exact loop that crashes the plain driver (see
        // crash_detection_fires_on_wasteful_thrash) now survives: the
        // ladder throttles prefetch, then falls back to LRU+nopf-on-full
        // whose single-page migrations are always touched — untouch
        // stops accumulating and the run completes.
        // Six chunks keep the 2-chunk memory oversubscribed even after
        // the throttle shrinks plans to 8 pages (6 × 8 > 32 frames), so
        // wasteful evictions persist into the second trip.
        assert!(
            !wasteful_thrash(&mut d, 512, 6),
            "ladder must prevent the crash"
        );
        assert!(d.degraded());
        assert_eq!(d.sheds(), 2, "both rungs climbed");
        assert_eq!(d.stats.throttle_sheds, 1);
        assert_eq!(d.stats.policy_fallbacks, 1);
        assert!(d.engine().fell_back());
    }

    #[test]
    fn ladder_third_trip_crashes() {
        // White-box: wasteful traffic that persists past both sheds
        // (counters bumped directly) must still crash — degraded mode
        // bounds the retries, it does not mask a genuinely dying run.
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.5,
            crash_min_evicted_factor: 1,
            footprint_pages: 4,
            ..UvmConfig::table1(32, 4)
        };
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Baseline.build(0),
            FaultInjector::disabled(),
            ResilienceConfig::degraded(),
        )
        .unwrap();
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let mut crashed_at = None;
        for trip in 0..3 {
            d.engine_mut().stats.pages_evicted += 100;
            d.engine_mut().stats.total_untouch += 90;
            let r = d
                .service_batch(&[], Cycle(trip * 100_000), &mut xlat)
                .unwrap();
            if r.crashed {
                crashed_at = Some(trip);
                break;
            }
        }
        assert_eq!(crashed_at, Some(2), "sheds twice, crashes on the third");
        assert_eq!(d.sheds(), 2);
    }

    /// Degraded driver over a thrash-then-quiet workload: trip the
    /// ladder twice with white-box counter bumps (as in
    /// `ladder_third_trip_crashes`), then run quiet batches.
    fn ladder_then_quiet(
        resilience: ResilienceConfig,
        tracer: Option<telemetry::Tracer>,
    ) -> UvmDriver {
        let cfg = UvmConfig {
            crash_untouch_fraction: 0.5,
            crash_min_evicted_factor: 1,
            footprint_pages: 4,
            ..UvmConfig::table1(32, 4)
        };
        let mut d = UvmDriver::with_injection(
            cfg,
            PolicyPreset::Cppe.build(0),
            FaultInjector::disabled(),
            resilience,
        )
        .unwrap();
        if let Some(t) = tracer {
            d.set_tracer(t);
        }
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        for trip in 0..2u64 {
            d.engine_mut().stats.pages_evicted += 100;
            d.engine_mut().stats.total_untouch += 90;
            d.service_batch(&[], Cycle(trip * 100_000), &mut xlat)
                .unwrap();
        }
        assert_eq!(d.sheds(), 2, "both rungs climbed");
        for i in 0..4u64 {
            d.service_batch(&[], Cycle(1_000_000 + i * 100_000), &mut xlat)
                .unwrap();
        }
        d
    }

    #[test]
    fn recovery_rearms_after_quiet_period() {
        let d = ladder_then_quiet(ResilienceConfig::degraded_with_recovery(2), None);
        // Quiet batches 2 and 4 each step one rung back up.
        assert_eq!(d.sheds(), 0, "fully recovered");
        assert_eq!(d.stats.rung_recoveries, 2);
        assert!(!d.engine().fell_back(), "original policies re-armed");
        assert_eq!(d.engine().name(), PolicyPreset::Cppe.build(0).name());
        assert_eq!(d.engine().prefetch_throttle(), 1, "throttle released");
        assert!(d.degraded(), "shed history survives recovery");
        assert!(!d.crashed());
    }

    #[test]
    fn recovery_disabled_by_default_quiet_period() {
        let d = ladder_then_quiet(ResilienceConfig::degraded(), None);
        assert_eq!(d.sheds(), 2, "no recovery without a quiet period");
        assert_eq!(d.stats.rung_recoveries, 0);
        assert!(d.engine().fell_back());
    }

    #[test]
    fn rung_transitions_emit_telemetry_both_directions() {
        use telemetry::{TraceConfig, TraceEvent, Tracer};
        let mut d = ladder_then_quiet(
            ResilienceConfig::degraded_with_recovery(2),
            Some(Tracer::new(TraceConfig::on())),
        );
        let t = d.take_telemetry().expect("tracing was on");
        let rungs: Vec<(u32, u32)> = t
            .events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::RungTransition { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rungs,
            vec![(0, 1), (1, 2), (2, 1), (1, 0)],
            "down the ladder, then back up"
        );
        assert!(d.take_telemetry().is_none(), "telemetry is taken once");
    }

    #[test]
    fn traced_run_records_events_and_epochs() {
        use telemetry::{TraceConfig, TraceEvent, Tracer};
        let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
        d.set_tracer(Tracer::new(TraceConfig::on()));
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        let t = d.take_telemetry().unwrap();
        assert_eq!(t.series.rows.len(), 3, "one epoch per batch");
        t.series.parity().expect("counter deltas reconcile");
        assert_eq!(t.series.final_total("driver.batches"), 3);
        assert_eq!(t.series.final_total("cppe.pages_evicted"), 16);
        assert_eq!(
            t.series.final_total("mem.resident_pages"),
            32,
            "memory full after the eviction round-trip"
        );
        let has = |pred: &dyn Fn(&TraceEvent) -> bool| t.events.iter().any(|e| pred(&e.event));
        assert!(has(&|e| matches!(e, TraceEvent::FarFault { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::PrefetchDecision { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::MigrationDma { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::Eviction { .. })));
        assert!(has(&|e| matches!(e, TraceEvent::BatchServiced { .. })));
    }

    #[test]
    fn audited_run_records_decision_provenance() {
        use telemetry::{DecisionKind, TraceConfig, Tracer};
        let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
        d.set_tracer(Tracer::new(TraceConfig::audited()));
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        // Memory full → this batch evicts chunk 0 (LRU) and migrates
        // chunk 2: one eviction decision plus three prefetch decisions.
        d.service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        let t = d.take_telemetry().unwrap();
        let evs: Vec<_> = t
            .decisions
            .iter()
            .filter(|r| r.event.kind == DecisionKind::Eviction)
            .collect();
        let pfs: Vec<_> = t
            .decisions
            .iter()
            .filter(|r| r.event.kind == DecisionKind::Prefetch)
            .collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(pfs.len(), 3, "one per serviced fault");
        let ev = &evs[0].event;
        assert_eq!(ev.policy, "lru");
        assert_eq!(ev.origin, "capacity");
        assert_eq!(ev.rung, 0);
        assert_eq!(ev.chosen, 0, "LRU victim is chunk 0");
        assert!(
            ev.pages.contains(&ev.chosen),
            "victim inside the candidate window"
        );
        assert!(ev.pages.len() <= AUDIT_CANDIDATES);
        let pf = &pfs[2].event;
        assert_eq!(pf.policy, "seq-local");
        assert_eq!(pf.origin, "whole-chunk");
        assert_eq!(pf.chosen, 32);
        assert_eq!(pf.pages.len(), 16, "the exact mapped plan");
        assert!(pf.pages.contains(&32));
        assert_eq!(t.dropped_decisions, 0);
    }

    #[test]
    fn tracing_without_audit_records_no_decisions() {
        use telemetry::{TraceConfig, Tracer};
        let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
        d.set_tracer(Tracer::new(TraceConfig::on()));
        d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(16)], Cycle(100_000), &mut xlat)
            .unwrap();
        d.service_batch(&[VirtPage(32)], Cycle(200_000), &mut xlat)
            .unwrap();
        let t = d.take_telemetry().unwrap();
        assert!(t.decisions.is_empty());
        assert_eq!(t.dropped_decisions, 0);
        assert!(
            !t.series.schema.iter().any(|(n, _)| n.contains("decisions")),
            "audit-off schema must not grow"
        );
    }

    #[test]
    fn oversized_plan_truncated_to_capacity() {
        // Tree prefetcher could plan more than a tiny memory holds.
        let (mut d, mut xlat) = setup(16, PolicyPreset::Baseline);
        let r = d
            .service_batch(&[VirtPage(3)], Cycle::ZERO, &mut xlat)
            .unwrap();
        assert_eq!(r.migrated.len(), 16);
        assert!(r.migrated.contains(&VirtPage(3)));
    }
}
