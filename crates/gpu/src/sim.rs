//! The event-driven whole-GPU simulator.
//!
//! [`simulate`] replays per-lane access streams against the full stack:
//! translation (L1 TLB → L2 TLB → walker), data caches, and the UVM
//! driver with its prefetch/eviction policies. Lanes are independent
//! warp slots; a lane that takes a far fault blocks until the batch
//! containing its fault completes (replayable far faults — the other
//! lanes keep running), then *replays* the access.
//!
//! Faults arriving while the driver is busy accumulate and are serviced
//! as one batch when the driver frees up — the natural batching that
//! amortizes the 20 µs host round-trip and that prefetching multiplies.

use crate::cache::DataHierarchy;
use crate::config::GpuConfig;
use crate::probe::Probe;
use cppe::engine::{EngineStats, OverheadSnapshot, PolicyEngine};
use cppe::evict::MhpeTrace;
use gmmu::translation::{TranslationOutcome, TranslationPath, TranslationStats};
use gmmu::types::{SmId, VirtPage};
use sim_core::events::EventQueue;
use sim_core::fault::{FaultInjector, InjectionStats};
use sim_core::hostprof::{HostKind, HostProfile};
use sim_core::rng::Xoshiro256ss;
use sim_core::time::Cycle;
use uvm::driver::{DriverStats, UvmConfig, UvmDriver};
use workloads::{AccessStep, LaneItem};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every lane drained its stream.
    Completed,
    /// Every lane drained its stream, but only after the driver's
    /// degradation ladder shed prefetch aggressiveness (and possibly
    /// fell back to the baseline policy pair) to escape thrash.
    Degraded,
    /// Thrash-death (Fig. 4's MVT/BIC behaviour).
    Crashed,
    /// Hit the `max_cycles` safety stop.
    Timeout,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Total execution time in GPU cycles (the paper's performance
    /// metric; speedup = baseline cycles / policy cycles).
    pub cycles: u64,
    /// Accesses completed.
    pub accesses: u64,
    /// Policy-engine counters (faults, migrations, evictions, untouch).
    pub engine: EngineStats,
    /// Driver counters (batches, serviced/coalesced faults).
    pub driver: DriverStats,
    /// TLB/walker counters.
    pub translation: TranslationStats,
    /// Host→device bytes.
    pub bytes_h2d: u64,
    /// Device→host bytes.
    pub bytes_d2h: u64,
    /// Wrong evictions (policies with buffers).
    pub wrong_evictions: u64,
    /// §VI-C structure sizes.
    pub overhead: OverheadSnapshot,
    /// MHPE's per-interval untouch trace etc., when MHPE was the policy.
    pub mhpe: Option<MhpeTrace>,
    /// Pattern-buffer length at end of run (0 for bufferless).
    pub pattern_buffer_len: usize,
    /// GPU memory capacity the run was given, in frames.
    pub frames_capacity: u32,
    /// Free frames at end of run (leak check: capacity − free must
    /// equal `resident_pages`).
    pub frames_free: u32,
    /// Resident pages at end of run.
    pub resident_pages: u64,
    /// What the fault injector actually fired during the run.
    pub injection: InjectionStats,
    /// Service-path error that ended the run, if any (the run is
    /// reported as crashed rather than panicking the process).
    pub error: Option<String>,
    /// Recorded telemetry: typed event trace plus the per-batch metrics
    /// epoch series. `None` unless `GpuConfig::trace` enabled it.
    pub telemetry: Option<telemetry::RunTelemetry>,
    /// Host-side self-profile: wall-clock attribution per event kind,
    /// queue-depth histograms, zero-alloc counters and the cohort
    /// analyzer's Amdahl ceilings. `None` unless `GpuConfig::hostprof`.
    pub hostprof: Option<HostProfile>,
}

impl RunResult {
    /// True when the run finished normally.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Completed
    }

    /// True when every lane drained its stream, degraded or not.
    #[must_use]
    pub fn survived(&self) -> bool {
        matches!(self.outcome, Outcome::Completed | Outcome::Degraded)
    }

    /// A synthetic result for a cell whose *worker* failed — a panic
    /// caught by the sweep executor, or a lease that expired past its
    /// retry budget — as opposed to a simulation that ran and thrashed
    /// to death. All counters are zero; `outcome` is [`Outcome::Crashed`]
    /// and `error` carries the failure, so the cell shows up as an 'X'
    /// in reports instead of silently vanishing from the result map.
    #[must_use]
    pub fn failed(error: impl Into<String>) -> RunResult {
        RunResult {
            outcome: Outcome::Crashed,
            cycles: 0,
            accesses: 0,
            engine: EngineStats::default(),
            driver: DriverStats::default(),
            translation: TranslationStats::default(),
            bytes_h2d: 0,
            bytes_d2h: 0,
            wrong_evictions: 0,
            overhead: OverheadSnapshot::default(),
            mhpe: None,
            pattern_buffer_len: 0,
            frames_capacity: 0,
            frames_free: 0,
            resident_pages: 0,
            injection: InjectionStats::default(),
            error: Some(error.into()),
            telemetry: None,
            hostprof: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    LaneReady(u32),
    /// The migration for this faulted page completed; its waiters replay.
    PageReady(VirtPage),
    /// The host driver finished processing the current batch.
    DriverFree,
}

/// Longest run of consecutive accesses one lane may execute inline
/// before the fast lane forcibly round-trips through the event queue.
/// Purely a fairness/bounds guard — the hazard check alone guarantees
/// bit-identity — sized so a streak never starves the far heap's
/// `drain_far` migration for long.
const MAX_STREAK: u32 = 128;

/// How a batch dispatch ended, from [`dispatch_batch`].
enum BatchEnd {
    /// Completions and the driver-free event are queued.
    Ok,
    /// Thrash-death: the run ends at the carried cycle.
    Crashed(Cycle),
    /// Service-path error: the run ends as crashed with this message.
    Error(String),
}

/// Dispatch the accumulated fault batch to the host driver and queue
/// its completions. Shared by the fault arm (driver idle at fault time)
/// and the `DriverFree` arm (faults accumulated while busy) — the two
/// call sites were near-verbatim duplicates before the fast-lane
/// refactor.
#[allow(clippy::too_many_arguments)]
fn dispatch_batch(
    dispatch: Cycle,
    driver: &mut UvmDriver,
    xlat: &mut TranslationPath,
    caches: &mut DataHierarchy,
    q: &mut EventQueue<Event>,
    waiting: &crate::waiters::WaiterTable,
    probe: &Probe,
    pending_faults: &mut Vec<VirtPage>,
    batch_buf: &mut Vec<VirtPage>,
) -> BatchEnd {
    std::mem::swap(pending_faults, batch_buf);
    let r = match driver.service_batch(batch_buf, dispatch, xlat) {
        Ok(r) => r,
        Err(e) => return BatchEnd::Error(e.to_string()),
    };
    batch_buf.clear();
    if r.crashed {
        return BatchEnd::Crashed(r.done_at);
    }
    probe.batch(driver.tracer_mut(), &r.completions, waiting, dispatch);
    // Overflow tail (injected queue-depth limit): re-queue for the next
    // batch.
    pending_faults.extend_from_slice(&r.deferred);
    for &p in &r.evicted {
        caches.invalidate(p);
    }
    for &(page, t) in &r.completions {
        q.push(t, Event::PageReady(page));
    }
    q.push(r.host_done, Event::DriverFree);
    driver.recycle(r);
    BatchEnd::Ok
}

/// Run plain access streams (no barriers) — convenience wrapper around
/// [`simulate`].
#[must_use]
pub fn simulate_accesses(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<AccessStep>],
    capacity_pages: u32,
    footprint_pages: u64,
) -> RunResult {
    let items: Vec<Vec<LaneItem>> = streams
        .iter()
        .map(|s| s.iter().map(|&a| LaneItem::Access(a)).collect())
        .collect();
    simulate(cfg, engine, &items, capacity_pages, footprint_pages)
}

/// Run `streams` (one per lane, with optional kernel-launch barriers)
/// through the simulator.
///
/// `capacity_pages` sizes GPU memory (the oversubscription knob);
/// `footprint_pages` calibrates crash detection.
///
/// # Panics
/// Panics if `streams` is longer than `cfg.lanes()`, if the
/// configuration is invalid (pre-check with `GpuConfig::validate`), or
/// if lanes carry inconsistent barrier structure that would deadlock (a
/// lane ending before a barrier other lanes wait on). Service-path
/// errors never panic: they end the run with `RunResult::error` set.
#[must_use]
pub fn simulate(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity_pages: u32,
    footprint_pages: u64,
) -> RunResult {
    assert!(
        streams.len() <= cfg.lanes(),
        "{} streams for {} lanes",
        streams.len(),
        cfg.lanes()
    );
    // Barrier b releases when every lane that ever reaches a b-th
    // barrier has arrived.
    let mut participants: Vec<usize> = Vec::new();
    for s in streams {
        let n = s.iter().filter(|i| matches!(i, LaneItem::Barrier)).count();
        if participants.len() < n {
            participants.resize(n, 0);
        }
        for p in participants.iter_mut().take(n) {
            *p += 1;
        }
    }
    let mut arrivals = vec![0usize; participants.len()];
    let mut waiters: Vec<Vec<u32>> = vec![Vec::new(); participants.len()];
    let mut lane_barrier_idx = vec![0usize; streams.len()];
    let mut jitter: Vec<Xoshiro256ss> = (0..streams.len())
        .map(|l| Xoshiro256ss::new(cfg.jitter_seed ^ (l as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut xlat = TranslationPath::new(&cfg.translation);
    let mut driver = UvmDriver::with_injection(
        UvmConfig {
            capacity_pages,
            fault_base_cycles: cfg.fault_base_cycles,
            per_fault_cycles: cfg.per_fault_cycles,
            pcie_gb_per_s: cfg.pcie_gb_per_s,
            crash_untouch_fraction: cfg.crash_untouch_fraction,
            crash_min_evicted_factor: cfg.crash_min_evicted_factor,
            footprint_pages,
        },
        engine,
        FaultInjector::new(cfg.injection),
        cfg.resilience,
    )
    .expect("invalid GPU/UVM configuration — pre-check with GpuConfig::validate");
    let mut probe = Probe::new(cfg, &mut driver);
    let mut caches = DataHierarchy::new(cfg.sms);
    let mut q: EventQueue<Event> = EventQueue::new();
    let mut idx = vec![0usize; streams.len()];
    let mut accesses = 0u64;

    for (lane, s) in streams.iter().enumerate() {
        if !s.is_empty() {
            q.push(Cycle::ZERO, Event::LaneReady(lane as u32));
        }
    }

    let mut pending_faults: Vec<VirtPage> = Vec::new();
    // Double buffer for batch dispatch: faults accumulating for the
    // *next* batch swap into here, so dispatching never re-allocates.
    let mut batch_buf: Vec<VirtPage> = Vec::new();
    let mut waiting = crate::waiters::WaiterTable::new();
    let mut driver_busy = false;
    let mut outcome = Outcome::Completed;
    let mut end = Cycle::ZERO;
    let mut error: Option<String> = None;
    let fast_lane = cfg.fast_lane;
    // Reused scratch for same-cycle lane wakes (PageReady bulk push).
    let mut wake_buf: Vec<Event> = Vec::new();

    'main: while let Some((now, ev)) = q.pop() {
        end = now;
        if now.0 > cfg.max_cycles {
            outcome = Outcome::Timeout;
            break;
        }
        match ev {
            Event::LaneReady(lane) => {
                let l = lane as usize;
                let stream = &streams[l];
                let sm16 = (l / cfg.warps_per_sm) as u16;
                if idx[l] >= stream.len() {
                    probe.note(&q, HostKind::LaneDrained, now.0, Some(sm16), None);
                    continue; // lane drained; no further events
                }
                let step = match stream[idx[l]] {
                    LaneItem::Barrier => {
                        let b = lane_barrier_idx[l];
                        lane_barrier_idx[l] += 1;
                        idx[l] += 1;
                        arrivals[b] += 1;
                        if arrivals[b] == participants[b] {
                            // Kernel relaunch: everyone proceeds after
                            // the launch overhead — all at the same
                            // cycle, so one bulk push.
                            let resume = now.after(cfg.launch_overhead_cycles);
                            q.push_n(
                                resume,
                                waiters[b]
                                    .drain(..)
                                    .chain(std::iter::once(lane))
                                    .map(Event::LaneReady),
                            );
                        } else {
                            waiters[b].push(lane);
                        }
                        probe.note(&q, HostKind::Barrier, now.0, Some(sm16), None);
                        continue;
                    }
                    LaneItem::Access(step) => step,
                };
                let sm = SmId(sm16);
                // Hit-path fast lane. The first iteration handles the
                // event just popped; afterwards, while the lane's next
                // access is a provable hit and no other event can fire
                // first, keep executing inline (run-ahead) instead of
                // round-tripping each access through the queue.
                let mut now = now;
                let mut step = step;
                let mut streak = 0u32;
                loop {
                    let (out, timing) = xlat.translate_timed(sm, step.page, now);
                    match out {
                        TranslationOutcome::Hit { ready_at, .. } => {
                            xlat.mark_touched(step.page);
                            let dlat = caches.access(sm.idx(), step.page, now);
                            idx[l] += 1;
                            accesses += 1;
                            let compute = if cfg.compute_jitter > 0.0 {
                                let f = 1.0 - cfg.compute_jitter
                                    + 2.0 * cfg.compute_jitter * jitter[l].gen_f64();
                                (f64::from(step.compute) * f) as u64
                            } else {
                                u64::from(step.compute)
                            };
                            let wake = ready_at.after(dlat + compute);
                            // Run-ahead hazard check — all must hold, or
                            // we fall back to the one-event-per-access
                            // round trip:
                            //  * the next item is an access to a resident
                            //    page (the walker faults exactly on
                            //    non-residency, so this predicts a hit);
                            //  * no pending event fires at or before
                            //    `wake` (a same-cycle event queued earlier
                            //    would pop first, hence strictly-greater);
                            //  * `wake` respects the timeout guard;
                            //  * the streak is bounded.
                            let run_ahead = fast_lane
                                && streak < MAX_STREAK
                                && wake.0 <= cfg.max_cycles
                                && matches!(
                                    stream.get(idx[l]),
                                    Some(LaneItem::Access(n))
                                        if xlat.page_table().is_resident(n.page)
                                )
                                && q.peek_time().is_none_or(|t| t > wake);
                            // Only the streak head can be a replay
                            // (replays wake through the queue).
                            let replay_end = (streak == 0).then_some(ready_at);
                            if run_ahead {
                                let tr = driver.tracer_mut();
                                probe.hit(tr, &q, lane, step.page, now, replay_end);
                                end = wake;
                                now = wake;
                                streak += 1;
                                step = match stream[idx[l]] {
                                    LaneItem::Access(s) => s,
                                    LaneItem::Barrier => {
                                        unreachable!("hazard check admits accesses only")
                                    }
                                };
                                continue;
                            }
                            q.push(wake, Event::LaneReady(lane));
                            probe.hit(driver.tracer_mut(), &q, lane, step.page, now, replay_end);
                            break;
                        }
                        TranslationOutcome::Fault { at } => {
                            probe.fault(driver.tracer_mut(), lane, step.page, now, &timing, at);
                            pending_faults.push(step.page);
                            waiting.push(step.page, lane);
                            let mut kind = HostKind::FaultQueued;
                            if !driver_busy {
                                kind = HostKind::BatchDispatch;
                                driver_busy = true;
                                match dispatch_batch(
                                    at,
                                    &mut driver,
                                    &mut xlat,
                                    &mut caches,
                                    &mut q,
                                    &waiting,
                                    &probe,
                                    &mut pending_faults,
                                    &mut batch_buf,
                                ) {
                                    BatchEnd::Ok => {}
                                    BatchEnd::Crashed(done) => {
                                        outcome = Outcome::Crashed;
                                        end = done;
                                        break 'main;
                                    }
                                    BatchEnd::Error(e) => {
                                        error = Some(e);
                                        outcome = Outcome::Crashed;
                                        break 'main;
                                    }
                                }
                            }
                            probe.note(&q, kind, now.0, Some(sm.0), Some(step.page.0));
                            break;
                        }
                    }
                }
            }
            Event::PageReady(page) => {
                // Lanes that faulted on this page replay now; lanes that
                // faulted on sibling pages of the same chunk were given
                // their own completions by the driver. The wakes are all
                // same-cycle, so they collect into one bulk push.
                wake_buf.clear();
                waiting.take(page, |lane| {
                    probe.replay(driver.tracer_mut(), page, lane, now);
                    wake_buf.push(Event::LaneReady(lane));
                });
                q.push_n(now, wake_buf.drain(..));
                probe.note(&q, HostKind::PageReady, now.0, None, Some(page.0));
            }
            Event::DriverFree => {
                driver_busy = false;
                let dispatched = !pending_faults.is_empty();
                // Faults queued while the host was busy form the next
                // batch immediately — the natural batching that
                // amortizes the far-fault round trip.
                if dispatched {
                    driver_busy = true;
                    match dispatch_batch(
                        now,
                        &mut driver,
                        &mut xlat,
                        &mut caches,
                        &mut q,
                        &waiting,
                        &probe,
                        &mut pending_faults,
                        &mut batch_buf,
                    ) {
                        BatchEnd::Ok => {}
                        BatchEnd::Crashed(done) => {
                            outcome = Outcome::Crashed;
                            end = done;
                            break;
                        }
                        BatchEnd::Error(e) => {
                            error = Some(e);
                            outcome = Outcome::Crashed;
                            break;
                        }
                    }
                }
                let kind = if dispatched {
                    HostKind::BatchDispatch
                } else {
                    HostKind::DriverIdle
                };
                probe.note(&q, kind, now.0, None, None);
            }
        }
    }

    let (run_telemetry, hostprof) = probe.finish(&q, &waiting, &mut driver);

    if outcome == Outcome::Completed && driver.degraded() {
        outcome = Outcome::Degraded;
    }

    let translation = xlat.stats();
    let bytes_h2d = driver.pcie().bytes_h2d;
    let bytes_d2h = driver.pcie().bytes_d2h;
    let frames_free = driver.free_frames();
    let injection = driver.injector_stats();
    let mhpe = engine_trace(&mut driver);
    let engine = driver.engine();
    RunResult {
        outcome,
        cycles: end.0,
        accesses,
        engine: engine.stats,
        driver: driver.stats,
        translation,
        bytes_h2d,
        bytes_d2h,
        wrong_evictions: engine.wrong_evictions(),
        overhead: engine.overhead(),
        mhpe,
        pattern_buffer_len: engine.overhead().pattern_buffer_max,
        frames_capacity: capacity_pages,
        frames_free,
        resident_pages: xlat.page_table().resident_count() as u64,
        injection,
        error,
        telemetry: run_telemetry,
        hostprof,
    }
}

fn engine_trace(driver: &mut UvmDriver) -> Option<MhpeTrace> {
    driver.engine_mut().evict_policy_mut().mhpe_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppe::presets::PolicyPreset;

    fn seq_stream(pages: u64, passes: u32, compute: u32) -> Vec<AccessStep> {
        let mut s = Vec::new();
        for _ in 0..passes {
            for p in 0..pages {
                s.push(AccessStep {
                    page: VirtPage(p),
                    compute,
                });
            }
        }
        s
    }

    fn tiny_cfg() -> GpuConfig {
        GpuConfig {
            sms: 2,
            warps_per_sm: 2,
            ..GpuConfig::default()
        }
    }

    #[test]
    fn streaming_run_completes_without_evictions() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 1, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 64);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 64);
        assert_eq!(r.engine.chunk_evictions, 0);
        // 64 pages = 4 chunks = 4 faults with whole-chunk prefetch.
        assert_eq!(r.driver.faults_serviced, 4);
        assert!(r.cycles > 0);
    }

    #[test]
    fn prefetch_reduces_faults() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 1, 100)];
        let with_pf = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 64);
        let no_pf = simulate_accesses(&cfg, PolicyPreset::LruNoPf.build(0), &streams, 128, 64);
        assert_eq!(with_pf.driver.faults_serviced, 4);
        assert_eq!(no_pf.driver.faults_serviced, 64);
        assert!(
            with_pf.cycles < no_pf.cycles,
            "prefetching must speed up streaming: {} vs {}",
            with_pf.cycles,
            no_pf.cycles
        );
    }

    #[test]
    fn oversubscription_causes_evictions() {
        let cfg = tiny_cfg();
        // 128-page working set, 64-page memory, two passes.
        let streams = vec![seq_stream(128, 2, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 128);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.engine.chunk_evictions > 0);
        assert!(r.bytes_d2h > 0);
    }

    #[test]
    fn cyclic_thrash_mru_beats_lru() {
        // The core claim of the paper, in miniature: cyclic sweeps over
        // an oversubscribed range favour MRU-family eviction (CPPE).
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(512, 6, 100)];
        let lru = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 512);
        let cppe = simulate_accesses(&cfg, PolicyPreset::Cppe.build(0), &streams, 256, 512);
        assert_eq!(lru.outcome, Outcome::Completed);
        assert_eq!(cppe.outcome, Outcome::Completed);
        assert!(
            cppe.cycles < lru.cycles,
            "CPPE {} should beat LRU {} on thrash",
            cppe.cycles,
            lru.cycles
        );
        assert!(cppe.engine.chunk_evictions < lru.engine.chunk_evictions);
    }

    #[test]
    fn multiple_lanes_share_the_gpu() {
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|l| {
                (0..32u64)
                    .map(|p| AccessStep {
                        page: VirtPage(l * 32 + p),
                        compute: 100,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 128);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 128);
    }

    #[test]
    fn fault_batching_amortizes() {
        // 4 lanes faulting on 4 different chunks at t=0: the first fault
        // dispatches alone, the rest batch.
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|l| {
                vec![AccessStep {
                    page: VirtPage(l * 16),
                    compute: 0,
                }]
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 64);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.driver.batches <= 2, "got {} batches", r.driver.batches);
        assert_eq!(r.driver.faults_serviced, 4);
    }

    #[test]
    fn mhpe_trace_surfaces_for_cppe() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(256, 3, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Cppe.build(0), &streams, 128, 256);
        assert!(r.mhpe.is_some());
        let baseline = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 256);
        assert!(baseline.mhpe.is_none());
    }

    #[test]
    fn timeout_guard_fires() {
        let cfg = GpuConfig {
            max_cycles: 50_000,
            ..tiny_cfg()
        };
        let streams = vec![seq_stream(512, 10, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 512);
        assert_eq!(r.outcome, Outcome::Timeout);
    }

    #[test]
    fn empty_streams_complete_instantly() {
        let cfg = tiny_cfg();
        let r = simulate_accesses(
            &cfg,
            PolicyPreset::Baseline.build(0),
            &[vec![], vec![]],
            64,
            64,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn multiple_lanes_waiting_on_one_page_all_wake() {
        // Four lanes fault on the same page at t=0; a single batch
        // services it and every lane proceeds.
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|_| {
                vec![AccessStep {
                    page: VirtPage(3),
                    compute: 10,
                }]
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 16);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 4);
        // One distinct fault serviced; the rest coalesced or replayed as hits.
        assert_eq!(r.driver.faults_serviced, 1);
    }

    #[test]
    fn tracing_attaches_telemetry_with_one_epoch_per_batch() {
        let cfg = GpuConfig {
            trace: telemetry::TraceConfig::on(),
            ..tiny_cfg()
        };
        let streams = vec![seq_stream(128, 2, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 128);
        let t = r.telemetry.as_ref().expect("tracing was on");
        assert_eq!(t.series.rows.len() as u64, r.driver.batches);
        t.series.parity().expect("counter deltas reconcile");
        assert!(t.series.rows.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let resident = t.series.index_of("mem.resident_pages").unwrap();
        assert!(t.series.rows.iter().all(|row| row.totals[resident] <= 64));
        assert_eq!(t.series.final_total("driver.batches"), r.driver.batches);
        assert_eq!(
            t.series.final_total("cppe.pages_migrated"),
            r.engine.pages_migrated
        );
        assert!(!t.events.is_empty());

        let off = simulate_accesses(
            &tiny_cfg(),
            PolicyPreset::Baseline.build(0),
            &streams,
            64,
            128,
        );
        assert!(off.telemetry.is_none(), "no telemetry unless asked");
    }

    #[test]
    fn zero_compute_streams_terminate() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 2, 0)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 32, 64);
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn hostprof_records_without_perturbing_the_run() {
        let cfg = GpuConfig {
            hostprof: true,
            ..tiny_cfg()
        };
        let streams = vec![seq_stream(256, 3, 100)];
        let on = simulate_accesses(&cfg, PolicyPreset::Cppe.build(7), &streams, 128, 256);
        let off = simulate_accesses(&tiny_cfg(), PolicyPreset::Cppe.build(7), &streams, 128, 256);
        assert!(off.hostprof.is_none(), "profiling is opt-in");
        // Bit-identical simulated results with profiling on.
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.engine.chunk_evictions, off.engine.chunk_evictions);
        assert_eq!(on.driver.batches, off.driver.batches);

        let p = on.hostprof.expect("profiling was on");
        assert!(p.events > 0);
        assert_eq!(p.counts.iter().sum::<u64>(), p.events);
        assert_eq!(p.cohorts.events, p.events, "every event joins a cohort");
        assert!(p.cohorts.cycles > 0);
        assert!(p.cohorts.cohort_size.count() == p.cohorts.cycles);
        // Attribution never exceeds the measured loop wall, and batched
        // sampling keeps the attributed share high.
        assert!(p.attributed_ns() <= p.loop_wall_ns);
        assert!(
            p.attributed_share() > 0.90,
            "share {}",
            p.attributed_share()
        );
        // One batch dispatch per driver batch.
        assert_eq!(
            p.counts[HostKind::BatchDispatch as usize],
            on.driver.batches
        );
        // The zero-alloc counters came through.
        assert_eq!(
            p.alloc.scratch_recycled + p.alloc.scratch_fresh,
            on.driver.batches
        );
        assert!(p.alloc.waiter_high_water > 0);
        // Queue-depth histograms sampled at every flush.
        assert_eq!(p.ring_depth.count(), p.instant_samples);
        // Speedup ceilings are sane: 1 ≤ ceiling(2) ≤ ceiling(∞).
        let c2 = p.cohorts.ceiling_at(2).unwrap();
        assert!(c2 >= 1.0);
        assert!(p.cohorts.ceiling_inf() >= c2 - 1e-9);
    }

    #[test]
    fn hostprof_profile_is_deterministic_in_counts() {
        // Wall times vary run to run; dispatch counts and cohort
        // reductions must not.
        let cfg = GpuConfig {
            hostprof: true,
            ..tiny_cfg()
        };
        let streams = vec![seq_stream(128, 2, 50)];
        let a = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 128);
        let b = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 128);
        let (pa, pb) = (a.hostprof.unwrap(), b.hostprof.unwrap());
        assert_eq!(pa.counts, pb.counts);
        assert_eq!(pa.cohorts.events, pb.cohorts.events);
        assert_eq!(pa.cohorts.span, pb.cohorts.span);
        assert_eq!(pa.cohorts.conflict_events, pb.cohorts.conflict_events);
        assert_eq!(pa.alloc, pb.alloc);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(256, 3, 100)];
        let a = simulate_accesses(&cfg, PolicyPreset::Cppe.build(7), &streams, 128, 256);
        let b = simulate_accesses(&cfg, PolicyPreset::Cppe.build(7), &streams, 128, 256);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.engine.chunk_evictions, b.engine.chunk_evictions);
    }
}
