//! The event loop's one observer.
//!
//! [`crate::simulate`] reports each step of a fault's lifecycle here and
//! nothing else: whether the driver-owned [`Tracer`] records spans and
//! whether the host self-profiler samples the loop is this file's
//! business. Both observers are strictly read-only — a run is
//! bit-identical with either on.
//!
//! Ordering contract (the goldens in `tests/perf_identity.rs` lock it):
//! * span ids are handed out sequentially by the tracer, so every span
//!   opens at the same point of the step as before — fault trees open
//!   before the batch dispatch, whose service spans read them;
//! * the profiler samples queue depths at each note, so a step's note
//!   comes after that step's queue pushes.

use crate::config::GpuConfig;
use crate::sim::Event;
use crate::waiters::WaiterTable;
use gmmu::translation::TranslationTiming;
use gmmu::types::VirtPage;
use sim_core::events::EventQueue;
use sim_core::hostprof::{AllocProfile, HostKind, HostProfile, HostProfiler, DEFAULT_WINDOW};
use sim_core::time::Cycle;
use sim_core::FxHashMap;
use telemetry::{RunTelemetry, SpanId, SpanStage, Tracer};
use uvm::driver::UvmDriver;

/// Lane-side span state plus the host profiler.
pub(crate) struct Probe {
    prof: Option<HostProfiler>,
    tracing: bool,
    warps_per_sm: usize,
    /// Open fault lifecycles, keyed by (page, lane): the FaultTotal root,
    /// its still-open FaultQueueWait child, and the cycle the fault was
    /// raised. A lane blocks while faulting, so at most one entry per
    /// lane exists at a time.
    faults: FxHashMap<(u64, u32), (SpanId, SpanId, u64)>,
    /// Replaying lanes: (root, open Replay span), closed on the next
    /// translate outcome for that lane.
    replays: FxHashMap<u32, (SpanId, SpanId)>,
}

impl Probe {
    /// Arm `driver` with `cfg`'s tracer and start the profiler if asked.
    pub(crate) fn new(cfg: &GpuConfig, driver: &mut UvmDriver) -> Probe {
        driver.set_tracer(Tracer::new(cfg.trace));
        Probe {
            prof: cfg
                .hostprof
                .then(|| HostProfiler::new(DEFAULT_WINDOW, cfg.sms)),
            tracing: driver.tracer_mut().enabled(),
            warps_per_sm: cfg.warps_per_sm,
            faults: FxHashMap::default(),
            replays: FxHashMap::default(),
        }
    }

    fn sm(&self, lane: u32) -> u16 {
        (lane as usize / self.warps_per_sm) as u16
    }

    /// One dispatched event of `kind` at `now`. A batch dispatch is
    /// driver-side (serial) work for the cohort model, so it carries no
    /// SM; every other kind stays attributed to `sm`.
    #[inline]
    pub(crate) fn note(
        &mut self,
        q: &EventQueue<Event>,
        kind: HostKind,
        now: u64,
        sm: Option<u16>,
        page: Option<u64>,
    ) {
        if let Some(p) = self.prof.as_mut() {
            let sm = sm.filter(|_| kind != HostKind::BatchDispatch);
            p.note(kind, now, sm, page, q.ring_len(), q.far_len());
        }
    }

    /// `lane`'s access to `page` hit. At a streak head `replay_end`
    /// carries the translation's ready time, which ends a replaying
    /// lane's fault lifecycle.
    #[inline]
    pub(crate) fn hit(
        &mut self,
        tr: &mut Tracer,
        q: &EventQueue<Event>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        replay_end: Option<Cycle>,
    ) {
        if let (true, Some(end)) = (self.tracing, replay_end) {
            if let Some((root, replay)) = self.replays.remove(&lane) {
                tr.span_close(replay, end.0);
                tr.span_close(root, end.0);
            }
        }
        if self.prof.is_some() {
            let sm = self.sm(lane);
            self.note(q, HostKind::AccessHit, now.0, Some(sm), Some(page.0));
        }
    }

    /// `lane`'s access to `page`, issued at `now`, faulted at `at`: open
    /// its fault tree (translation stages, then the queue wait). A
    /// replaying lane that faults again (page evicted or its migration
    /// aborted) ends the old lifecycle at the re-issue first.
    pub(crate) fn fault(
        &mut self,
        tr: &mut Tracer,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        if !self.tracing {
            return;
        }
        if let Some((root, replay)) = self.replays.remove(&lane) {
            tr.span_close(replay, now.0);
            tr.span_close(root, now.0);
        }
        let (sm, page) = (self.sm(lane), page.0);
        let root = tr.span_open(SpanStage::FaultTotal, now.0, SpanId::NONE, sm, lane, page);
        for (stage, start, end) in [
            (SpanStage::TlbL1, now, timing.l1_done),
            (SpanStage::TlbL2, timing.l1_done, timing.l2_done),
            (SpanStage::WalkerQueue, timing.l2_done, timing.walk_started),
            (SpanStage::PageWalk, timing.walk_started, at),
        ] {
            tr.span(stage, start.0, end.0, root, sm, lane, page);
        }
        let queue_wait = tr.span_open(SpanStage::FaultQueueWait, at.0, root, sm, lane, page);
        self.faults.insert((page, lane), (root, queue_wait, at.0));
    }

    /// A batch dispatched at `dispatch` completed `completions`: close
    /// the queue wait of every lane waiting on those pages and hang its
    /// batch-service span off the fault root. A page may appear in
    /// `completions` more than once (a coalesced duplicate and its
    /// serviced original carry different times); the waiters wake at the
    /// *earliest* completion, so that is the service end — keeping replay
    /// contiguous with batch service and one service span per lifecycle.
    pub(crate) fn batch(
        &self,
        tr: &mut Tracer,
        completions: &[(VirtPage, Cycle)],
        waiting: &WaiterTable,
        dispatch: Cycle,
    ) {
        if !self.tracing {
            return;
        }
        let mut ready = std::collections::BTreeMap::<VirtPage, Cycle>::new();
        for &(page, t_done) in completions {
            ready
                .entry(page)
                .and_modify(|t| *t = (*t).min(t_done))
                .or_insert(t_done);
        }
        for (page, t_done) in ready {
            for lane in waiting.lanes(page) {
                let Some(&(root, queue_wait, fault_at)) = self.faults.get(&(page.0, lane)) else {
                    continue;
                };
                // A queued fault can be dispatched before its own walk
                // resolves (the queue admits it at issue, not at walk
                // completion); service begins no earlier than the fault
                // itself, keeping the stage segments contiguous.
                let service_start = dispatch.0.max(fault_at);
                if tr.span_close(queue_wait, service_start) {
                    let (stage, sm) = (SpanStage::BatchService, self.sm(lane));
                    tr.span(stage, service_start, t_done.0, root, sm, lane, page.0);
                }
            }
        }
    }

    /// `page` landed at `now` and `lane`, waiting on it, replays. A lane
    /// whose own fault never made a batch (another lane's did) waits
    /// until the shared page lands.
    #[inline]
    pub(crate) fn replay(&mut self, tr: &mut Tracer, page: VirtPage, lane: u32, now: Cycle) {
        if !self.tracing {
            return;
        }
        if let Some((root, queue_wait, _)) = self.faults.remove(&(page.0, lane)) {
            tr.span_close(queue_wait, now.0);
            let sm = self.sm(lane);
            let replay = tr.span_open(SpanStage::Replay, now.0, root, sm, lane, page.0);
            self.replays.insert(lane, (root, replay));
        }
    }

    /// End of run: the driver's telemetry, and the host profile with the
    /// waiter slab's and driver scratch pool's zero-alloc counters.
    pub(crate) fn finish(
        self,
        q: &EventQueue<Event>,
        waiting: &WaiterTable,
        driver: &mut UvmDriver,
    ) -> (Option<RunTelemetry>, Option<HostProfile>) {
        let hostprof = self.prof.map(|p| {
            let (waiter_reuses, waiter_grows) = waiting.alloc_stats();
            let (scratch_recycled, scratch_fresh) = driver.scratch_stats();
            p.finish(
                q.ring_len(),
                q.far_len(),
                AllocProfile {
                    waiter_reuses,
                    waiter_grows,
                    waiter_high_water: waiting.high_water() as u64,
                    scratch_recycled,
                    scratch_fresh,
                },
            )
        });
        (driver.take_telemetry(), hostprof)
    }
}
