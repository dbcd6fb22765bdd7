//! The traced run: per-layer metrics.
//!
//! Host times come from calls into each layer's public functions made
//! by the benchmark itself, each recorded as a span (name, start, end,
//! parent, cell). The event-loop split comes from the simulator's own
//! read-only host profiler, and every count, rate and simulated-cycle
//! figure is exact: it comes from `RunResult` and repeats from run to
//! run. Spans stay in memory and are written to
//! `out/spans-<workload>-<seed>.jsonl` when the run ends.

use crate::check::Checker;
use crate::context::{metric, Metric};
use crate::suite::{self, nanos, Call, Inputs, Workload};
use gmmu::page_table::PageTable;
use gmmu::translation::{TranslationOutcome, TranslationPath};
use gmmu::types::{Frame, SmId, VirtPage, PAGES_PER_CHUNK};
use gpu::{GpuConfig, RunResult};
use harness::sweep::{CellKey, Job};
use harness::{capacity_pages, ExpConfig};
use sim_core::hostprof::{HostKind, KIND_COUNT, KIND_LABELS};
use sim_core::{Cycle, EventQueue, FxHashSet, TouchVec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use telemetry::attr::LatencyAttribution;
use telemetry::span::{SpanRecord, SpanStage};
use telemetry::TraceConfig;
use uvm::driver::{UvmConfig, UvmDriver};
use workloads::LaneItem;

/// One recorded span of host time.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cell: Option<usize>,
}

/// In-memory span log, relative to the run's start.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let at = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(name, now, now, parent, None)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    fn add_calls(&mut self, calls: &[Call], parent: usize) {
        for c in calls {
            self.add(c.layer, c.start, c.end, Some(parent), c.cell);
        }
    }

    /// Time `f` as a span under `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.add(name, start, Instant::now(), parent, None);
        (out, id)
    }

    fn ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Per span name: (count, total ns, self ns), where self time is a
    /// span's duration minus the durations of its children.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child);
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            text.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.cell)
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// One untimed pass's results with its span.
struct Pass {
    results: BTreeMap<CellKey, RunResult>,
    span: usize,
    sim_ns: u64,
}

fn pass(
    spans: &mut Spans,
    root: usize,
    jobs: &[Job],
    cfg: &ExpConfig,
    gpu: &GpuConfig,
    inputs: &mut Inputs,
    checker: &mut Checker,
) -> Pass {
    inputs.engines = suite::build_engines(jobs, cfg);
    let ((results, calls), span) = spans.time("harness.run_sweep_with", Some(root), || {
        suite::sweep(jobs, cfg, gpu, inputs)
    });
    spans.add_calls(&calls, span);
    checker.check_all(&results);
    Pass {
        results,
        span,
        sim_ns: calls.iter().map(Call::ns).sum(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sum(results: &BTreeMap<CellKey, RunResult>, f: impl Fn(&RunResult) -> u64) -> f64 {
    results.values().map(f).sum::<u64>() as f64
}

/// Run the traced passes and layer replays of `w` at `seed`.
pub fn run(w: Workload, seed: u64) -> (Checker, Vec<Metric>) {
    let cfg = w.config(seed);
    let jobs = w.jobs(seed);
    let mut spans = Spans::new();
    let run = spans.open("run", None);
    let mut m = Vec::new();

    let (((mut inputs, calls), items), setup) = spans.time("setup", Some(run), || {
        let (inputs, calls) = suite::build_inputs(&jobs, &cfg);
        let items = inputs.items();
        ((inputs, calls), items)
    });
    spans.add_calls(&calls, setup);
    let gen_ns: u64 = calls
        .iter()
        .filter(|c| c.layer == "workloads.lane_items")
        .map(Call::ns)
        .sum();
    m.push(metric(
        "workloads.gen_ns_per_item",
        "ns",
        ratio(gen_ns as f64, items as f64),
    ));
    let mut checker = crate::checker_for(w, seed, &inputs);

    // Three passes over the same cells: everything off, the host
    // profiler alone (for the event-loop split), and the program's full
    // telemetry (for its overhead and the simulated-time attribution).
    let plain_gpu = GpuConfig {
        trace: TraceConfig::default(),
        hostprof: false,
        ..cfg.gpu
    };
    let root = spans.open("passes", Some(run));
    let plain = pass(
        &mut spans,
        root,
        &jobs,
        &cfg,
        &plain_gpu,
        &mut inputs,
        &mut checker,
    );
    let prof_gpu = GpuConfig {
        hostprof: true,
        ..plain_gpu
    };
    let prof = pass(
        &mut spans,
        root,
        &jobs,
        &cfg,
        &prof_gpu,
        &mut inputs,
        &mut checker,
    );
    let traced_gpu = GpuConfig {
        trace: TraceConfig::audited(),
        hostprof: true,
        ..plain_gpu
    };
    let traced = pass(
        &mut spans,
        root,
        &jobs,
        &cfg,
        &traced_gpu,
        &mut inputs,
        &mut checker,
    );
    spans.close(root);

    let r = &plain.results;
    let accesses = sum(r, |r| r.accesses);
    let cells = r.len() as f64;
    let sweep_ns = spans.ns(plain.span) as f64;
    m.push(metric(
        "harness.ns_per_cell",
        "ns",
        ratio(sweep_ns - plain.sim_ns as f64, cells),
    ));
    m.push(metric(
        "gpu.ns_per_access",
        "ns",
        ratio(plain.sim_ns as f64, accesses),
    ));

    // Event-loop split from the host profiler.
    let mut counts = [0u64; KIND_COUNT];
    let mut wall = [0u64; KIND_COUNT];
    let mut loop_ns = 0u64;
    for p in prof.results.values().filter_map(|r| r.hostprof.as_ref()) {
        for k in 0..KIND_COUNT {
            counts[k] += p.counts[k];
            wall[k] += p.wall_ns[k];
        }
        loop_ns += p.loop_wall_ns;
    }
    let share = |kinds: &[HostKind]| {
        let ns: u64 = kinds.iter().map(|&k| wall[k as usize]).sum();
        ratio(ns as f64, loop_ns as f64)
    };
    m.push(metric(
        "gpu.events_per_access",
        "count",
        ratio(counts.iter().sum::<u64>() as f64, accesses),
    ));
    m.push(metric(
        "gpu.hit_share",
        "ratio",
        share(&[HostKind::AccessHit]),
    ));
    m.push(metric(
        "gpu.fault_path_share",
        "ratio",
        share(&[HostKind::FaultQueued, HostKind::PageReady]),
    ));
    m.push(metric(
        "gpu.dispatch_share",
        "ratio",
        share(&[HostKind::BatchDispatch, HostKind::DriverIdle]),
    ));

    // Translation: replayed timing plus exact rates.
    let seqs: BTreeMap<&'static str, Vec<Step>> = inputs
        .streams
        .iter()
        .map(|(app, s)| (*app, interleave(s, cfg.gpu.warps_per_sm)))
        .collect();
    let ((xlat_ns, xlat_calls), _) = spans.time("gmmu.translate", Some(run), || {
        seqs.values().fold((0, 0), |(ns, n), seq| {
            let (a, b) = replay_translate(seq, &cfg.gpu);
            (ns + a, n + b)
        })
    });
    let t = |f: fn(&gmmu::translation::TranslationStats) -> u64| sum(r, |r| f(&r.translation));
    m.push(metric(
        "gmmu.translate_ns",
        "ns",
        ratio(xlat_ns as f64, xlat_calls as f64),
    ));
    m.push(metric(
        "gmmu.l1_hit_rate",
        "ratio",
        ratio(t(|s| s.l1_hits), t(|s| s.l1_hits + s.l1_misses)),
    ));
    m.push(metric(
        "gmmu.l2_hit_rate",
        "ratio",
        ratio(t(|s| s.l2_hits), t(|s| s.l2_hits + s.l2_misses)),
    ));
    m.push(metric(
        "gmmu.pwc_hit_rate",
        "ratio",
        ratio(t(|s| s.pwc_hits), t(|s| s.pwc_hits + s.pwc_misses)),
    ));
    m.push(metric(
        "gmmu.walks_per_access",
        "ratio",
        ratio(t(|s| s.walks), accesses),
    ));

    let ((q_ns, q_ops), _) = spans.time("sim_core.event_queue", Some(run), || {
        seqs.values().fold((0, 0), |(ns, n), seq| {
            let (a, b) = replay_queue(seq, cfg.gpu.lanes(), cfg.gpu.fault_base_cycles);
            (ns + a, n + b)
        })
    });
    m.push(metric(
        "sim_core.queue_ns_per_op",
        "ns",
        ratio(q_ns as f64, q_ops as f64),
    ));

    // Driver: the workload's fault stream, batched at each cell's own
    // mean batch size, through `UvmDriver::service_batch`.
    let mut by_preset: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    spans.time("uvm.replay", Some(run), || {
        for job in &jobs {
            let res = &r[&job.key()];
            let arrived = res.driver.faults_serviced + res.driver.coalesced_faults;
            let batch = (arrived / res.driver.batches.max(1)).max(1) as usize;
            let (ns, faults) = replay_driver(job, &cfg, &seqs[job.spec.abbr], batch);
            let e = by_preset.entry(job.preset.label()).or_default();
            e.0 += ns;
            e.1 += faults;
        }
    });
    let (uvm_ns, uvm_faults) = by_preset
        .values()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.push(metric(
        "uvm.ns_per_fault",
        "ns",
        ratio(uvm_ns as f64, uvm_faults as f64),
    ));
    let d = |f: fn(&uvm::driver::DriverStats) -> u64| sum(r, |r| f(&r.driver));
    m.push(metric(
        "uvm.faults_per_batch",
        "count",
        ratio(d(|s| s.faults_serviced), d(|s| s.batches)),
    ));
    m.push(metric(
        "uvm.coalesced_rate",
        "ratio",
        ratio(
            d(|s| s.coalesced_faults),
            d(|s| s.faults_serviced + s.coalesced_faults),
        ),
    ));
    m.push(metric(
        "uvm.pcie_bytes_per_access",
        "B",
        ratio(sum(r, |r| r.bytes_h2d + r.bytes_d2h), accesses),
    ));

    // Policies: the same fault stream straight through `PolicyEngine`.
    let ((plan, victim), _) = spans.time("cppe.replay", Some(run), || {
        jobs.iter().fold(([0u64; 2], [0u64; 2]), |(p, v), job| {
            let x = replay_engine(job, &cfg, &seqs[job.spec.abbr]);
            (
                [p[0] + x.plan_ns, p[1] + x.plans],
                [v[0] + x.victim_ns, v[1] + x.victims],
            )
        })
    });
    m.push(metric(
        "cppe.plan_prefetch_ns",
        "ns",
        ratio(plan[0] as f64, plan[1] as f64),
    ));
    m.push(metric(
        "cppe.select_victim_ns",
        "ns",
        ratio(victim[0] as f64, victim[1] as f64),
    ));
    let e = |f: fn(&cppe::engine::EngineStats) -> u64| sum(r, |r| f(&r.engine));
    m.push(metric(
        "cppe.untouched_evict_ratio",
        "ratio",
        ratio(e(|s| s.total_untouch), e(|s| s.pages_evicted)),
    ));
    m.push(metric(
        "cppe.wrong_evictions_per_evict",
        "ratio",
        ratio(sum(r, |r| r.wrong_evictions), e(|s| s.chunk_evictions)),
    ));
    m.push(metric(
        "cppe.prefetched_per_fault",
        "ratio",
        ratio(e(|s| s.pages_prefetched), e(|s| s.faults)),
    ));

    // Telemetry: the full-telemetry pass against the plain one.
    let tel: Vec<&telemetry::RunTelemetry> = traced
        .results
        .values()
        .filter_map(|r| r.telemetry.as_ref())
        .collect();
    let spans_made: u64 = tel
        .iter()
        .map(|t| t.spans.len() as u64 + t.dropped_spans)
        .sum();
    let dropped: u64 = tel
        .iter()
        .map(|t| t.dropped_events + t.dropped_spans + t.dropped_decisions)
        .sum();
    m.push(metric(
        "telemetry.overhead_x",
        "x",
        ratio(traced.sim_ns as f64, plain.sim_ns as f64),
    ));
    m.push(metric(
        "telemetry.spans_per_access",
        "ratio",
        ratio(spans_made as f64, accesses),
    ));
    m.push(metric("telemetry.dropped", "count", dropped as f64));

    // Simulated time per fault, from the recorded fault spans.
    let sim_spans: Vec<SpanRecord> = tel.iter().flat_map(|t| t.spans.iter().copied()).collect();
    let attr = LatencyAttribution::from_spans(&sim_spans);
    let fault = attr.stage(SpanStage::FaultTotal);
    m.push(metric(
        "sim.fault_p50_cycles",
        "cycles",
        fault.map_or(0.0, |s| s.p50 as f64),
    ));
    m.push(metric(
        "sim.fault_p99_cycles",
        "cycles",
        fault.map_or(0.0, |s| s.p99 as f64),
    ));
    let (queue, service) = attr.splits.iter().fold((0u64, 0u64), |(q, s), x| {
        (q + x.queue_cycles, s + x.service_cycles)
    });
    m.push(metric(
        "sim.queue_wait_share",
        "ratio",
        ratio(queue as f64, (queue + service) as f64),
    ));

    // Exact work counters, summed over the workload's cells.
    for (name, v) in [
        ("count.gpu.accesses", accesses),
        ("count.gpu.cycles", sum(r, |r| r.cycles)),
        ("count.gmmu.l1_hits", t(|s| s.l1_hits)),
        ("count.gmmu.l1_misses", t(|s| s.l1_misses)),
        ("count.gmmu.l2_hits", t(|s| s.l2_hits)),
        ("count.gmmu.l2_misses", t(|s| s.l2_misses)),
        ("count.gmmu.pwc_hits", t(|s| s.pwc_hits)),
        ("count.gmmu.pwc_misses", t(|s| s.pwc_misses)),
        ("count.gmmu.walks", t(|s| s.walks)),
        ("count.gmmu.faulting_walks", t(|s| s.faulting_walks)),
        ("count.uvm.batches", d(|s| s.batches)),
        ("count.uvm.faults_serviced", d(|s| s.faults_serviced)),
        ("count.uvm.coalesced_faults", d(|s| s.coalesced_faults)),
        ("count.cppe.faults", e(|s| s.faults)),
        ("count.cppe.pages_migrated", e(|s| s.pages_migrated)),
        ("count.cppe.pages_prefetched", e(|s| s.pages_prefetched)),
        ("count.cppe.chunk_evictions", e(|s| s.chunk_evictions)),
        ("count.cppe.pages_evicted", e(|s| s.pages_evicted)),
        ("count.cppe.total_untouch", e(|s| s.total_untouch)),
        ("count.cppe.wrong_evictions", sum(r, |r| r.wrong_evictions)),
    ] {
        m.push(metric(name, "count", v));
    }
    for (k, label) in KIND_LABELS.iter().enumerate() {
        m.push(metric(EVENT_METRICS[k], "count", counts[k] as f64));
        debug_assert!(EVENT_METRICS[k].ends_with(label));
    }

    spans.close(run);
    println!("{}: host time by span (count, total ms, self ms)", w.name());
    for (name, (n, total, own)) in spans.self_times() {
        println!(
            "  {name:<26} {n:>6} {:>10.2} {:>10.2}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    for (preset, (ns, faults)) in &by_preset {
        println!(
            "  uvm.ns_per_fault[{preset}] = {:.0}",
            ratio(*ns as f64, *faults as f64)
        );
    }
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", w.name()));
    match spans.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
    (checker, m)
}

/// Hostprof event counts by kind, in `KIND_LABELS` order.
const EVENT_METRICS: [&str; KIND_COUNT] = [
    "count.gpu.events.access_hit",
    "count.gpu.events.fault_queued",
    "count.gpu.events.batch_dispatch",
    "count.gpu.events.barrier",
    "count.gpu.events.lane_drained",
    "count.gpu.events.page_ready",
    "count.gpu.events.driver_idle",
];

/// One access of a replayed page sequence.
#[derive(Clone, Copy)]
struct Step {
    sm: SmId,
    page: VirtPage,
    compute: u64,
}

/// An app's accesses with the lanes interleaved one access at a time,
/// as the lanes would issue them if they ran in lock-step.
fn interleave(streams: &[Vec<LaneItem>], warps_per_sm: usize) -> Vec<Step> {
    let mut iters: Vec<_> = streams
        .iter()
        .map(|s| {
            s.iter().filter_map(|i| match i {
                LaneItem::Access(a) => Some(a),
                LaneItem::Barrier => None,
            })
        })
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for (lane, it) in iters.iter_mut().enumerate() {
            if let Some(a) = it.next() {
                out.push(Step {
                    sm: SmId((lane / warps_per_sm) as u16),
                    page: a.page,
                    compute: u64::from(a.compute),
                });
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// `TranslationPath::translate` over the sequence with every page
/// resident: one untimed pass maps the pages, a second is timed.
fn replay_translate(seq: &[Step], gpu: &GpuConfig) -> (u64, u64) {
    let mut xlat = TranslationPath::new(&gpu.translation);
    let mut now = Cycle::ZERO;
    let mut frames = 0u32;
    for s in seq {
        if let TranslationOutcome::Fault { .. } = xlat.translate(s.sm, s.page, now) {
            xlat.map(s.page, Frame(frames), true);
            frames += 1;
        }
        now = now.after(s.compute);
    }
    let t = Instant::now();
    for s in seq {
        black_box(xlat.translate(s.sm, s.page, now));
        now = now.after(s.compute);
    }
    (nanos(t), seq.len() as u64)
}

/// `EventQueue::push`/`pop` in a hold model: one event per lane in the
/// queue, each pop followed by a push at the access's compute delay,
/// plus the far-fault latency on a page's first touch. Returns (ns, ops).
fn replay_queue(seq: &[Step], lanes: usize, fault_cycles: u64) -> (u64, u64) {
    let mut touched = FxHashSet::default();
    let delays: Vec<u64> = seq
        .iter()
        .map(|s| {
            s.compute
                + if touched.insert(s.page) {
                    fault_cycles
                } else {
                    0
                }
        })
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    let t = Instant::now();
    for lane in 0..lanes as u32 {
        q.push(Cycle(u64::from(lane)), lane);
    }
    for &d in &delays {
        let (at, lane) = q.pop().expect("one event per lane");
        q.push(at.after(d), lane);
    }
    while q.pop().is_some() {}
    (nanos(t), 2 * (delays.len() + lanes) as u64)
}

fn uvm_config(job: &Job, cfg: &ExpConfig) -> UvmConfig {
    let g = &cfg.gpu;
    UvmConfig {
        capacity_pages: capacity_pages(&job.spec, job.rate, cfg.scale),
        fault_base_cycles: g.fault_base_cycles,
        per_fault_cycles: g.per_fault_cycles,
        pcie_gb_per_s: g.pcie_gb_per_s,
        crash_untouch_fraction: g.crash_untouch_fraction,
        crash_min_evicted_factor: g.crash_min_evicted_factor,
        footprint_pages: job.spec.pages(cfg.scale),
    }
}

/// The cell's fault stream through `UvmDriver::service_batch` in
/// batches of `batch` faults; stops where the driver declares thrash
/// death. Returns (ns in service_batch, faults serviced).
fn replay_driver(job: &Job, cfg: &ExpConfig, seq: &[Step], batch: usize) -> (u64, u64) {
    let engine = job.preset.build(cfg.seed ^ job.spec.seed);
    let mut driver = UvmDriver::new(uvm_config(job, cfg), engine);
    let mut xlat = TranslationPath::new(&cfg.gpu.translation);
    let mut pending = Vec::with_capacity(batch);
    let mut now = Cycle::ZERO;
    let mut ns = 0;
    for (i, s) in seq.iter().enumerate() {
        now = now.after(s.compute);
        if xlat.page_table().is_resident(s.page) {
            xlat.mark_touched(s.page);
            continue;
        }
        pending.push(s.page);
        if pending.len() < batch && i + 1 < seq.len() {
            continue;
        }
        let t = Instant::now();
        let r = driver.service_batch(&pending, now, &mut xlat);
        ns += nanos(t);
        pending.clear();
        let Ok(r) = r else { break };
        now = now.max(r.host_done);
        let crashed = r.crashed;
        driver.recycle(r);
        if crashed {
            break;
        }
    }
    (ns, driver.stats.faults_serviced)
}

struct EngineReplay {
    plan_ns: u64,
    plans: u64,
    victim_ns: u64,
    victims: u64,
}

/// The cell's fault stream straight through `PolicyEngine`: note the
/// fault, plan the prefetch, evict until the plan fits, map it — the
/// driver's per-fault sequence without batching or timing.
fn replay_engine(job: &Job, cfg: &ExpConfig, seq: &[Step]) -> EngineReplay {
    let mut engine = job.preset.build(cfg.seed ^ job.spec.seed);
    let capacity = capacity_pages(&job.spec, job.rate, cfg.scale);
    let mut pt = PageTable::new();
    let mut free: Vec<Frame> = (0..capacity).rev().map(Frame).collect();
    let mut plan = Vec::new();
    let mut pinned = FxHashSet::default();
    let mut out = EngineReplay {
        plan_ns: 0,
        plans: 0,
        victim_ns: 0,
        victims: 0,
    };
    for s in seq {
        let fault = s.page;
        if pt.is_resident(fault) {
            pt.mark_touched(fault);
            continue;
        }
        if (free.len() as u64) < PAGES_PER_CHUNK {
            engine.note_memory_full();
        }
        engine.note_fault(fault);
        let t = Instant::now();
        engine.plan_prefetch_into(fault, &pt, &mut plan);
        out.plan_ns += nanos(t);
        out.plans += 1;
        pinned.clear();
        pinned.extend(plan.iter().map(|p| p.chunk()));
        while free.len() < plan.len() {
            engine.note_memory_full();
            let t = Instant::now();
            let victim = engine.select_victim(&pinned);
            out.victim_ns += nanos(t);
            out.victims += 1;
            let Some(victim) = victim else {
                plan.retain(|&p| p == fault);
                break;
            };
            let mut touch = TouchVec::empty();
            let mut resident = 0;
            for p in victim.pages() {
                if pt.is_resident(p) {
                    let (frame, touched) = pt.unmap(p);
                    free.push(frame);
                    if touched {
                        touch.set(p.index_in_chunk());
                    }
                    resident += 1;
                }
            }
            engine.note_evicted(victim, touch, resident);
        }
        if free.len() < plan.len() {
            break;
        }
        let mut i = 0;
        while i < plan.len() {
            let chunk = plan[i].chunk();
            let (mut n, mut demand) = (0, false);
            while i < plan.len() && plan[i].chunk() == chunk {
                let frame = free.pop().expect("plan fits the free frames");
                pt.map(plan[i], frame, plan[i] == fault);
                demand |= plan[i] == fault;
                n += 1;
                i += 1;
            }
            engine.note_migrated(chunk, n, demand);
        }
    }
    out
}
