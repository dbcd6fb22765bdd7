//! Crash-safe sweep orchestrator.
//!
//! `run_sweep` used to be a fire-and-forget in-process fan-out: one
//! panicking cell aborted the whole sweep, and a Ctrl-C or OOM kill
//! lost every completed cell. This module turns the sweep into a
//! sharded service with the three properties thousand-cell scenario
//! matrices need:
//!
//! 1. **Leases with deadlines** ([`queue`]) — a worker that panics,
//!    hangs, or dies gets its lease expired and the cell re-issued
//!    (bounded retries with backoff, then `Failed` with its error;
//!    never silently dropped).
//! 2. **Persistent results** ([`store`]) — every resolved cell streams
//!    to an append-only JSONL journal (fsynced per cell) with atomic
//!    snapshot compaction; a fresh invocation with `--resume` dedupes
//!    already-computed cells by config fingerprint and runs only the
//!    remainder.
//! 3. **Graceful degradation** — per-cell `catch_unwind`, a
//!    `max_in_flight` pressure valve, and a shed-to-serial fallback
//!    when every worker has died.
//!
//! Cells are identified by a stable fingerprint
//! ([`sim_core::Fingerprint`]) over (app, policy, rate, seed, scale,
//! schema version), so resumability survives process restarts and the
//! schema constant gates stores written by incompatible builds.
//! [`chaos`] provides the deterministic kill/panic/delay injection the
//! crash-safety tests drive.

pub mod chaos;
pub mod ops;
pub mod queue;
pub mod store;

pub use chaos::OrchChaos;
pub use ops::{OpsPlane, STATUS_SCHEMA};
pub use queue::{
    Claim, CompleteVerdict, FailVerdict, Lease, LeaseConfig, LeaseQueue, LeaseStatus, QueueStatus,
};
pub use store::{OpenReport, Recovery, ResultStore, SalvageReport, StoreError};

use crate::runner::{run_cell, ExpConfig};
use crate::sweep::CellKey;
use cppe::presets::PolicyPreset;
use gpu::{Outcome, RunResult};
use sim_core::Fingerprint;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{json, OrchMetrics};

/// Result-store schema version. Part of every fingerprint, journal
/// line and snapshot: bump it whenever the simulator's observable
/// outputs or the record layout change, and old stores stop matching
/// instead of silently mixing incompatible results.
pub const SCHEMA: &str = "cppe-orch-v1";

/// One cell of the experiment matrix, self-contained: everything
/// needed to (re-)run it and to fingerprint it.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Workload to run.
    pub spec: workloads::WorkloadSpec,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// Oversubscription rate (fraction of footprint that fits).
    pub rate: f64,
    /// Base seed (combined with the workload seed by the runner).
    pub seed: u64,
    /// Footprint scale.
    pub scale: f64,
}

impl CellSpec {
    /// Stable config fingerprint: the resume/dedupe key.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut fp = Fingerprint::new();
        fp.push_str(SCHEMA);
        fp.push_str(self.spec.abbr);
        fp.push_u64(self.spec.seed);
        fp.push_str(&self.preset.label());
        fp.push_f64(self.rate);
        fp.push_u64(self.seed);
        fp.push_f64(self.scale);
        fp.hex()
    }

    /// The sweep result-map key `(app, policy, rate%)`.
    #[must_use]
    pub fn key(&self) -> CellKey {
        (
            self.spec.abbr.to_string(),
            self.preset.label(),
            (self.rate * 100.0).round() as u32,
        )
    }

    /// Execute the cell (seed and scale override the base config's).
    #[must_use]
    pub fn run(&self, base: &ExpConfig) -> RunResult {
        let cfg = ExpConfig {
            scale: self.scale,
            seed: self.seed,
            ..*base
        };
        run_cell(&self.spec, self.preset, self.rate, &cfg)
    }
}

fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "completed",
        Outcome::Degraded => "degraded",
        Outcome::Crashed => "crashed",
        Outcome::Timeout => "timeout",
    }
}

/// The persisted observables of one resolved cell — the "result set"
/// the crash-safety guarantees are stated over. Two runs of the same
/// fingerprint must produce identical records (the simulator is
/// deterministic), which is what the kill/resume bit-identity tests
/// assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Simulator outcome label, or `"failed"` when the *worker* failed
    /// (panic / lease expiry) and no result exists.
    pub status: String,
    /// Attempts consumed (1 on the happy path).
    pub attempts: u32,
    /// Total execution cycles.
    pub cycles: u64,
    /// Accesses completed.
    pub accesses: u64,
    /// Demand faults.
    pub faults: u64,
    /// Pages migrated in.
    pub pages_migrated: u64,
    /// Pages evicted.
    pub pages_evicted: u64,
    /// Host→device bytes.
    pub bytes_h2d: u64,
    /// Device→host bytes.
    pub bytes_d2h: u64,
    /// Wrong evictions.
    pub wrong_evictions: u64,
    /// Simulation error or worker failure description.
    pub error: Option<String>,
}

impl CellRecord {
    /// Extract the persisted observables from a finished run.
    #[must_use]
    pub fn from_run(r: &RunResult, attempts: u32) -> Self {
        CellRecord {
            status: outcome_label(r.outcome).to_string(),
            attempts,
            cycles: r.cycles,
            accesses: r.accesses,
            faults: r.engine.faults,
            pages_migrated: r.engine.pages_migrated,
            pages_evicted: r.engine.pages_evicted,
            bytes_h2d: r.bytes_h2d,
            bytes_d2h: r.bytes_d2h,
            wrong_evictions: r.wrong_evictions,
            error: r.error.clone(),
        }
    }

    /// Record for a cell whose worker failed terminally.
    #[must_use]
    pub fn failed(error: &str, attempts: u32) -> Self {
        CellRecord {
            status: "failed".to_string(),
            attempts,
            cycles: 0,
            accesses: 0,
            faults: 0,
            pages_migrated: 0,
            pages_evicted: 0,
            bytes_h2d: 0,
            bytes_d2h: 0,
            wrong_evictions: 0,
            error: Some(error.to_string()),
        }
    }

    /// Did the worker fail (as opposed to the simulation completing,
    /// however badly)?
    #[must_use]
    pub fn is_worker_failure(&self) -> bool {
        self.status == "failed"
    }
}

/// One journal/snapshot entry: a resolved cell plus the identity
/// fields a human (or a resumed orchestrator) needs to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEntry {
    /// Config fingerprint (primary key).
    pub fp: String,
    /// Workload abbreviation.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// Oversubscription rate in percent.
    pub rate_pct: u32,
    /// Base seed.
    pub seed: u64,
    /// Footprint scale.
    pub scale: f64,
    /// The observables.
    pub record: CellRecord,
}

impl CellEntry {
    /// Build an entry for `spec` resolved as `record`.
    #[must_use]
    pub fn from_spec(spec: &CellSpec, fp: String, record: CellRecord) -> Self {
        CellEntry {
            fp,
            app: spec.spec.abbr.to_string(),
            policy: spec.preset.label(),
            rate_pct: (spec.rate * 100.0).round() as u32,
            seed: spec.seed,
            scale: spec.scale,
            record,
        }
    }

    /// One JSON object (journal line / snapshot element).
    #[must_use]
    pub fn to_json(&self) -> String {
        let r = &self.record;
        let error = r
            .error
            .as_deref()
            .map_or_else(|| "null".to_string(), json::string);
        format!(
            "{{\"v\":{v},\"fp\":{fp},\"app\":{app},\"policy\":{policy},\
             \"rate\":{rate},\"seed\":{seed},\"scale\":{scale},\
             \"status\":{status},\"attempts\":{attempts},\"cycles\":{cycles},\
             \"accesses\":{accesses},\"faults\":{faults},\"migrated\":{migrated},\
             \"evicted\":{evicted},\"h2d\":{h2d},\"d2h\":{d2h},\
             \"wrong_ev\":{wrong_ev},\"error\":{error}}}",
            v = json::string(SCHEMA),
            fp = json::string(&self.fp),
            app = json::string(&self.app),
            policy = json::string(&self.policy),
            rate = self.rate_pct,
            seed = self.seed,
            scale = self.scale,
            status = json::string(&r.status),
            attempts = r.attempts,
            cycles = r.cycles,
            accesses = r.accesses,
            faults = r.faults,
            migrated = r.pages_migrated,
            evicted = r.pages_evicted,
            h2d = r.bytes_h2d,
            d2h = r.bytes_d2h,
            wrong_ev = r.wrong_evictions,
        )
    }

    /// Parse one journal/snapshot object back.
    ///
    /// # Errors
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &json::Value) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/mistyped field {k:?}"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("missing/mistyped field {k:?}"))
        };
        let error = match v.get("error") {
            None => return Err("missing/mistyped field \"error\"".to_string()),
            Some(e) if e.is_null() => None,
            Some(e) => Some(
                e.as_str()
                    .ok_or_else(|| "missing/mistyped field \"error\"".to_string())?
                    .to_string(),
            ),
        };
        Ok(CellEntry {
            fp: str_field("fp")?,
            app: str_field("app")?,
            policy: str_field("policy")?,
            rate_pct: u64_field("rate")? as u32,
            seed: u64_field("seed")?,
            scale: v
                .get("scale")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| "missing/mistyped field \"scale\"".to_string())?,
            record: CellRecord {
                status: str_field("status")?,
                attempts: u64_field("attempts")? as u32,
                cycles: u64_field("cycles")?,
                accesses: u64_field("accesses")?,
                faults: u64_field("faults")?,
                pages_migrated: u64_field("migrated")?,
                pages_evicted: u64_field("evicted")?,
                bytes_h2d: u64_field("h2d")?,
                bytes_d2h: u64_field("d2h")?,
                wrong_evictions: u64_field("wrong_ev")?,
                error,
            },
        })
    }
}

/// Orchestrator tuning.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Base experiment settings (gpu model, trace format; per-cell
    /// seed/scale come from each [`CellSpec`]).
    pub exp: ExpConfig,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Lease/retry tuning.
    pub lease: LeaseConfig,
    /// Deterministic fault injection (tests / the chaos CI job).
    pub chaos: Option<OrchChaos>,
    /// Abort (simulating a kill) after this many cells have resolved
    /// this run — the kill/resume tests' hook.
    pub stop_after: Option<usize>,
    /// Compact the store into a snapshot after a clean finish.
    pub compact_on_finish: bool,
    /// Flight-recorder dossier path. When set, cell panics, early
    /// stops and worker deaths dump a crash dossier here (atomic
    /// rename; last event wins).
    pub flight: Option<PathBuf>,
    /// Shared live-ops plane, usually because a status server is
    /// scraping it. When unset but `flight` is set, a private plane is
    /// created so the dossier still carries monitor history.
    pub ops: Option<Arc<OpsPlane>>,
}

impl OrchestratorConfig {
    /// Defaults around a base experiment config.
    #[must_use]
    pub fn new(exp: ExpConfig) -> Self {
        OrchestratorConfig {
            exp,
            threads: 0,
            lease: LeaseConfig::default(),
            chaos: None,
            stop_after: None,
            compact_on_finish: false,
            flight: None,
            ops: None,
        }
    }
}

/// Everything an orchestrated sweep produces.
#[derive(Debug)]
pub struct OrchOutcome {
    /// The merged result set (resumed + computed + failed), keyed by
    /// fingerprint.
    pub entries: BTreeMap<String, CellEntry>,
    /// Full simulator results for cells *computed this run* (resumed
    /// cells only exist as records). This is what the in-process sweep
    /// consumes; the persistent store keeps only records.
    pub full: BTreeMap<String, RunResult>,
    /// Counters.
    pub metrics: OrchMetrics,
    /// True when `stop_after` aborted the run early.
    pub stopped_early: bool,
}

enum Msg {
    Done {
        spec: CellSpec,
        fp: String,
        result: Box<RunResult>,
    },
    Panic {
        fp: String,
        epoch: u32,
        msg: String,
    },
    Exit {
        died: bool,
    },
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".to_string()
    }
}

/// Run `cells` through the full orchestrator with the real simulator.
pub fn orchestrate(
    cells: Vec<CellSpec>,
    store: Option<&mut ResultStore>,
    cfg: &OrchestratorConfig,
) -> OrchOutcome {
    let exp = cfg.exp;
    orchestrate_with(cells, store, cfg, move |cell| cell.run(&exp))
}

/// Like [`orchestrate`] but with an injected executor — the chaos and
/// scheduling tests drive the machinery with cheap fake cells, and
/// [`orchestrate`] passes the real simulator.
#[allow(clippy::too_many_lines)]
pub fn orchestrate_with<F>(
    cells: Vec<CellSpec>,
    mut store: Option<&mut ResultStore>,
    cfg: &OrchestratorConfig,
    exec: F,
) -> OrchOutcome
where
    F: Fn(&CellSpec) -> RunResult + Sync,
{
    let mut metrics = OrchMetrics {
        cells_requested: cells.len() as u64,
        ..OrchMetrics::default()
    };

    // Duplicate-submission guard: the same fingerprint twice in one
    // spec would run (and double-count) the same computation.
    let mut seen: HashSet<String> = HashSet::new();
    let mut work: Vec<(CellSpec, String)> = Vec::with_capacity(cells.len());
    for cell in cells {
        let fp = cell.fingerprint();
        if seen.insert(fp.clone()) {
            work.push((cell, fp));
        } else {
            metrics.cells_deduped += 1;
            eprintln!(
                "[orchestrate] WARNING: duplicate cell {:?} (fp {fp}) deduped",
                cell.key()
            );
        }
    }

    // Resume: anything already journaled is carried over, not re-run.
    let mut entries: BTreeMap<String, CellEntry> = BTreeMap::new();
    if let Some(store) = store.as_deref() {
        work.retain(|(_, fp)| {
            if let Some(existing) = store.entries().get(fp) {
                metrics.cells_resumed += 1;
                entries.insert(fp.clone(), existing.clone());
                false
            } else {
                true
            }
        });
    }

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        cfg.threads
    }
    .min(work.len().max(1));

    let start = Instant::now();
    let queue = Mutex::new(LeaseQueue::new(work, cfg.lease, start));
    // Live-ops plane: shared (status server scraping it) or private
    // (flight recorder only). None ⇒ observability fully off.
    let ops: Option<Arc<OpsPlane>> = cfg
        .ops
        .clone()
        .or_else(|| cfg.flight.as_ref().map(|_| Arc::new(OpsPlane::new())));
    let dump_flight = |reason: &str| {
        if let (Some(ops), Some(path)) = (ops.as_ref(), cfg.flight.as_ref()) {
            if let Err(e) = ops.dump_flight(path, reason) {
                eprintln!("[orchestrate] WARNING: flight-recorder dump failed: {e}");
            }
        }
    };
    let abort = AtomicBool::new(false);
    let mut full: BTreeMap<String, RunResult> = BTreeMap::new();
    let mut stopped_early = false;
    let mut resolved_this_run = 0usize;
    let tick = (cfg.lease.lease / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50));

    let has_work = queue.lock().unwrap().remaining() > 0;
    if has_work {
        let (tx, rx) = mpsc::channel::<Msg>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let queue = &queue;
                let abort = &abort;
                let exec = &exec;
                let chaos = cfg.chaos;
                scope.spawn(move || worker_loop(queue, abort, chaos, exec, &tx));
            }
            drop(tx);

            let mut live = threads;
            while live > 0 {
                match rx.recv_timeout(tick) {
                    Ok(Msg::Done { spec, fp, result }) => {
                        let verdict = queue.lock().unwrap().complete(&fp);
                        match verdict {
                            CompleteVerdict::Accepted { attempts } => {
                                record_done(
                                    &spec,
                                    fp,
                                    *result,
                                    attempts,
                                    &mut entries,
                                    &mut full,
                                    &mut store,
                                    &mut metrics,
                                );
                                resolved_this_run += 1;
                                if cfg.stop_after.is_some_and(|n| resolved_this_run >= n) {
                                    stopped_early = true;
                                    abort.store(true, Ordering::Relaxed);
                                    if let Some(ops) = ops.as_ref() {
                                        ops.note(format!(
                                            "stop_after reached: aborting with {resolved_this_run} cells resolved"
                                        ));
                                    }
                                    // A kill is instant: drain nothing
                                    // further, even completions already
                                    // queued — otherwise a lagging
                                    // coordinator journals the whole
                                    // matrix and the "kill" leaves no
                                    // work behind. Workers see `abort`
                                    // and exit; the scope joins them.
                                    break;
                                }
                            }
                            CompleteVerdict::Stale => metrics.stale_completions += 1,
                        }
                    }
                    Ok(Msg::Panic { fp, epoch, msg }) => {
                        metrics.panics_caught += 1;
                        // Retry/exhaustion bookkeeping happens in the
                        // queue; terminal failures are recorded once,
                        // after the drain, via `failed_cells`.
                        let _ =
                            queue
                                .lock()
                                .unwrap()
                                .fail_attempt(&fp, epoch, &msg, Instant::now());
                        if let Some(ops) = ops.as_ref() {
                            ops.note(format!("panic contained: cell {fp} epoch {epoch}: {msg}"));
                        }
                        dump_flight(&format!("cell panic: {fp}"));
                    }
                    Ok(Msg::Exit { died }) => {
                        live -= 1;
                        if died {
                            metrics.workers_died += 1;
                            if let Some(ops) = ops.as_ref() {
                                ops.note(format!("worker died; {live} still live"));
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Hung workers can't expire their own leases.
                        queue.lock().unwrap().expire_overdue(Instant::now());
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                if let Some(ops) = ops.as_ref() {
                    let status = queue.lock().unwrap().status(Instant::now());
                    ops.tick(&metrics, status);
                }
            }
        });

        // Every worker died (chaos kills / escaped panics) with cells
        // still pending: degrade to serial execution on this thread
        // rather than losing the sweep.
        if !abort.load(Ordering::Relaxed) && queue.lock().unwrap().remaining() > 0 {
            metrics.shed_serial = 1;
            if let Some(ops) = ops.as_ref() {
                ops.note("all workers died; shedding to serial drain");
            }
            dump_flight("all workers died; shed to serial");
            serial_drain(
                &queue,
                cfg,
                &exec,
                ops.as_ref(),
                &mut entries,
                &mut full,
                &mut store,
                &mut metrics,
                &mut resolved_this_run,
                &mut stopped_early,
            );
        }
    }

    // Terminal failures become part of the result set — a cell is
    // never silently missing. (Skipped on an early stop: unresolved
    // cells stay unrecorded so a resume re-runs them from scratch.)
    if !stopped_early {
        for (spec, fp, error, attempts) in queue.lock().unwrap().failed_cells() {
            let record = CellRecord::failed(&error, attempts);
            let entry = CellEntry::from_spec(&spec, fp.clone(), record);
            append_entry(&mut store, &entry);
            entries.insert(fp, entry);
            metrics.cells_failed += 1;
        }
    }

    {
        let q = queue.lock().unwrap();
        metrics.leases_issued = q.issued;
        metrics.leases_expired = q.expired;
        metrics.retries = q.retries;
    }
    // Final tick so a scraping status server sees the settled counts,
    // and a dossier for the simulated-kill path (the chaos drill's
    // `--stop-after` abort) with the queue state a resume would see.
    if let Some(ops) = ops.as_ref() {
        let status = queue.lock().unwrap().status(Instant::now());
        ops.tick(&metrics, status);
    }
    if stopped_early {
        dump_flight("orchestrator stopped early (stop_after kill drill)");
    }
    if let Some(store) = store.as_mut() {
        if cfg.compact_on_finish && !stopped_early {
            if let Err(e) = store.compact() {
                eprintln!("[orchestrate] snapshot compaction failed: {e}");
            }
        }
        metrics.journal_appends = store.appends;
        metrics.journal_bytes = store.bytes_appended;
        metrics.compactions = store.compactions;
    }

    OrchOutcome {
        entries,
        full,
        metrics,
        stopped_early,
    }
}

fn worker_loop<F>(
    queue: &Mutex<LeaseQueue>,
    abort: &AtomicBool,
    chaos: Option<OrchChaos>,
    exec: &F,
    tx: &mpsc::Sender<Msg>,
) where
    F: Fn(&CellSpec) -> RunResult + Sync,
{
    loop {
        if abort.load(Ordering::Relaxed) {
            let _ = tx.send(Msg::Exit { died: false });
            return;
        }
        let claim = queue.lock().unwrap().claim(Instant::now());
        match claim {
            Claim::Drained => {
                let _ = tx.send(Msg::Exit { died: false });
                return;
            }
            Claim::Wait(d) => {
                // Capped so an aborting pool never waits out a full
                // lease before noticing the flag.
                std::thread::sleep(d.min(Duration::from_millis(25)));
            }
            Claim::Lease(lease) => {
                if let Some(ch) = chaos {
                    if ch.should_kill_worker(&lease.fp, lease.attempt) {
                        // Simulated `kill -9`: the thread vanishes with
                        // the lease unacknowledged; expiry re-issues it.
                        let _ = tx.send(Msg::Exit { died: true });
                        return;
                    }
                    if let Some(d) = ch.delay_for(&lease.fp, lease.attempt) {
                        std::thread::sleep(d);
                    }
                }
                let outcome = run_leased(&lease, chaos, exec);
                let msg = match outcome {
                    Ok(result) => Msg::Done {
                        spec: lease.spec,
                        fp: lease.fp,
                        result,
                    },
                    Err(msg) => Msg::Panic {
                        fp: lease.fp,
                        epoch: lease.epoch,
                        msg,
                    },
                };
                if tx.send(msg).is_err() {
                    return;
                }
            }
        }
    }
}

/// Execute one leased cell with panic containment: a panicking
/// simulator becomes a recorded attempt failure instead of a lost
/// sweep.
fn run_leased<F>(
    lease: &Lease,
    chaos: Option<OrchChaos>,
    exec: &F,
) -> Result<Box<RunResult>, String>
where
    F: Fn(&CellSpec) -> RunResult + Sync,
{
    let fp = lease.fp.clone();
    let attempt = lease.attempt;
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(ch) = chaos {
            if ch.should_panic(&fp, attempt) {
                panic!("chaos: injected panic (cell {fp}, attempt {attempt})");
            }
        }
        Box::new(exec(&lease.spec))
    }))
    .map_err(panic_message)
}

#[allow(clippy::too_many_arguments)]
fn record_done(
    spec: &CellSpec,
    fp: String,
    result: RunResult,
    attempts: u32,
    entries: &mut BTreeMap<String, CellEntry>,
    full: &mut BTreeMap<String, RunResult>,
    store: &mut Option<&mut ResultStore>,
    metrics: &mut OrchMetrics,
) {
    let record = CellRecord::from_run(&result, attempts);
    let entry = CellEntry::from_spec(spec, fp.clone(), record);
    append_entry(store, &entry);
    full.insert(fp.clone(), result);
    entries.insert(fp, entry);
    metrics.cells_completed += 1;
}

fn append_entry(store: &mut Option<&mut ResultStore>, entry: &CellEntry) {
    if let Some(store) = store.as_mut() {
        if let Err(e) = store.append(entry.clone()) {
            // The computation is not lost (it is in `entries`); only
            // durability degraded. Surface it loudly and continue.
            eprintln!("[orchestrate] WARNING: journal append failed: {e}");
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serial_drain<F>(
    queue: &Mutex<LeaseQueue>,
    cfg: &OrchestratorConfig,
    exec: &F,
    ops: Option<&Arc<OpsPlane>>,
    entries: &mut BTreeMap<String, CellEntry>,
    full: &mut BTreeMap<String, RunResult>,
    store: &mut Option<&mut ResultStore>,
    metrics: &mut OrchMetrics,
    resolved_this_run: &mut usize,
    stopped_early: &mut bool,
) where
    F: Fn(&CellSpec) -> RunResult + Sync,
{
    loop {
        let claim = queue.lock().unwrap().claim(Instant::now());
        match claim {
            Claim::Drained => return,
            Claim::Wait(d) => std::thread::sleep(d.min(Duration::from_millis(25))),
            Claim::Lease(lease) => {
                // The supervisor is the last thread standing: chaos may
                // still panic/delay cells (contained below) but no
                // longer kills the executor.
                if let Some(ch) = cfg.chaos {
                    if let Some(d) = ch.delay_for(&lease.fp, lease.attempt) {
                        std::thread::sleep(d);
                    }
                }
                match run_leased(&lease, cfg.chaos, exec) {
                    Ok(result) => {
                        let verdict = queue.lock().unwrap().complete(&lease.fp);
                        if let CompleteVerdict::Accepted { attempts } = verdict {
                            record_done(
                                &lease.spec,
                                lease.fp,
                                *result,
                                attempts,
                                entries,
                                full,
                                store,
                                metrics,
                            );
                            *resolved_this_run += 1;
                            if cfg.stop_after.is_some_and(|n| *resolved_this_run >= n) {
                                *stopped_early = true;
                                return;
                            }
                        } else {
                            metrics.stale_completions += 1;
                        }
                    }
                    Err(msg) => {
                        metrics.panics_caught += 1;
                        let _ = queue.lock().unwrap().fail_attempt(
                            &lease.fp,
                            lease.epoch,
                            &msg,
                            Instant::now(),
                        );
                        if let Some(ops) = ops {
                            ops.note(format!(
                                "panic contained (serial): cell {} epoch {}: {msg}",
                                lease.fp, lease.epoch
                            ));
                        }
                    }
                }
                if let Some(ops) = ops {
                    let status = queue.lock().unwrap().status(Instant::now());
                    ops.tick(metrics, status);
                }
            }
        }
    }
}

/// Render an orchestrated sweep as a report: per-cell table plus the
/// orchestrator counters.
#[must_use]
pub fn render_report(outcome: &OrchOutcome) -> String {
    let mut table = crate::report::Table::new(&[
        "app", "policy", "rate%", "seed", "status", "attempts", "cycles", "error",
    ]);
    for entry in outcome.entries.values() {
        let r = &entry.record;
        table.row(vec![
            entry.app.clone(),
            entry.policy.clone(),
            entry.rate_pct.to_string(),
            entry.seed.to_string(),
            r.status.clone(),
            r.attempts.to_string(),
            r.cycles.to_string(),
            r.error.clone().unwrap_or_default(),
        ]);
    }
    let stopped = if outcome.stopped_early {
        "\nNOTE: run stopped early (--stop-after); resume to finish.\n"
    } else {
        ""
    };
    format!(
        "orchestrated sweep — {} cells resolved ({} failed)\n\n{}\n{}{stopped}",
        outcome.entries.len(),
        outcome
            .entries
            .values()
            .filter(|e| e.record.is_worker_failure())
            .count(),
        table.render(),
        outcome.metrics.report_section(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    fn cell(app: &str, preset: PolicyPreset, rate: f64, seed: u64) -> CellSpec {
        CellSpec {
            spec: registry::by_abbr(app).unwrap(),
            preset,
            rate,
            seed,
            scale: 0.25,
        }
    }

    /// Cheap deterministic fake "simulation": counters derived from
    /// the fingerprint, so identical cells produce identical results
    /// and different cells differ.
    fn fake_exec(spec: &CellSpec) -> RunResult {
        let fp = spec.fingerprint();
        let h = u64::from_str_radix(&fp, 16).unwrap();
        let mut r = RunResult::failed("unset");
        r.outcome = Outcome::Completed;
        r.error = None;
        r.cycles = h % 1_000_000;
        r.accesses = h % 10_000;
        r.engine.faults = h % 1_000;
        r.bytes_h2d = h % 65_536;
        r
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = cell("STN", PolicyPreset::Cppe, 0.5, 1);
        assert_eq!(a.fingerprint(), a.fingerprint());
        let b = cell("STN", PolicyPreset::Cppe, 0.5, 2);
        let c = cell("STN", PolicyPreset::Baseline, 0.5, 1);
        let d = cell("MRQ", PolicyPreset::Cppe, 0.5, 1);
        let e = cell("STN", PolicyPreset::Cppe, 0.75, 1);
        let fps = [
            a.fingerprint(),
            b.fingerprint(),
            c.fingerprint(),
            d.fingerprint(),
            e.fingerprint(),
        ];
        let uniq: HashSet<_> = fps.iter().collect();
        assert_eq!(uniq.len(), fps.len());
    }

    #[test]
    fn entry_json_round_trips() {
        let spec = cell("STN", PolicyPreset::Cppe, 0.5, 42);
        let record = CellRecord {
            status: "completed".into(),
            attempts: 2,
            cycles: u64::MAX,
            accesses: 123,
            faults: 7,
            pages_migrated: 8,
            pages_evicted: 9,
            bytes_h2d: 10,
            bytes_d2h: 11,
            wrong_evictions: 1,
            error: Some("odd \"quoted\" error\nwith newline".into()),
        };
        let entry = CellEntry::from_spec(&spec, spec.fingerprint(), record);
        let line = entry.to_json();
        json::validate(&line).unwrap();
        let back = CellEntry::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, entry);
    }

    #[test]
    fn entry_json_rejects_missing_fields() {
        let v = json::parse("{\"fp\":\"x\"}").unwrap();
        let err = CellEntry::from_json(&v).unwrap_err();
        assert!(err.contains("missing/mistyped"));
    }

    #[test]
    fn duplicate_cells_are_deduped_with_one_execution() {
        let c = cell("STN", PolicyPreset::Baseline, 0.5, 1);
        let cells = vec![c.clone(), c.clone(), c];
        let cfg = OrchestratorConfig::new(ExpConfig::quick());
        let out = orchestrate_with(cells, None, &cfg, fake_exec);
        assert_eq!(out.entries.len(), 1);
        assert_eq!(out.metrics.cells_deduped, 2);
        assert_eq!(out.metrics.cells_completed, 1);
        assert_eq!(out.metrics.leases_issued, 1);
    }

    #[test]
    fn parallel_fake_sweep_matches_serial() {
        let cells: Vec<CellSpec> = (0..24)
            .map(|i| cell("STN", PolicyPreset::Baseline, 0.5, i))
            .collect();
        let mut serial_cfg = OrchestratorConfig::new(ExpConfig::quick());
        serial_cfg.threads = 1;
        let serial = orchestrate_with(cells.clone(), None, &serial_cfg, fake_exec);
        let mut par_cfg = OrchestratorConfig::new(ExpConfig::quick());
        par_cfg.threads = 8;
        let parallel = orchestrate_with(cells, None, &par_cfg, fake_exec);
        assert_eq!(serial.entries, parallel.entries);
        assert_eq!(serial.entries.len(), 24);
    }

    #[test]
    fn report_renders_counts_and_counters() {
        let cells = vec![cell("STN", PolicyPreset::Baseline, 0.5, 1)];
        let cfg = OrchestratorConfig::new(ExpConfig::quick());
        let out = orchestrate_with(cells, None, &cfg, fake_exec);
        let report = render_report(&out);
        assert!(report.contains("1 cells resolved (0 failed)"));
        assert!(report.contains("orch.leases.issued = 1"));
    }
}
