//! Extension: host-side self-profiler + parallelism-readiness
//! observatory.
//!
//! Runs the CPPE preset over the pattern-diverse paper subset
//! (STN/KMN/SRD, matching the speed/profile baselines) plus one
//! synthesized LLM-serving stream, once with host profiling off and
//! once with it on (best of [`REPS`] interleaved timed runs each,
//! after warmup), and exports `BENCH_hostprof.json` (schema
//! [`SCHEMA`]):
//!
//! * per-kind wall-clock attribution over the event loop (batched
//!   `Instant` sampling — see `sim_core::hostprof`), covering ≥90 % of
//!   loop wall time by construction,
//! * event-queue near-ring / far-heap depth quantiles,
//! * zero-alloc path counters (waiter-slab reuse rate, scratch-buffer
//!   recycling) for the PR 5 hot-loop claims,
//! * per-cycle cohort reductions and the Amdahl-style work-span
//!   speedup ceilings at 2/4/8/16/∞ workers — the observability the
//!   ROADMAP's "intra-run parallelism" item needs before any threading
//!   of the hot loop is attempted,
//! * the measured on/off overhead ratio, which [`check_overhead`]
//!   gates at [`OVERHEAD_TOLERANCE`] (CI fails past a 5 % geomean).
//!
//! Profiling is strictly read-only: the on-run must report the exact
//! cycles/accesses of the off-run or [`measure_at`] panics (the repo-root
//! `tests/perf_identity.rs` additionally locks profiled runs, and the
//! profile's deterministic fields, on the golden cells).
//!
//! When `CPPE_STATUS_PORT` is set, the hot counters are also surfaced
//! live through the `/metrics` Prometheus endpoint for the duration of
//! the measurement (same env contract as the sweep orchestrator).

use crate::report::Table;
use crate::runner::{capacity_for, CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;
use gmmu::types::{VirtPage, PAGES_PER_CHUNK};
use sim_core::hostprof::{HostProfile, KIND_COUNT, WORKER_POINTS};
use std::fmt::Write as _;
use telemetry::json;
use workloads::{AccessStep, LaneItem};

/// Schema marker for external tooling.
pub const SCHEMA: &str = "cppe-hostprof-v1";

/// Pattern-diverse paper subset, matching the speed/profile baselines.
pub const APPS: [&str; 3] = ["STN", "KMN", "SRD"];

/// Label of the synthesized serving stream.
pub const SERVING: &str = "SRV";

/// Bench scale (matches the speed baseline).
pub const BENCH_SCALE: f64 = 0.25;

/// Oversubscription rate for every cell.
pub const RATE: f64 = 0.5;

/// Timed repetitions per on/off arm (after one untimed warmup); the
/// *minimum* is reported — profiling cost is strictly additive, so the
/// best-vs-best ratio is the noise-robust overhead estimator (a
/// CPU-contention burst inflates medians of both arms asymmetrically
/// but rarely hits every rep of an interleaved arm).
pub const REPS: usize = 9;

/// Maximum allowed geometric-mean on/off wall ratio before
/// [`check_overhead`] fails: 1.05 = a >5 % profiling overhead.
pub const OVERHEAD_TOLERANCE: f64 = 1.05;

/// One profiled app.
#[derive(Debug, Clone)]
pub struct HostprofCell {
    /// App label (`STN`/`KMN`/`SRD`/`SRV`).
    pub app: &'static str,
    /// Simulated cycles (identical across reps and across the on/off
    /// arms — profiling is read-only).
    pub cycles: u64,
    /// Best (minimum) wall ms of [`REPS`] runs with profiling off.
    pub off_wall_ms: f64,
    /// Best (minimum) wall ms of [`REPS`] runs with profiling on.
    pub on_wall_ms: f64,
    /// The host profile from one on-run.
    pub profile: HostProfile,
}

impl HostprofCell {
    /// On/off wall ratio (the measured profiling overhead).
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        if self.off_wall_ms > 0.0 {
            self.on_wall_ms / self.off_wall_ms
        } else {
            1.0
        }
    }
}

/// Synthesize the LLM-serving decode stream: each lane (a request slot)
/// grows an append-only per-lane KV region one page per decode step
/// while re-reading shared weight pages and its own recent context —
/// the paper's taxonomy has no pattern with per-lane streaming growth
/// *plus* cross-lane hot re-reads, which is exactly the mix that
/// stresses cohort independence. A barrier every 16 steps models the
/// serving scheduler's batching tick. Fully deterministic.
///
/// Returns `(streams, footprint_pages)`.
#[must_use]
pub fn serving_streams(lanes: usize, scale: f64) -> (Vec<Vec<LaneItem>>, u64) {
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let weight_pages = ((512.0 * scale).ceil() as u64).max(PAGES_PER_CHUNK);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let kv_per_lane = ((256.0 * scale).ceil() as u64).max(8);
    let mut streams = Vec::with_capacity(lanes);
    for lane in 0..lanes as u64 {
        let kv_base = weight_pages + lane * kv_per_lane;
        let mut items = Vec::new();
        for step in 0..kv_per_lane {
            // Attention re-reads two weight pages (lane-staggered so
            // the hot set rotates deterministically)...
            for probe in 0..2u64 {
                let w = (lane * 7 + step * 3 + probe * 11) % weight_pages;
                items.push(LaneItem::Access(AccessStep {
                    page: VirtPage(w),
                    compute: 2,
                }));
            }
            // ...appends one fresh KV page (per-lane streaming growth)...
            items.push(LaneItem::Access(AccessStep {
                page: VirtPage(kv_base + step),
                compute: 1,
            }));
            // ...and re-reads recent context (its own KV tail).
            if step > 0 {
                items.push(LaneItem::Access(AccessStep {
                    page: VirtPage(kv_base + step - 1),
                    compute: 1,
                }));
                items.push(LaneItem::Access(AccessStep {
                    page: VirtPage(kv_base + step / 2),
                    compute: 3,
                }));
            }
            if step % 16 == 15 {
                items.push(LaneItem::Barrier);
            }
        }
        streams.push(items);
    }
    let footprint = weight_pages + lanes as u64 * kv_per_lane;
    let pages = footprint.div_ceil(PAGES_PER_CHUNK) * PAGES_PER_CHUNK;
    (streams, pages)
}

fn best(times: Vec<f64>) -> f64 {
    times.into_iter().fold(f64::INFINITY, f64::min)
}

/// Profile every app: for each, the CPPE preset at workload `scale`
/// and oversubscription `rate` (capacity = `rate × footprint`), one
/// warmup then best-of-[`REPS`] wall times with profiling off and on
/// (interleaved), keeping the [`HostProfile`] of the final on-run.
/// [`BENCH_SCALE`] and [`RATE`] are the bench point; cohort shapes are
/// widest at full scale / high oversubscription (`cppe hostprof
/// --scale 1.0 --rate 0.25`).
///
/// # Panics
/// Panics if the profiled run diverges from the unprofiled run in
/// cycles or accesses — profiling must be read-only.
#[must_use]
pub fn measure_at(cfg: &ExpConfig, scale: f64, rate: f64) -> Vec<HostprofCell> {
    let cfg = ExpConfig { scale, ..*cfg };
    let mut cells = Vec::new();
    let mut apps: Vec<(&'static str, CellInputs)> = APPS
        .iter()
        .map(|&abbr| (abbr, CellInputs::of(abbr, rate, &cfg)))
        .collect();
    let (srv_streams, srv_pages) = serving_streams(cfg.gpu.lanes(), cfg.scale);
    apps.push((
        SERVING,
        CellInputs {
            streams: srv_streams,
            capacity_pages: capacity_for(srv_pages, rate),
            footprint: srv_pages,
            seed: cfg.seed ^ 0x5E41_11CE,
        },
    ));

    for (app, cell) in apps {
        let run = |profiled: bool| {
            let gpu = gpu::GpuConfig {
                hostprof: profiled,
                ..cfg.gpu
            };
            cell.run_preset(&gpu, PolicyPreset::Cppe)
        };
        let warm = run(false);
        // Interleave the off/on arms (off, on, off, on, …) so slow
        // clock/thermal drift over the measurement cancels out of the
        // ratio instead of systematically penalizing the later arm.
        let mut off_walls = Vec::with_capacity(REPS);
        let mut on_walls = Vec::with_capacity(REPS);
        let mut off_run = None;
        let mut on_run = None;
        for _ in 0..REPS {
            for profiled in [false, true] {
                let t0 = std::time::Instant::now();
                let r = run(profiled);
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(r.cycles, warm.cycles, "{app}: non-deterministic run");
                assert_eq!(
                    r.accesses, warm.accesses,
                    "{app}: profiling perturbed the run"
                );
                if profiled {
                    on_walls.push(wall);
                    on_run = Some(r);
                } else {
                    off_walls.push(wall);
                    off_run = Some(r);
                }
            }
        }
        let (off_wall_ms, on_wall_ms) = (best(off_walls), best(on_walls));
        assert!(
            off_run.expect("REPS > 0").hostprof.is_none(),
            "profiling-off run carried a profile"
        );
        let profile = on_run
            .expect("REPS > 0")
            .hostprof
            .expect("profiling-on run lost its profile");
        cells.push(HostprofCell {
            app,
            cycles: warm.cycles,
            off_wall_ms,
            on_wall_ms,
            profile,
        });
    }
    cells
}

fn write_kinds(s: &mut String, p: &HostProfile) {
    s.push_str("\"kinds\":[");
    for (i, (label, count, wall)) in p.ranked_kinds().into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        #[allow(clippy::cast_precision_loss)]
        let share = if p.loop_wall_ns == 0 {
            0.0
        } else {
            wall as f64 / p.loop_wall_ns as f64
        };
        let _ = write!(
            s,
            "{{\"kind\":\"{label}\",\"count\":{count},\"wall_ns\":{wall},\"share\":{share:.4}}}"
        );
    }
    s.push(']');
}

/// Render cells as the `BENCH_hostprof.json` document (schema
/// [`SCHEMA`]), stamped with the scale/rate of the [`measure_at`] call
/// that produced them.
#[must_use]
pub fn hostprof_json_at(cells: &[HostprofCell], scale: f64, rate: f64) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"schema\":\"{SCHEMA}\",\"scale\":{scale},\"rate\":{rate},\
         \"reps\":{REPS},\"apps\":["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let p = &c.profile;
        let _ = write!(
            s,
            "{{\"app\":\"{}\",\"cycles\":{},\
             \"overhead\":{{\"off_wall_ms\":{:.3},\"on_wall_ms\":{:.3},\"ratio\":{:.4}}},\
             \"loop_wall_ns\":{},\"events\":{},\"instant_samples\":{},\"sample_window\":{},\
             \"attributed_ns\":{},\"attributed_share\":{:.4},",
            c.app,
            c.cycles,
            c.off_wall_ms,
            c.on_wall_ms,
            c.overhead_ratio(),
            p.loop_wall_ns,
            p.events,
            p.instant_samples,
            p.sample_window,
            p.attributed_ns(),
            p.attributed_share(),
        );
        write_kinds(&mut s, p);
        let _ = write!(
            s,
            ",\"queue\":{{\"samples\":{},\"ring_p50\":{},\"ring_p95\":{},\"ring_max\":{},\
             \"far_p50\":{},\"far_p95\":{},\"far_max\":{}}}",
            p.ring_depth.count(),
            p.ring_depth.p50(),
            p.ring_depth.p95(),
            p.ring_depth.max(),
            p.far_depth.p50(),
            p.far_depth.p95(),
            p.far_depth.max(),
        );
        let a = &p.alloc;
        let _ = write!(
            s,
            ",\"alloc\":{{\"waiter_reuses\":{},\"waiter_grows\":{},\"waiter_high_water\":{},\
             \"waiter_reuse_rate\":{:.4},\"scratch_recycled\":{},\"scratch_fresh\":{},\
             \"scratch_reuse_rate\":{:.4}}}",
            a.waiter_reuses,
            a.waiter_grows,
            a.waiter_high_water,
            a.waiter_reuse_rate(),
            a.scratch_recycled,
            a.scratch_fresh,
            a.scratch_reuse_rate(),
        );
        let co = &p.cohorts;
        let _ = write!(
            s,
            ",\"cohorts\":{{\"cycles\":{},\"events\":{},\"mean_size\":{:.3},\"p95_size\":{},\
             \"max_size\":{},\"mean_distinct_sms\":{:.3},\"page_events\":{},\
             \"conflict_events\":{},\"conflict_rate\":{:.4},\"serial_events\":{}}}",
            co.cycles,
            co.events,
            co.mean_size(),
            co.cohort_size.p95(),
            co.cohort_size.max(),
            co.distinct_sms.mean(),
            co.page_events,
            co.conflict_events,
            co.conflict_rate(),
            co.serial_events,
        );
        let _ = write!(
            s,
            ",\"amdahl\":{{\"serial_fraction\":{:.4},\"span\":{}",
            co.serial_fraction(),
            co.span,
        );
        for &w in &WORKER_POINTS {
            let _ = write!(
                s,
                ",\"ceiling_w{w}\":{:.3}",
                co.ceiling_at(w).unwrap_or(1.0)
            );
        }
        let _ = write!(s, ",\"ceiling_inf\":{:.3}}}}}", co.ceiling_inf());
    }
    s.push_str("]}");
    s
}

fn field_u64(v: &json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(json::Value::as_u64)
        .ok_or_else(|| format!("missing numeric \"{key}\""))
}

fn field_f64(v: &json::Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("missing numeric \"{key}\""))
}

fn sub<'a>(v: &'a json::Value, key: &str) -> Result<&'a json::Value, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

/// Schema-check a `BENCH_hostprof.json` document (the `validate-trace`
/// hook): counter consistency (per-kind counts sum to the event total,
/// per-kind wall sums to the attributed total and never exceeds the
/// loop wall), attribution coverage ≥90 % whenever events were
/// dispatched, queue-depth quantile ordering, cohort sanity (≥1 event
/// per cohort) and speedup-ceiling monotonicity in the worker count.
/// Returns a one-line summary.
///
/// # Errors
/// Describes the first malformation.
pub fn validate_doc(body: &str) -> Result<String, String> {
    let v = json::parse(body)?;
    match v.get("schema").and_then(json::Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema marker {other:?}, want {SCHEMA:?}")),
    }
    let apps = v
        .get("apps")
        .and_then(json::Value::as_array)
        .ok_or("missing \"apps\" array")?;
    if apps.is_empty() {
        return Err("empty \"apps\" array".into());
    }
    let mut total_events = 0u64;
    for entry in apps {
        let app = entry
            .get("app")
            .and_then(json::Value::as_str)
            .ok_or("app entry without \"app\"")?;
        let err = |msg: String| format!("{app}: {msg}");
        let events = field_u64(entry, "events").map_err(&err)?;
        let loop_wall = field_u64(entry, "loop_wall_ns").map_err(&err)?;
        let attributed = field_u64(entry, "attributed_ns").map_err(&err)?;
        let kinds = entry
            .get("kinds")
            .and_then(json::Value::as_array)
            .ok_or_else(|| err("missing \"kinds\" array".into()))?;
        if kinds.len() != KIND_COUNT {
            return Err(err(format!("{} kinds, want {KIND_COUNT}", kinds.len())));
        }
        let mut count_sum = 0u64;
        let mut wall_sum = 0u64;
        for k in kinds {
            count_sum += field_u64(k, "count").map_err(&err)?;
            wall_sum += field_u64(k, "wall_ns").map_err(&err)?;
        }
        if count_sum != events {
            return Err(err(format!(
                "kind counts sum {count_sum} != events {events}"
            )));
        }
        if wall_sum != attributed {
            return Err(err(format!(
                "kind wall sum {wall_sum} != attributed_ns {attributed}"
            )));
        }
        if attributed > loop_wall {
            return Err(err(format!(
                "attributed_ns {attributed} > loop_wall_ns {loop_wall}"
            )));
        }
        let share = field_f64(entry, "attributed_share").map_err(&err)?;
        if events > 0 && share < 0.90 {
            return Err(err(format!("attributed_share {share} < 0.90")));
        }
        let queue = sub(entry, "queue").map_err(&err)?;
        let samples = field_u64(queue, "samples").map_err(&err)?;
        if samples != field_u64(entry, "instant_samples").map_err(&err)? {
            return Err(err("queue samples != instant_samples".into()));
        }
        for tier in ["ring", "far"] {
            let p50 = field_u64(queue, &format!("{tier}_p50")).map_err(&err)?;
            let p95 = field_u64(queue, &format!("{tier}_p95")).map_err(&err)?;
            let max = field_u64(queue, &format!("{tier}_max")).map_err(&err)?;
            if p50 > p95 || p95 > max {
                return Err(err(format!(
                    "{tier} quantiles out of order: {p50}/{p95}/{max}"
                )));
            }
        }
        let cohorts = sub(entry, "cohorts").map_err(&err)?;
        let co_events = field_u64(cohorts, "events").map_err(&err)?;
        let co_cycles = field_u64(cohorts, "cycles").map_err(&err)?;
        if co_events != events {
            return Err(err(format!("cohort events {co_events} != events {events}")));
        }
        if events > 0 {
            if co_cycles == 0 {
                return Err(err("events > 0 but zero cohort cycles".into()));
            }
            let mean = field_f64(cohorts, "mean_size").map_err(&err)?;
            if mean < 1.0 {
                return Err(err(format!("cohort mean_size {mean} < 1")));
            }
        }
        let amdahl = sub(entry, "amdahl").map_err(&err)?;
        let mut prev = 1.0f64;
        for &w in &WORKER_POINTS {
            let c = field_f64(amdahl, &format!("ceiling_w{w}")).map_err(&err)?;
            if c < prev - 1e-9 {
                return Err(err(format!("ceiling_w{w} {c} below previous {prev}")));
            }
            prev = c;
        }
        let inf = field_f64(amdahl, "ceiling_inf").map_err(&err)?;
        if inf < prev - 1e-9 {
            return Err(err(format!("ceiling_inf {inf} below ceiling_w16 {prev}")));
        }
        let overhead = sub(entry, "overhead").map_err(&err)?;
        if field_f64(overhead, "ratio").map_err(&err)? <= 0.0 {
            return Err(err("non-positive overhead ratio".into()));
        }
        total_events += events;
    }
    Ok(format!(
        "{} apps, {total_events} events attributed",
        apps.len()
    ))
}

/// Gate the measured profiling overhead: geometric-mean on/off wall
/// ratio across apps must stay at or below [`OVERHEAD_TOLERANCE`].
/// Returns `(report, failed)`.
#[must_use]
pub fn check_overhead(cells: &[HostprofCell]) -> (String, bool) {
    let mut t = Table::new(&["app", "off ms", "on ms", "ratio"]);
    let mut log_sum = 0.0f64;
    for c in cells {
        let ratio = c.overhead_ratio();
        log_sum += ratio.ln();
        t.row(vec![
            c.app.to_string(),
            format!("{:.3}", c.off_wall_ms),
            format!("{:.3}", c.on_wall_ms),
            format!("{ratio:.3}"),
        ]);
    }
    #[allow(clippy::cast_precision_loss)]
    let gmean = if cells.is_empty() {
        1.0
    } else {
        (log_sum / cells.len() as f64).exp()
    };
    let failed = gmean > OVERHEAD_TOLERANCE;
    let mut out = t.render();
    let _ = write!(
        out,
        "\ngeometric-mean profiling overhead: {gmean:.3} (tolerance {OVERHEAD_TOLERANCE}) — {}\n",
        if failed { "OVER BUDGET" } else { "ok" }
    );
    (out, failed)
}

/// Live `/metrics` source for the duration of a hostprof run: the
/// per-app hot counters, refreshed after each app completes.
struct HostprofOps {
    metrics: std::sync::Mutex<Vec<(String, u64)>>,
}

impl HostprofOps {
    fn absorb(&self, cells: &[HostprofCell]) {
        let mut m = self.metrics.lock().unwrap();
        m.clear();
        for c in cells {
            let p = &c.profile;
            m.push((format!("hostprof.{}.events", c.app), p.events));
            m.push((format!("hostprof.{}.loop_wall_ns", c.app), p.loop_wall_ns));
            for (label, count, wall) in p.ranked_kinds() {
                m.push((format!("hostprof.{}.{label}.count", c.app), count));
                m.push((format!("hostprof.{}.{label}.wall_ns", c.app), wall));
            }
            m.push((
                format!("hostprof.{}.conflict_events", c.app),
                p.cohorts.conflict_events,
            ));
        }
    }
}

impl telemetry::OpsSource for HostprofOps {
    fn metrics_text(&self) -> String {
        let m = self.metrics.lock().unwrap();
        telemetry::expose::prometheus_text(
            m.iter()
                .map(|(name, v)| (name.as_str(), telemetry::MetricKind::Counter, *v)),
        )
    }

    fn status_json(&self) -> String {
        let m = self.metrics.lock().unwrap();
        format!(
            "{{\"schema\":\"cppe-hostprof-status-v1\",\"metrics\":{}}}",
            m.len()
        )
    }
}

/// Render the text report under a scale/rate header: per app, kinds
/// ranked by wall share plus the queue/alloc/cohort summary and the
/// projected speedup ceilings.
#[must_use]
pub fn render_report_at(cells: &[HostprofCell], scale: f64, rate: f64) -> String {
    let mut out = format!(
        "Hostprof (extension) — host wall-clock attribution and parallelism \
         readiness\nCPPE preset at scale {scale}, rate {rate}, best of {REPS} \
         interleaved runs per arm\n(machine-readable export in results/BENCH_hostprof.json, \
         schema {SCHEMA})\n\n"
    );
    for c in cells {
        let p = &c.profile;
        let _ = writeln!(
            out,
            "== {} — {} events over {:.3} ms loop wall ({:.1} % attributed), \
             overhead ×{:.3}",
            c.app,
            p.events,
            p.loop_wall_ns as f64 / 1e6,
            p.attributed_share() * 100.0,
            c.overhead_ratio(),
        );
        let mut t = Table::new(&["kind", "count", "wall ms", "share %"]);
        for (label, count, wall) in p.ranked_kinds() {
            #[allow(clippy::cast_precision_loss)]
            let share = if p.loop_wall_ns == 0 {
                0.0
            } else {
                wall as f64 * 100.0 / p.loop_wall_ns as f64
            };
            t.row(vec![
                label.to_string(),
                count.to_string(),
                format!("{:.3}", wall as f64 / 1e6),
                format!("{share:.1}"),
            ]);
        }
        out.push_str(&t.render());
        let co = &p.cohorts;
        let _ = write!(
            out,
            "queue depth p50/p95/max: ring {}/{}/{}, far {}/{}/{}\n\
             alloc: waiter reuse {:.1} % (high water {}), scratch reuse {:.1} %\n\
             cohorts: {} cycles, mean size {:.2}, mean distinct SMs {:.2}, \
             conflict rate {:.2} %\n\
             speedup ceiling: ",
            p.ring_depth.p50(),
            p.ring_depth.p95(),
            p.ring_depth.max(),
            p.far_depth.p50(),
            p.far_depth.p95(),
            p.far_depth.max(),
            p.alloc.waiter_reuse_rate() * 100.0,
            p.alloc.waiter_high_water,
            p.alloc.scratch_reuse_rate() * 100.0,
            co.cycles,
            co.mean_size(),
            co.distinct_sms.mean(),
            co.conflict_rate() * 100.0,
        );
        for &w in &WORKER_POINTS {
            let _ = write!(out, "×{:.2} @{w}w, ", co.ceiling_at(w).unwrap_or(1.0));
        }
        let _ = write!(
            out,
            "×{:.2} @∞ (serial fraction {:.1} %)\n\n",
            co.ceiling_inf(),
            co.serial_fraction() * 100.0,
        );
    }
    out
}

/// Live `/metrics` + `/status` server handle for a hostprof run,
/// armed by `CPPE_STATUS_PORT` (same env contract as the sweep
/// subcommands). Dropping it stops the server.
pub struct StatusHandle {
    _server: telemetry::StatusServer,
    ops: std::sync::Arc<HostprofOps>,
}

impl StatusHandle {
    /// Fold measured cells into the served counter set.
    pub fn publish(&self, cells: &[HostprofCell]) {
        self.ops.absorb(cells);
    }

    /// Sleep for `CPPE_STATUS_LINGER_MS` milliseconds (default 0) so a
    /// scraper can read the final counters before the process exits —
    /// the whole measurement takes well under a second.
    pub fn linger(&self) {
        let ms = std::env::var("CPPE_STATUS_LINGER_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if ms > 0 {
            eprintln!("[hostprof] status server lingering {ms} ms");
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

/// Start the status server when `CPPE_STATUS_PORT` is set. `None` when
/// unset or the bind fails (warned, never fatal).
#[must_use]
pub fn start_status() -> Option<StatusHandle> {
    let port = std::env::var("CPPE_STATUS_PORT").ok()?;
    let ops = std::sync::Arc::new(HostprofOps {
        metrics: std::sync::Mutex::new(Vec::new()),
    });
    match telemetry::StatusServer::start(&format!("127.0.0.1:{port}"), ops.clone()) {
        Ok(server) => {
            eprintln!("[hostprof] status server on http://{}", server.local_addr());
            Some(StatusHandle {
                _server: server,
                ops,
            })
        }
        Err(e) => {
            eprintln!("[hostprof] WARNING: status server failed to start: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::hostprof::{AllocProfile, HostKind, HostProfiler};

    fn synthetic_cell(app: &'static str, off_ms: f64, on_ms: f64) -> HostprofCell {
        let mut p = HostProfiler::new(4, 2);
        for i in 0..40u64 {
            let kind = if i % 5 == 0 {
                HostKind::BatchDispatch
            } else {
                HostKind::AccessHit
            };
            let sm = (i % 5 != 0).then_some((i % 2) as u16);
            p.note(kind, i / 3, sm, Some(i % 7), 3, 1);
            std::hint::black_box(i.wrapping_mul(0x9E37_79B9));
        }
        let profile = p.finish(
            0,
            0,
            AllocProfile {
                waiter_reuses: 30,
                waiter_grows: 10,
                waiter_high_water: 10,
                scratch_recycled: 7,
                scratch_fresh: 1,
            },
        );
        HostprofCell {
            app,
            cycles: 1000,
            off_wall_ms: off_ms,
            on_wall_ms: on_ms,
            profile,
        }
    }

    #[test]
    fn export_validates_against_own_schema() {
        let cells = vec![
            synthetic_cell("STN", 10.0, 10.2),
            synthetic_cell("SRV", 5.0, 5.1),
        ];
        let doc = hostprof_json_at(&cells, BENCH_SCALE, RATE);
        telemetry::json::validate(&doc).unwrap();
        let detail = validate_doc(&doc).unwrap();
        assert!(detail.contains("2 apps"), "{detail}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_doc("{}").is_err());
        assert!(validate_doc("{\"schema\":\"cppe-speed-v1\"}").is_err());
        let empty = format!("{{\"schema\":\"{SCHEMA}\",\"apps\":[]}}");
        assert!(validate_doc(&empty).unwrap_err().contains("empty"));
        // Corrupt a counter: events no longer matches the kind sum.
        let doc = hostprof_json_at(&[synthetic_cell("STN", 1.0, 1.0)], BENCH_SCALE, RATE);
        let bad = doc.replacen("\"events\":40", "\"events\":41", 1);
        assert!(validate_doc(&bad).unwrap_err().contains("counts sum"));
    }

    #[test]
    fn overhead_gate_passes_and_fails() {
        let ok = vec![synthetic_cell("STN", 10.0, 10.3)];
        let (report, failed) = check_overhead(&ok);
        assert!(!failed, "{report}");
        let over = vec![synthetic_cell("STN", 10.0, 11.0)];
        let (report, failed) = check_overhead(&over);
        assert!(failed, "{report}");
        assert!(report.contains("OVER BUDGET"));
    }

    #[test]
    fn serving_streams_are_deterministic_and_barrier_aligned() {
        let (a, pages_a) = serving_streams(4, 0.25);
        let (b, pages_b) = serving_streams(4, 0.25);
        assert_eq!(a, b, "serving synthesis must be deterministic");
        assert_eq!(pages_a, pages_b);
        assert_eq!(pages_a % PAGES_PER_CHUNK, 0, "footprint is chunk-aligned");
        let barriers = |s: &[LaneItem]| s.iter().filter(|i| **i == LaneItem::Barrier).count();
        let want = barriers(&a[0]);
        assert!(want > 0, "scheduler ticks present");
        assert!(
            a.iter().all(|s| barriers(s) == want),
            "lanes agree on barriers"
        );
        // Per-lane KV regions are disjoint and above the weight region.
        let max_page = |s: &[LaneItem]| {
            s.iter()
                .filter_map(|i| match i {
                    LaneItem::Access(st) => Some(st.page.0),
                    LaneItem::Barrier => None,
                })
                .max()
                .unwrap()
        };
        assert!(max_page(&a[3]) > max_page(&a[0]));
        assert!(max_page(&a[3]) < pages_a);
    }

    #[test]
    fn measured_serving_cell_profiles_end_to_end() {
        // One real (tiny) serving run through the full pipeline: the
        // export must self-validate and the profile must be populated.
        let cfg = ExpConfig::default();
        let lanes = cfg.gpu.lanes();
        let (streams, pages) = serving_streams(lanes, 0.05);
        let gpu = gpu::GpuConfig {
            hostprof: true,
            ..cfg.gpu
        };
        let r = gpu::simulate(
            &gpu,
            PolicyPreset::Cppe.build(1),
            &streams,
            capacity_for(pages, RATE),
            pages,
        );
        let p = r.hostprof.expect("profile present");
        assert!(p.events > 0);
        assert!(p.cohorts.ceiling_inf() >= 1.0);
        let cell = HostprofCell {
            app: SERVING,
            cycles: r.cycles,
            off_wall_ms: 1.0,
            on_wall_ms: 1.0,
            profile: p,
        };
        let doc = hostprof_json_at(&[cell], BENCH_SCALE, RATE);
        validate_doc(&doc).unwrap();
    }
}
