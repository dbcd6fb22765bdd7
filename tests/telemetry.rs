//! Telemetry integration suite: the observability layer must be free
//! when off, truthful when on.
//!
//! * Bit-identity: enabling the tracer changes nothing about the run
//!   itself; `tests/perf_identity.rs` holds the golden fingerprints
//!   with tracing on.
//! * Counter parity: per-epoch deltas in the sampled series sum back to
//!   the end-of-run totals the simulator reports.
//! * Golden schema: the timeline CSV header and Chrome trace shape are
//!   frozen; exporters must not drift silently.
//! * Bounded ring: overflowing the event ring drops the oldest records
//!   and keeps the newest, without panicking.

use cppe::presets::PolicyPreset;
use gpu::RunResult;
use harness::{run_cell, ExpConfig};
use telemetry::{csv, json, TraceConfig};
use workloads::registry;

/// The frozen timeline CSV header: `epoch,cycle` then every metric in
/// registration order. Changing the schema is allowed — but it must be
/// deliberate, so update this constant (and EXPERIMENTS.md) with it.
const GOLDEN_HEADER: &str = "epoch,cycle,\
cppe.faults,cppe.pages_migrated,cppe.pages_prefetched,cppe.chunk_evictions,\
cppe.pages_evicted,cppe.total_untouch,cppe.wrong_evictions,\
driver.batches,driver.faults_serviced,driver.coalesced_faults,\
driver.retries,driver.retry_backoff_cycles,driver.injected_transfer_faults,\
driver.migrations_aborted,driver.latency_spike_batches,driver.batch_splits,\
driver.deferred_faults,driver.throttle_sheds,driver.policy_fallbacks,\
driver.rung_recoveries,\
inject.transfer_failures,inject.latency_spikes,inject.degraded_queries,\
pcie.bytes_h2d,pcie.bytes_d2h,\
mem.resident_pages,mem.free_frames,cppe.chain_len,cppe.prefetch_throttle,\
driver.rung,\
telemetry.ring.dropped,telemetry.spans.dropped";

fn run_with(trace: TraceConfig) -> RunResult {
    let mut cfg = ExpConfig {
        scale: 0.25,
        ..ExpConfig::default()
    };
    cfg.gpu.trace = trace;
    let w = registry::by_abbr("STN").expect("known app");
    run_cell(&w, PolicyPreset::Cppe, 0.5, &cfg)
}

#[test]
fn epoch_deltas_reconcile_with_run_totals() {
    let r = run_with(TraceConfig::on());
    let t = r.telemetry.as_ref().unwrap();
    t.series.parity().expect("delta sums match final totals");
    // One epoch per serviced fault batch.
    assert_eq!(t.series.rows.len() as u64, r.driver.batches);
    // The sampled final totals are the run's own numbers.
    assert_eq!(t.series.final_total("cppe.faults"), r.engine.faults);
    assert_eq!(
        t.series.final_total("cppe.pages_evicted"),
        r.engine.pages_evicted
    );
    assert_eq!(t.series.final_total("driver.batches"), r.driver.batches);
    assert_eq!(t.series.final_total("pcie.bytes_h2d"), r.bytes_h2d);
    assert_eq!(t.series.final_total("pcie.bytes_d2h"), r.bytes_d2h);
    // Residency gauge closes against the allocator.
    assert_eq!(
        t.series.final_total("mem.resident_pages") + t.series.final_total("mem.free_frames"),
        u64::from(r.frames_capacity)
    );
}

#[test]
fn golden_csv_and_chrome_trace_schema() {
    let r = run_with(TraceConfig::on());
    let t = r.telemetry.as_ref().unwrap();

    let timeline = telemetry::export::timeline_csv(&t.series);
    let header = csv::validate(&timeline).expect("well-formed CSV");
    assert_eq!(header.join(","), GOLDEN_HEADER, "timeline schema drifted");
    assert_eq!(
        timeline.lines().count() as u64,
        1 + r.driver.batches,
        "one row per fault batch"
    );

    let summary = telemetry::export::run_summary_json("completed", r.cycles, t);
    json::validate(&summary).expect("well-formed summary JSON");
    assert!(summary.contains("\"outcome\":\"completed\""));
    assert!(summary.contains("\"metrics\":{"));

    let trace = telemetry::export::chrome_trace_json(t);
    json::validate(&trace).expect("well-formed Chrome trace JSON");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"M\""), "track metadata missing");
    assert!(trace.contains("\"ph\":\"X\""), "batch/DMA spans missing");
    assert!(
        trace.contains("\"name\":\"batch\""),
        "batch lifecycle missing"
    );
}

#[test]
fn event_ring_overflow_keeps_newest_without_panicking() {
    let full = run_with(TraceConfig::on());
    let full_events = full.telemetry.unwrap().events;
    assert!(
        full_events.len() > 8,
        "run too small to exercise the ring bound"
    );

    let tiny = run_with(TraceConfig {
        ring_capacity: 8,
        ..TraceConfig::on()
    });
    let t = tiny.telemetry.unwrap();
    assert_eq!(t.events.len(), 8);
    assert_eq!(t.dropped_events as usize, full_events.len() - 8);
    // Drop-oldest: what survives is exactly the tail of the full run.
    let tail = &full_events[full_events.len() - 8..];
    for (kept, expected) in t.events.iter().zip(tail) {
        assert_eq!(kept.cycle, expected.cycle);
        assert_eq!(kept.event.name(), expected.event.name());
    }
}
