//! Span-profiler integration suite: the fault-lifecycle span layer must
//! be invisible to the simulation and structurally sound in its exports.
//!
//! * Bit-identity: span recording changes nothing about the run;
//!   `tests/perf_identity.rs` holds the golden fingerprints with
//!   tracing (and so span recording) on.
//! * Golden shape: the Chrome trace carries every lifecycle stage as
//!   balanced `B`/`E` pairs on per-lane tracks plus the driver-side
//!   `X` tracks.
//! * Nesting: on every track, `B`/`E` events form a well-formed stack.
//! * Reconciliation: child-stage durations sum to at most their
//!   `fault_total` root, and driver-side children sit inside their
//!   `driver_batch` span.
//! * Bounded ring: overflowing the span ring keeps the newest records,
//!   counts the loss, and still exports a balanced trace.

use cppe::presets::PolicyPreset;
use gpu::RunResult;
use harness::{run_cell, ExpConfig};
use std::collections::HashMap;
use telemetry::{export, SpanRecord, SpanStage, TraceConfig};
use workloads::registry;

fn traced_run(abbr: &str) -> RunResult {
    let mut cfg = ExpConfig {
        scale: 0.25,
        ..ExpConfig::default()
    };
    cfg.gpu.trace = TraceConfig {
        span_capacity: 1 << 20,
        ..TraceConfig::on()
    };
    let w = registry::by_abbr(abbr).expect("known app");
    run_cell(&w, PolicyPreset::Cppe, 0.5, &cfg)
}

fn field_u64(ev: &str, key: &str) -> u64 {
    let i = ev.find(key).expect("key present") + key.len();
    ev[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

fn field_str(ev: &str, key: &str) -> String {
    let i = ev.find(key).expect("key present") + key.len();
    ev[i..].split('"').next().unwrap().to_string()
}

#[test]
fn span_chrome_trace_has_golden_shape() {
    let r = traced_run("STN");
    let t = r.telemetry.as_ref().expect("traced");
    assert_eq!(t.dropped_spans, 0, "test ring sized for losslessness");
    let j = export::chrome_trace_json(t);
    telemetry::json::validate(&j).expect("well-formed trace JSON");
    let pairs = export::span_balance(&j).expect("balanced B/E events");
    assert!(pairs > 0, "lane span trees rendered");
    for name in [
        "fault_total",
        "tlb_l1",
        "tlb_l2",
        "walker_queue",
        "page_walk",
        "fault_queue_wait",
        "batch_service",
        "replay",
    ] {
        assert!(
            j.contains(&format!("\"ph\":\"B\",\"name\":\"{name}\"")),
            "lane stage {name} missing from trace"
        );
    }
    for track in [
        "span.driver_batch",
        "span.host_service",
        "span.pcie_transfer",
        "span.eviction_dma",
    ] {
        assert!(
            j.contains(&format!("\"name\":\"{track}\"")),
            "driver track {track} missing from trace"
        );
    }
    assert!(j.contains("\"name\":\"lane0\""), "per-lane track named");
}

#[test]
fn span_events_form_well_nested_stacks_per_track() {
    let r = traced_run("STN");
    let j = export::chrome_trace_json(&r.telemetry.expect("traced"));
    let body = j
        .trim_start_matches("{\"traceEvents\":[")
        .trim_end_matches("]}");
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut events = 0usize;
    for ev in body.split("},{") {
        let ph = if ev.contains("\"ph\":\"B\"") {
            'B'
        } else if ev.contains("\"ph\":\"E\"") {
            'E'
        } else {
            continue;
        };
        events += 1;
        let tid = field_u64(ev, "\"tid\":");
        let name = field_str(ev, "\"name\":\"");
        let stack = stacks.entry(tid).or_default();
        if ph == 'B' {
            stack.push(name);
        } else {
            assert_eq!(
                stack.pop().as_deref(),
                Some(name.as_str()),
                "E without matching B on tid {tid}"
            );
        }
    }
    assert!(events > 0, "no B/E events to check");
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed B events left on tid {tid}");
    }
}

#[test]
fn child_stage_sums_reconcile_with_their_roots() {
    let r = traced_run("KMN");
    let t = r.telemetry.expect("traced");
    let roots: HashMap<u64, &SpanRecord> = t
        .spans
        .iter()
        .filter(|s| s.stage == SpanStage::FaultTotal || s.stage == SpanStage::DriverBatch)
        .map(|s| (s.id, s))
        .collect();
    let mut lane_child_sum: HashMap<u64, u64> = HashMap::new();
    let mut checked = 0usize;
    for s in &t.spans {
        if s.parent == 0 {
            continue;
        }
        let Some(root) = roots.get(&s.parent) else {
            // The parent lifecycle never closed (discarded at run end) —
            // the child still exported, just unattributed.
            continue;
        };
        assert!(
            s.start >= root.start && s.end <= root.end,
            "{:?} [{}, {}] escapes its {:?} root [{}, {}]",
            s.stage,
            s.start,
            s.end,
            root.stage,
            root.start,
            root.end
        );
        if s.stage.lane_scoped() {
            *lane_child_sum.entry(s.parent).or_default() += s.duration();
        }
        checked += 1;
    }
    assert!(checked > 0, "no parented spans recorded");
    let mut reconciled = 0usize;
    for (id, sum) in lane_child_sum {
        let root = roots[&id];
        if sum > root.duration() {
            eprintln!("root {:?}", root);
            for s in t.spans.iter().filter(|s| s.parent == id) {
                eprintln!(
                    "  child {:?} [{}, {}] dur {}",
                    s.stage,
                    s.start,
                    s.end,
                    s.duration()
                );
            }
        }
        assert!(
            sum <= root.duration(),
            "child stages sum to {sum} > fault_total {}",
            root.duration()
        );
        reconciled += 1;
    }
    assert!(reconciled > 0, "no fault trees reconciled");
}

#[test]
fn span_ring_overflow_keeps_newest_counts_loss_and_still_balances() {
    let mut cfg = ExpConfig {
        scale: 0.25,
        ..ExpConfig::default()
    };
    cfg.gpu.trace = TraceConfig {
        span_capacity: 16,
        ..TraceConfig::on()
    };
    let w = registry::by_abbr("STN").expect("known app");
    let r = run_cell(&w, PolicyPreset::Cppe, 0.5, &cfg);
    let t = r.telemetry.expect("traced");
    assert_eq!(t.spans.len(), 16, "ring bound respected");
    assert!(t.dropped_spans > 0, "loss counted");
    assert!(t.lossy(), "loss flagged for report banners");
    assert!(
        t.series.final_total("telemetry.spans.dropped") > 0,
        "loss surfaces in the sampled series"
    );
    let j = export::chrome_trace_json(&t);
    telemetry::json::validate(&j).expect("well-formed trace JSON");
    export::span_balance(&j).expect("truncated trace still balances");
}
