//! Bit-identity lock for the hot-loop overhaul and for every observer.
//!
//! The calendar event queue, flat page table, TLB presence masks and
//! zero-allocation fault batching are pure *speed* changes: every
//! simulated quantity must be bit-identical to the pre-overhaul
//! implementations. The six golden fingerprints (`tests/common`) were
//! captured from the `BinaryHeap`/`FxHashMap` code immediately before
//! the overhaul (workloads STN/KMN/SRD × baseline/CPPE at scale 0.25,
//! rate 0.5, default seed) and lock every observable counter plus an
//! FNV-1a hash of the full per-batch timeline. Any future
//! "optimisation" that shifts one cycle or reorders one batch fails
//! here, not in a paper figure.
//!
//! The observers are read-only, so the fingerprints must hold under
//! every observer setting below. A traced run hashes its own epoch
//! series; an untraced one takes the timeline from the plain traced run.
//!
//! The observers' own outputs are locked too: under the
//! `hostprof+audited` setting (every observer at once, as perfbench's
//! `observed-cells` runs them) each golden cell must reproduce
//! [`OBSERVED`] — the event, span and decision streams and the host
//! profile's deterministic fields.

mod common;

use gpu::GpuConfig;
use sim_core::hostprof::KIND_COUNT;
use telemetry::TraceConfig;

/// What the observers record on each golden cell (same order as
/// `common::golden()`) under `hostprof+audited`: event, span and
/// decision counts with their stream hash (`common::telemetry_hash`),
/// the host profiler's per-kind dispatch counts and the hash of its
/// deterministic fields (`common::hostprof_hash`).
type Observed = ((usize, usize, usize, u64), [u64; KIND_COUNT], u64);

#[rustfmt::skip]
const OBSERVED: [Observed; 6] = [
    ((487, 1214, 224, 0x5FB7_7E4D_6312_6E41), [2560, 106, 31, 280, 28, 116, 10], 0xABBC_4468_633F_70C7),
    ((548, 1382, 242, 0x55CB_3E91_3ACF_96BB), [2560, 112, 42, 280, 28, 132, 20], 0x09DF_9788_4B2A_4CB8),
    ((6575, 16_790, 3120, 0xC743_1302_763F_0CB3), [14_560, 1686, 75, 112, 28, 1690, 4], 0xFD65_499D_0EF5_9478),
    ((4418, 11_794, 1918, 0xBA4A_546E_6D9E_323B), [14_560, 1214, 62, 112, 28, 1219, 5], 0xAF41_4DFD_A87E_CF1F),
    ((6019, 15_302, 2880, 0x425C_7DEB_256F_8C42), [24_576, 1532, 67, 112, 28, 1536, 4], 0x2037_7C94_1A9C_0822),
    ((4026, 10_330, 1894, 0xA610_68FA_99D8_77DD), [24_576, 1039, 46, 112, 28, 1043, 4], 0x38FD_8683_C9AB_180A),
];

#[test]
fn runs_are_bit_identical_to_pre_overhaul_golden() {
    // (name, host profiler, tracer); the plain traced setting is second.
    let settings = [
        ("off", false, TraceConfig::default()),
        ("traced", false, TraceConfig::on()),
        ("audited", false, TraceConfig::audited()),
        ("monitored", false, TraceConfig::monitored()),
        ("hostprof", true, TraceConfig::default()),
        ("hostprof+audited", true, TraceConfig::audited()),
    ];
    let base = common::golden_cfg().gpu;
    for ((abbr, preset, want), observed) in common::golden().into_iter().zip(OBSERVED) {
        let cell = common::golden_cell(abbr);
        let runs: Vec<_> = settings
            .iter()
            .map(|&(_, hostprof, trace)| {
                let gpu = GpuConfig {
                    hostprof,
                    trace,
                    ..base
                };
                cell.run_preset(&gpu, preset)
            })
            .collect();
        let traced = &runs[1].telemetry.as_ref().expect("traced run").series;
        for ((name, hostprof, trace), r) in settings.iter().zip(&runs) {
            let what = format!("{abbr}/{} under {name}", preset.label());
            assert_eq!(r.telemetry.is_some(), trace.enabled, "{what}: telemetry");
            assert_eq!(r.hostprof.is_some(), *hostprof, "{what}: host profile");
            let series = r.telemetry.as_ref().map_or(traced, |t| &t.series);
            assert_eq!(
                common::fingerprint_of(r, series),
                want,
                "{what} diverged from the pre-overhaul fingerprint"
            );
            if let Some(t) = &r.telemetry {
                assert_eq!(!t.decisions.is_empty(), trace.audit, "{what}: decisions");
                assert_eq!(t.monitor.sampled > 0, trace.monitor, "{what}: monitor");
            }
        }
        let all = runs.last().expect("hostprof+audited run");
        let p = all.hostprof.as_ref().expect("profiled run");
        let t = all.telemetry.as_ref().expect("traced run");
        assert_eq!(
            (
                common::telemetry_hash(t),
                p.counts,
                common::hostprof_hash(p)
            ),
            observed,
            "{abbr}/{}: observer outputs under hostprof+audited",
            preset.label()
        );
    }
}

/// The calendar queue must pop in exactly the `(cycle, insertion
/// sequence)` order the old `BinaryHeap` produced. Model-based check
/// against `std::collections::BinaryHeap` under a delta distribution
/// matching the simulator's (tight lane cadences, window-straddling
/// reschedules, far driver round-trips) — independent of the unit test
/// inside `sim-core`, which uses its own schedule generator.
#[test]
fn calendar_queue_matches_reference_heap() {
    use sim_core::time::Cycle;
    use sim_core::EventQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = 0x1234_5678_9ABC_DEF0u64;
    let mut draw = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut now = 0u64;
    let schedule = |q: &mut EventQueue<u64>,
                    reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    now: u64,
                    delta: u64,
                    seq: &mut u64| {
        q.push(Cycle(now + delta), *seq);
        reference.push(Reverse((now + delta, *seq)));
        *seq += 1;
    };

    for _ in 0..300 {
        let r = draw();
        let delta = match r % 8 {
            0..=4 => r % 32,         // lane cadence
            5 => 2040 + r % 16,      // straddles the 2048-cycle ring
            6 => 150 + r % 700,      // mid-range
            _ => 28_000 + r % 7_000, // driver round-trip
        };
        schedule(&mut q, &mut reference, now, delta, &mut seq);
    }
    for _ in 0..20_000 {
        let Some((t, event)) = q.pop() else { break };
        let Reverse((rt, rseq)) = reference.pop().expect("reference agrees on length");
        assert_eq!((t.0, event), (rt, rseq), "pop order diverged from heap");
        now = t.0;
        // Reschedule most pops, sometimes twice — keeps both queues hot.
        let r = draw();
        if r % 16 != 0 {
            let delta = match r % 8 {
                0..=4 => r % 32,
                5 => 2040 + r % 16,
                6 => 150 + r % 700,
                _ => 28_000 + r % 7_000,
            };
            schedule(&mut q, &mut reference, now, delta, &mut seq);
        }
        if r % 8 == 3 {
            schedule(&mut q, &mut reference, now, (r >> 8) % 5000, &mut seq);
        }
    }
    // Drain whatever is still queued (the reschedule rate keeps the
    // queues populated through the churn phase) with no new pushes —
    // the tails must agree element for element too.
    while let Some((t, event)) = q.pop() {
        let Reverse((rt, rseq)) = reference.pop().expect("reference agrees on length");
        assert_eq!((t.0, event), (rt, rseq), "drain order diverged from heap");
    }
    assert!(reference.pop().is_none());
}
