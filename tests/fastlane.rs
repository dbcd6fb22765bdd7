//! Fast-lane ⇄ legacy-path equivalence suite.
//!
//! `GpuConfig::fast_lane` gates the PR 10 hit-path fast lane (indexed
//! TLB/PWC/data-cache probes feeding a bounded lane run-ahead streak
//! with bulk event-queue pushes). The golden fingerprints in
//! `tests/perf_identity.rs` lock the six paper cells, but the fast lane
//! takes decisions on *arbitrary* streams — a hazard the paper
//! workloads never produce (a shootdown landing mid-streak, a
//! same-cycle wake racing the streak head, a barrier right behind a
//! provable hit) must also leave every observable bit unchanged. This
//! suite drives the same simulations through both paths (`fast_lane:
//! true` vs `false`) and asserts the *full* result fingerprint agrees:
//! outcome, every counter block, byte totals, the per-batch timeline,
//! and — for traced runs — the typed event/span/decision streams.
//!
//! The always-on tests below drive golden paper cells from the workload
//! registry (`paper_cell`) and fixed xorshift streams (`synthetic_cell`);
//! the `ext-tests` module at the bottom adds proptest-generated stream
//! shapes on top (same convention as `tests/properties.rs`).

mod common;

use cppe::presets::PolicyPreset;
use gmmu::types::VirtPage;
use gpu::{GpuConfig, RunResult};
use harness::{CellInputs, ExpConfig};
use telemetry::TraceConfig;
use workloads::types::{AccessStep, LaneItem};

/// Everything a run observably computes, as comparable text. Compound
/// stat blocks go in via their `Debug` form so a divergence prints the
/// exact field; the timeline and telemetry streams (which can run to
/// thousands of records) are FNV-folded after their lengths.
#[derive(Debug, PartialEq, Eq)]
struct Fp {
    head: String,
    timeline: (usize, u64),
    telemetry: Option<(usize, usize, usize, u64)>,
    hostprof_present: bool,
}

/// Fingerprint `r`, taking the per-batch timeline from `traced` — `r`
/// itself when it was traced, else a traced twin of the same run.
fn fp(r: &RunResult, traced: &RunResult) -> Fp {
    let head = format!(
        "{:?} err={:?} cycles={} accesses={} {:?} {:?} {:?} h2d={} d2h={} wrong={} \
         pbuf={} cap={} free={} resident={} {:?} mhpe={}",
        r.outcome,
        r.error,
        r.cycles,
        r.accesses,
        r.engine,
        r.driver,
        r.translation,
        r.bytes_h2d,
        r.bytes_d2h,
        r.wrong_evictions,
        r.pattern_buffer_len,
        r.frames_capacity,
        r.frames_free,
        r.resident_pages,
        r.injection,
        r.mhpe.is_some(),
    );
    let series = &traced.telemetry.as_ref().expect("traced run").series;
    let telemetry = r.telemetry.as_ref().map(common::telemetry_hash);
    Fp {
        head,
        timeline: common::timeline_hash(series),
        telemetry,
        hostprof_present: r.hostprof.is_some(),
    }
}

/// Run `sim` through the fast lane and the round-trip path from the
/// paper's GPU config (edited by `mutate`), and assert both fingerprint
/// the same. An untraced run gets a traced twin for its timeline, so
/// the tracing-off path is diffed too.
fn assert_paths_agree(
    mutate: &dyn Fn(&mut GpuConfig),
    sim: &dyn Fn(&GpuConfig) -> RunResult,
    what: &str,
) {
    let mut results = Vec::new();
    for fast_lane in [true, false] {
        let mut cfg = GpuConfig {
            fast_lane,
            ..ExpConfig::default().gpu
        };
        mutate(&mut cfg);
        let r = sim(&cfg);
        results.push(if cfg.trace.enabled {
            fp(&r, &r)
        } else {
            let twin = sim(&GpuConfig {
                trace: TraceConfig::on(),
                ..cfg
            });
            fp(&r, &twin)
        });
    }
    assert_eq!(
        results[0], results[1],
        "{what} diverged between fast-lane and legacy paths"
    );
}

/// Run one paper cell with the fast lane toggled.
fn paper_cell(abbr: &str, preset: PolicyPreset, scale: f64, mutate: &dyn Fn(&mut GpuConfig)) {
    let cfg = ExpConfig {
        scale,
        ..ExpConfig::default()
    };
    let cell = CellInputs::of(abbr, 0.5, &cfg);
    let sim = |cfg: &GpuConfig| cell.run_preset(cfg, preset);
    assert_paths_agree(mutate, &sim, &format!("{abbr}/{}", preset.label()));
}

/// Deterministic xorshift64 stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Synthesize `lanes` random streams: `rounds` barrier-delimited rounds
/// of `per_round` accesses each over `footprint` pages, with compute
/// deltas spanning the streak-provable range (0) through long stalls.
/// Every lane carries the same barrier count, as the engine requires.
fn random_streams(
    seed: u64,
    lanes: usize,
    rounds: usize,
    per_round: usize,
    footprint: u64,
) -> Vec<Vec<LaneItem>> {
    let mut rng = seed;
    (0..lanes)
        .map(|_| {
            let mut items = Vec::new();
            for _ in 0..rounds {
                for _ in 0..per_round {
                    let r = xorshift(&mut rng);
                    let page = VirtPage(r % footprint);
                    // Mostly tight cadences (the fast lane's home turf),
                    // with occasional long compute gaps that force the
                    // streak to yield to queued wakes.
                    let compute = match r % 11 {
                        0..=6 => (r >> 32) % 24,
                        7..=9 => 100 + (r >> 32) % 400,
                        _ => 5_000 + (r >> 32) % 20_000,
                    } as u32;
                    items.push(LaneItem::Access(AccessStep { page, compute }));
                }
                items.push(LaneItem::Barrier);
            }
            items
        })
        .collect()
}

/// Run a synthetic stream set through both paths and compare.
#[allow(clippy::too_many_arguments)]
fn synthetic_cell(
    seed: u64,
    preset: PolicyPreset,
    lanes: usize,
    rounds: usize,
    per_round: usize,
    footprint: u64,
    capacity: u32,
    mutate: &dyn Fn(&mut GpuConfig),
) {
    let streams = random_streams(seed, lanes, rounds, per_round, footprint);
    let sim = |cfg: &GpuConfig| {
        let engine = preset.build(seed ^ 0xD1B5_4A32_D192_ED03);
        gpu::simulate(cfg, engine, &streams, capacity, footprint)
    };
    assert_paths_agree(mutate, &sim, &format!("seed {seed:#x}/{}", preset.label()));
}

/// The six golden cells (at reduced scale — the release-mode identity
/// lock already covers 0.25) agree between the two paths.
#[test]
fn paper_cells_agree() {
    for (abbr, scale) in [("STN", 0.25), ("KMN", 0.125), ("SRD", 0.125)] {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
            paper_cell(abbr, preset, scale, &|_| {});
        }
    }
}

/// Random oversubscribed streams — faults, evictions and shootdowns
/// landing mid-streak — leave both paths bit-identical.
#[test]
fn random_streams_agree() {
    for (i, &seed) in [
        0x1234_5678_9ABC_DEF0u64,
        0xDEAD_BEEF_CAFE_F00D,
        0x0BAD_5EED_0BAD_5EED,
        0xA5A5_A5A5_5A5A_5A5A,
    ]
    .iter()
    .enumerate()
    {
        let preset = if i % 2 == 0 {
            PolicyPreset::Cppe
        } else {
            PolicyPreset::Baseline
        };
        // Capacity at ~40% of footprint: every round thrashes.
        synthetic_cell(seed, preset, 6, 3, 160, 640, 256, &|_| {});
    }
}

/// A capacity so tight the whole footprint cycles through eviction —
/// the streak head keeps losing residency to the pages it just proved.
#[test]
fn thrashing_capacity_agrees() {
    synthetic_cell(
        0x7777_1111_3333_9999,
        PolicyPreset::Cppe,
        4,
        4,
        120,
        512,
        32,
        &|_| {},
    );
    synthetic_cell(
        0x2222_8888_4444_6666,
        PolicyPreset::Baseline,
        4,
        4,
        120,
        512,
        32,
        &|_| {},
    );
}

/// A single lane with zero-compute cadence maximizes streak length —
/// the run-ahead bound (and its exit bookkeeping) must not drift.
#[test]
fn single_lane_long_streaks_agree() {
    let streams = vec![(0..2_000u64)
        .map(|i| {
            LaneItem::Access(AccessStep {
                page: VirtPage(i % 48),
                compute: 0,
            })
        })
        .collect::<Vec<_>>()];
    let sim = |cfg: &GpuConfig| gpu::simulate(cfg, PolicyPreset::Cppe.build(7), &streams, 64, 48);
    assert_paths_agree(&|_| {}, &sim, "single lane");
}

/// With tracing + decision auditing on, the typed event, span and
/// decision streams (not just the counters) are identical — the fast
/// lane must emit every record the round-trip path would, in the same
/// order, at the same cycles.
#[test]
fn traced_runs_agree() {
    let audited = |cfg: &mut GpuConfig| cfg.trace = TraceConfig::audited();
    paper_cell("STN", PolicyPreset::Cppe, 0.25, &audited);
    synthetic_cell(
        0x5151_6262_7373_8484,
        PolicyPreset::Cppe,
        6,
        3,
        160,
        640,
        256,
        &audited,
    );
}

/// With the host self-profiler on, alone and together with the
/// audited tracer, simulated results stay identical (the profile itself
/// is wall-clock and not compared).
#[test]
fn hostprof_runs_agree() {
    let prof = |cfg: &mut GpuConfig| cfg.hostprof = true;
    let both = |cfg: &mut GpuConfig| {
        cfg.hostprof = true;
        cfg.trace = TraceConfig::audited();
    };
    for setting in [&prof as &dyn Fn(&mut GpuConfig), &both] {
        paper_cell("STN", PolicyPreset::Baseline, 0.25, setting);
        synthetic_cell(
            0x9090_ABAB_CDCD_EFEF,
            PolicyPreset::Baseline,
            6,
            3,
            160,
            640,
            256,
            setting,
        );
    }
}

/// proptest-generated stream shapes on top of the fixed-seed suite.
/// Same gating convention as `tests/properties.rs`: proptest comes from
/// crates.io, so these only build with `--features ext-tests` (after
/// restoring the proptest dev-dependency in the root Cargo.toml).
#[cfg(feature = "ext-tests")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary lane counts, stream shapes, footprints and
        /// capacities: the two paths never diverge.
        #[test]
        fn arbitrary_streams_agree(
            seed in any::<u64>(),
            lanes in 1usize..6,
            rounds in 1usize..4,
            per_round in 1usize..120,
            footprint in 16u64..512,
            cap_chunks in 2u64..12,
            cppe in any::<bool>(),
        ) {
            let preset = if cppe { PolicyPreset::Cppe } else { PolicyPreset::Baseline };
            let capacity = (cap_chunks * gmmu::types::PAGES_PER_CHUNK) as u32;
            let streams = random_streams(seed | 1, lanes, rounds, per_round, footprint);
            let sim = |cfg: &GpuConfig| {
                let engine = preset.build(seed ^ 0x9E37_79B9_7F4A_7C15);
                gpu::simulate(cfg, engine, &streams, capacity, footprint)
            };
            assert_paths_agree(&|_| {}, &sim, "proptest stream");
        }
    }
}
