//! Chaos harness: sweep deterministic fault-injection scenarios across
//! workloads and assert the simulator's robustness invariants.
//!
//! Under any injection scenario the simulator must (1) never panic,
//! (2) never leak frames (capacity − free == resident), (3) keep
//! residency within capacity, (4) keep the batch timeline monotone in
//! event time, and (5) end every run Completed, Degraded or Timeout —
//! injected faults are survivable by construction (retry + backoff +
//! deferral), so they must not turn a completing workload into a crash.
//! A final pair of tests demonstrates the degradation ladder rescuing a
//! thrash-crashing run and re-checks bit-identical determinism.

use cppe::presets::PolicyPreset;
use gpu::{GpuConfig, Outcome, RunResult};
use harness::{CellInputs, ExpConfig};
use sim_core::fault::InjectionConfig;
use telemetry::TraceConfig;
use uvm::driver::ResilienceConfig;

const SCALE: f64 = 0.25;

/// Workloads that complete at 50 % oversubscription under both
/// policies (MVT is excluded here — it legitimately thrash-crashes at
/// the baseline and stars in the ladder test instead).
const APPS: [&str; 4] = ["2DC", "KMN", "SRD", "STN"];

fn scenarios(seed: u64) -> Vec<(&'static str, InjectionConfig)> {
    vec![
        ("clean", InjectionConfig::disabled()),
        ("link-degrade", InjectionConfig::link_degradation(seed)),
        ("dma-fail", InjectionConfig::transient_failures(seed, 0.08)),
        ("lat-spikes", InjectionConfig::latency_spikes(seed)),
        ("queue-16", InjectionConfig::batch_overflow(seed, 16)),
        ("combined", InjectionConfig::combined(seed)),
    ]
}

/// `abbr` at 50 % oversubscription and [`SCALE`], default seed and GPU.
fn cell(abbr: &str) -> CellInputs {
    let cfg = ExpConfig {
        scale: SCALE,
        ..ExpConfig::default()
    };
    CellInputs::of(abbr, 0.5, &cfg)
}

/// One chaos cell, run untraced so the other invariants hold on the
/// tracing-off path. Its traced twin must end the same way (tracing is
/// read-only) and supplies the per-batch epoch series for (4).
fn run_one(
    abbr: &str,
    preset: PolicyPreset,
    injection: InjectionConfig,
    resilience: ResilienceConfig,
) -> RunResult {
    let cell = cell(abbr);
    let gpu = GpuConfig {
        injection,
        resilience,
        ..ExpConfig::default().gpu
    };
    let r = cell.run_preset(&gpu, preset);
    let trace = TraceConfig::on();
    let twin = cell.run_preset(&GpuConfig { trace, ..gpu }, preset);
    let label = format!("{abbr}/{}", preset.label());
    assert_eq!(
        (
            twin.outcome,
            twin.cycles,
            twin.accesses,
            twin.resident_pages
        ),
        (r.outcome, r.cycles, r.accesses, r.resident_pages),
        "{label}: tracing changed the run"
    );
    // (4) monotone event time and cumulative counters in the per-batch
    // epoch series.
    let series = &twin.telemetry.as_ref().expect("traced run").series;
    for w in series.rows.windows(2) {
        assert!(w[0].cycle <= w[1].cycle, "{label}: time ran backwards");
    }
    series
        .parity()
        .unwrap_or_else(|e| panic!("{label}: counter regressed: {e}"));
    r
}

/// Structural invariants every chaos run must uphold regardless of how
/// it ends — even a thrash-crash must leave the machine consistent.
fn assert_invariants(label: &str, r: &RunResult) {
    // (1) reaching here at all means no panic; service-path errors
    // surface in `error` instead.
    assert!(
        r.error.is_none(),
        "{label}: service-path error: {:?}",
        r.error
    );
    // (2) no frame leaks.
    assert_eq!(
        u64::from(r.frames_capacity - r.frames_free),
        r.resident_pages,
        "{label}: allocator and page table disagree (frame leak)"
    );
    // (3) residency bounded by capacity.
    assert!(
        r.resident_pages <= u64::from(r.frames_capacity),
        "{label}: more resident pages than frames"
    );
    // (4) is checked on the traced twin in `run_one`.
    // Migration accounting closes: everything resident was migrated.
    assert!(
        r.engine.pages_migrated >= r.resident_pages,
        "{label}: resident pages never migrated in"
    );
}

/// The stronger ending guarantee: the run survived (or timed out), it
/// did not crash.
fn assert_survivable(label: &str, r: &RunResult) {
    assert!(
        matches!(
            r.outcome,
            Outcome::Completed | Outcome::Degraded | Outcome::Timeout
        ),
        "{label}: run must be survivable, got {:?}",
        r.outcome
    );
}

#[test]
fn injection_scenarios_preserve_invariants() {
    // With the plain driver an injection scenario may push a marginal
    // workload into a legitimate thrash-crash (that is the Fig. 4
    // detector doing its job), but the structural invariants must hold
    // for every ending.
    for abbr in APPS {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
            for (name, injection) in scenarios(0xFEED) {
                let label = format!("{abbr}/{}/{name}", preset.label());
                let r = run_one(abbr, preset, injection, ResilienceConfig::default());
                assert_invariants(&label, &r);
                assert!(r.accesses > 0, "{label}: no work done");
                if matches!(r.outcome, Outcome::Crashed) {
                    assert!(
                        name != "clean",
                        "{label}: these workloads complete without injection"
                    );
                }
            }
        }
    }
}

#[test]
fn degraded_mode_makes_chaos_survivable() {
    // Same sweep with the degradation ladder armed: every run must end
    // Completed, Degraded or Timeout — never Crashed, never panicking.
    for abbr in APPS {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
            for (name, injection) in scenarios(0xFEED) {
                let label = format!("{abbr}/{}/{name}+ladder", preset.label());
                let r = run_one(abbr, preset, injection, ResilienceConfig::degraded());
                assert_invariants(&label, &r);
                assert_survivable(&label, &r);
            }
        }
    }
}

#[test]
fn injected_faults_are_accounted() {
    // The combined scenario must actually fire every axis, and the
    // driver must record the matching recovery work.
    let r = run_one(
        "KMN",
        PolicyPreset::Baseline,
        InjectionConfig::combined(7),
        ResilienceConfig::default(),
    );
    assert_invariants("KMN/combined", &r);
    assert!(r.injection.transfer_failures > 0, "no DMA failures fired");
    assert!(r.injection.degraded_queries > 0, "no degraded windows hit");
    assert!(r.driver.retries > 0, "failures fired but nothing retried");
    assert!(
        r.driver.retry_backoff_cycles > 0,
        "retries happened without backoff"
    );
    // Slowdown is real: the same run without injection is faster.
    let clean = run_one(
        "KMN",
        PolicyPreset::Baseline,
        InjectionConfig::disabled(),
        ResilienceConfig::default(),
    );
    assert!(r.cycles > clean.cycles, "injection must cost time");
}

#[test]
fn batch_overflow_defers_but_completes() {
    let r = run_one(
        "SRD",
        PolicyPreset::Baseline,
        InjectionConfig::batch_overflow(3, 4),
        ResilienceConfig::default(),
    );
    assert_invariants("SRD/queue-4", &r);
    // A depth-4 queue against 28 lanes must overflow at least once.
    assert!(r.driver.batch_splits > 0, "queue never overflowed");
    assert!(r.driver.deferred_faults > 0);
    assert!(r.survived());
}

#[test]
fn degraded_ladder_rescues_thrash_crash() {
    // Fig. 4's failure mode: MVT under the naïve baseline dies of
    // wasteful thrash. The plain driver must still reproduce that …
    let plain = run_one(
        "MVT",
        PolicyPreset::Baseline,
        InjectionConfig::disabled(),
        ResilienceConfig::default(),
    );
    assert_eq!(
        plain.outcome,
        Outcome::Crashed,
        "seed behaviour regressed: MVT must crash the plain baseline"
    );
    // … while the degradation ladder sheds prefetch aggressiveness and
    // survives the exact same run.
    let laddered = run_one(
        "MVT",
        PolicyPreset::Baseline,
        InjectionConfig::disabled(),
        ResilienceConfig::degraded(),
    );
    assert_invariants("MVT/laddered", &laddered);
    assert_eq!(laddered.outcome, Outcome::Degraded);
    assert!(laddered.driver.throttle_sheds >= 1, "ladder never engaged");
    assert!(laddered.survived() && !laddered.completed());
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let run = |seed| {
        run_one(
            "2DC",
            PolicyPreset::Cppe,
            InjectionConfig::combined(seed),
            ResilienceConfig::default(),
        )
    };
    let (a, b) = (run(11), run(11));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.engine.pages_migrated, b.engine.pages_migrated);
    assert_eq!(a.driver.retries, b.driver.retries);
    assert_eq!(a.injection, b.injection);
    let c = run(12);
    assert_ne!(
        (a.cycles, a.driver.retries),
        (c.cycles, c.driver.retries),
        "different injection seed must perturb differently"
    );
}

#[test]
fn disabled_injection_is_bit_identical_to_seed_path() {
    // The whole robustness layer must vanish when switched off: a run
    // through the injection-aware driver with everything disabled
    // matches a default-config run exactly.
    let cell = cell("B+T");
    let base_gpu = ExpConfig::default().gpu;
    let run = |gpu: &GpuConfig| cell.run_preset(gpu, PolicyPreset::Cppe);
    let default_cfg = run(&base_gpu);
    let explicit_off = run(&GpuConfig {
        injection: InjectionConfig {
            seed: 0xDEAD_BEEF, // a live seed must not matter when axes are off
            ..InjectionConfig::disabled()
        },
        resilience: ResilienceConfig::default(),
        ..base_gpu
    });
    assert_eq!(default_cfg.cycles, explicit_off.cycles);
    assert_eq!(default_cfg.accesses, explicit_off.accesses);
    assert_eq!(
        default_cfg.engine.pages_migrated,
        explicit_off.engine.pages_migrated
    );
    assert_eq!(
        default_cfg.engine.pages_evicted,
        explicit_off.engine.pages_evicted
    );
    assert_eq!(default_cfg.bytes_h2d, explicit_off.bytes_h2d);
    assert_eq!(default_cfg.bytes_d2h, explicit_off.bytes_d2h);
}

#[test]
fn seeded_fuzz_smoke() {
    // Derive a different scenario from each seed deterministically and
    // make sure none of them violates the invariants.
    for seed in 0..6u64 {
        let injection = InjectionConfig {
            seed,
            transfer_failure_prob: 0.02 * (seed % 4) as f64,
            degrade_period_cycles: if seed % 2 == 0 { 700_000 } else { 0 },
            degrade_duty: 0.25,
            degrade_factor: 0.5,
            latency_spike_prob: 0.05 * (seed % 3) as f64,
            latency_spike_factor: 2.0 + seed as f64,
            fault_queue_depth: if seed % 3 == 0 { 8 } else { 0 },
        };
        injection
            .validate()
            .expect("derived scenario must be valid");
        let resilience = ResilienceConfig {
            max_transfer_retries: (seed % 5) as u32 + 1,
            degraded_mode: seed % 2 == 1,
            ..ResilienceConfig::default()
        };
        let r = run_one("STN", PolicyPreset::Baseline, injection, resilience);
        assert_invariants(&format!("fuzz-seed-{seed}"), &r);
    }
}
