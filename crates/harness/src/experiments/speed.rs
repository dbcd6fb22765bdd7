//! Extension: simulator wall-clock speed baseline.
//!
//! Times full simulator runs — the `policies` criterion cells
//! (workload × policy preset) at bench scale — with one warmup run and
//! a median-of-N measurement per cell, and exports `BENCH_speed.json`
//! (schema [`SCHEMA`]): wall milliseconds and simulated cycles per
//! second per cell. The committed copy at the repo root is the
//! perf-regression baseline CI gates on: [`check`] re-measures and
//! fails when the geometric-mean wall-clock ratio across cells
//! regresses past [`TOLERANCE`].
//!
//! Every knob is pinned (scale, rate, seed, reps) so two exports are
//! comparable run-to-run; the simulation itself is deterministic, so
//! only the wall clock varies.

use crate::report::Table;
use crate::runner::{CellInputs, ExpConfig};
use cppe::presets::PolicyPreset;
use std::fmt::Write as _;

/// Schema marker for external tooling.
pub const SCHEMA: &str = "cppe-speed-v1";

/// Pattern-diverse subset, matching the profile/chaos baselines.
pub const APPS: [&str; 3] = ["STN", "KMN", "SRD"];

/// Every policy preset the `policies` criterion group times.
pub const PRESETS: [PolicyPreset; 6] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru20,
    PolicyPreset::DisablePfOnFull,
    PolicyPreset::MhpeOnly,
    PolicyPreset::Cppe,
];

/// Bench scale (matches `bench::bench_streams`).
pub const BENCH_SCALE: f64 = 0.25;

/// Oversubscription rate for every cell.
pub const RATE: f64 = 0.5;

/// Timed repetitions per cell (after one untimed warmup); the median is
/// reported.
pub const REPS: usize = 5;

/// Maximum allowed geometric-mean wall-clock ratio (fresh / committed)
/// before [`check`] fails: 1.25 = a >25 % regression.
pub const TOLERANCE: f64 = 1.25;

/// One timed cell.
#[derive(Debug, Clone)]
pub struct SpeedCell {
    /// Workload abbreviation.
    pub app: &'static str,
    /// Policy preset label.
    pub policy: String,
    /// Run outcome (determinism cross-check).
    pub outcome: String,
    /// Simulated cycles (identical across reps — the run is
    /// deterministic).
    pub cycles: u64,
    /// Median wall time of [`REPS`] timed runs, in milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles per wall second at the median.
    pub sim_cycles_per_sec: f64,
}

/// Time every `APPS × PRESETS` cell: one warmup run, then the median of
/// [`REPS`] timed runs.
#[must_use]
pub fn measure(cfg: &ExpConfig) -> Vec<SpeedCell> {
    let cfg = ExpConfig {
        scale: BENCH_SCALE,
        ..*cfg
    };
    let mut cells = Vec::new();
    for abbr in APPS {
        let cell = CellInputs::of(abbr, RATE, &cfg);
        for preset in PRESETS {
            let run = || cell.run_preset(&cfg.gpu, preset);
            let warm = run();
            let mut times: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let r = run();
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(r.cycles, warm.cycles, "non-deterministic run");
                    dt
                })
                .collect();
            times.sort_by(f64::total_cmp);
            let median = times[REPS / 2];
            #[allow(clippy::cast_precision_loss)]
            let cps = if median > 0.0 {
                warm.cycles as f64 / median
            } else {
                0.0
            };
            cells.push(SpeedCell {
                app: abbr,
                policy: preset.label(),
                outcome: format!("{:?}", warm.outcome).to_lowercase(),
                cycles: warm.cycles,
                wall_ms: median * 1e3,
                sim_cycles_per_sec: cps,
            });
        }
    }
    cells
}

/// Render cells as the `BENCH_speed.json` document (schema [`SCHEMA`]).
#[must_use]
pub fn speed_json(cells: &[SpeedCell]) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"schema\":\"{SCHEMA}\",\"scale\":{BENCH_SCALE},\"rate\":{RATE},\
         \"reps\":{REPS},\"cells\":["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"app\":\"{}\",\"policy\":\"{}\",\"outcome\":\"{}\",\
             \"cycles\":{},\"wall_ms\":{:.3},\"sim_cycles_per_sec\":{:.0}}}",
            c.app, c.policy, c.outcome, c.cycles, c.wall_ms, c.sim_cycles_per_sec
        );
    }
    s.push_str("]}");
    s
}

/// Extract `(app, policy, wall_ms)` triplets from a `BENCH_speed.json`
/// document (our own flat format — a full JSON parser is not needed).
/// Returns `None` when the document does not carry the expected schema.
#[must_use]
pub fn parse_baseline(doc: &str) -> Option<Vec<(String, String, f64)>> {
    if !doc.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return None;
    }
    let mut out = Vec::new();
    for cell in doc.split("{\"app\":\"").skip(1) {
        let app = cell.split('"').next()?.to_string();
        let policy = cell
            .split("\"policy\":\"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        let wall: f64 = cell
            .split("\"wall_ms\":")
            .nth(1)?
            .split([',', '}'])
            .next()?
            .trim()
            .parse()
            .ok()?;
        out.push((app, policy, wall));
    }
    (!out.is_empty()).then_some(out)
}

/// Compare fresh measurements against a committed baseline document.
/// Returns `(report, regressed)`: per-cell ratios plus the
/// geometric-mean ratio, and whether it exceeds [`TOLERANCE`].
///
/// # Panics
/// Panics when `baseline` is not a [`SCHEMA`] document.
#[must_use]
pub fn check(cells: &[SpeedCell], baseline: &str) -> (String, bool) {
    let base = parse_baseline(baseline).expect("baseline is not a cppe-speed-v1 document");
    let mut t = Table::new(&["app", "policy", "baseline ms", "fresh ms", "ratio"]);
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for c in cells {
        let Some(&(_, _, base_ms)) = base.iter().find(|(a, p, _)| a == c.app && *p == c.policy)
        else {
            continue;
        };
        let ratio = c.wall_ms / base_ms;
        log_sum += ratio.ln();
        n += 1;
        t.row(vec![
            c.app.to_string(),
            c.policy.clone(),
            format!("{base_ms:.3}"),
            format!("{:.3}", c.wall_ms),
            format!("{ratio:.2}"),
        ]);
    }
    assert!(n > 0, "no overlapping cells between baseline and fresh run");
    let gmean = (log_sum / f64::from(n)).exp();
    let regressed = gmean > TOLERANCE;
    let mut out = t.render();
    let _ = write!(
        out,
        "\ngeometric-mean wall-clock ratio: {gmean:.3} (tolerance {TOLERANCE}) — {}\n",
        if regressed { "REGRESSED" } else { "ok" }
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(app: &'static str, policy: &str, wall_ms: f64) -> SpeedCell {
        SpeedCell {
            app,
            policy: policy.to_string(),
            outcome: "completed".into(),
            cycles: 1000,
            wall_ms,
            sim_cycles_per_sec: 1e6,
        }
    }

    #[test]
    fn json_round_trips_through_parse() {
        let cells = vec![cell("STN", "baseline", 1.5), cell("KMN", "cppe", 40.25)];
        let doc = speed_json(&cells);
        let parsed = parse_baseline(&doc).expect("own export must parse");
        assert_eq!(
            parsed,
            vec![
                ("STN".into(), "baseline".into(), 1.5),
                ("KMN".into(), "cppe".into(), 40.25)
            ]
        );
    }

    #[test]
    fn parse_rejects_other_schemas() {
        assert!(parse_baseline("{\"schema\":\"cppe-profile-v1\"}").is_none());
        assert!(parse_baseline("not json").is_none());
    }

    #[test]
    fn check_passes_within_tolerance() {
        let base = speed_json(&[cell("STN", "baseline", 10.0), cell("KMN", "cppe", 20.0)]);
        let fresh = vec![cell("STN", "baseline", 11.0), cell("KMN", "cppe", 22.0)];
        let (report, regressed) = check(&fresh, &base);
        assert!(!regressed, "{report}");
        assert!(report.contains("ok"));
    }

    #[test]
    fn check_fails_past_tolerance() {
        let base = speed_json(&[cell("STN", "baseline", 10.0), cell("KMN", "cppe", 20.0)]);
        let fresh = vec![cell("STN", "baseline", 14.0), cell("KMN", "cppe", 28.0)];
        let (report, regressed) = check(&fresh, &base);
        assert!(regressed, "{report}");
        assert!(report.contains("REGRESSED"));
    }

    #[test]
    fn check_is_geometric_mean_not_worst_cell() {
        // One noisy small cell regressing alone must not trip the gate
        // when the rest of the matrix holds steady.
        let base = speed_json(&[
            cell("STN", "baseline", 1.0),
            cell("KMN", "cppe", 20.0),
            cell("SRD", "cppe", 20.0),
        ]);
        let fresh = vec![
            cell("STN", "baseline", 1.6),
            cell("KMN", "cppe", 20.0),
            cell("SRD", "cppe", 20.0),
        ];
        let (report, regressed) = check(&fresh, &base);
        assert!(!regressed, "{report}");
    }
}
