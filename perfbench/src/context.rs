//! Machine context recorded with every run (never gated on), the
//! process's peak memory, and the result line.

use std::hint::black_box;
use std::time::Instant;

/// What the machine looked like around a run, so a noisy set of runs
/// can be told apart from a regression.
pub struct Machine {
    pub cpu: String,
    pub nproc: usize,
    pub loadavg: String,
    /// A fixed dependent-multiply loop: tracks clock speed.
    pub alu_ns: u64,
    /// A fixed random walk over 2 MiB: tracks cache contention, which
    /// the simulator's own host time follows.
    pub mem_ns: u64,
}

impl Machine {
    pub fn measure() -> Machine {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_else(|| "unknown".into());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".into());
        Machine {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            loadavg,
            alu_ns: alu_loop(),
            mem_ns: mem_loop(),
        }
    }

    pub fn line(&self, when: &str) -> String {
        format!(
            "machine[{when}]: cpu={:?} nproc={} loadavg={:?} alu_loop_ns={} mem2mib_loop_ns={}",
            self.cpu, self.nproc, self.loadavg, self.alu_ns, self.mem_ns
        )
    }
}

fn alu_loop() -> u64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..20_000_000u32 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    black_box(x);
    crate::suite::nanos(t)
}

fn mem_loop() -> u64 {
    // A single random cycle through 2 MiB of u64 slots (Sattolo's
    // shuffle), so every load depends on the previous one.
    const SLOTS: usize = (2 << 20) / 8;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = sim_core::SplitMix64::new(7);
    for i in (1..SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..4_000_000u32 {
        at = next[at as usize];
    }
    black_box(at);
    crate::suite::nanos(t)
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a ratio with nothing to
            // divide reads as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
