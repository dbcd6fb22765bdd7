//! Correctness of the simulated results.
//!
//! At the default seed every cell must reproduce the committed
//! `expected/<workload>.tsv` row. At every seed, a cell must end
//! without a service error or timeout, a cell that drained its streams
//! must have completed exactly the generated number of accesses, and a
//! cell run more than once must give the same row each time. A cell
//! that breaks any of these counts as one failed cell.

use crate::suite::{Inputs, Workload};
use gpu::{Outcome, RunResult};
use harness::sweep::CellKey;
use std::collections::BTreeMap;

/// The part of a cell's result that is checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub outcome: String,
    pub cycles: u64,
    pub accesses: u64,
    pub faults_serviced: u64,
    pub pages_evicted: u64,
}

impl Row {
    pub fn of(r: &RunResult) -> Row {
        Row {
            outcome: format!("{:?}", r.outcome).to_lowercase(),
            cycles: r.cycles,
            accesses: r.accesses,
            faults_serviced: r.driver.faults_serviced,
            pages_evicted: r.engine.pages_evicted,
        }
    }
}

pub type Expected = BTreeMap<CellKey, Row>;

const HEADER: &str =
    "# app\tpolicy\trate_pct\toutcome\tcycles\taccesses\tfaults_serviced\tpages_evicted";

/// The committed expected rows of `w` at the default seed.
pub fn committed(w: Workload) -> Expected {
    let text = match w {
        Workload::PaperMatrix => include_str!("../expected/paper-matrix.tsv"),
        Workload::OversubThrash => include_str!("../expected/oversub-thrash.tsv"),
        Workload::ResidentHit => include_str!("../expected/resident-hit.tsv"),
        Workload::ObservedCells => include_str!("../expected/observed-cells.tsv"),
    };
    parse(text).unwrap_or_else(|e| panic!("expected/{}.tsv: {e}", w.name()))
}

/// Path of the file [`committed`] reads, for `--bless`.
pub fn committed_path(w: Workload) -> String {
    format!("{}/expected/{}.tsv", env!("CARGO_MANIFEST_DIR"), w.name())
}

pub fn parse(text: &str) -> Result<Expected, String> {
    let mut out = Expected::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [app, policy, rate, outcome, cycles, accesses, faults, evicted] = f[..] else {
            return Err(format!("line {}: want 8 tab-separated fields", n + 1));
        };
        let bad = |s: &str, e: std::num::ParseIntError| format!("line {}: {s:?}: {e}", n + 1);
        let num = |s: &str| s.parse::<u64>().map_err(|e| bad(s, e));
        let rate = rate.parse::<u32>().map_err(|e| bad(rate, e))?;
        let key = (app.to_string(), policy.to_string(), rate);
        let row = Row {
            outcome: outcome.to_string(),
            cycles: num(cycles)?,
            accesses: num(accesses)?,
            faults_serviced: num(faults)?,
            pages_evicted: num(evicted)?,
        };
        out.insert(key, row);
    }
    Ok(out)
}

pub fn render(results: &BTreeMap<CellKey, RunResult>) -> String {
    let mut s = format!("{HEADER}\n");
    for ((app, policy, rate), r) in results {
        let row = Row::of(r);
        s.push_str(&format!(
            "{app}\t{policy}\t{rate}\t{}\t{}\t{}\t{}\t{}\n",
            row.outcome, row.cycles, row.accesses, row.faults_serviced, row.pages_evicted
        ));
    }
    s
}

/// Counts checked and failed cells over a run.
pub struct Checker {
    expected: Option<Expected>,
    stream_accesses: BTreeMap<String, u64>,
    seen: BTreeMap<CellKey, Row>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
}

impl Checker {
    /// `expected` is `Some` only at the default seed.
    pub fn new(expected: Option<Expected>, inputs: &Inputs) -> Checker {
        let stream_accesses = inputs
            .streams
            .keys()
            .map(|app| (app.to_string(), inputs.stream_accesses(app)))
            .collect();
        Checker {
            expected,
            stream_accesses,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn check_all(&mut self, results: &BTreeMap<CellKey, RunResult>) {
        for (key, r) in results {
            self.check(key, r);
        }
    }

    pub fn check(&mut self, key: &CellKey, r: &RunResult) {
        self.attempted += 1;
        if let Some(problem) = self.problem(key, r) {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("{key:?}: {problem}"));
            }
        }
    }

    fn problem(&mut self, key: &CellKey, r: &RunResult) -> Option<String> {
        if let Some(e) = &r.error {
            return Some(format!("error: {e}"));
        }
        if r.outcome == Outcome::Timeout {
            return Some("timed out".into());
        }
        let generated = self.stream_accesses.get(&key.0).copied();
        if r.survived() && generated != Some(r.accesses) {
            return Some(format!("{} accesses, {generated:?} generated", r.accesses));
        }
        let row = Row::of(r);
        if let Some(expected) = &self.expected {
            match expected.get(key) {
                None => return Some("no expected row".into()),
                Some(want) if *want != row => return Some(format!("got {row:?}, want {want:?}")),
                Some(_) => {}
            }
        }
        match self.seen.get(key) {
            Some(first) if *first != row => Some(format!("re-run gave {row:?}, first {first:?}")),
            Some(_) => None,
            None => {
                self.seen.insert(key.clone(), row);
                None
            }
        }
    }
}
