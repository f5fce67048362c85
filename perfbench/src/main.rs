//! `cup-perfbench`: one benchmark for both CUP runtimes.
//!
//! ```text
//! cup-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of measured work, checks the
//! program's outputs, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run reports the per-layer ones (allocation counting and span
//! recording are on only then). Exits non-zero if any check fails.
//! See README.md for the workloads, metrics and clocks.

// Measuring wall and CPU time is this binary's job, so it is exempt from
// clippy.toml's wall-clock wall, like the repository's own bench crate.
#![allow(clippy::disallowed_methods)]

mod des;
mod live;
mod probe;

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::probe::{CountingAlloc, SpanLog};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "des-can-100k",
    "des-chord-writes-10k",
    "live-chord-10k",
    "live-chord-gated-10k",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The named checks of one run; any failure makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    passed: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records a check that two counts agree.
    fn eq(&mut self, what: &str, got: u64, want: u64) {
        if got == want {
            self.passed += 1;
        } else {
            self.failed.push(format!("{what}: {got} != {want}"));
        }
    }

    /// Records a check of a required property.
    fn truth(&mut self, what: &str, ok: bool) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what.to_string());
        }
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Checks,
    metrics: Vec<Metric>,
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Writes the traced run's spans to `perfbench/out/` as JSON lines.
pub fn write_spans(args: &RunArgs, spans: &SpanLog) -> Result<(), String> {
    if !args.trace {
        return Ok(());
    }
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "des-can-100k" => des::run(&des::can_100k(), args),
        "des-chord-writes-10k" => des::run(&des::chord_writes_10k(), args),
        "live-chord-10k" => live::run(&live::chord_10k(false, args.seed), args),
        "live-chord-gated-10k" => live::run(&live::chord_10k(true, args.seed), args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn to_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.checks.failed.is_empty(),
        o.attempted,
        o.failed
    )
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cup-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cup-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("metric {} is not a finite number", bad.name);
        outcome.checks.failed.push(msg);
    }
    eprintln!(
        "{}: {} checks passed, {} failed; {} of {} operations failed",
        args.workload,
        outcome.checks.passed,
        outcome.checks.failed.len(),
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.checks.failed {
        eprintln!("CHECK FAILED: {f}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", to_json(&outcome));
    if outcome.checks.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
