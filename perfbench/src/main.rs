//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer split. A human-readable summary goes to standard error.
//! Exits 1 if the run cannot complete (a replay that disagrees with the
//! engine, too few samples for a tail), 2 on bad arguments.

use std::process::ExitCode;

use treesim_perfbench::modes::{self, Outcome};
use treesim_perfbench::workload::{self, K, Q};

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds {seconds}: expected a non-negative number"
        ));
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        seed: seed.unwrap_or(workload.default_seed),
        workload,
        seconds,
        trace,
    })
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn json_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    eprintln!(
        "workload {} (seed {}, {}s, trace {}): {}, q={} k={} tau={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.source.describe(),
        Q,
        K,
        w.tau
    );
    let run = if args.trace {
        modes::traced
    } else {
        modes::end_to_end
    };
    let outcome =
        match run(w, args.seed, args.seconds).and_then(|o| json_line(&o).map(|line| (o, line))) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        };
    let (outcome, line) = outcome;
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<36} {:>14.4} ratio ({} failed of {} attempted)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{line}");
    ExitCode::SUCCESS
}
