//! `perfbench`: the serve benchmark.
//!
//! ```text
//! perfbench --butterfly <serve binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts `butterfly serve` as separate processes, drives them from this
//! one generator process (one producer and one subscriber connection, at
//! most two threads), checks every release against the in-process
//! pipeline, and prints one JSON result object as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics: the live counters of the same timed run
//! plus a traced single-threaded replay of its accepted input. See
//! `BENCHMARK.json` for what each workload and metric is for.

mod arith;
mod gate;
mod live;
mod procs;
mod run;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;

struct Args {
    butterfly: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut butterfly = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--butterfly" => butterfly = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        butterfly: butterfly.ok_or("--butterfly is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A finite number with all its digits (JSON has no infinities).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e18".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workload::Workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::Workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (valid: {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    // The gate and the traced replay run the library in this process; keep
    // its worker pool from adding threads beyond the generator's own.
    bfly_common::pool::set_threads(1);
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    let opts = run::Opts {
        ledger_dir: root.join("ledger").join(workload.name),
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        bin: args.butterfly,
        work: work.clone(),
    };
    let result = run::run(&opts);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        number(*value)
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.correct,
                out.attempted.max(1),
                out.failed,
                metrics.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
