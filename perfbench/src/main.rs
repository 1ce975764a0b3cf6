//! `perfbench` — the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <NAME> --seed <N> --seconds <S> --trace <0|1>
//!           --bin-dir <DIR> --out-dir <DIR> --stamp <JSON>
//! ```
//!
//! `perfbench/run.py` builds everything and supplies the last three
//! options. `perfbench --peak-rss <STDIN|-> <PROGRAM> [ARGS...]` is the
//! helper the untraced run measures peak RSS through. The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod e2e;
mod inputs;
mod layers;
mod stats;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::e2e::{Bins, Tally};
use crate::inputs::{generate, Workload};
use crate::stats::{metrics_json, numbers_json, obj, string};

struct Args {
    workload_name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    stamp: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut out_dir, mut stamp) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--stamp" => stamp = Some(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
        stamp: stamp.ok_or("--stamp is required")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--peak-rss") {
        return e2e::peak_rss_probe(&raw[1..]);
    }
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one measurement and prints its report; `Ok(false)` when a verdict
/// or a work counter came out wrong.
fn run(args: &Args) -> std::io::Result<bool> {
    let dir = args.out_dir.join(&args.workload_name);
    fs::create_dir_all(&dir)?;
    let inputs = generate(args.workload, args.seed);
    let (metrics, info, attempted, failed, wrong) = if args.trace {
        let traced = layers::run(args.workload, &inputs, args.seconds);
        fs::write(dir.join("spans.json"), &traced.spans_json)?;
        let mut wrong = traced.wrong;
        let other_seed = args.seed.wrapping_add(1);
        if generate(args.workload, other_seed).sizes() != inputs.sizes() {
            wrong.push(format!(
                "seed {other_seed} gives inputs of another size than seed {}",
                args.seed
            ));
        }
        (
            traced.metrics,
            traced.info,
            traced.attempted,
            wrong.len() as u64,
            wrong,
        )
    } else {
        let bins = Bins {
            check: args.bin_dir.join("cal-check"),
            serve: args.bin_dir.join("cal-serve"),
        };
        let mut tally = Tally::default();
        let measured = e2e::run(
            args.workload,
            &inputs,
            &bins,
            &dir,
            args.seconds,
            &mut tally,
        )?;
        (
            measured.metrics,
            measured.info,
            tally.attempted,
            tally.failed,
            tally.wrong,
        )
    };
    let correct = wrong.is_empty();
    let wrong: Vec<String> = wrong.iter().map(|w| string(w)).collect();
    let report = obj(&[
        ("workload", string(&args.workload_name)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("stamp", args.stamp.clone()),
        ("info", numbers_json(&info)),
        ("wrong", format!("[{}]", wrong.join(", "))),
    ]);
    let result = obj(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_json(&metrics)),
    ]);
    let trace = u8::from(args.trace);
    fs::write(
        dir.join(format!("report-trace{trace}.json")),
        format!("{report}\n{result}\n"),
    )?;
    println!("{report}");
    println!("{result}");
    Ok(correct)
}
