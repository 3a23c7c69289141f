//! `perfbench --workload <kernels|serve_hot|serve_cold> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload, print the environment,
//! every metric with unit and sample count, the correctness verdict, and
//! as the last line the JSON result. A run whose workload premise broke
//! prints no result and exits 3.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Options, Scale, Workload};

fn usage() -> String {
    "usage: perfbench --workload <kernels|serve_hot|serve_cold> --seed <n> --seconds <s> --trace <0|1>".into()
}

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let trace_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench");
    Ok(Options {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace,
        scale: Scale::full(),
        trace_dir,
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.render());
    if let Some(why) = &outcome.invalid {
        eprintln!(
            "perfbench: {}: invalid run, workload premise broken: {why}",
            opts.workload.name()
        );
        return ExitCode::from(3);
    }
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
