//! `pvc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process. The last line of standard output is
//! the result (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is the run's context. Exits 1 on a wrong answer, 2 on bad arguments.

use pvc_perfbench::report::{END_TO_END, PER_LAYER};
use pvc_perfbench::{cold, serve};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: pvc-perfbench --workload cold_compile|tpch_cold|serve_mixed --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("cold_compile", false) => cold::run(&cold::cold_compile(), args.seed, args.seconds),
        ("cold_compile", true) => cold::run_traced(&cold::cold_compile(), args.seed, args.seconds),
        ("tpch_cold", false) => cold::run(&cold::tpch_cold(), args.seed, args.seconds),
        ("tpch_cold", true) => cold::run_traced(&cold::tpch_cold(), args.seed, args.seconds),
        ("serve_mixed", trace) => serve::run(args.seed, args.seconds, trace),
        (other, _) => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome.print(if args.trace { &PER_LAYER } else { &END_TO_END }) {
        eprintln!(
            "error: {e} ({} of {} operations failed)",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
    if !outcome.correct {
        std::process::exit(1);
    }
}
