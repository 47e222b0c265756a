//! Command line of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Without `--workload`, the binary runs itself once per workload, so
//! each workload has its own process and its own `peak_rss_mib`. The
//! last line of a workload's output is the summary JSON object; the
//! process exits 1 when a correctness check fails.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use bench_e2e::workloads::{Scale, NAMES};
use bench_e2e::{host, report, run_workload};

const USAGE: &str =
    "usage: bench_e2e [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// Run length when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| it.next()) {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => match it.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                next => {
                    args.trace = true;
                    pending = next;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target
        .join("bench_e2e")
        .join(format!("{workload}-seed{seed}.trace.jsonl"))
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let scale = Scale::Full {
        seconds: args.seconds,
    };
    let Some(rec) = run_workload(name, scale, args.seed, args.trace) else {
        eprintln!("bench_e2e: unknown workload {name:?}; expected one of {NAMES:?}");
        return ExitCode::from(2);
    };
    let (section, values) = if args.trace {
        let path = trace_path(name, args.seed);
        if let Err(e) = rec.tracer.write_jsonl(&path) {
            eprintln!("bench_e2e: could not write {}: {e}", path.display());
        }
        ("per_layer", report::per_layer(&rec))
    } else {
        let Some(rss) = host::peak_rss_mib() else {
            eprintln!("bench_e2e: peak_rss_mib needs /proc/self/status");
            return ExitCode::from(2);
        };
        ("end_to_end", report::end_to_end(&rec, rss))
    };
    let units = match report::units(section, &values) {
        Ok(units) => units,
        Err(diff) => {
            eprintln!("bench_e2e: metrics differ from BENCHMARK.json:\n{diff}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::stamp_json(args.seed, args.seconds, args.trace);
    print!("{}", report::render(name, &stamp, &rec, &values, &units));
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
