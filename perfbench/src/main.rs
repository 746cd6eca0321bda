//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run splits
//! `--seconds` over three fresh child processes (`--child`, which also
//! print their raw measurements on a `#raw` line) and pools their
//! measurements; a traced run measures in this process. `--workload all`
//! runs every workload in turn. Exits non-zero on a wrong output.

use ada_json::Value;
use ada_perfbench::catalog::WORKLOADS;
use ada_perfbench::harness::{parse_args, Args, Raw, RunOutput, PROCESSES, USAGE};
use ada_perfbench::stats::MIN_SAMPLES_FOR_P99;
use ada_perfbench::{ingest_local, remote_vmd, sampling_local};
use std::process::{Command, ExitCode};

fn run_here(args: &Args) -> Result<RunOutput, String> {
    match args.workload.as_str() {
        "remote_vmd" => remote_vmd::run(args),
        "sampling_local" => sampling_local::run(args),
        "ingest_local" => ingest_local::run(args),
        other => Err(format!("unknown workload '{}'", other)),
    }
}

/// Prefix of the line carrying a process's raw measurements.
const RAW: &str = "#raw ";

/// Run `args` in one fresh child process measuring for `seconds` and at
/// least `min_ops` ops; returns its context lines, its raw measurements
/// and its op counts.
fn run_child(
    args: &Args,
    seconds: f64,
    min_ops: usize,
) -> Result<(Vec<String>, Raw, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .args(["--child", &min_ops.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let raw = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RAW))
        .ok_or("child printed no raw measurements")?;
    let result = stdout.lines().last().unwrap_or("");
    let result = ada_json::parse(result.as_bytes()).map_err(|e| e.to_string())?;
    let count = |key: &str| result.field(key).and_then(Value::as_u64).unwrap_or(0);
    let prefix = format!("# {}: ", args.workload);
    let context = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter(|l| !l.contains(" = "))
        .map(String::from)
        .collect();
    Ok((
        context,
        Raw::from_json(raw)?,
        count("attempted"),
        count("failed"),
    ))
}

/// Split an untraced run over [`PROCESSES`] fresh processes and pool their
/// measurements; each runs at least [`MIN_SAMPLES_FOR_P99`] ops, so its
/// own p99 has ten samples beyond it.
fn run_split(args: &Args) -> Result<RunOutput, String> {
    let seconds = args.seconds / PROCESSES as f64;
    let min_ops = MIN_SAMPLES_FOR_P99;
    let mut out = RunOutput::default();
    let mut parts = Vec::with_capacity(PROCESSES);
    for k in 0..PROCESSES {
        let (context, raw, attempted, failed) = run_child(args, seconds, min_ops)?;
        for line in context {
            out.note(format!("process {}: {}", k, line));
        }
        out.attempted += attempted;
        out.failed += failed;
        parts.push(raw);
    }
    out.end_to_end(&parts);
    Ok(out)
}

fn run(args: &Args) -> ExitCode {
    let result = if args.trace || args.child_min_ops.is_some() {
        run_here(args)
    } else {
        run_split(args)
    };
    match result {
        Ok(mut out) => {
            out.select(args.trace);
            if let (Some(raw), Some(_)) = (&out.raw, args.child_min_ops) {
                println!("{}{}", RAW, raw.to_json());
            }
            print!("{}", out.render(&args.workload));
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} produced wrong output", args.workload);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {}", args.workload, e);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}\n{}", e, USAGE);
            return ExitCode::from(2);
        }
    };
    if args.workload != "all" {
        return run(&args);
    }
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let one = Args {
            workload: w.to_string(),
            ..args.clone()
        };
        if run(&one) != ExitCode::SUCCESS {
            code = ExitCode::FAILURE;
        }
    }
    code
}
