//! The ehdl benchmark: one command that sweeps a named workload through
//! the fleet runner (or the shard coordinator), checks its outputs and
//! prints every metric by name with its unit. The last line of standard
//! output is the result object:
//!
//! ```text
//! {"correct": true, "attempted": 980, "failed": 0, "metrics": {"setup_s": {"value": 0.0123, "unit": "s"}, ...}}
//! ```
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deploy_grid|fault_storm|gateway_world|sharded_sweep|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare <dir-a> <dir-b>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced sweeps;
//! `--trace 1` prints the per-layer split of a traced pass. Each run
//! also writes its header and result to `<out>/<workload>-seed<n>-trace<t>.json`
//! (`<out>` defaults to `perfbench/results`), which `--compare` reads.

mod bench;
mod compare;
mod metrics;
mod replica;
mod sharded;
mod sink;
mod stats;
mod workloads;

use bench::Options;
use ehdl_fleet::Json;
use metrics::{int, num, obj, render, string};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ehdl-perfbench --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]\n       ehdl-perfbench --compare DIR_A DIR_B";

enum Mode {
    Run { workload: String, opts: Options },
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                return Ok(Mode::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Mode::Run { workload, opts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(sharded::WORKER_FLAG) {
        return match sharded::worker(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("shard worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match parse(&args) {
        Ok(Mode::Compare(a, b)) => compare::run(&a, &b),
        Ok(Mode::Run { workload, .. }) if workload == "all" => run_all(&args),
        Ok(Mode::Run { workload, opts }) => run_one(&workload, &opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload, prints its report and result line, and saves both.
fn run_one(name: &str, opts: &Options) -> Result<(), String> {
    let spec = workloads::build(name, opts.seed).ok_or(format!("unknown workload {name}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = bench::run(&spec, opts)?;
    let ledger = &outcome.ledger;

    println!(
        "== {name}: seed {}, {} s, {} ==",
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    println!("{} scenarios per sweep", spec.matrix.len());
    for (check, ok) in &ledger.checks {
        println!("check {}: {check}", if *ok { "ok    " } else { "FAILED" });
    }
    if !outcome.layers.is_empty() {
        let total: f64 = outcome.layers.iter().map(|(_, s)| s).sum();
        println!("traced self time by module:");
        for (module, busy) in &outcome.layers {
            println!(
                "  {module:<10} {busy:>10.4} s  {:>5.1}%",
                100.0 * busy / total
            );
        }
    }
    for &(metric, value) in &outcome.metrics {
        let (unit, better) =
            metrics::lookup(metric).map_or(("", ""), |m| (m.unit, m.better.name()));
        println!("{metric:<34} {value:>16.6} {unit:<6} ({better} is better)");
    }

    let mut header = vec![
        ("workload", string(name)),
        ("seed", int(opts.seed)),
        ("git_revision", string(&bench::git_revision())),
        ("nproc", int(nproc as u64)),
        ("workers", int(workloads::WORKERS as u64)),
        ("run_seconds", num(opts.seconds)),
        ("tracing", Json::Bool(opts.trace)),
        ("scenarios_per_sweep", int(spec.matrix.len() as u64)),
        (
            "modelled_metrics",
            string("simulator statistics, unvalidated against hardware"),
        ),
    ];
    header.extend(outcome.header);
    let header = obj(header);
    let result = metrics::result(
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        &outcome.metrics,
    );
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = opts.out.join(format!(
        "{name}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    let saved = obj(vec![("header", header.clone()), ("result", result.clone())]);
    std::fs::write(&path, render(&saved) + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", render(&obj(vec![("header", header)])));
    println!("{}", render(&result));
    Ok(())
}

/// Runs every workload in its own process (so each reports its own peak
/// memory), then prints one combined result with workload-prefixed
/// metric names.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = Vec::new();
    for name in workloads::NAMES {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .ok_or("--workload is required")?;
        child_args[at + 1] = name.to_string();
        let output = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("workload {name} failed: {}", output.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let result = Json::parse(last).map_err(|e| format!("{name}: {e}"))?;
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (metric, value) in metrics {
                combined.push((format!("{name}.{metric}"), value.clone()));
            }
        }
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), int(attempted)),
        ("failed".to_string(), int(failed)),
        ("metrics".to_string(), Json::Obj(combined)),
    ]);
    println!("{}", render(&result));
    Ok(())
}
