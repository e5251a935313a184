//! `acs-perfbench`: the repository's benchmark. Runs one workload
//! against the real `acs-repro` and `acs-serve` binaries, checks their
//! outputs, and prints its metrics; the last line of stdout is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! acs-perfbench --workload paper|api-interactive|api-analysis --seed N \
//!               --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. Run it
//! through `perfbench/run.sh`, which builds everything first. See
//! `perfbench/README.md`.

mod api;
mod client;
mod inputs;
mod paper;
mod replay;
mod report;
mod server;
mod spans;
mod stats;
mod sys;

use inputs::Workload;
use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Settings of one invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Where `acs-repro` and `acs-serve` were built.
    pub bin_dir: PathBuf,
    /// Scratch space for outputs and span files.
    pub work_dir: PathBuf,
    /// Processors available; the server's worker count and the
    /// generator's connection count.
    pub nproc: usize,
}

struct Args {
    workload: Workload,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        trace: trace.unwrap_or(false),
        ctx: Ctx {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            bin_dir: bin_dir.ok_or_else(|| missing("--bin-dir"))?,
            work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
            nproc,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("acs-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!(
            "acs-perfbench: cannot create {}: {e}",
            ctx.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    if args.trace && args.workload == Workload::Paper {
        // `acs_repro::run` reads its output directory from the
        // environment; set it while this process has one thread.
        std::env::set_var("ACS_RESULTS_DIR", paper::traced_results_dir(ctx));
    }
    // Busy idle-priority threads keep processors awake while the API
    // workloads run: an idle processor's wake-up delay would otherwise
    // set much of their latencies' spread. `paper` times processes of
    // about 150 ms and keeps them only for its millisecond set-ups.
    let awake = (args.workload != Workload::Paper).then(|| sys::KeepAwake::start(ctx.nproc));
    let outcome = match (args.workload, args.trace) {
        (Workload::Paper, false) => paper::run(ctx),
        (Workload::Paper, true) => paper::traced(ctx),
        (w, false) => api::run(ctx, w),
        (w, true) => api::traced(ctx, w),
    };
    drop(awake);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("acs-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} commit {}",
        args.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        ctx.nproc,
        std::env::var("ACS_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned())
    );
    for line in &report.notes {
        println!("{line}");
    }
    let (line, absent) = report.result_line(table);
    for &(name, unit) in table {
        if let Some(Some(v)) = report.values.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    if !absent.is_empty() {
        println!(
            "absent (no longer reported by the program): {}",
            absent.join(" ")
        );
    }
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
