//! The `paper` workload: fresh `acs-repro all` processes back to back,
//! one closed-loop client, every CSV checked byte for byte against the
//! committed `results/`.
//!
//! `acs-repro all` takes no input, so the seed changes nothing here.
//! `ext` is left out: its committed `ext_disagg.csv` and
//! `ext_serving.csv` no longer match what the program writes.

use crate::report::{registry_p50, Report};
use crate::spans::Tracer;
use crate::stats::{median, spread_note, tail};
use crate::sys::{wait_with_peak_rss, KeepAwake, Redirect};
use crate::Ctx;
use std::fs;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The CSVs `acs-repro all` writes.
pub const PAPER_CSVS: [&str; 13] = [
    "fig1a.csv",
    "fig1b.csv",
    "fig2_area_floors.csv",
    "fig2_devices.csv",
    "fig5.csv",
    "fig6.csv",
    "fig7.csv",
    "fig8.csv",
    "fig9.csv",
    "fig10.csv",
    "fig11.csv",
    "fig12.csv",
    "table4.csv",
];

/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_RUNS: usize = 51;

fn reference() -> io::Result<Vec<Vec<u8>>> {
    PAPER_CSVS
        .iter()
        .map(|name| fs::read(Path::new("results").join(name)))
        .collect()
}

/// Names of the CSVs in `dir` that differ from the committed ones (or
/// are missing), plus any CSV written that is not a paper artefact.
fn mismatches(dir: &Path, reference: &[Vec<u8>]) -> Vec<String> {
    let mut bad: Vec<String> = PAPER_CSVS
        .iter()
        .zip(reference)
        .filter(|(name, want)| fs::read(dir.join(name)).ok().as_ref() != Some(*want))
        .map(|(name, _)| (*name).to_owned())
        .collect();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".csv") && !PAPER_CSVS.contains(&name.as_str()) {
                bad.push(format!("unexpected {name}"));
            }
        }
    }
    bad
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)
}

/// One `acs-repro <experiment>` process writing into `out`: wall
/// seconds, peak RSS in KiB, success.
fn repro_process(bin: &Path, experiment: &str, out: &Path) -> io::Result<(f64, u64, bool)> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .arg(experiment)
        .env("ACS_RESULTS_DIR", out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let (status, rss_kib) = wait_with_peak_rss(child)?;
    Ok((t0.elapsed().as_secs_f64(), rss_kib, status.success()))
}

/// End-to-end run.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let reference = reference()?;
    let bin = ctx.bin_dir.join("acs-repro");
    let dir = ctx.work_dir.join("paper");
    let mut report = Report::new();

    // Set-up: a process that does the fixed per-process work (start,
    // static tables) and the smallest experiment. These processes last
    // about a millisecond, so an idle processor's wake-up delay would
    // set their spread; the `all` runs below last far longer and run
    // without the spinners.
    let setup_dir = dir.join("setup");
    fresh_dir(&setup_dir)?;
    let mut setups = Vec::new();
    let awake = KeepAwake::start(ctx.nproc);
    for _ in 0..SETUP_RUNS {
        let (secs, _, ok) = repro_process(&bin, "table1", &setup_dir)?;
        if !ok {
            report.wrong("acs-repro table1 exited with failure".to_owned());
        }
        setups.push(secs);
    }
    drop(awake);

    let out = dir.join("all");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        fresh_dir(&out)?;
        let (secs, kib, ok) = repro_process(&bin, "all", &out)?;
        report.attempted += 1;
        let bad = mismatches(&out, &reference);
        if !ok || !bad.is_empty() {
            report.failed += 1;
            report.wrong(format!(
                "acs-repro all: exit ok={ok}, CSV mismatches {bad:?}"
            ));
        }
        walls.push(secs);
        rss.push(kib as f64 / 1024.0);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let t = tail(&walls).expect("at least one run");
    report.set("setup_s", Some(median(&setups)));
    report.set("p50_ms", Some(median(&walls) * 1e3));
    report.set("peak_rss_mib", Some(median(&rss)));
    let completed = report.attempted - report.failed;
    report.note(format!(
        "paper_s {:.6} s (median of {} runs)",
        median(&walls),
        walls.len()
    ));
    report.note(format!(
        "p99_ms {:.6} ms: p{:.1} of {} runs ({} beyond)",
        t.value * 1e3,
        t.percentile,
        t.samples,
        t.beyond
    ));
    report.note(format!(
        "max_rate_rps {:.6} 1/s: completed runs per second, one closed-loop client",
        completed as f64 / elapsed
    ));
    report.note(format!(
        "error_rate {:.6} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    ));
    report.note(format!(
        "setup: median of {SETUP_RUNS} `acs-repro table1` processes ({})",
        spread_note(&setups)
    ));
    Ok(report)
}

/// Where the traced run's in-process experiments write their CSVs. The
/// caller exports it as `ACS_RESULTS_DIR` before starting any thread.
#[must_use]
pub fn traced_results_dir(ctx: &Ctx) -> std::path::PathBuf {
    ctx.work_dir.join("paper-traced").join("results")
}

/// Traced run: every experiment of `all` in process through
/// `acs_repro::run`, rounds with tracing off and on alternating.
pub fn traced(ctx: &Ctx) -> io::Result<Report> {
    let reference = reference()?;
    let dir = ctx.work_dir.join("paper-traced");
    let out = traced_results_dir(ctx);
    if std::env::var_os("ACS_RESULTS_DIR").as_deref() != Some(out.as_os_str()) {
        return Err(io::Error::other(
            "ACS_RESULTS_DIR must name traced_results_dir",
        ));
    }
    fresh_dir(&out)?;
    let mut report = Report::new();
    let mut tracer = Tracer::new();
    let registry = acs_telemetry::global();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let printed = fs::File::create(dir.join("stdout.txt"))?;
    let started = Instant::now();
    let mut round = 0u64;
    {
        let _quiet = Redirect::stdout_to(&printed)?;
        while round < 4 || started.elapsed().as_secs_f64() < ctx.seconds {
            let traced = round % 2 == 1;
            if traced {
                registry.reset();
                registry.enable();
            } else {
                registry.disable();
            }
            let root = tracer.open(
                if traced { "all.traced" } else { "all.untraced" },
                None,
                round,
            );
            for exp in acs_repro::EXPERIMENTS {
                report.attempted += 1;
                let id = tracer.open(exp, Some(root), round);
                let ok = acs_repro::run(exp).is_ok();
                tracer.close(id);
                if !ok {
                    report.failed += 1;
                }
            }
            let secs = tracer.close(root);
            if traced {
                on.push(secs);
                tracer.time("optimize_oct2023", None, round, || {
                    acs_core::optimize_oct2023(
                        &acs_llm::ModelConfig::gpt3_175b(),
                        &acs_llm::WorkloadConfig::paper_default(),
                        2400.0,
                    )
                });
            } else {
                off.push(secs);
            }
            round += 1;
        }
    }
    let eval_point = registry_p50("dse.eval.point_us");
    registry.disable();
    if report.failed > 0 {
        report.wrong(format!("{} in-process experiments failed", report.failed));
    }
    let bad = mismatches(&out, &reference);
    if !bad.is_empty() {
        report.wrong(format!("in-process CSV mismatches {bad:?}"));
    }

    // Per-experiment medians over the traced rounds.
    let traced_roots: Vec<usize> = (0..tracer.spans().len())
        .filter(|&i| tracer.spans()[i].name == "all.traced")
        .collect();
    for (exp, (name, _)) in acs_repro::EXPERIMENTS.iter().zip(&crate::report::PER_LAYER) {
        assert_eq!(
            *name,
            format!("repro.{exp}_ms"),
            "PER_LAYER lists the experiments in order"
        );
        let times: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == *exp && s.parent.is_some_and(|p| traced_roots.contains(&p)))
            .map(|s| s.duration() * 1e3)
            .collect();
        report.set(name, Some(median(&times)));
    }
    let optimize: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "optimize_oct2023")
        .map(|s| s.duration())
        .collect();
    let points = acs_dse::SweepSpec::table3_fig7().cardinality() as f64;
    report.set("core.optimize_oct2023_ms", Some(median(&optimize) * 1e3));
    report.set("dse.paper_points_per_s", Some(points / median(&optimize)));
    report.set("dse.eval_point_us", eval_point);
    let overhead = (median(&on) - median(&off)) / median(&off) * 100.0;
    report.set("bench.trace_overhead_pct", Some(overhead));
    report.note(format!(
        "in-process `all`: {:.3} ms untraced, {:.3} ms traced (medians of {} and {} rounds)",
        median(&off) * 1e3,
        median(&on) * 1e3,
        off.len(),
        on.len()
    ));
    let trace_path = dir.join(format!("trace-seed{}.jsonl", ctx.seed));
    fs::write(&trace_path, tracer.to_jsonl())?;
    report.note(format!("spans written to {}", trace_path.display()));
    Ok(report)
}
