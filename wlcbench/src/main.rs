//! `wlcbench` command line; see `README.md` in this directory.
//!
//! ```text
//! wlcbench --workload grid|gridrun|serve --seed N --seconds S --trace 0|1 \
//!          --gridrun PATH --tracecheck PATH --work DIR
//! ```
//!
//! The last line of standard output is the JSON result: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.

use std::process::{Command, ExitCode};
use wlcbench::cli::{Args, Workload};
use wlcbench::report::{Metric, Outcome};
use wlcbench::spans::Spans;
use wlcbench::{grid, gridrun, layers, serve};

#[global_allocator]
static ALLOCATOR: wlcbench::alloc::CountingAlloc = wlcbench::alloc::CountingAlloc;

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let spans = Spans::new(args.trace);
    let (seed, seconds) = (args.seed, args.seconds);
    let mut outcome = match args.workload {
        Workload::Grid => grid::run(seed, seconds, &spans)?,
        Workload::Gridrun => gridrun::run(seed, seconds, &args.gridrun, &args.work, &spans)?,
        Workload::Serve => serve::run(seed, seconds, &spans)?,
    };
    if !args.trace {
        return Ok(outcome);
    }

    // Per-layer probes, then the trace file and its validation.
    let mut ok = true;
    let mut metrics: Vec<Metric> = layers::write_path_metrics(&spans, seed, &mut ok)?;
    metrics.extend(layers::store_metrics(&spans, seed, &args.work, &args.gridrun, &mut ok)?);
    metrics.extend(serve::probe_metrics(&spans, seed, &mut ok)?);
    metrics.append(&mut outcome.metrics);
    let path = args.work.join(format!("trace-{}.json", args.workload.name()));
    let trace = spans.to_chrome();
    std::fs::write(&path, &trace).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let summary =
        wlcrc_obs::check::validate_trace(&trace).map_err(|e| format!("trace rejected: {e}"))?;
    let checked = Command::new(&args.tracecheck)
        .arg(&path)
        .arg("--quiet")
        .args(["--require-span", "op", "--require-span", "attr"])
        .status()
        .map_err(|e| format!("cannot run {}: {e}", args.tracecheck.display()))?;
    ok &= checked.success();
    println!(
        "trace: {} spans written to {}, accepted by tracecheck: {}",
        summary.complete_spans,
        path.display(),
        checked.success()
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    outcome.correct &= ok;
    outcome.metrics = metrics;
    Ok(outcome)
}

fn main() -> ExitCode {
    wlcbench::cli::clear_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wlcbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|outcome| {
        match outcome.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("{} is not a finite number", m.name)),
            None => Ok(outcome),
        }
    }) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wlcbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
