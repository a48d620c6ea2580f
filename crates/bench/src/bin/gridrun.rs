//! `wlcrc-gridrun` — a multi-process grid runner over the persistent store.
//!
//! Each invocation is one *worker*: it walks the plan's cell grid, claims
//! unowned cells through claim markers in the shared result store, simulates
//! what it claims, and serves everything else from the store once the owning
//! worker has written it back. Any number of concurrent workers converge on
//! the same store contents, and every worker ends with the complete merged
//! grid — byte-identical to a single-process `run_grid` of the same plan.
//!
//! ```text
//! wlcrc-gridrun --store DIR [--plan perfsnap|fig08] [--lines N] [--seed N]
//!               [--threads N] [--stale-secs N] [--no-plan-cache] [--direct]
//! ```
//!
//! The merged grid is dumped to **stdout** (one full-precision line per cell,
//! shortest-roundtrip floats); **stderr** carries a progress report — a
//! periodic line while the run is live plus a final claim report (cells
//! computed / served / stolen / plan_hits), both fed by the engine's
//! `wlcrc_grid_*` registry counters — so CI can `diff` the dumps of
//! concurrent workers against each other and against `--direct` — the
//! ordinary store-less in-process engine, the ground truth the claim
//! protocol must reproduce exactly. Set `WLCRC_TRACE=<file>` to also record
//! this worker's claim/compute spans as a Chrome trace.
//!
//! `--stale-secs` bounds how long a crashed worker's claim blocks progress
//! (default 300 s; claims of dead same-host processes are taken over
//! immediately). The store directory comes from `--store`, else
//! `$WLCRC_STORE`.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use wlcrc_bench::figures::runner_plan;
use wlcrc_memsim::{ExperimentPlan, ExperimentResult, STORE_ENV};

fn usage() -> ! {
    eprintln!(
        "usage: wlcrc-gridrun [--store DIR] [--plan perfsnap|fig08] [--lines N] [--seed N] \
         [--threads N] [--stale-secs N] [--no-plan-cache] [--direct]"
    );
    std::process::exit(2);
}

/// The plan shapes shared with `storectl inspect --why` (see
/// [`runner_plan`]); an unknown kind is a usage error.
fn build_plan(kind: &str, lines: usize, seed: u64) -> ExperimentPlan {
    runner_plan(kind, lines, seed).unwrap_or_else(|| {
        eprintln!("wlcrc-gridrun: unknown plan {kind:?} (expected perfsnap or fig08)");
        std::process::exit(2);
    })
}

/// Deterministic full-precision dump of the merged grid: `{:?}` floats are
/// shortest-roundtrip, so two byte-identical result grids produce
/// byte-identical dumps and nothing less.
fn dump(results: &[ExperimentResult]) {
    for (config, result) in results.iter().enumerate() {
        println!(
            "config {config} seeds={:?} lines={} cells={}",
            result.meta.seeds,
            result.meta.lines_per_workload,
            result.cells.len()
        );
        for s in &result.cells {
            println!(
                "{}|{}|writes={} data_pj={:?} aux_pj={:?} data_cells={} aux_cells={} \
                 data_dist={} aux_dist={} exp_dist={:?} max_dist={} encoded={} integrity={} \
                 banks={:?}",
                s.scheme,
                s.workload,
                s.writes,
                s.data_energy_pj,
                s.aux_energy_pj,
                s.data_cells_updated,
                s.aux_cells_updated,
                s.data_disturb_errors,
                s.aux_disturb_errors,
                s.expected_disturb_errors,
                s.max_disturb_errors_per_write,
                s.encoded_lines,
                s.integrity_failures,
                s.bank_writes,
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let has = |name: &str| args.iter().any(|a| a == name);
    if has("--help") || has("-h") {
        usage();
    }

    let kind = flag("--plan").unwrap_or_else(|| "perfsnap".to_string());
    let lines: usize = flag("--lines").and_then(|v| v.parse().ok()).unwrap_or(40);
    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let stale_secs: u64 = flag("--stale-secs").and_then(|v| v.parse().ok()).unwrap_or(300);
    let direct = has("--direct");

    let mut plan = build_plan(&kind, lines, seed);
    if let Some(threads) = flag("--threads").and_then(|v| v.parse().ok()) {
        plan = plan.threads(threads);
    }
    if has("--no-plan-cache") {
        plan = plan.plan_cache(false);
    }

    if direct {
        // Ground truth: the plain in-process engine with the store disabled.
        // Concurrent claimed workers must reproduce this dump byte for byte.
        dump(&plan.store_enabled(false).run_grid());
        return;
    }

    let store = flag("--store").or_else(|| std::env::var(STORE_ENV).ok()).unwrap_or_else(|| {
        eprintln!("wlcrc-gridrun: no store directory (--store DIR or ${STORE_ENV})");
        std::process::exit(2);
    });

    // Progress reporter: while workers run, print the engine's registry
    // counters every couple of seconds. Dropping the sender wakes and ends
    // it at once, so short runs exit without waiting out a tick and emit
    // only the final report.
    let (done, finished) = mpsc::channel::<()>();
    let ticker = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let metrics = wlcrc_memsim::grid_metrics();
        while let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(2)) {
            eprintln!(
                "wlcrc-gridrun: progress computed {} served {} stolen {} ({:.0}s)",
                metrics.computed.get(),
                metrics.served.get(),
                metrics.stolen.get(),
                started.elapsed().as_secs_f64()
            );
        }
    });
    let (results, report) = plan.store(&store).run_grid_claimed(stale_secs);
    drop(done);
    let _ = ticker.join();
    eprintln!(
        "wlcrc-gridrun: cells computed {} served {} stolen {} plan_hits {}",
        report.computed, report.loaded, report.taken_over, report.plan_hits
    );
    dump(&results);
}
