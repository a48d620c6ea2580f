//! The `gridrun` workload: set-up fills a fresh store with the fig08 plan
//! through the in-process engine; each op then starts one
//! `wlcrc-gridrun` worker, which is served entirely from the store — every
//! cell from its own entry — and dumps the merged grid.

use crate::report::{self, Account, Outcome};
use crate::spans::Spans;
use crate::stats::{
    closed_loop, closed_loop_with_setups, median, min_samples, LoopSpec, OpOutcome, SETUP_REPS,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use wlcrc_memsim::{ExperimentPlan, ExperimentResult};
use wlcrc_store::Entry;

/// Unscaled lines per workload of the fig08 plan the workers run.
pub const LINES: usize = 128;

/// The stale-claim limit every run uses (the worker's default).
const STALE_SECS: u64 = 300;

/// A worker that exits faster than this many ms skipped the 250 ms sleep of
/// its progress ticker (the exit floor): its warm run ended before the
/// ticker thread first slept.
const FLOOR_SKIPPED_MS: f64 = 125.0;

/// The plan a cold worker runs (`--plan fig08 --threads 1 --lines LINES`),
/// built in-process.
pub fn plan(seed: u64) -> ExperimentPlan {
    wlcrc_bench::figures::runner_plan("fig08", LINES, seed)
        .expect("fig08 is a runner plan")
        .threads(1)
}

/// The plan a warm worker runs: [`plan`] with `--no-plan-cache`, so each
/// cell is read from its own store entry instead of all from the one plan
/// entry.
///
/// Served from the plan entry, a worker's warm run is shorter than a
/// scheduler tick, so whether its progress ticker starts before the run
/// ends — and the worker waits out the exit floor — is a race: in some runs
/// more than half the workers skipped the floor and the median op fell from
/// 255 to 5 ms. Reading the 96 cell entries outlasts a tick; in 200 trials
/// every worker waited out the floor.
pub fn warm_plan(seed: u64) -> ExperimentPlan {
    plan(seed).plan_cache(false)
}

/// One finished worker process.
pub struct Worker {
    /// Spawn to exit, output read.
    pub latency: Duration,
    /// The merged-grid dump (stdout).
    pub dump: Vec<u8>,
    /// The worker's report (stderr).
    pub report: String,
    /// Exit status 0.
    pub success: bool,
}

impl Worker {
    /// Whether the worker served every cell from its own store entry:
    /// nothing computed, nothing stolen, no plan entry read.
    pub fn served_from_cells(&self) -> bool {
        self.report.lines().any(|line| {
            line.strip_prefix("wlcrc-gridrun: cells computed 0 served ")
                .is_some_and(|rest| rest.ends_with(" stolen 0 plan_hits 0"))
        })
    }

    /// Exited 0 and was served from the cell entries.
    pub fn ok(&self) -> bool {
        self.success && self.served_from_cells()
    }
}

/// How many of the worker latencies `latencies_ms` skipped the exit floor.
pub fn floor_skipped(latencies_ms: &[f64]) -> usize {
    latencies_ms.iter().filter(|&&ms| ms < FLOOR_SKIPPED_MS).count()
}

fn run_worker(bin: &Path, extra: &[&str], seed: u64) -> Result<Worker, String> {
    let lines = LINES.to_string();
    let seed = seed.to_string();
    let mut command = Command::new(bin);
    command.args(["--plan", "fig08", "--threads", "1", "--lines", &lines, "--seed", &seed]);
    command.args(extra);
    // Workers run on one CPU, so whether a worker's progress ticker starts
    // before its warm run ends does not hinge on how fast the host wakes
    // an idle second vCPU.
    crate::sys::pin_command(&mut command)?;
    let started = Instant::now();
    let output = command.output().map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let latency = started.elapsed();
    Ok(Worker {
        latency,
        dump: output.stdout,
        report: String::from_utf8_lossy(&output.stderr).into_owned(),
        success: output.status.success(),
    })
}

/// Runs one worker against the store at `store`: a warm worker
/// ([`warm_plan`]) or a cold one ([`plan`]).
pub fn spawn_worker(bin: &Path, store: &Path, seed: u64, warm: bool) -> Result<Worker, String> {
    let store = store.to_str().ok_or("store path is not UTF-8")?;
    let no_plan_cache: &[&str] = if warm { &["--no-plan-cache"] } else { &[] };
    run_worker(bin, &[&["--store", store], no_plan_cache].concat(), seed)
}

/// Simulated writes behind a dump: the sum of its `writes=` fields.
pub fn dump_writes(dump: &[u8]) -> u64 {
    String::from_utf8_lossy(dump)
        .split(|c: char| c.is_whitespace() || c == '|')
        .filter_map(|field| field.strip_prefix("writes="))
        .filter_map(|n| n.parse::<u64>().ok())
        .sum()
}

/// The cell entries in the store at `dir` (every entry but the fig08 plan
/// entry), in fingerprint order.
pub fn cell_entries(dir: &Path, seed: u64) -> Result<Vec<Entry>, String> {
    let plan_entry = plan(seed).plan_fingerprints()[0];
    let store = wlcrc_store::ResultStore::open_read_only(dir);
    let mut cells: Vec<_> = store
        .entries()
        .into_iter()
        .map(|entry| entry.fingerprint)
        .filter(|fingerprint| Some(*fingerprint) != plan_entry)
        .collect();
    cells.sort();
    let entries = cells
        .into_iter()
        .map(|fingerprint| store.read_entry(fingerprint))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cell entry in {}: {e}", dir.display()))?;
    if entries.is_empty() {
        return Err(format!("no cell entry in {}", dir.display()));
    }
    Ok(entries)
}

fn store_dir(work: &Path, rep: usize) -> PathBuf {
    work.join(format!("gridrun-store-{rep}"))
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
    spans: &Spans,
) -> Result<Outcome, String> {
    // Set-up runs on one CPU, as in the other workloads; with set-up free
    // to migrate, `setup_s` spread by about a third across ten runs. The
    // workers run on the same CPU.
    let _pinned = crate::sys::pin_this_thread()?;
    // Set-up fills a fresh store through the in-process engine — the
    // claimed run a cold worker makes — and serves it once warm. A worker
    // process is kept out of set-up: whether it waits out the exit floor
    // varies from run to run and would make `setup_s` flip by 250 ms.
    // Repetition `rep` fills store `rep`; an untraced run repeats the
    // set-up during its timed loop and reports the median.
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(store_dir(work, rep));
    }
    let fill = |rep: usize| -> (Vec<ExperimentResult>, bool, f64) {
        let dir = store_dir(work, rep);
        let started = Instant::now();
        let (cold, cold_report) = plan(seed).store(&dir).run_grid_claimed(STALE_SECS);
        let (warm, warm_report) = plan(seed).store(&dir).run_grid_claimed(STALE_SECS);
        let elapsed = started.elapsed().as_secs_f64();
        let ok = cold_report.plan_hits == 0 && warm_report.plan_hits == 1 && warm == cold;
        (cold, ok, elapsed)
    };
    let (filled, mut correct, elapsed) = fill(0);
    let mut setup_times = vec![elapsed];
    let store = store_dir(work, 0);
    report::print_digest("gridrun", &filled[0].cells);

    // Each op's dump must equal the first warm dump; after the loop that
    // one is compared with a cold worker's and a `--direct` worker's. Those
    // two run after the loop, so the children's peak resident set read at
    // its end is that of a warm worker.
    let mut first_dump: Option<Vec<u8>> = None;
    let mut op = |spans: &Spans| -> Result<(OpOutcome, u64), String> {
        let id = spans.next_op();
        let (worker, latency) = spans.span("op", id, || {
            spans.span("gridrun.worker", id, || spawn_worker(bin, &store, seed, true)).0
        });
        let worker = worker?;
        let writes = dump_writes(&worker.dump);
        let first = first_dump.get_or_insert_with(|| worker.dump.clone());
        let ok = worker.ok() && writes > 0 && worker.dump == *first;
        Ok((OpOutcome { latency, writes, ok }, id))
    };
    let mut error = None;
    let mut guarded = |spans: &Spans| match op(spans) {
        Ok(outcome) => outcome,
        Err(e) => {
            error.get_or_insert(e);
            (OpOutcome { latency: Duration::ZERO, writes: 0, ok: false }, 0)
        }
    };

    let (metrics, attempted, mut failed) = if !spans.enabled() {
        let spec = LoopSpec { seconds, min_ops: min_samples(0.9), round: 1 };
        let again = |rep| {
            let (cold, ok, elapsed) = fill(rep);
            correct &= ok && cold == filled;
            elapsed
        };
        let log = closed_loop_with_setups(&spec, SETUP_REPS - 1, &mut setup_times, again, |_| {
            guarded(spans).0
        });
        let metrics = report::end_to_end(&setup_times, &log, crate::sys::children_peak_rss_mb())?;
        report::print_ops("gridrun", &setup_times, &log, &metrics);
        println!(
            "gridrun: {} of {} workers skipped the exit floor",
            floor_skipped(&log.latencies_ms),
            log.attempted()
        );
        (metrics, log.attempted(), log.failed)
    } else {
        // Traced run: the same ops untraced, then traced, then per traced op
        // the same warm plan run in-process and its store calls. The
        // attribution runs after all workers, so the traced workers start
        // back to back like the untraced ones.
        let untraced = Spans::new(false);
        let spec = LoopSpec { seconds: seconds / 8.0, min_ops: 8, round: 1 };
        let plain = closed_loop(&spec, |_| guarded(&untraced).0);
        let mut ids = Vec::new();
        let spec = LoopSpec { seconds: 0.0, min_ops: plain.latencies_ms.len(), round: 1 };
        let traced = closed_loop(&spec, |_| {
            let (outcome, id) = guarded(spans);
            ids.push(id);
            outcome
        });
        let in_process = warm_plan(seed).store(&store);
        let cells = cell_entries(&store, seed)?;
        let reader = wlcrc_store::ResultStore::open_read_only(&store);
        let (mut claimed_ns, mut get_ns) = (0.0, 0.0);
        for id in ids {
            spans.span("attr", id, || {
                let claimed = spans.span("memsim.run_grid_claimed", id, || {
                    in_process.run_grid_claimed(STALE_SECS)
                });
                let get = spans.span("store.get", id, || {
                    cells.iter().filter(|cell| reader.get(&cell.key).is_some()).count()
                });
                claimed_ns += claimed.1.as_nanos() as f64;
                get_ns += get.1.as_nanos() as f64;
            });
        }
        let op_ns = traced.busy_s * 1e9;
        let account = Account {
            workload: "gridrun",
            ops: traced.attempted(),
            op_ns,
            layers: vec![
                ("gridrun process (op - in-process run)", op_ns - claimed_ns),
                ("store get (every cell entry)", get_ns),
            ],
        };
        account.print();
        let ratio = median(&traced.latencies_ms) / median(&plain.latencies_ms);
        let metrics = vec![report::metric("obs.bench_trace_overhead_ratio", ratio, "ratio")];
        (metrics, plain.attempted() + traced.attempted(), plain.failed + traced.failed)
    };
    if let Some(e) = error {
        return Err(e);
    }
    let first_dump = first_dump.ok_or("no gridrun op ran")?;

    // The reference dump: a cold worker process on a store of its own. Every
    // op that passed matched the first warm dump, so if that one is wrong,
    // every op failed.
    let cold_dir = work.join("gridrun-cold");
    let _ = std::fs::remove_dir_all(&cold_dir);
    let cold = spawn_worker(bin, &cold_dir, seed, false)?;
    correct &= cold.success && cold.report.contains("plan_hits 0");
    if dump_writes(&cold.dump) == 0 {
        return Err(format!(
            "cold worker dumped no cells:\n{}",
            String::from_utf8_lossy(&cold.dump)
        ));
    }
    if cold.dump != first_dump {
        failed = attempted;
    }
    // Once per run: the served grid must equal the store-less engine's.
    let direct = run_worker(bin, &["--direct"], seed)?;
    correct &= direct.success && direct.dump == cold.dump;
    Ok(Outcome { correct: correct && failed == 0, attempted, failed, metrics })
}
