//! The `grid` workload: each op is one cell — one of the 8 standard schemes
//! on `gcc` or on the `random` stream — run as a one-cell, store-less
//! `ExperimentPlan::run_grid` with one worker thread.

use crate::layers::{self, CellLayers};
use crate::report::{self, Account, Outcome};
use crate::spans::Spans;
use crate::stats::{
    closed_loop, closed_loop_with_setups, median, min_samples, LoopSpec, OpOutcome, SETUP_REPS,
};
use serde::Serialize;
use std::time::Instant;
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::{
    cell_seed, scaled_workload_lines, workload_stream_seed, ExperimentPlan, SchemeStats,
    SimulationOptions, Simulator,
};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_trace::{Benchmark, RandomTraceStream, TraceSource, TraceStream};

/// Unscaled `gcc` trace length: four passes over gcc's 2048-line working
/// set, so most writes land on lines already written (steady state).
pub const GCC_LINES: usize = 4 * 2048;

/// Length of the `random` stream: uniformly random old/new lines, all to
/// one address, incompressible.
pub const RANDOM_LINES: usize = 3 * 2048;

/// The two trace streams a cell replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The `gcc` profile: over 91% WLC-compressible, many distinct lines.
    Gcc,
    /// The repository's `random` stream: incompressible, one line.
    Random,
}

/// One grid cell: a scheme on a stream.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The scheme.
    pub scheme: SchemeId,
    /// The stream.
    pub stream: Stream,
}

impl Cell {
    /// The 16 cells of the workload: every scheme on `gcc`, then every
    /// scheme on `random`.
    pub fn all() -> Vec<Cell> {
        [Stream::Gcc, Stream::Random]
            .into_iter()
            .flat_map(|stream| SchemeId::ALL.into_iter().map(move |scheme| Cell { scheme, stream }))
            .collect()
    }

    /// The workload label the engine files the cell under.
    pub fn workload(&self) -> &'static str {
        match self.stream {
            Stream::Gcc => "gcc",
            Stream::Random => "random",
        }
    }

    /// The one-cell plan of the op.
    pub fn plan(&self, seed: u64) -> ExperimentPlan {
        match self.stream {
            Stream::Gcc => gcc_plan(self.scheme, seed, GCC_LINES),
            Stream::Random => {
                let stream_seed = workload_stream_seed(seed, "random");
                base_plan(self.scheme, seed).source("random", move |_| {
                    Box::new(RandomTraceStream::new(stream_seed, RANDOM_LINES))
                        as Box<dyn TraceSource + Send>
                })
            }
        }
    }

    /// The exact record stream the plan replays for this cell.
    pub fn source(&self, seed: u64) -> Box<dyn TraceSource + Send> {
        match self.stream {
            Stream::Gcc => {
                let profile = Benchmark::Gcc.profile();
                let lines = scaled_workload_lines(GCC_LINES, &profile, profile.write_intensity);
                Box::new(TraceStream::new(profile, workload_stream_seed(seed, "gcc"), lines))
            }
            Stream::Random => {
                Box::new(RandomTraceStream::new(workload_stream_seed(seed, "random"), RANDOM_LINES))
            }
        }
    }

    /// The simulation options the engine runs this cell with.
    pub fn options(&self, seed: u64) -> SimulationOptions {
        SimulationOptions {
            seed: cell_seed(seed, 0, self.scheme.label(), self.workload()),
            verify_integrity: true,
            sample_disturbance: true,
        }
    }

    /// A simulator configured exactly like the engine configures this cell.
    pub fn simulator(&self, seed: u64) -> Simulator {
        Simulator::with_config(PcmConfig::table_ii()).with_options(self.options(seed))
    }
}

/// A store-less, one-worker, one-shard plan of `scheme` alone.
fn base_plan(scheme: SchemeId, seed: u64) -> ExperimentPlan {
    ExperimentPlan::new()
        .store_enabled(false)
        .threads(1)
        .intra_trace_shards(1)
        .seed(seed)
        .scheme_factory(scheme.label(), scheme.factory())
}

/// The one-cell plan of `scheme` on `lines` (unscaled) `gcc` records.
pub fn gcc_plan(scheme: SchemeId, seed: u64, lines: usize) -> ExperimentPlan {
    base_plan(scheme, seed).lines_per_workload(lines).workload(Benchmark::Gcc.profile())
}

/// Runs one cell's op; returns its statistics.
pub fn run_cell(plan: &ExperimentPlan) -> Option<SchemeStats> {
    let mut results = plan.run_grid();
    let result = results.pop()?;
    let [cell] = <[SchemeStats; 1]>::try_from(result.cells).ok()?;
    Some(cell)
}

fn wire(stats: &SchemeStats) -> Vec<u8> {
    wlcrc_store::wire::encode(&stats.to_value())
}

/// One set-up: build every plan and run every cell once. Returns the plans
/// and the reference statistics.
fn set_up(seed: u64) -> (Vec<(Cell, ExperimentPlan)>, Vec<Option<SchemeStats>>) {
    let plans: Vec<(Cell, ExperimentPlan)> =
        Cell::all().into_iter().map(|cell| (cell, cell.plan(seed))).collect();
    let reference = plans.iter().map(|(_, plan)| run_cell(plan)).collect();
    (plans, reference)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Result<Outcome, String> {
    // One CPU for the whole workload: the op is single-threaded, and a
    // migration between vCPUs only adds the host's noise.
    let _pinned = crate::sys::pin_this_thread()?;
    // Set up once before the first op; an untraced run repeats the set-up
    // during its timed loop and reports the median. Every repetition must
    // reproduce the first one's statistics byte for byte.
    let started = Instant::now();
    let (plans, reference) = set_up(seed);
    let mut setup_times = vec![started.elapsed().as_secs_f64()];
    let mut correct = true;
    let reference: Vec<SchemeStats> = match reference.into_iter().collect::<Option<Vec<_>>>() {
        Some(cells) => cells,
        None => return Err("a grid cell returned no statistics".to_string()),
    };
    correct &= reference.iter().all(|s| s.integrity_failures == 0 && s.writes > 0);
    let reference_bytes: Vec<Vec<u8>> = reference.iter().map(wire).collect();
    report::print_digest("grid", &reference);

    let cells = plans.len();
    let op = |index: u64, spans: &Spans| {
        let slot = index as usize % cells;
        let id = spans.next_op();
        let (stats, latency) = spans
            .span("op", id, || spans.span("engine.run_grid", id, || run_cell(&plans[slot].1)).0);
        let ok = stats.is_some_and(|s| wire(&s) == reference_bytes[slot]);
        (OpOutcome { latency, writes: reference[slot].writes, ok }, id)
    };

    if !spans.enabled() {
        let spec = LoopSpec { seconds, min_ops: min_samples(0.9), round: cells };
        let again = |_| {
            let started = Instant::now();
            let stats = set_up(seed).1;
            let elapsed = started.elapsed().as_secs_f64();
            correct &= stats.into_iter().collect::<Option<Vec<_>>>().as_ref() == Some(&reference);
            elapsed
        };
        let setups = SETUP_REPS - 1;
        let log = closed_loop_with_setups(&spec, setups, &mut setup_times, again, |index| {
            op(index, spans).0
        });
        let metrics = report::end_to_end(&setup_times, &log, crate::stats::self_peak_rss_mb())?;
        report::print_ops("grid", &setup_times, &log, &metrics);
        return Ok(Outcome {
            correct: correct && log.failed == 0,
            attempted: log.attempted(),
            failed: log.failed,
            metrics,
        });
    }

    // Traced run: the same ops untraced, then traced, each traced op
    // followed by a replay of its cell through the per-layer public calls.
    let untraced = Spans::new(false);
    let spec = LoopSpec { seconds: seconds / 8.0, min_ops: cells, round: cells };
    let plain = closed_loop(&spec, |index| op(index, &untraced).0);
    let count = plain.latencies_ms.len();
    let mut account = Account { workload: "grid", ops: 0, op_ns: 0.0, layers: Vec::new() };
    let mut totals = CellLayers::default();
    let mut engine_ns = 0.0;
    let spec = LoopSpec { seconds: 0.0, min_ops: count, round: cells };
    let traced = closed_loop(&spec, |index| {
        let (outcome, id) = op(index, spans);
        let cell = plans[index as usize % cells].0;
        let (layers, ok) = spans.span("attr", id, || layers::decompose(spans, id, &cell, seed)).0;
        engine_ns += outcome.latency.as_nanos() as f64 - layers.run_ns;
        account.op_ns += outcome.latency.as_nanos() as f64;
        totals.add(&layers);
        OpOutcome { ok: outcome.ok && ok, ..outcome }
    });
    account.ops = traced.attempted();
    account.layers = vec![("engine (run_grid - Simulator::run)", engine_ns)];
    account.layers.extend(totals.account_layers());
    account.print();
    let ratio = median(&traced.latencies_ms) / median(&plain.latencies_ms);
    let failed = plain.failed + traced.failed;
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted: plain.attempted() + traced.attempted(),
        failed,
        metrics: vec![report::metric("obs.bench_trace_overhead_ratio", ratio, "ratio")],
    })
}
