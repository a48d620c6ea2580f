//! Per-layer probes: each layer of one simulated write timed from the
//! outside, through the public functions of the crate that owns it.
//!
//! A cell is replayed layer by layer ([`decompose`]): the trace stream, a
//! `SimulatorSession` fed record by record, `Simulator::run`, and then each
//! child layer of a session write — codec encode, `differential_write`,
//! `evaluate_disturbance`, codec decode — as one batch loop per layer over
//! the cell's records, with the stored lines computed beforehand. The
//! store, gridrun and serve probes time their own public calls the same
//! way.

use crate::alloc::thread_allocations;
use crate::grid::{self, Cell, Stream};
use crate::report::{metric, Metric};
use crate::spans::Spans;
use crate::stats::{median, median_secs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::workload_stream_seed;
use wlcrc_pcm::disturb::evaluate_disturbance;
use wlcrc_pcm::physical::PhysicalLine;
use wlcrc_pcm::write::differential_write;
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

/// Host time of each layer over one cell's records, ns.
#[derive(Debug, Default, Clone)]
pub struct CellLayers {
    /// Simulated writes in the cell.
    pub writes: u64,
    /// `TraceSource::next` over the cell's stream.
    pub trace_ns: f64,
    /// `SimulatorSession::write`, record by record.
    pub session_ns: f64,
    /// `Simulator::run` over the cell (stream included).
    pub run_ns: f64,
    /// `LineCodec::encode` calls (first-touch initial encodes included).
    pub encode_ns: f64,
    /// Number of `encode` calls.
    pub encodes: u64,
    /// `differential_write` calls.
    pub write_ns: f64,
    /// `evaluate_disturbance` calls.
    pub disturb_ns: f64,
    /// `LineCodec::decode` calls (one verify decode per write).
    pub decode_ns: f64,
    /// Heap allocations of the session writes in steady state.
    pub allocs: u64,
}

impl CellLayers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CellLayers) {
        self.writes += other.writes;
        self.trace_ns += other.trace_ns;
        self.session_ns += other.session_ns;
        self.run_ns += other.run_ns;
        self.encode_ns += other.encode_ns;
        self.encodes += other.encodes;
        self.write_ns += other.write_ns;
        self.disturb_ns += other.disturb_ns;
        self.decode_ns += other.decode_ns;
        self.allocs += other.allocs;
    }

    /// The four child layers of a session write, ns.
    pub fn children_ns(&self) -> f64 {
        self.encode_ns + self.write_ns + self.disturb_ns + self.decode_ns
    }

    /// The layers of `Simulator::run` as account rows; what remains of the
    /// run (record routing, lane look-ups, merging) is unattributed.
    pub fn account_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("trace (TraceSource::next)", self.trace_ns),
            ("memsim self (session write)", self.session_ns - self.children_ns()),
            ("codec encode", self.encode_ns),
            ("codec decode", self.decode_ns),
            ("pcm differential_write", self.write_ns),
            ("pcm evaluate_disturbance", self.disturb_ns),
        ]
    }
}

fn ns(duration: std::time::Duration) -> f64 {
    duration.as_nanos() as f64
}

/// Replays `cell` layer by layer under op `op`. Returns the per-layer
/// times and whether the replay reproduced the engine: the session's and
/// `Simulator::run`'s statistics must agree and every decode must return
/// the written data.
pub fn decompose(spans: &Spans, op: u64, cell: &Cell, seed: u64) -> (CellLayers, bool) {
    let simulator = cell.simulator(seed);
    let config = simulator.config().clone();
    let energy = &config.energy;
    let (records, trace) =
        spans.span("trace.next", op, || cell.source(seed).collect::<Vec<WriteRecord>>());
    let mut session = simulator.session(cell.scheme.build(), cell.workload());
    let ((), session_time) = spans.span("memsim.write", op, || {
        for record in &records {
            session.write(black_box(record));
        }
    });
    let codec = cell.scheme.build();
    let (run_stats, run_time) =
        spans.span("memsim.run", op, || simulator.run(codec.as_ref(), cell.source(seed)));
    let mut ok = session.stats() == run_stats && run_stats.integrity_failures == 0;
    // Steady-state allocations: the same records fed again through the same
    // session, whose lane maps already hold every address. A map may still
    // grow once more when removals have left it short of free slots, and
    // when that happens depends on the per-process hash seed; the fewest
    // allocations over three passes is a pass in which no map grew, so the
    // count repeats exactly.
    let allocs = (0..3)
        .map(|_| {
            let before = thread_allocations();
            for record in &records {
                session.write(record);
            }
            thread_allocations() - before
        })
        .min()
        .expect("three passes");

    // The stored line each write sees, computed untimed so the encode loop
    // below times nothing but `encode` calls.
    let initial = codec.initial_line();
    let mut stored: HashMap<u64, PhysicalLine> = HashMap::new();
    let mut first_touch = Vec::with_capacity(records.len());
    let pairs: Vec<(PhysicalLine, PhysicalLine)> = records
        .iter()
        .map(|r| {
            first_touch.push(!stored.contains_key(&r.address));
            let old =
                stored.remove(&r.address).unwrap_or_else(|| codec.encode(&r.old, &initial, energy));
            let new = codec.encode(&r.new, &old, energy);
            stored.insert(r.address, new.clone());
            (old, new)
        })
        .collect();
    let encodes = records.len() as u64 + first_touch.iter().filter(|&&t| t).count() as u64;
    let encode = spans.span("codec.encode", op, || {
        for ((record, (old, _)), &first) in records.iter().zip(&pairs).zip(&first_touch) {
            if first {
                black_box(codec.encode(black_box(&record.old), &initial, energy));
            }
            black_box(codec.encode(black_box(&record.new), old, energy));
        }
    });
    let write = spans.span("pcm.write", op, || {
        for (old, new) in &pairs {
            black_box(differential_write(black_box(old), new, energy));
        }
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let disturb = spans.span("pcm.disturb", op, || {
        for (old, new) in &pairs {
            black_box(evaluate_disturbance(black_box(old), new, &config.disturbance, &mut rng));
        }
    });
    let (decoded_ok, decode) = spans.span("codec.decode", op, || {
        let mut all = true;
        for (record, (_, new)) in records.iter().zip(&pairs) {
            all &= codec.decode(black_box(new)) == record.new;
        }
        all
    });
    ok &= decoded_ok;
    let layers = CellLayers {
        writes: records.len() as u64,
        trace_ns: ns(trace),
        session_ns: ns(session_time),
        run_ns: ns(run_time),
        encode_ns: ns(encode.1),
        encodes,
        write_ns: ns(write.1),
        disturb_ns: ns(disturb.1),
        decode_ns: ns(decode),
        allocs,
    };
    (layers, ok)
}

/// The metric-name suffix of a scheme.
pub fn scheme_key(scheme: SchemeId) -> &'static str {
    match scheme {
        SchemeId::Baseline => "baseline",
        SchemeId::FlipMin => "flipmin",
        SchemeId::Fnw => "fnw",
        SchemeId::Din => "din",
        SchemeId::SixCosets => "6cosets",
        SchemeId::CocFourCosets => "coc-4cosets",
        SchemeId::WlcFourCosets => "wlc-4cosets",
        SchemeId::Wlcrc16 => "wlcrc-16",
    }
}

/// What the engine adds to one cell: a one-record `gcc` cell through
/// `run_grid` minus the same record through `Simulator::run` (medians of
/// 21), so the simulation itself is negligible next to the difference.
fn engine_overhead_ms(spans: &Spans, op: u64, cell: &Cell, seed: u64) -> f64 {
    let plan = grid::gcc_plan(cell.scheme, seed, 1);
    let simulator = cell.simulator(seed);
    let codec = cell.scheme.build();
    let profile = Benchmark::Gcc.profile();
    let engine = median_secs(21, || {
        black_box(spans.span("engine.run_grid", op, || plan.run_grid()));
    });
    let direct = median_secs(21, || {
        let record = TraceStream::new(profile.clone(), workload_stream_seed(seed, "gcc"), 1);
        black_box(spans.span("memsim.run", op, || simulator.run(codec.as_ref(), record)));
    });
    (engine - direct) * 1e3
}

/// The trace, codec, pcm, memsim and engine metrics, from the 8 `gcc`
/// cells of the grid workload.
pub fn write_path_metrics(spans: &Spans, seed: u64, ok: &mut bool) -> Result<Vec<Metric>, String> {
    let _pinned = crate::sys::pin_this_thread()?;
    let mut metrics = Vec::new();
    let mut total = CellLayers::default();
    let mut overheads = Vec::new();
    for scheme in SchemeId::ALL {
        let cell = Cell { scheme, stream: Stream::Gcc };
        let op = spans.next_op();
        let (layers, cell_ok) =
            spans.span("probe.cell", op, || decompose(spans, op, &cell, seed)).0;
        *ok &= cell_ok;
        overheads.push(engine_overhead_ms(spans, op, &cell, seed));
        let key = scheme_key(scheme);
        metrics.push(metric(
            format!("codec.encode_ns.{key}"),
            layers.encode_ns / layers.encodes as f64,
            "ns",
        ));
        metrics.push(metric(
            format!("codec.decode_ns.{key}"),
            layers.decode_ns / layers.writes as f64,
            "ns",
        ));
        total.add(&layers);
    }
    let writes = total.writes as f64;
    metrics.extend([
        metric("trace.next_ns", total.trace_ns / writes, "ns"),
        metric("pcm.write_ns", total.write_ns / writes, "ns"),
        metric("pcm.disturb_ns", total.disturb_ns / writes, "ns"),
        metric("memsim.write_ns", total.session_ns / writes, "ns"),
        metric("memsim.self_ns", (total.session_ns - total.children_ns()) / writes, "ns"),
        metric("memsim.allocs_per_write", total.allocs as f64 / writes, "count"),
        metric("engine.cell_overhead_ms", median(&overheads), "ms"),
    ]);
    Ok(metrics)
}

/// Warm workers the `gridrun.process_overhead_ms` probe starts: enough that
/// a few that skip the exit floor cannot move the median.
const WORKERS: usize = 21;

/// The store and gridrun metrics, from a fig08 plan cached in a fresh store
/// under `work`.
pub fn store_metrics(
    spans: &Spans,
    seed: u64,
    work: &Path,
    gridrun_bin: &Path,
    ok: &mut bool,
) -> Result<Vec<Metric>, String> {
    use crate::gridrun;
    let dir = work.join("layers-store");
    let put_dir = work.join("layers-put");
    for d in [&dir, &put_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let op = spans.next_op();
    let cold = spans.span("probe.store_fill", op, || gridrun::plan(seed).store(&dir).run_grid()).0;
    let plan = gridrun::plan(seed).store(&dir);
    let fingerprint_s = median_secs(5, || {
        spans.span("store.fingerprint", op, || black_box(plan.plan_fingerprints()));
    });
    // One cell entry: a warm worker reads one per cell.
    let entry = gridrun::cell_entries(&dir, seed)?.swap_remove(0);
    let store = wlcrc_store::ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let put_store = wlcrc_store::ResultStore::open(&put_dir).map_err(|e| e.to_string())?;
    let get_s = median_secs(21, || {
        let hit = spans.span("store.get", op, || store.get(&entry.key)).0;
        *ok &= hit.as_ref() == Some(&entry.payload);
    });
    let put_s = median_secs(21, || {
        let put = spans.span("store.put", op, || put_store.put(&entry.key, &entry.payload)).0;
        *ok &= put.is_ok();
    });
    let entry_bytes = std::fs::metadata(store.entry_path(entry.fingerprint))
        .map_err(|e| format!("cell entry: {e}"))?
        .len();
    let (warm, report) = spans.span("memsim.run_grid_claimed", op, || plan.run_grid_claimed(300)).0;
    *ok &= warm == cold;
    let cells = gridrun::warm_plan(seed).store(&dir);
    let claimed_s = median_secs(5, || {
        black_box(spans.span("memsim.run_grid_claimed", op, || cells.run_grid_claimed(300)));
    });
    let mut worker_ms = Vec::new();
    for _ in 0..WORKERS {
        let worker = spans
            .span("gridrun.worker", op, || gridrun::spawn_worker(gridrun_bin, &dir, seed, true))
            .0?;
        *ok &= worker.ok();
        worker_ms.push(worker.latency.as_secs_f64() * 1e3);
    }
    println!(
        "gridrun probe: {} of {WORKERS} workers skipped the exit floor",
        gridrun::floor_skipped(&worker_ms)
    );
    Ok(vec![
        metric("store.fingerprint_ms", fingerprint_s * 1e3, "ms"),
        metric("store.get_us", get_s * 1e6, "us"),
        metric("store.put_us", put_s * 1e6, "us"),
        metric("store.entry_kb", entry_bytes as f64 / 1024.0, "KiB"),
        metric("store.plan_hit_ratio", report.plan_hits as f64 / warm.len() as f64, "ratio"),
        metric("gridrun.process_overhead_ms", median(&worker_ms) - claimed_s * 1e3, "ms"),
    ])
}
