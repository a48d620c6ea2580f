//! The `serve` workload: one closed-loop client replays a `gcc` stream into
//! a WLCRC-16 session of an in-process `wlcrc_serve` server over loopback
//! TCP. Each op is one 64-record `Write` followed by a `Flush`, so an op
//! ends when its records are simulated and acknowledged.

use crate::grid::{Cell, Stream};
use crate::report::{self, metric, Account, Metric, Outcome};
use crate::spans::Spans;
use crate::stats::{
    closed_loop, closed_loop_with_setups, median, min_samples, LoopSpec, OpOutcome, SETUP_REPS,
};
use serde::Serialize;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::{workload_stream_seed, SchemeStats, SimulatorSession};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_serve::protocol::{read_frame, write_frame};
use wlcrc_serve::{Request, Response, RunningServer, ServeClient, Server, ServerConfig};
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

/// Records per `Write` request.
pub const BATCH: usize = 64;

/// Ops per block of `sim_writes_per_s` (4096 records): the rate is that of
/// whole blocks of consecutive ops, so it is a throughput rather than the
/// reciprocal of the median op latency.
pub const RATE_OPS: usize = 64;

/// Records the set-up session writes before it closes.
pub const WARMUP_RECORDS: usize = 4096;

/// Ops of the per-layer serve probe.
pub const PROBE_OPS: usize = 256;

const SCHEME: SchemeId = SchemeId::Wlcrc16;

/// One drain worker, and a degradation threshold no backlog can cross, so
/// the session never sheds work and its statistics stay deterministic.
pub fn server_config() -> ServerConfig {
    let base = ServerConfig::default();
    ServerConfig { workers: 1, degraded_threshold: base.session_queue_cap, ..base }
}

/// The grid cell of `scheme` on `gcc`: a session of the workload runs with
/// that cell's configuration and seeding.
pub fn cell(scheme: SchemeId) -> Cell {
    Cell { scheme, stream: Stream::Gcc }
}

/// The `gcc` record stream the client replays, `count` records long.
pub fn stream(seed: u64, count: usize) -> TraceStream {
    TraceStream::new(Benchmark::Gcc.profile(), workload_stream_seed(seed, "gcc"), count)
}

/// `Simulator::run` of `scheme` over the first `records` records.
pub fn reference(scheme: SchemeId, seed: u64, records: usize) -> SchemeStats {
    cell(scheme).simulator(seed).run(scheme.build().as_ref(), stream(seed, records))
}

fn bytes(stats: &SchemeStats) -> Vec<u8> {
    wlcrc_store::wire::encode(&stats.to_value())
}

/// A running server and the client connected to it.
struct Live {
    server: RunningServer,
    client: ServeClient<TcpStream>,
}

impl Live {
    fn start() -> Result<Live, String> {
        let server = Server::new(server_config())
            .serve_tcp("127.0.0.1:0")
            .map_err(|e| format!("serve: cannot listen: {e}"))?;
        let addr = server.local_addr().ok_or("serve: no TCP address")?;
        let client = ServeClient::connect(addr).map_err(|e| format!("serve: connect: {e}"))?;
        Ok(Live { server, client })
    }

    fn open(&mut self, seed: u64) -> Result<u64, String> {
        self.client
            .open(SCHEME.label(), "gcc", PcmConfig::table_ii(), cell(SCHEME).options(seed))
            .map_err(|e| format!("serve: open: {e}"))
    }

    fn close(&mut self, session: u64) -> Result<SchemeStats, String> {
        self.client.close(session).map(|(stats, _)| stats).map_err(|e| format!("serve: close: {e}"))
    }

    fn stop(mut self) {
        let _ = self.client.shutdown();
        self.server.shutdown();
        drop(self.client);
        self.server.join();
    }
}

/// What a closed loop of serve ops counted.
#[derive(Default)]
struct Session {
    /// Records acknowledged as simulated so far.
    flushed: u64,
    /// `Write` requests sent.
    writes_sent: u64,
    /// `Busy` answers received.
    busy: u64,
    /// First transport or protocol error.
    error: Option<String>,
}

/// One op: `Write` the batch (resubmitting whatever a `Busy` left over),
/// then `Flush`. Returns the `Flush` round trip and whether the server
/// acknowledged exactly the records sent so far.
fn serve_op(
    spans: &Spans,
    id: u64,
    live: &mut Live,
    session: u64,
    batch: &[WriteRecord],
    state: &mut Session,
) -> (Duration, bool) {
    let client = &mut live.client;
    let (written, _) = spans.span("serve.write", id, || {
        let mut rest = batch;
        while !rest.is_empty() {
            state.writes_sent += 1;
            match client.write(session, rest) {
                Ok(Response::Accepted { accepted, .. }) => rest = &rest[accepted as usize..],
                Ok(Response::Busy { accepted, .. }) => {
                    state.busy += 1;
                    rest = &rest[accepted as usize..];
                    client.flush(session).map_err(|e| e.to_string())?;
                }
                Ok(other) => return Err(format!("unexpected answer {other:?}")),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    });
    let (flushed, flush_time) = spans.span("serve.flush", id, || client.flush(session));
    state.flushed += batch.len() as u64;
    let ok = match (written, flushed) {
        (Ok(()), Ok(writes)) => writes == state.flushed,
        (Err(e), _) => {
            state.error.get_or_insert(format!("serve: write: {e}"));
            false
        }
        (_, Err(e)) => {
            state.error.get_or_insert(format!("serve: flush: {e}"));
            false
        }
    };
    (flush_time, ok)
}

fn next_batch(stream: &mut TraceStream) -> Vec<WriteRecord> {
    stream.by_ref().take(BATCH).collect()
}

/// The client- and server-side framing of one `Write` request, timed on an
/// in-memory buffer: encode + frame, then unframe + decode.
fn framing(spans: &Spans, id: u64, session: u64, batch: &[WriteRecord]) -> (Duration, Duration) {
    let mut buffer = Vec::new();
    let (_, write) = spans.span("serve.frame_write", id, || {
        let request = Request::Write { session, records: batch.to_vec() };
        write_frame(&mut buffer, &request.to_value()).expect("a Vec takes any frame")
    });
    let (decoded, read) = spans.span("serve.frame_read", id, || {
        read_frame(&mut buffer.as_slice()).ok().flatten().map(|v| Request::from_value(&v))
    });
    debug_assert!(matches!(decoded, Some(Ok(_))));
    (write, read)
}

/// Per-op layer times of traced serve ops, ns.
#[derive(Default)]
struct Layers {
    op_ns: Vec<f64>,
    flush_ns: Vec<f64>,
    transport_ns: Vec<f64>,
    frame_write_ns: Vec<f64>,
    frame_read_ns: Vec<f64>,
    session_write_ns: f64,
}

/// One traced op: spans around the op and its `Write` and `Flush`.
fn traced_op(
    spans: &Spans,
    live: &mut Live,
    session: u64,
    batch: &[WriteRecord],
    state: &mut Session,
    layers: &mut Layers,
) -> (OpOutcome, u64) {
    let id = spans.next_op();
    let ((flush, ok), latency) =
        spans.span("op", id, || serve_op(spans, id, live, session, batch, state));
    layers.op_ns.push(latency.as_nanos() as f64);
    layers.flush_ns.push(flush.as_nanos() as f64);
    (OpOutcome { latency, writes: batch.len() as u64, ok }, id)
}

/// The attribution of op `id`: framing of its request on a buffer, its
/// records written to a local `SimulatorSession` that has seen every
/// earlier record, and one `Flush` of the empty backlog (a round trip with
/// no work).
fn attribute(
    spans: &Spans,
    id: u64,
    live: &mut Live,
    session: u64,
    batch: &[WriteRecord],
    mirror: &mut SimulatorSession,
    layers: &mut Layers,
) {
    spans.span("attr", id, || {
        let (frame_write, frame_read) = framing(spans, id, session, batch);
        let (_, simulate) = spans.span("memsim.session_write", id, || mirror.write_batch(batch));
        let (_, transport) = spans.span("serve.transport", id, || live.client.flush(session));
        layers.frame_write_ns.push(frame_write.as_nanos() as f64);
        layers.frame_read_ns.push(frame_read.as_nanos() as f64);
        layers.session_write_ns += simulate.as_nanos() as f64;
        layers.transport_ns.push(transport.as_nanos() as f64);
    });
}

fn mirror_session(seed: u64) -> SimulatorSession {
    cell(SCHEME).simulator(seed).session(SCHEME.build(), "gcc")
}

/// The serve-layer metrics: `PROBE_OPS` traced ops on a fresh server.
pub fn probe_metrics(spans: &Spans, seed: u64, ok: &mut bool) -> Result<Vec<Metric>, String> {
    let _pinned = crate::sys::pin_this_thread()?;
    let mut live = Live::start()?;
    let session = live.open(seed)?;
    let mut source = stream(seed, usize::MAX);
    let mut mirror = mirror_session(seed);
    let mut state = Session::default();
    let mut layers = Layers::default();
    for _ in 0..PROBE_OPS {
        let batch = next_batch(&mut source);
        let (outcome, id) = traced_op(spans, &mut live, session, &batch, &mut state, &mut layers);
        attribute(spans, id, &mut live, session, &batch, &mut mirror, &mut layers);
        *ok &= outcome.ok;
    }
    let scrape = live.client.metrics_text().map_err(|e| format!("serve: metrics: {e}"))?;
    let quantile = |q: &str| {
        let name = format!("wlcrc_serve_request_seconds{{quantile=\"{q}\"}}");
        wlcrc_serve::scrape_value(&scrape, &name).ok_or(format!("serve: no {name} in the scrape"))
    };
    let served = live.close(session)?;
    *ok &= bytes(&served) == bytes(&mirror.stats()) && state.error.is_none();
    live.stop();
    let records = (PROBE_OPS * BATCH) as f64;
    Ok(vec![
        metric("serve.frame_write_us", median(&layers.frame_write_ns) / 1e3, "us"),
        metric("serve.frame_read_us", median(&layers.frame_read_ns) / 1e3, "us"),
        metric("serve.server_p50_us", quantile("0.5")? * 1e6, "us"),
        metric("serve.server_p90_us", quantile("0.9")? * 1e6, "us"),
        metric("serve.transport_us", median(&layers.transport_ns) / 1e3, "us"),
        metric("serve.busy_ratio", state.busy as f64 / state.writes_sent as f64, "ratio"),
        metric("serve.flush_ms", median(&layers.flush_ns) / 1e6, "ms"),
        metric("serve.session_write_ns", layers.session_write_ns / records, "ns"),
    ])
}

/// What one set-up left: the running server, the set-up session's closing
/// statistics, whether every `Flush` acknowledged the records sent so far,
/// and the host seconds the set-up took.
struct WarmUp {
    live: Live,
    stats: SchemeStats,
    ok: bool,
    seconds: f64,
}

/// One set-up: start a server and write, flush and close a
/// `WARMUP_RECORDS`-record session on it.
fn warm_up(seed: u64) -> Result<WarmUp, String> {
    let started = Instant::now();
    let mut live = Live::start()?;
    let session = live.open(seed)?;
    let mut source = stream(seed, WARMUP_RECORDS);
    let mut state = Session::default();
    let untimed = Spans::new(false);
    let mut ok = true;
    for _ in 0..WARMUP_RECORDS / BATCH {
        let batch = next_batch(&mut source);
        ok &= serve_op(&untimed, 0, &mut live, session, &batch, &mut state).1;
    }
    let stats = live.close(session)?;
    let seconds = started.elapsed().as_secs_f64();
    match state.error {
        Some(e) => Err(e),
        None => Ok(WarmUp { live, stats, ok, seconds }),
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, spans: &Spans) -> Result<Outcome, String> {
    // Client, connection handler and drain worker share one CPU, so a
    // hand-off between them is a context switch on that CPU rather than a
    // wake-up of the other vCPU, whose latency depends on the host.
    let _pinned = crate::sys::pin_this_thread()?;
    // Set up once before the first op; an untraced run repeats the set-up,
    // each time on a server of its own, during its timed loop and reports
    // the median.
    let warm_reference = bytes(&reference(SCHEME, seed, WARMUP_RECORDS));
    let untimed = Spans::new(false);
    let first = warm_up(seed)?;
    let mut live = first.live;
    let mut setup_times = vec![first.seconds];
    let mut correct = first.ok && bytes(&first.stats) == warm_reference;
    // Simulated statistics of the set-up session, labelled by scheme.
    let digest: Vec<SchemeStats> = [
        (SCHEME, first.stats),
        (SchemeId::Baseline, reference(SchemeId::Baseline, seed, WARMUP_RECORDS)),
        (SchemeId::SixCosets, reference(SchemeId::SixCosets, seed, WARMUP_RECORDS)),
    ]
    .into_iter()
    .map(|(scheme, stats)| SchemeStats { scheme: scheme.label().to_string(), ..stats })
    .collect();
    report::print_digest("serve", &digest);

    let session = live.open(seed)?;
    let mut source = stream(seed, usize::MAX);
    let mut state = Session::default();
    let mut mirror_stats = None;
    let (metrics, attempted, failed) = if !spans.enabled() {
        let spec = LoopSpec { seconds, min_ops: min_samples(0.9), round: RATE_OPS };
        let mut setup_error = None;
        let again = |_| match warm_up(seed) {
            Ok(again) => {
                again.live.stop();
                correct &= again.ok && bytes(&again.stats) == warm_reference;
                again.seconds
            }
            Err(e) => {
                setup_error.get_or_insert(e);
                0.0
            }
        };
        let setups = SETUP_REPS - 1;
        let log = closed_loop_with_setups(&spec, setups, &mut setup_times, again, |_| {
            let batch = next_batch(&mut source);
            let started = Instant::now();
            let ok = serve_op(spans, 0, &mut live, session, &batch, &mut state).1;
            OpOutcome { latency: started.elapsed(), writes: batch.len() as u64, ok }
        });
        if let Some(e) = setup_error {
            return Err(e);
        }
        let metrics = report::end_to_end(&setup_times, &log, crate::stats::self_peak_rss_mb())?;
        report::print_ops("serve", &setup_times, &log, &metrics);
        (metrics, log.attempted(), log.failed)
    } else {
        let spec = LoopSpec { seconds: seconds / 8.0, min_ops: min_samples(0.9), round: 1 };
        let plain = closed_loop(&spec, |_| {
            let batch = next_batch(&mut source);
            let started = Instant::now();
            let ok = serve_op(&untimed, 0, &mut live, session, &batch, &mut state).1;
            OpOutcome { latency: started.elapsed(), writes: batch.len() as u64, ok }
        });
        // The traced ops, then their attribution: replaying each op's
        // records through a local session that has seen every earlier
        // record. Attribution runs after the traced ops, so those run back
        // to back like the untraced ones.
        let mut mirror = mirror_session(seed);
        let mut replay = stream(seed, usize::MAX);
        for record in replay.by_ref().take(state.flushed as usize) {
            mirror.write(&record);
        }
        let mut layers = Layers::default();
        let mut ids = Vec::new();
        let spec = LoopSpec { seconds: 0.0, min_ops: plain.latencies_ms.len(), round: 1 };
        let traced = closed_loop(&spec, |_| {
            let batch = next_batch(&mut source);
            let (outcome, id) =
                traced_op(spans, &mut live, session, &batch, &mut state, &mut layers);
            ids.push(id);
            outcome
        });
        for id in ids {
            let batch = next_batch(&mut replay);
            attribute(spans, id, &mut live, session, &batch, &mut mirror, &mut layers);
        }
        let op_ns: f64 = layers.op_ns.iter().sum();
        let account = Account {
            workload: "serve",
            ops: traced.attempted(),
            op_ns,
            layers: vec![
                ("serve frame_write (client encode)", layers.frame_write_ns.iter().sum()),
                ("serve frame_read (server decode)", layers.frame_read_ns.iter().sum()),
                ("memsim session write_batch", layers.session_write_ns),
            ],
        };
        account.print();
        mirror_stats = Some(mirror.stats());
        let ratio = median(&traced.latencies_ms) / median(&plain.latencies_ms);
        let metrics = vec![metric("obs.bench_trace_overhead_ratio", ratio, "ratio")];
        (metrics, plain.attempted() + traced.attempted(), plain.failed + traced.failed)
    };
    if let Some(e) = state.error {
        return Err(e);
    }
    let served = live.close(session)?;
    live.stop();
    // The closing statistics must equal a direct simulation of the records
    // (and, in a traced run, the local mirror session).
    let served = bytes(&served);
    correct &= served == bytes(&reference(SCHEME, seed, state.flushed as usize));
    correct &= mirror_stats.is_none_or(|mirror| served == bytes(&mirror));
    Ok(Outcome { correct: correct && failed == 0, attempted, failed, metrics })
}
