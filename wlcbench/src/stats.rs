//! Order statistics and the closed-loop op runner.

use std::time::{Duration, Instant};

/// Smallest sample count for which percentile `q` has at least ten samples
/// beyond it: 20 for the median, 100 for p90.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The `q`-quantile of `samples` (linear interpolation between closest
/// ranks, like Python's `statistics.quantiles(method="inclusive")`).
///
/// Refuses a sample too small to put ten samples beyond the quantile, so a
/// tail figure is never read off a handful of values.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let needed = min_samples(q);
    if samples.len() < needed {
        return Err(format!(
            "p{:.0} needs at least {needed} samples, got {}",
            q * 100.0,
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = (low + 1).min(sorted.len() - 1);
    Ok(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// Set-up repetitions of an untraced run; `setup_s` is their median. The
/// first precedes the first timed op, the rest are spread over the timed
/// loop ([`closed_loop_with_setups`]). With three back-to-back repetitions
/// `setup_s` spread by 12–26% (interquartile range over median) across ten
/// runs; with eleven back to back, by up to 28% on `grid`. A traced run sets
/// up once.
pub const SETUP_REPS: usize = 11;

/// The plain median of a non-empty set of repeated measurements (set-up
/// repetitions, probe repetitions) — no minimum count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` over `reps` repetitions and returns the median in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// What one op reports back to the closed loop.
pub struct OpOutcome {
    /// Host time of the op itself; checks done after it are not included.
    pub latency: Duration,
    /// Simulated-write results the op delivered.
    pub writes: u64,
    /// Whether every output check on the op passed.
    pub ok: bool,
}

/// How long a closed loop runs.
pub struct LoopSpec {
    /// Stop once this much wall time has passed ...
    pub seconds: f64,
    /// ... and at least this many ops ran ...
    pub min_ops: usize,
    /// ... and the op count is a multiple of this (whole rotations of a
    /// workload's op mix, so every run weighs the mix identically).
    pub round: usize,
}

/// Everything a closed loop measured.
#[derive(Default)]
pub struct OpLog {
    /// Per-op latency, ms, in op order.
    pub latencies_ms: Vec<f64>,
    /// Simulated-write results each op delivered, in op order.
    pub op_writes: Vec<u64>,
    /// Ops per rotation of the op mix.
    pub round: usize,
    /// Host seconds spent inside ops.
    pub busy_s: f64,
    /// Ops whose output check failed.
    pub failed: u64,
}

impl OpLog {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Simulated-write results delivered.
    pub fn writes(&self) -> u64 {
        self.op_writes.iter().sum()
    }

    /// Simulated writes per host second of op time, per whole rotation of
    /// the op mix.
    pub fn rotation_rates(&self) -> Vec<f64> {
        let round = self.round.max(1);
        self.latencies_ms
            .chunks_exact(round)
            .zip(self.op_writes.chunks_exact(round))
            .map(|(ms, writes)| writes.iter().sum::<u64>() as f64 / (ms.iter().sum::<f64>() / 1e3))
            .collect()
    }
}

/// Runs `op(index)` back to back — one client, each op issued only after
/// the previous one returned — until `spec` is satisfied.
pub fn closed_loop(spec: &LoopSpec, op: impl FnMut(u64) -> OpOutcome) -> OpLog {
    closed_loop_with_setups(spec, 0, &mut Vec::new(), |_| 0.0, op)
}

/// [`closed_loop`] with `setups` more set-up repetitions, `setup(1)` to
/// `setup(setups)`, spread evenly over its op time: each runs between two
/// whole rotations once its share of `spec.seconds` has passed, and any not
/// run by the end of the loop run after it. `setup` returns the host seconds
/// its set-up took, which are appended to `setup_times`; the time spent in
/// `setup` does not count against the loop's time.
///
/// A run's set-up times then sample the host over the whole run rather than
/// over the seconds before its first op, whose speed on a shared host can
/// differ from the run's by a fifth.
pub fn closed_loop_with_setups(
    spec: &LoopSpec,
    setups: usize,
    setup_times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> f64,
    mut op: impl FnMut(u64) -> OpOutcome,
) -> OpLog {
    let mut timed_setup = |k: usize| {
        let started = Instant::now();
        setup_times.push(setup(k));
        started.elapsed()
    };
    let mut deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let round = spec.round.max(1);
    let mut log = OpLog { round, ..OpLog::default() };
    let mut done_setups = 0;
    loop {
        let done = log.latencies_ms.len();
        let share = spec.seconds * (done_setups + 1) as f64 / (setups + 1) as f64;
        if done.is_multiple_of(round) && done_setups < setups && log.busy_s >= share {
            done_setups += 1;
            deadline += timed_setup(done_setups);
            continue;
        }
        if done >= spec.min_ops && done.is_multiple_of(round) && Instant::now() >= deadline {
            for k in done_setups + 1..=setups {
                timed_setup(k);
            }
            return log;
        }
        let outcome = op(done as u64);
        log.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
        log.busy_s += outcome.latency.as_secs_f64();
        log.op_writes.push(outcome.writes);
        if !outcome.ok {
            log.failed += 1;
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_like_inclusive_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(50.5));
        assert!((percentile(&samples, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn loop_stops_on_whole_rounds() {
        let spec = LoopSpec { seconds: 0.0, min_ops: 5, round: 4 };
        let log = closed_loop(&spec, |_| OpOutcome {
            latency: Duration::from_millis(1),
            writes: 2,
            ok: true,
        });
        assert_eq!(log.attempted(), 8);
        assert_eq!(log.writes(), 16);
        assert_eq!(log.rotation_rates(), vec![2000.0, 2000.0]);
    }
}
