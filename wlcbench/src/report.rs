//! Metric records, the result line, the simulated-statistics digest and the
//! per-layer time account.

use crate::stats::{median, percentile, OpLog};
use serde::Serialize;
use wlcrc_memsim::SchemeStats;
use wlcrc_store::StableHasher;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed (set-up checks included).
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check, errored or exited non-zero.
    pub failed: u64,
    /// The metrics to report.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The five end-to-end metrics every workload reports; `setup_s` is the
/// median of the run's set-up repetitions.
pub fn end_to_end(setup_s: &[f64], log: &OpLog, rss_mb: f64) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("setup_s", median(setup_s), "s"),
        metric("sim_writes_per_s", median(&log.rotation_rates()), "1/s"),
        metric("latency_p50_ms", percentile(&log.latencies_ms, 0.5)?, "ms"),
        metric("latency_p90_ms", percentile(&log.latencies_ms, 0.9)?, "ms"),
        metric("rss_peak_mb", rss_mb, "MiB"),
    ])
}

/// Prints the human-readable summary of a run's set-ups and ops.
pub fn print_ops(workload: &str, setup_s: &[f64], log: &OpLog, metrics: &[Metric]) {
    let mut sorted = setup_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    println!(
        "{workload}: {} set-ups, fastest {:.4} s, median {:.4} s, slowest {:.4} s",
        sorted.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1]
    );
    println!(
        "{workload}: {} ops attempted, {} failed, {} simulated writes in {:.3} s of op time \
         ({:.1} per second on average)",
        log.attempted(),
        log.failed,
        log.writes(),
        log.busy_s,
        log.writes() as f64 / log.busy_s
    );
    for m in metrics {
        println!("  {:<18} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Stable hex digest of a set of statistics, in order.
pub fn stats_digest(stats: &[SchemeStats]) -> String {
    let mut hasher = StableHasher::new();
    for s in stats {
        hasher.update_value(&s.to_value());
    }
    hasher.finish().to_hex()
}

/// Prints the simulated-statistics digest of a workload: a digest of every
/// `SchemeStats` it produced plus WLCRC-16's mean write energy on `gcc`
/// against Baseline and 6cosets. A change that only claims speed must leave
/// these lines unchanged.
pub fn print_digest(workload: &str, stats: &[SchemeStats]) {
    println!(
        "{workload}: simulated statistics (model output, not validated against PCM hardware): \
         digest {} over {} SchemeStats",
        stats_digest(stats),
        stats.len()
    );
    let energy = |scheme: &str| {
        stats
            .iter()
            .find(|s| s.scheme == scheme && s.workload == "gcc")
            .map(SchemeStats::mean_energy_pj)
    };
    if let (Some(wlcrc), Some(baseline), Some(six)) =
        (energy("WLCRC-16"), energy("Baseline"), energy("6cosets"))
    {
        println!(
            "{workload}: simulated WLCRC-16 mean write energy on gcc {wlcrc:.3} pJ = {:.4} x \
             Baseline ({baseline:.3} pJ), {:.4} x 6cosets ({six:.3} pJ)",
            wlcrc / baseline,
            wlcrc / six
        );
    }
}

/// Where the host time of a workload's traced ops went, layer by layer.
pub struct Account {
    /// Workload name.
    pub workload: &'static str,
    /// Traced ops accounted.
    pub ops: u64,
    /// Total op time, ns.
    pub op_ns: f64,
    /// Self time per layer, ns, summed over the ops.
    pub layers: Vec<(&'static str, f64)>,
}

impl Account {
    /// The op time no layer accounts for, ns (negative when the per-layer
    /// replays cost more than the op itself).
    pub fn unattributed_ns(&self) -> f64 {
        self.op_ns - self.layers.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    /// Prints each layer's self time per op and share of op time, then the
    /// unattributed share.
    pub fn print(&self) {
        let ops = self.ops.max(1) as f64;
        println!(
            "{}: layer account over {} traced ops, {:.4} ms per op (host time)",
            self.workload,
            self.ops,
            self.op_ns / ops / 1e6
        );
        let rows = self
            .layers
            .iter()
            .copied()
            .chain(std::iter::once(("unattributed", self.unattributed_ns())));
        for (layer, ns) in rows {
            println!(
                "  {layer:<28} {:>12.4} ms/op {:>7.1}%",
                ns / ops / 1e6,
                100.0 * ns / self.op_ns
            );
        }
    }
}
