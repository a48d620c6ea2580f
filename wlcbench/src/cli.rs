//! Command-line arguments.

use std::path::PathBuf;

/// Environment variables that would change what the program computes or
/// where it stores results. [`clear_env`] removes them, so neither the
/// in-process engine and server nor any child process sees them.
pub const CLEARED_ENV: [&str; 8] = [
    "WLCRC_STORE",
    "WLCRC_TRACE",
    "WLCRC_FAULTS",
    "WLCRC_MATERIALISE",
    "WLCRC_THREADS",
    "WLCRC_INTRA_SHARDS",
    "WLCRC_STORE_READONLY",
    "WLCRC_STORE_SALT",
];

/// Removes [`CLEARED_ENV`] from this process's environment. Call it before
/// any thread starts.
pub fn clear_env() {
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-cell, store-less `run_grid` calls over 8 schemes x {gcc, random}.
    Grid,
    /// Warm `wlcrc-gridrun` worker processes served from a result store.
    Gridrun,
    /// A closed-loop client writing a gcc stream to an in-process server.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "grid" => Some(Workload::Grid),
            "gridrun" => Some(Workload::Gridrun),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Gridrun => "gridrun",
            Workload::Serve => "serve",
        }
    }
}

/// Everything a run is parameterised by.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of closed-loop measurement.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `wlcrc-gridrun` executable.
    pub gridrun: PathBuf,
    /// The `tracecheck` executable.
    pub tracecheck: PathBuf,
    /// Scratch directory for stores and the trace file.
    pub work: PathBuf,
}

const USAGE: &str = "usage: wlcbench --workload grid|gridrun|serve --seed N --seconds S \
                     --trace 0|1 --gridrun PATH --tracecheck PATH --work DIR";

impl Args {
    /// Parses `--flag value` pairs; every flag is required.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let flag = |name: &str| -> Result<&str, String> {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {name}\n{USAGE}"))
        };
        let workload = flag("--workload")?;
        let number = |name: &str| -> Result<f64, String> {
            flag(name)?.parse::<f64>().map_err(|_| format!("{name} wants a number\n{USAGE}"))
        };
        let seconds = number("--seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive\n{USAGE}"));
        }
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}\n{USAGE}"))?,
            seed: flag("--seed")?
                .parse()
                .map_err(|_| format!("--seed wants an integer\n{USAGE}"))?,
            seconds,
            trace: match flag("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace wants 0 or 1, got {other:?}\n{USAGE}")),
            },
            gridrun: PathBuf::from(flag("--gridrun")?),
            tracecheck: PathBuf::from(flag("--tracecheck")?),
            work: PathBuf::from(flag("--work")?),
        })
    }
}
