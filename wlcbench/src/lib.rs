//! `wlcbench` — the end-to-end and per-layer benchmark of the WLCRC
//! reproduction.
//!
//! One binary runs three closed-loop workloads from a seed (`grid`,
//! `gridrun`, `serve`), checks every output against an independent run of
//! the same inputs, and prints its metrics as one JSON line. With
//! `--trace 1` it instead times each layer of one simulated write from the
//! outside — trace generation, codec encode/decode, the PCM differential
//! write and disturbance model, the simulator session, the engine, the
//! result store, the gridrun process and the serve front-end — records a
//! span around every call and writes them as a Chrome trace. See
//! `README.md` in this directory for the metric definitions.

pub mod alloc;
pub mod cli;
pub mod grid;
pub mod gridrun;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;
