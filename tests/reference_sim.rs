//! An independent reference simulator, checked cell for cell against every
//! path the engine offers.
//!
//! The engine's byte-identity checks compare modes of the *same* code: one
//! worker vs four, one shard vs four, cold store vs warm, direct vs served.
//! If a shared layer went wrong, every mode would agree and every check
//! would stay green. This oracle shares only the codecs (`encode`/`decode`),
//! the trace generators and the cell-seed derivation with the engine; the
//! rest is written out here, frozen as the simulator defined it when the
//! oracle was written:
//!
//! * a plain `HashMap` line store per bank, one thread, no batching;
//! * scalar copies of the differential write and the disturbance walk;
//! * a copy of the bank-index mapping and the per-bank RNG seed derivation;
//! * per-bank accumulation in arrival order, merged in ascending bank order.
//!
//! Its statistics must equal, field for field and bit for bit, those of
//! `ExperimentPlan::run_grid`, `ExperimentPlan::run_grid_claimed` on a fresh
//! store, and a `SimulatorSession` fed through `write_batch`, for the eight
//! standard schemes over gcc, mcf and a random-data workload.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wlcrc_repro::memsim::{
    cell_seed, scaled_workload_lines, workload_stream_seed, ExperimentPlan, SchemeStats,
    SimulationOptions, Simulator,
};
use wlcrc_repro::pcm::codec::LineCodec;
use wlcrc_repro::pcm::config::PcmConfig;
use wlcrc_repro::pcm::disturb::DisturbanceModel;
use wlcrc_repro::pcm::energy::EnergyModel;
use wlcrc_repro::pcm::physical::{CellClass, PhysicalLine};
use wlcrc_repro::trace::{Benchmark, RandomTraceStream, TraceSource, TraceStream, WriteRecord};
use wlcrc_repro::wlcrc::schemes::{standard_factories, SchemeId};

/// Unscaled trace length of the profile workloads.
const LINES: usize = 24;
/// Length of the random-data workload (every record writes address 0).
const RANDOM_WRITES: usize = 20;

/// Frozen differential write: energy (pJ) and programmed cells, each indexed
/// by the new line's cell class (0 data, 1 aux).
fn differential_write(
    old: &PhysicalLine,
    new: &PhysicalLine,
    energy: &EnergyModel,
) -> ([f64; 2], [u64; 2]) {
    let (mut pj, mut cells) = ([0.0; 2], [0; 2]);
    for cell in (0..new.len()).filter(|&cell| old.state(cell) != new.state(cell)) {
        let class = usize::from(new.class(cell) == CellClass::Aux);
        pj[class] += energy.write_energy_pj(new.state(cell));
        cells[class] += 1;
    }
    (pj, cells)
}

/// Frozen disturbance walk: every idle, disturbable neighbour of a written
/// cell is exposed once per adjacent write, in ascending written-cell order,
/// left neighbour first, one RNG draw per exposure. Returns the sampled and
/// the expected errors, each indexed by the idle cell's class.
fn disturbance(
    old: &PhysicalLine,
    new: &PhysicalLine,
    model: &DisturbanceModel,
    rng: &mut StdRng,
) -> ([u64; 2], [f64; 2]) {
    let written: Vec<bool> =
        (0..new.len()).map(|cell| old.state(cell) != new.state(cell)).collect();
    let (mut sampled, mut expected) = ([0; 2], [0.0; 2]);
    for cell in (0..new.len()).filter(|&cell| written[cell]) {
        let neighbours = [cell.checked_sub(1), Some(cell + 1).filter(|&n| n < new.len())];
        for idle in neighbours.into_iter().flatten().filter(|&n| !written[n]) {
            let state = new.state(idle);
            if !state.is_disturbable() {
                continue;
            }
            let class = usize::from(new.class(idle) == CellClass::Aux);
            let p = model.rate(state);
            expected[class] += p;
            if rng.gen::<f64>() < p {
                sampled[class] += 1;
            }
        }
    }
    (sampled, expected)
}

/// Frozen address interleaving: lines over channels, then DIMMs, then banks.
fn bank_index(config: &PcmConfig, address: u64) -> usize {
    let line = (address / config.line_bytes as u64) as usize;
    let channel = line % config.channels;
    let dimm = (line / config.channels) % config.dimms_per_channel;
    let bank = (line / (config.channels * config.dimms_per_channel)) % config.banks_per_dimm;
    (channel * config.dimms_per_channel + dimm) * config.banks_per_dimm + bank
}

/// Frozen per-bank RNG seed: the cell seed and the flat bank index only.
fn bank_seed(base: u64, bank: usize) -> u64 {
    let mut h = base ^ (bank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Adds `other`'s totals into `into` (keeping the larger per-write maximum).
fn add(into: &mut SchemeStats, other: &SchemeStats) {
    into.writes += other.writes;
    into.data_energy_pj += other.data_energy_pj;
    into.aux_energy_pj += other.aux_energy_pj;
    into.data_cells_updated += other.data_cells_updated;
    into.aux_cells_updated += other.aux_cells_updated;
    into.data_disturb_errors += other.data_disturb_errors;
    into.aux_disturb_errors += other.aux_disturb_errors;
    into.expected_disturb_errors += other.expected_disturb_errors;
    into.max_disturb_errors_per_write =
        into.max_disturb_errors_per_write.max(other.max_disturb_errors_per_write);
    into.encoded_lines += other.encoded_lines;
    into.integrity_failures += other.integrity_failures;
}

/// Simulates `records` one at a time and returns the cell's statistics.
fn reference(
    codec: &dyn LineCodec,
    records: &[WriteRecord],
    seed: u64,
    scheme: &str,
    workload: &str,
) -> SchemeStats {
    let config = PcmConfig::table_ii();
    let energy = &config.energy;
    // Per bank, in ascending bank order: stored lines, RNG, running totals.
    let mut banks: BTreeMap<usize, (HashMap<u64, PhysicalLine>, StdRng, SchemeStats)> =
        BTreeMap::new();
    for record in records {
        let bank = bank_index(&config, record.address);
        let (stored, rng, totals) = banks.entry(bank).or_insert_with(|| {
            (HashMap::new(), StdRng::seed_from_u64(bank_seed(seed, bank)), SchemeStats::default())
        });
        let old = stored
            .remove(&record.address)
            .unwrap_or_else(|| codec.encode(&record.old, &codec.initial_line(), energy));
        let new = codec.encode(&record.new, &old, energy);
        let (pj, cells) = differential_write(&old, &new, energy);
        let (errors, expected) = disturbance(&old, &new, &config.disturbance, rng);
        let write = SchemeStats {
            writes: 1,
            data_energy_pj: pj[0],
            aux_energy_pj: pj[1],
            data_cells_updated: cells[0],
            aux_cells_updated: cells[1],
            data_disturb_errors: errors[0],
            aux_disturb_errors: errors[1],
            expected_disturb_errors: expected[0] + expected[1],
            max_disturb_errors_per_write: errors[0] + errors[1],
            encoded_lines: u64::from(new.aux_cells() > 0 || codec.encoded_cells() == new.len()),
            integrity_failures: u64::from(codec.decode(&new) != record.new),
            ..SchemeStats::default()
        };
        add(totals, &write);
        stored.insert(record.address, new);
    }
    let mut merged = SchemeStats::new(scheme, workload);
    merged.bank_writes = vec![0; config.total_banks()];
    for (bank, (_, _, totals)) in &banks {
        add(&mut merged, totals);
        merged.bank_writes[*bank] = totals.writes;
    }
    merged
}

/// Checks every engine path against the oracle for one base seed.
fn check_seed(seed: u64) {
    let profiles = vec![Benchmark::Gcc.profile(), Benchmark::Mcf.profile()];
    let max_intensity = profiles.iter().map(|p| p.write_intensity).fold(1.0, f64::max);
    let random = Arc::new(RandomTraceStream::new(seed, RANDOM_WRITES).collect_trace());
    let mut workloads: Vec<(String, Vec<WriteRecord>)> = profiles
        .iter()
        .map(|profile| {
            let stream = TraceStream::new(
                profile.clone(),
                workload_stream_seed(seed, &profile.name),
                scaled_workload_lines(LINES, profile, max_intensity),
            );
            (profile.name.clone(), stream.collect())
        })
        .collect();
    workloads.push((random.workload.clone(), random.iter().copied().collect()));
    let plan = || {
        let plan = ExperimentPlan::new().seed(seed).lines_per_workload(LINES).threads(2);
        standard_factories()
            .into_iter()
            .fold(plan, |plan, (id, factory)| plan.scheme_factory(id.label(), factory))
            .workloads(profiles.clone())
            .trace(Arc::clone(&random))
    };
    let direct = plan().store_enabled(false).run();
    let store = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("reference-sim-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (claimed, report) = plan().store(&store).store_readonly(false).run_grid_claimed(60);
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(report.computed, 24, "a cold store computes every cell");

    let mut cells = direct.cells.iter().zip(&claimed[0].cells);
    let (mut disturbed, mut banks) = (0, 0);
    for (workload, trace) in &workloads {
        for id in SchemeId::ALL {
            let label = id.label();
            let seed = cell_seed(seed, 0, label, workload);
            let expected = reference(id.build().as_ref(), trace, seed, label, workload);
            assert_eq!(expected.writes, trace.len() as u64);
            assert_eq!(expected.integrity_failures, 0, "{label}/{workload}");
            disturbed += expected.data_disturb_errors + expected.aux_disturb_errors;
            banks = banks.max(expected.bank_writes.iter().filter(|&&w| w > 0).count());

            let (grid_cell, claimed_cell) = cells.next().expect("one cell per scheme x workload");
            assert_eq!(grid_cell, &expected, "run_grid, {label}/{workload}");
            assert_eq!(claimed_cell, &expected, "run_grid_claimed, {label}/{workload}");

            let options = SimulationOptions { seed, ..SimulationOptions::default() };
            let mut session = Simulator::with_config(PcmConfig::table_ii())
                .with_options(options)
                .session(id.build(), workload.clone());
            for chunk in trace.chunks(7) {
                session.write_batch(chunk);
            }
            let mut served = session.stats();
            served.scheme = label.to_string();
            assert_eq!(served, expected, "SimulatorSession::write_batch, {label}/{workload}");
        }
    }
    // Guard against a vacuous oracle: the cells must sample real disturbance
    // and spread over several banks.
    assert!(disturbed > 0 && banks > 1, "{disturbed} disturb errors, {banks} banks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn engine_paths_match_the_reference_simulator(seed in 0u64..1_000_000) {
        check_seed(seed);
    }
}
