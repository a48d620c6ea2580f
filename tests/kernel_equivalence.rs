//! Proptest equivalence suite for the bit-parallel candidate-evaluation
//! kernel: every optimised `encode()` must be byte-identical to its retained
//! scalar reference (`encode_scalar`), for all schemes × content classes ×
//! stored states × energy configurations, and the packed `BitBuf` streams
//! must round-trip exactly like the `Vec<bool>` streams they replaced.

use proptest::prelude::*;
use wlcrc_repro::compress::{Bdi, Coc, Fpc};
use wlcrc_repro::coset::{
    DinCodec, FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
};
use wlcrc_repro::ecc::BitBuf;
use wlcrc_repro::pcm::codec::LineCodec;
use wlcrc_repro::pcm::kernel::{
    block_cost, block_updated_cells, bucket_counts, StatePlanes, SymbolPlanes, TransitionTable,
};
use wlcrc_repro::pcm::line::MemoryLine;
use wlcrc_repro::pcm::mapping::SymbolMapping;
use wlcrc_repro::pcm::prelude::*;
use wlcrc_repro::wlcrc::schemes::standard_schemes;
use wlcrc_repro::wlcrc::{CocCosetCodec, MultiObjectiveConfig, WlcCosetCodec};

fn arb_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8(any::<u64>()).prop_map(MemoryLine::from_words)
}

/// Lines biased the way real workloads are: per-word class mix, including
/// WLC-compressible sign-extended values.
fn arb_biased_line() -> impl Strategy<Value = MemoryLine> {
    prop::array::uniform8((0u8..6, any::<u64>()).prop_map(|(class, raw)| match class {
        0 => 0u64,
        1 => u64::MAX,
        2 => raw & 0xFFFF,
        3 => (-(i64::from(raw as u16))) as u64,
        4 => {
            let magnitude = raw & ((1u64 << 57) - 1);
            (-(magnitude as i64)) as u64
        }
        _ => raw,
    }))
    .prop_map(MemoryLine::from_words)
}

/// DIN content classes: the biased real-workload mix (mostly compressible,
/// taking the expanded path behind the flag symbol), full-entropy lines, and
/// forced-incompressible lines (every word random with the top bit set, so
/// FPC/BDI both miss the threshold) that take the raw fallback path.
fn arb_din_line() -> impl Strategy<Value = MemoryLine> {
    (0u8..3, arb_biased_line(), arb_line()).prop_map(|(class, biased, raw)| match class {
        0 => biased,
        1 => raw,
        _ => {
            let mut words = *raw.words();
            for w in &mut words {
                *w |= 0x8000_0000_0000_0000;
            }
            MemoryLine::from_words(words)
        }
    })
}

fn arb_energy() -> impl Strategy<Value = EnergyModel> {
    prop::sample::select(vec![0usize, 1, 2, 3])
        .prop_map(|i| EnergyModel::figure14_configurations()[i].clone())
}

/// Encodes `seed_data` then `data` with both paths, asserting byte equality
/// at each step (the second write exercises a non-trivial stored line).
fn assert_kernel_equals_scalar<F>(
    codec: &dyn LineCodec,
    scalar: F,
    seed_data: &MemoryLine,
    data: &MemoryLine,
    energy: &EnergyModel,
) where
    F: Fn(&MemoryLine, &PhysicalLine, &EnergyModel) -> PhysicalLine,
{
    let initial = codec.initial_line();
    let first_kernel = codec.encode(seed_data, &initial, energy);
    let first_scalar = scalar(seed_data, &initial, energy);
    assert_eq!(first_kernel, first_scalar, "{}: first write diverged", codec.name());
    let second_kernel = codec.encode(data, &first_kernel, energy);
    let second_scalar = scalar(data, &first_kernel, energy);
    assert_eq!(second_kernel, second_scalar, "{}: second write diverged", codec.name());
    assert_eq!(codec.decode(&second_kernel), *data, "{}: decode mismatch", codec.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ncosets_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                     g in prop::sample::select(vec![8usize, 16, 32, 64, 128, 256, 512]),
                                     energy in arb_energy()) {
        for codec in [
            NCosetsCodec::three_cosets(Granularity::new(g)),
            NCosetsCodec::four_cosets(Granularity::new(g)),
            NCosetsCodec::six_cosets(Granularity::new(g)),
        ] {
            let scalar = codec.clone();
            assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        }
    }

    #[test]
    fn restricted_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                        g in prop::sample::select(vec![8usize, 16, 32, 64, 128, 256, 512]),
                                        energy in arb_energy()) {
        let codec = RestrictedCosetCodec::new(Granularity::new(g));
        let scalar = codec.clone();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn fnw_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(),
                                 g in prop::sample::select(vec![16usize, 64, 128, 512]),
                                 energy in arb_energy()) {
        let codec = FnwCodec::new(Granularity::new(g));
        let scalar = codec.clone();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn flipmin_kernel_matches_scalar(a in arb_biased_line(), b in arb_line(), energy in arb_energy()) {
        let codec = FlipMinCodec::new();
        let scalar = FlipMinCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn din_kernel_matches_scalar(a in arb_din_line(), b in arb_din_line(), energy in arb_energy()) {
        let codec = DinCodec::new();
        let scalar = DinCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        // Both decoders must also agree on both stored lines — the expanded
        // BCH-protected format behind the flag symbol and the raw
        // uncompressible fallback.
        let initial = codec.initial_line();
        let first = codec.encode(&a, &initial, &energy);
        let second = codec.encode(&b, &first, &energy);
        prop_assert_eq!(codec.decode(&first), codec.decode_scalar(&first));
        prop_assert_eq!(codec.decode(&second), codec.decode_scalar(&second));
    }

    #[test]
    fn wlc_coset_kernel_matches_scalar(a in arb_biased_line(), b in arb_biased_line(),
                                       g in prop::sample::select(vec![8usize, 16, 32, 64]),
                                       energy in arb_energy()) {
        for codec in [
            WlcCosetCodec::wlcrc(g),
            WlcCosetCodec::wlcrc(g).with_multi_objective(MultiObjectiveConfig::paper_default()),
            WlcCosetCodec::wlc_four_cosets(g),
            WlcCosetCodec::wlc_three_cosets(g),
        ] {
            let scalar = codec.clone();
            assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
        }
    }

    #[test]
    fn coc_coset_kernel_matches_scalar(a in arb_biased_line(), b in arb_biased_line(), energy in arb_energy()) {
        let codec = CocCosetCodec::new();
        let scalar = CocCosetCodec::new();
        assert_kernel_equals_scalar(&codec, |d, o, e| scalar.encode_scalar(d, o, e), &a, &b, &energy);
    }

    #[test]
    fn every_standard_scheme_round_trips_on_kernel_paths(a in arb_biased_line(), b in arb_line()) {
        let energy = EnergyModel::paper_default();
        for (id, codec) in standard_schemes() {
            let first = codec.encode(&a, &codec.initial_line(), &energy);
            prop_assert_eq!(codec.decode(&first), a, "{:?}", id);
            let second = codec.encode(&b, &first, &energy);
            prop_assert_eq!(codec.decode(&second), b, "{:?}", id);
        }
    }

    #[test]
    fn kernel_block_primitives_match_per_cell_evaluation(
        data in arb_line(),
        stored in prop::collection::vec(0usize..4, 256..257),
        start in 0usize..256,
        len in 1usize..256,
        mapping_idx in 0usize..24,
    ) {
        let energy = EnergyModel::paper_default();
        let mapping = SymbolMapping::all_mappings()[mapping_idx];
        let table = TransitionTable::new(&mapping, &energy);
        let old = PhysicalLine::from_states(
            stored.iter().map(|&i| CellState::from_index(i)).collect(),
        );
        let cells = start..(start + len).min(256);
        let (dp, op) = (SymbolPlanes::new(&data), StatePlanes::new(&old));
        let mut expect_cost = 0.0;
        let mut expect_updated = 0usize;
        for cell in cells.clone() {
            let target = mapping.state_of(data.symbol(cell));
            expect_cost += energy.transition_energy_pj(old.state(cell), target);
            if old.state(cell) != target {
                expect_updated += 1;
            }
        }
        prop_assert_eq!(block_cost(&dp, &op, cells.clone(), &table), expect_cost);
        prop_assert_eq!(block_updated_cells(&dp, &op, cells.clone(), &table), expect_updated);
        let counts = bucket_counts(&dp, &op, cells.clone());
        prop_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), cells.len());
    }

    // BitBuf streams must round-trip for every compressor, and converting a
    // stream through Vec<bool> and back must be the identity.
    #[test]
    fn fpc_bitbuf_stream_round_trips(line in arb_biased_line()) {
        let fpc = Fpc::new();
        let stream = fpc.encode_stream(&line);
        prop_assert_eq!(fpc.decode_stream(&stream), line);
        prop_assert_eq!(BitBuf::from_bools(&stream.to_bools()), stream);
    }

    #[test]
    fn bdi_bitbuf_stream_round_trips(line in arb_biased_line()) {
        let bdi = Bdi::new();
        if let Some(stream) = bdi.encode_stream(&line) {
            prop_assert_eq!(bdi.decode_stream(&stream), line);
            prop_assert_eq!(BitBuf::from_bools(&stream.to_bools()), stream);
        }
    }

    #[test]
    fn coc_repack_bitbuf_matches_bools(line in arb_biased_line()) {
        let packed = Coc::repack(&line);
        prop_assert_eq!(BitBuf::from_bools(&packed.to_bools()), packed.clone());
        // The packed length is what the COC+4cosets format decision reads.
        prop_assert!(packed.len() <= 8 * (4 + 64));
    }

    #[test]
    fn din_round_trips_on_bitbuf_streams(line in arb_biased_line()) {
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let enc = codec.encode(&line, &codec.initial_line(), &energy);
        prop_assert_eq!(codec.decode(&enc), line);
    }

    #[test]
    fn bitbuf_round_trips_arbitrary_bool_vectors(bools in prop::collection::vec(any::<bool>(), 0..400)) {
        let buf = BitBuf::from_bools(&bools);
        prop_assert_eq!(buf.len(), bools.len());
        prop_assert_eq!(buf.to_bools(), bools.clone());
        prop_assert_eq!(buf.count_ones(), bools.iter().filter(|b| **b).count());
        let collected: BitBuf = bools.iter().copied().collect();
        prop_assert_eq!(collected, buf);
    }
}
