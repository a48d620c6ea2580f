//! Allocation regression test for the encode hot path.
//!
//! The bit-parallel encoders keep every piece of per-write scratch (plane
//! views, transition tables, candidate costs, choice masks, packed auxiliary
//! bits) in fixed-size stack storage. The only heap allocations a steady-state
//! `encode()` may perform are the two `Vec`s (states + classes) backing the
//! returned `PhysicalLine` — this test counts allocations through a wrapping
//! global allocator and pins exactly that. A steady-state simulator write is
//! pinned whole the same way.
//!
//! Counts are per thread (see [`alloc_counter`]), so the tests need no
//! serialisation and repeat exactly.

mod alloc_counter;

use alloc_counter::allocations_during;

/// The workload shared by the measuring tests below.
fn workload() -> Vec<wlcrc_repro::pcm::line::MemoryLine> {
    use wlcrc_repro::pcm::line::MemoryLine;
    (0..16)
        .map(|i| {
            let mut words = [0u64; 8];
            for (w, slot) in words.iter_mut().enumerate() {
                *slot = match (i + w) % 4 {
                    0 => 0,
                    1 => (i as u64 * 0x1234 + w as u64) & 0xFFFF,
                    2 => (-(((i * 31 + w) as i64) % 50_000)) as u64,
                    _ => u64::MAX,
                };
            }
            MemoryLine::from_words(words)
        })
        .collect()
}

#[test]
fn encode_allocates_only_the_returned_line() {
    use wlcrc_repro::coset::{
        FlipMinCodec, FnwCodec, Granularity, NCosetsCodec, RestrictedCosetCodec,
    };
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::EnergyModel;
    use wlcrc_repro::wlcrc::WlcCosetCodec;

    let energy = EnergyModel::paper_default();
    // Mixed content: WLC-compressible words so WLCRC takes its encoded path,
    // and varied values so candidate searches do real work.
    let lines: Vec<MemoryLine> = workload();

    let codecs: Vec<(Box<dyn LineCodec>, &str)> = vec![
        (Box::new(NCosetsCodec::three_cosets(Granularity::new(16))), "3cosets-16"),
        (Box::new(NCosetsCodec::six_cosets(Granularity::new(512))), "6cosets-512"),
        (Box::new(RestrictedCosetCodec::new(Granularity::new(16))), "3-r-cosets-16"),
        (Box::new(FnwCodec::paper_default()), "FNW"),
        (Box::new(FlipMinCodec::new()), "FlipMin"),
        (Box::new(WlcCosetCodec::wlcrc16()), "WLCRC-16"),
        (Box::new(WlcCosetCodec::wlc_four_cosets(32)), "WLC+4cosets"),
    ];

    for (codec, name) in &codecs {
        // Warm up: first writes may lazily initialise internals.
        let mut old = codec.initial_line();
        for line in &lines {
            old = codec.encode(line, &old, &energy);
        }
        // Steady state: each encode must allocate exactly twice — the cells
        // and classes vectors of the returned PhysicalLine. (Dropping the
        // previous `old` is a deallocation and is not counted.)
        const WRITES: u64 = 32;
        let (allocs, _) = allocations_during(|| {
            for i in 0..WRITES as usize {
                let new = codec.encode(&lines[i % lines.len()], &old, &energy);
                old = new;
            }
        });
        assert_eq!(
            allocs,
            2 * WRITES,
            "{name}: expected exactly 2 allocations per encode (the returned \
             PhysicalLine), got {allocs} over {WRITES} writes"
        );
    }
}

#[test]
fn din_encode_allocation_profile_is_pinned() {
    use wlcrc_repro::coset::DinCodec;
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::prelude::EnergyModel;

    let energy = EnergyModel::paper_default();
    let codec = DinCodec::new();
    let lines = workload();

    // Warm up (lazy internals + the chained stored line).
    let mut old = codec.initial_line();
    for line in &lines {
        old = codec.encode(line, &old, &energy);
    }

    // Unlike the pure-kernel coset schemes, DIN runs FPC/BDI compression on
    // every write and those compressors build their candidate bit streams on
    // the heap; the kernel expansion/BCH/plane-scatter path after them is
    // allocation-free, so the steady-state count is the returned line's two
    // vectors plus the compressor scratch. The workload above exercises all
    // three paths (FPC-win, BDI-win, uncompressible fallback); the total is
    // pinned so a regression that sneaks per-write scratch into the kernel
    // path shows up as a count bump.
    let measure = |old: &mut wlcrc_repro::pcm::prelude::PhysicalLine| {
        allocations_during(|| {
            for line in &lines {
                *old = codec.encode(line, old, &energy);
            }
        })
        .0
    };
    let first = measure(&mut old);
    let second = measure(&mut old);
    assert_eq!(first, second, "DIN steady-state allocation count must be deterministic");
    assert_eq!(
        first,
        DIN_STEADY_STATE_ALLOCS,
        "DIN: expected {DIN_STEADY_STATE_ALLOCS} allocations over {} writes, got {first}",
        lines.len()
    );
}

/// Steady-state allocations of one pass of [`workload`] (16 writes) through
/// `DinCodec::encode`: exactly 3 per write — the returned `PhysicalLine`'s
/// two backing vectors plus one compressor scratch buffer (the selected
/// FPC/BDI bit stream, or the raw stream probe on the fallback path).
const DIN_STEADY_STATE_ALLOCS: u64 = 48;

#[test]
fn decode_stays_allocation_lean() {
    use wlcrc_repro::coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::line::MemoryLine;
    use wlcrc_repro::pcm::prelude::EnergyModel;

    let energy = EnergyModel::paper_default();
    let data = MemoryLine::from_words([0x0123_4567_89AB_CDEF; 8]);
    for codec in [
        Box::new(NCosetsCodec::three_cosets(Granularity::new(16))) as Box<dyn LineCodec>,
        Box::new(RestrictedCosetCodec::new(Granularity::new(16))),
    ] {
        let stored = codec.encode(&data, &codec.initial_line(), &energy);
        let _ = codec.decode(&stored); // warm up
        let (allocs, decoded) = allocations_during(|| codec.decode(&stored));
        assert_eq!(decoded, data);
        assert!(allocs <= 1, "decode of {} allocated {allocs} times", codec.name());
    }
}

#[test]
fn steady_state_session_writes_allocate_a_pinned_amount() {
    use wlcrc_repro::memsim::Simulator;
    use wlcrc_repro::trace::WriteRecord;
    use wlcrc_repro::wlcrc::schemes::standard_schemes;

    let lines = workload();
    // Pass `pass` writes line `(slot + pass) % 16` to slot `slot`: the same
    // 16 addresses every pass, so after the first pass every write replaces
    // a stored line and the lanes' maps never grow.
    let pass = |pass: usize| -> Vec<WriteRecord> {
        (0..lines.len())
            .map(|slot| {
                let old = lines[(slot + pass + lines.len() - 1) % lines.len()];
                WriteRecord::new(slot as u64 * 64, old, lines[(slot + pass) % lines.len()])
            })
            .collect()
    };
    let pins = standard_schemes().into_iter().zip(STEADY_STATE_SESSION_ALLOCS);
    for ((id, codec), (label, pinned)) in pins {
        assert_eq!(id.label(), label, "pins follow the standard scheme order");
        // One session fed record by record, one fed through `write_batch`
        // (a loop over `write`): both must allocate the pinned amount.
        let mut single = Simulator::new().session(codec, "alloc");
        let mut batched = Simulator::new().session(id.build(), "alloc");
        for warm_up in 0..2 {
            for record in &pass(warm_up) {
                single.write(record);
            }
            batched.write_batch(&pass(warm_up));
        }
        let records = pass(2);
        let (allocs, _) = allocations_during(|| {
            for record in &records {
                single.write(record);
            }
        });
        let (batch_allocs, _) = allocations_during(|| batched.write_batch(&records));
        assert_eq!(allocs, pinned, "{label}: allocations over 16 steady-state session writes");
        assert_eq!(batch_allocs, pinned, "{label}: allocations of the same writes as one batch");
        assert_eq!(single.stats(), batched.stats());
    }
}

/// Allocations of one steady-state pass of 16 `SimulatorSession::write`
/// calls to already-stored addresses, per standard scheme in figure order:
/// each write's encode, differential write, disturbance walk and verify
/// decode.
const STEADY_STATE_SESSION_ALLOCS: [(&str, u64); 8] = [
    ("Baseline", 160),
    ("FlipMin", 160),
    ("FNW", 159),
    ("DIN", 175),
    ("6cosets", 160),
    ("COC+4cosets", 175),
    ("WLC+4cosets", 126),
    ("WLCRC-16", 127),
];
