//! The benchmark's own guarantees: tail percentiles need enough samples,
//! every input derives from the seed argument alone, and the trace it
//! writes is one the repository's trace checker accepts.

use wlcbench::grid::{Cell, Stream};
use wlcbench::spans::Spans;
use wlcbench::stats::percentile;
use wlcbench::{gridrun, layers, serve};
use wlcrc::schemes::SchemeId;
use wlcrc_trace::WriteRecord;

#[test]
fn p90_is_refused_below_100_samples() {
    let mut samples: Vec<f64> = (0..99).map(f64::from).collect();
    let refused = percentile(&samples, 0.9).expect_err("99 samples are too few for p90");
    assert!(refused.contains("100"), "{refused}");
    samples.push(99.0);
    assert!((percentile(&samples, 0.9).expect("100 samples suffice") - 89.1).abs() < 1e-9);
    assert!(percentile(&samples[..19], 0.5).is_err(), "p50 needs 20 samples");
    assert!(percentile(&samples[..20], 0.5).is_ok());
}

fn records(cell: &Cell, seed: u64) -> Vec<WriteRecord> {
    cell.source(seed).collect()
}

#[test]
fn workloads_are_determined_by_the_seed() {
    // grid: every cell's record stream and every cacheable cell's identity.
    for cell in Cell::all() {
        assert_eq!(records(&cell, 7), records(&cell, 7), "{cell:?}");
        assert_ne!(records(&cell, 7), records(&cell, 8), "{cell:?}");
        if cell.stream == Stream::Gcc {
            assert_eq!(cell.plan(7).plan_fingerprints(), cell.plan(7).plan_fingerprints());
            assert_ne!(cell.plan(7).plan_fingerprints(), cell.plan(8).plan_fingerprints());
        }
    }
    // gridrun: the worker plan.
    assert_eq!(gridrun::plan(7).plan_fingerprints(), gridrun::plan(7).plan_fingerprints());
    assert_ne!(gridrun::plan(7).plan_fingerprints(), gridrun::plan(8).plan_fingerprints());
    // serve: the replayed stream and the session options.
    let stream = |seed| serve::stream(seed, 256).collect::<Vec<_>>();
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));
    let session = serve::cell(SchemeId::Wlcrc16);
    assert_eq!(session.options(7), session.options(7));
    assert_ne!(session.options(7), session.options(8));
}

#[test]
fn trace_parses_with_the_obs_checker() {
    let spans = Spans::new(true);
    let op = spans.next_op();
    let cell = Cell { scheme: SchemeId::Baseline, stream: Stream::Random };
    let (layers, ok) = spans.span("attr", op, || layers::decompose(&spans, op, &cell, 3)).0;
    assert!(ok, "the layer replay must reproduce the engine's statistics");
    assert!(layers.writes > 0 && layers.encode_ns > 0.0);

    let text = spans.to_chrome();
    let summary = wlcrc_obs::check::validate_trace(&text).expect("trace accepted");
    let names = [
        "attr",
        "trace.next",
        "memsim.write",
        "memsim.run",
        "codec.encode",
        "pcm.write",
        "pcm.disturb",
        "codec.decode",
    ];
    assert_eq!(summary.complete_spans, names.len());
    for name in names {
        assert!(summary.dur_us(name) > 0.0, "span {name} missing");
    }
    // Every event names its op, and the parent's self time excludes its
    // children.
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let event = wlcrc_obs::check::parse_json(line.trim_end_matches(',')).expect("event");
        let args = event.get("args").expect("args");
        assert_eq!(args.get("op").and_then(|v| v.as_f64()), Some(op as f64));
    }
    let attr = spans.events().into_iter().find(|e| e.name == "attr").expect("attr span");
    let children: u64 = spans.events().iter().filter(|e| e.name != "attr").map(|e| e.dur_ns).sum();
    assert_eq!(attr.self_ns, attr.dur_ns - children);
}
