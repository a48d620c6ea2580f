//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the program's public functions;
//! nothing inside the program is instrumented. Every span carries the id of
//! the op it belongs to, spans are kept in memory, and [`Spans::to_chrome`]
//! renders them at exit as Chrome trace events (one event per line, the
//! format `wlcrc_obs::check::validate_trace` and `tracecheck` accept).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Layer-qualified name, e.g. `codec.encode`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Duration minus the spans directly nested in it, ns.
    pub self_ns: u64,
}

/// An in-memory, single-threaded span recorder. A disabled recorder still
/// times every call but keeps nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    events: RefCell<Vec<SpanEvent>>,
    /// Child-duration accumulators of the open spans, innermost last.
    open: RefCell<Vec<u64>>,
    next_op: Cell<u64>,
}

impl Spans {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            events: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh op id.
    pub fn next_op(&self) -> u64 {
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        id
    }

    /// Runs `f` inside a span named `name` of op `op`; returns its result
    /// and duration.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let started = Instant::now();
            let value = f();
            return (value, started.elapsed());
        }
        self.open.borrow_mut().push(0);
        let started = Instant::now();
        let value = f();
        let elapsed = started.elapsed();
        let dur_ns = elapsed.as_nanos() as u64;
        let children = self.open.borrow_mut().pop().expect("span stack balanced");
        if let Some(parent) = self.open.borrow_mut().last_mut() {
            *parent += dur_ns;
        }
        self.events.borrow_mut().push(SpanEvent {
            name,
            op,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns.saturating_sub(children),
        });
        (value, elapsed)
    }

    /// A copy of every recorded span, in completion order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.borrow().clone()
    }

    /// The spans as Chrome trace-event JSON: an array with one complete
    /// (`ph:"X"`) event per line, sorted by start time.
    pub fn to_chrome(&self) -> String {
        let mut events = self.events();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let pid = std::process::id();
        let mut out = String::from("[\n");
        for (i, e) in events.iter().enumerate() {
            let category = e.name.split('.').next().unwrap_or(e.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{category}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":1,\"args\":{{\"op\":{},\"self_us\":{:.3}}}}}",
                e.name,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.op,
                e.self_ns as f64 / 1e3,
            );
            out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}
