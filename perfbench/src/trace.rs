//! In-memory span tracer for the traced run.
//!
//! A span records a layer name, its start and end (nanoseconds since the
//! tracer was created) and the span that was open when it started. Spans
//! are kept in memory and written out once, at the end of the run. A
//! layer's self time is its spans' durations minus the parts covered by
//! their child spans; whatever no root span covers is the `untraced`
//! remainder, so self times plus `untraced` add up to the traced wall
//! time exactly.
//!
//! The workloads run at one worker thread, and every traced call happens
//! on the thread that owns the tracer, so a single open-span stack is
//! enough. The mutex only makes the tracer usable from the `Fn + Sync`
//! closures the sweep drivers take.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Collects spans for one traced run.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

/// Self time per layer, the traced wall time and the untraced remainder.
pub struct Breakdown {
    pub wall_s: f64,
    pub untraced_s: f64,
    /// `(self seconds, span count)` per layer name.
    pub layers: BTreeMap<&'static str, (f64, u64)>,
}

impl Breakdown {
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.1)
    }

    /// Sum of every layer's self time (equals `wall_s - untraced_s`).
    pub fn layers_s(&self) -> f64 {
        self.layers.values().map(|l| l.0).sum()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            // csa-lint: allow(D002) benchmark timing; never feeds an output
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state poisoned by a panic inside a span")
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's duration in nanoseconds.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let index = {
            let mut st = self.lock();
            let parent = st.open.last().copied();
            let index = st.spans.len();
            st.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            st.open.push(index);
            index
        };
        let value = f();
        let mut st = self.lock();
        let end = self.now_ns();
        let popped = st.open.pop();
        assert_eq!(popped, Some(index), "spans must nest");
        st.spans[index].end_ns = end;
        let dur = end - st.spans[index].start_ns;
        (value, dur)
    }

    /// [`Self::timed`] without the duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Ends the trace: per-layer self times over the wall time since
    /// [`Tracer::new`], plus the spans as JSON lines
    /// (`{"name","start_ns","end_ns","parent"}`, parent `-1` for roots).
    pub fn finish(self) -> (Breakdown, String) {
        let wall_ns = self.now_ns();
        let st = self
            .state
            .into_inner()
            .expect("tracer state poisoned by a panic inside a span");
        assert!(st.open.is_empty(), "every span must be closed");
        let mut self_ns: Vec<i128> = st
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        let mut rooted_ns: u64 = 0;
        for s in &st.spans {
            match s.parent {
                Some(p) => self_ns[p] -= i128::from(s.end_ns - s.start_ns),
                None => rooted_ns += s.end_ns - s.start_ns,
            }
        }
        let mut layers: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut lines = String::new();
        for (s, own) in st.spans.iter().zip(&self_ns) {
            let entry = layers.entry(s.name).or_default();
            entry.0 += *own as f64 * 1e-9;
            entry.1 += 1;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                lines,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            );
        }
        let breakdown = Breakdown {
            wall_s: wall_ns as f64 * 1e-9,
            untraced_s: (wall_ns - rooted_ns) as f64 * 1e-9,
            layers,
        };
        (breakdown, lines)
    }
}
