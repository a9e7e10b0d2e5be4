//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, plus one span per memoized sweep phase, which arrives through
//! the sweep's [`PhaseObserver`] hook: the observer gets the phase's
//! compute time at its end, so the span is `[end - ms, end]`. Spans stay
//! in memory and are written out once, when the run ends.

use spt::{Json, PhaseObserver, PhaseStamp};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// The repository crate the time is spent in.
    pub layer: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Work-item ordinal within the enclosing unit (sweep phases only).
    pub item: Option<u64>,
    /// `computed`, `memo` or `store` for sweep phases.
    pub provenance: Option<&'static str>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u64,
}

/// Span recorder. Single-threaded use is the norm (every sweep runs with
/// one worker); the mutex only makes it shareable as an observer.
pub struct Tracer {
    t0: Instant,
    state: Mutex<State>,
}

/// The layer a sweep phase's time belongs to.
pub fn phase_layer(phase: &str) -> &'static str {
    match phase {
        "profile" => "profile",
        "compile" => "compiler",
        _ => "sim",
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Open a span; spans recorded until the matching [`Tracer::end`]
    /// become its children.
    pub fn begin(&self, name: &str, layer: &'static str) -> usize {
        let start_ms = self.now_ms();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let id = st.spans.len();
        st.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ms,
            end_ms: start_ms,
            parent,
            item: None,
            provenance: None,
        });
        st.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its
    /// duration in ms.
    pub fn end(&self, id: usize) -> f64 {
        let end_ms = self.now_ms();
        let mut st = self.lock();
        while let Some(top) = st.open.pop() {
            st.spans[top].end_ms = end_ms;
            if top == id {
                break;
            }
        }
        st.spans[id].ms()
    }

    /// Time `f` as a span.
    pub fn span<R>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, layer);
        let r = f();
        let ms = self.end(id);
        (r, ms)
    }

    /// Start the next work item: sweep phases recorded from now on carry
    /// its ordinal.
    pub fn next_item(&self) {
        self.lock().item += 1;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }
}

impl PhaseObserver for Tracer {
    fn phase_done(&self, phase: &'static str, stamp: PhaseStamp) {
        let end_ms = self.now_ms();
        let mut st = self.lock();
        // Every sweep work item resolves its profile first, so a profile
        // stamp opens a new item unless the caller numbers items itself.
        if phase == "profile" {
            st.item += 1;
        }
        let parent = st.open.last().copied();
        let item = Some(st.item);
        st.spans.push(Span {
            name: phase.to_string(),
            layer: phase_layer(phase),
            start_ms: end_ms - stamp.ms,
            end_ms,
            parent,
            item,
            provenance: Some(stamp.provenance()),
        });
    }
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children are disjoint, since they run one after the
/// other on the recording thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                child_ms[p] += s.ms();
            }
        }
    }
    spans
        .iter()
        .zip(&child_ms)
        .map(|(s, c)| (s.ms() - c).max(0.0))
        .collect()
}

/// Self time summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += t;
    }
    by_layer
}

/// The spans as a JSON array (times in ms since the recorder started).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .zip(self_times(spans))
            .map(|(s, self_ms)| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("layer", s.layer)
                    .with("start_ms", s.start_ms)
                    .with("end_ms", s.end_ms)
                    .with("self_ms", self_ms)
                    .with("parent", s.parent.map(|p| p as u64))
                    .with("item", s.item)
                    .with("provenance", s.provenance)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            layer,
            start_ms: a,
            end_ms: b,
            parent,
            item: None,
            provenance: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // unit [0,100] ⊃ compile [10,50] ⊃ deps [20,45]; unit ⊃ sim [60,90]
        let spans = vec![
            span("unit", "spt", 0.0, 100.0, None),
            span("compile", "compiler", 10.0, 50.0, Some(0)),
            span("deps", "profile", 20.0, 45.0, Some(1)),
            span("spt_sim", "sim", 60.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 15.0, 25.0, 30.0]);
        let by = self_time_by_layer(&spans);
        assert_eq!(by["spt"], 30.0);
        assert_eq!(by["compiler"], 15.0);
        assert_eq!(by["profile"], 25.0);
        assert_eq!(by["sim"], 30.0);
        // Self times partition the root's interval.
        assert_eq!(by.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn recorder_nests_observer_phases_under_open_spans() {
        let t = Tracer::new();
        let root = t.begin("unit", "spt");
        t.phase_done(
            "profile",
            PhaseStamp {
                hit: false,
                ms: 0.0,
                from_store: false,
            },
        );
        let inner = t.begin("probe", "interp");
        t.end(inner);
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].item, Some(1));
        assert_eq!(s[1].provenance, Some("computed"));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ms >= s[2].end_ms);
    }
}
