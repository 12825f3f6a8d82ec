//! In-memory spans recorded by the benchmark's own code around its calls
//! into each crate's public functions.  Nothing is recorded unless the run
//! is a traced one; spans are written out when the run ends.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate name without `gld-`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: u64,
}

/// One thread's span recorder.  Client threads each own one, sharing the
/// main recorder's time origin, and hand it back through [`Tracer::absorb`].
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled.clone(),
            origin: self.origin,
            state: RefCell::default(),
        }
    }

    #[cfg(test)]
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording; a traced run alternates plain and recorded
    /// batches to measure what recording costs.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Runs `f` inside a span.  The borrow is released while `f` runs, so
    /// spans nest.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut state = self.state.borrow_mut();
            let parent = state.open.last().copied();
            let index = state.spans.len();
            state.spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            state.open.push(index);
            index
        };
        let result = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut state = self.state.borrow_mut();
        state.spans[index].end_ns = end_ns;
        state.open.pop();
        result
    }

    /// Takes over the spans of a forked recorder.
    pub fn absorb(&self, other: Tracer) {
        let mut state = self.state.borrow_mut();
        let base = state.spans.len();
        state
            .spans
            .extend(other.state.into_inner().spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// part its direct children cover, summed by the layer its name starts
    /// with.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_ms_by_layer(&self.state.borrow().spans)
    }

    /// Milliseconds of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let state = self.state.borrow();
        let of_name = state.spans.iter().filter(|s| s.name == name);
        of_name
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds of the spans directly inside spans called `root`.
    pub fn children_ms(&self, root: &str) -> f64 {
        let state = self.state.borrow();
        let inside = |s: &&Span| s.parent.is_some_and(|p| state.spans[p].name == root);
        let children = state.spans.iter().filter(inside);
        children.map(|s| (s.end_ns - s.start_ns) as f64 / 1e6).sum()
    }

    /// The trace file: at most `limit` spans in full, and the totals of all.
    pub fn to_json(&self, workload: &str, limit: usize) -> Json {
        let state = self.state.borrow();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_total", Json::Num(state.spans.len() as f64)),
            (
                "self_ms_by_layer",
                Json::obj(
                    self_ms_by_layer(&state.spans)
                        .into_iter()
                        .map(|(layer, ms)| (layer, Json::Num(ms))),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    state
                        .spans
                        .iter()
                        .take(limit)
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("op", Json::Num(s.op as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        let layer: &'static str = span.name.split('.').next().unwrap_or(span.name);
        *by_layer.entry(layer).or_insert(0.0) += own as f64 / 1e6;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<Span> {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        vec![
            span("core.block_decode", 0, 10_000_000, None),
            span("vae.latent_decompress", 0, 1_000_000, Some(0)),
            span("diffusion.generate", 1_000_000, 9_000_000, Some(0)),
            span("vae.decode_latent", 9_000_000, 9_500_000, Some(0)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let by_layer = self_ms_by_layer(&spans());
        assert_eq!(by_layer["core"], 0.5);
        assert_eq!(by_layer["vae"], 1.5);
        assert_eq!(by_layer["diffusion"], 8.0);
    }

    #[test]
    fn spans_nest_and_forks_merge() {
        let tracer = Tracer::new(true);
        let value = tracer.span("core.outer", 7, || tracer.span("vae.inner", 7, || 3));
        assert_eq!(value, 3);
        let fork = tracer.fork();
        fork.span("service.client", 8, || fork.span("service.recv", 8, || ()));
        tracer.absorb(fork);
        let state = tracer.state.borrow();
        let parents: Vec<_> = state.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert!(state.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(state.spans[1].op, 7);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("core.x", 0, || 1), 1);
        assert!(tracer.state.borrow().spans.is_empty());
    }

    #[test]
    fn durations_and_children_are_read_by_name() {
        let tracer = Tracer::new(true);
        tracer.state.borrow_mut().spans = spans();
        assert_eq!(tracer.durations_ms("diffusion.generate"), [8.0]);
        assert_eq!(tracer.children_ms("core.block_decode"), 9.5);
        assert_eq!(tracer.children_ms("core.absent"), 0.0);
    }
}
