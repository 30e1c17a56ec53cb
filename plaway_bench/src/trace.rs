//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a request id, its own id, its parent's id (0 for a root), a
//! layer name, and start and end times in nanoseconds since process start.
//! Spans stay in memory and are written as JSON lines when the run ends.
//! A layer's self time is its span's duration minus its children's.
//!
//! The tracer is switched off for end-to-end runs: every call then costs
//! one branch.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Root span of one measured request; its self time is the part of the
/// request no layer span covers.
pub const REQUEST: &str = "request";

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded in the measured phase (as opposed to set-up).
    pub measured: bool,
}

/// IR sizes of one traced compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileSizes {
    pub cfg_blocks: u64,
    pub ssa_blocks: u64,
    pub opt_rewrites: u64,
    pub anf_funcs: u64,
    pub sql_bytes: u64,
}

/// Marks an open span; returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    /// High bits of every id this tracer hands out (one tracer per thread).
    prefix: u64,
    measured: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
    pub compiles: Vec<(bool, CompileSizes)>,
}

impl Tracer {
    pub fn new(on: bool, thread: u64) -> Self {
        epoch();
        Tracer {
            on,
            prefix: thread << 40,
            measured: false,
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
            compiles: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, 0)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Another thread's tracer in the same state.
    pub fn sibling(&self, thread: u64) -> Tracer {
        Tracer {
            measured: self.measured,
            ..Tracer::new(self.on, thread)
        }
    }

    /// From now on, spans belong to the measured phase.
    pub fn start_measuring(&mut self) {
        self.measured = true;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let (req, parent) = match self.open.last() {
            Some(&p) => (self.spans[p].req, self.spans[p].id),
            None => {
                self.requests += 1;
                (self.prefix | self.requests, 0)
            }
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            req,
            id: self.prefix | (idx as u64 + 1),
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            measured: self.measured,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// A leaf span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn record_compile(&mut self, sizes: CompileSizes) {
        if self.on {
            self.compiles.push((self.measured, sizes));
        }
    }

    /// Take over another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.compiles.extend(other.compiles);
    }

    /// Self time of every span, by index.
    fn self_times(&self) -> Vec<u64> {
        let index: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = index[&s.parent];
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per layer name and phase: span count, total and self time.
    pub fn layers(&self) -> Layers {
        let mut out = Layers::default();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let agg = out.by.entry((s.name, s.measured)).or_default();
            agg.count += 1;
            agg.total_ns += s.end_ns - s.start_ns;
            agg.self_ns += own;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"req\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"measured\":{}}}",
                s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.measured
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Layers {
    by: BTreeMap<(&'static str, bool), Agg>,
}

impl Layers {
    /// The layer's spans from the measured phase, or from set-up when the
    /// measured phase never enters that layer.
    pub fn get(&self, name: &'static str) -> (Agg, bool) {
        match self.by.get(&(name, true)) {
            Some(agg) => (*agg, true),
            None => (
                self.by.get(&(name, false)).copied().unwrap_or_default(),
                false,
            ),
        }
    }

    /// Mean self time per span, in microseconds.
    pub fn self_us(&self, name: &'static str) -> f64 {
        let (agg, _) = self.get(name);
        agg.self_ns as f64 / 1e3 / agg.count.max(1) as f64
    }

    /// Self time of `name` per span of `per` from the same phase, in
    /// microseconds (a pass may run several times in one compile).
    pub fn self_us_per(&self, name: &'static str, per: &'static str) -> f64 {
        let (per_agg, measured) = self.get(per);
        let agg = self.by.get(&(name, measured)).copied().unwrap_or_default();
        agg.self_ns as f64 / 1e3 / per_agg.count.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 1);
        t.start_measuring();
        let root = t.begin(REQUEST);
        t.span("a", || spin(200_000));
        t.span("b", || spin(100_000));
        t.end(root);
        let layers = t.layers();
        let (root, _) = layers.get(REQUEST);
        let (a, _) = layers.get("a");
        let (b, _) = layers.get("b");
        assert_eq!(root.count, 1);
        assert_eq!(root.self_ns + a.self_ns + b.self_ns, root.total_ns);
        assert!(a.self_ns >= 200_000 && b.self_ns >= 100_000);
        assert!(t.spans.iter().skip(1).all(|s| s.req == t.spans[0].req));
        assert!(t.spans.iter().skip(1).all(|s| s.parent == t.spans[0].id));
    }

    #[test]
    fn set_up_spans_stand_in_for_layers_the_measured_phase_skips() {
        let mut t = Tracer::new(true, 1);
        t.span("compile", || ());
        t.span("prepare", || ());
        t.start_measuring();
        t.span("prepare", || ());
        t.span("prepare", || ());
        let layers = t.layers();
        assert_eq!(layers.get("compile").0.count, 1);
        assert!(!layers.get("compile").1);
        assert!(layers.get("prepare").1);
        assert_eq!(layers.get("prepare").0.count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.begin(REQUEST);
        assert_eq!(t.span("a", || 7), 7);
        t.end(root);
        assert!(t.spans.is_empty());
    }
}
