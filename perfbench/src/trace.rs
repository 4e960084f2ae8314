//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (request id, layer, start, end, parent). Spans stay in
//! memory while the traced replay runs and are written out once at the
//! end. A layer's self time is its span's duration minus the time its
//! direct child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work items the call handled (rows written, rows returned, ...).
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        req: u64,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            req,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent,
            items: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Sets the item count of the most recently closed span of `layer`.
    pub fn set_items(&mut self, layer: &'static str, items: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.layer == layer) {
            s.items = items;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, by span index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (µs) grouped by layer, in span order.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.layer).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"req\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"items\":{}}}",
                s.req, s.layer, s.start_ns, s.end_ns, s.items
            )?;
        }
        f.flush()
    }
}
