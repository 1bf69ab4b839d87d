//! Spans around the benchmark's calls into each layer's public functions.
//!
//! A span records (layer, name, start, end, parent). Spans stay in memory
//! and are written out once, at the end of a traced run; a layer's self
//! time is the time inside its spans that no child span covers. With
//! tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    t0: Instant,
    on: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            on,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span of `layer`. The span's parent is the
    /// innermost span open on this tracer when it starts.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent layer name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Seconds of self time per layer: each span's duration minus the time
/// its direct children cover (children never overlap: spans nest on one
/// thread).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(child_ns[i]);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Total inclusive seconds of the spans named `name` in `layer`.
pub fn total_s(spans: &[Span], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "f",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("experiments", 10, 60, Some(0)),
            span("sim-core", 20, 50, Some(1)),
            span("sim-core", 70, 80, Some(0)),
        ];
        let st = self_time_by_layer(&spans);
        assert!((st["bench"] - 40e-9).abs() < 1e-15);
        assert!((st["experiments"] - 20e-9).abs() < 1e-15);
        assert!((st["sim-core"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("a", "outer", || t.span("b", "inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("a", "outer", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
