//! In-memory spans around the benchmark's calls into each layer,
//! written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::host::{Host, Timed};

/// One timed call: `parent` indexes the enclosing span, `op` the
/// operation (served model) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn timed(&self) -> Timed {
        Timed {
            at_s: 0.5 * (self.start_s + self.end_s),
            raw_ms: (self.end_s - self.start_s) * 1e3,
        }
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    /// Starts the spans of operation `op`.
    pub fn begin_op(&mut self, op: usize) {
        assert!(self.open.is_empty(), "operation began inside an open span");
        self.op = op;
    }

    /// Closes every span still open (an operation that failed midway).
    pub fn end_op(&mut self, host: &Host) {
        while !self.open.is_empty() {
            self.exit(host);
        }
    }

    pub fn enter(&mut self, host: &Host, name: &'static str) {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_s: host.now_s(),
            end_s: f64::NAN,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self, host: &Host) {
        let id = self.open.pop().expect("exit without an open span");
        self.spans[id].end_s = host.now_s();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, host: &Host, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(host, name);
        let out = f();
        self.exit(host);
        out
    }

    /// Host-scaled durations (ms) of every span, grouped by name.
    pub fn scaled_by_name(&self, host: &Host) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(host.scaled_ms(s.timed()));
        }
        by_name
    }

    /// Writes every span as one JSON array (times in µs since the run's
    /// clock origin).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}{sep}",
                s.name,
                s.op,
                s.start_s * 1e6,
                s.end_s * 1e6,
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
