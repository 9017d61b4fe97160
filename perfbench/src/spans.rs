//! In-memory span recorder for the traced run.
//!
//! A span is a named wall-clock interval around one public call into a
//! layer of the system, with the span that encloses it and the id of the
//! operation it belongs to. The layer of a span is its name up to the
//! first `.` (`scope.ranking` belongs to `scope`). Spans stay in memory
//! while the benchmark runs and are written out once at the end, so the
//! recorder costs two clock reads and a push per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 is set-up).
    pub op: u32,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The layer: the name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled recorder runs the closures and
/// records nothing, so set-up code is shared by traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    /// A recorder that keeps spans.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that keeps nothing.
    #[must_use]
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Starts a new operation; later spans carry its id.
    pub fn begin_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f` through
    /// the recorder it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span called `name` over an interval measured by the
    /// caller (for instance between two observer callbacks).
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| {
                u64::try_from(t.saturating_duration_since(self.origin).as_nanos())
                    .unwrap_or(u64::MAX)
            };
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: self.open.last().copied(),
                op: self.op,
            });
        }
    }

    /// Records a count taken at a layer boundary (LP iterations, moves).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, value));
        }
    }

    /// The most recent count called `name`.
    #[must_use]
    pub fn last_count(&self, name: &str) -> Option<f64> {
        self.counts.iter().rev().find(|c| c.0 == name).map(|c| c.1)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ids of the operations recorded after set-up.
    #[must_use]
    pub fn ops(&self) -> Vec<u32> {
        let mut ops: Vec<u32> = self
            .spans
            .iter()
            .map(|s| s.op)
            .filter(|&op| op > 0)
            .collect();
        ops.dedup();
        ops
    }

    /// Total milliseconds of spans called `name` in operation `op`.
    #[must_use]
    pub fn total_ms(&self, op: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Per-operation totals of spans called `name`, one value per
    /// recorded operation.
    #[must_use]
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        self.ops()
            .into_iter()
            .map(|op| self.total_ms(op, name))
            .collect()
    }

    /// Milliseconds of the top-level spans of operation `op` (those with
    /// no parent): the part of the operation the spans cover.
    #[must_use]
    pub fn covered_ms(&self, op: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.parent.is_none())
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Self time per layer in operation `op`: each span's duration minus
    /// the durations of its direct children, summed by layer.
    #[must_use]
    pub fn self_ms_by_layer(&self, op: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.op == op) {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            *out.entry(s.layer()).or_insert(0.0) += s.ms() - child_ms[i];
        }
        out
    }

    /// Writes every span as tab-separated `op id parent name start_ns
    /// end_ns` rows (parent `-` for a top-level span).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut rec = Recorder::new();
        rec.span("problem.build", |_| spin(1));
        let op = rec.begin_op();
        rec.span("resilience.rung", |rec| {
            rec.span("scope.ranking", |_| spin(3));
            rec.span("relax.solve", |_| spin(2));
        });
        rec.span("audit.placement", |rec| rec.count("audit.splits", 4.0));
        rec.count("audit.splits", 5.0);
        assert_eq!(rec.last_count("audit.splits"), Some(5.0));
        assert_eq!(rec.last_count("relax.rounds"), None);
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].op, 0);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, None);
        assert_eq!(rec.ops(), vec![op]);

        let by_layer = rec.self_ms_by_layer(op);
        assert!(by_layer["scope"] >= 3.0);
        assert!(by_layer["relax"] >= 2.0);
        // The rung's own time excludes its children.
        assert!(by_layer["resilience"] < 1.0);
        let covered = rec.covered_ms(op);
        assert!((covered - spans[1].ms() - spans[4].ms()).abs() < 1e-9);
        let self_sum: f64 = by_layer.values().sum();
        assert!((self_sum - covered).abs() < 1e-6);
        assert_eq!(rec.per_op_ms("relax.solve").len(), 1);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_keeps_nothing() {
        let mut rec = Recorder::off();
        let v = rec.span("graph.build", |rec| rec.span("graph.inner", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
