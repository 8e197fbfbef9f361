//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, parent span and operation id. They stay in memory
//! until the run ends and are then written out as JSON lines. A span's
//! *self time* is its duration minus the part of its interval covered by
//! its child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `sparse.plan_compile`.
    pub name: &'static str,
    /// The operation (request or solve) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Start, ns from the epoch.
    pub start_ns: u64,
    /// End, ns from the epoch.
    pub end_ns: u64,
}

/// Records the spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times count from `epoch` (share it across threads
    /// so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// The recorded spans; all must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of the run");
        self.spans
    }
}

/// Concatenates span lists from several threads, re-basing parent
/// indices so they stay valid in the merged list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_insert(0) += t;
    }
    totals
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(w: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("render", Some(0), 10, 20),
            span("solve", Some(0), 30, 90),
            span("compile", Some(2), 30, 40),
            span("run", Some(2), 40, 85),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 5, 10, 45]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 30);
        assert_eq!(
            by_name.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", None, 100, 200),
            span("a", Some(0), 90, 130),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 190, 260),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn merged_lists_keep_their_parents() {
        let a = vec![span("root", None, 0, 10), span("x", Some(0), 2, 4)];
        let b = vec![span("root", None, 0, 20), span("y", Some(0), 5, 15)];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        assert_eq!(self_times(&m), vec![8, 2, 10, 10]);
        assert_eq!(durations(&m, "root"), vec![10, 20]);
    }

    #[test]
    fn tracer_nests_and_records_ops() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let root = t.open("root");
        let v = t.span("child", || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
