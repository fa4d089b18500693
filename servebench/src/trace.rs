//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, parent and request id. Written out when the
//! run ends; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: usize,
    pub request: usize,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. When off, `begin` and `end` do nothing and read no
/// clock, which is the untraced side of the overhead comparison.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: usize, request: usize) -> usize {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    pub fn end(&mut self, index: usize) {
        if self.on {
            let now = self.now();
            self.spans[index].end = now;
        }
    }

    /// Records a span measured elsewhere (a pool worker's item).
    pub fn record(&mut self, span: Span) -> usize {
        if self.on {
            self.spans.push(span);
        }
        self.spans.len().wrapping_sub(1)
    }
}

/// Writes spans as tab-separated lines.
pub fn write(spans: &[Span], path: &Path) -> std::io::Result<()> {
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.request)?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children, as from a worker
/// pool, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Durations in µs grouped by span name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.dur() as f64 / 1e3);
    }
    out
}

/// Per request: the sum of the durations of the root's direct children,
/// in µs, in request order (roots are the spans named `root`).
pub fn child_sums_us(spans: &[Span], root: &str) -> Vec<f64> {
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            sums.entry(i).or_insert(0.0);
        } else if s.parent != NO_PARENT && spans[s.parent].name == root {
            *sums.entry(s.parent).or_insert(0.0) += s.dur() as f64 / 1e3;
        }
    }
    sums.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: usize) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            // Overlapping children (two pool workers) count once.
            span("b", 40, 70, 0),
            span("c", 50, 80, 0),
            // A grandchild only reduces its own parent.
            span("d", 45, 60, 2),
            // A child overrunning its parent is clipped.
            span("e", 95, 120, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 40 - 5);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 15);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 15);
    }

    #[test]
    fn child_sums_cover_direct_children_only() {
        let spans = [
            span("root", 0, 100_000, NO_PARENT),
            span("a", 0, 10_000, 0),
            span("b", 10_000, 30_000, 0),
            span("x", 12_000, 20_000, 2),
            span("root", 100_000, 200_000, NO_PARENT),
        ];
        assert_eq!(child_sums_us(&spans, "root"), vec![30.0, 0.0]);
        let by_name = durations_us(&spans);
        assert_eq!(by_name["root"], vec![100.0, 100.0]);
        assert_eq!(by_name["x"], vec![8.0]);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let i = t.begin("root", NO_PARENT, 0);
        t.end(i);
        assert!(t.spans.is_empty());
    }
}
