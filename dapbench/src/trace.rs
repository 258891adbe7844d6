//! The span recorder of the traced run. Spans live in memory and are
//! written out once, when the run ends; nothing inside the program under
//! test is instrumented — every span wraps a call the benchmark makes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `(client, seq)`: the request a span belongs to.
pub type RequestId = (u32, u64);

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub rid: RequestId,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span whose interval is already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: RequestId,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, rid: RequestId) -> usize {
        let now = Instant::now();
        self.record(name, parent, rid, now, now)
    }

    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end = now.max(self.spans[id].start);
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: RequestId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, rid);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children's intervals cover (overlapping children count
    /// once; a child sticking out of its parent counts only inside).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
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
                s.duration() - covered
            })
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `id parent client seq name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tclient\tseq\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}",
                s.rid.0, s.rid.1, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// What recording one span costs, in ns: the median over five batches
/// of the time one empty nested span (`begin` and `end` inside a root)
/// takes in a fresh tracer.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 20_000;
    let mut per_span = Vec::new();
    for _ in 0..5 {
        let mut t = Tracer::new(Instant::now());
        let start = Instant::now();
        let root = t.begin("cost.root", None, (0, 0));
        for _ in 0..SPANS {
            let id = t.begin("cost.span", Some(root), (0, 0));
            t.end(id);
        }
        t.end(root);
        per_span.push(start.elapsed().as_nanos() as f64 / SPANS as f64);
        std::hint::black_box(t.spans.len());
    }
    crate::stats::median(&per_span).expect("five batches")
}

/// The share of `traced_ns` that recording `spans` spans cost, in %.
pub fn overhead_pct(spans: usize, cost_ns: f64, traced_ns: u64) -> f64 {
    100.0 * spans as f64 * cost_ns / traced_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut Tracer, parent: Option<usize>, start: u64, end: u64) -> usize {
        t.spans.push(Span {
            name: "s",
            start,
            end,
            parent,
            rid: (0, 1),
        });
        t.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = push(&mut t, None, 0, 100);
        push(&mut t, Some(root), 10, 30);
        let mid = push(&mut t, Some(root), 20, 50); // overlaps the first
        push(&mut t, Some(root), 90, 120); // sticks out of the parent
        push(&mut t, Some(mid), 25, 35); // a grandchild is not the root's child
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[mid], 30 - 10);
        assert_eq!(selfs[1], 20);
    }

    #[test]
    fn span_cost_is_charged_per_span() {
        let cost = span_cost_ns();
        assert!(cost > 0.0 && cost < 100_000.0, "one span costs {cost} ns");
        // 1000 spans of 50 ns in 1 ms of traced time: 5%.
        assert!((overhead_pct(1000, 50.0, 1_000_000) - 5.0).abs() < 1e-12);
        assert_eq!(overhead_pct(0, cost, 0), 0.0);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let mut t = Tracer::new(Instant::now());
        let id = t.span("leaf", None, (0, 1), || std::hint::black_box(3 + 4));
        assert_eq!(id, 7);
        assert_eq!(t.self_times()[0], t.spans()[0].duration());
    }
}
