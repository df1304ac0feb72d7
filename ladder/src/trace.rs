//! Spans recorded from the benchmark's own files, around its calls into
//! each layer's public API. They live in one pre-sized `Vec` and are
//! written as JSON lines when the run ends; nothing is recorded inside
//! the program under test (that is a later change).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

/// In-memory span store for one traced run of one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Total and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// Room for `capacity` spans; later ones are counted as dropped so
    /// the store never reallocates inside a timed section.
    pub fn new(workload: &'static str, capacity: usize) -> Tracer {
        Tracer { workload, origin: Instant::now(), spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span whose children need its id; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span { name, start_ns, end_ns: start_ns, parent })
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = now;
        }
    }

    /// Record a finished span that started at `start_ns` and ends now.
    pub fn record(&mut self, name: &'static str, start_ns: u64, parent: SpanId) -> SpanId {
        let end_ns = self.now_ns();
        self.record_closed(name, start_ns, end_ns, parent)
    }

    /// Record a span another thread timed against this tracer's clock.
    pub fn record_closed(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
    ) -> SpanId {
        self.push(Span { name, start_ns, end_ns, parent })
    }

    fn push(&mut self, span: Span) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(span);
        SpanId::try_from(self.spans.len()).unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per name: how many spans, their summed duration, and their self
    /// time — duration minus the part of it their children cover
    /// (children of pipelined requests overlap, so the cover is a union).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.checked_sub(1) {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                self.workload,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, SpanId)]) -> Tracer {
        let mut t = Tracer::new("test", 16);
        for &(name, start_ns, end_ns, parent) in spans {
            t.push(Span { name, start_ns, end_ns, parent });
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..60 and a
        // separate 80..90: the cover is 50 + 10, so self time is 40.
        let t = tracer_with(&[
            ("phase", 0, 100, 0),
            ("req", 10, 40, 1),
            ("req", 30, 60, 1),
            ("req", 80, 90, 1),
        ]);
        let totals = t.totals();
        assert_eq!(totals["phase"], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(totals["req"], NameTotals { count: 3, total_ns: 70, self_ns: 70 });
    }

    #[test]
    fn a_full_store_counts_drops_instead_of_growing() {
        let mut t = Tracer::new("test", 2);
        let a = t.begin("a", 0);
        t.end(a);
        assert_ne!(t.record("b", 0, a), 0);
        assert_eq!(t.record("c", 0, a), 0);
        assert_eq!((t.len(), t.dropped()), (2, 1));
    }
}
