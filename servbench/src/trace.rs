//! In-memory span log for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public functions: a name, start and end relative to a
//! shared origin, the span that caused it, and how many items (queries,
//! batches, calls) it covered. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, `layer.call`.
    pub name: &'static str,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Start, ns after the log's origin.
    pub start_ns: u64,
    /// End, ns after the log's origin.
    pub end_ns: u64,
    /// Items of work the span covered.
    pub items: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread (or of the whole run, after [`Trace::absorb`]).
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty log whose times count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty log with room for `cap` spans, so recording does not
    /// reallocate mid-run.
    pub fn with_capacity(origin: Instant, cap: usize) -> Trace {
        Trace {
            origin,
            spans: Vec::with_capacity(cap),
        }
    }

    /// The instant every span time counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> usize {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    /// Closes an opened span now, covering `items`.
    pub fn close(&mut self, id: usize, items: u64) {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.items = items;
    }

    /// Runs `f` inside a span covering `items`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), items);
        out
    }

    /// Appends another log with the same origin, keeping its parent
    /// links; `parent` adopts the other log's root spans.
    pub fn absorb(&mut self, other: Trace, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Every span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    /// Children recorded by one thread never overlap, so their durations
    /// add up. Where concurrent threads' spans share a parent (the two
    /// loopback pairs under the replay), the parent's self time is
    /// understated and floors at zero.
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

    /// Writes the log as JSON lines: a header line with the count of
    /// spans per name, then up to `per_name_cap` spans of each name.
    pub fn write_jsonl(&self, path: &Path, per_name_cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.name).or_default() += 1;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let header: Vec<String> = counts.iter().map(|(n, c)| format!("\"{n}\":{c}")).collect();
        writeln!(
            out,
            "{{\"spans\":{},\"per_name_cap\":{per_name_cap},\"per_name\":{{{}}}}}",
            self.spans.len(),
            header.join(",")
        )?;
        let self_ns = self.self_ns();
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            if *n >= per_name_cap {
                continue;
            }
            *n += 1;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"items\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.items, self_ns[id]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_relinks() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = Trace::new(t0);
        let root = log.record("root", None, at(0), at(10), 1);
        log.record("a", Some(root), at(1), at(4), 3);
        let mut other = Trace::new(t0);
        let b = other.record("b", None, at(5), at(9), 2);
        other.record("c", Some(b), at(6), at(7), 1);
        log.absorb(other, Some(root));
        assert_eq!(log.spans()[2].parent, Some(root));
        assert_eq!(log.spans()[3].parent, Some(2));
        let selfs = log.self_ns();
        assert_eq!(selfs[root], 3_000_000);
        assert_eq!(selfs[2], 3_000_000);
        assert_eq!(log.durations_ns("b"), vec![4_000_000.0]);
    }
}
