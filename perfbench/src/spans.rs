//! In-memory spans around the benchmark's calls into the workspace.
//!
//! Every timed call goes through [`Spans::time`], which always measures
//! the wall time the metrics need; only a traced run (`--trace 1`) also
//! keeps a record of it. Records hold the call's name, the job it
//! belongs to, its start and end, and its parent (the job span open
//! around it). They stay in memory until [`write_jsonl`] writes them
//! out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public call (or job) the span wraps.
    pub name: &'static str,
    /// Identifier shared by every span of one job.
    pub job: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// A span recorder; one per thread, merged at the end.
#[derive(Clone, Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    /// Recorded spans, in start order.
    pub list: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            list: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's origin and
    /// setting.
    pub fn fork(&self) -> Spans {
        Spans {
            on: self.on,
            origin: self.origin,
            open: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Whether this recorder keeps spans.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, job: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.list.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.list[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, returning its value and wall seconds; records a span
    /// when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name, job);
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        self.end();
        (value, secs)
    }

    /// Appends another recorder's spans (its parents re-indexed).
    pub fn merge(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in seconds of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-name `(count, total seconds, self seconds)`, where a span's
    /// self time is its duration minus its children's.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.list.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 * 1e-9;
            e.2 += total.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_reindexes_parents() {
        let mut spans = Spans::new(true);
        spans.begin("job", 1);
        spans.time("call", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end();
        let mut other = spans.fork();
        other.begin("job", 2);
        other.time("call", 2, || ());
        other.end();
        spans.merge(other);
        assert_eq!(spans.list[3].parent, Some(2));
        let summary = spans.summary();
        let (count, total, own) = summary["job"];
        assert_eq!(count, 2);
        assert!(own < total && total - own >= 0.002);
        assert_eq!(spans.durations("call").len(), 2);
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.time("call", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(spans.list.is_empty());
    }
}
