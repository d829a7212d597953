//! In-memory span recorder for the traced run.
//!
//! Every span is recorded around one call into a layer's public function
//! (or around one whole operation, the root span of a run id). Spans stay in
//! memory while the benchmark runs and are written out once, when it ends.
//! A span's self time is its duration minus the durations of its direct
//! children; a root span's self time is the operation time no layer span
//! covers, which is what `trace.unaccounted_share` reports.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Most spans a run keeps (about 32 MB in memory, 40 MB written out).
const SPAN_CAP: usize = 1 << 20;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
    pass_start: usize,
    largest_pass: usize,
}

/// Totals of one span name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            pass_start: 0,
            largest_pass: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `run`; close it with [`Recorder::end`].
    pub fn begin_op(&mut self, run: u32, name: &'static str) {
        assert!(self.stack.is_empty(), "operation {name} opened inside another span");
        self.run = run;
        self.begin(name);
    }

    pub fn begin(&mut self, name: &'static str) {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.stack.push(id);
    }

    pub fn end(&mut self) {
        let id = self.stack.pop().expect("span end without a begin");
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Records `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Whether another traced pass fits under the span cap, judged by the
    /// largest pass so far; when it does, the next pass starts here.
    pub fn room_for_pass(&mut self) -> bool {
        self.largest_pass = self.largest_pass.max(self.spans.len() - self.pass_start);
        let room = self.spans.len() + self.largest_pass <= SPAN_CAP;
        if room {
            self.pass_start = self.spans.len();
        }
        room
    }

    /// Per-name totals and self times over every recorded span.
    pub fn summarize(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let agg = by_name.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child);
        }
        by_name
    }

    /// Writes every span as one tab-separated line:
    /// `run  id  parent  name  start_ns  end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(out, "{}\t{id}\t-\t{}\t{}\t{}", s.run, s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{}\t{id}\t{}\t{}\t{}\t{}",
                    s.run, s.parent, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

/// Self time of `name` per unit of `work`, in nanoseconds; 0 without work.
pub fn ns_per(summary: &BTreeMap<&'static str, Agg>, name: &str, work: f64) -> f64 {
    match summary.get(name) {
        Some(a) if work > 0.0 => a.self_ns as f64 / work,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut rec = Recorder::new();
        rec.begin_op(7, "op");
        rec.time("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        rec.end();
        let s = rec.summarize();
        let (op, leaf) = (s["op"], s["leaf"]);
        assert_eq!(op.self_ns + leaf.total_ns, op.total_ns);
        assert!(leaf.self_ns >= 2_000_000);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[1].run, 7);
    }
}
