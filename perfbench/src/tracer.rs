//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent). Per-tick root spans
//! ([`Tracer::enter_sampled`]) are kept one in `every`, and nothing is
//! kept past `cap` spans, so storage stays bounded; a skipped root skips
//! its whole subtree. Self time is a span's duration minus the part its children
//! cover. Spans are written out as TSV when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Keep one sampled root span (with its subtree) in this many.
    every: u64,
    roots: u64,
    /// Depth of an unsampled subtree currently open (0 = recording).
    skipping: u32,
    cap: usize,
}

/// Per-name totals derived from the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(every: u64, cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            stack: Vec::new(),
            every: every.max(1),
            roots: 0,
            skipping: 0,
            cap,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that is always kept (within the cap).
    pub fn enter(&mut self, name: &'static str) {
        self.open(name, false);
    }

    /// Opens a span that, as a root, is kept one time in `every`.
    pub fn enter_sampled(&mut self, name: &'static str) {
        self.open(name, true);
    }

    fn open(&mut self, name: &'static str, sampled: bool) {
        if self.skipping > 0 {
            self.skipping += 1;
            return;
        }
        let mut skip = self.spans.len() >= self.cap;
        if self.stack.is_empty() && sampled {
            self.roots += 1;
            skip |= !(self.roots - 1).is_multiple_of(self.every);
        }
        if skip {
            self.skipping = 1;
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    pub fn exit(&mut self) {
        if self.skipping > 0 {
            self.skipping -= 1;
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += total.saturating_sub(child);
        }
        out
    }

    /// Writes every recorded span as `id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
