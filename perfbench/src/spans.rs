//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since a process-wide epoch), the span that caused it and the scenario
//! it belongs to. Spans stay in memory while the run executes and are
//! written out once at the end. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// "No parent": a root span.
pub const ROOT: u64 = u64::MAX;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Pass index and scenario index within the pass; `u32::MAX` marks a
    /// span that belongs to no scenario (set-up, whole-pass calls).
    pub pass: u32,
    pub scenario: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. Ids come from one process-wide counter, so
/// spans recorded on different threads (a watchdog thread under its
/// supervisor's span) merge without renumbering.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    scenario: u32,
    /// Parent for the first span opened with an empty stack (a span on
    /// another thread that caused this recorder's work).
    outer: u64,
}

impl Recorder {
    pub fn new(pass: u32, scenario: u32, outer: u64) -> Self {
        Recorder {
            spans: Vec::new(),
            open: Vec::new(),
            pass,
            scenario,
            outer,
        }
    }

    pub fn pass(&self) -> u32 {
        self.pass
    }

    pub fn scenario(&self) -> u32 {
        self.scenario
    }

    /// Re-targets the recorder at another scenario of the same pass.
    pub fn set_scenario(&mut self, scenario: u32) {
        self.scenario = scenario;
    }

    /// Opens a span; returns its id.
    pub fn begin(&mut self, name: &'static str) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map_or(self.outer, |&i| self.spans[i].id);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            pass: self.pass,
            scenario: self.scenario,
            start: now_ns(),
            end: 0,
        });
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let t = now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = t;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Moves every span of `other` into `self`.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (duration minus the time its children cover),
/// plus a list of nesting violations: a child outside its parent's
/// interval, or two children of one parent that overlap.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, Vec<String>) {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push(i);
        }
    }
    let mut problems = Vec::new();
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_by_key(|&k| spans[k].start);
        let mut covered = 0u64;
        let mut last_end = s.start;
        for &k in kids.iter() {
            let c = &spans[k];
            if c.start < s.start || c.end > s.end {
                problems.push(format!(
                    "span {} `{}` escapes parent `{}`",
                    c.id, c.name, s.name
                ));
            }
            if c.start < last_end {
                problems.push(format!("span {} `{}` overlaps a sibling", c.id, c.name));
            }
            last_end = c.end;
            covered += c.dur();
        }
        out.push(s.dur().saturating_sub(covered));
    }
    (out, problems)
}

/// Writes the spans as tab-separated lines
/// (`id parent name pass scenario start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tpass\tscenario\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            "-".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.name, s.pass, s.scenario, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_span() {
        let mut rec = Recorder::new(0, 3, ROOT);
        rec.span("root", |r| {
            r.span("a", |r| r.span("b", |_| std::hint::black_box(1 + 1)));
            r.span("c", |_| ());
        });
        let (self_ns, problems) = self_times(rec.spans());
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(self_ns.iter().sum::<u64>(), rec.spans()[0].dur());
        assert!(rec.spans().iter().all(|s| s.scenario == 3));
        assert_eq!(rec.spans()[2].parent, rec.spans()[1].id);
    }
}
