//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around each public call the benchmark makes (name,
//! start, end, parent, op id), kept in memory, and written out as JSON
//! lines when the run ends. The search engine's own phase spans (a
//! `pase_obs::Trace` passed to `Search::trace`) are imported as children of
//! the benchmark's `search` span, so one tree covers each op.

use pase_obs::{phase, Trace};
use std::borrow::Cow;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Rec {
    pub name: Cow<'static, str>,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Spans in recording order. All spans of one op are recorded before the
/// next op starts, so each op's spans are contiguous.
pub struct Spans {
    epoch: Instant,
    pub recs: Vec<Rec>,
}

impl Spans {
    /// `capacity` spans are reserved and written once up front, so
    /// recording inside a timed op neither grows the buffer nor takes the
    /// page faults of touching it first.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut recs = Vec::with_capacity(capacity);
        recs.resize_with(capacity, || Rec {
            name: Cow::Borrowed(""),
            op: 0,
            parent: None,
            start: 0,
            end: 0,
        });
        recs.clear();
        Self {
            epoch: Instant::now(),
            recs,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(Cow::Borrowed(name), op, parent, start, start)
    }

    pub fn close(&mut self, id: usize) {
        self.recs[id].end = self.now();
    }

    fn push(
        &mut self,
        name: Cow<'static, str>,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.recs.push(Rec {
            name,
            op,
            parent,
            start,
            end,
        });
        self.recs.len() - 1
    }

    /// Import the engine's phase spans from `trace`, whose epoch is at or
    /// just after `t0` on this recorder's clock, as children of `parent`.
    /// The nested `kernel` spans become children of the fill span that
    /// contains them.
    pub fn import(&mut self, trace: &Trace, t0: u64, op: u64, parent: usize) {
        let mut spans = trace.spans();
        spans.sort_by_key(|s| (s.start, s.name == phase::KERNEL));
        let mut fills: Vec<usize> = Vec::new();
        for s in spans {
            let start = t0 + s.start.as_nanos() as u64;
            let end = start + s.dur.as_nanos() as u64;
            let p = if s.name == phase::KERNEL {
                fills
                    .iter()
                    .rev()
                    .copied()
                    .find(|&f| self.recs[f].start <= start && end <= self.recs[f].end)
                    .unwrap_or(parent)
            } else {
                parent
            };
            let fill = is_fill(&s.name);
            let id = self.push(Cow::Owned(s.name), op, Some(p), start, end);
            if fill {
                fills.push(id);
            }
        }
    }

    pub fn dur(&self, id: usize) -> u64 {
        self.recs[id].end.saturating_sub(self.recs[id].start)
    }

    /// The ids of `root` and every later span of the same op.
    fn op_range(&self, root: usize) -> std::ops::Range<usize> {
        let op = self.recs[root].op;
        let len = self.recs[root..].iter().take_while(|r| r.op == op).count();
        root..root + len
    }

    /// The span's duration minus the part of it its children cover.
    fn self_time(&self, id: usize, range: std::ops::Range<usize>) -> u64 {
        let (s, e) = (self.recs[id].start, self.recs[id].end);
        let mut iv: Vec<(u64, u64)> = range
            .filter(|&c| self.recs[c].parent == Some(id))
            .map(|c| (self.recs[c].start.max(s), self.recs[c].end.min(e)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        (e - s).saturating_sub(covered)
    }

    /// Every span of `root`'s op below `root`, with its self time.
    pub fn descendants(&self, root: usize) -> Vec<(usize, u64)> {
        let range = self.op_range(root);
        range
            .clone()
            .skip(1)
            .map(|id| (id, self.self_time(id, range.clone())))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                r.op,
                pase_obs::json::escape(&r.name),
                r.start,
                r.end
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        w.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The spans of one op: the first span opened is the op's root, every
/// later one its child. Without a recorder every call is a no-op, so one
/// code path serves traced and untraced ops.
pub struct OpSpans<'a> {
    rec: Option<&'a mut Spans>,
    op: u64,
    root: Option<usize>,
}

impl<'a> OpSpans<'a> {
    pub fn new(rec: Option<&'a mut Spans>, op: u64) -> Self {
        Self {
            rec,
            op,
            root: None,
        }
    }

    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let rec = self.rec.as_mut()?;
        let id = rec.open(name, self.op, self.root);
        self.root.get_or_insert(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(rec), Some(id)) = (self.rec.as_mut(), id) {
            rec.close(id);
        }
    }

    /// The recorder's clock, when tracing.
    pub fn now(&self) -> Option<u64> {
        self.rec.as_ref().map(|r| r.now())
    }

    /// Import an engine trace under span `parent` (see [`Spans::import`]).
    pub fn import(&mut self, trace: &Trace, t0: u64, parent: Option<usize>) {
        if let (Some(rec), Some(parent)) = (self.rec.as_mut(), parent) {
            rec.import(trace, t0, self.op, parent);
        }
    }
}

/// Whether an engine span is a DP fill span (per-wavefront or sequential).
pub fn is_fill(name: &str) -> bool {
    phase::is_wavefront(name) || name == phase::SEQUENTIAL_FILL
}
