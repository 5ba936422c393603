//! The benchmark's own span recorder: one in-memory span at every
//! layer boundary the benchmark calls through, written out as
//! `e2e_trace.json` when a traced run ends.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! the crates' public functions; nothing inside the program is touched.
//! A recorder belongs to one thread; threads merge theirs at the end.

use crate::stats::median;
use lpvs_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Slot, request, or repetition the span belongs to.
    id: u64,
}

/// An open span; hand it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

#[derive(Debug)]
pub struct Recorder {
    /// Whether spans are being recorded. Off for every end-to-end pass;
    /// a traced pass flips it per block to price the spans themselves.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span this thread has open.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.stack.push(index);
        Open(index)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[open.0 as usize].end_ns = end_ns;
        // A span opened while recording was on may close after it was
        // switched off; the stack still has to unwind.
        while let Some(top) = self.stack.pop() {
            if top == open.0 {
                break;
            }
        }
    }

    /// Records an interval measured elsewhere (the fleet adapter keeps
    /// raw timestamps and replays them here after the run).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: NO_PARENT,
            id,
        });
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Folds another thread's spans in, keeping parent links intact.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Median duration in seconds of the spans called `name` (0 if none).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per name: count, total time, and self time (a span's duration
    /// minus the part of it its child spans cover).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 * 1e-9;
            entry.2 += total.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// The trace file: a per-name summary plus every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                Json::obj([
                    ("name", Json::Str(name.to_owned())),
                    ("count", Json::Num(count as f64)),
                    ("total_s", Json::Num(total)),
                    ("self_s", Json::Num(own)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_owned()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    if s.parent == NO_PARENT {
                        Json::Null
                    } else {
                        Json::Num(f64::from(s.parent))
                    },
                    Json::Num(s.id as f64),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_owned())),
            ("seed", Json::Str(seed.to_string())),
            (
                "columns",
                Json::Str("name,start_ns,end_ns,parent_index,id".to_owned()),
            ),
            ("summary", Json::Arr(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(true, Instant::now());
        let outer = rec.enter("outer", 0);
        let inner = rec.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(inner);
        rec.exit(outer);
        let summary = rec.summary();
        let (count, total, own) = summary["outer"];
        let (_, inner_total, inner_own) = summary["inner"];
        assert_eq!(count, 1);
        assert!(inner_total >= 0.002);
        assert_eq!(inner_total, inner_own);
        assert!((total - inner_total - own).abs() < 1e-12);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        let v = rec.span("quiet", 1, || 7);
        assert_eq!(v, 7);
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.median_s("quiet"), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        a.span("a", 0, || ());
        let mut b = Recorder::new(true, epoch);
        let outer = b.enter("b.outer", 1);
        b.span("b.inner", 1, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.summary()["b.outer"].0, 1);
        // b.inner's parent is b.outer, now at index 1.
        assert_eq!(a.spans[2].parent, 1);
    }
}
