//! The blackbox flight recorder: a lock-free bounded ring of the last
//! N telemetry events.
//!
//! Every shard worker carries a [`FlightRing`]; the hub holds a clone
//! of the handle. The worker pushes tiny [`FlightEvent`]s (a solve's
//! begin and end, its death) on its hot path — one `fetch_add` plus
//! one slot write, no locks, overwriting the oldest entry once full —
//! and when the worker dies, the supervisor snapshots the ring into
//! the postmortem record.
//!
//! ## Concurrency model
//!
//! Writes are claim-then-publish: a writer claims the next sequence
//! number with one atomic `fetch_add`, stamps the slot's version to
//! *odd* (write in progress), stores the payload field-by-field in
//! atomics, then stamps the version to the *even* publication value
//! for that sequence. Readers ([`FlightRing::snapshot`]) walk the last
//! `capacity` sequence numbers and accept a slot only when the
//! publication stamp matches before **and** after copying the payload
//! — a torn or overwritten slot is simply skipped. No reader ever
//! blocks a writer; a writer never waits for anything.
//!
//! Labels are `&'static str` interned in a small process-global table
//! so a slot write stays tear-free: the ring stores the table index,
//! never the pointer.

use crate::json::Json;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

/// Default per-worker ring capacity: enough to cover several slots of
/// prepare/solve/seal activity before overwrite.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// What kind of moment a flight event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightKind {
    /// A span (stage) began.
    SpanBegin,
    /// A span (stage) completed.
    SpanEnd,
    /// The worker noticed it was about to die (injected stage fault).
    Death,
}

impl FlightKind {
    const ALL: [FlightKind; 3] = [FlightKind::SpanBegin, FlightKind::SpanEnd, FlightKind::Death];

    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(code: u64) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Short lowercase tag for text dumps.
    pub fn tag(self) -> &'static str {
        match self {
            FlightKind::SpanBegin => "span_begin",
            FlightKind::SpanEnd => "span_end",
            FlightKind::Death => "death",
        }
    }
}

/// One blackbox entry: what happened (`kind` + `label`), when
/// (`at_us`, microseconds since the obs epoch), in what order (`seq`,
/// ring-local), and two free numeric attachments (`a`, `b` — slot,
/// device count, generation, …).
///
/// `at_us` is wall-clock-derived and therefore excluded from replay
/// determinism comparisons downstream; `seq`, `kind`, `label`, `a`,
/// and `b` are deterministic for a deterministic run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Position in the ring's total event stream (0-based, monotone).
    pub seq: u64,
    /// Microseconds since the observation epoch.
    pub at_us: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Static label (span/op name).
    pub label: &'static str,
    /// Primary numeric attachment.
    pub a: f64,
    /// Secondary numeric attachment.
    pub b: f64,
}

impl FlightEvent {
    /// Serializes to a single-line JSON object for postmortem dumps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::Num(self.seq as f64)),
            ("at_us", Json::Num(self.at_us as f64)),
            ("kind", Json::Str(self.kind.tag().to_owned())),
            ("label", Json::Str(self.label.to_owned())),
            ("a", Json::Num(self.a)),
            ("b", Json::Num(self.b)),
        ])
    }
}

// Labels are &'static str, but a fat pointer cannot be stored or read
// tear-free through plain atomics. Intern them: the ring stores an
// index into this append-only table. The table is tiny (one entry per
// distinct call-site label) and lookups on the write path are a short
// read-locked scan.
static LABELS: RwLock<Vec<&'static str>> = RwLock::new(Vec::new());

fn intern(label: &'static str) -> u64 {
    {
        let table = LABELS.read().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = table.iter().position(|&l| std::ptr::eq(l, label) || l == label) {
            return idx as u64;
        }
    }
    let mut table = LABELS.write().unwrap_or_else(|e| e.into_inner());
    if let Some(idx) = table.iter().position(|&l| l == label) {
        return idx as u64;
    }
    table.push(label);
    (table.len() - 1) as u64
}

fn label_for(idx: u64) -> &'static str {
    let table = LABELS.read().unwrap_or_else(|e| e.into_inner());
    table.get(idx as usize).copied().unwrap_or("?")
}

/// One ring slot: a version stamp plus the event payload spread over
/// word-sized atomics so every individual load/store is tear-free.
#[derive(Debug)]
struct Slot {
    /// `2*seq + 1` while the writer owning `seq` is mid-write,
    /// `2*seq + 2` once published. Starts at 0 (never written).
    version: AtomicU64,
    at_us: AtomicU64,
    kind: AtomicU64,
    label: AtomicU64,
    a_bits: AtomicU64,
    b_bits: AtomicU64,
    /// Mix of the payload *and* the owning sequence number; binds the
    /// fields to one specific write so a reader can reject a slot
    /// whose fields were clobbered by a lapping writer even when the
    /// version stamp happens to look right.
    check: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            version: AtomicU64::new(0),
            at_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            label: AtomicU64::new(0),
            a_bits: AtomicU64::new(0),
            b_bits: AtomicU64::new(0),
            check: AtomicU64::new(0),
        }
    }
}

/// splitmix64-style mix for the slot checksum.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn checksum(seq: u64, at_us: u64, kind: u64, label: u64, a_bits: u64, b_bits: u64) -> u64 {
    mix(seq)
        ^ mix(at_us.wrapping_add(1))
        ^ mix(kind.wrapping_add(2))
        ^ mix(label.wrapping_add(3))
        ^ mix(a_bits.wrapping_add(4))
        ^ mix(b_bits.wrapping_add(5))
}

/// A lock-free bounded ring buffer of [`FlightEvent`]s — the blackbox.
///
/// Push never blocks and overwrites the oldest entry once the ring is
/// full; [`snapshot`](Self::snapshot) returns the retained suffix
/// (oldest first), skipping any slot caught mid-overwrite.
#[derive(Debug)]
pub struct FlightRing {
    slots: Box<[Slot]>,
    head: AtomicUsize,
}

impl FlightRing {
    /// A ring retaining the last `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "flight ring needs at least one slot");
        Self {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Ring with the default capacity.
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Acquire) as u64
    }

    /// Events currently retained.
    pub fn depth(&self) -> usize {
        (self.total() as usize).min(self.capacity())
    }

    /// Records one event. Lock-free: one `fetch_add` to claim a
    /// sequence number, then a stamped slot write.
    pub fn push(&self, kind: FlightKind, label: &'static str, a: f64, b: f64) {
        let at_us = crate::epoch().elapsed().as_micros().min(u64::MAX as u128) as u64;
        let seq = self.head.fetch_add(1, Ordering::AcqRel) as u64;
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let (kind_code, label_idx) = (kind.code(), intern(label));
        let (a_bits, b_bits) = (a.to_bits(), b.to_bits());
        slot.version.store(2 * seq + 1, Ordering::Release);
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.kind.store(kind_code, Ordering::Relaxed);
        slot.label.store(label_idx, Ordering::Relaxed);
        slot.a_bits.store(a_bits, Ordering::Relaxed);
        slot.b_bits.store(b_bits, Ordering::Relaxed);
        slot.check
            .store(checksum(seq, at_us, kind_code, label_idx, a_bits, b_bits), Ordering::Relaxed);
        slot.version.store(2 * seq + 2, Ordering::Release);
    }

    /// Copies out the retained events, oldest first. Entries a
    /// concurrent writer is overwriting (or has already lapped) are
    /// skipped rather than waited for — the blackbox favors
    /// availability over completeness.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire) as u64;
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let slot = &self.slots[(seq as usize) % self.slots.len()];
            let published = 2 * seq + 2;
            if slot.version.load(Ordering::Acquire) != published {
                continue;
            }
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let kind_code = slot.kind.load(Ordering::Relaxed);
            let label_idx = slot.label.load(Ordering::Relaxed);
            let a_bits = slot.a_bits.load(Ordering::Relaxed);
            let b_bits = slot.b_bits.load(Ordering::Relaxed);
            let check = slot.check.load(Ordering::Relaxed);
            // Validate after copying: the version must still match and
            // the checksum must bind these exact fields to this seq —
            // anything a lapping writer touched mid-copy is dropped.
            if slot.version.load(Ordering::Acquire) != published
                || check != checksum(seq, at_us, kind_code, label_idx, a_bits, b_bits)
            {
                continue;
            }
            let Some(kind) = FlightKind::from_code(kind_code) else { continue };
            events.push(FlightEvent {
                seq,
                at_us,
                kind,
                label: label_for(label_idx),
                a: f64::from_bits(a_bits),
                b: f64::from_bits(b_bits),
            });
        }
        events
    }

    /// Forgets everything (fresh start between runs). Not safe to race
    /// with concurrent pushes; call only from the owning coordinator
    /// while the producer is quiescent.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.version.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_retains_the_newest_suffix_in_order() {
        let ring = FlightRing::new(4);
        for i in 0..10 {
            ring.push(FlightKind::SpanEnd, "observe", i as f64, 0.0);
        }
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.depth(), 4);
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let values: Vec<f64> = events.iter().map(|e| e.a).collect();
        assert_eq!(values, vec![6.0, 7.0, 8.0, 9.0]);
        assert!(events.iter().all(|e| e.label == "observe"));
    }

    #[test]
    fn ring_under_capacity_returns_everything() {
        let ring = FlightRing::new(8);
        ring.push(FlightKind::SpanBegin, "solve", 3.0, 1.0);
        ring.push(FlightKind::Death, "solve", 3.0, 1.0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, FlightKind::SpanBegin);
        assert_eq!(events[1].kind, FlightKind::Death);
        assert_eq!(events[1].b, 1.0);
    }

    #[test]
    fn reset_empties_the_ring() {
        let ring = FlightRing::new(2);
        ring.push(FlightKind::SpanEnd, "seal", 0.0, 0.0);
        ring.reset();
        assert_eq!(ring.depth(), 0);
        assert!(ring.snapshot().is_empty());
        ring.push(FlightKind::SpanEnd, "seal", 5.0, 0.0);
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(ring.snapshot()[0].seq, 0);
    }

    #[test]
    fn concurrent_pushes_and_snapshots_never_tear() {
        // Hammer the ring from several writers while a reader
        // snapshots continuously; every surviving event must be
        // internally consistent (a == b by construction).
        let ring = Arc::new(FlightRing::new(8));
        let mut writers = Vec::new();
        for t in 0..3u64 {
            let ring = ring.clone();
            writers.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let v = (t * 1000 + i) as f64;
                    ring.push(FlightKind::SpanEnd, "op", v, v);
                }
            }));
        }
        let reader = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for event in ring.snapshot() {
                        assert_eq!(event.a, event.b, "torn slot leaked out");
                        assert_eq!(event.kind, FlightKind::SpanEnd);
                        assert_eq!(event.label, "op");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.total(), 1500);
        assert_eq!(ring.snapshot().len(), 8);
    }
}
