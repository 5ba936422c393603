//! One live session: a contiguous broadcast with per-slot viewers.

use crate::{MAX_SESSION_SLOTS, SLOT_MINUTES};
use serde::{Deserialize, Serialize};

/// A contiguous live broadcast of one channel.
///
/// The viewer series has one entry per 5-minute slot; its length is the
/// session duration in slots.
///
/// # Example
///
/// ```
/// use lpvs_trace::session::Session;
///
/// let s = Session::new(12, vec![40, 55, 61, 58]);
/// assert_eq!(s.duration_slots(), 4);
/// assert_eq!(s.duration_minutes(), 20.0);
/// assert_eq!(s.peak_viewers(), 61);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Session {
    /// Global slot index at which the session starts.
    start_slot: u64,
    /// Viewer count per slot, from the start slot onward.
    viewers: Vec<u32>,
}

impl Session {
    /// Creates a session.
    ///
    /// # Panics
    ///
    /// Panics if the viewer series is empty.
    pub fn new(start_slot: u64, viewers: Vec<u32>) -> Self {
        assert!(!viewers.is_empty(), "a session spans at least one slot");
        Self { start_slot, viewers }
    }

    /// Global slot index of the first sample.
    pub fn start_slot(&self) -> u64 {
        self.start_slot
    }

    /// Global slot index one past the last sample.
    pub fn end_slot(&self) -> u64 {
        self.start_slot + self.viewers.len() as u64
    }

    /// Viewer count per slot.
    pub fn viewers(&self) -> &[u32] {
        &self.viewers
    }

    /// Duration in slots.
    pub fn duration_slots(&self) -> u32 {
        self.viewers.len() as u32
    }

    /// Duration in minutes.
    pub fn duration_minutes(&self) -> f64 {
        self.viewers.len() as f64 * SLOT_MINUTES
    }

    /// Largest per-slot viewer count.
    pub fn peak_viewers(&self) -> u32 {
        self.viewers.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-slot viewer count.
    pub fn mean_viewers(&self) -> f64 {
        self.viewers.iter().map(|&v| v as f64).sum::<f64>() / self.viewers.len() as f64
    }

    /// Total viewer-slots (the session's contribution to watch time).
    pub fn viewer_slots(&self) -> u64 {
        self.viewers.iter().map(|&v| u64::from(v)).sum()
    }

    /// True if the session passes the paper's ≤ 10 h filter.
    pub fn within_duration_filter(&self) -> bool {
        self.duration_slots() <= MAX_SESSION_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_indexing() {
        let s = Session::new(100, vec![1, 2, 3]);
        assert_eq!(s.end_slot(), 103);
    }

    #[test]
    fn aggregates() {
        let s = Session::new(0, vec![10, 30, 20]);
        assert_eq!(s.peak_viewers(), 30);
        assert!((s.mean_viewers() - 20.0).abs() < 1e-12);
        assert_eq!(s.viewer_slots(), 60);
    }

    #[test]
    fn duration_filter_boundary() {
        let ok = Session::new(0, vec![1; MAX_SESSION_SLOTS as usize]);
        let too_long = Session::new(0, vec![1; MAX_SESSION_SLOTS as usize + 1]);
        assert!(ok.within_duration_filter());
        assert!(!too_long.within_duration_filter());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_session_rejected() {
        let _ = Session::new(0, vec![]);
    }
}
