//! # lpvs-trace — Twitch-like live-streaming workload traces
//!
//! The paper drives its emulator with a 2014 Twitch dataset: thousands
//! of live channels sampled every 5 minutes, filtered to sessions of at
//! most 10 hours — 1,566 channels and 4,761 sessions (§VI-A, Fig. 5).
//! That dataset is not redistributable, so this crate provides:
//!
//! * [`session`] / [`channel`] — the trace data model: channels hosting
//!   live sessions, each session carrying a per-slot viewer-count
//!   series at the 5-minute sampling interval;
//! * [`generator`] — a synthetic trace generator calibrated to the
//!   reported statistics (channel/session counts, the Fig. 5 duration
//!   histogram shape, power-law channel popularity, ramp-and-decay
//!   viewer dynamics);
//! * [`csv`] — a line-oriented serialization so traces round-trip to
//!   disk, and so anyone holding the real dataset can import it;
//! * [`histogram`] — the session-duration histogram behind Fig. 5;
//! * [`diurnal`] — the time-of-day viewership envelope capacity
//!   studies scale their load by;
//! * [`summary`] — dataset-level statistics.
//!
//! # Example
//!
//! ```
//! use lpvs_trace::generator::TraceGenerator;
//!
//! let trace = TraceGenerator::paper_scale(7).generate();
//! assert_eq!(trace.channels().len(), 1566);
//! let sessions: usize = trace.channels().iter().map(|c| c.sessions().len()).sum();
//! assert!((4300..5300).contains(&sessions), "sessions {sessions}");
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod csv;
pub mod diurnal;
pub mod generator;
pub mod histogram;
pub mod session;
pub mod summary;

pub use channel::{Channel, ChannelId, Trace};
pub use csv::{parse_trace, write_trace, TraceParseError};
pub use diurnal::diurnal_factor;
pub use generator::TraceGenerator;
pub use histogram::DurationHistogram;
pub use session::Session;
pub use summary::TraceSummary;

/// Sampling interval of the dataset (and the LPVS scheduling period):
/// 5 minutes.
pub const SLOT_MINUTES: f64 = 5.0;

/// Maximum retained session length: 10 hours = 120 slots (the paper's
/// filtering rule).
pub const MAX_SESSION_SLOTS: u32 = 120;

/// Channel count of the filtered paper dataset.
pub const PAPER_CHANNELS: usize = 1566;

/// Session count of the filtered paper dataset.
pub const PAPER_SESSIONS: usize = 4761;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(MAX_SESSION_SLOTS as f64 * SLOT_MINUTES, 600.0);
        assert!((PAPER_SESSIONS as f64 / PAPER_CHANNELS as f64 - 3.04).abs() < 0.01);
    }
}
