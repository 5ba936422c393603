//! Channels and whole traces.

use crate::session::Session;
use serde::{Deserialize, Serialize};

/// Identifier of a live channel.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One live channel: identity, source bitrate, and its sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    id: ChannelId,
    /// Source (top-rung) bitrate of the channel in kbit/s.
    bitrate_kbps: f64,
    sessions: Vec<Session>,
}

impl Channel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if the bitrate is not positive or sessions overlap /
    /// are unsorted.
    pub fn new(id: ChannelId, bitrate_kbps: f64, sessions: Vec<Session>) -> Self {
        assert!(bitrate_kbps > 0.0, "bitrate must be positive");
        assert!(
            sessions.windows(2).all(|w| w[0].end_slot() <= w[1].start_slot()),
            "sessions must be sorted and non-overlapping"
        );
        Self { id, bitrate_kbps, sessions }
    }

    /// Channel identifier.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Source bitrate in kbit/s.
    pub fn bitrate_kbps(&self) -> f64 {
        self.bitrate_kbps
    }

    /// Sessions in start order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }
}

/// A full dataset: many channels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    channels: Vec<Channel>,
}

impl Trace {
    /// Builds a trace from channels.
    pub fn new(channels: Vec<Channel>) -> Self {
        Self { channels }
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Looks a channel up by id.
    pub fn channel(&self, id: ChannelId) -> Option<&Channel> {
        self.channels.iter().find(|c| c.id() == id)
    }

    /// Total session count.
    pub fn session_count(&self) -> usize {
        self.channels.iter().map(|c| c.sessions().len()).sum()
    }

    /// Iterator over every session with its channel.
    pub fn sessions(&self) -> impl Iterator<Item = (&Channel, &Session)> {
        self.channels.iter().flat_map(|c| c.sessions().iter().map(move |s| (c, s)))
    }

    /// Drops sessions failing the ≤ 10 h filter and channels left with
    /// none — the paper's cleansing step.
    pub fn filtered(self) -> Trace {
        let channels = self
            .channels
            .into_iter()
            .filter_map(|c| {
                let sessions: Vec<Session> = c
                    .sessions
                    .into_iter()
                    .filter(Session::within_duration_filter)
                    .collect();
                if sessions.is_empty() {
                    None
                } else {
                    Some(Channel { id: c.id, bitrate_kbps: c.bitrate_kbps, sessions })
                }
            })
            .collect();
        Trace { channels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> Channel {
        Channel::new(
            ChannelId(1),
            6000.0,
            vec![Session::new(0, vec![5, 6]), Session::new(10, vec![7])],
        )
    }

    #[test]
    fn trace_session_count_and_lookup() {
        let t = Trace::new(vec![channel()]);
        assert_eq!(t.session_count(), 2);
        assert!(t.channel(ChannelId(1)).is_some());
        assert!(t.channel(ChannelId(9)).is_none());
        assert_eq!(t.sessions().count(), 2);
    }

    #[test]
    fn filtering_drops_long_sessions_and_empty_channels() {
        let long = Session::new(0, vec![1; 121]);
        let short = Session::new(200, vec![1; 5]);
        let c1 = Channel::new(ChannelId(1), 3000.0, vec![long.clone()]);
        let c2 = Channel::new(ChannelId(2), 3000.0, vec![long, short]);
        let filtered = Trace::new(vec![c1, c2]).filtered();
        assert_eq!(filtered.channels().len(), 1);
        assert_eq!(filtered.session_count(), 1);
        assert_eq!(filtered.channels()[0].id(), ChannelId(2));
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_sessions_rejected() {
        let _ = Channel::new(
            ChannelId(1),
            3000.0,
            vec![Session::new(0, vec![1, 1, 1]), Session::new(2, vec![1])],
        );
    }
}
