//! Video chunks — the unit LPVS schedules and meters.

use lpvs_display::spec::DisplaySpec;
use lpvs_display::stats::FrameStats;
use serde::{Deserialize, Serialize};

/// Identifier of a chunk within its video (the paper's `CID`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ChunkId(pub u32);

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One video chunk: a few seconds of content summarized by its frame
/// statistics.
///
/// # Example
///
/// ```
/// use lpvs_media::chunk::{Chunk, ChunkId};
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
///
/// let chunk = Chunk::new(ChunkId(0), 10.0, FrameStats::uniform_gray(0.5), 3000.0);
/// let spec = DisplaySpec::oled_phone(Resolution::HD);
/// // Energy to play the chunk = power rate × duration.
/// let joules = chunk.energy_joules(&spec);
/// assert!(joules > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chunk {
    /// Chunk identifier within its video.
    pub id: ChunkId,
    /// Playback duration Δ_κ in seconds.
    pub duration_secs: f64,
    /// Content statistics (averaged over the chunk's frames).
    pub stats: FrameStats,
    /// Encoded bitrate in kbit/s.
    pub bitrate_kbps: f64,
}

impl Chunk {
    /// Creates a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs` or `bitrate_kbps` is not strictly
    /// positive and finite.
    pub fn new(id: ChunkId, duration_secs: f64, stats: FrameStats, bitrate_kbps: f64) -> Self {
        assert!(
            duration_secs.is_finite() && duration_secs > 0.0,
            "chunk duration must be positive"
        );
        assert!(
            bitrate_kbps.is_finite() && bitrate_kbps > 0.0,
            "chunk bitrate must be positive"
        );
        Self { id, duration_secs, stats, bitrate_kbps }
    }

    /// Display power rate `p(κ)` (watts) when this chunk plays on
    /// `spec` — the paper's `p_{n,m}(κ)` estimated "with existing power
    /// models" (§IV-B).
    pub fn power_rate_watts(&self, spec: &DisplaySpec) -> f64 {
        spec.power_watts(&self.stats)
    }

    /// Display energy (joules) consumed playing this chunk on `spec`.
    pub fn energy_joules(&self, spec: &DisplaySpec) -> f64 {
        self.power_rate_watts(spec) * self.duration_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_display::spec::Resolution;

    fn chunk(luma: f64) -> Chunk {
        Chunk::new(ChunkId(1), 10.0, FrameStats::uniform_gray(luma), 3000.0)
    }

    #[test]
    fn energy_is_power_times_duration() {
        let spec = DisplaySpec::oled_phone(Resolution::HD);
        let c = chunk(0.5);
        assert!((c.energy_joules(&spec) - c.power_rate_watts(&spec) * 10.0).abs() < 1e-12);
    }

    #[test]
    fn brighter_chunk_draws_more_on_oled() {
        let spec = DisplaySpec::oled_phone(Resolution::HD);
        assert!(chunk(0.9).power_rate_watts(&spec) > chunk(0.2).power_rate_watts(&spec));
    }

    #[test]
    fn chunk_id_displays_compactly() {
        assert_eq!(ChunkId(7).to_string(), "c7");
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_rejected() {
        let _ = Chunk::new(ChunkId(0), 0.0, FrameStats::default(), 1000.0);
    }

    #[test]
    #[should_panic(expected = "bitrate")]
    fn zero_bitrate_rejected() {
        let _ = Chunk::new(ChunkId(0), 1.0, FrameStats::default(), 0.0);
    }
}
