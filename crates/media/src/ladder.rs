//! Live-streaming bitrate/resolution ladder.
//!
//! Twitch-style services publish each stream at a ladder of
//! resolutions, each with a target bitrate. This module maps a
//! resolution to its rung's bitrate so the emulator can price the
//! display-appropriate variant each device is assigned (paper §VI-B:
//! "randomly choosing from available display resolutions under the
//! supported bitrates").

use lpvs_display::spec::Resolution;
use serde::{Deserialize, Serialize};

/// A resolution → bitrate ladder (kbit/s).
///
/// # Example
///
/// ```
/// use lpvs_media::ladder::BitrateLadder;
/// use lpvs_display::spec::Resolution;
///
/// let ladder = BitrateLadder::default();
/// assert_eq!(ladder.bitrate_kbps(Resolution::HD), 3000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitrateLadder {
    rungs: Vec<(Resolution, f64)>,
}

impl BitrateLadder {
    /// Builds a ladder from `(resolution, kbit/s)` rungs.
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty or bitrates are not strictly
    /// increasing with pixel count.
    pub fn new(mut rungs: Vec<(Resolution, f64)>) -> Self {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        rungs.sort_by_key(|(r, _)| r.pixels());
        assert!(
            rungs.windows(2).all(|w| w[0].1 < w[1].1),
            "bitrates must increase with resolution"
        );
        Self { rungs }
    }

    /// Target bitrate for `resolution` (exact rung, or interpolated by
    /// pixel count for off-ladder resolutions).
    pub fn bitrate_kbps(&self, resolution: Resolution) -> f64 {
        if let Some(&(_, b)) = self.rungs.iter().find(|(r, _)| *r == resolution) {
            return b;
        }
        // Off-ladder: scale the nearest rung by pixel ratio.
        let nearest = self
            .rungs
            .iter()
            .min_by_key(|(r, _)| r.pixels().abs_diff(resolution.pixels()))
            .expect("ladder is non-empty");
        nearest.1 * resolution.pixels() as f64 / nearest.0.pixels() as f64
    }
}

impl Default for BitrateLadder {
    /// The standard live-streaming ladder: 480p @ 1.2, 720p @ 3,
    /// 1080p @ 6, 1440p @ 10, 4K @ 20 Mbit/s.
    fn default() -> Self {
        Self::new(vec![
            (Resolution::SD, 1200.0),
            (Resolution::HD, 3000.0),
            (Resolution::FHD, 6000.0),
            (Resolution::QHD, 10_000.0),
            (Resolution::UHD, 20_000.0),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_is_ascending() {
        let l = BitrateLadder::default();
        assert_eq!(l.rungs.len(), 5);
        assert!(l.rungs.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn off_ladder_resolution_interpolates() {
        let l = BitrateLadder::default();
        let odd = Resolution { width: 1280, height: 720 };
        assert_eq!(l.bitrate_kbps(odd), 3000.0); // exact rung
        let wide = Resolution { width: 2560, height: 1080 };
        let b = l.bitrate_kbps(wide);
        assert!(b > 6000.0 && b < 10_000.0, "interpolated {b}");
    }

    #[test]
    #[should_panic(expected = "increase with resolution")]
    fn non_monotone_ladder_rejected() {
        let _ = BitrateLadder::new(vec![
            (Resolution::SD, 5000.0),
            (Resolution::HD, 3000.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one rung")]
    fn empty_ladder_rejected() {
        let _ = BitrateLadder::new(vec![]);
    }
}
