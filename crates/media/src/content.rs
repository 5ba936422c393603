//! Genre-conditioned synthetic content model.
//!
//! Real video exhibits strong temporal correlation — a dark dungeon
//! scene stays dark for many chunks, then cuts to a bright menu. This
//! module models per-chunk content statistics as a two-level process:
//! a slow Markov *scene* state (dark / mid / bright key) plus fast
//! per-chunk jitter, with per-genre parameters for brightness range and
//! color bias. The power models only see the resulting
//! [`FrameStats`] sequences, so
//! matching these first- and second-order statistics exercises the same
//! power dynamics as decoded pixels would (DESIGN.md §2).
//!
//! Each chunk is drawn as encoded RGB means whose histogram is the
//! display crate's one synthetic kernel around their luma bin, so the
//! model synthesizes [`CompactStats`] — the bin and the three linear
//! means, all the panel models read — and
//! [`chunk_stats`](ContentModel::chunk_stats) expands them through that
//! kernel. The emulator prices the compact chunks directly.
//!
//! [`FrameStats`]: lpvs_display::stats::FrameStats
//! [`CompactStats`]: lpvs_display::stats::CompactStats

use crate::chunk::{Chunk, ChunkId};
use crate::ladder::BitrateLadder;
use crate::video::{Video, VideoId};
use lpvs_display::spec::Resolution;
use lpvs_display::stats::{CompactStats, FrameStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Content genre of a live channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Genre {
    /// Video games: dark-leaning, saturated, frequent scene cuts.
    Gaming,
    /// Sports: bright, green-leaning, slow scene changes.
    Sports,
    /// Film/cinematic: wide dynamic range, slow cuts.
    Movie,
    /// Talk shows / IRL: mid-key, warm (skin-tone) colors, static.
    Talk,
    /// Music performances: dark stages with bright highlights.
    Music,
}

impl Genre {
    /// All genres, for sampling.
    pub const ALL: [Genre; 5] =
        [Genre::Gaming, Genre::Sports, Genre::Movie, Genre::Talk, Genre::Music];

    /// Typical Twitch-era popularity weights (gaming dominates).
    pub fn popularity_weight(&self) -> f64 {
        match self {
            Genre::Gaming => 0.55,
            Genre::Talk => 0.20,
            Genre::Music => 0.10,
            Genre::Sports => 0.08,
            Genre::Movie => 0.07,
        }
    }

    /// (dark, mid, bright) scene key luma anchors for this genre.
    fn scene_lumas(&self) -> [f64; 3] {
        match self {
            Genre::Gaming => [0.22, 0.40, 0.62],
            Genre::Sports => [0.45, 0.60, 0.75],
            Genre::Movie => [0.18, 0.42, 0.70],
            Genre::Talk => [0.38, 0.50, 0.62],
            Genre::Music => [0.12, 0.30, 0.68],
        }
    }

    /// Probability of switching scene state at each chunk boundary.
    fn cut_rate(&self) -> f64 {
        match self {
            Genre::Gaming => 0.30,
            Genre::Sports => 0.12,
            Genre::Movie => 0.15,
            Genre::Talk => 0.06,
            Genre::Music => 0.22,
        }
    }

    /// RGB bias multipliers applied to the gray point (hue character).
    fn color_bias(&self) -> [f64; 3] {
        match self {
            Genre::Gaming => [0.95, 0.95, 1.15],
            Genre::Sports => [0.95, 1.10, 0.90],
            Genre::Movie => [1.05, 1.00, 0.95],
            Genre::Talk => [1.12, 1.00, 0.88],
            Genre::Music => [1.05, 0.90, 1.12],
        }
    }
}

impl std::fmt::Display for Genre {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Genre::Gaming => "gaming",
            Genre::Sports => "sports",
            Genre::Movie => "movie",
            Genre::Talk => "talk",
            Genre::Music => "music",
        })
    }
}

/// Deterministic, seeded content synthesizer for one genre.
///
/// # Example
///
/// ```
/// use lpvs_media::content::{ContentModel, Genre};
/// use lpvs_display::spec::Resolution;
///
/// let video = ContentModel::new(Genre::Talk, 5).video(3, Resolution::FHD, 60.0, 10.0);
/// assert_eq!(video.chunks().len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentModel {
    genre: Genre,
    seed: u64,
}

impl ContentModel {
    /// Creates a model for `genre` with a deterministic seed.
    pub fn new(genre: Genre, seed: u64) -> Self {
        Self { genre, seed }
    }

    /// The genre this model synthesizes.
    pub fn genre(&self) -> Genre {
        self.genre
    }

    /// Samples a genre from the popularity distribution.
    pub fn sample_genre<R: Rng + ?Sized>(rng: &mut R) -> Genre {
        let total: f64 = Genre::ALL.iter().map(Genre::popularity_weight).sum();
        let mut ticket = rng.gen_range(0.0..total);
        for g in Genre::ALL {
            if ticket < g.popularity_weight() {
                return g;
            }
            ticket -= g.popularity_weight();
        }
        Genre::Gaming
    }

    /// The model's chunks, endlessly, as the panel models read them:
    /// each chunk's [`KERNEL_SPREAD`] kernel is fixed by its luma bin, so
    /// the bin and the three linear means are all that is synthesized.
    /// The `n` first are [`chunk_stats`](Self::chunk_stats)`(n)`, compact.
    ///
    /// [`KERNEL_SPREAD`]: lpvs_display::stats::KERNEL_SPREAD
    pub fn compact_chunks(&self) -> impl Iterator<Item = CompactStats> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_c0de);
        let anchors = self.genre.scene_lumas();
        let bias = self.genre.color_bias();
        let cut_rate = self.genre.cut_rate();
        let mut scene = rng.gen_range(0..3usize);
        std::iter::repeat_with(move || {
            if rng.gen_bool(cut_rate) {
                scene = rng.gen_range(0..3usize);
            }
            let jitter: f64 = rng.gen_range(-0.05..0.05);
            let luma = (anchors[scene] + jitter).clamp(0.02, 0.98);
            let rgb = [
                (luma * bias[0]).clamp(0.0, 1.0),
                (luma * bias[1]).clamp(0.0, 1.0),
                (luma * bias[2]).clamp(0.0, 1.0),
            ];
            CompactStats::from_encoded_rgb(rgb)
        })
    }

    /// Synthesizes per-chunk frame statistics for `count` chunks: the
    /// [`compact_chunks`](Self::compact_chunks), expanded.
    pub fn chunk_stats(&self, count: usize) -> Vec<FrameStats> {
        self.compact_chunks().take(count).map(|c| c.expand()).collect()
    }

    /// Synthesizes a whole video of `duration_secs` split into chunks
    /// of `chunk_secs`, at the ladder bitrate for `resolution`. The last
    /// chunk carries whatever remains, so the chunks' durations sum to
    /// `duration_secs`.
    ///
    /// # Panics
    ///
    /// Panics if the duration or chunk length is not positive.
    pub fn video(
        &self,
        id: u64,
        resolution: Resolution,
        duration_secs: f64,
        chunk_secs: f64,
    ) -> Video {
        assert!(duration_secs > 0.0 && chunk_secs > 0.0, "durations must be positive");
        let mut count = ((duration_secs / chunk_secs).ceil() as usize).max(1);
        // A quotient rounded a hair above a whole number would leave the
        // last chunk nothing to carry.
        if (count - 1) as f64 * chunk_secs >= duration_secs {
            count -= 1;
        }
        let last_secs = duration_secs - (count - 1) as f64 * chunk_secs;
        let bitrate = BitrateLadder::default().bitrate_kbps(resolution);
        let stats = self.chunk_stats(count);
        let chunks = stats
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let secs = if i + 1 == count { last_secs } else { chunk_secs };
                Chunk::new(ChunkId(i as u32), secs, s, bitrate)
            })
            .collect();
        Video::new(VideoId(id), resolution, chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_display::spec::DisplaySpec;

    #[test]
    fn deterministic_in_seed() {
        let a = ContentModel::new(Genre::Gaming, 7).chunk_stats(50);
        let b = ContentModel::new(Genre::Gaming, 7).chunk_stats(50);
        let c = ContentModel::new(Genre::Gaming, 8).chunk_stats(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn genres_have_distinct_brightness() {
        let mean = |g: Genre| {
            let stats = ContentModel::new(g, 3).chunk_stats(400);
            stats.iter().map(|s| s.mean_luma()).sum::<f64>() / 400.0
        };
        // Sports runs brighter than music stages.
        assert!(mean(Genre::Sports) > mean(Genre::Music) + 0.1);
        // Everything lands in a sane video range.
        for g in Genre::ALL {
            let m = mean(g);
            assert!((0.1..=0.75).contains(&m), "{g}: mean luma {m}");
        }
    }

    #[test]
    fn gaming_is_blue_leaning() {
        let stats = ContentModel::new(Genre::Gaming, 3).chunk_stats(200);
        let mut blue = 0.0;
        let mut red = 0.0;
        for s in &stats {
            blue += s.linear_mean()[2];
            red += s.linear_mean()[0];
        }
        assert!(blue > red, "gaming content should lean blue");
    }

    #[test]
    fn scenes_persist_between_cuts() {
        // Consecutive chunks correlate: mean |Δ luma| between neighbours
        // is well below the |Δ| between random pairs.
        let stats = ContentModel::new(Genre::Talk, 11).chunk_stats(500);
        let lumas: Vec<f64> = stats.iter().map(|s| s.mean_luma()).collect();
        let neighbour: f64 = lumas.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>()
            / (lumas.len() - 1) as f64;
        let shuffled: f64 = lumas
            .iter()
            .zip(lumas.iter().skip(250))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 250.0;
        assert!(neighbour < shuffled, "no temporal correlation: {neighbour} vs {shuffled}");
    }

    #[test]
    fn power_rate_fluctuates_over_chunks() {
        // The Fig. 4 premise: per-chunk power rates go up and down.
        let video = ContentModel::new(Genre::Movie, 21).video(1, Resolution::FHD, 600.0, 10.0);
        let spec = DisplaySpec::oled_phone(Resolution::FHD);
        let rates: Vec<f64> =
            video.chunks().iter().map(|c| c.power_rate_watts(&spec)).collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 1.3 * min, "power rates too flat: {min}–{max}");
    }

    #[test]
    fn genre_sampling_tracks_popularity() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let gaming = (0..n)
            .filter(|_| ContentModel::sample_genre(&mut rng) == Genre::Gaming)
            .count() as f64
            / n as f64;
        assert!((gaming - 0.55).abs() < 0.02, "gaming share {gaming}");
    }

    #[test]
    fn a_video_is_as_long_as_asked() {
        let model = ContentModel::new(Genre::Talk, 2);
        let secs = |duration, chunk| -> Vec<f64> {
            let video = model.video(1, Resolution::HD, duration, chunk);
            video.chunks().iter().map(|c| c.duration_secs).collect()
        };
        assert_eq!(secs(65.0, 10.0), [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 5.0]);
        assert_eq!(secs(60.0, 10.0), [10.0; 6]);
        assert_eq!(secs(7.5, 10.0), [7.5]);
        // Quotients that round either side of a whole number.
        for (duration, chunk) in [(0.3, 0.1), (1.0, 0.1), (0.1 * 3.0, 0.1)] {
            let secs = secs(duration, chunk);
            let total: f64 = secs.iter().sum();
            assert!((total - duration).abs() < 1e-12, "{duration} s in {chunk} s: {total} s");
            let (last, full) = secs.split_last().expect("at least one chunk");
            assert!(full.iter().all(|&s| s == chunk), "{duration} s in {chunk} s");
            assert!(*last > 0.0 && *last <= chunk + 1e-12, "{duration} s: last chunk {last} s");
        }
    }

    #[test]
    fn video_has_ladder_bitrate() {
        let v = ContentModel::new(Genre::Sports, 1).video(2, Resolution::HD, 30.0, 10.0);
        assert_eq!(v.chunks()[0].bitrate_kbps, BitrateLadder::default().bitrate_kbps(Resolution::HD));
    }
}
