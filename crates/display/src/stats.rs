//! Compact per-frame content statistics.
//!
//! Every power model and transform in this workspace operates on
//! statistics rather than pixel buffers: a normalized luminance
//! histogram plus per-channel linear-light means. This is exactly the
//! information the published display power models consume — backlight
//! scaling needs the luminance distribution to pick a clipping point
//! (DLS, paper ref. \[20\]); the OLED model needs per-channel emitted
//! light (Crayon, paper ref. \[17\]) — so working at this level preserves
//! the power behaviour while letting the emulator synthesize millions
//! of chunks cheaply.
//!
//! Synthetic content is cheaper still. Every chunk the content model
//! makes has the same histogram shape — a triangular kernel of
//! [`KERNEL_SPREAD`] bins either side of its centre bin — so a
//! [`CompactStats`] carries only that centre bin and the three linear
//! means (32 B rather than a [`FrameStats`]' 536 B), and
//! [`CompactStats::expand`] rebuilds the histogram when a caller needs
//! it. What the LCD model reads of the histogram is then a function of
//! the bin alone: [`CompactStats::mean_luma`] reads it from a table
//! built once, as `BacklightScaling::kernel_table` does for its
//! decisions.

use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Number of luminance histogram bins.
pub const LUMA_BINS: usize = 64;

/// Display gamma used to convert encoded pixel values to linear light.
pub const GAMMA: f64 = 2.2;

/// Bins either side of the centre the synthetic content kernel spreads
/// over: the one spread of every chunk [`CompactStats`] describes.
pub const KERNEL_SPREAD: usize = 6;

/// Content statistics of one frame (or one chunk, averaged).
///
/// Invariants: the histogram is normalized (sums to 1 within floating
/// error) and all channel means lie in `[0, 1]`.
///
/// # Example
///
/// ```
/// use lpvs_display::stats::FrameStats;
///
/// let dark = FrameStats::uniform_gray(0.2);
/// let bright = FrameStats::uniform_gray(0.9);
/// assert!(bright.mean_luma() > dark.mean_luma());
/// assert!(bright.linear_mean()[2] > dark.linear_mean()[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Normalized histogram of encoded luminance values in `[0, 1]`.
    #[serde(with = "hist_serde")]
    luma_hist: [f64; LUMA_BINS],
    /// Mean *linear-light* value per RGB channel (mean of `v^γ`).
    rgb_linear_mean: [f64; 3],
}

impl FrameStats {
    /// Builds statistics from a raw (not necessarily normalized)
    /// luminance histogram and per-channel linear-light means.
    ///
    /// # Panics
    ///
    /// Panics if the histogram has no mass, any bin is negative, or a
    /// channel mean is outside `[0, 1]`.
    pub fn new(luma_hist: [f64; LUMA_BINS], rgb_linear_mean: [f64; 3]) -> Self {
        let total: f64 = luma_hist.iter().sum();
        assert!(total > 0.0, "histogram must have positive mass");
        assert!(luma_hist.iter().all(|&b| b >= 0.0), "histogram bins must be nonnegative");
        assert!(
            rgb_linear_mean.iter().all(|&m| (0.0..=1.0).contains(&m)),
            "channel means must be in [0, 1]"
        );
        let mut normalized = luma_hist;
        for b in &mut normalized {
            *b /= total;
        }
        Self { luma_hist: normalized, rgb_linear_mean }
    }

    /// A flat gray frame with encoded value `v` on all channels.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `[0, 1]`.
    pub fn uniform_gray(v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "gray level must be in [0, 1]");
        let mut hist = [0.0; LUMA_BINS];
        hist[bin_of(v)] = 1.0;
        let linear = v.powf(GAMMA);
        Self { luma_hist: hist, rgb_linear_mean: [linear; 3] }
    }

    /// Builds statistics from encoded per-channel mean values, deriving
    /// the luminance histogram as a spread around the Rec. 709 luma of
    /// those means.
    ///
    /// `spread` (in bins, ≥ 0) widens the synthetic histogram to mimic
    /// natural content; 0 gives a delta spike.
    ///
    /// # Panics
    ///
    /// Panics if any channel value is outside `[0, 1]`.
    pub fn from_encoded_rgb(rgb: [f64; 3], spread: usize) -> Self {
        let compact = CompactStats::from_encoded_rgb(rgb);
        Self::kernel(compact.bin(), spread, compact.rgb_linear_mean)
    }

    /// The triangular kernel of `spread` bins around `center` (a spike
    /// at spread 0), with the given linear means.
    fn kernel(center: usize, spread: usize, rgb_linear_mean: [f64; 3]) -> Self {
        // Written and normalized only where it lands, clipped to the
        // grid. The weights are integers, so their sum is exact and
        // every quotient is the float a pass over all 64 bins gives;
        // the bins it never reaches keep their `+0.0`.
        let lo = center.saturating_sub(spread);
        let hi = center.saturating_add(spread).min(LUMA_BINS - 1);
        let weight = |i: usize| (spread + 1 - center.abs_diff(i)) as f64;
        let total: f64 = (lo..=hi).map(weight).sum();
        let mut hist = [0.0; LUMA_BINS];
        for (i, bin) in hist.iter_mut().enumerate().take(hi + 1).skip(lo) {
            *bin = weight(i) / total;
        }
        Self { luma_hist: hist, rgb_linear_mean }
    }

    /// Normalized luminance histogram.
    pub fn luma_hist(&self) -> &[f64; LUMA_BINS] {
        &self.luma_hist
    }

    /// Mean linear-light value per RGB channel.
    pub fn linear_mean(&self) -> [f64; 3] {
        self.rgb_linear_mean
    }

    /// Mean encoded luminance, taken over the histogram (bin centers).
    pub fn mean_luma(&self) -> f64 {
        self.luma_hist
            .iter()
            .enumerate()
            .map(|(i, &p)| p * bin_center(i))
            .sum()
    }

    /// Fraction of pixels with encoded luminance strictly above `v`.
    pub fn fraction_above(&self, v: f64) -> f64 {
        let v = v.clamp(0.0, 1.0);
        self.luma_hist
            .iter()
            .enumerate()
            .filter(|(i, _)| bin_center(*i) > v)
            .map(|(_, &p)| p)
            .sum()
    }

    /// Smallest `v` such that at most `fraction` of pixels exceed `v`
    /// (a high-percentile luminance used by backlight scaling).
    pub fn percentile(&self, fraction: f64) -> f64 {
        let target = fraction.clamp(0.0, 1.0);
        let mut above = 0.0;
        for i in (0..LUMA_BINS).rev() {
            above += self.luma_hist[i];
            if above > target {
                return bin_center(i);
            }
        }
        0.0
    }

    /// Statistics after backlight compensation by `1/scale` with
    /// clipping at 1.0 (the content side of LCD backlight scaling).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale ≤ 1`.
    pub fn compensate(&self, scale: f64) -> FrameStats {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut hist = [0.0; LUMA_BINS];
        for (i, &p) in self.luma_hist.iter().enumerate() {
            hist[compensated_bin(i, scale)] += p;
        }
        let gain = (1.0 / scale).powf(GAMMA);
        let linear = self.rgb_linear_mean.map(|m| (m * gain).min(1.0));
        FrameStats { luma_hist: hist, rgb_linear_mean: linear }
    }

    /// [`compensate`](Self::compensate)`(scale)`'s
    /// [`mean_luma`](Self::mean_luma), bit for bit, without building
    /// the compensated statistics: all an LCD's power model reads of
    /// them.
    ///
    /// Only the occupied source bins `lo..=hi` are remapped, in
    /// ascending order, and only the target bins they reach are summed.
    /// The remap is monotone, so those targets are `compensated_bin(lo)
    /// ..= compensated_bin(hi)`. Every skipped term is a `+0.0`: before
    /// the first kept term (which holds bin `lo`'s positive mass) it
    /// could only flip the sign of a zero, after it it changes nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale ≤ 1`.
    pub fn compensated_mean_luma(&self, scale: f64) -> f64 {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let hist = &self.luma_hist;
        let lo = hist.iter().position(|&p| p > 0.0).unwrap_or(0);
        let hi = hist.iter().rposition(|&p| p > 0.0).unwrap_or(LUMA_BINS - 1);
        let mut compensated = [0.0; LUMA_BINS];
        for (i, &p) in hist.iter().enumerate().take(hi + 1).skip(lo) {
            compensated[compensated_bin(i, scale)] += p;
        }
        (compensated_bin(lo, scale)..=compensated_bin(hi, scale))
            .map(|t| compensated[t] * bin_center(t))
            .sum()
    }

    /// Statistics after scaling each encoded channel by the given
    /// factors in `[0, 1]` (OLED color transforms).
    ///
    /// The luminance histogram is remapped by the luma-weighted average
    /// of the factors.
    ///
    /// # Panics
    ///
    /// Panics if any factor is outside `[0, 1]`.
    pub fn scale_channels(&self, factors: [f64; 3]) -> FrameStats {
        let linear = scaled_linear_mean(self.rgb_linear_mean, factors);
        let luma_factor = 0.2126 * factors[0] + 0.7152 * factors[1] + 0.0722 * factors[2];
        let mut hist = [0.0; LUMA_BINS];
        for (i, &p) in self.luma_hist.iter().enumerate() {
            hist[bin_of(bin_center(i) * luma_factor)] += p;
        }
        FrameStats { luma_hist: hist, rgb_linear_mean: linear }
    }
}

impl Default for FrameStats {
    /// Mid-gray content, a neutral stand-in.
    fn default() -> Self {
        Self::uniform_gray(0.5)
    }
}

/// A synthetic chunk as the panel models read it: the centre bin of its
/// [`KERNEL_SPREAD`] kernel and its linear-light means.
///
/// # Example
///
/// ```
/// use lpvs_display::stats::{CompactStats, FrameStats, KERNEL_SPREAD};
///
/// let rgb = [0.4, 0.5, 0.3];
/// let chunk = CompactStats::from_encoded_rgb(rgb);
/// assert_eq!(chunk.expand(), FrameStats::from_encoded_rgb(rgb, KERNEL_SPREAD));
/// assert_eq!(chunk.mean_luma(), chunk.expand().mean_luma());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactStats {
    /// Luminance bin of the encoded means' Rec. 709 luma.
    bin: u8,
    /// Mean *linear-light* value per RGB channel (mean of `v^γ`).
    rgb_linear_mean: [f64; 3],
}

impl CompactStats {
    /// The chunk whose encoded per-channel means are `rgb`:
    /// [`FrameStats::from_encoded_rgb`]`(rgb, KERNEL_SPREAD)`, compact.
    ///
    /// # Panics
    ///
    /// Panics if any channel value is outside `[0, 1]`.
    pub fn from_encoded_rgb(rgb: [f64; 3]) -> Self {
        assert!(
            rgb.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "channel values must be in [0, 1]"
        );
        let luma = 0.2126 * rgb[0] + 0.7152 * rgb[1] + 0.0722 * rgb[2];
        // v ∈ [0, 1] keeps v^γ in [0, 1]: `FrameStats::new`'s checks
        // hold by construction.
        let linear = [rgb[0].powf(GAMMA), rgb[1].powf(GAMMA), rgb[2].powf(GAMMA)];
        Self { bin: bin_of(luma) as u8, rgb_linear_mean: linear }
    }

    /// Centre bin of the chunk's luminance kernel.
    pub fn bin(&self) -> usize {
        usize::from(self.bin)
    }

    /// Mean linear-light value per RGB channel.
    pub fn linear_mean(&self) -> [f64; 3] {
        self.rgb_linear_mean
    }

    /// [`expand`](Self::expand)`()`'s [`FrameStats::mean_luma`], bit for
    /// bit, read from a table of the kernel built once.
    pub fn mean_luma(&self) -> f64 {
        static MEAN_LUMA: LazyLock<[f64; LUMA_BINS]> =
            LazyLock::new(|| std::array::from_fn(|bin| kernel_stats(bin).mean_luma()));
        MEAN_LUMA[self.bin()]
    }

    /// The full statistics: the [`KERNEL_SPREAD`] kernel around the
    /// chunk's bin, with its linear means.
    pub fn expand(&self) -> FrameStats {
        FrameStats::kernel(self.bin(), KERNEL_SPREAD, self.rgb_linear_mean)
    }
}

/// The [`KERNEL_SPREAD`] kernel around `bin` (black linear means): all
/// of a synthetic chunk an LCD's figures read.
pub(crate) fn kernel_stats(bin: usize) -> FrameStats {
    FrameStats::kernel(bin, KERNEL_SPREAD, [0.0; 3])
}

/// Linear-light means `linear` after scaling each encoded channel by
/// `factors` in `[0, 1]`: [`FrameStats::scale_channels`]' linear means,
/// without remapping a histogram — all an OLED's power model reads of
/// the result.
///
/// # Panics
///
/// Panics if any factor is outside `[0, 1]`.
pub(crate) fn scaled_linear_mean(linear: [f64; 3], factors: [f64; 3]) -> [f64; 3] {
    assert!(
        factors.iter().all(|&f| (0.0..=1.0).contains(&f)),
        "channel factors must be in [0, 1]"
    );
    [
        linear[0] * factors[0].powf(GAMMA),
        linear[1] * factors[1].powf(GAMMA),
        linear[2] * factors[2].powf(GAMMA),
    ]
}

// Referenced via `#[serde(with = "hist_serde")]`; the vendored derive
// does not emit that reference, so the lint cannot see the use.
#[allow(dead_code)]
mod hist_serde {
    //! Serde shims for the fixed-size histogram (serde's built-in array
    //! impls stop at 32 elements).
    use super::LUMA_BINS;
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(hist: &[f64; LUMA_BINS], s: S) -> Result<S::Ok, S::Error> {
        s.collect_seq(hist.iter())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<[f64; LUMA_BINS], D::Error> {
        let v = Vec::<f64>::deserialize(d)?;
        let n = v.len();
        v.try_into()
            .map_err(|_| D::Error::custom(format!("expected {LUMA_BINS} bins, got {n}")))
    }
}

/// Histogram bin index of an encoded value in `[0, 1]`.
pub fn bin_of(v: f64) -> usize {
    ((v.clamp(0.0, 1.0) * LUMA_BINS as f64) as usize).min(LUMA_BINS - 1)
}

/// Bin that source bin `i` lands in after compensation by `1/scale`,
/// clipped at white; non-decreasing in `i`.
fn compensated_bin(i: usize, scale: f64) -> usize {
    bin_of((bin_center(i) / scale).min(1.0))
}

/// Encoded value at the center of bin `i`.
pub fn bin_center(i: usize) -> f64 {
    (i as f64 + 0.5) / LUMA_BINS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_normalized() {
        let mut raw = [0.0; LUMA_BINS];
        raw[10] = 3.0;
        raw[20] = 1.0;
        let s = FrameStats::new(raw, [0.5, 0.5, 0.5]);
        let total: f64 = s.luma_hist().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.luma_hist()[10] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uniform_gray_round_trip() {
        let s = FrameStats::uniform_gray(0.5);
        assert!((s.mean_luma() - 0.5).abs() < 1.0 / LUMA_BINS as f64);
        let lin = s.linear_mean();
        assert!((lin[0] - 0.5f64.powf(GAMMA)).abs() < 1e-12);
    }

    #[test]
    fn fraction_above_and_percentile_agree() {
        let s = FrameStats::from_encoded_rgb([0.8, 0.8, 0.8], 4);
        let p99 = s.percentile(0.01);
        assert!(s.fraction_above(p99) <= 0.01 + 1e-9);
        // One bin lower must exceed the budget.
        assert!(s.fraction_above(p99 - 1.5 / LUMA_BINS as f64) > 0.01);
    }

    #[test]
    fn compensate_brightens_content() {
        let s = FrameStats::uniform_gray(0.4);
        let boosted = s.compensate(0.5);
        assert!(boosted.mean_luma() > s.mean_luma());
        // 0.4 / 0.5 = 0.8, no clipping.
        assert!((boosted.mean_luma() - 0.8).abs() < 1.0 / LUMA_BINS as f64);
    }

    #[test]
    fn compensate_clips_at_white() {
        let s = FrameStats::uniform_gray(0.9);
        let boosted = s.compensate(0.5);
        assert!(boosted.mean_luma() <= 1.0);
        assert!(boosted.linear_mean().iter().all(|&m| m <= 1.0));
    }

    #[test]
    fn scale_channels_reduces_light() {
        let s = FrameStats::uniform_gray(0.8);
        let darker = s.scale_channels([0.9, 0.95, 0.7]);
        let before = s.linear_mean();
        let after = darker.linear_mean();
        for c in 0..3 {
            assert!(after[c] < before[c]);
        }
        assert!(darker.mean_luma() < s.mean_luma());
    }

    #[test]
    fn scale_channels_identity() {
        let s = FrameStats::from_encoded_rgb([0.3, 0.6, 0.2], 3);
        let same = s.scale_channels([1.0, 1.0, 1.0]);
        assert!((same.mean_luma() - s.mean_luma()).abs() < 1e-9);
        assert_eq!(same.linear_mean(), s.linear_mean());
    }

    #[test]
    fn bin_mapping_is_consistent() {
        for i in 0..LUMA_BINS {
            assert_eq!(bin_of(bin_center(i)), i);
        }
        assert_eq!(bin_of(-0.5), 0);
        assert_eq!(bin_of(1.5), LUMA_BINS - 1);
    }

    #[test]
    fn a_compact_chunk_is_a_bin_and_three_means() {
        assert_eq!(std::mem::size_of::<CompactStats>(), 32);
        assert_eq!(std::mem::size_of::<FrameStats>(), 536);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn empty_histogram_rejected() {
        let _ = FrameStats::new([0.0; LUMA_BINS], [0.5; 3]);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        let _ = FrameStats::default().compensate(0.0);
    }
}
