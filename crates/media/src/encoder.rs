//! Server-side transform encoder.
//!
//! In the LPVS emulator (paper Fig. 6) every requested video passes
//! through the encoder; chunks selected by the scheduler are
//! transformed with the technique matching the requesting device's
//! display, the rest bypass. The encoder also measures the realized
//! per-chunk power-reduction ratios whose slot average is the
//! observation Δ_n fed to the Bayesian estimator (paper §V-D).

use crate::chunk::Chunk;
use crate::video::Video;
use lpvs_display::quality::QualityBudget;
use lpvs_display::spec::{DisplayKind, DisplaySpec};
use lpvs_display::stats::{CompactStats, FrameStats};
use lpvs_display::transform::{
    oled_watts, reduction_ratio_of, BacklightScaling, BacklightTable, ColorTransform,
    SubpixelShutoff, Transform, TransformOutcome,
};
use serde::{Deserialize, Serialize};

/// One chunk after encoding: the original, the transform outcome, and
/// the realized reduction ratio on the target display.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedChunk {
    /// The source chunk.
    pub original: Chunk,
    /// Transform result (identity when the chunk offered no headroom).
    pub outcome: TransformOutcome,
    /// Realized power-reduction ratio γ on the target display.
    pub reduction_ratio: f64,
}

/// A fully encoded video for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedVideo {
    chunks: Vec<EncodedChunk>,
}

impl EncodedVideo {
    /// Encoded chunks in playback order.
    pub fn chunks(&self) -> &[EncodedChunk] {
        &self.chunks
    }

    /// Duration-weighted mean reduction ratio over the video — the
    /// observation Δ_n the estimator folds in after the slot plays.
    pub fn mean_reduction_ratio(&self) -> f64 {
        let total: f64 = self.chunks.iter().map(|c| c.original.duration_secs).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.chunks
            .iter()
            .map(|c| c.reduction_ratio * c.original.duration_secs)
            .sum::<f64>()
            / total
    }

    /// Total display energy (joules) to play the *transformed* video on
    /// `spec`.
    pub fn transformed_energy_joules(&self, spec: &DisplaySpec) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.outcome.power_watts(spec) * c.original.duration_secs)
            .sum()
    }

    /// Total display energy (joules) to play the *original* video on
    /// `spec`.
    pub fn original_energy_joules(&self, spec: &DisplaySpec) -> f64 {
        self.chunks.iter().map(|c| c.original.energy_joules(spec)).sum()
    }

    /// Worst perceptual distortion across chunks.
    pub fn peak_perceptual_score(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.outcome.distortion.perceptual_score())
            .fold(0.0, f64::max)
    }
}

/// The transform encoder: picks the display-appropriate transform and
/// applies it chunk by chunk.
///
/// # Example
///
/// ```
/// use lpvs_media::content::{ContentModel, Genre};
/// use lpvs_media::encoder::TransformEncoder;
/// use lpvs_display::quality::QualityBudget;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
///
/// let video = ContentModel::new(Genre::Movie, 1).video(1, Resolution::HD, 120.0, 10.0);
/// let spec = DisplaySpec::lcd_phone(Resolution::HD);
/// let encoded = TransformEncoder::new(QualityBudget::default()).encode(&video, &spec);
/// assert!(encoded.transformed_energy_joules(&spec) < encoded.original_energy_joules(&spec));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformEncoder {
    budget: QualityBudget,
}

impl TransformEncoder {
    /// Creates an encoder with the given quality budget.
    pub fn new(budget: QualityBudget) -> Self {
        Self { budget }
    }

    /// The quality budget in force.
    pub fn budget(&self) -> &QualityBudget {
        &self.budget
    }

    /// The display-appropriate transform of one chunk's content:
    /// backlight scaling for LCD; color transform chained with subpixel
    /// shutoff for OLED (the Crayon-style combination of Table I row
    /// \[17\]).
    fn transform(&self, stats: &FrameStats, spec: &DisplaySpec) -> TransformOutcome {
        match spec.kind {
            DisplayKind::Lcd => BacklightScaling::new(self.budget).apply(stats, spec),
            DisplayKind::Oled => {
                let color = ColorTransform::new(self.budget).apply(stats, spec);
                let shutoff = SubpixelShutoff::new(self.budget).apply(&color.stats, spec);
                color.then(shutoff)
            }
        }
    }

    /// Realized power-reduction ratio γ of content `stats` transformed
    /// for the target display — [`encode_chunk`](Self::encode_chunk)'s
    /// `reduction_ratio`, bit for bit, for callers that need no
    /// [`EncodedChunk`] and already know the chunk's untransformed
    /// display power `untransformed_watts` (`spec.power_watts(stats)`).
    ///
    /// Only the transformed power is computed, from what the panel's
    /// model reads of the outcome: the LCD backlight knob and the
    /// compensated mean luma; the OLED post-transform linear means and
    /// the shutoff's enabled fraction. Each transform's decision is the
    /// one its `apply` makes.
    pub fn reduction_ratio(
        &self,
        stats: &FrameStats,
        spec: &DisplaySpec,
        untransformed_watts: f64,
    ) -> f64 {
        let after = match spec.kind {
            DisplayKind::Lcd => BacklightScaling::new(self.budget).transformed_watts(stats, spec),
            // Neither OLED transform turns the brightness knob.
            DisplayKind::Oled => oled_watts(
                spec,
                1.0,
                SubpixelShutoff::new(self.budget).enabled_fraction(spec),
                ColorTransform::new(self.budget).transformed_linear_mean(stats.linear_mean()),
            ),
        };
        reduction_ratio_of(untransformed_watts, after)
    }

    /// Transforms one chunk for the target display.
    pub fn encode_chunk(&self, chunk: &Chunk, spec: &DisplaySpec) -> EncodedChunk {
        let outcome = self.transform(&chunk.stats, spec);
        let reduction_ratio = outcome.reduction_ratio(&chunk.stats, spec);
        EncodedChunk { original: chunk.clone(), outcome, reduction_ratio }
    }

    /// Transforms a whole video for the target display.
    pub fn encode(&self, video: &Video, spec: &DisplaySpec) -> EncodedVideo {
        let chunks = video.chunks().iter().map(|c| self.encode_chunk(c, spec)).collect();
        EncodedVideo { chunks }
    }
}

impl Default for TransformEncoder {
    fn default() -> Self {
        Self::new(QualityBudget::default())
    }
}

/// [`TransformEncoder::reduction_ratio`] for the chunks the content
/// model synthesizes ([`CompactStats`]), bit for bit on their
/// [`expand`](CompactStats::expand)ed statistics. The LCD decision reads
/// only the histogram, which a synthetic chunk's bin fixes, so it is
/// made once per bin when the encoder is built and looked up per chunk;
/// the OLED allocation reads the linear means, which no two chunks
/// share, so it is solved per chunk.
///
/// # Example
///
/// ```
/// use lpvs_media::content::{ContentModel, Genre};
/// use lpvs_media::encoder::{KernelEncoder, TransformEncoder};
/// use lpvs_display::quality::QualityBudget;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
///
/// let spec = DisplaySpec::lcd_phone(Resolution::HD);
/// let budget = QualityBudget::default();
/// let encoder = KernelEncoder::new(budget);
/// let on_spec = encoder.on(&spec);
/// for chunk in ContentModel::new(Genre::Movie, 1).compact_chunks().take(30) {
///     let stats = chunk.expand();
///     let watts = spec.power_watts(&stats);
///     let full = TransformEncoder::new(budget).reduction_ratio(&stats, &spec, watts);
///     assert_eq!(on_spec.reduction_ratio(&chunk, watts), full);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct KernelEncoder {
    backlight: BacklightTable,
    color: ColorTransform,
    shutoff: SubpixelShutoff,
}

impl KernelEncoder {
    /// The encoder for `budget`, its LCD decisions made for every bin.
    pub fn new(budget: QualityBudget) -> Self {
        Self {
            backlight: BacklightScaling::new(budget).kernel_table(),
            color: ColorTransform::new(budget),
            shutoff: SubpixelShutoff::new(budget),
        }
    }

    /// The encoder bound to the display `spec` plays on, with the
    /// subpixel shutoff — a function of the panel alone — decided once
    /// for all the chunks it prices.
    pub fn on(&self, spec: &DisplaySpec) -> SpecEncoder<'_> {
        let enabled_fraction = match spec.kind {
            DisplayKind::Lcd => 1.0,
            DisplayKind::Oled => self.shutoff.enabled_fraction(spec),
        };
        SpecEncoder { encoder: self, spec: *spec, enabled_fraction }
    }
}

/// A [`KernelEncoder`] bound to one display ([`KernelEncoder::on`]).
#[derive(Debug, Clone, Copy)]
pub struct SpecEncoder<'a> {
    encoder: &'a KernelEncoder,
    spec: DisplaySpec,
    enabled_fraction: f64,
}

impl SpecEncoder<'_> {
    /// Realized power-reduction ratio γ of `chunk` transformed for this
    /// display, whose untransformed display power is
    /// `untransformed_watts`: [`TransformEncoder::reduction_ratio`] of
    /// the expanded chunk, bit for bit.
    pub fn reduction_ratio(&self, chunk: &CompactStats, untransformed_watts: f64) -> f64 {
        let spec = &self.spec;
        let after = match spec.kind {
            DisplayKind::Lcd => self.encoder.backlight.transformed_watts(chunk, spec),
            // Neither OLED transform turns the brightness knob.
            DisplayKind::Oled => oled_watts(
                spec,
                1.0,
                self.enabled_fraction,
                self.encoder.color.transformed_linear_mean(chunk.linear_mean()),
            ),
        };
        reduction_ratio_of(untransformed_watts, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{ContentModel, Genre};
    use lpvs_display::spec::Resolution;

    fn video() -> Video {
        ContentModel::new(Genre::Gaming, 77).video(1, Resolution::HD, 300.0, 10.0)
    }

    #[test]
    fn oled_savings_land_in_table_i_band() {
        let spec = DisplaySpec::oled_phone(Resolution::HD);
        let encoded = TransformEncoder::default().encode(&video(), &spec);
        let gamma = encoded.mean_reduction_ratio();
        assert!((0.13..=0.60).contains(&gamma), "mean γ = {gamma}");
    }

    #[test]
    fn lcd_savings_are_substantial_on_dark_gaming() {
        let spec = DisplaySpec::lcd_phone(Resolution::HD);
        let encoded = TransformEncoder::default().encode(&video(), &spec);
        let gamma = encoded.mean_reduction_ratio();
        assert!(gamma > 0.2, "mean γ = {gamma}");
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let spec = DisplaySpec::oled_phone(Resolution::HD);
        let encoded = TransformEncoder::default().encode(&video(), &spec);
        let orig = encoded.original_energy_joules(&spec);
        let tran = encoded.transformed_energy_joules(&spec);
        let gamma = encoded.mean_reduction_ratio();
        // The duration-weighted γ and the realized energy ratio differ
        // by the covariance between a chunk's brightness (its energy
        // weight) and its reduction ratio — bright chunks both cost
        // more and save more, so the energy ratio runs a few points
        // above γ. Pin the two to the same neighborhood and ordering.
        let ratio = 1.0 - tran / orig;
        assert!((ratio - gamma).abs() < 0.10, "γ {gamma} vs energy ratio {ratio}");
        assert!(ratio >= gamma - 1e-9, "bright-chunk covariance should not be negative");
    }

    #[test]
    fn per_chunk_ratios_vary_with_content() {
        let spec = DisplaySpec::lcd_phone(Resolution::HD);
        let encoded = TransformEncoder::default().encode(&video(), &spec);
        let ratios: Vec<f64> = encoded.chunks().iter().map(|c| c.reduction_ratio).collect();
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.05, "ratios too uniform: {min}–{max}");
    }

    #[test]
    fn distortion_never_exceeds_budget_score() {
        let spec = DisplaySpec::oled_phone(Resolution::HD);
        let encoded = TransformEncoder::default().encode(&video(), &spec);
        assert!(encoded.peak_perceptual_score() < 0.4);
    }
}
