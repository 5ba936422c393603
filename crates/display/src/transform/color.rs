//! Quality-constrained OLED color transform.
//!
//! Chameleon, Crayon and their successors (the paper's refs. \[12\],
//! \[17\], \[23\]) save OLED energy by shifting displayed colors toward
//! cheaper ones. This implementation attenuates each RGB channel by a
//! factor `c_i = 1 − d_i`, spending a bounded RMS color-shift budget
//! `√(Σ d_i² / 3) ≤ D` where it buys the most energy. The optimal
//! allocation follows from the KKT conditions of
//!
//! ```text
//! max Σ_i w_i·g_i·(1 − (1 − d_i)^γ)   s.t.  Σ d_i² = 3D²
//! ```
//!
//! namely `d_i = min(cap, k·v_i·(1 − d_i)^(γ−1))` with `v_i = w_i·g_i`
//! and one multiplier `k` shared by the channels. Because blue
//! subpixels weigh twice green, blue is attenuated hardest — the
//! hallmark of the published transforms.
//!
//! # The solve: Newton inside Newton
//!
//! Both unknowns are roots of one-dimensional monotone functions, so
//! neither is searched for.
//!
//! * **Per channel, given `k`.** The residual
//!   `d − k·v·(1 − d)^(γ−1)` is increasing and concave on `[0, 1)`, so
//!   Newton's tangent never undershoots it: from any start the first
//!   step lands at or left of the root and the rest climb to it
//!   monotonically, one `powf` each (`(1 − d)^(γ−2)` serves both the
//!   residual and its slope). The channel sits at the cap exactly when
//!   the residual at the cap is still non-positive, i.e. when `k` has
//!   reached `cap / (v·(1 − cap)^(γ−1))` — a threshold computed once.
//! * **The multiplier.** `Σ d_i(k)²` is nondecreasing in `k` with the
//!   analytic slope `Σ 2·d_i² / (k·r_i′)` over the uncapped channels
//!   (`r_i′` the residual's slope at the root), so `k` is a Newton
//!   iteration too, kept inside a bracket whose lower end always
//!   satisfies the budget. It starts from the small-`d` limit
//!   `k₀ = √(3D² / Σ v_i²)`, which lies below the root, aims each step
//!   a quarter of the tolerance *short* of the root, bisects whenever a
//!   step would leave the bracket, and stops at the first evaluation
//!   that is under budget with the root — by Newton's own estimate —
//!   within `TOLERANCE` (relative, in `k`) above it. What it returns
//!   is always the bracket's **under-budget** end: `Σ d_i² ≤ 3D²` holds
//!   exactly, with about `1e-12` of the budget unspent.
//!
//! A typical chunk takes four or five evaluations of `Σ d²`, each two
//! or three warm-started steps per channel: about thirty `powf`.

use crate::oled::CHANNEL_WEIGHTS;
use crate::quality::{Distortion, QualityBudget};
use crate::spec::{DisplayKind, DisplaySpec};
use crate::stats::{scaled_linear_mean, FrameStats, GAMMA};
use crate::transform::{Transform, TransformOutcome};
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Largest per-channel attenuation considered, to keep hue shifts in
/// the regime the perceptual studies validated.
const MAX_ATTENUATION: f64 = 0.45;

/// `(1 − cap)^(γ−1)`: the gain at which a channel's root reaches the
/// cap, a constant of the model computed once rather than per chunk.
static CAP_GAIN: LazyLock<f64> = LazyLock::new(|| (1.0 - MAX_ATTENUATION).powf(GAMMA - 1.0));

/// The solve's one tolerance. Both Newton iterations stop once their
/// root is within this *relative* distance — so the multiplier `k`, and
/// with it the spent budget, is within `1e-12` of the KKT point — and a
/// marginal value or an attenuation at or below it counts as zero.
const TOLERANCE: f64 = 1e-12;

/// Bound on the steps of either Newton loop. Convergence is quadratic
/// (a cold channel solve takes about four steps, the multiplier about
/// five); the bound only guarantees termination, and hitting it still
/// returns an allocation inside the budget.
const MAX_STEPS: usize = 64;

/// Root of `d = kv·(1 − d)^(γ−1)` on `[0, 1)` by Newton from `start`,
/// with the residual's slope there.
///
/// Newton's error after a step is at most `|r″/2r′|·step²`, and below
/// the cap `|r″/2r′| < 0.18`: a step whose *square* is within tolerance
/// leaves the root within it, so the loop stops there without taking
/// the confirming step.
fn channel_attenuation(kv: f64, start: f64) -> (f64, f64) {
    let mut d = start;
    let mut slope = 1.0;
    for _ in 0..MAX_STEPS {
        let t = (1.0 - d).powf(GAMMA - 2.0);
        slope = 1.0 + (GAMMA - 1.0) * kv * t;
        let step = (kv * (1.0 - d) * t - d) / slope;
        d += step;
        if step * step <= TOLERANCE * d {
            break;
        }
    }
    (d, slope)
}

fn sum_sq(d: &[f64; 3]) -> f64 {
    d.iter().map(|x| x * x).sum()
}

/// Hue-aware channel attenuation for OLED panels.
///
/// # Example
///
/// ```
/// use lpvs_display::quality::QualityBudget;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
/// use lpvs_display::transform::{ColorTransform, Transform};
///
/// let spec = DisplaySpec::oled_phone(Resolution::FHD);
/// let t = ColorTransform::new(QualityBudget::default());
/// let frame = FrameStats::uniform_gray(0.7);
/// let out = t.apply(&frame, &spec);
/// assert!(out.power_watts(&spec) < spec.power_watts(&frame));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColorTransform {
    budget: QualityBudget,
}

impl ColorTransform {
    /// Creates the transform with the given quality budget.
    pub fn new(budget: QualityBudget) -> Self {
        Self { budget }
    }

    /// The quality budget in force.
    pub fn budget(&self) -> &QualityBudget {
        &self.budget
    }

    /// Solves the constrained allocation: returns per-channel
    /// attenuations `d` with `Σ d_i² ≤ 3D²` — within the solve's
    /// tolerance of equality, or less when the attenuation cap binds
    /// first. All zeros for a black frame or a zero budget.
    pub fn allocate(&self, frame: &FrameStats) -> [f64; 3] {
        self.allocate_linear(frame.linear_mean())
    }

    /// [`allocate`](Self::allocate) for content whose linear-light means
    /// are `g`: the allocation reads nothing else of a frame.
    fn allocate_linear(&self, g: [f64; 3]) -> [f64; 3] {
        let shift_budget = self.budget.max_color_shift;
        if shift_budget <= 0.0 {
            return [0.0; 3];
        }
        // Marginal value of attenuating channel i at d = 0; a channel
        // that emits nothing is never attenuated.
        let value = [0, 1, 2].map(|i| {
            let v = CHANNEL_WEIGHTS[i] * g[i];
            if v > TOLERANCE { v } else { 0.0 }
        });
        if value == [0.0; 3] {
            return [0.0; 3]; // black frame: nothing to save
        }
        let target_ss = 3.0 * shift_budget * shift_budget;

        // Multiplier at which each channel reaches the cap (infinite
        // for a dead channel). At the largest finite one every live
        // channel is capped: if even that fits, the cap binds first.
        let k_cap = value.map(|v| MAX_ATTENUATION / (v * *CAP_GAIN));
        let saturated = value.map(|v| if v > 0.0 { MAX_ATTENUATION } else { 0.0 });
        if sum_sq(&saturated) <= target_ss {
            return saturated;
        }

        // Invariant: Σ d(lo)² ≤ target < Σ d(hi)², `under` = d(lo).
        let mut lo = 0.0;
        let mut under = [0.0; 3];
        let mut hi = k_cap.iter().copied().filter(|k| k.is_finite()).fold(0.0, f64::max);
        let mut d = [0.0; 3];
        let mut k = (target_ss / sum_sq(&value)).sqrt();
        for _ in 0..MAX_STEPS {
            let mut slope = 0.0;
            for i in 0..3 {
                if k >= k_cap[i] {
                    d[i] = MAX_ATTENUATION;
                } else {
                    let (root, residual_slope) = channel_attenuation(k * value[i], d[i]);
                    d[i] = root.min(MAX_ATTENUATION);
                    slope += 2.0 * root * root / (k * residual_slope);
                }
            }
            let ss = sum_sq(&d);
            // Newton's estimate of the distance to the root.
            let step = (target_ss - ss) / slope;
            if ss <= target_ss {
                (lo, under) = (k, d);
                if step <= TOLERANCE * k {
                    break;
                }
            } else {
                hi = k;
            }
            if hi - lo <= TOLERANCE * hi {
                break;
            }
            // Aim just short of the root: once Newton has converged the
            // next evaluation is under budget, within tolerance, and last.
            let next = (k + step) * (1.0 - 0.25 * TOLERANCE);
            k = if lo < next && next < hi { next } else { 0.5 * (lo + hi) };
        }
        under
    }

    /// [`allocate_linear`](Self::allocate_linear)'s attenuations where
    /// `apply` puts them into force; `None` where every channel is
    /// within tolerance of zero and `apply` leaves the frame alone.
    fn attenuation(&self, linear_mean: [f64; 3]) -> Option<[f64; 3]> {
        let d = self.allocate_linear(linear_mean);
        if d.iter().all(|&x| x <= TOLERANCE) {
            return None;
        }
        Some(d)
    }

    /// Linear-light means of [`apply`](Transform::apply)'s outcome on
    /// content whose linear-light means are `linear_mean`, bit for bit,
    /// without remapping a histogram: all an OLED's power model reads of
    /// the outcome, from all its allocation reads of the frame.
    pub fn transformed_linear_mean(&self, linear_mean: [f64; 3]) -> [f64; 3] {
        match self.attenuation(linear_mean) {
            Some(d) => scaled_linear_mean(linear_mean, factors(d)),
            None => linear_mean,
        }
    }
}

/// Per-channel scale factors of attenuations `d`.
fn factors(d: [f64; 3]) -> [f64; 3] {
    d.map(|x| 1.0 - x)
}

impl Transform for ColorTransform {
    fn name(&self) -> &'static str {
        "color-transform"
    }

    fn applies_to(&self) -> DisplayKind {
        DisplayKind::Oled
    }

    fn apply(&self, frame: &FrameStats, _spec: &DisplaySpec) -> TransformOutcome {
        let Some(d) = self.attenuation(frame.linear_mean()) else {
            return TransformOutcome::identity(frame);
        };
        let rms = (sum_sq(&d) / 3.0).sqrt();
        TransformOutcome {
            stats: frame.scale_channels(factors(d)),
            brightness_scale: 1.0,
            enabled_fraction: 1.0,
            distortion: Distortion { color_shift: rms, ..Distortion::none() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Resolution;

    fn spec() -> DisplaySpec {
        DisplaySpec::oled_phone(Resolution::FHD)
    }

    fn t() -> ColorTransform {
        ColorTransform::new(QualityBudget::default())
    }

    #[test]
    fn blue_attenuated_hardest_on_gray() {
        let d = t().allocate(&FrameStats::uniform_gray(0.7));
        assert!(d[2] > d[0], "blue {} vs red {}", d[2], d[0]);
        assert!(d[0] > d[1], "red {} vs green {}", d[0], d[1]);
    }

    #[test]
    fn shift_matches_budget_on_bright_content() {
        let budget = QualityBudget::default();
        let out = ColorTransform::new(budget).apply(&FrameStats::uniform_gray(0.9), &spec());
        assert!(out.distortion.color_shift <= budget.max_color_shift + 1e-9);
        assert!(
            out.distortion.color_shift > 0.8 * budget.max_color_shift,
            "left budget unspent: {}",
            out.distortion.color_shift
        );
    }

    #[test]
    fn savings_in_published_band_for_typical_video() {
        // Table I OLED color transforms report up to ~60 %; at the
        // default 15 % shift budget, typical content lands at 10–45 %.
        for &v in &[0.4, 0.6, 0.8] {
            let frame = FrameStats::uniform_gray(v);
            let out = t().apply(&frame, &spec());
            let gamma = out.reduction_ratio(&frame, &spec());
            assert!((0.05..=0.65).contains(&gamma), "saving {gamma} for gray {v}");
        }
    }

    #[test]
    fn black_frame_is_identity() {
        let frame = FrameStats::uniform_gray(0.0);
        let out = t().apply(&frame, &spec());
        assert_eq!(out.distortion.color_shift, 0.0);
        assert_eq!(out.brightness_scale, 1.0);
    }

    #[test]
    fn zero_budget_is_identity() {
        let budget = QualityBudget { max_color_shift: 0.0, ..QualityBudget::default() };
        let frame = FrameStats::uniform_gray(0.8);
        let spec = spec();
        let out = ColorTransform::new(budget).apply(&frame, &spec);
        assert_eq!(out.power_watts(&spec), spec.power_watts(&frame));
    }

    #[test]
    fn bigger_budget_saves_more() {
        let frame = FrameStats::uniform_gray(0.7);
        let small = ColorTransform::new(QualityBudget::strict()).apply(&frame, &spec());
        let large = ColorTransform::new(QualityBudget::aggressive()).apply(&frame, &spec());
        assert!(
            large.reduction_ratio(&frame, &spec()) > small.reduction_ratio(&frame, &spec())
        );
    }

    #[test]
    fn attenuation_capped() {
        // Even with an absurd budget, no channel loses more than the cap.
        let budget = QualityBudget { max_color_shift: 0.9, ..QualityBudget::aggressive() };
        let d = ColorTransform::new(budget).allocate(&FrameStats::uniform_gray(0.9));
        assert!(d.iter().all(|&x| x <= MAX_ATTENUATION + 1e-9));
    }

    #[test]
    fn allocation_follows_content() {
        // A red-dominant frame should spend more budget on red than a
        // blue-dominant frame does.
        let red_frame = FrameStats::from_encoded_rgb([0.9, 0.2, 0.2], 0);
        let blue_frame = FrameStats::from_encoded_rgb([0.2, 0.2, 0.9], 0);
        let dr = t().allocate(&red_frame);
        let db = t().allocate(&blue_frame);
        assert!(dr[0] > db[0]);
        assert!(db[2] > dr[2]);
    }

    #[test]
    fn targets_oled() {
        assert_eq!(t().applies_to(), DisplayKind::Oled);
        assert_eq!(t().name(), "color-transform");
    }
}
