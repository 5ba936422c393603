//! Per-device estimator of the power-reduction ratio `γ_n`.
//!
//! This is the state machine the LPVS scheduler holds for every device
//! (paper §V-D): a Gaussian belief, a conjugate update applied at the
//! end of each slot in which the device played transformed video, and a
//! truncated expectation over the Table I band used as the point
//! estimate for the next slot's optimization.

use crate::conjugate::ConjugateUpdate;
use crate::gaussian::Gaussian;
use crate::truncated::TruncatedGaussian;
use crate::{GAMMA_LOWER, GAMMA_PRIOR_MEAN, GAMMA_PRIOR_VARIANCE, GAMMA_UPPER};
use serde::{Deserialize, Serialize};

/// Default observation-noise standard deviation: per-slot measured
/// savings wobble a few percentage points around the device's true
/// ratio depending on content.
pub const DEFAULT_OBSERVATION_STD: f64 = 0.03;

/// Variance-collapse floor. The conjugate update shrinks the belief
/// variance with every observation; after thousands of slots the
/// posterior would become so confident that a genuine shift in a
/// device's ratio (new content genre, display mode change) could no
/// longer move it. The floor keeps each new observation worth at least
/// ~0.1 % of the observation noise.
pub const VARIANCE_FLOOR: f64 = 1e-6;

/// Per-slot variance inflation applied by [`GammaEstimator::forget`]:
/// each slot without a usable observation doubles the belief variance
/// (capped at the prior's), so a device returning from a long
/// disconnect is re-learned rather than trusted on stale evidence.
pub const FORGET_INFLATION: f64 = 2.0;

/// Why an observation was rejected by [`GammaEstimator::try_observe`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObservationError {
    /// The reported ratio was NaN or infinite.
    NotFinite,
    /// The reported ratio was outside `[0, 1]`.
    OutOfRange(f64),
}

impl std::fmt::Display for ObservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObservationError::NotFinite => write!(f, "observed ratio is not finite"),
            ObservationError::OutOfRange(v) => {
                write!(f, "observed ratio {v} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ObservationError {}

/// Online Bayesian estimator for one device's power-reduction ratio.
///
/// # Example
///
/// ```
/// use lpvs_bayes::GammaEstimator;
///
/// let mut est = GammaEstimator::paper_default();
/// let before = est.expected();
/// est.observe(0.22); // device saves less than the prior suggested
/// assert!(est.expected() < before);
/// assert!(est.observations() == 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GammaEstimator {
    belief: Gaussian,
    rule: ConjugateUpdate,
    lo: f64,
    hi: f64,
    observations: usize,
    /// Variance of the original prior — the ceiling staleness-driven
    /// forgetting inflates toward.
    prior_variance: f64,
}

impl GammaEstimator {
    /// Creates an estimator with an explicit prior, observation noise,
    /// and truncation band.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` (via [`TruncatedGaussian`]) or the noise
    /// variance is not positive (via [`ConjugateUpdate`]).
    pub fn new(prior: Gaussian, observation_variance: f64, lo: f64, hi: f64) -> Self {
        // Validate the band eagerly.
        let _ = TruncatedGaussian::new(prior, lo, hi);
        Self {
            belief: prior,
            rule: ConjugateUpdate::new(observation_variance),
            lo,
            hi,
            observations: 0,
            prior_variance: prior.variance(),
        }
    }

    /// The paper's emulation setup: prior `N(0.31, 12)` truncated to
    /// `[0.13, 0.49]` (§VI-B).
    pub fn paper_default() -> Self {
        Self::new(
            Gaussian::new(GAMMA_PRIOR_MEAN, GAMMA_PRIOR_VARIANCE),
            DEFAULT_OBSERVATION_STD * DEFAULT_OBSERVATION_STD,
            GAMMA_LOWER,
            GAMMA_UPPER,
        )
    }

    /// Reassembles an estimator from persisted parts — the decoding
    /// half of the snapshot codec. Unlike [`GammaEstimator::new`], the
    /// prior variance is restored verbatim instead of being re-derived
    /// from the belief, so a checkpointed estimator round-trips
    /// bit-exactly even after observations have shrunk its belief.
    ///
    /// # Panics
    ///
    /// Panics on an invalid band, a non-positive observation-noise or
    /// prior variance, or a non-finite belief (the same invariants
    /// [`GammaEstimator::new`] enforces).
    pub fn from_parts(
        belief: Gaussian,
        observation_variance: f64,
        lo: f64,
        hi: f64,
        observations: usize,
        prior_variance: f64,
    ) -> Self {
        let _ = TruncatedGaussian::new(belief, lo, hi);
        assert!(
            prior_variance.is_finite() && prior_variance > 0.0,
            "prior variance must be finite and positive"
        );
        Self {
            belief,
            rule: ConjugateUpdate::new(observation_variance),
            lo,
            hi,
            observations,
            prior_variance,
        }
    }

    /// Current Gaussian belief (untruncated).
    pub fn belief(&self) -> Gaussian {
        self.belief
    }

    /// Observation-noise variance `σ_obs²` of the conjugate update
    /// rule.
    pub fn observation_variance(&self) -> f64 {
        self.rule.observation_variance()
    }

    /// Variance of the original prior — the ceiling
    /// [`GammaEstimator::forget`] inflates toward.
    pub fn prior_variance(&self) -> f64 {
        self.prior_variance
    }

    /// Truncation band `[lo, hi]`.
    pub fn band(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Number of observations folded in so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Point estimate for scheduling: the posterior mean truncated to
    /// the band — the paper's eq. 19.
    pub fn expected(&self) -> f64 {
        TruncatedGaussian::new(self.belief, self.lo, self.hi).mean()
    }

    /// Posterior standard deviation (untruncated belief), a measure of
    /// remaining uncertainty.
    pub fn uncertainty(&self) -> f64 {
        self.belief.std_dev()
    }

    /// Folds in one observed per-slot power-reduction ratio (eq. 17).
    ///
    /// Observations are clamped to `[0, 1]` — a measured ratio outside
    /// that range is a measurement artifact, not a usable signal. NaN
    /// clamps to 0 on this legacy path; prefer
    /// [`GammaEstimator::try_observe`], which rejects bad telemetry
    /// outright instead of letting it bias the belief.
    pub fn observe(&mut self, delta: f64) {
        let delta = delta.clamp(0.0, 1.0);
        let delta = if delta.is_nan() { 0.0 } else { delta };
        self.belief = floor_variance(self.rule.update(self.belief, delta));
        self.observations += 1;
    }

    /// Validating variant of [`GammaEstimator::observe`]: the belief is
    /// updated only if the reported ratio is finite and inside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ObservationError::NotFinite`] for NaN/±∞ reports (corrupt
    /// telemetry), [`ObservationError::OutOfRange`] for finite reports
    /// outside `[0, 1]`. The belief and observation count are untouched
    /// on rejection.
    pub fn try_observe(&mut self, delta: f64) -> Result<(), ObservationError> {
        if !delta.is_finite() {
            return Err(ObservationError::NotFinite);
        }
        if !(0.0..=1.0).contains(&delta) {
            return Err(ObservationError::OutOfRange(delta));
        }
        self.belief = floor_variance(self.rule.update(self.belief, delta));
        self.observations += 1;
        Ok(())
    }

    /// Staleness-aware forgetting: widens the belief by
    /// [`FORGET_INFLATION`] per slot spent without a usable
    /// observation (disconnects, rejected telemetry), capped at the
    /// prior variance. The mean is untouched, but the truncated point
    /// estimate naturally drifts toward the band center as confidence
    /// decays — exactly the prior's behavior.
    pub fn forget(&mut self, stale_slots: u32) {
        if stale_slots == 0 {
            return;
        }
        let ceiling = self.prior_variance.max(self.belief.variance());
        let inflated =
            (self.belief.variance() * FORGET_INFLATION.powi(stale_slots as i32)).min(ceiling);
        self.belief = Gaussian::new(self.belief.mean(), inflated);
    }
}

/// Applies the variance-collapse guard.
fn floor_variance(g: Gaussian) -> Gaussian {
    if g.variance() < VARIANCE_FLOOR {
        Gaussian::new(g.mean(), VARIANCE_FLOOR)
    } else {
        g
    }
}

impl Default for GammaEstimator {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_starts_at_band_center() {
        let est = GammaEstimator::paper_default();
        // σ² = 12 over a 0.36-wide band is effectively uniform.
        assert!((est.expected() - 0.31).abs() < 1e-3);
        assert_eq!(est.observations(), 0);
    }

    #[test]
    fn converges_to_true_ratio() {
        let mut est = GammaEstimator::paper_default();
        let truth = 0.42;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let noise: f64 = rng.gen_range(-0.03..0.03);
            est.observe(truth + noise);
        }
        assert!(
            (est.expected() - truth).abs() < 0.01,
            "estimate {} vs truth {truth}",
            est.expected()
        );
    }

    #[test]
    fn uncertainty_monotonically_decreases() {
        let mut est = GammaEstimator::paper_default();
        let mut prev = est.uncertainty();
        for i in 0..10 {
            est.observe(0.3 + 0.001 * i as f64);
            let u = est.uncertainty();
            assert!(u < prev);
            prev = u;
        }
    }

    #[test]
    fn expected_always_inside_band() {
        let mut est = GammaEstimator::paper_default();
        // Feed absurd observations; the point estimate must stay banded.
        for _ in 0..20 {
            est.observe(0.99);
        }
        assert!(est.expected() <= GAMMA_UPPER + 1e-12);
        for _ in 0..100 {
            est.observe(0.0);
        }
        assert!(est.expected() >= GAMMA_LOWER - 1e-12);
    }

    #[test]
    fn observations_clamped() {
        let mut a = GammaEstimator::paper_default();
        let mut b = GammaEstimator::paper_default();
        a.observe(1.7);
        b.observe(1.0);
        assert_eq!(a.belief(), b.belief());
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(GammaEstimator::default(), GammaEstimator::paper_default());
    }

    #[test]
    fn try_observe_rejects_corrupt_telemetry() {
        let mut est = GammaEstimator::paper_default();
        let before = est.clone();
        assert_eq!(est.try_observe(f64::NAN), Err(ObservationError::NotFinite));
        assert_eq!(est.try_observe(f64::INFINITY), Err(ObservationError::NotFinite));
        assert_eq!(est.try_observe(-0.2), Err(ObservationError::OutOfRange(-0.2)));
        assert_eq!(est.try_observe(1.4), Err(ObservationError::OutOfRange(1.4)));
        // Rejected reports leave the belief and counter untouched.
        assert_eq!(est, before);
        assert_eq!(est.observations(), 0);
        assert_eq!(est.try_observe(0.37), Ok(()));
        assert_eq!(est.observations(), 1);
        assert!(est.uncertainty() < before.uncertainty());
    }

    #[test]
    fn legacy_observe_treats_nan_as_zero_not_poison() {
        let mut nan = GammaEstimator::paper_default();
        let mut zero = GammaEstimator::paper_default();
        nan.observe(f64::NAN);
        zero.observe(0.0);
        assert_eq!(nan.belief(), zero.belief());
        assert!(nan.expected().is_finite());
    }

    #[test]
    fn variance_never_collapses_below_the_floor() {
        let mut est = GammaEstimator::paper_default();
        for _ in 0..20_000 {
            est.observe(0.31);
        }
        assert!(est.belief().variance() >= VARIANCE_FLOOR);
        // A shifted truth can still move the floored belief.
        let before = est.expected();
        for _ in 0..2_000 {
            est.observe(0.45);
        }
        assert!(est.expected() > before + 0.01, "belief frozen by collapse");
    }

    #[test]
    fn forgetting_inflates_uncertainty_toward_the_prior() {
        let mut est = GammaEstimator::paper_default();
        for _ in 0..30 {
            est.observe(0.42);
        }
        let confident = est.uncertainty();
        est.forget(0);
        assert_eq!(est.uncertainty(), confident, "zero stale slots is a no-op");
        est.forget(3);
        let wider = est.uncertainty();
        assert!(wider > confident);
        // The mean is untouched; only confidence decays.
        assert!((est.belief().mean() - 0.42).abs() < 0.01);
        // Unbounded staleness saturates at the prior variance.
        est.forget(10_000);
        assert!(est.belief().variance() <= GAMMA_PRIOR_VARIANCE + 1e-9);
        // And the point estimate has drifted back toward the band
        // center, like a fresh prior.
        assert!((est.expected() - GAMMA_PRIOR_MEAN).abs() < 0.02);
    }
}
