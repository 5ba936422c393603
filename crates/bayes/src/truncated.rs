//! Truncated Gaussian moments on a closed interval.
//!
//! The paper keeps `γ_n` inside the Table I band `[γ_L, γ_U]`: the
//! marginal of eq. 18 and the expectation of eq. 19 both integrate over
//! that interval only. A Gaussian restricted to `[lo, hi]` has
//! closed-form mass and mean in terms of the standard normal pdf/cdf;
//! this module implements them (with quadrature cross-checks in the
//! tests).

use crate::gaussian::Gaussian;
use serde::{Deserialize, Serialize};

/// A Gaussian conditioned on lying inside `[lo, hi]`.
///
/// # Example
///
/// ```
/// use lpvs_bayes::{Gaussian, TruncatedGaussian};
///
/// // A diffuse prior truncated to the Table I band is nearly uniform,
/// // so its mean sits at the band center.
/// let t = TruncatedGaussian::new(Gaussian::new(0.31, 12.0), 0.13, 0.49);
/// assert!((t.mean() - 0.31).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruncatedGaussian {
    parent: Gaussian,
    lo: f64,
    hi: f64,
}

impl TruncatedGaussian {
    /// Truncates `parent` to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn new(parent: Gaussian, lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "truncation interval must be non-degenerate");
        Self { parent, lo, hi }
    }

    /// The untruncated parent distribution.
    pub fn parent(&self) -> Gaussian {
        self.parent
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Probability mass the parent places on `[lo, hi]` (the
    /// normalization constant `Z`).
    pub fn mass(&self) -> f64 {
        self.parent.cdf(self.hi) - self.parent.cdf(self.lo)
    }

    /// Density at `x` (zero outside the interval).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let z = self.mass();
        if z <= f64::MIN_POSITIVE {
            // Degenerate truncation far in a tail: approximate by a
            // point mass at the nearer bound.
            return 0.0;
        }
        self.parent.pdf(x) / z
    }

    /// Mean of the truncated distribution — eq. 19 of the paper when
    /// applied to the posterior of `γ_n`.
    pub fn mean(&self) -> f64 {
        let mu = self.parent.mean();
        let sd = self.parent.std_dev();
        let alpha = (self.lo - mu) / sd;
        let beta = (self.hi - mu) / sd;
        let std = Gaussian::standard();
        let z = std.cdf(beta) - std.cdf(alpha);
        if z <= f64::MIN_POSITIVE {
            return self.nearest_bound();
        }
        mu + sd * (std.pdf(alpha) - std.pdf(beta)) / z
    }

    /// Draws one sample by inverse-CDF over the truncated interval.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = self.mass();
        if z <= f64::MIN_POSITIVE {
            return self.nearest_bound();
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        let target = self.parent.cdf(self.lo) + u * z;
        // The quantile is clamped into the interval to absorb the CDF
        // approximation error at the edges.
        self.parent.quantile(target.clamp(1e-15, 1.0 - 1e-15)).clamp(self.lo, self.hi)
    }

    /// Bound nearest to the parent mean — the limit of the truncated
    /// mean when essentially no mass falls inside the interval.
    fn nearest_bound(&self) -> f64 {
        if self.parent.mean() < self.lo {
            self.lo
        } else {
            self.hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::simpson;
    use rand::SeedableRng;

    fn band() -> TruncatedGaussian {
        TruncatedGaussian::new(Gaussian::new(0.31, 12.0), 0.13, 0.49)
    }

    #[test]
    fn pdf_normalizes_on_interval() {
        let t = band();
        let total = simpson(|x| t.pdf(x), 0.13, 0.49, 2048);
        assert!((total - 1.0).abs() < 1e-5, "mass {total}");
    }

    #[test]
    fn mean_matches_quadrature() {
        for &(mu, var) in &[(0.31, 12.0), (0.0, 0.01), (0.45, 0.003), (1.5, 0.2)] {
            let t = TruncatedGaussian::new(Gaussian::new(mu, var), 0.13, 0.49);
            let numeric = simpson(|x| x * t.pdf(x), 0.13, 0.49, 4096);
            assert!(
                (t.mean() - numeric).abs() < 1e-4,
                "closed form {} vs quadrature {numeric} for mu={mu}",
                t.mean()
            );
        }
    }

    #[test]
    fn mean_stays_inside_bounds() {
        for &mu in &[-100.0, -1.0, 0.0, 0.31, 1.0, 100.0] {
            let t = TruncatedGaussian::new(Gaussian::new(mu, 2.0), 0.13, 0.49);
            let m = t.mean();
            assert!((0.13..=0.49).contains(&m), "mean {m} escaped for mu={mu}");
        }
    }

    #[test]
    fn extreme_truncation_degrades_to_bound() {
        // Parent mean 50σ above the interval: numerically zero mass.
        let t = TruncatedGaussian::new(Gaussian::new(100.0, 1.0), 0.13, 0.49);
        assert_eq!(t.mean(), 0.49);
        let t = TruncatedGaussian::new(Gaussian::new(-100.0, 1.0), 0.13, 0.49);
        assert_eq!(t.mean(), 0.13);
    }

    #[test]
    fn pdf_zero_outside() {
        let t = band();
        assert_eq!(t.pdf(0.1), 0.0);
        assert_eq!(t.pdf(0.5), 0.0);
        assert!(t.pdf(0.31) > 0.0);
    }

    #[test]
    fn samples_stay_in_band_and_match_mean() {
        let t = TruncatedGaussian::new(Gaussian::new(0.4, 0.02), 0.13, 0.49);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 8000;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = t.sample(&mut rng);
            assert!((0.13..=0.49).contains(&s));
            sum += s;
        }
        let mean = sum / n as f64;
        assert!((mean - t.mean()).abs() < 0.01, "sample mean {mean} vs {}", t.mean());
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_interval_rejected() {
        let _ = TruncatedGaussian::new(Gaussian::standard(), 0.5, 0.5);
    }
}
