//! Gaussian–Gaussian conjugate posterior updates.
//!
//! The paper's eq. 17 computes the posterior of `γ_n` after observing a
//! power reduction `Δ_n`. With a Gaussian prior `N(μ₀, σ₀²)` and a
//! Gaussian observation likelihood `Δ | γ ~ N(γ, σ_obs²)`, the posterior
//! is again Gaussian — "the update of γ_n can be computed precisely
//! without any approximation" (§V-D). The closed form is the standard
//! precision-weighted combination:
//!
//! ```text
//! σ'² = 1 / (1/σ₀² + 1/σ_obs²)
//! μ'  = σ'² · (μ₀/σ₀² + Δ/σ_obs²)
//! ```

use crate::gaussian::Gaussian;
use serde::{Deserialize, Serialize};

/// The conjugate update rule for a Gaussian mean with known observation
/// noise.
///
/// # Example
///
/// ```
/// use lpvs_bayes::{ConjugateUpdate, Gaussian};
///
/// let rule = ConjugateUpdate::new(0.05 * 0.05); // σ_obs = 5 %
/// let prior = Gaussian::new(0.31, 12.0);
/// let posterior = rule.update(prior, 0.42);
/// // A diffuse prior is dominated by the observation.
/// assert!((posterior.mean() - 0.42).abs() < 1e-3);
/// assert!(posterior.variance() < prior.variance());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConjugateUpdate {
    observation_variance: f64,
}

impl ConjugateUpdate {
    /// Creates an update rule with the given observation-noise variance
    /// `σ_obs²`.
    ///
    /// # Panics
    ///
    /// Panics if the variance is not finite and strictly positive.
    pub fn new(observation_variance: f64) -> Self {
        assert!(
            observation_variance.is_finite() && observation_variance > 0.0,
            "observation variance must be finite and positive"
        );
        Self { observation_variance }
    }

    /// Observation-noise variance.
    pub fn observation_variance(&self) -> f64 {
        self.observation_variance
    }

    /// Posterior after a single observation.
    pub fn update(&self, prior: Gaussian, observation: f64) -> Gaussian {
        let prior_precision = 1.0 / prior.variance();
        let obs_precision = 1.0 / self.observation_variance;
        let posterior_precision = prior_precision + obs_precision;
        let variance = 1.0 / posterior_precision;
        let mean =
            variance * (prior.mean() * prior_precision + observation * obs_precision);
        Gaussian::new(mean, variance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_variance_shrinks() {
        let rule = ConjugateUpdate::new(0.01);
        let prior = Gaussian::new(0.31, 12.0);
        let post = rule.update(prior, 0.4);
        assert!(post.variance() < prior.variance());
        let post2 = rule.update(post, 0.4);
        assert!(post2.variance() < post.variance());
    }

    #[test]
    fn posterior_mean_between_prior_and_observation() {
        let rule = ConjugateUpdate::new(0.5);
        let prior = Gaussian::new(0.2, 0.5);
        let post = rule.update(prior, 0.6);
        assert!(post.mean() > 0.2 && post.mean() < 0.6);
        // Equal variances → midpoint.
        assert!((post.mean() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_numerical_bayes_rule() {
        // Evaluate eq. 17 by quadrature: posterior ∝ likelihood × prior,
        // then compare mean with the closed form.
        let rule = ConjugateUpdate::new(0.02);
        let prior = Gaussian::new(0.25, 0.1);
        let obs = 0.45;
        let likelihood = |g: f64| Gaussian::new(g, 0.02).pdf(obs);
        let unnorm = |g: f64| likelihood(g) * prior.pdf(g);
        // Integrate on an interval tight enough that the fixed grid
        // resolves the (narrow) posterior spike.
        let z = crate::integrate::simpson(unnorm, -2.0, 3.0, 32_768);
        let mean_num = crate::integrate::simpson(|g| g * unnorm(g), -2.0, 3.0, 32_768) / z;
        let post = rule.update(prior, obs);
        assert!(
            (post.mean() - mean_num).abs() < 1e-6,
            "closed {} vs numeric {mean_num}",
            post.mean()
        );
    }

    #[test]
    #[should_panic(expected = "observation variance")]
    fn nonpositive_noise_rejected() {
        let _ = ConjugateUpdate::new(0.0);
    }
}
