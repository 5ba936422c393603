//! # lpvs-bayes — Bayesian estimation of power-reduction ratios
//!
//! LPVS never knows a device's power-reduction ratio `γ_n` ahead of
//! time (paper Remark 2): the ratio depends on display type and on the
//! content actually played. The paper resolves this circular dependency
//! by treating `γ_n` as a Gaussian random variable and updating it with
//! conjugate Bayesian inference after every played slot (§V-D,
//! eqs. 15–19). This crate provides that machinery:
//!
//! * [`gaussian`] — Gaussian distribution with an `erf`-based CDF;
//! * [`conjugate`] — the Gaussian–Gaussian conjugate posterior update
//!   (eq. 17, computed in closed form as the paper notes);
//! * [`truncated`] — truncated Gaussian moments on `[γ_L, γ_U]`, giving
//!   the bounded expectation of eq. 19;
//! * [`integrate`] — composite Simpson quadrature, the oracle that
//!   cross-checks the closed forms in tests;
//! * [`estimator`] — [`GammaEstimator`], the per-device state machine
//!   the scheduler actually holds;
//! * [`bank`] — [`BayesBank`], shard-local collections of estimators
//!   that split and merge without ever touching a posterior, so the
//!   pipelined runtime can own γ state per shard.
//!
//! # Example
//!
//! ```
//! use lpvs_bayes::GammaEstimator;
//!
//! // Paper initialization: γ ∈ [0.13, 0.49], prior mean 0.31, σ² = 12.
//! let mut est = GammaEstimator::paper_default();
//! assert!((est.expected() - 0.31).abs() < 1e-6);
//!
//! // After observing strong savings the estimate moves up, but never
//! // outside the Table I band.
//! est.observe(0.45);
//! est.observe(0.47);
//! assert!(est.expected() > 0.31);
//! assert!(est.expected() <= 0.49);
//! ```

#![warn(missing_docs)]

pub mod bank;
pub mod codec;
pub mod conjugate;
pub mod estimator;
pub mod gaussian;
pub mod integrate;
pub mod truncated;

pub use bank::BayesBank;
pub use conjugate::ConjugateUpdate;
pub use estimator::{GammaEstimator, ObservationError};
pub use gaussian::Gaussian;
pub use integrate::simpson;
pub use truncated::TruncatedGaussian;

/// Lower bound of the power-reduction ratio band from Table I of the
/// paper (average lower bound across strategies, 13 %).
pub const GAMMA_LOWER: f64 = 0.13;

/// Upper bound of the power-reduction ratio band from Table I of the
/// paper (average upper bound across strategies, 49 %).
pub const GAMMA_UPPER: f64 = 0.49;

/// Prior mean used in the paper's emulation: `(0.13 + 0.49) / 2`.
pub const GAMMA_PRIOR_MEAN: f64 = (GAMMA_LOWER + GAMMA_UPPER) / 2.0;

/// Prior variance used in the paper's emulation (§V-D sets `σ² = 12`,
/// deliberately diffuse relative to the `[0.13, 0.49]` band).
pub const GAMMA_PRIOR_VARIANCE: f64 = 12.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_consistent() {
        assert!((GAMMA_PRIOR_MEAN - 0.31).abs() < 1e-12);
        let (lo, hi) = (GAMMA_LOWER, GAMMA_UPPER);
        assert!(lo < hi);
    }
}
