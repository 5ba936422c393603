//! # lpvs-survey — low-battery-anxiety survey synthesis and modelling
//!
//! The paper's §III grounds LPVS in a 2,032-participant survey from
//! which it extracts the **LBA curve**: anxiety degree as a function of
//! battery level (Fig. 2). The raw responses are not redistributable,
//! so this crate provides:
//!
//! * [`participant`] — the response record (demographics + the two
//!   battery-level questions LPVS consumes);
//! * [`demographics`] — the Table II marginal distributions and
//!   frequency tables;
//! * [`generator`] — a synthetic-cohort generator calibrated to every
//!   statistic the paper reports (91.88 % LBA prevalence, charge-level
//!   behaviour with the icon-triggered spike at 20 %, give-up levels
//!   with ≈ 20 % abandonment at 20 % battery and ≈ 50 % at 10 %);
//! * [`extraction`] — the paper's exact four-step cumulative-binning
//!   procedure turning raw answers into the curve;
//! * [`curve`] — [`AnxietyCurve`]: the φ(·) the scheduler evaluates,
//!   with interpolation, shape analysis (convex above 20 %, concave
//!   below, sharp rise at 20 %), and reference shapes;
//! * [`summary`] — whole-survey statistics backing Table II and the
//!   §III-A headline numbers.
//!
//! # Example
//!
//! ```
//! use lpvs_survey::generator::SurveyGenerator;
//! use lpvs_survey::extraction::extract_curve;
//!
//! let cohort = SurveyGenerator::paper_cohort(42).generate();
//! assert_eq!(cohort.len(), 2032);
//!
//! let curve = extract_curve(cohort.iter().map(|p| p.charge_level));
//! // Anxiety at 5 % battery far exceeds anxiety at 80 %.
//! assert!(curve.phi(0.05) > 4.0 * curve.phi(0.80));
//! ```

#![warn(missing_docs)]

pub mod curve;
pub mod demographics;
pub mod extraction;
pub mod generator;
pub mod participant;
pub mod summary;

pub use curve::AnxietyCurve;
pub use extraction::extract_curve;
pub use generator::SurveyGenerator;
pub use participant::{AgeBand, Brand, Gender, Occupation, Participant};
pub use summary::SurveySummary;

/// Number of participants in the paper's survey.
pub const PAPER_COHORT_SIZE: usize = 2032;

/// LBA prevalence the paper reports (1,867 of 2,032).
pub const PAPER_LBA_PREVALENCE: f64 = 1867.0 / 2032.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prevalence_constant_matches_reported_percentage() {
        assert!((PAPER_LBA_PREVALENCE - 0.9188).abs() < 1e-4);
    }
}
