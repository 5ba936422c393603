//! Whole-survey statistics: the §III-A headline numbers and Table II.

use crate::participant::{AgeBand, Brand, Gender, Occupation, Participant};
use serde::{Deserialize, Serialize};

/// Aggregated statistics of a survey cohort.
///
/// # Example
///
/// ```
/// use lpvs_survey::generator::SurveyGenerator;
/// use lpvs_survey::summary::SurveySummary;
///
/// let cohort = SurveyGenerator::paper_cohort(2).generate();
/// let summary = SurveySummary::from_cohort(&cohort);
/// assert!(summary.lba_prevalence > 0.88);
/// assert!(summary.giveup_at_or_above(10) > 0.4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveySummary {
    /// Number of (cleaned) responses.
    pub respondents: usize,
    /// Fraction reporting any low-battery anxiety.
    pub lba_prevalence: f64,
    /// Mean battery level at which users charge.
    pub mean_charge_level: f64,
    /// Mean battery level at which users abandon a video.
    pub mean_giveup_level: f64,
    /// Histogram of give-up levels (index 0 = level 1 %).
    giveup_hist: Vec<usize>,
    /// Histogram of charge levels (index 0 = level 1 %).
    charge_hist: Vec<usize>,
    /// Demographic counts for Table II.
    gender: Vec<(Gender, usize)>,
    age: Vec<(AgeBand, usize)>,
    occupation: Vec<(Occupation, usize)>,
    brand: Vec<(Brand, usize)>,
}

impl SurveySummary {
    /// Computes all statistics of a cohort.
    ///
    /// # Panics
    ///
    /// Panics if the cohort is empty.
    pub fn from_cohort(cohort: &[Participant]) -> Self {
        assert!(!cohort.is_empty(), "cannot summarize an empty cohort");
        let n = cohort.len() as f64;
        let mut giveup_hist = vec![0usize; 100];
        let mut charge_hist = vec![0usize; 100];
        for p in cohort {
            giveup_hist[(p.giveup_level.clamp(1, 100) - 1) as usize] += 1;
            charge_hist[(p.charge_level.clamp(1, 100) - 1) as usize] += 1;
        }
        let count_by = |f: &dyn Fn(&Participant) -> bool| cohort.iter().filter(|p| f(p)).count();
        Self {
            respondents: cohort.len(),
            lba_prevalence: count_by(&|p| p.suffers_lba) as f64 / n,
            mean_charge_level: cohort.iter().map(|p| p.charge_level as f64).sum::<f64>() / n,
            mean_giveup_level: cohort.iter().map(|p| p.giveup_level as f64).sum::<f64>() / n,
            giveup_hist,
            charge_hist,
            gender: [Gender::Male, Gender::Female]
                .into_iter()
                .map(|g| (g, count_by(&|p| p.gender == g)))
                .collect(),
            age: [
                AgeBand::Under18,
                AgeBand::From18To25,
                AgeBand::From25To35,
                AgeBand::From35To45,
                AgeBand::From45To65,
            ]
            .into_iter()
            .map(|a| (a, count_by(&|p| p.age == a)))
            .collect(),
            occupation: [
                Occupation::Student,
                Occupation::GovInst,
                Occupation::Company,
                Occupation::Freelance,
                Occupation::Other,
            ]
            .into_iter()
            .map(|o| (o, count_by(&|p| p.occupation == o)))
            .collect(),
            brand: [Brand::IPhone, Brand::Huawei, Brand::Xiaomi, Brand::Other]
                .into_iter()
                .map(|b| (b, count_by(&|p| p.brand == b)))
                .collect(),
        }
    }

    /// Fraction of users whose give-up level is at or above `level` —
    /// i.e. the audience already lost once the battery reaches `level`.
    pub fn giveup_at_or_above(&self, level: u8) -> f64 {
        let level = level.clamp(1, 100) as usize;
        let lost: usize = self.giveup_hist[level - 1..].iter().sum();
        lost as f64 / self.respondents as f64
    }

    /// Table II rows as `(subject, count, percent)` in the paper's
    /// print order.
    pub fn table2_rows(&self) -> Vec<(String, usize, f64)> {
        let n = self.respondents as f64;
        let mut rows = Vec::new();
        let mut push = |label: String, count: usize| {
            rows.push((label, count, 100.0 * count as f64 / n));
        };
        for (g, c) in &self.gender {
            push(format!("{g:?}"), *c);
        }
        for (a, c) in &self.age {
            push(format!("{a:?}"), *c);
        }
        for (o, c) in &self.occupation {
            push(format!("{o:?}"), *c);
        }
        for (b, c) in &self.brand {
            push(format!("{b:?}"), *c);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SurveyGenerator;

    fn summary() -> SurveySummary {
        SurveySummary::from_cohort(&SurveyGenerator::paper_cohort(17).generate())
    }

    #[test]
    fn headline_numbers_are_near_paper() {
        let s = summary();
        assert_eq!(s.respondents, 2032);
        assert!((s.lba_prevalence - 0.9188).abs() < 0.02);
        // "Nearly half … give up below 10 %": lost audience at 10 %
        // battery ≈ 50 %.
        let lost_at_10 = s.giveup_at_or_above(10);
        assert!((0.40..=0.60).contains(&lost_at_10), "{lost_at_10}");
    }

    #[test]
    fn survival_fractions_are_monotone() {
        let s = summary();
        let mut prev = 1.0;
        for level in [1u8, 10, 20, 40, 80] {
            let f = s.giveup_at_or_above(level);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn table2_counts_sum_per_category() {
        let s = summary();
        let rows = s.table2_rows();
        // 2 gender + 5 age + 5 occupation + 4 brand rows.
        assert_eq!(rows.len(), 16);
        let gender_total: usize = rows[..2].iter().map(|r| r.1).sum();
        assert_eq!(gender_total, 2032);
        let brand_total: usize = rows[12..].iter().map(|r| r.1).sum();
        assert_eq!(brand_total, 2032);
    }

    #[test]
    fn demographics_track_published_marginals() {
        let s = summary();
        let student = s
            .occupation
            .iter()
            .find(|(o, _)| *o == Occupation::Student)
            .map(|(_, c)| *c)
            .unwrap();
        let share = student as f64 / 2032.0;
        assert!((share - 0.5039).abs() < 0.05, "student share {share}");
    }

    #[test]
    #[should_panic(expected = "empty cohort")]
    fn empty_cohort_rejected() {
        let _ = SurveySummary::from_cohort(&[]);
    }
}
