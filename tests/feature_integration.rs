//! Integration of the extension features: warm-started scheduling,
//! schedule explanations, per-genre display power and the survey's
//! extraction confidence — through the public façade.

use lpvs::core::explain::{explain, Reason};
use lpvs::core::scheduler::LpvsScheduler;
use lpvs::display::spec::{DisplaySpec, Resolution};
use lpvs::emulator::experiment::synthetic_problem;
use lpvs::media::content::{ContentModel, Genre};
use lpvs::survey::curve::LEVELS;
use lpvs::survey::extraction::extract_curve;
use lpvs::survey::generator::SurveyGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn warm_started_slots_have_low_churn() {
    // Two consecutive slots over an almost-identical population: warm
    // starting from the previous selection keeps the transform set
    // stable.
    let scheduler = LpvsScheduler::paper_default();
    let slot1 = synthetic_problem(120, 30.0, 1.0, 41);
    let first = scheduler.schedule(&slot1).unwrap();
    // The "next slot": same devices, slightly drained batteries.
    let mut slot2 = slot1.clone();
    for r in &mut slot2.requests {
        r.energy_j = (r.energy_j - 250.0).max(0.0);
    }
    let second = scheduler.schedule_warm(&slot2, Some(&first.selected)).unwrap();
    let churn = second.churn_vs(&first.selected).unwrap();
    assert!(churn < 0.15, "selection churned {churn} between near-identical slots");
    assert!(slot2.capacity_feasible(&second.selected));
}

#[test]
fn explanations_cover_every_device() {
    let problem = synthetic_problem(60, 15.0, 1.0, 13);
    let schedule = LpvsScheduler::paper_default().schedule(&problem).unwrap();
    let explanation = explain(&problem, &schedule.selected);
    assert_eq!(explanation.reasons.len(), 60);
    // Selected devices are explained as such, with positive savings.
    for (r, &chosen) in explanation.reasons.iter().zip(&schedule.selected) {
        match (r, chosen) {
            (Reason::Selected { saving_j, .. }, true) => assert!(*saving_j > 0.0),
            (Reason::Selected { .. }, false) => panic!("mislabelled selection"),
            (_, true) => panic!("selected device explained as unselected"),
            (_, false) => {}
        }
    }
    // Under tight capacity someone must have lost out.
    assert!(explanation.count("lost-on-capacity") > 0);
}

#[test]
fn power_profiles_show_genre_character() {
    // Per-chunk OLED power of 120 chunks per genre: sports is brighter
    // on average; music stages are burstier (higher peak-to-mean).
    let spec = DisplaySpec::oled_phone(Resolution::FHD);
    let watts = |genre| -> Vec<f64> {
        ContentModel::new(genre, 5).chunk_stats(120).iter().map(|f| spec.power_watts(f)).collect()
    };
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let burstiness = |w: &[f64]| w.iter().copied().fold(0.0, f64::max) / mean(w);
    let (sports, music) = (watts(Genre::Sports), watts(Genre::Music));
    assert_eq!(sports.len(), 120);
    assert!(sports.iter().chain(&music).all(|w| w.is_finite() && *w > 0.0));
    assert!(mean(&sports) > mean(&music));
    assert!(burstiness(&music) > burstiness(&sports));
}

#[test]
fn survey_analysis_quantifies_extraction_confidence() {
    // Bootstrap the §III-B extraction: resample the cohort with
    // replacement 40 times; the pointwise 95 % band of the extracted
    // curve stays within ±0.05 at every battery level.
    let cohort = SurveyGenerator::paper_cohort(23).generate();
    let mut rng = StdRng::seed_from_u64(6);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); LEVELS];
    for _ in 0..40 {
        let draw = (0..cohort.len()).map(|_| cohort[rng.gen_range(0..cohort.len())].charge_level);
        for (level, &v) in samples.iter_mut().zip(extract_curve(draw).values()) {
            level.push(v);
        }
    }
    let rank = |sorted: &[f64], q: f64| sorted[((sorted.len() as f64 - 1.0) * q).round() as usize];
    for (i, level) in samples.iter_mut().enumerate() {
        level.sort_by(f64::total_cmp);
        let half_width = (rank(level, 0.975) - rank(level, 0.025)) / 2.0;
        assert!(half_width < 0.05, "level {}: half-width {half_width}", i + 1);
    }
    // The two battery-behaviour questions correlate positively.
    let xs: Vec<f64> = cohort.iter().map(|p| f64::from(p.charge_level)).collect();
    let ys: Vec<f64> = cohort.iter().map(|p| f64::from(p.giveup_level)).collect();
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let r = sxy / (sxx * syy).sqrt();
    assert!(r > 0.1 && r < 1.0, "correlation {r}");
}
